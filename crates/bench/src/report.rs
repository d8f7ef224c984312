//! Plain-text table formatting shared by the experiment binaries.
//!
//! The binaries print paper-style tables to stdout, or with `--json` the
//! underlying report structs as JSON.

/// Formats a table with a header row and aligned columns.
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("| ");
        for (i, cell) in cells.iter().enumerate() {
            let w = widths.get(i).copied().unwrap_or(cell.len());
            line.push_str(&format!("{cell:<w$} | "));
        }
        line.trim_end().to_string()
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    let sep: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
    out.push_str(&fmt_row(&sep, &widths));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats a float with the given number of decimal places, rendering NaN as
/// a dash (matching the paper's "—" for unreported values).
pub fn num(value: f64, decimals: usize) -> String {
    if value.is_nan() {
        "-".to_string()
    } else {
        format!("{value:.decimals$}")
    }
}

/// Formats a ratio as `N.Nx`.
pub fn ratio(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.1}x")
    } else {
        "-".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_contains_headers_and_rows() {
        let t = format_table(
            &["Layer", "LUT"],
            &[
                vec!["CONV1_1".to_string(), "1900".to_string()],
                vec!["FC".to_string(), "6000".to_string()],
            ],
        );
        assert!(t.contains("Layer"));
        assert!(t.contains("CONV1_1"));
        assert!(t.contains("6000"));
        assert_eq!(t.lines().count(), 4);
    }

    #[test]
    fn columns_are_aligned() {
        let t = format_table(&["A", "B"], &[vec!["xxxx".to_string(), "1".to_string()]]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    fn num_and_ratio_formatting() {
        assert_eq!(num(2.71729, 2), "2.72");
        assert_eq!(num(f64::NAN, 2), "-");
        assert_eq!(ratio(26.43), "26.4x");
        assert_eq!(ratio(f64::INFINITY), "-");
    }
}
