//! The run's result: correctness gates, metrics and the printed output
//! whose last line is the JSON object the benchmark contract asks for.

use crate::stats::valid_metric_name;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// A workload run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (images, requests, samples, gate checks).
    pub attempted: u64,
    /// Operations that failed or were refused where no refusal is expected,
    /// plus failed correctness gates.
    pub failed: u64,
    gates: Vec<(String, bool)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Human-readable lines printed above the JSON line.
    pub lines: Vec<String>,
}

impl Report {
    /// Records a correctness gate; a failed gate counts as a failed
    /// operation.
    pub fn gate(&mut self, name: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.gates.push((name.to_string(), ok));
    }

    /// Counts `n` operations, `failed` of which failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    pub fn line(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    fn correct(&self, metrics: &[Metric]) -> bool {
        self.gates.iter().all(|(_, ok)| *ok) && metrics.iter().all(|m| m.value.is_finite())
    }

    /// The final JSON line over `metrics`.
    pub fn json(&self, metrics: &[Metric]) -> String {
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                assert!(
                    valid_metric_name(&m.name),
                    "invalid metric name {:?}",
                    m.name
                );
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(metrics),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }

    /// Prints the notes, gates and metric tables, then the JSON line: the
    /// end-to-end metrics for an untraced run, the per-layer ones for a
    /// traced run.
    pub fn print(&self, traced: bool) {
        for line in &self.lines {
            println!("{line}");
        }
        for (name, ok) in &self.gates {
            println!("gate {name}: {}", if *ok { "pass" } else { "FAIL" });
        }
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        for m in metrics {
            println!("{:<34} {:>16.4} {}", m.name, m.value, m.unit);
        }
        println!("{}", self.json(metrics));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_reports_gates_and_counts() {
        let mut r = Report::default();
        r.ops(10, 1);
        r.gate("bitwise", true);
        let m = [Metric::new("latency_ms", 1.25, "ms")];
        assert_eq!(
            r.json(&m),
            "{\"correct\": true, \"attempted\": 11, \"failed\": 1, \"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        r.gate("bitwise", false);
        assert!(r
            .json(&m)
            .starts_with("{\"correct\": false, \"attempted\": 12, \"failed\": 2"));
    }

    #[test]
    fn non_finite_values_make_the_run_incorrect() {
        let r = Report::default();
        let line = r.json(&[Metric::new("x", f64::NAN, "ms")]);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 1,"));
        assert!(line.contains("\"value\": 0.0"));
    }
}
