//! Order statistics and the reporting rules the benchmark's numbers follow.

/// Percentiles a tail latency may be reported at, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples needed beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` (to 0.1) among `n` sorted
/// samples, in integer per-mille arithmetic so that e.g. p99 of 1000 is
/// exactly rank 990.
fn nearest_rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

/// Number of samples strictly beyond the nearest-rank percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(n, p)
    }
}

/// The highest percentile, at most `cap`, that leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond it; `None` when even the median
/// does not.
pub fn tail_percentile(n: usize, cap: f64) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|&p| p <= cap)
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

/// Nearest-rank percentile `p` of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Median of `values` (the mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A latency summary: the median, and the tail at the highest percentile
/// (at most `cap`) with [`MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    pub samples: usize,
    pub p50: f64,
    pub tail_pct: f64,
    pub tail: f64,
}

impl Latency {
    /// Summarises `values`. With too few samples for any tail percentile
    /// the maximum is reported as the 100th percentile.
    pub fn of(values: &[f64], cap: f64) -> Latency {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail_pct = tail_percentile(sorted.len(), cap).unwrap_or(100.0);
        Latency {
            samples: sorted.len(),
            p50: median(&sorted),
            tail_pct,
            tail: percentile(&sorted, tail_pct),
        }
    }
}

/// Whether `name` is a valid metric name: it starts with a letter or digit
/// and holds at most 64 characters from `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Peak resident memory of this process in MiB (`VmHWM`), or `None` where
/// `/proc` does not report it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: rank 990 is p99, leaving exactly 10 beyond.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(tail_percentile(1000, 99.0), Some(99.0));
        // One fewer sample leaves only 9 beyond p99: fall back to p95.
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(tail_percentile(999, 99.0), Some(95.0));
        assert_eq!(tail_percentile(10_000, 99.9), Some(99.9));
        assert_eq!(tail_percentile(10_000, 99.0), Some(99.0));
        assert_eq!(tail_percentile(200, 99.0), Some(95.0));
        assert_eq!(tail_percentile(199, 99.0), Some(90.0));
        assert_eq!(tail_percentile(40, 99.0), Some(75.0));
        assert_eq!(tail_percentile(20, 99.0), Some(50.0));
        assert_eq!(tail_percentile(19, 99.0), None);
        assert_eq!(tail_percentile(0, 99.0), None);
        // Whatever is chosen really leaves ten samples beyond it.
        for n in 20..3000 {
            let p = tail_percentile(n, 99.9).expect("n >= 20 has a median tail");
            assert!(samples_beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn latency_summary_uses_the_rule() {
        let values: Vec<f64> = (1..=100).map(f64::from).rev().collect();
        let l = Latency::of(&values, 99.0);
        assert_eq!(l.samples, 100);
        assert_eq!(l.p50, 50.5);
        assert_eq!(l.tail_pct, 90.0);
        assert_eq!(l.tail, 90.0);
        let few = Latency::of(&[3.0, 1.0, 2.0], 99.0);
        assert_eq!((few.tail_pct, few.tail), (100.0, 3.0));
    }

    #[test]
    fn metric_name_charset() {
        for ok in [
            "setup_s",
            "layer.CONV1_1.us_per_img",
            "accel.FC_OUT.cycles",
            "9-a.b_c",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "semi;colon",
            "ümlaut",
            "a/b",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"x".repeat(64)));
    }
}
