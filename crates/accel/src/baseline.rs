//! Prior-work baselines used in the Table III comparison.
//!
//! The paper compares its accelerator against two published designs:
//!
//! * **SyncNN** (Panchapakesan et al., TRETS 2022, reference \[15\]): an
//!   event-driven accelerator with quantization support on a Xilinx ZCU102,
//!   reported at 200 MHz with 0.4 W dynamic power, 65 FPS on SVHN and 62 FPS
//!   on CIFAR-10 for a 4-bit VGG11;
//! * **Gerlinghoff et al.** (DATE 2022, reference \[7\]): a resource-efficient
//!   accelerator supporting emerging neural encodings on the same XCVU13P,
//!   reported at 115 MHz, 4.9 W, 210 ms latency and 4.7 FPS on CIFAR-100 for
//!   a 32-bit VGG11.
//!
//! These are *reported operating points*, not re-implementations: Table III
//! only needs the published rows to compute the throughput/power ratios. The
//! module also provides the comparison arithmetic used by the Table III
//! harness.

use serde::{Deserialize, Serialize};

/// One published operating point of a prior-work accelerator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PriorWork {
    /// Short identifier, e.g. `"SyncNN"`.
    pub name: String,
    /// Dataset the row refers to.
    pub dataset: String,
    /// Network evaluated by the prior work.
    pub network: String,
    /// Weight precision reported.
    pub weight_precision: String,
    /// Reported accuracy in percent.
    pub accuracy_percent: f64,
    /// Target platform.
    pub platform: String,
    /// Maximum clock frequency in MHz.
    pub fmax_mhz: f64,
    /// Reported (dynamic) power in watts.
    pub power_watts: f64,
    /// Reported latency in milliseconds, if published.
    pub latency_ms: Option<f64>,
    /// Reported energy per image in millijoules, if published.
    pub energy_mj: Option<f64>,
    /// Reported throughput in frames per second.
    pub throughput_fps: f64,
}

impl PriorWork {
    /// SyncNN's SVHN row of Table III.
    pub fn syncnn_svhn() -> Self {
        PriorWork {
            name: "SyncNN".to_string(),
            dataset: "SVHN".to_string(),
            network: "VGG11".to_string(),
            weight_precision: "4-bit".to_string(),
            accuracy_percent: 89.0,
            platform: "ZCU102".to_string(),
            fmax_mhz: 200.0,
            power_watts: 0.4,
            latency_ms: None,
            energy_mj: None,
            throughput_fps: 65.0,
        }
    }

    /// SyncNN's CIFAR-10 row of Table III.
    pub fn syncnn_cifar10() -> Self {
        PriorWork {
            dataset: "CIFAR10".to_string(),
            accuracy_percent: 78.0,
            throughput_fps: 62.0,
            ..Self::syncnn_svhn()
        }
    }

    /// Gerlinghoff et al.'s CIFAR-100 row of Table III.
    pub fn gerlinghoff_cifar100() -> Self {
        PriorWork {
            name: "Gerlinghoff et al.".to_string(),
            dataset: "CIFAR100".to_string(),
            network: "VGG11".to_string(),
            weight_precision: "32-bit".to_string(),
            accuracy_percent: 60.1,
            platform: "XCVU13P".to_string(),
            fmax_mhz: 115.0,
            power_watts: 4.9,
            latency_ms: Some(210.0),
            energy_mj: None,
            throughput_fps: 4.7,
        }
    }
}

/// Comparison between our accelerator and one prior-work operating point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Comparison {
    /// The prior work compared against.
    pub baseline: PriorWork,
    /// Our throughput divided by theirs (> 1 means we are faster).
    pub throughput_ratio: f64,
    /// Our power divided by theirs (> 1 means we draw more power).
    pub power_ratio: f64,
    /// Our accuracy minus theirs, in percentage points.
    pub accuracy_delta_percent: f64,
}

/// Compares our operating point with a prior work row.
pub fn compare(
    baseline: &PriorWork,
    our_throughput_fps: f64,
    our_power_watts: f64,
    our_accuracy_percent: f64,
) -> Comparison {
    Comparison {
        baseline: baseline.clone(),
        throughput_ratio: if baseline.throughput_fps > 0.0 {
            our_throughput_fps / baseline.throughput_fps
        } else {
            f64::INFINITY
        },
        power_ratio: if baseline.power_watts > 0.0 {
            our_power_watts / baseline.power_watts
        } else {
            f64::INFINITY
        },
        accuracy_delta_percent: our_accuracy_percent - baseline.accuracy_percent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_rows_match_the_paper() {
        let svhn = PriorWork::syncnn_svhn();
        let cifar10 = PriorWork::syncnn_cifar10();
        let cifar100 = PriorWork::gerlinghoff_cifar100();
        assert_eq!(svhn.throughput_fps, 65.0);
        assert_eq!(cifar10.throughput_fps, 62.0);
        assert_eq!(cifar100.throughput_fps, 4.7);
        assert_eq!(cifar100.power_watts, 4.9);
        assert_eq!(cifar100.platform, "XCVU13P");
        assert_eq!(svhn.platform, "ZCU102");
    }

    #[test]
    fn comparison_ratios_are_computed_correctly() {
        // The paper's headline: 51× throughput and ~2× lower power vs [7].
        let base = PriorWork::gerlinghoff_cifar100();
        let cmp = compare(&base, 218.0, 2.35, 56.9);
        assert!((cmp.throughput_ratio - 218.0 / 4.7).abs() < 1e-9);
        assert!(cmp.throughput_ratio > 40.0);
        assert!(cmp.power_ratio < 0.55);
        assert!((cmp.accuracy_delta_percent + 3.2).abs() < 0.2);
    }

    #[test]
    fn comparison_handles_zero_baselines() {
        let mut base = PriorWork::syncnn_svhn();
        base.throughput_fps = 0.0;
        base.power_watts = 0.0;
        let cmp = compare(&base, 100.0, 1.0, 90.0);
        assert!(cmp.throughput_ratio.is_infinite());
        assert!(cmp.power_ratio.is_infinite());
    }

    #[test]
    fn syncnn_rows_differ_only_in_dataset_fields() {
        let svhn = PriorWork::syncnn_svhn();
        let c10 = PriorWork::syncnn_cifar10();
        assert_eq!(svhn.platform, c10.platform);
        assert_eq!(svhn.power_watts, c10.power_watts);
        assert_ne!(svhn.dataset, c10.dataset);
        assert_ne!(svhn.accuracy_percent, c10.accuracy_percent);
    }
}
