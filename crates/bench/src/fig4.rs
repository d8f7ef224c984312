//! Fig. 4 — energy per image for fp32 vs int4 across LW / perf2 / perf4.
//!
//! The paper plots the per-image energy of the fp32 and int4 designs for the
//! three datasets and the three hardware scales, showing (a) int4 reduces the
//! average energy by 3.4× (CIFAR-10) / 1.7× (CIFAR-100), and (b) scaling
//! resources up *reduces* energy (perf4 int4 is ~28% below LW int4) because
//! latency shrinks faster than power grows.
//!
//! This experiment runs the paper-scale VGG9 on synthetic images to obtain
//! spike traces, then evaluates every (precision × scale) configuration on
//! the same traces with the accelerator model.

use crate::experiments::{paper_engine, paper_scale_images, ExperimentScale, DATASETS};
use serde::{Deserialize, Serialize};
use snn_accel::config::{HwConfig, PerfScale};
use snn_core::encoding::Encoder;
use snn_core::error::SnnError;
use snn_core::quant::Precision;

/// Energy of one (dataset, precision, scale) point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EnergyPoint {
    /// Dataset name.
    pub dataset: String,
    /// Precision (`fp32` / `int4`).
    pub precision: String,
    /// Hardware scale (`LW` / `perf2` / `perf4`).
    pub scale: String,
    /// Mean dynamic energy per image in millijoules.
    pub energy_mj: f64,
    /// Mean single-image latency in milliseconds.
    pub latency_ms: f64,
    /// Total dynamic power of the design in watts.
    pub dynamic_watts: f64,
}

/// The full Fig. 4 report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig4Report {
    /// Every measured point.
    pub points: Vec<EnergyPoint>,
}

impl Fig4Report {
    /// Finds one point.
    pub fn point(&self, dataset: &str, precision: &str, scale: &str) -> Option<&EnergyPoint> {
        self.points
            .iter()
            .find(|p| p.dataset == dataset && p.precision == precision && p.scale == scale)
    }

    /// Mean fp32 / int4 energy ratio across scales for a dataset.
    pub fn energy_ratio(&self, dataset: &str) -> f64 {
        let mut ratios = Vec::new();
        for scale in ["LW", "perf2", "perf4"] {
            if let (Some(f), Some(i)) = (
                self.point(dataset, "fp32", scale),
                self.point(dataset, "int4", scale),
            ) {
                if i.energy_mj > 0.0 {
                    ratios.push(f.energy_mj / i.energy_mj);
                }
            }
        }
        if ratios.is_empty() {
            f64::NAN
        } else {
            ratios.iter().sum::<f64>() / ratios.len() as f64
        }
    }
}

/// Runs the Fig. 4 experiment.
///
/// # Errors
///
/// Propagates inference / model errors.
pub fn run(scale: ExperimentScale) -> Result<Fig4Report, SnnError> {
    let encoder = Encoder::paper_direct();
    let mut points = Vec::new();
    for dataset in DATASETS {
        for precision in [Precision::Fp32, Precision::Int4] {
            // One engine runs the network batch; scaled engines share the
            // quantized weights and re-estimate the recorded traces under
            // LW / perf2 / perf4 hardware.
            let engine = paper_engine(dataset, precision, encoder)?;
            let images = paper_scale_images(dataset, scale.trace_images());
            let batch = engine.session().run_batch(&images)?;
            for hw_scale in PerfScale::all() {
                let scaled =
                    engine.with_hardware(HwConfig::paper(dataset, precision, hw_scale)?)?;
                let plan = scaled.plan();
                let mut energy = 0.0;
                let mut latency = 0.0;
                for run in &batch.reports {
                    let report = plan.estimate(&run.traces)?;
                    energy += report.dynamic_energy_mj;
                    latency += report.latency_ms;
                }
                let n = batch.len().max(1) as f64;
                points.push(EnergyPoint {
                    dataset: dataset.to_string(),
                    precision: precision.to_string(),
                    scale: hw_scale.to_string(),
                    energy_mj: energy / n,
                    latency_ms: latency / n,
                    dynamic_watts: plan.power().total_dynamic_watts(),
                });
            }
        }
    }
    Ok(Fig4Report { points })
}

/// Renders the report as one table per dataset.
pub fn render(report: &Fig4Report) -> String {
    use crate::report::{format_table, num};
    let mut out = String::new();
    for dataset in DATASETS {
        out.push_str(&format!("\nEnergy per image — {dataset}\n"));
        let rows: Vec<Vec<String>> = report
            .points
            .iter()
            .filter(|p| p.dataset == dataset)
            .map(|p| {
                vec![
                    p.precision.clone(),
                    p.scale.clone(),
                    num(p.energy_mj, 3),
                    num(p.latency_ms, 3),
                    num(p.dynamic_watts, 3),
                ]
            })
            .collect();
        out.push_str(&format_table(
            &[
                "Precision",
                "Config",
                "Energy [mJ]",
                "Latency [ms]",
                "Dyn. power [W]",
            ],
            &rows,
        ));
        out.push_str(&format!(
            "fp32 / int4 mean energy ratio: {:.2}x\n",
            report.energy_ratio(dataset)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_lookup_and_ratio() {
        let report = Fig4Report {
            points: vec![
                EnergyPoint {
                    dataset: "cifar10".into(),
                    precision: "fp32".into(),
                    scale: "LW".into(),
                    energy_mj: 30.0,
                    latency_ms: 10.0,
                    dynamic_watts: 3.0,
                },
                EnergyPoint {
                    dataset: "cifar10".into(),
                    precision: "int4".into(),
                    scale: "LW".into(),
                    energy_mj: 10.0,
                    latency_ms: 8.0,
                    dynamic_watts: 1.2,
                },
            ],
        };
        assert!(report.point("cifar10", "int4", "LW").is_some());
        assert!(report.point("cifar10", "int4", "perf2").is_none());
        assert!((report.energy_ratio("cifar10") - 3.0).abs() < 1e-9);
        assert!(report.energy_ratio("svhn").is_nan());
        let text = render(&report);
        assert!(text.contains("cifar10"));
    }
}
