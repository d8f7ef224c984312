//! Table II — direct coding vs rate coding on CIFAR-10.
//!
//! The paper compares the two input encodings on the quantized lightweight
//! (`LW`) hardware: direct coding at 2 timesteps against rate coding at 25
//! timesteps. Direct coding needs the hybrid architecture (dense + sparse
//! cores) while the rate-coded network only needs sparse cores, so the dense
//! core is switched off for the rate-coded run. The paper reports 2.6× fewer
//! spikes, ~10% higher accuracy and 26.4× less energy per image for direct
//! coding.
//!
//! This experiment trains a scaled-down CIFAR-10-like model once per coding
//! scheme (for the accuracy column) and drives the paper-scale accelerator
//! model with activity profiles calibrated to the paper's reported spike
//! statistics (see `snn_accel::trace`) for the hardware columns (spikes,
//! latency, energy).

use crate::experiments::{paper_network, train_and_evaluate, ExperimentScale};
use serde::{Deserialize, Serialize};
use snn_accel::accelerator::EstimatePlan;
use snn_accel::config::{HwConfig, PerfScale};
use snn_accel::trace::{synthetic_traces, ActivityProfile};
use snn_core::encoding::Encoder;
use snn_core::error::SnnError;
use snn_core::network::total_output_spikes;
use snn_core::quant::Precision;

/// One coding scheme's row of Table II.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CodingRow {
    /// `direct` or `rate`.
    pub coding: String,
    /// Number of timesteps.
    pub timesteps: usize,
    /// Total spikes of the paper-scale run (across all layers and timesteps).
    pub total_spikes: u64,
    /// Accuracy of the trained scaled-down model, in percent.
    pub accuracy_percent: f64,
    /// Single-image latency on the LW int4 hardware, in milliseconds.
    pub latency_ms: f64,
    /// Dynamic energy per image, in millijoules.
    pub energy_mj: f64,
}

/// The full Table II report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2Report {
    /// Direct-coding row.
    pub direct: CodingRow,
    /// Rate-coding row.
    pub rate: CodingRow,
}

impl Table2Report {
    /// Energy improvement of direct over rate coding (paper: 26.4×).
    pub fn energy_improvement(&self) -> f64 {
        if self.direct.energy_mj == 0.0 {
            f64::INFINITY
        } else {
            self.rate.energy_mj / self.direct.energy_mj
        }
    }

    /// Spike ratio of rate over direct coding (paper: 2.6×).
    pub fn spike_ratio(&self) -> f64 {
        if self.direct.total_spikes == 0 {
            f64::INFINITY
        } else {
            self.rate.total_spikes as f64 / self.direct.total_spikes as f64
        }
    }
}

fn coding_row(
    encoder: Encoder,
    label: &str,
    dense_core: bool,
    scale: ExperimentScale,
) -> Result<CodingRow, SnnError> {
    // Accuracy from the trainable scaled-down model.
    let trained = train_and_evaluate("cifar10", Precision::Int4, encoder, scale)?;
    // Hardware numbers from the paper-scale geometry on the LW int4 hardware,
    // driven by the calibrated activity of a trained, quantized VGG9.
    let geometry = paper_network("cifar10")?.geometry()?;
    let mut cfg = HwConfig::paper("cifar10", Precision::Int4, PerfScale::Lw)?;
    if !dense_core {
        // The rate-coded network receives binary spikes at the input, so the
        // dense core is powered off and the input layer gets a sparse core.
        let mut cores = vec![cfg.dense_rows.max(1)];
        cores.extend(cfg.neural_cores.iter().copied());
        cfg.neural_cores = cores;
        cfg = cfg.without_dense_core();
    }
    let profile = if dense_core {
        ActivityProfile::paper_direct(geometry.len())
    } else {
        ActivityProfile::paper_rate(geometry.len())
    }
    .with_quantization_reduction(10.1)
    .with_timesteps(encoder.timesteps);
    let traces = synthetic_traces(&geometry, &profile)?;
    let report =
        EstimatePlan::from_geometry(geometry, cfg, profile.timesteps)?.estimate(&traces)?;
    Ok(CodingRow {
        coding: label.to_string(),
        timesteps: encoder.timesteps,
        total_spikes: total_output_spikes(&traces),
        accuracy_percent: trained.eval.accuracy() * 100.0,
        latency_ms: report.latency_ms,
        energy_mj: report.dynamic_energy_mj,
    })
}

/// Runs the Table II experiment.
///
/// # Errors
///
/// Propagates training / model errors.
pub fn run(scale: ExperimentScale) -> Result<Table2Report, SnnError> {
    let rate_timesteps = match scale {
        ExperimentScale::Smoke => 5,
        ExperimentScale::Full => 25,
    };
    let direct = coding_row(Encoder::paper_direct(), "Direct", true, scale)?;
    let rate = coding_row(Encoder::rate(rate_timesteps), "Rate", false, scale)?;
    Ok(Table2Report { direct, rate })
}

/// Renders the report as a paper-style table.
pub fn render(report: &Table2Report) -> String {
    use crate::report::{format_table, num, ratio};
    let row = |r: &CodingRow, imprv: String| {
        vec![
            r.coding.clone(),
            r.timesteps.to_string(),
            r.total_spikes.to_string(),
            num(r.accuracy_percent, 2),
            num(r.latency_ms, 1),
            num(r.energy_mj, 1),
            imprv,
        ]
    };
    let mut out = format_table(
        &[
            "Coding",
            "Time Steps",
            "Total Spikes",
            "Acc. [%]",
            "Latency [ms]",
            "Energy [mJ]",
            "Energy Imprv.",
        ],
        &[
            row(&report.rate, "—".to_string()),
            row(&report.direct, ratio(report.energy_improvement())),
        ],
    );
    out.push_str(&format!(
        "\nRate/direct spike ratio: {:.2}x (paper: 2.6x); energy improvement: {:.1}x (paper: 26.4x)\n",
        report.spike_ratio(),
        report.energy_improvement()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_ratios() {
        let report = Table2Report {
            direct: CodingRow {
                coding: "Direct".into(),
                timesteps: 2,
                total_spikes: 41_000,
                accuracy_percent: 87.0,
                latency_ms: 11.7,
                energy_mj: 7.6,
            },
            rate: CodingRow {
                coding: "Rate".into(),
                timesteps: 25,
                total_spikes: 107_000,
                accuracy_percent: 77.4,
                latency_ms: 340.0,
                energy_mj: 201.0,
            },
        };
        assert!((report.energy_improvement() - 26.4).abs() < 0.2);
        assert!((report.spike_ratio() - 2.6).abs() < 0.1);
        let text = render(&report);
        assert!(text.contains("Direct"));
        assert!(text.contains("26.4"));
    }
}
