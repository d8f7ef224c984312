//! Table III — comparison to prior work.
//!
//! The paper compares its `perf2` / `perf4` configurations against SyncNN
//! \[15\] on SVHN and CIFAR-10, and against Gerlinghoff et al. \[7\] on
//! CIFAR-100, reporting up to 51× higher throughput and 2× lower power than
//! the latter. This experiment produces the same table: our rows come from
//! the accelerator model driven by paper-scale spike traces, the prior-work
//! rows are the published operating points, and the summary lines report the
//! throughput/power ratios.

use crate::experiments::{paper_accuracy_reference, paper_network, ExperimentScale};
use serde::{Deserialize, Serialize};
use snn_accel::accelerator::EstimatePlan;
use snn_accel::baseline::{compare, Comparison, PriorWork};
use snn_accel::config::{HwConfig, PerfScale};
use snn_accel::trace::{synthetic_traces, ActivityProfile};
use snn_core::error::SnnError;
use snn_core::quant::Precision;

/// One of our accelerator's rows in Table III.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OurRow {
    /// Dataset.
    pub dataset: String,
    /// Configuration name (`perf2` / `perf4`).
    pub config: String,
    /// Accuracy in percent (the paper's reported accuracy for context, since
    /// the full-scale network is not trained in this reproduction).
    pub accuracy_percent: f64,
    /// Clock frequency in MHz.
    pub fmax_mhz: f64,
    /// Dynamic power in watts.
    pub power_watts: f64,
    /// Latency in milliseconds.
    pub latency_ms: f64,
    /// Energy per image in millijoules.
    pub energy_mj: f64,
    /// Throughput in frames per second.
    pub throughput_fps: f64,
}

/// One dataset's comparison block.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DatasetBlock {
    /// The prior-work row.
    pub prior: PriorWork,
    /// Our row.
    pub ours: OurRow,
    /// Derived ratios.
    pub comparison: Comparison,
}

/// The full Table III report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table3Report {
    /// One block per dataset.
    pub blocks: Vec<DatasetBlock>,
}

/// The Fig. 1 int4 spike reductions, used to derive int4 activity from the
/// calibrated fp32 activity profile.
fn int4_spike_reduction(dataset: &str) -> f64 {
    match dataset {
        "svhn" => 6.1,
        "cifar100" => 15.2,
        _ => 10.1,
    }
}

fn our_row(dataset: &str, hw_scale: PerfScale) -> Result<OurRow, SnnError> {
    let geometry = paper_network(dataset)?.geometry()?;
    let cfg = HwConfig::paper(dataset, Precision::Int4, hw_scale)?;
    let clock = cfg.clock_mhz;
    // Activity calibrated to the paper's reported spike statistics for a
    // trained, quantized, direct-coded VGG9 (see `snn_accel::trace`).
    let profile = ActivityProfile::paper_direct(geometry.len())
        .with_quantization_reduction(int4_spike_reduction(dataset));
    let traces = synthetic_traces(&geometry, &profile)?;
    let plan = EstimatePlan::from_geometry(geometry, cfg, profile.timesteps)?;
    let report = plan.estimate(&traces)?;
    Ok(OurRow {
        dataset: dataset.to_string(),
        config: hw_scale.to_string(),
        accuracy_percent: paper_accuracy_reference(dataset, Precision::Int4),
        fmax_mhz: clock,
        power_watts: plan.power().total_dynamic_watts(),
        latency_ms: report.latency_ms,
        energy_mj: report.dynamic_energy_mj,
        throughput_fps: report.throughput_fps,
    })
}

/// Runs the Table III experiment.
///
/// # Errors
///
/// Propagates model errors.
pub fn run(_scale: ExperimentScale) -> Result<Table3Report, SnnError> {
    // The paper uses perf4 for SVHN and CIFAR-100, perf2 for CIFAR-10.
    let pairs = [
        ("svhn", PerfScale::Perf4, PriorWork::syncnn_svhn()),
        ("cifar10", PerfScale::Perf2, PriorWork::syncnn_cifar10()),
        (
            "cifar100",
            PerfScale::Perf4,
            PriorWork::gerlinghoff_cifar100(),
        ),
    ];
    let mut blocks = Vec::new();
    for (dataset, hw_scale, prior) in pairs {
        let ours = our_row(dataset, hw_scale)?;
        let comparison = compare(
            &prior,
            ours.throughput_fps,
            ours.power_watts,
            ours.accuracy_percent,
        );
        blocks.push(DatasetBlock {
            prior,
            ours,
            comparison,
        });
    }
    Ok(Table3Report { blocks })
}

/// Renders the report as a paper-style table.
pub fn render(report: &Table3Report) -> String {
    use crate::report::{format_table, num, ratio};
    let mut rows = Vec::new();
    for block in &report.blocks {
        let p = &block.prior;
        rows.push(vec![
            p.dataset.clone(),
            p.name.clone(),
            p.network.clone(),
            p.weight_precision.clone(),
            num(p.accuracy_percent, 1),
            p.platform.clone(),
            num(p.fmax_mhz, 0),
            num(p.power_watts, 2),
            p.latency_ms.map_or("-".to_string(), |v| num(v, 0)),
            p.energy_mj.map_or("-".to_string(), |v| num(v, 1)),
            num(p.throughput_fps, 0),
        ]);
        let o = &block.ours;
        rows.push(vec![
            o.dataset.clone(),
            format!("ours ({})", o.config),
            "VGG9".to_string(),
            "4-bit".to_string(),
            num(o.accuracy_percent, 1),
            "XCVU13P".to_string(),
            num(o.fmax_mhz, 0),
            num(o.power_watts, 2),
            num(o.latency_ms, 0),
            num(o.energy_mj, 1),
            num(o.throughput_fps, 0),
        ]);
    }
    let mut out = format_table(
        &[
            "Dataset",
            "Study",
            "Network",
            "Prec",
            "Acc [%]",
            "Platform",
            "FMax [MHz]",
            "Power [W]",
            "Latency [ms]",
            "Energy [mJ]",
            "FPS",
        ],
        &rows,
    );
    for block in &report.blocks {
        out.push_str(&format!(
            "{} vs {}: throughput {}, power {}, accuracy delta {:+.1} pp\n",
            block.ours.dataset,
            block.prior.name,
            ratio(block.comparison.throughput_ratio),
            ratio(block.comparison.power_ratio),
            block.comparison.accuracy_delta_percent
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_includes_both_rows_per_block() {
        let prior = PriorWork::gerlinghoff_cifar100();
        let ours = OurRow {
            dataset: "cifar100".into(),
            config: "perf4".into(),
            accuracy_percent: 56.9,
            fmax_mhz: 100.0,
            power_watts: 2.35,
            latency_ms: 37.0,
            energy_mj: 16.1,
            throughput_fps: 218.0,
        };
        let comparison = compare(
            &prior,
            ours.throughput_fps,
            ours.power_watts,
            ours.accuracy_percent,
        );
        let report = Table3Report {
            blocks: vec![DatasetBlock {
                prior,
                ours,
                comparison,
            }],
        };
        let text = render(&report);
        assert!(text.contains("Gerlinghoff"));
        assert!(text.contains("ours (perf4)"));
        assert!(text.contains("throughput"));
    }
}
