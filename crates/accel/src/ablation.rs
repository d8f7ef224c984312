//! Design-choice ablations.
//!
//! The paper fixes several architectural knobs at design time: the
//! sparse-core compression chunk width, the clock-gated memory
//! organisation, the weight precision and the per-layer neural-core budget.
//! This module sweeps each knob on a fixed workload and returns structured
//! results, which the `design_space_exploration` example and the Criterion
//! benches use for the ablation studies that go beyond the paper's tables.

use crate::accelerator::EstimatePlan;
use crate::config::HwConfig;
use serde::{Deserialize, Serialize};
use snn_core::error::SnnError;
use snn_core::network::{LayerGeometry, LayerTrace};
use snn_core::quant::Precision;

/// One point of an ablation sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationPoint {
    /// Human-readable value of the swept parameter.
    pub parameter: String,
    /// End-to-end latency in milliseconds.
    pub latency_ms: f64,
    /// Throughput in frames per second.
    pub throughput_fps: f64,
    /// Dynamic energy per image in millijoules.
    pub energy_mj: f64,
    /// Total dynamic power in watts.
    pub dynamic_watts: f64,
}

/// Plans `config`'s hardware for `geometry` at the traces' timestep count
/// and estimates the traces on it: one sweep point.
fn point(
    parameter: String,
    config: HwConfig,
    geometry: &[LayerGeometry],
    traces: &[LayerTrace],
) -> Result<AblationPoint, SnnError> {
    let timesteps = traces
        .iter()
        .find(|t| t.geometry.is_some())
        .map_or(0, |t| t.input_events.len());
    let plan = EstimatePlan::from_geometry(geometry.to_vec(), config, timesteps)?;
    let report = plan.estimate(traces)?;
    Ok(AblationPoint {
        parameter,
        latency_ms: report.latency_ms,
        throughput_fps: report.throughput_fps,
        energy_mj: report.dynamic_energy_mj,
        dynamic_watts: plan.power().total_dynamic_watts(),
    })
}

/// Sweeps the ECU compression chunk width.
///
/// # Errors
///
/// Propagates accelerator errors.
pub fn sweep_chunk_width(
    base: &HwConfig,
    geometry: &[LayerGeometry],
    traces: &[LayerTrace],
    widths: &[usize],
) -> Result<Vec<AblationPoint>, SnnError> {
    widths
        .iter()
        .map(|&width| {
            let mut cfg = base.clone();
            cfg.chunk_bits = width;
            point(format!("chunk={width}"), cfg, geometry, traces)
        })
        .collect()
}

/// Compares clock gating on vs off.
///
/// # Errors
///
/// Propagates accelerator errors.
pub fn sweep_clock_gating(
    base: &HwConfig,
    geometry: &[LayerGeometry],
    traces: &[LayerTrace],
) -> Result<Vec<AblationPoint>, SnnError> {
    [("gated", true), ("ungated", false)]
        .into_iter()
        .map(|(label, gating)| {
            let mut cfg = base.clone();
            cfg.clock_gating = gating;
            point(label.to_string(), cfg, geometry, traces)
        })
        .collect()
}

/// Sweeps the weight precision on otherwise identical hardware.
///
/// # Errors
///
/// Propagates accelerator errors.
pub fn sweep_precision(
    base: &HwConfig,
    geometry: &[LayerGeometry],
    traces: &[LayerTrace],
) -> Result<Vec<AblationPoint>, SnnError> {
    Precision::all()
        .into_iter()
        .map(|precision| {
            let mut cfg = base.clone();
            cfg.precision = precision;
            point(precision.to_string(), cfg, geometry, traces)
        })
        .collect()
}

/// Sweeps a uniform scaling factor of the neural-core allocation
/// (the LW → perf2 → perf4 axis, generalised to any factor).
///
/// # Errors
///
/// Propagates accelerator errors.
pub fn sweep_core_scaling(
    base: &HwConfig,
    geometry: &[LayerGeometry],
    traces: &[LayerTrace],
    factors: &[usize],
) -> Result<Vec<AblationPoint>, SnnError> {
    factors
        .iter()
        .map(|&factor| {
            if factor == 0 {
                return Err(SnnError::config(
                    "factor",
                    "scaling factor must be positive",
                ));
            }
            let mut cfg = base.clone();
            cfg.dense_rows *= factor;
            for nc in &mut cfg.neural_cores {
                *nc *= factor;
            }
            point(format!("x{factor}"), cfg, geometry, traces)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{synthetic_traces, ActivityProfile};
    use snn_core::network::{vgg9, Vgg9Config};

    fn setup() -> (HwConfig, Vec<LayerGeometry>, Vec<LayerTrace>) {
        let geometry = vgg9(&Vgg9Config::cifar10_small())
            .unwrap()
            .geometry()
            .unwrap();
        let traces =
            synthetic_traces(&geometry, &ActivityProfile::paper_direct(geometry.len())).unwrap();
        let cfg =
            HwConfig::from_allocation("ablation", Precision::Int4, &[1, 8, 4, 18, 6, 6, 20, 2, 1])
                .unwrap();
        (cfg, geometry, traces)
    }

    #[test]
    fn wider_chunks_never_slow_down_compression_bound_layers() {
        let (cfg, geo, traces) = setup();
        let points = sweep_chunk_width(&cfg, &geo, &traces, &[8, 32, 128]).unwrap();
        assert_eq!(points.len(), 3);
        // Latency is monotonically non-increasing with chunk width.
        assert!(points[1].latency_ms <= points[0].latency_ms + 1e-9);
        assert!(points[2].latency_ms <= points[1].latency_ms + 1e-9);
        assert!(matches!(
            sweep_chunk_width(&cfg, &geo, &traces, &[0]),
            Err(SnnError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn clock_gating_saves_power_without_changing_latency() {
        let (cfg, geo, traces) = setup();
        let points = sweep_clock_gating(&cfg, &geo, &traces).unwrap();
        assert_eq!(points.len(), 2);
        let gated = &points[0];
        let ungated = &points[1];
        assert!(gated.dynamic_watts < ungated.dynamic_watts);
        assert!((gated.latency_ms - ungated.latency_ms).abs() < 1e-9);
    }

    #[test]
    fn precision_sweep_orders_power_as_expected() {
        let (cfg, geo, traces) = setup();
        let points = sweep_precision(&cfg, &geo, &traces).unwrap();
        assert_eq!(points.len(), 3);
        let by_name = |name: &str| {
            points
                .iter()
                .find(|p| p.parameter == name)
                .unwrap()
                .dynamic_watts
        };
        assert!(by_name("fp32") > by_name("int8"));
        assert!(by_name("int8") >= by_name("int4"));
    }

    #[test]
    fn core_scaling_improves_throughput() {
        let (cfg, geo, traces) = setup();
        let points = sweep_core_scaling(&cfg, &geo, &traces, &[1, 2, 4]).unwrap();
        // Scaling never hurts, and the x1 -> x4 step must strictly improve
        // (individual steps can saturate once a layer has one core per
        // output channel on this scaled-down network).
        assert!(points[1].throughput_fps >= points[0].throughput_fps);
        assert!(points[2].throughput_fps >= points[1].throughput_fps);
        assert!(points[2].throughput_fps > points[0].throughput_fps);
        assert!(points[2].latency_ms < points[0].latency_ms);
        assert!(sweep_core_scaling(&cfg, &geo, &traces, &[0]).is_err());
    }
}
