//! The hybrid accelerator top level.
//!
//! [`EstimatePlan`] is the accelerator instance for one network geometry,
//! hardware configuration and timestep count. It ties the per-layer models
//! together: the dense core for the direct-coded input layer, one sparse
//! core per remaining weight layer (sized by the configuration's NC
//! allocation), the on-chip memory plan, and the power/energy models. Area
//! and power (Table I) are fixed by the hardware, so the plan computes them
//! once. Given the spike traces of an inference run,
//! [`EstimatePlan::estimate`] produces an [`InferenceReport`] holding what
//! the image's spikes decide: per-layer cycles and energy plus the
//! end-to-end latency, throughput and energy — the numbers behind Table II,
//! Table III and Fig. 4.

use crate::config::HwConfig;
use crate::dense_core::DenseCore;
use crate::energy;
use crate::power::{self, PowerEstimate};
use crate::resources::{estimate_layers, ResourceEstimate};
use crate::sparse_core::SparseCore;
use serde::{Deserialize, Serialize};
use snn_core::error::SnnError;
use snn_core::network::{LayerGeometry, LayerTrace, SnnNetwork};

/// One weight layer's share of one inference. Rows are index-aligned with
/// the plan's [`EstimatePlan::geometry`], whose resource and power rows
/// hold the layer's hardware facts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerPerf {
    /// Input events consumed across all timesteps.
    pub input_events: u64,
    /// Cycles spent on this layer for one image.
    pub cycles: u64,
    /// Busy time in milliseconds.
    pub busy_ms: f64,
    /// Dynamic energy in millijoules.
    pub dynamic_mj: f64,
}

/// The per-image result of one simulated inference: only what the image's
/// spikes decide. The hardware configuration, area and power live on the
/// [`EstimatePlan`] that produced it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InferenceReport {
    /// Per-layer breakdown.
    pub layers: Vec<LayerPerf>,
    /// End-to-end single-image latency in milliseconds (sum of layer times).
    pub latency_ms: f64,
    /// Steady-state throughput in frames per second when images stream
    /// through the layer pipeline (bounded by the slowest layer).
    pub throughput_fps: f64,
    /// Total dynamic energy per image in millijoules.
    pub dynamic_energy_mj: f64,
    /// Total energy per image including the static share, in millijoules.
    pub total_energy_mj: f64,
    /// Total spikes consumed by the sparse layers.
    pub total_input_events: u64,
}

impl InferenceReport {
    /// The bottleneck layer (largest cycle count), if any.
    pub fn bottleneck(&self) -> Option<&LayerPerf> {
        self.layers.iter().max_by_key(|l| l.cycles)
    }
}

/// The hybrid dense/sparse accelerator for one network, hardware
/// configuration and timestep count: the configuration, the layer geometry,
/// the resource and power models for spike buffers sized to the timestep
/// count, and the trace-independent half of each layer's cycle model. Built
/// once and shared by every image of a session or batch; per image only
/// [`EstimatePlan::estimate`]'s spike-count folding runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EstimatePlan {
    config: HwConfig,
    geometry: Vec<LayerGeometry>,
    timesteps: usize,
    resources: ResourceEstimate,
    power: PowerEstimate,
    cycle_models: Vec<LayerCycleModel>,
}

/// The precomputed (trace-independent) cycle model of one weight layer: the
/// dense input layer's cycle count is fixed for the plan's timestep count and
/// shared by every image of a batch, while a sparse layer keeps its
/// configured core and only folds the per-trace spike counts per estimate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum LayerCycleModel {
    /// Dense systolic input layer: workload is input-independent.
    Dense {
        /// Total cycles for one image at the plan's timestep count.
        cycles: u64,
    },
    /// Event-driven sparse layer: cycles depend on the trace's spike counts.
    Sparse {
        /// The configured sparse-core instance.
        core: SparseCore,
    },
}

impl EstimatePlan {
    /// Plans the accelerator for `network` under `config`, with spike
    /// buffers sized to `timesteps`.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] if the configuration's NC
    /// allocation does not cover every sparse layer of the network, or if
    /// the configuration cannot describe hardware: a zero chunk width, a
    /// zero NC count, an enabled dense core with no PE rows, or a clock that
    /// is not a finite positive frequency. Propagates resource-model errors.
    pub fn new(network: &SnnNetwork, config: HwConfig, timesteps: usize) -> Result<Self, SnnError> {
        Self::from_geometry(network.geometry()?, config, timesteps)
    }

    /// Plans the accelerator directly from a layer geometry.
    ///
    /// # Errors
    ///
    /// Same as [`EstimatePlan::new`].
    pub fn from_geometry(
        geometry: Vec<LayerGeometry>,
        config: HwConfig,
        timesteps: usize,
    ) -> Result<Self, SnnError> {
        let sparse_layers = if config.dense_core_enabled {
            geometry.len().saturating_sub(1)
        } else {
            geometry.len()
        };
        if config.neural_cores.len() < sparse_layers {
            return Err(SnnError::config(
                "neural_cores",
                format!(
                    "allocation has {} entries but the network needs {sparse_layers}",
                    config.neural_cores.len()
                ),
            ));
        }
        if geometry.is_empty() {
            return Err(SnnError::config("geometry", "network has no weight layers"));
        }
        // `HwConfig`'s fields are public, so a hand-built configuration can
        // hold values the core models assert against; reject them here.
        if config.chunk_bits == 0 {
            return Err(SnnError::config(
                "chunk_bits",
                "compression chunk width must be positive",
            ));
        }
        if config.neural_cores.contains(&0) {
            return Err(SnnError::config(
                "neural_cores",
                "every sparse layer needs at least one neural core",
            ));
        }
        if config.dense_core_enabled && config.dense_rows == 0 {
            return Err(SnnError::config(
                "dense_rows",
                "an enabled dense core needs at least one PE row",
            ));
        }
        if !(config.clock_mhz.is_finite() && config.clock_mhz > 0.0) {
            return Err(SnnError::config(
                "clock_mhz",
                format!(
                    "clock must be finite and positive, got {}",
                    config.clock_mhz
                ),
            ));
        }
        let resources = estimate_layers(&geometry, &config, timesteps.max(1))?;
        let power = power::estimate(&resources, config.precision, config.clock_gating);
        // Memoize the trace-independent half of the per-layer cycle models:
        // the dense core's timing depends only on geometry + timesteps (one
        // fixed cycle count for every image of the batch), and each sparse
        // layer's core configuration (NC count, chunk width) never changes
        // between traces. Per estimate only the spike-count folding remains.
        let cycle_models = geometry
            .iter()
            .enumerate()
            .map(|(i, geo)| {
                if config.dense_core_enabled && i == 0 {
                    Ok(LayerCycleModel::Dense {
                        cycles: DenseCore::new(config.dense_rows)
                            .timing(geo.out_channels, geo.out_height, geo.out_width, timesteps)
                            .total_cycles,
                    })
                } else {
                    let sparse_index = i - usize::from(config.dense_core_enabled);
                    let ncs = config.cores_for_sparse_layer(sparse_index)?;
                    Ok(LayerCycleModel::Sparse {
                        core: SparseCore::new(ncs, config.chunk_bits),
                    })
                }
            })
            .collect::<Result<_, SnnError>>()?;
        Ok(EstimatePlan {
            config,
            geometry,
            timesteps,
            resources,
            power,
            cycle_models,
        })
    }

    /// The timestep count the spike buffers were sized for.
    pub fn timesteps(&self) -> usize {
        self.timesteps
    }

    /// The hardware configuration behind the plan.
    pub fn config(&self) -> &HwConfig {
        &self.config
    }

    /// The weight-layer geometry the plan was built for; every report's
    /// [`InferenceReport::layers`] is index-aligned with it.
    pub fn geometry(&self) -> &[LayerGeometry] {
        &self.geometry
    }

    /// The area estimate, per layer and for the device.
    pub fn resources(&self) -> &ResourceEstimate {
        &self.resources
    }

    /// The static and per-layer dynamic power estimate.
    pub fn power(&self) -> &PowerEstimate {
        &self.power
    }

    /// Estimates one inference from its spike traces, reusing the plan's
    /// precomputed area/power models. Only the per-layer cycle and energy
    /// calculation runs per call.
    ///
    /// The traces may include pooling layers; only weight layers (those with
    /// geometry) are consumed, in order.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::ShapeMismatch`] if the number of weight-layer
    /// traces does not match the geometry, or [`SnnError::InvalidConfig`] if
    /// the traces cover a different timestep count than the plan was sized
    /// for.
    pub fn estimate(&self, traces: &[LayerTrace]) -> Result<InferenceReport, SnnError> {
        let weight_traces = || traces.iter().filter(|t| t.geometry.is_some());
        let count = weight_traces().count();
        if count != self.geometry.len() {
            return Err(SnnError::shape(
                &[self.geometry.len()],
                &[count],
                "EstimatePlan::estimate trace count",
            ));
        }
        let timesteps = weight_traces().next().map_or(0, |t| t.input_events.len());
        if timesteps != self.timesteps {
            return Err(SnnError::config(
                "timesteps",
                format!(
                    "plan sized for {} timesteps but traces cover {timesteps}; re-plan first",
                    self.timesteps
                ),
            ));
        }

        // Per-layer cycles: fold the trace's spike counts through the
        // memoized cycle models — the only per-trace work left in a batch.
        let mut cycles = Vec::with_capacity(self.geometry.len());
        for ((geo, trace), model) in self
            .geometry
            .iter()
            .zip(weight_traces())
            .zip(&self.cycle_models)
        {
            cycles.push(match model {
                LayerCycleModel::Dense { cycles } => *cycles,
                LayerCycleModel::Sparse { core } => {
                    core.timing(&trace.input_events, geo).total_cycles
                }
            });
        }

        let energy_est = energy::estimate(&cycles, &self.power, self.config.clock_mhz);
        let mut layers = Vec::with_capacity(cycles.len());
        for ((trace, &cycles), energy) in weight_traces().zip(&cycles).zip(&energy_est.layers) {
            layers.push(LayerPerf {
                input_events: trace.total_input_events(),
                cycles,
                busy_ms: energy.busy_ms,
                dynamic_mj: energy.dynamic_mj,
            });
        }

        let latency_ms: f64 = layers.iter().map(|l| l.busy_ms).sum();
        let bottleneck = cycles.iter().copied().max().unwrap_or(0);
        let throughput_fps = if bottleneck == 0 {
            0.0
        } else {
            self.config.clock_mhz * 1e6 / bottleneck as f64
        };
        Ok(InferenceReport {
            latency_ms,
            throughput_fps,
            dynamic_energy_mj: energy_est.dynamic_mj(),
            total_energy_mj: energy_est.total_mj(),
            total_input_events: layers.iter().map(|l| l.input_events).sum(),
            layers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PerfScale;
    use snn_core::encoding::Encoder;
    use snn_core::network::{vgg9, Vgg9Config};
    use snn_core::quant::Precision;
    use snn_core::tensor::Tensor;

    fn small_traces(encoder: &Encoder) -> (SnnNetwork, Vec<LayerTrace>) {
        let net = vgg9(&Vgg9Config::cifar10_small()).unwrap();
        let image = Tensor::from_fn(&[3, 16, 16], |i| ((i as f32) * 0.011).sin().abs());
        let traces = net.run(&image, encoder).unwrap().traces;
        (net, traces)
    }

    fn small_config(precision: Precision) -> HwConfig {
        HwConfig::from_allocation("test-small", precision, &[1, 4, 2, 4, 2, 4, 4, 2, 1]).unwrap()
    }

    #[test]
    fn accelerator_builds_for_paper_scale_network() {
        let net = vgg9(&Vgg9Config::cifar100()).unwrap();
        let cfg = HwConfig::paper("cifar100", Precision::Int4, PerfScale::Perf2).unwrap();
        let plan = EstimatePlan::new(&net, cfg, 2).unwrap();
        assert_eq!(plan.geometry().len(), 9);
        assert!(plan.resources().fits());
        assert_eq!(plan.power().layers.len(), 9);
    }

    #[test]
    fn new_rejects_short_allocation() {
        let net = vgg9(&Vgg9Config::cifar10_small()).unwrap();
        let cfg = HwConfig::from_allocation("short", Precision::Int4, &[1, 4, 2]).unwrap();
        assert!(EstimatePlan::new(&net, cfg, 2).is_err());
    }

    /// The hand-built configurations the core models cannot run, each named
    /// by the field it breaks.
    fn broken_configs() -> Vec<(&'static str, HwConfig)> {
        let base = small_config(Precision::Int4);
        let edit = |f: fn(&mut HwConfig)| {
            let mut cfg = base.clone();
            f(&mut cfg);
            cfg
        };
        vec![
            ("chunk_bits", edit(|c| c.chunk_bits = 0)),
            ("neural_cores", edit(|c| c.neural_cores[3] = 0)),
            ("dense_rows", edit(|c| c.dense_rows = 0)),
            ("clock_mhz", edit(|c| c.clock_mhz = 0.0)),
            ("clock_mhz", edit(|c| c.clock_mhz = f64::NAN)),
        ]
    }

    #[test]
    fn new_rejects_configs_the_cores_cannot_run() {
        let net = vgg9(&Vgg9Config::cifar10_small()).unwrap();
        for (field, cfg) in broken_configs() {
            match EstimatePlan::new(&net, cfg.clone(), 2) {
                Err(SnnError::InvalidConfig { parameter, .. }) => assert_eq!(parameter, field),
                other => panic!("{cfg:?}: expected an InvalidConfig on {field}, got {other:?}"),
            }
        }
        // Without the dense core its row count is never used.
        let mut rate = small_config(Precision::Int4).without_dense_core();
        rate.neural_cores.push(1);
        rate.dense_rows = 0;
        assert!(EstimatePlan::new(&net, rate, 2).is_ok());
    }

    #[test]
    fn estimate_produces_consistent_report() {
        let (net, traces) = small_traces(&Encoder::direct(2));
        let plan = EstimatePlan::new(&net, small_config(Precision::Int4), 2).unwrap();
        let report = plan.estimate(&traces).unwrap();
        assert_eq!(report.layers.len(), plan.geometry().len());
        assert!(report.latency_ms > 0.0);
        assert!(report.throughput_fps > 0.0);
        assert!(report.dynamic_energy_mj > 0.0);
        assert!(report.total_energy_mj > report.dynamic_energy_mj);
        assert!(plan.resources().fits());
        // Latency equals the sum of the layer busy times.
        let sum: f64 = report.layers.iter().map(|l| l.busy_ms).sum();
        assert!((report.latency_ms - sum).abs() < 1e-9);
        let events: u64 = report.layers.iter().map(|l| l.input_events).sum();
        assert_eq!(report.total_input_events, events);
        // The bottleneck layer bounds the throughput.
        let b = report.bottleneck().unwrap();
        assert!((report.throughput_fps - 1e8 / b.cycles as f64).abs() < 1e-6);
    }

    #[test]
    fn shared_plan_estimates_identically_to_fresh_plans() {
        // A batch of different images estimated through ONE memoized plan
        // must report exactly what per-image fresh plans report — sharing
        // the plan may not change a single bit of the hardware numbers.
        let net = vgg9(&Vgg9Config::cifar10_small()).unwrap();
        let cfg = small_config(Precision::Int4);
        let shared = EstimatePlan::new(&net, cfg.clone(), 2).unwrap();
        for phase in 0..4 {
            let image = Tensor::from_fn(&[3, 16, 16], |i| {
                (((i + phase * 131) as f32) * 0.011).sin().abs()
            });
            let traces = net.run(&image, &Encoder::direct(2)).unwrap().traces;
            let memoized = shared.estimate(&traces).unwrap();
            let fresh = EstimatePlan::new(&net, cfg.clone(), 2)
                .unwrap()
                .estimate(&traces)
                .unwrap();
            assert_eq!(memoized, fresh, "image {phase}");
        }
    }

    #[test]
    fn identical_workloads_share_the_dense_cycle_model() {
        // Two runs of the same image produce identical traces; the shared
        // plan must fold them to identical reports (and the dense input
        // layer's cycles are the plan's precomputed constant).
        let (net, traces) = small_traces(&Encoder::direct(2));
        let plan = EstimatePlan::new(&net, small_config(Precision::Int4), 2).unwrap();
        let a = plan.estimate(&traces).unwrap();
        let b = plan.estimate(&traces).unwrap();
        assert_eq!(a, b);
        match &plan.cycle_models[0] {
            LayerCycleModel::Dense { cycles } => {
                assert_eq!(*cycles, a.layers[0].cycles);
            }
            other => panic!("input layer should use the dense model, got {other:?}"),
        }
    }

    #[test]
    fn estimate_rejects_mismatched_traces() {
        let (_, traces) = small_traces(&Encoder::direct(1));
        let other = vgg9(&Vgg9Config::cifar10_small()).unwrap();
        let plan = EstimatePlan::new(&other, small_config(Precision::Int4), 1).unwrap();
        // Drop one trace to break the correspondence.
        assert!(matches!(
            plan.estimate(&traces[..traces.len() - 1]),
            Err(SnnError::ShapeMismatch { .. })
        ));
        // A plan sized for another timestep count rejects the traces.
        let two = EstimatePlan::new(&other, small_config(Precision::Int4), 2).unwrap();
        match two.estimate(&traces) {
            Err(SnnError::InvalidConfig { parameter, .. }) => assert_eq!(parameter, "timesteps"),
            other => panic!("expected an InvalidConfig on timesteps, got {other:?}"),
        }
    }

    #[test]
    fn int4_beats_fp32_on_energy_for_the_same_trace() {
        let (net, traces) = small_traces(&Encoder::direct(2));
        let int4 = EstimatePlan::new(&net, small_config(Precision::Int4), 2).unwrap();
        let fp32 = EstimatePlan::new(&net, small_config(Precision::Fp32), 2).unwrap();
        let ri = int4.estimate(&traces).unwrap();
        let rf = fp32.estimate(&traces).unwrap();
        assert!(
            rf.dynamic_energy_mj > ri.dynamic_energy_mj,
            "fp32 {:.4} mJ should exceed int4 {:.4} mJ",
            rf.dynamic_energy_mj,
            ri.dynamic_energy_mj
        );
        assert!(fp32.power().total_dynamic_watts() > int4.power().total_dynamic_watts());
    }

    #[test]
    fn more_neural_cores_reduce_latency() {
        let (net, traces) = small_traces(&Encoder::direct(2));
        let lw = small_config(Precision::Int4);
        let mut perf4 = lw.clone();
        perf4.dense_rows *= 4;
        for nc in &mut perf4.neural_cores {
            *nc *= 4;
        }
        let estimate = |cfg| {
            EstimatePlan::new(&net, cfg, 2)
                .unwrap()
                .estimate(&traces)
                .unwrap()
        };
        let a = estimate(lw);
        let b = estimate(perf4);
        assert!(b.latency_ms < a.latency_ms);
        assert!(b.throughput_fps > a.throughput_fps);
    }

    #[test]
    fn rate_coding_without_dense_core_still_estimates() {
        let (net, traces) = small_traces(&Encoder::rate(5));
        let cfg = HwConfig::from_allocation(
            "rate",
            Precision::Int4,
            // Without the dense core, all nine layers need sparse allocations.
            &[2, 4, 2, 4, 2, 4, 4, 2, 1, 1],
        )
        .unwrap()
        .without_dense_core();
        let plan = EstimatePlan::new(&net, cfg, 5).unwrap();
        let report = plan.estimate(&traces).unwrap();
        assert!(report.latency_ms > 0.0);
        assert_eq!(plan.resources().layers[0].neural_cores, 4);
        assert!(matches!(
            plan.cycle_models[0],
            LayerCycleModel::Sparse { .. }
        ));
    }

    #[test]
    fn more_timesteps_increase_latency_and_energy() {
        let (net, t2) = small_traces(&Encoder::direct(2));
        let (_, t6) = small_traces(&Encoder::direct(6));
        let cfg = small_config(Precision::Int4);
        let a = EstimatePlan::new(&net, cfg.clone(), 2)
            .unwrap()
            .estimate(&t2)
            .unwrap();
        let b = EstimatePlan::new(&net, cfg, 6)
            .unwrap()
            .estimate(&t6)
            .unwrap();
        assert!(b.latency_ms > a.latency_ms);
        assert!(b.dynamic_energy_mj > a.dynamic_energy_mj);
    }
}
