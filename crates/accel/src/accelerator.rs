//! The hybrid accelerator top level.
//!
//! [`HybridAccelerator`] ties the per-layer models together: the dense core
//! for the direct-coded input layer, one sparse core per remaining weight
//! layer (sized by the configuration's NC allocation), the on-chip memory
//! plan, and the power/energy models. Given the spike traces of an inference
//! run it produces an [`InferenceReport`] with per-layer cycles, power and
//! energy plus the end-to-end latency, throughput and device utilisation —
//! the numbers behind Table I, Table II, Table III and Fig. 4.

use crate::config::HwConfig;
use crate::dense_core::DenseCore;
use crate::energy;
use crate::power;
use crate::resources::{estimate_layers, ResourceEstimate};
use crate::sparse_core::SparseCore;
use serde::{Deserialize, Serialize};
use snn_core::error::SnnError;
use snn_core::network::{LayerGeometry, LayerTrace, SnnNetwork};
use snn_core::quant::Precision;

/// Per-layer performance summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerPerf {
    /// Layer name.
    pub name: String,
    /// Neural cores allocated (0 for the dense layer).
    pub neural_cores: usize,
    /// Input events consumed across all timesteps.
    pub input_events: u64,
    /// Cycles spent on this layer for one image.
    pub cycles: u64,
    /// Busy time in milliseconds.
    pub busy_ms: f64,
    /// Instance-level dynamic power in watts.
    pub dynamic_watts: f64,
    /// Dynamic energy in millijoules.
    pub dynamic_mj: f64,
    /// LUTs used by the layer instance (logic + LUTRAM).
    pub luts: u64,
    /// Flip-flops used.
    pub ffs: u64,
    /// BRAM36 blocks used.
    pub bram: u64,
    /// URAM blocks used.
    pub uram: u64,
}

/// Full report of one simulated inference.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InferenceReport {
    /// Name of the hardware configuration.
    pub config_name: String,
    /// Weight precision.
    pub precision: Precision,
    /// Number of timesteps the trace covers.
    pub timesteps: usize,
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
    /// Sum of per-layer dynamic power in watts.
    pub total_dynamic_watts: f64,
    /// Device static power in watts.
    pub static_watts: f64,
    /// Total spikes consumed by the sparse layers.
    pub total_input_events: u64,
    /// Whether the design fits the XCVU13P.
    pub fits_device: bool,
    /// The resource estimate behind the per-layer numbers.
    pub resources: ResourceEstimate,
}

impl InferenceReport {
    /// The bottleneck layer (largest cycle count), if any.
    pub fn bottleneck(&self) -> Option<&LayerPerf> {
        self.layers.iter().max_by_key(|l| l.cycles)
    }
}

/// The hybrid dense/sparse accelerator instance for one network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HybridAccelerator {
    config: HwConfig,
    geometry: Vec<LayerGeometry>,
}

impl HybridAccelerator {
    /// Builds an accelerator for `network` under `config`.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] if the configuration's NC
    /// allocation does not cover every sparse layer of the network, or if
    /// the configuration cannot describe hardware: a zero chunk width, a
    /// zero NC count, an enabled dense core with no PE rows, or a clock that
    /// is not a finite positive frequency.
    pub fn new(network: &SnnNetwork, config: HwConfig) -> Result<Self, SnnError> {
        Self::from_geometry(network.geometry()?, config)
    }

    /// Builds an accelerator directly from a layer geometry.
    ///
    /// # Errors
    ///
    /// Same as [`HybridAccelerator::new`].
    pub fn from_geometry(geometry: Vec<LayerGeometry>, config: HwConfig) -> Result<Self, SnnError> {
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
        Ok(HybridAccelerator { config, geometry })
    }

    /// The hardware configuration.
    pub fn config(&self) -> &HwConfig {
        &self.config
    }

    /// The weight-layer geometry the accelerator was built for.
    pub fn geometry(&self) -> &[LayerGeometry] {
        &self.geometry
    }

    /// Area estimate for spike buffers sized to `timesteps`.
    ///
    /// # Errors
    ///
    /// Propagates resource-model errors.
    pub fn resources(&self, timesteps: usize) -> Result<ResourceEstimate, SnnError> {
        estimate_layers(&self.geometry, &self.config, timesteps)
    }

    /// Precomputes the trace-independent part of an estimate — the resource
    /// and power models for spike buffers sized to `timesteps` — so repeated
    /// estimates (sessions, batches) share one plan instead of re-deriving
    /// area and power per image.
    ///
    /// # Errors
    ///
    /// Propagates resource-model errors.
    pub fn plan(&self, timesteps: usize) -> Result<EstimatePlan, SnnError> {
        let resources = estimate_layers(&self.geometry, &self.config, timesteps.max(1))?;
        let power_est =
            power::estimate(&resources, self.config.precision, self.config.clock_gating);
        let watts: Vec<f64> = power_est.layers.iter().map(|l| l.dynamic_watts).collect();
        // Memoize the trace-independent half of the per-layer cycle models:
        // the dense core's timing depends only on geometry + timesteps (one
        // fixed cycle count for every image of the batch), and each sparse
        // layer's core configuration (NC count, chunk width) never changes
        // between traces. Per estimate only the spike-count folding remains.
        let cycle_models = self
            .geometry
            .iter()
            .enumerate()
            .map(|(i, geo)| {
                if self.config.dense_core_enabled && i == 0 {
                    Ok(LayerCycleModel::Dense {
                        cycles: DenseCore::new(self.config.dense_rows)
                            .timing(geo.out_channels, geo.out_height, geo.out_width, timesteps)
                            .total_cycles,
                    })
                } else {
                    let sparse_index = if self.config.dense_core_enabled {
                        i - 1
                    } else {
                        i
                    };
                    let ncs = self.config.cores_for_sparse_layer(sparse_index)?;
                    Ok(LayerCycleModel::Sparse {
                        core: SparseCore::new(ncs, self.config.chunk_bits),
                    })
                }
            })
            .collect::<Result<_, SnnError>>()?;
        let names: Vec<String> = self.geometry.iter().map(|g| g.name.clone()).collect();
        Ok(EstimatePlan {
            config: self.config.clone(),
            geometry: self.geometry.clone(),
            timesteps,
            total_dynamic_watts: power_est.total_dynamic_watts(),
            static_watts: power_est.static_watts,
            watts,
            resources,
            cycle_models,
            names,
        })
    }

    /// Estimates latency, throughput, power and energy for one inference
    /// described by the spike traces of a `snn-core` network run.
    ///
    /// The traces may include pooling layers; only weight layers (those with
    /// geometry) are consumed, in order. This derives a fresh [`EstimatePlan`]
    /// per call; hot paths should create the plan once via
    /// [`HybridAccelerator::plan`] and call [`EstimatePlan::estimate`].
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::ShapeMismatch`] if the number of weight-layer
    /// traces does not match the accelerator's geometry.
    pub fn estimate(&self, traces: &[LayerTrace]) -> Result<InferenceReport, SnnError> {
        let timesteps = traces
            .iter()
            .find(|t| t.geometry.is_some())
            .map(|t| t.input_events.len())
            .unwrap_or(0);
        self.plan(timesteps)?.estimate(traces)
    }
}

/// The precomputed, trace-independent part of an accelerator estimate: the
/// hardware configuration, layer geometry, and the resource/power models for
/// a fixed timestep count. Created by [`HybridAccelerator::plan`] and shared
/// across every image of a session or batch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EstimatePlan {
    config: HwConfig,
    geometry: Vec<LayerGeometry>,
    timesteps: usize,
    total_dynamic_watts: f64,
    static_watts: f64,
    watts: Vec<f64>,
    resources: ResourceEstimate,
    cycle_models: Vec<LayerCycleModel>,
    names: Vec<String>,
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
    /// The timestep count the spike buffers were sized for.
    pub fn timesteps(&self) -> usize {
        self.timesteps
    }

    /// The hardware configuration behind the plan.
    pub fn config(&self) -> &HwConfig {
        &self.config
    }

    /// The precomputed resource estimate.
    pub fn resources(&self) -> &ResourceEstimate {
        &self.resources
    }

    /// Estimates one inference from its spike traces, reusing the plan's
    /// precomputed area/power models. Only the per-layer cycle and energy
    /// calculation runs per call.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::ShapeMismatch`] if the number of weight-layer
    /// traces does not match the geometry, or [`SnnError::InvalidConfig`] if
    /// the traces cover a different timestep count than the plan was sized
    /// for.
    pub fn estimate(&self, traces: &[LayerTrace]) -> Result<InferenceReport, SnnError> {
        let weight_traces: Vec<&LayerTrace> =
            traces.iter().filter(|t| t.geometry.is_some()).collect();
        if weight_traces.len() != self.geometry.len() {
            return Err(SnnError::shape(
                &[self.geometry.len()],
                &[weight_traces.len()],
                "EstimatePlan::estimate trace count",
            ));
        }
        let timesteps = weight_traces
            .first()
            .map(|t| t.input_events.len())
            .unwrap_or(0);
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
            .zip(weight_traces.iter())
            .zip(self.cycle_models.iter())
        {
            let layer_cycles = match model {
                LayerCycleModel::Dense { cycles } => *cycles,
                LayerCycleModel::Sparse { core } => {
                    core.timing(&trace.input_events, geo).total_cycles
                }
            };
            cycles.push(layer_cycles);
        }

        let energy_est = energy::estimate(
            &self.names,
            &cycles,
            &self.watts,
            self.config.clock_mhz,
            self.static_watts,
        );

        let layers: Vec<LayerPerf> = self
            .geometry
            .iter()
            .enumerate()
            .map(|(i, geo)| LayerPerf {
                name: geo.name.clone(),
                neural_cores: self.resources.layers[i].neural_cores,
                input_events: weight_traces[i].total_input_events(),
                cycles: cycles[i],
                busy_ms: energy_est.layers[i].busy_ms,
                dynamic_watts: self.watts[i],
                dynamic_mj: energy_est.layers[i].dynamic_mj,
                luts: self.resources.layers[i].luts,
                ffs: self.resources.layers[i].ffs,
                bram: self.resources.layers[i].bram,
                uram: self.resources.layers[i].uram,
            })
            .collect();

        let latency_ms: f64 = layers.iter().map(|l| l.busy_ms).sum();
        let bottleneck = cycles.iter().copied().max().unwrap_or(0);
        let throughput_fps = if bottleneck == 0 {
            0.0
        } else {
            self.config.clock_mhz * 1e6 / bottleneck as f64
        };
        Ok(InferenceReport {
            config_name: self.config.name.clone(),
            precision: self.config.precision,
            timesteps,
            latency_ms,
            throughput_fps,
            dynamic_energy_mj: energy_est.dynamic_mj(),
            total_energy_mj: energy_est.total_mj(),
            total_dynamic_watts: self.total_dynamic_watts,
            static_watts: self.static_watts,
            total_input_events: layers.iter().map(|l| l.input_events).sum(),
            fits_device: self.resources.fits(),
            resources: self.resources.clone(),
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
        let accel = HybridAccelerator::new(&net, cfg).unwrap();
        assert_eq!(accel.geometry().len(), 9);
        assert!(accel.resources(2).unwrap().fits());
    }

    #[test]
    fn new_rejects_short_allocation() {
        let net = vgg9(&Vgg9Config::cifar10_small()).unwrap();
        let cfg = HwConfig::from_allocation("short", Precision::Int4, &[1, 4, 2]).unwrap();
        assert!(HybridAccelerator::new(&net, cfg).is_err());
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
            match HybridAccelerator::new(&net, cfg.clone()) {
                Err(SnnError::InvalidConfig { parameter, .. }) => assert_eq!(parameter, field),
                other => panic!("{cfg:?}: expected an InvalidConfig on {field}, got {other:?}"),
            }
        }
        // Without the dense core its row count is never used.
        let mut rate = small_config(Precision::Int4).without_dense_core();
        rate.neural_cores.push(1);
        rate.dense_rows = 0;
        assert!(HybridAccelerator::new(&net, rate).is_ok());
    }

    #[test]
    fn estimate_produces_consistent_report() {
        let (net, traces) = small_traces(&Encoder::direct(2));
        let accel = HybridAccelerator::new(&net, small_config(Precision::Int4)).unwrap();
        let report = accel.estimate(&traces).unwrap();
        assert_eq!(report.layers.len(), 9);
        assert_eq!(report.timesteps, 2);
        assert!(report.latency_ms > 0.0);
        assert!(report.throughput_fps > 0.0);
        assert!(report.dynamic_energy_mj > 0.0);
        assert!(report.total_energy_mj > report.dynamic_energy_mj);
        assert!(report.fits_device);
        // Latency equals the sum of the layer busy times.
        let sum: f64 = report.layers.iter().map(|l| l.busy_ms).sum();
        assert!((report.latency_ms - sum).abs() < 1e-9);
        // The bottleneck layer bounds the throughput.
        let b = report.bottleneck().unwrap();
        assert!((report.throughput_fps - 1e8 / b.cycles as f64).abs() < 1e-6);
    }

    #[test]
    fn shared_plan_estimates_identically_to_fresh_plans() {
        // A batch of different images estimated through ONE memoized plan
        // must report exactly what per-image fresh plans (the un-memoized
        // path) report — the estimate memoization may not change a single
        // bit of the hardware numbers.
        let net = vgg9(&Vgg9Config::cifar10_small()).unwrap();
        let accel = HybridAccelerator::new(&net, small_config(Precision::Int4)).unwrap();
        let shared = accel.plan(2).unwrap();
        for phase in 0..4 {
            let image = Tensor::from_fn(&[3, 16, 16], |i| {
                (((i + phase * 131) as f32) * 0.011).sin().abs()
            });
            let traces = net.run(&image, &Encoder::direct(2)).unwrap().traces;
            let memoized = shared.estimate(&traces).unwrap();
            let fresh = accel.estimate(&traces).unwrap();
            assert_eq!(memoized, fresh, "image {phase}");
        }
    }

    #[test]
    fn identical_workloads_share_the_dense_cycle_model() {
        // Two runs of the same image produce identical traces; the shared
        // plan must fold them to identical reports (and the dense input
        // layer's cycles are the plan's precomputed constant).
        let (net, traces) = small_traces(&Encoder::direct(2));
        let accel = HybridAccelerator::new(&net, small_config(Precision::Int4)).unwrap();
        let plan = accel.plan(2).unwrap();
        let a = plan.estimate(&traces).unwrap();
        let b = plan.estimate(&traces).unwrap();
        assert_eq!(a, b);
        match &plan.cycle_models[0] {
            LayerCycleModel::Dense { cycles } => {
                assert_eq!(*cycles, a.layers[0].cycles);
            }
            other => panic!("input layer should use the dense model, got {other:?}"),
        }
        drop(net);
    }

    #[test]
    fn estimate_rejects_mismatched_traces() {
        let (net, traces) = small_traces(&Encoder::direct(1));
        let other = vgg9(&Vgg9Config::cifar10_small()).unwrap();
        let accel = HybridAccelerator::new(&other, small_config(Precision::Int4)).unwrap();
        // Drop one trace to break the correspondence.
        assert!(accel.estimate(&traces[..traces.len() - 1]).is_err());
        drop(net);
    }

    #[test]
    fn int4_beats_fp32_on_energy_for_the_same_trace() {
        let (net, traces) = small_traces(&Encoder::direct(2));
        let int4 = HybridAccelerator::new(&net, small_config(Precision::Int4)).unwrap();
        let fp32 = HybridAccelerator::new(&net, small_config(Precision::Fp32)).unwrap();
        let ri = int4.estimate(&traces).unwrap();
        let rf = fp32.estimate(&traces).unwrap();
        assert!(
            rf.dynamic_energy_mj > ri.dynamic_energy_mj,
            "fp32 {:.4} mJ should exceed int4 {:.4} mJ",
            rf.dynamic_energy_mj,
            ri.dynamic_energy_mj
        );
        assert!(rf.total_dynamic_watts > ri.total_dynamic_watts);
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
        let a = HybridAccelerator::new(&net, lw)
            .unwrap()
            .estimate(&traces)
            .unwrap();
        let b = HybridAccelerator::new(&net, perf4)
            .unwrap()
            .estimate(&traces)
            .unwrap();
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
        let accel = HybridAccelerator::new(&net, cfg).unwrap();
        let report = accel.estimate(&traces).unwrap();
        assert_eq!(report.timesteps, 5);
        assert!(report.latency_ms > 0.0);
        assert_eq!(report.layers[0].neural_cores, 4);
    }

    #[test]
    fn more_timesteps_increase_latency_and_energy() {
        let (net, t2) = small_traces(&Encoder::direct(2));
        let (_, t6) = small_traces(&Encoder::direct(6));
        let accel = HybridAccelerator::new(&net, small_config(Precision::Int4)).unwrap();
        let a = accel.estimate(&t2).unwrap();
        let b = accel.estimate(&t6).unwrap();
        assert!(b.latency_ms > a.latency_ms);
        assert!(b.dynamic_energy_mj > a.dynamic_energy_mj);
    }
}
