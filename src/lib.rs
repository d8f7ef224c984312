//! # snn — the facade crate of the SNN-DSE reproduction
//!
//! One-call execution API over the workspace's five crates, reproducing the
//! DATE 2025 paper "Exploring the Sparsity-Quantization Interplay on a Novel
//! Hybrid SNN Event-Driven Architecture".
//!
//! The underlying crates expose a research-style API: build a network, run
//! it, collect traces, separately construct an accelerator model, feed the
//! traces back in. This crate fuses that pipeline behind two types:
//!
//! * [`Engine`] — an immutable, cheaply shareable bundle of the model
//!   weights, the input encoder and the precomputed hardware plan. Built once
//!   via [`Engine::builder`], validated at [`EngineBuilder::build`].
//! * [`Session`] — per-thread mutable state (preallocated membrane, spike
//!   and im2col scratch buffers) vended by [`Engine::session`]. Its
//!   [`Session::run`] and [`Session::run_batch`] return a [`RunReport`] that
//!   contains the classification output, the per-layer spike traces **and**
//!   the accelerator's latency/energy/resource estimate in one struct.
//!
//! # Quickstart
//!
//! ```
//! use snn::{Engine, Precision};
//! use snn::core::encoding::Encoder;
//! use snn::core::network::{vgg9, Vgg9Config};
//! use snn::core::tensor::Tensor;
//!
//! # fn main() -> Result<(), snn::SnnError> {
//! let cfg = Vgg9Config::cifar10_small();
//! let engine = Engine::builder()
//!     .network(vgg9(&cfg)?)
//!     .encoder(Encoder::direct(2))
//!     .precision(Precision::Int4)
//!     .hardware_allocation("quickstart", &[1, 8, 4, 18, 6, 6, 20, 2, 1])
//!     .build()?;
//! let mut session = engine.session();
//! let image = Tensor::from_fn(&[3, 16, 16], |i| ((i as f32) * 0.02).sin().abs());
//! let report = session.run(&image)?;
//! assert_eq!(report.logits.len(), cfg.num_classes);
//! println!(
//!     "class {} | {:.3} ms | {:.3} mJ",
//!     report.prediction, report.hardware.latency_ms, report.hardware.dynamic_energy_mj
//! );
//! # Ok(())
//! # }
//! ```
//!
//! Batched inference amortizes every per-run allocation and is bitwise
//! deterministic: `run_batch(&images)` equals N sequential
//! [`Session::run_seeded`] calls with seeds `0..N`.
//!
//! The member crates remain available for advanced use as [`core`],
//! [`data`], [`train`] and [`accel`].

pub use snn_accel as accel;
pub use snn_core as core;
pub use snn_data as data;
pub use snn_serve as serve;
pub use snn_train as train;

pub use snn_accel::accelerator::{EstimatePlan, HybridAccelerator, InferenceReport, LayerPerf};
pub use snn_accel::config::{HwConfig, PerfScale};
pub use snn_core::encoding::Encoder;
pub use snn_core::error::SnnError;
pub use snn_core::network::{LayerTrace, RunState, SnnNetwork, Vgg9Config};
pub use snn_core::quant::Precision;
pub use snn_core::spike::SpikeRecord;
pub use snn_core::tensor::Tensor;

use std::sync::Arc;

/// The immutable, engine-wide state shared by every [`Session`].
#[derive(Debug)]
struct EngineShared {
    network: Arc<SnnNetwork>,
    encoder: Encoder,
    plan: EstimatePlan,
    precision: Precision,
    threads: usize,
}

/// Resolves the worker-thread count for batched inference: an explicit
/// builder setting wins, then the `SNN_THREADS` environment variable, then
/// the machine's available parallelism — the [`snn_core::resolve_threads`]
/// rule shared with the trainer's worker pool, so the two paths cannot
/// drift. Values below 1 (builder or env) clamp to 1 — sequential execution
/// — matching [`EngineBuilder::threads`]'s documented behavior; an
/// unparsable `SNN_THREADS` is ignored.
fn resolve_threads(builder_threads: Option<usize>) -> usize {
    snn_core::resolve_threads(builder_threads)
}

/// Fused result of one inference: classification output, per-layer spike
/// traces, and the accelerator's performance estimate — everything the old
/// API needed a manual `run` → `estimate` two-step for.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Per-class scores (total spike count of each class's population group).
    pub logits: Vec<f32>,
    /// Index of the predicted class.
    pub prediction: usize,
    /// Per-layer spike record (summed over timesteps).
    pub record: SpikeRecord,
    /// Detailed per-layer traces (input events and output spikes per timestep).
    pub traces: Vec<LayerTrace>,
    /// Number of timesteps simulated.
    pub timesteps: usize,
    /// The accelerator's latency/throughput/power/energy/resource estimate
    /// for this inference.
    pub hardware: InferenceReport,
}

/// Aggregate result of [`Session::run_batch`].
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Per-image reports, in input order.
    pub reports: Vec<RunReport>,
    /// Sum of per-image accelerator latencies in milliseconds.
    pub total_latency_ms: f64,
    /// Sum of per-image total energy (dynamic + static share) in millijoules.
    pub total_energy_mj: f64,
}

impl BatchReport {
    /// Number of images in the batch.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// Whether the batch was empty.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// Mean accelerator latency per image in milliseconds.
    pub fn mean_latency_ms(&self) -> f64 {
        if self.reports.is_empty() {
            0.0
        } else {
            self.total_latency_ms / self.reports.len() as f64
        }
    }

    /// Hardware throughput bound in images/second: the batch streamed through
    /// the accelerator's layer pipeline at the bottleneck layer's rate.
    /// Returns `0.0` for an empty batch.
    pub fn throughput_fps(&self) -> f64 {
        if self.reports.is_empty() {
            return 0.0;
        }
        self.reports
            .iter()
            .map(|r| r.hardware.throughput_fps)
            .fold(f64::INFINITY, f64::min)
    }

    /// The predicted class per image.
    pub fn predictions(&self) -> Vec<usize> {
        self.reports.iter().map(|r| r.prediction).collect()
    }
}

/// How the builder resolves the hardware configuration at build time.
#[derive(Debug, Clone)]
enum HardwareSpec {
    /// Derive a minimal one-core-per-layer configuration from the geometry.
    Auto,
    /// An explicit, fully-formed configuration.
    Config(HwConfig),
    /// A paper-style allocation tuple resolved against the chosen precision.
    Allocation {
        name: String,
        allocation: Vec<usize>,
    },
    /// A paper preset (`LW`/`perf2`/`perf4`) for a named dataset.
    Paper { dataset: String, scale: PerfScale },
}

/// Builder for [`Engine`]; start from [`Engine::builder`].
///
/// Only [`EngineBuilder::network`] is mandatory. Defaults: direct coding at
/// the paper's 2 timesteps, [`Precision::Fp32`], batch-norm folding off, and
/// an automatically derived one-core-per-layer hardware configuration.
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    network: Option<SnnNetwork>,
    encoder: Encoder,
    precision: Precision,
    fold_batchnorm: bool,
    hardware: HardwareSpec,
    threads: Option<usize>,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder {
            network: None,
            encoder: Encoder::paper_direct(),
            precision: Precision::Fp32,
            fold_batchnorm: false,
            hardware: HardwareSpec::Auto,
            threads: None,
        }
    }
}

impl EngineBuilder {
    /// Sets the network to execute (required).
    #[must_use]
    pub fn network(mut self, network: SnnNetwork) -> Self {
        self.network = Some(network);
        self
    }

    /// Sets the input encoder (default: direct coding, 2 timesteps).
    #[must_use]
    pub fn encoder(mut self, encoder: Encoder) -> Self {
        self.encoder = encoder;
        self
    }

    /// Sets the deployment precision; the engine materialises the weights at
    /// this precision during [`EngineBuilder::build`] (default: fp32).
    #[must_use]
    pub fn precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Folds batch normalisation into the preceding convolutions at build
    /// time, producing the inference-time network the hardware runs
    /// (default: off).
    #[must_use]
    pub fn fold_batchnorm(mut self, fold: bool) -> Self {
        self.fold_batchnorm = fold;
        self
    }

    /// Uses an explicit hardware configuration.
    #[must_use]
    pub fn hardware(mut self, config: HwConfig) -> Self {
        self.hardware = HardwareSpec::Config(config);
        self
    }

    /// Uses a paper-style allocation tuple (dense-core rows followed by the
    /// per-sparse-layer neural core counts), resolved against the builder's
    /// precision at build time.
    #[must_use]
    pub fn hardware_allocation(mut self, name: impl Into<String>, allocation: &[usize]) -> Self {
        self.hardware = HardwareSpec::Allocation {
            name: name.into(),
            allocation: allocation.to_vec(),
        };
        self
    }

    /// Uses the paper's preset configuration for a dataset
    /// (`"svhn"`/`"cifar10"`/`"cifar100"`) at the given performance scale.
    #[must_use]
    pub fn hardware_paper(mut self, dataset: impl Into<String>, scale: PerfScale) -> Self {
        self.hardware = HardwareSpec::Paper {
            dataset: dataset.into(),
            scale,
        };
        self
    }

    /// Sets the number of worker threads `Session::run_batch` fans images
    /// out over. Values below 1 are clamped to 1 (sequential execution).
    ///
    /// Default: the `SNN_THREADS` environment variable if set, otherwise the
    /// machine's available parallelism. Batched results are bitwise-identical
    /// at every thread count — images are independent (per-image seeds, one
    /// `RunState` per worker).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Validates the configuration and builds the engine.
    ///
    /// Build-time work: batch-norm folding (if requested), weight
    /// quantization to the chosen precision, hardware-plan construction
    /// (allocation coverage, resource and power models).
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] if no network was supplied, the
    /// encoder has zero timesteps, the hardware configuration does not cover
    /// the network's layers or holds values no hardware can have (see
    /// [`HybridAccelerator::new`]), an explicit [`HwConfig`]'s precision differs
    /// from the engine precision (the fused report would model hardware for
    /// weights the engine is not running), or a rate-coded engine keeps the
    /// dense core enabled (rate-coded inputs are binary spikes; call
    /// [`HwConfig::without_dense_core`] and allocate a sparse core for the
    /// input layer instead).
    pub fn build(self) -> Result<Engine, SnnError> {
        let mut network = self
            .network
            .ok_or_else(|| SnnError::config("network", "Engine::builder() requires a network"))?;
        if self.encoder.timesteps == 0 {
            return Err(SnnError::config(
                "encoder",
                "encoder must run at least one timestep",
            ));
        }
        if self.fold_batchnorm {
            network.fold_batchnorm()?;
        }
        network.apply_precision(self.precision)?;
        let geometry_len = network.geometry()?.len();

        let hardware = match self.hardware {
            HardwareSpec::Config(config) => config,
            HardwareSpec::Allocation { name, allocation } => {
                HwConfig::from_allocation(name, self.precision, &allocation)?
            }
            HardwareSpec::Paper { dataset, scale } => {
                HwConfig::paper(&dataset, self.precision, scale)?
            }
            HardwareSpec::Auto => {
                // One dense row plus one neural core per layer; rate-coded
                // engines get a sparse core for the input layer instead of
                // the dense core.
                if self.encoder.produces_binary_input() {
                    HwConfig::from_allocation("auto", self.precision, &vec![1; geometry_len + 1])?
                        .without_dense_core()
                } else {
                    HwConfig::from_allocation("auto", self.precision, &vec![1; geometry_len])?
                }
            }
        };
        check_dense_core(&self.encoder, &hardware)?;
        if hardware.precision != self.precision {
            return Err(SnnError::config(
                "hardware",
                format!(
                    "hardware precision {} does not match the engine precision {}; the fused \
                     report would model hardware for weights the engine is not running \
                     (use Engine::with_hardware for cross-precision hardware sweeps)",
                    hardware.precision, self.precision
                ),
            ));
        }

        let plan = HybridAccelerator::new(&network, hardware)?.plan(self.encoder.timesteps)?;
        Ok(Engine {
            shared: Arc::new(EngineShared {
                network: Arc::new(network),
                encoder: self.encoder,
                plan,
                precision: self.precision,
                threads: resolve_threads(self.threads),
            }),
        })
    }
}

/// One fused inference: network forward (event-driven where the input is
/// sparse enough) plus the hardware estimate. Shared by the sequential and
/// parallel batch paths — each caller brings its own `RunState`, which is all
/// the mutable state an inference needs.
fn run_one(
    shared: &EngineShared,
    state: &mut RunState,
    image: &Tensor,
    seed: u64,
) -> Result<RunReport, SnnError> {
    let output = shared
        .network
        .run_with_state(image, &shared.encoder, seed, state)?;
    let hardware = shared.plan.estimate(&output.traces)?;
    Ok(RunReport {
        logits: output.logits,
        prediction: output.prediction,
        record: output.record,
        traces: output.traces,
        timesteps: output.timesteps,
        hardware,
    })
}

/// Rate-coded inputs are binary spikes and bypass the dense core; a hardware
/// configuration that still instantiates it is a contradiction worth
/// rejecting early.
fn check_dense_core(encoder: &Encoder, hardware: &HwConfig) -> Result<(), SnnError> {
    if encoder.produces_binary_input() && hardware.dense_core_enabled {
        return Err(SnnError::config(
            "hardware",
            "rate coding produces binary input spikes, which bypass the dense core: \
             use HwConfig::without_dense_core() and allocate a sparse core for the \
             input layer",
        ));
    }
    Ok(())
}

/// An immutable, shareable inference engine: model weights at their
/// deployment precision, the input encoder, and the precomputed hardware
/// plan (accelerator geometry, area and power models).
///
/// Cloning an `Engine` is cheap (an [`Arc`] bump); every clone shares the
/// same weights and plan. Per-thread mutable state lives in the [`Session`]s
/// it vends.
#[derive(Debug, Clone)]
pub struct Engine {
    shared: Arc<EngineShared>,
}

impl Engine {
    /// Starts building an engine.
    ///
    /// # Example
    ///
    /// ```
    /// use snn::core::network::{vgg9, Vgg9Config};
    /// use snn::{Engine, Precision};
    ///
    /// # fn main() -> Result<(), snn::SnnError> {
    /// let engine = Engine::builder()
    ///     .network(vgg9(&Vgg9Config::cifar10_small())?)
    ///     .precision(Precision::Int4)
    ///     .build()?; // auto-derives a one-core-per-layer hardware plan
    /// assert_eq!(engine.precision(), Precision::Int4);
    /// assert_eq!(engine.encoder().timesteps, 2); // paper default: direct, T=2
    /// # Ok(())
    /// # }
    /// ```
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Creates a session: the per-thread handle that actually runs
    /// inferences, with preallocated membrane/spike/im2col scratch buffers.
    pub fn session(&self) -> Session {
        let state = RunState::new(&self.shared.network)
            .expect("engine network geometry was validated at build time");
        Session {
            shared: Arc::clone(&self.shared),
            state,
            worker_states: Vec::new(),
        }
    }

    /// The network the engine executes (weights already at
    /// [`Engine::precision`]).
    pub fn network(&self) -> &SnnNetwork {
        &self.shared.network
    }

    /// The input encoder.
    pub fn encoder(&self) -> Encoder {
        self.shared.encoder
    }

    /// The deployment precision.
    pub fn precision(&self) -> Precision {
        self.shared.precision
    }

    /// The hardware configuration behind the plan.
    pub fn hardware(&self) -> &HwConfig {
        self.shared.plan.config()
    }

    /// The precomputed estimate plan shared by all sessions.
    pub fn plan(&self) -> &EstimatePlan {
        &self.shared.plan
    }

    /// Derives an engine with a different hardware configuration but the same
    /// (already quantized) weights and encoder. The network is shared, not
    /// cloned; only the hardware plan is rebuilt. Used for hardware sweeps
    /// over identical workloads (e.g. LW vs perf2 vs perf4) — unlike
    /// [`EngineBuilder::build`], the hardware precision may differ from the
    /// engine precision, which is exactly how the paper evaluates fp32 vs
    /// int4 hardware on identical traces.
    ///
    /// # Errors
    ///
    /// Same hardware validation as [`EngineBuilder::build`].
    pub fn with_hardware(&self, hardware: HwConfig) -> Result<Engine, SnnError> {
        check_dense_core(&self.shared.encoder, &hardware)?;
        let plan = HybridAccelerator::new(&self.shared.network, hardware)?
            .plan(self.shared.encoder.timesteps)?;
        Ok(Engine {
            shared: Arc::new(EngineShared {
                network: Arc::clone(&self.shared.network),
                encoder: self.shared.encoder,
                plan,
                precision: self.shared.precision,
                threads: self.shared.threads,
            }),
        })
    }

    /// Derives an engine running `network` — e.g. weights reloaded from a
    /// checkpoint — with this engine's encoder, precision, thread count and
    /// hardware configuration. This is the hot-reload path: the serving
    /// registry validates the derived engine against golden probes and
    /// swaps it in atomically while the incumbent keeps serving.
    ///
    /// The network is quantized to [`Engine::precision`] and the hardware
    /// plan is rebuilt for its geometry. Unlike [`EngineBuilder::build`],
    /// batch-norm folding is *not* applied — a checkpointed network carries
    /// whatever structure it was saved with; request folding through the
    /// builder when loading raw training checkpoints.
    ///
    /// # Errors
    ///
    /// Same quantization and hardware coverage validation as
    /// [`EngineBuilder::build`] (e.g. the hardware allocation must cover
    /// the new network's layers).
    pub fn with_network(&self, mut network: SnnNetwork) -> Result<Engine, SnnError> {
        network.apply_precision(self.shared.precision)?;
        let hardware = self.shared.plan.config().clone();
        check_dense_core(&self.shared.encoder, &hardware)?;
        let plan =
            HybridAccelerator::new(&network, hardware)?.plan(self.shared.encoder.timesteps)?;
        Ok(Engine {
            shared: Arc::new(EngineShared {
                network: Arc::new(network),
                encoder: self.shared.encoder,
                plan,
                precision: self.shared.precision,
                threads: self.shared.threads,
            }),
        })
    }

    /// The number of worker threads [`Session::run_batch`] fans out over.
    pub fn threads(&self) -> usize {
        self.shared.threads
    }
}

/// Per-thread inference handle vended by [`Engine::session`].
///
/// Owns the mutable run state — LIF membrane potentials, firing history,
/// spike-plane ping-pong buffers and the conv im2col/matmul-panel/gather
/// scratch — which is reset (not reallocated) between runs, so batched
/// inference pays no per-image allocation cost for them. When the engine's
/// thread count is above one, [`Session::run_batch`] fans images out over
/// scoped worker threads, each with its own lazily created (then cached)
/// `RunState`. Every run's hardware estimate reuses the engine's memoized
/// [`EstimatePlan`] (area/power models plus the per-layer cycle models), so
/// a batch only re-folds per-trace spike counts.
#[derive(Debug)]
pub struct Session {
    shared: Arc<EngineShared>,
    state: RunState,
    /// Per-worker run states for parallel batches, created on first use and
    /// reused by subsequent `run_batch` calls.
    worker_states: Vec<RunState>,
}

impl Session {
    /// Runs one inference (seed 0 for the stochastic rate encoder) and
    /// returns the fused [`RunReport`].
    ///
    /// # Errors
    ///
    /// Returns shape errors for a wrongly-shaped image and propagates any
    /// layer-level error.
    pub fn run(&mut self, image: &Tensor) -> Result<RunReport, SnnError> {
        self.run_seeded(image, 0)
    }

    /// Like [`Session::run`] with an explicit encoder seed.
    ///
    /// # Errors
    ///
    /// Same as [`Session::run`].
    pub fn run_seeded(&mut self, image: &Tensor, seed: u64) -> Result<RunReport, SnnError> {
        run_one(&self.shared, &mut self.state, image, seed)
    }

    /// Runs a batch of images through the session and returns per-image
    /// reports plus aggregates. Images are fanned out over the engine's
    /// worker-thread count (builder [`EngineBuilder::threads`], `SNN_THREADS`
    /// or the available parallelism); each worker reuses its own preallocated
    /// run state across the batch.
    ///
    /// Deterministic at every thread count: image `i` runs with encoder seed
    /// `i` and its own independent LIF/encoder state, so the logits are
    /// bitwise-identical to `N` sequential [`Session::run_seeded`] calls with
    /// seeds `0..N` (or to `SnnNetwork::run_seeded` on the same quantized
    /// network), regardless of how the batch was partitioned.
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-indexed image that fails; same
    /// conditions as [`Session::run`].
    pub fn run_batch(&mut self, images: &[Tensor]) -> Result<BatchReport, SnnError> {
        self.run_batch_seeded(images, 0)
    }

    /// Like [`Session::run_batch`] but image `i` uses encoder seed
    /// `base_seed + i`.
    ///
    /// # Errors
    ///
    /// Same as [`Session::run_batch`].
    pub fn run_batch_seeded(
        &mut self,
        images: &[Tensor],
        base_seed: u64,
    ) -> Result<BatchReport, SnnError> {
        self.run_batch_inner(images, &|i| base_seed + i as u64)
    }

    /// Like [`Session::run_batch`] but image `i` uses the explicit
    /// `seeds[i]`. This is the serving layer's entry point: requests arrive
    /// with arbitrary per-request seeds, and running them as one coalesced
    /// batch here is bitwise-identical to running each alone through
    /// [`Session::run_seeded`].
    ///
    /// # Errors
    ///
    /// [`SnnError::InvalidConfig`] when `seeds.len() != images.len()`;
    /// otherwise same as [`Session::run_batch`].
    pub fn run_batch_with_seeds(
        &mut self,
        images: &[Tensor],
        seeds: &[u64],
    ) -> Result<BatchReport, SnnError> {
        if images.len() != seeds.len() {
            return Err(SnnError::config(
                "seeds",
                format!("{} seeds provided for {} images", seeds.len(), images.len()),
            ));
        }
        self.run_batch_inner(images, &|i| seeds[i])
    }

    /// Shared batch driver: `seed_for(i)` supplies image `i`'s encoder seed,
    /// always indexed by the *global* image position so partitioning across
    /// workers never changes results.
    fn run_batch_inner(
        &mut self,
        images: &[Tensor],
        seed_for: &(dyn Fn(usize) -> u64 + Sync),
    ) -> Result<BatchReport, SnnError> {
        let workers = self.shared.threads.min(images.len()).max(1);
        if workers <= 1 {
            let mut reports = Vec::with_capacity(images.len());
            for (i, image) in images.iter().enumerate() {
                reports.push(self.run_seeded(image, seed_for(i))?);
            }
            return Ok(Self::aggregate(reports));
        }

        // One cached RunState per worker; grown on first use.
        while self.worker_states.len() < workers {
            self.worker_states
                .push(RunState::new(&self.shared.network)?);
        }
        let shared = &self.shared;
        let chunk = images.len().div_ceil(workers);
        // Contiguous chunks keep report order == image order; every worker
        // derives its seeds from the global image index, so partitioning
        // never changes results.
        let chunk_results: Vec<Vec<Result<RunReport, SnnError>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = images
                .chunks(chunk)
                .zip(self.worker_states.iter_mut())
                .enumerate()
                .map(|(w, (chunk_images, state))| {
                    scope.spawn(move || {
                        chunk_images
                            .iter()
                            .enumerate()
                            .map(|(j, image)| {
                                let seed = seed_for(w * chunk + j);
                                run_one(shared, state, image, seed)
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("batch worker thread panicked"))
                .collect()
        });

        let mut reports = Vec::with_capacity(images.len());
        for result in chunk_results.into_iter().flatten() {
            reports.push(result?);
        }
        Ok(Self::aggregate(reports))
    }

    /// Sums the per-image hardware aggregates in image order (matching the
    /// sequential accumulation order bitwise).
    fn aggregate(reports: Vec<RunReport>) -> BatchReport {
        let mut total_latency_ms = 0.0;
        let mut total_energy_mj = 0.0;
        for report in &reports {
            total_latency_ms += report.hardware.latency_ms;
            total_energy_mj += report.hardware.total_energy_mj;
        }
        BatchReport {
            reports,
            total_latency_ms,
            total_energy_mj,
        }
    }

    /// Re-estimates previously recorded traces under this session's hardware
    /// plan, without re-running the network. Used for hardware sweeps: record
    /// traces once, evaluate them under several configurations via
    /// [`Engine::with_hardware`].
    ///
    /// # Errors
    ///
    /// Returns shape/config errors if the traces do not match the engine's
    /// geometry or timestep count.
    pub fn estimate(&self, traces: &[LayerTrace]) -> Result<InferenceReport, SnnError> {
        self.shared.plan.estimate(traces)
    }

    /// The engine this session belongs to.
    pub fn engine(&self) -> Engine {
        Engine {
            shared: Arc::clone(&self.shared),
        }
    }
}

/// The engine-backed serving runner: one per serve worker, owning its own
/// [`Session`]. A coalesced batch goes through
/// [`Session::run_batch_with_seeds`], so serving inherits the batch path's
/// bitwise determinism — a request's result is identical whether it was
/// served alone or inside any coalesced batch.
#[derive(Debug)]
pub struct EngineRunner {
    session: Session,
}

impl EngineRunner {
    fn result_from_report(report: RunReport) -> serve::InferenceResult {
        serve::InferenceResult {
            logits: report.logits,
            prediction: report.prediction,
            record: report.record,
            traces: report.traces,
            timesteps: report.timesteps,
            hardware: Some(report.hardware),
        }
    }
}

impl serve::ModelRunner for EngineRunner {
    fn run_batch(
        &mut self,
        requests: Vec<serve::InferenceRequest>,
    ) -> Vec<Result<serve::InferenceResult, SnnError>> {
        let (images, seeds): (Vec<Tensor>, Vec<u64>) =
            requests.into_iter().map(|r| (r.image, r.seed)).unzip();
        match self.session.run_batch_with_seeds(&images, &seeds) {
            Ok(batch) => batch
                .reports
                .into_iter()
                .map(|report| Ok(Self::result_from_report(report)))
                .collect(),
            // The batch path reports only the first failure; re-run each
            // request alone so errors are attributed per request and healthy
            // batch neighbours still get their (bitwise-identical) results.
            Err(_) => images
                .iter()
                .zip(&seeds)
                .map(|(image, &seed)| {
                    self.session
                        .run_seeded(image, seed)
                        .map(Self::result_from_report)
                })
                .collect(),
        }
    }
}

impl serve::ServeModel for Engine {
    type Runner = EngineRunner;

    fn runner(&self) -> EngineRunner {
        EngineRunner {
            session: self.session(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snn_core::network::vgg9;

    fn small_engine(precision: Precision) -> Engine {
        Engine::builder()
            .network(vgg9(&Vgg9Config::cifar10_small()).unwrap())
            .encoder(Encoder::direct(2))
            .precision(precision)
            .hardware_allocation("test", &[1, 4, 2, 4, 2, 4, 4, 2, 1])
            .build()
            .unwrap()
    }

    fn test_image(phase: usize) -> Tensor {
        Tensor::from_fn(&[3, 16, 16], move |i| {
            (((i + phase * 97) as f32) * 0.017).sin().abs()
        })
    }

    #[test]
    fn engine_run_fuses_output_and_hardware_estimate() {
        let engine = small_engine(Precision::Int4);
        let mut session = engine.session();
        let report = session.run(&test_image(0)).unwrap();
        assert_eq!(report.logits.len(), 10);
        assert!(report.prediction < 10);
        assert_eq!(report.timesteps, 2);
        assert_eq!(report.hardware.layers.len(), 9);
        assert!(report.hardware.latency_ms > 0.0);
        assert!(report.hardware.dynamic_energy_mj > 0.0);
        assert!(report.hardware.fits_device);
    }

    #[test]
    fn sessions_are_independent_and_repeatable() {
        let engine = small_engine(Precision::Int4);
        let mut a = engine.session();
        let mut b = engine.session();
        let image = test_image(1);
        let ra = a.run(&image).unwrap();
        // Interleave another image on session b, then repeat image on a.
        b.run(&test_image(2)).unwrap();
        let ra2 = a.run(&image).unwrap();
        assert_eq!(ra.logits, ra2.logits);
        assert_eq!(ra.record.total_spikes(), ra2.record.total_spikes());
    }

    #[test]
    fn engine_is_cheaply_cloneable_and_shares_weights() {
        let engine = small_engine(Precision::Fp32);
        let clone = engine.clone();
        let r1 = engine.session().run(&test_image(3)).unwrap();
        let r2 = clone.session().run(&test_image(3)).unwrap();
        assert_eq!(r1.logits, r2.logits);
    }

    #[test]
    fn with_hardware_shares_weights_and_rebuilds_plan() {
        let engine = small_engine(Precision::Int4);
        let mut perf4 = engine.hardware().clone();
        perf4.dense_rows *= 4;
        for nc in &mut perf4.neural_cores {
            *nc *= 4;
        }
        let scaled = engine.with_hardware(perf4).unwrap();
        let image = test_image(4);
        let base = engine.session().run(&image).unwrap();
        let fast = scaled.session().run(&image).unwrap();
        // Same workload (identical logits), faster hardware.
        assert_eq!(base.logits, fast.logits);
        assert!(fast.hardware.latency_ms < base.hardware.latency_ms);
    }

    #[test]
    fn hand_built_hardware_the_cores_cannot_run_is_a_typed_error() {
        let engine = small_engine(Precision::Int4);
        let edit = |f: fn(&mut HwConfig)| {
            let mut cfg = engine.hardware().clone();
            f(&mut cfg);
            cfg
        };
        let broken = [
            ("chunk_bits", edit(|c| c.chunk_bits = 0)),
            ("neural_cores", edit(|c| c.neural_cores[3] = 0)),
            ("dense_rows", edit(|c| c.dense_rows = 0)),
            ("clock_mhz", edit(|c| c.clock_mhz = 0.0)),
            ("clock_mhz", edit(|c| c.clock_mhz = f64::NAN)),
        ];
        for (field, cfg) in broken {
            let built = Engine::builder()
                .network(vgg9(&Vgg9Config::cifar10_small()).unwrap())
                .precision(Precision::Int4)
                .hardware(cfg.clone())
                .build();
            for result in [built.map(drop), engine.with_hardware(cfg).map(drop)] {
                match result {
                    Err(SnnError::InvalidConfig { parameter, .. }) => assert_eq!(parameter, field),
                    other => panic!("{field}: expected an InvalidConfig, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn builder_requires_a_network() {
        let err = Engine::builder().build().unwrap_err();
        assert!(err.to_string().contains("network"));
    }

    #[test]
    fn builder_rejects_undersized_allocation() {
        let result = Engine::builder()
            .network(vgg9(&Vgg9Config::cifar10_small()).unwrap())
            .hardware_allocation("short", &[1, 4, 2])
            .build();
        assert!(result.is_err());
    }

    #[test]
    fn builder_rejects_mismatched_hardware_precision() {
        let fp32_hw =
            HwConfig::from_allocation("fp32", Precision::Fp32, &[1, 4, 2, 4, 2, 4, 4, 2, 1])
                .unwrap();
        let err = Engine::builder()
            .network(vgg9(&Vgg9Config::cifar10_small()).unwrap())
            .precision(Precision::Int4)
            .hardware(fp32_hw.clone())
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("precision"), "got: {err}");
        // Cross-precision sweeps remain available through with_hardware.
        let engine = small_engine(Precision::Int4);
        assert!(engine.with_hardware(fp32_hw).is_ok());
    }

    #[test]
    fn empty_batch_reports_zero_throughput() {
        let engine = small_engine(Precision::Int4);
        let batch = engine.session().run_batch(&[]).unwrap();
        assert!(batch.is_empty());
        assert_eq!(batch.throughput_fps(), 0.0);
        assert_eq!(batch.mean_latency_ms(), 0.0);
    }

    #[test]
    fn builder_rejects_rate_coding_with_dense_core() {
        let hw =
            HwConfig::from_allocation("rate", Precision::Int4, &[1, 4, 2, 4, 2, 4, 4, 2, 1, 1])
                .unwrap();
        let result = Engine::builder()
            .network(vgg9(&Vgg9Config::cifar10_small()).unwrap())
            .encoder(Encoder::rate(5))
            .hardware(hw)
            .build();
        assert!(result.unwrap_err().to_string().contains("dense core"));
    }

    #[test]
    fn rate_coding_works_without_dense_core() {
        let hw =
            HwConfig::from_allocation("rate", Precision::Int4, &[1, 4, 2, 4, 2, 4, 4, 2, 1, 1])
                .unwrap()
                .without_dense_core();
        let engine = Engine::builder()
            .network(vgg9(&Vgg9Config::cifar10_small()).unwrap())
            .encoder(Encoder::rate(5))
            .precision(Precision::Int4)
            .hardware(hw)
            .build()
            .unwrap();
        let report = engine.session().run(&test_image(5)).unwrap();
        assert_eq!(report.timesteps, 5);
        assert!(report.hardware.latency_ms > 0.0);
    }

    #[test]
    fn auto_hardware_covers_both_codings() {
        let direct = Engine::builder()
            .network(vgg9(&Vgg9Config::cifar10_small()).unwrap())
            .build()
            .unwrap();
        assert!(direct.hardware().dense_core_enabled);
        let rate = Engine::builder()
            .network(vgg9(&Vgg9Config::cifar10_small()).unwrap())
            .encoder(Encoder::rate(3))
            .build()
            .unwrap();
        assert!(!rate.hardware().dense_core_enabled);
        assert_eq!(rate.hardware().neural_cores.len(), 9);
        rate.session().run(&test_image(6)).unwrap();
    }

    #[test]
    fn batch_report_aggregates() {
        let engine = small_engine(Precision::Int4);
        let mut session = engine.session();
        let images: Vec<Tensor> = (0..3).map(test_image).collect();
        let batch = session.run_batch(&images).unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.predictions().len(), 3);
        let sum: f64 = batch.reports.iter().map(|r| r.hardware.latency_ms).sum();
        assert!((batch.total_latency_ms - sum).abs() < 1e-12);
        assert!(batch.mean_latency_ms() > 0.0);
        assert!(batch.throughput_fps() > 0.0);
    }
}
