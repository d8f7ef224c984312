//! Multi-model registry: named models, validated atomic hot-reload,
//! per-model drift tracking and health states.
//!
//! One [`ServeCore`] serves one model forever; production serving needs a
//! *lifecycle* around it — several named models behind one endpoint, new
//! versions swapped in under traffic, bad versions kept out, and a live
//! fidelity signal when the traffic a model sees stops resembling the
//! traffic its accelerator estimates were calibrated on. [`ModelZoo`] is
//! that layer:
//!
//! - **Routing.** Requests carry an optional model id
//!   ([`InferenceRequest::model`]); the zoo routes them to the named
//!   entry's core, or to the default model (the first registered) when the
//!   id is absent. Unknown names get the typed
//!   [`ServeError::UnknownModel`] (HTTP 404).
//! - **Validated atomic hot-reload.** [`ModelZoo::swap`] (and
//!   [`ModelZoo::load_with`], which reads a CRC-verified
//!   `snn-core::io::Checkpoint` first) runs the candidate through seeded
//!   **golden probes** ([`ProbeSpec`]: finite logits, expected class
//!   count, optional bitwise match against recorded golden outputs)
//!   *before* publishing it. A failing candidate never serves a request
//!   and never disturbs the incumbent — the swap returns the typed
//!   [`ServeError::ValidationFailed`] and the old version keeps serving.
//!   The publish itself is an epoch bump: worker runners re-check the
//!   epoch at batch start only, so in-flight batches finish on the version
//!   they dequeued with. [`ModelZoo::rollback`] restores the previous
//!   retained version with one call.
//! - **Drift detection.** Every successful result's per-layer traces are
//!   folded into a per-model [`DriftTracker`] (via the core's
//!   [`ResultObserver`](crate::core::ResultObserver) hook): a few counter
//!   updates per layer, with no allocation once the tracker has learned the
//!   model's layers (`snn-core`'s `drift_allocs` test counts them). The
//!   verdict is computed when health or stats are read. When the windowed
//!   per-layer spike-rate distribution diverges from the calibration
//!   baseline beyond the configured KL threshold, the model's health flips
//!   `Healthy →`
//!   [`ModelHealth::Degraded`], surfaced in `/v1/stats` and `/healthz` and
//!   enforced per [`DriftPolicy`]: *annotate* responses (the wire carries a
//!   `degraded` flag) or *shed* with the retryable
//!   [`ServeError::Degraded`] (HTTP 503 + `Retry-After`). Wedge detection
//!   from the core composes in as the terminal [`ModelHealth::Wedged`]
//!   state.

use crate::core::{
    InferenceRequest, InferenceResult, ModelRunner, ResponseHandle, ServeConfig, ServeCore,
    ServeModel, ServeStats, ServedResponse,
};
use crate::error::ServeError;
use serde::Serialize;
use snn_core::io::Checkpoint;
use snn_core::stats::{DriftConfig, DriftStatus, DriftTracker};
use snn_core::SnnError;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

// ---------------------------------------------------------------------------
// Epoch-pinned swappable model
// ---------------------------------------------------------------------------

/// The published version of a [`SwappableModel`]: what new runners build
/// from. `epoch` is stored alongside so a runner that rebuilds under the
/// lock records exactly the epoch of the model it built.
struct CurrentVersion<M: ServeModel> {
    version: String,
    model: Arc<M>,
    epoch: u64,
}

struct SwapState<M: ServeModel> {
    /// Cheap swap signal mirrored from [`CurrentVersion::epoch`]; runners
    /// poll this once per batch and only take the lock when it moved.
    epoch: AtomicU64,
    current: Mutex<CurrentVersion<M>>,
    /// Retained predecessors, oldest first (bounded by `retain`).
    previous: Mutex<Vec<(String, Arc<M>)>>,
    retain: usize,
}

/// A [`ServeModel`] whose inner model can be atomically replaced while a
/// core serves it.
///
/// The swap is **epoch-pinned**: each worker's [`SwappableRunner`] checks
/// the epoch counter once at the start of every batch and rebuilds its
/// inner runner only when the epoch moved. A batch that already started
/// therefore finishes on the version it dequeued with — a swap never
/// changes results mid-batch, preserving the serving determinism contract
/// (a request's result depends only on its `(image, seed)` and the version
/// that served it).
pub struct SwappableModel<M: ServeModel> {
    state: Arc<SwapState<M>>,
}

impl<M: ServeModel> Clone for SwappableModel<M> {
    fn clone(&self) -> Self {
        SwappableModel {
            state: Arc::clone(&self.state),
        }
    }
}

impl<M: ServeModel> std::fmt::Debug for SwappableModel<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwappableModel")
            .field("version", &self.version())
            .field("epoch", &self.state.epoch.load(Ordering::Relaxed))
            .finish()
    }
}

impl<M: ServeModel> SwappableModel<M> {
    /// Wraps `model` as the initial version. `retain` bounds how many
    /// predecessor versions are kept for [`SwappableModel::rollback`].
    pub fn new(version: impl Into<String>, model: M, retain: usize) -> Self {
        SwappableModel {
            state: Arc::new(SwapState {
                epoch: AtomicU64::new(0),
                current: Mutex::new(CurrentVersion {
                    version: version.into(),
                    model: Arc::new(model),
                    epoch: 0,
                }),
                previous: Mutex::new(Vec::new()),
                retain,
            }),
        }
    }

    /// The currently published version id.
    pub fn version(&self) -> String {
        self.state
            .current
            .lock()
            .expect("swap state poisoned")
            .version
            .clone()
    }

    /// Number of swaps (and rollbacks) ever published.
    pub fn epoch(&self) -> u64 {
        self.state.epoch.load(Ordering::Acquire)
    }

    /// Atomically publishes `model` as `version`, retaining the incumbent
    /// for rollback. Unvalidated — the zoo validates first; use this
    /// directly only when the candidate is known good.
    pub fn swap(&self, version: impl Into<String>, model: M) {
        let mut current = self.state.current.lock().expect("swap state poisoned");
        let epoch = current.epoch + 1;
        let old = std::mem::replace(
            &mut *current,
            CurrentVersion {
                version: version.into(),
                model: Arc::new(model),
                epoch,
            },
        );
        let mut previous = self.state.previous.lock().expect("swap state poisoned");
        previous.push((old.version, old.model));
        let excess = previous.len().saturating_sub(self.state.retain);
        previous.drain(..excess);
        drop(previous);
        // Publish last, while still holding the current lock: a runner
        // that sees the new epoch is guaranteed to find the new model.
        self.state.epoch.store(epoch, Ordering::Release);
    }

    /// Restores the most recently retained version, discarding the current
    /// one (a version rolled back from is presumed bad — it is *not*
    /// retained). Returns the restored version id, or `None` when nothing
    /// is retained.
    pub fn rollback(&self) -> Option<String> {
        let mut current = self.state.current.lock().expect("swap state poisoned");
        let (version, model) = self
            .state
            .previous
            .lock()
            .expect("swap state poisoned")
            .pop()?;
        let restored = version.clone();
        let epoch = current.epoch + 1;
        *current = CurrentVersion {
            version,
            model,
            epoch,
        };
        self.state.epoch.store(epoch, Ordering::Release);
        Some(restored)
    }

    /// Snapshot of the current `(version, model)` for validation probes.
    fn snapshot(&self) -> (String, Arc<M>) {
        let current = self.state.current.lock().expect("swap state poisoned");
        (current.version.clone(), Arc::clone(&current.model))
    }
}

/// Worker-side runner of a [`SwappableModel`]: delegates to the current
/// version's runner, rebuilding it at batch start when the epoch moved.
pub struct SwappableRunner<M: ServeModel> {
    state: Arc<SwapState<M>>,
    runner: M::Runner,
    epoch_seen: u64,
}

impl<M: ServeModel> ModelRunner for SwappableRunner<M> {
    fn run_batch(
        &mut self,
        requests: Vec<InferenceRequest>,
    ) -> Vec<Result<InferenceResult, SnnError>> {
        // The one version check per batch: everything after this line runs
        // on whatever version was current here, even if a swap lands while
        // the batch executes.
        if self.state.epoch.load(Ordering::Acquire) != self.epoch_seen {
            let current = self.state.current.lock().expect("swap state poisoned");
            self.runner = current.model.runner();
            self.epoch_seen = current.epoch;
        }
        self.runner.run_batch(requests)
    }
}

impl<M: ServeModel> ServeModel for SwappableModel<M> {
    type Runner = SwappableRunner<M>;

    fn runner(&self) -> SwappableRunner<M> {
        let current = self.state.current.lock().expect("swap state poisoned");
        SwappableRunner {
            runner: current.model.runner(),
            epoch_seen: current.epoch,
            state: Arc::clone(&self.state),
        }
    }
}

// ---------------------------------------------------------------------------
// Golden-probe validation
// ---------------------------------------------------------------------------

/// One seeded validation probe run against every hot-reload candidate
/// *before* it is published.
#[derive(Debug, Clone)]
pub struct ProbeSpec {
    /// Probe input tensor.
    pub input: snn_core::tensor::Tensor,
    /// Encoder seed the probe runs under (golden outputs are only
    /// reproducible under a fixed seed).
    pub seed: u64,
    /// Expected logit count (the model's class count), when known.
    pub expected_classes: Option<usize>,
    /// Recorded golden logits this probe must reproduce **bitwise**, when
    /// provided. Record them from a known-good version via
    /// [`ModelZoo::record_golden`]; leave `None` when swapping to a
    /// version whose outputs legitimately differ.
    pub golden_logits: Option<Vec<f32>>,
}

impl ProbeSpec {
    /// A probe checking only output sanity (finite logits, `classes`
    /// outputs) — the right default when candidate versions may produce
    /// different scores.
    pub fn sanity(input: snn_core::tensor::Tensor, seed: u64, classes: usize) -> Self {
        ProbeSpec {
            input,
            seed,
            expected_classes: Some(classes),
            golden_logits: None,
        }
    }
}

/// Runs `probes` as one seeded batch on a fresh runner of `model` under
/// `catch_unwind`, and returns one result per probe. A panic, or a batch
/// that does not answer every probe, is a [`ServeError::ValidationFailed`]
/// of `version`, whose reason names the model as `who`. No probes run no
/// batch.
fn run_probes<M: ServeModel>(
    model: &M,
    version: &str,
    who: &str,
    probes: &[ProbeSpec],
) -> Result<Vec<Result<InferenceResult, SnnError>>, ServeError> {
    if probes.is_empty() {
        return Ok(Vec::new());
    }
    let fail = |reason: String| ServeError::ValidationFailed {
        version: version.to_string(),
        reason,
    };
    let requests: Vec<InferenceRequest> = probes
        .iter()
        .map(|p| InferenceRequest::seeded(p.input.clone(), p.seed))
        .collect();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut runner = model.runner();
        runner.run_batch(requests)
    }));
    let results = outcome.map_err(|payload| {
        let message = crate::core::panic_message(payload.as_ref());
        fail(format!("{who} panicked on probe batch: {message}"))
    })?;
    if results.len() != probes.len() {
        return Err(fail(format!(
            "{who} answered {} of {} probes",
            results.len(),
            probes.len()
        )));
    }
    Ok(results)
}

/// Runs `probes` against `model` ([`run_probes`]) and returns the typed
/// [`ServeError::ValidationFailed`] on the first violation: per-probe model
/// error, panic, empty or non-finite logits, a class-count mismatch, or a
/// golden-output mismatch. A panicking candidate is contained here exactly
/// like a panicking batch in the core.
fn validate_candidate<M: ServeModel>(
    model: &M,
    version: &str,
    probes: &[ProbeSpec],
) -> Result<(), ServeError> {
    let fail = |reason: String| ServeError::ValidationFailed {
        version: version.to_string(),
        reason,
    };
    let results = run_probes(model, version, "candidate", probes)?;
    for (i, (probe, result)) in probes.iter().zip(results).enumerate() {
        let result = result.map_err(|e| fail(format!("probe {i} failed: {e}")))?;
        if result.logits.is_empty() {
            return Err(fail(format!("probe {i} produced no logits")));
        }
        if let Some(bad) = result.logits.iter().find(|v| !v.is_finite()) {
            return Err(fail(format!("probe {i} produced non-finite logit {bad}")));
        }
        if let Some(classes) = probe.expected_classes {
            if result.logits.len() != classes {
                return Err(fail(format!(
                    "probe {i} produced {} logits, expected {classes}",
                    result.logits.len()
                )));
            }
        }
        if let Some(golden) = &probe.golden_logits {
            let matches = golden.len() == result.logits.len()
                && golden
                    .iter()
                    .zip(&result.logits)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if !matches {
                return Err(fail(format!(
                    "probe {i} logits diverge bitwise from the recorded golden outputs"
                )));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Health, policy and per-model configuration
// ---------------------------------------------------------------------------

/// What the registry does with requests routed to a drift-Degraded model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DriftPolicy {
    /// Serve the request but mark the response as degraded (JSON field
    /// `degraded`, binary status [`STATUS_OK_DEGRADED`]) — the caller
    /// decides whether a possibly-miscalibrated estimate is still useful.
    ///
    /// [`STATUS_OK_DEGRADED`]: crate::protocol::STATUS_OK_DEGRADED
    #[default]
    Annotate,
    /// Refuse the request with the retryable [`ServeError::Degraded`]
    /// (HTTP 503 + `Retry-After`), pushing traffic to healthy replicas
    /// until an operator swaps or rolls the model back.
    Shed,
}

/// Per-model health state machine, composing drift detection with the
/// core's wedge detection. Ordering: `Wedged` (terminal, the model cannot
/// run) dominates `Degraded` (running, but off its calibration baseline)
/// dominates `Healthy`.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelHealth {
    /// Serving, with spike-rate distributions within the drift threshold
    /// (or still calibrating).
    Healthy,
    /// Serving, but the drift tracker's windowed spike-rate distribution
    /// diverged from the calibration baseline.
    Degraded {
        /// The largest per-layer KL divergence, in nats.
        kl: f64,
        /// The layer that diverged the most.
        layer: String,
    },
    /// The core declared the model wedged (workers died repeatedly without
    /// progress); its queue is closed. Terminal — swap in a working
    /// version under a fresh name.
    Wedged,
}

impl ModelHealth {
    /// Lowercase state name for wire surfaces (`healthy` / `degraded` /
    /// `wedged`).
    pub fn as_str(&self) -> &'static str {
        match self {
            ModelHealth::Healthy => "healthy",
            ModelHealth::Degraded { .. } => "degraded",
            ModelHealth::Wedged => "wedged",
        }
    }
}

/// Per-model registry configuration: the core's serving parameters plus
/// the model-lifecycle knobs this layer adds.
#[derive(Debug, Clone, Default)]
pub struct ZooConfig {
    /// Queue/batcher/supervision configuration of the model's core.
    pub serve: ServeConfig,
    /// Drift-tracker configuration (calibration runs, window, threshold).
    pub drift: DriftConfig,
    /// What to do with requests while the model is Degraded.
    pub drift_policy: DriftPolicy,
    /// Golden probes every hot-reload candidate must pass before a swap.
    /// Empty means swaps are unvalidated (discouraged outside tests).
    pub probes: Vec<ProbeSpec>,
    /// How many predecessor versions to retain for rollback (default 1).
    /// 0 disables rollback.
    pub retain: Option<usize>,
}

/// Per-model statistics section of [`ZooStats`], serialized under the
/// model's name in `/v1/stats`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ModelStats {
    /// Currently published version id.
    pub version: String,
    /// Health state name (`healthy` / `degraded` / `wedged`).
    pub health: String,
    /// Largest per-layer KL divergence of the drift window against the
    /// calibration baseline (0 until calibrated and filled).
    pub drift_kl: f64,
    /// The layer behind `drift_kl`, once the tracker has a verdict.
    pub drift_layer: Option<String>,
    /// Whether the drift baseline has frozen (monitoring active).
    pub drift_calibrated: bool,
    /// Runs folded into the drift tracker since the last swap/rollback.
    pub drift_observed: u64,
    /// Successful validated swaps published for this model.
    pub swaps: u64,
    /// Hot-reload candidates rejected by golden-probe validation (each one
    /// never served a request).
    pub validation_failures: u64,
    /// Rollbacks published for this model.
    pub rollbacks: u64,
    /// The model core's counters and latency quantiles (requests,
    /// restarts, deadline shedding, queue depths).
    pub serve: ServeStats,
}

/// Registry-wide statistics: one [`ModelStats`] section per model, keyed
/// by name — the `/v1/stats` JSON shape documented in the crate README.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ZooStats {
    /// The model unnamed requests route to.
    pub default_model: Option<String>,
    /// Per-model sections, keyed by model name.
    pub models: BTreeMap<String, ModelStats>,
}

#[derive(Debug, Default)]
struct EntryCounters {
    swaps: u64,
    validation_failures: u64,
    rollbacks: u64,
}

struct ModelEntry<M: ServeModel> {
    swappable: SwappableModel<M>,
    core: ServeCore<SwappableModel<M>>,
    drift: Arc<Mutex<DriftTracker>>,
    policy: DriftPolicy,
    probes: Mutex<Vec<ProbeSpec>>,
    counters: Mutex<EntryCounters>,
}

impl<M: ServeModel> ModelEntry<M> {
    fn drift_status(&self) -> DriftStatus {
        self.drift.lock().expect("drift tracker poisoned").status()
    }

    fn health(&self) -> ModelHealth {
        self.health_under(&self.drift_status())
    }

    /// The health `drift` implies, with the core's wedge outranking it.
    fn health_under(&self, drift: &DriftStatus) -> ModelHealth {
        if self.core.is_wedged() {
            ModelHealth::Wedged
        } else if drift.drifted {
            ModelHealth::Degraded {
                kl: drift.max_kl,
                layer: drift.worst_layer.clone().unwrap_or_default(),
            }
        } else {
            ModelHealth::Healthy
        }
    }

    fn stats(&self) -> ModelStats {
        let drift = self.drift_status();
        let counters = self.counters.lock().expect("counters poisoned");
        ModelStats {
            version: self.swappable.version(),
            health: self.health_under(&drift).as_str().to_string(),
            drift_kl: drift.max_kl,
            drift_layer: drift.worst_layer,
            drift_calibrated: drift.calibrated,
            drift_observed: drift.observed,
            swaps: counters.swaps,
            validation_failures: counters.validation_failures,
            rollbacks: counters.rollbacks,
            serve: self.core.stats(),
        }
    }
}

struct ZooMap<M: ServeModel> {
    entries: BTreeMap<String, Arc<ModelEntry<M>>>,
    /// First-registered model; unnamed requests route here.
    default_model: Option<String>,
}

/// The multi-model registry. Cheap to clone (an `Arc` handle) so
/// transports, examples and operators can hold it concurrently; see the
/// [module docs](self) for the full lifecycle story.
///
/// # Example
///
/// ```
/// use snn_serve::registry::{ModelZoo, ZooConfig};
/// use snn_serve::{InferenceRequest, InferenceResult, ModelRunner, ServeModel};
/// use snn_core::tensor::Tensor;
/// use snn_core::SnnError;
///
/// struct Toy(f32);
/// struct ToyRunner(f32);
/// impl ModelRunner for ToyRunner {
///     fn run_batch(
///         &mut self,
///         requests: Vec<InferenceRequest>,
///     ) -> Vec<Result<InferenceResult, SnnError>> {
///         requests
///             .into_iter()
///             .map(|r| {
///                 let sum: f32 = r.image.as_slice().iter().sum();
///                 Ok(InferenceResult::from_logits(vec![sum * self.0, -sum]))
///             })
///             .collect()
///     }
/// }
/// impl ServeModel for Toy {
///     type Runner = ToyRunner;
///     fn runner(&self) -> ToyRunner {
///         ToyRunner(self.0)
///     }
/// }
///
/// let zoo = ModelZoo::new();
/// zoo.register("toy", "v1", Toy(1.0), ZooConfig::default()).unwrap();
/// let image = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
/// let response = zoo
///     .infer(InferenceRequest::new(image.clone()).with_model("toy"))
///     .unwrap();
/// assert_eq!(response.result.logits[0], 3.0);
///
/// // Validated hot-swap: v2 doubles the score; in-flight batches finish
/// // on whichever version they dequeued with.
/// zoo.swap("toy", "v2", Toy(2.0)).unwrap();
/// let response = zoo.infer(InferenceRequest::new(image)).unwrap();
/// assert_eq!(response.result.logits[0], 6.0);
/// assert_eq!(zoo.rollback("toy").unwrap(), "v1");
/// zoo.shutdown();
/// ```
pub struct ModelZoo<M: ServeModel> {
    inner: Arc<RwLock<ZooMap<M>>>,
}

impl<M: ServeModel> Clone for ModelZoo<M> {
    fn clone(&self) -> Self {
        ModelZoo {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<M: ServeModel> std::fmt::Debug for ModelZoo<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let map = self.inner.read().expect("zoo poisoned");
        f.debug_struct("ModelZoo")
            .field("models", &map.entries.keys().collect::<Vec<_>>())
            .field("default_model", &map.default_model)
            .finish()
    }
}

impl<M: ServeModel> Default for ModelZoo<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: ServeModel> ModelZoo<M> {
    /// Creates an empty registry.
    pub fn new() -> Self {
        ModelZoo {
            inner: Arc::new(RwLock::new(ZooMap {
                entries: BTreeMap::new(),
                default_model: None,
            })),
        }
    }

    /// Registers `model` under `name` at `version` and starts its serving
    /// core. The first registered model becomes the default route for
    /// requests that carry no model id. The initial version is validated
    /// against `config.probes` exactly like a hot-reload candidate.
    ///
    /// # Errors
    ///
    /// A config error for a duplicate or empty name or an invalid
    /// serve/drift configuration; [`ServeError::ValidationFailed`] when
    /// the model fails its own probes.
    pub fn register(
        &self,
        name: impl Into<String>,
        version: impl Into<String>,
        model: M,
        config: ZooConfig,
    ) -> Result<(), ServeError> {
        let name = name.into();
        let version = version.into();
        if name.is_empty() || name.len() > u8::MAX as usize {
            return Err(ServeError::Model(SnnError::config(
                "name",
                "model names must be 1..=255 bytes (the wire length prefix is a u8)",
            )));
        }
        validate_candidate(&model, &version, &config.probes)?;
        let drift = Arc::new(Mutex::new(
            DriftTracker::new(config.drift).map_err(ServeError::Model)?,
        ));
        let swappable = SwappableModel::new(version, model, config.retain.unwrap_or(1));
        let observer = {
            let drift = Arc::clone(&drift);
            Arc::new(move |result: &crate::core::InferenceResult| {
                drift
                    .lock()
                    .expect("drift tracker poisoned")
                    .observe(&result.traces);
            }) as crate::core::ResultObserver
        };
        let core = ServeCore::start_with_observer(swappable.clone(), config.serve, Some(observer))?;
        let entry = Arc::new(ModelEntry {
            swappable,
            core,
            drift,
            policy: config.drift_policy,
            probes: Mutex::new(config.probes),
            counters: Mutex::new(EntryCounters::default()),
        });
        let mut map = self.inner.write().expect("zoo poisoned");
        if map.entries.contains_key(&name) {
            // The freshly started core must not leak its threads.
            entry.core.shutdown();
            return Err(ServeError::Model(SnnError::config(
                "name",
                format!("a model named {name:?} is already registered"),
            )));
        }
        if map.default_model.is_none() {
            map.default_model = Some(name.clone());
        }
        map.entries.insert(name, entry);
        Ok(())
    }

    fn entry(&self, name: &str) -> Result<Arc<ModelEntry<M>>, ServeError> {
        self.inner
            .read()
            .expect("zoo poisoned")
            .entries
            .get(name)
            .cloned()
            .ok_or_else(|| ServeError::UnknownModel {
                model: name.to_string(),
            })
    }

    /// Routes `request` to the model it names, or to the default model when
    /// it names none, and applies that model's drift policy: under
    /// [`DriftPolicy::Shed`] a drift-Degraded model refuses it.
    fn admit(&self, request: &InferenceRequest) -> Result<Arc<ModelEntry<M>>, ServeError> {
        let entry = match &request.model {
            Some(name) => self.entry(name)?,
            None => {
                let map = self.inner.read().expect("zoo poisoned");
                let name =
                    map.default_model
                        .as_deref()
                        .ok_or_else(|| ServeError::UnknownModel {
                            model: "(default: registry is empty)".to_string(),
                        })?;
                map.entries
                    .get(name)
                    .cloned()
                    .ok_or_else(|| ServeError::UnknownModel {
                        model: name.to_string(),
                    })?
            }
        };
        if entry.policy == DriftPolicy::Shed {
            if let ModelHealth::Degraded { kl, layer } = entry.health() {
                return Err(ServeError::Degraded { kl, layer });
            }
        }
        Ok(entry)
    }

    /// Registered model names (sorted).
    pub fn models(&self) -> Vec<String> {
        self.inner
            .read()
            .expect("zoo poisoned")
            .entries
            .keys()
            .cloned()
            .collect()
    }

    /// The model unnamed requests route to (the first registered).
    pub fn default_model(&self) -> Option<String> {
        self.inner
            .read()
            .expect("zoo poisoned")
            .default_model
            .clone()
    }

    /// Validates `model` against the entry's probes and, on success,
    /// atomically publishes it as `version` (epoch-pinned: in-flight
    /// batches finish on the version they dequeued with). The incumbent is
    /// retained for [`ModelZoo::rollback`] and the drift tracker is reset
    /// to recalibrate against the new version's traffic.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] for an unregistered name;
    /// [`ServeError::ValidationFailed`] when a probe fails — **the
    /// candidate is discarded and the incumbent keeps serving,
    /// undisturbed.**
    pub fn swap(&self, name: &str, version: impl Into<String>, model: M) -> Result<(), ServeError> {
        let entry = self.entry(name)?;
        let version = version.into();
        let probes = entry.probes.lock().expect("probes poisoned").clone();
        if let Err(e) = validate_candidate(&model, &version, &probes) {
            entry
                .counters
                .lock()
                .expect("counters poisoned")
                .validation_failures += 1;
            return Err(e);
        }
        entry.swappable.swap(version, model);
        entry.counters.lock().expect("counters poisoned").swaps += 1;
        // The spike-rate baseline describes the *previous* version's steady
        // state; recalibrate against the new one.
        entry.drift.lock().expect("drift tracker poisoned").reset();
        Ok(())
    }

    /// Reads a checkpoint through the crash-safe CRC-verified
    /// `snn-core::io` path, builds a model from it with `build`, and
    /// publishes it via [`ModelZoo::swap`] (golden-probe validated). A
    /// corrupted file, a failing build, or a failing probe leaves the
    /// incumbent serving and returns the typed error — the candidate never
    /// serves a request.
    ///
    /// # Errors
    ///
    /// [`ServeError::Model`] for an unreadable/corrupt checkpoint (the
    /// CRC-64 trailer catches silent corruption) or a failing `build`;
    /// otherwise as [`ModelZoo::swap`].
    pub fn load_with<F>(
        &self,
        name: &str,
        version: impl Into<String>,
        path: impl AsRef<Path>,
        build: F,
    ) -> Result<(), ServeError>
    where
        F: FnOnce(Checkpoint) -> Result<M, SnnError>,
    {
        // Surface load/build failures on the same counter as probe
        // failures: every rejected candidate is observable.
        let entry = self.entry(name)?;
        let checkpoint = match Checkpoint::load(path) {
            Ok(c) => c,
            Err(e) => {
                entry
                    .counters
                    .lock()
                    .expect("counters poisoned")
                    .validation_failures += 1;
                return Err(ServeError::Model(e));
            }
        };
        let model = match build(checkpoint) {
            Ok(m) => m,
            Err(e) => {
                entry
                    .counters
                    .lock()
                    .expect("counters poisoned")
                    .validation_failures += 1;
                return Err(ServeError::Model(e));
            }
        };
        self.swap(name, version, model)
    }

    /// Rolls `name` back to its most recently retained version (one call,
    /// epoch-pinned like a swap) and resets its drift tracker — the
    /// restored version recalibrates against current traffic, so a drift
    /// flag raised by the rolled-back version clears. Returns the restored
    /// version id.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] for an unregistered name; a config
    /// error when no predecessor is retained.
    pub fn rollback(&self, name: &str) -> Result<String, ServeError> {
        let entry = self.entry(name)?;
        let restored = entry.swappable.rollback().ok_or_else(|| {
            ServeError::Model(SnnError::config(
                "rollback",
                format!("model {name:?} has no retained predecessor version"),
            ))
        })?;
        entry.counters.lock().expect("counters poisoned").rollbacks += 1;
        entry.drift.lock().expect("drift tracker poisoned").reset();
        Ok(restored)
    }

    /// Runs `name`'s current version over the entry's probes and records
    /// each probe's logits as its golden outputs — future swaps must then
    /// reproduce them bitwise (use after publishing a known-good version
    /// whose outputs define correctness for reloads of the same weights).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] for an unregistered name;
    /// [`ServeError::ValidationFailed`] when the current version itself
    /// fails a probe.
    pub fn record_golden(&self, name: &str) -> Result<(), ServeError> {
        let entry = self.entry(name)?;
        let (version, model) = entry.swappable.snapshot();
        let mut probes = entry.probes.lock().expect("probes poisoned");
        let results = run_probes(&*model, &version, "current version", &probes)?;
        for (i, (probe, result)) in probes.iter_mut().zip(results).enumerate() {
            let result = result.map_err(|e| ServeError::ValidationFailed {
                version: version.clone(),
                reason: format!("probe {i} failed on the current version: {e}"),
            })?;
            probe.golden_logits = Some(result.logits);
        }
        Ok(())
    }

    /// Routes and submits a request (never blocks). The drift policy is
    /// enforced here for [`DriftPolicy::Shed`] entries.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] for an unknown (or absent-and-empty)
    /// model id, [`ServeError::Degraded`] under the shed policy while the
    /// model is drift-flagged, plus everything
    /// [`ServeCore::submit`] returns.
    pub fn submit(&self, request: InferenceRequest) -> Result<ResponseHandle, ServeError> {
        self.admit(&request)?.core.submit(request)
    }

    /// Convenience: [`ModelZoo::submit`] then wait.
    ///
    /// # Errors
    ///
    /// Same as [`ModelZoo::submit`], plus any model error.
    pub fn infer(&self, request: InferenceRequest) -> Result<ServedResponse, ServeError> {
        self.submit(request)?.wait()
    }

    /// Like [`ModelZoo::infer`], additionally reporting whether the
    /// serving model was drift-Degraded at response time (the annotation
    /// transports put on the wire under [`DriftPolicy::Annotate`]).
    ///
    /// # Errors
    ///
    /// Same as [`ModelZoo::infer`].
    pub fn infer_annotated(
        &self,
        request: InferenceRequest,
    ) -> Result<(ServedResponse, bool), ServeError> {
        let entry = self.admit(&request)?;
        let response = entry.core.submit(request)?.wait()?;
        let degraded = matches!(entry.health(), ModelHealth::Degraded { .. });
        Ok((response, degraded))
    }

    /// Health of one model.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] for an unregistered name.
    pub fn health(&self, name: &str) -> Result<ModelHealth, ServeError> {
        Ok(self.entry(name)?.health())
    }

    /// Health of every registered model, keyed by name.
    pub fn health_all(&self) -> BTreeMap<String, ModelHealth> {
        let map = self.inner.read().expect("zoo poisoned");
        map.entries
            .iter()
            .map(|(name, entry)| (name.clone(), entry.health()))
            .collect()
    }

    /// Per-model statistics snapshot (the `/v1/stats` payload).
    pub fn stats(&self) -> ZooStats {
        let map = self.inner.read().expect("zoo poisoned");
        ZooStats {
            default_model: map.default_model.clone(),
            models: map
                .entries
                .iter()
                .map(|(name, entry)| (name.clone(), entry.stats()))
                .collect(),
        }
    }

    /// Shuts down every model's core (draining queued requests). The
    /// registry stays readable afterwards; submissions fail with
    /// [`ServeError::ShuttingDown`].
    pub fn shutdown(&self) {
        let entries: Vec<Arc<ModelEntry<M>>> = self
            .inner
            .read()
            .expect("zoo poisoned")
            .entries
            .values()
            .cloned()
            .collect();
        for entry in entries {
            entry.core.shutdown();
        }
    }
}
