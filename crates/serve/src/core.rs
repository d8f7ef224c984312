//! The transport-agnostic serving core: dynamic batching over a bounded
//! queue, dedicated model workers, and streaming latency statistics.
//!
//! # Ownership model
//!
//! ```text
//!  acceptors (any thread)          worker threads (N = ServeConfig::workers)
//!  ─────────────────────           ──────────────────────────────────────────
//!  submit(request) ──try_push──▶  BoundedQueue ──pop_batch──▶ [r0 r1 .. rk]
//!      │     (never blocks;                     (idle worker: serve on
//!      │      sheds Overloaded)                  arrival; backlog: coalesce
//!      │                                         ≤ max_batch or flush at
//!      │                                         max_delay)
//!      ▼                                             │ Runner::run_batch
//!  ResponseHandle ◀──────────── per-request slots ◀──┘ (owns the model
//!      .wait()                                          session; results
//!                                                       land in order)
//! ```
//!
//! A worker that finds the queue empty when it asks for work is keeping up,
//! so it runs the first arrival at once (with whatever arrived alongside
//! it). A worker that finds requests already queued is behind, because they
//! piled up while it ran its last batch, so it coalesces them under the
//! [`ServeConfig::max_delay`] budget. The rule reads only the queue's state
//! at that moment: no timer, no rate estimate, no tuned constant.
//!
//! The model is owned by the workers: each worker thread builds its own
//! [`ModelRunner`] from the shared [`ServeModel`] at startup (mirroring the
//! per-worker `RunState` of `Session::run_batch`) and drains the queue until
//! shutdown. Requests never share mutable state; responses travel back
//! through one-shot slots.
//!
//! # Determinism
//!
//! Batching is a *scheduling* decision, never a numerical one: every request
//! carries its own seed, and a conforming [`ModelRunner`] (the engine-backed
//! one in the `snn` facade runs `Session::run_batch_with_seeds`) produces
//! bitwise-identical results whether a request is served alone or coalesced
//! into any batch, in any position, at any worker/thread count.

use crate::error::ServeError;
use crate::queue::{BoundedQueue, PushRefusal};
use serde::Serialize;
use snn_accel::accelerator::InferenceReport;
use snn_core::network::LayerTrace;
use snn_core::stats::LogHistogram;
use snn_core::tensor::{argmax, Tensor};
use snn_core::SnnError;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One inference request: the input image plus the encoder seed it must run
/// under. The seed travels with the request so that coalescing requests into
/// a batch cannot change any result (see the module docs on determinism).
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceRequest {
    /// The input tensor (e.g. `[C, H, W]` image planes).
    pub image: Tensor,
    /// Encoder seed for this request (only stochastic encoders consume it;
    /// deterministic direct coding ignores the value but the contract is
    /// uniform).
    pub seed: u64,
    /// Deadline budget, measured from submission: a result delivered more
    /// than this long after [`ServeCore::submit`] accepted the request is
    /// worthless to the caller (the paper's ECU pipeline is latency-bound,
    /// so the server models this explicitly). `None` falls back to
    /// [`ServeConfig::default_timeout`]. Expired requests are dropped at
    /// dequeue *before* any inference is spent on them, and admission
    /// control pre-rejects requests whose deadline the current queue wait
    /// already makes unmeetable.
    pub deadline: Option<Duration>,
    /// Name of the registry model this request targets. `None` routes to a
    /// single-model core (or the registry's default model). A [`ServeCore`]
    /// itself ignores the field — routing happens one layer up, in the
    /// [`ModelZoo`](crate::ModelZoo) — so a request that reaches a core is
    /// always already routed.
    pub model: Option<String>,
}

impl InferenceRequest {
    /// Builds a request with seed 0 and no explicit deadline.
    pub fn new(image: Tensor) -> Self {
        InferenceRequest {
            image,
            seed: 0,
            deadline: None,
            model: None,
        }
    }

    /// Builds a request with an explicit seed (and no explicit deadline).
    pub fn seeded(image: Tensor, seed: u64) -> Self {
        InferenceRequest {
            image,
            seed,
            deadline: None,
            model: None,
        }
    }

    /// Sets the deadline budget (builder style).
    ///
    /// ```
    /// use snn_serve::InferenceRequest;
    /// use snn_core::tensor::Tensor;
    /// use std::time::Duration;
    ///
    /// let image = Tensor::from_vec(vec![1.0], &[1]).unwrap();
    /// let request = InferenceRequest::seeded(image, 7).with_deadline(Duration::from_millis(25));
    /// assert_eq!(request.deadline, Some(Duration::from_millis(25)));
    /// ```
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Targets a named registry model (builder style). See
    /// [`InferenceRequest::model`].
    #[must_use]
    pub fn with_model(mut self, model: impl Into<String>) -> Self {
        self.model = Some(model.into());
        self
    }
}

/// One inference result, mirroring the facade's `RunReport`: classification
/// output, spike traces, and (when the model computes one) the accelerator's
/// hardware estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceResult {
    /// Per-class scores.
    pub logits: Vec<f32>,
    /// Index of the predicted class.
    pub prediction: usize,
    /// Per-layer traces: the run's spike counts per layer and timestep.
    pub traces: Vec<LayerTrace>,
    /// Number of timesteps simulated.
    pub timesteps: usize,
    /// The accelerator's latency/energy/resource estimate, if the model
    /// produces one (stub models in tests may not).
    pub hardware: Option<InferenceReport>,
}

impl InferenceResult {
    /// Builds a minimal result from logits alone (prediction = argmax, no
    /// traces, no hardware estimate). Intended for stub models in tests and
    /// examples.
    pub fn from_logits(logits: Vec<f32>) -> Self {
        let prediction = argmax(&logits);
        InferenceResult {
            logits,
            prediction,
            traces: Vec::new(),
            timesteps: 0,
            hardware: None,
        }
    }
}

/// Server-side completion hook: called by the batch workers with every
/// successful [`InferenceResult`] *before* the waiter is released. The
/// registry hangs its per-model drift tracker here so spike-rate
/// distributions are folded on the serving path regardless of whether the
/// client ever looks at the response.
///
/// The hook runs on worker threads outside any core lock; it must be cheap
/// (it is on the completion hot path) and must not call back into the core.
pub type ResultObserver = Arc<dyn Fn(&InferenceResult) + Send + Sync>;

/// Debug-transparent holder for the optional observer (`dyn Fn` has no
/// `Debug`).
struct ObserverCell(Option<ResultObserver>);

impl std::fmt::Debug for ObserverCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() {
            "ObserverCell(Some(..))"
        } else {
            "ObserverCell(None)"
        })
    }
}

/// The per-worker execution handle: owns whatever mutable state one worker
/// needs (the engine-backed runner owns a `Session`) and runs coalesced
/// batches.
pub trait ModelRunner: Send {
    /// Runs one coalesced batch and returns one result per request, in
    /// request order. Implementations must attribute failures per request
    /// (a malformed request must not fail its batch neighbours) and must be
    /// batching-invariant: request `i`'s result depends only on
    /// `(requests[i].image, requests[i].seed)`.
    fn run_batch(
        &mut self,
        requests: Vec<InferenceRequest>,
    ) -> Vec<Result<InferenceResult, SnnError>>;
}

/// A servable model: cheap to share across worker threads, vending one
/// [`ModelRunner`] per worker.
pub trait ServeModel: Send + Sync + 'static {
    /// The per-worker runner type.
    type Runner: ModelRunner + 'static;

    /// Builds one worker's runner (called once per worker thread at
    /// startup).
    fn runner(&self) -> Self::Runner;
}

/// Configuration of [`ServeCore`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Largest number of queued requests coalesced into one model batch
    /// (default 8).
    pub max_batch: usize,
    /// Latency budget of the batcher when a worker finds a backlog (requests
    /// already queued when it asks for work): once the first request of the
    /// batch has been picked up, the batch is flushed after at most this
    /// long even if it is not full (default 2 ms). A worker that was idle
    /// runs the first arrival at once and never waits out this budget.
    pub max_delay: Duration,
    /// Hard bound on the request queue (default 128). The queue can never
    /// hold more than this many requests.
    pub queue_capacity: usize,
    /// Load-shedding threshold: submissions are rejected with
    /// [`ServeError::Overloaded`] once the queue depth reaches this mark
    /// (default: `queue_capacity`). Must be `1..=queue_capacity`.
    pub high_water: Option<usize>,
    /// Number of batch worker threads (default 1 — the engine-backed runner
    /// already fans a batch out over the engine's own worker threads).
    /// Resolved through the shared `snn_core::resolve_threads` clamp rule.
    pub workers: Option<usize>,
    /// Deadline budget applied to requests that do not carry their own
    /// (default: `None` — no deadline). See
    /// [`InferenceRequest::with_deadline`] for the semantics.
    pub default_timeout: Option<Duration>,
    /// Base delay before the supervisor respawns a dead batch worker
    /// (default 10 ms). Consecutive deaths without progress double the
    /// delay up to [`ServeConfig::restart_backoff_cap`]; a completed batch
    /// resets it.
    pub restart_backoff: Duration,
    /// Upper bound of the restart backoff (default 1 s).
    pub restart_backoff_cap: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 8,
            max_delay: Duration::from_millis(2),
            queue_capacity: 128,
            high_water: None,
            workers: Some(1),
            default_timeout: None,
            restart_backoff: Duration::from_millis(10),
            restart_backoff_cap: Duration::from_secs(1),
        }
    }
}

impl ServeConfig {
    /// Validates the configuration, resolving defaults.
    fn validated(&self) -> Result<(usize, usize), ServeError> {
        if self.max_batch == 0 {
            return Err(ServeError::Model(SnnError::config(
                "max_batch",
                "dynamic batches must hold at least one request",
            )));
        }
        if self.queue_capacity == 0 {
            return Err(ServeError::Model(SnnError::config(
                "queue_capacity",
                "the request queue must hold at least one request",
            )));
        }
        let high_water = self.high_water.unwrap_or(self.queue_capacity);
        if high_water == 0 || high_water > self.queue_capacity {
            return Err(ServeError::Model(SnnError::config(
                "high_water",
                format!(
                    "the shedding threshold must be in 1..={} (the queue capacity), got {high_water}",
                    self.queue_capacity
                ),
            )));
        }
        if self.restart_backoff_cap < self.restart_backoff {
            return Err(ServeError::Model(SnnError::config(
                "restart_backoff_cap",
                "the restart backoff cap must be at least the base backoff",
            )));
        }
        // `workers: Some(n)` goes through the shared thread-count clamp rule
        // (`snn_core::resolve_threads`); `None` means one worker, NOT the
        // machine parallelism — the engine-backed runner parallelises inside
        // the batch already, and stacking both oversubscribes.
        let workers = match self.workers {
            Some(n) => snn_core::resolve_threads(Some(n)),
            None => 1,
        };
        Ok((high_water, workers))
    }
}

/// A completed request as seen by the submitter: the model result plus the
/// serving-side timing of this request's journey through the queue and
/// batcher.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedResponse {
    /// The model's result.
    pub result: InferenceResult,
    /// Microseconds spent queued before a worker picked the request up.
    pub queued_us: u64,
    /// Microseconds the model spent on the coalesced batch containing this
    /// request.
    pub batch_us: u64,
    /// Size of the coalesced batch this request ran in.
    pub batch_size: usize,
}

/// One-shot completion slot shared by a queued job and its
/// [`ResponseHandle`].
#[derive(Debug)]
struct ResponseSlot {
    state: Mutex<Option<Result<ServedResponse, ServeError>>>,
    done: Condvar,
}

impl ResponseSlot {
    fn new() -> Self {
        ResponseSlot {
            state: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    fn fill(&self, value: Result<ServedResponse, ServeError>) {
        let mut state = self.state.lock().expect("response slot poisoned");
        if state.is_none() {
            *state = Some(value);
            self.done.notify_all();
        }
    }
}

/// Handle on a submitted request; blocks on [`ResponseHandle::wait`] until a
/// worker completes it.
#[derive(Debug)]
pub struct ResponseHandle {
    slot: Arc<ResponseSlot>,
}

impl ResponseHandle {
    /// Blocks until the request completes and returns its response.
    pub fn wait(self) -> Result<ServedResponse, ServeError> {
        let mut state = self.slot.state.lock().expect("response slot poisoned");
        loop {
            if let Some(value) = state.take() {
                return value;
            }
            state = self.slot.done.wait(state).expect("response slot poisoned");
        }
    }

    /// Like [`ResponseHandle::wait`] with a timeout; returns `Err(self)` so
    /// the caller can keep waiting if the request has not completed yet.
    pub fn wait_timeout(
        self,
        timeout: Duration,
    ) -> Result<Result<ServedResponse, ServeError>, Self> {
        let deadline = Instant::now() + timeout;
        let mut state = self.slot.state.lock().expect("response slot poisoned");
        loop {
            if let Some(value) = state.take() {
                return Ok(value);
            }
            let now = Instant::now();
            if now >= deadline {
                drop(state);
                return Err(self);
            }
            let (next, _) = self
                .slot
                .done
                .wait_timeout(state, deadline - now)
                .expect("response slot poisoned");
            state = next;
        }
    }
}

/// A queued unit of work: the request plus its completion slot. If an armed
/// ticket is dropped without being completed (worker panic, core teardown),
/// the waiter is released with [`ServeError::ShuttingDown`] instead of
/// hanging.
#[derive(Debug)]
struct Ticket {
    slot: Arc<ResponseSlot>,
    enqueued: Instant,
    /// Absolute expiry computed at submit time from the request's deadline
    /// budget (or the configured default). Workers drop expired tickets at
    /// dequeue, before spending inference on them.
    deadline: Option<Instant>,
    armed: bool,
}

impl Ticket {
    fn new(slot: Arc<ResponseSlot>, deadline: Option<Instant>) -> Self {
        Ticket {
            slot,
            enqueued: Instant::now(),
            deadline,
            armed: true,
        }
    }

    fn complete(mut self, value: Result<ServedResponse, ServeError>) {
        self.slot.fill(value);
        self.armed = false;
    }

    /// Defuses the drop-guard for a ticket that was never accepted into the
    /// queue (its handle is never returned, so nobody is waiting).
    fn disarm(mut self) {
        self.armed = false;
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        if self.armed {
            self.slot.fill(Err(ServeError::ShuttingDown));
        }
    }
}

#[derive(Debug)]
struct Job {
    request: InferenceRequest,
    ticket: Ticket,
}

/// Aggregate counters and latency quantiles of a [`ServeCore`], snapshotted
/// by [`ServeCore::stats`]. Latencies are end-to-end (submit → completion)
/// in microseconds, tracked by the `snn-core` [`LogHistogram`] (relative
/// quantile error ≤ 2⁻⁵).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServeStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests shed with [`ServeError::Overloaded`].
    pub rejected: u64,
    /// Requests pre-rejected at submit with
    /// [`ServeError::DeadlineUnmeetable`] (the queue-wait estimate already
    /// exceeded their deadline).
    pub deadline_rejected: u64,
    /// Requests dropped at dequeue with [`ServeError::DeadlineExceeded`]
    /// (they expired while queued; no inference was spent on them).
    pub deadline_expired: u64,
    /// Requests that reached the model and failed.
    pub model_errors: u64,
    /// Model panics contained by a batch worker (each answers its whole
    /// batch with [`ServeError::ModelPanicked`] and costs one worker
    /// restart).
    pub model_panics: u64,
    /// Dead batch workers respawned by the supervisor. A healthy core stays
    /// at 0; a rising count is the failure-observability signal that the
    /// model is panicking or workers are dying.
    pub worker_restarts: u64,
    /// Coalesced batches executed.
    pub batches: u64,
    /// Largest coalesced batch.
    pub peak_batch: usize,
    /// Mean coalesced batch size.
    pub mean_batch: f64,
    /// Current queue depth.
    pub queue_depth: usize,
    /// Largest queue depth ever observed (never exceeds the configured
    /// capacity, by construction).
    pub peak_queue_depth: usize,
    /// Median end-to-end latency in microseconds.
    pub latency_p50_us: u64,
    /// 99th-percentile end-to-end latency in microseconds.
    pub latency_p99_us: u64,
    /// Maximum end-to-end latency in microseconds.
    pub latency_max_us: u64,
    /// Mean end-to-end latency in microseconds.
    pub latency_mean_us: f64,
    /// Median queue wait in microseconds.
    pub queue_p50_us: u64,
    /// 99th-percentile queue wait in microseconds.
    pub queue_p99_us: u64,
    /// Median per-request model service time in microseconds (a batch's
    /// model time divided by its size); admission control multiplies this
    /// by the queue depth to estimate a new arrival's queue wait.
    pub service_p50_us: u64,
}

#[derive(Debug)]
struct StatsState {
    submitted: u64,
    completed: u64,
    rejected: u64,
    deadline_rejected: u64,
    deadline_expired: u64,
    model_errors: u64,
    model_panics: u64,
    worker_restarts: u64,
    batches: u64,
    peak_batch: usize,
    coalesced: u64,
    latency: LogHistogram,
    queue_wait: LogHistogram,
    /// Per-request share of model batch time; the admission-control
    /// queue-wait estimator reads its median.
    service: LogHistogram,
}

impl StatsState {
    fn new() -> Self {
        StatsState {
            submitted: 0,
            completed: 0,
            rejected: 0,
            deadline_rejected: 0,
            deadline_expired: 0,
            model_errors: 0,
            model_panics: 0,
            worker_restarts: 0,
            batches: 0,
            peak_batch: 0,
            coalesced: 0,
            latency: LogHistogram::new(),
            queue_wait: LogHistogram::new(),
            service: LogHistogram::new(),
        }
    }
}

/// Supervisor signalling: workers report their slot here when they exit
/// (normally or by panic), and [`ServeCore::shutdown`] flags `closing`.
#[derive(Debug, Default)]
struct SupervisionState {
    dead: Vec<usize>,
    closing: bool,
}

#[derive(Debug)]
struct CoreShared {
    queue: BoundedQueue<Job>,
    high_water: usize,
    max_batch: usize,
    max_delay: Duration,
    default_timeout: Option<Duration>,
    workers: usize,
    restart_backoff: Duration,
    restart_backoff_cap: Duration,
    stats: Mutex<StatsState>,
    supervision: Mutex<SupervisionState>,
    supervisor_wake: Condvar,
    observer: ObserverCell,
    /// Set once by the supervisor when it declares the model wedged (see
    /// [`WEDGE_LIMIT`]); never cleared. The registry folds this into the
    /// per-model health state.
    wedged: std::sync::atomic::AtomicBool,
}

/// Admission control only trusts the service-time estimate once this many
/// requests have been measured; before that, every deadline is assumed
/// meetable (the queue-wait shedding at dequeue still protects the model).
const ADMISSION_WARMUP: u64 = 16;

/// Consecutive no-progress worker deaths after which the supervisor
/// declares the model wedged (its runner cannot even be constructed),
/// closes the queue and fails the backlog with typed errors instead of
/// respawning forever while waiters hang.
const WEDGE_LIMIT: u32 = 8;

/// The dynamic-batching serving core. Generic over the [`ServeModel`] it
/// serves; the `snn` facade implements the trait for its `Engine`.
///
/// See the [module docs](self) for the ownership diagram and the
/// determinism contract.
///
/// # Fault tolerance
///
/// Each worker runs the model under `catch_unwind`: a panicking model
/// answers exactly the requests of the panicking batch with the typed
/// [`ServeError::ModelPanicked`] (never a hang, never a poisoned core) and
/// the worker then exits, conservatively discarding its possibly-poisoned
/// runner. A supervisor thread respawns dead workers with capped
/// exponential backoff and exposes the restart count in
/// [`ServeStats::worker_restarts`]. Requests whose deadline passed while
/// they were queued are dropped at dequeue — before any inference is spent
/// on them — with [`ServeError::DeadlineExceeded`], and admission control
/// pre-rejects submissions whose deadline the current queue-wait estimate
/// already exceeds.
#[derive(Debug)]
pub struct ServeCore<M: ServeModel> {
    shared: Arc<CoreShared>,
    model: Arc<M>,
    /// Taken by the first [`ServeCore::shutdown`] caller; `shutdown_done`
    /// lets concurrent callers wait for that first call to finish.
    supervisor: Mutex<Option<JoinHandle<()>>>,
    shutdown_done: (Mutex<bool>, Condvar),
}

impl<M: ServeModel> ServeCore<M> {
    /// Starts the core: validates the configuration and launches the
    /// supervisor, which spawns the worker threads (each owning one
    /// [`ModelRunner`]) and respawns them if they die.
    ///
    /// # Errors
    ///
    /// Returns a config error for a zero `max_batch`/`queue_capacity`, an
    /// out-of-range `high_water` or a backoff cap below the base backoff.
    pub fn start(model: M, config: ServeConfig) -> Result<Self, ServeError> {
        Self::start_with_observer(model, config, None)
    }

    /// Like [`ServeCore::start`], additionally installing a
    /// [`ResultObserver`] that the workers call with every successful
    /// result. The registry uses this to feed its per-model drift tracker.
    ///
    /// # Errors
    ///
    /// Same as [`ServeCore::start`].
    pub fn start_with_observer(
        model: M,
        config: ServeConfig,
        observer: Option<ResultObserver>,
    ) -> Result<Self, ServeError> {
        let (high_water, workers) = config.validated()?;
        let shared = Arc::new(CoreShared {
            queue: BoundedQueue::new(config.queue_capacity),
            high_water,
            max_batch: config.max_batch,
            max_delay: config.max_delay,
            default_timeout: config.default_timeout,
            workers,
            restart_backoff: config.restart_backoff,
            restart_backoff_cap: config.restart_backoff_cap,
            stats: Mutex::new(StatsState::new()),
            supervision: Mutex::new(SupervisionState::default()),
            supervisor_wake: Condvar::new(),
            observer: ObserverCell(observer),
            wedged: std::sync::atomic::AtomicBool::new(false),
        });
        let model = Arc::new(model);
        let supervisor = {
            let shared = Arc::clone(&shared);
            let model = Arc::clone(&model);
            std::thread::Builder::new()
                .name("snn-serve-supervisor".to_string())
                .spawn(move || supervisor_loop(&shared, &model, workers))
                .expect("failed to spawn serve supervisor thread")
        };
        Ok(ServeCore {
            shared,
            model,
            supervisor: Mutex::new(Some(supervisor)),
            shutdown_done: (Mutex::new(false), Condvar::new()),
        })
    }

    /// Submits a request. **Never blocks**: the request is either queued
    /// (returning a [`ResponseHandle`] to wait on) or refused immediately.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] once the queue depth reaches the
    /// high-water mark, [`ServeError::DeadlineUnmeetable`] when the request
    /// carries a deadline (or [`ServeConfig::default_timeout`] applies one)
    /// that the current queue-wait estimate — queue depth × the median
    /// per-request service time from the core's streaming
    /// [`LogHistogram`] — already exceeds, and
    /// [`ServeError::ShuttingDown`] after [`ServeCore::shutdown`].
    pub fn submit(&self, request: InferenceRequest) -> Result<ResponseHandle, ServeError> {
        let budget = request.deadline.or(self.shared.default_timeout);
        if let Some(budget) = budget {
            self.check_admission(budget)?;
        }
        let slot = Arc::new(ResponseSlot::new());
        let deadline = budget.map(|b| Instant::now() + b);
        let job = Job {
            request,
            ticket: Ticket::new(Arc::clone(&slot), deadline),
        };
        match self.shared.queue.try_push(job, self.shared.high_water) {
            Ok(_) => {
                self.shared.stats.lock().expect("stats poisoned").submitted += 1;
                Ok(ResponseHandle { slot })
            }
            Err((job, refusal)) => {
                // The refused ticket must not trip its drop-guard into a
                // spurious ShuttingDown fill on the handle we never return.
                job.ticket.disarm();
                match refusal {
                    PushRefusal::Full { depth } => {
                        self.shared.stats.lock().expect("stats poisoned").rejected += 1;
                        Err(ServeError::Overloaded {
                            depth,
                            limit: self.shared.high_water,
                        })
                    }
                    PushRefusal::Closed => Err(ServeError::ShuttingDown),
                }
            }
        }
    }

    /// Deadline admission control: estimate the queue wait a new arrival
    /// would see (depth × median per-request service time ÷ workers, from
    /// the streaming service-time histogram) and pre-reject the request if
    /// its deadline budget is already unmeetable. Queueing it anyway would
    /// waste queue space and, without the dequeue-time check, model compute
    /// on a result the caller cannot use.
    fn check_admission(&self, budget: Duration) -> Result<(), ServeError> {
        let depth = self.shared.queue.depth() as u64;
        if depth == 0 {
            return Ok(());
        }
        let mut stats = self.shared.stats.lock().expect("stats poisoned");
        if stats.service.count() < ADMISSION_WARMUP {
            return Ok(());
        }
        let service_p50 = stats.service.quantile(0.5);
        let estimated_us = depth
            .saturating_mul(service_p50)
            .checked_div(self.shared.workers as u64)
            .unwrap_or(u64::MAX);
        let deadline_us = u64::try_from(budget.as_micros()).unwrap_or(u64::MAX);
        if estimated_us > deadline_us {
            stats.deadline_rejected += 1;
            return Err(ServeError::DeadlineUnmeetable {
                estimated_us,
                deadline_us,
            });
        }
        Ok(())
    }

    /// Convenience: [`ServeCore::submit`] then [`ResponseHandle::wait`].
    ///
    /// # Errors
    ///
    /// Same as [`ServeCore::submit`], plus any model error.
    pub fn infer(&self, request: InferenceRequest) -> Result<ServedResponse, ServeError> {
        self.submit(request)?.wait()
    }

    /// Snapshot of the serving statistics.
    pub fn stats(&self) -> ServeStats {
        let stats = self.shared.stats.lock().expect("stats poisoned");
        ServeStats {
            submitted: stats.submitted,
            completed: stats.completed,
            rejected: stats.rejected,
            deadline_rejected: stats.deadline_rejected,
            deadline_expired: stats.deadline_expired,
            model_errors: stats.model_errors,
            model_panics: stats.model_panics,
            worker_restarts: stats.worker_restarts,
            batches: stats.batches,
            peak_batch: stats.peak_batch,
            mean_batch: if stats.batches == 0 {
                0.0
            } else {
                stats.coalesced as f64 / stats.batches as f64
            },
            queue_depth: self.shared.queue.depth(),
            peak_queue_depth: self.shared.queue.peak_depth(),
            latency_p50_us: stats.latency.quantile(0.5),
            latency_p99_us: stats.latency.quantile(0.99),
            latency_max_us: stats.latency.max(),
            latency_mean_us: stats.latency.mean(),
            queue_p50_us: stats.queue_wait.quantile(0.5),
            queue_p99_us: stats.queue_wait.quantile(0.99),
            service_p50_us: stats.service.quantile(0.5),
        }
    }

    /// The served model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Whether the supervisor has declared the model wedged: workers died
    /// `WEDGE_LIMIT` (8) consecutive times without a single batch of
    /// progress, the queue was closed and the backlog failed with typed
    /// errors. Monotonic — a wedged core never recovers (replace the model
    /// via the registry instead).
    pub fn is_wedged(&self) -> bool {
        self.shared
            .wedged
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Stops accepting requests, drains everything already queued (in-flight
    /// requests complete; their waiters are answered), and joins the
    /// supervisor and its workers.
    ///
    /// Idempotent and race-safe: a second call — sequential or concurrent —
    /// is a no-op that merely waits for the first call to finish, so
    /// transports and drop-guards may all call it without coordinating.
    pub fn shutdown(&self) {
        self.shared.queue.close();
        {
            let mut sup = self
                .shared
                .supervision
                .lock()
                .expect("supervision poisoned");
            sup.closing = true;
        }
        self.shared.supervisor_wake.notify_all();
        // Exactly one caller takes the handle and joins; everyone else waits
        // for that caller to flag completion.
        let handle = self
            .supervisor
            .lock()
            .expect("supervisor handle poisoned")
            .take();
        let (done_flag, done_cv) = &self.shutdown_done;
        match handle {
            Some(handle) => {
                // The supervisor joins the workers itself; it never panics.
                let _ = handle.join();
                let mut done = done_flag.lock().expect("shutdown flag poisoned");
                *done = true;
                done_cv.notify_all();
            }
            None => {
                let mut done = done_flag.lock().expect("shutdown flag poisoned");
                while !*done {
                    done = done_cv.wait(done).expect("shutdown flag poisoned");
                }
            }
        }
    }
}

impl<M: ServeModel> Drop for ServeCore<M> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Notifies the supervisor of this worker's death when the worker exits —
/// on the normal return path and on an unwinding panic alike, so a dead
/// worker can never go unnoticed.
struct DeathGuard<'a> {
    shared: &'a CoreShared,
    slot: usize,
}

impl Drop for DeathGuard<'_> {
    fn drop(&mut self) {
        let mut sup = self
            .shared
            .supervision
            .lock()
            .expect("supervision poisoned");
        sup.dead.push(self.slot);
        drop(sup);
        self.shared.supervisor_wake.notify_all();
    }
}

/// Extracts a human-readable message from a `catch_unwind` payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "model panicked with a non-string payload".to_string()
    }
}

/// One worker: build the runner, then drain coalesced batches until the
/// queue closes and empties.
///
/// Fault containment: the runner is constructed and every batch is executed
/// under `catch_unwind`. A panicking batch answers all of its tickets with
/// [`ServeError::ModelPanicked`] and the worker then exits — the runner may
/// hold arbitrary poisoned state after an unwind, so it is discarded and the
/// supervisor spawns a replacement with a fresh one. Tickets whose deadline
/// passed while queued are dropped before the model sees them.
fn worker_loop<M: ServeModel>(shared: &CoreShared, model: &M, slot: usize) {
    let _death = DeathGuard { shared, slot };
    let Ok(mut runner) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| model.runner()))
    else {
        // Construction panicked: die quietly; the supervisor backs off,
        // retries, and declares the model wedged if this never succeeds.
        return;
    };
    let mut jobs: Vec<Job> = Vec::with_capacity(shared.max_batch);
    let mut requests: Vec<InferenceRequest> = Vec::with_capacity(shared.max_batch);
    let mut tickets: Vec<Ticket> = Vec::with_capacity(shared.max_batch);
    // (end-to-end latency, queue wait) per answered ticket, buffered so the
    // stats lock is taken once per batch, after the waiters are released.
    let mut timings: Vec<(u64, u64)> = Vec::with_capacity(shared.max_batch);
    while shared
        .queue
        .pop_batch(&mut jobs, shared.max_batch, shared.max_delay)
    {
        requests.clear();
        tickets.clear();
        // Deadline shedding at dequeue: expired requests get their typed
        // error now and never reach the model — the inference they would
        // have cost goes to requests that can still make their deadlines.
        let now = Instant::now();
        let is_expired = |job: &Job| job.ticket.deadline.is_some_and(|d| now >= d);
        // Count the expiries before answering any of them: a caller that
        // observed its response must find it counted.
        let expired = jobs.iter().filter(|job| is_expired(job)).count() as u64;
        if expired > 0 {
            let mut stats = shared.stats.lock().expect("stats poisoned");
            stats.deadline_expired += expired;
        }
        for job in jobs.drain(..) {
            if is_expired(&job) {
                let queued_us = elapsed_us(job.ticket.enqueued);
                job.ticket
                    .complete(Err(ServeError::DeadlineExceeded { queued_us }));
            } else {
                requests.push(job.request);
                tickets.push(job.ticket);
            }
        }
        let batch_size = requests.len();
        if batch_size == 0 {
            continue;
        }
        let started = Instant::now();
        let batch = std::mem::take(&mut requests);
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| runner.run_batch(batch)));
        let batch_us = elapsed_us(started);
        let mut results = match outcome {
            Ok(results) => results,
            Err(payload) => {
                // The panic is contained here: exactly this batch's waiters
                // observe it, typed; then this worker dies and is respawned
                // by the supervisor with a fresh (unpoisoned) runner.
                let message = panic_message(payload.as_ref());
                let mut stats = shared.stats.lock().expect("stats poisoned");
                stats.model_panics += 1;
                drop(stats);
                for ticket in tickets.drain(..) {
                    ticket.complete(Err(ServeError::ModelPanicked {
                        message: message.clone(),
                    }));
                }
                return;
            }
        };
        // A conforming runner answers every request; if one under-delivers,
        // the unanswered tail gets a model error rather than a hang.
        while results.len() < batch_size {
            results.push(Err(SnnError::config(
                "runner",
                "model runner returned fewer results than requests",
            )));
        }
        timings.clear();
        let mut completed = 0u64;
        let mut model_errors = 0u64;
        let outcomes: Vec<_> = tickets.drain(..).zip(results).collect();
        for (ticket, result) in &outcomes {
            timings.push((
                elapsed_us(ticket.enqueued),
                duration_us(started.saturating_duration_since(ticket.enqueued)),
            ));
            match result {
                Ok(_) => completed += 1,
                Err(_) => model_errors += 1,
            }
        }
        // Record statistics *before* releasing any waiter — a caller that
        // observed its response must find it counted — but take the lock
        // only this once per batch.
        {
            let mut stats = shared.stats.lock().expect("stats poisoned");
            stats.batches += 1;
            stats.coalesced += batch_size as u64;
            stats.peak_batch = stats.peak_batch.max(batch_size);
            // Per-request service share feeding the admission-control
            // estimator.
            stats.service.record((batch_us / batch_size as u64).max(1));
            stats.completed += completed;
            stats.model_errors += model_errors;
            for &(latency_us, queued_us) in &timings {
                stats.latency.record(latency_us);
                stats.queue_wait.record(queued_us);
            }
        }
        // Answer the waiters (and run the observer) outside the stats lock:
        // the observer is arbitrary registry code (the drift tracker) and
        // must never run under a core lock.
        for (ticket, result) in outcomes {
            let queued_us = duration_us(started.saturating_duration_since(ticket.enqueued));
            match result {
                Ok(result) => {
                    if let Some(observer) = &shared.observer.0 {
                        observer(&result);
                    }
                    ticket.complete(Ok(ServedResponse {
                        result,
                        queued_us,
                        batch_us,
                        batch_size,
                    }));
                }
                Err(e) => {
                    ticket.complete(Err(ServeError::Model(e)));
                }
            }
        }
    }
}

/// The supervisor: spawns the initial worker pool, then loops joining dead
/// workers and respawning them with capped exponential backoff until the
/// queue is shut down (closed and drained) and every worker has exited.
///
/// Two exits are distinguished by [`BoundedQueue::is_shutdown`] (monotonic):
/// a worker that died while the queue was still live is abnormal and is
/// respawned (counted in [`ServeStats::worker_restarts`]); workers exiting
/// after shutdown are normal and simply joined. If workers die
/// `WEDGE_LIMIT` (8) consecutive times without a single batch of progress —
/// the model cannot even construct a runner — the supervisor declares the
/// model wedged: it closes the queue and fails the backlog with typed
/// [`ServeError::ModelPanicked`] responses instead of respawning forever
/// while waiters hang.
fn supervisor_loop<M: ServeModel>(shared: &Arc<CoreShared>, model: &Arc<M>, workers: usize) {
    let spawn = |slot: usize| {
        let shared = Arc::clone(shared);
        let model = Arc::clone(model);
        std::thread::Builder::new()
            .name(format!("snn-serve-worker-{slot}"))
            .spawn(move || worker_loop(&shared, &*model, slot))
            .expect("failed to spawn serve worker thread")
    };
    let mut handles: Vec<Option<JoinHandle<()>>> = (0..workers).map(|w| Some(spawn(w))).collect();
    let mut alive = workers;
    let mut backoff = shared.restart_backoff;
    let mut no_progress_deaths = 0u32;
    let mut last_batches = 0u64;
    loop {
        let dead: Vec<usize> = {
            let mut sup = shared.supervision.lock().expect("supervision poisoned");
            while sup.dead.is_empty() && !(sup.closing && alive == 0) {
                sup = shared
                    .supervisor_wake
                    .wait(sup)
                    .expect("supervision poisoned");
            }
            std::mem::take(&mut sup.dead)
        };
        for slot in dead {
            if let Some(handle) = handles[slot].take() {
                let _ = handle.join();
                alive -= 1;
            }
            if shared.queue.is_shutdown() {
                // Normal drain-complete exit; nothing to respawn.
                continue;
            }
            // Abnormal death with work (potentially) still flowing: respawn.
            let batches = {
                let mut stats = shared.stats.lock().expect("stats poisoned");
                stats.worker_restarts += 1;
                stats.batches
            };
            if batches > last_batches {
                // Progress since the last death: the model works, this was
                // an isolated fault. Restart eagerly again.
                last_batches = batches;
                backoff = shared.restart_backoff;
                no_progress_deaths = 0;
            } else {
                no_progress_deaths += 1;
                if no_progress_deaths >= WEDGE_LIMIT {
                    // Wedged: no worker has ever made progress. Stop the
                    // respawn loop and fail the backlog instead of hanging
                    // its waiters forever.
                    shared
                        .wedged
                        .store(true, std::sync::atomic::Ordering::Relaxed);
                    shared.queue.close();
                    fail_backlog(shared);
                    continue;
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(shared.restart_backoff_cap);
            }
            handles[slot] = Some(spawn(slot));
            alive += 1;
        }
        let sup = shared.supervision.lock().expect("supervision poisoned");
        if sup.closing && alive == 0 && sup.dead.is_empty() {
            return;
        }
    }
}

/// Drains whatever is still queued on a wedged core and answers every
/// ticket with a typed error, so no waiter hangs on a model that will never
/// run again.
fn fail_backlog(shared: &CoreShared) {
    let mut jobs: Vec<Job> = Vec::new();
    // The queue is closed, so pop_batch drains without waiting and returns
    // false once empty.
    while shared
        .queue
        .pop_batch(&mut jobs, usize::MAX, Duration::ZERO)
    {
        for job in jobs.drain(..) {
            job.ticket.complete(Err(ServeError::ModelPanicked {
                message: "model wedged: workers died repeatedly without progress".to_string(),
            }));
        }
    }
}

fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

fn elapsed_us(since: Instant) -> u64 {
    duration_us(since.elapsed())
}
