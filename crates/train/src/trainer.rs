//! Training and evaluation loops.
//!
//! [`Trainer::fit`] runs mini-batch surrogate-gradient training (optionally
//! quantization-aware) on a [`Dataset`]; [`evaluate`] measures accuracy and
//! spike statistics of a trained network on a dataset split, which is what
//! the Fig. 1 / Table II experiments consume.
//!
//! # Crash safety and resumability
//!
//! Training is supervised and resumable:
//!
//! * **Checkpoints** — with [`TrainConfig::checkpoint_path`] set, the
//!   trainer atomically saves a [`TrainCheckpoint`] (weights, full optimizer
//!   state, schedule position, epoch/batch cursor, progress report) every
//!   [`TrainConfig::checkpoint_every`] optimizer steps and at graceful stop.
//!   [`Trainer::resume`] continues a run such that the final weights are
//!   **bitwise identical** to the uninterrupted run, at any thread count.
//! * **Worker supervision** — each sample's gradient computation runs under
//!   `catch_unwind`; a panicking, non-finite or invalid-data sample is
//!   *quarantined* (typed [`SampleFault`] in [`TrainReport::faults`],
//!   excluded from the batch fold deterministically by sample index) and the
//!   epoch continues. [`TrainConfig::fault_budget`] bounds the tolerated
//!   quarantine count; exceeding it aborts with
//!   [`TrainError::FaultBudgetExceeded`] naming the last-good checkpoint.
//! * **Fail fast on non-finite** — with [`TrainConfig::quarantine`] off, a
//!   NaN/Inf batch loss or gradient norm aborts with
//!   [`TrainError::NonFinite`] *before* the optimizer step, so a poisoned
//!   update never reaches the weights.
//! * **Graceful interruption** — a [`StopHandle`] is checked at every batch
//!   boundary; [`StopHandle::stop`] checkpoints and returns a partial report
//!   (`completed == false`).

use crate::bptt::{Bptt, BpttScratch, EffectiveLayers, NetworkGradients, SampleResult};
use crate::checkpoint::{DataFingerprint, TrainCheckpoint, TrainCursor};
use crate::error::TrainError;
use crate::fault::{FaultReason, SampleFault, TrainFault, TrainFaultPlan};
use crate::optim::{Adam, Optimizer, OptimizerKind, OptimizerState, Sgd};
use crate::schedule::ScheduleKind;
use crate::surrogate::SurrogateKind;
use serde::{Deserialize, Serialize};
use snn_core::encoding::Encoder;
use snn_core::error::SnnError;
use snn_core::network::{total_output_spikes, Layer, RunState, SnnNetwork};
use snn_core::quant::Precision;
use snn_core::tensor::Tensor;
use snn_data::{Dataset, Sample, Split};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Hyper-parameters of a training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training split.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Base learning rate: constant, or the rate [`TrainConfig::schedule`]
    /// scales at each epoch start.
    pub learning_rate: f32,
    /// Input encoder (coding scheme + timesteps).
    pub encoder: Encoder,
    /// Weight precision for QAT (`Fp32` trains in full precision).
    pub precision: Precision,
    /// Surrogate gradient of the spike non-linearity.
    pub surrogate: SurrogateKind,
    /// Optional global-norm gradient clipping.
    pub grad_clip: Option<f32>,
    /// Limits the number of training samples per epoch (for fast runs).
    pub max_train_samples: Option<usize>,
    /// Base RNG seed (rate-coding noise, sample ordering).
    pub seed: u64,
    /// Number of worker threads for per-sample gradient computation.
    pub threads: usize,
    /// Which optimizer updates the weights.
    pub optimizer: OptimizerKind,
    /// Optional learning-rate schedule, applied to
    /// [`TrainConfig::learning_rate`] at each epoch start (`None` keeps the
    /// rate constant).
    pub schedule: Option<ScheduleKind>,
    /// Where to save training checkpoints (`None` disables checkpointing).
    pub checkpoint_path: Option<PathBuf>,
    /// Save a checkpoint every this many optimizer steps (0 saves only at
    /// graceful stop / completion). Requires [`TrainConfig::checkpoint_path`].
    pub checkpoint_every: usize,
    /// Maximum quarantined samples tolerated per run before the trainer
    /// aborts with [`TrainError::FaultBudgetExceeded`].
    pub fault_budget: usize,
    /// Whether samples producing a non-finite loss or gradient are
    /// quarantined (`true`, the default) or flow into the batch fold, where
    /// the non-finite fail-fast aborts the run typed (`false`).
    pub quarantine: bool,
}

impl TrainConfig {
    /// A quick configuration suitable for tests and examples: direct coding
    /// with 2 timesteps, small batches, a single epoch.
    pub fn quick() -> Self {
        TrainConfig {
            epochs: 1,
            batch_size: 8,
            learning_rate: 2e-3,
            encoder: Encoder::paper_direct(),
            precision: Precision::Fp32,
            surrogate: SurrogateKind::paper_default(),
            grad_clip: Some(5.0),
            max_train_samples: None,
            seed: 0,
            // The same resolution rule as inference (`EngineBuilder`):
            // `SNN_THREADS` wins over the machine's available parallelism.
            threads: snn_core::resolve_threads(None),
            optimizer: OptimizerKind::Adam,
            schedule: None,
            checkpoint_path: None,
            checkpoint_every: 0,
            fault_budget: 16,
            quarantine: true,
        }
    }

    /// The quick configuration with QAT at the given precision.
    pub fn quick_qat(precision: Precision) -> Self {
        TrainConfig {
            precision,
            ..TrainConfig::quick()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::InvalidConfig`] naming the offending parameter:
    /// zero `batch_size` (which would never advance an epoch), zero
    /// `epochs`, zero `threads`, a zero `max_train_samples` (an epoch that
    /// trains on nothing), a non-positive or non-finite `learning_rate`, a
    /// non-positive or non-finite `grad_clip` (a negative clip would flip
    /// every gradient, zero would erase it and NaN would silently disable
    /// clipping), a step `schedule` whose `gamma` lies outside `(0, 1]` or a
    /// cosine one whose `min_lr` is non-finite or negative, or a
    /// `checkpoint_every` cadence without a `checkpoint_path`.
    pub fn validate(&self) -> Result<(), TrainError> {
        let err = |parameter: &str, message: &str| {
            Err(TrainError::InvalidConfig {
                parameter: parameter.to_string(),
                message: message.to_string(),
            })
        };
        if self.batch_size == 0 {
            return err(
                "batch_size",
                "must be at least 1 (a zero-sample batch would never advance the epoch)",
            );
        }
        if self.epochs == 0 {
            return err("epochs", "must be at least 1");
        }
        if self.threads == 0 {
            return err("threads", "must be at least 1");
        }
        if self.max_train_samples == Some(0) {
            return err(
                "max_train_samples",
                "must be at least 1 (None trains on the whole split)",
            );
        }
        let positive = |x: f32| x.is_finite() && x > 0.0;
        if !positive(self.learning_rate) {
            return err("learning_rate", "must be finite and positive");
        }
        if self.grad_clip.is_some_and(|clip| !positive(clip)) {
            return err(
                "grad_clip",
                "must be finite and positive (None disables clipping)",
            );
        }
        if let Some(schedule) = self.schedule {
            let valid = match schedule {
                ScheduleKind::Step { gamma, .. } => gamma > 0.0 && gamma <= 1.0,
                ScheduleKind::Cosine { min_lr, .. } => min_lr.is_finite() && min_lr >= 0.0,
            };
            if !valid {
                return err(
                    "schedule",
                    "needs a step gamma in (0, 1] and a finite, non-negative cosine min_lr",
                );
            }
        }
        if self.checkpoint_every > 0 && self.checkpoint_path.is_none() {
            return err(
                "checkpoint_every",
                "periodic checkpointing requires checkpoint_path to be set",
            );
        }
        Ok(())
    }
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self::quick()
    }
}

/// Per-epoch training progress.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Training accuracy per epoch.
    pub epoch_accuracies: Vec<f64>,
    /// Mean spikes per sample per epoch (a live view of the sparsity the
    /// network settles into): the LIF layers' output spikes over all
    /// timesteps, as [`SampleResult::total_spikes`] counts them. The pooled
    /// maps that [`EvalReport::total_spikes`] also counts are left out.
    pub epoch_mean_spikes: Vec<f64>,
    /// Every quarantined sample of the run, identified by `(epoch, index)` —
    /// the list is identical across batch sizes and thread counts.
    pub faults: Vec<SampleFault>,
    /// `true` if the run finished all configured epochs; `false` if it was
    /// gracefully stopped early via a [`StopHandle`].
    pub completed: bool,
    /// The checkpoint describing this run's end state, when checkpointing is
    /// configured (on graceful stop: the resume point).
    pub checkpoint: Option<PathBuf>,
}

impl TrainReport {
    /// Final-epoch training accuracy (0.0 if no epoch ran).
    pub fn final_accuracy(&self) -> f64 {
        self.epoch_accuracies.last().copied().unwrap_or(0.0)
    }

    /// Final-epoch mean loss (0.0 if no epoch ran).
    pub fn final_loss(&self) -> f32 {
        self.epoch_losses.last().copied().unwrap_or(0.0)
    }
}

/// Evaluation result on a dataset split.
///
/// Its spike counts are inference totals: every layer's output spikes over
/// every timestep, the spike max-pooling layers' maps included, as
/// [`total_output_spikes`] sums a run's traces. Training's
/// [`SampleResult::total_spikes`] counts the LIF layers only.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EvalReport {
    /// Number of evaluated samples.
    pub samples: usize,
    /// Number of correctly classified samples.
    pub correct: usize,
    /// Output spikes over all samples, layers and timesteps.
    pub total_spikes: u64,
    /// Output spikes of each layer over all samples and timesteps,
    /// index-aligned with the network's layers.
    pub per_layer_spikes: Vec<u64>,
}

impl EvalReport {
    /// Top-1 accuracy in `[0, 1]` (0.0 when no sample was evaluated).
    pub fn accuracy(&self) -> f64 {
        self.correct as f64 / self.samples.max(1) as f64
    }

    /// Mean output spikes per sample (0.0 when no sample was evaluated).
    pub fn mean_spikes_per_sample(&self) -> f64 {
        self.total_spikes as f64 / self.samples.max(1) as f64
    }
}

/// A cloneable handle requesting graceful interruption of a training run.
///
/// The trainer checks it at every batch boundary; once triggered it saves a
/// checkpoint (if configured) and returns the partial [`TrainReport`] with
/// `completed == false`. [`StopHandle::stop_after_steps`] triggers
/// *deterministically* once the run's total optimizer-step counter reaches
/// the given value — the counter survives resume, which is what lets the
/// test harness interrupt a run at every single batch boundary and prove
/// bitwise-identical resume at each one.
#[derive(Debug, Clone)]
pub struct StopHandle {
    inner: Arc<StopState>,
}

#[derive(Debug)]
struct StopState {
    requested: AtomicBool,
    after_steps: AtomicU64,
}

impl StopHandle {
    /// A handle with no stop requested.
    pub fn new() -> Self {
        StopHandle {
            inner: Arc::new(StopState {
                requested: AtomicBool::new(false),
                after_steps: AtomicU64::new(u64::MAX),
            }),
        }
    }

    /// Requests a stop at the next batch boundary.
    pub fn stop(&self) {
        self.inner.requested.store(true, Ordering::SeqCst);
    }

    /// Requests a deterministic stop at the boundary where the run's total
    /// optimizer-step count reaches `steps` (0 stops before the first
    /// batch).
    pub fn stop_after_steps(&self, steps: u64) {
        self.inner.after_steps.store(steps, Ordering::SeqCst);
    }

    /// Whether an asynchronous [`StopHandle::stop`] was requested.
    pub fn is_stop_requested(&self) -> bool {
        self.inner.requested.load(Ordering::SeqCst)
    }

    fn should_stop(&self, steps_done: u64) -> bool {
        self.is_stop_requested() || steps_done >= self.inner.after_steps.load(Ordering::SeqCst)
    }
}

impl Default for StopHandle {
    fn default() -> Self {
        Self::new()
    }
}

/// The trainer's optimizer, dispatched from [`OptimizerKind`].
#[derive(Debug)]
enum AnyOptimizer {
    Sgd(Sgd),
    Adam(Adam),
}

impl AnyOptimizer {
    fn new(kind: OptimizerKind, lr: f32) -> Self {
        match kind {
            OptimizerKind::Adam => AnyOptimizer::Adam(Adam::new(lr)),
            OptimizerKind::Sgd { momentum } => AnyOptimizer::Sgd(Sgd::new(lr, momentum)),
        }
    }

    fn from_state(state: OptimizerState) -> Result<Self, SnnError> {
        Ok(match &state {
            OptimizerState::Sgd { .. } => AnyOptimizer::Sgd(Sgd::from_state(state)?),
            OptimizerState::Adam { .. } => AnyOptimizer::Adam(Adam::from_state(state)?),
        })
    }

    fn state(&self) -> OptimizerState {
        match self {
            AnyOptimizer::Sgd(o) => o.state(),
            AnyOptimizer::Adam(o) => o.state(),
        }
    }
}

impl Optimizer for AnyOptimizer {
    fn step(&mut self, key: &str, param: &mut Tensor, grad: &Tensor) -> Result<(), SnnError> {
        match self {
            AnyOptimizer::Sgd(o) => o.step(key, param, grad),
            AnyOptimizer::Adam(o) => o.step(key, param, grad),
        }
    }

    fn learning_rate(&self) -> f32 {
        match self {
            AnyOptimizer::Sgd(o) => o.learning_rate(),
            AnyOptimizer::Adam(o) => o.learning_rate(),
        }
    }

    fn set_learning_rate(&mut self, lr: f32) {
        match self {
            AnyOptimizer::Sgd(o) => o.set_learning_rate(lr),
            AnyOptimizer::Adam(o) => o.set_learning_rate(lr),
        }
    }
}

/// Mini-batch trainer: surrogate-gradient BPTT with a configurable
/// optimizer (+ optional QAT), per-sample worker supervision and resumable
/// checkpoints.
///
/// Per-sample gradient computation fans out over the batch through
/// [`snn_core::fan_out`], the ordered fan-out `Session::run_batch` also
/// uses: the calling thread and `threads − 1` scoped workers each claim the
/// next sample from a shared counter. Each worker slot owns a
/// **persistent** [`BpttScratch`] that lives in the trainer across batches
/// and epochs, so the backward pass stops allocating once the first batch
/// has warmed the buffers.
#[derive(Debug)]
pub struct Trainer {
    config: TrainConfig,
    bptt: Bptt,
    optimizer: AnyOptimizer,
    /// One long-lived backward scratch per worker slot; slot 0 belongs to
    /// the calling thread.
    scratches: Vec<BpttScratch>,
    /// Deterministic fault injection for chaos tests (off by default).
    fault_plan: Option<TrainFaultPlan>,
}

impl Trainer {
    /// Creates a trainer from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::InvalidConfig`] if the configuration fails
    /// [`TrainConfig::validate`].
    pub fn new(config: TrainConfig) -> Result<Self, TrainError> {
        config.validate()?;
        let bptt = Bptt::new(config.surrogate, config.precision);
        let optimizer = AnyOptimizer::new(config.optimizer, config.learning_rate);
        Ok(Trainer {
            config,
            bptt,
            optimizer,
            scratches: Vec::new(),
            fault_plan: None,
        })
    }

    /// Attaches a deterministic [`TrainFaultPlan`] (chaos testing): the plan
    /// injects worker panics, NaN gradients and corrupt samples as pure
    /// functions of `(plan seed, epoch, sample index)`.
    pub fn with_fault_plan(mut self, plan: TrainFaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// The training configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// The optimizer's current learning rate (after any schedule updates).
    pub fn learning_rate(&self) -> f32 {
        self.optimizer.learning_rate()
    }

    /// Trains `network` on the training split of `data`.
    ///
    /// # Example
    ///
    /// A one-epoch run on a tiny synthetic dataset (the kind the tests and
    /// benches use):
    ///
    /// ```
    /// use snn_core::network::{vgg9, Vgg9Config};
    /// use snn_data::{SyntheticConfig, SyntheticDataset};
    /// use snn_train::trainer::{TrainConfig, Trainer};
    ///
    /// # fn main() -> Result<(), snn_core::SnnError> {
    /// let mut net = vgg9(&Vgg9Config::cifar10_small())?;
    /// let data =
    ///     SyntheticDataset::generate(SyntheticConfig::cifar10_like().scaled_down(16, 8, 4));
    /// let mut cfg = TrainConfig::quick();
    /// cfg.max_train_samples = Some(4);
    /// cfg.batch_size = 2;
    /// cfg.threads = 1;
    /// let mut trainer = Trainer::new(cfg)?;
    /// let report = trainer.fit(&mut net, &data)?;
    /// assert_eq!(report.epoch_losses.len(), 1);
    /// assert!(report.final_loss().is_finite());
    /// assert!(report.completed);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Snn`] with an [`SnnError::InvalidConfig`] on
    /// `"train split"` when `data` holds no training samples. Propagates any
    /// shape/configuration error raised during the forward or backward
    /// passes, plus the typed training aborts ([`TrainError::NonFinite`],
    /// [`TrainError::FaultBudgetExceeded`]).
    pub fn fit(
        &mut self,
        network: &mut SnnNetwork,
        data: &dyn Dataset,
    ) -> Result<TrainReport, TrainError> {
        self.fit_with_stop(network, data, &StopHandle::new())
    }

    /// [`Trainer::fit`] with a [`StopHandle`] for graceful interruption.
    ///
    /// # Errors
    ///
    /// As [`Trainer::fit`].
    pub fn fit_with_stop(
        &mut self,
        network: &mut SnnNetwork,
        data: &dyn Dataset,
        stop: &StopHandle,
    ) -> Result<TrainReport, TrainError> {
        self.run_loop(
            network,
            data,
            TrainCursor::default(),
            TrainReport::default(),
            stop,
        )
    }

    /// Resumes a run from a [`TrainCheckpoint`] so that the final weights
    /// are bitwise identical to the uninterrupted run, at any thread count.
    ///
    /// The checkpoint's own configuration drives the continuation; `network`
    /// is overwritten with the checkpointed weights only after the
    /// checkpoint, its configuration and its optimizer state all pass
    /// validation, so a refused resume leaves `network` untouched.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::IncompatibleResume`] if the checkpoint does not
    /// match `network`/`data`, [`TrainError::InvalidConfig`] for an invalid
    /// checkpointed configuration, plus everything [`Trainer::fit`] can
    /// return.
    pub fn resume(
        checkpoint: TrainCheckpoint,
        network: &mut SnnNetwork,
        data: &dyn Dataset,
    ) -> Result<TrainReport, TrainError> {
        Self::resume_with_stop(checkpoint, network, data, &StopHandle::new())
    }

    /// [`Trainer::resume`] with a [`StopHandle`] for graceful interruption.
    ///
    /// # Errors
    ///
    /// As [`Trainer::resume`].
    pub fn resume_with_stop(
        checkpoint: TrainCheckpoint,
        network: &mut SnnNetwork,
        data: &dyn Dataset,
        stop: &StopHandle,
    ) -> Result<TrainReport, TrainError> {
        checkpoint.validate_against(network, data)?;
        checkpoint.config.validate()?;
        let optimizer = AnyOptimizer::from_state(checkpoint.optimizer.clone())?;
        checkpoint.restore_weights(network)?;
        let TrainCheckpoint {
            config,
            cursor,
            report,
            ..
        } = checkpoint;
        let bptt = Bptt::new(config.surrogate, config.precision);
        let mut trainer = Trainer {
            config,
            bptt,
            optimizer,
            scratches: Vec::new(),
            fault_plan: None,
        };
        trainer.run_loop(network, data, cursor, report, stop)
    }

    /// The shared epoch/batch loop behind `fit` and `resume`: starts at
    /// `start` (a batch boundary) with `report` carrying prior progress.
    fn run_loop(
        &mut self,
        network: &mut SnnNetwork,
        data: &dyn Dataset,
        start: TrainCursor,
        mut report: TrainReport,
        stop: &StopHandle,
    ) -> Result<TrainReport, TrainError> {
        self.config.validate()?;
        let fingerprint = DataFingerprint::of(data);
        let total = data.len(Split::Train);
        if total == 0 {
            return Err(SnnError::config(
                "train split",
                "the dataset holds no training samples, so no epoch can train",
            )
            .into());
        }
        let limit = self.config.max_train_samples.unwrap_or(total).min(total);
        let num_classes = data.num_classes();
        let batch_size = self.config.batch_size;
        let mut steps = start.steps;
        let mut last_good: Option<PathBuf> = report.checkpoint.take();
        report.completed = false;
        for epoch in start.epoch..self.config.epochs {
            if let Some(schedule) = self.config.schedule {
                self.optimizer
                    .set_learning_rate(schedule.learning_rate(self.config.learning_rate, epoch));
            }
            let resuming = epoch == start.epoch;
            let mut epoch_loss = if resuming { start.epoch_loss } else { 0.0 };
            let mut correct = if resuming { start.correct } else { 0 };
            let mut seen = if resuming { start.seen } else { 0 };
            let mut spikes = if resuming { start.spikes } else { 0 };
            let mut index = if resuming { start.next_index } else { 0 };
            while index < limit {
                if stop.should_stop(steps) {
                    let cursor = TrainCursor {
                        epoch,
                        next_index: index,
                        steps,
                        epoch_loss,
                        correct,
                        seen,
                        spikes,
                    };
                    if self.config.checkpoint_path.is_some() {
                        let path = self.save_checkpoint(network, &fingerprint, cursor, &report)?;
                        report.checkpoint = Some(path);
                    } else {
                        report.checkpoint = last_good;
                    }
                    return Ok(report);
                }
                let batch_index = index / batch_size;
                let end = (index + batch_size).min(limit);
                let batch: Vec<Sample> =
                    (index..end).map(|i| data.sample(Split::Train, i)).collect();
                let outcomes =
                    self.batch_results(network, &batch, epoch as u64, index, num_classes)?;
                let mut grads = NetworkGradients::zeros_like(network);
                let mut included = 0usize;
                let mut batch_loss = 0.0_f64;
                for (offset, outcome) in outcomes.into_iter().enumerate() {
                    match outcome {
                        Ok(r) => {
                            epoch_loss += f64::from(r.loss);
                            batch_loss += f64::from(r.loss);
                            spikes += r.total_spikes;
                            if r.correct {
                                correct += 1;
                            }
                            grads.accumulate(&r.gradients)?;
                            included += 1;
                        }
                        Err(reason) => {
                            report.faults.push(SampleFault {
                                epoch,
                                index: index + offset,
                                reason,
                            });
                        }
                    }
                }
                if report.faults.len() > self.config.fault_budget {
                    return Err(TrainError::FaultBudgetExceeded {
                        faults: report.faults.len(),
                        budget: self.config.fault_budget,
                        epoch,
                        last_good,
                    });
                }
                if included > 0 {
                    grads.scale(1.0 / included as f32);
                    let norm = grads.global_norm();
                    if !batch_loss.is_finite() || !norm.is_finite() {
                        return Err(TrainError::NonFinite {
                            epoch,
                            batch: batch_index,
                            what: if batch_loss.is_finite() {
                                "gradient norm"
                            } else {
                                "batch loss"
                            }
                            .to_string(),
                            last_good,
                        });
                    }
                    if let Some(clip) = self.config.grad_clip {
                        grads.clip_with_norm(clip, norm);
                    }
                    apply_gradients(network, &grads, &mut self.optimizer)?;
                    steps += 1;
                    seen += included;
                }
                index = end;
                if included > 0
                    && self.config.checkpoint_every > 0
                    && steps.is_multiple_of(self.config.checkpoint_every as u64)
                {
                    let cursor = TrainCursor {
                        epoch,
                        next_index: index,
                        steps,
                        epoch_loss,
                        correct,
                        seen,
                        spikes,
                    };
                    let path = self.save_checkpoint(network, &fingerprint, cursor, &report)?;
                    last_good = Some(path);
                }
            }
            report
                .epoch_losses
                .push((epoch_loss / seen.max(1) as f64) as f32);
            report
                .epoch_accuracies
                .push(correct as f64 / seen.max(1) as f64);
            report
                .epoch_mean_spikes
                .push(spikes as f64 / seen.max(1) as f64);
        }
        report.completed = true;
        if self.config.checkpoint_path.is_some() {
            let cursor = TrainCursor {
                epoch: self.config.epochs,
                next_index: 0,
                steps,
                epoch_loss: 0.0,
                correct: 0,
                seen: 0,
                spikes: 0,
            };
            let path = self.save_checkpoint(network, &fingerprint, cursor, &report)?;
            report.checkpoint = Some(path);
        } else {
            report.checkpoint = last_good;
        }
        Ok(report)
    }

    /// Atomically saves the current run state to the configured checkpoint
    /// path.
    fn save_checkpoint(
        &self,
        network: &SnnNetwork,
        fingerprint: &DataFingerprint,
        cursor: TrainCursor,
        report: &TrainReport,
    ) -> Result<PathBuf, TrainError> {
        let path = self
            .config
            .checkpoint_path
            .clone()
            .expect("caller checks checkpoint_path");
        let checkpoint = TrainCheckpoint {
            config: self.config.clone(),
            data: fingerprint.clone(),
            cursor,
            report: TrainReport {
                completed: false,
                checkpoint: None,
                ..report.clone()
            },
            weights: TrainCheckpoint::capture_weights(network),
            optimizer: self.optimizer.state(),
        };
        checkpoint.save(&path)?;
        Ok(path)
    }

    /// Computes supervised per-sample outcomes for one batch over the
    /// persistent per-worker scratches. The fake-quantized working copies of
    /// the weight layers are built once per batch ([`Bptt::prepare`]) and
    /// shared by every sample and worker thread — weights only change at the
    /// optimizer step between batches, so per-sample re-quantization would
    /// be pure overhead.
    ///
    /// Determinism: [`snn_core::fan_out`] returns the outcomes in sample
    /// order and each sample's seed is `base + i`, so the caller folds them
    /// in sample order and which worker computed which sample can never
    /// affect a bit of the batch gradient. Workers do **not** fold gradients
    /// into per-worker accumulators: a race-dependent (or
    /// thread-count-dependent) merge order would reassociate the f32 sums
    /// and break the bitwise thread-count-invariance guarantee of `fit`.
    ///
    /// Supervision: each sample runs under `catch_unwind` after input
    /// validation; a panic or invalid sample becomes an `Err(FaultReason)`
    /// outcome instead of tearing down the epoch. A panicked worker's
    /// scratch is replaced (its buffers may be mid-update), which is safe
    /// because scratch contents never influence result bits.
    ///
    /// Outer `Err` is a hard engine error (aborts the run); the inner
    /// per-sample `Err(FaultReason)` is a quarantinable fault.
    fn batch_results(
        &mut self,
        network: &SnnNetwork,
        batch: &[Sample],
        epoch: u64,
        batch_start: usize,
        num_classes: usize,
    ) -> Result<Vec<Result<SampleResult, FaultReason>>, SnnError> {
        let bptt = self.bptt;
        let encoder = self.config.encoder;
        let base_seed = self.config.seed ^ (epoch << 32);
        let plan = self.fault_plan;
        let quarantine = self.config.quarantine;
        let effective = bptt.prepare(network)?;
        let workers = self.config.threads.min(batch.len());
        while self.scratches.len() < workers {
            self.scratches.push(BpttScratch::new());
        }
        snn_core::fan_out(batch.len(), &mut self.scratches, |i, scratch| {
            supervised_sample(
                &bptt,
                network,
                &effective,
                &batch[i],
                &encoder,
                base_seed + i as u64,
                scratch,
                plan,
                epoch as usize,
                batch_start + i,
                num_classes,
                quarantine,
            )
        })
        .into_iter()
        .collect()
    }
}

/// One supervised per-sample gradient computation: input validation, fault
/// injection (if a plan is active), `catch_unwind` panic containment and —
/// when `quarantine` is on — the non-finite check of the sample's loss and
/// gradient norm, run here so each worker pays for its own samples instead
/// of the coordinating thread paying for the whole batch.
///
/// The outer `Result` carries systemic errors (shape/config bugs) that must
/// abort the run; the inner one carries per-sample faults that quarantine
/// just this sample.
#[allow(clippy::too_many_arguments)]
fn supervised_sample(
    bptt: &Bptt,
    network: &SnnNetwork,
    effective: &EffectiveLayers,
    sample: &Sample,
    encoder: &Encoder,
    seed: u64,
    scratch: &mut BpttScratch,
    plan: Option<TrainFaultPlan>,
    epoch: usize,
    ds_index: usize,
    num_classes: usize,
    quarantine: bool,
) -> Result<Result<SampleResult, FaultReason>, SnnError> {
    let fault = plan.map_or(TrainFault::None, |p| p.fault_for(epoch, ds_index));
    let corrupted;
    let sample = if fault == TrainFault::CorruptSample {
        let mut s = sample.clone();
        if let Some(first) = s.image.as_mut_slice().first_mut() {
            *first = f32::NAN;
        }
        corrupted = s;
        &corrupted
    } else {
        sample
    };
    if let Err(e) = sample.validate(num_classes) {
        return Ok(Err(FaultReason::InvalidData {
            detail: e.to_string(),
        }));
    }
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if fault == TrainFault::Panic {
            panic!("injected fault: training worker panic (sample {ds_index})");
        }
        let sweep = bptt.forward_sweep(network, effective, &sample.image, encoder, seed)?;
        bptt.backward_sweep(network, effective, &sweep, sample.label, scratch)
    }));
    match outcome {
        Ok(Ok(mut result)) => {
            if fault == TrainFault::NanGrad {
                result.gradients.scale(f32::NAN);
            }
            let loss_finite = result.loss.is_finite();
            if quarantine && !(loss_finite && result.gradients.global_norm().is_finite()) {
                return Ok(Err(FaultReason::NonFinite {
                    what: if loss_finite { "gradient" } else { "loss" }.to_string(),
                }));
            }
            Ok(Ok(result))
        }
        Ok(Err(e)) => Err(e),
        Err(payload) => {
            // The scratch may have been torn mid-update; replace it. Scratch
            // contents never affect result bits, only allocation reuse.
            *scratch = BpttScratch::new();
            let message = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "<non-string panic payload>".to_string()
            };
            Ok(Err(FaultReason::Panicked { message }))
        }
    }
}

/// Applies a gradient set to a network's parameters with the given optimizer.
///
/// # Errors
///
/// Returns [`SnnError::ShapeMismatch`] if the gradients do not match the
/// network structure.
pub fn apply_gradients(
    network: &mut SnnNetwork,
    gradients: &NetworkGradients,
    optimizer: &mut dyn Optimizer,
) -> Result<(), SnnError> {
    if gradients.per_layer().len() != network.layers().len() {
        return Err(SnnError::shape(
            &[network.layers().len()],
            &[gradients.per_layer().len()],
            "apply_gradients",
        ));
    }
    for (li, layer) in network.layers_mut().iter_mut().enumerate() {
        let Some(grads) = &gradients.per_layer()[li] else {
            continue;
        };
        match layer {
            Layer::Conv { conv, .. } => {
                optimizer.step(
                    &format!("layer{li}.weight"),
                    conv.weight_mut(),
                    &grads.weight,
                )?;
                optimizer.step(&format!("layer{li}.bias"), conv.bias_mut(), &grads.bias)?;
            }
            Layer::Linear { linear, .. } => {
                optimizer.step(
                    &format!("layer{li}.weight"),
                    linear.weight_mut(),
                    &grads.weight,
                )?;
                optimizer.step(&format!("layer{li}.bias"), linear.bias_mut(), &grads.bias)?;
            }
            Layer::Pool { .. } => {}
        }
    }
    Ok(())
}

/// Evaluates `network` on a dataset split: accuracy plus the spike statistics
/// used by the sparsity and energy experiments. Sample `i` runs with encoder
/// seed `i`, through one [`RunState`] reused across samples.
///
/// # Errors
///
/// Propagates inference errors.
pub fn evaluate(
    network: &SnnNetwork,
    data: &dyn Dataset,
    split: Split,
    encoder: &Encoder,
    max_samples: Option<usize>,
) -> Result<EvalReport, SnnError> {
    let total = data.len(split);
    let samples = max_samples.unwrap_or(total).min(total);
    let mut report = EvalReport {
        samples,
        per_layer_spikes: vec![0; network.layers().len()],
        ..EvalReport::default()
    };
    let mut state = RunState::new(network)?;
    for i in 0..samples {
        let sample = data.sample(split, i);
        let out = network.run_with_state(&sample.image, encoder, i as u64, &mut state)?;
        if out.prediction == sample.label {
            report.correct += 1;
        }
        for (layer, trace) in report.per_layer_spikes.iter_mut().zip(&out.traces) {
            *layer += trace.total_output_spikes();
        }
        report.total_spikes += total_output_spikes(&out.traces);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snn_core::network::{vgg9, Vgg9Config};
    use snn_data::{SyntheticConfig, SyntheticDataset};

    fn tiny_data() -> SyntheticDataset {
        SyntheticDataset::generate(SyntheticConfig::cifar10_like().scaled_down(16, 20, 10))
    }

    #[test]
    fn quick_config_has_paper_encoder() {
        let cfg = TrainConfig::quick();
        assert_eq!(cfg.encoder, Encoder::paper_direct());
        assert_eq!(cfg.precision, Precision::Fp32);
        assert_eq!(cfg.optimizer, OptimizerKind::Adam);
        assert!(cfg.quarantine);
        assert_eq!(
            TrainConfig::quick_qat(Precision::Int4).precision,
            Precision::Int4
        );
    }

    /// A dataset without training samples is a typed error, not a
    /// `completed` run with 0.0 losses.
    #[test]
    fn empty_train_split_is_rejected_typed() {
        let data =
            SyntheticDataset::generate(SyntheticConfig::cifar10_like().scaled_down(16, 0, 4));
        assert_eq!(data.len(Split::Train), 0);
        let mut net = vgg9(&Vgg9Config::cifar10_small()).unwrap();
        let mut cfg = TrainConfig::quick();
        cfg.epochs = 2;
        match Trainer::new(cfg).unwrap().fit(&mut net, &data) {
            Err(TrainError::Snn(SnnError::InvalidConfig { parameter, .. })) => {
                assert_eq!(parameter, "train split");
            }
            other => panic!("expected an InvalidConfig on the train split, got {other:?}"),
        }
    }

    /// The former `batch_size = 0` infinite loop is now a typed validation
    /// error, as are the other zero-valued footguns.
    #[test]
    fn zero_valued_configs_are_rejected_typed() {
        for (mutate, parameter) in [
            (
                Box::new(|c: &mut TrainConfig| c.batch_size = 0) as Box<dyn Fn(&mut TrainConfig)>,
                "batch_size",
            ),
            (Box::new(|c: &mut TrainConfig| c.epochs = 0), "epochs"),
            (Box::new(|c: &mut TrainConfig| c.threads = 0), "threads"),
            (
                Box::new(|c: &mut TrainConfig| c.max_train_samples = Some(0)),
                "max_train_samples",
            ),
            (
                Box::new(|c: &mut TrainConfig| c.learning_rate = f32::NAN),
                "learning_rate",
            ),
            (
                Box::new(|c: &mut TrainConfig| c.checkpoint_every = 4),
                "checkpoint_every",
            ),
            (
                Box::new(|c: &mut TrainConfig| c.grad_clip = Some(-1.0)),
                "grad_clip",
            ),
            (
                Box::new(|c: &mut TrainConfig| c.grad_clip = Some(0.0)),
                "grad_clip",
            ),
            (
                Box::new(|c: &mut TrainConfig| c.grad_clip = Some(f32::NAN)),
                "grad_clip",
            ),
            (
                Box::new(|c: &mut TrainConfig| {
                    c.learning_rate = -0.01;
                    c.schedule = Some(ScheduleKind::Step {
                        step: 1,
                        gamma: 0.5,
                    })
                }),
                "learning_rate",
            ),
            (
                Box::new(|c: &mut TrainConfig| {
                    c.schedule = Some(ScheduleKind::Step {
                        step: 1,
                        gamma: 1.5,
                    })
                }),
                "schedule",
            ),
            (
                Box::new(|c: &mut TrainConfig| {
                    c.schedule = Some(ScheduleKind::Step {
                        step: 1,
                        gamma: 0.0,
                    })
                }),
                "schedule",
            ),
            (
                Box::new(|c: &mut TrainConfig| {
                    c.schedule = Some(ScheduleKind::Cosine {
                        min_lr: f32::NAN,
                        total_epochs: 4,
                    })
                }),
                "schedule",
            ),
            (
                Box::new(|c: &mut TrainConfig| {
                    c.schedule = Some(ScheduleKind::Cosine {
                        min_lr: -0.001,
                        total_epochs: 4,
                    })
                }),
                "schedule",
            ),
        ] {
            let mut cfg = TrainConfig::quick();
            mutate(&mut cfg);
            match Trainer::new(cfg) {
                Err(TrainError::InvalidConfig { parameter: p, .. }) => {
                    assert_eq!(p, parameter);
                }
                other => panic!("expected InvalidConfig for {parameter}, got {other:?}"),
            }
        }
    }

    #[test]
    fn fit_runs_one_epoch_and_reports_progress() {
        let mut net = vgg9(&Vgg9Config::cifar10_small()).unwrap();
        let data = tiny_data();
        let mut cfg = TrainConfig::quick();
        cfg.max_train_samples = Some(8);
        cfg.batch_size = 4;
        cfg.threads = 2;
        let mut trainer = Trainer::new(cfg).unwrap();
        let report = trainer.fit(&mut net, &data).unwrap();
        assert_eq!(report.epoch_losses.len(), 1);
        assert!(report.final_loss().is_finite());
        assert!(report.final_accuracy() >= 0.0);
        assert!(report.epoch_mean_spikes[0] > 0.0);
        assert!(report.completed);
        assert!(report.faults.is_empty());
    }

    #[test]
    fn fit_with_qat_runs() {
        let mut net = vgg9(&Vgg9Config::cifar10_small()).unwrap();
        let data = tiny_data();
        let mut cfg = TrainConfig::quick_qat(Precision::Int4);
        cfg.max_train_samples = Some(4);
        cfg.batch_size = 4;
        cfg.threads = 1;
        let mut trainer = Trainer::new(cfg).unwrap();
        let report = trainer.fit(&mut net, &data).unwrap();
        assert!(report.final_loss().is_finite());
    }

    #[test]
    fn training_reduces_loss_over_epochs() {
        let mut net = vgg9(&Vgg9Config::cifar10_small()).unwrap();
        let data = tiny_data();
        let mut cfg = TrainConfig::quick();
        cfg.epochs = 3;
        cfg.max_train_samples = Some(10);
        cfg.batch_size = 5;
        cfg.learning_rate = 5e-3;
        let mut trainer = Trainer::new(cfg).unwrap();
        let report = trainer.fit(&mut net, &data).unwrap();
        // Training on a 10-sample subset is noisy; require that the best epoch
        // improves on the first epoch rather than demanding monotonicity.
        let first = report.epoch_losses[0];
        let best = report
            .epoch_losses
            .iter()
            .copied()
            .fold(f32::INFINITY, f32::min);
        assert!(
            best <= first + 1e-4,
            "best epoch loss should improve on the first: {:?}",
            report.epoch_losses
        );
    }

    #[test]
    fn sgd_optimizer_and_schedule_drive_the_learning_rate() {
        let mut net = vgg9(&Vgg9Config::cifar10_small()).unwrap();
        let data = tiny_data();
        let mut cfg = TrainConfig::quick();
        cfg.epochs = 3;
        cfg.max_train_samples = Some(4);
        cfg.batch_size = 4;
        cfg.threads = 1;
        cfg.optimizer = OptimizerKind::Sgd { momentum: 0.9 };
        cfg.learning_rate = 0.01;
        cfg.schedule = Some(ScheduleKind::Step {
            step: 1,
            gamma: 0.5,
        });
        let mut trainer = Trainer::new(cfg).unwrap();
        trainer.fit(&mut net, &data).unwrap();
        // After 3 epochs the schedule has scaled the config's rate to the
        // epoch-2 rate: 0.01 * 0.5^2.
        assert!((trainer.learning_rate() - 0.0025).abs() < 1e-7);
    }

    #[test]
    fn evaluate_reports_accuracy_and_spikes() {
        let net = vgg9(&Vgg9Config::cifar10_small()).unwrap();
        let data = tiny_data();
        let report = evaluate(&net, &data, Split::Test, &Encoder::paper_direct(), Some(5)).unwrap();
        assert_eq!(report.samples, 5);
        assert!(report.total_spikes > 0);
        assert!(report.mean_spikes_per_sample() > 0.0);
        assert!((0.0..=1.0).contains(&report.accuracy()));
        assert_eq!(report.accuracy(), report.correct as f64 / 5.0);
        assert_eq!(
            report.mean_spikes_per_sample(),
            report.total_spikes as f64 / 5.0
        );
        assert_eq!(report.per_layer_spikes.len(), net.layers().len());
        assert_eq!(
            report.per_layer_spikes.iter().sum::<u64>(),
            report.total_spikes
        );
    }

    /// The worker-pool determinism claim: training is bitwise identical at
    /// every thread count — same per-epoch losses/accuracies/spike counts and
    /// same final weights — because per-sample results are folded in sample
    /// order regardless of which worker produced them. Exercised in CI both
    /// with the default environment and with `SNN_THREADS=4`.
    #[test]
    fn fit_is_bitwise_identical_across_thread_counts() {
        let data = tiny_data();
        let mut reference_report = None;
        let mut reference_weights: Option<Vec<Vec<f32>>> = None;
        for threads in [1_usize, 2, 3, 4] {
            let mut net = vgg9(&Vgg9Config::cifar10_small()).unwrap();
            let mut cfg = TrainConfig::quick_qat(Precision::Int4);
            cfg.epochs = 2;
            cfg.max_train_samples = Some(6);
            cfg.batch_size = 3;
            cfg.encoder = Encoder::rate(2); // stochastic coding: seeds must line up too
            cfg.threads = threads;
            let mut trainer = Trainer::new(cfg).unwrap();
            let report = trainer.fit(&mut net, &data).unwrap();
            let weights: Vec<Vec<f32>> = net
                .layers()
                .iter()
                .filter_map(|layer| match layer {
                    Layer::Conv { conv, .. } => Some(conv.weight().as_slice().to_vec()),
                    Layer::Linear { linear, .. } => Some(linear.weight().as_slice().to_vec()),
                    Layer::Pool { .. } => None,
                })
                .collect();
            match (&reference_report, &reference_weights) {
                (None, _) => {
                    reference_report = Some(report);
                    reference_weights = Some(weights);
                }
                (Some(ref_report), Some(ref_weights)) => {
                    assert_eq!(&report, ref_report, "report differs at {threads} threads");
                    for (lw, rw) in weights.iter().zip(ref_weights.iter()) {
                        for (a, b) in lw.iter().zip(rw.iter()) {
                            assert_eq!(
                                a.to_bits(),
                                b.to_bits(),
                                "weights differ at {threads} threads"
                            );
                        }
                    }
                }
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn stop_handle_interrupts_at_a_batch_boundary() {
        let mut net = vgg9(&Vgg9Config::cifar10_small()).unwrap();
        let data = tiny_data();
        let mut cfg = TrainConfig::quick();
        cfg.epochs = 2;
        cfg.max_train_samples = Some(6);
        cfg.batch_size = 2;
        cfg.threads = 1;
        let stop = StopHandle::new();
        stop.stop_after_steps(2);
        let mut trainer = Trainer::new(cfg).unwrap();
        let report = trainer.fit_with_stop(&mut net, &data, &stop).unwrap();
        assert!(!report.completed);
        // 2 of 3 batches of epoch 0 ran: no epoch stats were finalised.
        assert!(report.epoch_losses.is_empty());
    }

    #[test]
    fn apply_gradients_validates_structure() {
        let mut net = vgg9(&Vgg9Config::cifar10_small()).unwrap();
        let other = vgg9(&Vgg9Config::cifar10_small()).unwrap();
        let good = NetworkGradients::zeros_like(&other);
        let mut adam = Adam::new(0.001);
        assert!(apply_gradients(&mut net, &good, &mut adam).is_ok());
    }
}
