//! # snn-train
//!
//! From-scratch training substrate for the spiking VGG9 models of the paper:
//! surrogate-gradient backpropagation through time (BPTT), quantization-aware
//! training (QAT) with a straight-through estimator, and the optimizers and
//! loss functions needed to train on the synthetic datasets of `snn-data`.
//!
//! This replaces the snnTorch + GPU training pipeline the authors used; the
//! mechanisms are the same (fast-sigmoid surrogate for the spike
//! non-linearity, membrane-potential BPTT with a detached reset term,
//! fake-quantized weights in the forward pass), only the scale is reduced so
//! the experiments run on a CPU in seconds-to-minutes.
//!
//! The crate is organised as:
//!
//! * [`surrogate`] — surrogate derivatives of the spike non-linearity,
//! * [`grad`] — layer-level backward passes (conv, linear, pooling): an
//!   allocating dense reference family plus the scratch-backed, event-aware
//!   production `_into` family the hot loop runs (the conv weight gradient
//!   from the spike walk or from the one im2col lowering in
//!   [`GradScratch`], which a replayed input reuses across timesteps, and
//!   the [`grad::conv2d_input_grad_into`] input-gradient kernel), proven
//!   bitwise identical to the reference; conv and linear kernels write a
//!   [`bptt::LayerGrads`] and, when asked, the input gradient into the
//!   caller's tensor,
//! * [`loss`] — softmax cross-entropy over the population readout,
//! * [`optim`] — SGD with momentum and Adam,
//! * [`bptt`] — the time-unrolled forward/backward over a whole network:
//!   an event-driven forward sweep over [`snn_core::spike::SpikePlane`]
//!   frames and a backward sweep in which conv and linear layers share one
//!   weight-layer step, the long-lived [`bptt::BpttScratch`] (zero heap
//!   allocations per timestep once warm), and per-batch preparation of the
//!   QAT weight copies and transposed filter banks,
//! * [`trainer`] — the epoch/batch loop, each batch fanned out per sample
//!   through [`snn_core::fan_out`] over persistent per-worker scratch
//!   (bitwise identical at every thread count), QAT hook, per-sample worker
//!   supervision with poisoned-data quarantine, graceful interruption
//!   ([`StopHandle`]) and evaluation helpers,
//! * [`checkpoint`] — crash-safe, atomically-saved [`TrainCheckpoint`]s
//!   (weights + full optimizer state + epoch/batch cursor) from which
//!   [`Trainer::resume`] continues bitwise-identically to the uninterrupted
//!   run,
//! * [`error`] — the typed [`TrainError`] surface (validation, non-finite
//!   fail-fast, fault budget, resume compatibility),
//! * [`fault`] — seeded, batching/thread-invariant chaos injection
//!   ([`TrainFaultPlan`]) and the [`SampleFault`] quarantine reporting.

pub mod bptt;
pub mod checkpoint;
pub mod error;
pub mod fault;
pub mod grad;
pub mod loss;
pub mod optim;
pub mod schedule;
pub mod surrogate;
pub mod trainer;

pub use bptt::{Bptt, BpttScratch, NetworkGradients};
pub use checkpoint::{DataFingerprint, LayerWeights, TrainCheckpoint, TrainCursor};
pub use error::TrainError;
pub use fault::{FaultReason, SampleFault, TrainFault, TrainFaultPlan};
pub use grad::{conv2d_input_grad_into, GradScratch};
pub use loss::{cross_entropy, softmax};
pub use optim::{Adam, Optimizer, OptimizerKind, OptimizerState, Sgd};
pub use schedule::ScheduleKind;
pub use surrogate::SurrogateKind;
pub use trainer::{EvalReport, StopHandle, TrainConfig, TrainReport, Trainer};
