//! # snn-serve — dynamic-batching inference serving
//!
//! A transport-agnostic serving layer for the SNN accelerator engine:
//! requests enter a bounded MPSC queue, dedicated worker threads take them
//! in dynamic batches, and a one-shot response slot carries each result
//! back to its submitter. A worker that was idle runs the first arrival at
//! once; a worker that finds a backlog coalesces it (up to
//! [`ServeConfig::max_batch`] requests, or whatever has arrived when the
//! [`ServeConfig::max_delay`] latency budget expires — whichever comes
//! first). Producers never block: once the queue depth reaches the
//! high-water mark, submissions are shed immediately with the typed
//! [`ServeError::Overloaded`] so callers can back off.
//!
//! The crate is generic over the model via the [`ServeModel`] /
//! [`ModelRunner`] trait pair — it depends only on `snn-core` and
//! `snn-accel`; the `snn` facade crate implements the traits for its
//! `Engine` and re-exports this crate as `snn::serve`.
//!
//! ## Determinism
//!
//! Every request carries its own encoder seed, and a conforming runner
//! computes request `i` from `(image_i, seed_i)` alone. Coalescing is
//! therefore purely a scheduling decision: a request returns bitwise
//! the same logits, spike traces and hardware estimate whether it was
//! served alone or inside any batch, at any queue depth and worker count.
//! The repo's serving determinism suite asserts exactly this against
//! sequential `Session::run_seeded` calls.
//!
//! ## Fault tolerance
//!
//! Requests may carry a **deadline** (wire field `deadline_us`, default
//! from [`ServeConfig::default_timeout`]): expired requests are shed at
//! dequeue before any inference is spent on them, and admission control
//! pre-rejects deadlines the current queue-wait estimate already exceeds.
//! Workers run the model under `catch_unwind` and are **supervised**: a
//! panicking model answers exactly its batch with a typed error and the
//! worker is respawned with capped exponential backoff
//! ([`ServeStats::worker_restarts`]). A seeded [`FaultPlan`] injects
//! deterministic faults for chaos tests, and [`RetryPolicy`] gives clients
//! jittered, budget-capped backoff for the errors the server marks
//! retryable.
//!
//! ## Layers
//!
//! - [`ServeCore`] — queue + batcher + supervised workers + statistics
//!   (this is the API most embedders want).
//! - [`ModelZoo`] — a multi-model registry on top of cores: named-model
//!   routing, golden-probe-validated atomic hot-reload with rollback, and
//!   per-model spike-rate drift detection feeding a
//!   `Healthy → Degraded → Wedged` health state machine.
//! - [`protocol`] — the JSON and length-prefixed binary wire codecs
//!   (requests carry an optional model id and deadline).
//! - [`HttpServer`] — a thin blocking HTTP/1.1 shim on `std::net` exposing
//!   `POST /v1/infer`, `GET /v1/stats` and `GET /healthz`, hardened via
//!   [`HttpOptions`] (read/write timeouts, head/body caps); fronts a
//!   [`ModelZoo`] (a single model is a zoo of one).
//! - [`fault`] / [`retry`] — deterministic fault injection and client
//!   retry/backoff.
//!
//! ## Example
//!
//! Serving a stub model (the facade's `Engine` plugs in the same way):
//!
//! ```
//! use snn_serve::{
//!     InferenceRequest, InferenceResult, ModelRunner, ServeConfig, ServeCore, ServeModel,
//! };
//! use snn_core::tensor::Tensor;
//! use snn_core::SnnError;
//!
//! /// Scores each class by a weighted sum of the input — deterministic in
//! /// (image, seed), as the serving contract requires.
//! struct ToyModel;
//! struct ToyRunner;
//!
//! impl ModelRunner for ToyRunner {
//!     fn run_batch(
//!         &mut self,
//!         requests: Vec<InferenceRequest>,
//!     ) -> Vec<Result<InferenceResult, SnnError>> {
//!         requests
//!             .into_iter()
//!             .map(|r| {
//!                 let sum: f32 = r.image.as_slice().iter().sum();
//!                 Ok(InferenceResult::from_logits(vec![sum, -sum]))
//!             })
//!             .collect()
//!     }
//! }
//!
//! impl ServeModel for ToyModel {
//!     type Runner = ToyRunner;
//!     fn runner(&self) -> ToyRunner {
//!         ToyRunner
//!     }
//! }
//!
//! let core = ServeCore::start(ToyModel, ServeConfig::default()).unwrap();
//! let image = Tensor::from_vec(vec![0.5, 1.5], &[2]).unwrap();
//! let response = core.infer(InferenceRequest::seeded(image, 7)).unwrap();
//! assert_eq!(response.result.prediction, 0);
//! assert_eq!(response.result.logits, vec![2.0, -2.0]);
//! assert!(response.batch_size >= 1);
//! core.shutdown();
//! ```

pub mod core;
pub mod error;
pub mod fault;
pub mod http;
pub mod protocol;
mod queue;
pub mod registry;
pub mod retry;

pub use crate::core::{
    InferenceRequest, InferenceResult, ModelRunner, ResponseHandle, ResultObserver, ServeConfig,
    ServeCore, ServeModel, ServeStats, ServedResponse,
};
pub use crate::error::ServeError;
pub use crate::fault::{Fault, FaultPlan, FaultyModel};
pub use crate::http::{HttpOptions, HttpServer};
pub use crate::registry::{
    DriftPolicy, ModelHealth, ModelStats, ModelZoo, ProbeSpec, SwappableModel, ZooConfig, ZooStats,
};
pub use crate::retry::RetryPolicy;
