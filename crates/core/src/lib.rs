//! # snn-core
//!
//! Substrate library for the hybrid dense/sparse event-driven SNN accelerator
//! reproduction (DATE 2025, "Exploring the Sparsity-Quantization Interplay on a
//! Novel Hybrid SNN Event-Driven Architecture").
//!
//! This crate provides everything the algorithmic side of the paper needs:
//!
//! * [`tensor`] — a small NCHW tensor type with the shape algebra and im2col
//!   helpers used by convolution layers,
//! * [`neuron`] — the leaky integrate-and-fire (LIF) neuron of Eq. 1–2,
//! * [`spike`] — bit-packed spike planes, the one packed spike format the
//!   event-driven kernels read, and per-run spike records,
//! * [`encoding`] — direct coding and rate coding input encoders,
//! * [`quant`] — symmetric integer quantization used for int4/int8 QAT,
//! * [`layers`] — Conv2d, Linear, spike max-pooling and batch normalisation,
//! * [`network`] — the layer container plus VGG9 builders used in the paper,
//! * [`stats`] — spike-count / sparsity statistics feeding the workload model.
//!
//! # Example
//!
//! Build the paper's VGG9 for a CIFAR-10-like input and run one direct-coded
//! inference over two timesteps:
//!
//! ```
//! use snn_core::network::{vgg9, Vgg9Config};
//! use snn_core::encoding::Encoder;
//! use snn_core::tensor::Tensor;
//!
//! # fn main() -> Result<(), snn_core::SnnError> {
//! let cfg = Vgg9Config::cifar10_small();
//! let mut net = vgg9(&cfg)?;
//! let image = Tensor::zeros(&[cfg.in_channels, cfg.image_size, cfg.image_size]);
//! let out = net.run(&image, &Encoder::direct(2))?;
//! assert_eq!(out.logits.len(), cfg.num_classes);
//! # Ok(())
//! # }
//! ```

pub mod encoding;
pub mod error;
pub mod io;
pub mod layers;
pub mod network;
pub mod neuron;
pub mod quant;
pub mod spike;
pub mod stats;
pub mod tensor;
pub mod test_support;

pub use error::SnnError;
pub use network::{RunOutput, RunState, SnnNetwork};
pub use neuron::{LifParams, LifPopulation};
pub use spike::SpikeRecord;
pub use tensor::Tensor;

/// Resolves a worker-thread count for batched execution: an explicit caller
/// setting wins, then the `SNN_THREADS` environment variable, then the
/// machine's available parallelism. Values below 1 (explicit or env) clamp to
/// 1 — sequential execution — and an unparsable `SNN_THREADS` is ignored.
///
/// This is the single resolution rule shared by the inference engine
/// (`EngineBuilder::threads`) and the trainer's worker pool, so the two paths
/// cannot drift.
pub fn resolve_threads(explicit: Option<usize>) -> usize {
    explicit
        .or_else(|| {
            std::env::var("SNN_THREADS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
        })
        .map(|n| n.max(1))
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// splitmix64 finalizer — a strong 64-bit mix, the standard seeding
/// primitive of the xoshiro family.
///
/// This is the shared deterministic-hash primitive behind every seeded
/// fault-injection plan in the workspace (`snn_serve::FaultPlan`,
/// `snn_train::TrainFaultPlan`) and the retry jitter: decisions derived by
/// domain-separated chains of this mix are pure functions of their seeds, so
/// they are independent of batching, thread count and scheduling.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod thread_tests {
    /// All `SNN_THREADS` scenarios live in one test so the process-global
    /// environment variable is never raced by parallel test threads.
    #[test]
    fn resolve_threads_precedence() {
        std::env::remove_var("SNN_THREADS");
        assert_eq!(super::resolve_threads(Some(3)), 3);
        assert_eq!(super::resolve_threads(Some(0)), 1);
        assert!(super::resolve_threads(None) >= 1);
        std::env::set_var("SNN_THREADS", "5");
        assert_eq!(super::resolve_threads(None), 5);
        assert_eq!(super::resolve_threads(Some(2)), 2, "explicit beats env");
        std::env::set_var("SNN_THREADS", "0");
        assert_eq!(super::resolve_threads(None), 1, "env clamps to 1");
        std::env::set_var("SNN_THREADS", "not-a-number");
        assert!(super::resolve_threads(None) >= 1, "unparsable env ignored");
        std::env::remove_var("SNN_THREADS");
    }
}
