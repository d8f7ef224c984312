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
//!   event-driven kernels read,
//! * [`encoding`] — direct coding and rate coding input encoders,
//! * [`quant`] — symmetric integer quantization used for int4/int8 QAT,
//! * [`layers`] — Conv2d, Linear, spike max-pooling and batch normalisation,
//! * [`network`] — the layer container plus VGG9 builders used in the paper;
//!   a run's per-layer [`network::LayerTrace`]s are its one spike-count
//!   record, and [`network::total_output_spikes`] /
//!   [`network::average_sparsity`] summarise them,
//! * [`stats`] — the streaming latency histogram and the per-layer
//!   spike-rate drift tracker, which counts each layer's rates per octave
//!   and computes its verdict when asked.
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
pub use tensor::Tensor;

/// Resolves a worker-thread count for batched execution: an explicit caller
/// setting wins, then the `SNN_THREADS` environment variable, then the
/// machine's available parallelism. Values below 1 (explicit or env) clamp to
/// 1 — sequential execution — and an unparsable `SNN_THREADS` is ignored.
///
/// This is the single resolution rule shared by the inference engine
/// (`EngineBuilder::threads`) and the trainer, so the two cannot drift.
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

/// Runs `f(i, state)` for every `i` in `0..n` and returns the results in
/// index order: the one ordered fan-out behind batched inference, serving
/// batches and the trainer's per-sample gradients.
///
/// Each entry of `states` is one worker's mutable scratch (at most `n` are
/// used). The calling thread works with `states[0]` and one scoped thread
/// per further state works with the rest; every worker claims the next
/// unclaimed index from one shared counter, so a slow item never strands
/// others behind a static partition. With one state every call runs on the
/// calling thread, in index order, and no thread is spawned.
///
/// Which worker ran an index is scheduling only: when `f`'s result depends
/// on `i` alone (per-index seeds, no state carried between calls), the
/// output is bitwise identical at every state count.
///
/// # Panics
///
/// Panics if `states` is empty while `n > 0`. A panic inside `f` on a
/// spawned worker is re-raised on the calling thread with its payload.
pub fn fan_out<S: Send, R: Send>(
    n: usize,
    states: &mut [S],
    f: impl Fn(usize, &mut S) -> R + Sync,
) -> Vec<R> {
    if n == 0 {
        return Vec::new();
    }
    let workers = states.len().min(n);
    let (first, rest) = states[..workers]
        .split_first_mut()
        .expect("fan_out needs at least one state");
    let next = std::sync::atomic::AtomicUsize::new(0);
    let work = |state: &mut S| {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if i >= n {
                return done;
            }
            done.push((i, f(i, state)));
        }
    };
    let work = &work;
    let mut done = std::thread::scope(|scope| {
        let handles: Vec<_> = rest
            .iter_mut()
            .map(|state| scope.spawn(move || work(state)))
            .collect();
        let mut done = work(first);
        for handle in handles {
            let part = handle.join();
            done.extend(part.unwrap_or_else(|payload| std::panic::resume_unwind(payload)));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
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

    /// Results come back in index order and every index runs exactly once,
    /// whatever the number of items and of worker states.
    #[test]
    fn fan_out_returns_each_index_once_in_order() {
        for n in [0, 1, 5, 17] {
            for workers in [1, 2, 3, 8] {
                let mut states: Vec<Vec<usize>> = vec![Vec::new(); workers];
                let results = super::fan_out(n, &mut states, |i, seen| {
                    seen.push(i);
                    i * 10 + 1
                });
                let want: Vec<usize> = (0..n).map(|i| i * 10 + 1).collect();
                assert_eq!(results, want, "n {n}, {workers} states");
                let mut ran: Vec<usize> = states.concat();
                ran.sort_unstable();
                assert_eq!(ran, (0..n).collect::<Vec<_>>(), "n {n}, {workers} states");
            }
        }
    }

    /// With one state no thread is spawned: every call runs on the caller.
    #[test]
    fn fan_out_with_one_state_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let mut states = [0usize];
        let threads = super::fan_out(5, &mut states, |_, calls| {
            *calls += 1;
            std::thread::current().id()
        });
        assert_eq!(threads, vec![caller; 5]);
        assert_eq!(states, [5]);
    }
}
