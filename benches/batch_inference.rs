//! Criterion benches of the inference and training hot paths.
//!
//! * `batch_inference` — `Session::run_batch` throughput (images/sec) on
//!   `Vgg9Config::cifar10_small` at batch sizes 1, 8, 32 and 64, using the
//!   engine's default worker-thread resolution (`SNN_THREADS` or the
//!   available parallelism).
//! * `sparse_conv` — event-driven `Conv2d::forward_spikes` vs the dense
//!   im2col + matmul forward on the small model's 8-, 16- and 32-wide layers
//!   (CONV1_2, CONV2_2, CONV3_3) at 5–90% input spike density, tracking the
//!   sparse/dense crossover that `Conv2d::sparse_crossover` encodes.
//! * `matmul_blocked_vs_naive` — the cache-blocked `matmul_to` kernel vs the
//!   retained `matmul_naive_to` reference on paper-scale dense-fallback
//!   shapes (results are bitwise identical; only the speed differs).
//! * `bptt_backward` — the backward pass alone, driven repeatedly against
//!   one cached forward sweep: the persistent-scratch production path vs a
//!   fresh scratch per call (gradients are bitwise identical; only the
//!   allocation behaviour differs).
//! * `bptt_input_grad` — the conv input-gradient kernel
//!   (`conv2d_input_grad_into`: each output cell's non-zero gradient entries
//!   times rows of the cached tap-major filter bank, lanes along the input
//!   channels) on CONV1_2, CONV2_2 and CONV3_3, each with a dense gradient
//!   frame and a pool-routed one (one non-zero entry per 2×2 window per
//!   channel). Its bitwise oracle, the `matmul_at_b` + `col2im` tail of
//!   `conv2d_backward`, is checked by proptest, not timed.
//! * `train_epoch` — one BPTT sample (the event-driven forward and backward
//!   sweeps over a long-lived scratch vs the retained dense sweep) and one
//!   full `Trainer::fit` epoch over 8 synthetic samples at 1/2/4
//!   worker threads (bitwise-identical results at every thread count).
//! * `train_checkpoint` — atomic checkpoint save/load latency plus 8-epoch
//!   fits at checkpoint cadences none / every-8-steps / every-step; asserts
//!   (also in the `--test` CI smoke) that the every-8 cadence costs under 5%
//!   of epoch time.
//!
//! Run with: `cargo bench --bench batch_inference`
//! Machine-readable output: `BENCH_JSON=out.json cargo bench ...` appends
//! one JSON line per benchmark (see `BENCH_batch.json` / `BENCH_matmul.json`
//! for the checked-in baseline history).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use snn::train::bptt::{Bptt, BpttScratch};
use snn::train::surrogate::SurrogateKind;
use snn::train::trainer::{StopHandle, TrainConfig, Trainer};
use snn::train::TrainCheckpoint;
use snn::{Engine, Precision};
use snn_core::encoding::Encoder;
use snn_core::layers::{Conv2d, ConvScratch};
use snn_core::network::{vgg9, Vgg9Config};
use snn_core::spike::SpikePlane;
use snn_core::tensor::{matmul_naive_to, matmul_to_with, Tensor};
use snn_data::{SyntheticConfig, SyntheticDataset};

fn bench_batches(c: &mut Criterion) {
    let cfg = Vgg9Config::cifar10_small();
    let engine = Engine::builder()
        .network(vgg9(&cfg).expect("vgg9 builds"))
        .encoder(Encoder::paper_direct())
        .precision(Precision::Int4)
        .hardware_allocation("bench", &[1, 4, 2, 4, 2, 4, 4, 2, 1])
        .build()
        .expect("engine builds");
    let mut session = engine.session();

    let mut group = c.benchmark_group("batch_inference");
    for &batch in &[1_usize, 8, 32, 64] {
        let images: Vec<Tensor> = (0..batch)
            .map(|i| {
                Tensor::from_fn(&[3, 16, 16], move |p| {
                    (((p + 31 * i) as f32) * 0.017).sin().abs()
                })
            })
            .collect();
        group.throughput(Throughput::Elements(batch as u64));
        group.bench_with_input(BenchmarkId::from_parameter(batch), &images, |b, images| {
            b.iter(|| session.run_batch(images).expect("batch runs"));
        });
    }
    group.finish();
}

/// Deterministic binary input at (approximately) the requested density.
fn spike_input(shape: &[usize], density: f64) -> Tensor {
    Tensor::from_fn(shape, |i| {
        if ((i.wrapping_mul(2_654_435_761)) % 1000) as f64 / 1000.0 < density {
            1.0
        } else {
            0.0
        }
    })
}

fn bench_sparse_conv(c: &mut Criterion) {
    // The small model's 8-, 16- and 32-wide layers (CONV1_2: 8 -> 8 on
    // 16x16, CONV2_2: 16 -> 16 on 8x8, CONV3_3: 24 -> 32 on 4x4), 3x3
    // same-padding, at densities either side of each crossover.
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
    let mut group = c.benchmark_group("sparse_conv");
    for &(in_c, out_c, map) in &[(8_usize, 8_usize, 16_usize), (16, 16, 8), (24, 32, 4)] {
        let conv = Conv2d::with_kaiming_init(in_c, out_c, 3, 1, 1, &mut rng).expect("conv builds");
        for &density in &[0.05_f64, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.9] {
            let input = spike_input(&[in_c, map, map], density);
            let plane = SpikePlane::from_tensor(&input);
            let param = format!("{out_c}ch/{:.0}%", density * 100.0);
            group.bench_with_input(BenchmarkId::new("event", &param), &plane, |b, plane| {
                b.iter(|| conv.forward_spikes(plane).expect("sparse forward"));
            });
            group.bench_with_input(BenchmarkId::new("dense", &param), &input, |b, input| {
                let mut scratch = ConvScratch::new();
                let mut out = Tensor::zeros(&[0]);
                b.iter(|| {
                    conv.forward_into(input, &mut scratch, &mut out)
                        .expect("dense forward")
                });
            });
        }
    }
    group.finish();
}

/// Deterministic dense matrix with ~25% exact zeros, the regime the
/// zero-skipping kernels see on membrane-current inputs.
fn bench_matrix(rows: usize, cols: usize, seed: usize) -> Vec<f32> {
    (0..rows * cols)
        .map(|i| {
            let h = (i + seed).wrapping_mul(2_654_435_761) % 1000;
            if h < 250 {
                0.0
            } else {
                (h as f32 - 500.0) * 1e-3
            }
        })
        .collect()
}

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul_blocked_vs_naive");
    // Paper-scale dense-fallback shapes: CONV1_1 (the analog direct-coded
    // input layer, 64×27 filter bank over a 32×32 map) and a CONV2_2-like
    // deep-layer geometry where the im2col matrix no longer fits L1.
    for &(label, m, k, n) in &[
        ("conv1_1_64x27x1024", 64_usize, 27_usize, 1024_usize),
        ("conv2_2_216x1008x256", 216, 1008, 256),
    ] {
        let a = bench_matrix(m, k, 1);
        let b = bench_matrix(k, n, 2);
        let mut out = vec![0.0_f32; m * n];
        let mut panel = Vec::new();
        group.bench_function(BenchmarkId::new("blocked", label), |bch| {
            bch.iter(|| matmul_to_with(&a, &b, m, k, n, &mut out, &mut panel));
        });
        group.bench_function(BenchmarkId::new("naive", label), |bch| {
            bch.iter(|| matmul_naive_to(&a, &b, m, k, n, &mut out));
        });
    }
    group.finish();
}

fn bench_bptt_backward(c: &mut Criterion) {
    let net = vgg9(&Vgg9Config::cifar10_small()).expect("vgg9 builds");
    let image = Tensor::from_fn(&[3, 16, 16], |i| ((i as f32) * 0.017).sin().abs());
    let encoder = Encoder::paper_direct();
    let bptt = Bptt::new(
        SurrogateKind::paper_default(),
        snn_core::quant::Precision::Fp32,
    );
    let effective = bptt.prepare(&net).expect("prepare");
    let sweep = bptt
        .forward_sweep(&net, &effective, &image, &encoder, 0)
        .expect("forward sweep");

    let mut group = c.benchmark_group("bptt_backward");
    // The production path: one persistent scratch reused across calls —
    // after the first call the backward allocates nothing per timestep.
    let mut scratch = BpttScratch::new();
    group.bench_function("scratch", |b| {
        b.iter(|| {
            bptt.backward_sweep(&net, &effective, &sweep, 3, &mut scratch)
                .expect("backward")
        });
    });
    // A cold scratch per call isolates what the buffer reuse buys.
    group.bench_function("fresh_scratch", |b| {
        b.iter(|| {
            let mut cold = BpttScratch::new();
            bptt.backward_sweep(&net, &effective, &sweep, 3, &mut cold)
                .expect("backward")
        });
    });
    group.finish();
}

fn bench_input_grad(c: &mut Criterion) {
    use snn::train::grad::{conv2d_input_grad_into, GradScratch};

    let mut group = c.benchmark_group("bptt_input_grad");
    // The small VGG9 layers whose input gradient moved most, 3x3 same
    // padding: CONV1_2 (8 -> 8 on 16x16), CONV2_2 (16 -> 16 on 8x8) and
    // CONV3_3 (24 -> 32 on 4x4).
    for &(layer, in_c, out_c, side) in &[
        ("conv1_2", 8_usize, 8_usize, 16_usize),
        ("conv2_2", 16, 16, 8),
        ("conv3_3", 24, 32, 4),
    ] {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(11);
        let conv = Conv2d::with_kaiming_init(in_c, out_c, 3, 1, 1, &mut rng).expect("conv builds");
        conv.tap_major_weight(); // warmed once per batch by Bptt::prepare
        let input_shape = [in_c, side, side];
        let cells = side * side;
        // A dense frame, and a pool-routed one: each layer here feeds a 2x2
        // spike pool, whose backward routes each window's gradient to one
        // position per channel (its first spike), so the other three are 0.
        for &(frame, pooled) in &[("dense", false), ("pooled", true)] {
            let grad = Tensor::from_fn(&[out_c, side, side], |i| {
                let (ch, y, x) = (i / cells, i % cells / side, i % side);
                let routed = (ch * 7 + y / 2 * 3 + x / 2 * 5) % 4 == y % 2 * 2 + x % 2;
                if pooled && !routed {
                    0.0
                } else {
                    ((i + 1) as f32 * 0.37).sin() * 1e-2
                }
            });
            group.bench_function(BenchmarkId::new(layer, frame), |b| {
                let mut scratch = GradScratch::new();
                let mut out = Tensor::default();
                b.iter(|| {
                    conv2d_input_grad_into(&conv, &input_shape, &grad, &mut scratch, &mut out)
                        .expect("input grad")
                });
            });
        }
    }
    group.finish();
}

fn bench_train(c: &mut Criterion) {
    let net = vgg9(&Vgg9Config::cifar10_small()).expect("vgg9 builds");
    let image = Tensor::from_fn(&[3, 16, 16], |i| ((i as f32) * 0.017).sin().abs());
    let encoder = Encoder::paper_direct();
    let bptt = Bptt::new(
        SurrogateKind::paper_default(),
        snn_core::quant::Precision::Fp32,
    );
    let effective = bptt.prepare(&net).expect("prepare");
    let data = SyntheticDataset::generate(SyntheticConfig::cifar10_like().scaled_down(16, 20, 10));

    let mut group = c.benchmark_group("train_epoch");
    // One forward+backward sample: the shipped event-driven sweeps over the
    // batch-shared quantized layers and one long-lived scratch, as a trainer
    // worker runs them, vs the retained dense reference sweep (bitwise-equal
    // gradients).
    let mut scratch = BpttScratch::new();
    group.bench_function("sample_event", |b| {
        b.iter(|| {
            let sweep = bptt
                .forward_sweep(&net, &effective, &image, &encoder, 0)
                .expect("forward sweep");
            bptt.backward_sweep(&net, &effective, &sweep, 3, &mut scratch)
                .expect("backward sweep")
        });
    });
    group.bench_function("sample_dense", |b| {
        b.iter(|| {
            bptt.sample_gradients_dense(&net, &image, 3, &encoder, 0)
                .expect("dense sweep")
        });
    });
    // A full epoch through the trainer: 8 samples, batch 4, at 1/2/4 worker
    // threads. The reference machine has one core, so the >1-thread arms
    // measure pool overhead there and scaling on multi-core runners; results
    // are bitwise identical at every thread count.
    for &threads in &[1_usize, 2, 4] {
        let mut cfg = TrainConfig::quick();
        cfg.max_train_samples = Some(8);
        cfg.batch_size = 4;
        cfg.threads = threads;
        group.bench_function(BenchmarkId::new("fit_8samples_threads", threads), |b| {
            b.iter(|| {
                let mut trainer = Trainer::new(cfg.clone()).expect("config");
                let mut train_net = net.clone();
                trainer.fit(&mut train_net, &data).expect("fit")
            });
        });
    }
    group.finish();
}

fn bench_train_checkpoint(c: &mut Criterion) {
    let data = SyntheticDataset::generate(SyntheticConfig::cifar10_like().scaled_down(16, 20, 10));
    let dir = std::env::temp_dir().join(format!("snn_bench_ckpt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    let path = dir.join("bench.snntrain");

    let base_cfg = |every: usize, with_path: bool| {
        let mut cfg = TrainConfig::quick();
        cfg.epochs = 8;
        cfg.max_train_samples = Some(8);
        cfg.batch_size = 8; // one optimizer step per epoch
        cfg.threads = 1;
        cfg.checkpoint_every = every;
        cfg.checkpoint_path = with_path.then(|| path.clone());
        cfg
    };

    // A real mid-run checkpoint for the save/load arms: stop after 1 step.
    let checkpoint = {
        let stop = StopHandle::new();
        stop.stop_after_steps(1);
        let mut net = vgg9(&Vgg9Config::cifar10_small()).expect("vgg9 builds");
        let mut trainer = Trainer::new(base_cfg(1, true)).expect("config");
        trainer
            .fit_with_stop(&mut net, &data, &stop)
            .expect("checkpointed run");
        TrainCheckpoint::load(&path).expect("load checkpoint")
    };

    let mut group = c.benchmark_group("train_checkpoint");
    // Atomic durable save (temp file + fsync + rename + CRC-64 trailer) and
    // the matching verified load.
    group.bench_function("save", |b| {
        b.iter(|| checkpoint.save(&path).expect("save"));
    });
    group.bench_function("load", |b| {
        b.iter(|| TrainCheckpoint::load(&path).expect("load"));
    });
    // Full 8-epoch fits (one step per epoch) at checkpoint cadences: none,
    // every 8 steps (the documented ops cadence) and every step.
    for &(every, with_path, label) in &[
        (0_usize, false, "none"),
        (8, true, "every8"),
        (1, true, "every1"),
    ] {
        let cfg = base_cfg(every, with_path);
        group.bench_function(BenchmarkId::new("fit_8epochs_ckpt", label), |b| {
            b.iter(|| {
                let mut trainer = Trainer::new(cfg.clone()).expect("config");
                let mut net = vgg9(&Vgg9Config::cifar10_small()).expect("vgg9 builds");
                trainer.fit(&mut net, &data).expect("fit")
            });
        });
    }
    group.finish();

    // Overhead contract, enforced in the CI smoke (`--test`) and in full
    // runs alike: at `checkpoint_every = 8`, checkpointing costs at most one
    // save per 8 optimizer steps, so its per-epoch overhead (save/8 here,
    // with one step per epoch) must stay under 5% of the epoch time.
    // Measured directly with medians so bench-loop noise can't flake CI.
    let median = |samples: &mut Vec<f64>| {
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        samples[samples.len() / 2]
    };
    let mut save_times: Vec<f64> = (0..9)
        .map(|_| {
            let start = std::time::Instant::now();
            checkpoint.save(&path).expect("save");
            start.elapsed().as_secs_f64()
        })
        .collect();
    let mut epoch_times: Vec<f64> = (0..3)
        .map(|_| {
            let mut cfg = base_cfg(0, false);
            cfg.epochs = 1;
            let mut trainer = Trainer::new(cfg).expect("config");
            let mut net = vgg9(&Vgg9Config::cifar10_small()).expect("vgg9 builds");
            let start = std::time::Instant::now();
            trainer.fit(&mut net, &data).expect("fit");
            start.elapsed().as_secs_f64()
        })
        .collect();
    let save = median(&mut save_times);
    let epoch = median(&mut epoch_times);
    let overhead = save / 8.0 / epoch;
    println!(
        "train_checkpoint overhead: save {:.1} us, epoch {:.1} us, \
         every=8 overhead {:.2}% (must stay < 5%)",
        save * 1e6,
        epoch * 1e6,
        overhead * 100.0
    );
    assert!(
        overhead < 0.05,
        "checkpoint overhead at checkpoint_every=8 must stay under 5% of \
         epoch time (save {:.1} us, epoch {:.1} us, overhead {:.2}%)",
        save * 1e6,
        epoch * 1e6,
        overhead * 100.0
    );
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(
    benches,
    bench_batches,
    bench_sparse_conv,
    bench_matmul,
    bench_bptt_backward,
    bench_input_grad,
    bench_train,
    bench_train_checkpoint
);
criterion_main!(benches);
