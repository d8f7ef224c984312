//! `train_qat`: `Trainer::fit` with Int4 QAT on the small CIFAR-10 VGG9
//! over a synthetic 16×16 set: direct coding T = 2, Adam, batch 8, two
//! threads, a checkpoint every 8 steps.
//!
//! Each timed operation is a one-epoch `fit` from the same initial weights
//! with a fresh trainer, so every operation does the same work and must end
//! in bitwise the same weights.

use crate::alloc;
use crate::forward::{SpanKind, Tracer, NO_PARENT};
use crate::profile::{Lane, Profile, Request};
use crate::report::Report;
use crate::stats::{median, Latency};
use crate::{data_seed, out_dir, setup, Args, Error};
use snn::core::network::{vgg9, Vgg9Config};
use snn::core::splitmix64;
use snn::data::{Dataset, Split, SyntheticConfig, SyntheticDataset};
use snn::train::trainer::apply_gradients;
use snn::train::{
    Adam, Bptt, BpttScratch, DataFingerprint, NetworkGradients, TrainCheckpoint, TrainConfig,
    TrainCursor, TrainReport, Trainer,
};
use snn::{Encoder, Engine, Precision, SnnNetwork};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Training samples per epoch.
const SAMPLES: usize = 64;
const BATCH: usize = 8;
const THREADS: usize = 2;
const CHECKPOINT_EVERY: usize = 8;
/// Highest percentile the epoch-time tail is printed at: a run makes under
/// a hundred epochs when the host is busy.
const TAIL_CAP: f64 = 75.0;

fn dataset(seed: u64) -> SyntheticDataset {
    SyntheticDataset::generate(SyntheticConfig {
        seed: data_seed(seed),
        ..SyntheticConfig::cifar10_like().scaled_down(16, SAMPLES, 8)
    })
}

fn checkpoint_path() -> PathBuf {
    out_dir().join(format!("train_qat-{}.ckpt", std::process::id()))
}

fn config(threads: usize, checkpoint: Option<PathBuf>) -> TrainConfig {
    let mut c = TrainConfig::quick_qat(Precision::Int4);
    c.encoder = Encoder::direct(2);
    c.batch_size = BATCH;
    c.threads = threads;
    c.epochs = 1;
    if checkpoint.is_some() {
        c.checkpoint_every = CHECKPOINT_EVERY;
    }
    c.checkpoint_path = checkpoint;
    c
}

/// FNV-1a over every weight and bias bit pattern.
fn weights_digest(network: &SnnNetwork) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for w in TrainCheckpoint::capture_weights(network) {
        for x in w.weight.as_slice().iter().chain(w.bias.as_slice()) {
            h = (h ^ u64::from(x.to_bits())).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// One `fit` of `trainer` from the pristine weights; returns the trained
/// network, the report and the time `fit` took.
fn fit_with(
    trainer: &mut Trainer,
    pristine: &SnnNetwork,
    data: &SyntheticDataset,
) -> Result<(SnnNetwork, TrainReport, Duration), Error> {
    let mut network = pristine.clone();
    let t = Instant::now();
    let report = trainer.fit(&mut network, data)?;
    Ok((network, report, t.elapsed()))
}

fn fit(
    pristine: &SnnNetwork,
    data: &SyntheticDataset,
    config: TrainConfig,
) -> Result<(SnnNetwork, TrainReport, Duration), Error> {
    let mut trainer = Trainer::new(config)?;
    fit_with(&mut trainer, pristine, data)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The training gates: event-path gradients equal the dense reference
/// bitwise on a few samples, and a short fit ends in the same weights at
/// one and two threads.
fn gates(report: &mut Report, pristine: &SnnNetwork, data: &SyntheticDataset) -> Result<(), Error> {
    let cfg = config(THREADS, None);
    let bptt = Bptt::new(cfg.surrogate, cfg.precision);
    let mut same = true;
    for i in 0..3 {
        let s = data.sample(Split::Train, i);
        let seed = splitmix64(i as u64);
        let event = bptt.sample_gradients(pristine, &s.image, s.label, &cfg.encoder, seed)?;
        let dense = bptt.sample_gradients_dense(pristine, &s.image, s.label, &cfg.encoder, seed)?;
        same &= event.loss.to_bits() == dense.loss.to_bits()
            && bits(&event.logits) == bits(&dense.logits)
            && event.total_spikes == dense.total_spikes;
        for (a, b) in event
            .gradients
            .per_layer()
            .iter()
            .zip(dense.gradients.per_layer())
        {
            same &= match (a, b) {
                (Some(a), Some(b)) => {
                    bits(a.weight.as_slice()) == bits(b.weight.as_slice())
                        && bits(a.bias.as_slice()) == bits(b.bias.as_slice())
                }
                (None, None) => true,
                _ => false,
            };
        }
    }
    report.gate("event_gradients_eq_dense", same);
    let short = |threads| {
        let mut c = config(threads, None);
        c.max_train_samples = Some(2 * BATCH);
        fit(pristine, data, c).map(|(n, _, _)| weights_digest(&n))
    };
    report.gate("fit_threads_1_eq_2", short(1)? == short(2)?);
    Ok(())
}

pub fn run(args: &Args) -> Result<Report, Error> {
    let path = checkpoint_path();
    std::fs::create_dir_all(out_dir())?;
    let s = setup(|| {
        let t = Instant::now();
        let data = dataset(args.seed);
        let generated = t.elapsed();
        let t = Instant::now();
        let network = vgg9(&Vgg9Config::cifar10_small())?;
        let mut trainer = Trainer::new(config(THREADS, Some(path.to_path_buf())))?;
        let built = t.elapsed();
        // Warm-up epoch; its weights are what every timed epoch must end in.
        let t = Instant::now();
        let (trained, _, _) = fit_with(&mut trainer, &network, &data)?;
        Ok((
            (data, network, weights_digest(&trained)),
            [generated, built, t.elapsed()],
        ))
    })?;
    let (data, pristine, reference) = s.value;
    let mut report = Report::default();
    report.line(format!(
        "train_qat: Trainer::fit, small VGG9, Int4 QAT, direct T=2, Adam, batch {BATCH}, {THREADS} threads, checkpoint every {CHECKPOINT_EVERY} steps, {SAMPLES}-sample epochs (seed {})",
        args.seed
    ));
    let result = if args.trace {
        traced(
            args,
            Profile::new(s.generate_ms, s.build_ms),
            &pristine,
            &data,
            &path,
            &mut report,
        )
    } else {
        timed(
            args,
            s.setup_s,
            &pristine,
            &data,
            reference,
            &path,
            &mut report,
        )
    };
    let _ = std::fs::remove_file(&path);
    result?;
    gates(&mut report, &pristine, &data)?;
    Ok(report)
}

fn timed(
    args: &Args,
    setup_s: f64,
    pristine: &SnnNetwork,
    data: &SyntheticDataset,
    reference: u64,
    path: &Path,
    report: &mut Report,
) -> Result<(), Error> {
    let cfg = config(THREADS, Some(path.to_path_buf()));
    let mut epochs_ms = Vec::new();
    let mut busy = Duration::ZERO;
    let (mut done, mut failed, mut same) = (0u64, 0u64, true);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while Instant::now() < deadline {
        match fit(pristine, data, cfg.clone()) {
            Ok((network, r, dt)) => {
                busy += dt;
                epochs_ms.push(dt.as_secs_f64() * 1e3);
                done += SAMPLES as u64;
                failed += r.faults.len() as u64;
                same &= r.completed && weights_digest(&network) == reference;
            }
            Err(_) => failed += SAMPLES as u64,
        }
    }
    report.ops(done + failed, failed);
    report.gate("every_epoch_ends_in_the_same_weights", same);
    let lat = Latency::of(&epochs_ms, TAIL_CAP);
    report.line(format!(
        "{} epochs, {done} samples in {:.3} s of fit; epoch p50 {:.2} ms, p{} {:.2} ms",
        epochs_ms.len(),
        busy.as_secs_f64(),
        lat.p50,
        lat.tail_pct,
        lat.tail
    ));
    // Throughput from the median epoch, steadier than the mean on a noisy
    // host.
    report.end_to_end = crate::end_to_end(
        setup_s,
        alloc::peak_heap_bytes(),
        SAMPLES as f64 / (lat.p50 / 1e3),
        lat.p50,
    );
    Ok(())
}

/// The traced run: the training step's public calls one at a time, then
/// the per-layer table of the forward over the same images.
fn traced(
    args: &Args,
    mut profile: Profile,
    pristine: &SnnNetwork,
    data: &SyntheticDataset,
    path: &Path,
    report: &mut Report,
) -> Result<(), Error> {
    let cfg = config(THREADS, Some(path.to_path_buf()));
    let bptt = Bptt::new(cfg.surrogate, cfg.precision);
    let mut scratch = BpttScratch::new();
    let mut network = pristine.clone();
    let mut adam = Adam::new(cfg.learning_rate);
    let samples: Vec<_> = (0..SAMPLES).map(|i| data.sample(Split::Train, i)).collect();
    let mut tr = Tracer::new();
    let (mut steps, mut sampled, mut allocs) = (0u64, 0u64, 0u64);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds / 2.0);
    let mut warm = true;
    while warm || Instant::now() < deadline {
        for batch in samples.chunks(BATCH) {
            let root = tr.open(SpanKind::Train("step"), 0, steps as u32, NO_PARENT);
            let span = tr.open(SpanKind::Train("prepare"), 0, steps as u32, root);
            let effective = bptt.prepare(&network)?;
            tr.close(span);
            let mut grads = NetworkGradients::zeros_like(&network);
            for (j, s) in batch.iter().enumerate() {
                let seed = splitmix64(j as u64);
                let (outcome, n, _) = alloc::count(|| -> Result<(), Error> {
                    let span = tr.open(SpanKind::Train("forward_sweep"), 0, steps as u32, root);
                    let sweep =
                        bptt.forward_sweep(&network, &effective, &s.image, &cfg.encoder, seed)?;
                    tr.close(span);
                    let span = tr.open(SpanKind::Train("backward_sweep"), 0, steps as u32, root);
                    let r =
                        bptt.backward_sweep(&network, &effective, &sweep, s.label, &mut scratch)?;
                    tr.close(span);
                    grads.accumulate(&r.gradients)?;
                    Ok(())
                });
                outcome?;
                if !warm {
                    allocs += n;
                    sampled += 1;
                }
            }
            grads.scale(1.0 / batch.len() as f32);
            let span = tr.open(SpanKind::Train("apply_gradients"), 0, steps as u32, root);
            apply_gradients(&mut network, &grads, &mut adam)?;
            tr.close(span);
            tr.close(root);
            steps += 1;
        }
        if warm {
            // Drop the warm-up epoch's spans from the totals below.
            tr = Tracer::new();
            warm = false;
        }
    }
    let checkpoint = TrainCheckpoint {
        config: cfg.clone(),
        data: DataFingerprint::of(data),
        cursor: TrainCursor::default(),
        report: TrainReport::default(),
        weights: TrainCheckpoint::capture_weights(&network),
        optimizer: adam.state(),
    };
    let mut save_ms = Vec::new();
    for _ in 0..8 {
        let span = tr.open(SpanKind::Train("checkpoint_save"), 0, 0, NO_PARENT);
        let t = Instant::now();
        checkpoint.save(path)?;
        save_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tr.close(span);
    }
    let phase_us = |name: &str| -> f64 {
        tr.spans()
            .iter()
            .filter(|s| matches!(s.kind, SpanKind::Train(n) if n == name))
            .map(|s| s.ns() as f64 / 1e3)
            .sum()
    };
    let per_sample = sampled.max(1) as f64;
    report.line(format!(
        "train over {steps} steps / {sampled} samples: train.prepare_us_per_batch {:.2}, train.forward_us_per_sample {:.2}, train.backward_us_per_sample {:.2}, train.optim_us_per_step {:.2}, train.ckpt_save_ms {:.3}, train.bptt_allocs_per_sample {:.1}",
        phase_us("prepare") / steps.max(1) as f64,
        phase_us("forward_sweep") / per_sample,
        phase_us("backward_sweep") / per_sample,
        phase_us("apply_gradients") / steps.max(1) as f64,
        median(&save_ms),
        allocs as f64 / per_sample,
    ));
    report.ops(sampled, 0);

    // The per-layer table: the QAT model's forward at Int4 over the
    // training images.
    let engine = Engine::builder()
        .network(pristine.clone())
        .encoder(cfg.encoder)
        .precision(cfg.precision)
        .threads(1)
        .build()?;
    let mut lanes = vec![Lane::new(engine)?];
    let requests: Vec<Request<'_>> = samples.iter().map(|s| (0, &s.image, 0)).collect();
    Profile::warm(&mut lanes, &requests[..1])?;
    let budget = Duration::from_secs_f64(args.seconds / 2.0);
    let layer_tr = profile.run_for(&mut lanes, &requests, budget, report)?;
    tr.write_jsonl(&out_dir().join("spans-train_qat-steps.jsonl"))?;
    layer_tr.write_jsonl(&out_dir().join("spans-train_qat.jsonl"))?;
    report.lines.extend(profile.table());
    report.per_layer = profile.metrics();
    Ok(())
}
