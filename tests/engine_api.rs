//! Integration tests of the unified `Engine`/`Session` execution API:
//! builder validation against the network geometry, and bitwise determinism
//! of batched inference versus sequential low-level runs.

use snn::core::network::{vgg9, RunState, Vgg9Config};
use snn::{Encoder, Engine, HwConfig, PerfScale, Precision, Tensor};

fn images(n: usize) -> Vec<Tensor> {
    (0..n)
        .map(|k| {
            Tensor::from_fn(&[3, 16, 16], move |i| {
                (((i + 977 * k) as f32) * 0.0173).sin().abs()
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Builder validation
// ---------------------------------------------------------------------------

#[test]
fn build_without_network_is_rejected() {
    let err = Engine::builder().build().unwrap_err();
    assert!(err.to_string().contains("network"), "got: {err}");
}

#[test]
fn allocation_shorter_than_geometry_is_rejected() {
    // The small VGG9 has 9 weight layers; with the dense core enabled the
    // allocation must cover 1 dense + 8 sparse layers.
    let err = Engine::builder()
        .network(vgg9(&Vgg9Config::cifar10_small()).unwrap())
        .hardware_allocation("short", &[1, 4, 2, 4])
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("allocation"), "got: {err}");
}

#[test]
fn zero_core_allocation_is_rejected() {
    let err = Engine::builder()
        .network(vgg9(&Vgg9Config::cifar10_small()).unwrap())
        .hardware_allocation("zero", &[1, 4, 0, 4, 2, 4, 4, 2, 1])
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("core"), "got: {err}");
}

#[test]
fn zero_timestep_encoder_is_rejected() {
    let err = Engine::builder()
        .network(vgg9(&Vgg9Config::cifar10_small()).unwrap())
        .encoder(Encoder::direct(0))
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("timestep"), "got: {err}");
}

#[test]
fn rate_coding_with_dense_core_is_rejected_and_fix_is_accepted() {
    let hw = HwConfig::from_allocation("rate", Precision::Int4, &[1, 1, 8, 4, 18, 6, 6, 20, 2, 1])
        .unwrap();
    let builder = Engine::builder()
        .network(vgg9(&Vgg9Config::cifar10_small()).unwrap())
        .encoder(Encoder::rate(4))
        .precision(Precision::Int4);
    let err = builder.clone().hardware(hw.clone()).build().unwrap_err();
    assert!(err.to_string().contains("dense core"), "got: {err}");
    // The suggested fix builds and runs.
    let engine = builder.hardware(hw.without_dense_core()).build().unwrap();
    let report = engine.session().run(&images(1)[0]).unwrap();
    assert_eq!(report.timesteps, 4);
}

#[test]
fn unknown_paper_dataset_is_rejected() {
    let err = Engine::builder()
        .network(vgg9(&Vgg9Config::cifar10_small()).unwrap())
        .hardware_paper("imagenet", PerfScale::Lw)
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("imagenet"), "got: {err}");
}

#[test]
fn wrong_image_shape_is_rejected_at_run_time() {
    let engine = Engine::builder()
        .network(vgg9(&Vgg9Config::cifar10_small()).unwrap())
        .build()
        .unwrap();
    let wrong = Tensor::zeros(&[3, 32, 32]);
    assert!(engine.session().run(&wrong).is_err());
}

// ---------------------------------------------------------------------------
// Batch determinism
// ---------------------------------------------------------------------------

#[test]
fn run_batch_matches_sequential_low_level_runs_bitwise() {
    let n = 6;
    let imgs = images(n);

    // Engine path: one session, one batch.
    let engine = Engine::builder()
        .network(vgg9(&Vgg9Config::cifar10_small()).unwrap())
        .encoder(Encoder::paper_direct())
        .precision(Precision::Int4)
        .hardware_allocation("det", &[1, 8, 4, 18, 6, 6, 20, 2, 1])
        .build()
        .unwrap();
    let batch = engine.session().run_batch(&imgs).unwrap();
    assert_eq!(batch.len(), n);

    // Low-level path: quantize the same way, run each image separately with
    // the matching seed and a fresh per-run state.
    let mut reference = vgg9(&Vgg9Config::cifar10_small()).unwrap();
    reference.apply_precision(Precision::Int4).unwrap();
    for (i, image) in imgs.iter().enumerate() {
        let seq = reference
            .run_seeded(image, &Encoder::paper_direct(), i as u64)
            .unwrap();
        let got = &batch.reports[i];
        assert_eq!(
            got.logits, seq.logits,
            "batched logits diverge from sequential run for image {i}"
        );
        assert_eq!(got.prediction, seq.prediction);
        assert_eq!(got.traces, seq.traces);
        assert_eq!(got.timesteps, seq.timesteps);
    }
}

#[test]
fn run_batch_is_deterministic_with_stochastic_rate_coding() {
    let imgs = images(4);
    let hw = HwConfig::from_allocation(
        "rate-det",
        Precision::Int4,
        &[1, 1, 8, 4, 18, 6, 6, 20, 2, 1],
    )
    .unwrap()
    .without_dense_core();
    let engine = Engine::builder()
        .network(vgg9(&Vgg9Config::cifar10_small()).unwrap())
        .encoder(Encoder::rate(6))
        .precision(Precision::Int4)
        .hardware(hw)
        .build()
        .unwrap();

    let a = engine.session().run_batch(&imgs).unwrap();
    let b = engine.session().run_batch(&imgs).unwrap();
    for (ra, rb) in a.reports.iter().zip(b.reports.iter()) {
        assert_eq!(ra.logits, rb.logits);
    }

    // And batch seeding matches the low-level API: image i uses seed i.
    let mut reference = vgg9(&Vgg9Config::cifar10_small()).unwrap();
    reference.apply_precision(Precision::Int4).unwrap();
    let mut state = RunState::new(&reference).unwrap();
    for (i, image) in imgs.iter().enumerate() {
        let seq = reference
            .run_with_state(image, &Encoder::rate(6), i as u64, &mut state)
            .unwrap();
        assert_eq!(a.reports[i].logits, seq.logits);
    }
}

#[test]
fn reused_session_state_does_not_leak_between_runs() {
    // Running the same image twice in one session (state reset) must equal a
    // fresh session's result exactly.
    let engine = Engine::builder()
        .network(vgg9(&Vgg9Config::cifar10_small()).unwrap())
        .precision(Precision::Int4)
        .build()
        .unwrap();
    let image = &images(1)[0];
    let mut session = engine.session();
    let first = session.run(image).unwrap();
    let second = session.run(image).unwrap();
    let fresh = engine.session().run(image).unwrap();
    assert_eq!(first.logits, second.logits);
    assert_eq!(first.logits, fresh.logits);
}

#[test]
fn batch_base_seed_offsets_apply() {
    let imgs = images(3);
    let engine = Engine::builder()
        .network(vgg9(&Vgg9Config::cifar10_small()).unwrap())
        .encoder(Encoder::rate(5))
        .build()
        .unwrap();
    let mut session = engine.session();
    let batch = session.run_batch_seeded(&imgs, 100).unwrap();
    for (i, image) in imgs.iter().enumerate() {
        let solo = session.run_seeded(image, 100 + i as u64).unwrap();
        assert_eq!(batch.reports[i].logits, solo.logits);
    }
}
