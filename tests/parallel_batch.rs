//! Bitwise determinism of parallel batched inference: `run_batch` fanned out
//! over scoped worker threads must equal sequential `run_seeded` calls with
//! the same seeds, at every thread count and for both coding schemes.

use snn::{Encoder, Engine, HwConfig, Precision, Tensor};
use snn_core::network::{vgg9, Vgg9Config};

fn images(n: usize) -> Vec<Tensor> {
    (0..n)
        .map(|k| {
            Tensor::from_fn(&[3, 16, 16], move |i| {
                (((i + 613 * k) as f32) * 0.0191).sin().abs()
            })
        })
        .collect()
}

fn engine_with_threads(threads: usize, encoder: Encoder) -> Engine {
    let mut builder = Engine::builder()
        .network(vgg9(&Vgg9Config::cifar10_small()).unwrap())
        .encoder(encoder)
        .precision(Precision::Int4)
        .threads(threads);
    builder = if encoder.produces_binary_input() {
        builder.hardware(
            HwConfig::from_allocation("par", Precision::Int4, &[1, 1, 8, 4, 18, 6, 6, 20, 2, 1])
                .unwrap()
                .without_dense_core(),
        )
    } else {
        builder.hardware_allocation("par", &[1, 8, 4, 18, 6, 6, 20, 2, 1])
    };
    builder.build().unwrap()
}

#[test]
fn parallel_run_batch_is_bitwise_equal_to_sequential_run_seeded() {
    let imgs = images(7); // deliberately not a multiple of the thread count
    let reference = engine_with_threads(1, Encoder::paper_direct());
    let mut ref_session = reference.session();
    let sequential: Vec<_> = imgs
        .iter()
        .enumerate()
        .map(|(i, img)| ref_session.run_seeded(img, i as u64).unwrap())
        .collect();

    for threads in [2, 3, 4, 8] {
        let engine = engine_with_threads(threads, Encoder::paper_direct());
        assert_eq!(engine.threads(), threads);
        let batch = engine.session().run_batch(&imgs).unwrap();
        assert_eq!(batch.len(), imgs.len());
        for (i, (par, seq)) in batch.reports.iter().zip(sequential.iter()).enumerate() {
            assert_eq!(
                par.logits, seq.logits,
                "parallel ({threads} threads) logits diverge at image {i}"
            );
            assert_eq!(par.prediction, seq.prediction);
            assert_eq!(par.traces, seq.traces);
            assert_eq!(par.hardware, seq.hardware);
        }
    }
}

#[test]
fn parallel_run_batch_matches_with_stochastic_rate_coding() {
    let imgs = images(5);
    let sequential = engine_with_threads(1, Encoder::rate(6))
        .session()
        .run_batch_seeded(&imgs, 42)
        .unwrap();
    let parallel = engine_with_threads(4, Encoder::rate(6))
        .session()
        .run_batch_seeded(&imgs, 42)
        .unwrap();
    for (par, seq) in parallel.reports.iter().zip(sequential.reports.iter()) {
        assert_eq!(par.logits, seq.logits);
        assert_eq!(par.traces, seq.traces);
    }
    assert_eq!(
        parallel.total_latency_ms.to_bits(),
        sequential.total_latency_ms.to_bits()
    );
    assert_eq!(
        parallel.total_energy_mj.to_bits(),
        sequential.total_energy_mj.to_bits()
    );
}

#[test]
fn parallel_session_reuses_worker_states_across_batches() {
    let engine = engine_with_threads(3, Encoder::paper_direct());
    let mut session = engine.session();
    let imgs = images(6);
    let first = session.run_batch(&imgs).unwrap();
    let second = session.run_batch(&imgs).unwrap();
    for (a, b) in first.reports.iter().zip(second.reports.iter()) {
        assert_eq!(a.logits, b.logits);
    }
}

#[test]
fn more_threads_than_images_is_fine() {
    let engine = engine_with_threads(16, Encoder::paper_direct());
    let imgs = images(2);
    let batch = engine.session().run_batch(&imgs).unwrap();
    assert_eq!(batch.len(), 2);
    let empty = engine.session().run_batch(&[]).unwrap();
    assert!(empty.is_empty());
}

#[test]
fn builder_threads_clamps_to_one() {
    let engine = engine_with_threads(0, Encoder::paper_direct());
    assert_eq!(engine.threads(), 1);
}

#[test]
fn parallel_batch_error_reports_lowest_failing_image() {
    let engine = engine_with_threads(4, Encoder::paper_direct());
    let mut imgs = images(6);
    imgs[2] = Tensor::zeros(&[3, 8, 8]); // wrong shape
    let err = engine.session().run_batch(&imgs).unwrap_err();
    assert!(err.to_string().contains("input image"), "got: {err}");
}
