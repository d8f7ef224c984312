//! The serving layer's core guarantee: dynamic batching is a scheduling
//! decision, never a numerical one. A request served through
//! `ServeCore<Engine>` — coalesced into whatever batch the load produced —
//! must return bitwise-identical logits, spike traces and hardware estimates
//! to a plain sequential `Session::run_seeded` call with the same image and
//! seed, at every queue depth, batch budget and thread count.

use snn::core::encoding::Encoder;
use snn::core::network::{vgg9, Vgg9Config};
use snn::core::tensor::Tensor;
use snn::serve::{
    InferenceRequest, ModelRunner, ResponseHandle, ServeConfig, ServeCore, ServeModel,
};
use snn::{Engine, Precision, RunReport, SnnError};
use std::time::Duration;

fn engine(threads: usize) -> Engine {
    Engine::builder()
        .network(vgg9(&Vgg9Config::cifar10_small()).unwrap())
        .encoder(Encoder::direct(2))
        .precision(Precision::Int4)
        .hardware_allocation("serve-test", &[1, 4, 2, 4, 2, 4, 4, 2, 1])
        .threads(threads)
        .build()
        .unwrap()
}

fn test_image(i: usize) -> Tensor {
    Tensor::from_fn(&[3, 16, 16], move |p| {
        (((p + 97 * i) as f32) * 0.013).sin().abs()
    })
}

/// Sequential ground truth: one fresh session, `run_seeded` per image.
fn sequential_reports(engine: &Engine, images: &[Tensor], seeds: &[u64]) -> Vec<RunReport> {
    let mut session = engine.session();
    images
        .iter()
        .zip(seeds)
        .map(|(image, &seed)| session.run_seeded(image, seed).unwrap())
        .collect()
}

/// Submits every request up front (forcing coalescing at the configured
/// batch budget), waits for all, and checks each against the sequential
/// reference bitwise.
fn assert_served_matches_sequential(
    engine: &Engine,
    config: ServeConfig,
    n_requests: usize,
    seed_stride: u64,
) {
    let images: Vec<Tensor> = (0..n_requests).map(test_image).collect();
    let seeds: Vec<u64> = (0..n_requests as u64)
        .map(|i| 1000 + i * seed_stride)
        .collect();
    let expected = sequential_reports(engine, &images, &seeds);

    let core = ServeCore::start(engine.clone(), config).unwrap();
    let handles: Vec<ResponseHandle> = images
        .iter()
        .zip(&seeds)
        .map(|(image, &seed)| {
            core.submit(InferenceRequest::seeded(image.clone(), seed))
                .expect("queue sized for the whole test burst")
        })
        .collect();

    let mut coalesced = false;
    for (i, handle) in handles.into_iter().enumerate() {
        let response = handle.wait().expect("request completes");
        let want = &expected[i];
        assert_eq!(
            response.result.logits, want.logits,
            "request {i}: batched logits must be bitwise-identical to run_seeded"
        );
        assert_eq!(response.result.prediction, want.prediction);
        assert_eq!(
            response.result.traces, want.traces,
            "request {i}: spike traces must match bitwise"
        );
        let hardware = response.result.hardware.expect("engine produces estimates");
        assert_eq!(
            hardware, want.hardware,
            "request {i}: hardware estimate must match bitwise"
        );
        coalesced |= response.batch_size > 1;
    }
    let stats = core.stats();
    assert_eq!(stats.completed as usize, n_requests);
    assert_eq!(stats.model_errors, 0);
    if core.stats().peak_batch > 1 {
        assert!(coalesced, "peak_batch > 1 implies some response saw it");
    }
    core.shutdown();
}

#[test]
fn coalesced_batches_match_sequential_single_thread() {
    // Queue depth 12 against max_batch 4: requests are forced to coalesce.
    let engine = engine(1);
    assert_served_matches_sequential(
        &engine,
        ServeConfig {
            max_batch: 4,
            max_delay: Duration::from_millis(20),
            queue_capacity: 64,
            workers: Some(1),
            ..ServeConfig::default()
        },
        12,
        7,
    );
}

#[test]
fn coalesced_batches_match_sequential_multi_thread() {
    // Same workload, engine fanning each coalesced batch over 4 threads.
    let engine = engine(4);
    assert_served_matches_sequential(
        &engine,
        ServeConfig {
            max_batch: 8,
            max_delay: Duration::from_millis(20),
            queue_capacity: 64,
            workers: Some(1),
            ..ServeConfig::default()
        },
        12,
        13,
    );
}

#[test]
fn second_queue_depth_and_worker_count_match_sequential() {
    // A different (depth, batch budget, serve-worker) point: two serve
    // workers racing over the queue, small batches. Completion order varies;
    // results must not.
    let engine = engine(2);
    assert_served_matches_sequential(
        &engine,
        ServeConfig {
            max_batch: 3,
            max_delay: Duration::from_millis(5),
            queue_capacity: 64,
            workers: Some(2),
            ..ServeConfig::default()
        },
        9,
        31,
    );
}

#[test]
fn single_request_equals_batch_of_one() {
    let engine = engine(1);
    let image = test_image(3);
    let mut session = engine.session();
    let want = session.run_seeded(&image, 42).unwrap();

    let core = ServeCore::start(engine.clone(), ServeConfig::default()).unwrap();
    let response = core
        .infer(InferenceRequest::seeded(image, 42))
        .expect("serves");
    assert_eq!(response.result.logits, want.logits);
    assert_eq!(response.result.traces, want.traces);
    assert_eq!(response.result.hardware.unwrap(), want.hardware);
    assert_eq!(response.batch_size, 1);
    core.shutdown();
}

#[test]
fn run_batch_with_seeds_matches_run_seeded() {
    // The facade primitive the serving runner rides on, tested directly:
    // arbitrary (non-contiguous) seeds, parallel batch vs sequential runs.
    let engine = engine(4);
    let images: Vec<Tensor> = (0..6).map(test_image).collect();
    let seeds: Vec<u64> = vec![9, 2, 77, 2, 500, 13];
    let expected = sequential_reports(&engine, &images, &seeds);
    let batch = engine
        .session()
        .run_batch_with_seeds(&images, &seeds)
        .unwrap();
    assert_eq!(batch.reports.len(), expected.len());
    for (got, want) in batch.reports.iter().zip(&expected) {
        assert_eq!(got.logits, want.logits);
        assert_eq!(got.traces, want.traces);
        assert_eq!(got.hardware, want.hardware);
    }
    // Mismatched lengths are a config error, not a panic.
    assert!(engine
        .session()
        .run_batch_with_seeds(&images, &seeds[..3])
        .is_err());
}

#[test]
fn engine_runner_attributes_errors_per_request() {
    // A wrong-shape request inside a coalesced batch gets its own typed
    // error, and its neighbours still get their run_seeded results bitwise,
    // whether the batch runs on one thread or fans out over two.
    for threads in [1, 2] {
        let engine = engine(threads);
        let seeds = [5u64, 6, 7];
        let images = [test_image(0), Tensor::zeros(&[3, 8, 8]), test_image(2)];
        let requests = images
            .iter()
            .zip(seeds)
            .map(|(image, seed)| InferenceRequest::seeded(image.clone(), seed))
            .collect();
        let results = engine.runner().run_batch(requests);
        assert_eq!(results.len(), 3, "{threads} threads");
        match &results[1] {
            Err(SnnError::ShapeMismatch { actual, .. }) => assert_eq!(actual, &[3, 8, 8]),
            other => panic!("{threads} threads: expected a shape error, got {other:?}"),
        }
        let mut session = engine.session();
        for i in [0, 2] {
            let want = session.run_seeded(&images[i], seeds[i]).unwrap();
            let got = results[i].as_ref().expect("healthy neighbour is served");
            assert_eq!(got.logits, want.logits, "{threads} threads, request {i}");
            assert_eq!(got.traces, want.traces, "{threads} threads, request {i}");
            assert_eq!(got.hardware.as_ref(), Some(&want.hardware));
        }
    }
}
