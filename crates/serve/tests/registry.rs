//! The registry's lifecycle guarantees, proven against hostile schedules:
//! named routing with typed 404s, golden-probe validation that keeps bad
//! candidates out without disturbing the incumbent, epoch-pinned hot swaps
//! under concurrent load (every accepted request resolves exactly once,
//! bitwise-equal to *some* published version — never a torn blend), and
//! spike-rate drift detection driving the per-model health state machine
//! under both the annotate and shed policies.

use snn_core::network::LayerTrace;
use snn_core::stats::DriftConfig;
use snn_core::tensor::Tensor;
use snn_core::SnnError;
use snn_serve::{
    DriftPolicy, InferenceRequest, InferenceResult, ModelHealth, ModelRunner, ModelZoo, ProbeSpec,
    ServeConfig, ServeError, ServeModel, ZooConfig,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How a stub (mis)behaves — the candidate zoo for validation tests.
#[derive(Clone, Copy)]
enum Mode {
    Normal,
    NonFinite,
    WrongClasses,
    Panics,
}

/// A deterministic stub model: logits are a pure function of
/// `(image, seed, scale)`, and the traces' spike rates are proportional
/// to the input magnitude — so shifting the traffic distribution shifts
/// the per-layer spike rates the drift tracker sees, exactly like a real
/// workload drifting off its calibration set.
#[derive(Clone)]
struct Stub {
    scale: f32,
    mode: Mode,
}

impl Stub {
    fn normal(scale: f32) -> Self {
        Stub {
            scale,
            mode: Mode::Normal,
        }
    }
}

fn stub_logits(sum: f32, seed: u64, scale: f32) -> Vec<f32> {
    vec![sum * scale, sum + (seed % 1024) as f32]
}

/// One stub layer of `neurons` neurons firing `spikes` spikes over two
/// timesteps.
fn stub_trace(name: &str, spikes: u64, neurons: u64) -> LayerTrace {
    LayerTrace {
        name: name.to_string(),
        geometry: None,
        input_events: vec![0, 0],
        output_spikes: vec![spikes, 0],
        output_neurons: neurons,
        spikes: None,
    }
}

struct StubRunner {
    scale: f32,
    mode: Mode,
}

impl ModelRunner for StubRunner {
    fn run_batch(
        &mut self,
        requests: Vec<InferenceRequest>,
    ) -> Vec<Result<InferenceResult, SnnError>> {
        requests
            .into_iter()
            .map(|r| {
                if matches!(self.mode, Mode::Panics) {
                    panic!("defective candidate");
                }
                let sum: f32 = r.image.as_slice().iter().sum();
                let logits = match self.mode {
                    Mode::NonFinite => vec![f32::NAN, 0.0],
                    Mode::WrongClasses => vec![sum, sum, sum],
                    _ => stub_logits(sum, r.seed, self.scale),
                };
                let mut result = InferenceResult::from_logits(logits);
                let spikes = (sum.abs() * 100.0) as u64;
                result.traces = vec![
                    stub_trace("conv1", spikes, 1000),
                    stub_trace("fc", spikes / 2 + 1, 500),
                ];
                Ok(result)
            })
            .collect()
    }
}

impl ServeModel for Stub {
    type Runner = StubRunner;

    fn runner(&self) -> StubRunner {
        StubRunner {
            scale: self.scale,
            mode: self.mode,
        }
    }
}

fn image(v: f32) -> Tensor {
    Tensor::from_vec(vec![v; 4], &[4]).unwrap()
}

fn probe() -> ProbeSpec {
    ProbeSpec::sanity(image(0.25), 7, 2)
}

fn config() -> ZooConfig {
    ZooConfig {
        serve: ServeConfig {
            workers: Some(2),
            queue_capacity: 256,
            ..ServeConfig::default()
        },
        probes: vec![probe()],
        ..ZooConfig::default()
    }
}

/// Small drift window so tests flip the health state in tens of requests.
fn drift_config() -> DriftConfig {
    DriftConfig {
        calibration: 8,
        window: 16,
        min_window: 8,
        threshold: 0.5,
    }
}

#[test]
fn routes_by_name_with_typed_unknown_model() {
    let zoo = ModelZoo::new();
    zoo.register("alpha", "v1", Stub::normal(1.0), config())
        .unwrap();
    zoo.register("beta", "v1", Stub::normal(2.0), config())
        .unwrap();
    assert_eq!(zoo.models(), vec!["alpha".to_string(), "beta".to_string()]);
    assert_eq!(zoo.default_model().as_deref(), Some("alpha"));

    let sum = 4.0 * 0.5;
    let a = zoo
        .infer(InferenceRequest::seeded(image(0.5), 3).with_model("alpha"))
        .unwrap();
    assert_eq!(a.result.logits, stub_logits(sum, 3, 1.0));
    let b = zoo
        .infer(InferenceRequest::seeded(image(0.5), 3).with_model("beta"))
        .unwrap();
    assert_eq!(b.result.logits, stub_logits(sum, 3, 2.0));
    // No model id → the first registered model.
    let d = zoo.infer(InferenceRequest::seeded(image(0.5), 3)).unwrap();
    assert_eq!(d.result.logits, a.result.logits);

    match zoo.infer(InferenceRequest::seeded(image(0.5), 3).with_model("gamma")) {
        Err(ServeError::UnknownModel { model }) => assert_eq!(model, "gamma"),
        other => panic!("expected UnknownModel, got {other:?}"),
    }
    // Duplicate names are refused without disturbing the original.
    assert!(zoo
        .register("alpha", "v9", Stub::normal(9.0), config())
        .is_err());
    assert_eq!(zoo.models().len(), 2);
    zoo.shutdown();
}

/// The hot-reload safety core: a candidate failing validation — NaN
/// logits, wrong class count, a panic, or a golden mismatch — never
/// serves a request, and the incumbent's results stay bitwise unchanged
/// through every rejected swap.
#[test]
fn failed_validation_never_serves_and_never_disturbs_incumbent() {
    let zoo = ModelZoo::new();
    zoo.register("m", "v1", Stub::normal(1.0), config())
        .unwrap();
    let want = zoo
        .infer(InferenceRequest::seeded(image(0.75), 11))
        .unwrap()
        .result
        .logits;

    for (version, mode) in [
        ("nan", Mode::NonFinite),
        ("ragged", Mode::WrongClasses),
        ("panicky", Mode::Panics),
    ] {
        let candidate = Stub { scale: 1.0, mode };
        match zoo.swap("m", version, candidate) {
            Err(ServeError::ValidationFailed { version: v, .. }) => assert_eq!(v, version),
            other => panic!("candidate {version} must fail validation, got {other:?}"),
        }
        // The incumbent keeps serving, bitwise unchanged.
        let got = zoo
            .infer(InferenceRequest::seeded(image(0.75), 11))
            .unwrap();
        assert_eq!(got.result.logits, want);
    }

    let stats = zoo.stats();
    let m = &stats.models["m"];
    assert_eq!(m.version, "v1");
    assert_eq!(m.validation_failures, 3);
    assert_eq!(m.swaps, 0);
    zoo.shutdown();
}

/// Golden probes pin the *exact* outputs: after recording goldens from a
/// known-good version, a candidate whose logits differ bitwise is
/// refused; a bit-identical reload passes.
#[test]
fn golden_probes_require_bitwise_reproduction() {
    let zoo = ModelZoo::new();
    zoo.register("m", "v1", Stub::normal(1.0), config())
        .unwrap();
    zoo.record_golden("m").unwrap();

    match zoo.swap("m", "v2-different", Stub::normal(2.0)) {
        Err(ServeError::ValidationFailed { reason, .. }) => {
            assert!(reason.contains("golden"), "got: {reason}");
        }
        other => panic!("diverging candidate must fail golden probes, got {other:?}"),
    }
    // A bit-identical reload of the same weights passes the same probes.
    zoo.swap("m", "v2-same", Stub::normal(1.0)).unwrap();
    assert_eq!(zoo.stats().models["m"].version, "v2-same");
    assert_eq!(zoo.rollback("m").unwrap(), "v1");
    zoo.shutdown();
}

/// The chaos suite: four producers hammer the zoo while the main thread
/// runs repeated validated swap / rollback cycles between scales 1.0 and
/// 3.0. Every accepted request must resolve exactly once with a typed
/// outcome, and every successful response must be bitwise-equal to what a
/// sequential run on *one* of the published versions produces — a torn or
/// blended result fails the assertion.
#[test]
fn hot_swap_under_concurrent_load_is_exactly_once_and_never_torn() {
    let zoo = ModelZoo::new();
    zoo.register("m", "v1", Stub::normal(1.0), config())
        .unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let accepted = Arc::new(AtomicUsize::new(0));
    let succeeded = Arc::new(AtomicUsize::new(0));
    let typed_errors = Arc::new(AtomicUsize::new(0));
    let mut producers = Vec::new();
    for t in 0..4u64 {
        let zoo = zoo.clone();
        let stop = Arc::clone(&stop);
        let accepted = Arc::clone(&accepted);
        let succeeded = Arc::clone(&succeeded);
        let typed_errors = Arc::clone(&typed_errors);
        producers.push(std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let v = ((t * 31 + i) % 17) as f32 * 0.25 + 0.5;
                let seed = t * 1_000_000 + i;
                match zoo.submit(InferenceRequest::seeded(image(v), seed)) {
                    Ok(handle) => {
                        accepted.fetch_add(1, Ordering::Relaxed);
                        match handle.wait() {
                            Ok(response) => {
                                let sum = v * 4.0;
                                let on_v1 = stub_logits(sum, seed, 1.0);
                                let on_v2 = stub_logits(sum, seed, 3.0);
                                assert!(
                                    response.result.logits == on_v1
                                        || response.result.logits == on_v2,
                                    "torn result: {:?} is neither version's output",
                                    response.result.logits
                                );
                                succeeded.fetch_add(1, Ordering::Relaxed);
                            }
                            // Any *typed* failure is an acceptable outcome
                            // under chaos; a hang or panic is not.
                            Err(_) => {
                                typed_errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    Err(ServeError::Overloaded { .. }) => {}
                    Err(e) => panic!("unexpected submit error: {e:?}"),
                }
                i += 1;
            }
        }));
    }

    for cycle in 0..6 {
        zoo.swap("m", format!("v2-{cycle}"), Stub::normal(3.0))
            .unwrap();
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(zoo.rollback("m").unwrap(), "v1");
        std::thread::sleep(Duration::from_millis(5));
    }
    stop.store(true, Ordering::Relaxed);
    for p in producers {
        p.join().expect("producer panicked");
    }

    // Exactly once: every accepted request produced one typed outcome.
    assert_eq!(
        accepted.load(Ordering::Relaxed),
        succeeded.load(Ordering::Relaxed) + typed_errors.load(Ordering::Relaxed)
    );
    assert!(
        succeeded.load(Ordering::Relaxed) > 0,
        "no request succeeded"
    );
    let stats = zoo.stats();
    assert_eq!(stats.models["m"].swaps, 6);
    assert_eq!(stats.models["m"].rollbacks, 6);
    assert_eq!(stats.models["m"].version, "v1");
    zoo.shutdown();
}

/// Drift lifecycle under the annotate policy: stationary traffic stays
/// Healthy, a 16× spike-rate shift flips the model to Degraded (naming
/// the diverging layer and its KL) within one tracker window, responses
/// get the degraded annotation, and a rollback clears the flag by
/// recalibrating against current traffic.
#[test]
fn drift_flags_degraded_within_window_and_rollback_clears() {
    let zoo = ModelZoo::new();
    let cfg = ZooConfig {
        drift: drift_config(),
        drift_policy: DriftPolicy::Annotate,
        ..config()
    };
    zoo.register("m", "v1", Stub::normal(1.0), cfg).unwrap();
    // Publish v2 so a rollback target exists; the tracker recalibrates.
    zoo.swap("m", "v2", Stub::normal(1.0)).unwrap();

    // Calibration + window fill on stationary traffic (sum = 1 → ~100
    // spikes/layer): Healthy throughout.
    for i in 0..24u64 {
        let (response, degraded) = zoo
            .infer_annotated(InferenceRequest::seeded(image(0.25), i))
            .unwrap();
        assert!(!degraded);
        assert!(response.result.logits[0].is_finite());
    }
    assert_eq!(zoo.health("m").unwrap(), ModelHealth::Healthy);
    assert!(zoo.stats().models["m"].drift_calibrated);

    // Inject the shift: 16× the calibrated spike rate. One full window of
    // shifted traffic must flip the health state.
    let mut flipped = false;
    for i in 0..16u64 {
        let (_, degraded) = zoo
            .infer_annotated(InferenceRequest::seeded(image(4.0), 1000 + i))
            .unwrap();
        flipped |= degraded;
    }
    assert!(flipped, "degraded annotation never appeared");
    match zoo.health("m").unwrap() {
        ModelHealth::Degraded { kl, layer } => {
            assert!(kl > 0.5, "kl = {kl}");
            assert!(layer == "conv1" || layer == "fc", "layer = {layer}");
        }
        other => panic!("expected Degraded, got {other:?}"),
    }
    let stats = zoo.stats();
    assert_eq!(stats.models["m"].health, "degraded");
    assert!(stats.models["m"].drift_kl > 0.5);

    // Rollback restores v1 and resets the tracker: the flag clears (the
    // restored version recalibrates against whatever traffic is current).
    assert_eq!(zoo.rollback("m").unwrap(), "v1");
    assert_eq!(zoo.health("m").unwrap(), ModelHealth::Healthy);
    assert!(!zoo.stats().models["m"].drift_calibrated);
    zoo.shutdown();
}

/// Under the shed policy a Degraded model refuses new work with the
/// retryable typed error instead of annotating responses.
#[test]
fn shed_policy_rejects_degraded_models_with_retryable_error() {
    let zoo = ModelZoo::new();
    let cfg = ZooConfig {
        drift: drift_config(),
        drift_policy: DriftPolicy::Shed,
        ..config()
    };
    zoo.register("m", "v1", Stub::normal(1.0), cfg).unwrap();

    for i in 0..24u64 {
        zoo.infer(InferenceRequest::seeded(image(0.25), i)).unwrap();
    }
    for i in 0..16u64 {
        // Keep pushing shifted traffic until the tracker flips; under the
        // shed policy the *next* submission is then refused.
        if zoo
            .infer(InferenceRequest::seeded(image(4.0), 1000 + i))
            .is_err()
        {
            break;
        }
    }
    match zoo.infer(InferenceRequest::seeded(image(4.0), 9999)) {
        Err(e @ ServeError::Degraded { .. }) => {
            assert!(e.is_retryable());
            assert!(e.retry_after().is_some());
        }
        other => panic!("expected Degraded shed, got {other:?}"),
    }
    zoo.shutdown();
}
