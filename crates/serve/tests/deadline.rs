//! Deadline semantics: expired requests are shed at dequeue *before* any
//! inference is spent on them, each with exactly one typed
//! [`ServeError::DeadlineExceeded`]; admission control pre-rejects deadlines
//! the queue-wait estimate already exceeds; `default_timeout` applies the
//! policy to requests that carry no explicit deadline.

use proptest::prelude::*;
use snn_core::tensor::Tensor;
use snn_core::SnnError;
use snn_serve::{
    InferenceRequest, InferenceResult, ModelRunner, ResponseHandle, ServeConfig, ServeCore,
    ServeError, ServeModel,
};
use std::collections::HashSet;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// Sleeps `delay` per batch and records every seed the model actually ran.
struct RecordingModel {
    delay: Duration,
    executed: Arc<Mutex<HashSet<u64>>>,
    plug: Option<Arc<PlugGate>>,
}

struct RecordingRunner {
    delay: Duration,
    executed: Arc<Mutex<HashSet<u64>>>,
    plug: Option<Arc<PlugGate>>,
}

/// Holds the batch carrying seed 0 (the plug) inside the model: the runner
/// reports that the batch started, then waits until the test releases it,
/// so requests the test submits in between are sure to queue behind it.
struct PlugGate {
    started: mpsc::Sender<()>,
    release: Mutex<mpsc::Receiver<()>>,
}

/// How long either side of a [`PlugGate`] waits before giving up, so a
/// failing test reports instead of hanging.
const GATE_TIMEOUT: Duration = Duration::from_secs(10);

impl ModelRunner for RecordingRunner {
    fn run_batch(
        &mut self,
        requests: Vec<InferenceRequest>,
    ) -> Vec<Result<InferenceResult, SnnError>> {
        let plugged = requests.iter().any(|r| r.seed == 0);
        if let Some(gate) = self.plug.as_ref().filter(|_| plugged) {
            // Errors mean the test side is gone: run the batch anyway.
            let _ = gate.started.send(());
            let _ = gate.release.lock().unwrap().recv_timeout(GATE_TIMEOUT);
        }
        std::thread::sleep(self.delay);
        let mut executed = self.executed.lock().unwrap();
        requests
            .into_iter()
            .map(|r| {
                executed.insert(r.seed);
                Ok(InferenceResult::from_logits(vec![r.seed as f32, 0.0]))
            })
            .collect()
    }
}

impl ServeModel for RecordingModel {
    type Runner = RecordingRunner;

    fn runner(&self) -> RecordingRunner {
        RecordingRunner {
            delay: self.delay,
            executed: Arc::clone(&self.executed),
            plug: self.plug.clone(),
        }
    }
}

fn recording_model(delay_ms: u64) -> (RecordingModel, Arc<Mutex<HashSet<u64>>>) {
    let executed = Arc::new(Mutex::new(HashSet::new()));
    (
        RecordingModel {
            delay: Duration::from_millis(delay_ms),
            executed: Arc::clone(&executed),
            plug: None,
        },
        executed,
    )
}

/// The test's ends of a [`PlugGate`]: `started` fires once the plug batch
/// is inside the model, and a send on `release` lets it finish.
struct PlugHandle {
    started: mpsc::Receiver<()>,
    release: mpsc::Sender<()>,
}

/// A [`recording_model`] with no per-batch delay whose plug batch (seed 0)
/// is held by a [`PlugGate`].
fn plugged_recording_model() -> (RecordingModel, Arc<Mutex<HashSet<u64>>>, PlugHandle) {
    let (started_tx, started) = mpsc::channel();
    let (release, release_rx) = mpsc::channel();
    let (mut model, executed) = recording_model(0);
    model.plug = Some(Arc::new(PlugGate {
        started: started_tx,
        release: Mutex::new(release_rx),
    }));
    (model, executed, PlugHandle { started, release })
}

fn request(i: u64) -> InferenceRequest {
    InferenceRequest::seeded(Tensor::from_vec(vec![i as f32, 1.0], &[2]).unwrap(), i)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The core contract, across (deadline, queue depth, batch budget):
    /// a request whose deadline expires while queued is never executed by
    /// the model and resolves with exactly one `DeadlineExceeded` carrying
    /// its measured queue wait; requests without deadlines always execute.
    #[test]
    fn expired_requests_never_execute(
        deadline_ms in 1_u64..=3,
        burst in 1_usize..=12,
        max_batch in 1_usize..=8,
    ) {
        let (model, executed, plug_gate) = plugged_recording_model();
        let core = ServeCore::start(
            model,
            ServeConfig {
                max_batch,
                max_delay: Duration::from_millis(1),
                queue_capacity: 64,
                workers: Some(1),
                ..ServeConfig::default()
            },
        )
        .unwrap();

        // Plug the single worker with a deadline-free request that the model
        // holds until released, so the burst below cannot share its batch.
        let plug = core.submit(request(0)).unwrap();
        plug_gate
            .started
            .recv_timeout(GATE_TIMEOUT)
            .expect("the worker starts the plug batch");

        // The burst queues behind the held plug batch: deadlined entries
        // (budget <= 3 ms) must expire while waiting; deadline-free ones
        // must all execute.
        let handles: Vec<(u64, bool, ResponseHandle)> = (1..=burst as u64)
            .map(|i| {
                let deadlined = i % 2 == 1;
                let req = if deadlined {
                    request(i).with_deadline(Duration::from_millis(deadline_ms))
                } else {
                    request(i)
                };
                (i, deadlined, core.submit(req).unwrap())
            })
            .collect();
        // Release the plug only once every deadlined entry's budget passed.
        std::thread::sleep(Duration::from_millis(deadline_ms + 1));
        plug_gate.release.send(()).unwrap();

        plug.wait().unwrap();
        let mut expired = 0_u64;
        for (seed, deadlined, handle) in handles {
            let outcome = handle
                .wait_timeout(Duration::from_secs(30))
                .unwrap_or_else(|_| panic!("request {seed} hung"));
            if deadlined {
                match outcome {
                    Err(ServeError::DeadlineExceeded { queued_us }) => {
                        expired += 1;
                        // It waited at least its whole budget.
                        prop_assert!(
                            queued_us >= deadline_ms * 1000,
                            "queued_us {queued_us} below the {deadline_ms} ms budget"
                        );
                        prop_assert!(
                            !executed.lock().unwrap().contains(&seed),
                            "expired request {seed} must never reach the model"
                        );
                    }
                    other => panic!(
                        "deadlined request {seed} queued behind the held plug batch \
                         must expire, got {other:?}"
                    ),
                }
            } else {
                let response = outcome.unwrap_or_else(|e| {
                    panic!("deadline-free request {seed} must execute, got {e:?}")
                });
                prop_assert_eq!(response.result.logits[0], seed as f32);
                prop_assert!(executed.lock().unwrap().contains(&seed));
            }
        }
        let stats = core.stats();
        prop_assert_eq!(stats.deadline_expired, expired);
        core.shutdown();
    }
}

/// Admission control: once the service-time histogram is warm and the queue
/// is deep, a deadline the wait estimate already exceeds is rejected at
/// submit — with a computed retry hint — instead of being queued to die.
#[test]
fn hopeless_deadlines_are_rejected_at_submit() {
    let (model, _executed) = recording_model(5);
    let core = ServeCore::start(
        model,
        ServeConfig {
            max_batch: 1, // one request per 5 ms batch: service p50 ~ 5000 us
            max_delay: Duration::from_millis(1),
            queue_capacity: 64,
            workers: Some(1),
            ..ServeConfig::default()
        },
    )
    .unwrap();

    // Warm the estimator past its 16-sample threshold.
    let warmup: Vec<ResponseHandle> = (0..20).map(|i| core.submit(request(i)).unwrap()).collect();
    for handle in warmup {
        handle.wait().unwrap();
    }

    // Build queue depth with deadline-free requests, then ask for 1 ms.
    let backlog: Vec<ResponseHandle> = (100..110)
        .map(|i| core.submit(request(i)).unwrap())
        .collect();
    let verdict = core.submit(request(999).with_deadline(Duration::from_millis(1)));
    match verdict {
        Err(
            err @ ServeError::DeadlineUnmeetable {
                estimated_us,
                deadline_us,
            },
        ) => {
            assert_eq!(deadline_us, 1000);
            assert!(
                estimated_us > deadline_us,
                "rejection must carry an estimate above the deadline \
                 ({estimated_us} vs {deadline_us})"
            );
            let hint = err
                .retry_after()
                .expect("unmeetable deadlines carry a retry hint");
            assert!(hint >= Duration::from_millis(1));
        }
        other => panic!("expected DeadlineUnmeetable, got {other:?}"),
    }
    assert_eq!(core.stats().deadline_rejected, 1);

    // A generous deadline is still admitted on the same deep queue.
    let admitted = core
        .submit(request(1000).with_deadline(Duration::from_secs(30)))
        .expect("generous deadline admitted");
    for handle in backlog {
        handle.wait().unwrap();
    }
    admitted.wait().expect("admitted request completes");
    core.shutdown();
}

/// `ServeConfig::default_timeout` gives every bare request a deadline; an
/// explicit per-request deadline still wins.
#[test]
fn default_timeout_applies_to_bare_requests() {
    let (model, executed, plug_gate) = plugged_recording_model();
    let core = ServeCore::start(
        model,
        ServeConfig {
            max_batch: 4,
            max_delay: Duration::from_millis(1),
            queue_capacity: 64,
            workers: Some(1),
            default_timeout: Some(Duration::from_millis(2)),
            ..ServeConfig::default()
        },
    )
    .unwrap();

    let plug = core.submit(request(0).with_deadline(Duration::from_secs(30)));
    // The single worker is now inside the plug batch, which stays there
    // until released below.
    plug_gate
        .started
        .recv_timeout(GATE_TIMEOUT)
        .expect("the worker starts the plug batch");

    // Bare request: inherits the 2 ms default and expires behind the plug.
    let bare = core.submit(request(1)).unwrap();
    // Explicit deadline overrides the default: long enough to survive.
    let patient = core
        .submit(request(2).with_deadline(Duration::from_secs(30)))
        .unwrap();
    // Outlive the bare request's 2 ms budget before the worker can reach it.
    std::thread::sleep(Duration::from_millis(5));
    plug_gate.release.send(()).unwrap();

    plug.unwrap().wait().unwrap();
    match bare.wait() {
        Err(ServeError::DeadlineExceeded { .. }) => {}
        other => panic!("bare request must inherit default_timeout, got {other:?}"),
    }
    // Counted before it was answered, so no polling is needed.
    assert_eq!(core.stats().deadline_expired, 1);
    assert!(!executed.lock().unwrap().contains(&1));
    patient
        .wait()
        .expect("explicit deadline overrides the default");
    assert!(executed.lock().unwrap().contains(&2));
    assert_eq!(core.stats().deadline_expired, 1);
    core.shutdown();
}
