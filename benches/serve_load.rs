//! Open-loop load generator for the `snn-serve` dynamic-batching core.
//!
//! Unlike the criterion benches, serving performance is a function of the
//! *offered load*, so this harness drives `ServeCore<Engine>` with requests
//! submitted on a fixed schedule (open loop: the generator never waits for
//! responses, exactly like independent clients) and reports, per arm:
//!
//! * sustained throughput (completed requests / wall time, including drain),
//! * shed count (`Overloaded` rejections at the queue's high-water mark),
//! * end-to-end p50/p99 latency and the mean coalesced batch size, straight
//!   from `ServeCore::stats`.
//!
//! Arms: offered loads × batching configs, always including the
//! `max_batch = 1` baseline so the benefit of coalescing (the engine's
//! worker threads fan a coalesced batch out; a batch of one cannot be
//! parallelised) is measured rather than assumed. Full runs repeat each arm
//! three times and report medians; `--test` runs one short pass per load arm
//! as a CI smoke. The two fault arms offer twice the capacity measured on
//! the host just before them and run three interleaved repetitions each in
//! both modes (400 ms long in the smoke), compared by their medians.
//!
//! Run with: `cargo bench --bench serve_load`
//! Machine-readable output: `BENCH_JSON=out.json cargo bench --bench
//! serve_load` appends one JSON line per arm (see `BENCH_serve.json` for the
//! checked-in history).

use snn::core::encoding::Encoder;
use snn::core::network::{vgg9, Vgg9Config};
use snn::core::tensor::Tensor;
use snn::serve::{
    FaultPlan, FaultyModel, InferenceRequest, ModelZoo, ResponseHandle, RetryPolicy, ServeConfig,
    ServeCore, ServeError, ZooConfig,
};
use snn::{Engine, Precision};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Worker threads the engine fans a coalesced batch out over. Fixed (not
/// `SNN_THREADS`) so arms are comparable across environments.
const ENGINE_THREADS: usize = 4;

struct Arm {
    config_label: &'static str,
    max_batch: usize,
    offered_rps: u64,
}

#[derive(Debug, Clone)]
struct ArmResult {
    completed_rps: f64,
    shed: u64,
    p50_us: u64,
    p99_us: u64,
    mean_batch: f64,
}

fn build_engine() -> Engine {
    Engine::builder()
        .network(vgg9(&Vgg9Config::cifar10_small()).expect("vgg9 builds"))
        .encoder(Encoder::paper_direct())
        .precision(Precision::Int4)
        .hardware_allocation("serve-bench", &[1, 4, 2, 4, 2, 4, 4, 2, 1])
        .threads(ENGINE_THREADS)
        .build()
        .expect("engine builds")
}

fn test_image(i: usize) -> Tensor {
    Tensor::from_fn(&[3, 16, 16], move |p| {
        (((p + 31 * i) as f32) * 0.017).sin().abs()
    })
}

/// Sleeps (coarsely) then spins (finely) until `deadline`; open-loop pacing
/// needs sub-millisecond cadence that `thread::sleep` alone cannot hold.
fn pace_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > Duration::from_millis(1) {
            std::thread::sleep(left - Duration::from_millis(1));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Drives one arm: open-loop submission for `duration`, then a wait on the
/// last accepted request so the drain is inside the measured wall time (the
/// queue is FIFO — once the last accepted request completes, all do).
fn run_arm(engine: &Engine, arm: &Arm, duration: Duration) -> ArmResult {
    let config = ServeConfig {
        max_batch: arm.max_batch,
        max_delay: Duration::from_millis(1),
        queue_capacity: 256,
        ..ServeConfig::default()
    };
    let core = ServeCore::start(engine.clone(), config).expect("core starts");
    let interval = Duration::from_nanos(1_000_000_000 / arm.offered_rps.max(1));
    let images: Vec<Tensor> = (0..16).map(test_image).collect();

    let started = Instant::now();
    let mut next = started;
    let mut submitted = 0u64;
    let mut shed = 0u64;
    let mut last_handle = None;
    while started.elapsed() < duration {
        pace_until(next);
        next += interval;
        let image = images[(submitted % images.len() as u64) as usize].clone();
        match core.submit(InferenceRequest::seeded(image, submitted)) {
            Ok(handle) => {
                submitted += 1;
                last_handle = Some(handle);
            }
            Err(ServeError::Overloaded { .. }) => {
                submitted += 1;
                shed += 1;
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    if let Some(handle) = last_handle {
        let _ = handle.wait();
    }
    let elapsed = started.elapsed();
    let stats = core.stats();
    core.shutdown();
    ArmResult {
        completed_rps: stats.completed as f64 / elapsed.as_secs_f64(),
        shed,
        p50_us: stats.latency_p50_us,
        p99_us: stats.latency_p99_us,
        mean_batch: stats.mean_batch,
    }
}

/// Same open loop as [`run_arm`], but through a one-model [`ModelZoo`]
/// with the request routed by name — so the measurement includes the full
/// registry data plane: name lookup, the per-batch epoch check of the
/// swappable runner, and the per-result drift observation.
fn run_zoo_arm(engine: &Engine, arm: &Arm, duration: Duration) -> ArmResult {
    let zoo = ModelZoo::new();
    zoo.register(
        "primary",
        "v1",
        engine.clone(),
        ZooConfig {
            serve: ServeConfig {
                max_batch: arm.max_batch,
                max_delay: Duration::from_millis(1),
                queue_capacity: 256,
                ..ServeConfig::default()
            },
            ..ZooConfig::default()
        },
    )
    .expect("zoo registers");
    let interval = Duration::from_nanos(1_000_000_000 / arm.offered_rps.max(1));
    let images: Vec<Tensor> = (0..16).map(test_image).collect();

    let started = Instant::now();
    let mut next = started;
    let mut submitted = 0u64;
    let mut shed = 0u64;
    let mut last_handle = None;
    while started.elapsed() < duration {
        pace_until(next);
        next += interval;
        let image = images[(submitted % images.len() as u64) as usize].clone();
        let request = InferenceRequest::seeded(image, submitted).with_model("primary");
        match zoo.submit(request) {
            Ok(handle) => {
                submitted += 1;
                last_handle = Some(handle);
            }
            Err(ServeError::Overloaded { .. }) => {
                submitted += 1;
                shed += 1;
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    if let Some(handle) = last_handle {
        let _ = handle.wait();
    }
    let elapsed = started.elapsed();
    let stats = zoo.stats().models["primary"].serve.clone();
    zoo.shutdown();
    ArmResult {
        completed_rps: stats.completed as f64 / elapsed.as_secs_f64(),
        shed,
        p50_us: stats.latency_p50_us,
        p99_us: stats.latency_p99_us,
        mean_batch: stats.mean_batch,
    }
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN medians"));
    values[values.len() / 2]
}

fn append_bench_json(arm: &Arm, result: &ArmResult) {
    let Ok(path) = std::env::var("BENCH_JSON") else {
        return;
    };
    let line = format!(
        "{{\"bench\":\"serve_load\",\"config\":\"{}\",\"offered_rps\":{},\"completed_rps\":{:.1},\"shed\":{},\"p50_us\":{},\"p99_us\":{},\"mean_batch\":{:.2}}}\n",
        arm.config_label,
        arm.offered_rps,
        result.completed_rps,
        result.shed,
        result.p50_us,
        result.p99_us,
        result.mean_batch,
    );
    match std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        Ok(mut file) => {
            if let Err(err) = file.write_all(line.as_bytes()) {
                eprintln!("BENCH_JSON: could not append to {path}: {err}");
            }
        }
        Err(err) => eprintln!("BENCH_JSON: could not open {path}: {err}"),
    }
}

/// A response only counts as *goodput* if it is `Ok` and arrives within the
/// client's latency budget — under overload, late answers are worthless.
const CLIENT_BUDGET: Duration = Duration::from_millis(50);

/// The per-request deadline the deadline-shedding arm runs with (strictly
/// inside [`CLIENT_BUDGET`], leaving room for service time).
const ARM_DEADLINE: Duration = Duration::from_millis(25);

#[derive(Debug, Clone)]
struct FaultArmResult {
    goodput_rps: f64,
    completed_rps: f64,
    shed: u64,
    retries: u64,
    deadline_expired: u64,
    model_panics: u64,
    worker_restarts: u64,
    p50_us: u64,
}

enum SubmitOutcome {
    Accepted,
    Retry(Instant),
    Dropped,
}

/// One submission attempt for logical request `id`; retryable rejections
/// (`Overloaded`, `DeadlineUnmeetable`, ...) are scheduled for a jittered
/// backoff retry per the client [`RetryPolicy`].
#[allow(clippy::too_many_arguments)]
fn attempt_submit<M: snn::serve::ServeModel>(
    core: &ServeCore<M>,
    images: &[Tensor],
    policy: &RetryPolicy,
    id: u64,
    attempt: u32,
    origin: Instant,
    tx: &mpsc::Sender<(Instant, ResponseHandle)>,
) -> SubmitOutcome {
    let image = images[(id % images.len() as u64) as usize].clone();
    match core.submit(InferenceRequest::seeded(image, id)) {
        Ok(handle) => {
            let _ = tx.send((origin, handle));
            SubmitOutcome::Accepted
        }
        Err(e) if e.is_retryable() && attempt < policy.max_attempts => {
            SubmitOutcome::Retry(Instant::now() + policy.backoff_for(attempt, e.retry_after()))
        }
        Err(_) => SubmitOutcome::Dropped,
    }
}

/// Requests per second the engine sustains on this host right now, served
/// the way the fault arms serve them: closed-loop batches of 8 over the
/// engine's worker threads.
fn measured_capacity_rps(engine: &Engine) -> u64 {
    let images: Vec<Tensor> = (0..256).map(test_image).collect();
    let mut session = engine.session();
    let started = Instant::now();
    for batch in images.chunks(8) {
        session.run_batch(batch).expect("capacity probe runs");
    }
    (images.len() as f64 / started.elapsed().as_secs_f64()) as u64
}

/// Open-loop load against a fault-injected engine (8% model errors + 2%
/// panics), with the load generator acting as a retrying client. The two
/// arms differ only in `default_timeout`: with deadlines on, expired
/// requests are shed at dequeue instead of burning inference on answers
/// nobody is waiting for — that is exactly the goodput gap this measures.
fn run_fault_arm(
    engine: &Engine,
    deadline: Option<Duration>,
    offered_rps: u64,
    duration: Duration,
) -> FaultArmResult {
    let plan = FaultPlan::new(7)
        .with_error_rate(0.08)
        .with_panic_rate(0.02);
    let core = Arc::new(
        ServeCore::start(
            FaultyModel::new(engine.clone(), plan),
            ServeConfig {
                max_batch: 8,
                max_delay: Duration::from_millis(1),
                queue_capacity: 256,
                default_timeout: deadline,
                restart_backoff: Duration::from_micros(200),
                ..ServeConfig::default()
            },
        )
        .expect("core starts"),
    );
    let images: Vec<Tensor> = (0..16).map(test_image).collect();
    let policy = RetryPolicy::new(0xC0FFEE)
        .with_max_attempts(3)
        .with_backoff(
            Duration::from_millis(1),
            Duration::from_millis(20),
            Duration::from_millis(40),
        );

    let good = Arc::new(AtomicU64::new(0));
    let (tx, rx) = mpsc::channel::<(Instant, ResponseHandle)>();
    let rx = Arc::new(Mutex::new(rx));
    let collectors: Vec<_> = (0..4)
        .map(|_| {
            let rx = Arc::clone(&rx);
            let good = Arc::clone(&good);
            std::thread::spawn(move || loop {
                let received = rx.lock().expect("collector lock").recv();
                let Ok((origin, handle)) = received else {
                    return;
                };
                if handle.wait().is_ok() && origin.elapsed() <= CLIENT_BUDGET {
                    good.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    // (due, origin, id, next attempt) — min-heap on the due time.
    let mut retry_heap: BinaryHeap<Reverse<(Instant, Instant, u64, u32)>> = BinaryHeap::new();
    let interval = Duration::from_nanos(1_000_000_000 / offered_rps.max(1));
    let started = Instant::now();
    let mut next = started;
    let mut id = 0u64;
    let mut shed = 0u64;
    let mut retries = 0u64;
    while started.elapsed() < duration {
        while let Some(&Reverse((due, origin, rid, attempt))) = retry_heap.peek() {
            if due > Instant::now() {
                break;
            }
            retry_heap.pop();
            retries += 1;
            match attempt_submit(&core, &images, &policy, rid, attempt, origin, &tx) {
                SubmitOutcome::Retry(due) => {
                    retry_heap.push(Reverse((due, origin, rid, attempt + 1)));
                }
                SubmitOutcome::Accepted | SubmitOutcome::Dropped => {}
            }
        }
        pace_until(next);
        next += interval;
        id += 1;
        let origin = Instant::now();
        match attempt_submit(&core, &images, &policy, id, 1, origin, &tx) {
            SubmitOutcome::Accepted => {}
            SubmitOutcome::Retry(due) => {
                shed += 1;
                retry_heap.push(Reverse((due, origin, id, 2)));
            }
            SubmitOutcome::Dropped => shed += 1,
        }
    }
    drop(tx);
    for collector in collectors {
        collector.join().expect("collector joins");
    }
    let elapsed = started.elapsed();
    let stats = core.stats();
    core.shutdown();
    FaultArmResult {
        goodput_rps: good.load(Ordering::Relaxed) as f64 / elapsed.as_secs_f64(),
        completed_rps: stats.completed as f64 / elapsed.as_secs_f64(),
        shed,
        retries,
        deadline_expired: stats.deadline_expired,
        model_panics: stats.model_panics,
        worker_restarts: stats.worker_restarts,
        p50_us: stats.latency_p50_us,
    }
}

fn median_fault(runs: &[FaultArmResult]) -> FaultArmResult {
    let mid = |mut v: Vec<u64>| {
        v.sort_unstable();
        v[v.len() / 2]
    };
    FaultArmResult {
        goodput_rps: median(runs.iter().map(|r| r.goodput_rps).collect()),
        completed_rps: median(runs.iter().map(|r| r.completed_rps).collect()),
        shed: mid(runs.iter().map(|r| r.shed).collect()),
        retries: mid(runs.iter().map(|r| r.retries).collect()),
        deadline_expired: mid(runs.iter().map(|r| r.deadline_expired).collect()),
        model_panics: mid(runs.iter().map(|r| r.model_panics).collect()),
        worker_restarts: mid(runs.iter().map(|r| r.worker_restarts).collect()),
        p50_us: mid(runs.iter().map(|r| r.p50_us).collect()),
    }
}

fn append_fault_json(label: &str, offered_rps: u64, result: &FaultArmResult) {
    let Ok(path) = std::env::var("BENCH_JSON") else {
        return;
    };
    let line = format!(
        "{{\"bench\":\"serve_load\",\"config\":\"{label}\",\"offered_rps\":{offered_rps},\"goodput_rps\":{:.1},\"completed_rps\":{:.1},\"shed\":{},\"retries\":{},\"deadline_expired\":{},\"model_panics\":{},\"worker_restarts\":{},\"p50_us\":{}}}\n",
        result.goodput_rps,
        result.completed_rps,
        result.shed,
        result.retries,
        result.deadline_expired,
        result.model_panics,
        result.worker_restarts,
        result.p50_us,
    );
    match std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        Ok(mut file) => {
            if let Err(err) = file.write_all(line.as_bytes()) {
                eprintln!("BENCH_JSON: could not append to {path}: {err}");
            }
        }
        Err(err) => eprintln!("BENCH_JSON: could not open {path}: {err}"),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let (duration, reps, loads): (Duration, usize, &[u64]) = if smoke {
        (Duration::from_millis(150), 1, &[2_000])
    } else {
        (Duration::from_secs(2), 3, &[1_000, 2_000, 4_000, 8_000])
    };
    let engine = build_engine();
    // Warm the engine (first inference pays one-time lazy setup).
    engine.session().run(&test_image(0)).expect("warmup run");

    println!(
        "serve_load: open-loop, {} engine threads, {duration:?}/arm, {reps} rep(s)",
        ENGINE_THREADS
    );
    println!(
        "{:<10} {:>12} {:>14} {:>8} {:>10} {:>10} {:>10}",
        "config", "offered_rps", "completed_rps", "shed", "p50_us", "p99_us", "mean_batch"
    );
    for &offered_rps in loads {
        for (config_label, max_batch) in [("batch1", 1usize), ("batch8", 8usize)] {
            let arm = Arm {
                config_label,
                max_batch,
                offered_rps,
            };
            let runs: Vec<ArmResult> = (0..reps)
                .map(|_| run_arm(&engine, &arm, duration))
                .collect();
            let result = ArmResult {
                completed_rps: median(runs.iter().map(|r| r.completed_rps).collect()),
                shed: {
                    let mut sheds: Vec<u64> = runs.iter().map(|r| r.shed).collect();
                    sheds.sort_unstable();
                    sheds[sheds.len() / 2]
                },
                p50_us: {
                    let mut v: Vec<u64> = runs.iter().map(|r| r.p50_us).collect();
                    v.sort_unstable();
                    v[v.len() / 2]
                },
                p99_us: {
                    let mut v: Vec<u64> = runs.iter().map(|r| r.p99_us).collect();
                    v.sort_unstable();
                    v[v.len() / 2]
                },
                mean_batch: median(runs.iter().map(|r| r.mean_batch).collect()),
            };
            println!(
                "{:<10} {:>12} {:>14.1} {:>8} {:>10} {:>10} {:>10.2}",
                arm.config_label,
                arm.offered_rps,
                result.completed_rps,
                result.shed,
                result.p50_us,
                result.p99_us,
                result.mean_batch,
            );
            append_bench_json(&arm, &result);
        }
    }

    // Registry routing overhead: the 2000-rps batch8 arm again, but routed
    // by name through a one-model ModelZoo (registry lookup + epoch-pinned
    // runner + drift observation on every result). The registry is control
    // plane only — the data plane must stay within host noise of the bare
    // core, which the assertion below enforces so the CI smoke catches a
    // hot-path regression (a lock on the submit path, say) the moment it
    // lands.
    let overhead_arm = Arm {
        config_label: "zoo_batch8",
        max_batch: 8,
        offered_rps: 2_000,
    };
    let bare = median(
        (0..reps)
            .map(|_| run_arm(&engine, &overhead_arm, duration).completed_rps)
            .collect(),
    );
    let zoo_runs: Vec<ArmResult> = (0..reps)
        .map(|_| run_zoo_arm(&engine, &overhead_arm, duration))
        .collect();
    let zoo_result = ArmResult {
        completed_rps: median(zoo_runs.iter().map(|r| r.completed_rps).collect()),
        shed: {
            let mut v: Vec<u64> = zoo_runs.iter().map(|r| r.shed).collect();
            v.sort_unstable();
            v[v.len() / 2]
        },
        p50_us: {
            let mut v: Vec<u64> = zoo_runs.iter().map(|r| r.p50_us).collect();
            v.sort_unstable();
            v[v.len() / 2]
        },
        p99_us: {
            let mut v: Vec<u64> = zoo_runs.iter().map(|r| r.p99_us).collect();
            v.sort_unstable();
            v[v.len() / 2]
        },
        mean_batch: median(zoo_runs.iter().map(|r| r.mean_batch).collect()),
    };
    println!("\nserve_load: zoo routing overhead (one model, name-routed, vs bare core)");
    println!(
        "{:<10} {:>12} {:>14} {:>8} {:>10} {:>10} {:>10}",
        "config", "offered_rps", "completed_rps", "shed", "p50_us", "p99_us", "mean_batch"
    );
    println!(
        "{:<10} {:>12} {:>14.1} {:>8} {:>10} {:>10} {:>10.2}",
        "bare_batch8", overhead_arm.offered_rps, bare, "-", "-", "-", "-"
    );
    println!(
        "{:<10} {:>12} {:>14.1} {:>8} {:>10} {:>10} {:>10.2}",
        overhead_arm.config_label,
        overhead_arm.offered_rps,
        zoo_result.completed_rps,
        zoo_result.shed,
        zoo_result.p50_us,
        zoo_result.p99_us,
        zoo_result.mean_batch,
    );
    append_bench_json(&overhead_arm, &zoo_result);
    assert!(
        zoo_result.completed_rps >= 0.85 * bare,
        "zoo routing must be within host noise of the bare core \
         (zoo {:.1} rps vs bare {bare:.1} rps)",
        zoo_result.completed_rps,
    );

    // Goodput under faults: offered load beyond capacity, 10% injected
    // faults (8% model errors + 2% panics), the generator retrying with
    // jittered backoff. Deadline shedding must *strictly* improve goodput —
    // enforced below, so the CI smoke (`--test`) catches regressions.
    // Injected panics are caught by the serving core's supervision; keep
    // the default hook from spamming stderr with their backtraces while
    // still printing any *real* panic in full.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let message = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !message.contains("injected fault") {
            default_hook(info);
        }
    }));

    // Shedding can only raise goodput in overload: without deadlines,
    // goodput collapses once the queue holds more than a client budget of
    // work. A fixed offered rate leaves a fast (or briefly quiet) host
    // short of that, so the arms offer twice the capacity measured just
    // before them. They alternate, so a change in host load hits both
    // alike, and their medians over three repetitions are compared, in the
    // smoke too.
    let fault_offered = 2 * measured_capacity_rps(&engine);
    let fault_duration = if smoke {
        Duration::from_millis(400)
    } else {
        Duration::from_secs(2)
    };
    let fault_reps = 3;
    println!(
        "\nserve_load: goodput under faults (8% errors + 2% panics, offered {fault_offered} rps \
         = 2x measured capacity, client budget {CLIENT_BUDGET:?}, {fault_duration:?}/arm, \
         {fault_reps} interleaved rep(s))"
    );
    println!(
        "{:<22} {:>12} {:>14} {:>8} {:>8} {:>9} {:>8} {:>9} {:>10}",
        "config",
        "goodput_rps",
        "completed_rps",
        "shed",
        "retries",
        "expired",
        "panics",
        "restarts",
        "p50_us"
    );
    let fault_arms = [
        ("faults_nodeadline", None),
        ("faults_deadline25ms", Some(ARM_DEADLINE)),
    ];
    let mut fault_runs: [Vec<FaultArmResult>; 2] = Default::default();
    for _ in 0..fault_reps {
        for (runs, &(_, deadline)) in fault_runs.iter_mut().zip(&fault_arms) {
            runs.push(run_fault_arm(
                &engine,
                deadline,
                fault_offered,
                fault_duration,
            ));
        }
    }
    let mut goodput = Vec::new();
    for ((label, _), runs) in fault_arms.iter().zip(&fault_runs) {
        let result = median_fault(runs);
        println!(
            "{:<22} {:>12.1} {:>14.1} {:>8} {:>8} {:>9} {:>8} {:>9} {:>10}",
            label,
            result.goodput_rps,
            result.completed_rps,
            result.shed,
            result.retries,
            result.deadline_expired,
            result.model_panics,
            result.worker_restarts,
            result.p50_us,
        );
        append_fault_json(label, fault_offered, &result);
        goodput.push(result.goodput_rps);
    }
    assert!(
        goodput[1] > goodput[0],
        "deadline shedding must strictly improve goodput under overload \
         (with deadlines {:.1} rps vs without {:.1} rps)",
        goodput[1],
        goodput[0],
    );
}
