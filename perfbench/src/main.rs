//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_zoo|train_qat> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! workload's inputs through the public per-layer calls with a span around
//! each and reports the per-layer metrics. Both check the outputs (see the
//! `gate` lines) and end with one JSON line: `correct`, `attempted`,
//! `failed` and `metrics`. Spans and checkpoint files go to `perfbench/out/`.

mod alloc;
mod forward;
mod loadgen;
mod profile;
mod report;
mod serve;
mod stats;
mod train;

use report::{Metric, Report};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

#[global_allocator]
static ALLOCATOR: alloc::ThreadCountingAlloc = alloc::ThreadCountingAlloc;

/// Set-up is repeated at least `SETUP_REPS` times and until `SETUP_BUDGET`
/// is spent; `setup_s` is the median.
const SETUP_REPS: usize = 3;
const SETUP_BUDGET: Duration = Duration::from_millis(300);

/// What a workload run fails with.
pub type Error = Box<dyn std::error::Error>;

/// The command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <serve_zoo|train_qat> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds,
        trace: match trace.unwrap_or(0) {
            0 => false,
            1 => true,
            _ => return Err("--trace must be 0 or 1".to_string()),
        },
    })
}

/// Seed of the synthetic data generator for a workload seed.
pub fn data_seed(seed: u64) -> u64 {
    snn::core::splitmix64(seed ^ 0xDA7A_5EED)
}

/// Where spans and checkpoint files go: `out/` beside this package's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A workload's set-up product and its timings (medians over the
/// repetitions). `setup_s` covers everything before the first timed
/// operation: data generation, the model build and the warm-up.
pub struct Setup<T> {
    pub value: T,
    pub setup_s: f64,
    pub generate_ms: f64,
    pub build_ms: f64,
}

/// Durations of one set-up: data generation, model build, warm-up.
pub type SetupTimes = [Duration; 3];

/// Runs set-up at least [`SETUP_REPS`] times and until [`SETUP_BUDGET`] is
/// spent, keeping the last product. `once` returns its product with its
/// [`SetupTimes`]; earlier products are dropped before the next repetition.
pub fn setup<T>(
    mut once: impl FnMut() -> Result<(T, SetupTimes), Error>,
) -> Result<Setup<T>, Error> {
    let (mut generate, mut build, mut total) = (Vec::new(), Vec::new(), Vec::new());
    let mut value = None;
    let started = std::time::Instant::now();
    while total.len() < SETUP_REPS || started.elapsed() < SETUP_BUDGET {
        drop(value.take());
        let (v, [g, b, w]) = once()?;
        generate.push(g.as_secs_f64() * 1e3);
        build.push(b.as_secs_f64() * 1e3);
        total.push((g + b + w).as_secs_f64());
        value = Some(v);
    }
    Ok(Setup {
        value: value.expect("set-up ran at least once"),
        setup_s: stats::median(&total),
        generate_ms: stats::median(&generate),
        build_ms: stats::median(&build),
    })
}

pub const MIB: f64 = 1024.0 * 1024.0;

/// The end-to-end metrics, in the order `BENCHMARK.json` lists them.
pub fn end_to_end(setup_s: f64, peak_heap_bytes: u64, throughput: f64, p50_ms: f64) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("peak_heap_mb", peak_heap_bytes as f64 / MIB, "MiB"),
        Metric::new("throughput_per_s", throughput, "1/s"),
        Metric::new("p50_ms", p50_ms, "ms"),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome: Result<Report, Error> = match args.workload.as_str() {
        "serve_zoo" => serve::run(&args),
        "train_qat" => train::run(&args),
        other => Err(format!("unknown workload {other:?}\n{USAGE}").into()),
    };
    match outcome {
        Ok(mut report) => {
            if let Some(rss) = stats::peak_rss_mib() {
                report.line(format!(
                    "peak resident set (VmHWM) {rss:.2} MiB, peak live heap {:.2} MiB",
                    alloc::peak_heap_bytes() as f64 / MIB
                ));
            }
            report.print(args.trace);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload serve_zoo --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_zoo", 7, 10.0, true)
        );
        assert!(args("--workload x --trace 2").is_err());
        assert!(args("--workload x --seconds 0").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload").is_err());
    }

    #[test]
    fn end_to_end_names_are_valid() {
        for m in end_to_end(1.0, 1, 1.0, 1.0) {
            assert!(stats::valid_metric_name(&m.name), "{}", m.name);
        }
    }

    /// `BENCHMARK.json` lists exactly the metrics, units and order the
    /// binary emits.
    #[test]
    fn benchmark_json_lists_what_the_binary_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let json: serde::Value = serde_json::from_str(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(serde::Value::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| match m.get(f) {
                        Some(serde::Value::Str(s)) => s.clone(),
                        other => panic!("{key} entry field {f}: {other:?}"),
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let emitted = |ms: Vec<Metric>| -> Vec<(String, String)> {
            ms.into_iter()
                .map(|m| (m.name, m.unit.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), emitted(end_to_end(1.0, 1, 1.0, 1.0)));
        assert_eq!(
            listed("per_layer"),
            emitted(profile::Profile::default().metrics())
        );
    }
}
