//! Regenerates Table I: area utilisation and power of the int4 vs fp32
//! CIFAR-100 hardware (perf2 configuration). No training is involved, so
//! `--smoke` changes nothing.
//!
//! Usage: `cargo run --release -p snn-bench --bin table1_resources -- [--smoke] [--json]`

use snn_bench::{experiments, table1};
use std::process::ExitCode;

fn main() -> ExitCode {
    experiments::run_binary(
        "table1",
        "Table I — area utilisation and power (CIFAR-100, perf2)",
        false,
        |_| table1::run(),
        table1::render,
    )
}
