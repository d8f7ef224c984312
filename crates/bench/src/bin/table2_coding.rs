//! Regenerates Table II: direct vs rate coding on CIFAR-10 (quantized LW
//! hardware).
//!
//! Usage: `cargo run --release -p snn-bench --bin table2_coding -- [--smoke] [--json]`

use snn_bench::{experiments, table2};
use std::process::ExitCode;

fn main() -> ExitCode {
    experiments::run_binary(
        "table2",
        "Table II — direct vs rate coding on CIFAR-10",
        true,
        table2::run,
        table2::render,
    )
}
