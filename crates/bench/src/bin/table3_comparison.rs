//! Regenerates Table III: comparison of our perf2/perf4 configurations
//! against SyncNN \[15\] and Gerlinghoff et al. \[7\].
//!
//! Usage: `cargo run --release -p snn-bench --bin table3_comparison -- [--smoke] [--json]`

use snn_bench::{experiments, table3};
use std::process::ExitCode;

fn main() -> ExitCode {
    experiments::run_binary(
        "table3",
        "Table III — comparison to previous work",
        true,
        table3::run,
        table3::render,
    )
}
