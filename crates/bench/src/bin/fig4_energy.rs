//! Regenerates Fig. 4: energy per image for fp32 vs int4 across the LW,
//! perf2 and perf4 configurations of all three datasets.
//!
//! Usage: `cargo run --release -p snn-bench --bin fig4_energy -- [--smoke] [--json]`

use snn_bench::{experiments, fig4};
use std::process::ExitCode;

fn main() -> ExitCode {
    experiments::run_binary(
        "fig4",
        "Fig. 4 — energy per image, fp32 vs int4",
        true,
        fig4::run,
        fig4::render,
    )
}
