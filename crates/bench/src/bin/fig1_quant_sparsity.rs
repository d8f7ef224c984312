//! Regenerates Fig. 1: quantization effect on the total number of spikes.
//!
//! Usage: `cargo run --release -p snn-bench --bin fig1_quant_sparsity -- [--smoke] [--json]`

use snn_bench::{experiments, fig1};
use std::process::ExitCode;

fn main() -> ExitCode {
    experiments::run_binary(
        "fig1",
        "Fig. 1 — quantization effect on total spikes",
        true,
        fig1::run,
        fig1::render,
    )
}
