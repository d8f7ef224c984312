//! # snn-bench
//!
//! Experiment harnesses that regenerate every table and figure of the paper's
//! evaluation section, plus shared helpers for the Criterion benchmarks.
//!
//! Each experiment lives in its own module and exposes a `run(scale)`
//! function returning a serialisable report; each `src/bin/*` binary hands
//! its module's `run` and `render` to [`experiments::run_binary`], which
//! parses `[--smoke] [--json]` and prints the paper-style table.
//! Integration tests exercise the same functions at
//! [`ExperimentScale::Smoke`] so that every experiment stays runnable.
//!
//! | Paper result | Module | Binary |
//! |---|---|---|
//! | Fig. 1 (quantization vs. sparsity) | [`fig1`] | `fig1_quant_sparsity` |
//! | Table I (area & power) | [`table1`] | `table1_resources` |
//! | Fig. 4 (energy, fp32 vs int4 × LW/perf2/perf4) | [`fig4`] | `fig4_energy` |
//! | Table II (direct vs rate coding) | [`table2`] | `table2_coding` |
//! | Table III (comparison to prior work) | [`table3`] | `table3_comparison` |

pub mod experiments;
pub mod fig1;
pub mod fig4;
pub mod report;
pub mod table1;
pub mod table2;
pub mod table3;

pub use experiments::ExperimentScale;
