//! # snn-accel
//!
//! Cost model of the paper's hybrid dense/sparse event-driven SNN
//! accelerator: cycle models over per-layer spike counts and layer geometry,
//! together with the FPGA area, power and energy models needed to regenerate
//! the paper's hardware results (Table I, Table II, Table III, Fig. 4). What
//! the layers compute is modelled once, in `snn-core`; this crate reads only
//! the counts a network run records.
//!
//! The architecture (paper Sec. IV):
//!
//! * a **dense core** — a 27-PE weight-stationary systolic array — processes
//!   the direct-coded input layer, whose activations are analog and dense;
//! * **sparse cores** — an Event Control Unit (spike-train compression with a
//!   priority encoder + address generation) feeding `N` neural cores that
//!   update one membrane potential per cycle — process every other layer
//!   event-by-event;
//! * all weights and spike trains live in on-chip BRAM / URAM / LUTRAM with
//!   clock-gated regions; no external DRAM is used.
//!
//! Modules:
//!
//! * [`config`] — hardware configurations (precision, clock, per-layer neural
//!   core allocation; the paper's `LW` / `perf2` / `perf4` presets),
//! * [`dense_core`] — cycle model of the systolic input layer,
//! * [`sparse_core`] — cycle model of the event-driven layers,
//! * [`memory`] — on-chip memory placement (LUTRAM/BRAM/URAM) and sizing,
//! * [`resources`] — the XCVU13P device model and per-layer area estimates,
//! * [`power`] — calibrated static + dynamic power model,
//! * [`energy`] — per-image energy from per-layer latency and power,
//! * [`workload`] — Eq. 3 layer workloads expressed in sparse-core cycles,
//! * [`dse`] — design-space exploration producing balanced NC allocations,
//! * [`accelerator`] — the hybrid top level: one [`EstimatePlan`] per
//!   network, configuration and timestep count, folding each image's spike
//!   counts into an [`InferenceReport`],
//! * [`ablation`] — sweeps of single design knobs on a fixed workload,
//! * [`trace`] — synthetic activity traces calibrated to the paper's spike
//!   statistics,
//! * [`baseline`] — prior-work operating points used in Table III.

pub mod ablation;
pub mod accelerator;
pub mod baseline;
pub mod config;
pub mod dense_core;
pub mod dse;
pub mod energy;
pub mod memory;
pub mod power;
pub mod resources;
pub mod sparse_core;
pub mod trace;
pub mod workload;

pub use accelerator::{EstimatePlan, InferenceReport, LayerPerf};
pub use config::{HwConfig, PerfScale};
pub use resources::{LayerResources, XCVU13P};
