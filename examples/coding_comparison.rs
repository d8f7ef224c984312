//! Direct vs rate coding (the Table II workload at example scale): run the
//! same quantized network with both encoders through two engines and compare
//! spikes, latency and energy (the rate engine's hardware has the dense core
//! disabled, as the paper's rate-coded design does).
//!
//! Run with: `cargo run --release --example coding_comparison`

use snn::core::network::{vgg9, Vgg9Config};
use snn::{total_output_spikes, Encoder, Engine, HwConfig, Precision, Tensor};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let image = Tensor::from_fn(&[3, 16, 16], |i| ((i as f32) * 0.017).cos().abs());

    // Direct coding: 2 timesteps, hybrid architecture (dense + sparse cores).
    let direct_engine = Engine::builder()
        .network(vgg9(&Vgg9Config::cifar10_small())?)
        .encoder(Encoder::paper_direct())
        .precision(Precision::Int4)
        .hardware_allocation("direct-int4-LW", &[1, 8, 4, 18, 6, 6, 20, 2, 1])
        .build()?;
    let direct = direct_engine.session().run(&image)?;

    // Rate coding: 25 timesteps, sparse cores only (dense core switched off).
    let rate_hw = HwConfig::from_allocation(
        "rate-int4-LW",
        Precision::Int4,
        &[1, 1, 8, 4, 18, 6, 6, 20, 2, 1],
    )?
    .without_dense_core();
    let rate_engine = Engine::builder()
        .network(vgg9(&Vgg9Config::cifar10_small())?)
        .encoder(Encoder::paper_rate())
        .precision(Precision::Int4)
        .hardware(rate_hw)
        .build()?;
    let rate = rate_engine.session().run_seeded(&image, 7)?;

    println!("Coding  | T  | Total spikes | Latency [ms] | Energy [mJ]");
    println!(
        "Direct  | {:>2} | {:>12} | {:>12.4} | {:>10.4}",
        direct.timesteps,
        total_output_spikes(&direct.traces),
        direct.hardware.latency_ms,
        direct.hardware.dynamic_energy_mj
    );
    println!(
        "Rate    | {:>2} | {:>12} | {:>12.4} | {:>10.4}",
        rate.timesteps,
        total_output_spikes(&rate.traces),
        rate.hardware.latency_ms,
        rate.hardware.dynamic_energy_mj
    );
    println!(
        "\nDirect coding improvement: {:.1}x fewer spikes, {:.1}x less energy (paper: 2.6x / 26.4x)",
        total_output_spikes(&rate.traces) as f64 / total_output_spikes(&direct.traces).max(1) as f64,
        rate.hardware.dynamic_energy_mj / direct.hardware.dynamic_energy_mj.max(1e-12)
    );
    Ok(())
}
