//! Quickstart: build the paper's (scaled-down) VGG9 and run one direct-coded
//! inference through the unified `Engine`/`Session` API — classification,
//! per-layer spike traces and the hybrid accelerator's performance estimate
//! all come back in a single `RunReport`.
//!
//! Run with: `cargo run --release --example quickstart`

use snn::core::network::{vgg9, Vgg9Config};
use snn::{average_sparsity, total_output_spikes, Encoder, Engine, Precision, Tensor};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build a scaled-down CIFAR-10-like VGG9 (7 conv + 2 FC layers, each
    //    followed by a LIF population with the paper's beta/theta) and wrap
    //    it into an engine: int4 deployment weights, direct coding at 2
    //    timesteps, and the paper's LW-style neural-core allocation.
    let cfg = Vgg9Config::cifar10_small();
    let engine = Engine::builder()
        .network(vgg9(&cfg)?)
        .encoder(Encoder::paper_direct())
        .precision(Precision::Int4)
        .hardware_allocation("quickstart-int4", &[1, 8, 4, 18, 6, 6, 20, 2, 1])
        .build()?;
    println!(
        "Built {} with {} parameters across {} layers",
        cfg.name,
        engine.network().num_params(),
        engine.network().layers().len()
    );

    // 2. Run one inference on a synthetic image. The report fuses what used
    //    to be a manual two-step (network run, then accelerator estimate).
    let mut session = engine.session();
    let image = Tensor::from_fn(&[3, 16, 16], |i| ((i as f32) * 0.021).sin().abs());
    let report = session.run(&image)?;
    println!(
        "Prediction: class {} | total spikes: {} | average sparsity: {:.1}%",
        report.prediction,
        total_output_spikes(&report.traces),
        average_sparsity(&report.traces) * 100.0
    );
    // Area and power are fixed by the hardware, so they live on the engine's
    // plan; the report's per-layer rows are index-aligned with it.
    let plan = engine.plan();
    println!(
        "Accelerator: {:.3} ms latency | {:.0} FPS | {:.3} mJ/image | {:.2} W dynamic | fits device: {}",
        report.hardware.latency_ms,
        report.hardware.throughput_fps,
        report.hardware.dynamic_energy_mj,
        plan.power().total_dynamic_watts(),
        plan.resources().fits()
    );
    let hardware = plan.resources().layers.iter().zip(&plan.power().layers);
    for (layer, (area, power)) in report.hardware.layers.iter().zip(hardware) {
        println!(
            "  {:<8} cores={:<3} cycles={:<9} power={:.3} W energy={:.4} mJ",
            area.name, area.neural_cores, layer.cycles, power.dynamic_watts, layer.dynamic_mj
        );
    }

    // 3. Batched inference reuses the session's preallocated buffers and is
    //    bitwise-deterministic (image i runs with encoder seed i).
    let images: Vec<Tensor> = (0..8)
        .map(|k| {
            Tensor::from_fn(&[3, 16, 16], move |i| {
                (((i + 131 * k) as f32) * 0.021).sin().abs()
            })
        })
        .collect();
    let batch = session.run_batch(&images)?;
    println!(
        "\nBatch of {}: predictions {:?} | mean latency {:.3} ms | total energy {:.3} mJ",
        batch.len(),
        batch.predictions(),
        batch.mean_latency_ms(),
        batch.total_energy_mj
    );
    Ok(())
}
