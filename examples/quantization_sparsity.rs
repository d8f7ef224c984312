//! Quantization–sparsity interplay (the Fig. 1 workload at example scale):
//! train a small VGG9 with and without int4 QAT on a synthetic CIFAR-10-like
//! dataset and compare accuracy and total spike counts.
//!
//! Run with: `cargo run --release --example quantization_sparsity`

use snn::core::network::{vgg9, Vgg9Config};
use snn::data::{Split, SyntheticConfig, SyntheticDataset};
use snn::train::trainer::{evaluate, TrainConfig, Trainer};
use snn::{Encoder, Precision};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = SyntheticDataset::generate(SyntheticConfig::cifar10_like().scaled_down(16, 60, 30));
    let encoder = Encoder::paper_direct();

    let mut totals = Vec::new();
    for precision in [Precision::Fp32, Precision::Int4] {
        let mut network = vgg9(&Vgg9Config::cifar10_small())?;
        let mut cfg = TrainConfig::quick_qat(precision);
        cfg.epochs = 2;
        cfg.encoder = encoder;
        let mut trainer = Trainer::new(cfg)?;
        let report = trainer.fit(&mut network, &data)?;
        network.apply_precision(precision)?;
        let eval = evaluate(&network, &data, Split::Test, &encoder, None)?;
        println!(
            "{precision}: train loss {:.3} -> {:.3} | test accuracy {:.1}% | total spikes {} | spikes/sample {:.0}",
            report.epoch_losses.first().copied().unwrap_or(0.0),
            report.final_loss(),
            eval.accuracy() * 100.0,
            eval.total_spikes,
            eval.mean_spikes_per_sample()
        );
        totals.push(eval.total_spikes);
    }

    let (fp32_spikes, int4_spikes) = (totals[0], totals[1]);
    let reduction = if fp32_spikes == 0 {
        0.0
    } else {
        (1.0 - int4_spikes as f64 / fp32_spikes as f64) * 100.0
    };
    println!(
        "\nint4 spikes vs fp32: {:+.1}% ({fp32_spikes} -> {int4_spikes})",
        -reduction
    );
    println!(
        "(The paper reports 6.1% / 10.1% / 15.2% fewer spikes for int4 on SVHN / CIFAR-10 / CIFAR-100.)"
    );
    Ok(())
}
