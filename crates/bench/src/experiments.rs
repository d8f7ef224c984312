//! Shared experiment infrastructure: scales, dataset/model pairings and the
//! trained-model cache used by the accuracy experiments.

use serde::Serialize;
use snn::{Engine, PerfScale};
use snn_core::encoding::Encoder;
use snn_core::error::SnnError;
use snn_core::network::{vgg9, SnnNetwork, Vgg9Config};
use snn_core::quant::Precision;
use snn_core::tensor::Tensor;
use snn_data::{Dataset, Split, SyntheticConfig, SyntheticDataset};
use snn_train::trainer::{evaluate, EvalReport, TrainConfig, Trainer};
use std::process::ExitCode;

/// How much compute an experiment run is allowed to spend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// Minimal settings used by integration tests (seconds).
    Smoke,
    /// The default command-line settings (a couple of minutes on a laptop).
    Full,
}

impl ExperimentScale {
    /// Parses an experiment binary's arguments, `[--smoke] [--json]`:
    /// `--smoke` selects the smoke scale, and `--json` is left to
    /// [`run_binary`].
    ///
    /// # Errors
    ///
    /// Names the first other argument, so a typo never silently selects the
    /// slow full scale.
    pub fn from_args(args: &[String]) -> Result<Self, String> {
        let mut scale = ExperimentScale::Full;
        for arg in args {
            match arg.as_str() {
                "--smoke" => scale = ExperimentScale::Smoke,
                "--json" => {}
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(scale)
    }

    /// Training samples per epoch for accuracy experiments.
    pub fn train_samples(self) -> usize {
        match self {
            ExperimentScale::Smoke => 20,
            ExperimentScale::Full => 120,
        }
    }

    /// Evaluation samples for accuracy/sparsity measurements.
    pub fn eval_samples(self) -> usize {
        match self {
            ExperimentScale::Smoke => 10,
            ExperimentScale::Full => 60,
        }
    }

    /// Training epochs for accuracy experiments.
    pub fn epochs(self) -> usize {
        match self {
            ExperimentScale::Smoke => 1,
            ExperimentScale::Full => 4,
        }
    }

    /// Number of images used to collect paper-scale hardware traces.
    pub fn trace_images(self) -> usize {
        match self {
            ExperimentScale::Smoke => 1,
            ExperimentScale::Full => 2,
        }
    }
}

/// The `main` of every experiment binary. Parses `[--smoke] [--json]`,
/// prints `title` (followed by the scale when `scaled`), runs the experiment
/// and prints the rendered report, then with `--json` the report as JSON.
///
/// Exits with 2 on any other argument, and with 1 when the experiment or
/// the JSON serialisation fails.
pub fn run_binary<R: Serialize>(
    name: &str,
    title: &str,
    scaled: bool,
    run: impl FnOnce(ExperimentScale) -> Result<R, SnnError>,
    render: impl FnOnce(&R) -> String,
) -> ExitCode {
    let mut args = std::env::args();
    let program = args.next().unwrap_or_default();
    let args: Vec<String> = args.collect();
    let scale = match ExperimentScale::from_args(&args) {
        Ok(scale) => scale,
        Err(err) => {
            eprintln!("{err}\nusage: {program} [--smoke] [--json]");
            return ExitCode::from(2);
        }
    };
    if scaled {
        println!("{title} (scale: {scale:?})");
    } else {
        println!("{title}");
    }
    let report = match run(scale) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("{name} experiment failed: {err}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", render(&report));
    if args.iter().any(|a| a == "--json") {
        match serde_json::to_string_pretty(&report) {
            Ok(json) => println!("{json}"),
            Err(err) => {
                eprintln!("failed to serialise report: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// The three evaluation datasets of the paper.
pub const DATASETS: [&str; 3] = ["svhn", "cifar10", "cifar100"];

/// Builds the scaled-down synthetic dataset used for the *trainable*
/// experiments (Fig. 1 accuracy/sparsity, Table II accuracy).
pub fn small_dataset(name: &str, scale: ExperimentScale) -> SyntheticDataset {
    let base = match name {
        "svhn" => SyntheticConfig::svhn_like(),
        "cifar100" => SyntheticConfig::cifar100_like(),
        _ => SyntheticConfig::cifar10_like(),
    };
    SyntheticDataset::generate(base.scaled_down(16, scale.train_samples(), scale.eval_samples()))
}

/// Builds the scaled-down VGG9 matching [`small_dataset`].
pub fn small_network(name: &str) -> Result<SnnNetwork, SnnError> {
    let cfg = match name {
        "svhn" => Vgg9Config::svhn_small(),
        "cifar100" => Vgg9Config::cifar100_small(),
        _ => Vgg9Config::cifar10_small(),
    };
    vgg9(&cfg)
}

/// Builds the paper-scale VGG9 for a dataset (used for the hardware-model
/// experiments where only the layer geometry and spike statistics matter).
pub fn paper_network(name: &str) -> Result<SnnNetwork, SnnError> {
    let cfg = match name {
        "svhn" => Vgg9Config::svhn(),
        "cifar100" => Vgg9Config::cifar100(),
        _ => Vgg9Config::cifar10(),
    };
    vgg9(&cfg)
}

/// A trained model together with its evaluation report.
#[derive(Debug)]
pub struct TrainedModel {
    /// The trained network (weights already at the requested precision for
    /// inference).
    pub network: SnnNetwork,
    /// Evaluation on the held-out split.
    pub eval: EvalReport,
    /// The precision the model was trained/evaluated at.
    pub precision: Precision,
}

/// Trains a scaled-down VGG9 on a synthetic dataset at the given precision
/// (QAT when quantized) and evaluates it with the given encoder.
///
/// # Errors
///
/// Propagates training/inference errors.
pub fn train_and_evaluate(
    dataset_name: &str,
    precision: Precision,
    encoder: Encoder,
    scale: ExperimentScale,
) -> Result<TrainedModel, SnnError> {
    let data = small_dataset(dataset_name, scale);
    let mut network = small_network(dataset_name)?;
    let mut cfg = TrainConfig::quick_qat(precision);
    cfg.encoder = encoder;
    cfg.epochs = scale.epochs();
    cfg.max_train_samples = Some(scale.train_samples());
    cfg.batch_size = 8;
    let mut trainer = Trainer::new(cfg)?;
    trainer.fit(&mut network, &data)?;
    // Materialise the quantized weights for inference, as the hardware does.
    network.apply_precision(precision)?;
    let eval = evaluate(
        &network,
        &data,
        Split::Test,
        &encoder,
        Some(scale.eval_samples()),
    )?;
    Ok(TrainedModel {
        network,
        eval,
        precision,
    })
}

/// Builds an [`Engine`] around the paper-scale VGG9 for a dataset: weights
/// quantized to `precision`, the given encoder, and the paper's lightweight
/// (`LW`) hardware preset. Hardware sweeps derive scaled variants via
/// [`Engine::with_hardware`], which shares the quantized weights.
///
/// # Errors
///
/// Propagates model/hardware validation errors.
pub fn paper_engine(
    dataset_name: &str,
    precision: Precision,
    encoder: Encoder,
) -> Result<Engine, SnnError> {
    Engine::builder()
        .network(paper_network(dataset_name)?)
        .encoder(encoder)
        .precision(precision)
        .hardware_paper(dataset_name, PerfScale::Lw)
        .build()
}

/// Synthetic paper-scale (32×32) test images for a dataset, used to drive
/// hardware-model experiments through [`paper_engine`].
pub fn paper_scale_images(dataset_name: &str, images: usize) -> Vec<Tensor> {
    let config = match dataset_name {
        "svhn" => SyntheticConfig::svhn_like(),
        "cifar100" => SyntheticConfig::cifar100_like(),
        _ => SyntheticConfig::cifar10_like(),
    };
    let count = images.max(1);
    let data = SyntheticDataset::generate(config.scaled_down(32, count, count));
    (0..count)
        .map(|i| {
            data.sample(Split::Test, i % data.len(Split::Test))
                .image
                .clone()
        })
        .collect()
}

/// Convenience: a deterministic synthetic image of a given shape, used by the
/// Criterion benches.
pub fn bench_image(shape: &[usize]) -> Tensor {
    Tensor::from_fn(shape, |i| ((i as f32) * 0.0137).sin().abs())
}

/// Maps a dataset name to the population accuracy reference of the paper
/// (used for context lines in the printed reports).
pub fn paper_accuracy_reference(dataset: &str, precision: Precision) -> f64 {
    match (dataset, precision.is_quantized()) {
        ("svhn", false) => 94.3,
        ("svhn", true) => 93.8,
        ("cifar10", false) => 86.6,
        ("cifar10", true) => 86.2,
        ("cifar100", false) => 57.3,
        ("cifar100", true) => 54.2,
        _ => f64::NAN,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing_and_budgets() {
        let parse = |args: &[&str]| {
            ExperimentScale::from_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
        };
        assert_eq!(parse(&["--smoke"]), Ok(ExperimentScale::Smoke));
        assert_eq!(parse(&["--json", "--smoke"]), Ok(ExperimentScale::Smoke));
        assert_eq!(parse(&["--json"]), Ok(ExperimentScale::Full));
        assert_eq!(parse(&[]), Ok(ExperimentScale::Full));
        // A typo is an error, not the minutes-long full scale.
        for bad in ["--smokey", "smoke", "--Smoke", "-s"] {
            assert!(parse(&["--json", bad]).unwrap_err().contains(bad), "{bad}");
        }
        assert!(ExperimentScale::Full.train_samples() > ExperimentScale::Smoke.train_samples());
        assert!(ExperimentScale::Full.epochs() >= ExperimentScale::Smoke.epochs());
        assert!(ExperimentScale::Smoke.trace_images() >= 1);
        assert!(ExperimentScale::Smoke.eval_samples() > 0);
    }

    #[test]
    fn small_dataset_and_network_are_consistent() {
        for name in DATASETS {
            let data = small_dataset(name, ExperimentScale::Smoke);
            let net = small_network(name).unwrap();
            assert_eq!(net.num_classes(), data.num_classes());
            assert_eq!(net.input_shape(), data.image_shape());
        }
    }

    #[test]
    fn paper_network_matches_paper_population() {
        let c100 = paper_network("cifar100").unwrap();
        assert_eq!(c100.population(), 5000);
        assert_eq!(c100.num_classes(), 100);
        let c10 = paper_network("cifar10").unwrap();
        assert_eq!(c10.population(), 1000);
    }

    #[test]
    fn accuracy_references_match_fig1_caption() {
        assert_eq!(paper_accuracy_reference("svhn", Precision::Fp32), 94.3);
        assert_eq!(paper_accuracy_reference("cifar100", Precision::Int4), 54.2);
        assert!(paper_accuracy_reference("mnist", Precision::Fp32).is_nan());
    }

    #[test]
    fn bench_image_is_deterministic() {
        assert_eq!(bench_image(&[1, 4, 4]), bench_image(&[1, 4, 4]));
    }
}
