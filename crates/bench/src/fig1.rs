//! Fig. 1 — quantization effect on the total number of spikes.
//!
//! The paper trains fp32 and int4 (QAT) versions of the VGG9 on SVHN,
//! CIFAR-10 and CIFAR-100 and reports (a) near-identical accuracy and (b)
//! 6.1% / 10.1% / 15.2% fewer spikes for the int4 models.
//!
//! At this reproduction's reduced training scale, two *independently* trained
//! models differ more because of training noise than because of their
//! precision, which would bury the quantization effect. The experiment
//! therefore isolates the quantization effect the way a post-training
//! ablation would: it trains one fp32 model per dataset and evaluates the
//! *same weights* at fp32 and after int4 fake-quantization, so every spike
//! difference is attributable to the quantization of the weights (small
//! coefficients collapsing to zero, marginal neurons dropping below
//! threshold). This is a deliberate deviation from the paper's QAT-vs-QAT
//! protocol.

use crate::experiments::{
    paper_accuracy_reference, small_dataset, small_network, ExperimentScale, DATASETS,
};
use serde::{Deserialize, Serialize};
use snn_core::encoding::Encoder;
use snn_core::error::SnnError;
use snn_core::quant::Precision;
use snn_data::Split;
use snn_train::trainer::{evaluate, TrainConfig, Trainer};

/// One dataset's fp32-vs-int4 comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DatasetComparison {
    /// Dataset name.
    pub dataset: String,
    /// fp32 accuracy (fraction in `[0, 1]`).
    pub fp32_accuracy: f64,
    /// int4 accuracy.
    pub int4_accuracy: f64,
    /// Total spikes of the fp32 model over the evaluation set: every
    /// layer's output spikes, pooled maps included
    /// (`EvalReport::total_spikes`).
    pub fp32_spikes: u64,
    /// Total spikes of the int4 model over the evaluation set, counted like
    /// `fp32_spikes`.
    pub int4_spikes: u64,
    /// Spike reduction of int4 vs fp32 in percent (positive = sparser).
    pub spike_reduction_percent: f64,
    /// Accuracy drop of int4 vs fp32 in percentage points.
    pub accuracy_drop_percent: f64,
    /// The paper's reported fp32 accuracy (for context).
    pub paper_fp32_accuracy: f64,
    /// The paper's reported int4 accuracy (for context).
    pub paper_int4_accuracy: f64,
}

/// Full Fig. 1 report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig1Report {
    /// Per-dataset comparisons.
    pub datasets: Vec<DatasetComparison>,
}

/// Runs the Fig. 1 experiment.
///
/// # Errors
///
/// Propagates training/inference errors.
pub fn run(scale: ExperimentScale) -> Result<Fig1Report, SnnError> {
    let encoder = Encoder::paper_direct();
    let mut datasets = Vec::new();
    for dataset in DATASETS {
        let data = small_dataset(dataset, scale);
        let mut network = small_network(dataset)?;
        let mut cfg = TrainConfig::quick();
        cfg.encoder = encoder;
        cfg.epochs = scale.epochs();
        cfg.max_train_samples = Some(scale.train_samples());
        cfg.batch_size = 8;
        Trainer::new(cfg)?.fit(&mut network, &data)?;

        // Evaluate the same trained weights at both precisions.
        let fp32 = evaluate(
            &network,
            &data,
            Split::Test,
            &encoder,
            Some(scale.eval_samples()),
        )?;
        network.apply_precision(Precision::Int4)?;
        let int4 = evaluate(
            &network,
            &data,
            Split::Test,
            &encoder,
            Some(scale.eval_samples()),
        )?;

        let fp32_spikes = fp32.total_spikes;
        let int4_spikes = int4.total_spikes;
        let reduction = if fp32_spikes == 0 {
            0.0
        } else {
            (1.0 - int4_spikes as f64 / fp32_spikes as f64) * 100.0
        };
        datasets.push(DatasetComparison {
            dataset: dataset.to_string(),
            fp32_accuracy: fp32.accuracy(),
            int4_accuracy: int4.accuracy(),
            fp32_spikes,
            int4_spikes,
            spike_reduction_percent: reduction,
            accuracy_drop_percent: (fp32.accuracy() - int4.accuracy()) * 100.0,
            paper_fp32_accuracy: paper_accuracy_reference(dataset, Precision::Fp32),
            paper_int4_accuracy: paper_accuracy_reference(dataset, Precision::Int4),
        });
    }
    Ok(Fig1Report { datasets })
}

/// Renders the report as a paper-style table.
pub fn render(report: &Fig1Report) -> String {
    use crate::report::{format_table, num};
    let rows: Vec<Vec<String>> = report
        .datasets
        .iter()
        .map(|d| {
            vec![
                d.dataset.clone(),
                num(d.fp32_accuracy * 100.0, 1),
                num(d.int4_accuracy * 100.0, 1),
                d.fp32_spikes.to_string(),
                d.int4_spikes.to_string(),
                num(d.spike_reduction_percent, 1),
                format!(
                    "{} / {}",
                    num(d.paper_fp32_accuracy, 1),
                    num(d.paper_int4_accuracy, 1)
                ),
            ]
        })
        .collect();
    format_table(
        &[
            "Dataset",
            "fp32 acc [%]",
            "int4 acc [%]",
            "fp32 spikes",
            "int4 spikes",
            "spike redn [%]",
            "paper acc fp32/int4 [%]",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_all_datasets() {
        let report = Fig1Report {
            datasets: vec![DatasetComparison {
                dataset: "cifar10".to_string(),
                fp32_accuracy: 0.5,
                int4_accuracy: 0.48,
                fp32_spikes: 1000,
                int4_spikes: 900,
                spike_reduction_percent: 10.0,
                accuracy_drop_percent: 2.0,
                paper_fp32_accuracy: 86.6,
                paper_int4_accuracy: 86.2,
            }],
        };
        let text = render(&report);
        assert!(text.contains("cifar10"));
        assert!(text.contains("10.0"));
        assert!(text.contains("86.6"));
    }
}
