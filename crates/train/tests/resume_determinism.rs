//! Resume determinism: a run interrupted at ANY batch boundary and resumed
//! from its checkpoint produces final weights bitwise identical to the
//! uninterrupted run — at every thread count.
//!
//! The harness uses [`StopHandle::stop_after_steps`], which stops the run
//! deterministically once the total optimizer-step counter (which survives
//! resume) reaches the requested value, so every boundary of a 2-epoch run
//! is exercised exactly.

use snn_core::network::{vgg9, Layer, SnnNetwork, Vgg9Config};
use snn_data::{SyntheticConfig, SyntheticDataset};
use snn_train::trainer::{StopHandle, TrainConfig, Trainer};
use snn_train::TrainCheckpoint;
use std::path::PathBuf;

fn tiny_data() -> SyntheticDataset {
    SyntheticDataset::generate(SyntheticConfig::cifar10_like().scaled_down(16, 20, 10))
}

fn config(threads: usize, checkpoint_path: Option<PathBuf>) -> TrainConfig {
    let mut cfg = TrainConfig::quick();
    cfg.epochs = 2;
    cfg.max_train_samples = Some(6);
    cfg.batch_size = 2;
    cfg.threads = threads;
    cfg.seed = 11;
    cfg.checkpoint_path = checkpoint_path;
    cfg
}

fn weight_bits(net: &SnnNetwork) -> Vec<Vec<u32>> {
    net.layers()
        .iter()
        .filter_map(|layer| match layer {
            Layer::Conv { conv, .. } => Some(
                conv.weight()
                    .as_slice()
                    .iter()
                    .map(|w| w.to_bits())
                    .collect(),
            ),
            Layer::Linear { linear, .. } => Some(
                linear
                    .weight()
                    .as_slice()
                    .iter()
                    .map(|w| w.to_bits())
                    .collect(),
            ),
            Layer::Pool { .. } => None,
        })
        .collect()
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("snn_resume_determinism_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Interrupt at every one of the run's 6 batch boundaries (2 epochs × 3
/// batches), resume, and require bitwise-equal final weights and identical
/// epoch statistics — at 1 and 4 worker threads.
#[test]
fn resume_is_bitwise_identical_at_every_batch_boundary() {
    let data = tiny_data();
    for threads in [1usize, 4] {
        // Uninterrupted reference.
        let mut reference_net = vgg9(&Vgg9Config::cifar10_small()).unwrap();
        let mut trainer = Trainer::new(config(threads, None)).unwrap();
        let reference_report = trainer.fit(&mut reference_net, &data).unwrap();
        let reference_bits = weight_bits(&reference_net);
        assert!(reference_report.completed);

        let total_steps = 6u64; // 2 epochs x ceil(6/2) batches
        for boundary in 0..total_steps {
            let path = temp_path(&format!("boundary_{threads}_{boundary}.snntrain"));
            let mut net = vgg9(&Vgg9Config::cifar10_small()).unwrap();
            let stop = StopHandle::new();
            stop.stop_after_steps(boundary);
            let mut trainer = Trainer::new(config(threads, Some(path.clone()))).unwrap();
            let partial = trainer.fit_with_stop(&mut net, &data, &stop).unwrap();
            assert!(
                !partial.completed,
                "threads {threads}: run stopped at step {boundary} must be partial"
            );
            assert_eq!(partial.checkpoint.as_deref(), Some(path.as_path()));

            // Resume into a FRESH network: everything must come from the
            // checkpoint, nothing from the interrupted process.
            let checkpoint = TrainCheckpoint::load(&path).unwrap();
            assert_eq!(checkpoint.cursor.steps, boundary);
            let mut resumed_net = vgg9(&Vgg9Config::cifar10_small()).unwrap();
            let resumed = Trainer::resume(checkpoint, &mut resumed_net, &data).unwrap();

            assert!(resumed.completed);
            assert_eq!(
                resumed.epoch_losses, reference_report.epoch_losses,
                "threads {threads}, boundary {boundary}: epoch losses diverged"
            );
            assert_eq!(resumed.epoch_accuracies, reference_report.epoch_accuracies);
            assert_eq!(
                resumed.epoch_mean_spikes,
                reference_report.epoch_mean_spikes
            );
            assert_eq!(
                weight_bits(&resumed_net),
                reference_bits,
                "threads {threads}, boundary {boundary}: weights diverged after resume"
            );
            std::fs::remove_file(&path).ok();
        }
    }
}

/// A resumed run can itself be interrupted and resumed again (double
/// interruption), still landing bitwise on the reference.
#[test]
fn double_interruption_still_matches_reference() {
    let data = tiny_data();
    let mut reference_net = vgg9(&Vgg9Config::cifar10_small()).unwrap();
    let mut trainer = Trainer::new(config(2, None)).unwrap();
    trainer.fit(&mut reference_net, &data).unwrap();
    let reference_bits = weight_bits(&reference_net);

    let path = temp_path("double.snntrain");
    let mut net = vgg9(&Vgg9Config::cifar10_small()).unwrap();
    let stop = StopHandle::new();
    stop.stop_after_steps(2);
    let mut trainer = Trainer::new(config(2, Some(path.clone()))).unwrap();
    trainer.fit_with_stop(&mut net, &data, &stop).unwrap();

    let stop = StopHandle::new();
    stop.stop_after_steps(4);
    let checkpoint = TrainCheckpoint::load(&path).unwrap();
    let mut net2 = vgg9(&Vgg9Config::cifar10_small()).unwrap();
    let mid = Trainer::resume_with_stop(checkpoint, &mut net2, &data, &stop).unwrap();
    assert!(!mid.completed);

    let checkpoint = TrainCheckpoint::load(&path).unwrap();
    assert_eq!(checkpoint.cursor.steps, 4);
    let mut net3 = vgg9(&Vgg9Config::cifar10_small()).unwrap();
    let done = Trainer::resume(checkpoint, &mut net3, &data).unwrap();
    assert!(done.completed);
    assert_eq!(weight_bits(&net3), reference_bits);
    std::fs::remove_file(&path).ok();
}

/// Resume validation refuses the wrong dataset or a mismatched network.
#[test]
fn resume_rejects_incompatible_targets() {
    let data = tiny_data();
    let path = temp_path("incompatible.snntrain");
    let mut net = vgg9(&Vgg9Config::cifar10_small()).unwrap();
    let stop = StopHandle::new();
    stop.stop_after_steps(1);
    let mut trainer = Trainer::new(config(1, Some(path.clone()))).unwrap();
    trainer.fit_with_stop(&mut net, &data, &stop).unwrap();

    let checkpoint = TrainCheckpoint::load(&path).unwrap();
    let other_data =
        SyntheticDataset::generate(SyntheticConfig::cifar10_like().scaled_down(16, 8, 4));
    let mut fresh = vgg9(&Vgg9Config::cifar10_small()).unwrap();
    let err = Trainer::resume(checkpoint.clone(), &mut fresh, &other_data).unwrap_err();
    assert!(
        matches!(err, snn_train::TrainError::IncompatibleResume { .. }),
        "expected IncompatibleResume, got {err:?}"
    );

    // Same data and weight-layer count, but the output layer's shape
    // differs: refused before any layer is written.
    let mut wider = vgg9(&Vgg9Config::cifar100_small()).unwrap();
    let before = weight_bits(&wider);
    let err = Trainer::resume(checkpoint.clone(), &mut wider, &data).unwrap_err();
    assert!(
        matches!(err, snn_train::TrainError::IncompatibleResume { .. }),
        "expected IncompatibleResume, got {err:?}"
    );
    assert!(
        weight_bits(&wider) == before,
        "a refused resume wrote weights"
    );

    // A compatible network, but the checkpointed config is invalid.
    let mut bad_config = checkpoint;
    bad_config.config.grad_clip = Some(-1.0);
    let mut target = vgg9(&Vgg9Config::cifar10_small()).unwrap();
    let before = weight_bits(&target);
    let err = Trainer::resume(bad_config, &mut target, &data).unwrap_err();
    assert!(
        matches!(err, snn_train::TrainError::InvalidConfig { .. }),
        "expected InvalidConfig, got {err:?}"
    );
    assert!(
        weight_bits(&target) == before,
        "a refused resume wrote weights"
    );
    std::fs::remove_file(&path).ok();
}
