//! Training chaos suite: seeded fault injection over the trainer proves
//! that no injected panic escapes `fit`, every injected fault is reported
//! exactly once as a typed quarantine entry, and the quarantine set is
//! invariant to batch size and thread count.

use snn_core::network::{vgg9, Layer, SnnNetwork, Vgg9Config};
use snn_data::{Dataset, Sample, Split, SyntheticConfig, SyntheticDataset};
use snn_train::trainer::{TrainConfig, Trainer};
use snn_train::{FaultReason, SampleFault, TrainError, TrainFault, TrainFaultPlan};

/// Injected worker panics are expected here; suppress their default stderr
/// backtraces while forwarding every real panic.
fn quiet_injected_panics() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = info
                .payload()
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| info.payload().downcast_ref::<&str>().map(|s| s.to_string()));
            if let Some(message) = &message {
                if message.contains("injected fault") {
                    return;
                }
            }
            default(info);
        }));
    });
}

fn tiny_data() -> SyntheticDataset {
    SyntheticDataset::generate(SyntheticConfig::cifar10_like().scaled_down(16, 20, 10))
}

fn chaos_config(batch_size: usize, threads: usize) -> TrainConfig {
    let mut cfg = TrainConfig::quick();
    cfg.epochs = 2;
    cfg.max_train_samples = Some(12);
    cfg.batch_size = batch_size;
    cfg.threads = threads;
    cfg.seed = 5;
    cfg.fault_budget = 1000;
    cfg
}

/// The faults the plan injects over this run, in deterministic (epoch,
/// index) order — what the report must contain, each exactly once.
fn expected_faults(
    plan: &TrainFaultPlan,
    epochs: usize,
    limit: usize,
) -> Vec<(usize, usize, TrainFault)> {
    let mut expected = Vec::new();
    for epoch in 0..epochs {
        for index in 0..limit {
            let fault = plan.fault_for(epoch, index);
            if fault != TrainFault::None {
                expected.push((epoch, index, fault));
            }
        }
    }
    expected
}

fn reason_matches(reason: &FaultReason, injected: TrainFault) -> bool {
    match injected {
        TrainFault::Panic => matches!(reason, FaultReason::Panicked { .. }),
        TrainFault::NanGrad => {
            matches!(reason, FaultReason::NonFinite { what } if what == "gradient")
        }
        TrainFault::CorruptSample => matches!(reason, FaultReason::InvalidData { .. }),
        TrainFault::None => false,
    }
}

fn weight_bits(net: &SnnNetwork) -> Vec<u32> {
    net.layers()
        .iter()
        .flat_map(|layer| match layer {
            Layer::Conv { conv, .. } => conv.weight().as_slice().to_vec(),
            Layer::Linear { linear, .. } => linear.weight().as_slice().to_vec(),
            Layer::Pool { .. } => Vec::new(),
        })
        .map(|w| w.to_bits())
        .collect()
}

/// All three fault kinds at once: the run survives, and the quarantine list
/// is exactly the injected set — every fault reported once, with the
/// matching typed reason, excluded by sample index.
#[test]
fn every_injected_fault_is_quarantined_exactly_once() {
    quiet_injected_panics();
    let data = tiny_data();
    let plan = TrainFaultPlan::new(71)
        .with_panic_rate(0.12)
        .with_nan_grad_rate(0.12)
        .with_corrupt_rate(0.12);
    let expected = expected_faults(&plan, 2, 12);
    assert!(
        expected.len() >= 3,
        "plan seed must inject a few faults for the test to mean anything"
    );

    let mut net = vgg9(&Vgg9Config::cifar10_small()).unwrap();
    let mut trainer = Trainer::new(chaos_config(4, 2))
        .unwrap()
        .with_fault_plan(plan);
    let report = trainer.fit(&mut net, &data).unwrap();

    assert!(report.completed);
    assert_eq!(
        report.faults.len(),
        expected.len(),
        "each injected fault must be reported exactly once: {:?}",
        report.faults
    );
    for (fault, (epoch, index, injected)) in report.faults.iter().zip(&expected) {
        assert_eq!((fault.epoch, fault.index), (*epoch, *index));
        assert!(
            reason_matches(&fault.reason, *injected),
            "sample ({epoch}, {index}): injected {injected:?}, reported {:?}",
            fault.reason
        );
    }
    // Surviving samples still trained: epoch stats exist and are finite.
    assert_eq!(report.epoch_losses.len(), 2);
    assert!(report.final_loss().is_finite());
}

/// The quarantine set — and the weights trained on the surviving samples —
/// do not depend on the thread count; the quarantine set is also invariant
/// to the batch size.
#[test]
fn quarantine_set_is_batching_and_thread_invariant() {
    quiet_injected_panics();
    let data = tiny_data();
    let plan = TrainFaultPlan::new(9)
        .with_panic_rate(0.15)
        .with_nan_grad_rate(0.1);

    let mut reference_faults: Option<Vec<SampleFault>> = None;
    // Thread sweep at fixed batch size: faults AND weights must agree.
    let mut reference_bits: Option<Vec<u32>> = None;
    for threads in [1usize, 2, 4] {
        let mut net = vgg9(&Vgg9Config::cifar10_small()).unwrap();
        let mut trainer = Trainer::new(chaos_config(4, threads))
            .unwrap()
            .with_fault_plan(plan);
        let report = trainer.fit(&mut net, &data).unwrap();
        let bits = weight_bits(&net);
        match (&reference_faults, &reference_bits) {
            (None, _) => {
                reference_faults = Some(report.faults);
                reference_bits = Some(bits);
            }
            (Some(faults), Some(ref_bits)) => {
                assert_eq!(
                    &report.faults, faults,
                    "fault list differs at {threads} threads"
                );
                assert_eq!(&bits, ref_bits, "weights differ at {threads} threads");
            }
            _ => unreachable!(),
        }
    }
    // Batch-size sweep: the fault list must not change (weights legitimately
    // do — different folds).
    for batch_size in [2usize, 3, 6, 12] {
        let mut net = vgg9(&Vgg9Config::cifar10_small()).unwrap();
        let mut trainer = Trainer::new(chaos_config(batch_size, 2))
            .unwrap()
            .with_fault_plan(plan);
        let report = trainer.fit(&mut net, &data).unwrap();
        assert_eq!(
            report.faults,
            *reference_faults.as_ref().unwrap(),
            "fault list differs at batch size {batch_size}"
        );
    }
}

/// Exceeding the fault budget aborts with the typed error instead of
/// training on a mostly-quarantined stream.
#[test]
fn fault_budget_exhaustion_aborts_typed() {
    quiet_injected_panics();
    let data = tiny_data();
    let plan = TrainFaultPlan::new(3).with_panic_rate(0.5);
    let mut cfg = chaos_config(4, 2);
    cfg.fault_budget = 2;
    let mut net = vgg9(&Vgg9Config::cifar10_small()).unwrap();
    let mut trainer = Trainer::new(cfg).unwrap().with_fault_plan(plan);
    let err = trainer.fit(&mut net, &data).unwrap_err();
    match err {
        TrainError::FaultBudgetExceeded { faults, budget, .. } => {
            assert_eq!(budget, 2);
            assert!(faults > budget);
        }
        other => panic!("expected FaultBudgetExceeded, got {other:?}"),
    }
}

/// With quarantine disabled, a planted NaN gradient poisons its batch and
/// trips the non-finite fail-fast BEFORE the optimizer step — the typed
/// error names the epoch and batch.
#[test]
fn non_finite_fail_fast_aborts_before_the_optimizer_step() {
    quiet_injected_panics();
    let data = tiny_data();
    // Plant exactly one NaN-gradient sample at a known position.
    let plan = TrainFaultPlan::new(29).with_nan_grad_rate(0.08);
    let planted = expected_faults(&plan, 2, 12);
    assert!(!planted.is_empty(), "seed must plant at least one NaN");
    let (first_epoch, first_index, _) = planted[0];

    let mut cfg = chaos_config(4, 2);
    cfg.quarantine = false;
    let mut net = vgg9(&Vgg9Config::cifar10_small()).unwrap();
    let before = weight_bits(&net);
    let mut trainer = Trainer::new(cfg).unwrap().with_fault_plan(plan);
    let err = trainer.fit(&mut net, &data).unwrap_err();
    match err {
        TrainError::NonFinite {
            epoch, batch, what, ..
        } => {
            assert_eq!(epoch, first_epoch);
            assert_eq!(batch, first_index / 4);
            assert_eq!(what, "gradient norm");
        }
        other => panic!("expected NonFinite, got {other:?}"),
    }
    if first_epoch == 0 && first_index / 4 == 0 {
        // The poisoned batch was the first: no update may have been applied.
        assert_eq!(
            weight_bits(&net),
            before,
            "poisoned batch must not reach weights"
        );
    }
}

/// A dataset with a genuinely poisoned sample (NaN pixel): the sample is
/// always quarantined as invalid data — even with result-quarantine off —
/// and training completes on the remaining samples.
#[test]
fn poisoned_dataset_sample_is_quarantined_by_validation() {
    struct Poisoned {
        inner: SyntheticDataset,
        bad_index: usize,
    }
    impl Dataset for Poisoned {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn num_classes(&self) -> usize {
            self.inner.num_classes()
        }
        fn image_shape(&self) -> [usize; 3] {
            self.inner.image_shape()
        }
        fn len(&self, split: Split) -> usize {
            self.inner.len(split)
        }
        fn sample(&self, split: Split, index: usize) -> Sample {
            let mut sample = self.inner.sample(split, index);
            if split == Split::Train && index == self.bad_index {
                sample.image.as_mut_slice()[5] = f32::NAN;
            }
            sample
        }
    }

    let data = Poisoned {
        inner: tiny_data(),
        bad_index: 7,
    };
    let mut cfg = chaos_config(4, 2);
    cfg.quarantine = false; // input validation quarantines regardless
    let mut net = vgg9(&Vgg9Config::cifar10_small()).unwrap();
    let mut trainer = Trainer::new(cfg).unwrap();
    let report = trainer.fit(&mut net, &data).unwrap();
    assert!(report.completed);
    assert_eq!(report.faults.len(), 2, "one quarantine per epoch");
    for (fault, epoch) in report.faults.iter().zip(0..) {
        assert_eq!(fault.epoch, epoch);
        assert_eq!(fault.index, 7);
        assert!(matches!(fault.reason, FaultReason::InvalidData { .. }));
    }
    // Out-of-range labels are caught by the same validation seam.
    let sample = Sample {
        image: snn_core::tensor::Tensor::zeros(&[3, 16, 16]),
        label: 99,
    };
    assert!(sample.validate(10).is_err());
}
