//! Learning-rate schedules.
//!
//! Long QAT runs in the paper's training setup decay the learning rate over
//! epochs; this module provides the standard schedules the trainer can apply
//! between epochs (step decay, cosine annealing). A constant rate is no
//! schedule at all: [`TrainConfig::schedule`](crate::trainer::TrainConfig)
//! `None`.

use serde::{Deserialize, Serialize};

/// A serialisable choice of learning-rate schedule, for
/// [`TrainConfig`](crate::trainer::TrainConfig) and training checkpoints.
/// A schedule scales a base rate, the config's `learning_rate`, which it
/// does not hold itself.
///
/// The position of a schedule is just the epoch index — it carries no other
/// mutable state — so a resumed run re-derives the exact learning rate for
/// every remaining epoch from the checkpointed cursor alone.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ScheduleKind {
    /// Step decay: multiply the base rate by `gamma` every `step` epochs (a
    /// zero `step` keeps the base rate).
    Step {
        /// Epochs between decays.
        step: usize,
        /// Multiplicative decay factor in `(0, 1]`.
        gamma: f32,
    },
    /// Cosine annealing from the base rate down to `min_lr` over
    /// `total_epochs` (zero `total_epochs` keeps the base rate), then
    /// `min_lr`.
    Cosine {
        /// Final learning rate.
        min_lr: f32,
        /// Number of epochs over which to anneal.
        total_epochs: usize,
    },
}

impl ScheduleKind {
    /// Learning rate to use during `epoch` (0-based) for the base rate
    /// `base`.
    pub fn learning_rate(&self, base: f32, epoch: usize) -> f32 {
        match *self {
            ScheduleKind::Step { step: 0, .. }
            | ScheduleKind::Cosine {
                total_epochs: 0, ..
            } => base,
            ScheduleKind::Step { step, gamma } => base * gamma.powi((epoch / step) as i32),
            ScheduleKind::Cosine {
                min_lr,
                total_epochs,
            } => {
                let progress = (epoch.min(total_epochs) as f32) / total_epochs as f32;
                let cos = (std::f32::consts::PI * progress).cos();
                min_lr + 0.5 * (base - min_lr) * (1.0 + cos)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constant_never_changes() {
        // A decay factor of 1 is a constant schedule.
        let s = ScheduleKind::Step {
            step: 1,
            gamma: 1.0,
        };
        assert_eq!(s.learning_rate(0.01, 0), 0.01);
        assert_eq!(s.learning_rate(0.01, 100), 0.01);
    }

    #[test]
    fn step_decay_halves_every_step() {
        let s = ScheduleKind::Step {
            step: 2,
            gamma: 0.5,
        };
        assert_eq!(s.learning_rate(0.1, 0), 0.1);
        assert_eq!(s.learning_rate(0.1, 1), 0.1);
        assert!((s.learning_rate(0.1, 2) - 0.05).abs() < 1e-9);
        assert!((s.learning_rate(0.1, 4) - 0.025).abs() < 1e-9);
    }

    #[test]
    fn step_decay_with_zero_step_is_constant() {
        let s = ScheduleKind::Step {
            step: 0,
            gamma: 0.5,
        };
        assert_eq!(s.learning_rate(0.1, 10), 0.1);
    }

    #[test]
    fn cosine_starts_at_base_and_ends_at_min() {
        let s = ScheduleKind::Cosine {
            min_lr: 0.001,
            total_epochs: 10,
        };
        assert!((s.learning_rate(0.1, 0) - 0.1).abs() < 1e-6);
        assert!((s.learning_rate(0.1, 10) - 0.001).abs() < 1e-6);
        assert!((s.learning_rate(0.1, 20) - 0.001).abs() < 1e-6);
        // Midpoint is the average of base and min.
        assert!((s.learning_rate(0.1, 5) - 0.0505).abs() < 1e-3);
    }

    /// Every rate keeps the bits of the two formulas, written out here term
    /// for term.
    #[test]
    fn schedule_kind_delegates_bitwise() {
        let step = ScheduleKind::Step {
            step: 2,
            gamma: 0.5,
        };
        let cosine = ScheduleKind::Cosine {
            min_lr: 0.001,
            total_epochs: 10,
        };
        for epoch in 0..20 {
            let step_rate = 0.1_f32 * 0.5_f32.powi((epoch / 2) as i32);
            assert_eq!(
                step.learning_rate(0.1, epoch).to_bits(),
                step_rate.to_bits()
            );
            let progress = (epoch.min(10) as f32) / 10.0;
            let cos = (std::f32::consts::PI * progress).cos();
            let cosine_rate = 0.001_f32 + 0.5 * (0.1 - 0.001) * (1.0 + cos);
            assert_eq!(
                cosine.learning_rate(0.1, epoch).to_bits(),
                cosine_rate.to_bits()
            );
        }
    }

    /// A checkpoint written while schedules held their own `base_lr` still
    /// loads: the field is read by name and ignored.
    #[test]
    fn a_saved_base_lr_is_ignored_on_load() {
        let json = r#"{"Step":{"base_lr":0.25,"step":2,"gamma":0.5}}"#;
        let s: ScheduleKind = serde_json::from_str(json).unwrap();
        assert_eq!(
            s,
            ScheduleKind::Step {
                step: 2,
                gamma: 0.5
            }
        );
    }

    proptest! {
        /// Cosine annealing is monotonically non-increasing inside the
        /// annealing window and stays within [min_lr, base].
        #[test]
        fn cosine_monotone_and_bounded(epoch in 0_usize..30) {
            let s = ScheduleKind::Cosine { min_lr: 0.01, total_epochs: 30 };
            let now = s.learning_rate(0.2, epoch);
            let next = s.learning_rate(0.2, epoch + 1);
            prop_assert!(next <= now + 1e-6);
            prop_assert!((0.01 - 1e-6..=0.2 + 1e-6).contains(&now));
        }

        /// Step decay never increases with epochs for gamma <= 1.
        #[test]
        fn step_decay_monotone(epoch in 0_usize..50, gamma in 0.1_f32..1.0) {
            let s = ScheduleKind::Step { step: 3, gamma };
            prop_assert!(s.learning_rate(0.3, epoch + 1) <= s.learning_rate(0.3, epoch) + 1e-7);
        }
    }
}
