//! Property coverage of the train-checkpoint format: serialized optimizer
//! state (SGD momentum; Adam moments and per-parameter step counts) and the
//! LR-schedule position must round-trip bitwise through the payload and
//! through disk, and every corruption — a flipped bit anywhere in the file,
//! truncation at any length — must be rejected typed, never trained on.

use proptest::prelude::*;
use snn_core::tensor::Tensor;
use snn_train::schedule::ScheduleKind;
use snn_train::trainer::{TrainConfig, TrainReport};
use snn_train::{DataFingerprint, OptimizerState, TrainCheckpoint, TrainCursor};
use std::collections::BTreeMap;
use std::path::PathBuf;

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("snn_ckpt_roundtrip_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn fingerprint() -> DataFingerprint {
    DataFingerprint {
        name: "synthetic".to_string(),
        num_classes: 10,
        image_shape: vec![3, 16, 16],
        train_len: 20,
    }
}

/// A tensor whose f32 values come straight from arbitrary u32 bit patterns
/// (may include NaN payloads, infinities, subnormals). The format must
/// carry every bit pattern unchanged.
fn tensor_from_bits(bits: &[u32]) -> Tensor {
    let data: Vec<f32> = bits.iter().map(|b| f32::from_bits(*b)).collect();
    Tensor::from_vec(data, &[bits.len()]).unwrap()
}

fn tensor_map(prefix: &str, tensors: &[Vec<u32>]) -> BTreeMap<String, Tensor> {
    tensors
        .iter()
        .enumerate()
        .map(|(i, bits)| (format!("{prefix}{i}.weight"), tensor_from_bits(bits)))
        .collect()
}

fn bits_of(tensor: &Tensor) -> Vec<u32> {
    tensor.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn checkpoint_with(
    optimizer: OptimizerState,
    schedule: Option<ScheduleKind>,
    cursor: TrainCursor,
) -> TrainCheckpoint {
    let mut config = TrainConfig::quick();
    config.schedule = schedule;
    TrainCheckpoint {
        config,
        data: fingerprint(),
        cursor,
        report: TrainReport::default(),
        weights: Vec::new(),
        optimizer,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// SGD state — learning rate, momentum, velocity tensors with arbitrary
    /// f32 bit patterns — survives the payload bitwise. Struct equality
    /// would lie for NaN bits, so the proof is payload-byte equality plus a
    /// bit-level tensor comparison.
    #[test]
    fn sgd_state_roundtrips_bitwise(
        lr_bits in any::<u32>(),
        momentum in 0.0_f32..1.0,
        tensors in collection::vec(collection::vec(any::<u32>(), 1..9), 1..4),
        epoch in 0_usize..100,
        steps in any::<u64>(),
    ) {
        let state = OptimizerState::Sgd {
            lr: f32::from_bits(lr_bits),
            momentum,
            velocity: tensor_map("layer", &tensors),
        };
        let cursor = TrainCursor { epoch, steps, ..TrainCursor::default() };
        let checkpoint = checkpoint_with(state, None, cursor);
        let payload = checkpoint.to_payload().unwrap();
        let restored = TrainCheckpoint::from_payload(&payload).unwrap();
        prop_assert_eq!(restored.to_payload().unwrap(), payload);
        match &restored.optimizer {
            OptimizerState::Sgd { lr, velocity, .. } => {
                prop_assert_eq!(lr.to_bits(), lr_bits);
                for (i, bits) in tensors.iter().enumerate() {
                    prop_assert_eq!(&bits_of(&velocity[&format!("layer{i}.weight")]), bits);
                }
            }
            other => panic!("optimizer kind changed in round trip: {other:?}"),
        }
        prop_assert_eq!(restored.cursor.epoch, epoch);
        prop_assert_eq!(restored.cursor.steps, steps);
    }

    /// Adam state — both moment maps and the per-parameter bias-correction
    /// timesteps — survives the payload bitwise, including hostile f32 bit
    /// patterns in the moments.
    #[test]
    fn adam_state_roundtrips_bitwise(
        first in collection::vec(collection::vec(any::<u32>(), 1..9), 1..4),
        t in collection::vec(any::<u64>(), 1..4),
    ) {
        // Mirror the second moment and steps off the first so shapes agree.
        let second: Vec<Vec<u32>> = first.iter()
            .map(|bits| bits.iter().map(|b| b.wrapping_mul(0x9e37)).collect())
            .collect();
        let steps: BTreeMap<String, u64> = first.iter().enumerate()
            .map(|(i, _)| (format!("layer{i}.weight"), t[i % t.len()]))
            .collect();
        let state = OptimizerState::Adam {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            steps: steps.clone(),
            first_moment: tensor_map("layer", &first),
            second_moment: tensor_map("layer", &second),
        };
        let checkpoint = checkpoint_with(state, None, TrainCursor::default());
        let payload = checkpoint.to_payload().unwrap();
        let restored = TrainCheckpoint::from_payload(&payload).unwrap();
        prop_assert_eq!(restored.to_payload().unwrap(), payload);
        match &restored.optimizer {
            OptimizerState::Adam { steps: rsteps, first_moment, second_moment, .. } => {
                prop_assert_eq!(rsteps, &steps);
                for (i, bits) in first.iter().enumerate() {
                    let key = format!("layer{i}.weight");
                    prop_assert_eq!(&bits_of(&first_moment[&key]), bits);
                    prop_assert_eq!(&bits_of(&second_moment[&key]), &second[i]);
                }
            }
            other => panic!("optimizer kind changed in round trip: {other:?}"),
        }
    }

    /// The LR-schedule position round-trips: the schedule definition and the
    /// base rate it scales ride in the config and the epoch in the cursor
    /// section, and the restored triple computes a bitwise-identical
    /// learning rate.
    #[test]
    fn schedule_position_roundtrips_bitwise(
        base_lr in 1e-5_f32..1.0,
        gamma in 0.1_f32..0.99,
        step in 1_usize..10,
        epoch in 0_usize..50,
        cosine in any::<bool>(),
    ) {
        let schedule = if cosine {
            ScheduleKind::Cosine { min_lr: base_lr * 0.01, total_epochs: 64 }
        } else {
            ScheduleKind::Step { step, gamma }
        };
        let cursor = TrainCursor { epoch, ..TrainCursor::default() };
        let state = OptimizerState::Sgd {
            lr: schedule.learning_rate(base_lr, epoch),
            momentum: 0.9,
            velocity: BTreeMap::new(),
        };
        let mut checkpoint = checkpoint_with(state, Some(schedule), cursor);
        checkpoint.config.learning_rate = base_lr;
        let payload = checkpoint.to_payload().unwrap();
        let restored = TrainCheckpoint::from_payload(&payload).unwrap();
        prop_assert_eq!(restored.config.schedule, Some(schedule));
        prop_assert_eq!(restored.cursor.epoch, epoch);
        let restored_schedule = restored.config.schedule.unwrap();
        let restored_base = restored.config.learning_rate;
        prop_assert_eq!(
            restored_schedule.learning_rate(restored_base, restored.cursor.epoch).to_bits(),
            schedule.learning_rate(base_lr, epoch).to_bits()
        );
    }

    /// Corruption rejection: flip any single bit of a saved checkpoint file
    /// and the load must fail (CRC-64 trailer or section parsing) — never
    /// return a silently-different checkpoint.
    #[test]
    fn any_single_bit_flip_is_rejected(
        tensors in collection::vec(collection::vec(any::<u32>(), 1..5), 1..3),
        flip_pos in any::<u64>(),
        flip_bit in 0_u8..8,
    ) {
        let state = OptimizerState::Sgd {
            lr: 0.01,
            momentum: 0.9,
            velocity: tensor_map("layer", &tensors),
        };
        let checkpoint = checkpoint_with(state, None, TrainCursor::default());
        let path = temp_path("bitflip.snntrain");
        checkpoint.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let pos = (flip_pos % bytes.len() as u64) as usize;
        bytes[pos] ^= 1 << flip_bit;
        std::fs::write(&path, &bytes).unwrap();
        prop_assert!(
            TrainCheckpoint::load(&path).is_err(),
            "bit flip at byte {} bit {} must be detected", pos, flip_bit
        );
    }

    /// Truncation rejection: cut the saved file at any length short of the
    /// original and the load must fail typed.
    #[test]
    fn any_truncation_is_rejected(cut in any::<u64>()) {
        let state = OptimizerState::Sgd {
            lr: 0.01,
            momentum: 0.9,
            velocity: tensor_map("layer", &[vec![1, 2, 3, 4]]),
        };
        let checkpoint = checkpoint_with(state, None, TrainCursor::default());
        let path = temp_path("truncate.snntrain");
        checkpoint.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let keep = (cut % bytes.len() as u64) as usize;
        std::fs::write(&path, &bytes[..keep]).unwrap();
        prop_assert!(
            TrainCheckpoint::load(&path).is_err(),
            "truncation to {} of {} bytes must be detected", keep, bytes.len()
        );
    }
}

/// Disk round-trip with a fully finite state: full struct equality holds.
#[test]
fn finite_checkpoint_roundtrips_through_disk_by_equality() {
    let state = OptimizerState::Adam {
        lr: 5e-4,
        beta1: 0.9,
        beta2: 0.999,
        epsilon: 1e-8,
        steps: BTreeMap::from([("layer0.weight".to_string(), 7_u64)]),
        first_moment: BTreeMap::from([(
            "layer0.weight".to_string(),
            Tensor::from_vec(vec![0.25, -0.5, 1.0], &[3]).unwrap(),
        )]),
        second_moment: BTreeMap::from([(
            "layer0.weight".to_string(),
            Tensor::from_vec(vec![0.01, 0.02, 0.03], &[3]).unwrap(),
        )]),
    };
    let cursor = TrainCursor {
        epoch: 3,
        next_index: 4,
        steps: 19,
        epoch_loss: 12.5,
        correct: 9,
        seen: 16,
        spikes: 42,
    };
    let checkpoint = checkpoint_with(
        state,
        Some(ScheduleKind::Step {
            step: 2,
            gamma: 0.5,
        }),
        cursor,
    );
    let path = temp_path("finite.snntrain");
    checkpoint.save(&path).unwrap();
    let restored = TrainCheckpoint::load(&path).unwrap();
    assert_eq!(restored, checkpoint);
    std::fs::remove_file(&path).ok();
}
