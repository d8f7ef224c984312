//! Loss functions and classification metrics for the population readout.
//!
//! The network's logits are the total spike counts of each class's share of
//! the output population layer. Training minimises a softmax cross-entropy
//! over those counts; its gradient (`softmax(logits) - one_hot(target)`) is
//! the seed of the BPTT backward pass.

use snn_core::error::SnnError;
use snn_core::tensor::argmax;

/// Numerically stable softmax.
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    if logits.is_empty() {
        return Vec::new();
    }
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|&x| (x - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// Softmax cross-entropy loss and its gradient with respect to the logits.
///
/// Returns `(loss, grad)` where `grad[i] = softmax(logits)[i] - 1[i == target]`.
///
/// # Errors
///
/// Returns [`SnnError::IndexOutOfBounds`] if `target >= logits.len()` or
/// [`SnnError::InvalidConfig`] if `logits` is empty.
pub fn cross_entropy(logits: &[f32], target: usize) -> Result<(f32, Vec<f32>), SnnError> {
    if logits.is_empty() {
        return Err(SnnError::config("logits", "logits must be non-empty"));
    }
    if target >= logits.len() {
        return Err(SnnError::index(
            target,
            logits.len(),
            "cross_entropy target",
        ));
    }
    let probs = softmax(logits);
    let loss = -(probs[target].max(1e-12)).ln();
    let mut grad = probs;
    grad[target] -= 1.0;
    Ok((loss, grad))
}

/// Top-1 accuracy of a batch of `(logits, target)` pairs, in `[0, 1]`.
pub fn accuracy(predictions: &[(Vec<f32>, usize)]) -> f64 {
    if predictions.is_empty() {
        return 0.0;
    }
    let correct = predictions
        .iter()
        .filter(|(logits, target)| argmax(logits) == *target)
        .count();
    correct as f64 / predictions.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let p = softmax(&[1000.0, 1001.0]);
        assert!(p.iter().all(|x| x.is_finite()));
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_of_empty_is_empty() {
        assert!(softmax(&[]).is_empty());
    }

    #[test]
    fn cross_entropy_zero_when_confident_and_correct() {
        let (loss, grad) = cross_entropy(&[100.0, 0.0, 0.0], 0).unwrap();
        assert!(loss < 1e-3);
        assert!(grad[0].abs() < 1e-3);
    }

    #[test]
    fn cross_entropy_penalises_wrong_prediction() {
        let (loss_right, _) = cross_entropy(&[5.0, 0.0], 0).unwrap();
        let (loss_wrong, _) = cross_entropy(&[5.0, 0.0], 1).unwrap();
        assert!(loss_wrong > loss_right);
    }

    #[test]
    fn cross_entropy_gradient_sums_to_zero() {
        let (_, grad) = cross_entropy(&[0.3, -1.2, 2.0, 0.0], 2).unwrap();
        assert!(grad.iter().sum::<f32>().abs() < 1e-6);
        // Target entry is negative, everything else positive.
        assert!(grad[2] < 0.0);
        assert!(grad
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 2)
            .all(|(_, &g)| g >= 0.0));
    }

    #[test]
    fn cross_entropy_validates_inputs() {
        assert!(cross_entropy(&[], 0).is_err());
        assert!(cross_entropy(&[1.0, 2.0], 2).is_err());
    }

    #[test]
    fn accuracy_counts_argmax_hits() {
        let preds = vec![
            (vec![1.0, 0.0], 0),
            (vec![0.0, 1.0], 1),
            (vec![1.0, 0.0], 1),
            (vec![0.0, 1.0], 0),
        ];
        assert_eq!(accuracy(&preds), 0.5);
        assert_eq!(accuracy(&[]), 0.0);
    }

    proptest! {
        /// The cross-entropy gradient matches a finite-difference check.
        #[test]
        fn gradient_matches_finite_difference(
            logits in proptest::collection::vec(-3.0_f32..3.0, 2..8),
            target_idx in 0_usize..8,
        ) {
            let target = target_idx % logits.len();
            let (_, grad) = cross_entropy(&logits, target).unwrap();
            let eps = 1e-3;
            for i in 0..logits.len() {
                let mut plus = logits.clone();
                plus[i] += eps;
                let mut minus = logits.clone();
                minus[i] -= eps;
                let (lp, _) = cross_entropy(&plus, target).unwrap();
                let (lm, _) = cross_entropy(&minus, target).unwrap();
                let num = (lp - lm) / (2.0 * eps);
                prop_assert!((num - grad[i]).abs() < 2e-2, "dim {i}: {num} vs {}", grad[i]);
            }
        }

        /// Softmax output is always a probability distribution.
        #[test]
        fn softmax_is_distribution(logits in proptest::collection::vec(-50.0_f32..50.0, 1..20)) {
            let p = softmax(&logits);
            prop_assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
            prop_assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        }
    }
}
