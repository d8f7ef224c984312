//! Per-channel batch normalisation.
//!
//! The paper uses layer-wise batch normalisation during training to prevent
//! overfitting (Sec. V-A). At inference time the normalisation is folded into
//! the preceding convolution so the hardware never sees a separate BN layer;
//! [`BatchNorm2d::fold_into_conv`] performs that folding.

use crate::error::SnnError;
use crate::layers::Conv2d;
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Batch normalisation over the channel dimension of `[C, H, W]` tensors.
///
/// Applies a fixed per-channel affine transform built from the running
/// estimates of the mean and variance and the `gamma`/`beta` parameters.
/// Nothing updates them after construction: inference uses them verbatim,
/// and BPTT treats the layer as the same fixed transform (its backward
/// scales the gradient by `gamma / sqrt(running_var + epsilon)`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchNorm2d {
    channels: usize,
    gamma: Tensor,
    beta: Tensor,
    running_mean: Tensor,
    running_var: Tensor,
    epsilon: f32,
    /// Running-statistics momentum. Nothing reads it; it stays so that
    /// serialized networks and checkpoints keep their exact bytes.
    momentum: f32,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer with identity initialisation
    /// (`gamma = 1`, `beta = 0`, zero mean, unit variance).
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] if `channels == 0`.
    pub fn new(channels: usize) -> Result<Self, SnnError> {
        if channels == 0 {
            return Err(SnnError::config(
                "channels",
                "channel count must be positive",
            ));
        }
        Ok(BatchNorm2d {
            channels,
            gamma: Tensor::ones(&[channels]),
            beta: Tensor::zeros(&[channels]),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::ones(&[channels]),
            epsilon: 1e-5,
            momentum: 0.1,
        })
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Learnable scale per channel.
    pub fn gamma(&self) -> &Tensor {
        &self.gamma
    }

    /// Mutable learnable scale per channel.
    pub fn gamma_mut(&mut self) -> &mut Tensor {
        &mut self.gamma
    }

    /// Learnable shift per channel.
    pub fn beta(&self) -> &Tensor {
        &self.beta
    }

    /// Mutable learnable shift per channel.
    pub fn beta_mut(&mut self) -> &mut Tensor {
        &mut self.beta
    }

    /// Running mean per channel.
    pub fn running_mean(&self) -> &Tensor {
        &self.running_mean
    }

    /// Running variance per channel.
    pub fn running_var(&self) -> &Tensor {
        &self.running_var
    }

    /// Numerical stabiliser added to the variance.
    pub fn epsilon(&self) -> f32 {
        self.epsilon
    }

    /// Normalises a `[C, H, W]` tensor with the running statistics
    /// (evaluation-mode forward).
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::ShapeMismatch`] if the channel count differs.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor, SnnError> {
        let mut out = input.clone();
        self.forward_inplace(&mut out)?;
        Ok(out)
    }

    /// Allocation-free variant of [`BatchNorm2d::forward`]: normalises the
    /// tensor in place. Bit-identical to [`BatchNorm2d::forward`].
    ///
    /// # Errors
    ///
    /// Same as [`BatchNorm2d::forward`].
    pub fn forward_inplace(&self, input: &mut Tensor) -> Result<(), SnnError> {
        if input.ndim() != 3 || input.shape()[0] != self.channels {
            return Err(SnnError::shape(
                &[self.channels, 0, 0],
                input.shape(),
                "BatchNorm2d::forward",
            ));
        }
        let plane = input.shape()[1] * input.shape()[2];
        let data = input.as_mut_slice();
        for c in 0..self.channels {
            let mean = self.running_mean.as_slice()[c];
            let var = self.running_var.as_slice()[c];
            let gamma = self.gamma.as_slice()[c];
            let beta = self.beta.as_slice()[c];
            let inv_std = 1.0 / (var + self.epsilon).sqrt();
            for v in &mut data[c * plane..(c + 1) * plane] {
                *v = (*v - mean) * inv_std * gamma + beta;
            }
        }
        Ok(())
    }

    /// Folds this batch-norm layer into the convolution that precedes it,
    /// producing an equivalent convolution for inference:
    /// `w' = w * gamma / sqrt(var + eps)`,
    /// `b' = (b - mean) * gamma / sqrt(var + eps) + beta`.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::ShapeMismatch`] if the convolution's output channel
    /// count does not match.
    pub fn fold_into_conv(&self, conv: &Conv2d) -> Result<Conv2d, SnnError> {
        if conv.out_channels() != self.channels {
            return Err(SnnError::shape(
                &[self.channels],
                &[conv.out_channels()],
                "BatchNorm2d::fold_into_conv",
            ));
        }
        let mut folded = conv.clone();
        let per_out = conv.in_channels() * conv.kernel() * conv.kernel();
        let mut weight = conv.weight().clone();
        let mut bias = conv.bias().clone();
        {
            let w = weight.as_mut_slice();
            let b = bias.as_mut_slice();
            for c in 0..self.channels {
                let scale = self.gamma.as_slice()[c]
                    / (self.running_var.as_slice()[c] + self.epsilon).sqrt();
                for v in &mut w[c * per_out..(c + 1) * per_out] {
                    *v *= scale;
                }
                b[c] = (b[c] - self.running_mean.as_slice()[c]) * scale + self.beta.as_slice()[c];
            }
        }
        folded.set_weight(weight)?;
        folded.set_bias(bias)?;
        Ok(folded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_channels() {
        assert!(BatchNorm2d::new(0).is_err());
        assert!(BatchNorm2d::new(4).is_ok());
    }

    #[test]
    fn identity_bn_is_near_identity() {
        let bn = BatchNorm2d::new(2).unwrap();
        let input = Tensor::from_fn(&[2, 2, 2], |i| i as f32 * 0.1);
        let out = bn.forward(&input).unwrap();
        for (a, b) in out.as_slice().iter().zip(input.as_slice().iter()) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn forward_rejects_wrong_channels() {
        let bn = BatchNorm2d::new(2).unwrap();
        assert!(bn.forward(&Tensor::zeros(&[3, 2, 2])).is_err());
        assert!(bn.forward(&Tensor::zeros(&[2, 4])).is_err());
    }

    #[test]
    fn folding_matches_separate_application() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(11);
        let conv = Conv2d::with_kaiming_init(2, 3, 3, 1, 1, &mut rng).unwrap();
        let mut bn = BatchNorm2d::new(3).unwrap();
        // Give BN non-trivial statistics.
        bn.gamma_mut()
            .as_mut_slice()
            .copy_from_slice(&[1.2, 0.8, 1.0]);
        bn.beta_mut()
            .as_mut_slice()
            .copy_from_slice(&[0.1, -0.2, 0.05]);
        let input = Tensor::from_fn(&[2, 6, 6], |i| ((i as f32) * 0.13).sin());
        let separate = bn.forward(&conv.forward(&input).unwrap()).unwrap();
        let folded = bn.fold_into_conv(&conv).unwrap();
        let fused = folded.forward(&input).unwrap();
        for (a, b) in separate.as_slice().iter().zip(fused.as_slice().iter()) {
            assert!((a - b).abs() < 1e-4, "separate {a} vs fused {b}");
        }
    }

    #[test]
    fn folding_rejects_channel_mismatch() {
        let conv = Conv2d::new(2, 3, 3, 1, 1).unwrap();
        let bn = BatchNorm2d::new(4).unwrap();
        assert!(bn.fold_into_conv(&conv).is_err());
    }
}
