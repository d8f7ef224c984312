//! Fully-connected (FC) layer.

use crate::error::SnnError;
use crate::quant::{fake_quantize, Precision};
use crate::spike::SpikePlane;
use crate::tensor::Tensor;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A fully-connected layer computing `y = W x + b`.
///
/// The weight matrix has shape `[out_features, in_features]`. Like
/// [`crate::layers::Conv2d`], the output is the membrane input current of the
/// LIF population (or the readout accumulator) that follows.
///
/// # Example
///
/// ```
/// use snn_core::layers::Linear;
/// use snn_core::tensor::Tensor;
///
/// # fn main() -> Result<(), snn_core::SnnError> {
/// let fc = Linear::new(4, 2)?;
/// let out = fc.forward(&Tensor::ones(&[4]))?;
/// assert_eq!(out.shape(), &[2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Linear {
    in_features: usize,
    out_features: usize,
    weight: Tensor,
    bias: Tensor,
}

impl Linear {
    /// Creates a zero-initialised layer.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] if either dimension is zero.
    pub fn new(in_features: usize, out_features: usize) -> Result<Self, SnnError> {
        if in_features == 0 || out_features == 0 {
            return Err(SnnError::config(
                "features",
                "feature counts must be positive",
            ));
        }
        Ok(Linear {
            in_features,
            out_features,
            weight: Tensor::zeros(&[out_features, in_features]),
            bias: Tensor::zeros(&[out_features]),
        })
    }

    /// Creates a layer with Kaiming-uniform initialised weights.
    ///
    /// # Errors
    ///
    /// Same as [`Linear::new`].
    pub fn with_kaiming_init(
        in_features: usize,
        out_features: usize,
        rng: &mut impl Rng,
    ) -> Result<Self, SnnError> {
        let mut layer = Linear::new(in_features, out_features)?;
        let bound = (6.0 / in_features as f32).sqrt();
        layer.weight = Tensor::from_fn(layer.weight.shape(), |_| rng.gen_range(-bound..bound));
        layer.bias = Tensor::from_fn(&[out_features], |_| rng.gen_range(-0.01..0.01));
        Ok(layer)
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Number of output features (neurons).
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Weight matrix of shape `[out_features, in_features]`.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Mutable weight matrix.
    pub fn weight_mut(&mut self) -> &mut Tensor {
        &mut self.weight
    }

    /// Bias vector.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Mutable bias vector.
    pub fn bias_mut(&mut self) -> &mut Tensor {
        &mut self.bias
    }

    /// Replaces the weight matrix.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::ShapeMismatch`] on a shape mismatch.
    pub fn set_weight(&mut self, weight: Tensor) -> Result<(), SnnError> {
        if weight.shape() != [self.out_features, self.in_features] {
            return Err(SnnError::shape(
                &[self.out_features, self.in_features],
                weight.shape(),
                "Linear::set_weight",
            ));
        }
        self.weight = weight;
        Ok(())
    }

    /// Replaces the bias vector.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::ShapeMismatch`] on a shape mismatch.
    pub fn set_bias(&mut self, bias: Tensor) -> Result<(), SnnError> {
        if bias.shape() != [self.out_features] {
            return Err(SnnError::shape(
                &[self.out_features],
                bias.shape(),
                "Linear::set_bias",
            ));
        }
        self.bias = bias;
        Ok(())
    }

    /// Total number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    /// Computes `W x + b` for an input that flattens to `in_features`
    /// elements (any shape is accepted and flattened).
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::ShapeMismatch`] if the element count differs from
    /// `in_features`.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor, SnnError> {
        let mut out = Tensor::zeros(&[0]);
        self.forward_into(input, &mut out)?;
        Ok(out)
    }

    /// Allocation-free variant of [`Linear::forward`]: writes into `out`
    /// (reshaped/reused in place). Bit-identical to [`Linear::forward`].
    ///
    /// # Errors
    ///
    /// Same as [`Linear::forward`].
    pub fn forward_into(&self, input: &Tensor, out: &mut Tensor) -> Result<(), SnnError> {
        if input.len() != self.in_features {
            return Err(SnnError::shape(
                &[self.in_features],
                &[input.len()],
                "Linear::forward",
            ));
        }
        let x = input.as_slice();
        let w = self.weight.as_slice();
        let b = self.bias.as_slice();
        out.reset_to(&[self.out_features], 0.0);
        for (o, out_val) in out.as_mut_slice().iter_mut().enumerate() {
            let row = &w[o * self.in_features..(o + 1) * self.in_features];
            let mut acc = b[o];
            for (wi, xi) in row.iter().zip(x.iter()) {
                if *xi != 0.0 {
                    acc += wi * xi;
                }
            }
            *out_val = acc;
        }
        Ok(())
    }

    /// Event-driven forward over a binary spike frame: gathers the weight
    /// columns of the active inputs only — each spike contributes `w[:, i]`
    /// unscaled, no multiplies. The dense path already skips zero inputs
    /// element-by-element in ascending order, so gathering the same indices
    /// in the same order is bitwise-identical while touching `out × active`
    /// weights instead of scanning all `out × in` of them.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] if the plane is not binary, plus
    /// the usual shape errors.
    pub fn forward_spikes(&self, plane: &SpikePlane) -> Result<Tensor, SnnError> {
        let mut out = Tensor::zeros(&[0]);
        self.forward_spikes_into(plane, &mut out)?;
        Ok(out)
    }

    /// Allocation-free variant of [`Linear::forward_spikes`]. Per output row,
    /// the active inputs are recovered by trailing-zeros iteration over the
    /// plane's `u64` mask words — one word load covers 64 inputs. The bits
    /// come back in ascending index order, the order the dense path skips
    /// zeros in, keeping the accumulation bitwise-equal.
    ///
    /// # Errors
    ///
    /// Same as [`Linear::forward_spikes`].
    pub fn forward_spikes_into(
        &self,
        plane: &SpikePlane,
        out: &mut Tensor,
    ) -> Result<(), SnnError> {
        if plane.len() != self.in_features {
            return Err(SnnError::shape(
                &[self.in_features],
                &[plane.len()],
                "Linear::forward_spikes",
            ));
        }
        if !plane.is_binary() {
            return Err(SnnError::config(
                "input",
                "Linear::forward_spikes requires a binary spike plane",
            ));
        }
        let w = self.weight.as_slice();
        let b = self.bias.as_slice();
        let words = plane.as_words();
        out.reset_to(&[self.out_features], 0.0);
        for (o, out_val) in out.as_mut_slice().iter_mut().enumerate() {
            let row = &w[o * self.in_features..(o + 1) * self.in_features];
            let mut acc = b[o];
            for (wi, &word) in words.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let i = wi * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    acc += row[i];
                }
            }
            *out_val = acc;
        }
        Ok(())
    }

    /// Dispatching forward used by the inference loop: the event path for
    /// binary frames (a strict subset of the dense work at any density), the
    /// dense path otherwise. Both produce bit-identical output currents.
    ///
    /// # Errors
    ///
    /// Same as [`Linear::forward`].
    pub fn forward_plane_into(&self, plane: &SpikePlane, out: &mut Tensor) -> Result<(), SnnError> {
        if plane.is_binary() {
            self.forward_spikes_into(plane, out)
        } else {
            self.forward_into(plane.dense(), out)
        }
    }

    /// Returns a copy of the layer with fake-quantized weights and biases.
    ///
    /// # Errors
    ///
    /// Propagates quantization errors.
    pub fn to_precision(&self, precision: Precision) -> Result<Linear, SnnError> {
        let mut out = self.clone();
        out.weight = fake_quantize(&self.weight, precision)?;
        out.bias = fake_quantize(&self.bias, precision)?;
        Ok(out)
    }

    /// On-chip storage in bits at the given precision.
    pub fn storage_bits(&self, precision: Precision) -> u64 {
        (self.weight.len() + self.bias.len()) as u64 * u64::from(precision.bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn new_validates_dimensions() {
        assert!(Linear::new(0, 4).is_err());
        assert!(Linear::new(4, 0).is_err());
        assert!(Linear::new(4, 4).is_ok());
    }

    #[test]
    fn forward_computes_wx_plus_b() {
        let mut fc = Linear::new(3, 2).unwrap();
        fc.set_weight(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap())
            .unwrap();
        fc.set_bias(Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap())
            .unwrap();
        let out = fc
            .forward(&Tensor::from_vec(vec![1.0, 1.0, 1.0], &[3]).unwrap())
            .unwrap();
        assert_eq!(out.as_slice(), &[6.5, 14.5]);
    }

    #[test]
    fn forward_accepts_any_shape_with_matching_len() {
        let fc = Linear::new(4, 2).unwrap();
        assert!(fc.forward(&Tensor::zeros(&[2, 2])).is_ok());
        assert!(fc.forward(&Tensor::zeros(&[4])).is_ok());
        assert!(fc.forward(&Tensor::zeros(&[5])).is_err());
    }

    #[test]
    fn sparse_input_skips_zero_contributions() {
        // Functional check: zero inputs contribute nothing.
        let mut fc = Linear::new(3, 1).unwrap();
        fc.set_weight(Tensor::from_vec(vec![10.0, 20.0, 30.0], &[1, 3]).unwrap())
            .unwrap();
        let out = fc
            .forward(&Tensor::from_vec(vec![0.0, 1.0, 0.0], &[3]).unwrap())
            .unwrap();
        assert_eq!(out.as_slice(), &[20.0]);
    }

    #[test]
    fn set_weight_and_bias_validate_shapes() {
        let mut fc = Linear::new(3, 2).unwrap();
        assert!(fc.set_weight(Tensor::zeros(&[2, 3])).is_ok());
        assert!(fc.set_weight(Tensor::zeros(&[3, 2])).is_err());
        assert!(fc.set_bias(Tensor::zeros(&[2])).is_ok());
        assert!(fc.set_bias(Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn kaiming_init_is_bounded() {
        let mut rng = StdRng::seed_from_u64(3);
        let fc = Linear::with_kaiming_init(100, 10, &mut rng).unwrap();
        let bound = (6.0_f32 / 100.0).sqrt();
        assert!(fc.weight().as_slice().iter().all(|&w| w.abs() <= bound));
        assert_eq!(fc.num_params(), 1010);
    }

    #[test]
    fn forward_spikes_rejects_analog_planes() {
        let fc = Linear::new(4, 2).unwrap();
        let analog = Tensor::from_vec(vec![0.0, 0.5, 0.0, 1.0], &[4]).unwrap();
        assert!(fc
            .forward_spikes(&SpikePlane::from_tensor(&analog))
            .is_err());
        // The dispatching entry point falls back to the dense path instead.
        let mut out = Tensor::zeros(&[0]);
        fc.forward_plane_into(&SpikePlane::from_tensor(&analog), &mut out)
            .unwrap();
        assert_eq!(out.as_slice(), fc.forward(&analog).unwrap().as_slice());
    }

    proptest! {
        /// The event-driven linear forward is bitwise-equal to the dense
        /// forward on arbitrary binary inputs, at every weight precision.
        #[test]
        fn forward_spikes_bitwise_equals_dense(
            seed in 0_u64..1000,
            bits in proptest::collection::vec(any::<bool>(), 24),
            precision_idx in 0_usize..3,
        ) {
            let precision = [Precision::Fp32, Precision::Int8, Precision::Int4][precision_idx];
            let mut rng = StdRng::seed_from_u64(seed);
            let fc = Linear::with_kaiming_init(24, 7, &mut rng)
                .unwrap()
                .to_precision(precision)
                .unwrap();
            let input = Tensor::from_fn(&[24], |i| if bits[i] { 1.0 } else { 0.0 });
            let plane = SpikePlane::from_tensor(&input);
            let dense = fc.forward(&input).unwrap();
            let sparse = fc.forward_spikes(&plane).unwrap();
            for (s, d) in sparse.as_slice().iter().zip(dense.as_slice().iter()) {
                prop_assert_eq!(s.to_bits(), d.to_bits());
            }
        }
    }

    #[test]
    fn quantized_copy_and_storage() {
        let mut rng = StdRng::seed_from_u64(4);
        let fc = Linear::with_kaiming_init(16, 8, &mut rng).unwrap();
        let q = fc.to_precision(Precision::Int4).unwrap();
        assert_ne!(q.weight(), fc.weight());
        assert_eq!(
            fc.storage_bits(Precision::Int4) * 8,
            fc.storage_bits(Precision::Fp32)
        );
    }
}
