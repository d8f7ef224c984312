//! Symmetric integer quantization for weights and biases.
//!
//! The paper quantizes model weights and biases to 4-bit integers with
//! quantization-aware training (QAT, Sec. II-B). Neuronal parameters stay in
//! floating point and the accumulated membrane data is de-quantized back to
//! floating point for the spiking operations — which is exactly how the
//! hardware handles it (shift-and-add de-quantization in both cores).
//!
//! This module provides:
//!
//! * [`Precision`] — the numeric format a model or hardware instance operates
//!   in (`Fp32`, `Int8`, `Int4`),
//! * [`QuantParams`] — per-tensor symmetric quantization parameters,
//! * [`QuantizedTensor`] — an integer tensor plus its scale,
//! * [`fake_quantize`] — the QAT forward transform (quantize → dequantize)
//!   whose backward pass is the straight-through estimator implemented in
//!   `snn-train`.

use crate::error::SnnError;
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Numeric precision of weights and biases.
///
/// The paper compares `fp32` against `int4`; `int8` is included because the
/// hardware's BRAM primitives have a natural 8-bit minimum width and the
/// ablation benches sweep precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Precision {
    /// 32-bit IEEE-754 floating point (no quantization).
    Fp32,
    /// 8-bit symmetric integer quantization.
    Int8,
    /// 4-bit symmetric integer quantization (the paper's `int4`).
    Int4,
}

impl Precision {
    /// Number of bits used to store one weight.
    pub fn bits(self) -> u32 {
        match self {
            Precision::Fp32 => 32,
            Precision::Int8 => 8,
            Precision::Int4 => 4,
        }
    }

    /// Whether this precision requires quantization.
    pub fn is_quantized(self) -> bool {
        !matches!(self, Precision::Fp32)
    }

    /// Largest representable magnitude of the signed integer grid
    /// (e.g. 7 for int4, 127 for int8). Returns `None` for `Fp32`.
    pub fn q_max(self) -> Option<i32> {
        match self {
            Precision::Fp32 => None,
            Precision::Int8 => Some(127),
            Precision::Int4 => Some(7),
        }
    }

    /// All precisions, in decreasing bit-width order.
    pub fn all() -> [Precision; 3] {
        [Precision::Fp32, Precision::Int8, Precision::Int4]
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Precision::Fp32 => write!(f, "fp32"),
            Precision::Int8 => write!(f, "int8"),
            Precision::Int4 => write!(f, "int4"),
        }
    }
}

/// Per-tensor symmetric quantization parameters: `q = round(x / scale)`
/// clamped to the signed grid, `x ≈ q * scale`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuantParams {
    /// Scale factor mapping integers back to reals.
    pub scale: f32,
    /// The precision (grid width) the parameters were computed for.
    pub precision: Precision,
}

impl QuantParams {
    /// Computes symmetric per-tensor parameters from the data's maximum
    /// absolute value.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] when called with `Precision::Fp32`
    /// (there is nothing to quantize) and [`SnnError::NumericalError`] if the
    /// data contains non-finite values.
    pub fn from_tensor(tensor: &Tensor, precision: Precision) -> Result<Self, SnnError> {
        let q_max = precision.q_max().ok_or_else(|| {
            SnnError::config(
                "precision",
                "cannot derive quantization parameters for fp32",
            )
        })?;
        if !tensor.is_finite() {
            return Err(SnnError::numerical(
                "tensor contains non-finite values, cannot quantize",
            ));
        }
        let max_abs = tensor
            .as_slice()
            .iter()
            .fold(0.0_f32, |acc, &x| acc.max(x.abs()));
        // An all-zero tensor still quantizes cleanly with any positive scale.
        let scale = if max_abs == 0.0 {
            1.0
        } else {
            max_abs / q_max as f32
        };
        Ok(QuantParams { scale, precision })
    }

    /// Quantizes one value to the integer grid.
    pub fn quantize_value(&self, x: f32) -> i32 {
        let q_max = self.precision.q_max().unwrap_or(i32::MAX);
        let q = (x / self.scale).round() as i32;
        q.clamp(-q_max, q_max)
    }

    /// De-quantizes one grid value back to a real.
    pub fn dequantize_value(&self, q: i32) -> f32 {
        q as f32 * self.scale
    }
}

/// A tensor stored on the integer grid together with its scale, mirroring what
/// the accelerator keeps in BRAM/LUTRAM for quantized models.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedTensor {
    shape: Vec<usize>,
    values: Vec<i32>,
    params: QuantParams,
}

impl QuantizedTensor {
    /// Quantizes a floating-point tensor.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`QuantParams::from_tensor`].
    pub fn quantize(tensor: &Tensor, precision: Precision) -> Result<Self, SnnError> {
        let params = QuantParams::from_tensor(tensor, precision)?;
        let values = tensor
            .as_slice()
            .iter()
            .map(|&x| params.quantize_value(x))
            .collect();
        Ok(QuantizedTensor {
            shape: tensor.shape().to_vec(),
            values,
            params,
        })
    }

    /// Shape of the underlying tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Integer grid values.
    pub fn values(&self) -> &[i32] {
        &self.values
    }

    /// Quantization parameters.
    pub fn params(&self) -> QuantParams {
        self.params
    }

    /// De-quantizes back to a floating-point tensor.
    pub fn dequantize(&self) -> Tensor {
        Tensor::from_vec(
            self.values
                .iter()
                .map(|&q| self.params.dequantize_value(q))
                .collect(),
            &self.shape,
        )
        .expect("shape preserved by construction")
    }

    /// Number of bits of on-chip storage the tensor needs at its precision.
    pub fn storage_bits(&self) -> u64 {
        self.values.len() as u64 * u64::from(self.params.precision.bits())
    }

    /// Mean absolute quantization error against a reference tensor.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::ShapeMismatch`] if the reference shape differs.
    pub fn mean_abs_error(&self, reference: &Tensor) -> Result<f32, SnnError> {
        if reference.shape() != self.shape.as_slice() {
            return Err(SnnError::shape(
                &self.shape,
                reference.shape(),
                "QuantizedTensor::mean_abs_error",
            ));
        }
        let deq = self.dequantize();
        let total: f32 = deq
            .as_slice()
            .iter()
            .zip(reference.as_slice().iter())
            .map(|(a, b)| (a - b).abs())
            .sum();
        Ok(total / self.values.len().max(1) as f32)
    }
}

/// QAT forward transform: quantize then immediately de-quantize, so the rest
/// of the forward pass sees the quantization error. Returns the input
/// unchanged for `Precision::Fp32`.
///
/// # Errors
///
/// Propagates errors from [`QuantParams::from_tensor`].
pub fn fake_quantize(tensor: &Tensor, precision: Precision) -> Result<Tensor, SnnError> {
    if !precision.is_quantized() {
        return Ok(tensor.clone());
    }
    Ok(QuantizedTensor::quantize(tensor, precision)?.dequantize())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn precision_bits_and_grid() {
        assert_eq!(Precision::Fp32.bits(), 32);
        assert_eq!(Precision::Int8.bits(), 8);
        assert_eq!(Precision::Int4.bits(), 4);
        assert_eq!(Precision::Int4.q_max(), Some(7));
        assert_eq!(Precision::Int8.q_max(), Some(127));
        assert_eq!(Precision::Fp32.q_max(), None);
        assert!(!Precision::Fp32.is_quantized());
        assert!(Precision::Int4.is_quantized());
    }

    #[test]
    fn display_matches_paper_nomenclature() {
        assert_eq!(Precision::Fp32.to_string(), "fp32");
        assert_eq!(Precision::Int4.to_string(), "int4");
    }

    #[test]
    fn quant_params_reject_fp32_and_nan() {
        let t = Tensor::ones(&[4]);
        assert!(QuantParams::from_tensor(&t, Precision::Fp32).is_err());
        let bad = Tensor::from_vec(vec![f32::NAN, 1.0], &[2]).unwrap();
        assert!(QuantParams::from_tensor(&bad, Precision::Int4).is_err());
    }

    #[test]
    fn quantize_roundtrip_error_bounded_by_half_scale() {
        let t = Tensor::from_vec(vec![-0.9, -0.3, 0.0, 0.11, 0.5, 0.77], &[6]).unwrap();
        let q = QuantizedTensor::quantize(&t, Precision::Int4).unwrap();
        let deq = q.dequantize();
        let scale = q.params().scale;
        for (a, b) in deq.as_slice().iter().zip(t.as_slice().iter()) {
            assert!((a - b).abs() <= scale / 2.0 + 1e-6);
        }
    }

    #[test]
    fn int4_values_stay_on_grid() {
        let t =
            Tensor::from_vec((0..32).map(|i| (i as f32 - 16.0) / 7.0).collect(), &[32]).unwrap();
        let q = QuantizedTensor::quantize(&t, Precision::Int4).unwrap();
        assert!(q.values().iter().all(|&v| (-7..=7).contains(&v)));
        assert_eq!(q.storage_bits(), 32 * 4);
    }

    #[test]
    fn zero_tensor_quantizes_to_zero() {
        let t = Tensor::zeros(&[8]);
        let q = QuantizedTensor::quantize(&t, Precision::Int4).unwrap();
        assert!(q.values().iter().all(|&v| v == 0));
        assert_eq!(q.dequantize().sum(), 0.0);
    }

    #[test]
    fn fake_quantize_is_identity_for_fp32() {
        let t = Tensor::from_vec(vec![0.123, -0.456, 0.789], &[3]).unwrap();
        let fq = fake_quantize(&t, Precision::Fp32).unwrap();
        assert_eq!(fq, t);
    }

    #[test]
    fn fake_quantize_changes_values_for_int4() {
        let t = Tensor::from_vec(vec![0.1234567, -0.654321, 0.9, -0.33], &[4]).unwrap();
        let fq = fake_quantize(&t, Precision::Int4).unwrap();
        assert_ne!(fq, t);
        // But the error is bounded.
        let q = QuantizedTensor::quantize(&t, Precision::Int4).unwrap();
        assert!(q.mean_abs_error(&t).unwrap() < q.params().scale);
    }

    #[test]
    fn int8_error_is_smaller_than_int4_error() {
        let t = Tensor::from_fn(&[256], |i| (i as f32 * 0.37).sin() * 0.8);
        let e4 = QuantizedTensor::quantize(&t, Precision::Int4)
            .unwrap()
            .mean_abs_error(&t)
            .unwrap();
        let e8 = QuantizedTensor::quantize(&t, Precision::Int8)
            .unwrap()
            .mean_abs_error(&t)
            .unwrap();
        assert!(e8 < e4);
    }

    proptest! {
        /// Quantization round-trip error is always at most half a scale step.
        #[test]
        fn roundtrip_error_bound(values in proptest::collection::vec(-10.0_f32..10.0, 1..200)) {
            let t = Tensor::from_vec(values.clone(), &[values.len()]).unwrap();
            let q = QuantizedTensor::quantize(&t, Precision::Int4).unwrap();
            let deq = q.dequantize();
            let scale = q.params().scale;
            for (a, b) in deq.as_slice().iter().zip(t.as_slice().iter()) {
                prop_assert!((a - b).abs() <= scale / 2.0 + scale * 1e-5);
            }
        }

        /// Quantized storage is always smaller than fp32 storage for int4/int8.
        #[test]
        fn storage_always_shrinks(len in 1_usize..500) {
            let t = Tensor::ones(&[len]);
            let q4 = QuantizedTensor::quantize(&t, Precision::Int4).unwrap();
            let q8 = QuantizedTensor::quantize(&t, Precision::Int8).unwrap();
            prop_assert_eq!(q4.storage_bits(), len as u64 * 4);
            prop_assert_eq!(q8.storage_bits(), len as u64 * 8);
            prop_assert!(q4.storage_bits() < len as u64 * 32);
            prop_assert!(q8.storage_bits() < len as u64 * 32);
        }

        /// Fake-quantization is idempotent: applying it twice equals once.
        #[test]
        fn fake_quantize_idempotent(values in proptest::collection::vec(-1.0_f32..1.0, 1..100)) {
            let t = Tensor::from_vec(values.clone(), &[values.len()]).unwrap();
            let once = fake_quantize(&t, Precision::Int4).unwrap();
            let twice = fake_quantize(&once, Precision::Int4).unwrap();
            for (a, b) in once.as_slice().iter().zip(twice.as_slice().iter()) {
                prop_assert!((a - b).abs() < 1e-5);
            }
        }
    }
}
