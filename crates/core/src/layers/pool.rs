//! Spike max-pooling.
//!
//! The paper performs max-pooling directly on binary spike maps: on a binary
//! feature map, max-pooling degenerates to an OR gate slid over the `N × N`
//! window (Sec. IV-B), which preserves SNN temporal dynamics better than
//! pooling membrane potentials. This module implements that operation on
//! `f32` spike tensors (values 0.0/1.0) and on [`SpikePlane`]s.

use crate::error::SnnError;
use crate::spike::SpikePlane;
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Non-overlapping `N × N` max-pooling over spike maps.
///
/// # Example
///
/// ```
/// use snn_core::layers::SpikeMaxPool2d;
/// use snn_core::tensor::Tensor;
///
/// # fn main() -> Result<(), snn_core::SnnError> {
/// let pool = SpikeMaxPool2d::new(2)?;
/// let mut input = Tensor::zeros(&[1, 4, 4]);
/// input.set(&[0, 0, 1], 1.0)?;
/// let out = pool.forward(&input)?;
/// assert_eq!(out.shape(), &[1, 2, 2]);
/// assert_eq!(out.get(&[0, 0, 0])?, 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SpikeMaxPool2d {
    size: usize,
}

impl SpikeMaxPool2d {
    /// Creates a pooling layer with window `size × size` and stride `size`.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] if `size < 2`.
    pub fn new(size: usize) -> Result<Self, SnnError> {
        if size < 2 {
            return Err(SnnError::config(
                "size",
                "pooling window must be at least 2",
            ));
        }
        Ok(SpikeMaxPool2d { size })
    }

    /// Pooling window / stride.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Output shape for a `[c, h, w]` input (floor division, as in the paper's
    /// MP2 layers on even feature maps).
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::ShapeMismatch`] for non-3-D inputs and
    /// [`SnnError::InvalidConfig`] if the input is smaller than the window.
    pub fn output_shape(&self, input_shape: &[usize]) -> Result<[usize; 3], SnnError> {
        if input_shape.len() != 3 {
            return Err(SnnError::shape(
                &[0, 0, 0],
                input_shape,
                "SpikeMaxPool2d::output_shape",
            ));
        }
        let (c, h, w) = (input_shape[0], input_shape[1], input_shape[2]);
        if h < self.size || w < self.size {
            return Err(SnnError::config(
                "size",
                format!("input {h}x{w} smaller than pooling window {}", self.size),
            ));
        }
        Ok([c, h / self.size, w / self.size])
    }

    /// Applies OR-pooling to a spike tensor of shape `[c, h, w]` whose values
    /// are interpreted as spikes when strictly positive.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from [`SpikeMaxPool2d::output_shape`].
    pub fn forward(&self, input: &Tensor) -> Result<Tensor, SnnError> {
        let out_shape = self.output_shape(input.shape())?;
        let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        let (oh, ow) = (out_shape[1], out_shape[2]);
        let mut out = Tensor::zeros(&out_shape);
        let data = input.as_slice();
        let out_data = out.as_mut_slice();
        for ci in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut fired = false;
                    'window: for ky in 0..self.size {
                        for kx in 0..self.size {
                            let iy = oy * self.size + ky;
                            let ix = ox * self.size + kx;
                            if iy < h && ix < w && data[ci * h * w + iy * w + ix] > 0.0 {
                                fired = true;
                                break 'window;
                            }
                        }
                    }
                    if fired {
                        out_data[ci * oh * ow + oy * ow + ox] = 1.0;
                    }
                }
            }
        }
        Ok(out)
    }

    /// Event-driven OR-pooling between [`SpikePlane`]s: input spikes are
    /// word-scanned from the plane's `u64` mask words, and each spike sets
    /// its output window cell's mask bit directly (`active × O(1)` work
    /// instead of scanning every window). Falls back to the dense window
    /// scan for analog planes, where "non-zero" and "spike" differ. Output
    /// values are bit-identical to [`SpikeMaxPool2d::forward`].
    ///
    /// # Errors
    ///
    /// Same as [`SpikeMaxPool2d::forward`].
    pub fn forward_plane(&self, input: &SpikePlane, out: &mut SpikePlane) -> Result<(), SnnError> {
        let out_shape = self.output_shape(input.shape())?;
        let (h, w) = (input.shape()[1], input.shape()[2]);
        let (oh, ow) = (out_shape[1], out_shape[2]);
        out.begin(&out_shape);
        if input.is_binary() {
            for flat in input.iter_active() {
                let c = flat / (h * w);
                let rem = flat % (h * w);
                let (oy, ox) = (rem / w / self.size, rem % w / self.size);
                // Floor division drops partial windows at the bottom/right
                // edge, exactly like the dense scan.
                if oy < oh && ox < ow {
                    out.push(c * oh * ow + oy * ow + ox);
                }
            }
        } else {
            let pooled = self.forward(input.dense())?;
            for (i, &v) in pooled.as_slice().iter().enumerate() {
                if v > 0.0 {
                    out.push(i);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn new_rejects_degenerate_window() {
        assert!(SpikeMaxPool2d::new(1).is_err());
        assert!(SpikeMaxPool2d::new(0).is_err());
        assert!(SpikeMaxPool2d::new(2).is_ok());
    }

    #[test]
    fn output_shape_halves_dimensions() {
        let pool = SpikeMaxPool2d::new(2).unwrap();
        assert_eq!(pool.output_shape(&[64, 32, 32]).unwrap(), [64, 16, 16]);
        assert!(pool.output_shape(&[64, 1, 1]).is_err());
        assert!(pool.output_shape(&[64, 32]).is_err());
    }

    #[test]
    fn single_spike_survives_pooling() {
        let pool = SpikeMaxPool2d::new(2).unwrap();
        let mut input = Tensor::zeros(&[1, 4, 4]);
        input.set(&[0, 3, 2], 1.0).unwrap();
        let out = pool.forward(&input).unwrap();
        assert_eq!(out.get(&[0, 1, 1]).unwrap(), 1.0);
        assert_eq!(out.count_nonzero(), 1);
    }

    #[test]
    fn all_spikes_pool_to_all_ones() {
        let pool = SpikeMaxPool2d::new(2).unwrap();
        let out = pool.forward(&Tensor::ones(&[2, 4, 4])).unwrap();
        assert_eq!(out.count_nonzero(), 2 * 2 * 2);
    }

    #[test]
    fn output_is_binary_even_for_analog_input() {
        let pool = SpikeMaxPool2d::new(2).unwrap();
        let input = Tensor::full(&[1, 2, 2], 0.3);
        let out = pool.forward(&input).unwrap();
        assert_eq!(out.as_slice(), &[1.0]);
    }

    proptest! {
        /// Event-driven plane pooling is bitwise-equal to the dense window
        /// scan, including odd feature maps with dropped partial windows.
        #[test]
        fn plane_pooling_bitwise_equals_dense(
            bits in proptest::collection::vec(any::<bool>(), 2 * 5 * 5),
            size in 2_usize..4,
        ) {
            let pool = SpikeMaxPool2d::new(size).unwrap();
            let input = Tensor::from_fn(&[2, 5, 5], |i| if bits[i] { 1.0 } else { 0.0 });
            let dense = pool.forward(&input).unwrap();
            let mut out = SpikePlane::new();
            pool.forward_plane(&SpikePlane::from_tensor(&input), &mut out).unwrap();
            prop_assert_eq!(out.dense().as_slice(), dense.as_slice());
            prop_assert_eq!(out.count_active(), dense.count_nonzero());
            prop_assert!(out.is_binary());
        }
    }

    #[test]
    fn plane_pooling_analog_fallback_matches_dense() {
        let pool = SpikeMaxPool2d::new(2).unwrap();
        let input = Tensor::from_fn(&[1, 4, 4], |i| (i as f32 - 8.0) * 0.1);
        let dense = pool.forward(&input).unwrap();
        let mut out = SpikePlane::new();
        pool.forward_plane(&SpikePlane::from_tensor(&input), &mut out)
            .unwrap();
        assert_eq!(out.dense().as_slice(), dense.as_slice());
    }

    proptest! {
        /// Pooling never creates spikes out of silence and never loses every
        /// spike when the input has at least one inside the pooled region.
        #[test]
        fn pooling_preserves_spike_presence(
            bits in proptest::collection::vec(any::<bool>(), 64),
        ) {
            let pool = SpikeMaxPool2d::new(2).unwrap();
            let input = Tensor::from_vec(
                bits.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect(),
                &[1, 8, 8],
            ).unwrap();
            let out = pool.forward(&input).unwrap();
            let in_count = input.count_nonzero();
            let out_count = out.count_nonzero();
            prop_assert!(out_count <= in_count);
            prop_assert_eq!(out_count == 0, in_count == 0);
            // Output spike count never exceeds the number of pooling windows.
            prop_assert!(out_count <= 16);
        }
    }
}
