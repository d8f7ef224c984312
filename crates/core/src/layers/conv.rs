//! 2-D convolution layer (the synaptic weights of a spiking CONV layer).

use crate::error::SnnError;
use crate::quant::{fake_quantize, Precision};
use crate::spike::SpikePlane;
use crate::tensor::{add_assign_lanes, matmul_to_with, Im2Col, Tensor};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Floor of the sparse/dense crossover density returned by
/// [`Conv2d::sparse_crossover`]: below this input density the event-driven
/// path wins for every layer geometry.
pub const SPARSE_DENSITY_CROSSOVER: f64 = 0.2;

/// Reusable scratch for [`Conv2d::forward_plane_into`]: the im2col and
/// packed-matmul-panel buffers of the dense fallback plus the accumulator of
/// the event-driven path. One instance lives in the network's
/// `RunState` and is shared by every conv layer of a run.
#[derive(Debug, Clone, Default)]
pub struct ConvScratch {
    cols: Im2Col,
    panel: Vec<f32>,
    acc: Vec<f32>,
}

impl ConvScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        ConvScratch::default()
    }
}

/// A 2-D convolution with square kernels, symmetric zero padding and a bias
/// per output channel.
///
/// The weight tensor has shape `[out_channels, in_channels, k, k]` and the
/// forward pass produces the *membrane input current* for each output neuron;
/// thresholding and spiking are performed by the LIF population that follows
/// the layer.
///
/// # Example
///
/// ```
/// use snn_core::layers::Conv2d;
/// use snn_core::tensor::Tensor;
///
/// # fn main() -> Result<(), snn_core::SnnError> {
/// let conv = Conv2d::new(3, 8, 3, 1, 1)?;
/// let input = Tensor::zeros(&[3, 16, 16]);
/// let out = conv.forward(&input)?;
/// assert_eq!(out.shape(), &[8, 16, 16]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    weight: Tensor,
    bias: Tensor,
    /// Lazily built `[in_c * k², out_c]` transposed filter bank consumed by
    /// the event-driven forward, so each call no longer re-transposes the
    /// weights. Derived data: every weight mutation path clears it
    /// ([`Conv2d::invalidate_cache`]), it is excluded from equality, and it
    /// is not serialized (a deserialized layer starts cold).
    wt: OnceLock<Vec<f32>>,
    /// Lazily built `[k², out_c, in_c]` tap-major filter bank consumed by the
    /// BPTT input gradient; derived data under the same rules as `wt`.
    wtap: OnceLock<Vec<f32>>,
}

/// Equality is over the layer's semantic state (geometry + parameters); the
/// derived filter-bank caches are ignored, so a cold and a warmed-up copy of
/// the same layer compare equal.
impl PartialEq for Conv2d {
    fn eq(&self, other: &Self) -> bool {
        self.in_channels == other.in_channels
            && self.out_channels == other.out_channels
            && self.kernel == other.kernel
            && self.stride == other.stride
            && self.padding == other.padding
            && self.weight == other.weight
            && self.bias == other.bias
    }
}

// Manual (rather than derived) impls so the cache fields stay out of the
// serialized form — the on-disk layout is identical to the pre-cache derive.
impl Serialize for Conv2d {
    fn to_value(&self) -> serde::Value {
        serde::Value::Obj(vec![
            ("in_channels".to_string(), self.in_channels.to_value()),
            ("out_channels".to_string(), self.out_channels.to_value()),
            ("kernel".to_string(), self.kernel.to_value()),
            ("stride".to_string(), self.stride.to_value()),
            ("padding".to_string(), self.padding.to_value()),
            ("weight".to_string(), self.weight.to_value()),
            ("bias".to_string(), self.bias.to_value()),
        ])
    }
}

impl Deserialize for Conv2d {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let obj = value
            .as_obj()
            .ok_or_else(|| serde::DeError::new("expected object for Conv2d"))?;
        Ok(Conv2d {
            in_channels: serde::__field(obj, "in_channels", "Conv2d")?,
            out_channels: serde::__field(obj, "out_channels", "Conv2d")?,
            kernel: serde::__field(obj, "kernel", "Conv2d")?,
            stride: serde::__field(obj, "stride", "Conv2d")?,
            padding: serde::__field(obj, "padding", "Conv2d")?,
            weight: serde::__field(obj, "weight", "Conv2d")?,
            bias: serde::__field(obj, "bias", "Conv2d")?,
            wt: OnceLock::new(),
            wtap: OnceLock::new(),
        })
    }
}

impl Conv2d {
    /// Creates a convolution with zero-initialised weights.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] if any dimension is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Result<Self, SnnError> {
        if in_channels == 0 || out_channels == 0 {
            return Err(SnnError::config(
                "channels",
                "channel counts must be positive",
            ));
        }
        if kernel == 0 {
            return Err(SnnError::config("kernel", "kernel size must be positive"));
        }
        if stride == 0 {
            return Err(SnnError::config("stride", "stride must be positive"));
        }
        Ok(Conv2d {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            weight: Tensor::zeros(&[out_channels, in_channels, kernel, kernel]),
            bias: Tensor::zeros(&[out_channels]),
            wt: OnceLock::new(),
            wtap: OnceLock::new(),
        })
    }

    /// Creates a convolution with Kaiming-uniform initialised weights, the
    /// initialisation the training substrate uses.
    ///
    /// # Errors
    ///
    /// Same as [`Conv2d::new`].
    pub fn with_kaiming_init(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut impl Rng,
    ) -> Result<Self, SnnError> {
        let mut conv = Conv2d::new(in_channels, out_channels, kernel, stride, padding)?;
        let fan_in = (in_channels * kernel * kernel) as f32;
        let bound = (6.0 / fan_in).sqrt();
        conv.weight = Tensor::from_fn(conv.weight.shape(), |_| rng.gen_range(-bound..bound));
        conv.bias = Tensor::from_fn(&[out_channels], |_| rng.gen_range(-0.01..0.01));
        Ok(conv)
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Number of output channels (output feature maps).
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Square kernel size.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Zero padding on each border.
    pub fn padding(&self) -> usize {
        self.padding
    }

    /// Number of filter coefficients per output channel (`F` in Eq. 3:
    /// `in_channels * k * k`, e.g. 9 per input channel for 3×3 filters).
    pub fn coefficients_per_output(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Weight tensor of shape `[out_channels, in_channels, k, k]`.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Mutable weight tensor. Invalidates the filter-bank caches: the caller
    /// may mutate any coefficient through the returned reference.
    pub fn weight_mut(&mut self) -> &mut Tensor {
        self.invalidate_cache();
        &mut self.weight
    }

    /// Clears the lazily built filter banks. Every path that can change
    /// `weight` must call this so no kernel ever reads stale coefficients
    /// (optimizer steps mutate weights between batches).
    fn invalidate_cache(&mut self) {
        self.wt.take();
        self.wtap.take();
    }

    /// The `[in_c * k², out_c]` transposed filter bank `Wᵀ`, built on first
    /// use and cached until a weight mutation.
    ///
    /// The event-driven forward ([`Conv2d::forward_spikes`]) gathers one of
    /// its rows per spike tap, so it never re-transposes the weights per
    /// call. Training warms it once per batch in `Bptt::prepare` (weights
    /// only change at optimizer steps, which invalidate the cache through
    /// [`Conv2d::weight_mut`]).
    pub fn transposed_weight(&self) -> &[f32] {
        self.wt.get_or_init(|| {
            let ck2 = self.coefficients_per_output();
            let oc_n = self.out_channels;
            let mut wt = vec![0.0_f32; ck2 * oc_n];
            for (oc, wrow) in self.weight.as_slice().chunks_exact(ck2).enumerate() {
                for (p, &wv) in wrow.iter().enumerate() {
                    wt[p * oc_n + oc] = wv;
                }
            }
            wt
        })
    }

    /// The `[k², out_c, in_c]` tap-major filter bank: row `tap · out_c + oc`
    /// holds the `in_c` weights `w[oc, :, ky, kx]` of tap `(ky, kx)`. Built on
    /// first use and cached until a weight mutation, like
    /// [`Conv2d::transposed_weight`].
    ///
    /// The BPTT input gradient (`snn-train`'s `conv2d_input_grad_into`)
    /// reads one row per tap and non-zero gradient entry, so its lanes run
    /// along the input channels. Training warms it once per batch in
    /// `Bptt::prepare`.
    pub fn tap_major_weight(&self) -> &[f32] {
        self.wtap.get_or_init(|| {
            let (in_c, out_c) = (self.in_channels, self.out_channels);
            let k2 = self.kernel * self.kernel;
            let mut bank = vec![0.0_f32; k2 * out_c * in_c];
            for (oc, filter) in self.weight.as_slice().chunks_exact(in_c * k2).enumerate() {
                for (ci, taps) in filter.chunks_exact(k2).enumerate() {
                    for (tap, &wv) in taps.iter().enumerate() {
                        bank[(tap * out_c + oc) * in_c + ci] = wv;
                    }
                }
            }
            bank
        })
    }

    /// Bias vector of shape `[out_channels]`.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Mutable bias vector.
    pub fn bias_mut(&mut self) -> &mut Tensor {
        &mut self.bias
    }

    /// Replaces the weights.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::ShapeMismatch`] if the shape differs from
    /// `[out_channels, in_channels, k, k]`.
    pub fn set_weight(&mut self, weight: Tensor) -> Result<(), SnnError> {
        let expected = [
            self.out_channels,
            self.in_channels,
            self.kernel,
            self.kernel,
        ];
        if weight.shape() != expected {
            return Err(SnnError::shape(
                &expected,
                weight.shape(),
                "Conv2d::set_weight",
            ));
        }
        self.invalidate_cache();
        self.weight = weight;
        Ok(())
    }

    /// Replaces the bias.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::ShapeMismatch`] if the shape differs from
    /// `[out_channels]`.
    pub fn set_bias(&mut self, bias: Tensor) -> Result<(), SnnError> {
        if bias.shape() != [self.out_channels] {
            return Err(SnnError::shape(
                &[self.out_channels],
                bias.shape(),
                "Conv2d::set_bias",
            ));
        }
        self.bias = bias;
        Ok(())
    }

    /// Total number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    /// Output shape `[out_channels, out_h, out_w]` for an input of shape
    /// `[in_channels, h, w]`.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::ShapeMismatch`] if the input is not 3-D with the
    /// expected channel count, or [`SnnError::InvalidConfig`] if the kernel
    /// does not fit.
    pub fn output_shape(&self, input_shape: &[usize]) -> Result<[usize; 3], SnnError> {
        if input_shape.len() != 3 || input_shape[0] != self.in_channels {
            return Err(SnnError::shape(
                &[self.in_channels, 0, 0],
                input_shape,
                "Conv2d::output_shape",
            ));
        }
        let h = input_shape[1] + 2 * self.padding;
        let w = input_shape[2] + 2 * self.padding;
        if self.kernel > h || self.kernel > w {
            return Err(SnnError::config(
                "kernel",
                "kernel larger than padded input",
            ));
        }
        Ok([
            self.out_channels,
            (h - self.kernel) / self.stride + 1,
            (w - self.kernel) / self.stride + 1,
        ])
    }

    /// Computes the output membrane currents for one input frame of shape
    /// `[in_channels, h, w]`.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::ShapeMismatch`] for a wrongly-shaped input.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor, SnnError> {
        let mut out = Tensor::zeros(&[0]);
        self.forward_into(input, &mut ConvScratch::new(), &mut out)?;
        Ok(out)
    }

    /// Fully allocation-free dense forward: lowers into the caller's
    /// [`ConvScratch`] and writes the output currents into `out`
    /// (reshaped/reused in place). Bit-identical to [`Conv2d::forward`].
    ///
    /// # Errors
    ///
    /// Same as [`Conv2d::forward`].
    pub fn forward_into(
        &self,
        input: &Tensor,
        scratch: &mut ConvScratch,
        out: &mut Tensor,
    ) -> Result<(), SnnError> {
        input.im2col_into(
            (self.kernel, self.kernel),
            self.stride,
            self.padding,
            &mut scratch.cols,
        )?;
        let out_shape = self.output_shape(input.shape())?;
        let k = self.coefficients_per_output();
        out.reset_to(&out_shape, 0.0);
        matmul_to_with(
            self.weight.as_slice(),
            &scratch.cols.data,
            self.out_channels,
            k,
            scratch.cols.cols,
            out.as_mut_slice(),
            &mut scratch.panel,
        );
        self.add_bias(out_shape[1] * out_shape[2], out.as_mut_slice());
        Ok(())
    }

    /// Event-driven forward over a binary spike frame: instead of lowering
    /// the (mostly zero) input through im2col, walks the filter taps of the
    /// active inputs only ([`Conv2d::for_each_tap`]). A spike at input `(c, y, x)` contributes the
    /// weight column `w[:, c, ky, kx]` unscaled — binary activations need no
    /// multiplies. Bit-identical to the dense path on the same input: per
    /// output neuron, contributions accumulate in the same ascending
    /// weight-row order the matmul uses.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] if the plane is not binary, plus
    /// the usual shape errors.
    pub fn forward_spikes(&self, plane: &SpikePlane) -> Result<Tensor, SnnError> {
        let mut scratch = ConvScratch::new();
        let mut out = Tensor::zeros(&[0]);
        self.forward_spikes_with(plane, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Density-dispatching forward used by the inference loop: takes the
    /// event path when the frame is binary and sparser than
    /// [`Conv2d::sparse_crossover`], and the dense im2col path otherwise
    /// (e.g. for analog direct-coded input frames). Both paths produce
    /// bit-identical output currents.
    ///
    /// # Errors
    ///
    /// Same as [`Conv2d::forward`].
    pub fn forward_plane_into(
        &self,
        plane: &SpikePlane,
        scratch: &mut ConvScratch,
        out: &mut Tensor,
    ) -> Result<(), SnnError> {
        if self.takes_event_path(plane) {
            self.forward_spikes_with(plane, scratch, out)
        } else {
            self.forward_into(plane.dense(), scratch, out)
        }
    }

    /// Whether `plane` takes this layer's event-driven path: it is binary and
    /// sparser than [`Conv2d::sparse_crossover`]. The forward
    /// ([`Conv2d::forward_plane_into`]) and the BPTT weight gradient both
    /// dispatch on it.
    pub fn takes_event_path(&self, plane: &SpikePlane) -> bool {
        plane.is_binary() && plane.density() < self.sparse_crossover()
    }

    /// Input density below which the event-driven path
    /// ([`Conv2d::forward_spikes`]) beats the dense im2col + matmul lowering
    /// for this layer's geometry.
    ///
    /// In vector-op terms the work ratio of the two paths is roughly the
    /// input density, but the sparse path's fixed costs (the accumulator
    /// transpose per call, the first-tap set-up per spike) weigh more at
    /// small `out_channels`. The formula, clamped to
    /// `[SPARSE_DENSITY_CROSSOVER, 0.75]`, gives 0.30 at 8 output channels,
    /// 0.55 at 16 and 0.675 at 32. It was fitted to the `sparse_conv`
    /// micro-bench in `benches/batch_inference.rs` before the per-tap row
    /// add ran at a compile-time width ([`Conv2d::add_tap_rows`]). With that
    /// add (2-vCPU VM, 3×3 same-padding, medians of four alternating runs)
    /// the event path is faster below ≈0.40 density at 8 output channels
    /// (CONV1_2: 8 → 8 on 16×16), below ≈0.70 at 16 (CONV2_2: 16 → 16 on
    /// 8×8) and at every density measured, up to 0.90, at 32 (CONV3_3:
    /// 24 → 32 on 4×4). So at the small VGG9's widths the formula sits below
    /// the measured crossover, and frames between the two take the slower
    /// dense path, with the same bits. Paper-scale widths take the
    /// runtime-width add, whose crossover measured ≈0.65–0.70 at 112 output
    /// channels on 8×8 maps.
    pub fn sparse_crossover(&self) -> f64 {
        (0.8 - 4.0 / self.out_channels as f64).clamp(SPARSE_DENSITY_CROSSOVER, 0.75)
    }

    /// Walks the `(weight row, output cell)` taps of every spike in a binary
    /// plane — the event-level description of this layer's receptive-field
    /// geometry — calling `tap(p, cell)` for each. `p` indexes a row of the
    /// `[in_c · k², ·]` transposed filter bank and `cell` a cell of the
    /// `[out_h · out_w]` output map.
    ///
    /// Per spike at `(c, y, x)` the walk derives once, per axis, the first
    /// valid kernel index and the output index it reaches (the largest one,
    /// clamped to the map) — the `y` axis only when the spike opens a new
    /// input row, since spikes ascend; each further tap steps the kernel
    /// index by the stride while the output index steps down by one. No tap
    /// divides, takes a modulo or tests the stride, and one path serves every
    /// stride.
    ///
    /// Spikes come from trailing-zeros iteration over the plane's `u64` mask
    /// words ([`SpikePlane::iter_active`]) in ascending index order, and taps
    /// in ascending `(ky, kx)` order, so for every fixed weight row the
    /// output cells ascend, and for every fixed output cell the weight rows
    /// ascend — the dense matmul's exact accumulation order in both
    /// directions. The event-driven forward accumulates the taps per cell and
    /// the event-aware BPTT weight gradient per weight row; the shared
    /// ordering is what keeps both bitwise equal to their dense counterparts.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] for an analog plane, plus the
    /// usual shape errors.
    pub fn for_each_tap(
        &self,
        plane: &SpikePlane,
        tap: impl FnMut(usize, usize),
    ) -> Result<(), SnnError> {
        let out_shape = self.output_shape(plane.shape())?;
        if !plane.is_binary() {
            return Err(SnnError::config(
                "input",
                "Conv2d::for_each_tap requires a binary spike plane",
            ));
        }
        let kernel = (self.kernel, self.kernel);
        let out_map = (out_shape[1], out_shape[2]);
        plane.for_each_tap(kernel, self.stride, self.padding, out_map, tap);
        Ok(())
    }

    /// Adds one `out_channels`-wide row per tap of [`Conv2d::for_each_tap`]:
    /// at tap `(p, cell)`, row `s` of `src` into row `d` of `dst`, where
    /// `(d, s) = rows(p, cell)`. The event forward adds filter rows into
    /// output cells, and the event-aware BPTT weight gradient adds
    /// output-gradient rows into weight rows.
    ///
    /// The row add is chosen once per call from `out_channels`: a loop of
    /// compile-time width for 8, 16, 24 and 32 (the small VGG9's widths),
    /// which unrolls to whole vector adds, and [`add_assign_lanes`] for any
    /// other width. Either way each element receives one add per tap, in tap
    /// order, so the choice never changes a bit.
    ///
    /// # Errors
    ///
    /// Same as [`Conv2d::for_each_tap`].
    ///
    /// # Panics
    ///
    /// Panics if `rows` names a row outside `dst` or `src`.
    pub fn add_tap_rows(
        &self,
        plane: &SpikePlane,
        dst: &mut [f32],
        src: &[f32],
        rows: impl Fn(usize, usize) -> (usize, usize),
    ) -> Result<(), SnnError> {
        match self.out_channels {
            8 => self.add_tap_rows_at::<8>(plane, dst, src, rows),
            16 => self.add_tap_rows_at::<16>(plane, dst, src, rows),
            24 => self.add_tap_rows_at::<24>(plane, dst, src, rows),
            32 => self.add_tap_rows_at::<32>(plane, dst, src, rows),
            width => self.for_each_tap(plane, |p, cell| {
                let (d, s) = rows(p, cell);
                add_assign_lanes(
                    &mut dst[d * width..(d + 1) * width],
                    &src[s * width..(s + 1) * width],
                );
            }),
        }
    }

    /// [`Conv2d::add_tap_rows`] with rows `W` wide.
    fn add_tap_rows_at<const W: usize>(
        &self,
        plane: &SpikePlane,
        dst: &mut [f32],
        src: &[f32],
        rows: impl Fn(usize, usize) -> (usize, usize),
    ) -> Result<(), SnnError> {
        let (dst, _) = dst.as_chunks_mut::<W>();
        let (src, _) = src.as_chunks::<W>();
        self.for_each_tap(plane, |p, cell| {
            let (d, s) = rows(p, cell);
            // Summing into a local copy keeps the stores clear of `src`'s
            // loads, so the add compiles to whole vector adds.
            let mut row = dst[d];
            for (o, &v) in row.iter_mut().zip(&src[s]) {
                *o += v;
            }
            dst[d] = row;
        })
    }

    /// The event-driven kernel behind [`Conv2d::forward_spikes`], with
    /// caller-provided scratch and output buffer.
    fn forward_spikes_with(
        &self,
        plane: &SpikePlane,
        scratch: &mut ConvScratch,
        out: &mut Tensor,
    ) -> Result<(), SnnError> {
        let out_shape = self.output_shape(plane.shape())?;
        let cell_count = out_shape[1] * out_shape[2];
        // Accumulate in a transposed `[cell][out_channel]` layout so each tap
        // is ONE contiguous vector add of a transposed weight row across all
        // output channels, instead of `out_channels` scattered scalar
        // read-modify-writes. (Both a per-channel scalar streaming loop and a
        // counting-sort-by-cell variant were benchmarked and lost.) Per
        // output neuron the contributions still arrive in ascending
        // weight-row order — for every channel simultaneously — so the sums
        // stay bitwise equal to the dense path. The transposed filter bank is
        // cached on the layer and only rebuilt after a weight mutation.
        let oc_n = self.out_channels;
        let wt = self.transposed_weight();
        let acc = &mut scratch.acc;
        acc.clear();
        acc.resize(cell_count * oc_n, 0.0);
        self.add_tap_rows(plane, acc, wt, |p, cell| (cell, p))?;
        // Transpose back to the `[out_channel][cell]` tensor layout.
        out.reset_to(&out_shape, 0.0);
        let odat = out.as_mut_slice();
        for oc in 0..oc_n {
            let orow = &mut odat[oc * cell_count..(oc + 1) * cell_count];
            for (cell, o) in orow.iter_mut().enumerate() {
                *o = acc[cell * oc_n + oc];
            }
        }
        self.add_bias(cell_count, odat);
        Ok(())
    }

    /// Adds the per-channel bias to an output buffer of `cell_count` cells
    /// per channel — shared tail of the dense and event-driven paths.
    fn add_bias(&self, cell_count: usize, data: &mut [f32]) {
        for oc in 0..self.out_channels {
            let b = self.bias.as_slice()[oc];
            if b != 0.0 {
                for v in &mut data[oc * cell_count..(oc + 1) * cell_count] {
                    *v += b;
                }
            }
        }
    }

    /// Returns a copy of the layer with fake-quantized weights and biases, as
    /// used for post-training evaluation of a quantized model.
    ///
    /// # Errors
    ///
    /// Propagates quantization errors.
    pub fn to_precision(&self, precision: Precision) -> Result<Conv2d, SnnError> {
        let mut out = self.clone();
        out.invalidate_cache();
        out.weight = fake_quantize(&self.weight, precision)?;
        out.bias = fake_quantize(&self.bias, precision)?;
        Ok(out)
    }

    /// On-chip storage in bits needed for the weights and biases at the given
    /// precision, used by the FPGA memory model.
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
    fn new_validates_arguments() {
        assert!(Conv2d::new(0, 8, 3, 1, 1).is_err());
        assert!(Conv2d::new(3, 0, 3, 1, 1).is_err());
        assert!(Conv2d::new(3, 8, 0, 1, 1).is_err());
        assert!(Conv2d::new(3, 8, 3, 0, 1).is_err());
        assert!(Conv2d::new(3, 8, 3, 1, 1).is_ok());
    }

    #[test]
    fn output_shape_same_padding() {
        let conv = Conv2d::new(3, 64, 3, 1, 1).unwrap();
        assert_eq!(conv.output_shape(&[3, 32, 32]).unwrap(), [64, 32, 32]);
        assert!(conv.output_shape(&[4, 32, 32]).is_err());
        assert!(conv.output_shape(&[3, 32]).is_err());
    }

    #[test]
    fn output_shape_with_stride() {
        let conv = Conv2d::new(1, 1, 3, 2, 1).unwrap();
        assert_eq!(conv.output_shape(&[1, 32, 32]).unwrap(), [1, 16, 16]);
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        let mut conv = Conv2d::new(1, 1, 1, 1, 0).unwrap();
        conv.set_weight(Tensor::ones(&[1, 1, 1, 1])).unwrap();
        let input = Tensor::from_fn(&[1, 4, 4], |i| i as f32);
        let out = conv.forward(&input).unwrap();
        assert_eq!(out.as_slice(), input.as_slice());
    }

    #[test]
    fn known_3x3_convolution_value() {
        // Single channel, single output, 3x3 all-ones kernel, no padding:
        // output = sum of the 3x3 neighbourhood.
        let mut conv = Conv2d::new(1, 1, 3, 1, 0).unwrap();
        conv.set_weight(Tensor::ones(&[1, 1, 3, 3])).unwrap();
        let input = Tensor::from_fn(&[1, 3, 3], |i| (i + 1) as f32); // 1..9
        let out = conv.forward(&input).unwrap();
        assert_eq!(out.shape(), &[1, 1, 1]);
        assert_eq!(out.as_slice()[0], 45.0);
    }

    #[test]
    fn bias_is_added_per_channel() {
        let mut conv = Conv2d::new(1, 2, 1, 1, 0).unwrap();
        conv.set_weight(Tensor::zeros(&[2, 1, 1, 1])).unwrap();
        conv.set_bias(Tensor::from_vec(vec![1.5, -2.0], &[2]).unwrap())
            .unwrap();
        let out = conv.forward(&Tensor::zeros(&[1, 2, 2])).unwrap();
        assert_eq!(&out.as_slice()[..4], &[1.5; 4]);
        assert_eq!(&out.as_slice()[4..], &[-2.0; 4]);
    }

    #[test]
    fn set_weight_and_bias_validate_shapes() {
        let mut conv = Conv2d::new(2, 3, 3, 1, 1).unwrap();
        assert!(conv.set_weight(Tensor::zeros(&[3, 2, 3, 3])).is_ok());
        assert!(conv.set_weight(Tensor::zeros(&[2, 3, 3, 3])).is_err());
        assert!(conv.set_bias(Tensor::zeros(&[3])).is_ok());
        assert!(conv.set_bias(Tensor::zeros(&[2])).is_err());
    }

    #[test]
    fn kaiming_init_is_bounded_and_nonzero() {
        let mut rng = StdRng::seed_from_u64(0);
        let conv = Conv2d::with_kaiming_init(3, 16, 3, 1, 1, &mut rng).unwrap();
        let bound = (6.0_f32 / 27.0).sqrt();
        assert!(conv.weight().as_slice().iter().all(|&w| w.abs() <= bound));
        assert!(conv.weight().count_nonzero() > 0);
    }

    #[test]
    fn num_params_and_coefficients() {
        let conv = Conv2d::new(3, 64, 3, 1, 1).unwrap();
        assert_eq!(conv.num_params(), 64 * 3 * 9 + 64);
        assert_eq!(conv.coefficients_per_output(), 27);
    }

    #[test]
    fn storage_bits_scale_with_precision() {
        let conv = Conv2d::new(3, 8, 3, 1, 1).unwrap();
        let fp32 = conv.storage_bits(Precision::Fp32);
        let int4 = conv.storage_bits(Precision::Int4);
        assert_eq!(fp32, int4 * 8);
    }

    #[test]
    fn to_precision_quantizes_weights() {
        let mut rng = StdRng::seed_from_u64(1);
        let conv = Conv2d::with_kaiming_init(2, 4, 3, 1, 1, &mut rng).unwrap();
        let q = conv.to_precision(Precision::Int4).unwrap();
        assert_ne!(q.weight(), conv.weight());
        let same = conv.to_precision(Precision::Fp32).unwrap();
        assert_eq!(same.weight(), conv.weight());
    }

    /// The tap-major bank a cold layer with `conv`'s weights builds.
    fn cold_tap_bank(conv: &Conv2d) -> Vec<f32> {
        let mut cold = Conv2d::new(
            conv.in_channels(),
            conv.out_channels(),
            conv.kernel(),
            conv.stride(),
            conv.padding(),
        )
        .unwrap();
        cold.set_weight(conv.weight().clone()).unwrap();
        cold.tap_major_weight().to_vec()
    }

    #[test]
    fn tap_major_weight_orders_taps_then_out_then_in_channels() {
        let mut conv = Conv2d::new(3, 4, 2, 1, 0).unwrap();
        conv.set_weight(Tensor::from_fn(&[4, 3, 2, 2], |i| i as f32))
            .unwrap();
        let bank = conv.tap_major_weight();
        assert_eq!(bank.len(), 4 * 4 * 3);
        for oc in 0..4 {
            for ci in 0..3 {
                for (ky, kx) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                    let tap = ky * 2 + kx;
                    assert_eq!(
                        bank[(tap * 4 + oc) * 3 + ci],
                        conv.weight().get(&[oc, ci, ky, kx]).unwrap()
                    );
                }
            }
        }
    }

    #[test]
    fn transposed_weight_cache_invalidates_on_every_mutation_path() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut conv = Conv2d::with_kaiming_init(2, 4, 3, 1, 1, &mut rng).unwrap();
        let input = Tensor::from_fn(&[2, 6, 6], |i| f32::from(i % 7 == 0));
        let plane = SpikePlane::from_tensor(&input);

        // Warm the caches, then mutate through weight_mut: the event path
        // must see the new coefficients (compared against the dense path,
        // which always reads the weight tensor directly), and so must the
        // tap-major bank.
        let before = conv.forward_spikes(&plane).unwrap();
        let bank_before = conv.tap_major_weight().to_vec();
        conv.weight_mut().as_mut_slice()[0] += 1.0;
        let after = conv.forward_spikes(&plane).unwrap();
        assert_ne!(before.as_slice(), after.as_slice());
        assert_eq!(
            after.as_slice(),
            conv.forward(&input).unwrap().as_slice(),
            "stale transposed-weight cache after weight_mut"
        );
        assert_ne!(conv.tap_major_weight(), bank_before);
        assert_eq!(
            conv.tap_major_weight(),
            cold_tap_bank(&conv),
            "stale tap-major bank after weight_mut"
        );

        // set_weight invalidates too.
        conv.forward_spikes(&plane).unwrap(); // re-warm
        conv.set_weight(Tensor::from_fn(&[4, 2, 3, 3], |i| (i as f32) * 0.01))
            .unwrap();
        assert_eq!(
            conv.forward_spikes(&plane).unwrap().as_slice(),
            conv.forward(&input).unwrap().as_slice(),
            "stale transposed-weight cache after set_weight"
        );
        assert_eq!(
            conv.tap_major_weight(),
            cold_tap_bank(&conv),
            "stale tap-major bank after set_weight"
        );

        // to_precision returns a copy whose caches reflect the quantized
        // weights, and leaves the original's caches intact and correct.
        conv.forward_spikes(&plane).unwrap(); // re-warm
        let q = conv.to_precision(Precision::Int4).unwrap();
        assert_eq!(
            q.forward_spikes(&plane).unwrap().as_slice(),
            q.forward(&input).unwrap().as_slice(),
            "stale transposed-weight cache on quantized copy"
        );
        assert_eq!(
            q.tap_major_weight(),
            cold_tap_bank(&q),
            "stale tap-major bank on quantized copy"
        );
        assert_eq!(
            conv.forward_spikes(&plane).unwrap().as_slice(),
            conv.forward(&input).unwrap().as_slice()
        );
        assert_eq!(conv.tap_major_weight(), cold_tap_bank(&conv));
    }

    #[test]
    fn equality_and_serialization_ignore_the_weight_cache() {
        let mut rng = StdRng::seed_from_u64(12);
        let conv = Conv2d::with_kaiming_init(1, 3, 3, 1, 1, &mut rng).unwrap();
        let warmed = conv.clone();
        let input = Tensor::from_fn(&[1, 5, 5], |i| f32::from(i % 3 == 0));
        warmed
            .forward_spikes(&SpikePlane::from_tensor(&input))
            .unwrap();
        warmed.tap_major_weight();
        // Warmed caches do not break equality.
        assert_eq!(conv, warmed);
        // Serialization round-trips the semantic fields only; the restored
        // layer starts cold but computes identically.
        let json = serde_json::to_string(&warmed).unwrap();
        let restored: Conv2d = serde_json::from_str(&json).unwrap();
        assert_eq!(restored, warmed);
        assert_eq!(
            restored.forward(&input).unwrap().as_slice(),
            warmed.forward(&input).unwrap().as_slice()
        );
    }

    #[test]
    fn forward_spikes_rejects_analog_planes() {
        let conv = Conv2d::new(1, 2, 3, 1, 1).unwrap();
        let analog = Tensor::from_vec(vec![0.5; 16], &[1, 4, 4]).unwrap();
        let plane = SpikePlane::from_tensor(&analog);
        assert!(conv.forward_spikes(&plane).is_err());
    }

    #[test]
    fn forward_plane_into_dispatches_both_paths_identically() {
        let mut rng = StdRng::seed_from_u64(9);
        let conv = Conv2d::with_kaiming_init(2, 4, 3, 1, 1, &mut rng).unwrap();
        // Sparse binary frame (below crossover) and a dense one (above).
        for fill in [0.05_f64, 0.9] {
            let input = Tensor::from_fn(&[2, 6, 6], |i| {
                if ((i * 2654435761) % 1000) as f64 / 1000.0 < fill {
                    1.0
                } else {
                    0.0
                }
            });
            let plane = SpikePlane::from_tensor(&input);
            let mut scratch = ConvScratch::new();
            let mut out = Tensor::zeros(&[0]);
            conv.forward_plane_into(&plane, &mut scratch, &mut out)
                .unwrap();
            let reference = conv.forward(&input).unwrap();
            assert_eq!(out.as_slice(), reference.as_slice());
        }
    }

    proptest! {
        /// The event-driven conv forward is bitwise-equal to the dense
        /// im2col + matmul forward on arbitrary binary inputs, at every
        /// weight precision, including strided/unpadded geometries.
        #[test]
        fn forward_spikes_bitwise_equals_dense(
            seed in 0_u64..1000,
            bits in proptest::collection::vec(any::<bool>(), 2 * 7 * 7),
            stride in 1_usize..3,
            padding in 0_usize..2,
            precision_idx in 0_usize..3,
        ) {
            let precision = [Precision::Fp32, Precision::Int8, Precision::Int4][precision_idx];
            let mut rng = StdRng::seed_from_u64(seed);
            let conv = Conv2d::with_kaiming_init(2, 3, 3, stride, padding, &mut rng)
                .unwrap()
                .to_precision(precision)
                .unwrap();
            let input = Tensor::from_fn(&[2, 7, 7], |i| if bits[i] { 1.0 } else { 0.0 });
            let plane = SpikePlane::from_tensor(&input);
            let dense = conv.forward(&input).unwrap();
            let sparse = conv.forward_spikes(&plane).unwrap();
            prop_assert_eq!(sparse.shape(), dense.shape());
            // Bitwise equality, not approximate: both paths must accumulate
            // in the same order.
            for (s, d) in sparse.as_slice().iter().zip(dense.as_slice().iter()) {
                prop_assert_eq!(s.to_bits(), d.to_bits());
            }
        }
    }

    #[test]
    fn binary_input_forward_matches_event_accumulation() {
        // For a binary (spiking) input, the convolution output must equal the
        // sum of the filter taps at the spike locations — the exact operation
        // the sparse core performs event by event.
        let mut rng = StdRng::seed_from_u64(2);
        let mut conv = Conv2d::with_kaiming_init(1, 2, 3, 1, 1, &mut rng).unwrap();
        conv.set_bias(Tensor::zeros(&[2])).unwrap();
        let mut input = Tensor::zeros(&[1, 5, 5]);
        input.set(&[0, 1, 2], 1.0).unwrap();
        input.set(&[0, 3, 3], 1.0).unwrap();
        let dense = conv.forward(&input).unwrap();

        // Event-driven accumulation.
        let mut event = Tensor::zeros(&[2, 5, 5]);
        for oc in 0..2 {
            for (sy, sx) in [(1usize, 2usize), (3usize, 3usize)] {
                for ky in 0..3usize {
                    for kx in 0..3usize {
                        // With padding 1: output (oy, ox) receives input (sy, sx)
                        // through tap (ky, kx) when oy = sy + 1 - ky, ox = sx + 1 - kx.
                        let oy = sy as isize + 1 - ky as isize;
                        let ox = sx as isize + 1 - kx as isize;
                        if (0..5).contains(&oy) && (0..5).contains(&ox) {
                            let w = conv.weight().get(&[oc, 0, ky, kx]).unwrap();
                            let cur = event.get(&[oc, oy as usize, ox as usize]).unwrap();
                            event.set(&[oc, oy as usize, ox as usize], cur + w).unwrap();
                        }
                    }
                }
            }
        }
        for (a, b) in dense.as_slice().iter().zip(event.as_slice().iter()) {
            assert!((a - b).abs() < 1e-5, "dense {a} vs event {b}");
        }
    }
}
