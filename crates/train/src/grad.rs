//! Layer-level backward passes.
//!
//! These free functions compute the gradients of the convolution, linear and
//! spike-pooling layers given the layer input, the (possibly fake-quantized)
//! weights used in the forward pass, and the gradient flowing back from the
//! following LIF population. A weight layer's weight and bias gradients come
//! back as one [`LayerGrads`].
//!
//! Two families exist side by side:
//!
//! * [`conv2d_backward`] / [`linear_backward`] / [`pool_backward`] — the
//!   allocating **reference** implementations: dense-input, fresh buffers per
//!   call. Every bitwise guarantee below is stated against them.
//! * [`conv2d_backward_into`] / [`linear_backward_into`] /
//!   [`pool_backward_into`] — the production variants the BPTT hot loop runs:
//!   they take the layer input as a [`SpikePlane`] (so binary spike frames
//!   use event-aware kernels), write the weight and bias gradients into a
//!   caller-owned [`LayerGrads`] and the input gradient straight into the
//!   caller's tensor (the BPTT sweep passes the previous layer's gradient
//!   frame), and thread a [`GradScratch`], so the per-timestep backward
//!   allocates nothing in steady state. The conv weight gradient adds rows
//!   straight from the spike walk below the layer's density crossover and
//!   otherwise multiplies by the frame's im2col lowering, built in the
//!   [`GradScratch`]; the one conv lowering in training, which
//!   [`conv2d_backward_reuse`] reuses for a replayed frame. The conv input
//!   gradient runs [`conv2d_input_grad_into`], which walks each output
//!   cell's non-zero gradient entries with lanes along the input channels.
//!   Results are **bitwise identical** to the reference family — enforced by
//!   the proptests in this module.

use crate::bptt::LayerGrads;
use snn_core::error::SnnError;
use snn_core::layers::{Conv2d, Linear, SpikeMaxPool2d};
use snn_core::spike::SpikePlane;
use snn_core::tensor::{matmul, matmul_a_bt, matmul_at_b, matmul_to_with, Im2Col, Tensor};

/// Reusable scratch threaded through the `_into` backward passes: the im2col
/// lowering of a dense-path conv input, its `[spatial, coeffs]` transpose
/// (which [`conv2d_backward_reuse`] reads again) and the panel scratch of the
/// weight-gradient matmul, the transposed gradient and accumulator of
/// the event weight gradient, the per-cell gradient entries, cell-major
/// accumulator and runtime-width tap-sum row of the input gradient
/// ([`conv2d_input_grad_into`]), and the per-window first-spike table of the
/// event-aware pool backward. One instance lives in each trainer worker's
/// [`crate::bptt::BpttScratch`] and is reused across every layer, timestep
/// and sample that worker processes. Every buffer is sized by layer shapes,
/// never by a frame's content, and grows the first time its kernel path
/// runs, so the backward stops allocating once each path a layer can take
/// has run.
#[derive(Debug, Clone, Default)]
pub struct GradScratch {
    cols: Im2Col,
    bt: Vec<f32>,
    panel: Vec<f32>,
    pool_first: Vec<u32>,
    got: Vec<f32>,
    accw: Vec<f32>,
    entries: Vec<(u32, f32)>,
    cell_bounds: Vec<u32>,
    acc_in: Vec<f32>,
    tap_sum: Vec<f32>,
}

impl GradScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        GradScratch::default()
    }
}

/// Backward pass of [`Conv2d::forward`]: the weight and bias gradients, and
/// the gradient with respect to the layer input.
///
/// `grad_output` must have the shape of the layer output `[out_c, oh, ow]`,
/// `input` the shape of the layer input `[in_c, h, w]`, and `conv` the layer
/// whose (possibly fake-quantized) weights were used in the forward pass.
///
/// # Errors
///
/// Returns [`SnnError::ShapeMismatch`] if the shapes are inconsistent.
pub fn conv2d_backward(
    conv: &Conv2d,
    input: &Tensor,
    grad_output: &Tensor,
) -> Result<(LayerGrads, Tensor), SnnError> {
    let out_shape = conv.output_shape(input.shape())?;
    if grad_output.shape() != out_shape {
        return Err(SnnError::shape(
            &out_shape,
            grad_output.shape(),
            "conv2d_backward grad_output",
        ));
    }
    let k = conv.kernel();
    let cols = input.im2col((k, k), conv.stride(), conv.padding())?;
    let out_c = conv.out_channels();
    let spatial = out_shape[1] * out_shape[2];
    let coeffs = conv.coefficients_per_output();

    // grad_w [out_c, coeffs] = grad_out [out_c, spatial] * cols^T [spatial, coeffs]
    let grad_w_flat = matmul_a_bt(grad_output.as_slice(), &cols.data, out_c, spatial, coeffs);
    let grad_weight = Tensor::from_vec(grad_w_flat, &[out_c, conv.in_channels(), k, k])?;

    // grad_b [out_c] = sum over spatial of grad_out.
    let mut grad_bias = vec![0.0_f32; out_c];
    for (oc, gb) in grad_bias.iter_mut().enumerate() {
        *gb = grad_output.as_slice()[oc * spatial..(oc + 1) * spatial]
            .iter()
            .sum();
    }
    let grad_bias = Tensor::from_vec(grad_bias, &[out_c])?;

    // grad_cols [coeffs, spatial] = W^T [coeffs, out_c] * grad_out [out_c, spatial]
    let grad_cols_data = matmul_at_b(
        conv.weight().as_slice(),
        grad_output.as_slice(),
        out_c,
        coeffs,
        spatial,
    );
    let grad_cols = snn_core::tensor::Im2Col {
        data: grad_cols_data,
        rows: coeffs,
        cols: spatial,
        out_h: out_shape[1],
        out_w: out_shape[2],
    };
    let grad_input = Tensor::col2im(
        &grad_cols,
        conv.in_channels(),
        input.shape()[1],
        input.shape()[2],
        (k, k),
        conv.stride(),
        conv.padding(),
    )?;

    let grads = LayerGrads {
        weight: grad_weight,
        bias: grad_bias,
    };
    Ok((grads, grad_input))
}

/// Backward pass of [`Linear::forward`]: the weight and bias gradients, and
/// the gradient with respect to the layer input, shaped like `input`.
///
/// # Errors
///
/// Returns [`SnnError::ShapeMismatch`] if the shapes are inconsistent.
pub fn linear_backward(
    linear: &Linear,
    input: &Tensor,
    grad_output: &Tensor,
) -> Result<(LayerGrads, Tensor), SnnError> {
    if input.len() != linear.in_features() {
        return Err(SnnError::shape(
            &[linear.in_features()],
            &[input.len()],
            "linear_backward input",
        ));
    }
    if grad_output.len() != linear.out_features() {
        return Err(SnnError::shape(
            &[linear.out_features()],
            &[grad_output.len()],
            "linear_backward grad_output",
        ));
    }
    let n_in = linear.in_features();
    let n_out = linear.out_features();
    // grad_w [out, in] = grad_out [out, 1] * input^T [1, in]
    let grad_weight = Tensor::from_vec(
        matmul(grad_output.as_slice(), input.as_slice(), n_out, 1, n_in),
        &[n_out, n_in],
    )?;
    let grad_bias = Tensor::from_vec(grad_output.as_slice().to_vec(), &[n_out])?;
    // grad_x [in] = W^T [in, out] * grad_out [out]
    let grad_input = Tensor::from_vec(
        matmul_at_b(
            linear.weight().as_slice(),
            grad_output.as_slice(),
            n_out,
            n_in,
            1,
        ),
        input.shape(),
    )?;
    let grads = LayerGrads {
        weight: grad_weight,
        bias: grad_bias,
    };
    Ok((grads, grad_input))
}

/// Backward pass of spike max-pooling.
///
/// On binary inputs the forward OR is equivalent to max-pooling, so the
/// gradient is routed to the first spiking position of each window (the
/// argmax), or to the window's first position when the window was silent —
/// the same convention snnTorch/PyTorch use for ties.
///
/// # Errors
///
/// Returns [`SnnError::ShapeMismatch`] if the gradient shape does not match
/// the pooled output shape.
pub fn pool_backward(
    pool: &SpikeMaxPool2d,
    input: &Tensor,
    grad_output: &Tensor,
) -> Result<Tensor, SnnError> {
    let out_shape = pool.output_shape(input.shape())?;
    if grad_output.shape() != out_shape {
        return Err(SnnError::shape(
            &out_shape,
            grad_output.shape(),
            "pool_backward grad_output",
        ));
    }
    let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    let (oh, ow) = (out_shape[1], out_shape[2]);
    let size = pool.size();
    let mut grad_input = Tensor::zeros(input.shape());
    let in_data = input.as_slice();
    let go = grad_output.as_slice();
    let gi = grad_input.as_mut_slice();
    for ci in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let g = go[ci * oh * ow + oy * ow + ox];
                if g == 0.0 {
                    continue;
                }
                // Find the first spiking position in the window (argmax).
                let mut target = (oy * size, ox * size);
                'search: for ky in 0..size {
                    for kx in 0..size {
                        let iy = oy * size + ky;
                        let ix = ox * size + kx;
                        if iy < h && ix < w && in_data[ci * h * w + iy * w + ix] > 0.0 {
                            target = (iy, ix);
                            break 'search;
                        }
                    }
                }
                gi[ci * h * w + target.0 * w + target.1] += g;
            }
        }
    }
    Ok(grad_input)
}

/// Scratch-backed, event-aware variant of [`conv2d_backward`]: writes the
/// weight and bias gradients into the caller-owned `grads` buffer and the
/// input gradient into `grad_input`, reusing every intermediate from
/// `scratch`. With `grad_input` `None` the input gradient is skipped
/// entirely (the first network layer's input gradient is never consumed).
///
/// For an input that takes the layer's event path
/// ([`Conv2d::takes_event_path`]: binary and below its density crossover)
/// the weight gradient is computed **straight from the spike events** — no im2col
/// lowering, no `bᵀ` repack, no dense matmul: each `(spike, tap)` pair adds
/// one `grad_output` column into one weight row. This drops exactly the
/// products with a zero multiplicand, which cannot change an IEEE-754 sum
/// accumulated from `+0.0` in round-to-nearest (a running sum can never be
/// `-0.0`, and `t + ±0.0 == t` otherwise), so on the finite gradients the
/// training path produces the result is **bitwise identical** to
/// [`conv2d_backward`] — enforced by proptest. Denser or analog inputs are
/// lowered into the scratch ([`Tensor::im2col_into`]), transposed once into
/// the `[spatial, coeffs]` layout and multiplied by the blocked kernel: the
/// two steps of [`matmul_a_bt`], so bit-identical by construction. That
/// lowering stays in the scratch for [`conv2d_backward_reuse`].
///
/// # Errors
///
/// Same as [`conv2d_backward`].
pub fn conv2d_backward_into(
    conv: &Conv2d,
    input: &SpikePlane,
    grad_output: &Tensor,
    scratch: &mut GradScratch,
    grads: &mut LayerGrads,
    grad_input: Option<&mut Tensor>,
) -> Result<(), SnnError> {
    let out_shape = checked_out_shape(conv, input.shape(), grad_output)?;
    let out_c = conv.out_channels();
    let spatial = out_shape[1] * out_shape[2];
    let coeffs = conv.coefficients_per_output();

    if conv.takes_event_path(input) {
        // Event path: transpose grad_out once into a [cell][out_c] layout,
        // then each tap is ONE contiguous vector add of a grad_out column
        // into a weight row (for every output channel simultaneously) —
        // mirroring the event-driven forward's accumulation layout. The tap
        // walk visits spikes in ascending order and each spike's taps in
        // ascending tap order, so per weight cell the output cells ascend:
        // the matmul's accumulation order, minus its zero products.
        let got = &mut scratch.got;
        got.clear();
        got.resize(spatial * out_c, 0.0);
        for (oc, row) in grad_output.as_slice().chunks_exact(spatial).enumerate() {
            for (s, &v) in row.iter().enumerate() {
                got[s * out_c + oc] = v;
            }
        }
        let accw = &mut scratch.accw;
        accw.clear();
        accw.resize(coeffs * out_c, 0.0);
        conv.add_tap_rows(input, accw, got, |p, s| (p, s))?;
        grads.weight.reset_to(conv.weight().shape(), 0.0);
        let w_out = grads.weight.as_mut_slice();
        for (p, wrow) in scratch.accw.chunks_exact(out_c).enumerate() {
            for (oc, &v) in wrow.iter().enumerate() {
                w_out[oc * coeffs + p] = v;
            }
        }
    } else {
        let k = conv.kernel();
        input
            .dense()
            .im2col_into((k, k), conv.stride(), conv.padding(), &mut scratch.cols)?;
        let bt = &mut scratch.bt;
        bt.clear();
        bt.resize(spatial * coeffs, 0.0);
        for (p, row) in scratch.cols.data.chunks_exact(spatial).enumerate() {
            for (s, &v) in row.iter().enumerate() {
                bt[s * coeffs + p] = v;
            }
        }
        return conv2d_backward_reuse(conv, input.shape(), grad_output, scratch, grads, grad_input);
    }
    conv_bias_and_input_grads(
        conv,
        input.shape(),
        grad_output,
        &out_shape,
        scratch,
        grads,
        grad_input,
    )
}

/// [`conv2d_backward_into`] over the dense lowering already in `scratch`,
/// for an input of shape `input_shape`: the weight gradient multiplies
/// `grad_output` by the stored `[spatial, coeffs]` columns, without lowering
/// or transposing again. Direct coding presents the identical analog frame at
/// every timestep, so the BPTT backward lowers a replayed frame at the first
/// timestep it visits and runs this entry at the others; the columns are the
/// same, and so is every bit.
///
/// # Errors
///
/// Same as [`conv2d_backward`], plus [`SnnError::ShapeMismatch`] if the
/// scratch's lowering does not match the layer's geometry for `input_shape`.
pub fn conv2d_backward_reuse(
    conv: &Conv2d,
    input_shape: &[usize],
    grad_output: &Tensor,
    scratch: &mut GradScratch,
    grads: &mut LayerGrads,
    grad_input: Option<&mut Tensor>,
) -> Result<(), SnnError> {
    let out_shape = checked_out_shape(conv, input_shape, grad_output)?;
    let out_c = conv.out_channels();
    let spatial = out_shape[1] * out_shape[2];
    let coeffs = conv.coefficients_per_output();
    let lowered = [scratch.cols.rows, scratch.cols.cols];
    if lowered != [coeffs, spatial] {
        return Err(SnnError::shape(
            &[coeffs, spatial],
            &lowered,
            "conv2d_backward_reuse lowering",
        ));
    }
    // grad_w [out_c, coeffs] = grad_out [out_c, spatial] * cols^T [spatial, coeffs]
    grads.weight.reset_to(conv.weight().shape(), 0.0);
    matmul_to_with(
        grad_output.as_slice(),
        &scratch.bt,
        out_c,
        spatial,
        coeffs,
        grads.weight.as_mut_slice(),
        &mut scratch.panel,
    );
    conv_bias_and_input_grads(
        conv,
        input_shape,
        grad_output,
        &out_shape,
        scratch,
        grads,
        grad_input,
    )
}

/// The layer's output shape for `input_shape`, checked against
/// `grad_output`'s shape.
fn checked_out_shape(
    conv: &Conv2d,
    input_shape: &[usize],
    grad_output: &Tensor,
) -> Result<[usize; 3], SnnError> {
    let out_shape = conv.output_shape(input_shape)?;
    if grad_output.shape() != out_shape {
        return Err(SnnError::shape(
            &out_shape,
            grad_output.shape(),
            "conv2d_backward grad_output",
        ));
    }
    Ok(out_shape)
}

/// The input gradient of the convolution backward, `grad_input =
/// col2im(Wᵀ · grad_out)`, written into the caller-owned `grad_input` tensor
/// (reshaped only when its shape changes; every cell is overwritten).
///
/// One pass over `grad_output` lists each output cell's non-zero
/// `(out channel, value)` entries in ascending channel order. Then, for each
/// filter tap `(ky, kx)` in ascending order and each output cell whose input
/// cell lies in the map, a sum starts at `+0.0`, adds the tap's
/// [`Conv2d::tap_major_weight`] row of each entry's channel times the entry's
/// value, and is added into the input cell's `in_c`-wide row of a
/// cell-major accumulator, which is finally transposed into `grad_input`.
/// Lanes run along the input channels. One body serves every width: a
/// compile-time width at 8, 16 and 24 input channels (every small-VGG9 layer
/// that needs an input gradient), a runtime length at any other.
///
/// **Bitwise identical** to the retained dense reference (the
/// `matmul_at_b` + `col2im` tail of [`conv2d_backward`]) on finite
/// gradients — enforced by the proptests in this module:
///
/// * each input cell receives its taps in ascending `(ky, kx)` order —
///   col2im's order;
/// * each tap's value is a sum over ascending output channels from `+0.0` —
///   `matmul_at_b`'s order;
/// * the only products dropped are those whose gradient factor is an exact
///   `±0.0`. Such a product is `±0.0`, which a sum accumulated from `+0.0`
///   never observes, so the pool backward's first-spike routing zeros cost
///   nothing and change no bit.
///
/// # Errors
///
/// Returns [`SnnError::ShapeMismatch`] if `grad_output` does not match the
/// layer's output shape for `input_shape`.
pub fn conv2d_input_grad_into(
    conv: &Conv2d,
    input_shape: &[usize],
    grad_output: &Tensor,
    scratch: &mut GradScratch,
    grad_input: &mut Tensor,
) -> Result<(), SnnError> {
    let out_shape = conv.output_shape(input_shape)?;
    if grad_output.shape() != out_shape {
        return Err(SnnError::shape(
            &out_shape,
            grad_output.shape(),
            "conv2d_input_grad grad_output",
        ));
    }
    let (out_c, in_c) = (conv.out_channels(), conv.in_channels());
    let spatial = out_shape[1] * out_shape[2];
    let in_cells = input_shape[1] * input_shape[2];
    let go = grad_output.as_slice();
    // Each output cell's non-zero entries, cells in order; cell `s` owns
    // `entries[bounds[s]..bounds[s + 1]]`. The list is sized to its bound up
    // front, so its capacity never follows the frame's content, and filled
    // branch-free: every entry is written, and only a non-zero one advances
    // the cursor.
    let entries = &mut scratch.entries;
    if entries.len() < out_c * spatial {
        entries.resize(out_c * spatial, (0, 0.0));
    }
    let bounds = &mut scratch.cell_bounds;
    bounds.clear();
    bounds.push(0);
    let mut n = 0;
    for cell in 0..spatial {
        for oc in 0..out_c {
            let g = go[oc * spatial + cell];
            entries[n] = (oc as u32, g);
            n += usize::from(g != 0.0);
        }
        bounds.push(n as u32);
    }
    let acc = &mut scratch.acc_in;
    acc.clear();
    acc.resize(in_cells * in_c, 0.0);
    let walk = TapWalk {
        kernel: conv.kernel(),
        stride: conv.stride(),
        padding: conv.padding(),
        in_map: (input_shape[1], input_shape[2]),
        out_map: (out_shape[1], out_shape[2]),
    };
    let bank = conv.tap_major_weight();
    let (entries, bounds) = (&scratch.entries, &scratch.cell_bounds);
    let cells = |s: usize| &entries[bounds[s] as usize..bounds[s + 1] as usize];
    // The one place the row width is chosen: a compile-time width for every
    // small-VGG9 layer that needs an input gradient, a runtime one otherwise.
    match in_c {
        8 => tap_sums(&walk, cells, rows_at::<8>(bank, out_c), acc, [0.0; 8]),
        16 => tap_sums(&walk, cells, rows_at::<16>(bank, out_c), acc, [0.0; 16]),
        24 => tap_sums(&walk, cells, rows_at::<24>(bank, out_c), acc, [0.0; 24]),
        width => {
            let sum = &mut scratch.tap_sum;
            sum.clear();
            sum.resize(width, 0.0);
            let row = |tap: usize, oc: u32| &bank[(tap * out_c + oc as usize) * width..][..width];
            tap_sums(&walk, cells, row, acc, sum);
        }
    }
    if grad_input.shape() != input_shape {
        grad_input.reset_to(input_shape, 0.0);
    }
    let gi = grad_input.as_mut_slice();
    for (cell, row) in acc.chunks_exact(in_c).enumerate() {
        for (ci, &v) in row.iter().enumerate() {
            gi[ci * in_cells + cell] = v;
        }
    }
    Ok(())
}

/// The input gradient's tap sums, one body for every row width of
/// [`conv2d_input_grad_into`]: for each `(tap, output cell, input cell)` of
/// `walk` whose output cell holds entries, a sum starts at `+0.0`, adds the
/// bank row `row(tap, oc)` of each entry's channel times the entry's value,
/// and is added into the input cell's row of `acc`. Rows are `sum.len()`
/// input channels wide; at a compile-time width the sum is a local array
/// that stays in registers, so each entry compiles to whole vector
/// multiply-adds.
fn tap_sums<'e, 'b>(
    walk: &TapWalk,
    cells: impl Fn(usize) -> &'e [(u32, f32)],
    row: impl Fn(usize, u32) -> &'b [f32],
    acc: &mut [f32],
    mut sum: impl AsMut<[f32]>,
) {
    let sum = sum.as_mut();
    let width = sum.len();
    walk.for_each(|tap, out_cell, in_cell| {
        let cell = cells(out_cell);
        if cell.is_empty() {
            return;
        }
        sum.fill(0.0);
        for &(oc, g) in cell {
            for (s, &wv) in sum.iter_mut().zip(row(tap, oc)) {
                *s += wv * g;
            }
        }
        for (a, &s) in acc[in_cell * width..][..width].iter_mut().zip(&*sum) {
            *a += s;
        }
    });
}

/// The `row` of [`tap_sums`] at a compile-time width `W`: the bank row of
/// `(tap, out channel)`, found with one bounds check.
fn rows_at<'b, const W: usize>(bank: &'b [f32], out_c: usize) -> impl Fn(usize, u32) -> &'b [f32] {
    let (rows, _) = bank.as_chunks::<W>();
    move |tap, oc| &rows[tap * out_c + oc as usize]
}

/// The `(tap, output cell, input cell)` triples of a convolution's geometry
/// whose input cell lies in the map, in the input gradient's order.
struct TapWalk {
    kernel: usize,
    stride: usize,
    padding: usize,
    in_map: (usize, usize),
    out_map: (usize, usize),
}

impl TapWalk {
    /// Calls `visit(tap, out_cell, in_cell)` for every triple: taps
    /// `ky · k + kx` ascending and, per tap, output cells ascending. Each
    /// input cell meets a tap at most once, so its taps arrive in ascending
    /// `(ky, kx)` order — col2im's accumulation order.
    fn for_each(&self, mut visit: impl FnMut(usize, usize, usize)) {
        let (k, stride, padding) = (self.kernel, self.stride, self.padding);
        let ((h, w), (out_h, out_w)) = (self.in_map, self.out_map);
        // The output indices `o` of one axis whose input index
        // `o · stride + kidx − padding` lies in `0..size`, half-open.
        let span = |kidx: usize, size: usize, n_out: usize| {
            let lo = padding.saturating_sub(kidx).div_ceil(stride);
            let hi = (size + padding).saturating_sub(kidx).div_ceil(stride);
            lo..hi.min(n_out)
        };
        for ky in 0..k {
            let rows = span(ky, h, out_h);
            for kx in 0..k {
                let tap = ky * k + kx;
                let cols = span(kx, w, out_w);
                for oy in rows.clone() {
                    let iy = oy * stride + ky - padding;
                    for ox in cols.clone() {
                        visit(tap, oy * out_w + ox, iy * w + ox * stride + kx - padding);
                    }
                }
            }
        }
    }
}

/// Shared tail of the scratch-backed conv backward: the bias gradient and
/// (when `grad_input` is given) the input gradient via
/// [`conv2d_input_grad_into`].
/// Accumulation orders are exactly those of [`conv2d_backward`], so results
/// stay bitwise identical.
fn conv_bias_and_input_grads(
    conv: &Conv2d,
    input_shape: &[usize],
    grad_output: &Tensor,
    out_shape: &[usize; 3],
    scratch: &mut GradScratch,
    grads: &mut LayerGrads,
    grad_input: Option<&mut Tensor>,
) -> Result<(), SnnError> {
    let out_c = conv.out_channels();
    let spatial = out_shape[1] * out_shape[2];

    // grad_b [out_c] = sum over spatial of grad_out.
    grads.bias.reset_to(&[out_c], 0.0);
    for (oc, gb) in grads.bias.as_mut_slice().iter_mut().enumerate() {
        *gb = grad_output.as_slice()[oc * spatial..(oc + 1) * spatial]
            .iter()
            .sum();
    }

    if let Some(grad_input) = grad_input {
        conv2d_input_grad_into(conv, input_shape, grad_output, scratch, grad_input)?;
    }
    Ok(())
}

/// Scratch-backed, event-aware variant of [`linear_backward`]: writes into
/// the caller-owned `grads` buffer and `grad_input` without allocating. For
/// a binary spike input the weight gradient is a gather — each input column
/// found by word-scanning the plane's mask words receives the output
/// gradient directly instead of the dense rank-1 matmul touching all
/// `out × in` cells — which is bitwise identical to the matmul
/// formulation on finite gradients (the kernel's zero-skip and
/// accumulate-from-zero semantics are reproduced exactly). The input gradient
/// `Wᵀ · grad_out` is a gemv — one axpy per row of `W`, skipping rows whose
/// gradient is exactly zero — bitwise identical to the reference's
/// [`matmul_at_b`] on finite data; it is written with the shape of the layer
/// input, like the reference's, and skipped when `grad_input` is `None`.
///
/// # Errors
///
/// Same as [`linear_backward`].
pub fn linear_backward_into(
    linear: &Linear,
    input: &SpikePlane,
    grad_output: &Tensor,
    scratch: &mut GradScratch,
    grads: &mut LayerGrads,
    grad_input: Option<&mut Tensor>,
) -> Result<(), SnnError> {
    let n_in = linear.in_features();
    let n_out = linear.out_features();
    if input.len() != n_in {
        return Err(SnnError::shape(
            &[n_in],
            &[input.len()],
            "linear_backward input",
        ));
    }
    if grad_output.len() != n_out {
        return Err(SnnError::shape(
            &[n_out],
            &[grad_output.len()],
            "linear_backward grad_output",
        ));
    }
    let go = grad_output.as_slice();
    // grad_w [out, in] = grad_out [out, 1] * input^T [1, in]
    grads.weight.reset_to(&[n_out, n_in], 0.0);
    if input.is_binary() {
        let w = grads.weight.as_mut_slice();
        for (o, &g) in go.iter().enumerate() {
            if g == 0.0 {
                continue; // the matmul kernel's zero-row skip
            }
            let row = &mut w[o * n_in..(o + 1) * n_in];
            for i in input.iter_active() {
                // `0.0 + g` (not plain `g`): the matmul accumulates each cell
                // from a 0.0 start, which turns a -0.0 gradient into +0.0.
                row[i] = 0.0 + g;
            }
        }
    } else {
        matmul_to_with(
            go,
            input.dense().as_slice(),
            n_out,
            1,
            n_in,
            grads.weight.as_mut_slice(),
            &mut scratch.panel,
        );
    }
    grads.bias.reset_to(&[n_out], 0.0);
    grads.bias.as_mut_slice().copy_from_slice(go);
    if let Some(grad_input) = grad_input {
        // grad_x = W^T [in, out] * grad_out [out], shaped like the input: a
        // gemv run as one axpy per row of W, skipping rows whose gradient is
        // exactly zero. Per input cell the products still accumulate from
        // +0.0 in ascending row order — the reference's order — and each
        // dropped term is a ±0.0 product, which such a sum never observes.
        grad_input.reset_to(input.shape(), 0.0);
        let gx = grad_input.as_mut_slice();
        for (w_row, &g) in linear.weight().as_slice().chunks_exact(n_in).zip(go) {
            if g == 0.0 {
                continue;
            }
            for (x, &wv) in gx.iter_mut().zip(w_row) {
                *x += wv * g;
            }
        }
    }
    Ok(())
}

/// Scratch-backed, event-aware variant of [`pool_backward`]: writes the input
/// gradient into the caller-owned `out` tensor. For a binary spike input the
/// per-window argmax comes from word-scanning the plane's `u64` mask words —
/// the first spike falling in a window in ascending flat order is exactly the
/// first spiking position the dense window scan finds — via a per-window
/// first-spike table kept in `scratch`, so silent regions are never scanned.
/// An analog plane, which training never produces (a pool's input is LIF
/// spikes), runs [`pool_backward`] itself. Bitwise identical to
/// [`pool_backward`] on the plane's dense backing.
///
/// # Errors
///
/// Same as [`pool_backward`].
pub fn pool_backward_into(
    pool: &SpikeMaxPool2d,
    input: &SpikePlane,
    grad_output: &Tensor,
    scratch: &mut GradScratch,
    out: &mut Tensor,
) -> Result<(), SnnError> {
    if !input.is_binary() {
        *out = pool_backward(pool, input.dense(), grad_output)?;
        return Ok(());
    }
    let out_shape = pool.output_shape(input.shape())?;
    if grad_output.shape() != out_shape {
        return Err(SnnError::shape(
            &out_shape,
            grad_output.shape(),
            "pool_backward grad_output",
        ));
    }
    let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    let (oh, ow) = (out_shape[1], out_shape[2]);
    let size = pool.size();
    out.reset_to(input.shape(), 0.0);
    let go = grad_output.as_slice();
    let gi = out.as_mut_slice();
    // Pass 1: record each window's first spike (ascending flat order == the
    // dense scan's row-major window order). u32::MAX marks a silent window;
    // real flat indices never reach it at these tensor sizes.
    let first = &mut scratch.pool_first;
    first.clear();
    first.resize(c * oh * ow, u32::MAX);
    for f in input.iter_active() {
        let ci = f / (h * w);
        let rem = f % (h * w);
        let (oy, ox) = (rem / w / size, rem % w / size);
        // Floor division drops partial windows at the bottom/right edge,
        // exactly like the dense scan.
        if oy < oh && ox < ow {
            let slot = &mut first[ci * oh * ow + oy * ow + ox];
            if *slot == u32::MAX {
                *slot = f as u32;
            }
        }
    }
    // Pass 2: route each output gradient to its window's target.
    for ci in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let g = go[ci * oh * ow + oy * ow + ox];
                if g == 0.0 {
                    continue;
                }
                let slot = first[ci * oh * ow + oy * ow + ox];
                let target = if slot != u32::MAX {
                    slot as usize
                } else {
                    // Silent window: the window's first position.
                    ci * h * w + (oy * size) * w + ox * size
                };
                gi[target] += g;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Numerically checks d(sum of outputs)/d(parameter) against the analytic
    /// gradient with an all-ones upstream gradient.
    fn numeric_grad(f: &mut dyn FnMut(f32) -> f32, x0: f32) -> f32 {
        let eps = 1e-3;
        (f(x0 + eps) - f(x0 - eps)) / (2.0 * eps)
    }

    #[test]
    fn conv_weight_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(0);
        let conv = Conv2d::with_kaiming_init(2, 3, 3, 1, 1, &mut rng).unwrap();
        let input = Tensor::from_fn(&[2, 5, 5], |i| ((i as f32) * 0.17).sin());
        let out_shape = conv.output_shape(input.shape()).unwrap();
        let grad_out = Tensor::ones(&out_shape);
        let (grads, _) = conv2d_backward(&conv, &input, &grad_out).unwrap();

        // Check a handful of weight coordinates numerically.
        for &flat in &[0usize, 7, 23, 40, 53] {
            let mut perturbed = conv.clone();
            let mut f = |v: f32| {
                let mut w = conv.weight().clone();
                w.as_mut_slice()[flat] = v;
                perturbed.set_weight(w).unwrap();
                perturbed.forward(&input).unwrap().sum()
            };
            let x0 = conv.weight().as_slice()[flat];
            let num = numeric_grad(&mut f, x0);
            let ana = grads.weight.as_slice()[flat];
            assert!(
                (num - ana).abs() < 1e-2 * (1.0 + num.abs()),
                "weight {flat}: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn conv_bias_gradient_is_spatial_sum() {
        let conv = Conv2d::new(1, 2, 3, 1, 1).unwrap();
        let input = Tensor::ones(&[1, 4, 4]);
        let mut grad_out = Tensor::zeros(&[2, 4, 4]);
        grad_out.as_mut_slice()[..16]
            .iter_mut()
            .for_each(|v| *v = 2.0);
        let (grads, _) = conv2d_backward(&conv, &input, &grad_out).unwrap();
        assert_eq!(grads.bias.as_slice(), &[32.0, 0.0]);
    }

    #[test]
    fn conv_input_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(1);
        let conv = Conv2d::with_kaiming_init(1, 2, 3, 1, 1, &mut rng).unwrap();
        let input = Tensor::from_fn(&[1, 4, 4], |i| ((i as f32) * 0.29).cos());
        let grad_out = Tensor::ones(&conv.output_shape(input.shape()).unwrap());
        let (_, grad_input) = conv2d_backward(&conv, &input, &grad_out).unwrap();
        for &flat in &[0usize, 5, 10, 15] {
            let mut f = |v: f32| {
                let mut x = input.clone();
                x.as_mut_slice()[flat] = v;
                conv.forward(&x).unwrap().sum()
            };
            let num = numeric_grad(&mut f, input.as_slice()[flat]);
            let ana = grad_input.as_slice()[flat];
            assert!(
                (num - ana).abs() < 1e-2 * (1.0 + num.abs()),
                "input {flat}: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn conv_backward_validates_shapes() {
        let conv = Conv2d::new(1, 2, 3, 1, 1).unwrap();
        let input = Tensor::zeros(&[1, 4, 4]);
        let bad_grad = Tensor::zeros(&[2, 3, 3]);
        assert!(conv2d_backward(&conv, &input, &bad_grad).is_err());
    }

    #[test]
    fn linear_gradients_match_manual_computation() {
        let mut fc = Linear::new(3, 2).unwrap();
        fc.set_weight(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap())
            .unwrap();
        let input = Tensor::from_vec(vec![0.5, -1.0, 2.0], &[3]).unwrap();
        let grad_out = Tensor::from_vec(vec![1.0, -1.0], &[2]).unwrap();
        let (grads, grad_input) = linear_backward(&fc, &input, &grad_out).unwrap();
        // grad_w = grad_out (outer) input.
        assert_eq!(grads.weight.as_slice(), &[0.5, -1.0, 2.0, -0.5, 1.0, -2.0]);
        assert_eq!(grads.bias.as_slice(), &[1.0, -1.0]);
        // grad_x = W^T grad_out = [1-4, 2-5, 3-6].
        assert_eq!(grad_input.as_slice(), &[-3.0, -3.0, -3.0]);
    }

    #[test]
    fn linear_backward_validates_shapes() {
        let fc = Linear::new(3, 2).unwrap();
        assert!(linear_backward(&fc, &Tensor::zeros(&[4]), &Tensor::zeros(&[2])).is_err());
        assert!(linear_backward(&fc, &Tensor::zeros(&[3]), &Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn pool_backward_routes_to_spiking_position() {
        let pool = SpikeMaxPool2d::new(2).unwrap();
        let mut input = Tensor::zeros(&[1, 4, 4]);
        input.set(&[0, 1, 1], 1.0).unwrap(); // window (0,0): spike at (1,1)
        input.set(&[0, 2, 3], 1.0).unwrap(); // window (1,1): spike at (2,3)
        let grad_out = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 2]).unwrap();
        let grad_in = pool_backward(&pool, &input, &grad_out).unwrap();
        assert_eq!(grad_in.get(&[0, 1, 1]).unwrap(), 1.0);
        assert_eq!(grad_in.get(&[0, 2, 3]).unwrap(), 4.0);
        // Silent windows route to the window's first position.
        assert_eq!(grad_in.get(&[0, 0, 2]).unwrap(), 2.0);
        assert_eq!(grad_in.get(&[0, 2, 0]).unwrap(), 3.0);
        // Total gradient mass is conserved.
        assert_eq!(grad_in.sum(), grad_out.sum());
    }

    #[test]
    fn pool_backward_validates_shapes() {
        let pool = SpikeMaxPool2d::new(2).unwrap();
        let input = Tensor::zeros(&[1, 4, 4]);
        assert!(pool_backward(&pool, &input, &Tensor::zeros(&[1, 4, 4])).is_err());
        let mut scratch = GradScratch::new();
        let mut out = Tensor::default();
        assert!(pool_backward_into(
            &pool,
            &SpikePlane::from_tensor(&input),
            &Tensor::zeros(&[1, 4, 4]),
            &mut scratch,
            &mut out,
        )
        .is_err());
    }

    /// Deterministic gradient tensor with planted exact zeros (±0.0), the
    /// regime where the zero-skip semantics of the kernels must agree.
    fn grad_tensor(shape: &[usize], seed: usize) -> Tensor {
        Tensor::from_fn(shape, |i| {
            let h = (i + seed).wrapping_mul(2_654_435_761) % 1000;
            if h < 150 {
                0.0
            } else if h < 300 {
                -0.0
            } else {
                (h as f32 - 600.0) * 1e-3
            }
        })
    }

    fn assert_bits_eq(a: &Tensor, b: &Tensor, ctx: &str) {
        assert_eq!(a.shape(), b.shape(), "{ctx}: shape");
        for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice().iter()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: cell {i}: {x} vs {y}");
        }
    }

    proptest! {
        /// The scratch-backed event-aware conv backward is bitwise identical
        /// to the allocating dense reference across ragged geometries
        /// (stride > 1, padding > 0, h/w not divisible by anything), binary
        /// and analog inputs, with one scratch reused across all cases.
        #[test]
        fn conv2d_backward_into_bitwise_equals_reference(
            seed in 0_u64..500,
            h in 4_usize..8,
            w in 4_usize..8,
            stride in 1_usize..3,
            padding in 0_usize..2,
            binary in proptest::collection::vec(any::<bool>(), 2 * 7 * 7),
            analog in any::<bool>(),
            sparse in any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let conv = Conv2d::with_kaiming_init(2, 3, 3, stride, padding, &mut rng).unwrap();
            // `sparse` thins the binary frame below the event crossover so
            // the gather weight-gradient kernel is exercised; otherwise the
            // ~50% density takes the dense lowering.
            let input = Tensor::from_fn(&[2, h, w], |i| {
                if analog {
                    ((i as f32) * 0.19).sin() * 0.5
                } else if binary[i % binary.len()] && (!sparse || i % 7 == 0) {
                    1.0
                } else {
                    0.0
                }
            });
            let grad_out = grad_tensor(&conv.output_shape(input.shape()).unwrap(), seed as usize);
            let (reference, reference_input) = conv2d_backward(&conv, &input, &grad_out).unwrap();
            let mut scratch = GradScratch::new();
            let mut grads = LayerGrads::default();
            let mut grad_input = Tensor::default();
            conv2d_backward_into(
                &conv,
                &SpikePlane::from_tensor(&input),
                &grad_out,
                &mut scratch,
                &mut grads,
                Some(&mut grad_input),
            )
            .unwrap();
            assert_bits_eq(&grads.weight, &reference.weight, "weight");
            assert_bits_eq(&grads.bias, &reference.bias, "bias");
            assert_bits_eq(&grad_input, &reference_input, "input");
            // A dense-path input leaves its lowering in the scratch, and the
            // reuse entry point over it agrees too.
            if !conv.takes_event_path(&SpikePlane::from_tensor(&input)) {
                let mut reused = LayerGrads::default();
                let mut reused_input = Tensor::default();
                conv2d_backward_reuse(
                    &conv,
                    input.shape(),
                    &grad_out,
                    &mut scratch,
                    &mut reused,
                    Some(&mut reused_input),
                )
                .unwrap();
                assert_bits_eq(&reused.weight, &reference.weight, "reused weight");
                assert_bits_eq(&reused.bias, &reference.bias, "reused bias");
                assert_bits_eq(&reused_input, &reference_input, "reused input");
            }
        }

        /// The event weight gradient equals the dense reference bit for bit
        /// at every output width `Conv2d::add_tap_rows` compiles a
        /// fixed-width row add for (8, 16, 24, 32) and at one it does not
        /// (12), at fp32 and int4. Frames are thinned to at most one cell in
        /// seven, below every width's density crossover, so each case takes
        /// the event path.
        #[test]
        fn conv2d_backward_into_bitwise_equals_reference_at_every_row_width(
            seed in 0_u64..500,
            h in 4_usize..8,
            w in 4_usize..8,
            stride in 1_usize..3,
            padding in 0_usize..2,
            binary in proptest::collection::vec(any::<bool>(), 2 * 7 * 7),
        ) {
            use snn_core::quant::Precision;
            let input = Tensor::from_fn(&[2, h, w], |i| {
                f32::from(binary[i % binary.len()] && i % 7 == 0)
            });
            let plane = SpikePlane::from_tensor(&input);
            let mut scratch = GradScratch::new();
            let mut grads = LayerGrads::default();
            let mut grad_input = Tensor::default();
            for out_c in [8, 16, 24, 32, 12] {
                let mut rng = StdRng::seed_from_u64(seed);
                let fp32 =
                    Conv2d::with_kaiming_init(2, out_c, 3, stride, padding, &mut rng).unwrap();
                let int4 = fp32.to_precision(Precision::Int4).unwrap();
                let out_shape = fp32.output_shape(input.shape()).unwrap();
                let grad_out = grad_tensor(&out_shape, seed as usize);
                for (prec, conv) in [("fp32", &fp32), ("int4", &int4)] {
                    prop_assert!(conv.takes_event_path(&plane));
                    let (reference, reference_input) =
                        conv2d_backward(conv, &input, &grad_out).unwrap();
                    let gi = Some(&mut grad_input);
                    conv2d_backward_into(conv, &plane, &grad_out, &mut scratch, &mut grads, gi)
                        .unwrap();
                    let ctx = format!("{out_c} {prec}");
                    assert_bits_eq(&grads.weight, &reference.weight, &format!("{ctx} weight"));
                    assert_bits_eq(&grads.bias, &reference.bias, &format!("{ctx} bias"));
                    assert_bits_eq(&grad_input, &reference_input, &format!("{ctx} input"));
                }
            }
        }

        /// The input gradient is bitwise identical to the retained dense
        /// reference tail (`matmul_at_b` + `col2im` inside
        /// [`conv2d_backward`]) at every input width it compiles a
        /// fixed-width sum for (8, 16, 24) and at two it does not (32, 12),
        /// at fp32 and int4 (whose weights hold exact zeros), across kernel
        /// sizes, strides and paddings. Gradient frames hold whole all-zero
        /// columns and planted ±0.0 entries (the entries the kernel skips),
        /// or no zero at all, or nothing else; the output is NaN-filled
        /// before each call, so every cell must be overwritten, with `+0.0`
        /// where no gradient reaches. One scratch serves every case.
        #[test]
        fn conv2d_input_grad_into_bitwise_equals_reference(
            seed in 0_u64..500,
            h in 3_usize..8,
            w in 3_usize..8,
            kernel in 1_usize..4,
            stride in 1_usize..3,
            padding in 0_usize..2,
            out_c in 1_usize..40,
            keep in proptest::collection::vec(any::<bool>(), 49),
            zero_pct in 0_usize..100,
            mode in 0_usize..3,
        ) {
            use snn_core::quant::Precision;
            let mut scratch = GradScratch::new();
            let mut grad_input = Tensor::default();
            for in_c in [8, 16, 24, 32, 12] {
                let mut rng = StdRng::seed_from_u64(seed);
                let fp32 =
                    Conv2d::with_kaiming_init(in_c, out_c, kernel, stride, padding, &mut rng)
                        .unwrap();
                let int4 = fp32.to_precision(Precision::Int4).unwrap();
                let input_shape = [in_c, h, w];
                let out_shape = fp32.output_shape(&input_shape).unwrap();
                let spatial = out_shape[1] * out_shape[2];
                // Mode 0 zeroes the columns `keep` drops and `zero_pct`% of
                // the other entries; mode 1 zeroes nothing, mode 2 all.
                let grad_out = Tensor::from_fn(&out_shape, |i| {
                    let hash = (i + seed as usize).wrapping_mul(2_654_435_761);
                    let zero = match mode {
                        0 => !keep[(i % spatial) % keep.len()] || hash % 100 < zero_pct,
                        1 => false,
                        _ => true,
                    };
                    let value = if zero {
                        0.0
                    } else {
                        ((hash % 1000) as f32 - 499.5) * 1e-3
                    };
                    // Odd hashes flip the sign: planted zeros are ±0.0.
                    if hash & 1 == 1 {
                        -value
                    } else {
                        value
                    }
                });
                let input = Tensor::zeros(&input_shape);
                for (prec, conv) in [("fp32", &fp32), ("int4", &int4)] {
                    let (_, reference) = conv2d_backward(conv, &input, &grad_out).unwrap();
                    grad_input.reset_to(&input_shape, f32::NAN);
                    conv2d_input_grad_into(conv, &input_shape, &grad_out, &mut scratch, &mut grad_input)
                        .unwrap();
                    assert_bits_eq(&grad_input, &reference, &format!("{in_c} {prec} input grad"));
                }
                // Shape validation mirrors the reference.
                let bad = Tensor::zeros(&[out_shape[0], out_shape[1] + 1, out_shape[2]]);
                prop_assert!(conv2d_input_grad_into(
                    &fp32, &input_shape, &bad, &mut scratch, &mut grad_input
                )
                .is_err());
            }
        }

        /// Scratch-backed linear backward (event-aware gather weight
        /// gradient) is bitwise identical to the allocating reference, for
        /// binary and analog inputs and gradients containing exact ±0.0.
        #[test]
        fn linear_backward_into_bitwise_equals_reference(
            seed in 0_u64..500,
            bits in proptest::collection::vec(any::<bool>(), 18),
            analog in any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let fc = Linear::with_kaiming_init(18, 5, &mut rng).unwrap();
            let input = Tensor::from_fn(&[18], |i| {
                if analog {
                    ((i as f32) * 0.37).cos() * 0.4
                } else if bits[i] {
                    1.0
                } else {
                    0.0
                }
            });
            let grad_out = grad_tensor(&[5], seed as usize + 7);
            let (reference, reference_input) = linear_backward(&fc, &input, &grad_out).unwrap();
            let mut scratch = GradScratch::new();
            let mut grads = LayerGrads::default();
            let mut grad_input = Tensor::default();
            linear_backward_into(
                &fc,
                &SpikePlane::from_tensor(&input),
                &grad_out,
                &mut scratch,
                &mut grads,
                Some(&mut grad_input),
            )
            .unwrap();
            assert_bits_eq(&grads.weight, &reference.weight, "weight");
            assert_bits_eq(&grads.bias, &reference.bias, "bias");
            assert_bits_eq(&grad_input, &reference_input, "input");
        }

        /// The gemv input gradient drops zero-*gradient* rows where the
        /// reference drops zero-*weight* products; both drop only `±0.0`
        /// terms. Layers whose weights hold exact zeros — planted `±0.0`, or
        /// the zero level of an Int4-quantized layer — meet the planted
        /// `±0.0` gradients here, and every gradient stays bitwise identical
        /// to the allocating reference.
        #[test]
        fn linear_backward_into_bitwise_equals_reference_on_zero_weights(
            seed in 0_u64..500,
            bits in proptest::collection::vec(any::<bool>(), 40),
            int4 in any::<bool>(),
            analog in any::<bool>(),
        ) {
            use snn_core::quant::Precision;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut fc = Linear::with_kaiming_init(40, 7, &mut rng).unwrap();
            if int4 {
                fc = fc.to_precision(Precision::Int4).unwrap();
            } else {
                let planted = grad_tensor(&[7, 40], seed as usize + 3);
                let w = Tensor::from_fn(&[7, 40], |i| {
                    let p = planted.as_slice()[i];
                    if p == 0.0 { p } else { fc.weight().as_slice()[i] }
                });
                fc.set_weight(w).unwrap();
            }
            prop_assert!(fc.weight().as_slice().contains(&0.0));
            let input = Tensor::from_fn(&[40], |i| {
                if analog {
                    ((i as f32) * 0.41).sin() * 0.3
                } else {
                    f32::from(bits[i])
                }
            });
            let grad_out = grad_tensor(&[7], seed as usize + 11);
            let (reference, reference_input) = linear_backward(&fc, &input, &grad_out).unwrap();
            let mut scratch = GradScratch::new();
            let mut grads = LayerGrads::default();
            let mut grad_input = Tensor::default();
            linear_backward_into(
                &fc,
                &SpikePlane::from_tensor(&input),
                &grad_out,
                &mut scratch,
                &mut grads,
                Some(&mut grad_input),
            )
            .unwrap();
            assert_bits_eq(&grads.weight, &reference.weight, "weight");
            assert_bits_eq(&grads.bias, &reference.bias, "bias");
            assert_bits_eq(&grad_input, &reference_input, "input");
        }

        /// Event-aware pool backward is bitwise identical to the dense window
        /// rescan on ragged maps (h/w not divisible by the window), and the
        /// routed gradient mass is conserved.
        #[test]
        fn pool_backward_into_bitwise_equals_reference_and_conserves_mass(
            bits in proptest::collection::vec(any::<bool>(), 2 * 7 * 7),
            h in 4_usize..8,
            w in 4_usize..8,
            size in 2_usize..4,
            seed in 0_usize..500,
            analog in any::<bool>(),
        ) {
            // h, w >= 4 > size <= 3, so the window always fits.
            let pool = SpikeMaxPool2d::new(size).unwrap();
            let input = Tensor::from_fn(&[2, h, w], |i| {
                if analog {
                    ((i + seed).wrapping_mul(97) % 7) as f32 * 0.1
                } else if bits[i % bits.len()] {
                    1.0
                } else {
                    0.0
                }
            });
            let out_shape = pool.output_shape(input.shape()).unwrap();
            let grad_out = grad_tensor(&out_shape, seed);
            let reference = pool_backward(&pool, &input, &grad_out).unwrap();
            let mut scratch = GradScratch::new();
            let mut out = Tensor::default();
            pool_backward_into(
                &pool,
                &SpikePlane::from_tensor(&input),
                &grad_out,
                &mut scratch,
                &mut out,
            )
            .unwrap();
            assert_bits_eq(&out, &reference, "pool grad");
            // Gradient-mass conservation: every output gradient is routed to
            // exactly one input cell, so the totals agree (f64 to keep the
            // comparison independent of summation order).
            let mass_in: f64 = out.as_slice().iter().map(|&v| f64::from(v)).sum();
            let mass_out: f64 = grad_out.as_slice().iter().map(|&v| f64::from(v)).sum();
            prop_assert!(
                (mass_in - mass_out).abs() <= 1e-4 * (1.0 + mass_out.abs()),
                "mass {mass_in} vs {mass_out}"
            );
        }

        /// Shape validation on ragged geometries: a grad_output of any shape
        /// other than the layer's output shape is rejected, for every
        /// stride/padding/pool-size combination.
        #[test]
        fn backward_shape_validation_on_ragged_shapes(
            h in 4_usize..9,
            w in 4_usize..9,
            stride in 1_usize..3,
            padding in 0_usize..2,
            size in 2_usize..4,
        ) {
            let conv = Conv2d::new(1, 2, 3, stride, padding).unwrap();
            let input = Tensor::zeros(&[1, h, w]);
            let out_shape = conv.output_shape(input.shape()).unwrap();
            let bad = Tensor::zeros(&[out_shape[0], out_shape[1] + 1, out_shape[2]]);
            prop_assert!(conv2d_backward(&conv, &input, &bad).is_err());
            let mut scratch = GradScratch::new();
            let mut grads = LayerGrads::default();
            let mut gi = Tensor::default();
            let plane = SpikePlane::from_tensor(&input);
            prop_assert!(
                conv2d_backward_into(&conv, &plane, &bad, &mut scratch, &mut grads, Some(&mut gi))
                    .is_err()
            );
            // A lowering built for a different geometry is rejected too.
            let taller = conv.output_shape(&[1, h + 2, w]).unwrap();
            conv2d_backward_into(
                &conv,
                &SpikePlane::from_tensor(&Tensor::full(&[1, h + 2, w], 0.5)),
                &Tensor::zeros(&taller),
                &mut scratch,
                &mut grads,
                Some(&mut gi),
            )
            .unwrap();
            if taller[1] * taller[2] != out_shape[1] * out_shape[2] {
                let good = Tensor::zeros(&out_shape);
                prop_assert!(conv2d_backward_reuse(
                    &conv, input.shape(), &good, &mut scratch, &mut grads, Some(&mut gi)
                )
                .is_err());
            }
            if h >= size && w >= size {
                let pool = SpikeMaxPool2d::new(size).unwrap();
                let pooled = pool.output_shape(input.shape()).unwrap();
                let bad_pool = Tensor::zeros(&[pooled[0], pooled[1], pooled[2] + 1]);
                prop_assert!(pool_backward(&pool, &input, &bad_pool).is_err());
                let mut out = Tensor::default();
                prop_assert!(
                    pool_backward_into(&pool, &plane, &bad_pool, &mut scratch, &mut out).is_err()
                );
            }
        }
    }

    #[test]
    fn backward_into_skips_input_gradient_when_not_needed() {
        let mut rng = StdRng::seed_from_u64(5);
        let conv = Conv2d::with_kaiming_init(2, 3, 3, 1, 1, &mut rng).unwrap();
        let input = Tensor::from_fn(&[2, 5, 5], |i| f32::from(i % 3 == 0));
        let grad_out = grad_tensor(&conv.output_shape(input.shape()).unwrap(), 11);
        let (reference, _) = conv2d_backward(&conv, &input, &grad_out).unwrap();
        let mut scratch = GradScratch::new();
        let mut grads = LayerGrads::default();
        conv2d_backward_into(
            &conv,
            &SpikePlane::from_tensor(&input),
            &grad_out,
            &mut scratch,
            &mut grads,
            None,
        )
        .unwrap();
        assert_bits_eq(&grads.weight, &reference.weight, "weight");
        assert_bits_eq(&grads.bias, &reference.bias, "bias");
    }
}
