//! Layer-level backward passes.
//!
//! These free functions compute the gradients of the convolution, linear and
//! spike-pooling layers given the layer input, the (possibly fake-quantized)
//! weights used in the forward pass, and the gradient flowing back from the
//! following LIF population.
//!
//! Two families exist side by side:
//!
//! * [`conv2d_backward`] / [`linear_backward`] / [`pool_backward`] — the
//!   allocating **reference** implementations: dense-input, fresh buffers per
//!   call. Every bitwise guarantee below is stated against them.
//! * [`conv2d_backward_into`] / [`linear_backward_into`] /
//!   [`pool_backward_into`] — the production variants the BPTT hot loop runs:
//!   they take the layer input as a [`SpikePlane`] (so binary spike frames
//!   use event-aware gather/scatter kernels), write into caller-owned
//!   [`ConvGrads`]/[`LinearGrads`] buffers and thread a [`GradScratch`], so
//!   the per-timestep backward allocates nothing in steady state. The conv
//!   input gradient runs the fused event-aware [`conv2d_input_grad_into`]
//!   kernel (cached `Wᵀ`, all-zero gradient columns skipped, matmul fused
//!   with the col2im scatter). Results are **bitwise identical** to the
//!   reference family — enforced by the proptests in this module.

use snn_core::error::SnnError;
use snn_core::layers::{Conv2d, Linear, SpikeMaxPool2d};
use snn_core::spike::{scan_words, SpikePlane};
use snn_core::tensor::{
    add_assign_lanes, matmul, matmul_a_bt, matmul_a_bt_to_with, matmul_at_b, matmul_scatter_col2im,
    matmul_to_with, Im2Col, Tensor,
};

/// Gradients of a convolution layer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConvGrads {
    /// Gradient with respect to the weight tensor `[out_c, in_c, k, k]`.
    pub weight: Tensor,
    /// Gradient with respect to the bias `[out_c]`.
    pub bias: Tensor,
    /// Gradient with respect to the layer input `[in_c, h, w]` (left untouched
    /// by the `_into` variants when the input gradient is not requested).
    pub input: Tensor,
}

/// Gradients of a linear layer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinearGrads {
    /// Gradient with respect to the weight matrix `[out, in]`.
    pub weight: Tensor,
    /// Gradient with respect to the bias `[out]`.
    pub bias: Tensor,
    /// Gradient with respect to the layer input, shaped like the layer input
    /// (left untouched by the `_into` variants when not requested).
    pub input: Tensor,
}

/// Reusable scratch threaded through the `_into` backward passes: the im2col
/// lowering of the layer input, the transposed-`b` repack and panel scratch
/// of the weight-gradient matmul, the transposed gradient and accumulator of
/// the event weight gradient, the active-column mask/list/panel/tile and
/// scatter row of the fused input-gradient kernel
/// ([`conv2d_input_grad_into`]), and the per-window first-spike table of the
/// event-aware pool backward. One instance lives in each trainer worker's
/// [`crate::bptt::BpttScratch`] and is reused across every layer, timestep
/// and sample that worker processes — after warmup the backward performs no
/// per-timestep heap allocation.
#[derive(Debug, Clone, Default)]
pub struct GradScratch {
    cols: Im2Col,
    bt: Vec<f32>,
    panel: Vec<f32>,
    pool_first: Vec<u32>,
    got: Vec<f32>,
    accw: Vec<f32>,
    col_mask: Vec<u64>,
    col_active: Vec<u32>,
    col_row: Vec<f32>,
    go_panel: Vec<f32>,
    grad_tile: Vec<f32>,
}

impl GradScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        GradScratch::default()
    }
}

/// The im2col lowering of a **replayed** input (direct coding presents the
/// identical frame at every timestep), prepared once per sample and consumed
/// by [`conv2d_backward_cached`] at every timestep. The columns are stored
/// pre-transposed into the `[spatial, coeffs]` layout the blocked
/// weight-gradient matmul consumes, so neither the lowering nor the
/// per-timestep `bᵀ` repack is repaid inside the time loop.
#[derive(Debug, Clone, Default)]
pub struct CachedLowering {
    /// `[spatial, coeffs]` row-major — the transpose of the im2col matrix.
    bt: Vec<f32>,
    rows: usize,
    cols: usize,
    staging: Im2Col,
}

impl CachedLowering {
    /// Creates an empty cache; [`CachedLowering::prepare`] fills it.
    pub fn new() -> Self {
        CachedLowering::default()
    }

    /// Lowers `input` for `conv` (event gather or dense scan, dispatched by
    /// density like [`Conv2d::lower_plane_into`]) and transposes the columns
    /// into the matmul-ready layout, reusing this cache's buffers.
    ///
    /// # Errors
    ///
    /// Same as [`Tensor::im2col`].
    pub fn prepare(&mut self, conv: &Conv2d, input: &SpikePlane) -> Result<(), SnnError> {
        conv.lower_plane_into(input, &mut self.staging)?;
        self.rows = self.staging.rows;
        self.cols = self.staging.cols;
        self.bt.clear();
        self.bt.resize(self.rows * self.cols, 0.0);
        for (p, row) in self.staging.data.chunks_exact(self.cols).enumerate() {
            for (s, &v) in row.iter().enumerate() {
                self.bt[s * self.rows + p] = v;
            }
        }
        Ok(())
    }
}

/// Backward pass of [`Conv2d::forward`].
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
) -> Result<ConvGrads, SnnError> {
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

    Ok(ConvGrads {
        weight: grad_weight,
        bias: grad_bias,
        input: grad_input,
    })
}

/// Backward pass of [`Linear::forward`].
///
/// # Errors
///
/// Returns [`SnnError::ShapeMismatch`] if the shapes are inconsistent.
pub fn linear_backward(
    linear: &Linear,
    input: &Tensor,
    grad_output: &Tensor,
) -> Result<LinearGrads, SnnError> {
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
        &[n_in],
    )?;
    Ok(LinearGrads {
        weight: grad_weight,
        bias: grad_bias,
        input: grad_input,
    })
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
/// gradients into the caller-owned `grads` buffer, reusing every
/// intermediate from `scratch`. When `need_input` is false the
/// input-gradient matmul and col2im are skipped entirely (the first network
/// layer's input gradient is never consumed) and `grads.input` is left
/// untouched.
///
/// For a binary input below the layer's density crossover the weight
/// gradient is computed **straight from the spike events** — no im2col
/// lowering, no `bᵀ` repack, no dense matmul: each `(spike, tap)` pair adds
/// one `grad_output` column into one weight row. This drops exactly the
/// products with a zero multiplicand, which cannot change an IEEE-754 sum
/// accumulated from `+0.0` in round-to-nearest (a running sum can never be
/// `-0.0`, and `t + ±0.0 == t` otherwise), so on the finite gradients the
/// training path produces the result is **bitwise identical** to
/// [`conv2d_backward`] — enforced by proptest. Denser or analog inputs take
/// the dense lowering + blocked matmul, which is bit-identical by
/// construction.
///
/// # Errors
///
/// Same as [`conv2d_backward`].
pub fn conv2d_backward_into(
    conv: &Conv2d,
    input: &SpikePlane,
    grad_output: &Tensor,
    scratch: &mut GradScratch,
    grads: &mut ConvGrads,
    need_input: bool,
) -> Result<(), SnnError> {
    let out_shape = conv.output_shape(input.shape())?;
    if grad_output.shape() != out_shape {
        return Err(SnnError::shape(
            &out_shape,
            grad_output.shape(),
            "conv2d_backward grad_output",
        ));
    }
    let out_c = conv.out_channels();
    let spatial = out_shape[1] * out_shape[2];
    let coeffs = conv.coefficients_per_output();

    // grad_w [out_c, coeffs] = grad_out [out_c, spatial] * cols^T [spatial, coeffs]
    grads.weight.reset_to(conv.weight().shape(), 0.0);
    if input.is_binary() && input.density() < conv.sparse_crossover() {
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
        conv.for_each_tap(input, |p, s| {
            add_assign_lanes(
                &mut accw[p * out_c..(p + 1) * out_c],
                &got[s * out_c..(s + 1) * out_c],
            );
        })?;
        let w_out = grads.weight.as_mut_slice();
        for (p, wrow) in scratch.accw.chunks_exact(out_c).enumerate() {
            for (oc, &v) in wrow.iter().enumerate() {
                w_out[oc * coeffs + p] = v;
            }
        }
    } else {
        conv.lower_plane_into(input, &mut scratch.cols)?;
        matmul_a_bt_to_with(
            grad_output.as_slice(),
            &scratch.cols.data,
            out_c,
            spatial,
            coeffs,
            grads.weight.as_mut_slice(),
            &mut scratch.bt,
            &mut scratch.panel,
        );
    }
    conv_bias_and_input_grads(
        conv,
        input.shape(),
        grad_output,
        &out_shape,
        scratch,
        grads,
        need_input,
    )
}

/// Like [`conv2d_backward_into`] but with the input's lowering supplied by a
/// [`CachedLowering`] prepared once per sample — the BPTT backward uses this
/// to reuse one transposed lowering across every timestep of a replayed
/// (direct-coded) input instead of re-lowering and re-transposing the
/// identical frame `T` times. `input_shape` is the `[in_c, h, w]` shape of
/// the layer input the lowering was built from.
///
/// # Errors
///
/// Same as [`conv2d_backward`], plus [`SnnError::ShapeMismatch`] if the
/// lowering does not match the layer's geometry for `input_shape`.
pub fn conv2d_backward_cached(
    conv: &Conv2d,
    lowering: &CachedLowering,
    input_shape: &[usize],
    grad_output: &Tensor,
    scratch: &mut GradScratch,
    grads: &mut ConvGrads,
    need_input: bool,
) -> Result<(), SnnError> {
    let out_shape = conv.output_shape(input_shape)?;
    if grad_output.shape() != out_shape {
        return Err(SnnError::shape(
            &out_shape,
            grad_output.shape(),
            "conv2d_backward grad_output",
        ));
    }
    let out_c = conv.out_channels();
    let spatial = out_shape[1] * out_shape[2];
    let coeffs = conv.coefficients_per_output();
    if lowering.rows != coeffs || lowering.cols != spatial {
        return Err(SnnError::shape(
            &[coeffs, spatial],
            &[lowering.rows, lowering.cols],
            "conv2d_backward_cached lowering",
        ));
    }
    // grad_w: the blocked kernel straight over the pre-transposed columns —
    // exactly what `matmul_a_bt` computes after its per-call repack.
    grads.weight.reset_to(conv.weight().shape(), 0.0);
    matmul_to_with(
        grad_output.as_slice(),
        &lowering.bt,
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
        need_input,
    )
}

/// The fused, event-aware input-gradient kernel of the convolution backward:
/// computes `grad_input = col2im(Wᵀ · grad_out)` in one pass, writing into
/// the caller-owned `grad_input` tensor.
///
/// Three exploits over the unfused [`matmul_at_b`] + [`Tensor::col2im`]
/// reference, all bit-safe:
///
/// * **Cached `Wᵀ`** — the matmul's left operand is the layer's cached
///   transposed filter bank ([`Conv2d::transposed_weight`], warmed once per
///   batch by [`crate::bptt::Bptt::prepare`]), so the transposed-weight
///   product runs the blocked row-tiled [`matmul_to_with`] micro-kernel
///   instead of the scalar `matmul_at_b` loop — no per-call transpose.
/// * **All-zero gradient columns are skipped** — one scan of `grad_output`
///   finds the output cells whose gradient is zero across every channel.
///   Such columns arise from the event structure of the backward itself: the
///   pool backward routes gradient only to each window's first spike (found
///   by word-scanning the stored [`SpikePlane`]s), and the final timestep
///   has no β-carry to densify it, so whole columns of the incoming frame
///   are exact zeros. Their products are all `±0.0`, which a sum accumulated
///   from `+0.0` can never observe, so dropping them is bitwise-neutral.
/// * **Fusion** — the surviving columns are packed once, multiplied four
///   weight rows at a time, and each finished row is scattered row-wise into
///   the input-gradient plane in col2im's exact `(channel, ky, kx, oy, ox)`
///   accumulation order, one slice add per output row (masked columns add
///   `+0.0`, which changes no bit): the `[coeffs, spatial]` gradient-column
///   matrix is never materialised.
///
/// **Bitwise identical** to the retained dense reference (the
/// `matmul_at_b` + `col2im` tail of [`conv2d_backward`]) on the finite
/// gradients the training path produces — enforced by the proptests in this
/// module.
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
    let spatial = out_shape[1] * out_shape[2];
    let go = grad_output.as_slice();
    // One pass over the gradient frame marks every output cell that carries
    // gradient in at least one channel; the fused kernel only computes and
    // scatters those columns. The mark bits are packed into the same
    // LSB-first `u64` mask-word layout [`SpikePlane`] uses, built
    // branch-free 64 cells at a time and extracted with the shared
    // [`scan_words`] trailing-zeros walk.
    let mask = &mut scratch.col_mask;
    mask.clear();
    mask.resize(spatial.div_ceil(64), 0);
    for row in go.chunks_exact(spatial) {
        for (m, chunk) in mask.iter_mut().zip(row.chunks(64)) {
            let mut bits = 0_u64;
            for (b, &v) in chunk.iter().enumerate() {
                bits |= u64::from(v != 0.0) << b;
            }
            *m |= bits;
        }
    }
    let active = &mut scratch.col_active;
    active.clear();
    active.extend(scan_words(&scratch.col_mask).map(|s| s as u32));
    // Shape the output buffer only when it changes (between layers); the
    // kernel overwrites every cell, so re-zeroing it per timestep here would
    // just double the memset.
    if grad_input.shape() != input_shape {
        grad_input.reset_to(input_shape, 0.0);
    }
    let k = conv.kernel();
    matmul_scatter_col2im(
        conv.transposed_weight(),
        go,
        active,
        conv.out_channels(),
        spatial,
        input_shape[0],
        input_shape[1],
        input_shape[2],
        (k, k),
        conv.stride(),
        conv.padding(),
        out_shape[2],
        &mut scratch.go_panel,
        &mut scratch.col_row,
        &mut scratch.grad_tile,
        grad_input.as_mut_slice(),
    );
    Ok(())
}

/// Shared tail of the scratch-backed conv backward: the bias gradient and
/// (when requested) the input gradient via the fused
/// [`conv2d_input_grad_into`] kernel. Accumulation orders are exactly those
/// of [`conv2d_backward`], so results stay bitwise identical.
fn conv_bias_and_input_grads(
    conv: &Conv2d,
    input_shape: &[usize],
    grad_output: &Tensor,
    out_shape: &[usize; 3],
    scratch: &mut GradScratch,
    grads: &mut ConvGrads,
    need_input: bool,
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

    if need_input {
        conv2d_input_grad_into(conv, input_shape, grad_output, scratch, &mut grads.input)?;
    }
    Ok(())
}

/// Scratch-backed, event-aware variant of [`linear_backward`]: writes into
/// the caller-owned `grads` buffer without allocating. For a binary spike
/// input the weight gradient is a gather — each input column found by
/// word-scanning the plane's mask words receives the output gradient directly
/// instead of the dense rank-1 matmul touching all `out × in` cells — which
/// is bitwise identical to the matmul
/// formulation on finite gradients (the kernel's zero-skip and
/// accumulate-from-zero semantics are reproduced exactly). The input gradient
/// `Wᵀ · grad_out` is a gemv — one axpy per row of `W`, skipping rows whose
/// gradient is exactly zero — bitwise identical to the reference's
/// [`matmul_at_b`] on finite data; it is written with the shape of the layer
/// input (the reference's reshape step, without the copy) and skipped when
/// `need_input` is false.
///
/// # Errors
///
/// Same as [`linear_backward`].
pub fn linear_backward_into(
    linear: &Linear,
    input: &SpikePlane,
    grad_output: &Tensor,
    scratch: &mut GradScratch,
    grads: &mut LinearGrads,
    need_input: bool,
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
    if need_input {
        // grad_x = W^T [in, out] * grad_out [out], shaped like the input: a
        // gemv run as one axpy per row of W, skipping rows whose gradient is
        // exactly zero. Per input cell the products still accumulate from
        // +0.0 in ascending row order — the reference's order — and each
        // dropped term is a ±0.0 product, which such a sum never observes.
        grads.input.reset_to(input.shape(), 0.0);
        let gx = grads.input.as_mut_slice();
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
/// Analog planes fall back to the dense window scan. Bitwise identical to
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
    if input.is_binary() {
        // Pass 1: record each window's first spike (ascending flat order ==
        // the dense scan's row-major window order). u32::MAX marks a silent
        // window; real flat indices never reach it at these tensor sizes.
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
    } else {
        // Analog fallback: the reference's dense window scan.
        let in_data = input.dense().as_slice();
        for ci in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = go[ci * oh * ow + oy * ow + ox];
                    if g == 0.0 {
                        continue;
                    }
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
        let grads = conv2d_backward(&conv, &input, &grad_out).unwrap();

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
        let grads = conv2d_backward(&conv, &input, &grad_out).unwrap();
        assert_eq!(grads.bias.as_slice(), &[32.0, 0.0]);
    }

    #[test]
    fn conv_input_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(1);
        let conv = Conv2d::with_kaiming_init(1, 2, 3, 1, 1, &mut rng).unwrap();
        let input = Tensor::from_fn(&[1, 4, 4], |i| ((i as f32) * 0.29).cos());
        let grad_out = Tensor::ones(&conv.output_shape(input.shape()).unwrap());
        let grads = conv2d_backward(&conv, &input, &grad_out).unwrap();
        for &flat in &[0usize, 5, 10, 15] {
            let mut f = |v: f32| {
                let mut x = input.clone();
                x.as_mut_slice()[flat] = v;
                conv.forward(&x).unwrap().sum()
            };
            let num = numeric_grad(&mut f, input.as_slice()[flat]);
            let ana = grads.input.as_slice()[flat];
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
        let grads = linear_backward(&fc, &input, &grad_out).unwrap();
        // grad_w = grad_out (outer) input.
        assert_eq!(grads.weight.as_slice(), &[0.5, -1.0, 2.0, -0.5, 1.0, -2.0]);
        assert_eq!(grads.bias.as_slice(), &[1.0, -1.0]);
        // grad_x = W^T grad_out = [1-4, 2-5, 3-6].
        assert_eq!(grads.input.as_slice(), &[-3.0, -3.0, -3.0]);
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
            let reference = conv2d_backward(&conv, &input, &grad_out).unwrap();
            let mut scratch = GradScratch::new();
            let mut grads = ConvGrads::default();
            conv2d_backward_into(
                &conv,
                &SpikePlane::from_tensor(&input),
                &grad_out,
                &mut scratch,
                &mut grads,
                true,
            )
            .unwrap();
            assert_bits_eq(&grads.weight, &reference.weight, "weight");
            assert_bits_eq(&grads.bias, &reference.bias, "bias");
            assert_bits_eq(&grads.input, &reference.input, "input");
            // The cached-lowering entry point agrees too.
            let mut lowering = CachedLowering::new();
            lowering
                .prepare(&conv, &SpikePlane::from_tensor(&input))
                .unwrap();
            let mut cached = ConvGrads::default();
            conv2d_backward_cached(
                &conv,
                &lowering,
                input.shape(),
                &grad_out,
                &mut scratch,
                &mut cached,
                true,
            )
            .unwrap();
            assert_bits_eq(&cached.weight, &reference.weight, "cached weight");
            assert_bits_eq(&cached.bias, &reference.bias, "cached bias");
            assert_bits_eq(&cached.input, &reference.input, "cached input");
        }

        /// The fused input-gradient kernel is bitwise identical to the
        /// retained dense reference tail (`matmul_at_b` + `col2im` inside
        /// [`conv2d_backward`]) across ragged geometries, strides and
        /// paddings, for gradient frames with planted exact ±0.0 and whole
        /// all-zero columns (the case the kernel skips), including the
        /// everything-zero and nothing-zero extremes — with one scratch
        /// reused across all cases.
        #[test]
        fn conv2d_input_grad_into_bitwise_equals_reference(
            seed in 0_u64..500,
            h in 3_usize..8,
            w in 3_usize..8,
            stride in 1_usize..3,
            padding in 0_usize..2,
            keep in proptest::collection::vec(any::<bool>(), 49),
            all_mode in 0_usize..3,
            negzero in any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let conv = Conv2d::with_kaiming_init(2, 3, 3, stride, padding, &mut rng).unwrap();
            let input_shape = [2_usize, h, w];
            let out_shape = conv.output_shape(&input_shape).unwrap();
            let spatial = out_shape[1] * out_shape[2];
            // Gradient with whole output columns zeroed by `keep` (mode 0),
            // or entirely kept/zeroed (modes 1/2).
            let keep_col = |s: usize| match all_mode {
                1 => true,
                2 => false,
                _ => keep[s % keep.len()],
            };
            let grad_out = Tensor::from_fn(&out_shape, |i| {
                if keep_col(i % spatial) {
                    grad_tensor(&[1], i).as_slice()[0]
                } else if negzero {
                    -0.0
                } else {
                    0.0
                }
            });
            let input = Tensor::from_fn(&input_shape, |i| f32::from(i % 3 == 0));
            let reference = conv2d_backward(&conv, &input, &grad_out).unwrap();
            let mut scratch = GradScratch::new();
            let mut grad_input = Tensor::default();
            conv2d_input_grad_into(&conv, &input_shape, &grad_out, &mut scratch, &mut grad_input)
                .unwrap();
            assert_bits_eq(&grad_input, &reference.input, "fused input grad");
            // Shape validation mirrors the reference.
            let bad = Tensor::zeros(&[out_shape[0], out_shape[1] + 1, out_shape[2]]);
            prop_assert!(conv2d_input_grad_into(
                &conv, &input_shape, &bad, &mut scratch, &mut grad_input
            )
            .is_err());
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
            let reference = linear_backward(&fc, &input, &grad_out).unwrap();
            let mut scratch = GradScratch::new();
            let mut grads = LinearGrads::default();
            linear_backward_into(
                &fc,
                &SpikePlane::from_tensor(&input),
                &grad_out,
                &mut scratch,
                &mut grads,
                true,
            )
            .unwrap();
            assert_bits_eq(&grads.weight, &reference.weight, "weight");
            assert_bits_eq(&grads.bias, &reference.bias, "bias");
            assert_bits_eq(&grads.input, &reference.input, "input");
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
            let reference = linear_backward(&fc, &input, &grad_out).unwrap();
            let mut scratch = GradScratch::new();
            let mut grads = LinearGrads::default();
            linear_backward_into(
                &fc,
                &SpikePlane::from_tensor(&input),
                &grad_out,
                &mut scratch,
                &mut grads,
                true,
            )
            .unwrap();
            assert_bits_eq(&grads.weight, &reference.weight, "weight");
            assert_bits_eq(&grads.bias, &reference.bias, "bias");
            assert_bits_eq(&grads.input, &reference.input, "input");
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
            let mut grads = ConvGrads::default();
            let plane = SpikePlane::from_tensor(&input);
            prop_assert!(
                conv2d_backward_into(&conv, &plane, &bad, &mut scratch, &mut grads, true).is_err()
            );
            // A lowering built for a different geometry is rejected too.
            let mut wrong = CachedLowering::new();
            wrong
                .prepare(&conv, &SpikePlane::from_tensor(&Tensor::zeros(&[1, h + 2, w])))
                .unwrap();
            let wrong_spatial = {
                let taller = conv.output_shape(&[1, h + 2, w]).unwrap();
                taller[1] * taller[2] != out_shape[1] * out_shape[2]
            };
            if wrong_spatial {
                let good = Tensor::zeros(&out_shape);
                prop_assert!(conv2d_backward_cached(
                    &conv, &wrong, input.shape(), &good, &mut scratch, &mut grads, true
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
        let reference = conv2d_backward(&conv, &input, &grad_out).unwrap();
        let mut scratch = GradScratch::new();
        let mut grads = ConvGrads::default();
        conv2d_backward_into(
            &conv,
            &SpikePlane::from_tensor(&input),
            &grad_out,
            &mut scratch,
            &mut grads,
            false,
        )
        .unwrap();
        assert_bits_eq(&grads.weight, &reference.weight, "weight");
        assert_bits_eq(&grads.bias, &reference.bias, "bias");
        // The input buffer is untouched (still the default empty tensor).
        assert!(grads.input.is_empty());
    }
}
