//! A small dense tensor type used throughout the SNN substrate.
//!
//! The accelerator simulator and the training substrate only ever need
//! contiguous `f32` tensors in CHW / NCHW layout, so [`Tensor`] deliberately
//! stays simple: a flat `Vec<f32>` plus a shape vector with row-major strides.
//! Convolution layers use the [`Tensor::im2col`] helper so that both the
//! forward and backward passes reduce to matrix multiplications.

use crate::error::SnnError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

/// Dense row-major `f32` tensor with an arbitrary number of dimensions.
///
/// # Example
///
/// ```
/// use snn_core::tensor::Tensor;
///
/// # fn main() -> Result<(), snn_core::SnnError> {
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3])?;
/// assert_eq!(t.get(&[1, 2])?, 6.0);
/// assert_eq!(t.shape(), &[2, 3]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        let len = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; len],
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        let len = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![1.0; len],
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let len = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![value; len],
        }
    }

    /// Reshapes the tensor in place to `shape` and sets every element to
    /// `value`, reusing the existing allocation when its capacity suffices.
    /// This is the buffer-recycling primitive behind the allocation-free
    /// inference loop: scratch tensors are `reset_to` the next layer's shape
    /// instead of being reallocated every timestep.
    pub fn reset_to(&mut self, shape: &[usize], value: f32) {
        let len: usize = shape.iter().product();
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        self.data.clear();
        self.data.resize(len, value);
    }

    /// Copies another tensor's shape and contents into this one, reusing the
    /// existing allocations (unlike the derived `clone_from`, which clones).
    pub fn copy_from(&mut self, other: &Tensor) {
        self.shape.clear();
        self.shape.extend_from_slice(&other.shape);
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// Creates a tensor from a flat vector and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::ShapeMismatch`] if the vector length does not equal
    /// the product of the shape dimensions.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self, SnnError> {
        let expected: usize = shape.iter().product();
        if data.len() != expected {
            return Err(SnnError::shape(
                &[expected],
                &[data.len()],
                "Tensor::from_vec data length",
            ));
        }
        Ok(Tensor {
            shape: shape.to_vec(),
            data,
        })
    }

    /// Creates a tensor by evaluating `f` at every flat index.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let len: usize = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: (0..len).map(&mut f).collect(),
        }
    }

    /// Shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Immutable view of the underlying data in row-major order.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data in row-major order.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the flat data vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Row-major strides for the current shape.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.shape.len()];
        for i in (0..self.shape.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.shape[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index to a flat offset.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::IndexOutOfBounds`] if the index rank or any
    /// component is out of range.
    pub fn offset(&self, index: &[usize]) -> Result<usize, SnnError> {
        if index.len() != self.shape.len() {
            return Err(SnnError::shape(
                &self.shape,
                index,
                "Tensor::offset index rank",
            ));
        }
        let mut off = 0;
        let strides = self.strides();
        for (dim, (&i, (&s, &stride))) in index
            .iter()
            .zip(self.shape.iter().zip(strides.iter()))
            .enumerate()
        {
            if i >= s {
                return Err(SnnError::index(i, s, format!("tensor dimension {dim}")));
            }
            off += i * stride;
        }
        Ok(off)
    }

    /// Reads the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::IndexOutOfBounds`] if the index is invalid.
    pub fn get(&self, index: &[usize]) -> Result<f32, SnnError> {
        Ok(self.data[self.offset(index)?])
    }

    /// Writes the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::IndexOutOfBounds`] if the index is invalid.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<(), SnnError> {
        let off = self.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::ShapeMismatch`] if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Tensor, SnnError> {
        let expected: usize = shape.iter().product();
        if expected != self.data.len() {
            return Err(SnnError::shape(shape, &self.shape, "Tensor::reshape"));
        }
        Ok(Tensor {
            shape: shape.to_vec(),
            data: self.data.clone(),
        })
    }

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// In-place element-wise map.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Element-wise binary operation with another tensor of identical shape.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::ShapeMismatch`] if the shapes differ.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor, SnnError> {
        if self.shape != other.shape {
            return Err(SnnError::shape(
                &self.shape,
                &other.shape,
                "Tensor::zip_map",
            ));
        }
        Ok(Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for the empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (negative infinity for the empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (positive infinity for the empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Index of the maximum element (ties resolved to the first occurrence).
    pub fn argmax(&self) -> usize {
        let mut best = 0;
        let mut best_val = f32::NEG_INFINITY;
        for (i, &v) in self.data.iter().enumerate() {
            if v > best_val {
                best_val = v;
                best = i;
            }
        }
        best
    }

    /// Number of non-zero elements.
    pub fn count_nonzero(&self) -> usize {
        self.data.iter().filter(|&&x| x != 0.0).count()
    }

    /// Fraction of elements equal to zero; 0.0 for an empty tensor.
    pub fn sparsity(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        1.0 - self.count_nonzero() as f64 / self.data.len() as f64
    }

    /// Returns true if every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Scales every element by `factor`.
    pub fn scale(&self, factor: f32) -> Tensor {
        self.map(|x| x * factor)
    }

    /// Frobenius norm of the tensor.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Dot product between two tensors viewed as flat vectors.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::ShapeMismatch`] if lengths differ.
    pub fn dot(&self, other: &Tensor) -> Result<f32, SnnError> {
        if self.data.len() != other.data.len() {
            return Err(SnnError::shape(
                &[self.data.len()],
                &[other.data.len()],
                "Tensor::dot",
            ));
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a * b)
            .sum())
    }

    /// Lowers a `[C, H, W]` input into an im2col matrix of shape
    /// `[C * kh * kw, out_h * out_w]` for a convolution with the given kernel,
    /// stride and (symmetric, zero) padding.
    ///
    /// Each column holds the receptive field of one output pixel, which turns
    /// convolution into a single matrix multiplication with the flattened
    /// filter bank.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::ShapeMismatch`] if the tensor is not 3-D, or
    /// [`SnnError::InvalidConfig`] if the kernel does not fit the padded input.
    pub fn im2col(
        &self,
        kernel: (usize, usize),
        stride: usize,
        padding: usize,
    ) -> Result<Im2Col, SnnError> {
        let mut out = Im2Col::default();
        self.im2col_into(kernel, stride, padding, &mut out)?;
        Ok(out)
    }

    /// Like [`Tensor::im2col`] but reuses the buffer of an existing [`Im2Col`],
    /// avoiding the large per-call allocation on hot inference paths. The
    /// buffer is resized as needed and its previous contents are discarded.
    ///
    /// # Errors
    ///
    /// Same as [`Tensor::im2col`].
    pub fn im2col_into(
        &self,
        kernel: (usize, usize),
        stride: usize,
        padding: usize,
        out: &mut Im2Col,
    ) -> Result<(), SnnError> {
        let (c, h, w, out_h, out_w) = im2col_geometry(&self.shape, kernel, stride, padding)?;
        let (kh, kw) = kernel;
        let rows = c * kh * kw;
        let cols = out_h * out_w;
        out.data.clear();
        out.data.resize(rows * cols, 0.0);
        out.rows = rows;
        out.cols = cols;
        out.out_h = out_h;
        out.out_w = out_w;
        if stride == 1 {
            self.im2col_rows_stride1((kh, kw), padding, out);
            return Ok(());
        }
        let data = &mut out.data;
        for ci in 0..c {
            let channel = &self.data[ci * h * w..(ci + 1) * h * w];
            for ki in 0..kh {
                for kj in 0..kw {
                    let row = ci * kh * kw + ki * kw + kj;
                    let row_base = row * cols;
                    for oy in 0..out_h {
                        let iy = (oy * stride + ki) as isize - padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let in_row = iy as usize * w;
                        for ox in 0..out_w {
                            let ix = (ox * stride + kj) as isize - padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            data[row_base + oy * out_w + ox] = channel[in_row + ix as usize];
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Stride-1 fast path of [`Tensor::im2col_into`]: each `(channel, ky,
    /// kx)` matrix row is the input channel plane shifted by `(ky - padding,
    /// kx - padding)`, so the interior is a contiguous row copy instead of a
    /// bounds-checked per-element walk. Fills a bit-identical matrix.
    fn im2col_rows_stride1(&self, (kh, kw): (usize, usize), padding: usize, out: &mut Im2Col) {
        let (c, h, w) = (self.shape[0], self.shape[1], self.shape[2]);
        let (out_h, out_w) = (out.out_h, out.out_w);
        let cols = out.cols;
        let data = &mut out.data;
        for ci in 0..c {
            let channel = &self.data[ci * h * w..(ci + 1) * h * w];
            for ki in 0..kh {
                // Valid output rows: 0 <= oy + ki - padding < h.
                let oy0 = padding.saturating_sub(ki);
                let oy1 = (h + padding).saturating_sub(ki).min(out_h);
                for kj in 0..kw {
                    let row_base = (ci * kh * kw + ki * kw + kj) * cols;
                    // Valid output columns: 0 <= ox + kj - padding < w.
                    let ox0 = padding.saturating_sub(kj);
                    let ox1 = (w + padding).saturating_sub(kj).min(out_w);
                    if ox0 >= ox1 {
                        continue;
                    }
                    let ix0 = ox0 + kj - padding;
                    for oy in oy0..oy1 {
                        let iy = oy + ki - padding;
                        let src = &channel[iy * w + ix0..iy * w + ix0 + (ox1 - ox0)];
                        data[row_base + oy * out_w + ox0..row_base + oy * out_w + ox1]
                            .copy_from_slice(src);
                    }
                }
            }
        }
    }

    /// Inverse of [`Tensor::im2col`]: scatters a `[C * kh * kw, out_h * out_w]`
    /// matrix back into a `[C, H, W]` tensor, accumulating overlapping
    /// contributions. Used by the convolution backward pass.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::ShapeMismatch`] if the column matrix dimensions do
    /// not correspond to the requested output geometry.
    pub fn col2im(
        cols: &Im2Col,
        channels: usize,
        height: usize,
        width: usize,
        kernel: (usize, usize),
        stride: usize,
        padding: usize,
    ) -> Result<Tensor, SnnError> {
        let mut out = Tensor::default();
        Tensor::col2im_into(
            cols, channels, height, width, kernel, stride, padding, &mut out,
        )?;
        Ok(out)
    }

    /// Like [`Tensor::col2im`] but writes into a caller-provided tensor
    /// (reshaped/reused in place), so the convolution backward pass can reuse
    /// one input-gradient buffer across timesteps. Bit-identical to
    /// [`Tensor::col2im`].
    ///
    /// # Errors
    ///
    /// Same as [`Tensor::col2im`].
    #[allow(clippy::too_many_arguments)]
    pub fn col2im_into(
        cols: &Im2Col,
        channels: usize,
        height: usize,
        width: usize,
        kernel: (usize, usize),
        stride: usize,
        padding: usize,
        out: &mut Tensor,
    ) -> Result<(), SnnError> {
        let (kh, kw) = kernel;
        if cols.rows != channels * kh * kw {
            return Err(SnnError::shape(
                &[channels * kh * kw],
                &[cols.rows],
                "Tensor::col2im rows",
            ));
        }
        if cols.cols != cols.out_h * cols.out_w {
            return Err(SnnError::shape(
                &[cols.out_h * cols.out_w],
                &[cols.cols],
                "Tensor::col2im cols",
            ));
        }
        out.reset_to(&[channels, height, width], 0.0);
        if stride == 1 {
            // Stride-1 fast path, mirroring `im2col_rows_stride1`: for a
            // fixed `(ci, ki, kj)` the valid output cells form contiguous
            // row runs shifted by `(ki - padding, kj - padding)`, so the
            // scatter becomes vectorizable slice adds. The `(ci, ki, kj,
            // oy, ox)` accumulation order — and therefore every f32 sum —
            // is exactly the bounds-checked loop's.
            let (out_h, out_w) = (cols.out_h, cols.out_w);
            for ci in 0..channels {
                let channel = &mut out.data[ci * height * width..(ci + 1) * height * width];
                for ki in 0..kh {
                    let oy0 = padding.saturating_sub(ki);
                    let oy1 = (height + padding).saturating_sub(ki).min(out_h);
                    for kj in 0..kw {
                        let row_base = (ci * kh * kw + ki * kw + kj) * cols.cols;
                        let ox0 = padding.saturating_sub(kj);
                        let ox1 = (width + padding).saturating_sub(kj).min(out_w);
                        if ox0 >= ox1 {
                            continue;
                        }
                        let ix0 = ox0 + kj - padding;
                        for oy in oy0..oy1 {
                            let iy = oy + ki - padding;
                            let src = &cols.data
                                [row_base + oy * out_w + ox0..row_base + oy * out_w + ox1];
                            let dst =
                                &mut channel[iy * width + ix0..iy * width + ix0 + (ox1 - ox0)];
                            for (d, &s) in dst.iter_mut().zip(src.iter()) {
                                *d += s;
                            }
                        }
                    }
                }
            }
            return Ok(());
        }
        for ci in 0..channels {
            for ki in 0..kh {
                for kj in 0..kw {
                    let row = ci * kh * kw + ki * kw + kj;
                    let row_base = row * cols.cols;
                    for oy in 0..cols.out_h {
                        let iy = (oy * stride + ki) as isize - padding as isize;
                        if iy < 0 || iy >= height as isize {
                            continue;
                        }
                        for ox in 0..cols.out_w {
                            let ix = (ox * stride + kj) as isize - padding as isize;
                            if ix < 0 || ix >= width as isize {
                                continue;
                            }
                            let idx = ci * height * width + iy as usize * width + ix as usize;
                            out.data[idx] += cols.data[row_base + oy * cols.out_w + ox];
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Validates a `[C, H, W]` shape against a convolution patch geometry and
/// returns `(c, h, w, out_h, out_w)`. Shared by the dense im2col lowering and
/// the event-driven gather lowering ([`crate::spike::SpikePlane`]) so the two
/// paths cannot disagree on geometry.
pub(crate) fn im2col_geometry(
    shape: &[usize],
    kernel: (usize, usize),
    stride: usize,
    padding: usize,
) -> Result<(usize, usize, usize, usize, usize), SnnError> {
    if shape.len() != 3 {
        return Err(SnnError::shape(&[0, 0, 0], shape, "Tensor::im2col"));
    }
    let (c, h, w) = (shape[0], shape[1], shape[2]);
    let (kh, kw) = kernel;
    if stride == 0 {
        return Err(SnnError::config("stride", "stride must be >= 1"));
    }
    let padded_h = h + 2 * padding;
    let padded_w = w + 2 * padding;
    if kh > padded_h || kw > padded_w {
        return Err(SnnError::config(
            "kernel",
            format!("kernel {kh}x{kw} larger than padded input {padded_h}x{padded_w}"),
        ));
    }
    let out_h = (padded_h - kh) / stride + 1;
    let out_w = (padded_w - kw) / stride + 1;
    Ok((c, h, w, out_h, out_w))
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Tensor(shape={:?}, mean={:.4}, sparsity={:.3})",
            self.shape,
            self.mean(),
            self.sparsity()
        )
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(&[0])
    }
}

impl Add for &Tensor {
    type Output = Tensor;

    fn add(self, rhs: &Tensor) -> Tensor {
        self.zip_map(rhs, |a, b| a + b)
            .expect("tensor shapes must match for addition")
    }
}

impl Sub for &Tensor {
    type Output = Tensor;

    fn sub(self, rhs: &Tensor) -> Tensor {
        self.zip_map(rhs, |a, b| a - b)
            .expect("tensor shapes must match for subtraction")
    }
}

impl Mul<f32> for &Tensor {
    type Output = Tensor;

    fn mul(self, rhs: f32) -> Tensor {
        self.scale(rhs)
    }
}

impl AddAssign<&Tensor> for Tensor {
    fn add_assign(&mut self, rhs: &Tensor) {
        assert_eq!(
            self.shape, rhs.shape,
            "tensor shapes must match for +=: {:?} vs {:?}",
            self.shape, rhs.shape
        );
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }
}

/// Result of an [`Tensor::im2col`] lowering.
///
/// The matrix is stored row-major with `rows = C * kh * kw` and
/// `cols = out_h * out_w`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Im2Col {
    /// Row-major matrix data.
    pub data: Vec<f32>,
    /// Number of rows (`C * kh * kw`).
    pub rows: usize,
    /// Number of columns (`out_h * out_w`).
    pub cols: usize,
    /// Output feature-map height.
    pub out_h: usize,
    /// Output feature-map width.
    pub out_w: usize,
}

/// Multiplies an `[m, k]` row-major matrix by a `[k, n]` row-major matrix.
///
/// This is the single matmul primitive shared by the convolution and linear
/// layers (forward and backward). It dispatches to the cache-blocked
/// [`matmul_to`] kernel.
pub fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0_f32; m * n];
    matmul_to(a, b, m, k, n, &mut out);
    out
}

/// Reference matmul kernel: a per-row triple loop over four `b`-rows at a
/// time, with no cache blocking. This is the kernel every accumulation-order
/// guarantee in the workspace is stated against — [`matmul_to`] (the blocked
/// production kernel) must stay **bitwise identical** to it, which the
/// `blocked_matmul_bitwise_equals_naive` proptest enforces. Retained for that
/// test and for the `matmul_blocked_vs_naive` bench arm.
pub fn matmul_naive_to(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "lhs matrix has wrong length");
    assert_eq!(b.len(), k * n, "rhs matrix has wrong length");
    assert_eq!(out.len(), m * n, "out matrix has wrong length");
    out.fill(0.0);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        // Process four b-rows per output pass: quarters the load/store
        // traffic on the output row, which dominates the inner loop. The
        // per-element adds stay in ascending-p order (`t += a0*b0` then
        // `t += a1*b1`, never a reassociated `t += a0*b0 + a1*b1`), so
        // results are bit-identical to the single-row loop.
        let mut p = 0;
        while p + 4 <= k {
            let (a0, a1, a2, a3) = (a_row[p], a_row[p + 1], a_row[p + 2], a_row[p + 3]);
            if a0 == 0.0 && a1 == 0.0 && a2 == 0.0 && a3 == 0.0 {
                p += 4;
                continue;
            }
            let b0 = &b[p * n..(p + 1) * n];
            let b1 = &b[(p + 1) * n..(p + 2) * n];
            let b2 = &b[(p + 2) * n..(p + 3) * n];
            let b3 = &b[(p + 3) * n..(p + 4) * n];
            for o in 0..n {
                let mut t = out_row[o];
                t += a0 * b0[o];
                t += a1 * b1[o];
                t += a2 * b2[o];
                t += a3 * b3[o];
                out_row[o] = t;
            }
            p += 4;
        }
        for (p, &a_ip) in a_row.iter().enumerate().skip(p) {
            if a_ip == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &b_pn) in b_row.iter().enumerate() {
                out_row[o] += a_ip * b_pn;
            }
        }
    }
}

/// Number of `a` rows one micro-kernel pass accumulates: each loaded `b`
/// panel row is reused across this many output rows before it leaves
/// registers/L1.
const MM_ROW_TILE: usize = 4;
/// Column width of a packed `b` panel (`NC`): output-row segments of this
/// width plus four panel rows stay L1-resident through a micro-kernel pass.
const MM_PANEL_COLS: usize = 128;
/// Depth of one `k` block (`KC`); a panel of `KC × NC` f32 is 128 KiB and
/// stays L2-resident across all row tiles. Must be a multiple of 4 so the
/// four-row quads of every block align with the reference kernel's quads
/// (same grouping ⇒ same zero-skip decisions ⇒ bitwise-equal sums even for
/// non-finite inputs).
const MM_BLOCK_K: usize = 256;
/// Tiling/packing cut-in: while `b` holds at most this many elements
/// (512 KiB of f32 — comfortably L2-resident) the kernel runs directly over
/// `b` as one whole-width panel; packing would only add a copy of data the
/// cache already serves. Every inference-scale shape in this workspace stays
/// below the threshold, so the hot run loop never packs.
const MM_PACK_THRESHOLD: usize = 128 * 1024;

/// Like [`matmul`] but writes into a caller-provided output slice of length
/// `m * n` (overwriting its contents), so hot paths can reuse one buffer
/// across calls.
///
/// The kernel is cache-blocked: `b` is processed in `KC × NC` column panels
/// packed into a contiguous scratch buffer (skipped when `n ≤ NC`, where
/// `b`'s rows already are the panel) and each panel is reused across
/// `MM_ROW_TILE` output rows per pass. Per output cell the contributions
/// still accumulate one scalar `t += a[i][p] * b[p][o]` at a time in
/// ascending `p` order — exactly the order of [`matmul_naive_to`] — so the
/// result is **bitwise identical** to the naive reference kernel.
pub fn matmul_to(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    let mut panel = Vec::new();
    matmul_to_with(a, b, m, k, n, out, &mut panel);
}

/// The allocation-controlled entry point behind [`matmul_to`]: `panel` is the
/// scratch buffer `b` panels are packed into, reused across calls by the hot
/// paths (it is only touched when `n > MM_PANEL_COLS`; the inference-scale
/// shapes never pack). Bit-identical to [`matmul_naive_to`].
pub fn matmul_to_with(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
    panel: &mut Vec<f32>,
) {
    assert_eq!(a.len(), m * k, "lhs matrix has wrong length");
    assert_eq!(b.len(), k * n, "rhs matrix has wrong length");
    assert_eq!(out.len(), m * n, "out matrix has wrong length");
    out.fill(0.0);
    if b.len() <= MM_PACK_THRESHOLD {
        // Cache-resident b: run the row-tiled micro-kernel over the whole
        // matrix as one panel (pc = 0, kb = k keeps the quad grouping — and
        // therefore the accumulation order — aligned with the reference).
        for i0 in (0..m).step_by(MM_ROW_TILE) {
            let mr = MM_ROW_TILE.min(m - i0);
            micro_kernel(a, k, 0, k, i0, mr, b, n, out, n, 0);
        }
        return;
    }
    for pc in (0..k).step_by(MM_BLOCK_K) {
        let kb = MM_BLOCK_K.min(k - pc);
        for jc in (0..n).step_by(MM_PANEL_COLS) {
            let nb = MM_PANEL_COLS.min(n - jc);
            let packed: &[f32] = if nb == n {
                // Whole-width panel: b's rows are already contiguous.
                &b[pc * n..(pc + kb) * n]
            } else {
                panel.clear();
                panel.reserve(kb * nb);
                for p in pc..pc + kb {
                    panel.extend_from_slice(&b[p * n + jc..p * n + jc + nb]);
                }
                panel
            };
            for i0 in (0..m).step_by(MM_ROW_TILE) {
                let mr = MM_ROW_TILE.min(m - i0);
                micro_kernel(a, k, pc, kb, i0, mr, packed, nb, out, n, jc);
            }
        }
    }
}

/// Width of the explicit micro-kernel accumulator tile: eight named f32
/// lanes, held in locals so the autovectorizer keeps them resident in two
/// 128-bit (or one 256-bit) registers across the quad's four multiply-adds.
const MM_LANES: usize = 8;

/// Accumulates `mr` output rows against one packed `kb × nb` panel of `b`.
/// Quads of four panel rows are walked in ascending order with the same
/// per-row all-four-zero skip as the reference kernel; each loaded quad is
/// applied to every row of the tile before the next quad is touched.
///
/// Output columns are processed [`MM_LANES`] at a time through explicit
/// register accumulators. Lanes are *independent output elements* — each
/// element's scalar chain is still `(((out + a0·b0) + a1·b1) + a2·b2) + a3·b3`
/// in ascending `p` order, exactly the reference kernel's order — so the
/// unrolling changes no result bit, only how many accumulators are in flight.
#[allow(clippy::too_many_arguments)]
fn micro_kernel(
    a: &[f32],
    k: usize,
    pc: usize,
    kb: usize,
    i0: usize,
    mr: usize,
    panel: &[f32],
    nb: usize,
    out: &mut [f32],
    n: usize,
    jc: usize,
) {
    let lanes_end = nb - nb % MM_LANES;
    let mut p = 0;
    while p + 4 <= kb {
        let b0 = &panel[p * nb..(p + 1) * nb];
        let b1 = &panel[(p + 1) * nb..(p + 2) * nb];
        let b2 = &panel[(p + 2) * nb..(p + 3) * nb];
        let b3 = &panel[(p + 3) * nb..(p + 4) * nb];
        for r in 0..mr {
            let a_row = &a[(i0 + r) * k + pc..(i0 + r) * k + pc + kb];
            let (a0, a1, a2, a3) = (a_row[p], a_row[p + 1], a_row[p + 2], a_row[p + 3]);
            if a0 == 0.0 && a1 == 0.0 && a2 == 0.0 && a3 == 0.0 {
                continue;
            }
            let base = (i0 + r) * n + jc;
            let out_row = &mut out[base..base + nb];
            let (out_lanes, out_tail) = out_row.split_at_mut(lanes_end);
            for (c, out8) in out_lanes.chunks_exact_mut(MM_LANES).enumerate() {
                let o0 = c * MM_LANES;
                let b0c = &b0[o0..o0 + MM_LANES];
                let b1c = &b1[o0..o0 + MM_LANES];
                let b2c = &b2[o0..o0 + MM_LANES];
                let b3c = &b3[o0..o0 + MM_LANES];
                let mut t = [0.0_f32; MM_LANES];
                t.copy_from_slice(out8);
                for l in 0..MM_LANES {
                    t[l] += a0 * b0c[l];
                }
                for l in 0..MM_LANES {
                    t[l] += a1 * b1c[l];
                }
                for l in 0..MM_LANES {
                    t[l] += a2 * b2c[l];
                }
                for l in 0..MM_LANES {
                    t[l] += a3 * b3c[l];
                }
                out8.copy_from_slice(&t);
            }
            for (o, slot) in (lanes_end..nb).zip(out_tail.iter_mut()) {
                let mut t = *slot;
                t += a0 * b0[o];
                t += a1 * b1[o];
                t += a2 * b2[o];
                t += a3 * b3[o];
                *slot = t;
            }
        }
        p += 4;
    }
    while p < kb {
        let b_row = &panel[p * nb..(p + 1) * nb];
        for r in 0..mr {
            let a_rp = a[(i0 + r) * k + pc + p];
            if a_rp == 0.0 {
                continue;
            }
            let base = (i0 + r) * n + jc;
            let out_row = &mut out[base..base + nb];
            let (out_lanes, out_tail) = out_row.split_at_mut(lanes_end);
            for (c, out8) in out_lanes.chunks_exact_mut(MM_LANES).enumerate() {
                let o0 = c * MM_LANES;
                let b_c = &b_row[o0..o0 + MM_LANES];
                let mut t = [0.0_f32; MM_LANES];
                t.copy_from_slice(out8);
                for l in 0..MM_LANES {
                    t[l] += a_rp * b_c[l];
                }
                out8.copy_from_slice(&t);
            }
            for (slot, &b_po) in out_tail.iter_mut().zip(b_row[lanes_end..].iter()) {
                *slot += a_rp * b_po;
            }
        }
        p += 1;
    }
}

/// Element-wise `dst[i] += src[i]` through the same 8-lane (`MM_LANES`)
/// explicit register accumulators as the micro-kernel — the "column-gather
/// add" of the event-driven paths: a spike contributes a whole weight row
/// unscaled, so the conv forward's per-tap gather and the backward's per-tap
/// weight-gradient accumulation are exactly this loop. Lanes are independent
/// elements, so the unrolling is bitwise-neutral.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn add_assign_lanes(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "add_assign_lanes length mismatch");
    let lanes_end = dst.len() - dst.len() % MM_LANES;
    let (dst_lanes, dst_tail) = dst.split_at_mut(lanes_end);
    for (c, d8) in dst_lanes.chunks_exact_mut(MM_LANES).enumerate() {
        let o0 = c * MM_LANES;
        let s8 = &src[o0..o0 + MM_LANES];
        let mut t = [0.0_f32; MM_LANES];
        t.copy_from_slice(d8);
        for l in 0..MM_LANES {
            t[l] += s8[l];
        }
        d8.copy_from_slice(&t);
    }
    for (d, &s) in dst_tail.iter_mut().zip(src[lanes_end..].iter()) {
        *d += s;
    }
}

/// Multiplies the transpose of an `[k, m]` row-major matrix by a `[k, n]`
/// row-major matrix, producing `[m, n]`. Used in backward passes to avoid
/// materialising explicit transposes.
pub fn matmul_at_b(a: &[f32], b: &[f32], k: usize, m: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0_f32; m * n];
    matmul_at_b_to(a, b, k, m, n, &mut out);
    out
}

/// Like [`matmul_at_b`] but writes into a caller-provided output slice of
/// length `m * n` (overwriting its contents), so the backward pass can reuse
/// one gradient buffer across timesteps. Bit-identical to [`matmul_at_b`].
pub fn matmul_at_b_to(a: &[f32], b: &[f32], k: usize, m: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), k * m, "lhs matrix has wrong length");
    assert_eq!(b.len(), k * n, "rhs matrix has wrong length");
    assert_eq!(out.len(), m * n, "out matrix has wrong length");
    out.fill(0.0);
    for p in 0..k {
        let a_row = &a[p * m..(p + 1) * m];
        let b_row = &b[p * n..(p + 1) * n];
        for (i, &a_pi) in a_row.iter().enumerate() {
            if a_pi == 0.0 {
                continue;
            }
            let out_row = &mut out[i * n..(i + 1) * n];
            for (o, &b_pn) in b_row.iter().enumerate() {
                out_row[o] += a_pi * b_pn;
            }
        }
    }
}

/// Multiplies an `[m, k]` row-major matrix by the transpose of an `[n, k]`
/// row-major matrix, producing `[m, n]`. This is the weight-gradient matmul
/// of the convolution backward pass (`grad_w = grad_out · colsᵀ`), a per-step
/// hot spot of BPTT training.
///
/// `b` is transposed once into a `[k, n]` layout and the product delegated to
/// the blocked [`matmul_to`] kernel, so the inner loops run contiguously in
/// the output direction and vectorise — the naive formulation is a sequential
/// scalar dot product per output cell, which strict (non-reassociating) f32
/// semantics cannot vectorise. Per output cell the contributions still
/// accumulate one scalar at a time in ascending-`p` order; as long as every
/// input is finite (true for the training path, whose inputs are
/// finiteness-validated by the LIF layers), the result is bitwise identical
/// to the dot-product formulation — enforced by the
/// `matmul_a_bt_bitwise_equals_dot_product_reference` proptest. The two can
/// diverge only on non-finite data, where the blocked kernel's zero-skip
/// drops `0.0 × ∞`/`0.0 × NaN` terms the dot product would keep.
pub fn matmul_a_bt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0_f32; m * n];
    let mut bt = Vec::new();
    let mut panel = Vec::new();
    matmul_a_bt_to_with(a, b, m, k, n, &mut out, &mut bt, &mut panel);
    out
}

/// The allocation-controlled entry point behind [`matmul_a_bt`]: `bt` is the
/// scratch the `[k, n]` repack of `b` lands in and `panel` the blocked
/// kernel's packing scratch, both reused across calls by the backward hot
/// path. Bit-identical to [`matmul_a_bt`].
#[allow(clippy::too_many_arguments)]
pub fn matmul_a_bt_to_with(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
    bt: &mut Vec<f32>,
    panel: &mut Vec<f32>,
) {
    assert_eq!(a.len(), m * k, "lhs matrix has wrong length");
    assert_eq!(b.len(), n * k, "rhs matrix has wrong length");
    bt.clear();
    bt.resize(k * n, 0.0);
    for (o, b_row) in b.chunks_exact(k).enumerate() {
        for (p, &v) in b_row.iter().enumerate() {
            bt[p * n + o] = v;
        }
    }
    matmul_to_with(a, bt, m, k, n, out, panel);
}

/// Fused transposed-weight matmul + col2im scatter over the **active**
/// columns only — the input-gradient kernel of the event-aware convolution
/// backward pass.
///
/// Computes `grad_input = col2im(Wᵀ · grad_out)` without materialising the
/// `[rows, n]` gradient-column matrix: `wt` is the pre-transposed `[rows, k]`
/// filter bank (`rows = channels · kh · kw`, `k` output channels — the
/// layout `Conv2d::transposed_weight` caches), `b` the `[k, n]` output
/// gradient (`n = out_h · out_w`), and `active` the ascending indices of the
/// columns of `b` that contain at least one non-zero — the caller detects
/// them from the gradient frame and every skipped column must be entirely
/// `±0.0`. The active columns are packed once into a contiguous panel, the
/// product is computed four rows at a time with the same micro-kernel as
/// [`matmul_to_with`] (each loaded panel-row quad is reused across four
/// weight rows), and each finished row is scattered row-wise into the
/// `[channels, height, width]` input-gradient plane: its active values are
/// expanded into a full `[out_h, out_w]` row buffer (masked columns read
/// `+0.0`), the valid output rows and columns of its `(ky, kx)` offset are
/// computed once, and each output row lands as one slice add — contiguous
/// at stride 1, strided otherwise — with no per-element bounds test.
///
/// **Bitwise identical** to [`matmul_at_b_to`] (over the un-transposed
/// weights) followed by [`Tensor::col2im_into`] on finite inputs, enforced
/// by proptest:
///
/// * per gradient-column cell the contributions accumulate one scalar at a
///   time in ascending output-channel order — the reference matmul's exact
///   order; dropping the products of an all-zero column removes only `±0.0`
///   terms, which cannot change an IEEE-754 sum accumulated from `+0.0`
///   in round-to-nearest (the two kernels' zero-*skip* decisions differ,
///   which matters only for non-finite data, exactly like [`matmul_a_bt`]);
/// * the scatter visits `(channel, ky, kx, oy, ox)` in ascending order —
///   col2im's exact accumulation order — and a masked column adds `+0.0`
///   into an accumulator that is never `-0.0`, which leaves it unchanged.
///
/// `packed`, `row` and `tile` are caller-owned scratch buffers (the backward
/// pass threads them through its `GradScratch`), so the kernel allocates
/// nothing once they are warm. `out` is fully overwritten.
///
/// # Panics
///
/// Panics if the slice lengths are inconsistent with the geometry, or (in
/// debug builds) if `active` is not strictly ascending and in range.
#[allow(clippy::too_many_arguments)]
pub fn matmul_scatter_col2im(
    wt: &[f32],
    b: &[f32],
    active: &[u32],
    k: usize,
    n: usize,
    channels: usize,
    height: usize,
    width: usize,
    kernel: (usize, usize),
    stride: usize,
    padding: usize,
    out_w: usize,
    packed: &mut Vec<f32>,
    row: &mut Vec<f32>,
    tile: &mut Vec<f32>,
    out: &mut [f32],
) {
    let (kh, kw) = kernel;
    let rows = channels * kh * kw;
    assert_eq!(
        wt.len(),
        rows * k,
        "transposed filter bank has wrong length"
    );
    assert_eq!(b.len(), k * n, "rhs matrix has wrong length");
    assert_eq!(out.len(), channels * height * width, "out has wrong length");
    debug_assert!(
        active.windows(2).all(|w| w[0] < w[1]) && active.last().is_none_or(|&s| (s as usize) < n),
        "active columns must be strictly ascending and in range"
    );
    out.fill(0.0);
    let na = active.len();
    if na == 0 {
        return; // every column is zero: the gradient plane stays +0.0
    }
    // Pack the active columns of `b` into a contiguous [k, na] panel; when
    // every column is active, `b` already is that panel.
    let panel: &[f32] = if na == n {
        b
    } else {
        packed.clear();
        packed.reserve(k * na);
        for b_row in b.chunks_exact(n) {
            packed.extend(active.iter().map(|&s| b_row[s as usize]));
        }
        packed
    };
    // The full-width row buffer: only active cells are ever written, so the
    // masked ones stay +0.0 for every row.
    row.clear();
    row.resize(n, 0.0);
    let out_h = n / out_w;
    // Output indices `o` of one axis whose input index `o · stride + kidx −
    // padding` lies in `0..size`, as a half-open range.
    let span = |kidx: usize, size: usize, n_out: usize| {
        let lo = padding.saturating_sub(kidx).div_ceil(stride);
        let hi = (size + padding).saturating_sub(kidx).div_ceil(stride);
        (lo, hi.min(n_out))
    };
    tile.clear();
    tile.resize(MM_ROW_TILE * na, 0.0);
    for r0 in (0..rows).step_by(MM_ROW_TILE) {
        let mr = MM_ROW_TILE.min(rows - r0);
        let t = &mut tile[..mr * na];
        t.fill(0.0);
        micro_kernel(
            &wt[r0 * k..(r0 + mr) * k],
            k,
            0,
            k,
            0,
            mr,
            panel,
            na,
            t,
            na,
            0,
        );
        // Scatter the finished rows in ascending row order, each over its
        // output cells in ascending order — col2im's accumulation order.
        for (r, vals) in t.chunks_exact(na).enumerate() {
            let (ci, rem) = ((r0 + r) / (kh * kw), (r0 + r) % (kh * kw));
            let (ki, kj) = (rem / kw, rem % kw);
            let (oy0, oy1) = span(ki, height, out_h);
            let (ox0, ox1) = span(kj, width, out_w);
            if oy0 >= oy1 || ox0 >= ox1 {
                continue;
            }
            let full: &[f32] = if na == n {
                vals
            } else {
                for (&s, &v) in active.iter().zip(vals) {
                    row[s as usize] = v;
                }
                row
            };
            let chan = &mut out[ci * height * width..(ci + 1) * height * width];
            let ix0 = ox0 * stride + kj - padding;
            for oy in oy0..oy1 {
                let iy = oy * stride + ki - padding;
                let src = &full[oy * out_w + ox0..oy * out_w + ox1];
                let dst = &mut chan[iy * width + ix0..];
                if stride == 1 {
                    for (d, &v) in dst.iter_mut().zip(src) {
                        *d += v;
                    }
                } else {
                    for (d, &v) in dst.iter_mut().step_by(stride).zip(src) {
                        *d += v;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeros_and_ones_have_expected_contents() {
        let z = Tensor::zeros(&[2, 3]);
        assert_eq!(z.len(), 6);
        assert_eq!(z.sum(), 0.0);
        let o = Tensor::ones(&[2, 3]);
        assert_eq!(o.sum(), 6.0);
    }

    #[test]
    fn from_vec_rejects_wrong_length() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[3]).is_err());
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros(&[2, 2, 2]);
        t.set(&[1, 0, 1], 7.5).unwrap();
        assert_eq!(t.get(&[1, 0, 1]).unwrap(), 7.5);
        assert_eq!(t.get(&[0, 0, 0]).unwrap(), 0.0);
    }

    #[test]
    fn get_rejects_out_of_bounds() {
        let t = Tensor::zeros(&[2, 2]);
        assert!(t.get(&[2, 0]).is_err());
        assert!(t.get(&[0]).is_err());
    }

    #[test]
    fn strides_are_row_major() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.strides(), vec![12, 4, 1]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        let r = t.reshape(&[3, 2]).unwrap();
        assert_eq!(r.as_slice(), t.as_slice());
        assert!(t.reshape(&[4]).is_err());
    }

    #[test]
    fn sparsity_counts_zeros() {
        let t = Tensor::from_vec(vec![0.0, 1.0, 0.0, 2.0], &[4]).unwrap();
        assert_eq!(t.count_nonzero(), 2);
        assert!((t.sparsity() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn argmax_finds_first_maximum() {
        let t = Tensor::from_vec(vec![1.0, 5.0, 5.0, 2.0], &[4]).unwrap();
        assert_eq!(t.argmax(), 1);
    }

    #[test]
    fn matmul_matches_manual_result() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b = vec![5.0, 6.0, 7.0, 8.0];
        let c = matmul(&a, &b, 2, 2, 2);
        assert_eq!(c, vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_to_matches_matmul_and_reuses_buffer() {
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b = vec![5.0, 6.0, 7.0, 8.0];
        let mut out = vec![f32::NAN; 4];
        matmul_to(&a, &b, 2, 2, 2, &mut out);
        assert_eq!(out, matmul(&a, &b, 2, 2, 2));
        // A second call fully overwrites stale contents.
        matmul_to(&b, &a, 2, 2, 2, &mut out);
        assert_eq!(out, matmul(&b, &a, 2, 2, 2));
    }

    /// Deterministic pseudo-random matrix whose entries include exact zeros,
    /// so the kernels' zero-skip paths are exercised.
    fn test_matrix(rows: usize, cols: usize, seed: usize) -> Vec<f32> {
        (0..rows * cols)
            .map(|i| {
                let h = (i + seed).wrapping_mul(2_654_435_761) % 1000;
                if h < 250 {
                    0.0
                } else {
                    (h as f32 - 500.0) * 1e-3
                }
            })
            .collect()
    }

    fn assert_bitwise_eq(blocked: &[f32], naive: &[f32], ctx: &str) {
        assert_eq!(blocked.len(), naive.len(), "{ctx}: length");
        for (i, (x, y)) in blocked.iter().zip(naive.iter()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{ctx}: cell {i} diverges: blocked {x} vs naive {y}"
            );
        }
    }

    #[test]
    fn blocked_matmul_crosses_panel_and_k_block_boundaries() {
        // Shapes straddling MM_PANEL_COLS (128), MM_BLOCK_K (256) and the
        // 4-row tile, including exact multiples and off-by-one sizes.
        for &(m, k, n) in &[
            (5, 517, 260),
            (4, 256, 128),
            (3, 257, 129),
            (9, 255, 127),
            (1, 300, 131),
            (6, 260, 256),
        ] {
            let a = test_matrix(m, k, 1);
            let b = test_matrix(k, n, 2);
            let mut blocked = vec![f32::NAN; m * n];
            let mut naive = vec![f32::NAN; m * n];
            let mut panel = Vec::new();
            matmul_to_with(&a, &b, m, k, n, &mut blocked, &mut panel);
            matmul_naive_to(&a, &b, m, k, n, &mut naive);
            assert_bitwise_eq(&blocked, &naive, &format!("{m}x{k}x{n}"));
        }
    }

    #[test]
    fn blocked_matmul_reuses_panel_scratch_across_shapes() {
        let mut panel = Vec::new();
        for &(m, k, n) in &[(7, 40, 300), (2, 600, 140), (3, 3, 3)] {
            let a = test_matrix(m, k, 3);
            let b = test_matrix(k, n, 4);
            let mut blocked = vec![0.0; m * n];
            let mut naive = vec![0.0; m * n];
            matmul_to_with(&a, &b, m, k, n, &mut blocked, &mut panel);
            matmul_naive_to(&a, &b, m, k, n, &mut naive);
            assert_bitwise_eq(&blocked, &naive, &format!("reused panel {m}x{k}x{n}"));
        }
    }

    proptest! {
        /// The repacked [`matmul_a_bt`] is bitwise-equal to the dot-product
        /// formulation it replaced (inlined here as the reference) on finite
        /// inputs with exact zeros — the doc's guarantee, kept enforceable.
        #[test]
        fn matmul_a_bt_bitwise_equals_dot_product_reference(
            m in 1_usize..24,
            k in 1_usize..40,
            n in 1_usize..24,
            seed in 0_usize..1000,
        ) {
            let a = test_matrix(m, k, seed);
            let b = test_matrix(n, k, seed + 29);
            let repacked = matmul_a_bt(&a, &b, m, k, n);
            for i in 0..m {
                let a_row = &a[i * k..(i + 1) * k];
                for o in 0..n {
                    let b_row = &b[o * k..(o + 1) * k];
                    let mut acc = 0.0_f32;
                    for p in 0..k {
                        acc += a_row[p] * b_row[p];
                    }
                    prop_assert_eq!(repacked[i * n + o].to_bits(), acc.to_bits());
                }
            }
        }

        /// The cache-blocked production kernel is bitwise-equal to the naive
        /// reference kernel across ragged shapes (including the 4-wide quad
        /// tail in every residue class) and inputs with exact zeros.
        #[test]
        fn blocked_matmul_bitwise_equals_naive(
            m in 1_usize..40,
            k in 1_usize..40,
            n in 1_usize..40,
            seed in 0_usize..1000,
            zeros in proptest::collection::vec(any::<bool>(), 64),
        ) {
            let mut a = test_matrix(m, k, seed);
            // Plant extra zero runs so whole quads get skipped.
            for (i, v) in a.iter_mut().enumerate() {
                if zeros[i % zeros.len()] {
                    *v = 0.0;
                }
            }
            let b = test_matrix(k, n, seed + 17);
            let mut blocked = vec![f32::NAN; m * n];
            let mut naive = vec![f32::NAN; m * n];
            matmul_to(&a, &b, m, k, n, &mut blocked);
            matmul_naive_to(&a, &b, m, k, n, &mut naive);
            for (x, y) in blocked.iter().zip(naive.iter()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn reset_to_reshapes_and_refills() {
        let mut t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        t.reset_to(&[3], 0.5);
        assert_eq!(t.shape(), &[3]);
        assert_eq!(t.as_slice(), &[0.5; 3]);
        t.reset_to(&[2, 3], 0.0);
        assert_eq!(t.len(), 6);
        assert_eq!(t.sum(), 0.0);
    }

    #[test]
    fn matmul_at_b_matches_explicit_transpose() {
        // A is [k=3, m=2], B is [k=3, n=2].
        let a = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0];
        // A^T = [1 3 5; 2 4 6]; A^T * B = [1*7+3*9+5*11, ...]
        let c = matmul_at_b(&a, &b, 3, 2, 2);
        assert_eq!(c, vec![89.0, 98.0, 116.0, 128.0]);
    }

    #[test]
    fn matmul_a_bt_matches_explicit_transpose() {
        // A is [m=2, k=3], B is [n=2, k=3].
        let a = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0];
        let c = matmul_a_bt(&a, &b, 2, 3, 2);
        assert_eq!(c, vec![50.0, 68.0, 122.0, 167.0]);
    }

    #[test]
    fn into_variants_match_allocating_kernels_across_reused_buffers() {
        // One shared set of scratch/output buffers driven through differently
        // sized products must reproduce the allocating entry points exactly.
        let mut bt = Vec::new();
        let mut panel = Vec::new();
        for &(m, k, n, seed) in &[
            (3_usize, 5_usize, 4_usize, 0_usize),
            (6, 2, 7, 9),
            (1, 9, 1, 3),
        ] {
            let a = test_matrix(m, k, seed);
            let b_kn = test_matrix(k, n, seed + 1);
            let b_nk = test_matrix(n, k, seed + 2);
            let a_km = test_matrix(k, m, seed + 3);

            let mut out = vec![f32::NAN; m * n];
            matmul_a_bt_to_with(&a, &b_nk, m, k, n, &mut out, &mut bt, &mut panel);
            assert_bitwise_eq(&out, &matmul_a_bt(&a, &b_nk, m, k, n), "a_bt");

            let mut out = vec![f32::NAN; m * n];
            matmul_at_b_to(&a_km, &b_kn, k, m, n, &mut out);
            assert_bitwise_eq(&out, &matmul_at_b(&a_km, &b_kn, k, m, n), "at_b");
        }
    }

    #[test]
    fn col2im_into_reuses_buffer_and_matches_col2im() {
        let t = Tensor::from_fn(&[2, 5, 4], |i| (i as f32) * 0.3 - 2.0);
        let mut out = Tensor::from_vec(vec![f32::NAN; 3], &[3]).unwrap();
        for &(stride, padding) in &[(1_usize, 1_usize), (2, 0)] {
            let cols = t.im2col((3, 3), stride, padding).unwrap();
            Tensor::col2im_into(&cols, 2, 5, 4, (3, 3), stride, padding, &mut out).unwrap();
            let fresh = Tensor::col2im(&cols, 2, 5, 4, (3, 3), stride, padding).unwrap();
            assert_eq!(out, fresh);
        }
    }

    #[test]
    fn im2col_identity_kernel_reproduces_input() {
        let t = Tensor::from_vec((0..9).map(|x| x as f32).collect(), &[1, 3, 3]).unwrap();
        let cols = t.im2col((1, 1), 1, 0).unwrap();
        assert_eq!(cols.rows, 1);
        assert_eq!(cols.cols, 9);
        assert_eq!(cols.data, t.as_slice());
    }

    #[test]
    fn im2col_3x3_same_padding_geometry() {
        let t = Tensor::ones(&[3, 32, 32]);
        let cols = t.im2col((3, 3), 1, 1).unwrap();
        assert_eq!(cols.rows, 3 * 9);
        assert_eq!(cols.out_h, 32);
        assert_eq!(cols.out_w, 32);
    }

    #[test]
    fn im2col_rejects_non_3d() {
        let t = Tensor::zeros(&[4, 4]);
        assert!(t.im2col((3, 3), 1, 1).is_err());
    }

    proptest! {
        /// The stride-1 row-run col2im fast path accumulates bitwise
        /// identically to the bounds-checked reference scatter (inlined
        /// here), across paddings, kernel sizes and ragged maps.
        #[test]
        fn col2im_stride1_fast_path_bitwise_equals_reference(
            h in 3_usize..8,
            w in 3_usize..8,
            k in 1_usize..4,
            padding in 0_usize..2,
            seed in 0_usize..1000,
        ) {
            let channels = 2;
            let (_, _, _, out_h, out_w) =
                im2col_geometry(&[channels, h, w], (k, k), 1, padding).unwrap();
            let cols = Im2Col {
                data: test_matrix(channels * k * k, out_h * out_w, seed),
                rows: channels * k * k,
                cols: out_h * out_w,
                out_h,
                out_w,
            };
            let mut fast = Tensor::default();
            Tensor::col2im_into(&cols, channels, h, w, (k, k), 1, padding, &mut fast).unwrap();
            // Reference: the general bounds-checked scatter.
            let mut reference = Tensor::zeros(&[channels, h, w]);
            for ci in 0..channels {
                for ki in 0..k {
                    for kj in 0..k {
                        let row_base = (ci * k * k + ki * k + kj) * cols.cols;
                        for oy in 0..out_h {
                            let iy = (oy + ki) as isize - padding as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for ox in 0..out_w {
                                let ix = (ox + kj) as isize - padding as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let idx = ci * h * w + iy as usize * w + ix as usize;
                                reference.data[idx] += cols.data[row_base + oy * out_w + ox];
                            }
                        }
                    }
                }
            }
            prop_assert_eq!(fast.shape(), reference.shape());
            for (x, y) in fast.as_slice().iter().zip(reference.as_slice().iter()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    proptest! {
        /// The fused matmul + col2im scatter is bitwise identical to the
        /// unfused reference (`matmul_at_b_to` over the un-transposed weights
        /// followed by `col2im_into`) across ragged geometries, strides,
        /// paddings and gradient matrices whose inactive columns hold planted
        /// exact `±0.0` — with the scratch buffers reused across cases.
        #[test]
        fn matmul_scatter_col2im_bitwise_equals_unfused_reference(
            h in 3_usize..8,
            w in 3_usize..8,
            kk in 1_usize..4,
            stride in 1_usize..3,
            padding in 0_usize..2,
            oc in 1_usize..6,
            seed in 0_usize..1000,
            keep in proptest::collection::vec(any::<bool>(), 64),
            negzero in any::<bool>(),
        ) {
            let channels = 2;
            let (_, _, _, out_h, out_w) =
                im2col_geometry(&[channels, h, w], (kk, kk), stride, padding).unwrap();
            let n = out_h * out_w;
            let rows = channels * kk * kk;
            // Weights [oc, rows] with exact zeros, and their transpose.
            let weight = test_matrix(oc, rows, seed);
            let mut wt = vec![0.0_f32; rows * oc];
            for (o, w_row) in weight.chunks_exact(rows).enumerate() {
                for (p, &v) in w_row.iter().enumerate() {
                    wt[p * oc + o] = v;
                }
            }
            // Gradient [oc, n]: inactive columns are forced to exact ±0.0.
            let mut go = test_matrix(oc, n, seed + 3);
            let active: Vec<u32> = (0..n).filter(|s| keep[s % keep.len()]).map(|s| s as u32).collect();
            for (s, row_s) in (0..n).flat_map(|s| (0..oc).map(move |o| (s, o * n + s))) {
                if !keep[s % keep.len()] {
                    go[row_s] = if negzero { -0.0 } else { 0.0 };
                }
            }
            // Unfused reference: full matmul + col2im over every column.
            let mut grad_cols = Im2Col {
                data: vec![0.0; rows * n],
                rows,
                cols: n,
                out_h,
                out_w,
            };
            matmul_at_b_to(&weight, &go, oc, rows, n, &mut grad_cols.data);
            let mut reference = Tensor::default();
            Tensor::col2im_into(
                &grad_cols, channels, h, w, (kk, kk), stride, padding, &mut reference,
            ).unwrap();
            // Fused kernel over the active columns only.
            let mut packed = Vec::new();
            let mut pos = Vec::new();
            let mut tile = Vec::new();
            let mut fused = vec![f32::NAN; channels * h * w];
            matmul_scatter_col2im(
                &wt, &go, &active, oc, n, channels, h, w, (kk, kk), stride, padding,
                out_w, &mut packed, &mut pos, &mut tile, &mut fused,
            );
            for (i, (x, y)) in fused.iter().zip(reference.as_slice().iter()).enumerate() {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "cell {} diverges: {} vs {}", i, x, y);
            }
            // A fully-active column list goes down the no-pack fast path and
            // must agree too (the planted zero columns are then computed,
            // not skipped).
            let all: Vec<u32> = (0..n as u32).collect();
            let mut dense = vec![f32::NAN; channels * h * w];
            matmul_scatter_col2im(
                &wt, &go, &all, oc, n, channels, h, w, (kk, kk), stride, padding,
                out_w, &mut packed, &mut pos, &mut tile, &mut dense,
            );
            for (x, y) in dense.iter().zip(reference.as_slice().iter()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn matmul_scatter_col2im_empty_active_zeroes_output() {
        let wt = vec![1.0_f32; 4 * 2]; // channels=1, 2x2 kernel, oc=2
        let go = vec![0.0_f32; 2 * 4]; // 2x2 output map
        let mut packed = Vec::new();
        let mut pos = Vec::new();
        let mut tile = Vec::new();
        let mut out = vec![f32::NAN; 9]; // 1x3x3 input
        matmul_scatter_col2im(
            &wt,
            &go,
            &[],
            2,
            4,
            1,
            3,
            3,
            (2, 2),
            1,
            0,
            2,
            &mut packed,
            &mut pos,
            &mut tile,
            &mut out,
        );
        assert!(out.iter().all(|v| v.to_bits() == 0.0_f32.to_bits()));
    }

    #[test]
    fn col2im_is_adjoint_of_im2col_for_counting() {
        // col2im(im2col(x)) with an all-ones input counts how many receptive
        // fields each pixel participates in.
        let t = Tensor::ones(&[1, 4, 4]);
        let cols = t.im2col((3, 3), 1, 1).unwrap();
        let back = Tensor::col2im(&cols, 1, 4, 4, (3, 3), 1, 1).unwrap();
        // The centre pixels participate in 9 receptive fields.
        assert_eq!(back.get(&[0, 1, 1]).unwrap(), 9.0);
        // Corner pixels participate in 4.
        assert_eq!(back.get(&[0, 0, 0]).unwrap(), 4.0);
    }

    #[test]
    fn add_and_sub_operators() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        assert_eq!((&a + &b).as_slice(), &[4.0, 6.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 2.0]);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c.as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn display_is_nonempty() {
        let t = Tensor::zeros(&[2, 2]);
        assert!(!format!("{t}").is_empty());
    }
}
