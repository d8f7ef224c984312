//! Bit-packed spike planes and per-run spike counts.
//!
//! The accelerator moves spikes between layers as bit-packed binary frames,
//! stored in on-chip BRAM in *timestep-major* order (paper, Sec. IV-A and
//! Fig. 2). The simulator keeps one packed format for them:
//!
//! * [`SpikePlane`] — one layer input frame at one timestep, as the simulator
//!   runs it: a dense backing plus `u64` mask words, one bit per neuron,
//!   which the event-driven kernels word-scan and the run loop popcounts.
//! * [`SpikeRecord`] — per-layer spike counts collected during a network run,
//!   which feed the workload model (Eq. 3) and the sparsity experiments.

use crate::error::SnnError;
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// One sparse activation frame: the event-driven representation of a layer
/// input at a single timestep.
///
/// A `SpikePlane` pairs a dense tensor backing with **one** sparse view of
/// its non-zero set: `u64` **mask words** ([`SpikePlane::as_words`]), 64
/// cells per word, LSB-first within a word — exactly the compressed binary
/// activation stream the paper's hardware moves between layers. Every
/// producer (the encoders, the LIF populations, spike pooling) writes the
/// dense cell and its mask bit together. The word-scan kernels iterate the
/// words (trailing-zeros per word), and `count_active()`/`density()`
/// popcount them.
///
/// A word scan ([`SpikePlane::iter_active`]) visits the set bits in
/// ascending index order whatever order a producer set them in, so every
/// consumer accumulates f32 values in the dense kernels' order — which is
/// what keeps the event paths bitwise-equal to the dense reference:
///
/// * the event-driven [`crate::layers::Conv2d::forward_spikes`] /
///   [`crate::layers::Linear::forward_spikes`] gather weight columns for the
///   active indices only, and
/// * the run loop reads `count_active()` instead of a full
///   `count_nonzero` pass per layer per timestep.
///
/// `binary` records whether every element is exactly 0.0 or 1.0. Direct-coded
/// input frames are analog (`binary == false`) and must take the dense path;
/// every LIF output is binary by construction. The words mark *non-zero*
/// elements, so they are maintained for analog planes too.
///
/// # Example
///
/// ```
/// use snn_core::spike::SpikePlane;
/// use snn_core::tensor::Tensor;
///
/// let t = Tensor::from_vec(vec![0.0, 1.0, 0.0, 1.0], &[2, 2]).unwrap();
/// let plane = SpikePlane::from_tensor(&t);
/// assert!(plane.is_binary());
/// assert_eq!(plane.iter_active().collect::<Vec<_>>(), vec![1, 3]);
/// assert_eq!(plane.as_words(), &[0b1010]);
/// assert_eq!(plane.density(), 0.5);
/// ```
#[derive(Debug, Default, PartialEq)]
pub struct SpikePlane {
    dense: Tensor,
    words: Vec<u64>,
    binary: bool,
}

impl Clone for SpikePlane {
    fn clone(&self) -> Self {
        SpikePlane {
            dense: self.dense.clone(),
            words: self.words.clone(),
            binary: self.binary,
        }
    }

    // The derived `clone_from` would reallocate; the encoders rely on this
    // one reusing the destination's buffers when replaying direct-coded
    // frames across timesteps.
    fn clone_from(&mut self, source: &Self) {
        self.dense.copy_from(&source.dense);
        self.words.clone_from(&source.words);
        self.binary = source.binary;
    }
}

impl SpikePlane {
    /// Creates an empty plane; populate it with [`SpikePlane::assign`] or
    /// [`SpikePlane::begin`] + [`SpikePlane::push`].
    pub fn new() -> Self {
        SpikePlane {
            dense: Tensor::zeros(&[0]),
            words: Vec::new(),
            binary: true,
        }
    }

    /// Builds a plane from a dense tensor, scanning it once for the mask
    /// words and the binary flag.
    pub fn from_tensor(tensor: &Tensor) -> Self {
        let mut plane = SpikePlane::new();
        plane.assign(tensor);
        plane
    }

    /// Rebuilds this plane from a dense tensor, reusing the existing
    /// allocations. One scan recovers the mask words and whether the values
    /// are all binary (0.0/1.0).
    pub fn assign(&mut self, tensor: &Tensor) {
        self.dense.copy_from(tensor);
        self.words.clear();
        self.words.resize(tensor.len().div_ceil(64), 0);
        self.binary = true;
        for (i, &v) in tensor.as_slice().iter().enumerate() {
            if v != 0.0 {
                self.words[i / 64] |= 1u64 << (i % 64);
                if v != 1.0 {
                    self.binary = false;
                }
            }
        }
    }

    /// Resets the plane to an all-silent binary frame of `shape`, keeping
    /// allocations. Producers then emit spikes via [`SpikePlane::push`] (the
    /// LIF populations a whole mask word at a time), in any order.
    ///
    /// All mask words are zeroed — in particular the out-of-range bits of the
    /// final partial word when `len % 64 != 0`, so a plane reused across
    /// shapes can never leak stale bits `>= len` into the tail word.
    pub fn begin(&mut self, shape: &[usize]) {
        self.dense.reset_to(shape, 0.0);
        self.words.clear();
        self.words.resize(self.dense.len().div_ceil(64), 0);
        self.binary = true;
    }

    /// Emits a spike at flat index `idx`: sets the dense cell to 1.0 and its
    /// mask bit. Idempotent and order-free — the word scan reads the bits
    /// back in ascending order whatever order they were set in.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range, so a bit `>= len` can never be set.
    pub fn push(&mut self, idx: usize) {
        // Checked in release builds too: a ragged tail word has room for
        // bits `>= len`, which the word scan would report as spikes.
        if idx >= self.dense.len() {
            push_out_of_range(idx);
        }
        self.dense.as_mut_slice()[idx] = 1.0;
        self.words[idx / 64] |= 1u64 << (idx % 64);
    }

    /// Emits the spikes of one 64-cell group at once: ORs `bits` into mask
    /// word `word` and sets the dense cell of every set bit to 1.0 — the
    /// word-level [`SpikePlane::push`], for producers that decide a whole
    /// word of spikes branch-free. Idempotent and order-free like `push`.
    ///
    /// # Panics
    ///
    /// Panics if any set bit is at or past `len`, so a ragged tail word can
    /// never carry a bit the word scan would report as a spike.
    pub(crate) fn push_word(&mut self, word: usize, bits: u64) {
        let start = word * 64;
        let room = self.dense.len().saturating_sub(start);
        // Checked in release builds too, through the same cold panic as
        // `push`, so the common case stays one compare.
        if room < 64 && bits >> room != 0 {
            push_out_of_range(start + (63 - bits.leading_zeros() as usize));
        }
        self.words[word] |= bits;
        let cells = &mut self.dense.as_mut_slice()[start..start + room.min(64)];
        for_each_bit(bits, |b| cells[b] = 1.0);
    }

    /// The dense tensor backing.
    pub fn dense(&self) -> &Tensor {
        &self.dense
    }

    /// The `u64` mask words marking the non-zero elements: 64 cells per word,
    /// LSB-first within a word (bit `i % 64` of word `i / 64` is element
    /// `i`). Bits above `len()` in the last word are guaranteed to be zero.
    ///
    /// # Example
    ///
    /// ```
    /// use snn_core::spike::SpikePlane;
    /// use snn_core::tensor::Tensor;
    ///
    /// let t = Tensor::from_fn(&[1, 10, 10], |i| if i == 2 || i == 64 { 1.0 } else { 0.0 });
    /// let plane = SpikePlane::from_tensor(&t);
    /// assert_eq!(plane.as_words(), &[1 << 2, 1 << 0]);
    /// ```
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Ascending word-scan iterator over the active flat indices, driven by
    /// trailing-zeros over the mask words. LSB-first bit order within each
    /// word is ascending index order, so word-scan consumers accumulate f32
    /// values in the dense kernels' order, whatever order the producer set
    /// the bits in.
    ///
    /// # Example
    ///
    /// ```
    /// use snn_core::spike::SpikePlane;
    /// use snn_core::tensor::Tensor;
    ///
    /// let t = Tensor::from_fn(&[1, 9, 9], |i| [3, 63, 64, 80].contains(&i) as usize as f32);
    /// let plane = SpikePlane::from_tensor(&t);
    /// assert_eq!(plane.iter_active().collect::<Vec<_>>(), vec![3, 63, 64, 80]);
    /// ```
    pub fn iter_active(&self) -> WordScan<'_> {
        scan_words(&self.words)
    }

    /// Whether every element is exactly 0.0 or 1.0 (a true spike frame).
    pub fn is_binary(&self) -> bool {
        self.binary
    }

    /// Number of active (non-zero) elements — a popcount over the mask words.
    pub fn count_active(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Shape of the dense backing.
    pub fn shape(&self) -> &[usize] {
        self.dense.shape()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.dense.len()
    }

    /// Whether the plane holds no elements.
    pub fn is_empty(&self) -> bool {
        self.dense.is_empty()
    }

    /// Fraction of elements that are active (popcount over the mask words);
    /// 0.0 for an empty plane.
    pub fn density(&self) -> f64 {
        if self.dense.is_empty() {
            0.0
        } else {
            self.count_active() as f64 / self.dense.len() as f64
        }
    }

    /// Event-driven im2col lowering of a **binary** `[C, H, W]` spike plane:
    /// instead of scanning the (mostly zero) dense backing, zero-fills the
    /// column matrix and scatters a `1.0` for every `(spike, kernel tap)`
    /// pair, found by the tap walk of the event-driven conv kernels
    /// ([`crate::layers::Conv2d::for_each_tap`]). The result is the
    /// **identical matrix** [`Tensor::im2col_into`] produces for the dense
    /// backing — spikes are exactly the 1.0 entries —
    /// at `O(active · k²)` cost instead of `O(C · k² · out_h · out_w)` copy
    /// traffic, which is what makes the BPTT weight-gradient lowering
    /// event-aware.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] for an analog plane (use the dense
    /// lowering), plus the shape/geometry errors of [`Tensor::im2col`].
    pub fn im2col_into(
        &self,
        kernel: (usize, usize),
        stride: usize,
        padding: usize,
        out: &mut crate::tensor::Im2Col,
    ) -> Result<(), SnnError> {
        if !self.binary {
            return Err(SnnError::config(
                "input",
                "SpikePlane::im2col_into requires a binary spike plane",
            ));
        }
        let (_, _, _, out_h, out_w) =
            crate::tensor::im2col_geometry(self.shape(), kernel, stride, padding)?;
        let (kh, kw) = kernel;
        let rows = self.shape()[0] * kh * kw;
        let cols = out_h * out_w;
        out.data.clear();
        out.data.resize(rows * cols, 0.0);
        out.rows = rows;
        out.cols = cols;
        out.out_h = out_h;
        out.out_w = out_w;
        self.for_each_tap(kernel, stride, padding, (out_h, out_w), |p, cell| {
            out.data[p * cols + cell] = 1.0;
        });
        Ok(())
    }

    /// The tap walk behind [`crate::layers::Conv2d::for_each_tap`] (which
    /// states its order), for any kernel shape: calls `tap(p, cell)` with
    /// `p = (c · kh + ky) · kw + kx` and `cell = oy · out_w + ox` for every
    /// spike at `(c, y, x)` and kernel tap `(ky, kx)` that lands in the
    /// `out_h × out_w` output map. The caller has validated the geometry.
    pub(crate) fn for_each_tap(
        &self,
        (kh, kw): (usize, usize),
        stride: usize,
        padding: usize,
        (out_h, out_w): (usize, usize),
        mut tap: impl FnMut(usize, usize),
    ) {
        let (h, w) = (self.shape()[1], self.shape()[2]);
        // Along one axis, input coordinate `i` reaches output `o` through
        // kernel index `i + padding - o · stride`. The first tap pairs the
        // largest reachable `o` with the smallest kernel index; the third
        // value is one past the last kernel index that lies in the `k`-wide
        // kernel and still reaches an output `o >= 0`.
        let first = |i: usize, k: usize, n_out: usize| {
            let shifted = i + padding;
            let o = (shifted / stride).min(n_out - 1);
            let k0 = shifted - o * stride;
            (k0, o, k.min(k0 + (o + 1) * stride))
        };
        // Spikes ascend, so each one's input row follows from the previous
        // spike's by stepping whole rows forward — no per-spike division for
        // the coordinates, and the row axis's first tap is derived once per
        // row. `for_each` routes through `WordScan::fold`, letting the scan
        // run its internal word loop instead of per-item `next` calls.
        let (mut ci, mut iy, mut row_start) = (0, 0, 0);
        let mut row_first = first(0, kh, out_h);
        self.iter_active().for_each(|flat| {
            if flat >= row_start + w {
                while flat >= row_start + w {
                    row_start += w;
                    iy += 1;
                    if iy == h {
                        (ci, iy) = (ci + 1, 0);
                    }
                }
                row_first = first(iy, kh, out_h);
            }
            let (ky0, oy0, ky_end) = row_first;
            let (kx0, ox0, kx_end) = first(flat - row_start, kw, out_w);
            let mut p_row = (ci * kh + ky0) * kw + kx0;
            let mut cell_row = oy0 * out_w + ox0;
            for _ in (ky0..ky_end).step_by(stride) {
                let (mut p, mut cell) = (p_row, cell_row);
                for _ in (kx0..kx_end).step_by(stride) {
                    tap(p, cell);
                    p += stride;
                    cell = cell.wrapping_sub(1);
                }
                p_row += stride * kw;
                cell_row = cell_row.wrapping_sub(out_w);
            }
        });
    }
}

/// The panic of [`SpikePlane::push`] and `SpikePlane::push_word`, kept
/// cold and out of line so every producer's per-spike path stays one compare
/// (an inline formatted `assert!` measurably slowed the LIF producer).
#[cold]
#[inline(never)]
fn push_out_of_range(idx: usize) -> ! {
    panic!("push index {idx} out of range")
}

/// Calls `f` with the index of every set bit of one mask word, ascending —
/// the per-word trailing-zeros walk shared by the word-level producers.
#[inline]
pub(crate) fn for_each_bit(mut bits: u64, mut f: impl FnMut(usize)) {
    while bits != 0 {
        f(bits.trailing_zeros() as usize);
        bits &= bits - 1;
    }
}

/// Ascending iterator over the set-bit indices of a `u64` mask-word slice,
/// created by [`scan_words`]. See [`SpikePlane::iter_active`] for the
/// bitwise-equality contract word-scan consumers rely on.
#[derive(Debug, Clone)]
pub struct WordScan<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for WordScan<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1; // clear lowest set bit
        Some(self.word_idx * 64 + bit)
    }

    // Internal iteration the hot kernels reach through `for_each`: the
    // per-event closure is applied inside the word loop, with no per-item
    // Option or resumable-state traffic. Yields the exact sequence `next`
    // does.
    #[inline]
    fn fold<B, F>(self, init: B, mut f: F) -> B
    where
        F: FnMut(B, usize) -> B,
    {
        let mut acc = init;
        let mut bits = self.current;
        let mut wi = self.word_idx;
        loop {
            while bits != 0 {
                let idx = wi * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                acc = f(acc, idx);
            }
            wi += 1;
            if wi >= self.words.len() {
                return acc;
            }
            bits = self.words[wi];
        }
    }
}

/// Word-scans a raw `u64` mask slice (LSB-first within each word), yielding
/// set-bit indices in ascending order via trailing-zeros iteration. The
/// shared primitive behind [`SpikePlane::iter_active`] and the training
/// backward's gradient-column mask — any caller packing a mask into words
/// gets the identical iteration order, and therefore the identical f32
/// accumulation order, as an ascending scan over the cells.
///
/// # Example
///
/// ```
/// use snn_core::spike::scan_words;
///
/// let words = [0b1001_u64, 1 << 63];
/// assert_eq!(scan_words(&words).collect::<Vec<_>>(), vec![0, 3, 127]);
/// assert_eq!(scan_words(&[]).count(), 0);
/// ```
pub fn scan_words(words: &[u64]) -> WordScan<'_> {
    WordScan {
        words,
        word_idx: 0,
        current: words.first().copied().unwrap_or(0),
    }
}

/// Per-layer spike statistics collected while running a network, which drive
/// both the sparsity experiments (Fig. 1) and the layer-wise workload model
/// (Eq. 3) used for design-space exploration.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SpikeRecord {
    /// Human-readable layer names, index-aligned with the other fields.
    pub layer_names: Vec<String>,
    /// Input spikes consumed by each layer, summed over all timesteps.
    /// For the direct-coded input layer this counts non-zero analog inputs.
    pub input_spikes: Vec<u64>,
    /// Output spikes produced by each layer, summed over all timesteps.
    pub output_spikes: Vec<u64>,
    /// Number of neurons in each layer's output.
    pub output_neurons: Vec<u64>,
    /// Number of timesteps the record covers.
    pub timesteps: usize,
}

impl SpikeRecord {
    /// Creates an empty record for `timesteps` timesteps.
    pub fn new(timesteps: usize) -> Self {
        SpikeRecord {
            timesteps,
            ..Default::default()
        }
    }

    /// Appends one layer's statistics.
    pub fn push_layer(
        &mut self,
        name: impl Into<String>,
        input_spikes: u64,
        output_spikes: u64,
        output_neurons: u64,
    ) {
        self.layer_names.push(name.into());
        self.input_spikes.push(input_spikes);
        self.output_spikes.push(output_spikes);
        self.output_neurons.push(output_neurons);
    }

    /// Number of layers recorded.
    pub fn num_layers(&self) -> usize {
        self.layer_names.len()
    }

    /// Total output spikes across all layers (the paper's "Total Spikes").
    pub fn total_spikes(&self) -> u64 {
        self.output_spikes.iter().sum()
    }

    /// Average output sparsity across layers, weighted by neuron count.
    pub fn average_sparsity(&self) -> f64 {
        let neurons: u64 = self
            .output_neurons
            .iter()
            .map(|&n| n * self.timesteps as u64)
            .sum();
        if neurons == 0 {
            return 0.0;
        }
        1.0 - self.total_spikes() as f64 / neurons as f64
    }

    /// Per-layer output sparsity values.
    pub fn layer_sparsity(&self) -> Vec<f64> {
        self.output_spikes
            .iter()
            .zip(self.output_neurons.iter())
            .map(|(&spikes, &neurons)| {
                let slots = neurons * self.timesteps as u64;
                if slots == 0 {
                    0.0
                } else {
                    1.0 - spikes as f64 / slots as f64
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn spike_plane_from_tensor_tracks_active_and_binary() {
        use crate::tensor::Tensor;
        let binary = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 0.0], &[2, 3]).unwrap();
        let plane = SpikePlane::from_tensor(&binary);
        assert!(plane.is_binary());
        assert_eq!(plane.iter_active().collect::<Vec<_>>(), vec![0, 3, 4]);
        assert_eq!(plane.count_active(), 3);
        assert_eq!(plane.shape(), &[2, 3]);
        assert!((plane.density() - 0.5).abs() < 1e-12);

        let analog = Tensor::from_vec(vec![0.0, 0.7, 0.0, 1.0], &[4]).unwrap();
        let plane = SpikePlane::from_tensor(&analog);
        assert!(!plane.is_binary());
        assert_eq!(plane.iter_active().collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn spike_plane_incremental_push_matches_from_tensor() {
        use crate::tensor::Tensor;
        let mut incr = SpikePlane::new();
        incr.begin(&[2, 2, 2]);
        incr.push(1);
        incr.push(5);
        incr.push(7);
        let mut dense = Tensor::zeros(&[2, 2, 2]);
        for &i in &[1usize, 5, 7] {
            dense.as_mut_slice()[i] = 1.0;
        }
        assert_eq!(incr, SpikePlane::from_tensor(&dense));
        // begin() resets for reuse.
        incr.begin(&[3]);
        assert_eq!(incr.count_active(), 0);
        assert_eq!(incr.dense().sum(), 0.0);
    }

    #[test]
    fn spike_plane_push_in_any_order_scans_ascending() {
        let mut plane = SpikePlane::new();
        plane.begin(&[8]);
        plane.push(6);
        plane.push(2);
        plane.push(6); // idempotent
        assert_eq!(plane.iter_active().collect::<Vec<_>>(), vec![2, 6]);
        assert_eq!(plane.count_active(), 2);
        assert!(plane.is_binary());
    }

    #[test]
    fn plane_words_mirror_active_on_every_path() {
        use crate::tensor::Tensor;
        // assign() path (incl. analog values — words mark non-zeros).
        let t = Tensor::from_vec(vec![0.5, 0.0, 1.0, 0.0, -0.0, 1.0], &[6]).unwrap();
        let plane = SpikePlane::from_tensor(&t);
        assert_eq!(plane.as_words(), &[0b100101]);
        assert_eq!(plane.iter_active().collect::<Vec<_>>(), vec![0, 2, 5]);
        assert_eq!(plane.count_active(), 3);

        // Ascending push() path.
        let mut plane = SpikePlane::new();
        plane.begin(&[2, 8, 8]);
        for idx in [0, 63, 64, 65, 127] {
            plane.push(idx);
        }
        assert_eq!(plane.as_words(), &[(1 << 63) | 1, 0b11 | (1 << 63)]);
        assert_eq!(
            plane.iter_active().collect::<Vec<_>>(),
            vec![0, 63, 64, 65, 127]
        );

        // Descending push() path across a ragged tail word.
        let mut plane = SpikePlane::new();
        plane.begin(&[130]);
        plane.push(129);
        plane.push(64);
        plane.push(63);
        assert_eq!(plane.iter_active().collect::<Vec<_>>(), vec![63, 64, 129]);
        assert_eq!(plane.count_active(), 3);

        // clone / clone_from preserve the words.
        let cloned = plane.clone();
        assert_eq!(cloned.as_words(), plane.as_words());
        let mut target = SpikePlane::new();
        target.clone_from(&plane);
        assert_eq!(target, plane);
    }

    /// Satellite guarantee: `begin` zeroes the final partial word, so a plane
    /// reused from a larger shape can never carry stale bits `>= len` in a
    /// ragged tail word.
    #[test]
    fn plane_begin_clears_tail_word_bits_on_reuse() {
        let mut plane = SpikePlane::new();
        // Fill both words of a 2-word plane, including the very last bit.
        plane.begin(&[128]);
        plane.push(63);
        plane.push(64);
        plane.push(127);
        // Shrink to a ragged length using the same word count: every stale
        // bit — in particular 127, which would now be >= len — must be gone.
        plane.begin(&[65]);
        assert_eq!(plane.as_words(), &[0, 0]);
        assert_eq!(plane.count_active(), 0);
        plane.push(64);
        assert_eq!(plane.as_words(), &[0, 1]);
        assert_eq!(plane.iter_active().collect::<Vec<_>>(), vec![64]);
        // Exact word-multiple length: no tail word at all.
        plane.begin(&[64]);
        assert_eq!(plane.as_words(), &[0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn plane_push_past_ragged_tail_panics() {
        let mut plane = SpikePlane::new();
        plane.begin(&[70]);
        plane.push(70); // one past the ragged tail
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn plane_push_out_of_range_panics() {
        let mut plane = SpikePlane::new();
        plane.begin(&[64]);
        plane.push(64); // would set bit 0 of a word that must not exist
    }

    #[test]
    fn plane_push_word_matches_push_across_a_ragged_tail() {
        let mut by_word = SpikePlane::new();
        by_word.begin(&[130]);
        by_word.push_word(2, 0b11);
        by_word.push_word(0, (1 << 63) | 1);
        by_word.push_word(1, 0);
        by_word.push_word(0, 1); // idempotent
        let mut by_bit = SpikePlane::new();
        by_bit.begin(&[130]);
        for idx in [0, 63, 128, 129] {
            by_bit.push(idx);
        }
        assert_eq!(by_word, by_bit);
        assert_eq!(
            by_word.iter_active().collect::<Vec<_>>(),
            vec![0, 63, 128, 129]
        );
    }

    /// The word setter checks its range in release builds too: a bit at or
    /// past `len` in the ragged tail word, or a whole word past the end,
    /// panics instead of planting a phantom spike.
    #[test]
    #[should_panic(expected = "push index 130 out of range")]
    fn plane_push_word_past_ragged_tail_panics() {
        let mut plane = SpikePlane::new();
        plane.begin(&[130]);
        plane.push_word(2, 0b101); // bit 2 of word 2 is cell 130
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn plane_push_word_past_the_last_word_panics() {
        let mut plane = SpikePlane::new();
        plane.begin(&[64]);
        plane.push_word(1, 1);
    }

    #[test]
    fn plane_im2col_rejects_analog_and_bad_shapes() {
        use crate::tensor::{Im2Col, Tensor};
        let analog = SpikePlane::from_tensor(&Tensor::full(&[1, 4, 4], 0.5));
        let mut out = Im2Col::default();
        assert!(analog.im2col_into((3, 3), 1, 1, &mut out).is_err());
        let flat = SpikePlane::from_tensor(&Tensor::zeros(&[4, 4]));
        assert!(flat.im2col_into((3, 3), 1, 1, &mut out).is_err());
        let small = SpikePlane::from_tensor(&Tensor::zeros(&[1, 2, 2]));
        assert!(small.im2col_into((5, 5), 1, 0, &mut out).is_err());
    }

    proptest! {
        /// The event-driven gather lowering builds the identical column
        /// matrix the dense scan produces, across strided/padded/ragged
        /// geometries, while reusing one output buffer.
        #[test]
        fn plane_im2col_equals_dense_lowering(
            bits in proptest::collection::vec(any::<bool>(), 2 * 6 * 5),
            stride in 1_usize..3,
            padding in 0_usize..2,
            k in 1_usize..4,
        ) {
            use crate::tensor::{Im2Col, Tensor};
            let input = Tensor::from_fn(&[2, 6, 5], |i| if bits[i] { 1.0 } else { 0.0 });
            let plane = SpikePlane::from_tensor(&input);
            let mut gathered = Im2Col::default();
            plane.im2col_into((k, k), stride, padding, &mut gathered).unwrap();
            let dense = input.im2col((k, k), stride, padding).unwrap();
            prop_assert_eq!(gathered, dense);
        }
    }

    #[test]
    fn record_total_and_sparsity() {
        let mut rec = SpikeRecord::new(2);
        rec.push_layer("conv1", 100, 50, 100);
        rec.push_layer("conv2", 50, 10, 100);
        assert_eq!(rec.num_layers(), 2);
        assert_eq!(rec.total_spikes(), 60);
        // 60 spikes over 2 layers * 100 neurons * 2 timesteps = 400 slots.
        assert!((rec.average_sparsity() - (1.0 - 60.0 / 400.0)).abs() < 1e-9);
        let per_layer = rec.layer_sparsity();
        assert!((per_layer[0] - 0.75).abs() < 1e-9);
        assert!((per_layer[1] - 0.95).abs() < 1e-9);
    }
}
