//! Bit-packed spike trains.
//!
//! The accelerator stores spike trains in on-chip BRAM in *timestep-major*
//! order: for a layer with `N` output channels and `T` timesteps, `N × T`
//! locations hold one spike train (one output feature map at one timestep)
//! each, with consecutive timesteps at contiguous addresses (paper, Sec. IV-A
//! and Fig. 2). This module mirrors that layout so the simulator and the
//! functional model share one representation:
//!
//! * [`SpikeTrain`] — one bit per neuron, packed into `u64` words. This is the
//!   unit the sparse core's Compression routine consumes `n` bits per cycle.
//! * [`SpikePlane`] — one layer input frame at one timestep, as the simulator
//!   runs it: a dense backing plus the same `u64` mask words, which the
//!   event-driven kernels word-scan.
//! * [`SpikeVolume`] — the spike output of a whole layer: `T × C` spike
//!   trains of `H × W` bits each, stored timestep-major.
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
    /// allocations. Producers then emit spikes via [`SpikePlane::push`], in
    /// any order.
    ///
    /// All mask words are zeroed — in particular the out-of-range bits of the
    /// final partial word when `len % 64 != 0`, so a plane reused across
    /// shapes can never leak stale bits `>= len` into the tail word (the same
    /// guarantee [`SpikeTrain::as_words`] documents).
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

    /// The dense tensor backing.
    pub fn dense(&self) -> &Tensor {
        &self.dense
    }

    /// The `u64` mask words marking the non-zero elements: 64 cells per word,
    /// LSB-first within a word (bit `i % 64` of word `i / 64` is element
    /// `i`), matching [`SpikeTrain::as_words`]. Bits above `len()` in the
    /// last word are guaranteed to be zero.
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
    /// pair. The result is the **identical matrix** [`Tensor::im2col_into`]
    /// produces for the dense backing — spikes are exactly the 1.0 entries —
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
        let (_, h, w, out_h, out_w) =
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
        for flat in self.iter_active() {
            let ci = flat / (h * w);
            let rem = flat % (h * w);
            let iy = rem / w;
            let ix = rem % w;
            let row0 = ci * kh * kw;
            for ki in 0..kh {
                // Output row receiving this spike through kernel row `ki`.
                let y = iy as isize + padding as isize - ki as isize;
                if y < 0 {
                    break; // y only decreases as ki grows
                }
                let y = y as usize;
                if !y.is_multiple_of(stride) || y / stride >= out_h {
                    continue;
                }
                let oy = y / stride;
                for kj in 0..kw {
                    let x = ix as isize + padding as isize - kj as isize;
                    if x < 0 {
                        break;
                    }
                    let x = x as usize;
                    if !x.is_multiple_of(stride) || x / stride >= out_w {
                        continue;
                    }
                    let ox = x / stride;
                    out.data[(row0 + ki * kw + kj) * cols + oy * out_w + ox] = 1.0;
                }
            }
        }
        Ok(())
    }
}

/// The panic of [`SpikePlane::push`], kept cold and out of line so every
/// producer's per-spike path stays one compare (an inline formatted
/// `assert!` measurably slowed the LIF producer).
#[cold]
#[inline(never)]
fn push_out_of_range(idx: usize) -> ! {
    panic!("push index {idx} out of range")
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

/// A fixed-length binary spike vector, one bit per neuron, packed into `u64`
/// words (little-endian bit order within each word).
///
/// # Example
///
/// ```
/// use snn_core::spike::SpikeTrain;
///
/// let mut train = SpikeTrain::new(128);
/// train.set(3, true);
/// train.set(70, true);
/// assert_eq!(train.count_ones(), 2);
/// assert_eq!(train.iter_ones().collect::<Vec<_>>(), vec![3, 70]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SpikeTrain {
    len: usize,
    words: Vec<u64>,
}

impl SpikeTrain {
    /// Creates an all-zero spike train of `len` bits.
    pub fn new(len: usize) -> Self {
        SpikeTrain {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Creates a spike train from a boolean slice.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut train = SpikeTrain::new(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                train.set(i, true);
            }
        }
        train
    }

    /// Creates a spike train from an `f32` slice, treating any strictly
    /// positive value as a spike (the convention used by the LIF layers,
    /// whose outputs are exactly 0.0 or 1.0).
    pub fn from_activations(values: &[f32]) -> Self {
        let mut train = SpikeTrain::new(values.len());
        for (i, &v) in values.iter().enumerate() {
            if v > 0.0 {
                train.set(i, true);
            }
        }
        train
    }

    /// Number of bits in the train.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the train has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn get(&self, index: usize) -> bool {
        assert!(
            index < self.len,
            "spike index {index} out of range {}",
            self.len
        );
        (self.words[index / 64] >> (index % 64)) & 1 == 1
    }

    /// Writes bit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn set(&mut self, index: usize, value: bool) {
        assert!(
            index < self.len,
            "spike index {index} out of range {}",
            self.len
        );
        let word = &mut self.words[index / 64];
        let mask = 1u64 << (index % 64);
        if value {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// Number of set bits (spikes).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fraction of bits that are zero; 0.0 for an empty train.
    pub fn sparsity(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        1.0 - self.count_ones() as f64 / self.len as f64
    }

    /// Iterator over the indices of set bits, in ascending order.
    ///
    /// This is exactly the sequence of spike events the sparse core's
    /// Compression routine produces with its priority encoder.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes {
            train: self,
            word_idx: 0,
            current: if self.words.is_empty() {
                0
            } else {
                self.words[0]
            },
        }
    }

    /// Raw word view (little-endian bit order inside each word). Bits above
    /// `len()` in the last word are guaranteed to be zero.
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Bitwise OR with another train of identical length, used to model
    /// spike max-pooling (an OR gate slid over the window).
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::ShapeMismatch`] if lengths differ.
    pub fn or(&self, other: &SpikeTrain) -> Result<SpikeTrain, SnnError> {
        if self.len != other.len {
            return Err(SnnError::shape(&[self.len], &[other.len], "SpikeTrain::or"));
        }
        Ok(SpikeTrain {
            len: self.len,
            words: self
                .words
                .iter()
                .zip(other.words.iter())
                .map(|(a, b)| a | b)
                .collect(),
        })
    }

    /// Converts the spike train back into a 0.0/1.0 `f32` vector.
    pub fn to_activations(&self) -> Vec<f32> {
        (0..self.len)
            .map(|i| if self.get(i) { 1.0 } else { 0.0 })
            .collect()
    }

    /// Splits the train into `chunk_bits`-wide chunks, returning for each chunk
    /// the number of set bits. This models how the Compression routine tiles
    /// the spike train into n-bit chunks processed sequentially.
    pub fn chunk_population(&self, chunk_bits: usize) -> Vec<usize> {
        assert!(chunk_bits > 0, "chunk width must be positive");
        let mut counts = Vec::with_capacity(self.len.div_ceil(chunk_bits));
        let mut current = 0usize;
        let mut in_chunk = 0usize;
        for i in 0..self.len {
            if self.get(i) {
                current += 1;
            }
            in_chunk += 1;
            if in_chunk == chunk_bits {
                counts.push(current);
                current = 0;
                in_chunk = 0;
            }
        }
        if in_chunk > 0 {
            counts.push(current);
        }
        counts
    }
}

/// Iterator over set-bit indices of a [`SpikeTrain`], produced by
/// [`SpikeTrain::iter_ones`].
#[derive(Debug, Clone)]
pub struct IterOnes<'a> {
    train: &'a SpikeTrain,
    word_idx: usize,
    current: u64,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                let idx = self.word_idx * 64 + bit;
                if idx < self.train.len {
                    return Some(idx);
                }
                return None;
            }
            self.word_idx += 1;
            if self.word_idx >= self.train.words.len() {
                return None;
            }
            self.current = self.train.words[self.word_idx];
        }
    }
}

/// The binary spiking output of one layer across all timesteps, stored in the
/// same timestep-major order as the accelerator's BRAM (`address = t * C + c`).
///
/// # Example
///
/// ```
/// use snn_core::spike::SpikeVolume;
///
/// let mut vol = SpikeVolume::new(2, 4, 8, 8);
/// vol.train_mut(1, 2).set(5, true);
/// assert_eq!(vol.total_spikes(), 1);
/// assert_eq!(vol.spikes_at_timestep(1), 1);
/// assert_eq!(vol.spikes_at_timestep(0), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpikeVolume {
    timesteps: usize,
    channels: usize,
    height: usize,
    width: usize,
    trains: Vec<SpikeTrain>,
}

impl SpikeVolume {
    /// Creates an all-silent volume of `timesteps × channels` spike trains of
    /// `height × width` bits each.
    pub fn new(timesteps: usize, channels: usize, height: usize, width: usize) -> Self {
        let trains = vec![SpikeTrain::new(height * width); timesteps * channels];
        SpikeVolume {
            timesteps,
            channels,
            height,
            width,
            trains,
        }
    }

    /// Number of timesteps.
    pub fn timesteps(&self) -> usize {
        self.timesteps
    }

    /// Number of channels (output feature maps).
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Feature-map height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Feature-map width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of bits per spike train (`height * width`).
    pub fn neurons_per_map(&self) -> usize {
        self.height * self.width
    }

    /// BRAM-style address of the spike train for `(timestep, channel)`:
    /// `t * channels + c` (timestep-major, Fig. 2).
    pub fn address(&self, timestep: usize, channel: usize) -> usize {
        assert!(timestep < self.timesteps, "timestep out of range");
        assert!(channel < self.channels, "channel out of range");
        timestep * self.channels + channel
    }

    /// Spike train for `(timestep, channel)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn train(&self, timestep: usize, channel: usize) -> &SpikeTrain {
        &self.trains[self.address(timestep, channel)]
    }

    /// Mutable spike train for `(timestep, channel)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn train_mut(&mut self, timestep: usize, channel: usize) -> &mut SpikeTrain {
        let addr = self.address(timestep, channel);
        &mut self.trains[addr]
    }

    /// Replaces the spike train at `(timestep, channel)`.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::ShapeMismatch`] if the train length does not equal
    /// `height * width`.
    pub fn set_train(
        &mut self,
        timestep: usize,
        channel: usize,
        train: SpikeTrain,
    ) -> Result<(), SnnError> {
        if train.len() != self.neurons_per_map() {
            return Err(SnnError::shape(
                &[self.neurons_per_map()],
                &[train.len()],
                "SpikeVolume::set_train",
            ));
        }
        let addr = self.address(timestep, channel);
        self.trains[addr] = train;
        Ok(())
    }

    /// Total number of spikes across all timesteps and channels.
    pub fn total_spikes(&self) -> usize {
        self.trains.iter().map(SpikeTrain::count_ones).sum()
    }

    /// Number of spikes at one timestep (summed over channels).
    pub fn spikes_at_timestep(&self, timestep: usize) -> usize {
        (0..self.channels)
            .map(|c| self.train(timestep, c).count_ones())
            .sum()
    }

    /// Number of spikes in one channel (summed over timesteps).
    pub fn spikes_in_channel(&self, channel: usize) -> usize {
        (0..self.timesteps)
            .map(|t| self.train(t, channel).count_ones())
            .sum()
    }

    /// Overall sparsity (fraction of silent neuron-timesteps).
    pub fn sparsity(&self) -> f64 {
        let total_bits = self.timesteps * self.channels * self.neurons_per_map();
        if total_bits == 0 {
            return 0.0;
        }
        1.0 - self.total_spikes() as f64 / total_bits as f64
    }

    /// Builds a volume from per-timestep activation tensors of shape
    /// `[C, H, W]` where any strictly positive value is treated as a spike.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::ShapeMismatch`] if any tensor has the wrong shape.
    pub fn from_activations(
        activations: &[crate::tensor::Tensor],
        channels: usize,
        height: usize,
        width: usize,
    ) -> Result<Self, SnnError> {
        let mut vol = SpikeVolume::new(activations.len(), channels, height, width);
        for (t, act) in activations.iter().enumerate() {
            if act.shape() != [channels, height, width] {
                return Err(SnnError::shape(
                    &[channels, height, width],
                    act.shape(),
                    "SpikeVolume::from_activations",
                ));
            }
            for c in 0..channels {
                let offset = c * height * width;
                let slice = &act.as_slice()[offset..offset + height * width];
                vol.set_train(t, c, SpikeTrain::from_activations(slice))?;
            }
        }
        Ok(vol)
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
    fn new_train_is_silent() {
        let t = SpikeTrain::new(100);
        assert_eq!(t.len(), 100);
        assert_eq!(t.count_ones(), 0);
        assert_eq!(t.sparsity(), 1.0);
    }

    #[test]
    fn set_get_roundtrip_across_word_boundary() {
        let mut t = SpikeTrain::new(130);
        for idx in [0, 63, 64, 65, 127, 128, 129] {
            t.set(idx, true);
            assert!(t.get(idx));
        }
        assert_eq!(t.count_ones(), 7);
        t.set(64, false);
        assert!(!t.get(64));
        assert_eq!(t.count_ones(), 6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let t = SpikeTrain::new(10);
        t.get(10);
    }

    #[test]
    fn iter_ones_yields_sorted_indices() {
        let mut t = SpikeTrain::new(200);
        let indices = [3usize, 64, 65, 130, 199];
        for &i in &indices {
            t.set(i, true);
        }
        assert_eq!(t.iter_ones().collect::<Vec<_>>(), indices);
    }

    #[test]
    fn from_bools_and_from_activations_agree() {
        let bools = [true, false, true, true, false];
        let acts = [1.0, 0.0, 0.7, 2.0, -1.0];
        assert_eq!(
            SpikeTrain::from_bools(&bools),
            SpikeTrain::from_activations(&acts)
        );
    }

    #[test]
    fn to_activations_roundtrip() {
        let acts = vec![1.0, 0.0, 1.0, 0.0, 0.0, 1.0];
        let t = SpikeTrain::from_activations(&acts);
        assert_eq!(t.to_activations(), acts);
    }

    #[test]
    fn or_merges_spikes() {
        let a = SpikeTrain::from_bools(&[true, false, false, true]);
        let b = SpikeTrain::from_bools(&[false, true, false, true]);
        let c = a.or(&b).unwrap();
        assert_eq!(c.count_ones(), 3);
        assert!(a.or(&SpikeTrain::new(5)).is_err());
    }

    #[test]
    fn chunk_population_counts_per_chunk() {
        let t = SpikeTrain::from_bools(&[true, true, false, false, true, false, true]);
        assert_eq!(t.chunk_population(4), vec![2, 2]);
        assert_eq!(t.chunk_population(2), vec![2, 0, 1, 1]);
    }

    #[test]
    fn volume_addressing_is_timestep_major() {
        let vol = SpikeVolume::new(3, 5, 2, 2);
        assert_eq!(vol.address(0, 0), 0);
        assert_eq!(vol.address(0, 4), 4);
        assert_eq!(vol.address(1, 0), 5);
        assert_eq!(vol.address(2, 3), 13);
    }

    #[test]
    fn volume_spike_counting() {
        let mut vol = SpikeVolume::new(2, 2, 4, 4);
        vol.train_mut(0, 0).set(0, true);
        vol.train_mut(0, 1).set(3, true);
        vol.train_mut(1, 0).set(7, true);
        assert_eq!(vol.total_spikes(), 3);
        assert_eq!(vol.spikes_at_timestep(0), 2);
        assert_eq!(vol.spikes_at_timestep(1), 1);
        assert_eq!(vol.spikes_in_channel(0), 2);
        assert_eq!(vol.spikes_in_channel(1), 1);
    }

    #[test]
    fn volume_from_activations_checks_shape() {
        use crate::tensor::Tensor;
        let good = vec![Tensor::ones(&[2, 2, 2]); 3];
        let vol = SpikeVolume::from_activations(&good, 2, 2, 2).unwrap();
        assert_eq!(vol.total_spikes(), 3 * 2 * 4);
        let bad = vec![Tensor::ones(&[2, 3, 2])];
        assert!(SpikeVolume::from_activations(&bad, 2, 2, 2).is_err());
    }

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

    proptest! {
        /// count_ones always equals the number of bits set via set().
        #[test]
        fn count_matches_inserted(indices in proptest::collection::btree_set(0_usize..500, 0..100)) {
            let mut t = SpikeTrain::new(500);
            for &i in &indices {
                t.set(i, true);
            }
            prop_assert_eq!(t.count_ones(), indices.len());
            let collected: Vec<usize> = t.iter_ones().collect();
            let expected: Vec<usize> = indices.into_iter().collect();
            prop_assert_eq!(collected, expected);
        }

        /// Sparsity and count are consistent: sparsity = 1 - ones/len.
        #[test]
        fn sparsity_consistent(bools in proptest::collection::vec(any::<bool>(), 1..300)) {
            let t = SpikeTrain::from_bools(&bools);
            let ones = bools.iter().filter(|&&b| b).count();
            prop_assert_eq!(t.count_ones(), ones);
            prop_assert!((t.sparsity() - (1.0 - ones as f64 / bools.len() as f64)).abs() < 1e-12);
        }

        /// OR never decreases the spike count and is commutative.
        #[test]
        fn or_is_monotone_and_commutative(
            a in proptest::collection::vec(any::<bool>(), 64),
            b in proptest::collection::vec(any::<bool>(), 64),
        ) {
            let ta = SpikeTrain::from_bools(&a);
            let tb = SpikeTrain::from_bools(&b);
            let ab = ta.or(&tb).unwrap();
            let ba = tb.or(&ta).unwrap();
            prop_assert_eq!(&ab, &ba);
            prop_assert!(ab.count_ones() >= ta.count_ones());
            prop_assert!(ab.count_ones() >= tb.count_ones());
        }
    }
}
