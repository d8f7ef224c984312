//! Sparsity statistics and streaming distribution trackers.
//!
//! [`SparsityComparison`] and [`AggregateSpikeStats`] compare and
//! accumulate the per-layer spike counts of network runs, for the
//! quantization-vs-sparsity comparisons of Fig. 1. The Eq. 3 workload model
//! over the same counts lives in `snn-accel`'s `workload` module.
//!
//! It also hosts [`LogHistogram`], a streaming fixed-log-bucket quantile
//! tracker shared by the serving layer (p50/p99 request latency) and the
//! per-layer spike-rate [`DriftTracker`].

use crate::spike::SpikeRecord;
use serde::{Deserialize, Serialize};

/// Sub-bucket resolution of [`LogHistogram`]: each power-of-two octave is
/// split into `2^SUB_BITS` linear sub-buckets, bounding the relative
/// quantile error at `2^-SUB_BITS` (≈3.2%).
const SUB_BITS: u32 = 5;
const SUB_BUCKETS: usize = 1 << SUB_BITS;
/// Bucket count covering the full `u64` range: the exact region
/// (`v < 2^SUB_BITS`) plus `64 - SUB_BITS` octaves of `SUB_BUCKETS` each.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB_BUCKETS;

/// A streaming log-bucketed histogram with bounded-relative-error quantiles.
///
/// Values (typically latencies in nanoseconds or microseconds — the unit is
/// the caller's) are folded into a fixed array of `~1.9k` buckets: values
/// below `2^5` land in exact unit buckets, larger values in one of 32 linear
/// sub-buckets per power-of-two octave. Recording is an index computation
/// plus a counter increment — **no allocation, no branching on data size** —
/// so it is safe inside a serving hot path, and [`LogHistogram::quantile`]
/// is within a `2^-5` relative error of the true order statistic (proven
/// against a sorted-vector oracle in this module's tests).
///
/// Two histograms fold together with [`LogHistogram::merge`], so per-worker
/// trackers can be aggregated without locking the hot path. The same
/// structure is intended for distribution-drift tracking (per-layer
/// spike-rate distributions) as much as for latency.
///
/// # Example
///
/// ```
/// use snn_core::stats::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// for us in [120_u64, 80, 95, 3000, 110] {
///     h.record(us);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.max(), 3000);
/// // p50 is within 3.2% of the true median (110):
/// let p50 = h.quantile(0.5);
/// assert!((p50 as f64 - 110.0).abs() <= 110.0 / 32.0 + 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram. The one-off bucket-array allocation
    /// happens here; recording never allocates.
    pub fn new() -> Self {
        LogHistogram {
            counts: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index of a value.
    fn index(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let octave = 63 - value.leading_zeros(); // >= SUB_BITS here
        let sub = (value >> (octave - SUB_BITS)) as usize & (SUB_BUCKETS - 1);
        (octave - SUB_BITS + 1) as usize * SUB_BUCKETS + sub
    }

    /// Inclusive upper bound of the values mapping to bucket `index`.
    fn bucket_upper(index: usize) -> u64 {
        if index < SUB_BUCKETS {
            return index as u64;
        }
        let octave = (index / SUB_BUCKETS) as u32 + SUB_BITS - 1;
        let sub = (index % SUB_BUCKETS) as u64;
        let width = 1u64 << (octave - SUB_BITS);
        (SUB_BUCKETS as u64 + sub)
            .saturating_mul(width)
            .saturating_add(width - 1)
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::index(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records a [`std::time::Duration`] in whole nanoseconds (saturating at
    /// `u64::MAX`, i.e. after ~584 years).
    pub fn record_duration(&mut self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded value (`0` when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (`0` when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded values (`0.0` when empty). Exact — the running
    /// sum is kept outside the buckets.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`q` clamped to `[0, 1]`): an upper bound on the
    /// smallest recorded value `v` such that at least `ceil(q · count)`
    /// recorded values are `≤ v`, within one bucket width (relative error
    /// `≤ 2^-5`). Returns `0` when empty; `quantile(1.0)` is the exact
    /// maximum.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Folds another histogram into this one (equivalent to having recorded
    /// both value streams into a single histogram).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Clears all recorded values without releasing the bucket array.
    pub fn reset(&mut self) {
        self.counts.fill(0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// Removes one previously [`record`](LogHistogram::record)ed value,
    /// making the histogram a *sliding-window* structure when paired with a
    /// ring buffer of the values currently in the window (the drift tracker
    /// does exactly this). The bucket count, total count and sum are
    /// adjusted exactly; `min`/`max` keep **high-watermark semantics** (they
    /// are not recomputed — they still bound everything ever recorded).
    ///
    /// Forgetting a value that was never recorded saturates at zero instead
    /// of underflowing; the histogram stays internally consistent either
    /// way.
    pub fn forget(&mut self, value: u64) {
        let bucket = &mut self.counts[Self::index(value)];
        if *bucket == 0 || self.count == 0 {
            return;
        }
        *bucket -= 1;
        self.count -= 1;
        self.sum = self.sum.saturating_sub(value as u128);
    }

    /// Jeffreys pseudo-count added to every octave group by
    /// [`LogHistogram::kl_divergence`], so no probability is ever zero and
    /// the divergence is always finite.
    const KL_PSEUDO_COUNT: f64 = 0.5;

    /// Kullback–Leibler divergence `KL(self ‖ baseline)` in nats between
    /// the two histograms' value distributions, compared at **octave
    /// granularity**.
    ///
    /// Sub-buckets are folded into their power-of-two octave (60 groups
    /// over the full `u64` range) before comparing. The fine 3% sub-bucket
    /// resolution is right for quantiles but wrong for drift: with small
    /// sample windows, mass landing one sub-bucket away from where the
    /// baseline sampled would register as spurious divergence, while the
    /// distribution shifts that actually invalidate the accelerator's
    /// activity-calibrated estimates are ≥2× — a whole octave or more.
    ///
    /// Each group is smoothed with a Jeffreys pseudo-count
    /// (`KL_PSEUDO_COUNT`, 0.5) before normalisation, so the
    /// result is **always finite and never NaN** — including when one or
    /// both histograms are empty, when all mass sits in a single bucket
    /// (e.g. a layer with a zero spike rate recording only zeros), or when
    /// the supports are disjoint. Two empty histograms diverge by exactly
    /// `0.0`, and any histogram against itself by ~`0.0` (floating-point
    /// rounding only). Both guarantees are proptested.
    ///
    /// The drift tracker compares a sliding window of recent per-layer
    /// spike rates against a calibration baseline with this; a divergence
    /// above its threshold marks the model Degraded.
    pub fn kl_divergence(&self, baseline: &LogHistogram) -> f64 {
        if self.count == 0 && baseline.count == 0 {
            return 0.0;
        }
        const GROUPS: usize = BUCKETS / SUB_BUCKETS;
        let eps = Self::KL_PSEUDO_COUNT;
        let p_total = self.count as f64 + eps * GROUPS as f64;
        let q_total = baseline.count as f64 + eps * GROUPS as f64;
        let mut kl = 0.0;
        for (p_chunk, q_chunk) in self
            .counts
            .chunks_exact(SUB_BUCKETS)
            .zip(baseline.counts.chunks_exact(SUB_BUCKETS))
        {
            let p_count: u64 = p_chunk.iter().sum();
            let q_count: u64 = q_chunk.iter().sum();
            let p = (p_count as f64 + eps) / p_total;
            let q = (q_count as f64 + eps) / q_total;
            kl += p * (p / q).ln();
        }
        // Smoothing keeps every term finite; rounding can leave the sum a
        // hair below zero, which the clamp removes (KL is non-negative).
        kl.max(0.0)
    }
}

// ---------------------------------------------------------------------------
// Streaming spike-rate drift tracking
// ---------------------------------------------------------------------------

/// Fixed-point scale of a spike *rate* (spikes per neuron per timestep,
/// a fraction in `[0, 1]`) as recorded into a [`LogHistogram`]:
/// `rate_q = spikes * RATE_SCALE / (neurons * timesteps)`, i.e. spikes per
/// mebi-neuron-timestep. The log-bucketed histogram then resolves rates
/// down to ~1e-6 with bounded relative error.
pub const RATE_SCALE: u64 = 1 << 20;

/// Configuration of a [`DriftTracker`].
#[derive(Debug, Clone, PartialEq)]
pub struct DriftConfig {
    /// Runs folded into the calibration baseline before monitoring starts
    /// (default 32). The baseline freezes after this many observations.
    pub calibration: usize,
    /// Sliding-window length in runs compared against the baseline
    /// (default 64).
    pub window: usize,
    /// Minimum window fill before a drift verdict is rendered (default 16):
    /// below this, [`DriftStatus::drifted`] is always `false` so a couple
    /// of outlier runs cannot flap the health state.
    pub min_window: usize,
    /// KL-divergence threshold in nats above which a layer counts as
    /// drifted (default 0.5).
    pub threshold: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            calibration: 32,
            window: 64,
            min_window: 16,
            threshold: 0.5,
        }
    }
}

impl DriftConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`crate::SnnError::InvalidConfig`] for a zero calibration, window or
    /// `min_window`, a `min_window` above the window, or a non-positive /
    /// non-finite threshold.
    pub fn validated(&self) -> Result<(), crate::SnnError> {
        if self.calibration == 0 {
            return Err(crate::SnnError::config(
                "calibration",
                "the drift baseline needs at least one calibration run",
            ));
        }
        if self.window == 0 || self.min_window == 0 || self.min_window > self.window {
            return Err(crate::SnnError::config(
                "window",
                format!(
                    "drift window must satisfy 1 <= min_window <= window, got min_window {} \
                     window {}",
                    self.min_window, self.window
                ),
            ));
        }
        if !self.threshold.is_finite() || self.threshold <= 0.0 {
            return Err(crate::SnnError::config(
                "threshold",
                format!(
                    "drift threshold must be a positive finite KL, got {}",
                    self.threshold
                ),
            ));
        }
        Ok(())
    }
}

/// Per-layer state of a [`DriftTracker`]: the frozen calibration histogram,
/// the sliding-window histogram, and the ring of quantized rates currently
/// in the window (so the oldest can be forgotten exactly).
#[derive(Debug, Clone)]
struct LayerDrift {
    name: String,
    baseline: LogHistogram,
    window: LogHistogram,
    /// Ring buffer of the window's quantized rates; capacity fixed at
    /// construction, so steady-state observation never allocates.
    ring: std::collections::VecDeque<u64>,
}

/// Drift verdict snapshot of a [`DriftTracker`].
#[derive(Debug, Clone, PartialEq)]
pub struct DriftStatus {
    /// Whether the calibration baseline has frozen (monitoring is active).
    pub calibrated: bool,
    /// Total runs observed (calibration + monitored).
    pub observed: u64,
    /// Runs currently in the sliding window.
    pub window_fill: usize,
    /// Largest per-layer KL divergence of the window against the baseline
    /// (0.0 until the window holds `min_window` runs).
    pub max_kl: f64,
    /// Name of the layer with the largest divergence, when monitoring has
    /// a verdict.
    pub worst_layer: Option<String>,
    /// Whether `max_kl` exceeds the configured threshold.
    pub drifted: bool,
}

impl DriftStatus {
    fn idle(calibrated: bool, observed: u64, window_fill: usize) -> Self {
        DriftStatus {
            calibrated,
            observed,
            window_fill,
            max_kl: 0.0,
            worst_layer: None,
            drifted: false,
        }
    }
}

/// A streaming per-layer spike-rate drift tracker: the fidelity guard the
/// accelerator's latency/energy estimates need.
///
/// The hardware model folds per-layer spike counts into cycle and energy
/// estimates that were calibrated against a *particular* activity
/// distribution; if the serving traffic drifts (different input statistics,
/// a mis-trained hot-swapped model), those estimates silently stop meaning
/// anything. The tracker makes the drift observable:
///
/// 1. The first [`DriftConfig::calibration`] observed runs freeze a
///    per-layer **baseline** histogram of quantized spike rates
///    (spikes per neuron-timestep, scaled by [`RATE_SCALE`]).
/// 2. Every later run is folded into a per-layer **sliding window**
///    (ring-buffered, [`LogHistogram::forget`]ting the oldest run — no
///    allocation in steady state).
/// 3. [`DriftTracker::status`] reports the largest per-layer
///    [`LogHistogram::kl_divergence`] of window vs. baseline; above
///    [`DriftConfig::threshold`] the run stream counts as **drifted** and
///    the serving registry flips the model's health to Degraded.
///
/// Layer topology is learned from the first observation; later records with
/// a different layer count are ignored (a swapped model gets a fresh
/// tracker via [`DriftTracker::reset`]).
///
/// # Example
///
/// ```
/// use snn_core::spike::SpikeRecord;
/// use snn_core::stats::{DriftConfig, DriftTracker};
///
/// let config = DriftConfig { calibration: 4, window: 8, min_window: 4, threshold: 0.5 };
/// let mut tracker = DriftTracker::new(config).unwrap();
/// let mut record = SpikeRecord::new(2);
/// record.push_layer("conv1", 0, 100, 1024);
/// for _ in 0..4 {
///     tracker.observe(&record); // calibration
/// }
/// for _ in 0..8 {
///     tracker.observe(&record); // monitored window, same distribution
/// }
/// let status = tracker.status();
/// assert!(status.calibrated);
/// assert!(!status.drifted);
/// assert!(status.max_kl < 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct DriftTracker {
    config: DriftConfig,
    layers: Vec<LayerDrift>,
    observed: u64,
    calibrating_seen: usize,
    /// Cached verdict, recomputed on observe (so health transitions happen
    /// on the serving path, not only when somebody polls `/v1/stats`).
    current: DriftStatus,
}

impl DriftTracker {
    /// Creates a tracker in the calibrating state.
    ///
    /// # Errors
    ///
    /// Propagates [`DriftConfig::validated`].
    pub fn new(config: DriftConfig) -> Result<Self, crate::SnnError> {
        config.validated()?;
        Ok(DriftTracker {
            current: DriftStatus::idle(false, 0, 0),
            config,
            layers: Vec::new(),
            observed: 0,
            calibrating_seen: 0,
        })
    }

    /// The tracker's configuration.
    pub fn config(&self) -> &DriftConfig {
        &self.config
    }

    /// Quantizes one layer's spike rate for histogram recording.
    fn rate_q(spikes: u64, neurons: u64, timesteps: usize) -> u64 {
        let slots = neurons.saturating_mul(timesteps as u64).max(1);
        spikes.saturating_mul(RATE_SCALE) / slots
    }

    /// Folds one run's per-layer spike record into the tracker. Records
    /// with no layers (stub models) or a layer count different from the
    /// calibrated topology are ignored.
    pub fn observe(&mut self, record: &SpikeRecord) {
        if record.num_layers() == 0 {
            return;
        }
        if self.layers.is_empty() {
            self.layers = record
                .layer_names
                .iter()
                .map(|name| LayerDrift {
                    name: name.clone(),
                    baseline: LogHistogram::new(),
                    window: LogHistogram::new(),
                    ring: std::collections::VecDeque::with_capacity(self.config.window),
                })
                .collect();
        } else if self.layers.len() != record.num_layers() {
            return;
        }
        self.observed += 1;
        let calibrating = self.calibrating_seen < self.config.calibration;
        for (layer, ((&spikes, &neurons), _)) in self.layers.iter_mut().zip(
            record
                .output_spikes
                .iter()
                .zip(record.output_neurons.iter())
                .zip(record.layer_names.iter()),
        ) {
            let rate = Self::rate_q(spikes, neurons, record.timesteps);
            if calibrating {
                layer.baseline.record(rate);
            } else {
                if layer.ring.len() == self.config.window {
                    if let Some(oldest) = layer.ring.pop_front() {
                        layer.window.forget(oldest);
                    }
                }
                layer.ring.push_back(rate);
                layer.window.record(rate);
            }
        }
        if calibrating {
            self.calibrating_seen += 1;
        }
        self.current = self.compute_status();
    }

    fn compute_status(&self) -> DriftStatus {
        let calibrated = self.calibrating_seen >= self.config.calibration;
        let window_fill = self.layers.first().map_or(0, |l| l.ring.len());
        if !calibrated || window_fill < self.config.min_window {
            return DriftStatus::idle(calibrated, self.observed, window_fill);
        }
        let mut max_kl = 0.0_f64;
        let mut worst: Option<&str> = None;
        for layer in &self.layers {
            let kl = layer.window.kl_divergence(&layer.baseline);
            if kl > max_kl || worst.is_none() {
                max_kl = kl;
                worst = Some(&layer.name);
            }
        }
        DriftStatus {
            calibrated,
            observed: self.observed,
            window_fill,
            max_kl,
            worst_layer: worst.map(str::to_string),
            drifted: max_kl > self.config.threshold,
        }
    }

    /// The current drift verdict (cached from the last
    /// [`DriftTracker::observe`]).
    pub fn status(&self) -> DriftStatus {
        self.current.clone()
    }

    /// Forgets everything — baseline, window and topology — returning the
    /// tracker to the calibrating state. The serving registry calls this on
    /// every hot-swap and rollback: the baseline describes one deployed
    /// version's steady state, so a new (or restored) version recalibrates
    /// against its own traffic rather than inheriting a stale baseline.
    pub fn reset(&mut self) {
        self.layers.clear();
        self.observed = 0;
        self.calibrating_seen = 0;
        self.current = DriftStatus::idle(false, 0, 0);
    }
}

/// Comparison of the spiking activity of two runs of the same network, used
/// to quantify the quantization-sparsity interplay of Fig. 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparsityComparison {
    /// Name of the baseline run (e.g. `fp32`).
    pub baseline_name: String,
    /// Name of the comparison run (e.g. `int4`).
    pub variant_name: String,
    /// Total spikes in the baseline run.
    pub baseline_spikes: u64,
    /// Total spikes in the comparison run.
    pub variant_spikes: u64,
    /// Per-layer spike counts of the baseline run.
    pub baseline_per_layer: Vec<u64>,
    /// Per-layer spike counts of the comparison run.
    pub variant_per_layer: Vec<u64>,
    /// Layer names.
    pub layer_names: Vec<String>,
}

impl SparsityComparison {
    /// Builds a comparison from two spike records of the same network.
    pub fn new(
        baseline_name: impl Into<String>,
        baseline: &SpikeRecord,
        variant_name: impl Into<String>,
        variant: &SpikeRecord,
    ) -> Self {
        SparsityComparison {
            baseline_name: baseline_name.into(),
            variant_name: variant_name.into(),
            baseline_spikes: baseline.total_spikes(),
            variant_spikes: variant.total_spikes(),
            baseline_per_layer: baseline.output_spikes.clone(),
            variant_per_layer: variant.output_spikes.clone(),
            layer_names: baseline.layer_names.clone(),
        }
    }

    /// Relative spike reduction of the variant vs. the baseline, in percent.
    /// Positive values mean the variant spikes *less* (the paper reports
    /// 6.1% / 10.1% / 15.2% for int4 vs fp32).
    pub fn spike_reduction_percent(&self) -> f64 {
        if self.baseline_spikes == 0 {
            return 0.0;
        }
        (1.0 - self.variant_spikes as f64 / self.baseline_spikes as f64) * 100.0
    }

    /// Ratio of baseline to variant spikes (> 1 when the variant is sparser).
    pub fn spike_ratio(&self) -> f64 {
        if self.variant_spikes == 0 {
            return f64::INFINITY;
        }
        self.baseline_spikes as f64 / self.variant_spikes as f64
    }
}

/// Aggregated spike statistics over a set of inference runs (e.g. a test set),
/// as used to produce the Fig. 1 bars.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AggregateSpikeStats {
    /// Number of runs aggregated.
    pub runs: usize,
    /// Total spikes summed over runs.
    pub total_spikes: u64,
    /// Per-layer totals (index-aligned with `layer_names`).
    pub per_layer_spikes: Vec<u64>,
    /// Layer names.
    pub layer_names: Vec<String>,
    /// Number of correct predictions (for accuracy).
    pub correct: usize,
}

impl AggregateSpikeStats {
    /// Creates an empty aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one run's record into the aggregate.
    pub fn add_run(&mut self, record: &SpikeRecord, correct: bool) {
        if self.layer_names.is_empty() {
            self.layer_names = record.layer_names.clone();
            self.per_layer_spikes = vec![0; record.num_layers()];
        }
        for (acc, &s) in self
            .per_layer_spikes
            .iter_mut()
            .zip(record.output_spikes.iter())
        {
            *acc += s;
        }
        self.total_spikes += record.total_spikes();
        self.runs += 1;
        if correct {
            self.correct += 1;
        }
    }

    /// Mean spikes per run.
    pub fn mean_spikes_per_run(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.total_spikes as f64 / self.runs as f64
        }
    }

    /// Classification accuracy over the aggregated runs, in `[0, 1]`.
    pub fn accuracy(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.correct as f64 / self.runs as f64
        }
    }

    /// Mean per-layer spikes per run.
    pub fn mean_per_layer(&self) -> Vec<f64> {
        self.per_layer_spikes
            .iter()
            .map(|&s| {
                if self.runs == 0 {
                    0.0
                } else {
                    s as f64 / self.runs as f64
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
    fn sparsity_comparison_reports_reduction() {
        let mut base = SpikeRecord::new(2);
        base.push_layer("l1", 0, 1000, 2048);
        base.push_layer("l2", 0, 500, 1024);
        let mut variant = SpikeRecord::new(2);
        variant.push_layer("l1", 0, 850, 2048);
        variant.push_layer("l2", 0, 425, 1024);
        let cmp = SparsityComparison::new("fp32", &base, "int4", &variant);
        assert!((cmp.spike_reduction_percent() - 15.0).abs() < 1e-9);
        assert!((cmp.spike_ratio() - 1500.0 / 1275.0).abs() < 1e-9);
    }

    #[test]
    fn sparsity_comparison_handles_zero_baseline() {
        let base = SpikeRecord::new(1);
        let variant = SpikeRecord::new(1);
        let cmp = SparsityComparison::new("a", &base, "b", &variant);
        assert_eq!(cmp.spike_reduction_percent(), 0.0);
    }

    /// Sorted-vector oracle for the `q`-quantile under the histogram's
    /// definition (smallest value with at least `ceil(q·n)` values ≤ it).
    fn oracle_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
        sorted[rank - 1]
    }

    fn assert_quantiles_close(h: &LogHistogram, sorted: &[u64]) {
        for &q in &[0.0, 0.01, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
            let got = h.quantile(q);
            let want = oracle_quantile(sorted, q);
            // One log-bucket of relative slack (2^-5), plus 1 for the
            // exact-integer region.
            let slack = want / 32 + 1;
            assert!(
                got >= want.saturating_sub(slack) && got <= want + slack,
                "q={q}: histogram {got} vs oracle {want} (slack {slack})"
            );
        }
    }

    #[test]
    fn log_histogram_matches_oracle_on_log_uniform_values() {
        // Deterministic SplitMix-style stream spanning ~9 decades.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state
        };
        let mut h = LogHistogram::new();
        let mut values = Vec::new();
        for _ in 0..10_000 {
            let magnitude = next() % 30; // exponent in [0, 30)
            let v = (next() % 1000) << magnitude;
            h.record(v);
            values.push(v);
        }
        values.sort_unstable();
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.min(), values[0]);
        assert_eq!(h.max(), *values.last().unwrap());
        let exact_mean = values.iter().map(|&v| v as u128).sum::<u128>() as f64 / 10_000.0;
        assert!((h.mean() - exact_mean).abs() < 1e-6 * exact_mean.max(1.0));
        assert_quantiles_close(&h, &values);
    }

    #[test]
    fn log_histogram_is_exact_below_32() {
        let mut h = LogHistogram::new();
        let values: Vec<u64> = (0..32).flat_map(|v| std::iter::repeat_n(v, 3)).collect();
        for &v in &values {
            h.record(v);
        }
        for &q in &[0.1, 0.5, 0.9, 1.0] {
            assert_eq!(h.quantile(q), oracle_quantile(&values, q), "q={q}");
        }
    }

    #[test]
    fn log_histogram_merge_equals_combined_stream() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut combined = LogHistogram::new();
        for i in 0..500u64 {
            let v = i * i * 37 + 11;
            if i % 3 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            combined.record(v);
        }
        a.merge(&b);
        assert_eq!(a, combined);
    }

    #[test]
    fn log_histogram_empty_and_reset() {
        let mut h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        h.record(42);
        h.record_duration(std::time::Duration::from_nanos(7));
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 7);
        h.reset();
        assert!(h.is_empty());
        assert_eq!(h, LogHistogram::new());
    }

    #[test]
    fn log_histogram_handles_extreme_values() {
        let mut h = LogHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn forget_round_trips_record() {
        let mut h = LogHistogram::new();
        let values = [0u64, 3, 31, 32, 1000, u64::MAX];
        for &v in &values {
            h.record(v);
        }
        let snapshot = h.clone();
        h.record(77);
        h.forget(77);
        assert_eq!(h.count(), snapshot.count());
        assert_eq!(h.sum, snapshot.sum);
        assert_eq!(h.counts, snapshot.counts);
        // Forgetting a value that was never recorded is a no-op.
        h.forget(12345);
        assert_eq!(h.counts, snapshot.counts);
        for &v in &values {
            h.forget(v);
        }
        assert!(h.is_empty());
        assert_eq!(h.sum, 0);
    }

    #[test]
    fn kl_divergence_zero_for_identical_and_empty() {
        let empty = LogHistogram::new();
        assert_eq!(empty.kl_divergence(&empty), 0.0);
        let mut h = LogHistogram::new();
        for v in [5u64, 9, 9, 1000, 4096] {
            h.record(v);
        }
        let kl = h.kl_divergence(&h.clone());
        assert!(kl.abs() < 1e-9, "self-KL should be ~0, got {kl}");
    }

    #[test]
    fn kl_divergence_finite_on_disjoint_and_one_empty() {
        let mut low = LogHistogram::new();
        let mut high = LogHistogram::new();
        for _ in 0..100 {
            low.record(1);
            high.record(1 << 40);
        }
        let kl = low.kl_divergence(&high);
        assert!(
            kl.is_finite() && kl > 0.0,
            "disjoint KL should be finite positive, got {kl}"
        );
        let empty = LogHistogram::new();
        assert!(low.kl_divergence(&empty).is_finite());
        assert!(empty.kl_divergence(&low).is_finite());
        assert!(empty.kl_divergence(&low) >= 0.0);
    }

    #[test]
    fn kl_divergence_separates_shifted_from_matching() {
        let mut baseline = LogHistogram::new();
        let mut same = LogHistogram::new();
        let mut shifted = LogHistogram::new();
        for i in 0..200u64 {
            baseline.record(1000 + i % 50);
            same.record(1000 + (i * 7) % 50);
            shifted.record(8000 + i % 50);
        }
        let kl_same = same.kl_divergence(&baseline);
        let kl_shifted = shifted.kl_divergence(&baseline);
        assert!(
            kl_same < kl_shifted,
            "same {kl_same} vs shifted {kl_shifted}"
        );
        assert!(kl_shifted > 0.5);
    }

    fn drift_record(timesteps: usize, spikes: &[u64]) -> SpikeRecord {
        let mut rec = SpikeRecord::new(timesteps);
        for (i, &s) in spikes.iter().enumerate() {
            rec.push_layer(format!("layer{i}"), 0, s, 1024);
        }
        rec
    }

    fn small_drift_config() -> DriftConfig {
        DriftConfig {
            calibration: 8,
            window: 16,
            min_window: 8,
            threshold: 0.5,
        }
    }

    #[test]
    fn drift_config_rejects_degenerate_values() {
        assert!(DriftConfig::default().validated().is_ok());
        let bad = |f: fn(&mut DriftConfig)| {
            let mut c = DriftConfig::default();
            f(&mut c);
            c.validated().is_err()
        };
        assert!(bad(|c| c.calibration = 0));
        assert!(bad(|c| c.window = 0));
        assert!(bad(|c| c.min_window = 0));
        assert!(bad(|c| c.min_window = c.window + 1));
        assert!(bad(|c| c.threshold = 0.0));
        assert!(bad(|c| c.threshold = f64::NAN));
        assert!(bad(|c| c.threshold = -1.0));
    }

    #[test]
    fn drift_tracker_stays_healthy_on_stationary_traffic() {
        let mut tracker = DriftTracker::new(small_drift_config()).unwrap();
        for i in 0..64u64 {
            tracker.observe(&drift_record(4, &[400 + i % 16, 90 + i % 8]));
        }
        let status = tracker.status();
        assert!(status.calibrated);
        assert_eq!(status.observed, 64);
        assert!(!status.drifted, "stationary traffic flagged: {status:?}");
        assert!(status.max_kl.is_finite());
        assert!(status.worst_layer.is_some());
    }

    #[test]
    fn drift_tracker_flags_shift_and_names_layer_then_reset_clears() {
        let mut tracker = DriftTracker::new(small_drift_config()).unwrap();
        // Calibrate + settle on a stationary distribution.
        for i in 0..32u64 {
            tracker.observe(&drift_record(4, &[400 + i % 16, 90 + i % 8]));
        }
        assert!(!tracker.status().drifted);
        // Layer 1's rate collapses by 10x — within one window, flagged.
        for i in 0..16u64 {
            tracker.observe(&drift_record(4, &[400 + i % 16, 9 + i % 2]));
        }
        let status = tracker.status();
        assert!(status.drifted, "shift not flagged: {status:?}");
        assert!(status.max_kl > 0.5);
        assert_eq!(status.worst_layer.as_deref(), Some("layer1"));
        // Reset (swap/rollback semantics) returns to calibrating, undrifted.
        tracker.reset();
        let status = tracker.status();
        assert!(!status.calibrated);
        assert!(!status.drifted);
        assert_eq!(status.observed, 0);
    }

    #[test]
    fn drift_tracker_ignores_empty_and_mismatched_records() {
        let mut tracker = DriftTracker::new(small_drift_config()).unwrap();
        tracker.observe(&SpikeRecord::new(4));
        assert_eq!(tracker.status().observed, 0);
        tracker.observe(&drift_record(4, &[100, 50]));
        tracker.observe(&drift_record(4, &[100])); // topology mismatch
        assert_eq!(tracker.status().observed, 1);
    }

    #[test]
    fn drift_tracker_zero_rate_layers_never_nan() {
        // An entirely silent layer (zero spikes) through calibration and
        // monitoring must never produce a NaN/∞ KL — the epsilon floor at
        // the histogram level guarantees it.
        let mut tracker = DriftTracker::new(small_drift_config()).unwrap();
        for _ in 0..64 {
            tracker.observe(&drift_record(4, &[0, 0]));
        }
        let status = tracker.status();
        assert!(status.max_kl.is_finite());
        assert!(!status.max_kl.is_nan());
        assert!(!status.drifted);
    }

    proptest! {
        /// KL divergence between any two histograms built from arbitrary
        /// value streams — including empty streams and all-zero (silent
        /// layer) streams — is always finite, never NaN, and non-negative:
        /// the epsilon floor's contract for the drift path.
        #[test]
        fn kl_divergence_always_finite_nonnegative(
            p_values in proptest::collection::vec(0u64..u64::MAX, 0..64),
            q_values in proptest::collection::vec(0u64..u64::MAX, 0..64),
        ) {
            let mut p = LogHistogram::new();
            let mut q = LogHistogram::new();
            for &v in &p_values {
                p.record(v);
            }
            for &v in &q_values {
                q.record(v);
            }
            for (a, b) in [(&p, &q), (&q, &p), (&p, &p), (&q, &q)] {
                let kl = a.kl_divergence(b);
                prop_assert!(kl.is_finite(), "KL not finite: {kl}");
                prop_assert!(!kl.is_nan(), "KL is NaN");
                prop_assert!(kl >= 0.0, "KL negative: {kl}");
            }
        }

        /// Recording then forgetting a batch of values restores the exact
        /// bucket state, making the ring-buffered sliding window exact.
        #[test]
        fn forget_is_exact_inverse_of_record(
            base in proptest::collection::vec(0u64..u64::MAX, 0..32),
            transient in proptest::collection::vec(0u64..u64::MAX, 1..32),
        ) {
            let mut h = LogHistogram::new();
            for &v in &base {
                h.record(v);
            }
            let counts_before = h.counts.clone();
            let count_before = h.count();
            for &v in &transient {
                h.record(v);
            }
            for &v in &transient {
                h.forget(v);
            }
            prop_assert_eq!(h.counts, counts_before);
            prop_assert_eq!(h.count(), count_before);
        }
    }

    #[test]
    fn aggregate_accumulates_runs_and_accuracy() {
        let mut agg = AggregateSpikeStats::new();
        let mut rec = SpikeRecord::new(2);
        rec.push_layer("l1", 0, 100, 256);
        agg.add_run(&rec, true);
        agg.add_run(&rec, false);
        assert_eq!(agg.runs, 2);
        assert_eq!(agg.total_spikes, 200);
        assert_eq!(agg.accuracy(), 0.5);
        assert_eq!(agg.mean_spikes_per_run(), 100.0);
        assert_eq!(agg.mean_per_layer(), vec![100.0]);
    }
}
