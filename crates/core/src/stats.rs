//! Streaming distribution trackers.
//!
//! [`LogHistogram`] is the streaming fixed-log-bucket quantile tracker the
//! serving layer reads its latency, queue-wait and service-time quantiles
//! from. The per-layer spike-rate [`DriftTracker`] folds the
//! [`LayerTrace`]s of each served run into per-octave rate counts. A run's
//! spike totals are computed over its traces by
//! [`crate::network::total_output_spikes`] and
//! [`crate::network::average_sparsity`]; the Eq. 3 workload model over the
//! same counts lives in `snn-accel`'s `workload` module.

use crate::network::LayerTrace;
use std::collections::VecDeque;

/// Sub-bucket resolution of [`LogHistogram`]: each power-of-two octave is
/// split into `2^SUB_BITS` linear sub-buckets, bounding the relative
/// quantile error at `2^-SUB_BITS` (≈3.2%).
const SUB_BITS: u32 = 5;
const SUB_BUCKETS: usize = 1 << SUB_BITS;
/// Bucket count covering the full `u64` range: the exact region
/// (`v < 2^SUB_BITS`) plus `64 - SUB_BITS` octaves of `SUB_BUCKETS` each.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB_BUCKETS;
/// Octave groups of [`LogHistogram`]'s buckets (the exact region counts as
/// octave 0): the bins [`DriftTracker`] counts quantized rates in.
const OCTAVES: usize = BUCKETS / SUB_BUCKETS;

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

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
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
}

// ---------------------------------------------------------------------------
// Streaming spike-rate drift tracking
// ---------------------------------------------------------------------------

/// Fixed-point scale of a spike *rate* (spikes per neuron per timestep,
/// a fraction in `[0, 1]`) as the [`DriftTracker`] quantizes it:
/// `rate_q = spikes * RATE_SCALE / (neurons * timesteps)`, i.e. spikes per
/// mebi-neuron-timestep, so power-of-two octaves of `rate_q` resolve rates
/// down to ~1e-6.
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

/// Octave of a quantized rate: `0` below `2^SUB_BITS`, then one per power
/// of two — the [`LogHistogram`] bucket group the rate would land in.
fn octave(rate_q: u64) -> usize {
    (64 - rate_q.leading_zeros()).saturating_sub(SUB_BITS) as usize
}

/// Jeffreys pseudo-count added to every octave by [`octave_kl`], so no
/// probability is ever zero and the divergence is always finite.
const KL_PSEUDO_COUNT: f64 = 0.5;

/// Kullback–Leibler divergence `KL(window ‖ baseline)` in nats between two
/// per-octave count distributions.
///
/// Rates are compared per power-of-two octave, not at a finer resolution:
/// with small sample windows, mass landing a few percent away from where
/// the baseline sampled would register as spurious divergence, while the
/// distribution shifts that actually invalidate the accelerator's
/// activity-calibrated estimates are ≥2× — a whole octave or more.
///
/// Each octave is smoothed with a Jeffreys pseudo-count
/// ([`KL_PSEUDO_COUNT`]) before normalisation, so the result is **always
/// finite and never NaN** — including when one or both sides are empty,
/// when all mass sits in one octave (e.g. a silent layer), or when the
/// supports are disjoint. Two empty sides diverge by exactly `0.0`, and any
/// distribution against itself by ~`0.0` (floating-point rounding only).
/// Both guarantees are proptested.
fn octave_kl(window: &[u64; OCTAVES], baseline: &[u64; OCTAVES]) -> f64 {
    let window_total: u64 = window.iter().sum();
    let baseline_total: u64 = baseline.iter().sum();
    if window_total == 0 && baseline_total == 0 {
        return 0.0;
    }
    let eps = KL_PSEUDO_COUNT;
    let p_total = window_total as f64 + eps * OCTAVES as f64;
    let q_total = baseline_total as f64 + eps * OCTAVES as f64;
    let mut kl = 0.0;
    for (&p_count, &q_count) in window.iter().zip(baseline) {
        let p = (p_count as f64 + eps) / p_total;
        let q = (q_count as f64 + eps) / q_total;
        kl += p * (p / q).ln();
    }
    // Smoothing keeps every term finite; rounding can leave the sum a hair
    // below zero, which the clamp removes (KL is non-negative).
    kl.max(0.0)
}

/// Per-layer state of a [`DriftTracker`]: the frozen calibration counts,
/// the sliding-window counts, and the ring of octaves currently in the
/// window (so the oldest can be taken back out exactly).
#[derive(Debug, Clone)]
struct LayerDrift {
    name: String,
    baseline: [u64; OCTAVES],
    window: [u64; OCTAVES],
    /// The window's octaves, oldest first; capacity fixed at construction,
    /// so steady-state observation never allocates.
    ring: VecDeque<u8>,
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
///    per-layer **baseline**: how many runs' quantized spike rates
///    (spikes per neuron-timestep, scaled by [`RATE_SCALE`]) fell in each
///    power-of-two octave.
/// 2. Every later run bumps the same per-octave counts of a per-layer
///    **sliding window**, whose ring of octaves takes the oldest run back
///    out — a few counter updates per layer, no allocation in steady state.
/// 3. [`DriftTracker::status`] computes the verdict when it is asked: the
///    largest per-layer smoothed KL divergence of window vs. baseline.
///    Above [`DriftConfig::threshold`] the run stream counts as
///    **drifted** and the serving registry flips the model's health to
///    Degraded.
///
/// Layer topology is learned from the first observation; later runs with
/// a different layer count are ignored (a swapped model gets a fresh
/// tracker via [`DriftTracker::reset`]).
///
/// # Example
///
/// ```
/// use snn_core::network::LayerTrace;
/// use snn_core::stats::{DriftConfig, DriftTracker};
///
/// let config = DriftConfig { calibration: 4, window: 8, min_window: 4, threshold: 0.5 };
/// let mut tracker = DriftTracker::new(config).unwrap();
/// // One layer of 1024 neurons firing 60 + 40 spikes over two timesteps.
/// let run = [LayerTrace {
///     name: "conv1".into(),
///     geometry: None,
///     input_events: vec![0, 0],
///     output_spikes: vec![60, 40],
///     output_neurons: 1024,
///     spikes: None,
/// }];
/// for _ in 0..4 {
///     tracker.observe(&run); // calibration
/// }
/// for _ in 0..8 {
///     tracker.observe(&run); // monitored window, same distribution
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
            config,
            layers: Vec::new(),
            observed: 0,
            calibrating_seen: 0,
        })
    }

    /// Quantizes one layer's spike rate (see [`RATE_SCALE`]).
    fn rate_q(spikes: u64, neurons: u64, timesteps: usize) -> u64 {
        let slots = neurons.saturating_mul(timesteps as u64).max(1);
        spikes.saturating_mul(RATE_SCALE) / slots
    }

    /// Folds one run's per-layer traces into the tracker: each layer's
    /// rate is its output spikes over its output neuron-timesteps. Runs
    /// with no layers (stub models) or a layer count different from the
    /// calibrated topology are ignored.
    pub fn observe(&mut self, traces: &[LayerTrace]) {
        if traces.is_empty() {
            return;
        }
        if self.layers.is_empty() {
            self.layers = traces
                .iter()
                .map(|trace| LayerDrift {
                    name: trace.name.clone(),
                    baseline: [0; OCTAVES],
                    window: [0; OCTAVES],
                    ring: VecDeque::with_capacity(self.config.window),
                })
                .collect();
        } else if self.layers.len() != traces.len() {
            return;
        }
        self.observed += 1;
        let calibrating = self.calibrating_seen < self.config.calibration;
        for (layer, trace) in self.layers.iter_mut().zip(traces) {
            let octave = octave(Self::rate_q(
                trace.total_output_spikes(),
                trace.output_neurons,
                trace.output_spikes.len(),
            ));
            if calibrating {
                layer.baseline[octave] += 1;
            } else {
                if layer.ring.len() == self.config.window {
                    if let Some(oldest) = layer.ring.pop_front() {
                        layer.window[usize::from(oldest)] -= 1;
                    }
                }
                // `octave` < OCTAVES = 60, so it fits a byte.
                layer.ring.push_back(octave as u8);
                layer.window[octave] += 1;
            }
        }
        if calibrating {
            self.calibrating_seen += 1;
        }
    }

    /// The current drift verdict, computed from the per-octave counts.
    /// Until the baseline has frozen and the window holds
    /// [`DriftConfig::min_window`] runs, it reports no divergence.
    pub fn status(&self) -> DriftStatus {
        let calibrated = self.calibrating_seen >= self.config.calibration;
        let window_fill = self.layers.first().map_or(0, |l| l.ring.len());
        let mut max_kl = 0.0_f64;
        let mut worst: Option<&str> = None;
        if calibrated && window_fill >= self.config.min_window {
            for layer in &self.layers {
                let kl = octave_kl(&layer.window, &layer.baseline);
                if kl > max_kl || worst.is_none() {
                    max_kl = kl;
                    worst = Some(&layer.name);
                }
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

    /// Forgets everything — baseline, window and topology — returning the
    /// tracker to the calibrating state. The serving registry calls this on
    /// every hot-swap and rollback: the baseline describes one deployed
    /// version's steady state, so a new (or restored) version recalibrates
    /// against its own traffic rather than inheriting a stale baseline.
    pub fn reset(&mut self) {
        self.layers.clear();
        self.observed = 0;
        self.calibrating_seen = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        assert_eq!(h.min, values[0]);
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
    fn log_histogram_empty_reads_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn log_histogram_handles_extreme_values() {
        let mut h = LogHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min, 0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    /// Per-octave counts of `values`, as the drift tracker bins rates.
    fn octaves_of(values: impl IntoIterator<Item = u64>) -> [u64; OCTAVES] {
        let mut counts = [0; OCTAVES];
        for v in values {
            counts[octave(v)] += 1;
        }
        counts
    }

    #[test]
    fn octave_kl_zero_for_identical_and_empty() {
        let empty = [0; OCTAVES];
        assert_eq!(octave_kl(&empty, &empty), 0.0);
        let counts = octaves_of([5u64, 9, 9, 1000, 4096]);
        let kl = octave_kl(&counts, &counts);
        assert!(kl.abs() < 1e-9, "self-KL should be ~0, got {kl}");
    }

    #[test]
    fn octave_kl_finite_on_disjoint_and_one_empty() {
        let low = octaves_of([1u64; 100]);
        let high = octaves_of([1u64 << 40; 100]);
        let kl = octave_kl(&low, &high);
        assert!(
            kl.is_finite() && kl > 0.0,
            "disjoint KL should be finite positive, got {kl}"
        );
        let empty = [0; OCTAVES];
        assert!(octave_kl(&low, &empty).is_finite());
        assert!(octave_kl(&empty, &low).is_finite());
        assert!(octave_kl(&empty, &low) >= 0.0);
    }

    #[test]
    fn octave_kl_separates_shifted_from_matching() {
        let baseline = octaves_of((0..200u64).map(|i| 1000 + i % 50));
        let same = octaves_of((0..200u64).map(|i| 1000 + (i * 7) % 50));
        let shifted = octaves_of((0..200u64).map(|i| 8000 + i % 50));
        let kl_same = octave_kl(&same, &baseline);
        let kl_shifted = octave_kl(&shifted, &baseline);
        assert!(
            kl_same < kl_shifted,
            "same {kl_same} vs shifted {kl_shifted}"
        );
        assert!(kl_shifted > 0.5);
    }

    /// One run's traces: layer `i` has 1024 neurons and fires `spikes[i]`
    /// spikes over `timesteps` timesteps (all of them in the first).
    fn drift_record(timesteps: usize, spikes: &[u64]) -> Vec<LayerTrace> {
        spikes
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let mut output_spikes = vec![0; timesteps];
                output_spikes[0] = s;
                LayerTrace {
                    name: format!("layer{i}"),
                    geometry: None,
                    input_events: vec![0; timesteps],
                    output_spikes,
                    output_neurons: 1024,
                    spikes: None,
                }
            })
            .collect()
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
        tracker.observe(&[]);
        assert_eq!(tracker.status().observed, 0);
        tracker.observe(&drift_record(4, &[100, 50]));
        tracker.observe(&drift_record(4, &[100])); // topology mismatch
        assert_eq!(tracker.status().observed, 1);
    }

    #[test]
    fn drift_tracker_zero_rate_layers_never_nan() {
        // An entirely silent layer (zero spikes) through calibration and
        // monitoring must never produce a NaN/∞ KL — the pseudo-count on
        // every octave guarantees it.
        let mut tracker = DriftTracker::new(small_drift_config()).unwrap();
        for _ in 0..64 {
            tracker.observe(&drift_record(4, &[0, 0]));
        }
        let status = tracker.status();
        assert!(status.max_kl.is_finite());
        assert!(!status.max_kl.is_nan());
        assert!(!status.drifted);
    }

    /// Folds `bytes` into an FNV-1a digest.
    fn fnv1a(hash: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *hash ^= u64::from(b);
            *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// A seeded 12-layer serving sequence under the default configuration:
    /// calibration, a stationary window that fills and slides, two ignored
    /// runs, a shift that flags drift, a reset and recalibration. Every
    /// field of every verdict, read after each observe, folds into one
    /// FNV-1a digest. The expected value was recorded from the tracker's
    /// earlier design, which kept full log-bucket histograms per layer, so
    /// the digest pins that design's verdicts bit for bit.
    #[test]
    fn drift_verdicts_keep_their_bits() {
        const EXPECTED_DRIFT_DIGEST: u64 = 0x6d16_d7a4_d785_6682;
        // Spikes per run over 1024 neurons × 2 timesteps: a silent layer,
        // nine at rates from 5e-4 to 0.7, and two whose counts overflow the
        // rate's fixed point into its top octaves.
        const BASE: [u64; 12] = [
            0,
            1,
            3,
            8,
            20,
            50,
            120,
            300,
            700,
            1500,
            1 << 40,
            u64::MAX / 4,
        ];
        let mut tracker = DriftTracker::new(DriftConfig::default()).unwrap();
        let mut hash = 0xCBF2_9CE4_8422_2325_u64;
        let mut draws = 0u64;
        let mut run = |shifted: bool| {
            let spikes: Vec<u64> = BASE
                .iter()
                .enumerate()
                .map(|(i, &base)| {
                    draws += 1;
                    let jitter = 48 + crate::splitmix64(0xD21F7 ^ draws) % 48;
                    let base = match (shifted, i) {
                        (true, 4 | 8) => base / 16,
                        (true, 6) => base * 4,
                        _ => base,
                    };
                    (u128::from(base) * u128::from(jitter) / 64) as u64
                })
                .collect();
            drift_record(2, &spikes)
        };
        let mut fold = |tracker: &DriftTracker| {
            let s = tracker.status();
            fnv1a(&mut hash, &[u8::from(s.calibrated), u8::from(s.drifted)]);
            fnv1a(&mut hash, &s.observed.to_le_bytes());
            fnv1a(&mut hash, &(s.window_fill as u64).to_le_bytes());
            fnv1a(&mut hash, &s.max_kl.to_bits().to_le_bytes());
            match &s.worst_layer {
                Some(name) => {
                    fnv1a(&mut hash, &[1]);
                    fnv1a(&mut hash, name.as_bytes());
                }
                None => fnv1a(&mut hash, &[0]),
            }
            s
        };
        let mut drifted = [0usize; 3];
        for _ in 0..122 {
            tracker.observe(&run(false));
            drifted[0] += usize::from(fold(&tracker).drifted);
        }
        // Ignored runs: no layers, then the wrong layer count.
        tracker.observe(&[]);
        fold(&tracker);
        tracker.observe(&drift_record(2, &[5; 11]));
        fold(&tracker);
        for _ in 0..50 {
            tracker.observe(&run(true));
            drifted[1] += usize::from(fold(&tracker).drifted);
        }
        tracker.reset();
        fold(&tracker);
        for _ in 0..40 {
            tracker.observe(&run(false));
            drifted[2] += usize::from(fold(&tracker).drifted);
        }
        let last = tracker.status();
        assert_eq!(drifted[0], 0, "stationary traffic flagged");
        assert!(drifted[1] > 30, "shift flagged in only {} runs", drifted[1]);
        assert_eq!(drifted[2], 0, "recalibrated traffic flagged");
        assert!(last.calibrated && last.window_fill == 8 && last.observed == 40);
        assert_eq!(hash, EXPECTED_DRIFT_DIGEST, "digest {hash:#018x}");
    }

    proptest! {
        /// A rate's octave is the group of 32 [`LogHistogram`] buckets it
        /// falls in, for every `u64` (`shift` spans every octave).
        #[test]
        fn octave_is_the_histogram_bucket_group(bits in any::<u64>(), shift in 0u32..64) {
            let v = bits >> shift;
            prop_assert_eq!(octave(v), LogHistogram::index(v) / SUB_BUCKETS);
            prop_assert!(octave(v) < OCTAVES);
        }

        /// KL divergence between the octave counts of any two value streams
        /// — including empty streams and all-zero (silent layer) streams —
        /// is always finite, never NaN, and non-negative: the pseudo-count's
        /// contract for the drift path.
        #[test]
        fn octave_kl_always_finite_nonnegative(
            p_values in proptest::collection::vec(0u64..u64::MAX, 0..64),
            q_values in proptest::collection::vec(0u64..u64::MAX, 0..64),
        ) {
            let p = octaves_of(p_values);
            let q = octaves_of(q_values);
            for (a, b) in [(&p, &q), (&q, &p), (&p, &p), (&q, &q)] {
                let kl = octave_kl(a, b);
                prop_assert!(kl.is_finite(), "KL not finite: {kl}");
                prop_assert!(!kl.is_nan(), "KL is NaN");
                prop_assert!(kl >= 0.0, "KL negative: {kl}");
            }
        }
    }
}
