//! Leaky integrate-and-fire (LIF) neuron model.
//!
//! Implements Eq. 1 and Eq. 2 of the paper:
//!
//! ```text
//! u_j[t+1] = beta * u_j[t] + sum_i w_ij * s_i[t] - s_j[t] * theta     (1)
//! s_j[t]   = 1 if u_j[t] > theta else 0                               (2)
//! ```
//!
//! The membrane potential decays by `beta` each timestep, integrates the
//! weighted input current, and is reduced by `theta` whenever the neuron fired
//! on the previous step (soft reset / "subtract threshold"). This is the
//! behaviour the paper's Activ units implement in both the dense and sparse
//! cores. [`LifPopulation`] is its one functional model; the accelerator
//! simulator models only the cycles of the activation phase.

use crate::error::SnnError;
use crate::spike::{for_each_bit, SpikePlane};
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Hyper-parameters of the LIF neuron (shared by a whole layer).
///
/// The paper tunes `beta = 0.15` and `theta = 0.5` for every layer of the
/// VGG9 models; [`LifParams::paper_default`] returns exactly that setting.
///
/// # Example
///
/// ```
/// use snn_core::neuron::LifParams;
///
/// let params = LifParams::paper_default();
/// assert_eq!(params.beta, 0.15);
/// assert_eq!(params.threshold, 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LifParams {
    /// Membrane decay factor `beta` in `[0, 1]`. Higher values retain more of
    /// the previous potential (less leak), which the paper notes leads to
    /// sparser firing.
    pub beta: f32,
    /// Firing threshold `theta`. A lower threshold increases firing frequency.
    pub threshold: f32,
}

impl LifParams {
    /// Creates a new parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] if `beta` is outside `[0, 1]` or the
    /// threshold is not strictly positive and finite.
    pub fn new(beta: f32, threshold: f32) -> Result<Self, SnnError> {
        if !(0.0..=1.0).contains(&beta) || !beta.is_finite() {
            return Err(SnnError::config("beta", "decay factor must be in [0, 1]"));
        }
        if threshold <= 0.0 || !threshold.is_finite() {
            return Err(SnnError::config(
                "threshold",
                "firing threshold must be positive and finite",
            ));
        }
        Ok(LifParams { beta, threshold })
    }

    /// The hyper-parameters used throughout the paper's evaluation
    /// (`beta = 0.15`, `theta = 0.5`).
    pub fn paper_default() -> Self {
        LifParams {
            beta: 0.15,
            threshold: 0.5,
        }
    }
}

impl Default for LifParams {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// A population of LIF neurons sharing one [`LifParams`], e.g. all neurons of
/// one layer's output feature maps.
///
/// The population keeps its membrane potentials between timesteps; call
/// [`LifPopulation::reset`] between input samples.
///
/// # Example
///
/// ```
/// use snn_core::neuron::{LifParams, LifPopulation};
///
/// # fn main() -> Result<(), snn_core::SnnError> {
/// let mut pop = LifPopulation::new(4, LifParams::new(0.5, 1.0)?);
/// // Drive every neuron with a constant current of 0.6: first step charges
/// // to 0.6 (below threshold), second step charges to 0.9, third to 1.05 > 1.
/// let input = vec![0.6; 4];
/// assert_eq!(pop.step(&input)?.iter().filter(|&&s| s).count(), 0);
/// assert_eq!(pop.step(&input)?.iter().filter(|&&s| s).count(), 0);
/// assert_eq!(pop.step(&input)?.iter().filter(|&&s| s).count(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LifPopulation {
    params: LifParams,
    membrane: Vec<f32>,
    fired_last: Vec<bool>,
    spikes_emitted: u64,
    steps: u64,
}

impl LifPopulation {
    /// Creates a population of `size` neurons at rest.
    pub fn new(size: usize, params: LifParams) -> Self {
        LifPopulation {
            params,
            membrane: vec![0.0; size],
            fired_last: vec![false; size],
            spikes_emitted: 0,
            steps: 0,
        }
    }

    /// Number of neurons in the population.
    pub fn len(&self) -> usize {
        self.membrane.len()
    }

    /// Returns `true` if the population has no neurons.
    pub fn is_empty(&self) -> bool {
        self.membrane.is_empty()
    }

    /// The shared neuron hyper-parameters.
    pub fn params(&self) -> LifParams {
        self.params
    }

    /// Current membrane potentials.
    pub fn membrane(&self) -> &[f32] {
        &self.membrane
    }

    /// Total number of spikes emitted since construction or the last
    /// [`LifPopulation::reset_statistics`] call.
    pub fn spikes_emitted(&self) -> u64 {
        self.spikes_emitted
    }

    /// Number of timesteps simulated since construction or the last
    /// [`LifPopulation::reset_statistics`] call.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Resets membrane potentials and firing history (but not statistics).
    pub fn reset(&mut self) {
        self.membrane.iter_mut().for_each(|u| *u = 0.0);
        self.fired_last.iter_mut().for_each(|f| *f = false);
    }

    /// Clears the spike/step counters.
    pub fn reset_statistics(&mut self) {
        self.spikes_emitted = 0;
        self.steps = 0;
    }

    /// Advances the population by one timestep given the summed synaptic
    /// input current for each neuron, returning the spike mask.
    ///
    /// Implements Eq. 1 followed by Eq. 2: the soft reset subtracts `theta`
    /// from the membrane of neurons that fired on the *previous* step, then
    /// adds the decayed potential and the new input, and finally thresholds.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::ShapeMismatch`] if `input` length differs from the
    /// population size, or [`SnnError::NumericalError`] if an input is
    /// non-finite.
    pub fn step(&mut self, input: &[f32]) -> Result<Vec<bool>, SnnError> {
        self.validate_input(input)?;
        let mut spikes = vec![false; self.membrane.len()];
        self.step_core(input, |word, bits| {
            for_each_bit(bits, |b| spikes[word * 64 + b] = true);
        });
        Ok(spikes)
    }

    /// The single membrane-update loop behind every `step*` variant: applies
    /// Eq. 1 / Eq. 2 to each neuron in index order, 64 neurons at a time,
    /// packs each group's firing decisions branch-free into one LSB-first
    /// `u64` word (the [`SpikePlane`] mask layout) and reports it through
    /// `emit(word_index, bits)`, returning the spike count. Keeping one
    /// implementation guarantees the event-driven and dense paths stay
    /// bit-identical. Callers must run [`LifPopulation::validate_input`]
    /// first.
    fn step_core(&mut self, input: &[f32], mut emit: impl FnMut(usize, u64)) -> usize {
        let LifParams { beta, threshold } = self.params;
        let mut count = 0usize;
        let groups = input
            .chunks(64)
            .zip(self.membrane.chunks_mut(64))
            .zip(self.fired_last.chunks_mut(64));
        for (word, ((xs, us), fired_last)) in groups.enumerate() {
            // Each neuron's reset only reads its own history, so the history
            // can be updated in the same pass; with no state carried between
            // neurons the loop vectorises.
            for ((&x, u), f) in xs.iter().zip(us.iter_mut()).zip(fired_last.iter_mut()) {
                let reset = if *f { threshold } else { 0.0 };
                let next = beta * *u + x - reset;
                *u = next;
                *f = next > threshold;
            }
            // Packing the group's new history afterwards keeps the bit chain
            // out of the update loop (fusing it there measured ~2x slower).
            let bits = fired_last
                .iter()
                .rev()
                .fold(0_u64, |acc, &f| (acc << 1) | u64::from(f));
            count += bits.count_ones() as usize;
            emit(word, bits);
        }
        self.spikes_emitted += count as u64;
        self.steps += 1;
        count
    }

    /// Rejects wrongly-sized and non-finite inputs up front, leaving every
    /// piece of state (membranes, history, caller output buffers) untouched
    /// on failure — and keeping the update loop free of early exits. The
    /// finiteness check is a branch-free fold over the whole input; only the
    /// error path rescans to name the offending neuron. Every public `step*`
    /// entry point calls this before touching its output buffer.
    fn validate_input(&self, input: &[f32]) -> Result<(), SnnError> {
        if input.len() != self.membrane.len() {
            return Err(SnnError::shape(
                &[self.membrane.len()],
                &[input.len()],
                "LifPopulation::step input",
            ));
        }
        if !input.iter().fold(true, |ok, x| ok & x.is_finite()) {
            let (i, x) = input
                .iter()
                .enumerate()
                .find(|(_, x)| !x.is_finite())
                .expect("the fold saw a non-finite input");
            return Err(SnnError::numerical(format!(
                "non-finite input current {x} at neuron {i}"
            )));
        }
        Ok(())
    }

    /// Like [`LifPopulation::step`] but takes and returns [`Tensor`]s of any
    /// shape whose element count matches the population size. The returned
    /// tensor contains 0.0/1.0 spike values in the same shape as the input.
    ///
    /// # Errors
    ///
    /// Propagates the same errors as [`LifPopulation::step`].
    pub fn step_tensor(&mut self, input: &Tensor) -> Result<Tensor, SnnError> {
        let mut out = Tensor::zeros(&[0]);
        self.step_into(input, &mut out)?;
        Ok(out)
    }

    /// Allocation-free variant of [`LifPopulation::step_tensor`]: writes the
    /// 0.0/1.0 spike frame directly into `out` (reshaped/reused in place) and
    /// returns the number of spikes emitted this step, so callers need no
    /// separate `count_nonzero` rescan.
    ///
    /// # Errors
    ///
    /// Propagates the same errors as [`LifPopulation::step`].
    pub fn step_into(&mut self, input: &Tensor, out: &mut Tensor) -> Result<usize, SnnError> {
        self.validate_input(input.as_slice())?;
        out.reset_to(input.shape(), 0.0);
        let data = out.as_mut_slice();
        Ok(self.step_core(input.as_slice(), |word, bits| {
            for_each_bit(bits, |b| data[word * 64 + b] = 1.0);
        }))
    }

    /// Event-emitting variant of [`LifPopulation::step_into`]: writes the
    /// spike frame into `out`'s dense backing *and* its mask words in the
    /// same pass, producing the [`SpikePlane`] the event-driven layer
    /// forwards consume. Each 64-neuron group's fire bits land as one mask
    /// word, plus the dense 1.0 cells of its set bits. Returns the spike
    /// count.
    ///
    /// # Errors
    ///
    /// Propagates the same errors as [`LifPopulation::step`].
    pub fn step_plane(&mut self, input: &Tensor, out: &mut SpikePlane) -> Result<usize, SnnError> {
        self.validate_input(input.as_slice())?;
        out.begin(input.shape());
        Ok(self.step_core(input.as_slice(), |word, bits| out.push_word(word, bits)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Eq. 1–2 for one neuron, written out directly: the oracle the
    /// population's vectorised update is checked against. Returns the new
    /// membrane potential and whether the neuron fires.
    fn lif_update(params: LifParams, membrane: f32, input: f32, fired_last: bool) -> (f32, bool) {
        let reset = if fired_last { params.threshold } else { 0.0 };
        let next = params.beta * membrane + input - reset;
        (next, next > params.threshold)
    }

    #[test]
    fn params_validate_ranges() {
        assert!(LifParams::new(0.15, 0.5).is_ok());
        assert!(LifParams::new(-0.1, 0.5).is_err());
        assert!(LifParams::new(1.1, 0.5).is_err());
        assert!(LifParams::new(0.5, 0.0).is_err());
        assert!(LifParams::new(0.5, -1.0).is_err());
        assert!(LifParams::new(f32::NAN, 0.5).is_err());
    }

    #[test]
    fn paper_default_matches_section_v() {
        let p = LifParams::paper_default();
        assert_eq!(p.beta, 0.15);
        assert_eq!(p.threshold, 0.5);
        assert_eq!(LifParams::default(), p);
    }

    #[test]
    fn neuron_fires_when_threshold_exceeded() {
        let mut pop = LifPopulation::new(1, LifParams::new(0.0, 0.5).unwrap());
        let spikes = pop.step(&[0.6]).unwrap();
        assert!(spikes[0]);
        assert_eq!(pop.spikes_emitted(), 1);
    }

    #[test]
    fn neuron_does_not_fire_below_threshold() {
        let mut pop = LifPopulation::new(1, LifParams::new(0.0, 0.5).unwrap());
        let spikes = pop.step(&[0.4]).unwrap();
        assert!(!spikes[0]);
    }

    #[test]
    fn soft_reset_subtracts_threshold_after_firing() {
        // beta = 1 (no leak), threshold = 1.0.
        let mut pop = LifPopulation::new(1, LifParams::new(1.0, 1.0).unwrap());
        // Step 1: u = 1.5 > 1.0 -> fires.
        assert!(pop.step(&[1.5]).unwrap()[0]);
        // Step 2: u = 1.5 (carried) + 0 - 1.0 (reset) = 0.5 -> no fire.
        assert!(!pop.step(&[0.0]).unwrap()[0]);
        assert!((pop.membrane()[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn decay_reduces_membrane() {
        let mut pop = LifPopulation::new(1, LifParams::new(0.5, 10.0).unwrap());
        pop.step(&[1.0]).unwrap();
        assert!((pop.membrane()[0] - 1.0).abs() < 1e-6);
        pop.step(&[0.0]).unwrap();
        assert!((pop.membrane()[0] - 0.5).abs() < 1e-6);
        pop.step(&[0.0]).unwrap();
        assert!((pop.membrane()[0] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn step_rejects_wrong_length() {
        let mut pop = LifPopulation::new(3, LifParams::paper_default());
        assert!(pop.step(&[0.0, 0.0]).is_err());
    }

    #[test]
    fn step_rejects_non_finite_input() {
        let mut pop = LifPopulation::new(1, LifParams::paper_default());
        assert!(pop.step(&[f32::NAN]).is_err());
        assert!(pop.step(&[f32::INFINITY]).is_err());
    }

    #[test]
    fn reset_clears_membrane_and_history() {
        let mut pop = LifPopulation::new(2, LifParams::new(1.0, 0.5).unwrap());
        pop.step(&[1.0, 1.0]).unwrap();
        pop.reset();
        assert!(pop.membrane().iter().all(|&u| u == 0.0));
        // Statistics survive reset.
        assert_eq!(pop.spikes_emitted(), 2);
        pop.reset_statistics();
        assert_eq!(pop.spikes_emitted(), 0);
        assert_eq!(pop.steps(), 0);
    }

    #[test]
    fn step_tensor_preserves_shape() {
        let mut pop = LifPopulation::new(4, LifParams::new(0.0, 0.5).unwrap());
        let input = Tensor::from_vec(vec![1.0, 0.0, 1.0, 0.0], &[2, 2]).unwrap();
        let out = pop.step_tensor(&input).unwrap();
        assert_eq!(out.shape(), &[2, 2]);
        assert_eq!(out.as_slice(), &[1.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn step_into_matches_step_tensor_and_counts_spikes() {
        let params = LifParams::new(0.4, 0.5).unwrap();
        let mut a = LifPopulation::new(6, params);
        let mut b = LifPopulation::new(6, params);
        let mut out = Tensor::zeros(&[0]);
        for t in 0..12 {
            let input = Tensor::from_fn(&[2, 3], |i| ((i + t) as f32 * 0.37).sin().abs());
            let reference = a.step_tensor(&input).unwrap();
            let count = b.step_into(&input, &mut out).unwrap();
            assert_eq!(out.as_slice(), reference.as_slice(), "step {t}");
            assert_eq!(out.shape(), reference.shape());
            assert_eq!(count, reference.count_nonzero());
            assert_eq!(a.membrane(), b.membrane());
        }
        assert_eq!(a.spikes_emitted(), b.spikes_emitted());
        assert_eq!(a.steps(), b.steps());
    }

    #[test]
    fn step_into_leaves_output_untouched_on_invalid_input() {
        let mut pop = LifPopulation::new(3, LifParams::paper_default());
        let mut out = Tensor::from_vec(vec![1.0, 0.0, 1.0], &[3]).unwrap();
        let before = out.clone();
        assert!(pop.step_into(&Tensor::zeros(&[2]), &mut out).is_err());
        assert!(pop
            .step_into(
                &Tensor::from_vec(vec![0.0, f32::NAN, 0.0], &[3]).unwrap(),
                &mut out
            )
            .is_err());
        assert_eq!(out, before, "error paths must not clobber the out buffer");
        assert!(pop.membrane().iter().all(|&u| u == 0.0));
    }

    #[test]
    fn stateless_update_matches_population() {
        let params = LifParams::new(0.3, 0.7).unwrap();
        let mut pop = LifPopulation::new(1, params);
        let mut u = 0.0;
        let mut fired = false;
        for t in 0..20 {
            let x = (t as f32 * 0.37).sin().abs();
            let spikes = pop.step(&[x]).unwrap();
            let (nu, nf) = lif_update(params, u, x, fired);
            u = nu;
            fired = nf;
            assert_eq!(spikes[0], nf, "divergence at step {t}");
            assert_eq!(pop.membrane()[0].to_bits(), u.to_bits(), "step {t}");
        }
    }

    proptest! {
        /// The word-emitting `step_plane` agrees with the dense `step_tensor`
        /// reference over several timesteps, at population sizes straddling
        /// the 64-neuron word boundaries, on a plane first used for a larger
        /// all-spiking frame: the dense bits, the mask words (clean tail
        /// word included), the spike count and the membranes all match.
        #[test]
        fn step_plane_emits_active_indices_in_order(
            size_idx in 0_usize..7,
            beta in 0.0_f32..1.0,
            seed in 0_u64..1000,
            steps in 1_usize..6,
        ) {
            use crate::test_support::{assert_plane_views_agree, assert_tensor_bits_eq};
            let size = [1_usize, 63, 64, 65, 127, 129, 2048][size_idx];
            let params = LifParams::new(beta, 0.5).unwrap();
            let mut a = LifPopulation::new(size, params);
            let mut b = LifPopulation::new(size, params);
            let mut plane = SpikePlane::from_tensor(&Tensor::ones(&[size + 70]));
            for t in 0..steps {
                let input = Tensor::from_fn(&[size], |i| {
                    let h = crate::splitmix64(seed ^ ((i * 8 + t) as u64).wrapping_mul(0x9e37));
                    (h % 1000) as f32 * 1.2e-3
                });
                let reference = a.step_tensor(&input).unwrap();
                let count = b.step_plane(&input, &mut plane).unwrap();
                let ctx = format!("size {size} step {t}");
                assert_tensor_bits_eq(plane.dense(), &reference, &ctx);
                // `step_tensor` shares the word packing, so also check the
                // bits against Eq. 2 applied to the new membranes.
                let fired = Tensor::from_fn(&[size], |i| f32::from(b.membrane()[i] > 0.5));
                assert_tensor_bits_eq(plane.dense(), &fired, &ctx);
                assert_plane_views_agree(&plane, &ctx);
                prop_assert!(plane.is_binary());
                prop_assert_eq!(count, reference.count_nonzero());
                prop_assert_eq!(count, plane.count_active());
                let (ua, ub) = (a.membrane(), b.membrane());
                prop_assert!(ua.iter().zip(ub).all(|(x, y)| x.to_bits() == y.to_bits()));
            }
            prop_assert_eq!(a.spikes_emitted(), b.spikes_emitted());
        }

        /// Higher thresholds never produce more spikes for the same input
        /// drive (monotonicity claimed implicitly in Sec. II-A).
        #[test]
        fn higher_threshold_never_fires_more(
            inputs in proptest::collection::vec(0.0_f32..2.0, 1..50),
            theta_low in 0.1_f32..1.0,
            delta in 0.0_f32..2.0,
        ) {
            let theta_high = theta_low + delta;
            let mut low = LifPopulation::new(1, LifParams::new(0.5, theta_low).unwrap());
            let mut high = LifPopulation::new(1, LifParams::new(0.5, theta_high).unwrap());
            for &x in &inputs {
                low.step(&[x]).unwrap();
                high.step(&[x]).unwrap();
            }
            prop_assert!(high.spikes_emitted() <= low.spikes_emitted());
        }

        /// Membrane potential stays finite for bounded inputs.
        #[test]
        fn membrane_stays_finite(
            inputs in proptest::collection::vec(-5.0_f32..5.0, 1..100),
            beta in 0.0_f32..1.0,
        ) {
            let mut pop = LifPopulation::new(1, LifParams::new(beta, 0.5).unwrap());
            for &x in &inputs {
                pop.step(&[x]).unwrap();
                prop_assert!(pop.membrane()[0].is_finite());
            }
        }

        /// With zero input the neuron never fires and the membrane decays
        /// towards zero.
        #[test]
        fn zero_input_never_fires(steps in 1_usize..100, beta in 0.0_f32..1.0) {
            let mut pop = LifPopulation::new(3, LifParams::new(beta, 0.5).unwrap());
            for _ in 0..steps {
                let spikes = pop.step(&[0.0, 0.0, 0.0]).unwrap();
                prop_assert!(spikes.iter().all(|&s| !s));
            }
            prop_assert_eq!(pop.spikes_emitted(), 0);
        }
    }
}
