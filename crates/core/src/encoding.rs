//! Input encoders: direct coding and rate coding.
//!
//! The paper's central comparison (Table II) is between *direct coding* —
//! where the raw floating-point image is presented to the first convolution
//! layer at every timestep and the first LIF layer converts the resulting
//! membrane potentials into spikes — and *rate coding*, where each pixel is
//! converted into a Bernoulli spike train whose firing probability is
//! proportional to the pixel intensity.
//!
//! Direct coding therefore produces a *dense, analog* input layer workload
//! (handled by the accelerator's dense core) while every later layer is
//! sparse and binary; rate coding produces binary spikes from the start and
//! only needs the sparse cores.

use crate::error::SnnError;
use crate::spike::SpikePlane;
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// How an input image is turned into the per-timestep drive of the first
/// layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CodingScheme {
    /// The analog image is presented unchanged at every timestep.
    Direct,
    /// Each pixel fires a Bernoulli spike with probability proportional to
    /// its (clamped) intensity, independently at every timestep.
    Rate,
}

impl std::fmt::Display for CodingScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodingScheme::Direct => write!(f, "direct"),
            CodingScheme::Rate => write!(f, "rate"),
        }
    }
}

/// An input encoder: a coding scheme plus the number of timesteps.
///
/// The paper uses 2 timesteps for direct coding and 25 for rate coding
/// (Table II); [`Encoder::direct`] and [`Encoder::rate`] are convenience
/// constructors, and [`Encoder::paper_direct`] / [`Encoder::paper_rate`]
/// return those exact operating points.
///
/// # Example
///
/// ```
/// use snn_core::encoding::Encoder;
/// use snn_core::tensor::Tensor;
///
/// # fn main() -> Result<(), snn_core::SnnError> {
/// let image = Tensor::full(&[1, 2, 2], 0.8);
/// let enc = Encoder::direct(2);
/// let frames = enc.encode(&image, 42)?;
/// assert_eq!(frames.len(), 2);
/// // Direct coding repeats the analog image unchanged.
/// assert_eq!(frames[0], image);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Encoder {
    /// The coding scheme.
    pub scheme: CodingScheme,
    /// Number of presentation timesteps `T`.
    pub timesteps: usize,
}

impl Encoder {
    /// Creates a direct-coding encoder with `timesteps` presentations.
    pub fn direct(timesteps: usize) -> Self {
        Encoder {
            scheme: CodingScheme::Direct,
            timesteps,
        }
    }

    /// Creates a rate-coding encoder with `timesteps` presentations.
    pub fn rate(timesteps: usize) -> Self {
        Encoder {
            scheme: CodingScheme::Rate,
            timesteps,
        }
    }

    /// The paper's direct-coding operating point: `T = 2`.
    pub fn paper_direct() -> Self {
        Encoder::direct(2)
    }

    /// The paper's rate-coding operating point: `T = 25`.
    pub fn paper_rate() -> Self {
        Encoder::rate(25)
    }

    /// Encodes an image into per-timestep input frames.
    ///
    /// For [`CodingScheme::Direct`] every frame is a clone of the input; for
    /// [`CodingScheme::Rate`] each frame contains independent Bernoulli spikes
    /// with firing probability `clamp(|pixel|, 0, 1)`. The `seed` makes rate
    /// coding deterministic, which the experiments rely on.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] if `timesteps == 0`.
    pub fn encode(&self, image: &Tensor, seed: u64) -> Result<Vec<Tensor>, SnnError> {
        let mut planes = Vec::new();
        self.encode_planes_into(image, seed, &mut planes)?;
        Ok(planes.into_iter().map(|p| p.dense().clone()).collect())
    }

    /// Event-producing variant of [`Encoder::encode`]: fills `frames` with
    /// per-timestep [`SpikePlane`]s (dense backing plus mask words),
    /// reusing the vector's existing plane allocations across calls. This is
    /// what the inference run loop consumes; the dense backings are
    /// bit-identical to [`Encoder::encode`]'s frames for the same seed.
    ///
    /// Rate-coded frames are binary spike planes; direct-coded frames carry
    /// the analog image (`is_binary() == false` in general) and mask words
    /// marking its non-zero pixels.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] if `timesteps == 0`.
    pub fn encode_planes_into(
        &self,
        image: &Tensor,
        seed: u64,
        frames: &mut Vec<SpikePlane>,
    ) -> Result<(), SnnError> {
        if self.timesteps == 0 {
            return Err(SnnError::config(
                "timesteps",
                "must encode at least one timestep",
            ));
        }
        frames.resize_with(self.timesteps, SpikePlane::new);
        match self.scheme {
            CodingScheme::Direct => {
                // Every timestep presents the same analog frame: scan once,
                // then copy the plane (allocation-reusing clone_from).
                let (first, rest) = frames.split_first_mut().expect("timesteps >= 1");
                first.assign(image);
                for frame in rest {
                    frame.clone_from(first);
                }
            }
            CodingScheme::Rate => {
                let mut rng = StdRng::seed_from_u64(seed);
                for frame in frames.iter_mut() {
                    frame.begin(image.shape());
                    for (i, &p) in image.as_slice().iter().enumerate() {
                        let prob = p.abs().clamp(0.0, 1.0);
                        if rng.gen::<f32>() < prob {
                            frame.push(i);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Number of non-zero input values the encoder will feed into the first
    /// layer across all timesteps (the "input spikes" of the workload model).
    ///
    /// For direct coding this counts non-zero analog pixels once per timestep;
    /// for rate coding it returns the *expected* spike count, which the
    /// benches use to reason about workload without sampling.
    pub fn expected_input_events(&self, image: &Tensor) -> f64 {
        match self.scheme {
            CodingScheme::Direct => image.count_nonzero() as f64 * self.timesteps as f64,
            CodingScheme::Rate => {
                let sum_prob: f64 = image
                    .as_slice()
                    .iter()
                    .map(|&p| f64::from(p.abs().clamp(0.0, 1.0)))
                    .sum();
                sum_prob * self.timesteps as f64
            }
        }
    }

    /// Whether the first layer's input is binary (true for rate coding).
    ///
    /// The accelerator uses this to decide whether the dense core is needed:
    /// rate-coded networks bypass it entirely (Sec. V-D).
    pub fn produces_binary_input(&self) -> bool {
        matches!(self.scheme, CodingScheme::Rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn direct_encoding_repeats_image() {
        let image = Tensor::from_vec(vec![0.1, 0.5, 0.0, 0.9], &[1, 2, 2]).unwrap();
        let frames = Encoder::direct(3).encode(&image, 0).unwrap();
        assert_eq!(frames.len(), 3);
        assert!(frames.iter().all(|f| *f == image));
    }

    #[test]
    fn rate_encoding_is_binary() {
        let image = Tensor::full(&[1, 4, 4], 0.5);
        let frames = Encoder::rate(5).encode(&image, 7).unwrap();
        assert_eq!(frames.len(), 5);
        for frame in &frames {
            assert!(frame.as_slice().iter().all(|&v| v == 0.0 || v == 1.0));
        }
    }

    #[test]
    fn rate_encoding_is_deterministic_per_seed() {
        let image = Tensor::full(&[1, 8, 8], 0.3);
        let a = Encoder::rate(4).encode(&image, 99).unwrap();
        let b = Encoder::rate(4).encode(&image, 99).unwrap();
        let c = Encoder::rate(4).encode(&image, 100).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn rate_extremes_always_or_never_fire() {
        let ones = Tensor::ones(&[1, 4, 4]);
        let zeros = Tensor::zeros(&[1, 4, 4]);
        let on = Encoder::rate(3).encode(&ones, 1).unwrap();
        let off = Encoder::rate(3).encode(&zeros, 1).unwrap();
        assert!(on.iter().all(|f| f.count_nonzero() == 16));
        assert!(off.iter().all(|f| f.count_nonzero() == 0));
    }

    #[test]
    fn zero_timesteps_is_rejected() {
        let image = Tensor::ones(&[1, 2, 2]);
        assert!(Encoder::direct(0).encode(&image, 0).is_err());
        assert!(Encoder::rate(0).encode(&image, 0).is_err());
        let mut planes = Vec::new();
        assert!(Encoder::rate(0)
            .encode_planes_into(&image, 0, &mut planes)
            .is_err());
    }

    #[test]
    fn encode_planes_matches_encode_for_both_schemes() {
        let image = Tensor::from_fn(&[2, 4, 4], |i| ((i as f32) * 0.21).sin().abs() * 0.9);
        for enc in [Encoder::direct(3), Encoder::rate(5)] {
            let frames = enc.encode(&image, 42).unwrap();
            let mut planes = Vec::new();
            enc.encode_planes_into(&image, 42, &mut planes).unwrap();
            assert_eq!(planes.len(), frames.len());
            for (plane, frame) in planes.iter().zip(frames.iter()) {
                assert_eq!(plane.dense(), frame);
                assert_eq!(plane.count_active(), frame.count_nonzero());
                if enc.produces_binary_input() {
                    assert!(plane.is_binary());
                }
            }
            // Reusing the buffer (with stale contents) reproduces the result.
            enc.encode_planes_into(&image, 42, &mut planes).unwrap();
            for (plane, frame) in planes.iter().zip(frames.iter()) {
                assert_eq!(plane.dense(), frame);
            }
        }
    }

    #[test]
    fn paper_operating_points() {
        assert_eq!(Encoder::paper_direct().timesteps, 2);
        assert_eq!(Encoder::paper_rate().timesteps, 25);
        assert_eq!(Encoder::paper_direct().scheme, CodingScheme::Direct);
        assert_eq!(Encoder::paper_rate().scheme, CodingScheme::Rate);
    }

    #[test]
    fn binary_input_flag() {
        assert!(!Encoder::direct(2).produces_binary_input());
        assert!(Encoder::rate(25).produces_binary_input());
    }

    #[test]
    fn expected_events_direct_counts_nonzero_pixels() {
        let image = Tensor::from_vec(vec![0.0, 0.2, 0.0, 0.7], &[1, 2, 2]).unwrap();
        let enc = Encoder::direct(3);
        assert_eq!(enc.expected_input_events(&image), 6.0);
    }

    #[test]
    fn expected_events_rate_uses_probabilities() {
        let image = Tensor::from_vec(vec![0.5, 1.0, 0.0, 2.0], &[1, 2, 2]).unwrap();
        let enc = Encoder::rate(10);
        // probabilities clamp to [0,1]: 0.5 + 1.0 + 0.0 + 1.0 = 2.5, × 10 steps.
        assert!((enc.expected_input_events(&image) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn display_names() {
        assert_eq!(CodingScheme::Direct.to_string(), "direct");
        assert_eq!(CodingScheme::Rate.to_string(), "rate");
    }

    proptest! {
        /// Rate-coded spike counts concentrate near the expected value for a
        /// uniform image (law of large numbers sanity check).
        #[test]
        fn rate_spike_count_tracks_probability(p in 0.1_f32..0.9) {
            let image = Tensor::full(&[1, 32, 32], p);
            let enc = Encoder::rate(8);
            let frames = enc.encode(&image, 123).unwrap();
            let total: usize = frames.iter().map(Tensor::count_nonzero).sum();
            let expected = enc.expected_input_events(&image);
            // 5-sigma-ish band for a binomial with n = 8192.
            let n = 8.0 * 1024.0;
            let sigma = (n * f64::from(p) * (1.0 - f64::from(p))).sqrt();
            prop_assert!((total as f64 - expected).abs() < 6.0 * sigma + 1.0);
        }

        /// Direct coding never alters pixel values.
        #[test]
        fn direct_preserves_values(
            pixels in proptest::collection::vec(-2.0_f32..2.0, 16),
            t in 1_usize..6,
        ) {
            let image = Tensor::from_vec(pixels, &[1, 4, 4]).unwrap();
            let frames = Encoder::direct(t).encode(&image, 0).unwrap();
            prop_assert_eq!(frames.len(), t);
            for frame in frames {
                prop_assert_eq!(frame.as_slice(), image.as_slice());
            }
        }
    }
}
