//! Synthetic activity traces.
//!
//! The hardware experiments (Table II, Table III, Fig. 4) are driven by the
//! per-layer spike counts of a *trained* VGG9. Training the full-scale
//! network is outside this reproduction's budget, so this module provides a
//! calibrated substitute: [`synthetic_traces`] fabricates the per-layer
//! [`LayerTrace`]s for a given geometry from per-layer firing densities, and
//! [`ActivityProfile::paper_direct`] / [`ActivityProfile::paper_rate`] derive
//! those densities from the activity the paper itself reports (e.g. ≈41 K
//! total spikes for the direct-coded CIFAR-10 VGG9 at T = 2, ≈107 K for the
//! rate-coded one at T = 25, and the 6–15 % int4 reductions of Fig. 1).
//!
//! Every harness states its activity source in its module docs: Table II
//! and Table III use these synthetic traces, Fig. 4 runs the network.

use serde::{Deserialize, Serialize};
use snn_core::error::SnnError;
use snn_core::network::{LayerGeometry, LayerTrace};

/// Per-layer firing activity of a network run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActivityProfile {
    /// Fraction of neurons firing per timestep, per weight layer
    /// (index-aligned with the geometry).
    pub layer_density: Vec<f64>,
    /// Number of timesteps.
    pub timesteps: usize,
    /// Fraction of non-zero analog pixels feeding the (dense) input layer.
    pub input_density: f64,
}

impl ActivityProfile {
    /// A uniform profile: every layer fires `density` of its neurons each
    /// timestep.
    pub fn uniform(layers: usize, density: f64, timesteps: usize) -> Self {
        ActivityProfile {
            layer_density: vec![density.clamp(0.0, 1.0); layers],
            timesteps,
            input_density: 1.0,
        }
    }

    /// Activity of the paper's direct-coded, trained VGG9 (Table II reports
    /// ≈41 K spikes over T = 2 for CIFAR-10, i.e. a few percent of the
    /// ~1.1 M neuron-timesteps): early conv layers fire the most, deeper
    /// layers become progressively sparser.
    pub fn paper_direct(layers: usize) -> Self {
        let mut density = Vec::with_capacity(layers);
        for i in 0..layers {
            // Geometric decay from ~6% at the first spiking layer down to a
            // fraction of a percent at the readout, matching the qualitative
            // layer-wise sparsity the paper's workload model relies on.
            density.push(0.06 * 0.65_f64.powi(i as i32) + 0.002);
        }
        ActivityProfile {
            layer_density: density,
            timesteps: 2,
            input_density: 0.95,
        }
    }

    /// Activity of the paper's rate-coded VGG9 (Table II: ≈107 K spikes over
    /// T = 25 — fewer spikes *per timestep* than direct coding, but many more
    /// timesteps).
    pub fn paper_rate(layers: usize) -> Self {
        let mut profile = Self::paper_direct(layers);
        for d in &mut profile.layer_density {
            // Per-timestep activity drops roughly 5x while T grows 12.5x,
            // which reproduces the paper's 2.6x total-spike ratio.
            *d /= 5.0;
        }
        profile.timesteps = 25;
        profile.input_density = 0.35;
        profile
    }

    /// Applies the Fig. 1 quantization effect: an int4 model fires
    /// `reduction_percent` fewer spikes than its fp32 counterpart.
    #[must_use]
    pub fn with_quantization_reduction(mut self, reduction_percent: f64) -> Self {
        let factor = (1.0 - reduction_percent / 100.0).clamp(0.0, 1.0);
        for d in &mut self.layer_density {
            *d *= factor;
        }
        self
    }

    /// Scales the number of timesteps (densities are per timestep and stay
    /// unchanged).
    #[must_use]
    pub fn with_timesteps(mut self, timesteps: usize) -> Self {
        self.timesteps = timesteps;
        self
    }
}

/// Builds per-layer traces for `geometry` from an activity profile.
///
/// Layer `i`'s *output* spikes per timestep are `density[i] × output_neurons`;
/// layer `i + 1`'s input events are layer `i`'s output spikes (with pooling
/// collapsing at most 4 spikes into 1, approximated by a 0.55 survival factor
/// after the layers the paper pools after). The input layer's events are the
/// non-zero analog pixels (direct coding) repeated every timestep.
///
/// # Errors
///
/// Returns [`SnnError::InvalidConfig`] if the profile does not cover every
/// layer or has zero timesteps.
pub fn synthetic_traces(
    geometry: &[LayerGeometry],
    profile: &ActivityProfile,
) -> Result<Vec<LayerTrace>, SnnError> {
    if profile.layer_density.len() < geometry.len() {
        return Err(SnnError::config(
            "layer_density",
            format!(
                "profile covers {} layers but the geometry has {}",
                profile.layer_density.len(),
                geometry.len()
            ),
        ));
    }
    if profile.timesteps == 0 {
        return Err(SnnError::config(
            "timesteps",
            "at least one timestep is required",
        ));
    }
    let mut traces = Vec::with_capacity(geometry.len());
    // Events entering the first layer: dense analog pixels.
    let first = &geometry[0];
    let mut incoming_per_step =
        (first.in_channels * first.in_height * first.in_width) as f64 * profile.input_density;
    for (i, geo) in geometry.iter().enumerate() {
        let input_events: Vec<u64> = (0..profile.timesteps)
            .map(|_| incoming_per_step.round() as u64)
            .collect();
        let out_neurons = geo.output_neurons() as f64;
        let out_spikes_per_step = (out_neurons * profile.layer_density[i]).round();
        let output_spikes: Vec<u64> = (0..profile.timesteps)
            .map(|_| out_spikes_per_step as u64)
            .collect();
        traces.push(LayerTrace {
            name: geo.name.clone(),
            geometry: Some(geo.clone()),
            input_events,
            output_spikes,
            output_neurons: geo.output_neurons() as u64,
            spikes: None,
        });
        // The next layer consumes these spikes; pooling after CONV1_2,
        // CONV2_2 and CONV3_3 (layer indices 1, 3, 6 of the paper's VGG9)
        // merges 2x2 windows, surviving with factor ~0.55 for sparse maps.
        let pooled = matches!(i, 1 | 3 | 6);
        incoming_per_step = if pooled {
            out_spikes_per_step * 0.55
        } else {
            out_spikes_per_step
        };
    }
    Ok(traces)
}

/// Total output spikes across all layers and timesteps of a trace set.
pub fn total_spikes(traces: &[LayerTrace]) -> u64 {
    traces.iter().map(LayerTrace::total_output_spikes).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use snn_core::network::{vgg9, Vgg9Config};

    fn geometry() -> Vec<LayerGeometry> {
        vgg9(&Vgg9Config::cifar10()).unwrap().geometry().unwrap()
    }

    #[test]
    fn traces_cover_every_layer_with_consistent_timesteps() {
        let geo = geometry();
        let profile = ActivityProfile::paper_direct(geo.len());
        let traces = synthetic_traces(&geo, &profile).unwrap();
        assert_eq!(traces.len(), geo.len());
        for t in &traces {
            assert_eq!(t.input_events.len(), 2);
            assert_eq!(t.output_spikes.len(), 2);
            assert!(t.geometry.is_some());
        }
    }

    #[test]
    fn direct_profile_is_sparser_in_deeper_layers() {
        let p = ActivityProfile::paper_direct(9);
        for i in 1..9 {
            assert!(p.layer_density[i] <= p.layer_density[i - 1]);
        }
        assert!(p.layer_density[0] < 0.2);
    }

    #[test]
    fn rate_profile_has_more_total_spikes_than_direct() {
        let geo = geometry();
        let direct = synthetic_traces(&geo, &ActivityProfile::paper_direct(geo.len())).unwrap();
        let rate = synthetic_traces(&geo, &ActivityProfile::paper_rate(geo.len())).unwrap();
        let ratio = total_spikes(&rate) as f64 / total_spikes(&direct) as f64;
        // The paper reports 2.6x more spikes for rate coding (Table II).
        assert!(
            (1.5..=5.0).contains(&ratio),
            "rate/direct spike ratio {ratio:.2} outside the expected band"
        );
    }

    #[test]
    fn quantization_reduction_lowers_spike_counts() {
        let geo = geometry();
        let fp32 = synthetic_traces(&geo, &ActivityProfile::paper_direct(geo.len())).unwrap();
        let int4 = synthetic_traces(
            &geo,
            &ActivityProfile::paper_direct(geo.len()).with_quantization_reduction(10.1),
        )
        .unwrap();
        let reduction = 1.0 - total_spikes(&int4) as f64 / total_spikes(&fp32) as f64;
        assert!(
            (0.05..=0.15).contains(&reduction),
            "reduction {reduction:.3}"
        );
    }

    #[test]
    fn synthetic_traces_validate_inputs() {
        let geo = geometry();
        assert!(synthetic_traces(&geo, &ActivityProfile::uniform(3, 0.1, 2)).is_err());
        assert!(synthetic_traces(&geo, &ActivityProfile::uniform(9, 0.1, 0)).is_err());
        assert!(synthetic_traces(&geo, &ActivityProfile::uniform(9, 0.1, 2)).is_ok());
    }

    #[test]
    fn uniform_profile_clamps_density() {
        let p = ActivityProfile::uniform(4, 1.7, 3);
        assert!(p.layer_density.iter().all(|&d| d <= 1.0));
        assert_eq!(p.timesteps, 3);
    }

    #[test]
    fn total_spike_count_is_near_the_papers_magnitude() {
        // Table II reports ~41K total spikes for the direct-coded CIFAR-10
        // VGG9 at T=2; the calibrated profile should land within a small
        // factor of that.
        let geo = geometry();
        let traces = synthetic_traces(&geo, &ActivityProfile::paper_direct(geo.len())).unwrap();
        let total = total_spikes(&traces);
        assert!(
            (10_000..=200_000).contains(&total),
            "calibrated total spikes {total} far from the paper's ~41K"
        );
    }
}
