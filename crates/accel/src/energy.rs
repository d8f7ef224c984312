//! Per-image energy model.
//!
//! The paper computes the energy per image by summing the energy per layer
//! (Sec. V-C): each layer's instance-level dynamic power multiplied by the
//! time that layer spends processing the image. An optional static share
//! (device static power × end-to-end latency) can be added for
//! total-energy comparisons.

use crate::power::PowerEstimate;
use serde::{Deserialize, Serialize};

/// Energy of one layer while processing one image.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerEnergy {
    /// Busy time of the layer in milliseconds.
    pub busy_ms: f64,
    /// Dynamic energy in millijoules.
    pub dynamic_mj: f64,
}

/// Energy of a full inference.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyEstimate {
    /// Per-layer dynamic energy.
    pub layers: Vec<LayerEnergy>,
    /// Static energy over the end-to-end latency, in millijoules.
    pub static_mj: f64,
}

impl EnergyEstimate {
    /// Total dynamic energy per image in millijoules (the quantity plotted in
    /// Fig. 4).
    pub fn dynamic_mj(&self) -> f64 {
        self.layers.iter().map(|l| l.dynamic_mj).sum()
    }

    /// Total energy (dynamic + static share) in millijoules.
    pub fn total_mj(&self) -> f64 {
        self.dynamic_mj() + self.static_mj
    }
}

/// Computes per-layer and total energy.
///
/// * `layer_cycles` and `power.layers` must be index-aligned;
/// * `clock_mhz` converts cycles to time;
/// * `power.static_watts` is multiplied by the end-to-end latency (the sum
///   of the layer busy times, i.e. a non-pipelined single-image pass).
pub fn estimate(layer_cycles: &[u64], power: &PowerEstimate, clock_mhz: f64) -> EnergyEstimate {
    let mut layers = Vec::with_capacity(layer_cycles.len());
    let mut latency_ms = 0.0;
    for (&cycles, layer) in layer_cycles.iter().zip(&power.layers) {
        let busy_ms = cycles as f64 / (clock_mhz * 1e6) * 1e3;
        latency_ms += busy_ms;
        layers.push(LayerEnergy {
            busy_ms,
            // mJ = W × ms.
            dynamic_mj: layer.dynamic_watts * busy_ms,
        });
    }
    EnergyEstimate {
        layers,
        static_mj: power.static_watts * latency_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::LayerPower;

    /// A power estimate with the given per-layer dynamic and static watts.
    fn power(dynamic_watts: &[f64], static_watts: f64) -> PowerEstimate {
        PowerEstimate {
            layers: dynamic_watts
                .iter()
                .enumerate()
                .map(|(i, &dynamic_watts)| LayerPower {
                    name: format!("L{i}"),
                    dynamic_watts,
                })
                .collect(),
            static_watts,
        }
    }

    #[test]
    fn energy_is_power_times_time() {
        // 1 W for 100 000 cycles at 100 MHz = 1 ms -> 1 mJ.
        let e = estimate(&[100_000], &power(&[1.0], 0.0), 100.0);
        assert!((e.dynamic_mj() - 1.0).abs() < 1e-9);
        assert_eq!(e.layers[0].busy_ms, 1.0);
    }

    #[test]
    fn static_energy_uses_total_latency() {
        let e = estimate(&[100_000, 300_000], &power(&[0.0, 0.0], 2.0), 100.0);
        // Latency 4 ms × 2 W = 8 mJ static.
        assert!((e.static_mj - 8.0).abs() < 1e-9);
        assert_eq!(e.dynamic_mj(), 0.0);
        assert!((e.total_mj() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn faster_clock_reduces_energy_linearly() {
        let slow = estimate(&[1_000_000], &power(&[0.5], 0.0), 100.0);
        let fast = estimate(&[1_000_000], &power(&[0.5], 0.0), 200.0);
        assert!((slow.dynamic_mj() / fast.dynamic_mj() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn per_layer_breakdown_sums_to_total() {
        let e = estimate(
            &[10_000, 20_000, 30_000],
            &power(&[0.1, 0.2, 0.3], 1.0),
            100.0,
        );
        let sum: f64 = e.layers.iter().map(|l| l.dynamic_mj).sum();
        assert!((e.dynamic_mj() - sum).abs() < 1e-12);
        assert_eq!(e.layers.len(), 3);
    }

    #[test]
    fn empty_input_gives_zero_energy() {
        let e = estimate(&[], &power(&[], 3.0), 100.0);
        assert_eq!(e.total_mj(), 0.0);
    }
}
