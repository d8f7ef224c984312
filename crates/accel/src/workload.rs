//! Layer-wise workload model expressed in sparse-core cycles.
//!
//! The paper sizes its heterogeneous hardware from a per-layer workload model
//! derived from an empirical run of the trained network:
//!
//! ```text
//! W_CONV = F × C_out × Σ_i S_i          (Eq. 3)
//! W_FC   = N × S
//! ```
//!
//! where `F` is the number of filter coefficients per input channel position
//! (9 for 3×3 kernels), `C_out` the number of output channels, `S_i` the
//! number of spikes arriving from input feature map `i`, `N` the number of FC
//! output neurons and `S` the total number of input spikes. A
//! fully-connected layer is the 1×1, `kernel = 1` case of a convolution
//! (`F = 1`, `C_out = N`), so one formula covers both.
//!
//! This module turns the per-layer spike traces produced by `snn-core` into
//! the per-layer cycle counts a *single* neural core would need, which is
//! what the design-space exploration of [`crate::dse`] divides among the
//! available cores.

use serde::{Deserialize, Serialize};
use snn_core::error::SnnError;
use snn_core::network::LayerTrace;

/// Workload of one weight layer in single-core cycles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CycleWorkload {
    /// Layer name.
    pub name: String,
    /// `true` for convolutions.
    pub is_conv: bool,
    /// Output channels (conv) or output neurons (FC).
    pub out_channels: usize,
    /// Total input events across all timesteps.
    pub input_events: u64,
    /// Accumulation cycles a single neural core would need (Eq. 3).
    pub single_core_cycles: u64,
}

impl CycleWorkload {
    /// Accumulation cycles when the layer is unrolled over `cores` neural
    /// cores (the output channels are strided across the cores).
    pub fn cycles_with_cores(&self, cores: usize) -> u64 {
        if cores == 0 {
            return u64::MAX;
        }
        let per_core_channels = self.out_channels.div_ceil(cores) as u64;
        let per_channel = if self.out_channels == 0 {
            0
        } else {
            self.single_core_cycles / self.out_channels as u64
        };
        per_channel * per_core_channels
    }
}

/// Computes the per-layer single-core workloads from run traces.
///
/// # Errors
///
/// Returns [`SnnError::InvalidConfig`] if a weight layer is missing its
/// geometry (which would indicate a malformed trace).
pub fn from_traces(traces: &[LayerTrace]) -> Result<Vec<CycleWorkload>, SnnError> {
    let mut out = Vec::new();
    for trace in traces {
        let Some(geo) = trace.geometry.as_ref() else {
            // Pooling layers carry no workload (an OR gate on the datapath).
            continue;
        };
        let events = trace.total_input_events();
        let single_core_cycles =
            events * (geo.kernel * geo.kernel) as u64 * geo.out_channels as u64;
        out.push(CycleWorkload {
            name: trace.name.clone(),
            is_conv: geo.is_conv,
            out_channels: geo.out_channels,
            input_events: events,
            single_core_cycles,
        });
    }
    if out.is_empty() {
        return Err(SnnError::config(
            "traces",
            "no weight layers found in the provided traces",
        ));
    }
    Ok(out)
}

/// The imbalance of a latency profile: the ratio of the largest per-layer
/// latency to the mean (1.0 = perfectly balanced).
pub fn imbalance(per_layer_cycles: &[u64]) -> f64 {
    if per_layer_cycles.is_empty() {
        return 1.0;
    }
    let max = *per_layer_cycles.iter().max().unwrap_or(&0) as f64;
    let mean =
        per_layer_cycles.iter().map(|&c| c as f64).sum::<f64>() / per_layer_cycles.len() as f64;
    if mean == 0.0 {
        1.0
    } else {
        max / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snn_core::encoding::Encoder;
    use snn_core::network::{vgg9, Vgg9Config};
    use snn_core::tensor::Tensor;

    fn traces() -> Vec<LayerTrace> {
        let net = vgg9(&Vgg9Config::cifar10_small()).unwrap();
        let image = Tensor::from_fn(&[3, 16, 16], |i| ((i as f32) * 0.05).sin().abs());
        net.run(&image, &Encoder::direct(2)).unwrap().traces
    }

    #[test]
    fn workloads_follow_eq3() {
        // Σ S_i is the layer's input events summed over every timestep, and
        // one workload entry exists per weight layer, in network order.
        let traces = traces();
        let w = from_traces(&traces).unwrap();
        let weight_traces: Vec<_> = traces.iter().filter(|t| t.geometry.is_some()).collect();
        assert_eq!(w.len(), weight_traces.len());
        for (layer, trace) in w.iter().zip(weight_traces) {
            assert_eq!(layer.name, trace.name);
            assert_eq!(layer.input_events, trace.input_events.iter().sum::<u64>());
            assert!(layer.input_events > 0, "{} saw no input events", layer.name);
        }
    }

    #[test]
    fn workloads_cover_all_weight_layers() {
        let w = from_traces(&traces()).unwrap();
        assert_eq!(w.len(), 9);
        // VGG9's weight layers: seven convolutions, then two FC layers.
        assert!(w.iter().take(7).all(|l| l.is_conv));
        assert!(w.iter().skip(7).all(|l| !l.is_conv));
    }

    #[test]
    fn conv_workload_follows_eq3() {
        // W_CONV = F × C_out × Σ S_i, with F = 9 for VGG9's 3×3 kernels.
        let w = from_traces(&traces()).unwrap();
        for layer in w.iter().filter(|l| l.is_conv) {
            assert_eq!(
                layer.single_core_cycles,
                9 * layer.out_channels as u64 * layer.input_events,
                "{}",
                layer.name
            );
        }
    }

    #[test]
    fn fc_workload_follows_eq3() {
        // W_FC = N × S.
        let w = from_traces(&traces()).unwrap();
        for layer in w.iter().filter(|l| !l.is_conv) {
            assert_eq!(
                layer.single_core_cycles,
                layer.out_channels as u64 * layer.input_events,
                "{}",
                layer.name
            );
        }
    }

    #[test]
    fn cycles_divide_by_core_count() {
        let w = from_traces(&traces()).unwrap();
        let conv = w.iter().find(|l| l.is_conv && l.input_events > 0).unwrap();
        let one = conv.cycles_with_cores(1);
        let four = conv.cycles_with_cores(4);
        assert!(four < one);
        assert!(four >= one / 4);
        assert_eq!(conv.cycles_with_cores(0), u64::MAX);
    }

    #[test]
    fn from_traces_rejects_empty() {
        assert!(from_traces(&[]).is_err());
    }

    #[test]
    fn imbalance_of_uniform_profile_is_one() {
        assert!((imbalance(&[100, 100, 100]) - 1.0).abs() < 1e-12);
        assert!(imbalance(&[300, 100, 100]) > 1.5);
        assert_eq!(imbalance(&[]), 1.0);
        assert_eq!(imbalance(&[0, 0]), 1.0);
    }
}
