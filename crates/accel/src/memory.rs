//! On-chip memory sizing and placement.
//!
//! The accelerator keeps *everything* on chip (Sec. IV-C): model weights and
//! biases, the membrane potentials the neural cores are working on, and the
//! spike trains passed between layers (timestep-major, Fig. 2). This module
//! decides, per layer, how many bits of each kind are needed and which memory
//! primitive they are placed in:
//!
//! * **FF / registers** — the dense core's 27 weights per output channel,
//! * **LUTRAM** — small early-layer convolution weights (notably CONV1_2),
//! * **BRAM** (36 Kb blocks) — larger conv weights, membrane potentials and
//!   spike trains; BRAM has a minimum practical data width of 8 bits, which
//!   is why int4 weights stored in BRAM only save ~4× (not 8×) vs fp32,
//! * **URAM** (288 Kb blocks) — large fp32 fully-connected weight matrices.
//!
//! The placement policy mirrors the paper's description and reproduces the
//! Table I BRAM/URAM ordering.

use serde::{Deserialize, Serialize};
use snn_core::network::LayerGeometry;
use snn_core::quant::Precision;

/// Capacity of one BRAM36 block in bits.
pub const BRAM_BITS: u64 = 36 * 1024;
/// Capacity of one URAM block in bits.
pub const URAM_BITS: u64 = 288 * 1024;
/// Bits of distributed RAM provided by one LUT configured as LUTRAM.
pub const LUTRAM_BITS_PER_LUT: u64 = 64;
/// Minimum practical BRAM data width in bits (paper Sec. V-B).
pub const BRAM_MIN_WIDTH_BITS: u32 = 8;
/// Membrane potentials are kept in fixed-point/float words of this width.
pub const MEMBRANE_BITS: u64 = 32;

/// Which memory primitive a block of data is placed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemoryKind {
    /// Flip-flops / registers (dense-core weight registers).
    Register,
    /// Distributed LUT RAM.
    LutRam,
    /// Block RAM (36 Kb blocks).
    Bram,
    /// Ultra RAM (288 Kb blocks).
    Uram,
}

/// Memory requirements of one layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerMemory {
    /// Layer name.
    pub name: String,
    /// Where the weights are placed.
    pub weight_kind: MemoryKind,
    /// Weight + bias storage in bits (after width padding for BRAM).
    pub weight_bits: u64,
    /// Membrane-potential working storage in bits.
    pub membrane_bits: u64,
    /// Output spike-train storage in bits (timestep-major).
    pub spike_bits: u64,
    /// Number of BRAM36 blocks used.
    pub bram_blocks: u64,
    /// Number of URAM blocks used.
    pub uram_blocks: u64,
    /// Number of LUTs consumed as LUTRAM.
    pub lutram_luts: u64,
    /// Number of flip-flops consumed as weight registers.
    pub register_ffs: u64,
}

/// Parameters of the memory plan: which layer runs on the dense core and how
/// many neural cores / timesteps the sparse layers are provisioned for.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryPlanParams {
    /// Weight precision.
    pub precision: Precision,
    /// Number of timesteps the spike-train buffers are sized for.
    pub timesteps: usize,
    /// Whether layer 0 runs on the dense core (direct coding).
    pub dense_core_enabled: bool,
}

/// Builds the per-layer memory requirements for a network.
///
/// `neural_cores[i]` is the NC count of the i-th *sparse* weight layer (the
/// same convention as [`crate::config::HwConfig::neural_cores`]); when the
/// dense core is disabled the first entry applies to the first layer instead.
pub fn plan(
    geometry: &[LayerGeometry],
    neural_cores: &[usize],
    params: MemoryPlanParams,
) -> Vec<LayerMemory> {
    let bits = u64::from(params.precision.bits());
    let bram_weight_bits = u64::from(params.precision.bits().max(BRAM_MIN_WIDTH_BITS));
    let mut out = Vec::with_capacity(geometry.len());
    for (i, geo) in geometry.iter().enumerate() {
        let is_dense = params.dense_core_enabled && i == 0;
        let weight_count = geo.weight_count as u64 + geo.out_channels as u64;
        let out_plane = (geo.out_height * geo.out_width) as u64;
        let ncs = if is_dense {
            0
        } else {
            let sparse_index = if params.dense_core_enabled { i - 1 } else { i };
            neural_cores.get(sparse_index).copied().unwrap_or(1) as u64
        };

        // Spike-train buffer between this layer and the next (timestep-major).
        let spike_bits = geo.out_channels as u64 * params.timesteps as u64 * out_plane;

        let (weight_kind, weight_bits, membrane_bits) = if is_dense {
            // The dense core keeps its 27 weights per output channel in
            // registers and accumulates membranes inside the PE rows.
            (MemoryKind::Register, weight_count * bits, 0)
        } else if geo.is_conv && i <= 1 && params.precision.is_quantized() {
            // Early quantized conv weights live in LUTRAM (paper Sec. IV-C).
            (
                MemoryKind::LutRam,
                weight_count * bits,
                ncs * out_plane * MEMBRANE_BITS,
            )
        } else if geo.is_conv && i <= 1 {
            // fp32 early conv weights also use LUTRAM, but need banking for
            // parallel NC access, which the resource model accounts for.
            (
                MemoryKind::LutRam,
                weight_count * bits,
                ncs * out_plane * MEMBRANE_BITS,
            )
        } else if !geo.is_conv {
            // Larger fully-connected weight matrices use URAM for its higher
            // density (paper Sec. IV-B), at every precision.
            (
                MemoryKind::Uram,
                weight_count * bits,
                geo.out_channels as u64 * MEMBRANE_BITS,
            )
        } else if geo.is_conv {
            (
                MemoryKind::Bram,
                weight_count * bram_weight_bits,
                ncs * out_plane * MEMBRANE_BITS,
            )
        } else {
            // Unreachable for the paper's networks, kept for completeness.
            (
                MemoryKind::Bram,
                weight_count * bram_weight_bits,
                geo.out_channels as u64 * MEMBRANE_BITS,
            )
        };

        // Everything that is not LUTRAM/registers/URAM lands in BRAM:
        // weights (if placed there), membranes and spike trains.
        let bram_bits = membrane_bits
            + spike_bits
            + if weight_kind == MemoryKind::Bram {
                weight_bits
            } else {
                0
            };
        let uram_bits = if weight_kind == MemoryKind::Uram {
            weight_bits
        } else {
            0
        };
        let lutram_luts = if weight_kind == MemoryKind::LutRam {
            weight_bits.div_ceil(LUTRAM_BITS_PER_LUT)
        } else {
            0
        };
        let register_ffs = if weight_kind == MemoryKind::Register {
            weight_bits
        } else {
            0
        };

        out.push(LayerMemory {
            name: geo.name.clone(),
            weight_kind,
            weight_bits,
            membrane_bits,
            spike_bits,
            bram_blocks: bram_bits.div_ceil(BRAM_BITS),
            uram_blocks: uram_bits.div_ceil(URAM_BITS),
            lutram_luts,
            register_ffs,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use snn_core::network::{vgg9, Vgg9Config};

    fn paper_geometry() -> Vec<LayerGeometry> {
        vgg9(&Vgg9Config::cifar100()).unwrap().geometry().unwrap()
    }

    fn params(precision: Precision) -> MemoryPlanParams {
        MemoryPlanParams {
            precision,
            timesteps: 2,
            dense_core_enabled: true,
        }
    }

    #[test]
    fn dense_layer_uses_registers_and_no_bram() {
        let geo = paper_geometry();
        let ncs = [28, 12, 54, 16, 72, 70, 19, 4];
        let mem = plan(&geo, &ncs, params(Precision::Int4));
        assert_eq!(mem[0].weight_kind, MemoryKind::Register);
        // CONV1_1 stores weights in registers; its spike output is accounted
        // to its BRAM buffer which is small (64 maps × 2 steps × 1024 bits).
        assert_eq!(mem[0].register_ffs, mem[0].weight_bits);
        assert_eq!(mem[0].uram_blocks, 0);
    }

    #[test]
    fn conv1_2_weights_live_in_lutram_for_int4() {
        let geo = paper_geometry();
        let ncs = [28, 12, 54, 16, 72, 70, 19, 4];
        let mem = plan(&geo, &ncs, params(Precision::Int4));
        assert_eq!(mem[1].weight_kind, MemoryKind::LutRam);
        assert!(mem[1].lutram_luts > 0);
        // The BRAM count for CONV1_2 is in the same range as Table I (~32).
        assert!(
            (10..=80).contains(&mem[1].bram_blocks),
            "CONV1_2 BRAM blocks = {}",
            mem[1].bram_blocks
        );
    }

    #[test]
    fn fc_weights_use_uram_and_shrink_with_quantization() {
        let geo = paper_geometry();
        let ncs = [28, 12, 54, 16, 72, 70, 19, 4];
        let fp32 = plan(&geo, &ncs, params(Precision::Fp32));
        let int4 = plan(&geo, &ncs, params(Precision::Int4));
        // FC1 is layer index 7; both precisions use URAM for the large FC
        // matrices (Sec. IV-B), but the quantized one needs ~8x fewer blocks.
        assert_eq!(fp32[7].weight_kind, MemoryKind::Uram);
        assert_eq!(int4[7].weight_kind, MemoryKind::Uram);
        assert!(fp32[7].uram_blocks > int4[7].uram_blocks);
        assert!(fp32[7].uram_blocks >= 7 * int4[7].uram_blocks);
    }

    #[test]
    fn int4_uses_fewer_total_memory_blocks_than_fp32() {
        let geo = paper_geometry();
        let ncs = [28, 12, 54, 16, 72, 70, 19, 4];
        let fp32 = plan(&geo, &ncs, params(Precision::Fp32));
        let int4 = plan(&geo, &ncs, params(Precision::Int4));
        let blocks =
            |m: &[LayerMemory]| -> u64 { m.iter().map(|l| l.bram_blocks + l.uram_blocks).sum() };
        let ratio = blocks(&fp32) as f64 / blocks(&int4) as f64;
        // The paper reports ~3.4× fewer BRAM/URAM blocks for int4 (Sec. V-B).
        assert!(
            ratio > 1.5,
            "expected fp32 to need several times more memory blocks, got {ratio:.2}x"
        );
    }

    #[test]
    fn more_timesteps_grow_spike_buffers_only() {
        let geo = paper_geometry();
        let ncs = [28, 12, 54, 16, 72, 70, 19, 4];
        let t2 = plan(&geo, &ncs, params(Precision::Int4));
        let mut p = params(Precision::Int4);
        p.timesteps = 25;
        let t25 = plan(&geo, &ncs, p);
        for (a, b) in t2.iter().zip(t25.iter()) {
            assert_eq!(a.weight_bits, b.weight_bits);
            assert!(b.spike_bits > a.spike_bits);
        }
    }

    #[test]
    fn membranes_scale_with_neural_cores() {
        let geo = paper_geometry();
        let small = plan(&geo, &[1, 1, 1, 1, 1, 1, 1, 1], params(Precision::Int4));
        let big = plan(&geo, &[8, 8, 8, 8, 8, 8, 8, 8], params(Precision::Int4));
        // Conv layers: membrane working set is per-NC.
        assert_eq!(big[1].membrane_bits, 8 * small[1].membrane_bits);
    }

    #[test]
    fn disabling_dense_core_places_layer0_weights_in_lutram() {
        let geo = paper_geometry();
        let ncs = [4, 28, 12, 54, 16, 72, 70, 19, 4];
        let mut p = params(Precision::Int4);
        p.dense_core_enabled = false;
        let mem = plan(&geo, &ncs, p);
        assert_ne!(mem[0].weight_kind, MemoryKind::Register);
        assert!(mem[0].membrane_bits > 0);
    }
}
