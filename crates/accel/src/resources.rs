//! FPGA device and logic-area model.
//!
//! The paper's accelerator is synthesised on a Xilinx Virtex UltraScale+
//! XCVU13P. [`XCVU13P`] captures the device capacities used for the
//! utilisation rows of Table I; [`estimate_layers`] combines the logic cost
//! of the dense core / sparse cores with the memory plan of
//! [`crate::memory`] into per-layer LUT/FF/BRAM/URAM estimates.
//!
//! All logic-cost constants are calibrated against the published Table I
//! numbers; each constant's rationale is documented next to it in
//! [`calib`].

use crate::config::HwConfig;
use crate::memory::{self, LayerMemory, MemoryKind, MemoryPlanParams};
use serde::{Deserialize, Serialize};
use snn_core::error::SnnError;
use snn_core::network::LayerGeometry;

/// Calibration constants of the logic-area model.
///
/// Each constant is anchored to a row of Table I (int4/fp32 hardware for
/// CIFAR-100, perf2 allocation) so that the reproduction's per-layer area
/// estimates land in the same range as the published post-synthesis results.
pub mod calib {
    /// LUTs per processing element of the dense core at int4 (shift-and-add
    /// constant multiplier instead of a DSP, Sec. IV-D).
    pub const DENSE_PE_LUT_INT: f64 = 40.0;
    /// LUTs per dense-core PE at fp32 (LUT-mapped floating-point MAC).
    pub const DENSE_PE_LUT_FP32: f64 = 420.0;
    /// Flip-flops per dense-core PE (weight register + staggering register).
    pub const DENSE_PE_FF: f64 = 64.0;
    /// LUT cost of the dense core's control unit (address generation,
    /// staggering routine, tiling FSM).
    pub const DENSE_CONTROL_LUT: f64 = 450.0;
    /// FF cost of the dense core's control unit.
    pub const DENSE_CONTROL_FF: f64 = 350.0;
    /// LUT cost of the dense core's Activ unit per PE row.
    pub const DENSE_ACTIV_LUT: f64 = 150.0;

    /// Base LUT cost of one sparse core's Event Control Unit (compression
    /// routine, bit-reset, FSM). Calibrated from the low-NC rows of Table I
    /// (CONV2_1: 1.7 K LUT at 12 NCs).
    pub const ECU_BASE_LUT: f64 = 300.0;
    /// Additional ECU LUTs per compression chunk bit (priority encoder).
    pub const ECU_LUT_PER_CHUNK_BIT: f64 = 4.0;
    /// FF cost of one ECU.
    pub const ECU_FF: f64 = 250.0;
    /// LUTs per neural core at int4/int8 (accumulate + shift-and-add
    /// de-quantisation + Activ routine). Calibrated so 72 NCs ≈ 5.7 K LUT
    /// (Table I, CONV3_2 int4).
    pub const NC_LUT_INT: f64 = 72.0;
    /// LUTs per neural core at fp32 (floating-point accumulate). Calibrated
    /// so 72 NCs ≈ 45 K LUT (Table I, CONV3_2 fp32).
    pub const NC_LUT_FP32: f64 = 620.0;
    /// FFs per neural core.
    pub const NC_FF: f64 = 72.0;
    /// Extra FFs per neural core at fp32.
    pub const NC_FF_FP32: f64 = 170.0;
    /// Replication (banking) factor divisor for fp32 LUTRAM weight storage:
    /// LUTRAM has two read ports, so `ceil(ncs / 2)` copies are needed for
    /// parallel NC access. Quantized weights are narrow enough to share one
    /// bank pair, matching the 8× LUT gap of Table I for CONV1_2.
    pub const LUTRAM_PORTS: f64 = 2.0;
}

/// Device capacities of the Xilinx Virtex UltraScale+ XCVU13P.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct XCVU13P {
    /// Total 6-input LUTs.
    pub luts: u64,
    /// Total flip-flops.
    pub ffs: u64,
    /// Total BRAM36 blocks.
    pub bram36: u64,
    /// Total URAM blocks.
    pub uram: u64,
}

impl XCVU13P {
    /// The production device capacities.
    pub const fn device() -> Self {
        XCVU13P {
            luts: 1_728_000,
            ffs: 3_456_000,
            bram36: 2_688,
            uram: 1_280,
        }
    }
}

impl Default for XCVU13P {
    fn default() -> Self {
        Self::device()
    }
}

/// Per-layer resource estimate (logic + memory).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerResources {
    /// Layer name.
    pub name: String,
    /// Total LUTs (logic + LUTRAM).
    pub luts: u64,
    /// Of those, LUTs used as distributed weight RAM (they toggle far less
    /// than logic LUTs, which the power model accounts for).
    pub lutram_luts: u64,
    /// Total flip-flops.
    pub ffs: u64,
    /// BRAM36 blocks.
    pub bram: u64,
    /// URAM blocks.
    pub uram: u64,
    /// Neural cores allocated (0 for the dense layer).
    pub neural_cores: usize,
    /// The memory breakdown behind the totals.
    pub memory: LayerMemory,
}

/// Whole-accelerator resource estimate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResourceEstimate {
    /// Per-layer estimates, in network order.
    pub layers: Vec<LayerResources>,
    /// The device the utilisation is reported against.
    pub device: XCVU13P,
}

impl ResourceEstimate {
    /// Total LUTs.
    pub fn total_luts(&self) -> u64 {
        self.layers.iter().map(|l| l.luts).sum()
    }

    /// Total flip-flops.
    pub fn total_ffs(&self) -> u64 {
        self.layers.iter().map(|l| l.ffs).sum()
    }

    /// Total BRAM36 blocks.
    pub fn total_bram(&self) -> u64 {
        self.layers.iter().map(|l| l.bram).sum()
    }

    /// Total URAM blocks.
    pub fn total_uram(&self) -> u64 {
        self.layers.iter().map(|l| l.uram).sum()
    }

    /// LUT utilisation as a fraction of the device.
    pub fn lut_utilization(&self) -> f64 {
        self.total_luts() as f64 / self.device.luts as f64
    }

    /// BRAM utilisation as a fraction of the device.
    pub fn bram_utilization(&self) -> f64 {
        self.total_bram() as f64 / self.device.bram36 as f64
    }

    /// URAM utilisation as a fraction of the device.
    pub fn uram_utilization(&self) -> f64 {
        self.total_uram() as f64 / self.device.uram as f64
    }

    /// Whether the design fits the device.
    pub fn fits(&self) -> bool {
        self.total_luts() <= self.device.luts
            && self.total_ffs() <= self.device.ffs
            && self.total_bram() <= self.device.bram36
            && self.total_uram() <= self.device.uram
    }
}

/// Estimates per-layer resources for a network geometry under a hardware
/// configuration, sized for `timesteps` presentation steps.
///
/// # Errors
///
/// Returns [`SnnError::InvalidConfig`] if the configuration does not provide
/// a neural-core allocation for every sparse layer.
pub fn estimate_layers(
    geometry: &[LayerGeometry],
    config: &HwConfig,
    timesteps: usize,
) -> Result<ResourceEstimate, SnnError> {
    let sparse_layers = if config.dense_core_enabled {
        geometry.len().saturating_sub(1)
    } else {
        geometry.len()
    };
    if config.neural_cores.len() < sparse_layers {
        return Err(SnnError::config(
            "neural_cores",
            format!(
                "allocation covers {} sparse layers but the network has {sparse_layers}",
                config.neural_cores.len()
            ),
        ));
    }
    let mem = memory::plan(
        geometry,
        &config.neural_cores,
        MemoryPlanParams {
            precision: config.precision,
            timesteps,
            dense_core_enabled: config.dense_core_enabled,
        },
    );
    let quantized = config.precision.is_quantized();
    let mut layers = Vec::with_capacity(geometry.len());
    for (i, (geo, layer_mem)) in geometry.iter().zip(mem).enumerate() {
        let is_dense = config.dense_core_enabled && i == 0;
        let (logic_luts, logic_ffs, ncs) = if is_dense {
            let pes = 27.0 * config.dense_rows as f64;
            let pe_lut = if quantized {
                calib::DENSE_PE_LUT_INT
            } else {
                calib::DENSE_PE_LUT_FP32
            };
            let luts = pes * pe_lut
                + calib::DENSE_CONTROL_LUT
                + calib::DENSE_ACTIV_LUT * config.dense_rows as f64;
            let ffs = pes * calib::DENSE_PE_FF + calib::DENSE_CONTROL_FF;
            (luts, ffs, 0usize)
        } else {
            let sparse_index = if config.dense_core_enabled { i - 1 } else { i };
            let ncs = config.cores_for_sparse_layer(sparse_index)?;
            let nc_lut = if quantized {
                calib::NC_LUT_INT
            } else {
                calib::NC_LUT_FP32
            };
            let nc_ff = calib::NC_FF + if quantized { 0.0 } else { calib::NC_FF_FP32 };
            let luts = calib::ECU_BASE_LUT
                + calib::ECU_LUT_PER_CHUNK_BIT * config.chunk_bits as f64
                + nc_lut * ncs as f64;
            let ffs = calib::ECU_FF + nc_ff * ncs as f64;
            (luts, ffs, ncs)
        };

        // LUTRAM storage: fp32 banks are replicated for parallel NC access.
        let lutram_luts = if layer_mem.weight_kind == MemoryKind::LutRam && !quantized {
            let banks = (ncs as f64 / calib::LUTRAM_PORTS).ceil().max(1.0);
            (layer_mem.lutram_luts as f64 * banks) as u64
        } else {
            layer_mem.lutram_luts
        };

        layers.push(LayerResources {
            name: geo.name.clone(),
            luts: logic_luts as u64 + lutram_luts,
            lutram_luts,
            ffs: logic_ffs as u64 + layer_mem.register_ffs,
            bram: layer_mem.bram_blocks,
            uram: layer_mem.uram_blocks,
            neural_cores: ncs,
            memory: layer_mem,
        });
    }
    Ok(ResourceEstimate {
        layers,
        device: XCVU13P::device(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PerfScale;
    use snn_core::network::{vgg9, Vgg9Config};
    use snn_core::quant::Precision;

    fn paper_geometry() -> Vec<LayerGeometry> {
        vgg9(&Vgg9Config::cifar100()).unwrap().geometry().unwrap()
    }

    fn table1_config(precision: Precision) -> HwConfig {
        HwConfig::paper("cifar100", precision, PerfScale::Perf2).unwrap()
    }

    #[test]
    fn device_capacities_are_the_xcvu13p() {
        let d = XCVU13P::device();
        assert_eq!(d.bram36, 2688);
        assert_eq!(d.uram, 1280);
        assert!(d.luts > 1_000_000);
        assert_eq!(XCVU13P::default(), d);
    }

    #[test]
    fn estimate_covers_every_layer() {
        let est = estimate_layers(&paper_geometry(), &table1_config(Precision::Int4), 2).unwrap();
        assert_eq!(est.layers.len(), 9);
        assert!(est.fits(), "int4 design must fit the XCVU13P");
    }

    #[test]
    fn estimate_rejects_short_allocation() {
        let cfg = HwConfig::from_allocation("t", Precision::Int4, &[1, 4, 4]).unwrap();
        assert!(estimate_layers(&paper_geometry(), &cfg, 2).is_err());
    }

    #[test]
    fn int4_uses_substantially_fewer_luts_than_fp32() {
        let geo = paper_geometry();
        let int4 = estimate_layers(&geo, &table1_config(Precision::Int4), 2).unwrap();
        let fp32 = estimate_layers(&geo, &table1_config(Precision::Fp32), 2).unwrap();
        let ratio = fp32.total_luts() as f64 / int4.total_luts() as f64;
        // Paper: ~8× fewer LUTs for int4 (Sec. V-B). Accept the right order.
        assert!(
            ratio > 3.0,
            "fp32/int4 LUT ratio should be large, got {ratio:.2}"
        );
    }

    #[test]
    fn int4_uses_fewer_memory_blocks_than_fp32() {
        let geo = paper_geometry();
        let int4 = estimate_layers(&geo, &table1_config(Precision::Int4), 2).unwrap();
        let fp32 = estimate_layers(&geo, &table1_config(Precision::Fp32), 2).unwrap();
        let int4_blocks = int4.total_bram() + int4.total_uram();
        let fp32_blocks = fp32.total_bram() + fp32.total_uram();
        let ratio = fp32_blocks as f64 / int4_blocks as f64;
        assert!(
            ratio > 1.5,
            "fp32/int4 memory block ratio should exceed 1.5, got {ratio:.2}"
        );
    }

    #[test]
    fn int4_totals_land_near_table1() {
        let est = estimate_layers(&paper_geometry(), &table1_config(Precision::Int4), 2).unwrap();
        // Table I: 109.7K LUT and 979 BRAM for the int4 hardware. The model
        // should land within a small factor on LUTs and BRAMs; our VGG9 keeps
        // its (larger) fully-connected matrices in URAM, so a non-zero URAM
        // count is expected (a deviation from the paper's FC storage).
        let luts = est.total_luts();
        let bram = est.total_bram();
        // The paper's per-layer LUT rows sum to ~39.5K (its stated 109.7K
        // total includes shared infrastructure the model does not attribute
        // to layers), so the expected band is centred on the per-layer sum.
        assert!(
            (15_000..=350_000).contains(&luts),
            "int4 LUT total {luts} out of expected band"
        );
        assert!(
            (250..=2688).contains(&bram),
            "int4 BRAM total {bram} out of expected band"
        );
        assert!(est.total_uram() <= est.device.uram);
    }

    #[test]
    fn dense_layer_has_no_neural_cores_and_no_bram_weights() {
        let est = estimate_layers(&paper_geometry(), &table1_config(Precision::Int4), 2).unwrap();
        assert_eq!(est.layers[0].neural_cores, 0);
        assert_eq!(est.layers[0].memory.weight_kind, MemoryKind::Register);
    }

    #[test]
    fn more_dense_rows_increase_dense_layer_area() {
        let geo = paper_geometry();
        let mut small = table1_config(Precision::Int4);
        small.dense_rows = 1;
        let mut big = table1_config(Precision::Int4);
        big.dense_rows = 4;
        let a = estimate_layers(&geo, &small, 2).unwrap();
        let b = estimate_layers(&geo, &big, 2).unwrap();
        assert!(b.layers[0].luts > a.layers[0].luts);
        assert!(b.layers[0].ffs > a.layers[0].ffs);
    }

    #[test]
    fn utilization_fractions_are_consistent() {
        let est = estimate_layers(&paper_geometry(), &table1_config(Precision::Int4), 2).unwrap();
        assert!((0.0..1.0).contains(&est.lut_utilization()));
        assert!((0.0..1.0).contains(&est.bram_utilization()));
        assert_eq!(
            est.lut_utilization(),
            est.total_luts() as f64 / est.device.luts as f64
        );
    }
}
