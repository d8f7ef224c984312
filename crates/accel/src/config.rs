//! Hardware configurations.
//!
//! A [`HwConfig`] fixes everything the synthesis flow would fix: the weight
//! precision, the clock frequency, the dense core's row count, the
//! sparse-core compression chunk width and, most importantly, the per-layer
//! neural core (NC) allocation. The paper evaluates three configurations per
//! dataset — a lightweight `LW` baseline sized by the workload model and two
//! performance-scaled versions `perf2` / `perf4` — all at 100 MHz.

use serde::{Deserialize, Serialize};
use snn_core::error::SnnError;
use snn_core::quant::Precision;
use std::fmt;

/// Performance scaling of a configuration relative to the lightweight
/// baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PerfScale {
    /// The lightweight baseline (`LW`).
    Lw,
    /// Resources scaled up 2× (`perf2`).
    Perf2,
    /// Resources scaled up 4× (`perf4`).
    Perf4,
}

impl PerfScale {
    /// Multiplier applied to the LW neural-core allocation.
    pub fn factor(self) -> usize {
        match self {
            PerfScale::Lw => 1,
            PerfScale::Perf2 => 2,
            PerfScale::Perf4 => 4,
        }
    }

    /// All scales in increasing-resource order.
    pub fn all() -> [PerfScale; 3] {
        [PerfScale::Lw, PerfScale::Perf2, PerfScale::Perf4]
    }
}

impl fmt::Display for PerfScale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PerfScale::Lw => write!(f, "LW"),
            PerfScale::Perf2 => write!(f, "perf2"),
            PerfScale::Perf4 => write!(f, "perf4"),
        }
    }
}

/// A complete hardware configuration for one network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HwConfig {
    /// Human-readable name, e.g. `"cifar10-int4-LW"`.
    pub name: String,
    /// Weight/bias precision the datapaths are built for.
    pub precision: Precision,
    /// Clock frequency in MHz (100 MHz for every paper configuration).
    pub clock_mhz: f64,
    /// Number of PE rows in the dense core (each row works on one output
    /// feature map at a time).
    pub dense_rows: usize,
    /// Per-layer neural core allocation for the sparse layers. Entry 0
    /// corresponds to the first *sparse* weight layer (CONV1_2) when the
    /// dense core is enabled.
    pub neural_cores: Vec<usize>,
    /// Compression chunk width `n` (bits scanned per cycle by the ECU).
    pub chunk_bits: usize,
    /// Whether the dense core is instantiated. Rate-coded networks disable it
    /// and process the input layer on a sparse core instead (Sec. V-D).
    pub dense_core_enabled: bool,
    /// Whether the clock-gated memory regions are enabled (Sec. IV-C).
    pub clock_gating: bool,
}

impl HwConfig {
    /// Creates a configuration from an explicit 9-entry per-layer allocation
    /// (dense core rows followed by 8 sparse-layer NC counts), the layout the
    /// paper uses for its `LW` tuples.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] if the allocation is empty or
    /// contains a zero.
    pub fn from_allocation(
        name: impl Into<String>,
        precision: Precision,
        allocation: &[usize],
    ) -> Result<Self, SnnError> {
        if allocation.is_empty() {
            return Err(SnnError::config(
                "allocation",
                "allocation must be non-empty",
            ));
        }
        if allocation.contains(&0) {
            return Err(SnnError::config(
                "allocation",
                "every layer needs at least one core",
            ));
        }
        Ok(HwConfig {
            name: name.into(),
            precision,
            clock_mhz: 100.0,
            dense_rows: allocation[0],
            neural_cores: allocation[1..].to_vec(),
            chunk_bits: 32,
            dense_core_enabled: true,
            clock_gating: true,
        })
    }

    /// The paper's lightweight (`LW`) allocation for a dataset, from the
    /// caption of Fig. 4: SVHN `(1,7,1,8,2,4,14,1,2)`, CIFAR-10
    /// `(1,8,4,18,6,6,20,2,1)`, CIFAR-100 `(1,7,3,12,4,18,16,4,1)`.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] for an unknown dataset name.
    pub fn paper_lw(dataset: &str, precision: Precision) -> Result<Self, SnnError> {
        let allocation: &[usize] = match dataset {
            "svhn" | "svhn-like" => &[1, 7, 1, 8, 2, 4, 14, 1, 2],
            "cifar10" | "cifar10-like" => &[1, 8, 4, 18, 6, 6, 20, 2, 1],
            "cifar100" | "cifar100-like" => &[1, 7, 3, 12, 4, 18, 16, 4, 1],
            other => {
                return Err(SnnError::config(
                    "dataset",
                    format!("no paper LW configuration for dataset `{other}`"),
                ))
            }
        };
        Self::from_allocation(format!("{dataset}-{precision}-LW"), precision, allocation)
    }

    /// The paper's configuration at a given performance scale. For
    /// CIFAR-100 `perf2` the exact allocation reported with Table I,
    /// `(1,28,12,54,16,72,70,19,4)`, is used; every other combination scales
    /// the LW allocation by the scale factor, as described in Sec. V-A.
    ///
    /// # Errors
    ///
    /// Same as [`HwConfig::paper_lw`].
    pub fn paper(dataset: &str, precision: Precision, scale: PerfScale) -> Result<Self, SnnError> {
        if scale == PerfScale::Perf2 && matches!(dataset, "cifar100" | "cifar100-like") {
            let mut cfg = Self::from_allocation(
                format!("{dataset}-{precision}-perf2"),
                precision,
                &[1, 28, 12, 54, 16, 72, 70, 19, 4],
            )?;
            cfg.name = format!("{dataset}-{precision}-{scale}");
            return Ok(cfg);
        }
        let mut cfg = Self::paper_lw(dataset, precision)?;
        let f = scale.factor();
        if f > 1 {
            cfg.dense_rows *= f;
            for nc in &mut cfg.neural_cores {
                *nc *= f;
            }
        }
        cfg.name = format!("{dataset}-{precision}-{scale}");
        Ok(cfg)
    }

    /// Returns a copy with the dense core disabled (used for rate-coded
    /// networks, which receive binary spikes at the input layer).
    pub fn without_dense_core(mut self) -> Self {
        self.dense_core_enabled = false;
        self
    }

    /// Returns a copy with clock gating disabled (used by the ablation bench).
    pub fn without_clock_gating(mut self) -> Self {
        self.clock_gating = false;
        self
    }

    /// Total number of neural cores across all sparse layers.
    pub fn total_neural_cores(&self) -> usize {
        self.neural_cores.iter().sum()
    }

    /// Neural cores allocated to sparse weight layer `index` (0 = CONV1_2
    /// when the dense core is enabled, otherwise 0 = CONV1_1).
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::IndexOutOfBounds`] when the index exceeds the
    /// allocation.
    pub fn cores_for_sparse_layer(&self, index: usize) -> Result<usize, SnnError> {
        self.neural_cores.get(index).copied().ok_or_else(|| {
            SnnError::index(index, self.neural_cores.len(), "neural core allocation")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_allocation_splits_dense_and_sparse() {
        let cfg = HwConfig::from_allocation("t", Precision::Int4, &[2, 8, 4]).unwrap();
        assert_eq!(cfg.dense_rows, 2);
        assert_eq!(cfg.neural_cores, vec![8, 4]);
        assert_eq!(cfg.total_neural_cores(), 12);
        assert_eq!(cfg.clock_mhz, 100.0);
        assert!(cfg.dense_core_enabled);
    }

    #[test]
    fn from_allocation_rejects_bad_input() {
        assert!(HwConfig::from_allocation("t", Precision::Int4, &[]).is_err());
        assert!(HwConfig::from_allocation("t", Precision::Int4, &[1, 0, 2]).is_err());
    }

    #[test]
    fn paper_lw_matches_fig4_captions() {
        let svhn = HwConfig::paper_lw("svhn", Precision::Int4).unwrap();
        assert_eq!(svhn.dense_rows, 1);
        assert_eq!(svhn.neural_cores, vec![7, 1, 8, 2, 4, 14, 1, 2]);
        let c10 = HwConfig::paper_lw("cifar10", Precision::Int4).unwrap();
        assert_eq!(c10.neural_cores, vec![8, 4, 18, 6, 6, 20, 2, 1]);
        let c100 = HwConfig::paper_lw("cifar100", Precision::Fp32).unwrap();
        assert_eq!(c100.neural_cores, vec![7, 3, 12, 4, 18, 16, 4, 1]);
        assert!(HwConfig::paper_lw("imagenet", Precision::Int4).is_err());
    }

    #[test]
    fn perf_scaling_multiplies_cores() {
        let lw = HwConfig::paper("cifar10", Precision::Int4, PerfScale::Lw).unwrap();
        let p4 = HwConfig::paper("cifar10", Precision::Int4, PerfScale::Perf4).unwrap();
        assert_eq!(p4.total_neural_cores(), 4 * lw.total_neural_cores());
        assert_eq!(p4.dense_rows, 4 * lw.dense_rows);
    }

    #[test]
    fn cifar100_perf2_uses_table1_allocation() {
        let cfg = HwConfig::paper("cifar100", Precision::Int4, PerfScale::Perf2).unwrap();
        assert_eq!(cfg.dense_rows, 1);
        assert_eq!(cfg.neural_cores, vec![28, 12, 54, 16, 72, 70, 19, 4]);
    }

    #[test]
    fn perf_scale_factors_and_display() {
        assert_eq!(PerfScale::Lw.factor(), 1);
        assert_eq!(PerfScale::Perf2.factor(), 2);
        assert_eq!(PerfScale::Perf4.factor(), 4);
        assert_eq!(PerfScale::Perf2.to_string(), "perf2");
        assert_eq!(PerfScale::all().len(), 3);
    }

    #[test]
    fn modifiers_toggle_features() {
        let cfg = HwConfig::paper_lw("cifar10", Precision::Int4).unwrap();
        assert!(!cfg.clone().without_dense_core().dense_core_enabled);
        assert!(!cfg.clone().without_clock_gating().clock_gating);
        assert!(cfg.clock_gating);
    }

    #[test]
    fn cores_for_sparse_layer_bounds() {
        let cfg = HwConfig::paper_lw("cifar10", Precision::Int4).unwrap();
        assert_eq!(cfg.cores_for_sparse_layer(0).unwrap(), 8);
        assert_eq!(cfg.cores_for_sparse_layer(7).unwrap(), 1);
        assert!(cfg.cores_for_sparse_layer(8).is_err());
    }

    #[test]
    fn clock_period_is_10ns_at_100mhz() {
        let cfg = HwConfig::paper_lw("svhn", Precision::Int4).unwrap();
        assert_eq!(cfg.clock_mhz, 100.0);
    }
}
