//! Dense core: the weight-stationary systolic array that processes the
//! direct-coded input layer.
//!
//! The dense core (paper Fig. 2) has a fixed column of 27 processing elements
//! (3 input channels × 3×3 filter taps) and a configurable number of PE
//! *rows*; each row works on one output feature map at a time and the rows
//! tile across the output channels. Partial sums flow horizontally, image
//! pixels flow vertically, and one output membrane potential per row is
//! produced per cycle once the pipeline is full. The Activ unit then adds the
//! bias, applies the LIF leak/threshold and writes the spike train to BRAM.
//!
//! [`DenseCore::timing`] is the cycle model of that schedule, used by the
//! accelerator's performance estimates. It depends on the layer geometry and
//! the timestep count only: the dense core's work does not depend on the
//! input. What the layer computes is modelled once, by `snn-core`'s
//! `Conv2d` and LIF population.

use serde::{Deserialize, Serialize};

/// Cycle counts of one dense-core layer execution (all timesteps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DenseTiming {
    /// Cycles spent streaming pixels through the PE array.
    pub compute_cycles: u64,
    /// Cycles spent filling the systolic pipeline (once per output-channel
    /// tile and timestep).
    pub pipeline_fill_cycles: u64,
    /// Total cycles.
    pub total_cycles: u64,
}

/// The dense core configuration: number of PE rows.
///
/// # Example
///
/// ```
/// use snn_accel::dense_core::DenseCore;
///
/// let core = DenseCore::new(4);
/// assert_eq!(core.rows(), 4);
/// assert_eq!(core.pes(), 27 * 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DenseCore {
    rows: usize,
}

impl DenseCore {
    /// Creates a dense core with `rows` PE rows (each of 27 PEs).
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0`.
    pub fn new(rows: usize) -> Self {
        assert!(rows > 0, "dense core needs at least one PE row");
        DenseCore { rows }
    }

    /// Number of PE rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Total number of processing elements (27 per row).
    pub fn pes(&self) -> usize {
        27 * self.rows
    }

    /// Cycle count of the systolic schedule for a layer with `out_channels`
    /// output feature maps of `out_h × out_w` pixels over `timesteps` frames.
    ///
    /// Each group of `rows` output channels is processed in one pass over the
    /// image (one output pixel per row per cycle); every pass pays the
    /// pipeline fill latency of the 27-deep PE column plus the staggering
    /// registers.
    pub fn timing(
        &self,
        out_channels: usize,
        out_h: usize,
        out_w: usize,
        timesteps: usize,
    ) -> DenseTiming {
        let tiles = out_channels.div_ceil(self.rows) as u64;
        let pixels = (out_h * out_w) as u64;
        let fill_per_tile = 27 + self.rows as u64;
        let compute = tiles * pixels * timesteps as u64;
        let fill = tiles * fill_per_tile * timesteps as u64;
        DenseTiming {
            compute_cycles: compute,
            pipeline_fill_cycles: fill,
            total_cycles: compute + fill,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at least one PE row")]
    fn zero_rows_panics() {
        DenseCore::new(0);
    }

    #[test]
    fn pes_are_27_per_row() {
        assert_eq!(DenseCore::new(1).pes(), 27);
        assert_eq!(DenseCore::new(3).pes(), 81);
    }

    #[test]
    fn timing_scales_inversely_with_rows() {
        let one = DenseCore::new(1).timing(64, 32, 32, 2);
        let four = DenseCore::new(4).timing(64, 32, 32, 2);
        assert!(four.total_cycles < one.total_cycles);
        // 64 channels / 1 row = 64 tiles of 1024 pixels × 2 timesteps.
        assert_eq!(one.compute_cycles, 64 * 1024 * 2);
        assert_eq!(four.compute_cycles, 16 * 1024 * 2);
    }

    #[test]
    fn timing_includes_pipeline_fill_per_tile() {
        let t = DenseCore::new(2).timing(4, 4, 4, 1);
        // 2 tiles × (27 + 2) fill cycles.
        assert_eq!(t.pipeline_fill_cycles, 2 * 29);
        assert_eq!(t.total_cycles, t.compute_cycles + t.pipeline_fill_cycles);
    }

    #[test]
    fn timing_scales_linearly_with_timesteps() {
        let a = DenseCore::new(2).timing(16, 16, 16, 1);
        let b = DenseCore::new(2).timing(16, 16, 16, 4);
        assert_eq!(b.total_cycles, 4 * a.total_cycles);
    }
}
