//! Sparse core: the event-driven engine that processes every spiking layer.
//!
//! A sparse core (paper Fig. 3) consists of an Event Control Unit (ECU) and
//! `N` neural cores (NCs):
//!
//! 1. the ECU's **Compression routine** fetches a spike train from the input
//!    spike RAM, tiles it into `n`-bit chunks and uses a priority encoder to
//!    emit the addresses of set bits into the `SpikeEvents` register array,
//!    resetting each found bit so the next one can be located;
//! 2. the **Address Generation routine** expands every spike event into the
//!    (row, col) addresses of the `k × k` neurons it influences;
//! 3. each **NC**'s Accum routine reads the membrane potential from BRAM,
//!    adds the filter coefficient and writes it back — one neuron per cycle —
//!    with the output channels unrolled by `N` (NC `i` handles channels
//!    `i, i+N, i+2N, …`);
//! 4. once every input feature map has been consumed, the NC's Activ routine
//!    runs the LIF spiking phase and writes the output spike train to BRAM.
//!
//! [`SparseCore::timing`] is the analytic cycle model of these routines,
//! driven by a layer's per-timestep input spike counts and its geometry. A
//! fully-connected layer is the 1×1, `kernel = 1` case of a convolution, so
//! one formula serves both. What the routines compute is modelled once, by
//! the `snn-core` layers and LIF populations.

use serde::{Deserialize, Serialize};
use snn_core::network::LayerGeometry;

/// Cycle counts of one sparse-core layer execution (all timesteps).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SparseTiming {
    /// Cycles the Compression routine needs to scan the input spike trains.
    pub compression_cycles: u64,
    /// Cycles the NC accumulation phase needs (the Eq. 3 workload divided by
    /// the NC unroll factor).
    pub accumulation_cycles: u64,
    /// Cycles of the LIF activation phase (output neurons per NC).
    pub activation_cycles: u64,
    /// Total cycles. Compression overlaps with accumulation, so the total is
    /// `max(compression, accumulation) + activation` per timestep.
    pub total_cycles: u64,
}

impl SparseTiming {
    fn add(&mut self, other: SparseTiming) {
        self.compression_cycles += other.compression_cycles;
        self.accumulation_cycles += other.accumulation_cycles;
        self.activation_cycles += other.activation_cycles;
        self.total_cycles += other.total_cycles;
    }
}

/// One sparse core instance: its NC unroll factor and compression chunk width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SparseCore {
    neural_cores: usize,
    chunk_bits: usize,
}

impl SparseCore {
    /// Creates a sparse core with `neural_cores` NCs and an ECU that scans
    /// `chunk_bits` bits of spike train per cycle.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(neural_cores: usize, chunk_bits: usize) -> Self {
        assert!(
            neural_cores > 0,
            "sparse core needs at least one neural core"
        );
        assert!(chunk_bits > 0, "compression chunk width must be positive");
        SparseCore {
            neural_cores,
            chunk_bits,
        }
    }

    /// Number of neural cores (output-channel unroll factor `N`).
    pub fn neural_cores(&self) -> usize {
        self.neural_cores
    }

    /// Compression chunk width in bits.
    pub fn chunk_bits(&self) -> usize {
        self.chunk_bits
    }

    /// Analytic cycle count of one layer given its per-timestep input spike
    /// counts and its geometry. At a timestep with `E` input events, with
    /// `n`-bit chunks and `N` neural cores:
    ///
    /// ```text
    /// compression  = ⌈C_in · H_in · W_in / n⌉ + E
    /// accumulation = E · k² · ⌈C_out / N⌉
    /// activation   = ⌈C_out / N⌉ · H_out · W_out
    /// total        = max(compression, accumulation) + activation
    /// ```
    ///
    /// The returned timing sums these over the timesteps.
    pub fn timing(&self, events_per_step: &[u64], geo: &LayerGeometry) -> SparseTiming {
        let input_bits = (geo.in_channels * geo.in_height * geo.in_width) as u64;
        let taps = (geo.kernel * geo.kernel) as u64;
        let channels_per_nc = geo.out_channels.div_ceil(self.neural_cores) as u64;
        let activation = channels_per_nc * (geo.out_height * geo.out_width) as u64;
        let mut total = SparseTiming::default();
        for &events in events_per_step {
            let compression = input_bits.div_ceil(self.chunk_bits as u64) + events;
            let accumulation = events * taps * channels_per_nc;
            total.add(SparseTiming {
                compression_cycles: compression,
                accumulation_cycles: accumulation,
                activation_cycles: activation,
                total_cycles: compression.max(accumulation) + activation,
            });
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Geometry of a `size × size`, `kernel × kernel`, stride-1 "same"
    /// convolution; `kernel = 1` on a 1×1 map is a fully-connected layer.
    fn geometry(
        in_channels: usize,
        out_channels: usize,
        size: usize,
        kernel: usize,
    ) -> LayerGeometry {
        LayerGeometry {
            name: "L".to_string(),
            is_conv: kernel > 1,
            in_channels,
            out_channels,
            in_height: size,
            in_width: size,
            out_height: size,
            out_width: size,
            kernel,
            weight_count: in_channels * out_channels * kernel * kernel,
        }
    }

    #[test]
    #[should_panic(expected = "at least one neural core")]
    fn zero_ncs_panic() {
        SparseCore::new(0, 32);
    }

    #[test]
    fn silent_input_produces_no_accumulation_work() {
        // Two silent timesteps into a 2→4 channel 3×3 conv on 8×8 maps.
        let timing = SparseCore::new(2, 32).timing(&[0, 0], &geometry(2, 4, 8, 3));
        assert_eq!(timing.accumulation_cycles, 0);
        // Compression still scans the (empty) spike trains: 128 bits in
        // 32-bit chunks per timestep.
        assert_eq!(timing.compression_cycles, 2 * 4);
        // Activation still visits 2 channels per NC × 64 neurons per step.
        assert_eq!(timing.activation_cycles, 2 * 2 * 64);
        assert_eq!(
            timing.total_cycles,
            timing.compression_cycles + timing.activation_cycles
        );
    }

    #[test]
    fn more_neural_cores_reduce_accumulation_cycles() {
        let geo = geometry(112, 192, 16, 3);
        let events = vec![5000_u64, 4000];
        let small = SparseCore::new(2, 32).timing(&events, &geo);
        let big = SparseCore::new(16, 32).timing(&events, &geo);
        assert!(big.accumulation_cycles < small.accumulation_cycles);
        assert!(big.total_cycles < small.total_cycles);
        // Eq. 3 shape: accumulation = events × 9 × ceil(C_out / N).
        assert_eq!(small.accumulation_cycles, 9000 * 9 * 96);
    }

    #[test]
    fn timing_scales_with_spike_count() {
        // FC1 as the 1×1 case: 1024 inputs → 512 outputs, 4 NCs, 32-bit chunks.
        let geo = geometry(1024, 512, 1, 1);
        let quiet = SparseCore::new(4, 32).timing(&[100], &geo);
        let busy = SparseCore::new(4, 32).timing(&[10_000], &geo);
        assert!(busy.total_cycles > quiet.total_cycles);
        assert_eq!(quiet.compression_cycles, 1024 / 32 + 100);
        assert_eq!(busy.compression_cycles, 1024 / 32 + 10_000);
        assert_eq!(quiet.accumulation_cycles, 100 * 128);
        assert_eq!(busy.accumulation_cycles, 10_000 * 128);
        assert_eq!(quiet.activation_cycles, 128);
        assert_eq!(busy.activation_cycles, 128);
        // Accumulation dominates compression at both counts.
        assert_eq!(quiet.total_cycles, 100 * 128 + 128);
        assert_eq!(busy.total_cycles, 10_000 * 128 + 128);
    }

    #[test]
    fn wider_chunks_speed_up_compression() {
        let geo = geometry(216, 480, 8, 3);
        let narrow = SparseCore::new(8, 8).timing(&[100], &geo);
        let wide = SparseCore::new(8, 64).timing(&[100], &geo);
        assert!(wide.compression_cycles < narrow.compression_cycles);
    }
}
