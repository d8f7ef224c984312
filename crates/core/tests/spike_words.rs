//! The differential-oracle harness for the bit-packed spike planes and their
//! word-scan kernels.
//!
//! Every optimized path is held to **bit-for-bit** equality against one
//! retained oracle: the **dense f32** reference (`forward` over the plane's
//! dense backing) — the ground truth every event path has always been
//! measured against.
//!
//! Inputs come from [`snn_core::test_support::adversarial_masks`]: empty and
//! full planes, one bit per mask word, runs straddling the 63/64 and 127/128
//! word boundaries, ragged tails (`len % 64 != 0`) and pseudorandom fills —
//! with proptest layering random geometries (strides, paddings, ragged
//! heights/widths) and seeds on top. Both weight precisions (fp32 and the
//! fake-quantized int4) run through every layer comparison; engine-level
//! thread counts are covered by the crate-root `spike_words_e2e` suite.

use proptest::prelude::*;
use snn_core::layers::{Conv2d, Linear, SpikeMaxPool2d};
use snn_core::quant::Precision;
use snn_core::spike::SpikePlane;
use snn_core::tensor::Tensor;
use snn_core::test_support::{
    adversarial_masks, assert_plane_views_agree, assert_tensor_bits_eq, plane_from_mask,
    plane_from_mask_pushed,
};

/// Kaiming-initialized 2 → `out_c` conv at both precisions: the fp32 layer
/// and its int4-fake-quantized counterpart (still f32 arithmetic, so the
/// bitwise contract is unchanged — only the weights move to the int4 grid).
fn conv_pair(
    seed: u64,
    out_c: usize,
    stride: usize,
    padding: usize,
) -> Vec<(&'static str, Conv2d)> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let fp32 = Conv2d::with_kaiming_init(2, out_c, 3, stride, padding, &mut rng).unwrap();
    let int4 = fp32.to_precision(Precision::Int4).unwrap();
    vec![("fp32", fp32), ("int4", int4)]
}

fn linear_pair(seed: u64, n_in: usize, n_out: usize) -> Vec<(&'static str, Linear)> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let fp32 = Linear::with_kaiming_init(n_in, n_out, &mut rng).unwrap();
    let int4 = fp32.to_precision(Precision::Int4).unwrap();
    vec![("fp32", fp32), ("int4", int4)]
}

proptest! {
    /// The two views of a plane (mask words, dense backing) agree on every
    /// corpus case and random fill, whichever construction path built the
    /// plane.
    #[test]
    fn plane_views_agree_on_corpus_and_random_planes(
        c in 1_usize..3,
        h in 1_usize..10,
        w in 1_usize..12,
        seed in 0_u64..1000,
        random_bits in proptest::collection::vec(any::<bool>(), 1..256),
    ) {
        let shape = [c, h, w];
        let len = c * h * w;
        for case in adversarial_masks(len, seed) {
            let assigned = plane_from_mask(&shape, &case.mask);
            let pushed = plane_from_mask_pushed(&shape, &case.mask);
            prop_assert_eq!(&assigned, &pushed, "{}: assign vs push", case.name);
            assert_plane_views_agree(&assigned, case.name);
        }
        // A fully random mask on top of the engineered corpus.
        let mask: Vec<bool> = (0..len).map(|i| random_bits[i % random_bits.len()]).collect();
        let plane = plane_from_mask(&shape, &mask);
        prop_assert_eq!(&plane, &plane_from_mask_pushed(&shape, &mask));
        assert_plane_views_agree(&plane, "random");
    }

    /// `Conv2d`: word-scan forward ≡ dense matmul forward, bit for bit, at
    /// fp32 and int4, across ragged geometries, strides and paddings, on the
    /// full adversarial corpus.
    #[test]
    fn conv_forward_word_equals_dense(
        h in 3_usize..9,
        w in 3_usize..11,
        stride in 1_usize..3,
        padding in 0_usize..2,
        seed in 0_u64..500,
    ) {
        let shape = [2_usize, h, w];
        let len: usize = shape.iter().product();
        for (prec, conv) in conv_pair(seed, 3, stride, padding) {
            for case in adversarial_masks(len, seed) {
                let plane = plane_from_mask(&shape, &case.mask);
                let word = conv.forward_spikes(&plane).unwrap();
                let dense = conv.forward(plane.dense()).unwrap();
                let ctx = format!("conv {prec} {}", case.name);
                assert_tensor_bits_eq(&word, &dense, &format!("{ctx}: word vs dense"));
            }
        }
    }

    /// `Conv2d`: the event forward ≡ the dense forward, bit for bit, at fp32
    /// and int4, at every output width `Conv2d::add_tap_rows` compiles a
    /// fixed-width row add for (8, 16, 24, 32) and at one it does not (12),
    /// on the full adversarial corpus. `forward_spikes` takes the event path
    /// at any density.
    #[test]
    fn conv_forward_word_equals_dense_at_every_row_width(
        h in 3_usize..9,
        w in 3_usize..11,
        stride in 1_usize..3,
        padding in 0_usize..2,
        seed in 0_u64..500,
    ) {
        let shape = [2_usize, h, w];
        let len: usize = shape.iter().product();
        let corpus = adversarial_masks(len, seed);
        for out_c in [8, 16, 24, 32, 12] {
            for (prec, conv) in conv_pair(seed, out_c, stride, padding) {
                for case in &corpus {
                    let plane = plane_from_mask(&shape, &case.mask);
                    let word = conv.forward_spikes(&plane).unwrap();
                    let dense = conv.forward(plane.dense()).unwrap();
                    let ctx = format!("conv {out_c} {prec} {}", case.name);
                    assert_tensor_bits_eq(&word, &dense, &format!("{ctx}: word vs dense"));
                }
            }
        }
    }

    /// `Linear`: word-scan forward ≡ dense matvec, bit for bit, at fp32 and
    /// int4, including ragged in-feature counts (`n_in % 64 != 0`) that
    /// exercise the tail word.
    #[test]
    fn linear_forward_word_equals_dense(
        n_in in 1_usize..200,
        n_out in 1_usize..12,
        seed in 0_u64..500,
    ) {
        for (prec, fc) in linear_pair(seed, n_in, n_out) {
            for case in adversarial_masks(n_in, seed) {
                let plane = plane_from_mask(&[n_in], &case.mask);
                let word = fc.forward_spikes(&plane).unwrap();
                let dense = fc.forward(plane.dense()).unwrap();
                let ctx = format!("linear {prec} {}", case.name);
                assert_tensor_bits_eq(&word, &dense, &format!("{ctx}: word vs dense"));
            }
        }
    }

    /// `SpikeMaxPool2d`: the word-scan plane forward produces a plane whose
    /// views agree, whose dense backing equals the dense window-OR forward
    /// bit for bit, and which equals the plane assigned from that forward.
    #[test]
    fn pool_forward_word_equals_dense(
        h in 3_usize..10,
        w in 3_usize..12,
        size in 2_usize..4,
        seed in 0_u64..500,
    ) {
        // h, w >= 3 >= size, so the window always fits.
        let shape = [2_usize, h, w];
        let len: usize = shape.iter().product();
        let pool = SpikeMaxPool2d::new(size).unwrap();
        for case in adversarial_masks(len, seed) {
            let plane = plane_from_mask(&shape, &case.mask);
            let mut word = SpikePlane::new();
            pool.forward_plane(&plane, &mut word).unwrap();
            let ctx = format!("pool {}", case.name);
            assert_plane_views_agree(&word, &ctx);
            let dense = pool.forward(plane.dense()).unwrap();
            assert_tensor_bits_eq(word.dense(), &dense, &format!("{ctx}: word vs dense"));
            let dense_plane = SpikePlane::from_tensor(&dense);
            prop_assert_eq!(&word, &dense_plane, "{}: word vs dense plane", &ctx);
        }
    }
}

/// Non-proptest spot checks of the exact boundary geometry the bit packing
/// must get right: a plane of 64 cells has one word, 65 cells two, and the
/// boundary bits land in the right words.
#[test]
fn word_boundary_bit_placement_is_exact() {
    let mut plane = SpikePlane::new();
    plane.begin(&[65]);
    plane.push(63);
    plane.push(64);
    assert_eq!(plane.as_words(), &[1_u64 << 63, 1]);
    assert_eq!(plane.iter_active().collect::<Vec<_>>(), vec![63, 64]);

    let mut exact = SpikePlane::new();
    exact.begin(&[64]);
    assert_eq!(exact.as_words().len(), 1);
    exact.push(0);
    exact.push(63);
    assert_eq!(exact.as_words(), &[(1_u64 << 63) | 1]);
}

/// Both event paths, conv and linear, reject analog planes.
#[test]
fn event_kernels_reject_analog_planes_on_both_paths() {
    let conv = Conv2d::new(1, 2, 3, 1, 1).unwrap();
    let analog = SpikePlane::from_tensor(&Tensor::from_fn(&[1, 4, 4], |i| i as f32 * 0.3));
    assert!(conv.forward_spikes(&analog).is_err());
    let fc = Linear::new(16, 2).unwrap();
    let flat = SpikePlane::from_tensor(&Tensor::from_fn(&[16], |i| i as f32 * 0.3));
    assert!(fc.forward_spikes(&flat).is_err());
}
