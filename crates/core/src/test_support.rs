//! Adversarial spike-pattern generators and bitwise assertion helpers shared
//! by the differential-oracle test harnesses.
//!
//! The word-scan kernels ([`SpikePlane::iter_active`], the event paths of
//! `Conv2d`/`Linear`/`SpikeMaxPool2d`) are proven against one retained
//! oracle — the dense f32 reference — by asserting **bit-for-bit** equality
//! on planes engineered to hit every mask-word edge case: empty and full
//! words, a single bit per word, runs straddling the 63/64 and 127/128 word
//! boundaries, ragged tails (`len % 64 != 0`) and planted `±0.0` activations
//! (nonzero to the mask words, invisible to a sum accumulated from `+0.0`).
//!
//! This module is part of the library (not `#[cfg(test)]`) so integration
//! tests of downstream crates — `snn-train`'s backward harness, the engine's
//! end-to-end suite — generate the *same* corpus instead of each hand-rolling
//! a weaker one. It is deliberately dependency-free: deterministic closures
//! over [`splitmix64`], no proptest. Proptest harnesses
//! layer random shapes/seeds *on top of* these generators.

use crate::spike::{scan_words, SpikePlane};
use crate::splitmix64;
use crate::tensor::Tensor;

/// A named binary mask over `len` cells — one adversarial spike pattern.
#[derive(Debug, Clone)]
pub struct MaskCase {
    /// What the pattern stresses (shows up in assertion messages).
    pub name: &'static str,
    /// One entry per cell; `true` = spike.
    pub mask: Vec<bool>,
}

/// The adversarial mask corpus for a plane of `len` cells.
///
/// Deterministic — same `len` and `seed` always yield the same corpus; vary
/// `seed` (e.g. from a proptest strategy) to move the pseudorandom members.
///
/// # Examples
///
/// ```
/// use snn_core::test_support::adversarial_masks;
/// let corpus = adversarial_masks(100, 0);
/// assert!(corpus.iter().any(|c| c.name == "straddle-63-64"));
/// assert!(corpus.iter().all(|c| c.mask.len() == 100));
/// ```
pub fn adversarial_masks(len: usize, seed: u64) -> Vec<MaskCase> {
    let mut corpus = Vec::new();
    let mut push = |name: &'static str, f: &dyn Fn(usize) -> bool| {
        corpus.push(MaskCase {
            name,
            mask: (0..len).map(f).collect(),
        });
    };
    push("empty", &|_| false);
    push("full", &|_| true);
    push("first-and-last", &|i| i == 0 || i + 1 == len);
    // Exactly one bit per mask word, alternating between the word's lowest
    // and highest in-range bit.
    push("single-bit-per-word", &|i| {
        if (i / 64) % 2 == 0 {
            i % 64 == 0
        } else {
            i % 64 == 63 || i + 1 == len
        }
    });
    // Dense runs straddling the first and second word boundaries.
    push("straddle-63-64", &|i| (62..=65).contains(&i));
    push("straddle-127-128", &|i| (126..=129).contains(&i));
    // Every bit of the final (possibly partial) word: the ragged tail.
    push("ragged-tail", &|i| i >= (len.saturating_sub(1) / 64) * 64);
    push("alternating", &|i| i % 2 == 0);
    // Pseudorandom fills at sparse / balanced / near-full densities.
    for (name, thresh) in [
        ("hash-5pct", 50_u64),
        ("hash-50pct", 500),
        ("hash-95pct", 950),
    ] {
        corpus.push(MaskCase {
            name,
            mask: (0..len)
                .map(|i| splitmix64(seed ^ (i as u64).wrapping_mul(0x9e37)) % 1000 < thresh)
                .collect(),
        });
    }
    corpus
}

/// Builds a binary [`SpikePlane`] for `mask` via the dense-assign path
/// ([`SpikePlane::assign`]), which derives the mask words by scanning the
/// dense tensor.
///
/// # Panics
///
/// Panics if `mask.len()` differs from the product of `shape`.
pub fn plane_from_mask(shape: &[usize], mask: &[bool]) -> SpikePlane {
    assert_eq!(mask.len(), shape.iter().product::<usize>(), "mask length");
    let dense = Tensor::from_fn(shape, |i| f32::from(mask[i]));
    SpikePlane::from_tensor(&dense)
}

/// Builds the same plane via the incremental event path
/// ([`SpikePlane::begin`] + [`SpikePlane::push`]) — the route the LIF
/// populations and encoders take. Differential harnesses build each case
/// both ways and assert the two planes are equal.
///
/// # Panics
///
/// Panics if `mask.len()` differs from the product of `shape`.
pub fn plane_from_mask_pushed(shape: &[usize], mask: &[bool]) -> SpikePlane {
    assert_eq!(mask.len(), shape.iter().product::<usize>(), "mask length");
    let mut plane = SpikePlane::new();
    plane.begin(shape);
    for (i, &on) in mask.iter().enumerate() {
        if on {
            plane.push(i);
        }
    }
    plane
}

/// A dense analog tensor with planted exact `+0.0` and `-0.0` cells — the
/// regime where "nonzero to the mask words" and "invisible to a sum" must
/// be kept distinct. Used for gradient frames and analog-plane inputs.
pub fn planted_zero_tensor(shape: &[usize], seed: u64) -> Tensor {
    Tensor::from_fn(shape, |i| {
        let h = splitmix64(seed ^ (i as u64).wrapping_mul(0x85eb)) % 1000;
        if h < 150 {
            0.0
        } else if h < 300 {
            -0.0
        } else {
            (h as f32 - 600.0) * 1e-3
        }
    })
}

/// Asserts the mask words of a [`SpikePlane`] agree exactly with its dense
/// backing:
///
/// * the words hold `len.div_ceil(64)` entries;
/// * every bit at or beyond `len` in the final word is zero (the tail-word
///   invariant);
/// * word-scanning them yields exactly the positions where the dense backing
///   is nonzero;
/// * [`SpikePlane::count_active`] (a popcount) matches.
///
/// # Panics
///
/// Panics with `ctx` in the message when any view disagrees.
pub fn assert_plane_views_agree(plane: &SpikePlane, ctx: &str) {
    let len = plane.len();
    let words = plane.as_words();
    assert_eq!(words.len(), len.div_ceil(64), "{ctx}: word count");
    if !len.is_multiple_of(64) {
        if let Some(&tail) = words.last() {
            assert_eq!(tail >> (len % 64), 0, "{ctx}: tail bits beyond len set");
        }
    }
    let scanned: Vec<usize> = scan_words(words).collect();
    let dense_nonzero: Vec<usize> = plane
        .dense()
        .as_slice()
        .iter()
        .enumerate()
        .filter_map(|(i, &v)| (v != 0.0).then_some(i))
        .collect();
    assert_eq!(scanned, dense_nonzero, "{ctx}: word scan vs dense backing");
    assert_eq!(plane.count_active(), scanned.len(), "{ctx}: popcount");
}

/// Asserts two tensors are equal **bit for bit** (`f32::to_bits`), so
/// `-0.0 != +0.0` and NaN payloads count — the equality the differential
/// oracles are held to.
///
/// # Panics
///
/// Panics with `ctx`, the cell index and both values on any mismatch.
pub fn assert_tensor_bits_eq(a: &Tensor, b: &Tensor, ctx: &str) {
    assert_eq!(a.shape(), b.shape(), "{ctx}: shape");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice().iter()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{ctx}: cell {i}: {x:?} vs {y:?} differ bitwise"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_hits_the_advertised_edge_cases() {
        let len = 130; // two full words + a 2-bit ragged tail
        let corpus = adversarial_masks(len, 7);
        let get = |name: &str| {
            &corpus
                .iter()
                .find(|c| c.name == name)
                .unwrap_or_else(|| panic!("missing case {name}"))
                .mask
        };
        assert!(get("empty").iter().all(|&b| !b));
        assert!(get("full").iter().all(|&b| b));
        assert_eq!(
            get("straddle-63-64")
                .iter()
                .enumerate()
                .filter_map(|(i, &b)| b.then_some(i))
                .collect::<Vec<_>>(),
            vec![62, 63, 64, 65]
        );
        // Ragged tail covers exactly the final partial word.
        assert_eq!(
            get("ragged-tail")
                .iter()
                .enumerate()
                .filter_map(|(i, &b)| b.then_some(i))
                .collect::<Vec<_>>(),
            vec![128, 129]
        );
        // Deterministic: the same seed reproduces the corpus.
        let again = adversarial_masks(len, 7);
        for (a, b) in corpus.iter().zip(again.iter()) {
            assert_eq!(a.mask, b.mask, "{} not deterministic", a.name);
        }
    }

    #[test]
    fn both_construction_paths_agree_on_every_corpus_case() {
        let shape = [2_usize, 9, 9]; // len 162: ragged tail
        let len: usize = shape.iter().product();
        for case in adversarial_masks(len, 3) {
            let assigned = plane_from_mask(&shape, &case.mask);
            let pushed = plane_from_mask_pushed(&shape, &case.mask);
            // A producer may set bits in any order: push them descending.
            let mut descending = SpikePlane::new();
            descending.begin(&shape);
            for i in (0..len).rev().filter(|&i| case.mask[i]) {
                descending.push(i);
            }
            assert_eq!(assigned, pushed, "{}: assign vs push", case.name);
            assert_eq!(descending, pushed, "{}: push order", case.name);
            assert_plane_views_agree(&assigned, case.name);
            assert_plane_views_agree(&pushed, case.name);
            assert_plane_views_agree(&descending, case.name);
        }
    }

    #[test]
    fn planted_zero_tensor_contains_both_zero_signs() {
        let t = planted_zero_tensor(&[256], 1);
        let pos = t.as_slice().iter().filter(|v| v.to_bits() == 0).count();
        let neg = t
            .as_slice()
            .iter()
            .filter(|v| v.to_bits() == (-0.0_f32).to_bits())
            .count();
        assert!(pos > 0 && neg > 0, "corpus lost its planted zeros");
    }

    #[test]
    #[should_panic(expected = "differ bitwise")]
    fn bitwise_assert_distinguishes_zero_signs() {
        let pos = Tensor::from_vec(vec![0.0_f32], &[1]).unwrap();
        let neg = Tensor::from_vec(vec![-0.0_f32], &[1]).unwrap();
        // `0.0 == -0.0` under IEEE comparison; the oracle must still reject.
        assert_tensor_bits_eq(&pos, &neg, "signed zero");
    }
}
