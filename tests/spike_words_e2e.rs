//! End-to-end arm of the spike-word differential harness: the full engine —
//! encoder, LIF populations, word-scan conv/linear/pool kernels, readout —
//! is bitwise deterministic across thread counts, coding schemes and weight
//! precisions. Per-kernel word ≡ dense equality lives in
//! `snn-core`'s `spike_words` suite; this test proves the composition: the
//! packed mask words flow through a complete network without perturbing a
//! single output bit, whether one worker or four carry the batch.

use snn::{Encoder, Engine, HwConfig, Precision, Tensor};
use snn_core::network::{vgg9, Vgg9Config};

fn images(n: usize) -> Vec<Tensor> {
    (0..n)
        .map(|k| {
            Tensor::from_fn(&[3, 16, 16], move |i| {
                (((i + 389 * k) as f32) * 0.0173).sin().abs()
            })
        })
        .collect()
}

fn engine(threads: usize, encoder: Encoder, precision: Precision) -> Engine {
    let mut builder = Engine::builder()
        .network(vgg9(&Vgg9Config::cifar10_small()).unwrap())
        .encoder(encoder)
        .precision(precision)
        .threads(threads);
    // Binary-input encoders bypass the dense core, so they take a sparse
    // allocation with an input-layer entry; analog direct coding keeps the
    // dense core for layer 0.
    builder = if encoder.produces_binary_input() {
        builder.hardware(
            HwConfig::from_allocation("words-e2e", precision, &[1, 1, 8, 4, 18, 6, 6, 20, 2, 1])
                .unwrap()
                .without_dense_core(),
        )
    } else {
        builder.hardware_allocation("words-e2e", &[1, 8, 4, 18, 6, 6, 20, 2, 1])
    };
    builder.build().unwrap()
}

#[test]
fn word_scan_inference_is_bitwise_identical_across_threads() {
    let imgs = images(5); // not a multiple of 4: one ragged worker chunk
    for precision in [Precision::Fp32, Precision::Int4] {
        for (name, encoder) in [
            ("direct", Encoder::paper_direct()),
            ("rate", Encoder::rate(6)),
        ] {
            let single = engine(1, encoder, precision)
                .session()
                .run_batch_seeded(&imgs, 11)
                .unwrap();
            let quad = engine(4, encoder, precision)
                .session()
                .run_batch_seeded(&imgs, 11)
                .unwrap();
            for (i, (a, b)) in single.reports.iter().zip(quad.reports.iter()).enumerate() {
                assert_eq!(
                    a.logits, b.logits,
                    "{name}/{precision:?}: logits diverge across threads at image {i}"
                );
                assert_eq!(
                    a.prediction, b.prediction,
                    "{name}/{precision:?}: image {i}"
                );
                assert_eq!(a.record, b.record, "{name}/{precision:?}: spike record {i}");
                assert_eq!(a.traces, b.traces, "{name}/{precision:?}: traces {i}");
            }
        }
    }
}

/// Spike counts reported by the engine come from mask-word popcounts; they
/// must equal the number of ones in the recorded spike trains, and an
/// all-zero image must produce zero input events under direct coding.
#[test]
fn popcount_spike_statistics_are_consistent() {
    let engine = engine(1, Encoder::paper_direct(), Precision::Fp32);
    let report = engine.session().run(&images(1)[0]).unwrap();
    let recorded = report.record.total_spikes();
    let traced: u64 = report.traces.iter().map(|t| t.total_output_spikes()).sum();
    assert_eq!(
        recorded, traced,
        "record vs per-layer trace spike totals disagree"
    );
}
