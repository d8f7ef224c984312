//! End-to-end arm of the spike-word differential harness: the full engine —
//! encoder, LIF populations, word-scan conv/linear/pool kernels, readout —
//! is bitwise deterministic across thread counts, coding schemes and weight
//! precisions. Per-kernel word ≡ dense equality lives in
//! `snn-core`'s `spike_words` suite; this test proves the composition: the
//! packed mask words flow through a complete network without perturbing a
//! single output bit, whether one worker or four carry the batch.

use snn::{Encoder, Engine, HwConfig, Precision, RunState, Tensor};
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
                assert_eq!(a.traces, b.traces, "{name}/{precision:?}: traces {i}");
            }
        }
    }
}

/// Spike counts reported by the engine come from mask-word popcounts; each
/// layer's must equal the number of ones in that layer's dense output
/// planes, and an all-zero image must produce zero input events under
/// direct coding.
#[test]
fn popcount_spike_statistics_are_consistent() {
    let encoder = Encoder::paper_direct();
    let engine = engine(1, encoder, Precision::Fp32);
    let image = &images(1)[0];
    let report = engine.session().run(image).unwrap();

    // The same run (seed 0), read plane by plane through the run loop's
    // observer: count the 1.0 cells of each layer's dense output backing.
    let network = engine.network();
    let mut ones = vec![0u64; network.layers().len()];
    let mut state = RunState::new(network).unwrap();
    network
        .run_observed(image, &encoder, 0, &mut state, |li, _, output, _| {
            ones[li] += output
                .dense()
                .as_slice()
                .iter()
                .filter(|&&v| v == 1.0)
                .count() as u64;
            Ok(())
        })
        .unwrap();
    let traced: Vec<u64> = report
        .traces
        .iter()
        .map(|t| t.total_output_spikes())
        .collect();
    assert_eq!(
        traced, ones,
        "per-layer trace totals vs ones in the dense output planes"
    );
    assert!(ones.iter().sum::<u64>() > 0, "the image must make spikes");

    let silent = engine.session().run(&Tensor::zeros(&[3, 16, 16])).unwrap();
    assert_eq!(
        silent.traces[0].input_events,
        vec![0; encoder.timesteps],
        "an all-zero direct-coded image has no input events"
    );
}
