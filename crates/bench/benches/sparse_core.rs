//! Criterion bench of the sparse core's cycle model: the neural-core unroll
//! sweep behind the paper's allocation choices (Sec. IV-B).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use snn_accel::sparse_core::SparseCore;
use snn_core::network::LayerGeometry;

fn sparse_core_vs_neural_cores(c: &mut Criterion) {
    // NC unroll factor sweep on a paper-scale CONV3_2 layer.
    let geo = LayerGeometry {
        name: "CONV3_2".to_string(),
        is_conv: true,
        in_channels: 480,
        out_channels: 504,
        in_height: 8,
        in_width: 8,
        out_height: 8,
        out_width: 8,
        kernel: 3,
        weight_count: 480 * 504 * 9,
    };
    let events = vec![6000_u64, 5500];
    let mut group = c.benchmark_group("sparse_core_timing_ncs");
    for ncs in [4usize, 18, 72] {
        group.bench_with_input(BenchmarkId::from_parameter(ncs), &ncs, |b, &ncs| {
            let core = SparseCore::new(ncs, 32);
            b.iter(|| core.timing(&events, &geo));
        });
    }
    group.finish();
}

criterion_group!(benches, sparse_core_vs_neural_cores);
criterion_main!(benches);
