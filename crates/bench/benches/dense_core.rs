//! Criterion bench of the dense core's cycle model: the systolic schedule of
//! the paper-scale input layer.

use criterion::{criterion_group, criterion_main, Criterion};
use snn_accel::dense_core::DenseCore;

fn dense_core_timing_model(c: &mut Criterion) {
    c.bench_function("dense_core_timing_model", |b| {
        let core = DenseCore::new(4);
        b.iter(|| core.timing(64, 32, 32, 2));
    });
}

criterion_group!(benches, dense_core_timing_model);
criterion_main!(benches);
