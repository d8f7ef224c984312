//! Criterion bench of the quantization path: fake-quantization of weight
//! tensors, whole-network precision application and the spike-count
//! comparison that drives Fig. 1.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use snn_bench::experiments::bench_image;
use snn_core::encoding::Encoder;
use snn_core::network::{total_output_spikes, vgg9, Vgg9Config};
use snn_core::quant::{fake_quantize, Precision, QuantizedTensor};
use snn_core::tensor::Tensor;

fn fake_quantize_weights(c: &mut Criterion) {
    let weights = Tensor::from_fn(&[64, 64, 3, 3], |i| ((i as f32) * 0.001).sin() * 0.3);
    let mut group = c.benchmark_group("fake_quantize");
    for precision in [Precision::Int8, Precision::Int4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(precision),
            &precision,
            |b, &p| {
                b.iter(|| fake_quantize(&weights, p).unwrap());
            },
        );
    }
    group.finish();
}

fn quantized_tensor_roundtrip(c: &mut Criterion) {
    let weights = Tensor::from_fn(&[112, 64, 3, 3], |i| ((i as f32) * 0.0007).cos() * 0.2);
    c.bench_function("quantized_tensor_roundtrip_int4", |b| {
        b.iter(|| {
            QuantizedTensor::quantize(&weights, Precision::Int4)
                .unwrap()
                .dequantize()
        });
    });
}

fn network_precision_and_spikes(c: &mut Criterion) {
    let image = bench_image(&[3, 16, 16]);
    let mut group = c.benchmark_group("network_precision_spikes");
    for precision in [Precision::Fp32, Precision::Int4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(precision),
            &precision,
            |b, &p| {
                b.iter(|| {
                    let mut net = vgg9(&Vgg9Config::cifar10_small()).unwrap();
                    net.apply_precision(p).unwrap();
                    let out = net.run(&image, &Encoder::paper_direct()).unwrap();
                    total_output_spikes(&out.traces)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    fake_quantize_weights,
    quantized_tensor_roundtrip,
    network_precision_and_spikes
);
criterion_main!(benches);
