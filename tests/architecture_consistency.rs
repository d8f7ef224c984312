//! Integration tests checking that the accelerator's cost model consumes
//! exactly the spike counts the network's one forward loop produces, and
//! that the coding-scheme / scaling trends reported by the paper hold end to
//! end through the `Engine`/`Session` facade.

use snn::accel::dense_core::DenseCore;
use snn::accel::dse::allocate_balanced;
use snn::accel::sparse_core::SparseCore;
use snn::accel::workload::from_traces;
use snn::accel::HybridAccelerator;
use snn::core::network::{vgg9, RunState, SnnNetwork, Vgg9Config};
use snn::{Encoder, Engine, HwConfig, PerfScale, Precision, Tensor};

fn small_image() -> Tensor {
    Tensor::from_fn(&[3, 16, 16], |i| ((i as f32) * 0.019).sin().abs())
}

/// Direct coding at T = 2 with the dense core, and rate coding at T = 5
/// without it, each with its hardware allocation.
fn codings() -> [(Encoder, HwConfig); 2] {
    let direct =
        HwConfig::from_allocation("direct", Precision::Int4, &[1, 8, 4, 18, 6, 6, 20, 2, 1])
            .unwrap();
    let rate =
        HwConfig::from_allocation("rate", Precision::Int4, &[1, 1, 8, 4, 18, 6, 6, 20, 2, 1])
            .unwrap()
            .without_dense_core();
    [(Encoder::direct(2), direct), (Encoder::rate(5), rate)]
}

/// The popcounts of the input and output planes `SnnNetwork::run_observed`
/// hands its observer, per layer and timestep.
fn observed_counts(
    network: &SnnNetwork,
    image: &Tensor,
    encoder: &Encoder,
    seed: u64,
) -> (Vec<Vec<u64>>, Vec<Vec<u64>>) {
    let layers = network.layers().len();
    let (mut inputs, mut outputs) = (vec![Vec::new(); layers], vec![Vec::new(); layers]);
    let mut state = RunState::new(network).unwrap();
    network
        .run_observed(image, encoder, seed, &mut state, |li, input, output, _| {
            inputs[li].push(input.count_active() as u64);
            outputs[li].push(output.count_active() as u64);
            Ok(())
        })
        .unwrap();
    (inputs, outputs)
}

#[test]
fn observed_planes_match_the_traced_spike_counts() {
    // For every layer and timestep, the trace's counts are the popcounts of
    // the planes `run_observed` hands its observer.
    let network = vgg9(&Vgg9Config::cifar10_small()).unwrap();
    let image = small_image();
    for (encoder, _) in codings() {
        let seed = 3;
        let (inputs, outputs) = observed_counts(&network, &image, &encoder, seed);
        let out = network.run_seeded(&image, &encoder, seed).unwrap();
        assert_eq!(out.traces.len(), network.layers().len());
        for (li, trace) in out.traces.iter().enumerate() {
            assert_eq!(trace.input_events.len(), encoder.timesteps);
            assert_eq!(trace.input_events, inputs[li], "{} inputs", trace.name);
            assert_eq!(trace.output_spikes, outputs[li], "{} outputs", trace.name);
        }
    }
}

#[test]
fn estimate_consumes_the_observed_spike_counts() {
    // Each weight layer's estimate folds exactly the observed counts, and
    // each sparse layer's cycles are `SparseCore::timing` over them.
    let network = vgg9(&Vgg9Config::cifar10_small()).unwrap();
    let image = small_image();
    for (encoder, hw) in codings() {
        let seed = 3;
        let (inputs, _) = observed_counts(&network, &image, &encoder, seed);
        let out = network.run_seeded(&image, &encoder, seed).unwrap();
        let accel = HybridAccelerator::new(&network, hw.clone()).unwrap();
        let report = accel.estimate(&out.traces).unwrap();
        let weight_layers = out
            .traces
            .iter()
            .enumerate()
            .filter_map(|(li, trace)| trace.geometry.as_ref().map(|geo| (li, geo)));
        let mut checked = 0;
        for (w, (li, geo)) in weight_layers.enumerate() {
            let perf = &report.layers[w];
            assert_eq!(perf.name, geo.name);
            assert_eq!(
                perf.input_events,
                inputs[li].iter().sum::<u64>(),
                "{}",
                geo.name
            );
            if hw.dense_core_enabled && w == 0 {
                continue;
            }
            let sparse_index = w - usize::from(hw.dense_core_enabled);
            let core = SparseCore::new(hw.neural_cores[sparse_index], hw.chunk_bits);
            let cycles = core.timing(&inputs[li], geo).total_cycles;
            assert_eq!(perf.cycles, cycles, "{} cycles", geo.name);
            checked += 1;
        }
        assert_eq!(report.layers.len(), 9);
        assert_eq!(checked, 9 - usize::from(hw.dense_core_enabled));
    }
}

#[test]
fn dense_core_costs_the_networks_first_layer() {
    // With direct coding the dense core runs the first layer: its cycles are
    // `DenseCore::timing` over the layer's geometry and the timestep count,
    // whatever the image.
    let network = vgg9(&Vgg9Config::cifar10_small()).unwrap();
    let [(encoder, hw), _] = codings();
    assert!(hw.dense_core_enabled);
    let accel = HybridAccelerator::new(&network, hw.clone()).unwrap();
    let bright = Tensor::from_fn(&[3, 16, 16], |_| 1.0);
    let mut first_layer_cycles = Vec::new();
    for image in [small_image(), bright] {
        let out = network.run(&image, &encoder).unwrap();
        let geo = out.traces[0].geometry.as_ref().unwrap();
        let timing = DenseCore::new(hw.dense_rows).timing(
            geo.out_channels,
            geo.out_height,
            geo.out_width,
            encoder.timesteps,
        );
        assert!(timing.total_cycles > 0);
        let report = accel.estimate(&out.traces).unwrap();
        assert_eq!(report.layers[0].name, geo.name);
        assert_eq!(report.layers[0].cycles, timing.total_cycles);
        first_layer_cycles.push((out.traces[0].output_spikes.clone(), timing.total_cycles));
    }
    // Different first-layer spikes, one dense cycle count.
    assert_ne!(first_layer_cycles[0].0, first_layer_cycles[1].0);
    assert_eq!(first_layer_cycles[0].1, first_layer_cycles[1].1);
}

#[test]
fn direct_coding_beats_rate_coding_on_energy() {
    // The Table II trend: with far fewer timesteps, direct coding consumes
    // much less energy than rate coding on the same network.
    let image = small_image();

    let direct_engine = Engine::builder()
        .network(vgg9(&Vgg9Config::cifar10_small()).unwrap())
        .encoder(Encoder::direct(2))
        .precision(Precision::Int4)
        .hardware_allocation("direct", &[1, 8, 4, 18, 6, 6, 20, 2, 1])
        .build()
        .unwrap();
    let rate_hw =
        HwConfig::from_allocation("rate", Precision::Int4, &[1, 1, 8, 4, 18, 6, 6, 20, 2, 1])
            .unwrap()
            .without_dense_core();
    let rate_engine = Engine::builder()
        .network(vgg9(&Vgg9Config::cifar10_small()).unwrap())
        .encoder(Encoder::rate(20))
        .precision(Precision::Int4)
        .hardware(rate_hw)
        .build()
        .unwrap();

    let direct = direct_engine.session().run(&image).unwrap();
    let rate = rate_engine.session().run_seeded(&image, 3).unwrap();

    assert!(
        rate.record.total_spikes() > direct.record.total_spikes(),
        "rate coding at 20 timesteps should emit more spikes than direct at 2"
    );
    assert!(
        rate.hardware.dynamic_energy_mj > 2.0 * direct.hardware.dynamic_energy_mj,
        "rate coding should cost several times more energy (got {:.4} vs {:.4} mJ)",
        rate.hardware.dynamic_energy_mj,
        direct.hardware.dynamic_energy_mj
    );
    assert!(rate.hardware.latency_ms > direct.hardware.latency_ms);
}

#[test]
fn perf_scaling_improves_throughput_and_energy() {
    // The Fig. 4 trend: perf2/perf4 scale up resources, which improves both
    // throughput and (because latency shrinks faster than power grows)
    // per-image energy. One engine records the workload; scaled engines share
    // the weights and re-estimate the same traces under bigger hardware.
    let base = Engine::builder()
        .network(vgg9(&Vgg9Config::cifar10_small()).unwrap())
        .precision(Precision::Int4)
        .hardware_allocation("scaled-LW", &[1, 8, 4, 18, 6, 6, 20, 2, 1])
        .build()
        .unwrap();
    let out = base.session().run(&small_image()).unwrap();

    let mut reports = Vec::new();
    for scale in PerfScale::all() {
        let mut cfg = HwConfig::from_allocation(
            format!("scaled-{scale}"),
            Precision::Int4,
            &[1, 8, 4, 18, 6, 6, 20, 2, 1],
        )
        .unwrap();
        let f = scale.factor();
        cfg.dense_rows *= f;
        for nc in &mut cfg.neural_cores {
            *nc *= f;
        }
        reports.push(
            base.with_hardware(cfg)
                .unwrap()
                .plan()
                .estimate(&out.traces)
                .unwrap(),
        );
    }
    // Latency shrinks strictly with more cores. Throughput is bounded by the
    // bottleneck layer, whose ECU compression scan (input_bits / chunk_bits +
    // events) does not parallelise across neural cores — at this small scale
    // it saturates, so throughput is only guaranteed not to regress.
    assert!(reports[1].latency_ms < reports[0].latency_ms);
    assert!(reports[2].latency_ms < reports[1].latency_ms);
    assert!(reports[1].throughput_fps >= reports[0].throughput_fps);
    assert!(reports[2].throughput_fps >= reports[1].throughput_fps);
}

#[test]
fn dse_allocation_balances_the_network() {
    let network = vgg9(&Vgg9Config::cifar10_small()).unwrap();
    let image = small_image();
    let out = network.run(&image, &Encoder::paper_direct()).unwrap();
    let workloads = from_traces(&out.traces).unwrap();
    let uniform = allocate_balanced(&workloads, workloads.len()).unwrap();
    let balanced = allocate_balanced(&workloads, 64).unwrap();
    assert!(balanced.bottleneck_cycles() <= uniform.bottleneck_cycles());
    assert!(balanced.imbalance <= uniform.imbalance);
    // Converting the allocation into a hardware configuration must produce a
    // valid accelerator.
    let mut allocation = vec![1usize];
    allocation.extend(balanced.cores.iter().skip(1));
    let cfg = HwConfig::from_allocation("dse", Precision::Int4, &allocation).unwrap();
    assert!(HybridAccelerator::new(&network, cfg).is_ok());
}
