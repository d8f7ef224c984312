//! Integration tests checking that the accelerator's functional models are
//! bit-true against the algorithmic reference in `snn-core`, and that the
//! coding-scheme / scaling trends reported by the paper hold end to end
//! through the `Engine`/`Session` facade.

use snn::accel::dense_core::DenseCore;
use snn::accel::dse::allocate_balanced;
use snn::accel::sparse_core::SparseCore;
use snn::accel::workload::from_traces;
use snn::accel::HybridAccelerator;
use snn::core::network::{vgg9, Layer, RunState, SnnNetwork, Vgg9Config};
use snn::core::spike::SpikeVolume;
use snn::{Encoder, Engine, HwConfig, PerfScale, Precision, Tensor};

fn small_image() -> Tensor {
    Tensor::from_fn(&[3, 16, 16], |i| ((i as f32) * 0.019).sin().abs())
}

/// Records every conv layer's binary output volume from the planes
/// `SnnNetwork::run_observed` hands its observer (`None` for other layers).
fn observed_conv_volumes(
    network: &SnnNetwork,
    image: &Tensor,
    encoder: &Encoder,
) -> Vec<Option<SpikeVolume>> {
    let mut outputs: Vec<Vec<Tensor>> = vec![Vec::new(); network.layers().len()];
    let mut state = RunState::new(network).unwrap();
    network
        .run_observed(image, encoder, 0, &mut state, |li, _, output, _| {
            if matches!(network.layers()[li], Layer::Conv { .. }) {
                outputs[li].push(output.dense().clone());
            }
            Ok(())
        })
        .unwrap();
    outputs
        .iter()
        .map(|frames| {
            let shape = frames.first()?.shape();
            Some(SpikeVolume::from_activations(frames, shape[0], shape[1], shape[2]).unwrap())
        })
        .collect()
}

#[test]
fn dense_core_reproduces_the_networks_first_layer_spikes() {
    let network = vgg9(&Vgg9Config::cifar10_small()).unwrap();
    let image = small_image();
    let encoder = Encoder::paper_direct();
    let out = network.run(&image, &encoder).unwrap();

    // Re-execute the first layer on the dense core and compare spike counts
    // per timestep against the network trace. BN is identity at init, so the
    // folded and unfolded networks agree.
    let Layer::Conv { conv, .. } = &network.layers()[0] else {
        panic!("first layer must be a convolution");
    };
    let frames = encoder.encode(&image, 0).unwrap();
    let (volume, timing) = DenseCore::new(2)
        .run(conv, network.lif_params(), &frames)
        .unwrap();
    assert!(timing.total_cycles > 0);
    for (t, &expected) in out.traces[0].output_spikes.iter().enumerate() {
        assert_eq!(volume.spikes_at_timestep(t) as u64, expected);
    }
}

#[test]
fn sparse_core_reproduces_the_second_layer_spikes() {
    let network = vgg9(&Vgg9Config::cifar10_small()).unwrap();
    let image = small_image();
    let encoder = Encoder::paper_direct();
    let out = network.run(&image, &encoder).unwrap();

    // Feed the observed spike output of CONV1_1 into a sparse core running
    // CONV1_2 and check that it reproduces the recorded CONV1_2 spikes.
    let input_volume = observed_conv_volumes(&network, &image, &encoder)
        .swap_remove(0)
        .expect("CONV1_1 is a convolution");
    let Layer::Conv { conv, .. } = &network.layers()[1] else {
        panic!("second layer must be a convolution");
    };
    let (volume, _) = SparseCore::new(4, 32)
        .run_conv(conv, network.lif_params(), &input_volume)
        .unwrap();
    for (t, &expected) in out.traces[1].output_spikes.iter().enumerate() {
        assert_eq!(volume.spikes_at_timestep(t) as u64, expected);
    }
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

#[test]
fn spike_volume_roundtrips_through_the_whole_stack() {
    // A SpikeVolume recorded through the observer holds exactly the spikes
    // the run's traces count, timestep by timestep, for every conv layer.
    let network = vgg9(&Vgg9Config::cifar10_small()).unwrap();
    let image = small_image();
    let encoder = Encoder::paper_direct();
    let out = network.run(&image, &encoder).unwrap();
    let volumes = observed_conv_volumes(&network, &image, &encoder);
    let mut recorded = 0;
    for (trace, volume) in out.traces.iter().zip(&volumes) {
        assert!(
            trace.spikes.is_none(),
            "{}: the library builds no volume",
            trace.name
        );
        let Some(volume) = volume else { continue };
        assert_eq!(volume.timesteps(), out.timesteps);
        for (t, &expected) in trace.output_spikes.iter().enumerate() {
            assert_eq!(
                volume.spikes_at_timestep(t) as u64,
                expected,
                "{} t={t}",
                trace.name
            );
        }
        recorded += 1;
    }
    assert_eq!(recorded, 7, "one volume per VGG9 convolution");
    // An empty volume stays empty through OR-pooling semantics.
    let empty = SpikeVolume::new(2, 4, 8, 8);
    assert_eq!(empty.total_spikes(), 0);
}
