//! Proves the allocation contracts of the warm hot loops with a counting
//! global allocator:
//!
//! * **Backward** — once a [`BpttScratch`] is warm, the scratch-backed
//!   backward performs **zero heap allocations per timestep**. One
//!   `backward_sweep` call is measured against cached forwards with
//!   different timestep counts; all remaining allocations are per-sample
//!   constants (the returned gradients, loss buffers), so the counts must be
//!   identical across `T`, and repeatable at a fixed `T`. "Warm" means that
//!   each weight-gradient path a layer can take (the event tap walk below
//!   its density crossover, the dense lowering above) has run once: a
//!   backward on a fresh input then allocates exactly what its repeat does.
//! * **Forward** — a warm `SnnNetwork::run_observed` with a no-op observer
//!   (the one event-driven loop inference and the BPTT sweep share,
//!   including the encoder re-encoding each image) performs **zero** heap
//!   allocations: the mask words live inside the reused `SpikePlane`s,
//!   the word scans iterate them in place, and the per-run counts live in
//!   the [`RunState`]. A warm `run_with_state` allocates only its returned
//!   report, so its count does not depend on `T`.
//!
//! The global allocator is process-wide, but its count is per thread: libtest
//! runs each test on its own thread, so tests running in parallel never see
//! each other's allocations. Every measured loop runs entirely on the calling
//! thread.

use snn_core::encoding::Encoder;
use snn_core::layers::{BatchNorm2d, Conv2d, Linear, SpikeMaxPool2d};
use snn_core::network::{vgg9, Layer, RunState, SnnNetwork, Vgg9Config};
use snn_core::neuron::LifParams;
use snn_core::tensor::Tensor;
use snn_train::bptt::{Bptt, BpttScratch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;

/// Counts every allocation and reallocation made by the calling thread.
struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so touching it never
    // allocates (which would re-enter the allocator) and never fails.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting only bumps a thread-local
// `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations this thread makes while running `f`.
fn count_allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn warm_backward_allocation_count_is_independent_of_timesteps() {
    let net = vgg9(&Vgg9Config::cifar10_small()).unwrap();
    let bptt = Bptt::default();
    let effective = bptt.prepare(&net).unwrap();
    let image = Tensor::from_fn(&[3, 16, 16], |i| ((i as f32) * 0.023).sin().abs());
    let mut scratch = BpttScratch::new();

    // Both coding schemes drive the backward through different kernel mixes:
    // direct coding replays an analog input frame (lowered once per sample,
    // its lowering reused at the other timesteps; dense gradient frames),
    // rate coding feeds binary stochastic frames (event-tap weight
    // gradient). Both exercise the input gradient
    // (`conv2d_input_grad_into`) — its per-cell entry list, accumulator and
    // tap-sum row — which must also stay allocation-free once warm.
    for scheme in ["direct", "rate"] {
        let mut counts = Vec::new();
        for timesteps in [2_usize, 4, 6] {
            let encoder = if scheme == "direct" {
                Encoder::direct(timesteps)
            } else {
                Encoder::rate(timesteps)
            };
            let sweep = bptt
                .forward_sweep(&net, &effective, &image, &encoder, 0)
                .unwrap();
            // First call warms the scratch for this timestep count; the
            // second, measured call must only pay the per-sample constants.
            bptt.backward_sweep(&net, &effective, &sweep, 3, &mut scratch)
                .unwrap();
            let count = count_allocs(|| {
                bptt.backward_sweep(&net, &effective, &sweep, 3, &mut scratch)
                    .unwrap();
            });
            // The returned gradients are allocated on this thread, so a zero
            // here means the counter is blind and the zero below is vacuous.
            assert!(count > 0, "{scheme} T={timesteps}: counter saw nothing");
            counts.push(count);
            // Repeatability at a fixed T: a third call costs exactly the same.
            let again = count_allocs(|| {
                bptt.backward_sweep(&net, &effective, &sweep, 3, &mut scratch)
                    .unwrap();
            });
            assert_eq!(
                count, again,
                "warm backward alloc count unstable at {scheme} T={timesteps}"
            );
        }
        assert_eq!(
            counts[0], counts[1],
            "{scheme} backward allocations grow with timesteps: {counts:?}"
        );
        assert_eq!(
            counts[1], counts[2],
            "{scheme} backward allocations grow with timesteps: {counts:?}"
        );
    }
}

/// The weight-gradient paths a forward run's conv layers take: for each
/// conv layer (by index) and path, whether any timestep's input took it.
/// The backward lowers a layer's input densely (`true`) unless
/// `Conv2d::takes_event_path` sends it down the event path (`false`) — the
/// dispatch `conv2d_backward_into` makes.
fn conv_paths(net: &SnnNetwork, image: &Tensor, encoder: &Encoder) -> BTreeSet<(usize, bool)> {
    let mut state = RunState::new(net).unwrap();
    let mut paths = BTreeSet::new();
    net.run_observed(image, encoder, 0, &mut state, |li, input, _, _| {
        if let Layer::Conv { conv, .. } = &net.layers()[li] {
            paths.insert((li, !conv.takes_event_path(input)));
        }
        Ok(())
    })
    .unwrap();
    paths
}

#[test]
fn warm_backward_allocation_count_holds_on_a_fresh_input() {
    let net = vgg9(&Vgg9Config::cifar10_small()).unwrap();
    let bptt = Bptt::default();
    let effective = bptt.prepare(&net).unwrap();
    let encoder = Encoder::direct(2);
    let image = |scale: f32, phase: f32| {
        Tensor::from_fn(&[3, 16, 16], |i| {
            ((i as f32) * 0.023 + phase).sin().abs() * scale
        })
    };
    // A dim image keeps CONV1_2's input below its density crossover (event
    // weight gradient), a bright one pushes it above (dense lowering). The
    // fresh image takes both paths, one per timestep, and its gradient
    // frames differ from both warm-up images.
    let warm = [image(0.5, 0.0), image(4.0, 0.0)];
    let fresh = image(1.0, 0.5);
    let warm_paths: BTreeSet<_> = warm
        .iter()
        .flat_map(|img| conv_paths(&net, img, &encoder))
        .collect();
    let fresh_paths = conv_paths(&net, &fresh, &encoder);
    assert!(
        warm_paths.is_superset(&fresh_paths),
        "the warm-up misses a path the fresh input takes: {warm_paths:?} vs {fresh_paths:?}"
    );
    assert!(
        fresh_paths
            .iter()
            .any(|&(li, dense)| dense && fresh_paths.contains(&(li, false))),
        "the fresh input should take both paths at one layer: {fresh_paths:?}"
    );

    let mut scratch = BpttScratch::new();
    for img in &warm {
        let sweep = bptt
            .forward_sweep(&net, &effective, img, &encoder, 0)
            .unwrap();
        bptt.backward_sweep(&net, &effective, &sweep, 3, &mut scratch)
            .unwrap();
    }
    let sweep = bptt
        .forward_sweep(&net, &effective, &fresh, &encoder, 0)
        .unwrap();
    let first = count_allocs(|| {
        bptt.backward_sweep(&net, &effective, &sweep, 3, &mut scratch)
            .unwrap();
    });
    let again = count_allocs(|| {
        bptt.backward_sweep(&net, &effective, &sweep, 3, &mut scratch)
            .unwrap();
    });
    assert!(again > 0, "counter saw nothing");
    assert_eq!(
        first, again,
        "a backward on a fresh input allocated more than its repeat"
    );
}

/// A conv → BN → LIF → pool → linear → LIF network over a ragged 9×9 map:
/// 2·9·9 = 162 cells (a partial tail word) through the conv, 2·4·4 through
/// the pool, 32 into the four-neuron population head of two classes.
fn ragged_network() -> SnnNetwork {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(9);
    let layers = vec![
        Layer::Conv {
            name: "CONV".to_string(),
            conv: Conv2d::with_kaiming_init(2, 2, 3, 1, 1, &mut rng).unwrap(),
            bn: Some(BatchNorm2d::new(2).unwrap()),
        },
        Layer::Pool {
            name: "MP".to_string(),
            pool: SpikeMaxPool2d::new(2).unwrap(),
        },
        Layer::Linear {
            name: "FC".to_string(),
            linear: Linear::with_kaiming_init(32, 4, &mut rng).unwrap(),
        },
    ];
    SnnNetwork::new(layers, LifParams::paper_default(), [2, 9, 9], 2, 4).unwrap()
}

fn ragged_image() -> Tensor {
    Tensor::from_fn(&[2, 9, 9], |i| ((i as f32) * 0.031).sin().abs())
}

#[test]
fn warm_word_scan_forward_timestep_loop_allocates_nothing() {
    let net = ragged_network();
    let image = ragged_image();
    let mut state = RunState::new(&net).unwrap();
    for (scheme, encoder) in [("direct", Encoder::direct(4)), ("rate", Encoder::rate(4))] {
        let mut run = || {
            net.run_observed(&image, &encoder, 5, &mut state, |_, _, _, _| Ok(()))
                .unwrap();
        };
        // Warm every buffer (planes, scratch, encoder frames, counts), then
        // demand strict zero for the whole re-encoded, re-run loop.
        run();
        let allocs = count_allocs(run);
        assert_eq!(
            allocs, 0,
            "{scheme}: warm run_observed allocated {allocs} times"
        );
    }
}

#[test]
fn warm_run_with_state_allocations_are_timestep_independent() {
    let net = ragged_network();
    let image = ragged_image();
    let mut state = RunState::new(&net).unwrap();
    for scheme in ["direct", "rate"] {
        let mut counts = Vec::new();
        for timesteps in [2_usize, 4, 6] {
            let encoder = if scheme == "direct" {
                Encoder::direct(timesteps)
            } else {
                Encoder::rate(timesteps)
            };
            net.run_with_state(&image, &encoder, 5, &mut state).unwrap();
            let count = count_allocs(|| {
                net.run_with_state(&image, &encoder, 5, &mut state).unwrap();
            });
            // The returned report is allocated on this thread, so a zero here
            // means the counter is blind and the equality below is vacuous.
            assert!(count > 0, "{scheme} T={timesteps}: counter saw nothing");
            counts.push(count);
        }
        assert!(
            counts.iter().all(|&c| c == counts[0]),
            "{scheme} run_with_state allocations grow with timesteps: {counts:?}"
        );
    }
}
