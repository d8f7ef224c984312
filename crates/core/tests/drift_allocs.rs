//! Proves the allocation contract of [`DriftTracker::observe`], the hook the
//! serving registry runs on every served request, with a counting global
//! allocator. The first run's traces size the per-layer octave counts and
//! window rings once, in a few kilobytes; after that, observing a run only
//! bumps counters and rings and never allocates.
//!
//! The global allocator is process-wide, but its counts are per thread:
//! libtest runs each test on its own thread, so tests running in parallel
//! never see each other's allocations.

use snn_core::encoding::Encoder;
use snn_core::network::{vgg9, LayerTrace, Vgg9Config};
use snn_core::stats::{DriftConfig, DriftTracker};
use snn_core::tensor::Tensor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation and reallocation made by the calling thread,
/// and the bytes each one requests.
struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so touching them never
    // allocates (which would re-enter the allocator) and never fails.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_one(bytes: usize) {
    ALLOCS.with(|n| n.set(n.get() + 1));
    BYTES.with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting only bumps thread-local
// `Cell`s and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations and requested bytes this thread makes while running `f`.
fn count_allocs(f: impl FnOnce()) -> (u64, u64) {
    let before = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    f();
    (
        ALLOCS.with(Cell::get) - before.0,
        BYTES.with(Cell::get) - before.1,
    )
}

/// The 12-layer traces of four direct-coded runs of the small CIFAR-10
/// VGG9 on different images, so the window sees more than one rate.
fn served_traces() -> Vec<Vec<LayerTrace>> {
    let net = vgg9(&Vgg9Config::cifar10_small()).unwrap();
    (0..4)
        .map(|k| {
            let image = Tensor::from_fn(&[3, 16, 16], |i| {
                ((i as f32) * 0.011 * (k + 1) as f32).sin().abs()
            });
            let traces = net.run(&image, &Encoder::direct(2)).unwrap().traces;
            assert_eq!(traces.len(), 12);
            traces
        })
        .collect()
}

#[test]
fn first_observe_allocates_under_16_kib() {
    let runs = served_traces();
    let mut tracker = DriftTracker::new(DriftConfig::default()).unwrap();
    let (allocs, bytes) = count_allocs(|| tracker.observe(&runs[0]));
    assert!(
        bytes < 16 * 1024,
        "the first observe made {allocs} allocations of {bytes} bytes"
    );
    assert_eq!(tracker.status().observed, 1);
}

#[test]
fn warm_observes_make_no_allocations() {
    let runs = served_traces();
    let config = DriftConfig::default();
    // Calibrate, then fill the window and slide it once.
    let warmup = config.calibration + 2 * config.window;
    let mut tracker = DriftTracker::new(config).unwrap();
    for run in runs.iter().cycle().take(warmup) {
        tracker.observe(run);
    }
    let status = tracker.status();
    assert!(status.calibrated);
    assert_eq!(status.window_fill, DriftConfig::default().window);

    let (allocs, bytes) = count_allocs(|| {
        for run in runs.iter().cycle().take(100) {
            tracker.observe(run);
        }
    });
    assert_eq!(
        allocs, 0,
        "100 warm observes made {allocs} allocations of {bytes} bytes"
    );
    assert_eq!(tracker.status().observed, warmup as u64 + 100);
}
