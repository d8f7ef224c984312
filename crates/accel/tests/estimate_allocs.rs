//! Proves the allocation contract of a warm [`EstimatePlan::estimate`] with
//! a counting global allocator. Area, power and the trace-independent cycle
//! models belong to the plan and are built once; per image the estimate
//! allocates only its per-layer working rows and the returned report's
//! layer rows — at most four allocations, with no per-image copy of a layer
//! name, a resource row or the configuration.
//!
//! The global allocator is process-wide, but its count is per thread: libtest
//! runs each test on its own thread, so tests running in parallel never see
//! each other's allocations.

use snn_accel::{EstimatePlan, HwConfig};
use snn_core::encoding::Encoder;
use snn_core::network::{vgg9, Vgg9Config};
use snn_core::quant::Precision;
use snn_core::tensor::Tensor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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
fn warm_estimate_allocates_at_most_four_times() {
    let net = vgg9(&Vgg9Config::cifar10_small()).unwrap();
    let image = Tensor::from_fn(&[3, 16, 16], |i| ((i as f32) * 0.011).sin().abs());
    let direct =
        HwConfig::from_allocation("direct", Precision::Int4, &[1, 4, 2, 4, 2, 4, 4, 2, 1]).unwrap();
    let rate = HwConfig::from_allocation("rate", Precision::Int4, &[1, 1, 4, 2, 4, 2, 4, 4, 2, 1])
        .unwrap()
        .without_dense_core();
    for (encoder, config) in [(Encoder::direct(2), direct), (Encoder::rate(5), rate)] {
        let traces = net.run(&image, &encoder).unwrap().traces;
        let plan = EstimatePlan::new(&net, config, encoder.timesteps).unwrap();
        let warm = plan.estimate(&traces).unwrap();
        let mut report = None;
        let allocs = count_allocs(|| report = Some(plan.estimate(&traces).unwrap()));
        assert_eq!(report.as_ref(), Some(&warm));
        assert!(
            allocs <= 4,
            "a warm estimate at T={} made {allocs} allocations",
            encoder.timesteps
        );
    }
}
