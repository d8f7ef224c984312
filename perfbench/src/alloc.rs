//! A counting global allocator that counts per thread.
//!
//! Each thread sees only the allocations it made itself, so a count taken
//! around a call is not disturbed by other threads allocating at the same
//! time (test threads running in parallel, serving workers, the load
//! generator). A process-wide atomic counter would add their allocations to
//! whichever count happens to be open.
//!
//! Process-wide, it also tracks the peak of live heap bytes: the memory the
//! program asked for, without the allocator's own arenas and fragmentation,
//! which make the resident set of a multi-threaded process vary from run to
//! run. Each thread keeps its share of the live bytes to itself until it
//! has moved by [`FLUSH_BYTES`], so threads rarely touch the shared counter;
//! the peak is therefore exact to within [`FLUSH_BYTES`] per running
//! thread. A thread hands its remainder over when it exits.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};

/// How far a thread's unpublished share of the live bytes may move before
/// it is added to the shared counter.
pub const FLUSH_BYTES: i64 = 64 << 10;

/// Forwards to the system allocator and counts allocations (and their
/// requested bytes) of the calling thread. Reallocations count as one
/// allocation of the new size; frees are not counted.
pub struct ThreadCountingAlloc;

thread_local! {
    // `const` initialisation and no destructor: these slots never allocate
    // and stay usable while the thread is being torn down.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// Live bytes this thread added (or, freeing other threads' memory,
    /// removed) since it last published them.
    static PENDING: Cell<i64> = const { Cell::new(0) };
    /// Whether this thread armed [`EXIT_FLUSH`].
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// Whether [`EXIT_FLUSH`] ran: from then on every change is published
    /// at once.
    static EXITED: Cell<bool> = const { Cell::new(false) };
    /// Publishes the thread's remainder when the thread exits.
    static EXIT_FLUSH: ExitFlush = const { ExitFlush };
}

struct ExitFlush;

impl Drop for ExitFlush {
    fn drop(&mut self) {
        let _ = EXITED.try_with(|e| e.set(true));
        if let Ok(pending) = PENDING.try_with(|p| p.replace(0)) {
            publish(pending);
        }
    }
}

// Statistics only: `Relaxed` suffices, since they publish no other data.
// Signed, because unpublished shares may leave the sum below zero for a
// moment when one thread frees what another allocated.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn publish(delta: i64) {
    let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    if delta > 0 && live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

/// Adds `delta` live bytes to the calling thread's share, publishing the
/// share once it has moved by [`FLUSH_BYTES`].
fn track(delta: i64) {
    // Arm the exit flush on the thread's first allocation. `ARMED` is set
    // first, so an allocation made while the destructor is registered
    // comes back here and does not recurse.
    if let Ok(false) = ARMED.try_with(|a| a.replace(true)) {
        let _ = EXIT_FLUSH.try_with(|_| ());
    }
    if EXITED.try_with(Cell::get).unwrap_or(true) {
        publish(delta);
        return;
    }
    let flushed = PENDING.try_with(|p| {
        let pending = p.get() + delta;
        if pending.abs() >= FLUSH_BYTES {
            p.set(0);
            pending
        } else {
            p.set(pending);
            0
        }
    });
    match flushed {
        Ok(0) => {}
        Ok(pending) => publish(pending),
        Err(_) => publish(delta),
    }
}

fn bump(bytes: usize) {
    // `try_with` fails only after the slot was destroyed, which a `Cell`
    // without a destructor never is; ignoring the error keeps the allocator
    // from panicking in any case.
    let _ = COUNTS.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only
// thread-locals and two atomics. Arming the exit flush may allocate, but
// such an allocation finds the flush armed and only counts.
unsafe impl GlobalAlloc for ThreadCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        track(layout.size() as i64);
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        track(layout.size() as i64);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        // SAFETY: `ptr` was returned by `System` for this `layout`, since
        // every allocation of this allocator comes from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        track(new_size as i64 - layout.size() as i64);
        // SAFETY: as for `dealloc`; `new_size` obligations are the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations and bytes made by the calling thread since it started.
pub fn thread_counts() -> (u64, u64) {
    COUNTS.with(Cell::get)
}

/// Peak of live heap bytes of the whole process so far.
pub fn peak_heap_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed).max(0) as u64
}

/// Runs `f` and returns its result with the number of allocations and
/// allocated bytes the calling thread made inside it.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (n0, b0) = thread_counts();
    let out = f();
    let (n1, b1) = thread_counts();
    (out, n1 - n0, b1 - b0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;
    use std::sync::{Arc, Barrier};

    /// Two threads count at the same moment: one allocates, the other does
    /// not. The barrier forces the counting windows to overlap, so a shared
    /// counter would leak the allocations into the idle thread's count.
    #[test]
    fn counts_are_isolated_per_thread() {
        let barrier = Arc::new(Barrier::new(2));
        let busy = {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                count(|| {
                    barrier.wait();
                    for i in 0..1000 {
                        black_box(vec![i as u8; 16]);
                    }
                    barrier.wait();
                })
            })
        };
        let idle = {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                count(|| {
                    barrier.wait();
                    barrier.wait();
                })
            })
        };
        let ((), busy_allocs, busy_bytes) = busy.join().expect("busy thread");
        let ((), idle_allocs, _) = idle.join().expect("idle thread");
        assert_eq!(busy_allocs, 1000);
        assert_eq!(busy_bytes, 16_000);
        assert_eq!(idle_allocs, 0);
    }

    /// Serialises the tests that read the shared live count.
    static LIVE_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn peak_heap_covers_a_large_live_block() {
        let _serial = LIVE_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let block = black_box(vec![1u8; 64 << 20]);
        // Exact to within FLUSH_BYTES for each thread the tests run on.
        let floor = (64 << 20) - 16 * FLUSH_BYTES as u64;
        assert!(peak_heap_bytes() >= floor);
        drop(block);
        // Other tests only ever add to the peak.
        assert!(peak_heap_bytes() >= floor);
    }

    /// Short-lived threads that each leave a block below the flush
    /// threshold for another thread to free: their shares are handed over
    /// at exit, so the blocks show in the shared count.
    #[test]
    fn exiting_threads_publish_their_share() {
        const THREADS: i64 = 64;
        let _serial = LIVE_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let before = LIVE.load(Ordering::Relaxed);
        let blocks: Vec<Vec<u8>> = (0..THREADS)
            .map(|_| {
                std::thread::spawn(|| black_box(vec![7u8; (FLUSH_BYTES / 2) as usize]))
                    .join()
                    .expect("worker")
            })
            .collect();
        let grown = LIVE.load(Ordering::Relaxed) - before;
        // Threads of tests running in parallel may hold back up to
        // FLUSH_BYTES each; without the exit flush nothing would show.
        let expected = THREADS * FLUSH_BYTES / 2;
        assert!(
            grown >= expected - 4 * FLUSH_BYTES,
            "grown {grown} of {expected}"
        );
        drop(blocks);
    }

    #[test]
    fn nested_counts_see_inner_allocations() {
        let (inner, outer_allocs, _) = count(|| {
            let (_, inner_allocs, _) = count(|| black_box(Box::new(7u64)));
            black_box(Vec::<u32>::with_capacity(4));
            inner_allocs
        });
        assert_eq!(inner, 1);
        assert_eq!(outer_allocs, 2);
    }
}
