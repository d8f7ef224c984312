//! The bounded MPSC request queue between acceptors and batch workers.
//!
//! Producers ([`crate::ServeCore::submit`]) push without ever blocking:
//! [`BoundedQueue::try_push`] either enqueues or reports why it cannot
//! (shedding threshold reached, or the queue is closed). Consumers (the
//! batch workers) block on [`BoundedQueue::pop_batch`], which implements the
//! dynamic-batching drain policy from the queue's state when the consumer
//! asks for work. A consumer that finds the queue empty is keeping up: it
//! waits for the first request and returns it at once, with whatever
//! arrived alongside it (up to `max_batch`). A consumer that finds requests
//! already queued is behind, because they piled up while it ran its last
//! batch: it keeps coalescing until either `max_batch` requests are in hand
//! or the `max_delay` latency budget (measured from the first pop) has
//! elapsed, whichever comes first. After [`BoundedQueue::close`], producers
//! are rejected but consumers keep draining until the queue is empty, so
//! in-flight requests always complete.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Why a non-blocking push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushRefusal {
    /// Depth reached the shedding threshold; the item was not enqueued.
    Full {
        /// Queue depth observed at rejection time.
        depth: usize,
    },
    /// The queue was closed; no further items are accepted.
    Closed,
}

#[derive(Debug)]
struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Largest depth ever observed (after a push).
    peak_depth: usize,
    /// Consumers blocked in [`BoundedQueue::pop_batch`] on an empty queue,
    /// waiting for their first request.
    idle_consumers: usize,
}

/// A bounded multi-producer queue with batch-draining consumers.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue that holds at most `capacity` items (`capacity ≥ 1`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "queue capacity must be at least 1");
        BoundedQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::with_capacity(capacity.min(1024)),
                closed: false,
                peak_depth: 0,
                idle_consumers: 0,
            }),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues `item` unless the depth has reached `shed_at` (clamped to
    /// the hard capacity) or the queue is closed. Never blocks; returns the
    /// depth after the push on success and hands the refused item back
    /// otherwise (so the caller can report without cloning).
    pub fn try_push(&self, item: T, shed_at: usize) -> Result<usize, (T, PushRefusal)> {
        let limit = shed_at.min(self.capacity);
        let mut state = self.state.lock().expect("queue lock poisoned");
        if state.closed {
            return Err((item, PushRefusal::Closed));
        }
        let depth = state.items.len();
        if depth >= limit {
            return Err((item, PushRefusal::Full { depth }));
        }
        state.items.push_back(item);
        let depth = state.items.len();
        state.peak_depth = state.peak_depth.max(depth);
        drop(state);
        self.not_empty.notify_one();
        Ok(depth)
    }

    /// Drains the next batch into `out` (cleared first).
    ///
    /// What happens depends on the queue's state at the call:
    /// - **Empty (the consumer is idle):** blocks until at least one item
    ///   arrives, then returns at once with the items present, up to
    ///   `max_batch`. The consumer is keeping up with arrivals, so holding
    ///   the first one open for stragglers would mostly add `max_delay` to
    ///   its latency.
    /// - **Non-empty (a backlog):** takes the queued items, then keeps
    ///   collecting until `out.len() == max_batch` or `max_delay` has
    ///   elapsed since the first item was taken.
    ///
    /// Once the queue is closed, remaining items are drained without
    /// waiting out the delay budget (no new arrivals can come). Returns
    /// `false` — the consumer should exit — only when the queue is closed
    /// *and* empty.
    pub fn pop_batch(&self, out: &mut Vec<T>, max_batch: usize, max_delay: Duration) -> bool {
        out.clear();
        let max_batch = max_batch.max(1);
        let mut state = self.state.lock().expect("queue lock poisoned");
        // Phase 1: wait for the first request (or closure).
        let idle = state.items.is_empty();
        if idle {
            state.idle_consumers += 1;
            while state.items.is_empty() && !state.closed {
                state = self.not_empty.wait(state).expect("queue lock poisoned");
            }
            state.idle_consumers -= 1;
            if state.items.is_empty() {
                return false;
            }
        }
        // Phase 2: an idle consumer returns what it finds; one that found a
        // backlog coalesces under the latency budget.
        let deadline = Instant::now() + max_delay;
        loop {
            while out.len() < max_batch {
                match state.items.pop_front() {
                    Some(item) => out.push(item),
                    None => break,
                }
            }
            if idle || out.len() >= max_batch || state.closed {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return true;
            }
            let (next, timed_out) = self
                .not_empty
                .wait_timeout(state, deadline - now)
                .expect("queue lock poisoned");
            state = next;
            if timed_out.timed_out() && state.items.is_empty() {
                return true;
            }
        }
    }

    /// Current queue depth.
    pub fn depth(&self) -> usize {
        self.state.lock().expect("queue lock poisoned").items.len()
    }

    /// Largest depth ever observed.
    pub fn peak_depth(&self) -> usize {
        self.state.lock().expect("queue lock poisoned").peak_depth
    }

    /// Closes the queue: producers are refused from now on, consumers drain
    /// what remains and then stop.
    pub fn close(&self) {
        self.state.lock().expect("queue lock poisoned").closed = true;
        self.not_empty.notify_all();
    }

    /// Consumers currently blocked in [`BoundedQueue::pop_batch`] waiting
    /// for their first request.
    #[cfg(test)]
    pub(crate) fn idle_consumers(&self) -> usize {
        self.state
            .lock()
            .expect("queue lock poisoned")
            .idle_consumers
    }

    /// Whether [`BoundedQueue::close`] has been called.
    #[cfg(test)]
    pub fn is_closed(&self) -> bool {
        self.state.lock().expect("queue lock poisoned").closed
    }

    /// Whether the queue is closed *and* empty — the terminal state after
    /// which a consumer's [`BoundedQueue::pop_batch`] returns `false`.
    /// Monotonic: once true it stays true (a closed queue accepts no
    /// pushes), so the supervisor can use it to distinguish a worker's
    /// normal drain-complete exit from an abnormal death.
    pub fn is_shutdown(&self) -> bool {
        let state = self.state.lock().expect("queue lock poisoned");
        state.closed && state.items.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_until_shed_then_reject() {
        let q = BoundedQueue::new(3);
        assert_eq!(q.try_push(1, 3).unwrap(), 1);
        assert_eq!(q.try_push(2, 3).unwrap(), 2);
        assert_eq!(q.try_push(3, 3).unwrap(), 3);
        let (item, refusal) = q.try_push(4, 3).unwrap_err();
        assert_eq!(item, 4);
        assert_eq!(refusal, PushRefusal::Full { depth: 3 });
        // A lower shedding threshold rejects earlier than the capacity.
        let q = BoundedQueue::new(8);
        q.try_push(1, 1).unwrap();
        assert!(matches!(
            q.try_push(2, 1),
            Err((2, PushRefusal::Full { depth: 1 }))
        ));
        assert_eq!(q.peak_depth(), 1);
    }

    #[test]
    fn pop_batch_respects_max_batch_and_fifo_order() {
        let q = BoundedQueue::new(16);
        for i in 0..10 {
            q.try_push(i, 16).unwrap();
        }
        let mut out = Vec::new();
        assert!(q.pop_batch(&mut out, 4, Duration::from_millis(50)));
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert!(q.pop_batch(&mut out, 100, Duration::from_millis(1)));
        assert_eq!(out, vec![4, 5, 6, 7, 8, 9]);
        assert_eq!(q.depth(), 0);
    }

    /// The backlog branch: item 0 is queued before the pop, so the consumer
    /// is behind and holds the batch open for stragglers.
    #[test]
    fn pop_batch_waits_out_the_delay_budget_for_stragglers() {
        let q = Arc::new(BoundedQueue::new(16));
        q.try_push(0, 16).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                q.try_push(1, 16).unwrap();
            })
        };
        let mut out = Vec::new();
        // Generous budget: the straggler lands inside it and is coalesced.
        assert!(q.pop_batch(&mut out, 4, Duration::from_millis(500)));
        producer.join().unwrap();
        assert!(out.contains(&0));
        // The batch either coalesced the straggler or (extreme scheduling
        // delay) it is still queued; both leave nothing lost.
        assert_eq!(out.len() + q.depth(), 2);
    }

    /// The backlog branch: the item is queued before the pop, so the batch
    /// stays open for the whole budget and is then flushed short.
    #[test]
    fn pop_batch_flushes_at_deadline_without_full_batch() {
        let q: BoundedQueue<u32> = BoundedQueue::new(4);
        q.try_push(7, 4).unwrap();
        let mut out = Vec::new();
        let budget = Duration::from_millis(20);
        let start = Instant::now();
        assert!(q.pop_batch(&mut out, 4, budget));
        let elapsed = start.elapsed();
        assert_eq!(out, vec![7]);
        assert!(
            elapsed >= budget,
            "a backlog must be held open for the budget, returned after {elapsed:?}"
        );
        assert!(elapsed < Duration::from_secs(2));
    }

    /// The idle branch: a consumer parked on an empty queue returns the
    /// first arrival at once instead of holding it for the budget.
    #[test]
    fn idle_consumer_returns_the_first_arrival_at_once() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(4));
        let budget = Duration::from_secs(5);
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut out = Vec::new();
                assert!(q.pop_batch(&mut out, 4, budget));
                out
            })
        };
        // Push only once the consumer is parked on the empty queue, so the
        // item is an arrival it was idle for, not a backlog it finds.
        let give_up = Instant::now() + Duration::from_secs(10);
        while q.idle_consumers() == 0 {
            assert!(Instant::now() < give_up, "the consumer never parked");
            std::thread::sleep(Duration::from_millis(1));
        }
        let pushed = Instant::now();
        q.try_push(7, 4).unwrap();
        let out = consumer.join().unwrap();
        let waited = pushed.elapsed();
        assert_eq!(out, vec![7]);
        assert!(
            waited < budget / 2,
            "an idle consumer must not wait out the {budget:?} budget, took {waited:?}"
        );
        assert_eq!(q.idle_consumers(), 0);
    }

    #[test]
    fn close_drains_then_stops_consumers() {
        let q = BoundedQueue::new(8);
        q.try_push(1, 8).unwrap();
        q.try_push(2, 8).unwrap();
        q.close();
        assert!(matches!(q.try_push(3, 8), Err((3, PushRefusal::Closed))));
        let mut out = Vec::new();
        // Remaining items drain immediately (no delay wait after close).
        let start = Instant::now();
        assert!(q.pop_batch(&mut out, 8, Duration::from_secs(5)));
        assert_eq!(out, vec![1, 2]);
        assert!(start.elapsed() < Duration::from_secs(1));
        assert!(!q.pop_batch(&mut out, 8, Duration::from_secs(5)));
        assert!(q.is_closed());
    }

    #[test]
    fn close_wakes_blocked_consumer() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut out = Vec::new();
                q.pop_batch(&mut out, 4, Duration::from_secs(30))
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert!(!consumer.join().unwrap(), "woken consumer reports closure");
    }
}
