//! Open-loop load generation, paced by sleeping.
//!
//! Request `i` is due at `i × interval` from the start of a phase,
//! whatever happened to earlier requests. The generator sleeps until a
//! request is due and sends at once any that are already due, so after a
//! stall it catches up instead of silently stretching the schedule. A
//! request's latency is timed from when it was *due*: the time a stalled
//! generator makes later requests wait counts against the run.

#[cfg(test)]
use std::cell::Cell;
use std::time::{Duration, Instant};

/// The generator's time source: time since the phase started, and a way
/// to wait for a point in it.
pub trait Clock {
    fn now(&self) -> Duration;
    fn sleep_until(&self, t: Duration);
}

/// Real time, waited for with `thread::sleep` (no spinning: a spinning
/// generator takes a CPU from the system it measures).
pub struct WallClock {
    start: Instant,
}

impl WallClock {
    pub fn start() -> WallClock {
        WallClock {
            start: Instant::now(),
        }
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.start.elapsed()
    }

    fn sleep_until(&self, t: Duration) {
        let now = self.now();
        if t > now {
            std::thread::sleep(t - now);
        }
    }
}

/// Sends `count` requests due every `interval`: `send(i, due, sent)` is
/// called once per request, in order, with its due time and the time it
/// was actually sent.
pub fn drive(
    clock: &impl Clock,
    interval: Duration,
    count: u64,
    mut send: impl FnMut(u64, Duration, Duration),
) {
    for i in 0..count {
        let due = interval * i as u32;
        clock.sleep_until(due);
        send(i, due, clock.now());
    }
}

/// Latency as the request's client sees it: from when it was due, through
/// the generator's lag, to the end of its service.
pub fn latency_from_due(due: Duration, sent: Duration, service: Duration) -> Duration {
    sent.saturating_sub(due) + service
}

/// A simulated clock for tests: sleeping jumps straight to the target, and
/// [`FakeClock::stall`] models the generator being held up.
#[cfg(test)]
#[derive(Default)]
pub struct FakeClock {
    now: Cell<Duration>,
}

#[cfg(test)]
impl FakeClock {
    pub fn stall(&self, d: Duration) {
        self.now.set(self.now.get() + d);
    }
}

#[cfg(test)]
impl Clock for FakeClock {
    fn now(&self) -> Duration {
        self.now.get()
    }

    fn sleep_until(&self, t: Duration) {
        if t > self.now.get() {
            self.now.set(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Latency;

    const MS: Duration = Duration::from_millis(1);

    /// A 20 ms stall while sending request 10 of a 1 ms schedule: the
    /// requests due during the stall go out late, and their latency from
    /// due carries the wait, shrinking by 1 ms per request as the generator
    /// catches up. Timing from the send would hide all of it.
    #[test]
    fn stall_is_charged_to_the_requests_it_delays() {
        let clock = FakeClock::default();
        let service = MS;
        let mut from_due = Vec::new();
        let mut from_send = Vec::new();
        let mut lag = Vec::new();
        drive(&clock, MS, 100, |i, due, sent| {
            lag.push(sent - due);
            from_due.push(latency_from_due(due, sent, service));
            from_send.push(service);
            if i == 10 {
                clock.stall(20 * MS);
            }
        });
        assert_eq!(from_due.len(), 100);
        // Requests 0..=10 were on time.
        assert!(from_due[..=10].iter().all(|&l| l == service));
        // Request 11 was due at 11 ms and sent at 30 ms.
        assert_eq!(lag[11], 19 * MS);
        assert_eq!(from_due[11], 20 * MS);
        for (i, &l) in lag.iter().enumerate().take(30).skip(11) {
            assert_eq!(l, (30 - i as u32) * MS, "request {i}");
        }
        // The generator caught up: request 30 onwards is on time again.
        assert!(lag[30..].iter().all(|&l| l == Duration::ZERO));
        let ms = |v: &[Duration]| {
            v.iter()
                .map(|d| d.as_micros() as f64 / 1e3)
                .collect::<Vec<_>>()
        };
        let due_view = Latency::of(&ms(&from_due), 99.0);
        let send_view = Latency::of(&ms(&from_send), 99.0);
        assert_eq!(due_view.tail_pct, 90.0);
        assert_eq!(due_view.tail, 10.0);
        assert_eq!(send_view.tail, 1.0);
    }

    #[test]
    fn schedule_is_kept_without_stalls() {
        let clock = FakeClock::default();
        let mut sent_at = Vec::new();
        drive(&clock, 3 * MS, 5, |_, due, sent| {
            assert_eq!(due, sent);
            sent_at.push(sent);
        });
        assert_eq!(sent_at, [0, 3, 6, 9, 12].map(|m| m * MS));
    }

    #[test]
    fn wall_clock_sleeps_until_due() {
        let clock = WallClock::start();
        clock.sleep_until(2 * MS);
        assert!(clock.now() >= 2 * MS);
    }
}
