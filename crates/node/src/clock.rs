//! Time sources for the reactor.
//!
//! The reactor never calls `Instant::now()` directly — it asks its
//! [`Clock`]. In production that is [`SystemClock`] (a thin wrapper
//! over `Instant::now`), but the deterministic cluster driver installs
//! a [`VirtualClock`] instead: a monotonically advancing offset over a
//! fixed base instant that only moves when the driver says so. Every
//! time-dependent decision in the runtime — exchange ticks, idle
//! timeouts, dial backoff expiry, and the in-flight delay schedule of
//! the [`MemTransport`](crate::mem::MemTransport) — then becomes a
//! pure function of the event schedule, which is what makes two runs
//! of the same seeded cluster bitwise identical.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A monotonic time source.
pub trait Clock: Send + Sync {
    /// The current instant. Must never go backwards.
    fn now(&self) -> Instant;
}

/// Wall-clock time: `Instant::now()`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SystemClock;

impl Clock for SystemClock {
    fn now(&self) -> Instant {
        Instant::now()
    }
}

/// Simulated time: a base instant plus an explicitly advanced offset.
///
/// `now()` is `base + offset`; nothing moves until
/// [`VirtualClock::advance_to`] is called, so a single-threaded driver
/// has total control over the event schedule. The offset is monotone:
/// advancing to a past instant is a no-op rather than a rewind.
#[derive(Debug)]
pub struct VirtualClock {
    base: Instant,
    offset_nanos: AtomicU64,
}

impl Default for VirtualClock {
    fn default() -> Self {
        Self::new()
    }
}

impl VirtualClock {
    /// A virtual clock starting at an arbitrary base instant.
    pub fn new() -> Self {
        VirtualClock {
            base: Instant::now(),
            offset_nanos: AtomicU64::new(0),
        }
    }

    /// Advance time to `t` (no-op if `t` is not in the future).
    pub fn advance_to(&self, t: Instant) {
        let target = t.saturating_duration_since(self.base).as_nanos() as u64;
        self.offset_nanos.fetch_max(target, Ordering::SeqCst);
    }

    /// Virtual time elapsed since the clock was created.
    pub fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.offset_nanos.load(Ordering::SeqCst))
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Instant {
        self.base + Duration::from_nanos(self.offset_nanos.load(Ordering::SeqCst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_moves_only_when_advanced() {
        let c = VirtualClock::new();
        let t0 = c.now();
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(c.now(), t0, "virtual time must ignore wall time");
        c.advance_to(t0 + Duration::from_secs(1));
        assert_eq!(c.now(), t0 + Duration::from_secs(1));
    }

    #[test]
    fn advance_to_is_monotone() {
        let c = VirtualClock::new();
        let t0 = c.now();
        c.advance_to(t0 + Duration::from_millis(10));
        c.advance_to(t0 + Duration::from_millis(5)); // backwards: ignored
        assert_eq!(c.now(), t0 + Duration::from_millis(10));
        assert_eq!(c.elapsed(), Duration::from_millis(10));
    }
}
