//! The runtime's one time source.
//!
//! The reactor never calls `Instant::now()` — it asks its
//! [`VirtualClock`]: a monotonically advancing offset over a fixed base
//! instant that only moves when the driver says so. Every
//! time-dependent decision in the runtime — exchange ticks, idle
//! timeouts, dial backoff expiry, and the in-flight delay schedule of
//! the [`MemTransport`](crate::mem::MemTransport) — is then a pure
//! function of the event schedule, which is what makes two runs of the
//! same seeded cluster bitwise identical.

use std::cell::Cell;
use std::time::{Duration, Instant};

/// Simulated time: a base instant plus an explicitly advanced offset.
///
/// [`VirtualClock::now`] is `base + offset`; nothing moves until
/// [`VirtualClock::advance_to`] is called, so a single-threaded driver
/// has total control over the event schedule. The offset is monotone:
/// advancing to a past instant is a no-op rather than a rewind.
#[derive(Debug)]
pub struct VirtualClock {
    base: Instant,
    offset: Cell<Duration>,
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
            offset: Cell::new(Duration::ZERO),
        }
    }

    /// The current instant. Never goes backwards.
    pub fn now(&self) -> Instant {
        self.base + self.offset.get()
    }

    /// Advance time to `t` (no-op if `t` is not in the future).
    pub fn advance_to(&self, t: Instant) {
        let target = t.saturating_duration_since(self.base);
        self.offset.set(self.offset.get().max(target));
    }

    /// Virtual time elapsed since the clock was created.
    pub fn elapsed(&self) -> Duration {
        self.offset.get()
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
