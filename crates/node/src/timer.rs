//! The reactor's ordered timer set.
//!
//! Every delayed action in the runtime — the periodic exchange tick,
//! per-session handshake/idle deadlines, and dial-backoff retries —
//! lives on one [`TimerWheel`] instead of a sleeping thread. Deadlines
//! are rounded up to ticks of `granularity`, and the timers sit in one
//! `BTreeMap` keyed `(tick, insertion sequence)`: [`TimerWheel::pop_due`]
//! pops the prefix whose tick has passed, in (tick, insertion) order —
//! which keeps the deterministic cluster driver's timer schedule
//! reproducible — and the first key is the next deadline, so asking
//! when to wake ([`TimerWheel::next_deadline`]) or whether anything is
//! due ([`TimerWheel::has_due`]) costs the same however far away the
//! deadlines are. All three compare against one tick computation, so
//! they cannot disagree about what "due" means. A reactor holds a few
//! dozen timers; there is no per-timer thread and nothing to size.

use bartercast_util::units::PeerId;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// What to do when a timer fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerKind {
    /// Periodic gossip exchange: build a message, sample targets, dial.
    Exchange,
    /// Re-check one session's handshake/idle deadline.
    SessionCheck {
        /// The session's reactor token.
        token: u64,
    },
    /// A dial to `peer` backed off earlier; try again now.
    DialRetry {
        /// The peer to redial.
        peer: PeerId,
    },
    /// Periodic choke-round tick for the attached swarm workload:
    /// recompute unchoke sets and serve queued piece requests.
    ChokeRound,
}

/// An ordered set of timers over [`Instant`]s (see module docs).
#[derive(Debug)]
pub struct TimerWheel {
    start: Instant,
    granularity: Duration,
    /// `(tick, insertion sequence)` → what fires.
    timers: BTreeMap<(u64, u64), TimerKind>,
    /// The tick of the latest [`TimerWheel::pop_due`]; every queued
    /// entry has `tick >= current`.
    current: u64,
    next_seq: u64,
}

impl TimerWheel {
    /// A timer set anchored at `start` with ticks of `granularity`.
    /// `start` should be the clock's current instant at boot.
    pub fn new(start: Instant, granularity: Duration) -> Self {
        assert!(granularity > Duration::ZERO);
        TimerWheel {
            start,
            granularity,
            timers: BTreeMap::new(),
            current: 0,
            next_seq: 0,
        }
    }

    /// Number of queued timers.
    pub fn len(&self) -> usize {
        self.timers.len()
    }

    /// Whether no timers are queued.
    pub fn is_empty(&self) -> bool {
        self.timers.is_empty()
    }

    /// The last tick that has fully begun by `now` — the one tick
    /// computation "due" is defined by.
    fn tick_at(&self, now: Instant) -> u64 {
        let elapsed = now.saturating_duration_since(self.start).as_nanos();
        (elapsed / self.granularity.as_nanos()) as u64
    }

    /// Queue `kind` to fire at (or just after) `deadline`. Deadlines in
    /// the past fire on the next [`TimerWheel::pop_due`].
    pub fn schedule(&mut self, deadline: Instant, kind: TimerKind) {
        let nanos = deadline.saturating_duration_since(self.start).as_nanos();
        let tick = nanos.div_ceil(self.granularity.as_nanos()) as u64;
        self.timers
            .insert((tick.max(self.current), self.next_seq), kind);
        self.next_seq += 1;
    }

    /// Whether [`TimerWheel::pop_due`] would return anything at `now`.
    pub fn has_due(&self, now: Instant) -> bool {
        let first = self.timers.first_key_value();
        first.is_some_and(|(&(tick, _), _)| tick <= self.tick_at(now))
    }

    /// Return every timer that has come due by `now`, in (tick,
    /// insertion) order. An entry due exactly at the current tick
    /// fires, and one scheduled for "now" right after a poll still
    /// fires on the next poll at the same instant rather than waiting
    /// out a granularity step.
    pub fn pop_due(&mut self, now: Instant) -> Vec<TimerKind> {
        let target = self.tick_at(now);
        self.current = self.current.max(target);
        let mut due = Vec::new();
        while let Some(first) = self.timers.first_entry() {
            if first.key().0 > target {
                break;
            }
            due.push(first.remove());
        }
        due
    }

    /// The earliest queued deadline, if any — what the reactor sleeps
    /// until. [`TimerWheel::has_due`] holds from that instant on.
    pub fn next_deadline(&self) -> Option<Instant> {
        let (&(tick, _), _) = self.timers.first_key_value()?;
        let nanos = self.granularity.as_nanos() as u64 * tick;
        Some(self.start + Duration::from_nanos(nanos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wheel(granularity_ms: u64) -> (TimerWheel, Instant) {
        let start = Instant::now();
        (
            TimerWheel::new(start, Duration::from_millis(granularity_ms)),
            start,
        )
    }

    #[test]
    fn fires_in_deadline_then_insertion_order() {
        let (mut w, t0) = wheel(1);
        w.schedule(
            t0 + Duration::from_millis(5),
            TimerKind::SessionCheck { token: 5 },
        );
        w.schedule(
            t0 + Duration::from_millis(2),
            TimerKind::SessionCheck { token: 2 },
        );
        w.schedule(
            t0 + Duration::from_millis(2),
            TimerKind::SessionCheck { token: 3 },
        );
        assert_eq!(w.pop_due(t0 + Duration::from_millis(1)), vec![]);
        assert_eq!(
            w.pop_due(t0 + Duration::from_millis(10)),
            vec![
                TimerKind::SessionCheck { token: 2 },
                TimerKind::SessionCheck { token: 3 },
                TimerKind::SessionCheck { token: 5 },
            ]
        );
        assert!(w.is_empty());
    }

    #[test]
    fn far_future_timers_survive_wheel_revolutions() {
        let (mut w, t0) = wheel(1);
        w.schedule(t0 + Duration::from_millis(11), TimerKind::Exchange);
        w.schedule(
            t0 + Duration::from_millis(3),
            TimerKind::SessionCheck { token: 1 },
        );
        assert_eq!(
            w.pop_due(t0 + Duration::from_millis(4)),
            vec![TimerKind::SessionCheck { token: 1 }]
        );
        assert_eq!(w.pop_due(t0 + Duration::from_millis(10)), vec![]);
        assert_eq!(
            w.pop_due(t0 + Duration::from_millis(12)),
            vec![TimerKind::Exchange]
        );
    }

    #[test]
    fn past_deadlines_fire_on_next_poll() {
        let (mut w, t0) = wheel(1);
        let now = t0 + Duration::from_millis(20);
        w.pop_due(now); // move the cursor forward first
        w.schedule(t0 + Duration::from_millis(1), TimerKind::Exchange); // already past
        assert_eq!(w.pop_due(now), vec![TimerKind::Exchange]);
    }

    #[test]
    fn next_deadline_tracks_the_minimum() {
        let (mut w, t0) = wheel(2);
        assert_eq!(w.next_deadline(), None);
        w.schedule(t0 + Duration::from_millis(9), TimerKind::Exchange);
        w.schedule(
            t0 + Duration::from_millis(3),
            TimerKind::SessionCheck { token: 1 },
        );
        let next = w.next_deadline().unwrap();
        assert!(next <= t0 + Duration::from_millis(4));
        assert!(next > t0);
    }

    /// The boot case: a timer scheduled for the anchor instant itself
    /// (a reactor's first exchange tick) is due at once, and the three
    /// queries agree on it.
    #[test]
    fn tick_zero_is_due_at_the_anchor() {
        let (mut w, t0) = wheel(1);
        assert!(!w.has_due(t0));
        w.schedule(t0, TimerKind::Exchange);
        assert_eq!(w.next_deadline(), Some(t0));
        assert!(w.has_due(t0));
        assert_eq!(w.pop_due(t0), vec![TimerKind::Exchange]);
        assert!(!w.has_due(t0));
        assert_eq!(w.next_deadline(), None);
    }
}
