//! Model equivalence for the reactor's ordered timer set: random
//! `schedule` / `pop_due` / clock-advance sequences — past deadlines,
//! equal ticks, tick 0, gaps of thousands of ticks — fire in the same
//! order as a sorted `Vec`, and after every operation `has_due` and
//! `next_deadline` say what the model's minimum says.

use bartercast_node::timer::{TimerKind, TimerWheel};
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// The reference: `(tick, insertion seq)` entries kept sorted, with the
/// same two rounding rules (deadline up, now down) and the same
/// past-deadline clamp, in plain integer microseconds.
struct Model {
    granularity_us: u64,
    current: u64,
    entries: Vec<(u64, u64)>,
    next_seq: u64,
}

impl Model {
    fn schedule(&mut self, deadline_us: u64) -> u64 {
        let tick = deadline_us.div_ceil(self.granularity_us).max(self.current);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push((tick, seq));
        self.entries.sort_unstable();
        seq
    }

    fn pop_due(&mut self, now_us: u64) -> Vec<u64> {
        let target = now_us / self.granularity_us;
        self.current = self.current.max(target);
        let due = self.entries.iter().take_while(|e| e.0 <= target).count();
        self.entries.drain(..due).map(|(_, seq)| seq).collect()
    }

    fn min_tick(&self) -> Option<u64> {
        self.entries.first().map(|e| e.0)
    }
}

fn kinds(tokens: Vec<u64>) -> Vec<TimerKind> {
    let kind = |token| TimerKind::SessionCheck { token };
    tokens.into_iter().map(kind).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn timer_set_matches_a_sorted_vec(
        granularity_ms in 1u64..4,
        ops in prop::collection::vec((0u8..5, 0u64..3_000_000), 1..120),
    ) {
        let start = Instant::now();
        let at = |us: u64| start + Duration::from_micros(us);
        let mut wheel = TimerWheel::new(start, Duration::from_millis(granularity_ms));
        let mut model = Model {
            granularity_us: granularity_ms * 1000,
            current: 0,
            entries: Vec::new(),
            next_seq: 0,
        };
        let mut now_us = 0u64;
        // the boot case first: a timer for the anchor instant itself
        let boot = std::iter::once((1u8, 0u64));
        for (op, x) in boot.chain(ops) {
            match op {
                // anywhere on the timeline, mostly in the past once the
                // clock has moved
                0 => {
                    let token = model.schedule(x);
                    wheel.schedule(at(x), TimerKind::SessionCheck { token });
                }
                // near the present: equal ticks and "now" itself
                1 => {
                    let deadline = now_us + x % 5000;
                    let token = model.schedule(deadline);
                    wheel.schedule(at(deadline), TimerKind::SessionCheck { token });
                }
                2 => now_us += x % 4000,
                3 => now_us += x, // up to 3 s: thousands of ticks at once
                _ => {
                    let fired = wheel.pop_due(at(now_us));
                    prop_assert_eq!(fired, kinds(model.pop_due(now_us)), "firing order");
                }
            }
            let min = model.min_tick();
            prop_assert_eq!(wheel.len(), model.entries.len());
            prop_assert_eq!(
                wheel.next_deadline(),
                min.map(|tick| at(tick * model.granularity_us))
            );
            // `has_due` is exactly "`pop_due` would return something"
            let due = min.is_some_and(|tick| tick <= now_us / model.granularity_us);
            prop_assert_eq!(wheel.has_due(at(now_us)), due);
        }
        // drain: everything left fires, in model order
        now_us += 10_000_000;
        prop_assert_eq!(wheel.pop_due(at(now_us)), kinds(model.pop_due(now_us)));
        prop_assert!(wheel.is_empty());
    }
}
