//! The lockstep driver: many reactors, one thread, virtual time.
//!
//! [`Lockstep`] owns the [`MemTransport`], the [`VirtualClock`] it is
//! timed by, and every live [`Reactor`], held sorted by peer id so that a
//! reactor's *slot* is its position. The caller owns the world around
//! it — which nodes exist, what they carry, when they come and go — and
//! calls [`Lockstep::spawn`], [`Lockstep::retire`] and
//! [`Lockstep::step`]; the driver owns time.
//!
//! One [`Lockstep::step`] settles every event available at the current
//! virtual instant, then advances the clock to the earliest wake any
//! reactor has scheduled. The driver is told what became due instead
//! of asking every reactor:
//!
//! * each reactor's [`WakeQueue`](crate::WakeQueue) is linked to its
//!   slot's bit in the driver's runnable bitset, so the notify that
//!   delivers a frame, an EOF or an inbound connection also marks the
//!   reactor runnable;
//! * after each poll the driver caches the reactor's
//!   [`Reactor::next_wake`] in a per-slot vector and marks the slot
//!   again iff [`Reactor::has_work`] still holds;
//! * at step start the slots whose cached wake has come due are marked.
//!
//! A pass walks the set bits upward in slot order, clearing each just
//! before that reactor's poll: a bit that a lower slot's send sets
//! during the pass is reached in the same pass, one a higher slot sets
//! waits for the next. Passes repeat until one makes no progress, and
//! the clock then jumps to the minimum of the cache. A bit is therefore
//! set exactly when `has_work` holds at the reactor's turn, so the
//! driver polls the same reactors, in the same order, at the same
//! instants as a pass that asked every reactor — while asking only the
//! one it just polled. A skipped cycle is one that would have changed
//! nothing, as invisible to the schedule as the redundant cycles the
//! determinism tests add.
//!
//! Spawning or retiring shifts slots, so a membership change relinks
//! every queue to a fresh bitset and rebuilds the bits and the cache
//! before the next step; a departed reactor's queue, still reachable
//! from its peers' pipes, keeps marking the old bitset nobody reads.
//!
//! The clock never stops anywhere else: whatever the caller does
//! between steps (churn, forced disconnects) takes effect at the first
//! step boundary at or after the instant it was meant for.
//! Combined with the transport's poll-order-independent RNG streams,
//! every frame drop, delay, fragment boundary and timer firing is a
//! pure function of the seeds — two runs of one schedule produce
//! bitwise-identical [`NodeStats`] and graphs, which the determinism
//! tests of this crate and of `bartercast-swarm` assert.
//!
//! A retired node's counters and state are kept (nothing writes them
//! once its reactor is gone; its sessions are closed and reaped on the
//! way out, so none stays counted live), so [`Lockstep::stats`],
//! [`Lockstep::edges`] and [`Lockstep::all_from_pieces`] cover departed
//! nodes too; a live node shadows an earlier departure under its id.

use crate::clock::VirtualClock;
use crate::mem::{MemConfig, MemTransport};
use crate::reactor::{NodeConfig, Reactor};
use crate::stats::NodeStats;
use bartercast_core::{PeerState, PrivateHistory};
use bartercast_util::units::{Bytes, PeerId};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// A sorted subjective edge list `(from, to, bytes)`.
pub type Edges = Vec<(PeerId, PeerId, Bytes)>;

/// What is observable of a node, live or retired.
type Observed<'a> = (&'a NodeStats, &'a PeerState);

/// The driver's runnable set: one bit per slot, in 64-bit words, held
/// by the driver and by every linked wake queue.
pub(crate) type Runnable = Rc<[Cell<u64>]>;

/// Set bit `slot` of a bitset of 64-bit words.
pub(crate) fn set_bit(bits: &[Cell<u64>], slot: usize) {
    let word = &bits[slot / 64];
    word.set(word.get() | 1 << (slot % 64));
}

/// Reactors driven in lockstep on one virtual clock (see module docs).
pub struct Lockstep {
    /// The network every reactor speaks through, and its clock.
    transport: MemTransport,
    /// The live reactors in id order; a reactor's slot is its index.
    reactors: Vec<Reactor>,
    /// One bit per slot, set while the slot's reactor has work; each
    /// reactor's wake queue holds it too.
    runnable: Runnable,
    /// Each slot's [`Reactor::next_wake`] as of its last poll.
    wakes: Vec<Option<Instant>>,
    /// Membership changed since the slots were last linked.
    relink: bool,
    /// Retired nodes' final counters and state.
    departed: BTreeMap<PeerId, (NodeStats, PeerState)>,
    polls: u64,
    /// The slots the last step polled, in order.
    #[cfg(any(test, feature = "scan-oracle"))]
    polled: Vec<usize>,
}

impl Lockstep {
    /// An empty driver at virtual time zero, its transport shaped by
    /// `mem` (loss, delay, fragmentation, seed).
    pub fn new(mem: MemConfig) -> Lockstep {
        Lockstep {
            transport: MemTransport::with_clock(mem, Rc::new(VirtualClock::new())),
            reactors: Vec::new(),
            runnable: Rc::new([]),
            wakes: Vec::new(),
            relink: false,
            departed: BTreeMap::new(),
            polls: 0,
            #[cfg(any(test, feature = "scan-oracle"))]
            polled: Vec::new(),
        }
    }

    /// Boot a reactor for `id` at the current virtual instant and
    /// return it, so the caller may `attach_workload` before the next
    /// step. Nothing runs until [`Lockstep::step`]. `id` may be one
    /// that was retired earlier (a crash-restart).
    pub fn spawn(
        &mut self,
        id: PeerId,
        bootstrap: Vec<PeerId>,
        history: PrivateHistory,
        config: NodeConfig,
    ) -> &mut Reactor {
        let Err(slot) = self.reactors.binary_search_by_key(&id, Reactor::id) else {
            panic!("node {id} is live");
        };
        let reactor = Reactor::new(id, &self.transport, bootstrap, history, config);
        self.reactors.insert(slot, reactor);
        self.relink = true;
        &mut self.reactors[slot]
    }

    /// Tear down one node, keeping its final counters and state; its
    /// sessions are closed unclean and reaped, and its connections are
    /// severed so surviving peers observe the closure.
    /// No-op for an unknown id.
    pub fn retire(&mut self, id: PeerId) {
        if let Ok(slot) = self.reactors.binary_search_by_key(&id, Reactor::id) {
            let departed = self.reactors.remove(slot).into_parts();
            self.departed.insert(id, departed);
            self.transport.disconnect(id);
            self.relink = true;
        }
    }

    /// Link every live reactor's wake queue to its slot in a fresh
    /// bitset and rebuild the bits and the wake cache from the
    /// reactors themselves.
    fn link(&mut self) {
        let words = self.reactors.len().div_ceil(64);
        self.runnable = (0..words).map(|_| Cell::new(0)).collect();
        self.wakes.clear();
        for (slot, reactor) in self.reactors.iter().enumerate() {
            reactor.wake_handle().link(Rc::clone(&self.runnable), slot);
            if reactor.has_work() {
                set_bit(&self.runnable, slot);
            }
            self.wakes.push(reactor.next_wake());
        }
        self.relink = false;
    }

    /// Whether `slot`'s bit is set.
    fn is_runnable(&self, slot: usize) -> bool {
        self.runnable[slot / 64].get() & (1 << (slot % 64)) != 0
    }

    /// Clear and return the lowest set bit at or above `from`.
    fn take_runnable(&self, from: usize) -> Option<usize> {
        let mut word = from / 64;
        let mut mask = !0u64 << (from % 64);
        while let Some(bits) = self.runnable.get(word) {
            let set = bits.get() & mask;
            if set != 0 {
                let bit = set.trailing_zeros();
                bits.set(bits.get() & !(1 << bit));
                return Some(word * 64 + bit as usize);
            }
            word += 1;
            mask = !0;
        }
        None
    }

    /// One lockstep step: pump the runnable reactors (in id order)
    /// until none makes progress, then advance the virtual clock to the
    /// earliest wake any of them has scheduled. Returns `false` once no
    /// reactor has future work (which does not happen while exchanges
    /// repeat).
    pub fn step(&mut self) -> bool {
        if self.relink {
            self.link();
        }
        #[cfg(any(test, feature = "scan-oracle"))]
        self.polled.clear();
        let now = self.transport.clock().now();
        for (slot, wake) in self.wakes.iter().enumerate() {
            if wake.is_some_and(|at| at <= now) {
                set_bit(&self.runnable, slot);
            }
        }
        // settle the current instant; the spin bound only guards
        // against a livelocked pump, not normal operation
        for _ in 0..10_000 {
            let mut progress = false;
            let mut from = 0;
            while let Some(slot) = self.take_runnable(from) {
                let reactor = &mut self.reactors[slot];
                self.polls += 1;
                #[cfg(any(test, feature = "scan-oracle"))]
                self.polled.push(slot);
                progress |= reactor.poll_once();
                self.wakes[slot] = reactor.next_wake();
                if reactor.has_work() {
                    set_bit(&self.runnable, slot);
                }
                from = slot + 1;
            }
            if !progress {
                break;
            }
        }
        debug_assert!(
            self.reactors.iter().enumerate().all(|(slot, r)| {
                self.is_runnable(slot) == r.has_work() && self.wakes[slot] == r.next_wake()
            }),
            "a runnable bit or cached wake disagrees with its reactor"
        );
        let Some(at) = self.wakes.iter().flatten().min().copied() else {
            return false;
        };
        self.advance_to(at);
        true
    }

    /// Move the clock to `at`, strictly forward so a deadline exactly
    /// at `now` can't stall the loop.
    fn advance_to(&self, at: Instant) {
        let clock = self.transport.clock();
        clock.advance_to(at.max(clock.now() + Duration::from_micros(1)));
    }

    /// Step until `done` returns true or `max_virtual` has elapsed.
    /// Returns whether `done` was reached.
    pub fn run_until<F>(&mut self, mut done: F, max_virtual: Duration) -> bool
    where
        F: FnMut(&Lockstep) -> bool,
    {
        loop {
            if done(self) {
                return true;
            }
            if self.elapsed() >= max_virtual {
                return false;
            }
            if !self.step() {
                return done(self);
            }
        }
    }

    /// How many reactor cycles ([`Reactor::poll_once`]) the driver has
    /// run so far — its work, counted without a wall clock.
    pub fn polls(&self) -> u64 {
        self.polls
    }

    /// Virtual time elapsed since the driver was built.
    pub fn elapsed(&self) -> Duration {
        self.transport.clock().elapsed()
    }

    /// The shared transport (loss counters, forced disconnects).
    pub fn transport(&self) -> &MemTransport {
        &self.transport
    }

    /// The live reactors, in id order.
    pub fn reactors(&self) -> impl Iterator<Item = &Reactor> {
        self.reactors.iter()
    }

    fn observed(&self) -> BTreeMap<PeerId, Observed<'_>> {
        let departed = self.departed.iter().map(|(&id, (c, s))| (id, (c, s)));
        let live = self
            .reactors
            .iter()
            .map(|r| (r.id(), (r.stats(), r.state())));
        departed.chain(live).collect()
    }

    /// Per-node counters in id order (live + retired).
    pub fn stats(&self) -> BTreeMap<PeerId, NodeStats> {
        let all = self.observed().into_iter();
        all.map(|(id, (stats, _))| (id, *stats)).collect()
    }

    /// Per-node subjective edge lists in id order (live + retired).
    pub fn edges(&self) -> BTreeMap<PeerId, Edges> {
        let all = self.observed().into_iter();
        all.map(|(id, (_, state))| (id, state.subjective_edges()))
            .collect()
    }

    /// Whether every node's private history (live + retired) was fed
    /// exclusively by piece transfers.
    pub fn all_from_pieces(&self) -> bool {
        self.observed()
            .values()
            .all(|(_, state)| state.history.all_from_pieces())
    }
}

/// The scheduler's oracle, for tests (the `scan-oracle` feature lends
/// it to other crates' test suites; nothing else enables it).
#[cfg(any(test, feature = "scan-oracle"))]
impl Lockstep {
    /// The step the scheduler must reproduce: every pass asks each
    /// reactor, in id order, whether it has work and polls it if so;
    /// the clock then jumps to the earliest `next_wake` of them all.
    /// The bits and the cache it bypasses are rebuilt before the next
    /// [`Lockstep::step`].
    pub fn step_by_scan(&mut self) -> bool {
        self.relink = true;
        self.polled.clear();
        for _ in 0..10_000 {
            let mut progress = false;
            for (slot, reactor) in self.reactors.iter_mut().enumerate() {
                if reactor.has_work() {
                    self.polls += 1;
                    self.polled.push(slot);
                    progress |= reactor.poll_once();
                }
            }
            if !progress {
                break;
            }
        }
        let Some(at) = self.reactors.iter().filter_map(Reactor::next_wake).min() else {
            return false;
        };
        self.advance_to(at);
        true
    }

    /// The slots the last step polled, in order.
    pub fn last_polled(&self) -> &[usize] {
        &self.polled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, DeterministicCluster};

    /// Everything one run observes: the slots each step polled, the
    /// poll total, and every node's counters and edges.
    type Observation = (Vec<Vec<usize>>, u64, Vec<NodeStats>, Vec<Edges>);

    /// The lossy 8-node cluster with a forced disconnect at 100 ms and
    /// node 3 retired at 200 ms and respawned empty at 300 ms, driven
    /// to 600 ms by the scheduler or by the scan.
    fn observe(by_scan: bool) -> Observation {
        let mut config = ClusterConfig {
            mem: MemConfig {
                loss: 0.05,
                seed: 0xBC29,
                ..MemConfig::default()
            },
            ..ClusterConfig::default()
        };
        config.node.seed = 0xBC29;
        let victim = PeerId(3);
        let ms = Duration::from_millis;
        let mut cluster = DeterministicCluster::boot(config).expect("boot");
        let (mut cut, mut retired, mut respawned) = (false, false, false);
        let mut steps = Vec::new();
        while cluster.elapsed() < ms(600) {
            let now = cluster.elapsed();
            if !cut && now >= ms(100) {
                assert!(cluster.force_disconnect(PeerId(5)) > 0);
                cut = true;
            }
            if !retired && now >= ms(200) {
                cluster.lockstep_mut().retire(victim);
                retired = true;
            }
            if !respawned && now >= ms(300) {
                let bootstrap = (0..8).map(PeerId).filter(|&p| p != victim).collect();
                let history = PrivateHistory::new(victim);
                let lockstep = cluster.lockstep_mut();
                lockstep.spawn(victim, bootstrap, history, config.node);
                respawned = true;
            }
            let lockstep = cluster.lockstep_mut();
            let alive = if by_scan {
                lockstep.step_by_scan()
            } else {
                lockstep.step()
            };
            assert!(alive);
            steps.push(lockstep.last_polled().to_vec());
        }
        assert!(respawned, "the churn script ran");
        let polls = cluster.lockstep_mut().polls();
        (steps, polls, cluster.stats(), cluster.edges())
    }

    /// The scheduler polls exactly what the scan polls, step by step,
    /// through loss, a forced disconnect and a retire/respawn.
    #[test]
    fn the_scheduler_polls_what_the_scan_polls() {
        let (steps, polls, stats, edges) = observe(false);
        let (scan_steps, scan_polls, scan_stats, scan_edges) = observe(true);
        assert_eq!(steps.len(), scan_steps.len(), "step counts differ");
        for (i, (ours, scan)) in steps.iter().zip(&scan_steps).enumerate() {
            assert_eq!(ours, scan, "step {i} polled different slots");
        }
        assert_eq!(polls, scan_polls);
        assert_eq!(stats, scan_stats);
        assert_eq!(edges, scan_edges);
        assert!(
            stats[3].sessions_opened > 0 && polls > steps.len() as u64,
            "the run exercised nothing"
        );
    }

    /// A retired node's edges and counters stay observable, its books
    /// closed (no session live, each one opened counted closed), and
    /// the survivor keeps the record it learnt from it.
    #[test]
    fn a_retired_nodes_state_stays_observable() {
        let mut cluster = DeterministicCluster::boot(ClusterConfig {
            n: 3,
            ..ClusterConfig::default()
        })
        .expect("boot");
        assert!(cluster.run_until_converged(Duration::from_secs(30)));
        let converged = cluster.expected().to_vec();
        let lockstep = cluster.lockstep_mut();
        assert!(lockstep.stats()[&PeerId(1)].sessions_live > 0);
        lockstep.retire(PeerId(1));
        assert_eq!(lockstep.reactors().count(), 2);
        let edges = lockstep.edges();
        assert_eq!(edges.len(), 3, "the retired node is still listed");
        assert!(edges.values().all(|e| *e == converged), "{edges:?}");
        let books = lockstep.stats()[&PeerId(1)];
        assert!(books.records_received > 0);
        assert_eq!(books.sessions_live, 0, "{books:?}");
        assert_eq!(books.sessions_closed, books.sessions_opened, "{books:?}");
    }

    /// A linked wake queue marks its slot on notify and only then.
    #[test]
    fn notify_marks_the_linked_slot() {
        let mut lockstep = Lockstep::new(MemConfig::default());
        for id in [PeerId(7), PeerId(2)] {
            lockstep.spawn(id, vec![], PrivateHistory::new(id), NodeConfig::default());
        }
        assert!(lockstep.step(), "the first exchange ticks");
        assert!(!lockstep.is_runnable(0) && !lockstep.is_runnable(1));
        let _conn = lockstep.transport().connect(PeerId(9), PeerId(7)).unwrap();
        assert!(!lockstep.is_runnable(0), "node 2 sits in slot 0");
        assert!(lockstep.is_runnable(1), "node 7's listener woke slot 1");
    }
}
