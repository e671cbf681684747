//! The lockstep driver: many reactors, one thread, virtual time.
//!
//! [`Lockstep`] owns a [`VirtualClock`], the [`MemTransport`] built on
//! it, and every live [`Reactor`], keyed and pumped in peer-id order.
//! The caller owns the world around it — which nodes exist, what they
//! carry, when they come and go — and calls [`Lockstep::spawn`],
//! [`Lockstep::retire`] and [`Lockstep::step`]; the driver owns time.
//!
//! One [`Lockstep::step`] settles every event available at the current
//! virtual instant (passing over the reactors in id order until a pass
//! makes no progress), then advances the clock to the earliest wake
//! any reactor has scheduled. A pass polls a reactor only if, at its
//! turn, [`Reactor::has_work`] says a cycle could do something — a
//! frame a lower id sent it in this pass counts, one a higher id sends
//! is seen by the next pass — so an instant costs the polls that are
//! due in it, not one per node. A skipped cycle is one that would have
//! changed nothing, which is as invisible to the schedule as the
//! redundant cycles the determinism tests add.
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
//! once its reactor is gone), so [`Lockstep::stats`],
//! [`Lockstep::edges`] and [`Lockstep::all_from_pieces`] cover departed
//! nodes too; a live node shadows an earlier departure under its id.

use crate::clock::{Clock, VirtualClock};
use crate::mem::{MemConfig, MemTransport};
use crate::reactor::{NodeConfig, NodeState, Reactor};
use crate::stats::{NodeCounters, NodeStats};
use crate::transport::Transport;
use bartercast_core::PrivateHistory;
use bartercast_util::units::{Bytes, PeerId};
use std::collections::BTreeMap;
use std::io;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A sorted subjective edge list `(from, to, bytes)`.
pub type Edges = Vec<(PeerId, PeerId, Bytes)>;

/// What is observable of a node, live or retired.
type Observed = (Arc<NodeCounters>, Arc<Mutex<NodeState>>);

/// Reactors driven in lockstep on one virtual clock (see module docs).
pub struct Lockstep {
    clock: Arc<VirtualClock>,
    transport: Arc<MemTransport>,
    reactors: BTreeMap<PeerId, Reactor>,
    departed: BTreeMap<PeerId, Observed>,
    polls: u64,
}

impl Lockstep {
    /// An empty driver at virtual time zero, its transport shaped by
    /// `mem` (loss, delay, fragmentation, seed).
    pub fn new(mem: MemConfig) -> Lockstep {
        let clock = Arc::new(VirtualClock::new());
        let transport = Arc::new(MemTransport::with_clock(
            mem,
            Arc::clone(&clock) as Arc<dyn Clock>,
        ));
        Lockstep {
            clock,
            transport,
            reactors: BTreeMap::new(),
            departed: BTreeMap::new(),
            polls: 0,
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
    ) -> io::Result<&mut Reactor> {
        assert!(!self.reactors.contains_key(&id), "node {id} is live");
        let reactor = Reactor::new(
            id,
            Arc::clone(&self.transport) as Arc<dyn Transport>,
            bootstrap,
            history,
            config,
            Arc::clone(&self.clock) as Arc<dyn Clock>,
        )?;
        Ok(self.reactors.entry(id).or_insert(reactor))
    }

    /// Tear down one node, keeping its final counters and state; its
    /// connections are severed so surviving peers observe the closure.
    /// No-op for an unknown id.
    pub fn retire(&mut self, id: PeerId) {
        if let Some(reactor) = self.reactors.remove(&id) {
            self.departed
                .insert(id, (reactor.counters(), reactor.state()));
            drop(reactor);
            self.transport.disconnect(id);
        }
    }

    /// One lockstep step: pump the reactors that have work (in id
    /// order) until none makes progress, then advance the virtual clock
    /// to the earliest wake any of them has scheduled. Returns `false`
    /// once no reactor has future work (which does not happen while
    /// exchanges repeat).
    pub fn step(&mut self) -> bool {
        // settle the current instant; the spin bound only guards
        // against a livelocked pump, not normal operation
        for _ in 0..10_000 {
            let mut progress = false;
            for r in self.reactors.values_mut() {
                if r.has_work() {
                    self.polls += 1;
                    progress |= r.poll_once();
                }
            }
            if !progress {
                break;
            }
        }
        let Some(at) = self.reactors.values().filter_map(Reactor::next_wake).min() else {
            return false;
        };
        // strictly forward so a deadline exactly at `now` can't stall
        // the loop
        let now = self.clock.now();
        self.clock
            .advance_to(at.max(now + Duration::from_micros(1)));
        true
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
        self.clock.elapsed()
    }

    /// The shared transport (loss counters, forced disconnects).
    pub fn transport(&self) -> &MemTransport {
        &self.transport
    }

    /// The live reactors, in id order.
    pub fn reactors(&self) -> impl Iterator<Item = &Reactor> {
        self.reactors.values()
    }

    fn observed(&self) -> BTreeMap<PeerId, Observed> {
        let mut all = self.departed.clone();
        let live = self.reactors.iter();
        all.extend(live.map(|(&id, r)| (id, (r.counters(), r.state()))));
        all
    }

    /// Per-node counter snapshots in id order (live + retired).
    pub fn stats(&self) -> BTreeMap<PeerId, NodeStats> {
        let all = self.observed().into_iter();
        all.map(|(id, (counters, _))| (id, counters.snapshot()))
            .collect()
    }

    /// Per-node subjective edge lists in id order (live + retired).
    pub fn edges(&self) -> BTreeMap<PeerId, Edges> {
        let all = self.observed().into_iter();
        all.map(|(id, (_, state))| (id, state.lock().expect("state lock").subjective_edges()))
            .collect()
    }

    /// Whether every node's private history (live + retired) was fed
    /// exclusively by piece transfers.
    pub fn all_from_pieces(&self) -> bool {
        self.observed().values().all(|(_, state)| {
            let state = state.lock().expect("state lock");
            state.history().all_from_pieces()
        })
    }
}
