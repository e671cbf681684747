//! The readiness-polled reactor: one thread, every session.
//!
//! The old runtime spent a thread per connection; the [`Reactor`]
//! replaces all of them with a single poll loop over non-blocking
//! connections:
//!
//! ```text
//!                ┌──────────────────────────────────────────┐
//!                │                 Reactor                  │
//!                │                                          │
//!   WakeQueue ──▶│ drain wakes ─▶ fire timers ─▶ accept ─▶  │
//!   (or poll(2)) │                                          │
//!                │  pump ready sessions ─▶ apply events ─▶  │
//!                │                                          │
//!                │  reap closed ─▶ sleep until next wake    │
//!                └──────────────────────────────────────────┘
//!                      ▲               │
//!            TimerWheel┘               ▼
//!          Exchange / SessionCheck   Session state machines
//!          / DialRetry               (crate::session)
//! ```
//!
//! Readiness arrives one of two ways, chosen by the transport's
//! [`ReadySource`]:
//!
//! * **Waker mode** ([`MemTransport`](crate::mem::MemTransport)) —
//!   each connection is registered with the reactor's [`WakeQueue`]
//!   under its session token; a peer's send notifies the token and the
//!   reactor pumps exactly the woken sessions, in sorted-token order.
//!   Together with the transport's split send/receive RNG streams this
//!   makes the frame schedule a pure function of the seeds.
//! * **Fd mode** ([`TcpTransport`](crate::transport::TcpTransport)) —
//!   the reactor collects raw fds and blocks in `poll(2)` via
//!   [`wait_readiness`], then pumps
//!   every session (readiness fan-in without per-fd dispatch keeps the
//!   loop simple; sessions that have nothing report no progress
//!   cheaply).
//!
//! All time-driven behaviour — the periodic exchange, handshake/idle
//! deadlines, dial-backoff retries — lives on the [`TimerWheel`], an
//! ordered timer set whose next deadline is its first key; in-flight
//! frames of a delaying transport are kept ordered by arrival the same
//! way. So [`Reactor::next_wake`] and [`Reactor::has_work`] — "when
//! must I run next" and "would a cycle do anything now" — cost the
//! same however many timers and sessions exist, and a driver pumping
//! many reactors ([`Lockstep`](crate::Lockstep)) can skip the idle
//! ones. The reactor never sleeps except in its single wait point, and
//! never blocks on I/O at all. Overload is shed at two distinct points:
//! inbound connections beyond `max_sessions` are accepted and
//! immediately dropped (`shed_accept` — the peer sees a reset rather
//! than a SYN backlog), and exchange messages to a slow peer are
//! dropped at its bounded queue (`shed_session`).

use crate::clock::Clock;
use crate::session::{Direction, Session, SessionEvent, HANDSHAKE_TIMEOUT};
use crate::stats::NodeCounters;
use crate::timer::{TimerKind, TimerWheel};
use crate::transport::{
    wait_readiness, Conn, FdInterest, Listener, ReadySource, Transport, WakeQueue, LISTENER_TOKEN,
};
use crate::wire::{self, Envelope};
use crate::workload::{Workload, WorkloadIo};
use bartercast_core::codec::BufPool;
use bartercast_core::frontier::{self, SliceRecord};
use bartercast_core::message::BarterCastConfig;
use bartercast_core::repcache::ReputationEngine;
use bartercast_core::{BarterCastMessage, DeltaMsg, Frontier, PrivateHistory, SyncPlan};
use bartercast_gossip::{PssConfig, PssNode};
use bartercast_util::units::{Bytes, PeerId, Seconds};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Neighbours sampled from the peer-sampling view per exchange tick
/// (§3.4; DESIGN.md, "Node runtime").
const EXCHANGE_FANOUT: usize = 3;

/// Random extra fraction added to each backoff delay so a rebooted
/// cluster doesn't thunder back in lockstep (DESIGN.md, "Node runtime",
/// backoff defaults).
const BACKOFF_JITTER: f64 = 0.5;

/// Inbound connections adopted per poll cycle; bounds how long one
/// accept storm can starve established sessions (DESIGN.md, "Node
/// runtime").
const ACCEPT_BURST: usize = 128;

/// Timer granularity: deadline resolution of the timer set (DESIGN.md,
/// "Node runtime").
const TICK_GRANULARITY: Duration = Duration::from_millis(1);

/// How long a graceful shutdown waits for sessions to drain and `Bye`
/// before force-closing the stragglers (DESIGN.md, "Node runtime").
const DRAIN_TIMEOUT: Duration = Duration::from_secs(1);

/// Tunables for one node. The defaults are production-flavored
/// (seconds-scale exchanges); tests and the cluster harness shrink the
/// intervals to milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct NodeConfig {
    /// How often the node pushes its history to sampled neighbors.
    pub exchange_interval: Duration,
    /// First reconnect delay after a failure; doubles per consecutive
    /// failure.
    pub backoff_base: Duration,
    /// Ceiling on the exponential backoff.
    pub backoff_max: Duration,
    /// Capacity of each session's outbound message queue; overflow is
    /// shed and counted in `shed_session`.
    pub outbound_queue: usize,
    /// Hard cap on concurrent sessions; inbound connections beyond it
    /// are accepted-then-dropped and counted in `shed_accept`.
    pub max_sessions: usize,
    /// Every Nth exchange tick pushes the full advertised slice instead
    /// of sending digests — the fallback that bounds any staleness the
    /// watermark delta cannot see (slice-membership swaps stamped in
    /// the past, lost `Digest`/`Delta` frames). `0` disables the
    /// fallback entirely (digests only).
    pub full_sync_every: u64,
    /// Top-`Nh`/`Nr` selection for outgoing BarterCast messages.
    pub bartercast: BarterCastConfig,
    /// Peer-sampling view parameters.
    pub pss: PssConfig,
    /// Seed for the node's own RNG (sampling + jitter). Combined with
    /// the node id, so a cluster built from one seed still gives every
    /// node a distinct stream.
    pub seed: u64,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            exchange_interval: Duration::from_secs(10),
            backoff_base: Duration::from_millis(100),
            backoff_max: Duration::from_secs(30),
            outbound_queue: 16,
            max_sessions: 4096,
            full_sync_every: 16,
            bartercast: BarterCastConfig::default(),
            pss: PssConfig::default(),
            seed: 0xBC,
        }
    }
}

/// The exponential-backoff delay before retry number
/// `consecutive_failures`: `base · 2^f / 2`, capped at `max`, with a
/// multiplicative jitter in `[1, 1 + jitter]` drawn from `rng`. Public
/// so the lifecycle tests can pin the cap and the jitter bounds.
pub fn backoff_delay(
    consecutive_failures: u32,
    base: Duration,
    max: Duration,
    jitter: f64,
    rng: &mut StdRng,
) -> Duration {
    let exp = consecutive_failures.min(16);
    let raw = base.as_secs_f64() * f64::from(1u32 << exp) / 2.0;
    let capped = raw.min(max.as_secs_f64());
    let jittered = capped * (1.0 + rng.gen::<f64>() * jitter);
    Duration::from_secs_f64(jittered)
}

/// Per-peer reconnect state.
#[derive(Debug, Clone, Copy, Default)]
struct Backoff {
    consecutive_failures: u32,
    not_before: Option<Instant>,
}

/// Node state the reactor owns exclusively (behind a mutex only so
/// snapshots can be taken from the outside).
pub struct NodeState {
    pub(crate) history: PrivateHistory,
    pub(crate) engine: ReputationEngine,
    /// Freshest frontier stamp each peer has reported for *its own*
    /// advertised slice (carried on its `Delta` replies) — the claim
    /// our next digest to that peer sends back.
    pub(crate) frontiers: HashMap<PeerId, Frontier>,
    /// Advertised-slice memo keyed on the history write version, so
    /// digest-heavy steady state never recomputes the §3.4 selection.
    slice_memo: Option<SliceMemo>,
}

/// The advertised slice and its frontier, valid for one history
/// version. Invalidation rides the history's existing write path: any
/// mutation bumps [`PrivateHistory::version`].
struct SliceMemo {
    version: u64,
    slice: Vec<SliceRecord>,
    frontier: Frontier,
}

impl NodeState {
    /// Build a state directly from its parts — for driving a
    /// [`Workload`] without a reactor (unit tests, tools).
    pub fn new(history: PrivateHistory, engine: ReputationEngine) -> NodeState {
        NodeState {
            history,
            engine,
            frontiers: HashMap::new(),
            slice_memo: None,
        }
    }

    /// Rebuild the advertised-slice memo if the history has been
    /// written since it was last built.
    fn refresh_slice(&mut self, config: BarterCastConfig) {
        let version = self.history.version();
        if self.slice_memo.as_ref().map(|m| m.version) == Some(version) {
            return;
        }
        let slice = frontier::advertised_slice(&self.history, config);
        let frontier = frontier::frontier_of(&slice);
        self.slice_memo = Some(SliceMemo {
            version,
            slice,
            frontier,
        });
    }

    /// The full slice as a stamped `Delta` push — what peers get on
    /// establishment and fallback ticks, so they can seed their
    /// frontier cache from the stamp.
    pub(crate) fn full_delta(&mut self, config: BarterCastConfig) -> DeltaMsg {
        self.refresh_slice(config);
        let memo = self.slice_memo.as_ref().expect("memo refreshed");
        DeltaMsg {
            sender: self.history.owner(),
            full: true,
            stamp: memo.frontier,
            records: frontier::message_from_slice(self.history.owner(), &memo.slice).records,
        }
    }

    /// Answer a digest claiming `claim`: returns our fresh frontier
    /// stamp, the sync plan, and the slice length (the baseline the
    /// suppression accounting subtracts the plan's records from).
    pub(crate) fn sync_plan(
        &mut self,
        config: BarterCastConfig,
        claim: Frontier,
    ) -> (Frontier, SyncPlan, usize) {
        self.refresh_slice(config);
        let memo = self.slice_memo.as_ref().expect("memo refreshed");
        (
            memo.frontier,
            frontier::plan_sync(&memo.slice, memo.frontier, claim),
            memo.slice.len(),
        )
    }

    /// The subjective contribution graph as a sorted edge list
    /// `(from, to, bytes)` — the convergence check compares these
    /// across nodes.
    pub fn subjective_edges(&self) -> Vec<(PeerId, PeerId, Bytes)> {
        let mut edges: Vec<_> = self.engine.graph().edges().collect();
        edges.sort_unstable();
        edges
    }

    /// Subjective reputation of `peer` as seen from `me` (Equation 1
    /// over the merged graph).
    pub fn reputation(&mut self, me: PeerId, peer: PeerId) -> f64 {
        self.engine.reputation(me, peer)
    }

    /// [`NodeState::reputation`] of every peer in `peers`, in order,
    /// from one single-source sweep — what a choke round scoring all
    /// its candidates at once should call.
    pub fn reputations_from(&mut self, me: PeerId, peers: &[PeerId]) -> Vec<f64> {
        self.engine.reputations_from(me, peers)
    }

    /// Read access to the node's private transfer history.
    pub fn history(&self) -> &PrivateHistory {
        &self.history
    }

    /// Read access to the reputation engine (graph queries; use
    /// [`NodeState::reputation`] for Equation-1 evaluations).
    pub fn engine(&self) -> &ReputationEngine {
        &self.engine
    }

    /// Account one completed piece *upload* of `amount` bytes to
    /// `peer`: the private history gains the bytes (with piece
    /// provenance), and the subjective graph's `me → peer` edge is
    /// max-merged to the new private total so the next choke round
    /// sees it immediately.
    pub fn record_piece_upload(&mut self, peer: PeerId, amount: Bytes, now: Seconds) {
        self.history.record_piece_upload(peer, amount, now);
        let me = self.history.owner();
        if let Some(totals) = self.history.get(peer) {
            self.engine.graph_mut().merge_record(me, peer, totals.up);
        }
    }

    /// Account one completed piece *download* of `amount` bytes from
    /// `peer` — the mirror of [`NodeState::record_piece_upload`].
    pub fn record_piece_download(&mut self, peer: PeerId, amount: Bytes, now: Seconds) {
        self.history.record_piece_download(peer, amount, now);
        let me = self.history.owner();
        if let Some(totals) = self.history.get(peer) {
            self.engine.graph_mut().merge_record(peer, me, totals.down);
        }
    }
}

/// Sessions whose connection holds a frame that becomes readable at a
/// future instant (mem-transport delay injection): the reactor must
/// wake itself then, because no external notify will. Indexed by token
/// (each pump replaces or clears its session's entry) and ordered by
/// instant (the earliest is a wake, the due prefix moves to `ready`).
#[derive(Default)]
struct DelayedFrames {
    at: BTreeMap<u64, Instant>,
    order: BTreeSet<(Instant, u64)>,
}

impl DelayedFrames {
    fn insert(&mut self, token: u64, at: Instant) {
        if let Some(old) = self.at.insert(token, at) {
            if old == at {
                return;
            }
            self.order.remove(&(old, token));
        }
        self.order.insert((at, token));
    }

    fn remove(&mut self, token: u64) {
        if let Some(at) = self.at.remove(&token) {
            self.order.remove(&(at, token));
        }
    }

    fn earliest(&self) -> Option<Instant> {
        self.order.first().map(|&(at, _)| at)
    }

    /// Take one token whose frame is readable by `now`, if any.
    fn pop_due(&mut self, now: Instant) -> Option<u64> {
        let &(at, token) = self.order.first()?;
        if at > now {
            return None;
        }
        self.order.pop_first();
        self.at.remove(&token);
        Some(token)
    }
}

/// One node's entire runtime, as pollable state. [`Node`](crate::Node)
/// runs it on a dedicated thread; [`Lockstep`](crate::Lockstep) pumps
/// several of them on one thread over virtual time.
pub struct Reactor {
    id: PeerId,
    transport: Arc<dyn Transport>,
    listener: Box<dyn Listener>,
    clock: Arc<dyn Clock>,
    wake: Arc<WakeQueue>,
    /// Sorted so waker-mode pump order is deterministic.
    sessions: BTreeMap<u64, Session>,
    next_token: u64,
    /// Established sessions by remote peer — the exchange tick's
    /// "reuse a live session" lookup.
    by_peer: HashMap<PeerId, u64>,
    wheel: TimerWheel,
    /// Sessions to pump at a future instant (see [`DelayedFrames`]).
    delayed: DelayedFrames,
    /// Tokens to pump on the next cycle.
    ready: BTreeSet<u64>,
    pss: PssNode,
    rng: StdRng,
    backoff: HashMap<PeerId, Backoff>,
    ever_connected: HashSet<PeerId>,
    state: Arc<Mutex<NodeState>>,
    counters: Arc<NodeCounters>,
    config: NodeConfig,
    /// Waker mode: pump exactly the woken tokens. Fd mode: pump all.
    targeted: bool,
    draining: bool,
    drain_deadline: Option<Instant>,
    /// The attached transfer workload, if any (see [`Workload`]).
    workload: Option<Box<dyn Workload>>,
    /// Choke-round period for the attached workload.
    choke_interval: Duration,
    /// Clock instant at construction; workload callbacks see time as
    /// whole seconds since this.
    boot: Instant,
    /// Reusable frame-encoding buffers: steady-state exchange traffic
    /// allocates nothing fresh.
    pool: BufPool,
    /// Monotone exchange-tick counter driving the full-sync fallback
    /// cadence and the per-peer digest backoff.
    tick_no: u64,
    /// Encode-once memo of the full-slice frame, keyed on the history
    /// version; `None` bytes mean the slice is empty.
    full_cache: Option<FullCache>,
    /// Last tick a digest went to each peer.
    digest_tick: HashMap<PeerId, u64>,
    /// Consecutive digests to a peer without a `Delta` reply — the
    /// in-sync streak capping the digest cadence at every other tick.
    sync_streak: HashMap<PeerId, u32>,
    /// History version last pushed in full to each peer. Survives the
    /// session (it is knowledge about the *peer*, not the connection):
    /// a reconnect whose slice has not changed opens with a digest
    /// instead of re-pushing records the peer already holds.
    pushed: HashMap<PeerId, u64>,
}

/// The full slice of one history version, encoded once as a stamped
/// full `Delta` and fanned out as shared bytes to every session that
/// needs it (the stamp seeds the receiver's frontier cache, so the
/// digest round that follows concludes in-sync).
struct FullCache {
    version: u64,
    delta_bytes: Option<(Arc<[u8]>, u32)>,
}

impl Reactor {
    /// Bind the listener and assemble a reactor. Nothing runs until
    /// [`Reactor::poll_once`] (or [`Reactor::run`]) is called; the
    /// first exchange tick is scheduled for "now", matching the old
    /// runtime's fire-immediately behaviour.
    pub fn new(
        id: PeerId,
        transport: Arc<dyn Transport>,
        bootstrap: Vec<PeerId>,
        history: PrivateHistory,
        config: NodeConfig,
        clock: Arc<dyn Clock>,
    ) -> io::Result<Reactor> {
        let mut listener = transport.listen(id)?;
        let wake = Arc::new(WakeQueue::new());
        let targeted = matches!(listener.ready_source(), ReadySource::Waker);
        if targeted {
            listener.register_waker(&wake, LISTENER_TOKEN);
        }
        let now = clock.now();
        let mut wheel = TimerWheel::new(now, TICK_GRANULARITY);
        wheel.schedule(now, TimerKind::Exchange);
        let engine = ReputationEngine::from_private(&history);
        let mut pss = PssNode::new(id, config.pss);
        pss.bootstrap(bootstrap);
        Ok(Reactor {
            id,
            transport,
            listener,
            clock,
            wake,
            sessions: BTreeMap::new(),
            next_token: 0,
            by_peer: HashMap::new(),
            wheel,
            delayed: DelayedFrames::default(),
            ready: BTreeSet::new(),
            pss,
            rng: StdRng::seed_from_u64(config.seed ^ (((id.0 as u64) << 32) | 0xA5A5)),
            backoff: HashMap::new(),
            ever_connected: HashSet::new(),
            state: Arc::new(Mutex::new(NodeState::new(history, engine))),
            counters: Arc::new(NodeCounters::default()),
            config,
            targeted,
            draining: false,
            drain_deadline: None,
            workload: None,
            choke_interval: Duration::from_secs(10),
            boot: now,
            pool: BufPool::new(),
            tick_no: 0,
            full_cache: None,
            digest_tick: HashMap::new(),
            sync_streak: HashMap::new(),
            pushed: HashMap::new(),
        })
    }

    /// Attach a transfer workload: its choke round fires every
    /// `choke_interval` starting one interval from now, and its
    /// `on_start` hook runs immediately (dialing initial targets).
    /// Call before the first [`Reactor::poll_once`].
    pub fn attach_workload(&mut self, workload: Box<dyn Workload>, choke_interval: Duration) {
        assert!(choke_interval > Duration::ZERO);
        self.workload = Some(workload);
        self.choke_interval = choke_interval;
        let now = self.clock.now();
        self.wheel
            .schedule(now + choke_interval, TimerKind::ChokeRound);
        self.with_workload(now, |w, secs, state, io| w.on_start(secs, state, io));
    }

    /// Run `f` against the attached workload (if any) with the node
    /// state locked, then apply the batched [`WorkloadIo`].
    fn with_workload<F>(&mut self, now: Instant, f: F)
    where
        F: FnOnce(&mut dyn Workload, Seconds, &mut NodeState, &mut WorkloadIo),
    {
        let Some(mut workload) = self.workload.take() else {
            return;
        };
        let mut io = WorkloadIo::default();
        let secs = Seconds(now.saturating_duration_since(self.boot).as_secs());
        {
            let mut state = self.state.lock().expect("state lock");
            f(workload.as_mut(), secs, &mut state, &mut io);
        }
        self.workload = Some(workload);
        self.deliver_io(io, now);
    }

    /// Apply a workload's batched output: frames onto live sessions
    /// (dropped, not queued, for peers without one), dials for missing
    /// peers through the normal backoff machinery.
    fn deliver_io(&mut self, io: WorkloadIo, now: Instant) {
        for (peer, frame) in io.frames {
            if let Some(&token) = self.by_peer.get(&peer) {
                if let Some(session) = self.sessions.get_mut(&token) {
                    session.enqueue_envelope(
                        &Envelope::Swarm(frame),
                        &mut self.pool,
                        self.config.outbound_queue,
                        &self.counters,
                    );
                    self.ready.insert(token);
                }
            }
        }
        for peer in io.dials {
            if peer != self.id && !self.by_peer.contains_key(&peer) && !self.draining {
                self.dial(peer, now);
            }
        }
    }

    /// Shared handle to the operational counters.
    pub fn counters(&self) -> Arc<NodeCounters> {
        Arc::clone(&self.counters)
    }

    /// Shared handle to the node state (history + reputation engine).
    pub fn state(&self) -> Arc<Mutex<NodeState>> {
        Arc::clone(&self.state)
    }

    /// The wake queue — external threads kick it to interrupt
    /// [`Reactor::wait`] (e.g. for shutdown).
    pub fn wake_handle(&self) -> Arc<WakeQueue> {
        Arc::clone(&self.wake)
    }

    /// One full cycle: wakes → timers → delayed frames → accepts →
    /// pumps → events → reaping. Returns whether any progress was made,
    /// so callers know when to park in [`Reactor::wait`]. Time is read
    /// from the clock exactly once, at entry — under a virtual clock
    /// the whole cycle is a pure function of (state, seeds, now).
    pub fn poll_once(&mut self) -> bool {
        let now = self.clock.now();
        let mut events: Vec<SessionEvent> = Vec::new();
        let mut progress = false;

        // 1. external readiness
        for token in self.wake.drain() {
            self.ready.insert(token);
        }

        // 2. due timers
        for kind in self.wheel.pop_due(now) {
            match kind {
                TimerKind::Exchange => {
                    if !self.draining {
                        self.wheel
                            .schedule(now + self.config.exchange_interval, TimerKind::Exchange);
                        self.exchange_tick(now);
                        progress = true;
                    }
                }
                TimerKind::SessionCheck { token } => {
                    if let Some(session) = self.sessions.get_mut(&token) {
                        match session.check_deadlines(now, &self.counters, &mut events) {
                            Some(next) => {
                                self.wheel.schedule(next, TimerKind::SessionCheck { token })
                            }
                            None => progress = true, // expired
                        }
                    }
                }
                TimerKind::DialRetry { peer } => {
                    if !self.draining && !self.by_peer.contains_key(&peer) {
                        self.dial(peer, now);
                        progress = true;
                    }
                }
                TimerKind::ChokeRound => {
                    if !self.draining && self.workload.is_some() {
                        self.wheel
                            .schedule(now + self.choke_interval, TimerKind::ChokeRound);
                        self.with_workload(now, |w, secs, state, io| {
                            w.on_choke_round(secs, state, io)
                        });
                        progress = true;
                    }
                }
            }
        }

        // 3. in-flight frames that became readable
        while let Some(token) = self.delayed.pop_due(now) {
            self.ready.insert(token);
        }

        // 4. inbound connections, up to the accept burst
        let mut accepted = 0;
        while accepted < ACCEPT_BURST {
            match self.listener.try_accept() {
                Ok(Some(conn)) => {
                    accepted += 1;
                    if self.draining || self.sessions.len() >= self.config.max_sessions {
                        // accepted-then-dropped: the peer sees an
                        // immediate close, not a hanging backlog
                        NodeCounters::inc(&self.counters.shed_accept);
                        drop(conn);
                    } else {
                        self.adopt(conn, Direction::Responder, now);
                    }
                    progress = true;
                }
                Ok(None) => break,
                Err(_) => break, // listener died; keep serving sessions
            }
        }
        if accepted == ACCEPT_BURST {
            // burst limit hit with possibly more queued: make sure the
            // next cycle services the listener even without a new wake
            self.ready.insert(LISTENER_TOKEN);
        } else {
            self.ready.remove(&LISTENER_TOKEN);
        }

        // 5. pump sessions
        let tokens: Vec<u64> = if self.targeted {
            self.ready
                .iter()
                .copied()
                .filter(|t| *t != LISTENER_TOKEN)
                .collect()
        } else {
            self.sessions.keys().copied().collect()
        };
        self.ready.retain(|t| *t == LISTENER_TOKEN);
        for token in tokens {
            if let Some(session) = self.sessions.get_mut(&token) {
                if session.pump(self.id, now, &mut self.pool, &self.counters, &mut events) {
                    progress = true;
                }
                // a frame still in simulated flight needs a self-wake
                match session.conn_mut().next_ready_at() {
                    Some(at) if at > now => self.delayed.insert(token, at),
                    _ => self.delayed.remove(token),
                }
            }
        }

        // 6. apply events, then reap the dead
        if !events.is_empty() {
            progress = true;
            self.apply_events(events, now);
        }
        let closed: Vec<u64> = self
            .sessions
            .iter()
            .filter(|(_, s)| s.is_closed())
            .map(|(t, _)| *t)
            .collect();
        for token in closed {
            self.reap(token);
        }

        progress
    }

    /// The earliest instant at which the reactor has scheduled work:
    /// the nearest timer or the nearest delayed in-flight frame.
    pub fn next_wake(&self) -> Option<Instant> {
        let timer = self.wheel.next_deadline();
        let frame = self.delayed.earliest();
        match (timer, frame) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        }
    }

    /// Whether [`Reactor::poll_once`] could do anything at this
    /// instant: a wake or a ready token is pending, a timer is due, or
    /// a delayed frame has landed. Every other part of a cycle
    /// (accepts, pumps, events, reaping) is reached only through one of
    /// those, so a cycle skipped while this is `false` would have been
    /// a no-op. It may say `true` for a cycle that then finds nothing
    /// (fd mode always does: readiness there is only learnt by
    /// pumping), never the reverse.
    pub fn has_work(&self) -> bool {
        if !self.targeted || !self.ready.is_empty() || !self.wake.is_empty() {
            return true;
        }
        let now = self.clock.now();
        self.wheel.has_due(now) || self.delayed.earliest().is_some_and(|at| at <= now)
    }

    /// Park until something happens: a wake notification (waker mode),
    /// fd readiness (fd mode), or the next scheduled deadline.
    pub fn wait(&mut self) {
        let now = self.clock.now();
        let until = self
            .next_wake()
            .map(|t| t.saturating_duration_since(now))
            .unwrap_or(Duration::from_millis(50))
            .min(Duration::from_millis(50));
        if self.targeted {
            for token in self.wake.wait(until) {
                self.ready.insert(token);
            }
        } else {
            let mut set = Vec::with_capacity(self.sessions.len() + 1);
            if let ReadySource::Fd(fd) = self.listener.ready_source() {
                set.push(FdInterest { fd, write: false });
            }
            for session in self.sessions.values_mut() {
                let write = session.wants_write();
                if let ReadySource::Fd(fd) = session.conn_mut().ready_source() {
                    set.push(FdInterest { fd, write });
                }
            }
            wait_readiness(&set, until.min(Duration::from_millis(10)));
        }
    }

    /// Drive the reactor until `shutdown` is flagged, then drain
    /// gracefully: every session gets a `Bye` and up to
    /// `DRAIN_TIMEOUT` to flush before being force-closed.
    pub fn run(&mut self, shutdown: &AtomicBool) {
        loop {
            if shutdown.load(Ordering::Relaxed) && !self.draining {
                self.begin_shutdown();
            }
            let progress = self.poll_once();
            if self.draining {
                if self.sessions.is_empty() {
                    return;
                }
                if let Some(deadline) = self.drain_deadline {
                    if self.clock.now() >= deadline {
                        self.force_close_all();
                        return;
                    }
                }
            }
            if !progress {
                self.wait();
            }
        }
    }

    /// Flip into draining mode: ask every session for a graceful
    /// teardown and arm the force-close deadline.
    pub fn begin_shutdown(&mut self) {
        self.draining = true;
        self.drain_deadline = Some(self.clock.now() + DRAIN_TIMEOUT);
        let tokens: Vec<u64> = self.sessions.keys().copied().collect();
        for token in tokens {
            if let Some(session) = self.sessions.get_mut(&token) {
                session.begin_drain();
            }
            self.ready.insert(token);
        }
    }

    fn force_close_all(&mut self) {
        let mut events = Vec::new();
        let tokens: Vec<u64> = self.sessions.keys().copied().collect();
        for token in tokens {
            if let Some(session) = self.sessions.get_mut(&token) {
                session.force_close(&self.counters, &mut events);
            }
            self.reap(token);
        }
        // events are only Closed notifications for sessions already
        // reaped; nothing else to apply
    }

    /// Take ownership of a connection as a new session: assign a token,
    /// register its waker, count it live, and schedule its handshake
    /// deadline.
    fn adopt(&mut self, mut conn: Box<dyn Conn>, direction: Direction, now: Instant) {
        let token = self.next_token;
        self.next_token += 1;
        if self.targeted {
            conn.register_waker(&self.wake, token);
        }
        let mut session = Session::new(token, conn, direction, now);
        if self.draining {
            session.begin_drain();
        }
        self.sessions.insert(token, session);
        self.counters.session_adopted();
        self.wheel
            .schedule(now + HANDSHAKE_TIMEOUT, TimerKind::SessionCheck { token });
        self.ready.insert(token);
    }

    fn reap(&mut self, token: u64) {
        self.delayed.remove(token);
        self.ready.remove(&token);
        let Some(session) = self.sessions.remove(&token) else {
            return;
        };
        self.counters.session_reaped();
        if let Some(peer) = session.remote() {
            if self.by_peer.get(&peer) == Some(&token) {
                self.by_peer.remove(&peer);
                self.digest_tick.remove(&peer);
                self.sync_streak.remove(&peer);
            }
        }
    }

    /// Dial `target` (respecting backoff); the handshake's
    /// `Established` event opens the first anti-entropy round.
    fn dial(&mut self, target: PeerId, now: Instant) {
        let entry = self.backoff.entry(target).or_default();
        if let Some(not_before) = entry.not_before {
            if now < not_before {
                return;
            }
        }
        if self.ever_connected.contains(&target) {
            NodeCounters::inc(&self.counters.reconnects);
        }
        match self.transport.connect(self.id, target) {
            Ok(conn) => {
                // success of the *dial*; the handshake may still fail,
                // in which case Closed{clean: false} re-arms backoff
                self.backoff.entry(target).or_default().not_before = None;
                self.adopt(conn, Direction::Initiator, now);
            }
            Err(_) => {
                NodeCounters::inc(&self.counters.sessions_failed);
                self.arm_backoff(target, now);
            }
        }
    }

    /// Bump the failure count, compute the next delay, and schedule the
    /// retry timer.
    fn arm_backoff(&mut self, peer: PeerId, now: Instant) {
        let entry = self.backoff.entry(peer).or_default();
        entry.consecutive_failures = entry.consecutive_failures.saturating_add(1);
        let delay = backoff_delay(
            entry.consecutive_failures,
            self.config.backoff_base,
            self.config.backoff_max,
            BACKOFF_JITTER,
            &mut self.rng,
        );
        let retry_at = now + delay;
        entry.not_before = Some(retry_at);
        if !self.draining {
            self.wheel.schedule(retry_at, TimerKind::DialRetry { peer });
        }
    }

    /// One exchange tick: sample `EXCHANGE_FANOUT` neighbors and run one
    /// anti-entropy round with each — a digest (unless the backoff says
    /// the peer answered nothing lately), the encode-once full slice on
    /// fallback ticks, a dial when no session exists yet.
    fn exchange_tick(&mut self, now: Instant) {
        self.pss.tick();
        self.tick_no += 1;
        if self.full_delta_bytes().is_none() {
            return; // nothing to gossip yet
        }
        let full_tick = self.config.full_sync_every > 0
            && self.tick_no.is_multiple_of(self.config.full_sync_every);
        let targets = self.pss.sample_many(&mut self.rng, EXCHANGE_FANOUT);
        for target in targets {
            if target == self.id {
                continue;
            }
            match self.by_peer.get(&target).copied() {
                Some(token) => self.sync_with(token, target, full_tick),
                None => self.dial(target, now),
            }
        }
    }

    /// Run one sync round over an established session: the shared
    /// stamped full `Delta` when `full`, a digest otherwise.
    fn sync_with(&mut self, token: u64, target: PeerId, full: bool) {
        if !self
            .sessions
            .get(&token)
            .is_some_and(Session::is_established)
        {
            return;
        }
        let cap = self.config.outbound_queue;
        if full {
            if let Some((bytes, records)) = self.full_delta_bytes() {
                let session = self.sessions.get_mut(&token).expect("session exists");
                if session.enqueue_shared(bytes, records, cap, &self.counters) {
                    NodeCounters::inc(&self.counters.full_syncs);
                    if let Some(cache) = &self.full_cache {
                        self.pushed.insert(target, cache.version);
                    }
                    self.ready.insert(token);
                }
            }
            return;
        }
        if !self.should_digest(target) {
            return;
        }
        let claim = {
            let st = self.state.lock().expect("state lock");
            st.frontiers.get(&target).copied().unwrap_or_default()
        };
        let session = self.sessions.get_mut(&token).expect("session exists");
        let digest = Envelope::Digest {
            sender: self.id,
            claim,
        };
        if session.enqueue_envelope(&digest, &mut self.pool, cap, &self.counters) {
            self.digest_tick.insert(target, self.tick_no);
            let streak = self.sync_streak.entry(target).or_insert(0);
            *streak = streak.saturating_add(1);
            self.ready.insert(token);
        }
    }

    /// Digest backoff: at most one digest per peer per tick, and a peer
    /// that answered nothing twice in a row (already in sync) is probed
    /// every other tick instead of every tick. Any `Delta` reply resets
    /// the streak so a peer with news is probed eagerly again. The
    /// cadence is kept this tight on purpose: a digest costs ~30 bytes,
    /// and probing lazily would delay reputation propagation — the
    /// savings live in the suppressed record payloads, not here.
    fn should_digest(&self, peer: PeerId) -> bool {
        let last = match self.digest_tick.get(&peer) {
            Some(&t) => t,
            None => return true,
        };
        if last == self.tick_no {
            return false;
        }
        let streak = self.sync_streak.get(&peer).copied().unwrap_or(0);
        streak < 2 || self.tick_no - last >= 2
    }

    /// The stamped full `Delta` frame for the current history, encoded
    /// once per history version and shared (`Arc`) across every session
    /// it fans out to. `None` while the history is empty.
    fn full_delta_bytes(&mut self) -> Option<(Arc<[u8]>, u32)> {
        let mut st = self.state.lock().expect("state lock");
        let version = st.history.version();
        if self.full_cache.as_ref().map(|c| c.version) != Some(version) {
            let delta = st.full_delta(self.config.bartercast);
            let records = delta.records.len() as u32;
            let delta_bytes = (records > 0).then(|| {
                let frame = wire::encode_envelope(&Envelope::Delta(delta));
                (Arc::from(&frame[..]), records)
            });
            self.full_cache = Some(FullCache {
                version,
                delta_bytes,
            });
        }
        self.full_cache.as_ref().and_then(|c| c.delta_bytes.clone())
    }

    fn apply_events(&mut self, events: Vec<SessionEvent>, now: Instant) {
        for event in events {
            match event {
                SessionEvent::Established { token, remote, .. } => {
                    self.by_peer.entry(remote).or_insert(token);
                    self.backoff.remove(&remote);
                    self.digest_tick.remove(&remote);
                    self.sync_streak.remove(&remote);
                    if !self.ever_connected.insert(remote) {
                        NodeCounters::inc(&self.counters.reconnects);
                    }
                    self.pss.bootstrap([remote]);
                    // notify the workload only for the session that
                    // became the peer's primary (duplicate dials race;
                    // the loser idles out without a notification)
                    if self.by_peer.get(&remote) == Some(&token) {
                        // both sides open anti-entropy as soon as the
                        // handshake lands — this replaces the old
                        // dial-time message preload. First contact is a
                        // full push from each direction (the peer holds
                        // nothing of ours to dedup against, and the
                        // stamp seeds the frontier the digest rounds
                        // then confirm); a reconnect whose slice was
                        // already pushed at this version opens with a
                        // digest instead, pulling any news without
                        // re-sending records the peer has.
                        if !self.draining {
                            let version = {
                                let st = self.state.lock().expect("state lock");
                                st.history.version()
                            };
                            let fresh = self.pushed.get(&remote) != Some(&version);
                            self.sync_with(token, remote, fresh);
                        }
                        self.with_workload(now, |w, secs, state, io| {
                            w.on_established(remote, secs, state, io)
                        });
                    }
                }
                SessionEvent::Records { from, msg, .. } => {
                    let mut st = self.state.lock().expect("state lock");
                    let changed = st.engine.absorb_message(&msg);
                    if changed == 0 {
                        NodeCounters::add(&self.counters.records_duplicate, msg.len() as u64);
                    }
                    let _ = from; // history stays private: only direct transfers enter it
                }
                SessionEvent::Digest { token, from, claim } => {
                    let (ours, plan, slice_len, version) = {
                        let mut st = self.state.lock().expect("state lock");
                        let (ours, plan, slice_len) = st.sync_plan(self.config.bartercast, claim);
                        (ours, plan, slice_len, st.history.version())
                    };
                    // in sync, or about to be sent the rest: either
                    // way the peer holds our slice at this version, so
                    // a later reconnect opens with a digest instead of
                    // a redundant full push. Optimistic under loss —
                    // the digest round repairs a dropped reply.
                    self.pushed.insert(from, version);
                    match plan {
                        SyncPlan::InSync => {
                            // the whole slice stayed off the wire
                            NodeCounters::add(&self.counters.records_suppressed, slice_len as u64);
                        }
                        SyncPlan::Send { full, records } => {
                            let suppressed = slice_len.saturating_sub(records.len());
                            NodeCounters::add(&self.counters.records_suppressed, suppressed as u64);
                            if full {
                                NodeCounters::inc(&self.counters.full_syncs);
                            }
                            let reply = Envelope::Delta(DeltaMsg {
                                sender: self.id,
                                full,
                                stamp: ours,
                                records,
                            });
                            let cap = self.config.outbound_queue;
                            if let Some(session) = self.sessions.get_mut(&token) {
                                if session.enqueue_envelope(
                                    &reply,
                                    &mut self.pool,
                                    cap,
                                    &self.counters,
                                ) {
                                    self.ready.insert(token);
                                }
                            }
                        }
                    }
                }
                SessionEvent::Delta { from, msg, .. } => {
                    let n = msg.records.len() as u64;
                    {
                        let mut st = self.state.lock().expect("state lock");
                        if n > 0 {
                            let exchange = BarterCastMessage {
                                sender: msg.sender,
                                records: msg.records,
                            };
                            let changed = st.engine.absorb_message(&exchange);
                            if changed == 0 {
                                NodeCounters::add(&self.counters.records_duplicate, n);
                            }
                        }
                        // the peer's fresh stamp is our next claim
                        st.frontiers.insert(from, msg.stamp);
                    }
                    // news arrived: probe this peer eagerly again
                    self.sync_streak.remove(&from);
                }
                SessionEvent::Frame { token, from, frame } => {
                    if self.by_peer.get(&from) == Some(&token) {
                        self.with_workload(now, |w, secs, state, io| {
                            w.on_frame(from, frame, secs, state, io)
                        });
                    }
                }
                SessionEvent::Closed { token, clean } => {
                    let remote = self.sessions.get(&token).and_then(|s| s.remote());
                    if let (false, Some(peer)) = (clean, remote) {
                        if !self.draining {
                            self.arm_backoff(peer, now);
                        }
                    }
                    if let Some(peer) = remote {
                        if self.by_peer.get(&peer) == Some(&token) {
                            self.with_workload(now, |w, secs, state, io| {
                                w.on_closed(peer, secs, state, io)
                            });
                        }
                    }
                    // reaping happens at the end of poll_once
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockstep::Lockstep;
    use crate::mem::{MemConfig, MemTransport};
    use bartercast_util::units::Seconds;

    fn fast_config(seed: u64) -> NodeConfig {
        NodeConfig {
            exchange_interval: Duration::from_millis(20),
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(200),
            seed,
            ..NodeConfig::default()
        }
    }

    fn history_with_upload(owner: u32, peer: u32, mb: u64) -> PrivateHistory {
        let mut h = PrivateHistory::new(PeerId(owner));
        h.record_upload(PeerId(peer), Bytes::from_mb(mb), Seconds(1));
        h
    }

    #[test]
    fn backoff_delay_caps_at_max_with_bounded_jitter() {
        let base = Duration::from_millis(100);
        let max = Duration::from_secs(30);
        let mut rng = StdRng::seed_from_u64(1);
        for failures in [20u32, 40, u32::MAX] {
            let d = backoff_delay(failures, base, max, 0.5, &mut rng);
            assert!(d >= max, "capped delay must be at least max, got {d:?}");
            assert!(
                d <= max.mul_f64(1.5),
                "jitter must stay within +50%, got {d:?}"
            );
        }
    }

    #[test]
    fn backoff_delay_grows_exponentially_before_the_cap() {
        let base = Duration::from_millis(100);
        let max = Duration::from_secs(30);
        // jitter 0 isolates the deterministic part
        let mut rng = StdRng::seed_from_u64(1);
        let d1 = backoff_delay(1, base, max, 0.0, &mut rng);
        let d2 = backoff_delay(2, base, max, 0.0, &mut rng);
        let d3 = backoff_delay(3, base, max, 0.0, &mut rng);
        assert_eq!(d1, Duration::from_millis(100));
        assert_eq!(d2, Duration::from_millis(200));
        assert_eq!(d3, Duration::from_millis(400));
    }

    /// Two reactors pumped in lockstep on virtual time converge to each
    /// other's records without any thread ever sleeping.
    #[test]
    fn two_reactors_converge_on_virtual_time() {
        let mut lockstep = Lockstep::new(MemConfig::default());
        for (id, peer, history, seed) in [
            (PeerId(0), PeerId(1), history_with_upload(0, 1, 64), 1),
            (PeerId(1), PeerId(0), history_with_upload(1, 2, 32), 2),
        ] {
            lockstep
                .spawn(id, vec![peer], history, fast_config(seed))
                .unwrap();
        }
        // both must hold 0→1 (a's upload) and 1→2 (b's upload)
        let converged = lockstep.run_until(
            |l| {
                let edges = l.edges();
                edges[&PeerId(0)].len() >= 2 && edges[&PeerId(0)] == edges[&PeerId(1)]
            },
            Duration::from_secs(10),
        );
        assert!(converged, "no convergence: {:?}", lockstep.stats());
    }

    /// Inbound connections beyond `max_sessions` are shed at accept and
    /// counted, while existing sessions keep working.
    #[test]
    fn sessions_beyond_the_cap_are_shed_at_accept() {
        let transport = Arc::new(MemTransport::new(MemConfig::default()));
        let clock: Arc<dyn Clock> = Arc::new(crate::clock::SystemClock);
        let mut r = Reactor::new(
            PeerId(1),
            Arc::clone(&transport) as Arc<dyn Transport>,
            vec![],
            PrivateHistory::new(PeerId(1)),
            NodeConfig {
                max_sessions: 2,
                ..fast_config(9)
            },
            clock,
        )
        .unwrap();
        let mut dialers: Vec<Box<dyn Conn>> = (0..5)
            .map(|i| transport.connect(PeerId(10 + i), PeerId(1)).unwrap())
            .collect();
        r.poll_once();
        let stats = r.counters.snapshot();
        assert_eq!(stats.sessions_live, 2, "cap must hold");
        assert_eq!(stats.shed_accept, 3);
        assert_eq!(stats.sessions_peak, 2);
        // shed dialers observe EOF; adopted ones do not
        let mut eofs = 0;
        let deadline = Instant::now() + Duration::from_secs(2);
        while eofs < 3 && Instant::now() < deadline {
            eofs = 0;
            for d in dialers.iter_mut() {
                let mut buf = [0u8; 64];
                loop {
                    match d.try_recv(&mut buf) {
                        Ok(Some(0)) | Err(_) => {
                            eofs += 1;
                            break;
                        }
                        Ok(Some(_)) => continue,
                        Ok(None) => break,
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(eofs, 3, "exactly the shed dialers see EOF");
    }
}
