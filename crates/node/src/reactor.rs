//! The readiness-polled reactor: one node's every session, one poll
//! loop over non-blocking connections:
//!
//! ```text
//!                ┌──────────────────────────────────────────┐
//!                │                 Reactor                  │
//!                │                                          │
//!   WakeQueue ──▶│ drain wakes ─▶ fire timers ─▶ accept ─▶  │
//!                │                                          │
//!                │  pump ready sessions ─▶ apply events ─▶  │
//!                │                                          │
//!                │  reap closed                             │
//!                └──────────────────────────────────────────┘
//!                      ▲               │
//!            TimerWheel┘               ▼
//!          Exchange / SessionCheck   Session state machines
//!          / DialRetry               (crate::session)
//! ```
//!
//! Readiness arrives one way: each connection is registered with the
//! reactor's [`WakeQueue`] under its session token; a peer's send
//! notifies the token and the reactor pumps exactly the woken sessions,
//! in sorted-token order. Together with [`MemTransport`]'s split
//! send/receive RNG streams this makes the frame schedule a pure
//! function of the seeds.
//!
//! All time-driven behaviour — the periodic exchange, handshake/idle
//! deadlines, dial-backoff retries — lives on the [`TimerWheel`], an
//! ordered timer set whose next deadline is its first key; in-flight
//! frames of a delaying transport are kept ordered by arrival the same
//! way. So [`Reactor::next_wake`] and [`Reactor::has_work`] — "when
//! must I run next" and "would a cycle do anything now" — cost the
//! same however many timers and sessions exist, and a driver pumping
//! many reactors ([`Lockstep`](crate::Lockstep)) can skip the idle
//! ones. A cycle likewise touches only what its own inputs name: it
//! reaps exactly the sessions whose `Closed` events it produced, and
//! tries the listener only when [`LISTENER_TOKEN`] was woken (every
//! queued connection notifies it; a full accept burst re-arms it). The
//! reactor never sleeps and never blocks on I/O; the driver decides
//! when to poll it. Overload is shed at two distinct points:
//! inbound connections beyond `max_sessions` are accepted and
//! immediately dropped (`shed_accept` — the peer sees a reset rather
//! than a SYN backlog), and exchange messages to a slow peer are
//! dropped at its bounded queue (`shed_session`).

use crate::mem::{MemConn, MemListener, MemTransport, WakeQueue, LISTENER_TOKEN};
use crate::session::{Session, SessionEvent, HANDSHAKE_TIMEOUT};
use crate::stats::NodeStats;
use crate::timer::{TimerKind, TimerWheel};
use crate::wire::{self, Envelope};
use crate::workload::{Workload, WorkloadIo};
use bartercast_core::codec::BufPool;
use bartercast_core::frontier;
use bartercast_core::message::BarterCastConfig;
use bartercast_core::repcache::ReputationEngine;
use bartercast_core::{DeltaMsg, PeerState, PrivateHistory, SyncPlan};
use bartercast_gossip::{PssConfig, PssNode};
use bartercast_util::units::{PeerId, Seconds};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::rc::Rc;
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
/// multiplicative jitter in `[1, 1 + jitter]` drawn from `rng`.
fn backoff_delay(
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

/// What the reactor knows about one remote peer. An entry is never
/// removed: `Established` clears the failure count, the redial instant
/// and the digest cadence; reaping the primary session clears the
/// session and the cadence; "met before" and the last full push
/// survive both.
#[derive(Debug, Default)]
struct Remote {
    /// The primary established session, which exchange ticks reuse.
    session: Option<u64>,
    /// Consecutive failed dials and handshakes.
    failures: u32,
    /// No dial before this instant; a dial that connects clears it too.
    not_before: Option<Instant>,
    /// A session was established before, so a dial is a reconnect.
    met: bool,
    /// Last exchange tick a digest went to the peer.
    digest_tick: Option<u64>,
    /// Consecutive digests without a `Delta` reply: the in-sync streak.
    sync_streak: u32,
    /// History version last pushed in full. Knowledge about the *peer*,
    /// not the connection: a reconnect whose slice has not changed
    /// opens with a digest instead of re-pushing records it holds.
    pushed: Option<u64>,
}

impl Remote {
    /// Digest backoff: at most one digest per peer per tick, and a peer
    /// that answered nothing twice in a row (already in sync) is probed
    /// every other tick instead of every tick. Any `Delta` reply resets
    /// the streak so a peer with news is probed eagerly again. The
    /// cadence is kept this tight on purpose: a digest costs ~30 bytes,
    /// and probing lazily would delay reputation propagation — the
    /// savings live in the suppressed record payloads, not here.
    fn should_digest(&self, tick_no: u64) -> bool {
        match self.digest_tick {
            None => true,
            Some(last) if last == tick_no => false,
            Some(last) => self.sync_streak < 2 || tick_no - last >= 2,
        }
    }
}

/// Sessions whose connection holds a frame that becomes readable at a
/// future instant (the transport's delay injection): the reactor must
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

/// One node's entire runtime, as pollable state, owning its
/// [`PeerState`]. [`Lockstep`](crate::Lockstep) pumps several of them
/// on one thread over virtual time.
pub struct Reactor {
    id: PeerId,
    /// The network this node speaks through, and the clock it reads.
    transport: MemTransport,
    listener: MemListener,
    wake: Rc<WakeQueue>,
    /// Sorted so pump order is deterministic.
    sessions: BTreeMap<u64, Session>,
    next_token: u64,
    /// Every remote peer met, dialed or digested (see [`Remote`]);
    /// looked up by id, never iterated.
    remotes: HashMap<PeerId, Remote>,
    wheel: TimerWheel,
    /// Sessions to pump at a future instant (see [`DelayedFrames`]).
    delayed: DelayedFrames,
    /// Tokens to pump on the next cycle.
    ready: BTreeSet<u64>,
    pss: PssNode,
    rng: StdRng,
    state: PeerState,
    /// The advertised slice as a stamped full `Delta` frame, its record
    /// count and the history version it was encoded at: what every
    /// session gets on establishment and fallback ticks. The stamp
    /// seeds the receiver's claim, so the next digest round is in sync.
    full: Option<(Rc<[u8]>, u32, u64)>,
    stats: NodeStats,
    config: NodeConfig,
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
}

impl Reactor {
    /// Bind the listener on `transport` and assemble a reactor timed by
    /// the transport's clock. Nothing runs until
    /// [`Reactor::poll_once`] is called; the first exchange tick is
    /// scheduled for "now".
    pub fn new(
        id: PeerId,
        transport: &MemTransport,
        bootstrap: Vec<PeerId>,
        history: PrivateHistory,
        config: NodeConfig,
    ) -> Reactor {
        let mut listener = transport.listen(id);
        let wake = Rc::new(WakeQueue::default());
        listener.register_waker(&wake, LISTENER_TOKEN);
        let now = transport.clock().now();
        let mut wheel = TimerWheel::new(now, TICK_GRANULARITY);
        wheel.schedule(now, TimerKind::Exchange);
        let mut pss = PssNode::new(id, config.pss);
        pss.bootstrap(bootstrap);
        Reactor {
            id,
            transport: transport.clone(),
            listener,
            wake,
            sessions: BTreeMap::new(),
            next_token: 0,
            remotes: HashMap::new(),
            wheel,
            delayed: DelayedFrames::default(),
            ready: BTreeSet::new(),
            pss,
            rng: StdRng::seed_from_u64(config.seed ^ (((id.0 as u64) << 32) | 0xA5A5)),
            state: PeerState::new(history, ReputationEngine::new()),
            full: None,
            stats: NodeStats::default(),
            config,
            workload: None,
            choke_interval: Duration::from_secs(10),
            boot: now,
            pool: BufPool::new(),
            tick_no: 0,
        }
    }

    /// Attach a transfer workload: its choke round fires every
    /// `choke_interval` starting one interval from now, and its
    /// `on_start` hook runs immediately (dialing initial targets).
    /// Call before the first [`Reactor::poll_once`].
    pub fn attach_workload(&mut self, workload: Box<dyn Workload>, choke_interval: Duration) {
        assert!(choke_interval > Duration::ZERO);
        self.workload = Some(workload);
        self.choke_interval = choke_interval;
        let now = self.transport.clock().now();
        self.wheel
            .schedule(now + choke_interval, TimerKind::ChokeRound);
        self.with_workload(now, |w, secs, state, io| w.on_start(secs, state, io));
    }

    /// Run `f` against the attached workload (if any) and the node
    /// state, then apply the batched [`WorkloadIo`].
    fn with_workload<F>(&mut self, now: Instant, f: F)
    where
        F: FnOnce(&mut dyn Workload, Seconds, &mut PeerState, &mut WorkloadIo),
    {
        let Some(mut workload) = self.workload.take() else {
            return;
        };
        let mut io = WorkloadIo::default();
        let secs = Seconds(now.saturating_duration_since(self.boot).as_secs());
        f(workload.as_mut(), secs, &mut self.state, &mut io);
        self.workload = Some(workload);
        self.deliver_io(io, now);
    }

    /// Apply a workload's batched output: frames onto live sessions
    /// (dropped, not queued, for peers without one), dials for missing
    /// peers through the normal backoff machinery.
    fn deliver_io(&mut self, io: WorkloadIo, now: Instant) {
        for (peer, frame) in io.frames {
            if let Some(token) = self.primary(peer) {
                if let Some(session) = self.sessions.get_mut(&token) {
                    session.enqueue_envelope(
                        &Envelope::Swarm(frame),
                        &mut self.pool,
                        self.config.outbound_queue,
                        &mut self.stats,
                    );
                    self.ready.insert(token);
                }
            }
        }
        for peer in io.dials {
            if peer != self.id && self.primary(peer).is_none() {
                self.dial(peer, now);
            }
        }
    }

    /// The node's identity.
    pub(crate) fn id(&self) -> PeerId {
        self.id
    }

    /// The operational counters.
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// The primary established session with `peer`, if any.
    fn primary(&self, peer: PeerId) -> Option<u64> {
        self.remotes.get(&peer).and_then(|r| r.session)
    }

    /// The node state (history + reputation engine).
    pub fn state(&self) -> &PeerState {
        &self.state
    }

    /// Give up the reactor, keeping what outlives it: the counters and
    /// the node state. Every session still in the table is closed
    /// unclean and reaped first, so the books close: none stays live,
    /// and each is counted once as closed or failed.
    pub(crate) fn into_parts(mut self) -> (NodeStats, PeerState) {
        let mut events = Vec::new();
        for mut session in std::mem::take(&mut self.sessions).into_values() {
            session.close(false, &mut self.stats, &mut events);
            self.stats.session_reaped();
        }
        (self.stats, self.state)
    }

    /// The wake queue: the lockstep driver links it to its runnable
    /// bitset.
    pub fn wake_handle(&self) -> Rc<WakeQueue> {
        Rc::clone(&self.wake)
    }

    /// One full cycle: wakes → timers → delayed frames → accepts →
    /// pumps → events → reaping. Returns whether any progress was made.
    /// Time is read from the virtual clock exactly once, at entry, so
    /// the whole cycle is a pure function of (state, seeds, now).
    pub fn poll_once(&mut self) -> bool {
        let now = self.transport.clock().now();
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
                    self.wheel
                        .schedule(now + self.config.exchange_interval, TimerKind::Exchange);
                    self.exchange_tick(now);
                    progress = true;
                }
                TimerKind::SessionCheck { token } => {
                    if let Some(session) = self.sessions.get_mut(&token) {
                        match session.check_deadlines(now, &mut self.stats, &mut events) {
                            Some(next) => {
                                self.wheel.schedule(next, TimerKind::SessionCheck { token })
                            }
                            None => progress = true, // expired
                        }
                    }
                }
                TimerKind::DialRetry { peer } => {
                    if self.primary(peer).is_none() {
                        self.dial(peer, now);
                        progress = true;
                    }
                }
                TimerKind::ChokeRound => {
                    if self.workload.is_some() {
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

        // 4. inbound connections, up to the accept burst — only when
        // the listener was woken, since every queued connection
        // notifies it
        if self.ready.contains(&LISTENER_TOKEN) {
            let mut accepted = 0;
            while accepted < ACCEPT_BURST {
                let Some(conn) = self.listener.try_accept() else {
                    break;
                };
                accepted += 1;
                if self.sessions.len() >= self.config.max_sessions {
                    // accepted-then-dropped: the peer sees an immediate
                    // close, not a hanging backlog
                    self.stats.shed_accept += 1;
                    drop(conn);
                } else {
                    self.adopt(conn, now);
                }
                progress = true;
            }
            if accepted == ACCEPT_BURST {
                // burst limit hit with possibly more queued: make sure
                // the next cycle services the listener even without a
                // new wake
                self.ready.insert(LISTENER_TOKEN);
            } else {
                self.ready.remove(&LISTENER_TOKEN);
            }
        }

        // 5. pump the ready sessions
        let tokens: Vec<u64> = self
            .ready
            .iter()
            .copied()
            .filter(|t| *t != LISTENER_TOKEN)
            .collect();
        self.ready.retain(|t| *t == LISTENER_TOKEN);
        for token in tokens {
            if let Some(session) = self.sessions.get_mut(&token) {
                if session.pump(self.id, now, &mut self.pool, &mut self.stats, &mut events) {
                    progress = true;
                }
                // a frame still in simulated flight needs a self-wake
                match session.next_ready_at() {
                    Some(at) if at > now => self.delayed.insert(token, at),
                    _ => self.delayed.remove(token),
                }
            }
        }

        // 6. apply events, then reap the dead: every close emits one
        // `Closed` event, so the events name exactly the sessions to reap
        let mut closed = Vec::new();
        if !events.is_empty() {
            progress = true;
            closed.extend(events.iter().filter_map(|event| match event {
                SessionEvent::Closed { token, .. } => Some(*token),
                _ => None,
            }));
            self.apply_events(events, now);
        }
        closed.sort_unstable();
        for token in closed {
            self.reap(token);
        }
        debug_assert!(
            self.sessions.values().all(|s| !s.is_closed()),
            "a closed session outlived its poll"
        );

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
    /// a no-op. It may say `true` for a cycle that then finds nothing,
    /// never the reverse.
    pub fn has_work(&self) -> bool {
        if !self.ready.is_empty() || !self.wake.is_empty() {
            return true;
        }
        let now = self.transport.clock().now();
        self.wheel.has_due(now) || self.delayed.earliest().is_some_and(|at| at <= now)
    }

    /// Take ownership of a connection as a new session: assign a token,
    /// register its waker, count it live, and schedule its handshake
    /// deadline.
    fn adopt(&mut self, mut conn: MemConn, now: Instant) {
        let token = self.next_token;
        self.next_token += 1;
        conn.register_waker(&self.wake, token);
        self.sessions.insert(token, Session::new(token, conn, now));
        self.stats.session_adopted();
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
        self.stats.session_reaped();
        let remote = session
            .remote()
            .and_then(|peer| self.remotes.get_mut(&peer));
        if let Some(r) = remote.filter(|r| r.session == Some(token)) {
            r.session = None;
            r.digest_tick = None;
            r.sync_streak = 0;
        }
    }

    /// Dial `target` (respecting backoff); the handshake's
    /// `Established` event opens the first anti-entropy round.
    fn dial(&mut self, target: PeerId, now: Instant) {
        let remote = self.remotes.entry(target).or_default();
        if remote.not_before.is_some_and(|at| now < at) {
            return;
        }
        if remote.met {
            self.stats.reconnects += 1;
        }
        match self.transport.connect(self.id, target) {
            Ok(conn) => {
                // success of the *dial*; the handshake may still fail,
                // in which case Closed{clean: false} re-arms backoff
                remote.not_before = None;
                self.adopt(conn, now);
            }
            Err(_) => {
                self.stats.sessions_failed += 1;
                self.arm_backoff(target, now);
            }
        }
    }

    /// Bump the failure count, compute the next delay, and schedule the
    /// retry timer.
    fn arm_backoff(&mut self, peer: PeerId, now: Instant) {
        let remote = self.remotes.entry(peer).or_default();
        remote.failures = remote.failures.saturating_add(1);
        let delay = backoff_delay(
            remote.failures,
            self.config.backoff_base,
            self.config.backoff_max,
            BACKOFF_JITTER,
            &mut self.rng,
        );
        let retry_at = now + delay;
        remote.not_before = Some(retry_at);
        self.wheel.schedule(retry_at, TimerKind::DialRetry { peer });
    }

    /// One exchange tick: sample `EXCHANGE_FANOUT` neighbors and run one
    /// anti-entropy round with each — a digest (unless the backoff says
    /// the peer answered nothing lately), the encode-once full slice on
    /// fallback ticks, a dial when no session exists yet.
    fn exchange_tick(&mut self, now: Instant) {
        self.pss.tick();
        self.tick_no += 1;
        if self.full_frame().is_none() {
            return; // nothing to gossip yet
        }
        let full_tick = self.config.full_sync_every > 0
            && self.tick_no.is_multiple_of(self.config.full_sync_every);
        let targets = self.pss.sample_many(&mut self.rng, EXCHANGE_FANOUT);
        for target in targets {
            if target == self.id {
                continue;
            }
            match self.primary(target) {
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
            if let Some((bytes, records, version)) = self.full_frame() {
                let session = self.sessions.get_mut(&token).expect("session exists");
                if session.enqueue_shared(bytes, records, cap, &mut self.stats) {
                    self.stats.full_syncs += 1;
                    self.remotes.entry(target).or_default().pushed = Some(version);
                    self.ready.insert(token);
                }
            }
            return;
        }
        let remote = self.remotes.entry(target).or_default();
        if !remote.should_digest(self.tick_no) {
            return;
        }
        let claim = self.state.claim(target);
        let session = self.sessions.get_mut(&token).expect("session exists");
        let digest = Envelope::Digest {
            sender: self.id,
            claim,
        };
        if session.enqueue_envelope(&digest, &mut self.pool, cap, &mut self.stats) {
            remote.digest_tick = Some(self.tick_no);
            remote.sync_streak = remote.sync_streak.saturating_add(1);
            self.ready.insert(token);
        }
    }

    /// The full-push frame of the current history, encoded once per
    /// version. `None` while the slice is empty.
    fn full_frame(&mut self) -> Option<(Rc<[u8]>, u32, u64)> {
        let version = self.state.history.version();
        if self.full.as_ref().map(|f| f.2) != Some(version) {
            let (slice, stamp) = self.state.advertised(self.config.bartercast);
            self.full = (!slice.is_empty()).then(|| {
                let delta = DeltaMsg {
                    sender: self.id,
                    full: true,
                    stamp,
                    records: frontier::records_of(slice),
                };
                let frame = wire::encode_envelope(&Envelope::Delta(delta));
                (Rc::from(&frame[..]), slice.len() as u32, version)
            });
        }
        self.full.clone()
    }

    fn apply_events(&mut self, events: Vec<SessionEvent>, now: Instant) {
        for event in events {
            match event {
                SessionEvent::Established { token, remote, .. } => {
                    let r = self.remotes.entry(remote).or_default();
                    let primary = *r.session.get_or_insert(token) == token;
                    r.failures = 0;
                    r.not_before = None;
                    r.digest_tick = None;
                    r.sync_streak = 0;
                    // a redial was counted where it was dialed
                    r.met = true;
                    let pushed = r.pushed;
                    self.pss.bootstrap([remote]);
                    // notify the workload only for the session that
                    // became the peer's primary (duplicate dials race;
                    // the loser idles out without a notification)
                    if primary {
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
                        let version = self.state.history.version();
                        let fresh = pushed != Some(version);
                        self.sync_with(token, remote, fresh);
                        self.with_workload(now, |w, secs, state, io| {
                            w.on_established(remote, secs, state, io)
                        });
                    }
                }
                SessionEvent::Digest { token, from, claim } => {
                    let (ours, plan, slice_len) = self.state.answer(self.config.bartercast, claim);
                    // in sync, or about to be sent the rest: either
                    // way the peer holds our slice at this version, so
                    // a later reconnect opens with a digest instead of
                    // a redundant full push. Optimistic under loss —
                    // the digest round repairs a dropped reply.
                    let version = self.state.history.version();
                    self.remotes.entry(from).or_default().pushed = Some(version);
                    match plan {
                        SyncPlan::InSync => {
                            // the whole slice stayed off the wire
                            self.stats.records_suppressed += slice_len as u64;
                        }
                        SyncPlan::Send { full, records } => {
                            let suppressed = slice_len.saturating_sub(records.len());
                            self.stats.records_suppressed += suppressed as u64;
                            if full {
                                self.stats.full_syncs += 1;
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
                                    &mut self.stats,
                                ) {
                                    self.ready.insert(token);
                                }
                            }
                        }
                    }
                }
                SessionEvent::Delta { from, msg } => {
                    let n = msg.records.len() as u64;
                    if self.state.absorb(from, msg.stamp, &msg.records) == 0 && n > 0 {
                        self.stats.records_duplicate += n;
                    }
                    // news arrived: probe this peer eagerly again
                    self.remotes.entry(from).or_default().sync_streak = 0;
                }
                SessionEvent::Frame { token, from, frame } => {
                    if self.primary(from) == Some(token) {
                        self.with_workload(now, |w, secs, state, io| {
                            w.on_frame(from, frame, secs, state, io)
                        });
                    }
                }
                SessionEvent::Closed { token, clean } => {
                    let remote = self.sessions.get(&token).and_then(|s| s.remote());
                    if let (false, Some(peer)) = (clean, remote) {
                        self.arm_backoff(peer, now);
                    }
                    if let Some(peer) = remote {
                        if self.primary(peer) == Some(token) {
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
    use crate::clock::VirtualClock;
    use crate::lockstep::Lockstep;
    use crate::mem::MemConfig;
    use bartercast_util::units::{Bytes, Seconds};

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

    /// The backoff delay doubles per failure before the cap, and once
    /// capped its jitter stays within `[max, max * (1 + jitter)]` — for
    /// any failure count, including the shift-overflow-prone ones.
    #[test]
    fn dial_backoff_caps_at_maximum_with_bounded_jitter() {
        let base = Duration::from_millis(20);
        let max = Duration::from_millis(500);
        let jitter = 0.5;
        let mut rng = StdRng::seed_from_u64(0xBC);
        // pre-cap: deterministic doubling (jitter 0)
        let mut zero_rng = StdRng::seed_from_u64(1);
        for (failures, ms) in [(1, 20), (2, 40), (3, 80)] {
            assert_eq!(
                backoff_delay(failures, base, max, 0.0, &mut zero_rng),
                Duration::from_millis(ms)
            );
        }
        // at and past the cap, across many draws: bounded jitter, never
        // below max, never above max * 1.5
        for failures in [6u32, 10, 16, 17, 31, 64, u32::MAX] {
            for _ in 0..200 {
                let d = backoff_delay(failures, base, max, jitter, &mut rng);
                assert!(d >= max, "failures={failures}: {d:?} fell below the cap");
                assert!(
                    d <= max.mul_f64(1.0 + jitter),
                    "failures={failures}: {d:?} exceeded the jitter ceiling"
                );
            }
        }
        // jitter actually spreads: 200 draws at the cap aren't all equal
        let draws: Vec<Duration> = (0..200)
            .map(|_| backoff_delay(16, base, max, jitter, &mut rng))
            .collect();
        assert!(draws.iter().any(|d| *d != draws[0]), "jitter never varied");
    }

    /// Two reactors pumped in lockstep on virtual time converge to each
    /// other's records without any thread ever sleeping. Both ends of
    /// the `0 → 1` transfer record it, as a real transfer does: gossip
    /// never writes an edge incident to its receiver.
    #[test]
    fn two_reactors_converge_on_virtual_time() {
        let mut lockstep = Lockstep::new(MemConfig::default());
        let mut b = history_with_upload(1, 2, 32);
        b.record_download(PeerId(0), Bytes::from_mb(64), Seconds(1));
        for (id, peer, history, seed) in [
            (PeerId(0), PeerId(1), history_with_upload(0, 1, 64), 1),
            (PeerId(1), PeerId(0), b, 2),
        ] {
            lockstep.spawn(id, vec![peer], history, fast_config(seed));
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
        let (mut r, transport) = virtual_reactor(NodeConfig {
            max_sessions: 2,
            ..fast_config(9)
        });
        let mut dialers: Vec<MemConn> = (0..5)
            .map(|i| transport.connect(PeerId(10 + i), PeerId(1)).unwrap())
            .collect();
        r.poll_once();
        let stats = r.stats;
        assert_eq!(stats.sessions_live, 2, "cap must hold");
        assert_eq!(stats.shed_accept, 3);
        assert_eq!(stats.sessions_peak, 2);
        // shed dialers observe EOF; adopted ones read the reactor's
        // Hello once it lands, and then nothing
        let clock = transport.clock();
        clock.advance_to(clock.now() + MemConfig::default().max_delay);
        let eof = |d: &mut MemConn| {
            let mut buf = [0u8; 64];
            loop {
                match d.try_recv(&mut buf).unwrap() {
                    Some(0) => return true,
                    Some(_) => continue,
                    None => return false,
                }
            }
        };
        let eofs: Vec<bool> = dialers.iter_mut().map(eof).collect();
        assert_eq!(eofs.iter().filter(|&&e| e).count(), 3, "{eofs:?}");
    }

    /// The full-push frame is encoded once per history version, afresh
    /// after a write, and not at all for an empty slice.
    #[test]
    fn the_full_frame_is_encoded_once_per_history_version() {
        let (mut r, _transport) = virtual_reactor(fast_config(9));
        assert!(r.full_frame().is_none(), "an empty slice pushes nothing");

        r.state
            .history
            .record_upload(PeerId(2), Bytes::from_mb(8), Seconds(1));
        let (first, records, version) = r.full_frame().expect("one record");
        let (again, _, same) = r.full_frame().expect("one record");
        assert!(Rc::ptr_eq(&first, &again), "one encoding per version");
        assert_eq!((records, same), (1, version));

        r.state
            .history
            .record_download(PeerId(3), Bytes::from_mb(4), Seconds(2));
        let (fresh, records, after) = r.full_frame().expect("two records");
        assert!(after > version && records == 2);
        let slice = frontier::advertised_slice(&r.state.history, fast_config(9).bartercast);
        let expected = Envelope::Delta(DeltaMsg {
            sender: PeerId(1),
            full: true,
            stamp: frontier::frontier_of(&slice),
            records: frontier::records_of(&slice),
        });
        // the payload follows the 4-byte length prefix
        assert_eq!(wire::decode_envelope(&fresh[4..]).unwrap(), expected);
    }

    /// Node 1 on virtual time over a fresh in-process network.
    fn virtual_reactor(config: NodeConfig) -> (Reactor, MemTransport) {
        let clock = Rc::new(VirtualClock::new());
        let transport = MemTransport::with_clock(MemConfig::default(), clock);
        let history = PrivateHistory::new(PeerId(1));
        let r = Reactor::new(PeerId(1), &transport, vec![], history, config);
        (r, transport)
    }

    /// A full accept burst re-arms the listener token, so the dials it
    /// left queued are adopted on the next poll without a new wake.
    #[test]
    fn a_full_accept_burst_rearms_the_listener() {
        let (mut r, transport) = virtual_reactor(fast_config(9));
        let _dialers: Vec<MemConn> = (0..ACCEPT_BURST as u32 + 5)
            .map(|i| transport.connect(PeerId(10 + i), PeerId(1)).unwrap())
            .collect();
        r.poll_once();
        assert_eq!(r.sessions.len(), ACCEPT_BURST);
        assert!(r.ready.contains(&LISTENER_TOKEN), "listener re-armed");
        assert!(r.wake.is_empty(), "no new wake arrived");
        r.poll_once();
        assert_eq!(r.sessions.len(), ACCEPT_BURST + 5);
        assert!(!r.ready.contains(&LISTENER_TOKEN), "queue drained");
        assert_eq!(r.stats.sessions_live, ACCEPT_BURST as u64 + 5);
    }

    /// A session whose handshake deadline expires is reaped by the poll
    /// that expired it.
    #[test]
    fn a_handshake_timeout_is_reaped_in_the_same_poll() {
        let (mut r, transport) = virtual_reactor(fast_config(9));
        let _silent = transport.connect(PeerId(10), PeerId(1)).unwrap();
        r.poll_once();
        assert_eq!(r.sessions.len(), 1, "adopted, awaiting Hello");
        let clock = transport.clock();
        clock.advance_to(clock.now() + HANDSHAKE_TIMEOUT);
        r.poll_once();
        assert!(r.sessions.is_empty(), "expired and reaped");
        let stats = r.stats;
        assert_eq!((stats.sessions_failed, stats.sessions_live), (1, 0));
    }

    /// A duplicate session's `Established` clears the peer's backoff
    /// and digest cadence, and keeps its primary, "met" and last push.
    #[test]
    fn established_resets_backoff_and_cadence_but_keeps_the_primary() {
        let (mut r, transport) = virtual_reactor(fast_config(9));
        let (now, peer, tick) = (transport.clock().now(), PeerId(10), r.tick_no);
        let remote = Remote {
            session: Some(3),
            failures: 4,
            not_before: Some(now),
            met: true,
            digest_tick: Some(tick),
            sync_streak: 2,
            pushed: Some(7),
        };
        r.remotes.insert(peer, remote);
        let duplicate = SessionEvent::Established {
            token: 9,
            remote: peer,
        };
        r.apply_events(vec![duplicate], now);
        let r = &r.remotes[&peer];
        assert_eq!((r.session, r.met, r.pushed), (Some(3), true, Some(7)));
        assert_eq!((r.failures, r.not_before), (0, None));
        assert_eq!((r.digest_tick, r.sync_streak), (None, 0));
    }
}
