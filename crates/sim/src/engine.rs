//! The round-based simulation loop.
//!
//! Time advances in fixed rounds (default 30 s). Each round the engine:
//!
//! 1. plays back trace events — session starts/ends, file requests —
//!    and behaviour events: freeriders leave a swarm the instant their
//!    download completes, sharers seed for `SEED_TIME` (§5.1: 10 hours);
//! 2. recomputes every online member's unchoke set (tit-for-tat,
//!    optimistic rotation, reputation policy) at the unchoke period;
//! 3. allocates bandwidth: an uploader's uplink is split evenly over
//!    its active unchoke targets across swarms, downlinks cap incoming
//!    flow proportionally, and transferred bytes turn into pieces via
//!    rarest-first credit;
//! 4. performs gossip meetings through the PSS, exchanging BarterCast
//!    messages (subject to the adversary model);
//! 5. samples metrics: per-round download speeds and periodic system
//!    reputations (Equation 2).
//!
//! Runs are fully deterministic given `(trace, SimConfig)`.

use crate::adversary::{AdversaryModel, Conduct};
use crate::config::{Behaviour, SimConfig, FREERIDER_FRACTION};
use crate::metrics::{GroupSeries, PeerOutcome, SimReport};
use crate::peer::SimPeer;
use bartercast_bt::choke::Candidate;
use bartercast_bt::swarm::{Member, Swarm};
use bartercast_core::ReputationEngine;
use bartercast_gossip::{shuffle, PssConfig};
use bartercast_trace::model::Trace;
use bartercast_util::stats::Running;
use bartercast_util::units::{Bytes, PeerId, Seconds};
use bartercast_util::{FxHashMap, FxHashSet};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// How long sharers seed each completed file: §5.1's "share every
/// downloaded file for 10 hours".
const SEED_TIME: Seconds = Seconds::from_hours(10);

/// Mean interval between a peer's random (PSS-sampled) gossip
/// meetings: §5.1's hourly meetings (EXPERIMENTS.md, "Calibration
/// decisions", item 5).
const GOSSIP_INTERVAL: Seconds = Seconds::from_hours(1);

/// Minimum interval between BarterCast message exchanges with the same
/// transfer partner. Peers exchange messages with peers they meet, and
/// transfer partners are met continuously (§3.4's `Nr` "most recently
/// seen" selection presumes exactly this; EXPERIMENTS.md, "Calibration
/// decisions", item 5).
const PARTNER_EXCHANGE_INTERVAL: Seconds = Seconds::from_hours(2);

/// How stale a cached reputation may get before the policy recomputes
/// it from the subjective graph: well inside the hourly gossip cadence,
/// so a meeting's records reach the choke decisions within one refresh.
const REPUTATION_REFRESH: Seconds = Seconds::from_minutes(10);

/// Audit tolerance factor: a source claim is flagged above this many
/// times the target's confirmation (plus `AUDIT_SLACK`). The
/// `sim run --audit` extension beyond the paper (EXPERIMENTS.md,
/// "Misreport auditing"; `bartercast_core::audit`).
const AUDIT_FACTOR: f64 = 4.0;

/// Audit staleness slack: the absolute allowance for one witness's
/// cumulative total lagging the other's between meetings.
const AUDIT_SLACK: Bytes = Bytes::from_mb(512);

/// Discrepancy marks a peer needs, summed over every auditor, before
/// it counts as a suspect.
const AUDIT_MIN_MARKS: u32 = 3;

/// One flow assignment for a round: uploader → downloader within a
/// swarm, carrying `bytes`.
#[derive(Debug, Clone, Copy)]
struct Flow {
    up: usize,
    down: usize,
    swarm: usize,
    bytes: u64,
}

/// A full simulation run.
pub struct Simulation {
    config: SimConfig,
    trace: Trace,
    peers: Vec<SimPeer>,
    swarms: Vec<Swarm>,
    /// Sharers' seeding deadlines: `(peer index, swarm index) -> leave
    /// at`.
    seeding_until: FxHashMap<(usize, usize), Seconds>,
    /// Peers excluded from the sharer/freerider metrics (the archival
    /// initial seeders).
    archival: FxHashSet<usize>,
    now: Seconds,
    rng: StdRng,
    /// Per-peer cursor into its trace request list.
    request_cursor: Vec<usize>,
    // metric accumulators
    speed: GroupSeries,
    reputation: GroupSeries,
    overall_speed_sharers: Running,
    overall_speed_freeriders: Running,
    messages_delivered: u64,
    /// Records withheld because the recipient's delivered-frontier
    /// cache already matched the sender's message (the sim analogue of
    /// the node runtime's digest-gated sync concluding "in sync").
    records_suppressed: u64,
    meetings: u64,
    pieces_transferred: u64,
    next_reputation_sample: Seconds,
    /// Download start time per (peer, swarm), for completion-time stats.
    download_started: FxHashMap<(usize, usize), Seconds>,
    /// Per-swarm (completions, total completion seconds, peak members).
    swarm_stats: Vec<(usize, u64, usize)>,
    /// When set, every choke instant checks the table-built candidate
    /// lists against the per-pair scan and adds the candidates compared.
    #[cfg(test)]
    scan_oracle: Option<usize>,
}

/// What a choke candidate test reads of one swarm member.
#[derive(Clone, Copy)]
struct Row<'a> {
    id: PeerId,
    online: bool,
    connectable: bool,
    member: &'a Member,
}

impl Row<'_> {
    /// This member's candidates among `table`'s rows, in table order.
    fn candidates(&self, table: &[Row]) -> Vec<Candidate> {
        let mine = &self.member.bitfield;
        // an uploader holding nothing interests no one
        if mine.count() == 0 {
            return Vec::new();
        }
        let (recv, sent) = (&self.member.recv_last, &self.member.sent_last);
        table
            .iter()
            .filter(|q| {
                q.id != self.id
                    && q.online
                    && (self.connectable || q.connectable)
                    // a complete candidate wants nothing
                    && !q.member.bitfield.is_complete()
                    && q.member.bitfield.interested_in(mine)
            })
            .map(|q| Candidate {
                peer: q.id,
                rate_to_me: recv.get(&q.id).copied().unwrap_or(0),
                rate_from_me: sent.get(&q.id).copied().unwrap_or(0),
            })
            .collect()
    }
}

/// Order-sensitive FNV-1a content hash of a message (sender plus every
/// record). Deliberately *not* `DefaultHasher`: SipHash keys are
/// randomized per process, and this hash feeds the deterministic
/// delivered-frontier cache, so two runs must agree on it.
fn message_hash(msg: &bartercast_core::BarterCastMessage) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    };
    mix(u64::from(msg.sender.0));
    for r in &msg.records {
        mix(u64::from(r.peer.0));
        mix(r.up.0);
        mix(r.down.0);
    }
    h
}

impl Simulation {
    /// Set up a run: assign behaviours and adversary conduct, create
    /// swarms with their archival seeders, bootstrap the PSS.
    pub fn new(trace: Trace, config: SimConfig) -> Self {
        config.validate();
        trace.validate().expect("invalid trace");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let n = trace.peer_count();

        // Archival initial seeders are outside the sharer/freerider
        // population (§5.1 splits the *active* peers 50/50).
        let archival: FxHashSet<usize> = trace
            .swarms
            .iter()
            .map(|s| s.initial_seeder.index())
            .collect();

        // Behaviour split over non-archival peers.
        let mut regular: Vec<usize> = (0..n).filter(|i| !archival.contains(i)).collect();
        regular.shuffle(&mut rng);
        let freerider_count = (regular.len() as f64 * FREERIDER_FRACTION).round() as usize;
        let freeriders: FxHashSet<usize> = regular.iter().take(freerider_count).copied().collect();

        // Disobeying peers are "a random selection from [the]
        // freeriders" (§5.4). `regular[..freerider_count]` is already a
        // random order, so take a prefix.
        let disobeying_count = (n as f64 * config.adversary.fraction()).round() as usize;
        let disobeying: FxHashSet<usize> = regular
            .iter()
            .take(freerider_count.min(disobeying_count))
            .copied()
            .collect();

        let pss_config = PssConfig::default();
        let mut peers: Vec<SimPeer> = trace
            .peers
            .iter()
            .map(|pt| {
                let idx = pt.peer.index();
                let behaviour = if freeriders.contains(&idx) {
                    Behaviour::Freerider
                } else {
                    Behaviour::Sharer
                };
                let conduct = if disobeying.contains(&idx) {
                    match config.adversary {
                        AdversaryModel::Ignore { .. } => Conduct::Silent,
                        AdversaryModel::Lie { .. } => Conduct::Lying,
                        AdversaryModel::None => Conduct::Honest,
                    }
                } else {
                    Conduct::Honest
                };
                let engine = ReputationEngine::new()
                    .with_method(config.maxflow)
                    .with_metric(config.metric);
                let mut peer = SimPeer::new(
                    pt.peer,
                    behaviour,
                    conduct,
                    pt.connectable,
                    pt.down_bw,
                    pt.up_bw,
                    pss_config,
                    engine,
                );
                if config.audit {
                    peer.auditor = Some(bartercast_core::audit::Auditor::new(
                        AUDIT_FACTOR,
                        AUDIT_SLACK,
                    ));
                }
                peer
            })
            .collect();

        // PSS bootstrap: every peer knows a random handful (tracker /
        // install-time buddy list).
        let all_ids: Vec<PeerId> = peers.iter().map(|p| p.id).collect();
        for peer in peers.iter_mut() {
            let mut boot: Vec<PeerId> = all_ids.iter().copied().filter(|&q| q != peer.id).collect();
            boot.shuffle(&mut rng);
            boot.truncate(10);
            peer.pss.bootstrap(boot);
            peer.next_gossip = Seconds(rng.gen_range(0..GOSSIP_INTERVAL.0));
        }

        // Swarms with their archival seeders joined from t = 0.
        let mut swarms: Vec<Swarm> = Vec::with_capacity(trace.swarm_count());
        for st in &trace.swarms {
            let mut sw = Swarm::new(st.piece_count(), st.piece_size, config.bt);
            sw.join_seeder(st.initial_seeder);
            swarms.push(sw);
        }

        let horizon_days = trace.horizon.as_days();
        let sample_days = (config.reputation_sample_interval.as_days()).max(1e-3);
        Simulation {
            speed: GroupSeries::new(
                horizon_days.max(1e-3),
                (horizon_days / 7.0).clamp(1e-3, 1.0),
            ),
            reputation: GroupSeries::new(horizon_days.max(1e-3), sample_days),
            overall_speed_sharers: Running::new(),
            overall_speed_freeriders: Running::new(),
            messages_delivered: 0,
            records_suppressed: 0,
            meetings: 0,
            pieces_transferred: 0,
            next_reputation_sample: config.reputation_sample_interval,
            download_started: FxHashMap::default(),
            swarm_stats: vec![(0, 0, 0); trace.swarm_count()],
            request_cursor: vec![0; trace.peer_count()],
            seeding_until: FxHashMap::default(),
            archival,
            now: Seconds::ZERO,
            rng,
            config,
            trace,
            peers,
            swarms,
            #[cfg(test)]
            scan_oracle: None,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Seconds {
        self.now
    }

    /// Immutable peer access (tests, experiments).
    pub fn peers(&self) -> &[SimPeer] {
        &self.peers
    }

    /// Whether this peer is one of the archival initial seeders.
    pub fn is_archival(&self, idx: usize) -> bool {
        self.archival.contains(&idx)
    }

    /// Run to the trace horizon and produce the report.
    pub fn run(mut self) -> SimReport {
        while self.now < self.trace.horizon {
            self.step();
        }
        self.finish()
    }

    /// Advance one round.
    pub fn step(&mut self) {
        let dt = self.config.round;
        self.now += dt;
        self.play_trace_events();
        self.behaviour_events();
        self.choke_phase();
        self.sample_swarm_peaks();
        self.transfer_phase(dt);
        self.gossip_phase();
        if self.now >= self.next_reputation_sample {
            self.sample_system_reputation();
            self.next_reputation_sample += self.config.reputation_sample_interval;
        }
    }

    /// Track peak concurrent online membership per swarm.
    fn sample_swarm_peaks(&mut self) {
        for s in 0..self.swarms.len() {
            let online = self.swarms[s]
                .members()
                .filter(|m| self.peers[m.index()].online)
                .count();
            if online > self.swarm_stats[s].2 {
                self.swarm_stats[s].2 = online;
            }
        }
    }

    /// Session starts/ends and file requests from the trace.
    fn play_trace_events(&mut self) {
        let now = self.now;
        for i in 0..self.peers.len() {
            let online = self.trace.peers[i].online_at(now);
            self.peers[i].online = online;
            if !online {
                continue;
            }
            // fire due requests
            while self.request_cursor[i] < self.trace.peers[i].requests.len() {
                let req = self.trace.peers[i].requests[self.request_cursor[i]];
                if req.time > now {
                    break;
                }
                self.request_cursor[i] += 1;
                let s = req.swarm.index();
                let pid = self.peers[i].id;
                if !self.peers[i].completed.contains_key(&s) && !self.swarms[s].contains(pid) {
                    self.swarms[s].join_leecher(pid);
                    self.download_started.insert((i, s), now);
                    // tracker introduces current members
                    let members: Vec<PeerId> =
                        self.swarms[s].members().filter(|&m| m != pid).collect();
                    self.peers[i].pss.bootstrap(members);
                }
            }
        }
    }

    /// Sharer seeding deadlines (freeriders leave instantly at
    /// completion inside the transfer phase).
    fn behaviour_events(&mut self) {
        let now = self.now;
        let expired: Vec<(usize, usize)> = self
            .seeding_until
            .iter()
            .filter(|(_, &until)| until <= now)
            .map(|(&k, _)| k)
            .collect();
        for (peer, swarm) in expired {
            self.seeding_until.remove(&(peer, swarm));
            let pid = self.peers[peer].id;
            self.swarms[swarm].leave(pid);
        }
    }

    /// Recompute unchoke sets for all online members of all swarms, on
    /// the rounds that end an unchoke period (every round when the
    /// round is at least as long as the period). In between, unchoke
    /// sets, the optimistic rotation and the tit-for-tat rate windows
    /// are left alone: `Choker` counts its rotation in unchoke periods,
    /// not rounds.
    fn choke_phase(&mut self) {
        let period = self.config.bt.unchoke_period.0.max(1);
        if !self.now.0.is_multiple_of(period) {
            return;
        }
        let epoch = self.now.0 / REPUTATION_REFRESH.0;
        let policy = self.config.policy;
        // an active ratio policy replaces the reputation policy in
        // choke decisions (the third policy beside rank/ban)
        let ratio = self.config.ratio;
        for s in 0..self.swarms.len() {
            let lists = self.candidate_lists(s);
            #[cfg(test)]
            if let Some(compared) = self.scan_oracle {
                let by_scan = self.candidate_lists_by_scan(s);
                assert_eq!(lists, by_scan, "swarm {s} at {}", self.now);
                let listed = by_scan.iter().flat_map(|(_, c)| c).flatten().count();
                self.scan_oracle = Some(compared + listed);
            }
            for (pid, candidates) in lists {
                let i = pid.index();
                let Some(candidates) = candidates else {
                    self.swarms[s].member_mut(pid).unwrap().unchoked.clear();
                    continue;
                };
                // scores first (separate borrow of self.peers[i])
                let scores = crate::sweep::score_candidates(
                    &mut self.peers[i],
                    &policy,
                    ratio.as_ref(),
                    &candidates,
                    epoch,
                );
                let role = self.swarms[s].member(pid).unwrap().role();
                let dyn_policy: &dyn bartercast_bt::ChokePolicy = match ratio.as_ref() {
                    Some(r) => r,
                    None => &policy,
                };
                let member = self.swarms[s].member_mut(pid).unwrap();
                let unchoked = member.choker.unchoke(role, &candidates, dyn_policy, |q| {
                    scores
                        .get(&q)
                        .copied()
                        .unwrap_or(bartercast_bt::PeerScore::NEUTRAL)
                });
                member.unchoked = unchoked;
                // reset the rate window for the next period
                member.recv_last.clear();
                member.sent_last.clear();
            }
        }
    }

    /// Every member of swarm `s` in member order, each online one with
    /// its choke candidates: the other online members it can reach that
    /// want one of its pieces, by id, each with the member's rates to
    /// and from it over the last period. `None` marks an offline member.
    ///
    /// Nothing a list reads moves during the choke phase (only the
    /// transfer phase sets bits and rates), so one table of the swarm,
    /// sorted by id, serves every member's list.
    fn candidate_lists(&self, s: usize) -> Vec<(PeerId, Option<Vec<Candidate>>)> {
        let rows: Vec<Row> = self.swarms[s]
            .member_states()
            .map(|(id, member)| {
                let peer = &self.peers[id.index()];
                Row {
                    id,
                    online: peer.online,
                    connectable: peer.connectable,
                    member,
                }
            })
            .collect();
        let mut table = rows.clone();
        table.sort_unstable_by_key(|row| row.id);
        rows.iter()
            .map(|me| (me.id, me.online.then(|| me.candidates(&table))))
            .collect()
    }

    /// Allocate bandwidth and move bytes/pieces.
    fn transfer_phase(&mut self, dt: Seconds) {
        // 1. collect candidate flows from unchoke sets
        let mut flows: Vec<Flow> = Vec::new();
        let mut uploads_per_peer: Vec<u32> = vec![0; self.peers.len()];
        for s in 0..self.swarms.len() {
            let member_ids: Vec<PeerId> = self.swarms[s].members().collect();
            for &pid in &member_ids {
                let i = pid.index();
                if !self.peers[i].online {
                    continue;
                }
                let unchoked = self.swarms[s].member(pid).unwrap().unchoked.clone();
                for qid in unchoked {
                    let q = qid.index();
                    if !self.swarms[s].contains(qid) || !self.peers[q].online {
                        continue;
                    }
                    if !self.swarms[s].interested(qid, pid) {
                        continue;
                    }
                    flows.push(Flow {
                        up: i,
                        down: q,
                        swarm: s,
                        bytes: 0,
                    });
                    uploads_per_peer[i] += 1;
                }
            }
        }
        if flows.is_empty() {
            self.sample_speeds(dt, &FxHashMap::default());
            return;
        }
        // 2. uplink shares
        for f in flows.iter_mut() {
            let share = self.peers[f.up]
                .up_bw
                .split(uploads_per_peer[f.up] as usize);
            f.bytes = share.over(dt).0;
        }
        // 3. downlink caps (proportional scaling)
        let mut incoming: Vec<u64> = vec![0; self.peers.len()];
        for f in &flows {
            incoming[f.down] += f.bytes;
        }
        for f in flows.iter_mut() {
            let cap = self.peers[f.down].down_bw.over(dt).0;
            let total = incoming[f.down];
            if total > cap {
                f.bytes = ((f.bytes as u128 * cap as u128) / total as u128) as u64;
            }
        }
        // 4. apply flows: histories, graphs, rate windows, piece credit
        let mut received: FxHashMap<(usize, usize), (u64, Vec<PeerId>)> = FxHashMap::default();
        let mut speed_bytes: FxHashMap<usize, u64> = FxHashMap::default();
        for f in &flows {
            if f.bytes == 0 {
                continue;
            }
            let up_id = self.peers[f.up].id;
            let down_id = self.peers[f.down].id;
            let amount = Bytes(f.bytes);
            self.peers[f.up].note_upload(down_id, amount, self.now);
            self.peers[f.down].note_download(up_id, amount, self.now);
            {
                let m = self.swarms[f.swarm].member_mut(up_id).unwrap();
                *m.sent_last.entry(down_id).or_insert(0) += f.bytes;
            }
            {
                let m = self.swarms[f.swarm].member_mut(down_id).unwrap();
                *m.recv_last.entry(up_id).or_insert(0) += f.bytes;
            }
            let e = received.entry((f.down, f.swarm)).or_insert((0, Vec::new()));
            e.0 += f.bytes;
            e.1.push(up_id);
            *speed_bytes.entry(f.down).or_insert(0) += f.bytes;
        }
        // 4b. BarterCast partner exchanges: peers exchange messages
        // with peers they meet, and active transfer partners are met
        // continuously. This is what §3.4's "Nr most recently seen"
        // selection presumes, and it is what lets an evaluator learn
        // who uploaded to *its own* sources — the two-hop paths the
        // maxflow depends on.
        let mut exchange_pairs: Vec<(usize, usize)> = Vec::new();
        let interval = PARTNER_EXCHANGE_INTERVAL;
        for f in &flows {
            if f.bytes == 0 || f.up == f.down {
                continue;
            }
            let (a, b) = (f.up.min(f.down), f.up.max(f.down));
            let last = self.peers[a]
                .last_partner_exchange
                .get(&self.peers[b].id)
                .copied()
                .unwrap_or(Seconds::ZERO);
            if (last == Seconds::ZERO || self.now.saturating_sub(last) >= interval)
                && !exchange_pairs.contains(&(a, b))
            {
                exchange_pairs.push((a, b));
            }
        }
        let bc = self.config.bartercast;
        let lie_claim = match self.config.adversary {
            AdversaryModel::Lie { claim, .. } => claim,
            _ => Bytes::from_gb(100),
        };
        for (a, b) in exchange_pairs {
            let b_id = self.peers[b].id;
            let a_id = self.peers[a].id;
            self.peers[a].last_partner_exchange.insert(b_id, self.now);
            self.peers[b].last_partner_exchange.insert(a_id, self.now);
            self.meet(a, b, bc, lie_claim);
            self.meetings += 1;
        }
        // 5. convert credit to pieces, detect completions
        let mut completions: Vec<(usize, usize)> = Vec::new();
        for (&(d, s), &(bytes, ref providers)) in received.iter() {
            let pid = self.peers[d].id;
            let salt = self.rng.gen::<u64>() | 1;
            let done = self.swarms[s].credit_download_salted(pid, providers, Bytes(bytes), salt);
            self.pieces_transferred += done.len() as u64;
            if !done.is_empty() && self.swarms[s].member(pid).unwrap().bitfield.is_complete() {
                completions.push((d, s));
            }
        }
        for (d, s) in completions {
            let pid = self.peers[d].id;
            self.peers[d].completed.insert(s, self.now);
            self.swarm_stats[s].0 += 1;
            if let Some(started) = self.download_started.remove(&(d, s)) {
                self.swarm_stats[s].1 += self.now.saturating_sub(started).0;
            }
            match self.peers[d].behaviour {
                Behaviour::Freerider => {
                    // lazy freeriders leave the instant they finish
                    self.swarms[s].leave(pid);
                }
                Behaviour::Sharer => {
                    self.seeding_until.insert((d, s), self.now + SEED_TIME);
                }
            }
        }
        self.sample_speeds(dt, &speed_bytes);
    }

    /// Per-round speed samples for peers with an active download.
    fn sample_speeds(&mut self, dt: Seconds, speed_bytes: &FxHashMap<usize, u64>) {
        let t_days = self.now.as_days();
        for i in 0..self.peers.len() {
            if self.archival.contains(&i) || !self.peers[i].online {
                continue;
            }
            // actively leeching somewhere?
            let pid = self.peers[i].id;
            let leeching = self
                .swarms
                .iter()
                .any(|sw| sw.member(pid).is_some_and(|m| !m.bitfield.is_complete()));
            if !leeching {
                continue;
            }
            let bytes = speed_bytes.get(&i).copied().unwrap_or(0);
            let kbps = bytes as f64 / 1024.0 / dt.0 as f64;
            let freerider = self.peers[i].behaviour == Behaviour::Freerider;
            self.speed.push(freerider, t_days, kbps);
            if freerider {
                self.overall_speed_freeriders.push(kbps);
            } else {
                self.overall_speed_sharers.push(kbps);
            }
        }
    }

    /// Gossip meetings: PSS shuffle + BarterCast message exchange.
    fn gossip_phase(&mut self) {
        let lie_claim = match self.config.adversary {
            AdversaryModel::Lie { claim, .. } => claim,
            _ => Bytes::from_gb(100),
        };
        let bc = self.config.bartercast;
        for i in 0..self.peers.len() {
            if !self.peers[i].online || self.now < self.peers[i].next_gossip {
                continue;
            }
            // schedule next meeting with jitter
            let base = GOSSIP_INTERVAL.0;
            let jitter = self.rng.gen_range(0..=base / 2);
            self.peers[i].next_gossip = self.now + Seconds(base + jitter);
            // pick an online, reachable partner from the PSS view
            let mut partner: Option<usize> = None;
            for _ in 0..5 {
                if let Some(q) = self.peers[i].pss.sample(&mut self.rng) {
                    let j = q.index();
                    if j != i
                        && j < self.peers.len()
                        && self.peers[j].online
                        && self.connectable_pair(i, j)
                    {
                        partner = Some(j);
                        break;
                    }
                }
            }
            let Some(j) = partner else { continue };
            self.meetings += 1;
            self.meet(i, j, bc, lie_claim);
        }
    }

    /// One meeting between peers `i` and `j`.
    fn meet(
        &mut self,
        i: usize,
        j: usize,
        bc: bartercast_core::message::BarterCastConfig,
        lie_claim: Bytes,
    ) {
        // PSS shuffle (split borrow)
        debug_assert_ne!(i, j);
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        let (left, right) = self.peers.split_at_mut(hi);
        let (a, b) = (&mut left[lo], &mut right[0]);
        // age views so shuffle-merged fresh descriptors can evict old
        // ones — without this, views freeze at their bootstrap content
        a.pss.tick();
        b.pss.tick();
        shuffle(&mut a.pss, &mut b.pss, &mut self.rng);
        a.history.touch(b.id, self.now);
        b.history.touch(a.id, self.now);
        // message exchange, both directions, per conduct. A message
        // identical to the last one this recipient absorbed from the
        // same sender models a digest round concluding "in sync": the
        // records stay home (max-merge would make them no-ops anyway)
        // and only the suppression counter moves. Auditors still see
        // every message — the runtime's auditor sits on the receive
        // path, and repeats are part of what it audits.
        let msg_ab = a.outgoing_message(bc, lie_claim);
        let msg_ba = b.outgoing_message(bc, lie_claim);
        if let Some(m) = msg_ab {
            let hash = message_hash(&m);
            if b.auditor.is_none() && b.delivered_frontier.get(&a.id) == Some(&hash) {
                self.records_suppressed += m.records.len() as u64;
            } else {
                b.engine.absorb_message(&m);
                if let Some(aud) = b.auditor.as_mut() {
                    aud.ingest(&m);
                }
                b.delivered_frontier.insert(a.id, hash);
                self.messages_delivered += 1;
            }
        }
        if let Some(m) = msg_ba {
            let hash = message_hash(&m);
            if a.auditor.is_none() && a.delivered_frontier.get(&b.id) == Some(&hash) {
                self.records_suppressed += m.records.len() as u64;
            } else {
                a.engine.absorb_message(&m);
                if let Some(aud) = a.auditor.as_mut() {
                    aud.ingest(&m);
                }
                a.delivered_frontier.insert(b.id, hash);
                self.messages_delivered += 1;
            }
        }
    }

    /// Equation 2: the system reputation of peer `i` is the average of
    /// `R_j(i)` over all other (non-archival) peers `j`.
    fn sample_system_reputation(&mut self) {
        let t_days = self.now.as_days();
        let indices: Vec<usize> = (0..self.peers.len())
            .filter(|i| !self.archival.contains(i))
            .collect();
        let reputations = self.system_reputations(&indices);
        for (&i, &r) in indices.iter().zip(&reputations) {
            let freerider = self.peers[i].behaviour == Behaviour::Freerider;
            self.reputation.push(freerider, t_days, r);
        }
    }

    /// Compute Equation 2 for each target index (averaging over the
    /// same index set as evaluators).
    ///
    /// Each evaluator scores all targets through its engine's batch
    /// path (`reputations_from`): the deployed two-hop configuration
    /// computes every target's flows in one neighbourhood traversal;
    /// **unbounded** ablation configs have no sweep kernel and pay one
    /// maxflow pair per target.
    ///
    /// Evaluators are independent (each queries only its own engine),
    /// so large populations fan out over the work-stealing scheduler
    /// in [`crate::sweep`]; every schedule is bit-identical to the
    /// serial loop because threads only gather per-evaluator value
    /// vectors and the reduction runs afterwards in evaluator order.
    pub fn system_reputations(&mut self, indices: &[usize]) -> Vec<f64> {
        let denom = (indices.len().saturating_sub(1)).max(1) as f64;
        let schedule = crate::sweep::SweepSchedule::auto(indices.len());
        let sums = crate::sweep::system_reputation_sums(&mut self.peers, indices, schedule);
        sums.iter().map(|s| s / denom).collect()
    }

    fn connectable_pair(&self, i: usize, j: usize) -> bool {
        self.peers[i].connectable || self.peers[j].connectable
    }

    /// Final report.
    fn finish(mut self) -> SimReport {
        let indices: Vec<usize> = (0..self.peers.len())
            .filter(|i| !self.archival.contains(i))
            .collect();
        let reputations = self.system_reputations(&indices);
        let outcomes: Vec<PeerOutcome> = indices
            .iter()
            .zip(&reputations)
            .map(|(&i, &r)| {
                let p = &self.peers[i];
                PeerOutcome {
                    peer: p.id,
                    freerider: p.behaviour == Behaviour::Freerider,
                    net_contribution_gb: p.net_contribution() / (1024.0 * 1024.0 * 1024.0),
                    system_reputation: r,
                    downloaded_gb: p.real_down.as_gb(),
                    completions: p.completed.len(),
                }
            })
            .collect();
        let audit = self.config.audit.then(|| {
            // aggregate marks and cross-checked incident counts across
            // all peers' auditors; suspicion needs both volume and a
            // high marked/checked ratio (see `bartercast_core::audit`)
            let mut total_marks: FxHashMap<PeerId, u32> = FxHashMap::default();
            let mut total_checked: FxHashMap<PeerId, u32> = FxHashMap::default();
            for p in &self.peers {
                if let Some(aud) = &p.auditor {
                    for q in &self.peers {
                        let m = aud.marks(q.id);
                        if m > 0 {
                            *total_marks.entry(q.id).or_insert(0) += m;
                        }
                        let c = aud.checked(q.id);
                        if c > 0 {
                            *total_checked.entry(q.id).or_insert(0) += c;
                        }
                    }
                }
            }
            let suspects: Vec<PeerId> = {
                let mut v: Vec<PeerId> = total_marks
                    .iter()
                    .filter(|(&q, &m)| {
                        let checked = total_checked.get(&q).copied().unwrap_or(0).max(1);
                        m >= AUDIT_MIN_MARKS && m as f64 / checked as f64 >= 0.5
                    })
                    .map(|(&p, _)| p)
                    .collect();
                v.sort();
                v
            };
            let liars: Vec<PeerId> = self
                .peers
                .iter()
                .filter(|p| p.conduct == Conduct::Lying)
                .map(|p| p.id)
                .collect();
            let true_pos = suspects.iter().filter(|s| liars.contains(s)).count();
            crate::metrics::AuditOutcome {
                suspects: suspects.clone(),
                liar_count: liars.len(),
                precision: if suspects.is_empty() {
                    1.0
                } else {
                    true_pos as f64 / suspects.len() as f64
                },
                recall: if liars.is_empty() {
                    1.0
                } else {
                    true_pos as f64 / liars.len() as f64
                },
            }
        });
        let swarms: Vec<crate::metrics::SwarmOutcome> = self
            .swarm_stats
            .iter()
            .enumerate()
            .map(
                |(s, &(completions, total_secs, peak))| crate::metrics::SwarmOutcome {
                    swarm: s,
                    completions,
                    mean_completion_hours: if completions > 0 {
                        total_secs as f64 / completions as f64 / 3600.0
                    } else {
                        0.0
                    },
                    peak_members: peak,
                },
            )
            .collect();
        SimReport {
            horizon: self.trace.horizon,
            audit,
            swarms,
            speed: self.speed,
            reputation: self.reputation,
            outcomes,
            overall_speed_sharers: self.overall_speed_sharers.mean(),
            overall_speed_freeriders: self.overall_speed_freeriders.mean(),
            messages_delivered: self.messages_delivered,
            records_suppressed: self.records_suppressed,
            meetings: self.meetings,
            pieces_transferred: self.pieces_transferred,
        }
    }
}

/// The reference oracle for `candidate_lists`.
#[cfg(test)]
impl Simulation {
    /// The per-pair scan the member table replaced: for each online
    /// member, every other member tested through the peer and swarm
    /// lookups, then sorted by id.
    fn candidate_lists_by_scan(&self, s: usize) -> Vec<(PeerId, Option<Vec<Candidate>>)> {
        let member_ids: Vec<PeerId> = self.swarms[s].members().collect();
        member_ids
            .iter()
            .map(|&pid| {
                let i = pid.index();
                if !self.peers[i].online {
                    return (pid, None);
                }
                let mut candidates: Vec<Candidate> = Vec::new();
                for &qid in &member_ids {
                    let q = qid.index();
                    if qid == pid
                        || !self.peers[q].online
                        || !self.connectable_pair(i, q)
                        || !self.swarms[s].interested(qid, pid)
                    {
                        continue;
                    }
                    let m = self.swarms[s].member(pid).unwrap();
                    candidates.push(Candidate {
                        peer: qid,
                        rate_to_me: m.recv_last.get(&qid).copied().unwrap_or(0),
                        rate_from_me: m.sent_last.get(&qid).copied().unwrap_or(0),
                    });
                }
                candidates.sort_by_key(|c| c.peer);
                (pid, Some(candidates))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bartercast_core::policy::ReputationPolicy;
    use bartercast_trace::synth::{SynthConfig, TraceBuilder};
    use bartercast_util::units::Seconds;

    fn small_trace(seed: u64) -> Trace {
        TraceBuilder::new(SynthConfig {
            peers: 20,
            swarms: 3,
            horizon: Seconds::from_days(1),
            ..Default::default()
        })
        .build(seed)
    }

    fn small_config() -> SimConfig {
        SimConfig {
            seed: 7,
            round: Seconds(60),
            reputation_sample_interval: Seconds::from_hours(6),
            bt: bartercast_bt::BtConfig {
                regular_slots: 4,
                unchoke_period: Seconds(60),
                optimistic_period: Seconds(60),
            },
            ..Default::default()
        }
    }

    #[test]
    fn runs_to_horizon() {
        let sim = Simulation::new(small_trace(1), small_config());
        let report = sim.run();
        assert_eq!(report.horizon, Seconds::from_days(1));
        assert!(report.meetings > 0, "gossip must happen");
        assert!(report.messages_delivered > 0);
        assert!(report.pieces_transferred > 0, "data must move");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Simulation::new(small_trace(3), small_config()).run();
        let b = Simulation::new(small_trace(3), small_config()).run();
        assert_eq!(a.pieces_transferred, b.pieces_transferred);
        assert_eq!(a.messages_delivered, b.messages_delivered);
        assert_eq!(a.records_suppressed, b.records_suppressed);
        assert_eq!(a.overall_speed_sharers, b.overall_speed_sharers);
        let ra: Vec<f64> = a.outcomes.iter().map(|o| o.system_reputation).collect();
        let rb: Vec<f64> = b.outcomes.iter().map(|o| o.system_reputation).collect();
        assert_eq!(ra, rb);
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg2 = small_config();
        cfg2.seed = 8;
        let a = Simulation::new(small_trace(3), small_config()).run();
        let b = Simulation::new(small_trace(3), cfg2).run();
        // population split differs, so at minimum some outcome differs
        assert!(
            a.pieces_transferred != b.pieces_transferred
                || a.messages_delivered != b.messages_delivered
                || a.overall_speed_sharers != b.overall_speed_sharers
        );
    }

    #[test]
    fn ground_truth_transfers_are_symmetric() {
        let sim = Simulation::new(small_trace(5), small_config());
        let report = sim.run();
        // Every byte uploaded was downloaded by someone: totals match.
        let up: f64 = report.outcomes.iter().map(|o| o.net_contribution_gb).sum();
        // net contributions of non-archival peers don't sum to zero
        // (archival seeders upload), but total down >= |sum of negative|
        let down: f64 = report.outcomes.iter().map(|o| o.downloaded_gb).sum();
        assert!(down > 0.0);
        assert!(
            up <= 1e-9,
            "regular peers can't have net-positive total vs archival seeders: {up}"
        );
    }

    /// §5.1: a lazy freerider leaves a swarm the moment its download
    /// completes, so none is ever a member of a swarm it has finished.
    #[test]
    fn freeriders_do_not_seed() {
        let trace = small_trace(9);
        let horizon = trace.horizon;
        let mut sim = Simulation::new(trace, small_config());
        while sim.now() < horizon {
            sim.step();
        }
        let mut finished = 0;
        for p in sim.peers() {
            if p.behaviour == Behaviour::Freerider {
                for &s in p.completed.keys() {
                    finished += 1;
                    assert!(
                        !sim.swarms[s].contains(p.id),
                        "freerider {} still in swarm {s} after completing it",
                        p.id
                    );
                }
            }
        }
        assert!(finished > 0, "no freerider completed a download");
    }

    /// `bt.unchoke_period` paces the choke recompute: with a period of
    /// two rounds, no member's unchoke set moves on the odd rounds.
    #[test]
    fn unchoke_sets_change_only_on_period_boundaries() {
        let mut cfg = small_config();
        cfg.bt.unchoke_period = Seconds(2 * cfg.round.0);
        cfg.bt.optimistic_period = cfg.bt.unchoke_period;
        let period = cfg.bt.unchoke_period.0;
        let trace = small_trace(3);
        let horizon = trace.horizon;
        let mut sim = Simulation::new(trace, cfg);
        let unchoke_sets = |sim: &Simulation| {
            let mut sets = std::collections::BTreeMap::new();
            for (s, swarm) in sim.swarms.iter().enumerate() {
                for pid in swarm.members() {
                    sets.insert((s, pid), swarm.member(pid).unwrap().unchoked.clone());
                }
            }
            sets
        };
        let mut before = unchoke_sets(&sim);
        let mut boundary_changes = 0;
        while sim.now() < horizon {
            sim.step();
            let after = unchoke_sets(&sim);
            if sim.now().0.is_multiple_of(period) {
                boundary_changes += usize::from(after != before);
            } else {
                for (member, set) in &after {
                    if let Some(was) = before.get(member) {
                        assert_eq!(set, was, "{member:?} re-choked mid-period at {}", sim.now());
                    }
                }
            }
            before = after;
        }
        assert!(boundary_changes >= 10, "unchoke sets barely moved");
    }

    /// At every choke instant of a small rank run, the member table
    /// builds exactly the candidate lists the per-pair scan did.
    #[test]
    fn choke_table_matches_the_per_pair_scan() {
        let mut cfg = small_config();
        cfg.policy = ReputationPolicy::Rank;
        let trace = small_trace(3);
        let horizon = trace.horizon;
        let mut sim = Simulation::new(trace, cfg);
        sim.scan_oracle = Some(0);
        while sim.now() < horizon {
            sim.step();
        }
        let compared = sim.scan_oracle.unwrap();
        assert!(compared > 1_000, "only {compared} candidates compared");
    }

    #[test]
    fn adversary_fraction_capped_by_freeriders() {
        let mut cfg = small_config();
        cfg.adversary = AdversaryModel::Ignore { fraction: 0.5 };
        let sim = Simulation::new(small_trace(2), cfg);
        let silent = sim
            .peers()
            .iter()
            .filter(|p| p.conduct == Conduct::Silent)
            .count();
        let freeriders = sim
            .peers()
            .iter()
            .filter(|p| p.behaviour == Behaviour::Freerider)
            .count();
        assert!(silent <= freeriders);
        assert!(silent > 0);
        // all silent peers are freeriders
        for p in sim.peers() {
            if p.conduct == Conduct::Silent {
                assert_eq!(p.behaviour, Behaviour::Freerider);
            }
        }
    }

    #[test]
    fn ratio_policy_runs_and_suppresses_freeriders() {
        let mut cfg = small_config();
        cfg.ratio = Some(bartercast_bt::RatioPolicy {
            min_ratio: 0.3,
            // tight grace so the policy actually bites inside a 1-day run
            grace: bartercast_util::units::Bytes::from_mb(256),
        });
        cfg.validate();
        let gated = Simulation::new(small_trace(4), cfg.clone()).run();
        assert!(gated.pieces_transferred > 0, "swarm must still move data");
        // deterministic like every other policy
        let again = Simulation::new(small_trace(4), cfg).run();
        assert_eq!(gated.pieces_transferred, again.pieces_transferred);
        assert_eq!(
            gated.overall_speed_freeriders,
            again.overall_speed_freeriders
        );
        // qualitative: ratio enforcement must not *help* freeriders
        // relative to the plain tit-for-tat baseline
        let baseline = Simulation::new(small_trace(4), small_config()).run();
        assert!(
            gated.overall_speed_freeriders <= baseline.overall_speed_freeriders + 1e-9,
            "ratio gating made freeriders faster: {} vs baseline {}",
            gated.overall_speed_freeriders,
            baseline.overall_speed_freeriders
        );
    }

    #[test]
    fn unbounded_config_runs_to_horizon() {
        // ablation config: exact per-pair Dinic for every Equation-2
        // sweep; the run must complete and stay bit-reproducible
        // across identical seeds
        let mut cfg = small_config();
        cfg.maxflow = bartercast_graph::maxflow::Method::Dinic;
        let a = Simulation::new(small_trace(11), cfg.clone()).run();
        let b = Simulation::new(small_trace(11), cfg).run();
        assert!(a.pieces_transferred > 0);
        assert!(!a.outcomes.is_empty());
        let ra: Vec<f64> = a.outcomes.iter().map(|o| o.system_reputation).collect();
        let rb: Vec<f64> = b.outcomes.iter().map(|o| o.system_reputation).collect();
        assert_eq!(ra, rb);
    }

    #[test]
    fn ban_policy_runs() {
        let mut cfg = small_config();
        cfg.policy = ReputationPolicy::Ban { delta: -0.5 };
        let report = Simulation::new(small_trace(4), cfg).run();
        assert!(report.pieces_transferred > 0);
    }

    #[test]
    fn rank_policy_runs() {
        let mut cfg = small_config();
        cfg.policy = ReputationPolicy::Rank;
        let report = Simulation::new(small_trace(4), cfg).run();
        assert!(report.pieces_transferred > 0);
    }

    #[test]
    fn outcomes_cover_non_archival_peers() {
        let trace = small_trace(6);
        let n = trace.peer_count();
        let archival = trace.swarm_count(); // initial seeders
        let report = Simulation::new(trace, small_config()).run();
        assert_eq!(report.outcomes.len(), n - archival);
    }

    #[test]
    fn auditing_detects_liars_with_high_precision() {
        let mut cfg = small_config();
        cfg.adversary = AdversaryModel::Lie {
            fraction: 0.3,
            claim: bartercast_util::units::Bytes::from_gb(100),
        };
        cfg.audit = true;
        let report = Simulation::new(small_trace(12), cfg).run();
        let audit = report.audit.expect("auditing enabled");
        assert!(audit.liar_count > 0);
        assert!(
            audit.recall > 0.5,
            "most liars must be flagged: recall {}",
            audit.recall
        );
        assert!(
            audit.precision > 0.5,
            "flags must mostly be correct: precision {}",
            audit.precision
        );
    }

    #[test]
    fn auditing_stays_quiet_without_liars() {
        let mut cfg = small_config();
        cfg.audit = true;
        let report = Simulation::new(small_trace(13), cfg).run();
        let audit = report.audit.expect("auditing enabled");
        assert_eq!(audit.liar_count, 0);
        assert!(
            audit.suspects.is_empty(),
            "honest runs must not flag anyone: {:?}",
            audit.suspects
        );
    }

    #[test]
    fn swarm_stats_are_collected() {
        let report = Simulation::new(small_trace(14), small_config()).run();
        assert_eq!(report.swarms.len(), 3);
        let total_completions: usize = report.swarms.iter().map(|s| s.completions).sum();
        let outcome_completions: usize = report.outcomes.iter().map(|o| o.completions).sum();
        assert_eq!(
            total_completions, outcome_completions,
            "per-swarm and per-peer completion counts must agree"
        );
        for s in &report.swarms {
            // the archival seeder alone gives every swarm peak >= 1
            assert!(s.peak_members >= 1, "swarm {} never had members", s.swarm);
            if s.completions > 0 {
                assert!(s.mean_completion_hours > 0.0);
            }
        }
    }

    #[test]
    fn reputations_bounded() {
        let report = Simulation::new(small_trace(8), small_config()).run();
        for o in &report.outcomes {
            assert!(o.system_reputation > -1.0 && o.system_reputation < 1.0);
        }
    }
}
