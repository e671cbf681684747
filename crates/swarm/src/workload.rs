//! The BitTorrent-style piece-transfer workload over the reactor.
//!
//! [`SwarmWorkload`] implements the reactor's
//! [`Workload`] hook: it keeps the node's
//! bitfield, a per-peer protocol view, and the shared
//! [`Choker`], and answers frames and choke
//! rounds with batched [`WorkloadIo`] output. Completed piece
//! transfers are the **only** writes into the node's BarterCast state:
//! the uploader calls
//! [`NodeState::record_piece_upload`](bartercast_node::NodeState::record_piece_upload)
//! at send time, the downloader
//! [`record_piece_download`](bartercast_node::NodeState::record_piece_download)
//! at receipt, and the reactor's existing gossip spreads the resulting
//! history records over the wire. Each choke round then reads the
//! *live* engine back — Equation-1 reputations and graph totals feed
//! the [`ChokePolicy`] in use — closing
//! the loop the trace simulator can only approximate.
//!
//! ## Loss robustness
//!
//! Every frame can be dropped by the transport, so no state transition
//! may depend on exactly-once delivery:
//!
//! * `Unchoke` is re-sent every round to every unchoked peer (and
//!   receiving a `Piece` implies the sender unchoked us);
//! * pending requests time out after a few rounds and the piece
//!   becomes requestable again;
//! * the full bitfield is re-advertised periodically, bounding how
//!   long a lost `Have` can misrepresent interest.
//!
//! ## Scarcity model
//!
//! A choke policy can only suppress freeriders when upload capacity
//! is contended. Three knobs create that contention: the leecher
//! upload budget sits below the unchoke slot count (the policy's
//! ordering decides who eats the shortfall), the seeder budget sits
//! *above* it (content injection must outpace replication, or every
//! node's surplus capacity drains to the freeriders — the only peers
//! who always want something), and leechers top their request
//! pipelines up with bounded duplicate requests (cancelled on first
//! arrival) so the policy-ordered budget sweep always has reputable
//! demand to prefer. Reputation policies act at leechers only: a
//! pure seeder is a flow sink where every Equation-1 reputation is
//! negative and sinking, so seeders fall back to §4.1 round-robin
//! (the ratio policy, whose signal is role-independent, applies at
//! both roles).
//!
//! ## Determinism
//!
//! The workload holds no RNG. Piece selection is rarest-first with a
//! per-node *deterministic* tie-break (a hash of piece index and node
//! id) over the deterministic view state; serve order rotates by
//! round number over the id-ordered peer map; the optimistic-unchoke
//! rotation lives in the shared `Choker`. Driven on virtual time, two
//! identical runs make identical decisions.

use crate::config::{PeerBehaviour, SwarmParams, SwarmPolicy};
use crate::ledger::SwarmLedger;
use bartercast_bt::bitfield::iter_ones;
use bartercast_bt::choke::{Candidate, PeerScore};
use bartercast_bt::{picker, Bitfield, ChokePolicy, Choker, Role};
use bartercast_core::policy::ReputationPolicy;
use bartercast_node::wire::{bit_set, pack_bits};
use bartercast_node::{NodeState, SwarmFrame, Workload, WorkloadIo};
use bartercast_util::units::{Bytes, PeerId, Seconds};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

/// Cap on queued inbound requests per peer; beyond it requests are
/// dropped (the requester re-requests after its timeout).
const REQUEST_QUEUE_CAP: usize = 64;

/// Piece uploads served per choke round by a node holding the complete
/// content. Kept *above* the leecher budget: the seeder's injection
/// rate bounds aggregate cooperator demand, and when injection is the
/// bottleneck every node's surplus capacity drains to the freeriders
/// (the only peers who always want something) no matter how the policy
/// orders them (DESIGN.md, "Scarcity model").
const SEED_UPLOAD_PIECES_PER_ROUND: usize = 3;

/// Re-advertise the full bitfield every this many rounds so lost
/// `Have` frames cannot starve interest tracking forever (see "Loss
/// robustness" above).
const BITFIELD_REFRESH_ROUNDS: u64 = 8;

/// What this node believes about one connected peer.
#[derive(Debug)]
struct PeerView {
    /// Their advertised pieces.
    have: Bitfield,
    /// We granted them an upload slot last round.
    we_unchoke: bool,
    /// They granted us one (set by `Unchoke` or any `Piece`).
    they_unchoke: bool,
    /// Our outstanding requests to them: piece -> round sent.
    pending: BTreeMap<u32, u64>,
    /// Their outstanding requests to us, in arrival order.
    queued: VecDeque<u32>,
    /// Exponentially-decayed bytes they delivered to us (halved every
    /// choke round; the tit-for-tat rate key).
    recv_window: u64,
    /// Exponentially-decayed bytes we served them.
    sent_window: u64,
}

impl PeerView {
    fn new(piece_count: usize) -> Self {
        PeerView {
            have: Bitfield::new(piece_count),
            we_unchoke: false,
            they_unchoke: false,
            pending: BTreeMap::new(),
            queued: VecDeque::new(),
            recv_window: 0,
            sent_window: 0,
        }
    }
}

/// The piece-transfer workload attached to one reactor.
pub struct SwarmWorkload {
    me: PeerId,
    params: SwarmParams,
    have: Bitfield,
    peers: BTreeMap<PeerId, PeerView>,
    /// Per piece, how many views advertise it (rarest-first key) —
    /// kept in step with every change to a view's `have`.
    availability: Vec<u32>,
    /// Per piece, how many views we have it requested from — kept in
    /// step with every change to a view's `pending`.
    inflight: Vec<u32>,
    choker: Choker,
    round: u64,
    bootstrap: Vec<PeerId>,
    ledger: Arc<Mutex<SwarmLedger>>,
    /// Route `refill_requests` through the per-request reference scan
    /// (the oracle twin of the equivalence test).
    #[cfg(test)]
    reference_refill: bool,
}

impl SwarmWorkload {
    /// Build a workload for `me`. `bootstrap` are the peers dialed at
    /// start (and re-dialed while missing); the shared `ledger`
    /// records ground truth for the harness.
    pub fn new(
        me: PeerId,
        params: SwarmParams,
        bootstrap: Vec<PeerId>,
        ledger: Arc<Mutex<SwarmLedger>>,
    ) -> Self {
        params.validate();
        let have = if params.seed_initial {
            Bitfield::full(params.piece_count)
        } else {
            Bitfield::new(params.piece_count)
        };
        SwarmWorkload {
            me,
            choker: Choker::new(params.bt),
            have,
            peers: BTreeMap::new(),
            availability: vec![0; params.piece_count],
            inflight: vec![0; params.piece_count],
            round: 0,
            bootstrap,
            params,
            ledger,
            #[cfg(test)]
            reference_refill: false,
        }
    }

    fn freerider(&self) -> bool {
        self.params.behaviour == PeerBehaviour::Freerider
    }

    /// Our bitfield advert. Freeriders hide their pieces: an empty
    /// advert means nobody queues requests a freerider would ignore.
    fn bitfield_frame(&self) -> SwarmFrame {
        let hide = self.freerider();
        let n = self.params.piece_count;
        SwarmFrame::Bitfield {
            piece_count: n as u32,
            bits: pack_bits(n, |i| !hide && self.have.has(i)),
        }
    }

    /// Deterministic per-node tie-break among equally-rare pieces
    /// (splitmix-style hash of piece index and node id). Without it
    /// every leecher would chase the lowest index, all piece sets
    /// would stay identical, and no leecher would ever have anything
    /// to trade — the tie-break spreads symmetric peers across
    /// distinct pieces while staying a pure function of the inputs.
    fn tie_break(&self, i: usize) -> u64 {
        let mut x = ((i as u64) << 32) ^ (self.me.0 as u64) ^ 0x9e37_79b9_7f4a_7c15;
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Forget the contribution of a view that has left the peer map to
    /// the per-piece counters.
    fn uncount(&mut self, view: &PeerView) {
        for i in view.have.iter_set() {
            self.availability[i] -= 1;
        }
        for &piece in view.pending.keys() {
            self.inflight[piece as usize] -= 1;
        }
    }

    /// Recount `availability` and `inflight` from the views and compare.
    #[cfg(test)]
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.params.piece_count;
        let (mut availability, mut inflight) = (vec![0u32; n], vec![0u32; n]);
        for view in self.peers.values() {
            for i in view.have.iter_set() {
                availability[i] += 1;
            }
            for &piece in view.pending.keys() {
                inflight[piece as usize] += 1;
            }
        }
        if availability != self.availability {
            return Err("availability counters out of sync".into());
        }
        if inflight != self.inflight {
            return Err("inflight counters out of sync".into());
        }
        Ok(())
    }

    /// Top up the request pipeline to `peer` with rarest-first picks.
    ///
    /// Preferred picks are pieces nobody is already fetching; when
    /// those run out the pipeline tops up with *duplicate* requests
    /// (a piece already pending at one other peer), cancelled on
    /// first arrival via [`SwarmFrame::Cancel`]. Without duplication
    /// a leecher's outstanding requests spread so thin across its
    /// upload slots that serve-time queues sit empty, and the
    /// policy-ordered budget has nothing to prefer — persistent
    /// demand at every unchoking peer is what lets strict priority
    /// actually starve the low-ranked.
    ///
    /// Each pass is one [`picker::rarest`] call: a pick only changes
    /// the picked piece's `inflight`, and that piece is then pending
    /// here and out of the candidate set.
    fn refill_requests(&mut self, peer: PeerId, io: &mut WorkloadIo) {
        #[cfg(test)]
        if self.reference_refill {
            return self.refill_requests_reference(peer, io);
        }
        for max_copies in [0u32, 1] {
            let Some(view) = self.peers.get(&peer) else {
                return;
            };
            if !view.they_unchoke || view.pending.len() >= self.params.pipeline {
                return;
            }
            let room = self.params.pipeline - view.pending.len();
            let wanted = self.have.wanted_from([&view.have]);
            let candidates = iter_ones(&wanted).filter(|&i| {
                self.inflight[i] <= max_copies && !view.pending.contains_key(&(i as u32))
            });
            let picks = picker::rarest(candidates, room, |i| {
                (self.availability[i], self.tie_break(i))
            });
            let round = self.round;
            let view = self.peers.get_mut(&peer).expect("view exists");
            for piece in picks {
                view.pending.insert(piece as u32, round);
                self.inflight[piece] += 1;
                io.send(
                    peer,
                    SwarmFrame::Request {
                        piece: piece as u32,
                    },
                );
            }
        }
    }

    /// Handle a completed piece arriving from `peer`.
    fn on_piece(
        &mut self,
        peer: PeerId,
        piece: u32,
        size: u64,
        now: Seconds,
        state: &mut NodeState,
        io: &mut WorkloadIo,
    ) {
        if piece as usize >= self.params.piece_count {
            return;
        }
        {
            let Some(view) = self.peers.get_mut(&peer) else {
                return;
            };
            // data implies an upload slot, even if the Unchoke was lost
            view.they_unchoke = true;
            if view.pending.remove(&piece).is_some() {
                self.inflight[piece as usize] -= 1;
            }
            view.recv_window += size;
        }
        if self.have.set(piece as usize) {
            // first copy of this piece: withdraw any duplicate
            // requests still pending elsewhere, then account it in
            // the BarterCast state (the sole source of contribution
            // edges) and the ground-truth ledger
            let stale: Vec<PeerId> = self
                .peers
                .iter()
                .filter(|(&q, v)| q != peer && v.pending.contains_key(&piece))
                .map(|(&q, _)| q)
                .collect();
            for q in stale {
                self.peers
                    .get_mut(&q)
                    .expect("view exists")
                    .pending
                    .remove(&piece);
                self.inflight[piece as usize] -= 1;
                io.send(q, SwarmFrame::Cancel { piece });
            }
            state.record_piece_download(peer, Bytes(size), now);
            let mut ledger = self.ledger.lock().expect("ledger lock");
            ledger.record_receipt(peer, self.me, Bytes(size));
            if self.have.is_complete() {
                ledger.record_completion(self.me, self.round);
            }
            drop(ledger);
            if !self.freerider() {
                let targets: Vec<PeerId> = self.peers.keys().copied().collect();
                for q in targets {
                    io.send(q, SwarmFrame::Have { piece });
                }
            }
        }
        self.refill_requests(peer, io);
    }

    /// The live engine's view of `peers`, as the choke policies
    /// consume it: Equation-1 reputations (all from one single-source
    /// sweep) plus the subjective graph's lifetime transfer totals.
    fn peer_scores(&self, state: &mut NodeState, peers: &[PeerId]) -> BTreeMap<PeerId, PeerScore> {
        let reputations = state.reputations_from(self.me, peers);
        let graph = state.engine().graph();
        let mut scores = BTreeMap::new();
        for (&peer, reputation) in peers.iter().zip(reputations) {
            let score = PeerScore {
                reputation,
                up: graph.total_up(peer),
                down: graph.total_down(peer),
            };
            scores.insert(peer, score);
        }
        scores
    }

    /// Serve queued requests from last round's unchoke set, up to the
    /// per-round upload budget.
    ///
    /// The budget sweep order is where upload *scarcity* meets the
    /// live engine: a leecher lets the policy order the unchoked
    /// peers ([`ChokePolicy::order_candidates`] — rank puts high
    /// reputations first, so freeriders only collect what is left
    /// after reputable peers' requests are drained), while a seeder
    /// keeps the plain round-rotated order — a pure seeder's
    /// Equation-1 view is uniformly negative (nothing ever flows
    /// *toward* it), so reputation ordering carries no signal there
    /// and §4.1 round-robin seeding applies instead.
    fn serve_requests(&mut self, now: Seconds, state: &mut NodeState, io: &mut WorkloadIo) {
        if self.freerider() {
            return;
        }
        let seeding = self.have.is_complete();
        let mut budget = if seeding {
            SEED_UPLOAD_PIECES_PER_ROUND
        } else {
            self.params.upload_pieces_per_round
        };
        let mut order: Vec<PeerId> = self
            .peers
            .iter()
            .filter(|(_, v)| v.we_unchoke && !v.queued.is_empty())
            .map(|(&p, _)| p)
            .collect();
        if order.is_empty() {
            return;
        }
        let offset = (self.round as usize) % order.len();
        order.rotate_left(offset);
        if !seeding {
            let scores = self.peer_scores(state, &order);
            order = self
                .params
                .policy
                .as_dyn()
                .order_candidates(&order, &mut |q| {
                    scores.get(&q).copied().unwrap_or(PeerScore::NEUTRAL)
                });
        }
        while budget > 0 {
            let mut any = false;
            for &peer in &order {
                // a leecher drains each preferred peer's queue before
                // conceding budget down the order (strict priority —
                // a low-ranked peer only eats budget the preferred
                // peers left on the table); a seeder spreads one
                // piece per peer per sweep
                while budget > 0 {
                    let Some(view) = self.peers.get_mut(&peer) else {
                        break;
                    };
                    let Some(piece) = view.queued.pop_front() else {
                        break;
                    };
                    if !self.have.has(piece as usize) {
                        continue;
                    }
                    let size = self.params.piece_size;
                    view.sent_window += size.0;
                    state.record_piece_upload(peer, size, now);
                    self.ledger
                        .lock()
                        .expect("ledger lock")
                        .record_serve(self.me, peer, size);
                    io.send(
                        peer,
                        SwarmFrame::Piece {
                            piece,
                            size: size.0,
                        },
                    );
                    budget -= 1;
                    any = true;
                    if seeding {
                        break;
                    }
                }
                if budget == 0 {
                    break;
                }
            }
            if !any {
                break;
            }
        }
    }

    /// Recompute the unchoke set through the live reputation engine
    /// and notify peers of slot changes.
    fn recompute_unchokes(&mut self, state: &mut NodeState, io: &mut WorkloadIo) {
        let unchoked: Vec<PeerId> = if self.freerider() {
            Vec::new() // lazy freeriders never grant slots
        } else {
            let candidates: Vec<Candidate> = self
                .peers
                .iter()
                .filter(|(_, v)| v.have.interested_in(&self.have))
                .map(|(&p, v)| Candidate {
                    peer: p,
                    rate_to_me: v.recv_window,
                    rate_from_me: v.sent_window,
                })
                .collect();
            let peers: Vec<PeerId> = candidates.iter().map(|c| c.peer).collect();
            let graph_totals = self.peer_scores(state, &peers);
            let role = if self.have.is_complete() {
                Role::Seeder
            } else {
                Role::Leecher
            };
            // Equation-1 policies act where reciprocity exists — at
            // leechers. A complete node is a pure flow sink: nothing
            // ever flows *toward* it, so every reputation it computes
            // is negative and sinking — rank would prefer whoever it
            // served least and ban would eventually refuse the entire
            // swarm, stalling content injection. Seeders therefore
            // fall back to §4.1 round-robin. The ratio policy keeps
            // applying at both roles: its signal (gossip-derived
            // global up/down totals) does not depend on flows toward
            // the evaluator.
            let policy: &dyn ChokePolicy = match (&role, &self.params.policy) {
                (Role::Seeder, SwarmPolicy::Reputation(_)) => &ReputationPolicy::None,
                _ => self.params.policy.as_dyn(),
            };
            self.choker.unchoke(role, &candidates, policy, |q| {
                graph_totals.get(&q).copied().unwrap_or(PeerScore::NEUTRAL)
            })
        };
        for (&peer, view) in self.peers.iter_mut() {
            let grant = unchoked.contains(&peer);
            if grant {
                // re-sent every round: a lost Unchoke must not starve
                // the peer for a whole optimistic period
                io.send(peer, SwarmFrame::Unchoke);
            } else if view.we_unchoke {
                io.send(peer, SwarmFrame::Choke);
                view.queued.clear();
            }
            view.we_unchoke = grant;
        }
    }
}

impl Workload for SwarmWorkload {
    fn on_start(&mut self, _now: Seconds, _state: &mut NodeState, io: &mut WorkloadIo) {
        for &peer in &self.bootstrap {
            io.dial(peer);
        }
    }

    fn on_established(
        &mut self,
        peer: PeerId,
        _now: Seconds,
        _state: &mut NodeState,
        io: &mut WorkloadIo,
    ) {
        let fresh = PeerView::new(self.params.piece_count);
        if let Some(old) = self.peers.insert(peer, fresh) {
            self.uncount(&old);
        }
        io.send(peer, self.bitfield_frame());
    }

    fn on_closed(
        &mut self,
        peer: PeerId,
        _now: Seconds,
        _state: &mut NodeState,
        _io: &mut WorkloadIo,
    ) {
        // pending requests die with the view; their pieces become
        // requestable from someone else immediately
        if let Some(view) = self.peers.remove(&peer) {
            self.uncount(&view);
        }
    }

    fn on_frame(
        &mut self,
        peer: PeerId,
        frame: SwarmFrame,
        now: Seconds,
        state: &mut NodeState,
        io: &mut WorkloadIo,
    ) {
        match frame {
            SwarmFrame::Bitfield { piece_count, bits } => {
                if piece_count as usize == self.params.piece_count {
                    if let Some(view) = self.peers.get_mut(&peer) {
                        let mut have = Bitfield::new(piece_count as usize);
                        for i in 0..piece_count as usize {
                            if bit_set(&bits, i) {
                                have.set(i);
                            }
                        }
                        for i in view.have.iter_set() {
                            self.availability[i] -= 1;
                        }
                        for i in have.iter_set() {
                            self.availability[i] += 1;
                        }
                        view.have = have;
                    }
                    self.refill_requests(peer, io);
                }
            }
            SwarmFrame::Have { piece } => {
                if (piece as usize) < self.params.piece_count {
                    if let Some(view) = self.peers.get_mut(&peer) {
                        if view.have.set(piece as usize) {
                            self.availability[piece as usize] += 1;
                        }
                    }
                    self.refill_requests(peer, io);
                }
            }
            SwarmFrame::Request { piece } => {
                if self.freerider() || (piece as usize) >= self.params.piece_count {
                    return;
                }
                if !self.have.has(piece as usize) {
                    return;
                }
                if let Some(view) = self.peers.get_mut(&peer) {
                    if view.we_unchoke
                        && view.queued.len() < REQUEST_QUEUE_CAP
                        && !view.queued.contains(&piece)
                    {
                        view.queued.push_back(piece);
                    }
                }
            }
            SwarmFrame::Piece { piece, size } => {
                self.on_piece(peer, piece, size, now, state, io);
            }
            SwarmFrame::Choke => {
                if let Some(view) = self.peers.get_mut(&peer) {
                    view.they_unchoke = false;
                    // outstanding requests will never be served;
                    // release the pieces for other peers
                    for &piece in view.pending.keys() {
                        self.inflight[piece as usize] -= 1;
                    }
                    view.pending.clear();
                }
            }
            SwarmFrame::Cancel { piece } => {
                if let Some(view) = self.peers.get_mut(&peer) {
                    view.queued.retain(|&q| q != piece);
                }
            }
            SwarmFrame::Unchoke => {
                if let Some(view) = self.peers.get_mut(&peer) {
                    view.they_unchoke = true;
                }
                self.refill_requests(peer, io);
            }
        }
    }

    fn on_choke_round(&mut self, now: Seconds, state: &mut NodeState, io: &mut WorkloadIo) {
        self.round += 1;
        // expire stale requests so lost Request/Piece frames recover
        let timeout = self.params.request_timeout_rounds;
        let round = self.round;
        for view in self.peers.values_mut() {
            view.pending.retain(|&piece, sent| {
                let keep = round - *sent < timeout;
                if !keep {
                    self.inflight[piece as usize] -= 1;
                }
                keep
            });
        }
        // serve last round's grants, then reassign slots from the live
        // reputation engine
        self.serve_requests(now, state, io);
        self.recompute_unchokes(state, io);
        for view in self.peers.values_mut() {
            // decay rather than reset: with a scarce upload budget a
            // given pair rarely exchanges twice in one round, and a
            // hard reset would leave almost every tit-for-tat rate at
            // zero — reciprocation history has to outlive the round
            // for the rate ranking to mean anything
            view.recv_window /= 2;
            view.sent_window /= 2;
        }
        // refill pipelines after the timeout sweep
        let targets: Vec<PeerId> = self.peers.keys().copied().collect();
        for peer in &targets {
            self.refill_requests(*peer, io);
        }
        // periodic loss repair: re-advertise the bitfield and re-dial
        // bootstrap peers we lost
        if self.round.is_multiple_of(BITFIELD_REFRESH_ROUNDS) {
            for &peer in &targets {
                io.send(peer, self.bitfield_frame());
            }
            for &peer in &self.bootstrap {
                if peer != self.me && !self.peers.contains_key(&peer) {
                    io.dial(peer);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SwarmPolicy;
    use bartercast_core::policy::ReputationPolicy;
    use bartercast_core::{PrivateHistory, ReputationEngine};

    fn state_for(me: PeerId) -> NodeState {
        let history = PrivateHistory::new(me);
        let engine = ReputationEngine::from_private(&history);
        NodeState::new(history, engine)
    }

    fn params(seed_initial: bool, behaviour: PeerBehaviour) -> SwarmParams {
        SwarmParams {
            piece_count: 8,
            piece_size: Bytes::from_kb(16),
            seed_initial,
            behaviour,
            policy: SwarmPolicy::Reputation(ReputationPolicy::None),
            ..SwarmParams::default()
        }
    }

    fn ledger() -> Arc<Mutex<SwarmLedger>> {
        Arc::new(Mutex::new(SwarmLedger::default()))
    }

    /// The picker `refill_requests` replaced, kept as its oracle: one
    /// full scan of the file per request, availability and in-flight
    /// copies recounted from the views each time.
    impl SwarmWorkload {
        fn availability_scan(&self, i: usize) -> usize {
            self.peers.values().filter(|v| v.have.has(i)).count()
        }

        fn inflight_scan(&self, piece: u32) -> usize {
            self.peers
                .values()
                .filter(|v| v.pending.contains_key(&piece))
                .count()
        }

        pub(super) fn refill_requests_reference(&mut self, peer: PeerId, io: &mut WorkloadIo) {
            for max_copies in [0usize, 1] {
                loop {
                    let Some(view) = self.peers.get(&peer) else {
                        return;
                    };
                    if !view.they_unchoke || view.pending.len() >= self.params.pipeline {
                        return;
                    }
                    let pick = (0..self.params.piece_count)
                        .filter(|&i| !self.have.has(i))
                        .filter(|&i| view.have.has(i))
                        .filter(|&i| !view.pending.contains_key(&(i as u32)))
                        .filter(|&i| self.inflight_scan(i as u32) <= max_copies)
                        .min_by_key(|&i| (self.availability_scan(i), self.tie_break(i), i));
                    let Some(piece) = pick else { break };
                    let round = self.round;
                    self.peers
                        .get_mut(&peer)
                        .expect("view exists")
                        .pending
                        .insert(piece as u32, round);
                    // the handlers this twin shares keep the counters
                    self.inflight[piece] += 1;
                    io.send(
                        peer,
                        SwarmFrame::Request {
                            piece: piece as u32,
                        },
                    );
                }
            }
        }
    }

    #[test]
    fn establishes_advertises_and_requests() {
        let me = PeerId(1);
        let seeder = PeerId(0);
        let mut w = SwarmWorkload::new(
            me,
            params(false, PeerBehaviour::Cooperator),
            vec![seeder],
            ledger(),
        );
        let mut state = state_for(me);
        let mut io = WorkloadIo::default();
        w.on_start(Seconds(0), &mut state, &mut io);
        assert_eq!(io.dials, vec![seeder]);

        let mut io = WorkloadIo::default();
        w.on_established(seeder, Seconds(0), &mut state, &mut io);
        assert!(matches!(io.frames[0].1, SwarmFrame::Bitfield { .. }));

        // seeder's full bitfield arrives; no requests yet (choked)
        let full = SwarmFrame::Bitfield {
            piece_count: 8,
            bits: pack_bits(8, |_| true),
        };
        let mut io = WorkloadIo::default();
        w.on_frame(seeder, full, Seconds(1), &mut state, &mut io);
        assert!(io.frames.is_empty(), "must not request while choked");

        // unchoke fills the pipeline
        let mut io = WorkloadIo::default();
        w.on_frame(seeder, SwarmFrame::Unchoke, Seconds(1), &mut state, &mut io);
        let requests = io
            .frames
            .iter()
            .filter(|(p, f)| *p == seeder && matches!(f, SwarmFrame::Request { .. }))
            .count();
        assert_eq!(requests, w.params.pipeline);
    }

    #[test]
    fn piece_receipt_records_history_and_rerequests() {
        let me = PeerId(1);
        let seeder = PeerId(0);
        let shared = ledger();
        let mut w = SwarmWorkload::new(
            me,
            params(false, PeerBehaviour::Cooperator),
            vec![seeder],
            Arc::clone(&shared),
        );
        let mut state = state_for(me);
        let mut io = WorkloadIo::default();
        w.on_established(seeder, Seconds(0), &mut state, &mut io);
        w.on_frame(
            seeder,
            SwarmFrame::Bitfield {
                piece_count: 8,
                bits: pack_bits(8, |_| true),
            },
            Seconds(0),
            &mut state,
            &mut io,
        );
        let mut io = WorkloadIo::default();
        w.on_frame(seeder, SwarmFrame::Unchoke, Seconds(0), &mut state, &mut io);
        let first = io
            .frames
            .iter()
            .find_map(|(_, f)| match f {
                SwarmFrame::Request { piece } => Some(*piece),
                _ => None,
            })
            .expect("a request");

        let mut io = WorkloadIo::default();
        let size = Bytes::from_kb(16).0;
        w.on_frame(
            seeder,
            SwarmFrame::Piece { piece: first, size },
            Seconds(2),
            &mut state,
            &mut io,
        );
        assert!(w.have.has(first as usize));
        // history took the download, with piece provenance
        assert_eq!(state.history().get(seeder).unwrap().down, Bytes(size));
        assert!(state.history().all_from_pieces());
        // ledger matched
        assert_eq!(shared.lock().unwrap().progress_of(me).pieces, 1);
        // Have broadcast + pipeline refilled
        assert!(io
            .frames
            .iter()
            .any(|(_, f)| matches!(f, SwarmFrame::Have { piece } if *piece == first)));
        assert!(io
            .frames
            .iter()
            .any(|(_, f)| matches!(f, SwarmFrame::Request { .. })));
    }

    #[test]
    fn freerider_never_serves_and_hides_pieces() {
        let me = PeerId(2);
        let other = PeerId(1);
        let mut w = SwarmWorkload::new(
            me,
            params(true, PeerBehaviour::Freerider),
            vec![other],
            ledger(),
        );
        let mut state = state_for(me);
        let mut io = WorkloadIo::default();
        w.on_established(other, Seconds(0), &mut state, &mut io);
        // advert is empty despite a full bitfield
        match &io.frames[0].1 {
            SwarmFrame::Bitfield { bits, .. } => {
                assert!(bits.iter().all(|&b| b == 0), "freerider must hide pieces")
            }
            f => panic!("expected bitfield, got {f:?}"),
        }
        // a request is ignored even though we hold the piece
        let mut io = WorkloadIo::default();
        w.on_frame(
            other,
            SwarmFrame::Request { piece: 0 },
            Seconds(1),
            &mut state,
            &mut io,
        );
        w.on_choke_round(Seconds(10), &mut state, &mut io);
        assert!(
            !io.frames
                .iter()
                .any(|(_, f)| matches!(f, SwarmFrame::Piece { .. } | SwarmFrame::Unchoke)),
            "freerider must not serve or unchoke: {:?}",
            io.frames
        );
    }

    #[test]
    fn request_timeout_releases_pieces_for_rerequest() {
        let me = PeerId(1);
        let seeder = PeerId(0);
        let mut p = params(false, PeerBehaviour::Cooperator);
        p.pipeline = 1;
        p.request_timeout_rounds = 2;
        let mut w = SwarmWorkload::new(me, p, vec![seeder], ledger());
        let mut state = state_for(me);
        let mut io = WorkloadIo::default();
        w.on_established(seeder, Seconds(0), &mut state, &mut io);
        w.on_frame(
            seeder,
            SwarmFrame::Bitfield {
                piece_count: 8,
                bits: pack_bits(8, |_| true),
            },
            Seconds(0),
            &mut state,
            &mut io,
        );
        let mut io = WorkloadIo::default();
        w.on_frame(seeder, SwarmFrame::Unchoke, Seconds(0), &mut state, &mut io);
        assert_eq!(
            io.frames
                .iter()
                .filter(|(_, f)| matches!(f, SwarmFrame::Request { .. }))
                .count(),
            1
        );
        // the request (and its piece) is lost; two rounds later the
        // slot frees and a fresh request goes out
        let mut io = WorkloadIo::default();
        w.on_choke_round(Seconds(10), &mut state, &mut io);
        w.on_choke_round(Seconds(20), &mut state, &mut io);
        let rerequests = io
            .frames
            .iter()
            .filter(|(_, f)| matches!(f, SwarmFrame::Request { .. }))
            .count();
        assert!(rerequests >= 1, "timeout must re-request: {:?}", io.frames);
    }

    /// The select-k `refill_requests` and the per-request reference
    /// scan, fed the same handler calls.
    struct Twins {
        kernel: (SwarmWorkload, NodeState),
        reference: (SwarmWorkload, NodeState),
    }

    impl Twins {
        fn new(me: PeerId, params: SwarmParams) -> Self {
            let build = |reference_refill| {
                let mut w = SwarmWorkload::new(me, params, vec![], ledger());
                w.reference_refill = reference_refill;
                (w, state_for(me))
            };
            Twins {
                kernel: build(false),
                reference: build(true),
            }
        }

        /// Run one handler on both twins; the frames must agree and
        /// both counter sets must recount. Returns the frames.
        fn drive(
            &mut self,
            handler: impl Fn(&mut SwarmWorkload, &mut NodeState, &mut WorkloadIo),
        ) -> Vec<(PeerId, SwarmFrame)> {
            let run = |(w, state): &mut (SwarmWorkload, NodeState)| {
                let mut io = WorkloadIo::default();
                handler(w, state, &mut io);
                w.check_invariants().unwrap();
                io.frames
            };
            let kernel = run(&mut self.kernel);
            let reference = run(&mut self.reference);
            assert_eq!(kernel, reference);
            kernel
        }

        fn frame(&mut self, from: PeerId, frame: SwarmFrame) -> Vec<(PeerId, SwarmFrame)> {
            self.drive(|w, state, io| w.on_frame(from, frame.clone(), Seconds(0), state, io))
        }

        fn bitfield(&mut self, from: PeerId, has: impl Fn(usize) -> bool) {
            let n = self.kernel.0.params.piece_count;
            self.frame(
                from,
                SwarmFrame::Bitfield {
                    piece_count: n as u32,
                    bits: pack_bits(n, has),
                },
            );
        }
    }

    fn requests(frames: &[(PeerId, SwarmFrame)]) -> Vec<(PeerId, u32)> {
        frames
            .iter()
            .filter_map(|(q, f)| match f {
                SwarmFrame::Request { piece } => Some((*q, *piece)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn kernel_refill_emits_the_reference_request_sequence() {
        let me = PeerId(9);
        let [a, b, c, d] = [1, 2, 3, 4].map(PeerId);
        let mut p = params(false, PeerBehaviour::Cooperator);
        p.piece_count = 70; // one full word and a 6-bit tail
        p.pipeline = 3;
        p.request_timeout_rounds = 2;
        let mut t = Twins::new(me, p);
        for q in [a, b, c, d] {
            t.drive(|w, state, io| w.on_established(q, Seconds(0), state, io));
        }
        t.bitfield(a, |_| true);
        t.bitfield(b, |i| i % 2 == 0);
        t.bitfield(c, |i| i >= 60);
        t.bitfield(d, |i| [0, 63, 64, 69].contains(&i));

        // unchokes fill each pipeline from pieces nobody else fetches
        let from_a = requests(&t.frame(a, SwarmFrame::Unchoke));
        let from_b = requests(&t.frame(b, SwarmFrame::Unchoke));
        let from_c = requests(&t.frame(c, SwarmFrame::Unchoke));
        assert_eq!((from_a.len(), from_b.len(), from_c.len()), (3, 3, 3));
        let mut distinct: Vec<u32> = [&from_a[..], &from_b[..], &from_c[..]]
            .concat()
            .iter()
            .map(|&(_, piece)| piece)
            .collect();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), 9, "first pass never duplicates");

        // haves: a new piece, a repeat, an out-of-range index
        t.frame(d, SwarmFrame::Have { piece: 5 });
        t.frame(c, SwarmFrame::Have { piece: 65 });
        t.frame(c, SwarmFrame::Have { piece: 70 });
        // a replaced bitfield withdraws what the old one advertised
        t.bitfield(d, |i| i == 5 || i == 69);

        // a piece arrives: Have broadcast and the pipeline tops up
        let (_, first) = from_a[0];
        let size = p.piece_size.0;
        let after_piece = t.frame(a, SwarmFrame::Piece { piece: first, size });
        assert_eq!(requests(&after_piece).len(), 1);

        // a choke drops b's pending; the next unchoke re-requests
        t.frame(b, SwarmFrame::Choke);
        assert_eq!(requests(&t.frame(b, SwarmFrame::Unchoke)).len(), 3);

        // two silent rounds time every request out and refill
        t.drive(|w, state, io| w.on_choke_round(Seconds(10), state, io));
        let after_timeout = t.drive(|w, state, io| w.on_choke_round(Seconds(20), state, io));
        assert!(!requests(&after_timeout).is_empty(), "timeout re-requests");

        // a close, a reconnect, and a re-establish over a live view
        t.drive(|w, state, io| w.on_closed(c, Seconds(21), state, io));
        t.drive(|w, state, io| w.on_established(c, Seconds(22), state, io));
        t.bitfield(c, |i| i >= 50);
        t.drive(|w, state, io| w.on_established(d, Seconds(22), state, io));
        t.frame(c, SwarmFrame::Unchoke);

        // endgame: four pieces left, both a and b hold them; start
        // both pipelines empty
        t.frame(a, SwarmFrame::Choke);
        t.frame(b, SwarmFrame::Choke);
        t.frame(c, SwarmFrame::Choke);
        for (w, _) in [&mut t.kernel, &mut t.reference] {
            for i in (0..70).filter(|i| ![2, 4, 6, 8].contains(i)) {
                w.have.set(i);
            }
        }
        let endgame_a = requests(&t.frame(a, SwarmFrame::Unchoke));
        let endgame_b = requests(&t.frame(b, SwarmFrame::Unchoke));
        assert_eq!((endgame_a.len(), endgame_b.len()), (3, 3));
        let duplicated: Vec<u32> = endgame_b
            .iter()
            .map(|&(_, piece)| piece)
            .filter(|piece| endgame_a.iter().any(|(_, other)| other == piece))
            .collect();
        assert_eq!(duplicated.len(), 2, "second pass duplicates: {endgame_b:?}");
        // first arrival of a duplicated piece cancels the other copy
        let piece = duplicated[0];
        let after_dup = t.frame(a, SwarmFrame::Piece { piece, size });
        assert!(after_dup.contains(&(b, SwarmFrame::Cancel { piece })));
    }

    /// Batched choke scoring decides what per-pair scoring decides: on
    /// a graph with direct and two-hop flows, the scores are bitwise
    /// the per-pair `NodeState::reputation` values, and the unchoke set
    /// and the serve order equal those computed from them.
    #[test]
    fn batched_scoring_matches_per_pair_decisions() {
        let me = PeerId(0);
        let peers: Vec<PeerId> = (1..=7).map(PeerId).collect();
        let state_with_graph = || {
            let history = PrivateHistory::new(me);
            let mut engine = ReputationEngine::from_private(&history);
            let graph = engine.graph_mut();
            for (k, &q) in peers.iter().enumerate() {
                let k = k as u64 + 1;
                let next = peers[k as usize % peers.len()];
                graph.merge_record(q, me, Bytes::from_mb(100 * k));
                graph.merge_record(me, q, Bytes::from_mb(64 * (8 - k)));
                graph.merge_record(q, next, Bytes::from_mb(37 * k));
                graph.merge_record(next, q, Bytes::from_mb(11 * (8 - k)));
            }
            NodeState::new(history, engine)
        };
        let mut p = params(false, PeerBehaviour::Cooperator);
        p.policy = SwarmPolicy::Reputation(ReputationPolicy::Rank);
        p.bt.regular_slots = 4;
        p.upload_pieces_per_round = 8;
        let mut w = SwarmWorkload::new(me, p, vec![], ledger());
        let mut state = state_with_graph();
        let mut io = WorkloadIo::default();
        w.have.set(0);
        w.have.set(1);
        for (k, &q) in peers.iter().enumerate() {
            // empty bitfields: every peer is interested in our pieces
            w.on_established(q, Seconds(0), &mut state, &mut io);
            w.peers.get_mut(&q).unwrap().recv_window = k as u64 % 3;
        }

        // the reference: per-pair point queries on a twin state
        let mut twin = state_with_graph();
        let per_pair: BTreeMap<PeerId, PeerScore> = peers
            .iter()
            .map(|&q| {
                let reputation = twin.reputation(me, q);
                let graph = twin.engine().graph();
                let (up, down) = (graph.total_up(q), graph.total_down(q));
                (
                    q,
                    PeerScore {
                        reputation,
                        up,
                        down,
                    },
                )
            })
            .collect();
        let reputations: Vec<f64> = per_pair.values().map(|s| s.reputation).collect();
        assert!(reputations.iter().any(|&r| r > 0.0) && reputations.iter().any(|&r| r < 0.0));
        let batched = w.peer_scores(&mut state, &peers);
        for q in &peers {
            assert_eq!(
                batched[q].reputation.to_bits(),
                per_pair[q].reputation.to_bits()
            );
            assert_eq!(
                (batched[q].up, batched[q].down),
                (per_pair[q].up, per_pair[q].down)
            );
        }

        // unchoke set
        let candidates: Vec<Candidate> = w
            .peers
            .iter()
            .map(|(&peer, v)| Candidate {
                peer,
                rate_to_me: v.recv_window,
                rate_from_me: v.sent_window,
            })
            .collect();
        let mut expect =
            Choker::new(p.bt).unchoke(Role::Leecher, &candidates, p.policy.as_dyn(), |q| {
                per_pair[&q]
            });
        let mut io = WorkloadIo::default();
        w.recompute_unchokes(&mut state, &mut io);
        let mut unchoked: Vec<PeerId> = io.frames.iter().map(|(q, _)| *q).collect();
        assert!(io
            .frames
            .iter()
            .all(|(_, f)| matches!(f, SwarmFrame::Unchoke)));
        assert_eq!(unchoked.len(), 5);
        unchoked.sort();
        expect.sort();
        assert_eq!(unchoked, expect);

        // serve order: every unchoked peer asks for both pieces
        for &q in &unchoked {
            for piece in 0..2 {
                w.on_frame(
                    q,
                    SwarmFrame::Request { piece },
                    Seconds(2),
                    &mut state,
                    &mut io,
                );
            }
        }
        w.round = 3;
        let mut order = unchoked.clone();
        order.rotate_left(3);
        let expect = p
            .policy
            .as_dyn()
            .order_candidates(&order, &mut |q| per_pair[&q]);
        let mut io = WorkloadIo::default();
        w.serve_requests(Seconds(3), &mut state, &mut io);
        let mut served: Vec<PeerId> = io.frames.iter().map(|(q, _)| *q).collect();
        served.dedup();
        assert_eq!(
            served,
            expect[..4],
            "8 pieces of budget drain 4 queues of 2"
        );
        assert_ne!(served, order[..4], "rank must actually reorder");
    }
}
