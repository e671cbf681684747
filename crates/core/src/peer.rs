//! One peer's protocol state and the two steps of a BarterCast
//! exchange (§3.4) over it: the sender [`answer`](PeerState::answer)s
//! the receiver's claim on its advertised slice with a [`SyncPlan`],
//! and the receiver [`absorb`](PeerState::absorb)s the planned records,
//! keeping the sender's stamp as its next claim. The simulator, the
//! live node and the observer all exchange through this one type.

use crate::frontier::{self, Frontier, SliceRecord, SyncPlan};
use crate::history::PrivateHistory;
use crate::message::{self, BarterCastConfig, TransferRecord};
use crate::repcache::ReputationEngine;
use bartercast_util::units::{Bytes, PeerId, Seconds};
use bartercast_util::FxHashMap;

/// A peer's private history, its subjective graph, the claim it holds
/// on each sender's slice and the memo of its own advertised slice.
#[derive(Debug)]
pub struct PeerState {
    /// The peer's own transfer table. Every write bumps its version,
    /// which the slice memo is keyed on.
    pub history: PrivateHistory,
    /// The subjective graph and the Equation 1 evaluator over it.
    pub engine: ReputationEngine,
    /// Per sender, the [`Frontier`] stamp of the last slice absorbed
    /// from it: the claim the next exchange with it plans against.
    claims: FxHashMap<PeerId, Frontier>,
    /// The advertised slice and its frontier at one history version.
    advertised: Option<(u64, Vec<SliceRecord>, Frontier)>,
}

impl PeerState {
    /// A state over `history` whose engine has absorbed it.
    pub fn new(history: PrivateHistory, mut engine: ReputationEngine) -> PeerState {
        engine.absorb_private(&history);
        PeerState {
            history,
            engine,
            claims: FxHashMap::default(),
            advertised: None,
        }
    }

    /// The slice this peer advertises under `config` and its frontier,
    /// recomputed only when the history has been written since. The
    /// history keeps the selection at `config`'s sizes from then on.
    pub fn advertised(&mut self, config: BarterCastConfig) -> (&[SliceRecord], Frontier) {
        let version = self.history.version();
        if self.advertised.as_ref().map(|a| a.0) != Some(version) {
            self.history.keep_selection(config.nh, config.nr);
            let slice = frontier::advertised_slice(&self.history, config);
            let stamp = frontier::frontier_of(&slice);
            self.advertised = Some((version, slice, stamp));
        }
        let (_, slice, stamp) = self.advertised.as_ref().expect("memo refreshed");
        (slice, *stamp)
    }

    /// Answer a receiver that claims `claim` on this peer's slice: our
    /// frontier stamp, the sync plan, and the slice length (what stays
    /// home is the length minus the plan's records).
    pub fn answer(
        &mut self,
        config: BarterCastConfig,
        claim: Frontier,
    ) -> (Frontier, SyncPlan, usize) {
        let (slice, stamp) = self.advertised(config);
        (stamp, frontier::plan_sync(slice, stamp, claim), slice.len())
    }

    /// The claim to send `from`: the stamp of the last slice absorbed
    /// from it, or the empty claim.
    pub fn claim(&self, from: PeerId) -> Frontier {
        self.claims.get(&from).copied().unwrap_or_default()
    }

    /// Max-merge `records` sent by `from` into the subjective graph and
    /// keep `stamp` as the next claim on `from`. Returns the number of
    /// edges that changed. A record about this peer is dropped: it
    /// claims the two edges between `from` and this peer, which this
    /// peer measures itself, so gossip never writes an own edge.
    pub fn absorb(&mut self, from: PeerId, stamp: Frontier, records: &[TransferRecord]) -> usize {
        let me = self.history.owner();
        let kept = records.iter().filter(|r| r.peer != me);
        let changed = message::merge_records(self.engine.graph_mut(), from, kept);
        self.claims.insert(from, stamp);
        changed
    }

    /// Account an upload of `amount` bytes to `peer`: the history and
    /// the edge owner → peer both gain the bytes. Gossip never writes
    /// an edge incident to this peer, so the edge stays the history's
    /// total.
    pub fn record_upload(&mut self, peer: PeerId, amount: Bytes, now: Seconds) {
        self.history.record_upload(peer, amount, now);
        let me = self.history.owner();
        self.engine.graph_mut().add_transfer(me, peer, amount);
    }

    /// The mirror of [`PeerState::record_upload`]: the edge peer → owner.
    pub fn record_download(&mut self, peer: PeerId, amount: Bytes, now: Seconds) {
        self.history.record_download(peer, amount, now);
        let me = self.history.owner();
        self.engine.graph_mut().add_transfer(peer, me, amount);
    }

    /// [`PeerState::record_upload`] of one completed piece.
    pub fn record_piece_upload(&mut self, peer: PeerId, amount: Bytes, now: Seconds) {
        self.history.record_piece_upload(peer, amount, now);
        let me = self.history.owner();
        self.engine.graph_mut().add_transfer(me, peer, amount);
    }

    /// [`PeerState::record_download`] of one completed piece.
    pub fn record_piece_download(&mut self, peer: PeerId, amount: Bytes, now: Seconds) {
        self.history.record_piece_download(peer, amount, now);
        let me = self.history.owner();
        self.engine.graph_mut().add_transfer(peer, me, amount);
    }

    /// This peer's reputation of `peer` (Equation 1).
    pub fn reputation(&mut self, peer: PeerId) -> f64 {
        let me = self.history.owner();
        self.engine.reputation(me, peer)
    }

    /// [`PeerState::reputation`] of every peer in `peers`, in order,
    /// from one single-source sweep.
    pub fn reputations(&mut self, peers: &[PeerId]) -> Vec<f64> {
        let me = self.history.owner();
        self.engine.reputations_from(me, peers)
    }

    /// The subjective graph as a sorted edge list `(from, to, bytes)`.
    pub fn subjective_edges(&self) -> Vec<(PeerId, PeerId, Bytes)> {
        let mut edges: Vec<_> = self.engine.graph().edges().collect();
        edges.sort_unstable();
        edges
    }
}
