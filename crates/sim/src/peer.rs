//! Per-peer runtime state.

use crate::adversary::Conduct;
use crate::config::Behaviour;
use bartercast_core::audit::Auditor;
use bartercast_core::frontier::{self, Frontier, SyncPlan};
use bartercast_core::history::PrivateHistory;
use bartercast_core::message::BarterCastConfig;
use bartercast_core::{PeerState, ReputationEngine};
use bartercast_gossip::{PssConfig, PssNode};
use bartercast_util::units::{Bandwidth, Bytes, PeerId, Seconds};
use bartercast_util::FxHashMap;
use std::ops::{Deref, DerefMut};

/// Everything the simulator tracks for one peer: its protocol state
/// (transfer table, subjective graph, claims on each sender), the
/// `PeerState` a live node's reactor owns, reached through `Deref`,
/// plus its gossip view, bandwidth and ground truth.
#[derive(Debug)]
pub struct SimPeer {
    /// Identity.
    pub id: PeerId,
    /// Sharer or lazy freerider.
    pub behaviour: Behaviour,
    /// Message-protocol conduct (§5.4 adversaries).
    pub conduct: Conduct,
    /// Whether the peer accepts incoming connections.
    pub connectable: bool,
    /// Downlink capacity.
    pub down_bw: Bandwidth,
    /// Uplink capacity.
    pub up_bw: Bandwidth,
    /// Currently online (driven by the trace).
    pub online: bool,
    /// History, subjective graph and claims: what a live node holds.
    state: PeerState,
    /// Peer sampling service node.
    pub pss: PssNode,
    /// Next scheduled gossip meeting.
    pub next_gossip: Seconds,
    /// Last BarterCast exchange per transfer partner.
    pub last_partner_exchange: FxHashMap<PeerId, Seconds>,
    /// Optional misreport auditor (extension; `None` in the paper's
    /// configuration).
    pub auditor: Option<Auditor>,
    /// Reputation cache refreshed every `REPUTATION_REFRESH` epoch:
    /// `target -> (epoch, value)`.
    rep_cache: FxHashMap<PeerId, (u64, f64)>,
    /// Ground-truth totals for metrics (what the peer *really* moved).
    pub real_up: Bytes,
    /// Ground-truth download total.
    pub real_down: Bytes,
    /// Swarms whose download completed: `swarm index -> completion time`.
    pub completed: FxHashMap<usize, Seconds>,
    /// When set, every point query [`SimPeer::reputations_of`] makes is
    /// checked against a single-source sweep on a twin of the engine,
    /// and the targets compared are added.
    #[cfg(test)]
    pub(crate) sweep_oracle: Option<usize>,
}

impl SimPeer {
    /// Construct a peer with empty state.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: PeerId,
        behaviour: Behaviour,
        conduct: Conduct,
        connectable: bool,
        down_bw: Bandwidth,
        up_bw: Bandwidth,
        pss_config: PssConfig,
        engine: ReputationEngine,
    ) -> Self {
        SimPeer {
            id,
            behaviour,
            conduct,
            connectable,
            down_bw,
            up_bw,
            online: false,
            state: PeerState::new(PrivateHistory::new(id), engine),
            pss: PssNode::new(id, pss_config),
            next_gossip: Seconds::ZERO,
            last_partner_exchange: FxHashMap::default(),
            auditor: None,
            rep_cache: FxHashMap::default(),
            real_up: Bytes::ZERO,
            real_down: Bytes::ZERO,
            completed: FxHashMap::default(),
            #[cfg(test)]
            sweep_oracle: None,
        }
    }

    /// Record an upload of `amount` to `to` at `now`
    /// ([`PeerState::record_upload`], and the ground truth).
    pub fn note_upload(&mut self, to: PeerId, amount: Bytes, now: Seconds) {
        self.state.record_upload(to, amount, now);
        self.real_up += amount;
    }

    /// Record a download of `amount` from `from` at `now`.
    pub fn note_download(&mut self, from: PeerId, amount: Bytes, now: Seconds) {
        self.state.record_download(from, amount, now);
        self.real_down += amount;
    }

    /// Answer `claim` as this peer's conduct does: an honest peer
    /// through [`PeerState::answer`], a §5.4 liar by planning over its
    /// lying slice, a protocol ignorer not at all. Returns the stamp,
    /// the plan and the slice length, as [`PeerState::answer`] does.
    pub(crate) fn answer_by_conduct(
        &mut self,
        config: BarterCastConfig,
        claim: Frontier,
    ) -> Option<(Frontier, SyncPlan, usize)> {
        match self.conduct {
            Conduct::Honest => Some(self.state.answer(config, claim)),
            Conduct::Silent => None,
            Conduct::Lying(claimed) => {
                self.history.keep_selection(config.nh, config.nr);
                let slice = frontier::lying_slice(&self.history, config, claimed);
                let stamp = frontier::frontier_of(&slice);
                Some((
                    stamp,
                    frontier::plan_sync(&slice, stamp, claim),
                    slice.len(),
                ))
            }
        }
    }

    /// Policy-facing reputations of all `targets` in order, at most one
    /// recomputation per refresh epoch (`epoch = now /
    /// REPUTATION_REFRESH`) each. A target missing from the epoch cache
    /// is a point query ([`ReputationEngine::reputation`]): a choke
    /// round misses on one or two targets, which the two-hop closed
    /// form answers from the endpoints' adjacency, where a sweep would
    /// traverse the evaluator's whole two-hop ball.
    pub fn reputations_of(&mut self, targets: &[PeerId], epoch: u64) -> Vec<f64> {
        targets
            .iter()
            .map(|&t| match self.rep_cache.get(&t) {
                Some(&(e, v)) if e == epoch => v,
                _ => {
                    let v = self.state.reputation(t);
                    #[cfg(test)]
                    self.check_against_sweep(t, v);
                    self.rep_cache.insert(t, (epoch, v));
                    v
                }
            })
            .collect()
    }

    /// Net ground-truth contribution (upload − download) in bytes,
    /// possibly negative — the x-axis of Figure 1b.
    pub fn net_contribution(&self) -> f64 {
        self.real_up.0 as f64 - self.real_down.0 as f64
    }
}

impl Deref for SimPeer {
    type Target = PeerState;

    fn deref(&self) -> &PeerState {
        &self.state
    }
}

impl DerefMut for SimPeer {
    fn deref_mut(&mut self) -> &mut PeerState {
        &mut self.state
    }
}

/// The reference oracle for the point queries of `reputations_of`.
#[cfg(test)]
impl SimPeer {
    /// With the oracle on, recompute `R_self(target)` by the sweep the
    /// point query replaced, on a twin (so the engine's own counters
    /// stay as the run left them), and compare bitwise.
    fn check_against_sweep(&mut self, target: PeerId, value: f64) {
        if let Some(compared) = self.sweep_oracle {
            let mut twin = self.engine.clone();
            let swept = twin.reputations_from(self.id, &[target])[0];
            assert_eq!(value.to_bits(), swept.to_bits(), "R_{}({target})", self.id);
            self.sweep_oracle = Some(compared + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bartercast_gossip::PssConfig;

    fn peer(i: u32, conduct: Conduct) -> SimPeer {
        SimPeer::new(
            PeerId(i),
            Behaviour::Sharer,
            conduct,
            true,
            Bandwidth::from_mbps(3),
            Bandwidth::from_kbps(512),
            PssConfig::default(),
            ReputationEngine::new(),
        )
    }

    #[test]
    fn notes_update_history_graph_and_truth() {
        let mut p = peer(0, Conduct::Honest);
        p.note_upload(PeerId(1), Bytes::from_mb(10), Seconds(5));
        p.note_download(PeerId(2), Bytes::from_mb(30), Seconds(6));
        assert_eq!(p.real_up, Bytes::from_mb(10));
        assert_eq!(p.real_down, Bytes::from_mb(30));
        assert_eq!(p.history.get(PeerId(1)).unwrap().up, Bytes::from_mb(10));
        assert_eq!(
            p.engine.graph().edge(PeerId(2), PeerId(0)),
            Bytes::from_mb(30)
        );
        assert_eq!(p.net_contribution(), (10.0 - 30.0) * 1024.0 * 1024.0);
    }

    #[test]
    fn conduct_controls_messages() {
        let mut p = peer(0, Conduct::Honest);
        p.note_download(PeerId(1), Bytes::from_mb(5), Seconds(1));
        let cfg = BarterCastConfig::default();
        let empty = Frontier::default();
        assert!(p.answer_by_conduct(cfg, empty).is_some());

        let mut silent = peer(1, Conduct::Silent);
        silent.note_download(PeerId(2), Bytes::from_mb(5), Seconds(1));
        assert!(silent.answer_by_conduct(cfg, empty).is_none());

        let mut liar = peer(2, Conduct::Lying(Bytes::from_gb(100)));
        liar.note_download(PeerId(3), Bytes::from_mb(5), Seconds(1));
        let (_, SyncPlan::Send { records, .. }, 1) = liar.answer_by_conduct(cfg, empty).unwrap()
        else {
            panic!("the empty claim gets the whole one-record slice");
        };
        assert_eq!(records[0].up, Bytes::from_gb(100));
    }

    /// A claim about the receiver writes nothing: peer 0 downloaded
    /// 1 MB from peer 7 and uploaded 10 MB to it, and 7's record
    /// `(peer 0, up 100 GB, down 0)` leaves 7's reputation at 0 bitwise
    /// as it was, and the `7 → 0` edge at 0's first-hand total.
    #[test]
    fn a_claim_about_the_receiver_moves_no_reputation() {
        let mut p = peer(0, Conduct::Honest);
        let liar = PeerId(7);
        p.note_download(liar, Bytes::from_mb(1), Seconds(1));
        p.note_upload(liar, Bytes::from_mb(10), Seconds(2));
        let before = p.reputation(liar);
        assert!(before < 0.0);
        let lie = bartercast_core::TransferRecord {
            peer: p.id,
            up: Bytes::from_gb(100),
            down: Bytes::ZERO,
        };
        assert_eq!(p.absorb(liar, Frontier::default(), &[lie]), 0);
        assert_eq!(p.reputation(liar).to_bits(), before.to_bits());
        assert_eq!(p.engine.graph().edge(liar, p.id), Bytes::from_mb(1));
    }

    /// The point queries `reputations_of` makes equal, bitwise, a
    /// single-source sweep on a twin peer fed the same transfers: in
    /// the epoch they are first asked in, from the epoch cache for the
    /// rest of it, and again in the next epoch after a record that
    /// opens two-hop paths through a middle.
    #[test]
    fn batch_reputations_match_single_queries() {
        let build = || {
            let mut p = peer(0, Conduct::Honest);
            p.note_download(PeerId(1), Bytes::from_mb(500), Seconds(1));
            p.note_download(PeerId(2), Bytes::from_gb(2), Seconds(2));
            p.note_upload(PeerId(3), Bytes::from_mb(80), Seconds(3));
            p
        };
        let (mut a, mut twin) = (build(), build());
        let targets = [PeerId(1), PeerId(2), PeerId(3), PeerId(9), PeerId(0)];
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let swept = |twin: &mut SimPeer| bits(twin.reputations(&targets));

        let before = bits(a.reputations_of(&targets, 4));
        assert_eq!(before, swept(&mut twin));
        // 3 -> 1 makes 1 a middle both ways: 3 -> 1 -> 0 and 0 -> 3 -> 1
        for p in [&mut a, &mut twin] {
            p.engine
                .graph_mut()
                .merge_record(PeerId(3), PeerId(1), Bytes::from_mb(300));
        }
        // the epoch cache serves the first values until the epoch ends
        assert_eq!(bits(a.reputations_of(&targets, 4)), before);
        let after = bits(a.reputations_of(&targets, 5));
        assert_eq!(after, swept(&mut twin));
        assert_ne!(after, before, "the middle moved no reputation");
    }

    #[test]
    fn reputation_cache_respects_epochs() {
        let mut p = peer(0, Conduct::Honest);
        p.note_download(PeerId(1), Bytes::from_mb(500), Seconds(1));
        let of = |p: &mut SimPeer, epoch| p.reputations_of(&[PeerId(1)], epoch)[0];
        let r1 = of(&mut p, 0);
        assert!(r1 > 0.0);
        // graph changes, but same epoch: cached value returned
        p.note_download(PeerId(1), Bytes::from_gb(5), Seconds(2));
        let r2 = of(&mut p, 0);
        assert_eq!(r1, r2);
        // new epoch: recomputed
        let r3 = of(&mut p, 1);
        assert!(r3 > r2);
    }
}
