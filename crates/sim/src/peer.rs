//! Per-peer runtime state.

use crate::adversary::Conduct;
use crate::config::Behaviour;
use bartercast_core::audit::Auditor;
use bartercast_core::history::PrivateHistory;
use bartercast_core::message::{BarterCastConfig, BarterCastMessage};
use bartercast_core::ReputationEngine;
use bartercast_gossip::{PssConfig, PssNode};
use bartercast_util::units::{Bandwidth, Bytes, PeerId, Seconds};
use bartercast_util::FxHashMap;

/// Everything the simulator tracks for one peer.
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
    /// The peer's own transfer table (§3.4).
    pub history: PrivateHistory,
    /// Subjective graph + maxflow + metric.
    pub engine: ReputationEngine,
    /// Peer sampling service node.
    pub pss: PssNode,
    /// Next scheduled gossip meeting.
    pub next_gossip: Seconds,
    /// Last BarterCast exchange per transfer partner.
    pub last_partner_exchange: FxHashMap<PeerId, Seconds>,
    /// Optional misreport auditor (extension; `None` in the paper's
    /// configuration).
    pub auditor: Option<Auditor>,
    /// Content hash of the last message delivered by each sender —
    /// the simulator's stand-in for the node runtime's per-peer
    /// frontier cache. A repeat of an identical message models a
    /// digest round that concluded "in sync" and is suppressed.
    pub delivered_frontier: FxHashMap<PeerId, u64>,
    /// Reputation cache refreshed every `REPUTATION_REFRESH` epoch:
    /// `target -> (epoch, value)`.
    rep_cache: FxHashMap<PeerId, (u64, f64)>,
    /// Ground-truth totals for metrics (what the peer *really* moved).
    pub real_up: Bytes,
    /// Ground-truth download total.
    pub real_down: Bytes,
    /// Swarms whose download completed: `swarm index -> completion time`.
    pub completed: FxHashMap<usize, Seconds>,
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
            history: PrivateHistory::new(id),
            engine,
            pss: PssNode::new(id, pss_config),
            next_gossip: Seconds::ZERO,
            last_partner_exchange: FxHashMap::default(),
            auditor: None,
            delivered_frontier: FxHashMap::default(),
            rep_cache: FxHashMap::default(),
            real_up: Bytes::ZERO,
            real_down: Bytes::ZERO,
            completed: FxHashMap::default(),
        }
    }

    /// Record an upload of `amount` to `to` at `now` (private history,
    /// subjective graph, ground truth).
    pub fn note_upload(&mut self, to: PeerId, amount: Bytes, now: Seconds) {
        self.history.record_upload(to, amount, now);
        self.engine.graph_mut().add_transfer(self.id, to, amount);
        self.real_up += amount;
    }

    /// Record a download of `amount` from `from` at `now`.
    pub fn note_download(&mut self, from: PeerId, amount: Bytes, now: Seconds) {
        self.history.record_download(from, amount, now);
        self.engine.graph_mut().add_transfer(from, self.id, amount);
        self.real_down += amount;
    }

    /// The message this peer sends when meeting someone, depending on
    /// its conduct. `None` for protocol ignorers.
    pub fn outgoing_message(
        &self,
        config: BarterCastConfig,
        lie_claim: Bytes,
    ) -> Option<BarterCastMessage> {
        match self.conduct {
            Conduct::Honest => Some(BarterCastMessage::from_history(&self.history, config)),
            Conduct::Silent => None,
            Conduct::Lying => Some(BarterCastMessage::lying(&self.history, config, lie_claim)),
        }
    }

    /// One target's epoch-cached reputation: the per-target reference
    /// [`SimPeer::reputations_of`] is checked against.
    #[cfg(test)]
    fn reputation_of(&mut self, target: PeerId, epoch: u64) -> f64 {
        if let Some(&(e, v)) = self.rep_cache.get(&target) {
            if e == epoch {
                return v;
            }
        }
        let v = self.engine.reputation(self.id, target);
        self.rep_cache.insert(target, (epoch, v));
        v
    }

    /// Policy-facing reputations of all `targets` in order, at most one
    /// recomputation per refresh epoch (`epoch = now /
    /// REPUTATION_REFRESH`) each. Targets missing from the epoch cache are evaluated
    /// together through the engine's single-source batch path, which
    /// shares one two-hop traversal across all of them.
    pub fn reputations_of(&mut self, targets: &[PeerId], epoch: u64) -> Vec<f64> {
        let missing: Vec<PeerId> = targets
            .iter()
            .copied()
            .filter(|t| !matches!(self.rep_cache.get(t), Some(&(e, _)) if e == epoch))
            .collect();
        if !missing.is_empty() {
            let values = self.engine.reputations_from(self.id, &missing);
            for (&t, &v) in missing.iter().zip(&values) {
                self.rep_cache.insert(t, (epoch, v));
            }
        }
        targets.iter().map(|t| self.rep_cache[t].1).collect()
    }

    /// Net ground-truth contribution (upload − download) in bytes,
    /// possibly negative — the x-axis of Figure 1b.
    pub fn net_contribution(&self) -> f64 {
        self.real_up.0 as f64 - self.real_down.0 as f64
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
        assert_eq!(p.history.total_up(), Bytes::from_mb(10));
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
        assert!(p.outgoing_message(cfg, Bytes::from_gb(100)).is_some());

        let mut silent = peer(1, Conduct::Silent);
        silent.note_download(PeerId(2), Bytes::from_mb(5), Seconds(1));
        assert!(silent.outgoing_message(cfg, Bytes::from_gb(100)).is_none());

        let mut liar = peer(2, Conduct::Lying);
        liar.note_download(PeerId(3), Bytes::from_mb(5), Seconds(1));
        let msg = liar.outgoing_message(cfg, Bytes::from_gb(100)).unwrap();
        assert!(msg.records.iter().all(|r| r.up == Bytes::from_gb(100)));
    }

    #[test]
    fn batch_reputations_match_single_queries() {
        let mut a = peer(0, Conduct::Honest);
        a.note_download(PeerId(1), Bytes::from_mb(500), Seconds(1));
        a.note_download(PeerId(2), Bytes::from_gb(2), Seconds(2));
        a.note_upload(PeerId(3), Bytes::from_mb(80), Seconds(3));
        let mut b = peer(0, Conduct::Honest);
        b.note_download(PeerId(1), Bytes::from_mb(500), Seconds(1));
        b.note_download(PeerId(2), Bytes::from_gb(2), Seconds(2));
        b.note_upload(PeerId(3), Bytes::from_mb(80), Seconds(3));

        let targets = [PeerId(1), PeerId(2), PeerId(3), PeerId(9), PeerId(0)];
        let batch = a.reputations_of(&targets, 4);
        for (&t, &r) in targets.iter().zip(&batch) {
            assert_eq!(r.to_bits(), b.reputation_of(t, 4).to_bits(), "target {t}");
        }
        // second call hits the epoch cache
        assert_eq!(a.reputations_of(&targets, 4), batch);
    }

    #[test]
    fn reputation_cache_respects_epochs() {
        let mut p = peer(0, Conduct::Honest);
        p.note_download(PeerId(1), Bytes::from_mb(500), Seconds(1));
        let r1 = p.reputation_of(PeerId(1), 0);
        assert!(r1 > 0.0);
        // graph changes, but same epoch: cached value returned
        p.note_download(PeerId(1), Bytes::from_gb(5), Seconds(2));
        let r2 = p.reputation_of(PeerId(1), 0);
        assert_eq!(r1, r2);
        // new epoch: recomputed
        let r3 = p.reputation_of(PeerId(1), 1);
        assert!(r3 > r2);
    }
}
