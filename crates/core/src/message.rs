//! BarterCast messages (§3.4).
//!
//! A message carries a selection of the sender's private history: for
//! each selected peer `j`, the totals the sender claims to have
//! uploaded to and downloaded from `j`. The receiver max-merges these
//! claims into its subjective contribution graph.

use crate::frontier;
use crate::history::{PrivateHistory, TransferTotals};
use bartercast_graph::ContributionGraph;
use bartercast_util::units::{Bytes, PeerId};
use serde::{Deserialize, Serialize};

/// Protocol parameters (§3.4; the paper's experiments use
/// `Nh = Nr = 10`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BarterCastConfig {
    /// Number of top-uploader records to include in a message.
    pub nh: usize,
    /// Number of most-recently-seen records to include.
    pub nr: usize,
}

impl Default for BarterCastConfig {
    fn default() -> Self {
        BarterCastConfig { nh: 10, nr: 10 }
    }
}

/// One record in a message: the sender's claimed totals with `peer`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransferRecord {
    /// The remote peer the record is about.
    pub peer: PeerId,
    /// Bytes the sender claims to have uploaded to `peer`.
    pub up: Bytes,
    /// Bytes the sender claims to have downloaded from `peer`.
    pub down: Bytes,
}

impl TransferRecord {
    /// The record about `peer` from its owner's `totals` with it.
    pub fn of(peer: PeerId, totals: &TransferTotals) -> Self {
        TransferRecord {
            peer,
            up: totals.up,
            down: totals.down,
        }
    }
}

/// The §3.4 rule for one received record, written once: the record
/// `(peer, up, down)` from `sender` claims the edge `sender → peer` at
/// `up`, as that edge's source, and the edge `peer → sender` at
/// `down`, as its target. Returns `[source claim, target claim]`, each
/// an edge `(from, to)` with its total. A self-record claims nothing.
pub fn claims(sender: PeerId, record: &TransferRecord) -> Option<[((PeerId, PeerId), Bytes); 2]> {
    (record.peer != sender).then_some([
        ((sender, record.peer), record.up),
        ((record.peer, sender), record.down),
    ])
}

/// Max-merge the [`claims`] of `records`, sent by `sender`, into
/// `graph`. Returns the number of edges that changed.
pub fn merge_records<'a>(
    graph: &mut ContributionGraph,
    sender: PeerId,
    records: impl IntoIterator<Item = &'a TransferRecord>,
) -> usize {
    let mut changed = 0;
    let claimed = records.into_iter().filter_map(|r| claims(sender, r));
    for ((from, to), total) in claimed.flatten() {
        changed += usize::from(graph.merge_record(from, to, total));
    }
    changed
}

/// A BarterCast message: the sender plus its selected records.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BarterCastMessage {
    /// The peer whose history the records come from.
    pub sender: PeerId,
    /// Selected `(peer, up, down)` records.
    pub records: Vec<TransferRecord>,
}

impl BarterCastMessage {
    /// Build the message peer `history.owner()` would send: its
    /// advertised slice under the §3.4 selection rule
    /// ([`frontier::advertised_slice`]), stamps dropped.
    pub fn from_history(history: &PrivateHistory, config: BarterCastConfig) -> Self {
        let slice = frontier::advertised_slice(history, config);
        frontier::message_from_slice(history.owner(), &slice)
    }

    /// Apply this message to a receiver's subjective graph
    /// ([`merge_records`]). Returns the number of edges that changed.
    pub fn apply(&self, graph: &mut ContributionGraph) -> usize {
        merge_records(graph, self.sender, &self.records)
    }

    /// Number of records carried.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True iff the message carries no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontier::{lying_slice, message_from_slice};
    use bartercast_util::units::Seconds;

    fn p(i: u32) -> PeerId {
        PeerId(i)
    }

    fn sample_history() -> PrivateHistory {
        let mut h = PrivateHistory::new(p(0));
        h.record_download(p(1), Bytes::from_mb(500), Seconds(10));
        h.record_upload(p(1), Bytes::from_mb(50), Seconds(10));
        h.record_download(p(2), Bytes::from_mb(100), Seconds(20));
        h.touch(p(3), Seconds(30));
        h
    }

    #[test]
    fn message_from_history_carries_totals() {
        let h = sample_history();
        let m = BarterCastMessage::from_history(&h, BarterCastConfig::default());
        assert_eq!(m.sender, p(0));
        assert_eq!(m.len(), 3);
        let r1 = m.records.iter().find(|r| r.peer == p(1)).unwrap();
        assert_eq!(r1.up, Bytes::from_mb(50));
        assert_eq!(r1.down, Bytes::from_mb(500));
    }

    #[test]
    fn apply_builds_subjective_graph() {
        let h = sample_history();
        let m = BarterCastMessage::from_history(&h, BarterCastConfig::default());
        let mut g = ContributionGraph::new();
        let changed = m.apply(&mut g);
        assert!(changed >= 3);
        // record (1, up=50, down=500): 0 uploaded 50 to 1; 1 uploaded 500 to 0
        assert_eq!(g.edge(p(0), p(1)), Bytes::from_mb(50));
        assert_eq!(g.edge(p(1), p(0)), Bytes::from_mb(500));
        assert_eq!(g.edge(p(2), p(0)), Bytes::from_mb(100));
        g.check_invariants().unwrap();
    }

    #[test]
    fn apply_is_idempotent() {
        let h = sample_history();
        let m = BarterCastMessage::from_history(&h, BarterCastConfig::default());
        let mut g = ContributionGraph::new();
        m.apply(&mut g);
        let changed = m.apply(&mut g);
        assert_eq!(changed, 0);
    }

    #[test]
    fn stale_message_does_not_downgrade() {
        let mut old = sample_history();
        let m_old = BarterCastMessage::from_history(&old, BarterCastConfig::default());
        old.record_download(p(1), Bytes::from_mb(500), Seconds(99));
        let m_new = BarterCastMessage::from_history(&old, BarterCastConfig::default());
        let mut g = ContributionGraph::new();
        m_new.apply(&mut g);
        let before = g.edge(p(1), p(0));
        m_old.apply(&mut g); // replayed stale message
        assert_eq!(g.edge(p(1), p(0)), before);
    }

    #[test]
    fn lying_message_claims_huge_uploads() {
        let h = sample_history();
        let lie = lying_slice(&h, BarterCastConfig::default(), Bytes::from_gb(100));
        let m = message_from_slice(h.owner(), &lie);
        assert!(m.records.iter().all(|r| r.up == Bytes::from_gb(100)));
        assert!(m.records.iter().all(|r| r.down == Bytes::ZERO));
        let mut g = ContributionGraph::new();
        m.apply(&mut g);
        assert_eq!(g.edge(p(0), p(1)), Bytes::from_gb(100));
        assert_eq!(g.edge(p(1), p(0)), Bytes::ZERO);
    }

    #[test]
    fn config_limits_record_count() {
        let mut h = PrivateHistory::new(p(0));
        for i in 1..=30 {
            h.record_download(p(i), Bytes::from_mb(i as u64), Seconds(i as u64));
        }
        let m = BarterCastMessage::from_history(&h, BarterCastConfig { nh: 10, nr: 10 });
        // top-10 uploaders are 21..=30 by amount, most recent are 21..=30
        // by time — overlap dedups, so between 10 and 20 records
        assert!(m.len() >= 10 && m.len() <= 20, "got {}", m.len());
    }

    #[test]
    fn malformed_self_record_ignored() {
        let m = BarterCastMessage {
            sender: p(0),
            records: vec![TransferRecord {
                peer: p(0),
                up: Bytes::from_gb(1),
                down: Bytes::ZERO,
            }],
        };
        let mut g = ContributionGraph::new();
        assert_eq!(m.apply(&mut g), 0);
        assert_eq!(g.edge_count(), 0);
    }
}
