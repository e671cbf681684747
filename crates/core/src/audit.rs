//! Misreport auditing — a step toward the paper's future work of
//! "techniques to prevent die-hard cheating and malicious behaviour".
//!
//! Every directed edge `A → B` of the contribution graph has exactly
//! two first-hand witnesses: `A` reports it as an `up` total in its
//! records about `B`, and `B` reports it as a `down` total in its
//! records about `A`. Both totals are cumulative, so with honest
//! reporting the two claims can differ only by staleness — the lower
//! one lags the higher. The §5.4 selfish lie ("claimed they sent huge
//! amounts of data ... and received nothing") breaks this badly: the
//! liar's `up` claims vastly exceed what any counterparty confirms.
//!
//! [`Auditor`] cross-checks the pairs of claims it has seen. When the
//! uploader-side claim exceeds the downloader-side confirmation by
//! more than a tolerance factor plus slack, **both** witnesses get a
//! discrepancy mark (a single mismatch cannot be attributed). Honest
//! peers collect marks only from their lying counterparties; liars
//! collect marks from *every* honest counterparty, so repeated
//! independent discrepancies concentrate on them and a count threshold
//! separates the populations.

use bartercast_util::units::{Bytes, PeerId};
use bartercast_util::FxHashMap;

use crate::message::BarterCastMessage;

/// One edge's two first-hand claims.
#[derive(Debug, Clone, Copy, Default)]
struct EdgeClaims {
    /// Largest total claimed by the edge's source ("I uploaded this").
    by_source: Option<Bytes>,
    /// Largest total confirmed by the edge's target ("I downloaded this").
    by_target: Option<Bytes>,
}

/// Cross-checks first-hand claims about contribution edges.
///
/// ```
/// use bartercast_core::frontier::{lying_slice, message_from_slice};
/// use bartercast_core::{Auditor, BarterCastConfig, BarterCastMessage, PrivateHistory};
/// use bartercast_util::units::{Bytes, PeerId, Seconds};
///
/// // the victim confirms a tiny download; the liar claims 100 GB
/// let mut victim = PrivateHistory::new(PeerId(1));
/// victim.record_download(PeerId(9), Bytes::from_mb(50), Seconds(1));
/// let mut liar = PrivateHistory::new(PeerId(9));
/// liar.record_upload(PeerId(1), Bytes::from_mb(50), Seconds(1));
///
/// let mut auditor = Auditor::default();
/// let lie = lying_slice(&liar, BarterCastConfig::default(), Bytes::from_gb(100));
/// auditor.ingest(&message_from_slice(liar.owner(), &lie));
/// auditor.ingest(&BarterCastMessage::from_history(
///     &victim, BarterCastConfig::default()));
/// assert_eq!((auditor.marks(PeerId(9)), auditor.marks(PeerId(1))), (1, 1));
/// ```
#[derive(Debug, Clone)]
pub struct Auditor {
    claims: FxHashMap<(PeerId, PeerId), EdgeClaims>,
    /// A source claim is suspicious when it exceeds
    /// `target_claim * factor + slack`.
    factor: f64,
    /// Absolute slack (staleness allowance).
    slack: Bytes,
    marks: FxHashMap<PeerId, u32>,
    /// Cross-checked incident-edge counts per peer.
    checked: FxHashMap<PeerId, u32>,
    /// Edges already counted as cross-checked.
    checked_edges: FxHashMap<(PeerId, PeerId), ()>,
    /// Edges already marked, so one bad edge is counted once.
    marked_edges: FxHashMap<(PeerId, PeerId), ()>,
}

impl Default for Auditor {
    fn default() -> Self {
        Self::new(8.0, Bytes::from_gb(1))
    }
}

impl Auditor {
    /// An auditor flagging source claims above
    /// `target_claim * factor + slack`.
    pub fn new(factor: f64, slack: Bytes) -> Self {
        assert!(factor >= 1.0, "tolerance factor must be >= 1");
        Auditor {
            claims: FxHashMap::default(),
            factor,
            slack,
            marks: FxHashMap::default(),
            checked: FxHashMap::default(),
            checked_edges: FxHashMap::default(),
            marked_edges: FxHashMap::default(),
        }
    }

    /// Ingest one BarterCast message: each record `(peer, up, down)`
    /// from `sender` carries a source-claim for `sender → peer` (the
    /// `up` total) and a target-claim for `peer → sender` (the `down`
    /// total).
    pub fn ingest(&mut self, msg: &BarterCastMessage) {
        for r in &msg.records {
            if r.peer == msg.sender {
                continue;
            }
            {
                let e = self.claims.entry((msg.sender, r.peer)).or_default();
                e.by_source = Some(e.by_source.map_or(r.up, |b| b.max(r.up)));
            }
            self.check((msg.sender, r.peer));
            {
                let e = self.claims.entry((r.peer, msg.sender)).or_default();
                e.by_target = Some(e.by_target.map_or(r.down, |b| b.max(r.down)));
            }
            self.check((r.peer, msg.sender));
        }
    }

    fn check(&mut self, edge: (PeerId, PeerId)) {
        let Some(c) = self.claims.get(&edge) else {
            return;
        };
        let (Some(src), Some(dst)) = (c.by_source, c.by_target) else {
            return;
        };
        if let std::collections::hash_map::Entry::Vacant(e) = self.checked_edges.entry(edge) {
            e.insert(());
            *self.checked.entry(edge.0).or_insert(0) += 1;
            *self.checked.entry(edge.1).or_insert(0) += 1;
        }
        if self.marked_edges.contains_key(&edge) {
            return;
        }
        let limit = dst.0 as f64 * self.factor + self.slack.0 as f64;
        if (src.0 as f64) > limit {
            self.marked_edges.insert(edge, ());
            *self.marks.entry(edge.0).or_insert(0) += 1;
            *self.marks.entry(edge.1).or_insert(0) += 1;
        }
    }

    /// Discrepancy marks accumulated by `peer`.
    pub fn marks(&self, peer: PeerId) -> u32 {
        self.marks.get(&peer).copied().unwrap_or(0)
    }

    /// Cross-checked incident edges of `peer`.
    pub fn checked(&self, peer: PeerId) -> u32 {
        self.checked.get(&peer).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontier::{lying_slice, message_from_slice};
    use crate::history::PrivateHistory;
    use crate::message::{BarterCastConfig, BarterCastMessage};
    use bartercast_util::units::Seconds;

    fn p(i: u32) -> PeerId {
        PeerId(i)
    }

    /// The message `liar` sends claiming `huge` uploads (§5.4).
    fn lying_message(liar: &PrivateHistory, huge: Bytes) -> BarterCastMessage {
        let slice = lying_slice(liar, BarterCastConfig::default(), huge);
        message_from_slice(liar.owner(), &slice)
    }

    /// Two honest peers reporting the same transfer agree.
    #[test]
    fn honest_claims_do_not_flag() {
        let mut a = PrivateHistory::new(p(0));
        let mut b = PrivateHistory::new(p(1));
        a.record_upload(p(1), Bytes::from_gb(2), Seconds(5));
        b.record_download(p(0), Bytes::from_gb(2), Seconds(5));

        let mut auditor = Auditor::default();
        auditor.ingest(&BarterCastMessage::from_history(
            &a,
            BarterCastConfig::default(),
        ));
        auditor.ingest(&BarterCastMessage::from_history(
            &b,
            BarterCastConfig::default(),
        ));
        // both directions of the pair cross-checked, nothing marked
        assert_eq!((auditor.checked(p(0)), auditor.checked(p(1))), (2, 2));
        assert_eq!(auditor.marks(p(0)) + auditor.marks(p(1)), 0);
    }

    /// Staleness (one side lagging) stays within tolerance.
    #[test]
    fn stale_claims_tolerated() {
        let mut a = PrivateHistory::new(p(0));
        let mut b = PrivateHistory::new(p(1));
        a.record_upload(p(1), Bytes::from_gb(1), Seconds(5));
        // b's view lags: it has only seen 700 MB arrive so far
        b.record_download(p(0), Bytes::from_mb(700), Seconds(4));
        let mut auditor = Auditor::default();
        auditor.ingest(&BarterCastMessage::from_history(
            &a,
            BarterCastConfig::default(),
        ));
        auditor.ingest(&BarterCastMessage::from_history(
            &b,
            BarterCastConfig::default(),
        ));
        assert_eq!(auditor.marks(p(0)) + auditor.marks(p(1)), 0);
    }

    /// The §5.4 lie pattern is flagged once both witnesses are heard.
    #[test]
    fn selfish_lie_is_flagged() {
        // honest peer 1 confirms only 100 MB downloaded from the liar
        let mut honest = PrivateHistory::new(p(1));
        honest.record_download(p(9), Bytes::from_mb(100), Seconds(5));
        // liar 9 claims 100 GB uploaded to peer 1
        let mut liar = PrivateHistory::new(p(9));
        liar.record_upload(p(1), Bytes::from_mb(100), Seconds(5));
        let lie = lying_message(&liar, Bytes::from_gb(100));

        let mut auditor = Auditor::default();
        auditor.ingest(&BarterCastMessage::from_history(
            &honest,
            BarterCastConfig::default(),
        ));
        auditor.ingest(&lie);
        // one flagged edge marks each of its two witnesses once
        assert_eq!(auditor.marks(p(9)), 1);
        assert_eq!(auditor.marks(p(1)), 1);
    }

    /// Marks concentrate on the liar as more honest witnesses report.
    #[test]
    fn repeated_discrepancies_single_out_the_liar() {
        let mut auditor = Auditor::default();
        // liar 9 transferred trivially with honest peers 1..=5 and lies
        // about all of them
        let mut liar = PrivateHistory::new(p(9));
        for i in 1..=5 {
            liar.record_upload(p(i), Bytes::from_mb(10), Seconds(i as u64));
        }
        auditor.ingest(&lying_message(&liar, Bytes::from_gb(100)));
        for i in 1..=5u32 {
            let mut h = PrivateHistory::new(p(i));
            h.record_download(p(9), Bytes::from_mb(10), Seconds(i as u64));
            auditor.ingest(&BarterCastMessage::from_history(
                &h,
                BarterCastConfig::default(),
            ));
        }
        assert_eq!(auditor.marks(p(9)), 5);
        for i in 1..=5u32 {
            assert_eq!(auditor.marks(p(i)), 1);
        }
        // a threshold of 3 marks separates perfectly
    }

    /// Each bad edge is counted once even if re-reported.
    #[test]
    fn flags_are_per_edge_not_per_message() {
        let mut honest = PrivateHistory::new(p(1));
        honest.record_download(p(9), Bytes::from_mb(10), Seconds(1));
        let mut liar = PrivateHistory::new(p(9));
        liar.record_upload(p(1), Bytes::from_mb(10), Seconds(1));
        let lie = lying_message(&liar, Bytes::from_gb(50));
        let honest_msg = BarterCastMessage::from_history(&honest, BarterCastConfig::default());
        let mut auditor = Auditor::default();
        for _ in 0..5 {
            auditor.ingest(&lie);
            auditor.ingest(&honest_msg);
        }
        assert_eq!(auditor.marks(p(9)), 1);
    }

    #[test]
    #[should_panic(expected = "tolerance factor")]
    fn rejects_sub_unit_factor() {
        let _ = Auditor::new(0.5, Bytes::ZERO);
    }
}
