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

use crate::message::{self, TransferRecord};

/// One edge's two first-hand claims and what the audit concluded.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct EdgeAudit {
    /// The largest total each witness claimed, in the order
    /// [`message::claims`] names them: the edge's source ("I uploaded
    /// this"), then its target ("I downloaded this").
    by: [Option<Bytes>; 2],
    /// Both witnesses heard: counted once in each endpoint's `checked`.
    checked: bool,
    /// Flagged: counted once in each endpoint's `marks`.
    marked: bool,
}

/// One peer's discrepancy marks and cross-checked incident edges.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct PeerTally {
    marks: u32,
    checked: u32,
}

/// Cross-checks first-hand claims about contribution edges.
///
/// ```
/// use bartercast_core::frontier::{advertised_slice, lying_slice, records_of};
/// use bartercast_core::{Auditor, BarterCastConfig, PrivateHistory};
/// use bartercast_util::units::{Bytes, PeerId, Seconds};
///
/// // the victim confirms a tiny download; the liar claims 100 GB
/// let mut victim = PrivateHistory::new(PeerId(1));
/// victim.record_download(PeerId(9), Bytes::from_mb(50), Seconds(1));
/// let mut liar = PrivateHistory::new(PeerId(9));
/// liar.record_upload(PeerId(1), Bytes::from_mb(50), Seconds(1));
///
/// let config = BarterCastConfig::default();
/// let mut auditor = Auditor::default();
/// let lie = lying_slice(&liar, config, Bytes::from_gb(100));
/// auditor.ingest(liar.owner(), &records_of(&lie));
/// auditor.ingest(victim.owner(), &records_of(&advertised_slice(&victim, config)));
/// assert_eq!((auditor.marks(PeerId(9)), auditor.marks(PeerId(1))), (1, 1));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Auditor {
    edges: FxHashMap<(PeerId, PeerId), EdgeAudit>,
    peers: FxHashMap<PeerId, PeerTally>,
    /// A source claim is suspicious when it exceeds
    /// `target_claim * factor + slack`.
    factor: f64,
    /// Absolute slack (staleness allowance).
    slack: Bytes,
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
            edges: FxHashMap::default(),
            peers: FxHashMap::default(),
            factor,
            slack,
        }
    }

    /// Ingest `records` received from `sender`: each carries the
    /// sender's claim as one edge's source and as another's target
    /// ([`message::claims`]), and each claimed edge is checked.
    pub fn ingest(&mut self, sender: PeerId, records: &[TransferRecord]) {
        for record in records {
            let claims = message::claims(sender, record).into_iter().flatten();
            for (witness, (edge, total)) in claims.enumerate() {
                self.claim(edge, witness, total);
            }
        }
    }

    /// Max-merge `total` into `witness`'s claim on `edge`, then
    /// cross-check the edge once both witnesses are heard: when the
    /// source's claim exceeds the target's by more than the tolerance,
    /// both witnesses get a mark, once per edge.
    fn claim(&mut self, edge: (PeerId, PeerId), witness: usize, total: Bytes) {
        let e = self.edges.entry(edge).or_default();
        e.by[witness] = e.by[witness].max(Some(total));
        let [Some(src), Some(dst)] = e.by else {
            return;
        };
        let newly_checked = !std::mem::replace(&mut e.checked, true);
        let limit = dst.0 as f64 * self.factor + self.slack.0 as f64;
        let newly_marked = !e.marked && (src.0 as f64) > limit;
        e.marked |= newly_marked;
        if newly_checked || newly_marked {
            for peer in [edge.0, edge.1] {
                let tally = self.peers.entry(peer).or_default();
                tally.checked += u32::from(newly_checked);
                tally.marks += u32::from(newly_marked);
            }
        }
    }

    /// Discrepancy marks accumulated by `peer`.
    pub fn marks(&self, peer: PeerId) -> u32 {
        self.peers.get(&peer).map_or(0, |t| t.marks)
    }

    /// Cross-checked incident edges of `peer`.
    pub fn checked(&self, peer: PeerId) -> u32 {
        self.peers.get(&peer).map_or(0, |t| t.checked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontier::{advertised_slice, lying_slice, records_of};
    use crate::history::PrivateHistory;
    use crate::message::BarterCastConfig;
    use bartercast_util::units::Seconds;

    fn p(i: u32) -> PeerId {
        PeerId(i)
    }

    /// The sender and records `history`'s owner advertises.
    fn honest(history: &PrivateHistory) -> (PeerId, Vec<TransferRecord>) {
        let slice = advertised_slice(history, BarterCastConfig::default());
        (history.owner(), records_of(&slice))
    }

    /// The sender and records `liar` sends claiming `huge` uploads
    /// (§5.4).
    fn lying(liar: &PrivateHistory, huge: Bytes) -> (PeerId, Vec<TransferRecord>) {
        let slice = lying_slice(liar, BarterCastConfig::default(), huge);
        (liar.owner(), records_of(&slice))
    }

    fn ingest(auditor: &mut Auditor, (sender, records): &(PeerId, Vec<TransferRecord>)) {
        auditor.ingest(*sender, records);
    }

    /// Two honest peers reporting the same transfer agree.
    #[test]
    fn honest_claims_do_not_flag() {
        let mut a = PrivateHistory::new(p(0));
        let mut b = PrivateHistory::new(p(1));
        a.record_upload(p(1), Bytes::from_gb(2), Seconds(5));
        b.record_download(p(0), Bytes::from_gb(2), Seconds(5));

        let mut auditor = Auditor::default();
        ingest(&mut auditor, &honest(&a));
        ingest(&mut auditor, &honest(&b));
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
        ingest(&mut auditor, &honest(&a));
        ingest(&mut auditor, &honest(&b));
        assert_eq!(auditor.marks(p(0)) + auditor.marks(p(1)), 0);
    }

    /// The §5.4 lie pattern is flagged once both witnesses are heard.
    #[test]
    fn selfish_lie_is_flagged() {
        // honest peer 1 confirms only 100 MB downloaded from the liar
        let mut victim = PrivateHistory::new(p(1));
        victim.record_download(p(9), Bytes::from_mb(100), Seconds(5));
        // liar 9 claims 100 GB uploaded to peer 1
        let mut liar = PrivateHistory::new(p(9));
        liar.record_upload(p(1), Bytes::from_mb(100), Seconds(5));
        let lie = lying(&liar, Bytes::from_gb(100));

        let mut auditor = Auditor::default();
        ingest(&mut auditor, &honest(&victim));
        ingest(&mut auditor, &lie);
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
        ingest(&mut auditor, &lying(&liar, Bytes::from_gb(100)));
        for i in 1..=5u32 {
            let mut h = PrivateHistory::new(p(i));
            h.record_download(p(9), Bytes::from_mb(10), Seconds(i as u64));
            ingest(&mut auditor, &honest(&h));
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
        let mut victim = PrivateHistory::new(p(1));
        victim.record_download(p(9), Bytes::from_mb(10), Seconds(1));
        let mut liar = PrivateHistory::new(p(9));
        liar.record_upload(p(1), Bytes::from_mb(10), Seconds(1));
        let lie = lying(&liar, Bytes::from_gb(50));
        let confirmed = honest(&victim);
        let mut auditor = Auditor::default();
        for _ in 0..5 {
            ingest(&mut auditor, &lie);
            ingest(&mut auditor, &confirmed);
        }
        assert_eq!(auditor.marks(p(9)), 1);
    }

    #[test]
    #[should_panic(expected = "tolerance factor")]
    fn rejects_sub_unit_factor() {
        let _ = Auditor::new(0.5, Bytes::ZERO);
    }
}
