//! The ground-truth transfer ledger.
//!
//! Every workload in a [`SwarmCluster`](crate::SwarmCluster) shares
//! one [`SwarmLedger`] behind a mutex and records what *actually*
//! happened on the wire: pieces served (uploader side, at send time)
//! and pieces received (downloader side, at receipt — strictly less
//! under loss, until the re-request recovers). Tests use it as the
//! oracle the nodes' subjective BarterCast state is checked against:
//! a node's private history must match the ledger exactly, proving
//! piece transfers — not synthetic records — are the sole source of
//! contribution edges.
//!
//! `BTreeMap`s keep every summary deterministically ordered, so two
//! lockstep runs can compare ledgers bitwise.

use bartercast_util::units::{Bytes, PeerId};
use std::collections::BTreeMap;

/// What one peer's downloads look like from the outside.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PeerProgress {
    /// Distinct pieces completed.
    pub pieces: u64,
    /// Bytes received (piece receipts).
    pub downloaded: Bytes,
    /// Bytes served to others (piece sends).
    pub uploaded: Bytes,
    /// Choke round at which the download completed, if it did.
    pub completed_round: Option<u64>,
}

/// Shared ground truth of everything the swarm transferred.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SwarmLedger {
    /// Per-peer progress summary.
    pub progress: BTreeMap<PeerId, PeerProgress>,
    /// Bytes each `(uploader, downloader)` pair moved, recorded at
    /// send time on the uploader.
    pub served: BTreeMap<(PeerId, PeerId), Bytes>,
    /// Bytes each `(uploader, downloader)` pair delivered, recorded
    /// at receipt on the downloader (`<= served` under loss).
    pub delivered: BTreeMap<(PeerId, PeerId), Bytes>,
}

impl SwarmLedger {
    /// Record one piece send `from -> to`.
    pub fn record_serve(&mut self, from: PeerId, to: PeerId, amount: Bytes) {
        self.served.entry((from, to)).or_default().0 += amount.0;
        self.progress.entry(from).or_default().uploaded.0 += amount.0;
    }

    /// Record one *new* piece received by `to` from `from`.
    pub fn record_receipt(&mut self, from: PeerId, to: PeerId, amount: Bytes) {
        self.delivered.entry((from, to)).or_default().0 += amount.0;
        let p = self.progress.entry(to).or_default();
        p.downloaded.0 += amount.0;
        p.pieces += 1;
    }

    /// Record that `peer` completed its download at `round`.
    pub fn record_completion(&mut self, peer: PeerId, round: u64) {
        let p = self.progress.entry(peer).or_default();
        if p.completed_round.is_none() {
            p.completed_round = Some(round);
        }
    }

    /// Progress of one peer (zeroed if it never transferred).
    pub fn progress_of(&self, peer: PeerId) -> PeerProgress {
        self.progress.get(&peer).copied().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_accumulates_and_orders() {
        let mut l = SwarmLedger::default();
        l.record_serve(PeerId(2), PeerId(1), Bytes(100));
        l.record_serve(PeerId(2), PeerId(1), Bytes(100));
        l.record_receipt(PeerId(2), PeerId(1), Bytes(100));
        l.record_completion(PeerId(1), 7);
        l.record_completion(PeerId(1), 9); // first completion wins
        assert_eq!(l.served[&(PeerId(2), PeerId(1))], Bytes(200));
        assert_eq!(l.progress_of(PeerId(1)).pieces, 1);
        assert_eq!(l.progress_of(PeerId(1)).downloaded, Bytes(100));
        assert_eq!(l.progress_of(PeerId(2)).uploaded, Bytes(200));
        assert_eq!(l.progress_of(PeerId(1)).completed_round, Some(7));
        assert_eq!(l.progress_of(PeerId(2)).completed_round, None);
    }
}
