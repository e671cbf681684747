//! Per-owner record frontiers for delta anti-entropy.
//!
//! Blind epidemic push resends a peer's whole advertised history slice
//! on every exchange, so receivers discard most of what arrives once
//! the network warms up. Records are *max-merge monotone* — `up`/`down`
//! totals only grow and `last_seen` only advances — which means a
//! compact summary of the advertised slice is enough for the owner to
//! compute exactly which records a remote copy lacks:
//!
//! - `count`: how many records the slice holds,
//! - `max_ts`: the newest `last_seen` among them,
//! - `checksum`: an order-independent hash of the full slice content.
//!
//! A digest sender transmits the [`Frontier`] it last saw from the
//! owner; the owner compares it against the frontier of its *current*
//! slice and answers with nothing (in sync), the records written since
//! the claimed watermark (partial delta), or the whole slice (full
//! sync) — see [`plan_sync`] for the exact decision table and the
//! soundness argument.
//!
//! The watermark comparison is **inclusive** (`last_seen >= max_ts`):
//! a record stamped exactly at the claimed watermark may or may not be
//! covered by the claim, so it is always resent. Max-merge idempotence
//! makes the resend harmless, and excess is always safe — only
//! *omission* of a changed record would be a correctness bug.

use crate::history::{PrivateHistory, TransferTotals};
use crate::message::{BarterCastConfig, BarterCastMessage, TransferRecord};
use bartercast_util::units::{Bytes, PeerId, Seconds};

/// One record of the advertised slice with the recency stamp the
/// frontier watermark is computed from ([`BarterCastMessage`] records
/// drop `last_seen`; the sync planner needs it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceRecord {
    /// Remote peer the totals are with.
    pub peer: PeerId,
    /// Totals as they would appear in an exchange message.
    pub totals: TransferTotals,
}

/// Compact summary of one owner's advertised record slice.
///
/// `Frontier::default()` is the *empty claim* — "I have nothing of
/// yours" — and [`plan_sync`] answers it with every record, which is
/// the induction base of the soundness argument.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Frontier {
    /// Number of records in the slice.
    pub count: u32,
    /// Newest `last_seen` among the slice's records.
    pub max_ts: Seconds,
    /// Order-independent FNV/XOR checksum over the slice content.
    pub checksum: u64,
}

/// The owner's answer to a digest claim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyncPlan {
    /// Claim matches the current slice exactly: send nothing.
    InSync,
    /// Send `records`; `full` marks a checksum-mismatch resync (the
    /// whole slice) rather than a watermark delta.
    Send {
        /// True when the whole slice is being resent.
        full: bool,
        /// The records the digest sender needs.
        records: Vec<TransferRecord>,
    },
}

/// A `Delta` reply as it travels on the wire: the records the digest
/// sender was missing plus the owner's fresh [`Frontier`] stamp, which
/// the receiver caches for its next digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaMsg {
    /// The owner of the records (the responder).
    pub sender: PeerId,
    /// True when this is a full resync rather than a watermark delta.
    pub full: bool,
    /// The responder's current frontier, to be cached by the receiver.
    pub stamp: Frontier,
    /// The missing records.
    pub records: Vec<TransferRecord>,
}

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn record_hash(r: &SliceRecord) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    h = fnv1a(h, &r.peer.0.to_le_bytes());
    h = fnv1a(h, &r.totals.up.0.to_le_bytes());
    h = fnv1a(h, &r.totals.down.0.to_le_bytes());
    h = fnv1a(h, &r.totals.last_seen.0.to_le_bytes());
    h
}

/// Materialize the advertised slice of `history` under `config`: the
/// records the paper's §3.4 selection picks, with their `last_seen`
/// stamps attached ([`BarterCastMessage::from_history`] ships it with
/// the stamps dropped). Ordering follows the selection and is
/// deterministic.
pub fn advertised_slice(history: &PrivateHistory, config: BarterCastConfig) -> Vec<SliceRecord> {
    history
        .select_peers(config.nh, config.nr)
        .into_iter()
        .filter_map(|peer| history.get(peer).map(|totals| SliceRecord { peer, totals }))
        .collect()
}

/// The slice a **selfish liar** advertises (§5.4, manipulation (2)):
/// the peers and stamps of [`advertised_slice`], each record claiming
/// `huge` uploaded to the peer and nothing downloaded from it.
pub fn lying_slice(
    history: &PrivateHistory,
    config: BarterCastConfig,
    huge: Bytes,
) -> Vec<SliceRecord> {
    let mut slice = advertised_slice(history, config);
    for r in &mut slice {
        r.totals.up = huge;
        r.totals.down = Bytes::ZERO;
    }
    slice
}

/// Summarize a slice. XOR-folding per-record FNV hashes makes the
/// checksum independent of record order, so any deterministic slice
/// ordering yields the same frontier.
pub fn frontier_of(slice: &[SliceRecord]) -> Frontier {
    let mut f = Frontier {
        count: slice.len() as u32,
        ..Frontier::default()
    };
    for r in slice {
        f.max_ts = f.max_ts.max(r.totals.last_seen);
        f.checksum ^= record_hash(r);
    }
    f
}

/// Convert a slice into the exchange message it advertises.
pub fn message_from_slice(owner: PeerId, slice: &[SliceRecord]) -> BarterCastMessage {
    BarterCastMessage {
        sender: owner,
        records: records_of(slice),
    }
}

/// A slice's records as they travel: the totals without the stamps.
pub fn records_of(slice: &[SliceRecord]) -> Vec<TransferRecord> {
    slice
        .iter()
        .map(|r| TransferRecord::of(r.peer, &r.totals))
        .collect()
}

/// Decide what a digest claiming `claim` needs from a slice whose
/// current frontier is `ours`.
///
/// Decision table:
/// 1. `claim == ours` → [`SyncPlan::InSync`]: the remote copy is
///    current, nothing moves.
/// 2. Claim *ahead* of us (`count` or `max_ts` exceeds ours) → full
///    resync. The claim was stamped against a slice we no longer
///    advertise (a restart); the watermark is meaningless.
/// 3. Same `count` and `max_ts` but different checksum → full resync:
///    slice membership swapped without moving the watermark.
/// 4. Otherwise → partial delta of every record with
///    `last_seen >= claim.max_ts` (inclusive). If that delta would be
///    empty despite the claims differing, promote to full resync
///    rather than silently leaving the remote stale.
///
/// **Soundness** (no missing record, by induction): the empty claim
/// gets everything. Any later claim was stamped from a delta carrying
/// the frontier of the slice at stamp time; every mutation after that
/// stamp runs `last_seen = max(last_seen, now)` under a monotone
/// write clock, so a record that changed since carries
/// `last_seen >= stamp.max_ts` and case 4 includes it. Records that
/// *entered* the slice with older stamps (selection swaps at equal
/// totals) are the one blind spot of the watermark
/// — they flip `count`/`checksum` and land in cases 2–3, and the
/// periodic full-sync fallback bounds any residual staleness.
pub fn plan_sync(slice: &[SliceRecord], ours: Frontier, claim: Frontier) -> SyncPlan {
    if claim == ours {
        return SyncPlan::InSync;
    }
    let full = || SyncPlan::Send {
        full: true,
        records: records_of(slice),
    };
    if claim.count > ours.count || claim.max_ts > ours.max_ts {
        return full();
    }
    if claim.count == ours.count && claim.max_ts == ours.max_ts {
        return full();
    }
    let records: Vec<TransferRecord> = slice
        .iter()
        .filter(|r| r.totals.last_seen >= claim.max_ts)
        .map(|r| TransferRecord::of(r.peer, &r.totals))
        .collect();
    if records.is_empty() {
        return full();
    }
    SyncPlan::Send {
        full: false,
        records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> PeerId {
        PeerId(i)
    }

    fn history() -> PrivateHistory {
        let mut h = PrivateHistory::new(p(0));
        h.record_download(p(1), Bytes::from_mb(100), Seconds(10));
        h.record_download(p(2), Bytes::from_mb(50), Seconds(20));
        h.record_upload(p(3), Bytes::from_mb(10), Seconds(30));
        h
    }

    #[test]
    fn frontier_is_order_independent() {
        let slice = advertised_slice(&history(), BarterCastConfig::default());
        assert!(slice.len() >= 2);
        let mut reversed = slice.clone();
        reversed.reverse();
        assert_eq!(frontier_of(&slice), frontier_of(&reversed));
    }

    #[test]
    fn empty_slice_has_default_frontier() {
        assert_eq!(frontier_of(&[]), Frontier::default());
    }

    #[test]
    fn matching_claim_is_in_sync() {
        let slice = advertised_slice(&history(), BarterCastConfig::default());
        let ours = frontier_of(&slice);
        assert_eq!(plan_sync(&slice, ours, ours), SyncPlan::InSync);
    }

    #[test]
    fn empty_claim_gets_everything() {
        let slice = advertised_slice(&history(), BarterCastConfig::default());
        let ours = frontier_of(&slice);
        match plan_sync(&slice, ours, Frontier::default()) {
            SyncPlan::Send { records, .. } => assert_eq!(records.len(), slice.len()),
            other => panic!("expected a send, got {other:?}"),
        }
    }

    #[test]
    fn stale_claim_gets_only_newer_records() {
        let cfg = BarterCastConfig::default();
        let mut h = history();
        let claim = frontier_of(&advertised_slice(&h, cfg));
        // two writes after the claim was stamped: one brand-new peer,
        // one update to an existing entry
        h.record_download(p(4), Bytes::from_mb(5), Seconds(40));
        h.record_upload(p(1), Bytes::from_mb(1), Seconds(50));
        let slice = advertised_slice(&h, cfg);
        let ours = frontier_of(&slice);
        match plan_sync(&slice, ours, claim) {
            SyncPlan::Send { full, records } => {
                assert!(!full, "watermark delta expected");
                let peers: Vec<PeerId> = records.iter().map(|r| r.peer).collect();
                assert!(peers.contains(&p(4)), "new record included");
                assert!(peers.contains(&p(1)), "updated record included");
                // records untouched since the claim stay home
                assert!(!peers.contains(&p(2)));
                assert!(records.len() < slice.len());
            }
            other => panic!("expected a send, got {other:?}"),
        }
    }

    #[test]
    fn checksum_mismatch_at_same_shape_forces_full_resync() {
        let slice = advertised_slice(&history(), BarterCastConfig::default());
        let ours = frontier_of(&slice);
        let claim = Frontier {
            checksum: ours.checksum ^ 1,
            ..ours
        };
        match plan_sync(&slice, ours, claim) {
            SyncPlan::Send { full, records } => {
                assert!(full);
                assert_eq!(records.len(), slice.len());
            }
            other => panic!("expected a full resync, got {other:?}"),
        }
    }

    #[test]
    fn claim_ahead_of_us_forces_full_resync() {
        let slice = advertised_slice(&history(), BarterCastConfig::default());
        let ours = frontier_of(&slice);
        let claim = Frontier {
            max_ts: Seconds(ours.max_ts.0 + 1000),
            ..ours
        };
        assert!(matches!(
            plan_sync(&slice, ours, claim),
            SyncPlan::Send { full: true, .. }
        ));
    }

    #[test]
    fn delta_then_claim_reaches_in_sync() {
        // the protocol loop: digest with cached stamp, apply delta,
        // cache the fresh stamp, digest again -> in sync
        let cfg = BarterCastConfig::default();
        let mut h = history();
        let mut cached = Frontier::default();
        for round in 0..3 {
            let slice = advertised_slice(&h, cfg);
            let ours = frontier_of(&slice);
            match plan_sync(&slice, ours, cached) {
                SyncPlan::InSync => assert!(round > 0, "first round must send"),
                SyncPlan::Send { .. } => cached = ours,
            }
            if round == 1 {
                h.record_download(p(9), Bytes::from_mb(1), Seconds(100 + round));
            }
        }
        let slice = advertised_slice(&h, cfg);
        assert_eq!(
            plan_sync(&slice, frontier_of(&slice), cached),
            SyncPlan::InSync
        );
    }
}
