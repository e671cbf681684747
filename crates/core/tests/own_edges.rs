//! An evaluator's own edges are its history's.
//!
//! `PeerState::record_*` adds the bytes that moved to the one edge they
//! moved, and `PeerState::absorb` drops every record about its
//! receiver, so nothing else writes an edge incident to the owner.
//! After any mix of record calls and absorbed records, records that
//! name the owner with any totals included, every edge incident to the
//! owner equals its private total, and no other edge touches the owner.

use bartercast_core::{PeerState, PrivateHistory, ReputationEngine, TransferRecord};
use bartercast_util::units::{Bytes, PeerId, Seconds};
use proptest::prelude::*;

/// One call: `(kind, peer, about, megabytes, up, down)`. Kinds 0–3 are
/// the four record calls with `peer`; 4 absorbs from `peer` the record
/// `(about, up, down)`, where `about` may be the owner, 0.
type Call = (u8, u32, u32, u64, u64, u64);

fn calls() -> impl Strategy<Value = Vec<Call>> {
    prop::collection::vec(
        (
            0u8..5,
            1u32..9,
            0u32..9,
            0u64..64,
            any::<u64>(),
            any::<u64>(),
        ),
        1..80,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn own_edges_equal_the_history(calls in calls()) {
        let owner = PeerId(0);
        let mut state = PeerState::new(PrivateHistory::new(owner), ReputationEngine::new());
        for (t, &(kind, peer, about, mb, up, down)) in calls.iter().enumerate() {
            let (peer, amount, now) = (PeerId(peer), Bytes::from_mb(mb), Seconds(t as u64));
            match kind {
                0 => state.record_upload(peer, amount, now),
                1 => state.record_download(peer, amount, now),
                2 => state.record_piece_upload(peer, amount, now),
                3 => state.record_piece_download(peer, amount, now),
                _ => {
                    let record = TransferRecord {
                        peer: PeerId(about),
                        up: Bytes(up),
                        down: Bytes(down),
                    };
                    state.absorb(peer, Default::default(), &[record]);
                }
            }
            for (p, totals) in state.history.iter() {
                let graph = state.engine.graph();
                prop_assert_eq!(graph.edge(owner, p), totals.up, "after call {}", t);
                prop_assert_eq!(graph.edge(p, owner), totals.down, "after call {}", t);
            }
            for (from, to, _) in state.subjective_edges() {
                let other = if from == owner { to } else { from };
                prop_assert!(
                    (from != owner && to != owner) || state.history.get(other).is_some(),
                    "after call {}: edge {:?} -> {:?} is not in the history", t, from, to
                );
            }
        }
    }
}
