//! A record call merges only the edge whose private total moved.
//!
//! `PeerState::record_*` max-merges one own edge: the upload side for
//! an upload, the download side for a download. The other edge already
//! holds at least its private total, because every earlier call merged
//! its side and merges only raise. The oracle here merges both sides
//! after every call, as the record path once did, through the §3.4
//! rule ([`message::merge_records`] of the owner's record about the
//! peer). After any mix of record calls and absorbed gossip, both must
//! hold the same edges at the same graph version.

use bartercast_core::message::{self, TransferRecord};
use bartercast_core::{PeerState, PrivateHistory, ReputationEngine};
use bartercast_util::units::{Bytes, PeerId, Seconds};
use proptest::prelude::*;

/// One call: `(kind, peer, megabytes)`; kinds 0–3 are the four record
/// calls, 4 absorbs a record about `peer` from a third peer.
type Call = (u8, u32, u64);

fn calls() -> impl Strategy<Value = Vec<Call>> {
    prop::collection::vec((0u8..5, 1u32..9, 0u64..64), 1..80)
}

/// `state` after the call, with both own edges merged for a record call.
fn apply(state: &mut PeerState, (kind, peer, mb): Call, now: Seconds, both_sides: bool) {
    let (peer, amount) = (PeerId(peer), Bytes::from_mb(mb));
    match kind {
        0 => state.record_upload(peer, amount, now),
        1 => state.record_download(peer, amount, now),
        2 => state.record_piece_upload(peer, amount, now),
        3 => state.record_piece_download(peer, amount, now),
        _ => {
            // a third peer's claim about both edges with `peer`'s
            // partner, which may exceed the owner's own totals
            let record = TransferRecord {
                peer: PeerId(0),
                up: Bytes::from_mb(mb * 3),
                down: Bytes::from_mb(mb / 2),
            };
            state.absorb(peer, Default::default(), &[record]);
            return;
        }
    }
    if both_sides {
        let totals = state.history.get(peer).expect("just recorded");
        let own = TransferRecord::of(peer, &totals);
        let owner = state.history.owner();
        message::merge_records(state.engine.graph_mut(), owner, &[own]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn one_sided_record_merges_equal_two_sided(calls in calls()) {
        let owner = PeerId(0);
        let new = || PeerState::new(PrivateHistory::new(owner), ReputationEngine::new());
        let (mut one, mut two) = (new(), new());
        for (t, &call) in calls.iter().enumerate() {
            let now = Seconds(t as u64);
            apply(&mut one, call, now, false);
            apply(&mut two, call, now, true);
            prop_assert_eq!(one.subjective_edges(), two.subjective_edges(), "after call {}", t);
            prop_assert_eq!(
                one.engine.graph().version(),
                two.engine.graph().version(),
                "after call {}", t
            );
        }
    }
}
