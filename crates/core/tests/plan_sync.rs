//! Soundness of the delta sync plan under the §3.4 record selection.
//!
//! One owner's history takes a random sequence of uploads, downloads
//! and meetings (`touch`) at non-decreasing times, equal stamps
//! included, and between writes advertises its slice, honest or lying,
//! to two receivers. One keeps its claim and absorbs only the records
//! [`plan_sync`] sends, as a live node and the simulator do; the other
//! absorbs every full slice. Max-merge makes a sound plan invisible, so
//! after every exchange both must hold the same edges.
//!
//! The same holds for an [`Auditor`]: one fed only the planned records
//! of honest and lying senders ends every exchange in the state of one
//! fed their whole slices.

use bartercast_core::frontier::{
    advertised_slice, frontier_of, lying_slice, message_from_slice, plan_sync, records_of, Frontier,
};
use bartercast_core::{Auditor, BarterCastConfig, BarterCastMessage, PrivateHistory, SyncPlan};
use bartercast_graph::ContributionGraph;
use bartercast_util::units::{Bytes, PeerId, Seconds};
use proptest::prelude::*;

/// One write: `(kind, peer, megabytes, time step)`, where kind 0 is an
/// upload, 1 a download and 2 a meeting; a zero step repeats the stamp.
type Write = (u8, u32, u64, u64);

fn writes() -> impl Strategy<Value = Vec<(Write, bool)>> {
    prop::collection::vec(
        ((0u8..3, 1u32..13, 1u64..64, 0u64..3), any::<bool>()),
        1..60,
    )
}

fn edges(graph: &ContributionGraph) -> Vec<(PeerId, PeerId, Bytes)> {
    let mut edges: Vec<_> = graph.edges().collect();
    edges.sort_unstable();
    edges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn planned_records_hold_what_full_slices_hold(
        writes in writes(),
        nh in 0usize..4,
        nr in 0usize..4,
        lying in any::<bool>(),
    ) {
        let owner = PeerId(0);
        let config = BarterCastConfig { nh, nr };
        let mut history = PrivateHistory::new(owner);
        let (mut planned, mut full) = (ContributionGraph::new(), ContributionGraph::new());
        let mut claim = Frontier::default();
        let mut now = 0;
        for ((kind, peer, mb, step), exchange) in writes {
            now += step;
            let (peer, amount, at) = (PeerId(peer), Bytes::from_mb(mb), Seconds(now));
            match kind {
                0 => history.record_upload(peer, amount, at),
                1 => history.record_download(peer, amount, at),
                _ => history.touch(peer, at),
            }
            if !exchange {
                continue;
            }
            let slice = if lying {
                lying_slice(&history, config, Bytes::from_gb(100))
            } else {
                advertised_slice(&history, config)
            };
            let ours = frontier_of(&slice);
            if let SyncPlan::Send { records, .. } = plan_sync(&slice, ours, claim) {
                BarterCastMessage { sender: owner, records }.apply(&mut planned);
                claim = ours;
            }
            message_from_slice(owner, &slice).apply(&mut full);
            prop_assert_eq!(edges(&planned), edges(&full), "at {} s", now);
        }
    }

    #[test]
    fn planned_records_audit_as_full_slices_do(
        steps in prop::collection::vec(
            ((0u8..2, 0usize..SENDERS, 0usize..SENDERS, 1u64..64, 0u64..3), 0usize..SENDERS + 2),
            1..80,
        ),
        liars in 0u8..1 << SENDERS,
        nh in 1usize..4,
        nr in 0usize..4,
    ) {
        let config = BarterCastConfig { nh, nr };
        let mut histories: Vec<PrivateHistory> =
            (0..SENDERS as u32).map(|i| PrivateHistory::new(PeerId(i))).collect();
        let mut claims = [Frontier::default(); SENDERS];
        let (mut planned, mut full) = (audit(), audit());
        let mut now = 0;
        for ((kind, a, b, mb, step), exchange) in steps {
            now += step;
            let at = Seconds(now);
            if a != b {
                let (pa, pb) = (PeerId(a as u32), PeerId(b as u32));
                if kind == 0 {
                    // a transfer both witnesses record
                    histories[a].record_upload(pb, Bytes::from_mb(mb), at);
                    histories[b].record_download(pa, Bytes::from_mb(mb), at);
                } else {
                    histories[a].touch(pb, at);
                    histories[b].touch(pa, at);
                }
            }
            // an index past the senders skips the exchange
            let Some(history) = histories.get(exchange) else {
                continue;
            };
            let slice = if liars >> exchange & 1 == 1 {
                lying_slice(history, config, Bytes::from_gb(100))
            } else {
                advertised_slice(history, config)
            };
            let sender = history.owner();
            let ours = frontier_of(&slice);
            if let SyncPlan::Send { records, .. } = plan_sync(&slice, ours, claims[exchange]) {
                planned.ingest(sender, &records);
                claims[exchange] = ours;
            }
            // the oracle: the whole slice on every exchange
            full.ingest(sender, &records_of(&slice));
            prop_assert_eq!(&planned, &full, "at {} s", now);
        }
    }
}

/// Peers that both send and witness in the audit property.
const SENDERS: usize = 4;

/// The simulator's audit tolerance, under which a 100 GB lie about a
/// few megabytes is marked.
fn audit() -> Auditor {
    Auditor::new(4.0, Bytes::from_mb(512))
}
