//! Gossiped totals are untrusted `u64`s. The deployed two-hop flow
//! `c(s, t) + Σ_m min(c(s, m), c(m, t))` (§3.2) adds them, so a
//! colluder who claims near-`u64::MAX` totals on both edges of one
//! two-hop path must not wrap the sum: the evaluator's own first-hand
//! upload to a freerider would otherwise vanish from the flow.

use bartercast_core::{BarterCastMessage, PrivateHistory, ReputationEngine, TransferRecord};
use bartercast_graph::Method;
use bartercast_util::units::{Bytes, PeerId, Seconds};

const EVALUATOR: PeerId = PeerId(0);
const FREERIDER: PeerId = PeerId(1);
const COLLUDER: PeerId = PeerId(2);

/// The evaluator's engine under `method` after it uploaded 100 MB to
/// the freerider.
fn honest_engine(method: Method) -> ReputationEngine {
    let mut history = PrivateHistory::new(EVALUATOR);
    history.record_upload(FREERIDER, Bytes::from_mb(100), Seconds(1));
    ReputationEngine::from_private(&history).with_method(method)
}

/// The deployed closed form and the two flow kernels that add path
/// flows (`Bounded(3)` by augmenting paths, `Dinic` by blocking flows).
#[test]
fn colluder_totals_saturate_the_two_hop_flow() {
    for method in [Method::DEPLOYED, Method::Bounded(3), Method::Dinic] {
        let honest = honest_engine(method).reputation(EVALUATOR, FREERIDER);
        assert!(
            honest < 0.0,
            "{method:?}: the freerider only took: {honest}"
        );

        // Two records from one colluder: the evaluator uploaded `huge`
        // to it, and it uploaded `huge` to the freerider. Together with
        // the first-hand 100 MB they sum to exactly 2^64 on the path
        // evaluator → freerider.
        let huge = Bytes(u64::MAX - Bytes::from_mb(100).0 + 1); // 2^64 − 100 MB
        let mut engine = honest_engine(method);
        engine.absorb_message(&BarterCastMessage {
            sender: COLLUDER,
            records: vec![
                TransferRecord {
                    peer: EVALUATOR,
                    up: Bytes::ZERO,
                    down: huge,
                },
                TransferRecord {
                    peer: FREERIDER,
                    up: huge,
                    down: Bytes::ZERO,
                },
            ],
        });

        let point = engine.reputation(EVALUATOR, FREERIDER);
        let batch = engine.reputations_from(EVALUATOR, &[FREERIDER]);
        assert_eq!(
            batch,
            [point],
            "{method:?}: point query and sweep must agree"
        );
        assert!(
            point <= honest,
            "{method:?}: colluder records raised the freerider from {honest} to {point}"
        );
    }
}
