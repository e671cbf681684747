//! Cross-crate property tests on the reputation pipeline: Equation 1
//! invariants that must hold for *any* pattern of transfers and gossip.

use bartercast::core::{BarterCastConfig, BarterCastMessage, PrivateHistory, ReputationEngine};
use bartercast::graph::maxflow::Method;
use bartercast::util::units::{Bytes, PeerId, Seconds};
use proptest::prelude::*;

/// Random transfer events among up to 8 peers.
fn transfers() -> impl Strategy<Value = Vec<(u32, u32, u64)>> {
    prop::collection::vec((0u32..8, 0u32..8, 1u64..2_000_000_000), 0..60)
}

/// Build per-peer histories from the ground-truth transfer list.
fn histories(events: &[(u32, u32, u64)]) -> Vec<PrivateHistory> {
    let mut hs: Vec<PrivateHistory> = (0..8).map(|i| PrivateHistory::new(PeerId(i))).collect();
    for (t, &(f, to, amount)) in events.iter().enumerate() {
        if f == to {
            continue;
        }
        hs[f as usize].record_upload(PeerId(to), Bytes(amount), Seconds(t as u64));
        hs[to as usize].record_download(PeerId(f), Bytes(amount), Seconds(t as u64));
    }
    hs
}

/// Gossip can only make an evaluation better-informed, never
/// reverse the sign of a purely-direct negative balance: a peer I
/// only uploaded to cannot become positive through third-party
/// claims, because maxflow toward me is capped by my in-edges
/// (§3.4). Holds on every kernel the engine can select, through
/// point and batch queries alike.
fn pure_taker_stays_non_positive(
    events: &[(u32, u32, u64)],
    taker_amount: u64,
    claim: u64,
) -> Result<(), TestCaseError> {
    // I (peer 0) only ever uploaded to peer 7 and downloaded nothing.
    let mut h = PrivateHistory::new(PeerId(0));
    h.record_upload(PeerId(7), Bytes(taker_amount), Seconds(1));
    let mut base = ReputationEngine::from_private(&h);
    // peer 7 lies arbitrarily about serving others
    let lie = BarterCastMessage {
        sender: PeerId(7),
        records: events
            .iter()
            .map(|&(_, to, _)| bartercast::core::TransferRecord {
                peer: PeerId(1 + (to % 6)), // peers 1..=6: never me (0) or the liar (7)
                up: Bytes(claim),
                down: Bytes::ZERO,
            })
            .collect(),
    };
    base.absorb_message(&lie);
    for method in [Method::DEPLOYED, Method::Bounded(3), Method::Dinic] {
        // separate engines so the batch runs its own sweep instead
        // of hitting the point query's memo entry
        let r = base
            .clone()
            .with_method(method)
            .reputation(PeerId(0), PeerId(7));
        prop_assert!(
            r <= 0.0,
            "{method:?}: pure taker must stay non-positive, got {r}"
        );
        let swept = base
            .clone()
            .with_method(method)
            .reputations_from(PeerId(0), &[PeerId(7)])[0];
        prop_assert!(
            swept <= 0.0,
            "{method:?} batch: pure taker must stay non-positive, got {swept}"
        );
    }
    Ok(())
}

/// A case real proptest once shrank a failure of
/// `lies_cannot_turn_pure_taker_positive` to: one lying record whose
/// claim exceeds what I uploaded to the liar.
#[test]
fn pure_taker_regression_single_inflated_claim() {
    pure_taker_stays_non_positive(&[(0, 7, 1)], 1, 2).expect("pinned regression case");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Reputations stay strictly inside (-1, 1).
    #[test]
    fn reputation_always_bounded(events in transfers()) {
        let hs = histories(&events);
        let mut engine = ReputationEngine::from_private(&hs[0]);
        for h in &hs[1..] {
            engine.absorb_message(&BarterCastMessage::from_history(h, BarterCastConfig::default()));
        }
        for j in 0..8u32 {
            let r = engine.reputation(PeerId(0), PeerId(j));
            prop_assert!(r > -1.0 && r < 1.0);
        }
    }

    /// With complete honest information, mutual evaluations are
    /// antisymmetric for DIRECT-only flows (depth-1): R_i(j) = -R_j(i).
    #[test]
    fn direct_only_reputation_is_antisymmetric(events in transfers()) {
        let hs = histories(&events);
        for i in 0..4u32 {
            for j in (i + 1)..4u32 {
                let mut ei = ReputationEngine::from_private(&hs[i as usize])
                    .with_method(Method::Bounded(1));
                let mut ej = ReputationEngine::from_private(&hs[j as usize])
                    .with_method(Method::Bounded(1));
                let rij = ei.reputation(PeerId(i), PeerId(j));
                let rji = ej.reputation(PeerId(j), PeerId(i));
                prop_assert!((rij + rji).abs() < 1e-9,
                    "direct reputations must mirror: R_{i}({j})={rij} R_{j}({i})={rji}");
            }
        }
    }

    #[test]
    fn lies_cannot_turn_pure_taker_positive(
        events in transfers(),
        taker_amount in 1u64..2_000_000_000,
        claim in 1u64..u32::MAX as u64,
    ) {
        pure_taker_stays_non_positive(&events, taker_amount, claim)?;
    }

    /// The deployed two-hop evaluation never exceeds the unbounded one
    /// in magnitude of flow, and both agree on sign when the deployed
    /// one is nonzero... (flows are monotone in the path bound).
    #[test]
    fn bounded_flows_below_unbounded(events in transfers()) {
        let hs = histories(&events);
        let mut deployed = ReputationEngine::from_private(&hs[0]);
        for h in &hs[1..] {
            deployed.absorb_message(&BarterCastMessage::from_history(h, BarterCastConfig::default()));
        }
        let unbounded = deployed.clone().with_method(Method::Dinic);
        for j in 1..8u32 {
            let (t2, a2) = deployed.flows(PeerId(0), PeerId(j));
            let (tu, au) = unbounded.flows(PeerId(0), PeerId(j));
            prop_assert!(t2 <= tu);
            prop_assert!(a2 <= au);
        }
    }

    /// Replaying the same gossip twice changes nothing (idempotence
    /// end-to-end).
    #[test]
    fn gossip_replay_is_idempotent(events in transfers()) {
        let hs = histories(&events);
        let mut engine = ReputationEngine::from_private(&hs[0]);
        let msgs: Vec<BarterCastMessage> = hs[1..]
            .iter()
            .map(|h| BarterCastMessage::from_history(h, BarterCastConfig::default()))
            .collect();
        for m in &msgs {
            engine.absorb_message(m);
        }
        let before: Vec<f64> = (0..8).map(|j| engine.reputation(PeerId(0), PeerId(j))).collect();
        for m in &msgs {
            prop_assert_eq!(engine.absorb_message(m), 0, "replay must be a no-op");
        }
        let after: Vec<f64> = (0..8).map(|j| engine.reputation(PeerId(0), PeerId(j))).collect();
        prop_assert_eq!(before, after);
    }
}
