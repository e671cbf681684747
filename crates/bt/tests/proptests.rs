//! Property-based tests for choking and swarm-state invariants.

use bartercast_bt::choke::{Candidate, Choker, PeerScore};
use bartercast_bt::swarm::{Role, Swarm};
use bartercast_bt::BtConfig;
use bartercast_core::policy::ReputationPolicy;
use bartercast_util::units::{Bytes, PeerId, Seconds};
use proptest::prelude::*;

fn candidates() -> impl Strategy<Value = Vec<Candidate>> {
    prop::collection::vec((1u32..40, 0u64..10_000, 0u64..10_000), 0..20).prop_map(|v| {
        let mut seen = std::collections::HashSet::new();
        v.into_iter()
            .filter(|(p, _, _)| seen.insert(*p))
            .map(|(p, to_me, from_me)| Candidate {
                peer: PeerId(p),
                rate_to_me: to_me,
                rate_from_me: from_me,
            })
            .collect()
    })
}

fn config() -> BtConfig {
    BtConfig {
        regular_slots: 4,
        unchoke_period: Seconds(10),
        optimistic_period: Seconds(30),
    }
}

/// The picker `credit_download_salted` replaced, kept as its oracle:
/// one full scan of the file per piece credited, one provider lookup
/// per piece per provider. Reads `before` only; returns the pieces in
/// pick order, the downloader's remaining credit, and the availability
/// vector the call must leave behind.
fn credit_by_rescanning(
    before: &Swarm,
    downloader: PeerId,
    providers: &[PeerId],
    bytes: Bytes,
    salt: u64,
) -> (Vec<usize>, Bytes, Vec<u32>) {
    let n = before.piece_count();
    let piece_size = before.piece_size();
    let mut availability: Vec<u32> = (0..n).map(|i| before.availability(i)).collect();
    let d = before.member(downloader).expect("caller checks membership");
    let mut completed = Vec::new();
    if d.bitfield.is_complete() {
        return (completed, d.credit, availability);
    }
    let mut mine: Vec<bool> = (0..n).map(|i| d.bitfield.has(i)).collect();
    let mut credit = d.credit + bytes;
    while credit >= piece_size {
        let mut best: Option<(u32, u64, usize)> = None;
        for i in 0..n {
            if mine[i] {
                continue;
            }
            let offered = providers
                .iter()
                .any(|&p| before.member(p).is_some_and(|m| m.bitfield.has(i)));
            if !offered {
                continue;
            }
            let tie = if salt == 0 {
                i as u64
            } else {
                (i as u64 ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            };
            match best {
                Some((a, t, _)) if (a, t) <= (availability[i], tie) => {}
                _ => best = Some((availability[i], tie, i)),
            }
        }
        let Some((_, _, piece)) = best else {
            // nothing on offer: drop the surplus credit
            credit = Bytes::ZERO;
            break;
        };
        credit -= piece_size;
        mine[piece] = true;
        availability[piece] += 1;
        completed.push(piece);
    }
    (completed, credit, availability)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The unchoke set is always a subset of the candidates, has no
    /// duplicates, and respects the slot budget.
    #[test]
    fn unchoke_set_is_well_formed(
        cands in candidates(),
        rounds in 1usize..8,
        seeder in prop::bool::ANY,
    ) {
        let mut ch = Choker::new(config());
        let role = if seeder { Role::Seeder } else { Role::Leecher };
        for _ in 0..rounds {
            let unchoked = ch.unchoke(role, &cands, &ReputationPolicy::None, |_| PeerScore::NEUTRAL);
            prop_assert!(unchoked.len() <= config().regular_slots + 1);
            let mut dedup = unchoked.clone();
            dedup.sort();
            dedup.dedup();
            prop_assert_eq!(dedup.len(), unchoked.len(), "duplicate slot assignment");
            for p in &unchoked {
                prop_assert!(cands.iter().any(|c| c.peer == *p), "unchoked a stranger");
            }
        }
    }

    /// Under the ban policy, no peer below δ ever gets a slot.
    #[test]
    fn ban_policy_never_leaks_slots(
        cands in candidates(),
        delta in -0.9f64..-0.1,
        rounds in 1usize..6,
    ) {
        let mut ch = Choker::new(config());
        // deterministic pseudo-reputation per peer id
        let rep = |p: PeerId| (p.0 as f64 * 0.37).sin();
        for _ in 0..rounds {
            let unchoked = ch.unchoke(Role::Leecher, &cands, &ReputationPolicy::Ban { delta }, |p| {
                PeerScore::reputation_only(rep(p))
            });
            for p in unchoked {
                prop_assert!(rep(p) >= delta, "banned peer {p} got a slot");
            }
        }
    }

    /// Leecher regular slots are filled by descending reciprocation
    /// rate: nobody outside the unchoke set has a strictly higher rate
    /// than the slowest regular slot (the optimistic slot excepted).
    #[test]
    fn leecher_tit_for_tat_orders_rates(cands in candidates()) {
        let mut ch = Choker::new(config());
        let unchoked = ch.unchoke(Role::Leecher, &cands, &ReputationPolicy::None, |_| PeerScore::NEUTRAL);
        let regular: Vec<PeerId> = unchoked
            .iter()
            .take(config().regular_slots.min(cands.len()))
            .copied()
            .collect();
        if regular.len() == config().regular_slots {
            let min_regular = regular
                .iter()
                .map(|p| cands.iter().find(|c| c.peer == *p).unwrap().rate_to_me)
                .min()
                .unwrap();
            for c in &cands {
                if !unchoked.contains(&c.peer) {
                    prop_assert!(
                        c.rate_to_me <= min_regular,
                        "peer {} (rate {}) beat a regular slot (min {})",
                        c.peer, c.rate_to_me, min_regular
                    );
                }
            }
        }
    }

    /// Random join/leave/credit sequences never break the swarm's
    /// availability accounting.
    #[test]
    fn swarm_invariants_under_random_ops(
        ops in prop::collection::vec((0u8..4, 0u32..10, 0u64..2048), 1..60)
    ) {
        let mut s = Swarm::new(16, Bytes::from_kb(64), config());
        for (op, peer, amount) in ops {
            let pid = PeerId(peer);
            match op {
                0 => s.join_leecher(pid),
                1 => s.join_seeder(pid),
                2 => s.leave(pid),
                _ => {
                    let providers: Vec<PeerId> = s.members().collect();
                    let _ = s.credit_download(pid, &providers, Bytes(amount * 1024));
                }
            }
            s.check_invariants().unwrap();
        }
    }

    /// The select-k credit path equals the per-piece rescan it
    /// replaced: same pieces in the same order, same leftover credit,
    /// same availability, and nobody else's bitfield moves.
    #[test]
    fn credit_download_equals_the_per_piece_rescan(
        pieces in 1usize..200,
        leechers in 1u32..6,
        with_seeder in prop::bool::ANY,
        calls in prop::collection::vec(
            (
                0u32..7,
                prop::collection::vec(0u32..8, 1..7),
                prop::bool::ANY,
                any::<u64>(),
                0u64..1000,
            ),
            1..24,
        ),
    ) {
        let piece_size = Bytes::from_kb(64);
        let mut s = Swarm::new(pieces, piece_size, config());
        if with_seeder {
            s.join_seeder(PeerId(0));
        } else {
            s.join_leecher(PeerId(0));
        }
        for id in 1..=leechers {
            s.join_leecher(PeerId(id));
        }
        // ids above `leechers` are absent; providers repeat and may
        // name the downloader; credit runs from nothing to past the
        // file size in quarter pieces
        for (downloader, providers, unsalted, salt, quarters) in calls {
            let downloader = PeerId(downloader);
            let providers: Vec<PeerId> = providers.into_iter().map(PeerId).collect();
            let salt = if unsalted { 0 } else { salt | 1 };
            let bytes = Bytes(quarters * (piece_size.0 / 4));
            let before = s.clone();
            let done = s.credit_download_salted(downloader, &providers, bytes, salt);
            s.check_invariants().unwrap();
            prop_assert_eq!(s.member_count(), before.member_count());
            let Some(d) = s.member(downloader) else {
                prop_assert!(done.is_empty(), "a non-member completed pieces");
                continue;
            };
            let (expected, credit, availability) =
                credit_by_rescanning(&before, downloader, &providers, bytes, salt);
            prop_assert_eq!(&done, &expected, "pieces or their order differ");
            prop_assert_eq!(d.credit, credit);
            for (i, &a) in availability.iter().enumerate() {
                prop_assert_eq!(s.availability(i), a, "availability of piece {}", i);
            }
            for id in before.members() {
                let was = &before.member(id).unwrap().bitfield;
                let is = &s.member(id).unwrap().bitfield;
                if id == downloader {
                    let gained: Vec<usize> = is.iter_set().filter(|&i| !was.has(i)).collect();
                    let mut sorted = expected.clone();
                    sorted.sort();
                    prop_assert_eq!(gained, sorted);
                    prop_assert_eq!(is.count(), was.count() + expected.len());
                } else {
                    prop_assert_eq!(is, was, "bystander {} changed", id);
                }
            }
            // k = 1: one more piece's worth of credit buys the next pick
            let (next, _, _) = credit_by_rescanning(&s, downloader, &providers, piece_size, salt);
            prop_assert_eq!(
                s.rarest_wanted_salted(downloader, &providers, salt),
                next.first().copied()
            );
        }
    }

    /// A leecher fed by a seeder always completes with enough credit,
    /// regardless of chunking.
    #[test]
    fn credit_chunking_is_irrelevant(chunks in prop::collection::vec(1u64..200, 1..40)) {
        let piece = Bytes::from_kb(64);
        let total_pieces = 8usize;
        let mut s = Swarm::new(total_pieces, piece, config());
        s.join_seeder(PeerId(0));
        s.join_leecher(PeerId(1));
        let needed = piece.0 * total_pieces as u64;
        let mut fed = 0u64;
        for kb in chunks {
            let amount = (kb * 1024).min(needed.saturating_sub(fed));
            fed += amount;
            s.credit_download(PeerId(1), &[PeerId(0)], Bytes(amount));
        }
        // top up to exactly the file size
        if fed < needed {
            s.credit_download(PeerId(1), &[PeerId(0)], Bytes(needed - fed));
        }
        prop_assert!(s.member(PeerId(1)).unwrap().bitfield.is_complete());
        s.check_invariants().unwrap();
    }

    /// Rarest-first with any salt picks a piece the downloader lacks
    /// and some provider has.
    #[test]
    fn rarest_first_picks_valid_pieces(salt in any::<u64>(), have in 0usize..15) {
        let mut s = Swarm::new(16, Bytes::from_kb(64), config());
        s.join_seeder(PeerId(0));
        s.join_leecher(PeerId(1));
        // give the leecher a prefix of pieces through the credit path,
        // then query the next pick directly
        s.credit_download(PeerId(1), &[PeerId(0)], Bytes(have as u64 * 64 * 1024));
        if let Some(pick) = s.rarest_wanted_salted(PeerId(1), &[PeerId(0)], salt) {
            prop_assert!(pick < 16);
            prop_assert!(!s.member(PeerId(1)).unwrap().bitfield.has(pick));
            prop_assert!(s.member(PeerId(0)).unwrap().bitfield.has(pick));
        } else {
            prop_assert!(s.member(PeerId(1)).unwrap().bitfield.is_complete());
        }
    }
}
