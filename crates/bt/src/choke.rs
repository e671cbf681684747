//! The choking algorithm (§4.1) with reputation-policy hooks (§4.2).
//!
//! Every unchoke period a peer reassigns its upload slots:
//!
//! * a **leecher** unchokes the interested peers currently providing
//!   the highest upload rate *to it* (tit-for-tat);
//! * a **seeder** rotates its slots **round-robin** over the
//!   interested peers. (The original protocol description ranks by
//!   download rate; in a deterministic bandwidth model that ranking is
//!   self-reinforcing — the first unchoked peers are the only ones
//!   with a rate — and locks each seeder onto four peers until their
//!   downloads finish, which concentrates gigabytes onto single edges.
//!   Round-robin seeding, as deployed clients do to spread pieces,
//!   restores the load spreading a real swarm gets from rate noise and
//!   churn. See DESIGN.md, "Modelling notes".)
//! * one extra **optimistic** slot rotates round-robin over the
//!   remaining interested peers every optimistic period.
//!
//! BarterCast plugs in here: the *rank* policy replaces the optimistic
//! round-robin order with descending reputation, and the *ban* policy
//! removes peers below δ from all slot assignment.

use crate::config::BtConfig;
use crate::swarm::Role;
use bartercast_core::policy::{PolicyDecision, ReputationPolicy};
use bartercast_util::units::{Bytes, PeerId};

/// One interested peer competing for a slot, with its observed rates
/// over the last unchoke period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// The competing peer.
    pub peer: PeerId,
    /// Bytes this candidate uploaded to us during the last period
    /// (tit-for-tat key for leechers).
    pub rate_to_me: u64,
    /// Bytes we uploaded to this candidate during the last period
    /// (the candidate's download rate; seeder ranking key).
    pub rate_from_me: u64,
}

/// Everything a choke policy may consult about one candidate.
///
/// The rank and ban policies look only at `reputation`; the
/// private-tracker ratio policy ([`RatioPolicy`](crate::RatioPolicy))
/// looks at the lifetime `up`/`down` totals the evaluator's subjective
/// contribution graph records for the candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeerScore {
    /// BarterCast reputation of the candidate as seen by the
    /// evaluator (Equation 1, in `(-1, 1)`).
    pub reputation: f64,
    /// Total bytes the candidate is known to have uploaded.
    pub up: Bytes,
    /// Total bytes the candidate is known to have downloaded.
    pub down: Bytes,
}

impl PeerScore {
    /// The score of a peer nothing is known about: zero reputation,
    /// zero transfer totals.
    pub const NEUTRAL: PeerScore = PeerScore {
        reputation: 0.0,
        up: Bytes::ZERO,
        down: Bytes::ZERO,
    };

    /// A score carrying only a reputation (transfer totals zero) —
    /// what the rank/ban policies need.
    pub fn reputation_only(reputation: f64) -> Self {
        PeerScore {
            reputation,
            ..PeerScore::NEUTRAL
        }
    }

    /// The candidate's share ratio `up / down`; peers that have not
    /// downloaded anything yet get `+inf` (nothing to reciprocate).
    pub fn share_ratio(&self) -> f64 {
        if self.down.0 == 0 {
            f64::INFINITY
        } else {
            self.up.0 as f64 / self.down.0 as f64
        }
    }
}

/// A choking policy: the seam between the slot-assignment mechanics in
/// [`Choker`] and the reputation system feeding it.
///
/// Both runtimes share every implementation — the trace-driven
/// simulator (`bartercast-sim`) and the live wire runtime
/// (`bartercast-swarm` over `bartercast-node`) call the same
/// [`Choker::unchoke`] with the same `&dyn ChokePolicy`, so a policy
/// behaves identically whether its inputs come from simulated byte
/// credits or from pieces moved over a transport.
///
/// Implementations: [`ReputationPolicy`] (none/rank/ban, §4.2) and
/// [`RatioPolicy`](crate::RatioPolicy) (private-tracker ratio
/// enforcement).
pub trait ChokePolicy {
    /// May this candidate receive any upload slot at all? Gates both
    /// regular and optimistic slots (the ban policy's "do not assign
    /// any upload slots to peers below δ").
    fn admit(&self, score: &PeerScore) -> bool;

    /// Order (and possibly filter) the optimistic-slot pool. The pool
    /// arrives in plain-BitTorrent round-robin order; the first peer
    /// of the returned vector wins the optimistic slot.
    fn order_candidates(
        &self,
        pool: &[PeerId],
        score: &mut dyn FnMut(PeerId) -> PeerScore,
    ) -> Vec<PeerId>;

    /// Short label for CSV output and plots.
    fn policy_label(&self) -> String;
}

impl ChokePolicy for ReputationPolicy {
    fn admit(&self, score: &PeerScore) -> bool {
        self.admission(score.reputation) == PolicyDecision::Allow
    }

    fn order_candidates(
        &self,
        pool: &[PeerId],
        score: &mut dyn FnMut(PeerId) -> PeerScore,
    ) -> Vec<PeerId> {
        self.order_optimistic(pool, |p| score(p).reputation)
    }

    fn policy_label(&self) -> String {
        self.label()
    }
}

/// How hard candidates competed for one role's upload slots, summed
/// over choke rounds. A slot policy can act only where candidates
/// compete: in a round with no more admitted candidates than regular
/// slots every one is served whatever the scores say.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChokeCounts {
    /// Choke rounds ([`Choker::unchoke`] calls).
    pub rounds: u64,
    /// Rounds with at least one candidate.
    pub nonempty: u64,
    /// Rounds that admitted more candidates than there are regular
    /// slots.
    pub oversubscribed: u64,
    /// Rounds whose optimistic pool (admitted candidates outside the
    /// regular slots) held two or more peers.
    pub optimistic_contested: u64,
    /// Admitted candidates, summed over rounds.
    pub admitted: u64,
}

impl ChokeCounts {
    /// The counts' labels, in [`ChokeCounts::values`] order.
    pub const LABELS: [&'static str; 5] = [
        "rounds",
        "nonempty",
        "oversubscribed",
        "optimistic_contested",
        "admitted",
    ];

    /// The counts in [`ChokeCounts::LABELS`] order.
    pub fn values(&self) -> [u64; 5] {
        [
            self.rounds,
            self.nonempty,
            self.oversubscribed,
            self.optimistic_contested,
            self.admitted,
        ]
    }

    fn add(&mut self, other: &ChokeCounts) {
        self.rounds += other.rounds;
        self.nonempty += other.nonempty;
        self.oversubscribed += other.oversubscribed;
        self.optimistic_contested += other.optimistic_contested;
        self.admitted += other.admitted;
    }
}

/// [`ChokeCounts`] per role of the choking peer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Contention {
    /// Rounds run as a leecher (tit-for-tat regular slots).
    pub leecher: ChokeCounts,
    /// Rounds run as a seeder (round-robin regular slots).
    pub seeder: ChokeCounts,
}

impl Contention {
    fn of_mut(&mut self, role: Role) -> &mut ChokeCounts {
        match role {
            Role::Leecher => &mut self.leecher,
            Role::Seeder => &mut self.seeder,
        }
    }

    /// Add `other`'s counts into these.
    pub fn add(&mut self, other: &Contention) {
        self.leecher.add(&other.leecher);
        self.seeder.add(&other.seeder);
    }
}

/// Per-(peer, swarm) choking state.
#[derive(Debug, Clone, PartialEq)]
pub struct Choker {
    config: BtConfig,
    optimistic: Option<PeerId>,
    rounds_since_rotation: u32,
    rotation_cursor: u64,
    seed_cursor: u64,
    contention: Contention,
}

impl Choker {
    /// Fresh state.
    pub fn new(config: BtConfig) -> Self {
        Choker {
            config,
            optimistic: None,
            rounds_since_rotation: 0,
            rotation_cursor: 0,
            seed_cursor: 0,
            contention: Contention::default(),
        }
    }

    /// The current optimistic unchoke target, if any.
    pub fn optimistic(&self) -> Option<PeerId> {
        self.optimistic
    }

    /// This choker's contention counts over every round so far.
    pub fn contention(&self) -> &Contention {
        &self.contention
    }

    /// Recompute the unchoke set for one period.
    ///
    /// `candidates` are the currently *interested* connected peers.
    /// `score` is consulted only when the policy requires it.
    /// Returns the unchoked peers (regular slots plus the optimistic
    /// slot). An empty list returns at once with the state a full
    /// round leaves: no optimistic peer, the rotation restarted, the
    /// round-robin cursors untouched.
    pub fn unchoke<F>(
        &mut self,
        role: Role,
        candidates: &[Candidate],
        policy: &dyn ChokePolicy,
        score: F,
    ) -> Vec<PeerId>
    where
        F: FnMut(PeerId) -> PeerScore,
    {
        if candidates.is_empty() {
            self.contention.of_mut(role).rounds += 1;
            self.optimistic = None;
            self.rounds_since_rotation = 0;
            return Vec::new();
        }
        self.assign(role, candidates, policy, score)
    }

    /// [`Choker::unchoke`]'s full round, for any candidate list.
    fn assign<F>(
        &mut self,
        role: Role,
        candidates: &[Candidate],
        policy: &dyn ChokePolicy,
        mut score: F,
    ) -> Vec<PeerId>
    where
        F: FnMut(PeerId) -> PeerScore,
    {
        // Admission gates everything (§4.2: "do not assign any upload
        // slots to peers that have a reputation below δ").
        let admitted: Vec<Candidate> = candidates
            .iter()
            .copied()
            .filter(|c| policy.admit(&score(c.peer)))
            .collect();

        // Regular slots: leechers by tit-for-tat rate, seeders by
        // round-robin rotation (see module docs).
        let mut unchoked: Vec<PeerId> = match role {
            Role::Leecher => {
                let mut ranked = admitted.clone();
                ranked.sort_by(|a, b| b.rate_to_me.cmp(&a.rate_to_me).then(a.peer.cmp(&b.peer)));
                ranked
                    .iter()
                    .take(self.config.regular_slots)
                    .map(|c| c.peer)
                    .collect()
            }
            Role::Seeder => {
                let mut pool: Vec<PeerId> = admitted.iter().map(|c| c.peer).collect();
                pool.sort();
                if pool.is_empty() {
                    Vec::new()
                } else {
                    let offset = (self.seed_cursor as usize) % pool.len();
                    pool.rotate_left(offset);
                    self.seed_cursor = self
                        .seed_cursor
                        .wrapping_add(self.config.regular_slots as u64);
                    pool.truncate(self.config.regular_slots);
                    pool
                }
            }
        };
        let counts = self.contention.of_mut(role);
        counts.rounds += 1;
        counts.nonempty += u64::from(!candidates.is_empty());
        counts.oversubscribed += u64::from(admitted.len() > self.config.regular_slots);
        counts.optimistic_contested += u64::from(admitted.len() - unchoked.len() >= 2);
        counts.admitted += admitted.len() as u64;

        // Optimistic slot.
        self.rounds_since_rotation += 1;
        let optimistic_still_valid = self
            .optimistic
            .is_some_and(|p| admitted.iter().any(|c| c.peer == p) && !unchoked.contains(&p));
        if self.rounds_since_rotation >= self.config.optimistic_rounds() || !optimistic_still_valid
        {
            self.optimistic = self.pick_optimistic(&admitted, &unchoked, policy, &mut score);
            self.rounds_since_rotation = 0;
        }
        if let Some(p) = self.optimistic {
            unchoked.push(p);
        }
        unchoked
    }

    fn pick_optimistic<F>(
        &mut self,
        admitted: &[Candidate],
        already: &[PeerId],
        policy: &dyn ChokePolicy,
        score: &mut F,
    ) -> Option<PeerId>
    where
        F: FnMut(PeerId) -> PeerScore,
    {
        let mut pool: Vec<PeerId> = admitted
            .iter()
            .map(|c| c.peer)
            .filter(|p| !already.contains(p))
            .collect();
        if pool.is_empty() {
            return None;
        }
        // Deterministic round-robin base order: sort by id, then rotate
        // by the cursor so that over successive rotations every peer
        // gets a turn (§4.1: "a 30 seconds round-robin shift over all
        // the interested peers").
        pool.sort();
        let offset = (self.rotation_cursor as usize) % pool.len();
        pool.rotate_left(offset);
        self.rotation_cursor = self.rotation_cursor.wrapping_add(1);
        // The rank policy reorders by reputation; ban has already
        // filtered; none keeps round-robin order (§4.2).
        let ordered = policy.order_candidates(&pool, score);
        ordered.first().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> PeerId {
        PeerId(i)
    }

    fn cand(i: u32, to_me: u64, from_me: u64) -> Candidate {
        Candidate {
            peer: p(i),
            rate_to_me: to_me,
            rate_from_me: from_me,
        }
    }

    fn cfg() -> BtConfig {
        BtConfig {
            regular_slots: 2,
            unchoke_period: bartercast_util::units::Seconds(10),
            optimistic_period: bartercast_util::units::Seconds(30),
        }
    }

    #[test]
    fn leecher_prefers_best_reciprocators() {
        let mut ch = Choker::new(cfg());
        let cands = vec![
            cand(1, 100, 0),
            cand(2, 500, 0),
            cand(3, 300, 0),
            cand(4, 10, 0),
        ];
        let unchoked = ch.unchoke(Role::Leecher, &cands, &ReputationPolicy::None, |_| {
            PeerScore::NEUTRAL
        });
        assert!(unchoked.contains(&p(2)));
        assert!(unchoked.contains(&p(3)));
        // 2 regular + 1 optimistic
        assert_eq!(unchoked.len(), 3);
    }

    #[test]
    fn seeder_rotates_over_all_interested_peers() {
        let mut ch = Choker::new(cfg());
        let cands: Vec<Candidate> = (1..=6).map(|i| cand(i, 0, 0)).collect();
        let mut served = std::collections::HashSet::new();
        for _ in 0..4 {
            let unchoked = ch.unchoke(Role::Seeder, &cands, &ReputationPolicy::None, |_| {
                PeerScore::NEUTRAL
            });
            assert!(unchoked.len() <= cfg().regular_slots + 1);
            served.extend(unchoked);
        }
        // round-robin must reach every interested peer quickly
        assert_eq!(served.len(), 6, "served: {served:?}");
    }

    #[test]
    fn seeder_slots_spread_rather_than_lock_in() {
        let mut ch = Choker::new(cfg());
        // a peer with a huge observed rate must not monopolize seed slots
        let cands = vec![
            cand(1, 0, 9000),
            cand(2, 0, 0),
            cand(3, 0, 0),
            cand(4, 0, 0),
        ];
        let mut first_slot_history = Vec::new();
        for _ in 0..4 {
            let unchoked = ch.unchoke(Role::Seeder, &cands, &ReputationPolicy::None, |_| {
                PeerScore::NEUTRAL
            });
            first_slot_history.push(unchoked[0]);
        }
        let distinct: std::collections::HashSet<_> = first_slot_history.iter().collect();
        assert!(
            distinct.len() > 1,
            "seed slots locked in: {first_slot_history:?}"
        );
    }

    #[test]
    fn optimistic_gives_new_peer_a_chance() {
        let mut ch = Choker::new(cfg());
        // peer 9 has no rate yet: never wins a regular slot
        let cands = vec![cand(1, 500, 0), cand(2, 400, 0), cand(9, 0, 0)];
        let unchoked = ch.unchoke(Role::Leecher, &cands, &ReputationPolicy::None, |_| {
            PeerScore::NEUTRAL
        });
        assert!(
            unchoked.contains(&p(9)),
            "optimistic slot must pick the zero-rate peer"
        );
    }

    #[test]
    fn optimistic_rotates_round_robin() {
        let mut ch = Choker::new(cfg());
        let cands = vec![
            cand(1, 500, 0),
            cand(2, 400, 0),
            cand(8, 0, 0),
            cand(9, 0, 0),
        ];
        let mut seen = std::collections::HashSet::new();
        // rotation period is 3 rounds; run enough rounds to cycle
        for _ in 0..12 {
            let unchoked = ch.unchoke(Role::Leecher, &cands, &ReputationPolicy::None, |_| {
                PeerScore::NEUTRAL
            });
            seen.insert(*unchoked.last().unwrap());
        }
        assert!(
            seen.contains(&p(8)) && seen.contains(&p(9)),
            "both zero-rate peers get turns: {seen:?}"
        );
    }

    #[test]
    fn ban_policy_excludes_low_reputation_everywhere() {
        let mut ch = Choker::new(cfg());
        let cands = vec![cand(1, 900, 0), cand(2, 100, 0)];
        let rep = |q: PeerId| PeerScore::reputation_only(if q == p(1) { -0.9 } else { 0.0 });
        let unchoked = ch.unchoke(
            Role::Leecher,
            &cands,
            &ReputationPolicy::Ban { delta: -0.5 },
            rep,
        );
        assert!(!unchoked.contains(&p(1)), "banned even as top reciprocator");
        assert!(unchoked.contains(&p(2)));
    }

    #[test]
    fn rank_policy_orders_optimistic_by_reputation() {
        let mut ch = Choker::new(cfg());
        // regular slots go to 1 and 2; optimistic pool is {8, 9}
        let cands = vec![
            cand(1, 500, 0),
            cand(2, 400, 0),
            cand(8, 0, 0),
            cand(9, 0, 0),
        ];
        let rep = |q: PeerId| {
            PeerScore::reputation_only(match q.0 {
                8 => -0.4,
                9 => 0.7,
                _ => 0.0,
            })
        };
        let unchoked = ch.unchoke(Role::Leecher, &cands, &ReputationPolicy::Rank, rep);
        assert_eq!(
            *unchoked.last().unwrap(),
            p(9),
            "higher reputation wins the optimistic slot"
        );
    }

    #[test]
    fn empty_candidates_no_unchokes() {
        let mut ch = Choker::new(cfg());
        let unchoked = ch.unchoke(Role::Leecher, &[], &ReputationPolicy::None, |_| {
            PeerScore::NEUTRAL
        });
        assert!(unchoked.is_empty());
        assert_eq!(ch.optimistic(), None);
    }

    /// An empty list's early return leaves exactly the state the full
    /// round leaves (optimistic peer, rotation, both cursors and the
    /// counts), across empty and non-empty lists in turn and both
    /// roles.
    #[test]
    fn empty_list_return_equals_the_full_round() {
        let lists = [
            vec![
                cand(1, 500, 0),
                cand(2, 400, 0),
                cand(8, 0, 0),
                cand(9, 0, 0),
            ],
            vec![],
            vec![cand(3, 5, 0), cand(9, 0, 0), cand(4, 0, 0)],
            vec![],
            vec![],
            vec![cand(1, 0, 0), cand(2, 0, 0), cand(5, 0, 0), cand(6, 0, 0)],
        ];
        for role in [Role::Leecher, Role::Seeder] {
            let (mut quick, mut full) = (Choker::new(cfg()), Choker::new(cfg()));
            for round in 0..24 {
                let list = &lists[round % lists.len()];
                let neutral = |_| PeerScore::NEUTRAL;
                let policy = &ReputationPolicy::Rank;
                let got = quick.unchoke(role, list, policy, neutral);
                let want = full.assign(role, list, policy, neutral);
                assert_eq!(got, want, "{role:?} round {round}");
                assert_eq!(quick, full, "{role:?} round {round}");
            }
            let c = quick.contention();
            assert_eq!(c.leecher.rounds + c.seeder.rounds, 24);
        }
    }

    /// Every call counts one round under the caller's role, and the
    /// other counts follow the admitted list and the slot budget.
    #[test]
    fn contention_counts_every_call() {
        let mut ch = Choker::new(cfg());
        let ban = ReputationPolicy::Ban { delta: -0.5 };
        let rep = |q: PeerId| PeerScore::reputation_only(if q == p(4) { -0.9 } else { 0.0 });
        let four = vec![cand(1, 5, 0), cand(2, 4, 0), cand(3, 3, 0), cand(4, 2, 0)];
        ch.unchoke(Role::Leecher, &four, &ban, rep); // 3 admitted, pool {3}
        ch.unchoke(Role::Leecher, &[], &ban, rep);
        ch.unchoke(Role::Seeder, &four[..2], &ban, rep); // 2 admitted, pool {}
        let mut five = four.clone();
        five.push(cand(5, 1, 0));
        ch.unchoke(Role::Leecher, &five, &ban, rep); // 4 admitted, pool {3, 5}
        let c = ch.contention();
        assert_eq!(c.leecher.values(), [3, 2, 2, 1, 7]);
        assert_eq!(c.seeder.values(), [1, 1, 0, 0, 2]);
        let mut sum = Contention::default();
        sum.add(c);
        sum.add(c);
        assert_eq!(sum.leecher.rounds + sum.seeder.rounds, 8);
    }

    #[test]
    fn departed_optimistic_is_replaced() {
        let mut ch = Choker::new(cfg());
        let cands = vec![cand(1, 500, 0), cand(2, 400, 0), cand(9, 0, 0)];
        ch.unchoke(Role::Leecher, &cands, &ReputationPolicy::None, |_| {
            PeerScore::NEUTRAL
        });
        assert_eq!(ch.optimistic(), Some(p(9)));
        // peer 9 leaves; next round someone else (or none) is optimistic
        let cands2 = vec![cand(1, 500, 0), cand(2, 400, 0)];
        let unchoked = ch.unchoke(Role::Leecher, &cands2, &ReputationPolicy::None, |_| {
            PeerScore::NEUTRAL
        });
        assert!(!unchoked.contains(&p(9)));
    }

    #[test]
    fn fewer_candidates_than_slots() {
        let mut ch = Choker::new(cfg());
        let cands = vec![cand(1, 5, 0)];
        let unchoked = ch.unchoke(Role::Leecher, &cands, &ReputationPolicy::None, |_| {
            PeerScore::NEUTRAL
        });
        // peer 1 takes a regular slot; optimistic pool is empty
        assert_eq!(unchoked, vec![p(1)]);
    }
}
