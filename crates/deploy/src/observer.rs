//! The instrumented observer peer (§5.5).
//!
//! "We logged all BarterCast messages received by a customized peer
//! participating in the network during the first month after its
//! initial deployment." The observer here does the same: over a month
//! of meetings it collects messages from community peers (each message
//! carrying the §3.4 record selection of the sender's private
//! history), absorbs them into its subjective graph, and computes
//! Equation 1 reputations for every peer it has seen.

use crate::community::Community;
use bartercast_core::frontier;
use bartercast_core::history::PrivateHistory;
use bartercast_core::message::BarterCastConfig;
use bartercast_core::{PeerState, ReputationEngine};
use bartercast_util::stats::Ecdf;
use bartercast_util::units::{Bytes, PeerId, Seconds};
use bartercast_util::FxHashSet;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Observer parameters.
#[derive(Debug, Clone)]
pub struct ObserverConfig {
    /// Distinct community peers the observer meets over the month
    /// (each delivers at least one message).
    pub meetings: usize,
    /// How many community peers the observer itself exchanged data
    /// with while participating (its own private history size).
    pub own_partners: usize,
}

impl Default for ObserverConfig {
    fn default() -> Self {
        ObserverConfig {
            meetings: 9000,
            own_partners: 800,
        }
    }
}

/// Results of the month-long observation — Figure 4's two panels.
#[derive(Debug, Clone)]
pub struct DeploymentReport {
    /// Ground-truth upload − download per observed peer, **sorted
    /// descending** (Figure 4a's curve), in bytes.
    pub net_contributions_sorted: Vec<f64>,
    /// Observer-computed reputation of every observed peer.
    pub reputations: Vec<f64>,
    /// Number of distinct peers that appear in the observer's
    /// subjective graph.
    pub peers_in_graph: usize,
    /// Messages the observer logged.
    pub messages_logged: u64,
}

impl DeploymentReport {
    /// Empirical CDF of the reputations (Figure 4b).
    pub fn reputation_cdf(&self) -> Ecdf {
        Ecdf::new(self.reputations.clone())
    }

    /// `(negative, zeroish, positive)` fractions of the reputation
    /// distribution, with `|r| <= eps` counting as zero. The paper
    /// reports roughly (0.4, 0.5, 0.1).
    pub fn reputation_split(&self, eps: f64) -> (f64, f64, f64) {
        let n = self.reputations.len().max(1) as f64;
        let neg = self.reputations.iter().filter(|&&r| r < -eps).count() as f64 / n;
        let pos = self.reputations.iter().filter(|&&r| r > eps).count() as f64 / n;
        (neg, 1.0 - neg - pos, pos)
    }
}

/// The customized measurement peer.
#[derive(Debug)]
pub struct Observer {
    state: PeerState,
    messages_logged: u64,
}

impl Observer {
    /// A fresh observer with the next id after the community's.
    pub fn new(community_size: usize) -> Self {
        let id = PeerId(community_size as u32);
        Observer {
            state: PeerState::new(PrivateHistory::new(id), ReputationEngine::new()),
            messages_logged: 0,
        }
    }

    /// Run the observation, sampling the reputation split at
    /// `snapshots` evenly spaced points through the meeting budget —
    /// how the observer's picture sharpens over the month. Returns
    /// `(messages logged so far, negative, ~zero, positive)` rows.
    pub fn observe_evolution(
        community: &Community,
        config: &ObserverConfig,
        seed: u64,
        snapshots: usize,
    ) -> Vec<(u64, f64, f64, f64)> {
        assert!(snapshots >= 1);
        let mut points = Vec::with_capacity(snapshots);
        for step in 1..=snapshots {
            let partial = ObserverConfig {
                meetings: config.meetings * step / snapshots,
                ..config.clone()
            };
            // identical seed: the meeting sequence is a prefix of the
            // full run's, so each snapshot is the same month observed
            // for a shorter time
            let report = Observer::new(community.len()).observe(community, &partial, seed);
            let (neg, zero, pos) = report.reputation_split(0.01);
            points.push((report.messages_logged, neg, zero, pos));
        }
        points
    }

    /// Run the month-long observation over `community`.
    pub fn observe(
        mut self,
        community: &Community,
        config: &ObserverConfig,
        seed: u64,
    ) -> DeploymentReport {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = community.len();

        // The observer participated itself for the whole month: it
        // exchanged substantial amounts of data with a set of partners,
        // giving it the first-hand incident edges that anchor every
        // maxflow evaluation (§3.4). Per-partner volumes follow the
        // partner's own activity.
        let mut partner_pool: Vec<usize> = (0..n)
            .filter(|&i| !community.upload[i].is_zero() || !community.download[i].is_zero())
            .collect();
        partner_pool.shuffle(&mut rng);
        let partners: Vec<usize> = partner_pool
            .iter()
            .take(config.own_partners)
            .copied()
            .collect();
        for &i in &partners {
            let peer = PeerId(i as u32);
            let down =
                Bytes((community.upload[i].0 / 10).clamp(50 * 1024 * 1024, 2 * 1024 * 1024 * 1024));
            // the instrumented peer was a well-provisioned participant
            // that gave more than it took from most partners
            let ratio = rng.gen_range(0.8..2.0);
            let up = Bytes((down.0 as f64 * ratio) as u64);
            self.state.record_download(peer, down, Seconds(1));
            self.state.record_upload(peer, up, Seconds(1));
        }

        // BarterCast exchanges happen when peers meet, so the observer
        // certainly holds a message from each of its own transfer
        // partners, plus the random meetings of a month online.
        let mut senders: Vec<usize> = partners.clone();
        for _ in 0..config.meetings {
            senders.push(rng.gen_range(0..n));
        }
        for i in senders {
            let sender = PeerId(i as u32);
            let mut h = PrivateHistory::new(sender);
            let mut t = 0u64;
            for (to, b) in community.uploads_of(sender) {
                t += 1;
                h.record_upload(to, b, Seconds(t));
            }
            for (from, b) in community.downloads_of(sender) {
                t += 1;
                h.record_download(from, b, Seconds(t));
            }
            if h.is_empty() {
                continue; // install-only peers have nothing to report
            }
            // the paper's Nh = Nr = 10 (§3.4, §5.1)
            let slice = frontier::advertised_slice(&h, BarterCastConfig::default());
            let records = frontier::records_of(&slice);
            self.state
                .absorb(sender, frontier::frontier_of(&slice), &records);
            self.messages_logged += 1;
        }

        // Compute the observer's reputation of every community peer.
        let reputations: Vec<f64> = (0..n)
            .map(|i| self.state.reputation(PeerId(i as u32)))
            .collect();
        let peers_in_graph = {
            let nodes: FxHashSet<PeerId> = self.state.engine.graph().nodes();
            nodes.len().saturating_sub(1) // exclude the observer itself
        };
        let mut nets = community.net_contributions();
        nets.sort_by(|a, b| b.partial_cmp(a).unwrap());
        DeploymentReport {
            net_contributions_sorted: nets,
            reputations,
            peers_in_graph,
            messages_logged: self.messages_logged,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::community::CommunityConfig;

    fn small_community() -> Community {
        Community::generate(
            &CommunityConfig {
                peers: 400,
                ..Default::default()
            },
            11,
        )
    }

    fn small_observer_cfg() -> ObserverConfig {
        ObserverConfig {
            meetings: 600,
            own_partners: 20,
        }
    }

    #[test]
    fn observation_produces_report() {
        let c = small_community();
        let report = Observer::new(c.len()).observe(&c, &small_observer_cfg(), 1);
        assert_eq!(report.reputations.len(), 400);
        assert_eq!(report.net_contributions_sorted.len(), 400);
        assert!(report.messages_logged > 0);
        assert!(
            report.peers_in_graph > 50,
            "graph too sparse: {}",
            report.peers_in_graph
        );
    }

    #[test]
    fn contributions_sorted_descending() {
        let c = small_community();
        let report = Observer::new(c.len()).observe(&c, &small_observer_cfg(), 2);
        for w in report.net_contributions_sorted.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn reputation_split_has_paper_shape() {
        let c = small_community();
        let report = Observer::new(c.len()).observe(&c, &small_observer_cfg(), 3);
        let (neg, zero, pos) = report.reputation_split(0.01);
        // The exact numbers are distributional; the *shape* must hold:
        // more negatives than positives, and a large ≈0 mass.
        assert!(neg > pos, "neg={neg} pos={pos}");
        assert!(zero > 0.2, "zero mass too small: {zero}");
        assert!((neg + zero + pos - 1.0).abs() < 1e-9);
    }

    #[test]
    fn reputations_bounded() {
        let c = small_community();
        let report = Observer::new(c.len()).observe(&c, &small_observer_cfg(), 4);
        assert!(report
            .reputations
            .iter()
            .all(|&r| (-1.0..=1.0).contains(&r)));
    }

    #[test]
    fn cdf_is_monotone_over_support() {
        let c = small_community();
        let report = Observer::new(c.len()).observe(&c, &small_observer_cfg(), 5);
        let cdf = report.reputation_cdf();
        let mut last = 0.0;
        for (_, y) in cdf.points() {
            assert!(y >= last);
            last = y;
        }
        assert!((last - 1.0).abs() < 1e-9);
    }

    #[test]
    fn evolution_negative_mass_grows_with_coverage() {
        let c = small_community();
        let points = Observer::observe_evolution(&c, &small_observer_cfg(), 8, 4);
        assert_eq!(points.len(), 4);
        // messages monotone
        for w in points.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        // the picture sharpens: the final negative mass is at least the
        // first snapshot's (more coverage => more peers leave the zero bin)
        let first_neg = points[0].1;
        let last_neg = points.last().unwrap().1;
        assert!(
            last_neg >= first_neg,
            "negative mass should not shrink with coverage: {first_neg} -> {last_neg}"
        );
        // splits are valid distributions
        for &(_, neg, zero, pos) in &points {
            assert!((neg + zero + pos - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn deterministic() {
        let c = small_community();
        let a = Observer::new(c.len()).observe(&c, &small_observer_cfg(), 6);
        let b = Observer::new(c.len()).observe(&c, &small_observer_cfg(), 6);
        assert_eq!(a.reputations, b.reputations);
        assert_eq!(a.messages_logged, b.messages_logged);
    }
}
