//! Simulation parameters.

use crate::adversary::AdversaryModel;
use bartercast_bt::{BtConfig, RatioPolicy};
use bartercast_core::message::BarterCastConfig;
use bartercast_core::metric::ReputationMetric;
use bartercast_core::policy::ReputationPolicy;
use bartercast_graph::maxflow::Method;
use bartercast_util::units::Seconds;

/// A peer's long-term behaviour class (§5.1): lazy freeriders
/// "immediately leave the swarm after finishing a download", sharers
/// "share every downloaded file for 10 hours" (`engine::SEED_TIME`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Behaviour {
    /// Seeds each completed file for the configured seed time.
    Sharer,
    /// Leaves each swarm the moment its download completes.
    Freerider,
}

/// Fraction of (non-archival) peers that are lazy freeriders: §5.1
/// splits the active population 50/50.
pub(crate) const FREERIDER_FRACTION: f64 = 0.5;

/// Full configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// RNG seed controlling population split, gossip and rotation.
    pub seed: u64,
    /// Simulation round length (bandwidth/choke recalculation period).
    /// The paper's protocol interval is 10 s; week-long experiment runs
    /// use 30–60 s rounds for speed (the dynamics at day scale are
    /// unchanged).
    pub round: Seconds,
    /// The reputation policy every obeying peer enforces (§4.2).
    pub policy: ReputationPolicy,
    /// Optional private-tracker ratio enforcement. When set it
    /// replaces `policy` in choke decisions — the third policy beside
    /// rank and ban, admitting a candidate only while its lifetime
    /// share ratio (as recorded by the evaluator's subjective
    /// contribution graph) stays above the minimum, with a grace
    /// allowance for fresh peers.
    pub ratio: Option<RatioPolicy>,
    /// BarterCast message parameters (paper: `Nh = Nr = 10`).
    pub bartercast: BarterCastConfig,
    /// BitTorrent protocol constants.
    pub bt: BtConfig,
    /// Adversary model (§5.4).
    pub adversary: AdversaryModel,
    /// Maxflow variant (deployed: two-hop bounded).
    pub maxflow: Method,
    /// Reputation metric (deployed: arctan with 2 GB unit).
    pub metric: ReputationMetric,
    /// Interval between system-reputation samples (Figure 1a).
    pub reputation_sample_interval: Seconds,
    /// Misreport auditing (an extension beyond the paper — see
    /// `bartercast_core::audit`). When set, every peer cross-checks the
    /// messages it receives and the report carries detection-quality
    /// statistics.
    pub audit: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 1,
            round: Seconds(30),
            policy: ReputationPolicy::None,
            ratio: None,
            bartercast: BarterCastConfig::default(),
            bt: BtConfig {
                regular_slots: 4,
                unchoke_period: Seconds(30),
                optimistic_period: Seconds(30),
            },
            adversary: AdversaryModel::None,
            maxflow: Method::DEPLOYED,
            metric: ReputationMetric::default(),
            reputation_sample_interval: Seconds::from_hours(6),
            audit: false,
        }
    }
}

impl SimConfig {
    /// Panics on inconsistent parameters (programming errors, not user
    /// input).
    pub fn validate(&self) {
        assert!(self.round.0 > 0, "round must be positive");
        assert!(
            self.adversary.fraction() <= FREERIDER_FRACTION + 1e-9,
            "disobeying peers are drawn from the freeriders (§5.4), so the \
             adversary fraction cannot exceed the freerider fraction"
        );
        assert!(
            self.bt.unchoke_period.0.is_multiple_of(self.round.0)
                || self.round.0.is_multiple_of(self.bt.unchoke_period.0),
            "unchoke period and round should nest"
        );
        if let Some(r) = &self.ratio {
            assert!(
                r.min_ratio.is_finite() && r.min_ratio > 0.0,
                "ratio policy needs a positive finite minimum share ratio"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_paper_like() {
        let c = SimConfig::default();
        c.validate();
        assert_eq!(c.bartercast.nh, 10);
        assert_eq!(c.bartercast.nr, 10);
    }

    #[test]
    #[should_panic(expected = "adversary fraction")]
    fn adversary_cannot_exceed_freeriders() {
        let c = SimConfig {
            adversary: AdversaryModel::Ignore { fraction: 0.6 },
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "round must be positive")]
    fn zero_round_rejected() {
        let c = SimConfig {
            round: Seconds(0),
            ..Default::default()
        };
        c.validate();
    }
}
