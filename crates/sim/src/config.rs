//! Simulation parameters.

use crate::adversary::AdversaryModel;
use bartercast_bt::{BtConfig, RatioPolicy};
use bartercast_core::message::BarterCastConfig;
use bartercast_core::metric::ReputationMetric;
use bartercast_core::policy::ReputationPolicy;
use bartercast_graph::maxflow::Method;
use bartercast_util::units::Bytes;
use bartercast_util::units::Seconds;

/// A peer's long-term behaviour class (§5.1): lazy freeriders
/// "immediately leave the swarm after finishing a download", sharers
/// "share every downloaded file for 10 hours".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Behaviour {
    /// Seeds each completed file for the configured seed time.
    Sharer,
    /// Leaves each swarm the moment its download completes.
    Freerider,
}

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
    /// Fraction of (non-archival) peers that are lazy freeriders
    /// (paper: 0.5).
    pub freerider_fraction: f64,
    /// How long sharers seed each completed file (paper: 10 hours).
    pub seed_time: Seconds,
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
    /// Mean interval between a peer's random (PSS-sampled) gossip
    /// meetings.
    pub gossip_interval: Seconds,
    /// Minimum interval between BarterCast message exchanges with the
    /// same transfer partner. Peers exchange messages with peers they
    /// meet, and transfer partners are met continuously (§3.4's `Nr`
    /// "most recently seen" selection presumes exactly this).
    pub partner_exchange_interval: Seconds,
    /// How stale a cached reputation may get before the policy
    /// recomputes it from the subjective graph.
    pub reputation_refresh: Seconds,
    /// Maxflow variant (deployed: two-hop bounded).
    pub maxflow: Method,
    /// Reputation metric (deployed: arctan with 2 GB unit).
    pub metric: ReputationMetric,
    /// Interval between system-reputation samples (Figure 1a).
    pub reputation_sample_interval: Seconds,
    /// Optional misreport auditing (an extension beyond the paper —
    /// see `bartercast_core::audit`). When set, every peer cross-checks
    /// the messages it receives and the report carries
    /// detection-quality statistics.
    pub audit: Option<AuditConfig>,
}

/// Parameters of the optional misreport auditing extension.
#[derive(Debug, Clone, Copy)]
pub struct AuditConfig {
    /// Tolerance factor (source claim vs. target confirmation).
    pub factor: f64,
    /// Absolute staleness slack.
    pub slack: Bytes,
    /// Marks needed before a peer counts as a suspect.
    pub min_marks: u32,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            factor: 4.0,
            slack: Bytes::from_mb(512),
            min_marks: 3,
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 1,
            round: Seconds(30),
            freerider_fraction: 0.5,
            seed_time: Seconds::from_hours(10),
            policy: ReputationPolicy::None,
            ratio: None,
            bartercast: BarterCastConfig::default(),
            bt: BtConfig {
                regular_slots: 4,
                unchoke_period: Seconds(30),
                optimistic_period: Seconds(30),
            },
            adversary: AdversaryModel::None,
            gossip_interval: Seconds::from_hours(1),
            partner_exchange_interval: Seconds::from_hours(2),
            reputation_refresh: Seconds::from_minutes(10),
            maxflow: Method::DEPLOYED,
            metric: ReputationMetric::default(),
            reputation_sample_interval: Seconds::from_hours(6),
            audit: None,
        }
    }
}

impl SimConfig {
    /// Panics on inconsistent parameters (programming errors, not user
    /// input).
    pub fn validate(&self) {
        assert!(self.round.0 > 0, "round must be positive");
        assert!(
            (0.0..=1.0).contains(&self.freerider_fraction),
            "freerider fraction out of range"
        );
        assert!(
            self.adversary.fraction() <= self.freerider_fraction + 1e-9,
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
        assert_eq!(c.freerider_fraction, 0.5);
        assert_eq!(c.seed_time, Seconds::from_hours(10));
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
