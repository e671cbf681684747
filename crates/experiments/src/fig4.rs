//! Figure 4 — deployment measurements (§5.5).
//!
//! One month of a customized observer peer in a Tribler-like open
//! community of ~5000 peers:
//!
//! * **(a)** upload − download per observed peer on a symmetric log
//!   scale (±TB): majority negative, an exactly-zero install-only
//!   spike, a few multi-GB altruists;
//! * **(b)** the CDF of the observer-computed reputations: ~40 %
//!   negative, ~50 % ≈ 0, ~10 % positive.

use crate::Scale;
use bartercast_deploy::{Community, CommunityConfig, DeploymentReport, Observer, ObserverConfig};

/// Run the deployment study.
pub fn run(scale: Scale, seed: u64) -> DeploymentReport {
    let community_cfg = match scale {
        Scale::Paper => CommunityConfig::default(),
        Scale::Quick => CommunityConfig {
            peers: 600,
            ..Default::default()
        },
    };
    let observer_cfg = match scale {
        Scale::Paper => ObserverConfig::default(),
        Scale::Quick => ObserverConfig {
            meetings: 1800,
            own_partners: 100,
        },
    };
    let community = Community::generate(&community_cfg, seed);
    Observer::new(community.len()).observe(&community, &observer_cfg, seed ^ 0xDEAD_BEEF)
}

/// Symmetric log transform used for the Figure 4a y-axis: maps a byte
/// count to sign(x) · log10(1 + |x| / 1 MB), so ±1 TB ≈ ±6.
pub fn symlog_mb(bytes: f64) -> f64 {
    let mb = bytes / (1024.0 * 1024.0);
    mb.signum() * (1.0 + mb.abs()).log10()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deployment_shape_matches_paper() {
        let report = run(Scale::Quick, 7);
        let (neg, zero, pos) = report.reputation_split(0.01);
        assert!(neg > pos, "more negative than positive: {neg} vs {pos}");
        assert!(zero >= 0.2, "large ≈0 mass: {zero}");
        // contribution imbalance: majority of nonzero peers negative
        let nets = &report.net_contributions_sorted;
        let negative = nets.iter().filter(|&&x| x < 0.0).count();
        let positive = nets.iter().filter(|&&x| x > 0.0).count();
        assert!(negative > positive);
    }

    #[test]
    fn symlog_is_odd_and_monotone() {
        assert_eq!(symlog_mb(0.0), 0.0);
        assert!(symlog_mb(1e12) > symlog_mb(1e9));
        assert!((symlog_mb(-1e9) + symlog_mb(1e9)).abs() < 1e-12);
    }
}
