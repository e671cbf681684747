//! Property tests for the deployment community model and observer.

use bartercast_deploy::{Community, CommunityConfig, Observer, ObserverConfig};
use proptest::prelude::*;

fn config(peers: usize, install_only: f64, altruists: f64) -> CommunityConfig {
    CommunityConfig {
        peers,
        install_only_fraction: install_only,
        altruist_fraction: altruists,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Generated communities are internally consistent for any
    /// reasonable parameters.
    #[test]
    fn community_is_consistent(
        peers in 20usize..200,
        install_only in 0.0f64..0.6,
        altruists in 0.0f64..0.1,
        seed in 0u64..50,
    ) {
        let c = Community::generate(&config(peers, install_only, altruists), seed);
        prop_assert_eq!(c.len(), peers);
        // install-only peers never appear in a transfer
        for (&(f, t), &b) in &c.transfers {
            prop_assert!(!b.is_zero());
            prop_assert_ne!(f, t);
            prop_assert!(!c.upload[f.index()].is_zero(), "zero peer uploads");
            prop_assert!(!c.download[t.index()].is_zero(), "zero peer downloads");
        }
        // per-peer matched transfer volume never exceeds its target
        let mut up_assigned = vec![0u64; peers];
        let mut down_assigned = vec![0u64; peers];
        for (&(f, t), &b) in &c.transfers {
            up_assigned[f.index()] += b.0;
            down_assigned[t.index()] += b.0;
        }
        for i in 0..peers {
            prop_assert!(
                up_assigned[i] <= c.upload[i].0 + 2 * 1024 * 1024,
                "peer {i} over-assigned upload"
            );
            prop_assert!(
                down_assigned[i] <= c.download[i].0 + 2 * 1024 * 1024,
                "peer {i} over-assigned download"
            );
        }
    }

    /// The observer's report is structurally sound on any community.
    #[test]
    fn observer_report_is_sound(seed in 0u64..20) {
        let c = Community::generate(&config(120, 0.25, 0.02), seed);
        let report = Observer::new(c.len()).observe(
            &c,
            &ObserverConfig {
                meetings: 200,
                own_partners: 20,
            },
            seed,
        );
        prop_assert_eq!(report.reputations.len(), 120);
        prop_assert!(report.reputations.iter().all(|r| (-1.0..=1.0).contains(r)));
        for w in report.net_contributions_sorted.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
        let (neg, zero, pos) = report.reputation_split(0.01);
        prop_assert!((neg + zero + pos - 1.0).abs() < 1e-9);
    }
}
