//! Figure 2 — effectiveness of the rank and ban policies.
//!
//! * **(a)** average download speed of sharers vs freeriders under the
//!   *rank* policy: freeriders start faster (they spend no uplink on
//!   seeding), then fall behind; they end around 75 % of sharer speed;
//! * **(b)** the same under the *ban* policy with δ = −0.5: freeriders
//!   end around 50 % of sharer speed;
//! * **(c)** freerider speed under ban with δ ∈ {−0.3, −0.5, −0.7}:
//!   the −0.3/−0.5 gap is smaller than the −0.5/−0.7 gap.
//!
//! At 100 peers where the freerider split lands can outweigh the
//! policy, so [`run_seeds`] repeats panels (a) and (b)'s two runs and
//! their no-policy control over many seeds, and the shape checks read
//! the medians.

use crate::Scale;
use bartercast_bt::{ChokeCounts, Contention};
use bartercast_core::policy::ReputationPolicy;
use bartercast_graph::analysis::two_hop_coverage;
use bartercast_sim::sweep::run_configs;
use bartercast_sim::{Behaviour, SimReport, Simulation, SlotKind, SlotLedger};
use bartercast_util::stats::percentile;
use bartercast_util::stats::Running;

/// One policy run's speed series.
#[derive(Debug)]
pub struct PolicyRun {
    /// Policy label.
    pub label: String,
    /// `(day, mean KBps)` for sharers.
    pub sharers: Vec<(f64, f64)>,
    /// `(day, mean KBps)` for freeriders.
    pub freeriders: Vec<(f64, f64)>,
    /// Freerider / sharer overall speed ratio.
    pub ratio: Option<f64>,
    /// Freerider / sharer speed ratio over the final day (the number
    /// the paper reads off the right edge of the plots).
    pub final_ratio: Option<f64>,
    /// Full report.
    pub report: SimReport,
}

/// Data behind all three panels.
#[derive(Debug)]
pub struct Fig2Data {
    /// Panel (a): the rank policy.
    pub rank: PolicyRun,
    /// Panel (b): ban with δ = −0.5.
    pub ban: PolicyRun,
    /// Panel (c): ban sweep over δ (freerider curves), including the
    /// −0.5 run shared with panel (b).
    pub ban_sweep: Vec<PolicyRun>,
}

/// The δ values of panel (c).
pub const DELTAS: [f64; 3] = [-0.3, -0.5, -0.7];

fn to_run(label: String, report: SimReport) -> PolicyRun {
    PolicyRun {
        label,
        sharers: report.speed.sharers.means(),
        freeriders: report.speed.freeriders.means(),
        ratio: report.freerider_speed_ratio(),
        final_ratio: report.final_speed_ratio(),
        report,
    }
}

/// Run all Figure 2 experiments (one trace, five policy configs, in
/// parallel).
pub fn run(scale: Scale, seed: u64) -> Fig2Data {
    let trace = scale.trace(seed);
    let base = scale.sim_config(seed);
    let mut configs = vec![bartercast_sim::SimConfig {
        policy: ReputationPolicy::Rank,
        ..base.clone()
    }];
    for &delta in &DELTAS {
        configs.push(bartercast_sim::SimConfig {
            policy: ReputationPolicy::Ban { delta },
            ..base.clone()
        });
    }
    let mut reports = run_configs(&trace, configs);
    let rank = to_run("rank".into(), reports.remove(0));
    let ban_sweep: Vec<PolicyRun> = DELTAS
        .iter()
        .zip(reports)
        .map(|(&d, r)| to_run(format!("ban({d})"), r))
        .collect();
    let ban = to_run("ban(-0.5)".into(), ban_sweep[1].report.clone());
    Fig2Data {
        rank,
        ban,
        ban_sweep,
    }
}

/// The policies of [`run_seeds`]: the no-policy control, panel (a)'s
/// rank and panel (b)'s ban(−0.5), with their labels.
pub const SEED_POLICIES: [(&str, ReputationPolicy); 3] = [
    ("none", ReputationPolicy::None),
    ("rank", ReputationPolicy::Rank),
    ("ban(-0.5)", ReputationPolicy::Ban { delta: -0.5 }),
];

/// One seed's outcome under one policy.
#[derive(Debug, Clone)]
pub struct SeedRun {
    /// The trace and simulation seed.
    pub seed: u64,
    /// The policy's label in [`SEED_POLICIES`].
    pub policy: &'static str,
    /// Freerider / sharer overall speed ratio.
    pub ratio: Option<f64>,
    /// Mean final system reputation of sharers.
    pub sharer_reputation: f64,
    /// Mean final system reputation of freeriders.
    pub freerider_reputation: f64,
    /// Bytes each group received per uploader slot kind.
    pub slots: SlotLedger,
    /// Choke contention per role over the run.
    pub contention: Contention,
    /// Mean §3.2 [`two_hop_coverage`] of the final subjective graphs of
    /// `[sharers, freeriders]`, archival peers excluded.
    pub coverage: [f64; 2],
}

impl SeedRun {
    /// Names of [`SeedRun::values`]: the speed ratio, both groups'
    /// reputations, each group's share of bytes per slot kind, each
    /// role's contention counts, then each group's two-hop coverage.
    pub fn columns() -> Vec<String> {
        let mut columns: Vec<String> =
            ["overall_ratio", "sharer_reputation", "freerider_reputation"]
                .map(String::from)
                .into();
        for group in ["sharer", "freerider"] {
            columns.extend(SlotKind::ALL.map(|k| format!("{group}_{}", k.label())));
        }
        for role in ["leecher", "seeder"] {
            columns.extend(ChokeCounts::LABELS.map(|c| format!("{role}_choke_{c}")));
        }
        for group in ["sharer", "freerider"] {
            columns.push(format!("{group}_two_hop_coverage"));
        }
        columns
    }

    /// This run's value per [`SeedRun::columns`] entry; `None` where
    /// the ratio is undefined.
    pub fn values(&self) -> Vec<Option<f64>> {
        let mut values = vec![
            self.ratio,
            Some(self.sharer_reputation),
            Some(self.freerider_reputation),
        ];
        for freerider in [false, true] {
            values.extend(self.slots.shares(freerider).map(Some));
        }
        for counts in [self.contention.leecher, self.contention.seeder] {
            values.extend(counts.values().map(|c| Some(c as f64)));
        }
        values.extend(self.coverage.map(Some));
        values
    }
}

/// The [`SEED_POLICIES`] runs at every seed of `seeds`, each seed on
/// its own trace with its policies in parallel. Rows come in seed
/// order, then [`SEED_POLICIES`] order.
pub fn run_seeds(scale: Scale, seeds: impl IntoIterator<Item = u64>) -> Vec<SeedRun> {
    let mut runs = Vec::new();
    for seed in seeds {
        let base = scale.sim_config(seed);
        let trace = scale.trace(seed);
        let finished: Vec<(SimReport, [f64; 2])> = std::thread::scope(|scope| {
            let handles: Vec<_> = SEED_POLICIES
                .iter()
                .map(|&(_, policy)| {
                    let config = bartercast_sim::SimConfig {
                        policy,
                        ..base.clone()
                    };
                    let trace = trace.clone();
                    scope.spawn(move || {
                        let horizon = trace.horizon;
                        let mut sim = Simulation::new(trace, config);
                        while sim.now() < horizon {
                            sim.step();
                        }
                        let coverage = final_coverage(&sim);
                        (sim.run(), coverage)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("simulation thread panicked"))
                .collect()
        });
        for (&(policy, _), (report, coverage)) in SEED_POLICIES.iter().zip(finished) {
            let (sharer_reputation, freerider_reputation) = report.mean_final_reputation();
            runs.push(SeedRun {
                seed,
                policy,
                ratio: report.freerider_speed_ratio(),
                sharer_reputation,
                freerider_reputation,
                slots: report.slots,
                contention: report.contention,
                coverage,
            });
        }
    }
    runs
}

/// Mean [`two_hop_coverage`] of the subjective graphs of `[sharers,
/// freeriders]` in `sim`, archival peers excluded (0 for an empty
/// group).
fn final_coverage(sim: &Simulation) -> [f64; 2] {
    let mut groups = [Running::new(), Running::new()];
    for (i, peer) in sim.peers().iter().enumerate() {
        if !sim.is_archival(i) {
            let group = usize::from(peer.behaviour == Behaviour::Freerider);
            groups[group].push(two_hop_coverage(peer.engine.graph()));
        }
    }
    groups.map(|g| g.mean())
}

/// `(q1, median, q3)` of `values`, or `None` when there are none.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some([
        percentile(&sorted, 0.25)?,
        percentile(&sorted, 0.5)?,
        percentile(&sorted, 0.75)?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_penalize_freeriders() {
        let data = run(Scale::Quick, 42);
        let rank_ratio = data.rank.ratio.expect("sharers moved data");
        let ban_ratio = data.ban.ratio.expect("sharers moved data");
        assert!(
            rank_ratio < 1.05,
            "rank must not leave freeriders much faster overall: {rank_ratio}"
        );
        assert!(
            ban_ratio < rank_ratio,
            "ban must be the stronger disincentive (paper: ~0.5 vs ~0.75): \
             ban {ban_ratio} vs rank {rank_ratio}"
        );
    }

    #[test]
    fn seed_rows_come_per_seed_then_policy() {
        let runs = run_seeds(Scale::Quick, [3, 1]);
        let keys: Vec<(u64, &str)> = runs.iter().map(|r| (r.seed, r.policy)).collect();
        assert_eq!(
            keys,
            [
                (3, "none"),
                (3, "rank"),
                (3, "ban(-0.5)"),
                (1, "none"),
                (1, "rank"),
                (1, "ban(-0.5)")
            ]
        );
        for run in &runs {
            assert_eq!(run.values().len(), SeedRun::columns().len());
            let shares: f64 = run.values()[3..13].iter().flatten().sum();
            assert!((shares - 2.0).abs() < 1e-9, "each group's shares sum to 1");
        }
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), Some([2.0, 3.0, 4.0]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn ban_sweep_is_monotone_in_delta() {
        let data = run(Scale::Quick, 42);
        // a stricter (less negative) δ bans more freeriders, so their
        // overall ratio should not increase as δ moves toward 0
        let ratios: Vec<f64> = data
            .ban_sweep
            .iter()
            .map(|r| r.ratio.unwrap_or(0.0))
            .collect();
        // DELTAS = [-0.3, -0.5, -0.7]: -0.3 strictest, -0.7 most lenient
        assert!(
            ratios[0] <= ratios[2] + 0.15,
            "stricter δ should not be meaningfully kinder to freeriders: {ratios:?}"
        );
    }
}
