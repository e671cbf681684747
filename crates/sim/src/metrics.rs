//! Measurement channels for Figures 1–3.

use bartercast_bt::{Contention, Role};
use bartercast_util::series::BucketSeries;
use bartercast_util::stats::Running;
use bartercast_util::units::{PeerId, Seconds};
use serde::{Deserialize, Serialize};

/// A pair of per-day time series, one per behaviour group.
#[derive(Debug, Clone)]
pub struct GroupSeries {
    /// Sharers' series.
    pub sharers: BucketSeries,
    /// Freeriders' series.
    pub freeriders: BucketSeries,
}

impl GroupSeries {
    /// Series over `horizon` with `bucket` width (both in days).
    pub fn new(horizon_days: f64, bucket_days: f64) -> Self {
        GroupSeries {
            sharers: BucketSeries::new(horizon_days, bucket_days),
            freeriders: BucketSeries::new(horizon_days, bucket_days),
        }
    }

    /// Push a sample for the appropriate group.
    pub fn push(&mut self, is_freerider: bool, t_days: f64, value: f64) {
        if is_freerider {
            self.freeriders.push(t_days, value);
        } else {
            self.sharers.push(t_days, value);
        }
    }
}

/// Per-peer endpoint record (Figure 1b scatter).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PeerOutcome {
    /// The peer.
    pub peer: PeerId,
    /// Whether the peer was a freerider.
    pub freerider: bool,
    /// Ground-truth upload − download, in GB.
    pub net_contribution_gb: f64,
    /// Final system reputation (Equation 2).
    pub system_reputation: f64,
    /// Total bytes downloaded, in GB.
    pub downloaded_gb: f64,
    /// Number of completed files.
    pub completions: usize,
}

/// Detection quality of the optional misreport-auditing extension.
#[derive(Debug, Clone)]
pub struct AuditOutcome {
    /// Peers the aggregated auditors flagged.
    pub suspects: Vec<PeerId>,
    /// Ground-truth number of lying peers.
    pub liar_count: usize,
    /// Fraction of suspects that really lied.
    pub precision: f64,
    /// Fraction of liars that were flagged.
    pub recall: f64,
}

/// Per-swarm workload statistics.
#[derive(Debug, Clone, Copy)]
pub struct SwarmOutcome {
    /// Swarm index.
    pub swarm: usize,
    /// Completed downloads in the swarm.
    pub completions: usize,
    /// Mean request-to-completion time in hours (0 when none).
    pub mean_completion_hours: f64,
    /// Peak concurrent online members.
    pub peak_members: usize,
}

/// The upload slot a flow runs in: whose, and which of its slots
/// (`bartercast_bt::choke`). Rank reorders only the optimistic slots;
/// ban's admission gates every slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotKind {
    /// Any slot of an archival initial seeder.
    Archival,
    /// A seeder's regular round-robin rotation.
    SeederRegular,
    /// A leecher's regular tit-for-tat slot.
    LeecherRegular,
    /// A seeder's optimistic slot.
    SeederOptimistic,
    /// A leecher's optimistic slot.
    LeecherOptimistic,
}

impl SlotKind {
    /// Every kind, in [`SlotLedger`] order.
    pub const ALL: [SlotKind; 5] = [
        SlotKind::Archival,
        SlotKind::SeederRegular,
        SlotKind::LeecherRegular,
        SlotKind::SeederOptimistic,
        SlotKind::LeecherOptimistic,
    ];

    /// The slot an uploader in `role`, `archival` or not, gives a
    /// receiver that holds its optimistic slot or not.
    pub fn of(archival: bool, role: Role, optimistic: bool) -> SlotKind {
        match (archival, role, optimistic) {
            (true, _, _) => SlotKind::Archival,
            (false, Role::Seeder, false) => SlotKind::SeederRegular,
            (false, Role::Leecher, false) => SlotKind::LeecherRegular,
            (false, Role::Seeder, true) => SlotKind::SeederOptimistic,
            (false, Role::Leecher, true) => SlotKind::LeecherOptimistic,
        }
    }

    /// Column label.
    pub fn label(self) -> &'static str {
        match self {
            SlotKind::Archival => "archival",
            SlotKind::SeederRegular => "seeder_regular",
            SlotKind::LeecherRegular => "leecher_regular",
            SlotKind::SeederOptimistic => "seeder_optimistic",
            SlotKind::LeecherOptimistic => "leecher_optimistic",
        }
    }
}

/// Bytes received per receiver group and uploader [`SlotKind`]: where
/// the bandwidth a reputation policy could steer runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotLedger {
    /// `[sharers, freeriders]`, each in [`SlotKind::ALL`] order.
    pub bytes: [[u64; 5]; 2],
}

impl SlotLedger {
    /// Credit `bytes` a receiver (a freerider or not) got through a
    /// slot of `kind`.
    pub fn add(&mut self, freerider: bool, kind: SlotKind, bytes: u64) {
        self.bytes[usize::from(freerider)][kind as usize] += bytes;
    }

    /// Each kind's share of the bytes one group (freeriders or sharers)
    /// received, in [`SlotKind::ALL`] order; zeros when it received
    /// none.
    pub fn shares(&self, freerider: bool) -> [f64; 5] {
        let row = self.bytes[usize::from(freerider)];
        let total: u64 = row.iter().sum();
        row.map(|b| {
            if total == 0 {
                0.0
            } else {
                b as f64 / total as f64
            }
        })
    }
}

/// Everything one run produces.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Simulated horizon.
    pub horizon: Seconds,
    /// Audit detection quality, when auditing was enabled.
    pub audit: Option<AuditOutcome>,
    /// Per-swarm workload statistics.
    pub swarms: Vec<SwarmOutcome>,
    /// Download-speed series (KBps) per group per day — Figures 2a/2b.
    pub speed: GroupSeries,
    /// System-reputation series per group per sample — Figure 1a.
    pub reputation: GroupSeries,
    /// Per-peer endpoints — Figures 1b and 3.
    pub outcomes: Vec<PeerOutcome>,
    /// Mean download speed of each group over the whole run (KBps):
    /// the y-values of Figure 3.
    pub overall_speed_sharers: f64,
    /// Freerider counterpart.
    pub overall_speed_freeriders: f64,
    /// BarterCast exchanges whose sync plan
    /// ([`bartercast_core::frontier::plan_sync`]) sent records; an
    /// exchange that found the receiver in sync is not counted.
    pub messages_delivered: u64,
    /// Advertised records the sync plans kept home: the whole slice of
    /// an in-sync exchange, the records older than the claim's
    /// watermark of a delta. A live node counts the same into
    /// `records_suppressed`.
    pub records_suppressed: u64,
    /// Total gossip meetings that occurred.
    pub meetings: u64,
    /// Total pieces transferred.
    pub pieces_transferred: u64,
    /// Bytes received per group and uploader slot kind.
    pub slots: SlotLedger,
    /// Choke contention per role, summed over every member of every
    /// swarm ([`bartercast_bt::Swarm::contention`]).
    pub contention: Contention,
}

impl SimReport {
    /// Freerider-to-sharer speed ratio over the whole run. `None` when
    /// sharers moved no data.
    pub fn freerider_speed_ratio(&self) -> Option<f64> {
        if self.overall_speed_sharers > 0.0 {
            Some(self.overall_speed_freeriders / self.overall_speed_sharers)
        } else {
            None
        }
    }

    /// Freerider-to-sharer speed ratio at the **end** of the run —
    /// Figure 2's headline number: ~0.75 under rank, ~0.5 under ban,
    /// read off the right edge of the plots. Computed as the
    /// sample-count-weighted mean over the final third of the run's
    /// buckets (a single final-day bucket is too thin once the
    /// flashcrowds have drained).
    pub fn final_speed_ratio(&self) -> Option<f64> {
        let tail_mean = |series: &BucketSeries| -> Option<f64> {
            let means = series.means();
            let counts = series.counts();
            let from = counts
                .len()
                .saturating_sub(counts.len() / 3)
                .min(counts.len() - 1);
            // means() skips empty buckets, so re-anchor by bucket time
            let width = counts.len() as f64;
            let horizon = self.horizon.as_days();
            let cutoff = horizon * from as f64 / width;
            let mut num = 0.0;
            let mut den = 0.0;
            for &(t, m) in &means {
                let bucket = ((t / horizon) * width) as usize;
                if t >= cutoff {
                    let c = counts.get(bucket).copied().unwrap_or(0) as f64;
                    num += m * c;
                    den += c;
                }
            }
            (den > 0.0).then_some(num / den)
        };
        let s = tail_mean(&self.speed.sharers)?;
        let f = tail_mean(&self.speed.freeriders)?;
        (s > 0.0).then_some(f / s)
    }

    /// Mean final system reputation of each `(sharers, freeriders)`
    /// group.
    pub fn mean_final_reputation(&self) -> (f64, f64) {
        let mut sharers = Running::new();
        let mut freeriders = Running::new();
        for o in &self.outcomes {
            if o.freerider {
                freeriders.push(o.system_reputation);
            } else {
                sharers.push(o.system_reputation);
            }
        }
        (sharers.mean(), freeriders.mean())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_series_routes_samples() {
        let mut g = GroupSeries::new(7.0, 1.0);
        g.push(false, 0.5, 100.0);
        g.push(true, 0.5, 50.0);
        g.push(true, 0.6, 70.0);
        assert_eq!(g.sharers.means()[0].1, 100.0);
        assert_eq!(g.freeriders.means()[0].1, 60.0);
    }

    fn dummy_report() -> SimReport {
        SimReport {
            horizon: Seconds::from_days(7),
            audit: None,
            swarms: Vec::new(),
            speed: GroupSeries::new(7.0, 1.0),
            reputation: GroupSeries::new(7.0, 0.25),
            outcomes: vec![
                PeerOutcome {
                    peer: PeerId(0),
                    freerider: false,
                    net_contribution_gb: 2.0,
                    system_reputation: 0.12,
                    downloaded_gb: 3.0,
                    completions: 4,
                },
                PeerOutcome {
                    peer: PeerId(1),
                    freerider: true,
                    net_contribution_gb: -1.5,
                    system_reputation: -0.08,
                    downloaded_gb: 2.0,
                    completions: 3,
                },
            ],
            overall_speed_sharers: 800.0,
            overall_speed_freeriders: 400.0,
            messages_delivered: 10,
            records_suppressed: 0,
            meetings: 5,
            pieces_transferred: 100,
            slots: SlotLedger::default(),
            contention: Contention::default(),
        }
    }

    #[test]
    fn speed_ratio() {
        let r = dummy_report();
        assert_eq!(r.freerider_speed_ratio(), Some(0.5));
        let mut z = dummy_report();
        z.overall_speed_sharers = 0.0;
        assert_eq!(z.freerider_speed_ratio(), None);
    }

    #[test]
    fn mean_final_reputation_by_group() {
        let r = dummy_report();
        let (s, f) = r.mean_final_reputation();
        assert!((s - 0.12).abs() < 1e-12);
        assert!((f + 0.08).abs() < 1e-12);
    }

    #[test]
    fn slot_kinds_split_archival_role_and_optimistic() {
        use SlotKind::*;
        let kinds: Vec<SlotKind> = [(Role::Seeder, false), (Role::Leecher, false)]
            .into_iter()
            .chain([(Role::Seeder, true), (Role::Leecher, true)])
            .map(|(role, optimistic)| SlotKind::of(false, role, optimistic))
            .collect();
        assert_eq!(
            kinds,
            [
                SeederRegular,
                LeecherRegular,
                SeederOptimistic,
                LeecherOptimistic
            ]
        );
        assert_eq!(SlotKind::of(true, Role::Seeder, true), Archival);
        assert_eq!(SlotKind::of(true, Role::Seeder, false), Archival);
        let mut ledger = SlotLedger::default();
        ledger.add(true, LeecherOptimistic, 30);
        ledger.add(true, Archival, 10);
        ledger.add(false, SeederRegular, 5);
        assert_eq!(ledger.bytes.iter().flatten().sum::<u64>(), 45);
        assert_eq!(ledger.shares(true), [0.25, 0.0, 0.0, 0.0, 0.75]);
        assert_eq!(ledger.shares(false), [0.0, 1.0, 0.0, 0.0, 0.0]);
        assert_eq!(SlotLedger::default().shares(false), [0.0; 5]);
    }
}
