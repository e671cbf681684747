//! The simulator's auditor audits the records each receiver absorbs.
//! Twelve audited lying runs (60 peers, 2 days, seeds 1–4 × liar
//! fractions 0.1, 0.25 and 0.5) keep the values an auditor fed every
//! whole advertised slice produced: the suspects, precision and recall,
//! and the marks and checked counts summed over all auditors.

use bartercast_bt::BtConfig;
use bartercast_sim::{AdversaryModel, SimConfig, Simulation};
use bartercast_trace::{SynthConfig, TraceBuilder};
use bartercast_util::units::Seconds;

/// `(seed, liar fraction, suspects, precision, recall, summed marks,
/// summed checked counts)` of one audited run.
type AuditPin = (u64, f64, &'static [u32], f64, f64, u64, u64);

#[rustfmt::skip]
const PINNED: [AuditPin; 12] = [
    (1, 0.1, &[6, 8, 35, 43, 58, 59], 1.0, 1.0, 2426, 37492),
    (1, 0.25, &[6, 8, 16, 26, 31, 33, 35, 39, 43, 51, 52, 54, 55, 58, 59], 1.0, 1.0, 5404, 37492),
    (1, 0.5, &[6, 8, 16, 17, 19, 21, 24, 25, 26, 29, 31, 33, 35, 36, 38, 39, 41, 43, 48, 51, 52, 54, 55, 56, 58, 59], 1.0, 0.9629629629629629, 9436, 37492),
    (2, 0.1, &[7, 31, 46, 50, 54, 59], 1.0, 1.0, 3044, 39400),
    (2, 0.25, &[6, 7, 12, 17, 21, 29, 31, 33, 36, 46, 48, 50, 54, 57, 59], 1.0, 1.0, 7464, 39400),
    (2, 0.5, &[6, 7, 8, 10, 12, 15, 16, 17, 18, 21, 26, 29, 31, 33, 36, 37, 38, 46, 48, 50, 52, 53, 54, 55, 56, 57, 59], 1.0, 1.0, 11900, 39400),
    (3, 0.1, &[18, 32, 36, 39, 44, 47], 1.0, 1.0, 2504, 38092),
    (3, 0.25, &[6, 16, 18, 19, 21, 29, 30, 32, 36, 38, 39, 44, 47, 52, 58], 1.0, 1.0, 5378, 38092),
    (3, 0.5, &[6, 9, 12, 15, 16, 18, 19, 21, 22, 27, 28, 29, 30, 32, 36, 38, 39, 42, 43, 44, 46, 47, 50, 52, 54, 55, 58], 1.0, 1.0, 9266, 38092),
    (4, 0.1, &[6, 12, 23, 28, 34, 46], 1.0, 1.0, 3542, 44732),
    (4, 0.25, &[6, 7, 12, 15, 16, 23, 28, 29, 32, 34, 40, 45, 46, 48, 55], 1.0, 1.0, 7482, 44732),
    (4, 0.5, &[6, 7, 10, 11, 12, 15, 16, 17, 20, 23, 24, 26, 28, 29, 32, 34, 40, 44, 45, 46, 47, 48, 52, 53, 54, 55, 57], 1.0, 1.0, 13106, 44732),
];

#[test]
fn audited_lying_runs_keep_their_outcomes() {
    for (seed, fraction, suspects, precision, recall, marks, checked) in PINNED {
        let trace = TraceBuilder::new(SynthConfig {
            peers: 60,
            swarms: 6,
            horizon: Seconds::from_days(2),
            ..Default::default()
        })
        .build(seed);
        let horizon = trace.horizon;
        let mut sim = Simulation::new(
            trace,
            SimConfig {
                seed,
                round: Seconds(60),
                reputation_sample_interval: Seconds::from_hours(6),
                bt: BtConfig {
                    regular_slots: 4,
                    unchoke_period: Seconds(60),
                    optimistic_period: Seconds(60),
                },
                adversary: AdversaryModel::default_lie(fraction),
                audit: true,
                ..Default::default()
            },
        );
        while sim.now() < horizon {
            sim.step();
        }
        let (mut summed_marks, mut summed_checked) = (0u64, 0u64);
        for auditor in sim.peers().iter().filter_map(|p| p.auditor.as_ref()) {
            for p in sim.peers() {
                summed_marks += u64::from(auditor.marks(p.id));
                summed_checked += u64::from(auditor.checked(p.id));
            }
        }
        // at the horizon `run` only writes the report
        let audit = sim.run().audit.expect("auditing enabled");
        let at = format!("seed {seed}, fraction {fraction}");
        let flagged: Vec<u32> = audit.suspects.iter().map(|p| p.0).collect();
        assert_eq!(flagged, suspects, "{at}");
        assert_eq!((audit.precision, audit.recall), (precision, recall), "{at}");
        assert_eq!((summed_marks, summed_checked), (marks, checked), "{at}");
    }
}
