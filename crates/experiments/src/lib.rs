//! The figure-regeneration harness.
//!
//! One module per paper figure. Every module exposes a `run` function
//! returning plain data, used by the `fig1`–`fig4` binaries (which
//! write CSVs and ASCII plots) and by this crate's shape tests.
//!
//! Scales:
//!
//! * [`Scale::Paper`] — the paper's setup (100 peers, 10 swarms, one
//!   week; 5000 peers / one month for Figure 4). Minutes per run in
//!   release mode.
//! * [`Scale::Quick`] — a reduced setup with the same qualitative
//!   behaviour, for smoke tests and benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod output;

use bartercast_sim::config::SimConfig;
use bartercast_trace::model::Trace;
use bartercast_trace::synth::{SynthConfig, TraceBuilder};
use bartercast_util::units::Seconds;

/// Experiment size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's full setup.
    Paper,
    /// Reduced setup for smoke tests and benches.
    Quick,
}

impl Scale {
    /// Parse from a CLI flag.
    pub fn from_flag(args: &[String]) -> Scale {
        if args.iter().any(|a| a == "--quick") {
            Scale::Quick
        } else {
            Scale::Paper
        }
    }

    /// Parse `--seed N` from CLI args (default 42). Every figure is
    /// deterministic per seed; varying it gives independent replicas.
    pub fn seed_from_flag(args: &[String]) -> u64 {
        args.iter()
            .position(|a| a == "--seed")
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(42)
    }

    /// The §5.1 community trace at this scale.
    pub fn trace(self, seed: u64) -> Trace {
        let cfg = match self {
            Scale::Paper => SynthConfig::default(),
            Scale::Quick => SynthConfig {
                peers: 50,
                swarms: 5,
                horizon: Seconds::from_days(4),
                ..Default::default()
            },
        };
        TraceBuilder::new(cfg).build(seed)
    }

    /// Baseline simulation configuration at this scale.
    pub fn sim_config(self, seed: u64) -> SimConfig {
        match self {
            Scale::Paper => SimConfig {
                seed,
                round: Seconds(30),
                bt: bartercast_bt::BtConfig {
                    regular_slots: 4,
                    unchoke_period: Seconds(30),
                    optimistic_period: Seconds(30),
                },
                ..Default::default()
            },
            Scale::Quick => SimConfig {
                seed,
                round: Seconds(60),
                bt: bartercast_bt::BtConfig {
                    regular_slots: 4,
                    unchoke_period: Seconds(60),
                    optimistic_period: Seconds(60),
                },
                reputation_sample_interval: Seconds::from_hours(3),
                ..Default::default()
            },
        }
    }
}
