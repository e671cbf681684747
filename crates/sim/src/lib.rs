//! The trace-driven BarterCast + BitTorrent simulation engine (§5.1).
//!
//! Combines every substrate into the experiment testbed the paper
//! describes: "We simulate an epidemic Peer Sampling Service combined
//! with the BarterCast protocol and the BitTorrent protocol. Our
//! BitTorrent simulator follows the protocol at the piece-level,
//! including unchoking, optimistic unchoking, and rarest-first piece
//! picking."
//!
//! * [`config`] — simulation parameters (population split, policies,
//!   adversary models, protocol periods, seeds);
//! * [`peer`] — per-peer runtime state: behaviour class, private
//!   history, reputation engine, PSS node, bandwidth;
//! * [`engine`] — the round-based [`Simulation`] loop: trace playback,
//!   choking, bandwidth-constrained piece transfer, gossip meetings,
//!   reputation refresh, metric sampling;
//! * [`adversary`] — §5.4's two manipulation models (protocol
//!   *ignorers* and selfish *liars*);
//! * [`metrics`] — the measurement channels behind Figures 1–3;
//! * [`sweep`] — parallel parameter sweeps (scoped threads)
//!   used by Figures 2c, 3a and 3b;
//! * [`scale`] — the population-scale study from the paper's future
//!   work ("simulations with up to 100,000 peers").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod config;
pub mod engine;
pub mod metrics;
pub mod peer;
pub mod scale;
pub mod sweep;

pub use adversary::AdversaryModel;
pub use config::{Behaviour, SimConfig};
pub use engine::Simulation;
pub use metrics::{GroupSeries, SimReport, SlotKind, SlotLedger};
