//! `bartercast-swarm`: the live-reputation piece-transfer runtime.
//!
//! The trace simulator (`bartercast-sim`) models the paper's swarms
//! with byte credits and synthetic transfer records; this crate runs
//! the *actual* loop over the wire. A [`SwarmWorkload`] rides each
//! node reactor's sessions with BitTorrent-style frames
//! (bitfield/have/request/piece/choke/unchoke/cancel, wire kinds
//! 4–10), completed piece transfers write the node's private
//! BarterCast history — the **sole** source of contribution edges —
//! the reactor's existing
//! gossip spreads those records, and every choke round reads the live
//! reputation engine back through the shared
//! [`ChokePolicy`](bartercast_bt::ChokePolicy) implementations (rank,
//! ban, and the private-tracker ratio policy).
//!
//! The [`SwarmCluster`] harness drives the scenarios the simulator
//! cannot: `max_sessions` caps, connectability limits, mid-swarm
//! churn, whitewashing under fresh identities, and lossy transports —
//! all in lockstep virtual time, so two runs of one config are
//! bitwise identical (the tier-1 determinism gate).
//!
//! Layout: [`config`] (parameters and the [`SwarmPolicy`] selector),
//! [`workload`] (the per-node protocol state machine), [`ledger`]
//! (shared ground truth the tests audit against), [`cluster`] (specs,
//! ledger and churn schedule over the node crate's lockstep driver),
//! [`report`] (per-peer CSV rows).

#![warn(missing_docs)]

pub mod cluster;
pub mod config;
pub mod ledger;
pub mod report;
pub mod workload;

pub use cluster::{NodeSpec, SwarmCluster, SwarmClusterConfig, SwarmEvent, SwarmEventKind};
pub use config::{PeerBehaviour, SwarmParams, SwarmPolicy};
pub use ledger::{PeerProgress, SwarmLedger};
pub use report::{SwarmReport, SwarmRow};
pub use workload::SwarmWorkload;
