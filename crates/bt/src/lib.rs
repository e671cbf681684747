//! A piece-level BitTorrent protocol simulator (§4.1).
//!
//! Implements the protocol mechanics the paper's simulator models:
//!
//! * per-peer piece **bitfields** and interest ([`Bitfield`]);
//! * **tit-for-tat choking**: leechers unchoke the peers that provide
//!   the highest return rate, seeders unchoke the fastest downloaders,
//!   with a limited number of upload slots ([`choke`]);
//! * **optimistic unchoking** via round-robin rotation, the hook where
//!   BarterCast's *rank* policy plugs in;
//! * the *ban* policy filter that refuses all slots below a reputation
//!   threshold (§4.2);
//! * the [`ChokePolicy`] trait the slot mechanics consult, shared by
//!   the trace simulator and the live wire runtime, with the
//!   private-tracker *ratio* policy ([`RatioPolicy`]) as a third
//!   implementation beside rank/ban;
//! * **rarest-first** piece selection ([`swarm`], over the select-k
//!   kernel in [`picker`] that the live swarm's request pipeline shares);
//! * leecher/seeder state per swarm with byte-credit accounting that
//!   converts transferred bytes into completed pieces.
//!
//! The crate is deliberately independent of the trace/simulation
//! engine: it holds per-swarm protocol state and pure decision logic,
//! while `bartercast-sim` owns time, bandwidth and the network.

#![warn(missing_docs)]

pub mod bitfield;
pub mod choke;
pub mod config;
pub mod picker;
pub mod ratio;
pub mod swarm;

pub use bitfield::Bitfield;
pub use choke::{Candidate, ChokePolicy, Choker, PeerScore};
pub use config::BtConfig;
pub use ratio::RatioPolicy;
pub use swarm::{Member, Role, Swarm};
