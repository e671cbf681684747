//! # bartercast
//!
//! A from-scratch Rust reproduction of **BarterCast** (Meulpolder,
//! Pouwelse, Epema, Sips — IPDPS 2009): a fully distributed,
//! maxflow-based reputation mechanism that prevents *lazy freeriding*
//! in BitTorrent-like P2P networks.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`graph`] — contribution graphs and maxflow algorithms (including
//!   the deployed depth-2-bounded variant).
//! * [`core`] — private/shared transfer histories, the BarterCast
//!   message protocol, the arctan reputation metric, and the
//!   rank/ban BitTorrent policies.
//! * [`gossip`] — the epidemic peer sampling service.
//! * [`trace`] — community trace model plus a synthetic
//!   `filelist.org`-style generator.
//! * [`bt`] — a piece-level BitTorrent protocol simulator.
//! * [`sim`] — the trace-driven simulation engine with adversary
//!   models, reproducing the paper's Figures 1–3.
//! * [`deploy`] — the Tribler-like deployment community model for
//!   Figure 4.
//! * [`util`] — shared hashing/statistics/plotting helpers.
//!
//! ## Quickstart
//!
//! ```
//! use bartercast::core::{BarterCastConfig, BarterCastMessage, PrivateHistory, ReputationEngine};
//! use bartercast::util::units::{Bytes, PeerId, Seconds};
//!
//! // Peer 0's private view: it uploaded 100 MB to peer 1 and
//! // downloaded 300 MB from peer 2.
//! let me = PeerId(0);
//! let mut hist = PrivateHistory::new(me);
//! hist.record_upload(PeerId(1), Bytes::from_mb(100), Seconds(10));
//! hist.record_download(PeerId(2), Bytes::from_mb(300), Seconds(20));
//!
//! let mut engine = ReputationEngine::from_private(&hist);
//! // Peer 2 fed us data: positive reputation. Peer 1 only took: negative.
//! assert!(engine.reputation(me, PeerId(2)) > 0.0);
//! let before = engine.reputation(me, PeerId(1));
//! assert!(before < 0.0);
//!
//! // Peer 1 gossips its own history: it seeded 2 GB to peer 2. That
//! // earns it indirect credit along 1 -> 2 -> 0, capped by the 300 MB
//! // peer 0 actually received from peer 2 (§3.4's lie containment).
//! let mut peer1 = PrivateHistory::new(PeerId(1));
//! peer1.record_download(me, Bytes::from_mb(100), Seconds(10));
//! peer1.record_upload(PeerId(2), Bytes::from_gb(2), Seconds(30));
//! let msg = BarterCastMessage::from_history(&peer1, BarterCastConfig::default());
//! assert!(engine.absorb_message(&msg) > 0);
//! assert!(engine.reputation(me, PeerId(1)) > before);
//!
//! // The two maxflows behind Equation 1.
//! let (toward, away) = engine.flows(me, PeerId(1));
//! println!("maxflow(1 -> 0) = {toward}, maxflow(0 -> 1) = {away}");
//! assert_eq!(toward, Bytes::from_mb(300));
//! assert_eq!(away, Bytes::from_mb(100));
//! ```

#![forbid(unsafe_code)]

pub use bartercast_bt as bt;
pub use bartercast_core as core;
pub use bartercast_deploy as deploy;
pub use bartercast_gossip as gossip;
pub use bartercast_graph as graph;
pub use bartercast_sim as sim;
pub use bartercast_trace as trace;
pub use bartercast_util as util;
