//! Community traces for trace-driven simulation (§5.1).
//!
//! The paper drives its simulations with traces scraped from the
//! private BitTorrent tracker `filelist.org`, containing "detailed
//! behaviour of all peers that were active in the file-sharing network,
//! including uptimes, downtimes, connectability, and file-requests".
//! Those traces are proprietary, so this crate provides:
//!
//! * [`model`] — a trace data model capturing exactly the quantities
//!   the paper lists: per-peer online sessions, connectability, file
//!   requests, and per-swarm file sizes;
//! * [`synth`] — a seeded synthetic generator reproducing the paper's
//!   workload *shape* (100 peers, 10 swarms, one week, tens-of-MB to
//!   2 GB files, diurnal sessions);
//! * [`mod@format`] — a line-oriented text serialization so real tracker
//!   traces can be converted and dropped in;
//! * [`import`] — trace **reconstruction** from raw tracker announce
//!   logs (started/heartbeat/completed/stopped events), the same
//!   process the authors applied to the `filelist.org` scrape.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod format;
pub mod import;
pub mod model;
pub mod synth;

pub use import::{import_tracker_log, ImportConfig, ImportError};
pub use model::{FileRequest, PeerTrace, Session, SwarmTrace, Trace};
pub use synth::{SynthConfig, TraceBuilder};
