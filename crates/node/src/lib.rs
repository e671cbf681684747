//! `bartercast-node`: the peer runtime.
//!
//! Everything below `crates/node` turns the passive BarterCast
//! libraries (history, codec, reputation engine, gossip sampling) into
//! a *running peer*: an event-driven reactor over one in-process
//! transport and one virtual clock, all on one thread. The layering:
//!
//! * [`mem`] — [`MemTransport`], the one transport: non-blocking
//!   connections (frame-out/readiness-in) with seeded delay, frame
//!   loss and fragmented reads on a poll-order-independent schedule,
//!   and the [`WakeQueue`] readiness mechanism;
//! * [`clock`] — the [`VirtualClock`] every reactor and pipe is timed
//!   by, advanced only by the driver;
//! * [`timer`] — the ordered [`TimerWheel`](timer::TimerWheel) carrying
//!   exchange ticks, session deadlines, and dial-backoff retries;
//! * [`wire`] — session envelopes (versioned `Hello`, `Digest`/`Delta`
//!   record exchange, `Bye`, and the BitTorrent-style swarm frames)
//!   framed with the `bartercast-core` stream codec;
//! * [`workload`] — the [`Workload`] hook a
//!   transfer workload (e.g. `bartercast-swarm`) implements to ride
//!   the reactor's sessions, frames, and choke-round timer;
//! * [`session`] — the per-connection state machine, pumped by the
//!   reactor on readiness instead of owning a thread;
//! * [`reactor`] — the coordinator: one poll loop driving every
//!   session, timer, accept, and dial of a node, and owning its peer
//!   state;
//! * [`lockstep`] — the [`Lockstep`] driver: many reactors pumped on
//!   one thread over one virtual clock, with spawn/retire churn;
//! * [`cluster`] — the record-only population ([`Cluster`]'s seed
//!   histories and expected edge set) and [`DeterministicCluster`],
//!   that population on the lockstep driver;
//! * [`stats`] — [`NodeStats`], the plain counters the reactor bumps
//!   in place, including the split `shed_accept`/`shed_session`
//!   overload accounting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod cluster;
pub mod lockstep;
pub mod mem;
pub mod reactor;
pub mod session;
pub mod stats;
pub mod timer;
pub mod wire;
pub mod workload;

pub use clock::VirtualClock;
pub use cluster::{Cluster, ClusterConfig, DeterministicCluster};
pub use lockstep::Lockstep;
pub use mem::{MemConfig, MemConn, MemListener, MemTransport, WakeQueue};
pub use reactor::{NodeConfig, Reactor};
pub use stats::NodeStats;
pub use wire::SwarmFrame;
pub use workload::{Workload, WorkloadIo};
