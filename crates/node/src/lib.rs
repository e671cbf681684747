//! `bartercast-node`: the peer runtime.
//!
//! Everything below `crates/node` turns the passive BarterCast
//! libraries (history, codec, reputation engine, gossip sampling) into
//! a *running peer* — now as an event-driven reactor rather than
//! thread-per-session. The layering:
//!
//! * [`transport`] — the non-blocking [`Transport`]
//!   abstraction (frame-out/readiness-in), the [`WakeQueue`] readiness
//!   mechanism, the `poll(2)` shim, and the loopback TCP
//!   implementation;
//! * [`mem`] — the deterministic in-process transport with seeded
//!   delay, frame loss, fragmented reads, and a waker-based readiness
//!   model whose adversity schedule is poll-order independent;
//! * [`clock`] — the [`Clock`] abstraction:
//!   [`SystemClock`] for production,
//!   [`VirtualClock`] for lockstep determinism;
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
//!   session, timer, accept, and dial of a node;
//! * [`node`] — the thin public handle over one reactor thread;
//! * [`lockstep`] — the [`Lockstep`] driver: many reactors pumped on
//!   one thread over one virtual clock, with spawn/retire churn;
//! * [`cluster`] — the record-only harnesses: threaded
//!   [`Cluster`] for wall-clock integration tests and
//!   [`DeterministicCluster`], the same
//!   population on the lockstep driver;
//! * [`stats`] — relaxed-atomic counters snapshotted as
//!   [`NodeStats`], including the split
//!   `shed_accept`/`shed_session` overload accounting.

#![warn(missing_docs)]

pub mod clock;
pub mod cluster;
pub mod lockstep;
pub mod mem;
pub mod node;
pub mod reactor;
pub mod session;
pub mod stats;
pub mod timer;
pub mod transport;
pub mod wire;
pub mod workload;

pub use clock::{Clock, SystemClock, VirtualClock};
pub use cluster::{Cluster, ClusterConfig, DeterministicCluster};
pub use lockstep::Lockstep;
pub use mem::{MemConfig, MemTransport};
pub use node::{Node, NodeConfig};
pub use reactor::{backoff_delay, NodeState, Reactor};
pub use stats::{NodeCounters, NodeStats};
pub use transport::{Conn, Listener, TcpTransport, Transport, WakeQueue};
pub use wire::SwarmFrame;
pub use workload::{Workload, WorkloadIo};
