//! The reactor's workload hook.
//!
//! The reactor itself only knows how to gossip BarterCast records; a
//! *workload* gives its sessions something to gossip about. The
//! [`Workload`] trait is the seam: the reactor calls into it on
//! session lifecycle events, on every inbound [`SwarmFrame`], and on a
//! periodic choke-round timer
//! ([`TimerKind::ChokeRound`](crate::timer::TimerKind::ChokeRound)),
//! and the workload answers
//! through a [`WorkloadIo`] batch of outgoing frames and dial
//! requests the reactor then applies.
//!
//! The trait lives here — not in `bartercast-bt` — so the dependency
//! arrow stays `swarm → node`, never `node → bt`: the runtime crate
//! knows nothing about choking policies or bitfields, only about
//! frames and timers. `crates/swarm` implements the trait on top of
//! the `bt` building blocks.
//!
//! Every callback gets the node's [`NodeState`] (private history +
//! reputation engine) under the reactor's own lock, plus the current
//! virtual time as whole [`Seconds`] since reactor boot — the
//! resolution the BarterCast history timestamps use. Callbacks run on
//! the reactor thread; they must not block.

use crate::reactor::NodeState;
use crate::wire::SwarmFrame;
use bartercast_util::units::{PeerId, Seconds};

/// Outgoing actions a workload callback batches up for the reactor to
/// apply: frames onto live sessions, dials for missing ones.
#[derive(Debug, Default)]
pub struct WorkloadIo {
    /// Frames to enqueue, each on the live session to its peer.
    /// Frames addressed to peers without an established session are
    /// dropped (the workload learns about closures via
    /// [`Workload::on_closed`] and can redial).
    pub frames: Vec<(PeerId, SwarmFrame)>,
    /// Peers to dial (subject to the reactor's backoff machinery; a
    /// dial to an already-connected peer is a no-op).
    pub dials: Vec<PeerId>,
}

impl WorkloadIo {
    /// Queue `frame` for `peer`.
    pub fn send(&mut self, peer: PeerId, frame: SwarmFrame) {
        self.frames.push((peer, frame));
    }

    /// Ask the reactor to dial `peer` if no session exists.
    pub fn dial(&mut self, peer: PeerId) {
        self.dials.push(peer);
    }
}

/// A transfer workload attached to a reactor via
/// [`Reactor::attach_workload`](crate::reactor::Reactor::attach_workload).
pub trait Workload: Send {
    /// Called once when the workload is attached, before any session
    /// exists — dial initial targets here.
    fn on_start(&mut self, now: Seconds, state: &mut NodeState, io: &mut WorkloadIo);

    /// A session with `peer` completed its handshake (either side).
    fn on_established(
        &mut self,
        peer: PeerId,
        now: Seconds,
        state: &mut NodeState,
        io: &mut WorkloadIo,
    );

    /// The session with `peer` closed (any reason).
    fn on_closed(&mut self, peer: PeerId, now: Seconds, state: &mut NodeState, io: &mut WorkloadIo);

    /// A swarm frame arrived from `peer` on an established session.
    fn on_frame(
        &mut self,
        peer: PeerId,
        frame: SwarmFrame,
        now: Seconds,
        state: &mut NodeState,
        io: &mut WorkloadIo,
    );

    /// The periodic choke round fired: recompute unchoke sets, serve
    /// queued requests, refill pipelines.
    fn on_choke_round(&mut self, now: Seconds, state: &mut NodeState, io: &mut WorkloadIo);
}
