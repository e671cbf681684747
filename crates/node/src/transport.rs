//! The transport abstraction the reactor speaks through.
//!
//! A [`Transport`] hands out **non-blocking** connections addressed by
//! [`PeerId`] — the runtime never sees socket addresses, and no call on
//! a [`Conn`] or [`Listener`] ever parks the calling thread. The
//! contract is frame-out / readiness-in:
//!
//! * the write side is **frame-oriented**: [`Conn::try_send`] takes one
//!   whole frame and either accepts it (possibly into an internal
//!   buffer drained by [`Conn::flush`]) or reports backpressure by
//!   returning `Ok(false)` *without consuming the frame*. The frame is
//!   the unit of simulated loss on lossy transports — dropping a
//!   partial frame would desynchronize the stream, dropping a whole
//!   frame models a lost message;
//! * the read side is a **byte stream**: [`Conn::try_recv`] returns
//!   whatever fragment is ready right now (`Ok(None)` is the
//!   `WouldBlock` case), which is exactly what the incremental
//!   [`FrameDecoder`](bartercast_core::codec::FrameDecoder) exists to
//!   absorb.
//!
//! Readiness reaches the reactor through its [`WakeQueue`]: each
//! endpoint pushes its token there whenever bytes, EOF, or an inbound
//! connection appear. Wake tokens are drained in sorted order, which is
//! what keeps the deterministic cluster driver's poll order
//! reproducible. [`MemTransport`](crate::mem::MemTransport) is the one
//! implementation.

use bartercast_util::units::PeerId;
use std::collections::BTreeSet;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The token a [`Listener`] registers on its reactor's wake queue.
pub const LISTENER_TOKEN: u64 = u64::MAX;

#[derive(Default)]
struct WakeInner {
    ready: BTreeSet<u64>,
    /// A driver's runnable bitset and this queue's slot in it.
    link: Option<(Arc<[AtomicU64]>, usize)>,
}

/// A set of woken tokens.
///
/// Transport endpoints registered via `register_waker` push their token
/// here when they become readable; the reactor drains the set (in
/// ascending token order, so pump order is deterministic). The lockstep
/// driver also links each reactor's queue to that reactor's bit in its
/// runnable set, so a notify tells the driver which reactor to poll.
#[derive(Default)]
pub struct WakeQueue {
    inner: Mutex<WakeInner>,
}

/// Set bit `slot` of a bitset of 64-bit words.
pub(crate) fn set_bit(bits: &[AtomicU64], slot: usize) {
    bits[slot / 64].fetch_or(1 << (slot % 64), Ordering::Relaxed);
}

impl WakeQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// From now on every [`WakeQueue::notify`] also sets bit `slot` of
    /// `bits`, replacing any earlier link.
    pub(crate) fn link(&self, bits: Arc<[AtomicU64]>, slot: usize) {
        self.inner.lock().expect("wake lock").link = Some((bits, slot));
    }

    /// Mark `token` ready and set the linked runnable bit.
    pub fn notify(&self, token: u64) {
        let mut inner = self.inner.lock().expect("wake lock");
        inner.ready.insert(token);
        if let Some((bits, slot)) = &inner.link {
            set_bit(bits, *slot);
        }
    }

    /// Whether no token is ready.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().expect("wake lock").ready.is_empty()
    }

    /// Take the currently ready tokens.
    pub fn drain(&self) -> BTreeSet<u64> {
        std::mem::take(&mut self.inner.lock().expect("wake lock").ready)
    }
}

/// One end of an established session. All methods are non-blocking.
pub trait Conn: Send {
    /// Queue one whole frame for transmission. `Ok(true)` means the
    /// frame was accepted (it may still sit in an internal buffer —
    /// call [`Conn::flush`] when the connection is writable);
    /// `Ok(false)` means backpressure: the frame was **not** consumed,
    /// retry after a flush makes progress. An error means the
    /// connection is unusable.
    fn try_send(&mut self, frame: &[u8]) -> io::Result<bool>;

    /// Push previously-buffered output toward the peer. Returns
    /// `Ok(true)` when nothing remains buffered.
    fn flush(&mut self) -> io::Result<bool>;

    /// Read up to `buf.len()` stream bytes without blocking. Returns
    /// `Ok(None)` when no data is ready (`WouldBlock`), `Ok(Some(0))`
    /// on clean end-of-stream, and `Ok(Some(n))` for `n` bytes read
    /// (any fragmentation is legal).
    fn try_recv(&mut self, buf: &mut [u8]) -> io::Result<Option<usize>>;

    /// When in-flight data becomes readable, for transports that delay
    /// delivery ([`MemTransport`](crate::mem::MemTransport)); `None`
    /// when nothing is in flight or the transport has no delays.
    fn next_ready_at(&self) -> Option<Instant> {
        None
    }

    /// Hook this connection to a reactor wake queue under `token`: it
    /// notifies the token whenever bytes or EOF become readable.
    fn register_waker(&mut self, queue: &Arc<WakeQueue>, token: u64);
}

/// An accept queue bound to one local peer. Non-blocking.
pub trait Listener: Send {
    /// The next pending inbound connection, or `Ok(None)` when none is
    /// queued right now.
    fn try_accept(&mut self) -> io::Result<Option<Box<dyn Conn>>>;

    /// Hook this listener to a reactor wake queue: it notifies `token`
    /// ([`LISTENER_TOKEN`] under the reactor) when connections arrive.
    fn register_waker(&mut self, queue: &Arc<WakeQueue>, token: u64);
}

/// A connection factory addressed by peer id.
pub trait Transport: Send + Sync {
    /// Bind an accept queue for `local`. Must be called before other
    /// peers can [`Transport::connect`] to it.
    fn listen(&self, local: PeerId) -> io::Result<Box<dyn Listener>>;

    /// Open a connection from `from` to `to`.
    fn connect(&self, from: PeerId, to: PeerId) -> io::Result<Box<dyn Conn>>;

    /// Forcibly sever every live connection touching `peer`, returning
    /// how many were killed. The listener survives, so the peer can be
    /// reconnected to — this is the harness's connection-churn
    /// injection point.
    fn disconnect(&self, peer: PeerId) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_queue_drains_tokens_in_sorted_order() {
        let q = WakeQueue::new();
        q.notify(9);
        q.notify(1);
        q.notify(5);
        let drained: Vec<u64> = q.drain().into_iter().collect();
        assert_eq!(drained, vec![1, 5, 9]);
        assert!(q.drain().is_empty());
    }

    #[test]
    fn a_linked_wake_queue_marks_its_slot_on_notify() {
        let bits: Arc<[AtomicU64]> = (0..2).map(|_| AtomicU64::new(0)).collect();
        let q = WakeQueue::new();
        q.notify(1);
        assert_eq!(bits[1].load(Ordering::Relaxed), 0, "not linked yet");
        q.link(Arc::clone(&bits), 70);
        q.notify(2);
        assert_eq!(bits[0].load(Ordering::Relaxed), 0);
        assert_eq!(bits[1].load(Ordering::Relaxed), 1 << 6);
        assert_eq!(q.drain().into_iter().collect::<Vec<_>>(), vec![1, 2]);
    }
}
