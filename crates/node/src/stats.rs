//! Per-node operational counters.
//!
//! The reactor and its helpers bump plain relaxed atomics at the point
//! of truth and snapshot them into an immutable [`NodeStats`] on
//! demand. Each counter is declared once, in the `node_counters!` list
//! below, which generates both structs and the snapshot.
//!
//! Shedding is split by *where* the overload bit: `shed_accept` counts
//! inbound connections dropped at the door because the session table
//! was at `max_sessions`, while `shed_session` counts outbound
//! messages dropped because one session's bounded queue was full. The
//! distinction matters for capacity planning — the first says "raise
//! the session cap or add nodes", the second says "this peer is slow
//! or the exchange rate outruns the wire". `sessions_live` /
//! `sessions_peak` give the matching occupancy view.

use std::sync::atomic::{AtomicU64, Ordering};

/// Declares every counter once: the live atomics ([`NodeCounters`]),
/// their point-in-time copy ([`NodeStats`]) and the snapshot between
/// them.
macro_rules! node_counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Live counters shared between a node's threads.
        #[derive(Debug, Default)]
        pub struct NodeCounters {
            $($(#[$doc])* pub $name: AtomicU64,)*
        }

        /// Point-in-time view of a node's counters.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct NodeStats {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl NodeCounters {
            /// An immutable snapshot of every counter.
            pub fn snapshot(&self) -> NodeStats {
                NodeStats {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                }
            }
        }
    };
}

node_counters! {
    /// Sessions fully established (handshake completed), either side.
    sessions_opened,
    /// Dial or handshake attempts that never reached `Established`.
    sessions_failed,
    /// Sessions that ended, cleanly or not.
    sessions_closed,
    /// Sessions currently alive (gauge: incremented on adoption,
    /// decremented on reap).
    sessions_live,
    /// High-water mark of `sessions_live`.
    sessions_peak,
    /// Dials to a peer we had already had a session with — the
    /// reconnect path the backoff machinery exists for.
    reconnects,
    /// Transfer records sent inside `Records` envelopes.
    records_sent,
    /// Transfer records received (before dedup).
    records_received,
    /// Received records whose max-merge changed nothing.
    records_duplicate,
    /// Framed bytes handed to the transport.
    bytes_sent,
    /// Stream bytes read from the transport.
    bytes_received,
    /// Inbound connections dropped at accept because the session table
    /// was full (`max_sessions`).
    shed_accept,
    /// Outbound messages dropped because a session's bounded queue was
    /// full.
    shed_session,
    /// Envelopes rejected by the wire layer (bad kind, bad handshake,
    /// codec failure) plus decoder poisonings.
    protocol_errors,
    /// Swarm pieces sent inside `Piece` frames.
    pieces_sent,
    /// Swarm pieces received inside `Piece` frames.
    pieces_received,
    /// `Digest` envelopes sent (delta anti-entropy requests).
    digests_sent,
    /// `Delta` envelopes sent (anti-entropy replies).
    deltas_sent,
    /// Full-slice syncs decided: scheduled fallback ticks,
    /// first-contact pushes, and checksum-mismatch resyncs.
    full_syncs,
    /// Records a digest proved the peer already held, so they never
    /// touched the wire.
    records_suppressed,
}

impl NodeCounters {
    /// Bump a counter by one.
    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Bump a counter by `n`.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Record a session entering the table: bumps the live gauge and
    /// folds it into the peak high-water mark.
    pub fn session_adopted(&self) {
        let live = self.sessions_live.fetch_add(1, Ordering::Relaxed) + 1;
        self.sessions_peak.fetch_max(live, Ordering::Relaxed);
    }

    /// Record a session leaving the table.
    pub fn session_reaped(&self) {
        self.sessions_live.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_bumps() {
        let c = NodeCounters::default();
        NodeCounters::inc(&c.sessions_opened);
        NodeCounters::add(&c.records_sent, 10);
        let s = c.snapshot();
        assert_eq!(s.sessions_opened, 1);
        assert_eq!(s.records_sent, 10);
        assert_eq!(s.records_received, 0);
    }

    #[test]
    fn live_gauge_and_peak_track_adoption_and_reaping() {
        let c = NodeCounters::default();
        c.session_adopted();
        c.session_adopted();
        c.session_adopted();
        c.session_reaped();
        let s = c.snapshot();
        assert_eq!(s.sessions_live, 2);
        assert_eq!(s.sessions_peak, 3, "peak must survive the reap");
    }
}
