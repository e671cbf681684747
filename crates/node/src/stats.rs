//! Per-node operational counters.
//!
//! [`NodeStats`] is plain data: the reactor owns one, lends it to the
//! session it pumps as `&mut NodeStats`, and bumps each counter in
//! place at the point of truth. A copy of it is the node's books at
//! that instant.
//!
//! Shedding is split by *where* the overload bit: `shed_accept` counts
//! inbound connections dropped at the door because the session table
//! was at `max_sessions`, while `shed_session` counts outbound
//! messages dropped because one session's bounded queue was full. The
//! distinction matters for capacity planning — the first says "raise
//! the session cap or add nodes", the second says "this peer is slow
//! or the exchange rate outruns the wire". `sessions_live` /
//! `sessions_peak` give the matching occupancy view.

/// A node's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeStats {
    /// Sessions fully established (handshake completed), either side.
    pub sessions_opened: u64,
    /// Dial or handshake attempts that never reached `Established`.
    pub sessions_failed: u64,
    /// Sessions that ended, cleanly or not.
    pub sessions_closed: u64,
    /// Sessions currently alive (gauge: incremented on adoption,
    /// decremented on reap).
    pub sessions_live: u64,
    /// High-water mark of `sessions_live`.
    pub sessions_peak: u64,
    /// Dials to a peer we had already had a session with — the
    /// reconnect path the backoff machinery exists for.
    pub reconnects: u64,
    /// Transfer records sent inside `Delta` envelopes.
    pub records_sent: u64,
    /// Transfer records received (before dedup).
    pub records_received: u64,
    /// Received records whose max-merge changed nothing.
    pub records_duplicate: u64,
    /// Framed bytes handed to the transport.
    pub bytes_sent: u64,
    /// Stream bytes read from the transport.
    pub bytes_received: u64,
    /// Inbound connections dropped at accept because the session table
    /// was full (`max_sessions`).
    pub shed_accept: u64,
    /// Outbound messages dropped because a session's bounded queue was
    /// full.
    pub shed_session: u64,
    /// Envelopes rejected by the wire layer (bad kind, bad handshake,
    /// codec failure) plus decoder poisonings.
    pub protocol_errors: u64,
    /// Swarm pieces sent inside `Piece` frames.
    pub pieces_sent: u64,
    /// Swarm pieces received inside `Piece` frames.
    pub pieces_received: u64,
    /// `Digest` envelopes sent (delta anti-entropy requests).
    pub digests_sent: u64,
    /// `Delta` envelopes sent (anti-entropy replies).
    pub deltas_sent: u64,
    /// Full-slice syncs decided: scheduled fallback ticks,
    /// first-contact pushes, and checksum-mismatch resyncs.
    pub full_syncs: u64,
    /// Records a digest proved the peer already held, so they never
    /// touched the wire.
    pub records_suppressed: u64,
}

impl NodeStats {
    /// Record a session entering the table: bumps the live gauge and
    /// folds it into the peak high-water mark.
    pub(crate) fn session_adopted(&mut self) {
        self.sessions_live += 1;
        self.sessions_peak = self.sessions_peak.max(self.sessions_live);
    }

    /// Record a session leaving the table.
    pub(crate) fn session_reaped(&mut self) {
        self.sessions_live -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_gauge_and_peak_track_adoption_and_reaping() {
        let mut s = NodeStats::default();
        s.session_adopted();
        s.session_adopted();
        s.session_adopted();
        s.session_reaped();
        assert_eq!(s.sessions_live, 2);
        assert_eq!(s.sessions_peak, 3, "peak must survive the reap");
    }
}
