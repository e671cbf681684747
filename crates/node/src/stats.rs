//! Per-node operational counters.
//!
//! The reactor and its helpers bump plain relaxed atomics at the point
//! of truth and snapshot them into an immutable [`NodeStats`] on
//! demand. The JSON surface mirrors `CacheStats::json_fields` from
//! `bartercast-core` so bench output stays one consistent dialect.
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

/// Live counters shared between a node's threads.
#[derive(Debug, Default)]
pub struct NodeCounters {
    /// Sessions fully established (handshake completed), either side.
    pub sessions_opened: AtomicU64,
    /// Dial or handshake attempts that never reached `Established`.
    pub sessions_failed: AtomicU64,
    /// Sessions that ended, cleanly or not.
    pub sessions_closed: AtomicU64,
    /// Sessions currently alive (gauge: incremented on adoption,
    /// decremented on reap).
    pub sessions_live: AtomicU64,
    /// High-water mark of `sessions_live`.
    pub sessions_peak: AtomicU64,
    /// Dials to a peer we had already had a session with — the
    /// reconnect path the backoff machinery exists for.
    pub reconnects: AtomicU64,
    /// Transfer records sent inside `Records` envelopes.
    pub records_sent: AtomicU64,
    /// Transfer records received (before dedup).
    pub records_received: AtomicU64,
    /// Received records whose max-merge changed nothing.
    pub records_duplicate: AtomicU64,
    /// Framed bytes handed to the transport.
    pub bytes_sent: AtomicU64,
    /// Stream bytes read from the transport.
    pub bytes_received: AtomicU64,
    /// Inbound connections dropped at accept because the session table
    /// was full (`max_sessions`).
    pub shed_accept: AtomicU64,
    /// Outbound messages dropped because a session's bounded queue was
    /// full.
    pub shed_session: AtomicU64,
    /// Envelopes rejected by the wire layer (bad kind, bad handshake,
    /// codec failure) plus decoder poisonings.
    pub protocol_errors: AtomicU64,
    /// Swarm pieces sent inside `Piece` frames.
    pub pieces_sent: AtomicU64,
    /// Swarm pieces received inside `Piece` frames.
    pub pieces_received: AtomicU64,
    /// `Digest` envelopes sent (delta anti-entropy requests).
    pub digests_sent: AtomicU64,
    /// `Delta` envelopes sent (anti-entropy replies).
    pub deltas_sent: AtomicU64,
    /// Full-slice syncs decided: scheduled fallback ticks,
    /// first-contact pushes, and checksum-mismatch resyncs.
    pub full_syncs: AtomicU64,
    /// Records a digest proved the peer already held, so they never
    /// touched the wire.
    pub records_suppressed: AtomicU64,
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

    /// An immutable snapshot of every counter.
    pub fn snapshot(&self) -> NodeStats {
        NodeStats {
            sessions_opened: self.sessions_opened.load(Ordering::Relaxed),
            sessions_failed: self.sessions_failed.load(Ordering::Relaxed),
            sessions_closed: self.sessions_closed.load(Ordering::Relaxed),
            sessions_live: self.sessions_live.load(Ordering::Relaxed),
            sessions_peak: self.sessions_peak.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            records_sent: self.records_sent.load(Ordering::Relaxed),
            records_received: self.records_received.load(Ordering::Relaxed),
            records_duplicate: self.records_duplicate.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            shed_accept: self.shed_accept.load(Ordering::Relaxed),
            shed_session: self.shed_session.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            pieces_sent: self.pieces_sent.load(Ordering::Relaxed),
            pieces_received: self.pieces_received.load(Ordering::Relaxed),
            digests_sent: self.digests_sent.load(Ordering::Relaxed),
            deltas_sent: self.deltas_sent.load(Ordering::Relaxed),
            full_syncs: self.full_syncs.load(Ordering::Relaxed),
            records_suppressed: self.records_suppressed.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time view of a node's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeStats {
    /// Sessions fully established.
    pub sessions_opened: u64,
    /// Dial/handshake attempts that failed.
    pub sessions_failed: u64,
    /// Sessions ended.
    pub sessions_closed: u64,
    /// Sessions alive at snapshot time.
    pub sessions_live: u64,
    /// High-water mark of live sessions.
    pub sessions_peak: u64,
    /// Dials to previously-seen peers.
    pub reconnects: u64,
    /// Records sent.
    pub records_sent: u64,
    /// Records received.
    pub records_received: u64,
    /// Received records that changed nothing.
    pub records_duplicate: u64,
    /// Bytes written to the wire.
    pub bytes_sent: u64,
    /// Bytes read from the wire.
    pub bytes_received: u64,
    /// Inbound connections shed at accept (session table full).
    pub shed_accept: u64,
    /// Outbound messages shed at a full per-session queue.
    pub shed_session: u64,
    /// Wire-layer rejections.
    pub protocol_errors: u64,
    /// Swarm pieces sent.
    pub pieces_sent: u64,
    /// Swarm pieces received.
    pub pieces_received: u64,
    /// Digest envelopes sent.
    pub digests_sent: u64,
    /// Delta envelopes sent.
    pub deltas_sent: u64,
    /// Full-slice sync decisions (fallback ticks, first-contact
    /// pushes, checksum-mismatch resyncs).
    pub full_syncs: u64,
    /// Records suppressed by digest matching (never sent).
    pub records_suppressed: u64,
}

impl NodeStats {
    /// The stats as JSON object fields (no surrounding braces), in the
    /// same style as `CacheStats::json_fields`.
    pub fn json_fields(&self) -> String {
        format!(
            "\"sessions_opened\": {}, \"sessions_failed\": {}, \"sessions_closed\": {}, \
             \"sessions_live\": {}, \"sessions_peak\": {}, \"reconnects\": {}, \
             \"records_sent\": {}, \"records_received\": {}, \"records_duplicate\": {}, \
             \"bytes_sent\": {}, \"bytes_received\": {}, \"shed_accept\": {}, \
             \"shed_session\": {}, \"protocol_errors\": {}, \
             \"pieces_sent\": {}, \"pieces_received\": {}, \
             \"digests_sent\": {}, \"deltas_sent\": {}, \
             \"full_syncs\": {}, \"records_suppressed\": {}",
            self.sessions_opened,
            self.sessions_failed,
            self.sessions_closed,
            self.sessions_live,
            self.sessions_peak,
            self.reconnects,
            self.records_sent,
            self.records_received,
            self.records_duplicate,
            self.bytes_sent,
            self.bytes_received,
            self.shed_accept,
            self.shed_session,
            self.protocol_errors,
            self.pieces_sent,
            self.pieces_received,
            self.digests_sent,
            self.deltas_sent,
            self.full_syncs,
            self.records_suppressed,
        )
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

    #[test]
    fn json_fields_form_a_valid_object_body() {
        let s = NodeCounters::default().snapshot();
        let obj = format!("{{{}}}", s.json_fields());
        assert!(obj.starts_with('{') && obj.ends_with('}'));
        assert_eq!(obj.matches(':').count(), 20);
        assert!(obj.contains("\"digests_sent\": 0"));
        assert!(obj.contains("\"records_suppressed\": 0"));
        assert!(obj.contains("\"shed_accept\": 0"));
        assert!(obj.contains("\"shed_session\": 0"));
        assert!(obj.contains("\"sessions_peak\": 0"));
    }
}
