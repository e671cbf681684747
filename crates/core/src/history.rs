//! Private transfer histories (§3.4).
//!
//! "The private history at peer *i* is a table where an entry
//! `(j, up, down)` is a record of the number of bytes peer *i* has
//! uploaded to, respectively downloaded from, peer *j*."
//!
//! The private history is the trust anchor of BarterCast: the edges
//! incident to *i* in *i*'s subjective graph come from here and cannot
//! be manipulated by other peers, which is what bounds the influence of
//! liars (§3.4).

use bartercast_util::units::{Bytes, PeerId, Seconds};
use bartercast_util::{FxHashMap, FxHashSet};

/// Aggregated transfer totals with one remote peer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransferTotals {
    /// Bytes the local peer uploaded to the remote peer.
    pub up: Bytes,
    /// Bytes the local peer downloaded from the remote peer.
    pub down: Bytes,
    /// Last time the remote peer was seen (transfer or meeting).
    pub last_seen: Seconds,
}

/// Provenance of the transfer totals with one peer: how many of the
/// bytes arrived as completed swarm *pieces* (live transfer workload)
/// versus bulk `record_upload`/`record_download` bookkeeping. The
/// swarm runtime's tier-1 gate uses this to assert that piece
/// transfers are the *sole* source of its contribution edges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PieceProvenance {
    /// Completed pieces uploaded to the peer.
    pub pieces_up: u64,
    /// Bytes of those uploaded pieces.
    pub piece_bytes_up: Bytes,
    /// Completed pieces downloaded from the peer.
    pub pieces_down: u64,
    /// Bytes of those downloaded pieces.
    pub piece_bytes_down: Bytes,
}

/// Peer *i*'s private table of its own transfers.
///
/// ```
/// use bartercast_core::PrivateHistory;
/// use bartercast_util::units::{Bytes, PeerId, Seconds};
///
/// let mut h = PrivateHistory::new(PeerId(0));
/// h.record_upload(PeerId(1), Bytes::from_mb(100), Seconds(10));
/// h.record_download(PeerId(1), Bytes::from_mb(40), Seconds(20));
/// let totals = h.get(PeerId(1)).unwrap();
/// assert_eq!(totals.up, Bytes::from_mb(100));
/// assert_eq!(totals.down, Bytes::from_mb(40));
/// assert_eq!(totals.last_seen, Seconds(20));
/// ```
#[derive(Debug, Clone)]
pub struct PrivateHistory {
    owner: PeerId,
    entries: FxHashMap<PeerId, TransferTotals>,
    /// Piece-transfer provenance, kept beside the totals so
    /// [`TransferTotals`] stays the small `Copy` value every caller
    /// compares. Only peers with at least one piece transfer appear.
    provenance: FxHashMap<PeerId, PieceProvenance>,
    /// Monotone write counter, bumped on every mutating call. Callers
    /// that derive something from the table (advertised record slices,
    /// encoded exchange messages, frontiers) key their memos on this
    /// so invalidation rides the existing write path for free.
    version: u64,
}

impl PrivateHistory {
    /// An empty history owned by `owner`.
    pub fn new(owner: PeerId) -> Self {
        PrivateHistory {
            owner,
            entries: FxHashMap::default(),
            provenance: FxHashMap::default(),
            version: 0,
        }
    }

    /// The peer this history belongs to.
    pub fn owner(&self) -> PeerId {
        self.owner
    }

    /// Monotone write counter: advances on every mutating call, so a
    /// memo keyed on it is stale iff the table changed underneath it.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Record that the owner uploaded `amount` to `peer` at time `now`.
    pub fn record_upload(&mut self, peer: PeerId, amount: Bytes, now: Seconds) {
        if peer == self.owner {
            return;
        }
        let e = self.entries.entry(peer).or_default();
        e.up += amount;
        e.last_seen = e.last_seen.max(now);
        self.version += 1;
    }

    /// Record that the owner downloaded `amount` from `peer` at `now`.
    pub fn record_download(&mut self, peer: PeerId, amount: Bytes, now: Seconds) {
        if peer == self.owner {
            return;
        }
        let e = self.entries.entry(peer).or_default();
        e.down += amount;
        e.last_seen = e.last_seen.max(now);
        self.version += 1;
    }

    /// Record one completed piece *upload* of `amount` bytes to
    /// `peer`: the bytes enter the transfer totals exactly as
    /// [`PrivateHistory::record_upload`] would, and the piece
    /// provenance counters advance.
    pub fn record_piece_upload(&mut self, peer: PeerId, amount: Bytes, now: Seconds) {
        if peer == self.owner {
            return;
        }
        self.record_upload(peer, amount, now);
        let p = self.provenance.entry(peer).or_default();
        p.pieces_up += 1;
        p.piece_bytes_up += amount;
    }

    /// Record one completed piece *download* of `amount` bytes from
    /// `peer` — the mirror of [`PrivateHistory::record_piece_upload`].
    pub fn record_piece_download(&mut self, peer: PeerId, amount: Bytes, now: Seconds) {
        if peer == self.owner {
            return;
        }
        self.record_download(peer, amount, now);
        let p = self.provenance.entry(peer).or_default();
        p.pieces_down += 1;
        p.piece_bytes_down += amount;
    }

    /// Piece-transfer provenance with `peer`, if any piece ever moved.
    #[cfg(test)]
    pub fn provenance(&self, peer: PeerId) -> Option<PieceProvenance> {
        self.provenance.get(&peer).copied()
    }

    /// Summed piece provenance across all peers.
    #[cfg(test)]
    pub fn total_provenance(&self) -> PieceProvenance {
        let mut total = PieceProvenance::default();
        for p in self.provenance.values() {
            total.pieces_up += p.pieces_up;
            total.piece_bytes_up += p.piece_bytes_up;
            total.pieces_down += p.pieces_down;
            total.piece_bytes_down += p.piece_bytes_down;
        }
        total
    }

    /// Whether every byte in the table arrived as a completed piece —
    /// i.e. nothing was seeded or bulk-recorded. The swarm gates
    /// assert this to pin piece transfers as the sole edge source.
    pub fn all_from_pieces(&self) -> bool {
        self.entries.iter().all(|(peer, totals)| {
            let p = self.provenance.get(peer).copied().unwrap_or_default();
            totals.up == p.piece_bytes_up && totals.down == p.piece_bytes_down
        })
    }

    /// Note that `peer` was seen (e.g. a gossip meeting) without any
    /// transfer, refreshing its recency for the `Nr` selection.
    pub fn touch(&mut self, peer: PeerId, now: Seconds) {
        if peer == self.owner {
            return;
        }
        let e = self.entries.entry(peer).or_default();
        e.last_seen = e.last_seen.max(now);
        self.version += 1;
    }

    /// Totals with `peer`, if any transfer or meeting happened.
    pub fn get(&self, peer: PeerId) -> Option<TransferTotals> {
        self.entries.get(&peer).copied()
    }

    /// Number of peers in the table.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff no peer has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate all entries.
    pub fn iter(&self) -> impl Iterator<Item = (PeerId, TransferTotals)> + '_ {
        self.entries.iter().map(|(&k, &v)| (k, v))
    }

    /// Total bytes uploaded by the owner.
    pub fn total_up(&self) -> Bytes {
        self.entries.values().map(|e| e.up).sum()
    }

    /// Total bytes downloaded by the owner.
    pub fn total_down(&self) -> Bytes {
        self.entries.values().map(|e| e.down).sum()
    }

    /// Bound the table to `max_entries`: half the slots go to the
    /// highest-volume entries and the rest to the most recently seen —
    /// the same two criteria the §3.4 record selection uses, so
    /// pruning keeps exactly the entries messages are built from.
    /// Long-running peers need this to keep state sublinear in
    /// everyone-they-ever-met. Returns how many entries were evicted.
    pub fn prune(&mut self, max_entries: usize) -> usize {
        if self.entries.len() <= max_entries {
            return 0;
        }
        // keep the top half by transfer volume, then fill the rest by
        // recency — the same two criteria the §3.4 selection uses
        let volume_slots = max_entries / 2;
        let mut by_volume: Vec<PeerId> = self.entries.keys().copied().collect();
        by_volume.sort_by_key(|p| {
            let e = &self.entries[p];
            (std::cmp::Reverse(e.up + e.down), *p)
        });
        let mut keep: FxHashSet<PeerId> = by_volume.iter().take(volume_slots).copied().collect();
        let mut by_recency: Vec<PeerId> = self.entries.keys().copied().collect();
        by_recency.sort_by_key(|p| (std::cmp::Reverse(self.entries[p].last_seen), *p));
        for p in by_recency {
            if keep.len() >= max_entries {
                break;
            }
            keep.insert(p);
        }
        let before = self.entries.len();
        self.entries.retain(|p, _| keep.contains(p));
        self.provenance.retain(|p, _| keep.contains(p));
        self.version += 1;
        before - self.entries.len()
    }

    /// The paper's record selection (§3.4): the `nh` peers with the
    /// highest upload **to** the owner, plus the `nr` peers most
    /// recently seen, deduplicated. Ordering among selected peers is
    /// deterministic (by the selection keys, then peer id).
    pub fn select_peers(&self, nh: usize, nr: usize) -> Vec<PeerId> {
        let mut entries: Vec<(PeerId, TransferTotals)> =
            self.entries.iter().map(|(&k, &v)| (k, v)).collect();
        let mut selected: Vec<PeerId> = Vec::with_capacity(nh + nr);
        for (p, t) in top(&mut entries, nh, by_upload) {
            if !t.down.is_zero() {
                selected.push(*p);
            }
        }
        for (p, _) in top(&mut entries, nr, by_recency) {
            if !selected.contains(p) {
                selected.push(*p);
            }
        }
        selected
    }
}

type Entry = (PeerId, TransferTotals);

/// "Highest upload to i" first (bytes i downloaded from them), then
/// peer id: a total order, since ids are unique.
fn by_upload(a: &Entry, b: &Entry) -> std::cmp::Ordering {
    b.1.down.cmp(&a.1.down).then(a.0.cmp(&b.0))
}

/// Most recently seen first, then peer id.
fn by_recency(a: &Entry, b: &Entry) -> std::cmp::Ordering {
    b.1.last_seen.cmp(&a.1.last_seen).then(a.0.cmp(&b.0))
}

/// The first `k` of `entries` under the total order `cmp`, sorted:
/// the prefix a full sort would yield, at the cost of a selection plus
/// a sort of `k` entries. Reorders `entries`.
fn top(
    entries: &mut [Entry],
    k: usize,
    mut cmp: impl FnMut(&Entry, &Entry) -> std::cmp::Ordering,
) -> &[Entry] {
    let k = k.min(entries.len());
    if k == 0 {
        return &[];
    }
    if k < entries.len() {
        entries.select_nth_unstable_by(k - 1, &mut cmp);
    }
    let kept = &mut entries[..k];
    kept.sort_unstable_by(cmp);
    kept
}

/// The reference oracle for `select_peers`.
#[cfg(test)]
impl PrivateHistory {
    /// The selection by two full sorts that `top` replaced.
    fn select_peers_by_full_sort(&self, nh: usize, nr: usize) -> Vec<PeerId> {
        let mut by_upload: Vec<Entry> = self.entries.iter().map(|(&k, &v)| (k, v)).collect();
        by_upload.sort_by(|a, b| b.1.down.cmp(&a.1.down).then(a.0.cmp(&b.0)));
        let mut selected: Vec<PeerId> = Vec::with_capacity(nh + nr);
        for (p, t) in by_upload.iter().take(nh) {
            if !t.down.is_zero() {
                selected.push(*p);
            }
        }
        let mut by_recent: Vec<Entry> = self.entries.iter().map(|(&k, &v)| (k, v)).collect();
        by_recent.sort_by(|a, b| b.1.last_seen.cmp(&a.1.last_seen).then(a.0.cmp(&b.0)));
        for (p, _) in by_recent.iter().take(nr) {
            if !selected.contains(p) {
                selected.push(*p);
            }
        }
        selected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(i: u32) -> PeerId {
        PeerId(i)
    }

    #[test]
    fn records_accumulate() {
        let mut h = PrivateHistory::new(p(0));
        h.record_upload(p(1), Bytes::from_mb(10), Seconds(5));
        h.record_upload(p(1), Bytes::from_mb(15), Seconds(9));
        h.record_download(p(1), Bytes::from_mb(3), Seconds(11));
        let t = h.get(p(1)).unwrap();
        assert_eq!(t.up, Bytes::from_mb(25));
        assert_eq!(t.down, Bytes::from_mb(3));
        assert_eq!(t.last_seen, Seconds(11));
        assert_eq!(h.total_up(), Bytes::from_mb(25));
        assert_eq!(h.total_down(), Bytes::from_mb(3));
    }

    #[test]
    fn ignores_self_transfers() {
        let mut h = PrivateHistory::new(p(0));
        h.record_upload(p(0), Bytes::from_mb(10), Seconds(1));
        h.record_download(p(0), Bytes::from_mb(10), Seconds(1));
        h.record_piece_upload(p(0), Bytes::from_mb(1), Seconds(1));
        h.touch(p(0), Seconds(1));
        assert!(h.is_empty());
        assert_eq!(h.total_provenance(), PieceProvenance::default());
    }

    #[test]
    fn piece_transfers_carry_provenance() {
        let mut h = PrivateHistory::new(p(0));
        h.record_piece_upload(p(1), Bytes::from_kb(256), Seconds(5));
        h.record_piece_upload(p(1), Bytes::from_kb(256), Seconds(6));
        h.record_piece_download(p(2), Bytes::from_kb(256), Seconds(7));
        // totals and provenance agree: everything came from pieces
        assert_eq!(h.get(p(1)).unwrap().up, Bytes::from_kb(512));
        let prov = h.provenance(p(1)).unwrap();
        assert_eq!(prov.pieces_up, 2);
        assert_eq!(prov.piece_bytes_up, Bytes::from_kb(512));
        assert_eq!(prov.pieces_down, 0);
        assert!(h.all_from_pieces());
        let total = h.total_provenance();
        assert_eq!(total.pieces_up, 2);
        assert_eq!(total.pieces_down, 1);
        // a bulk record breaks the piece-only invariant
        h.record_upload(p(3), Bytes::from_mb(1), Seconds(8));
        assert!(!h.all_from_pieces());
        assert!(h.provenance(p(3)).is_none());
    }

    #[test]
    fn last_seen_is_monotone() {
        let mut h = PrivateHistory::new(p(0));
        h.touch(p(1), Seconds(100));
        h.record_upload(p(1), Bytes::from_kb(1), Seconds(50)); // stale clock
        assert_eq!(h.get(p(1)).unwrap().last_seen, Seconds(100));
    }

    #[test]
    fn selection_top_uploaders_then_recent() {
        let mut h = PrivateHistory::new(p(0));
        // peers 1..=3 uploaded (i.e. we downloaded) decreasing amounts
        h.record_download(p(1), Bytes::from_mb(300), Seconds(10));
        h.record_download(p(2), Bytes::from_mb(200), Seconds(20));
        h.record_download(p(3), Bytes::from_mb(100), Seconds(30));
        // peer 4 uploaded nothing but was seen most recently
        h.touch(p(4), Seconds(99));
        let sel = h.select_peers(2, 2);
        // top-2 by upload-to-me: 1, 2; most recent: 4 (99), 3 (30)
        assert_eq!(sel, vec![p(1), p(2), p(4), p(3)]);
    }

    #[test]
    fn selection_dedups() {
        let mut h = PrivateHistory::new(p(0));
        h.record_download(p(1), Bytes::from_mb(10), Seconds(100));
        let sel = h.select_peers(5, 5);
        assert_eq!(sel, vec![p(1)]);
    }

    #[test]
    fn selection_skips_zero_uploaders_in_nh() {
        let mut h = PrivateHistory::new(p(0));
        h.record_upload(p(1), Bytes::from_mb(10), Seconds(1)); // we only uploaded to them
        let sel = h.select_peers(3, 0);
        assert!(
            sel.is_empty(),
            "nh selection must not include zero uploaders"
        );
        let sel = h.select_peers(3, 3);
        assert_eq!(sel, vec![p(1)], "nr selection still includes them");
    }

    #[test]
    fn prune_keeps_recent_and_heavy_entries() {
        let mut h = PrivateHistory::new(p(0));
        // heavy, old entry
        h.record_download(p(1), Bytes::from_gb(5), Seconds(1));
        // light, recent entry
        h.touch(p(2), Seconds(1000));
        // light, old entries — the eviction candidates
        for i in 3..=10 {
            h.record_download(p(i), Bytes::from_kb(1), Seconds(2));
        }
        let evicted = h.prune(4);
        assert_eq!(evicted, 6);
        assert_eq!(h.len(), 4);
        assert!(h.get(p(1)).is_some(), "heavy uploader kept");
        assert!(h.get(p(2)).is_some(), "recent contact kept");
    }

    #[test]
    fn prune_is_noop_under_limit() {
        let mut h = PrivateHistory::new(p(0));
        h.record_download(p(1), Bytes::from_mb(1), Seconds(1));
        assert_eq!(h.prune(10), 0);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn prune_to_zero_empties_table() {
        let mut h = PrivateHistory::new(p(0));
        h.record_download(p(1), Bytes::from_mb(1), Seconds(1));
        h.record_download(p(2), Bytes::from_mb(2), Seconds(2));
        assert_eq!(h.prune(0), 2);
        assert!(h.is_empty());
    }

    #[test]
    fn version_advances_on_every_mutation() {
        let mut h = PrivateHistory::new(p(0));
        let v0 = h.version();
        h.record_upload(p(1), Bytes::from_mb(1), Seconds(1));
        let v1 = h.version();
        assert!(v1 > v0);
        h.record_download(p(2), Bytes::from_mb(1), Seconds(2));
        let v2 = h.version();
        assert!(v2 > v1);
        h.touch(p(3), Seconds(3));
        let v3 = h.version();
        assert!(v3 > v2);
        h.prune(1);
        assert!(h.version() > v3);
        // read-only calls leave it alone
        let frozen = h.version();
        let _ = h.select_peers(4, 4);
        let _ = h.get(p(1));
        assert_eq!(h.version(), frozen);
        // self-transfers are ignored entirely, version included
        h.record_upload(p(0), Bytes::from_mb(1), Seconds(9));
        assert_eq!(h.version(), frozen);
    }

    #[test]
    fn selection_is_deterministic_under_ties() {
        let mut h = PrivateHistory::new(p(0));
        for i in 1..=5 {
            h.record_download(p(i), Bytes::from_mb(100), Seconds(50));
        }
        let a = h.select_peers(3, 0);
        let b = h.select_peers(3, 0);
        assert_eq!(a, b);
        assert_eq!(a, vec![p(1), p(2), p(3)]); // tie-broken by id
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The top-k selection returns exactly what the two full sorts
        /// did. Few distinct `down` and `last_seen` values, so the id
        /// tie-break decides most places, zero uploaders among them,
        /// and `nh`, `nr` at 0, 1, len − 1, len and past the end.
        #[test]
        fn selection_equals_the_full_sort(
            records in prop::collection::vec((1u32..48, 0u64..3, 0u64..4, any::<bool>()), 0..40),
            nh in 0usize..5,
            nr in 0usize..5,
        ) {
            let mut h = PrivateHistory::new(p(0));
            for &(peer, down, seen, touch) in &records {
                if touch {
                    h.touch(p(peer), Seconds(seen));
                } else {
                    h.record_download(p(peer), Bytes(down), Seconds(seen));
                }
            }
            let len = h.len();
            let sizes = [0, 1, len.saturating_sub(1), len, len + 3];
            let (nh, nr) = (sizes[nh], sizes[nr]);
            prop_assert_eq!(
                h.select_peers(nh, nr),
                h.select_peers_by_full_sort(nh, nr),
                "nh {} nr {} over {} entries", nh, nr, len
            );
        }
    }
}
