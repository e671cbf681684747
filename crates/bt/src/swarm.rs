//! Per-swarm protocol state: members, bitfields, piece accounting and
//! rarest-first selection.

use crate::bitfield::{iter_ones, Bitfield};
use crate::choke::Choker;
use crate::config::BtConfig;
use crate::picker;
use bartercast_util::units::{Bytes, PeerId};
use bartercast_util::FxHashMap;

/// Whether a member still needs pieces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Still downloading.
    Leecher,
    /// Has the complete file and uploads only.
    Seeder,
}

/// One peer's state inside a swarm.
#[derive(Debug, Clone)]
pub struct Member {
    /// Pieces currently held.
    pub bitfield: Bitfield,
    /// Partial-piece byte credit accumulated toward the next piece.
    pub credit: Bytes,
    /// Choking state.
    pub choker: Choker,
    /// Peers currently unchoked by this member.
    pub unchoked: Vec<PeerId>,
    /// Bytes received from each peer during the last unchoke period.
    pub recv_last: FxHashMap<PeerId, u64>,
    /// Bytes sent to each peer during the last unchoke period.
    pub sent_last: FxHashMap<PeerId, u64>,
}

impl Member {
    fn new(bitfield: Bitfield, config: BtConfig) -> Self {
        Member {
            bitfield,
            credit: Bytes::ZERO,
            choker: Choker::new(config),
            unchoked: Vec::new(),
            recv_last: FxHashMap::default(),
            sent_last: FxHashMap::default(),
        }
    }

    /// The member's current role.
    pub fn role(&self) -> Role {
        if self.bitfield.is_complete() {
            Role::Seeder
        } else {
            Role::Leecher
        }
    }
}

/// One swarm: a shared file and its current members.
///
/// ```
/// use bartercast_bt::{BtConfig, Swarm};
/// use bartercast_util::units::{Bytes, PeerId};
///
/// let mut swarm = Swarm::new(10, Bytes::from_mb(1), BtConfig::default());
/// swarm.join_seeder(PeerId(0));
/// swarm.join_leecher(PeerId(1));
/// assert!(swarm.interested(PeerId(1), PeerId(0)));
///
/// // 10 MB of credit completes the whole 10-piece file
/// let done = swarm.credit_download(PeerId(1), &[PeerId(0)], Bytes::from_mb(10));
/// assert_eq!(done.len(), 10);
/// assert!(swarm.member(PeerId(1)).unwrap().bitfield.is_complete());
/// ```
#[derive(Debug, Clone)]
pub struct Swarm {
    piece_count: usize,
    piece_size: Bytes,
    config: BtConfig,
    members: FxHashMap<PeerId, Member>,
    /// How many members hold each piece (for rarest-first).
    availability: Vec<u32>,
}

impl Swarm {
    /// A swarm over a file of `piece_count` pieces of `piece_size` each.
    pub fn new(piece_count: usize, piece_size: Bytes, config: BtConfig) -> Self {
        assert!(piece_count > 0, "file must have at least one piece");
        assert!(!piece_size.is_zero());
        Swarm {
            piece_count,
            piece_size,
            config,
            members: FxHashMap::default(),
            availability: vec![0; piece_count],
        }
    }

    /// Number of pieces in the file.
    pub fn piece_count(&self) -> usize {
        self.piece_count
    }

    /// Piece size.
    pub fn piece_size(&self) -> Bytes {
        self.piece_size
    }

    /// Current member ids (arbitrary order).
    pub fn members(&self) -> impl Iterator<Item = PeerId> + '_ {
        self.members.keys().copied()
    }

    /// Current members with their state, in [`Swarm::members`] order.
    pub fn member_states(&self) -> impl Iterator<Item = (PeerId, &Member)> + '_ {
        self.members.iter().map(|(&id, m)| (id, m))
    }

    /// Number of members.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// Access a member.
    pub fn member(&self, peer: PeerId) -> Option<&Member> {
        self.members.get(&peer)
    }

    /// Mutable access to a member.
    pub fn member_mut(&mut self, peer: PeerId) -> Option<&mut Member> {
        self.members.get_mut(&peer)
    }

    /// True iff `peer` is in the swarm.
    pub fn contains(&self, peer: PeerId) -> bool {
        self.members.contains_key(&peer)
    }

    /// Join as a leecher with an empty bitfield. No-op if already a
    /// member.
    pub fn join_leecher(&mut self, peer: PeerId) {
        if self.members.contains_key(&peer) {
            return;
        }
        let m = Member::new(Bitfield::new(self.piece_count), self.config);
        self.members.insert(peer, m);
    }

    /// Join as a seeder with a complete bitfield. No-op if already a
    /// member (an existing leecher is *not* upgraded).
    pub fn join_seeder(&mut self, peer: PeerId) {
        if self.members.contains_key(&peer) {
            return;
        }
        let m = Member::new(Bitfield::full(self.piece_count), self.config);
        for a in &mut self.availability {
            *a += 1;
        }
        self.members.insert(peer, m);
    }

    /// Remove a member (departure), updating availability.
    pub fn leave(&mut self, peer: PeerId) {
        if let Some(m) = self.members.remove(&peer) {
            for i in m.bitfield.iter_set() {
                self.availability[i] -= 1;
            }
        }
    }

    /// Whether `downloader` is interested in `uploader` (the uploader
    /// has a piece the downloader lacks). Unknown peers are never
    /// interesting.
    pub fn interested(&self, downloader: PeerId, uploader: PeerId) -> bool {
        match (self.members.get(&downloader), self.members.get(&uploader)) {
            (Some(d), Some(u)) => d.bitfield.interested_in(&u.bitfield),
            _ => false,
        }
    }

    /// Rarest-first piece selection: among pieces `downloader` lacks
    /// and at least one of `providers` has, pick the one with the
    /// lowest swarm-wide availability (ties by lowest index).
    pub fn rarest_wanted(&self, downloader: PeerId, providers: &[PeerId]) -> Option<usize> {
        self.rarest_wanted_salted(downloader, providers, 0)
    }

    /// Rarest-first with randomized tie-breaking: among equally rare
    /// pieces, the one minimizing a salt-dependent hash wins. Real
    /// BitTorrent breaks rarest-first ties randomly so simultaneous
    /// downloaders diversify and can trade with each other; a
    /// deterministic tie-break would make every empty leecher fetch
    /// piece 0 first and kill tit-for-tat. Salt 0 reproduces the
    /// deterministic lowest-index order.
    pub fn rarest_wanted_salted(
        &self,
        downloader: PeerId,
        providers: &[PeerId],
        salt: u64,
    ) -> Option<usize> {
        let d = self.members.get(&downloader)?;
        self.rarest_k(d, providers, salt, 1).first().copied()
    }

    /// The `k` rarest pieces `d` lacks and some provider has, in pick
    /// order (see [`crate::picker`]). Unknown providers offer nothing.
    fn rarest_k(&self, d: &Member, providers: &[PeerId], salt: u64, k: usize) -> Vec<usize> {
        if k == 0 {
            return Vec::new();
        }
        let offers = providers
            .iter()
            .filter_map(|p| self.members.get(p))
            .map(|m| &m.bitfield);
        let wanted = d.bitfield.wanted_from(offers);
        picker::rarest(iter_ones(&wanted), k, |i| {
            let tie = if salt == 0 {
                i as u64
            } else {
                // multiply-xor mix; any fixed bijection works here
                (i as u64 ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            };
            (self.availability[i], tie)
        })
    }

    /// Credit `bytes` of download toward `downloader`, completing
    /// pieces rarest-first from `providers` while credit suffices.
    /// Returns the piece indices completed. Credit that cannot complete
    /// a piece (no provider offers anything new) is **discarded** —
    /// bytes cannot buy pieces nobody offered.
    pub fn credit_download(
        &mut self,
        downloader: PeerId,
        providers: &[PeerId],
        bytes: Bytes,
    ) -> Vec<usize> {
        self.credit_download_salted(downloader, providers, bytes, 0)
    }

    /// [`Swarm::credit_download`] with randomized rarest-first
    /// tie-breaking (see [`Swarm::rarest_wanted_salted`]). The
    /// completed pieces come back in pick order.
    pub fn credit_download_salted(
        &mut self,
        downloader: PeerId,
        providers: &[PeerId],
        bytes: Bytes,
        salt: u64,
    ) -> Vec<usize> {
        let Some(d) = self.members.get(&downloader) else {
            return Vec::new();
        };
        if d.bitfield.is_complete() {
            return Vec::new();
        }
        let credit = d.credit + bytes;
        let want = usize::try_from(credit.0 / self.piece_size.0).unwrap_or(usize::MAX);
        let completed = self.rarest_k(d, providers, salt, want);
        let d = self
            .members
            .get_mut(&downloader)
            .expect("downloader looked up above");
        d.credit = if completed.len() < want {
            // fewer on offer than the credit buys: drop the surplus
            Bytes::ZERO
        } else {
            credit - self.piece_size * completed.len() as u64
        };
        for &piece in &completed {
            d.bitfield.set(piece);
            self.availability[piece] += 1;
        }
        completed
    }

    /// Swarm-wide availability of piece `i`.
    pub fn availability(&self, i: usize) -> u32 {
        self.availability[i]
    }

    /// Consistency check: availability counters match member bitfields.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut counts = vec![0u32; self.piece_count];
        for m in self.members.values() {
            for i in m.bitfield.iter_set() {
                counts[i] += 1;
            }
        }
        if counts != self.availability {
            return Err("availability counters out of sync".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> PeerId {
        PeerId(i)
    }

    fn swarm() -> Swarm {
        Swarm::new(10, Bytes::from_mb(1), BtConfig::default())
    }

    #[test]
    fn join_and_roles() {
        let mut s = swarm();
        s.join_leecher(p(1));
        s.join_seeder(p(2));
        assert_eq!(s.member(p(1)).unwrap().role(), Role::Leecher);
        assert_eq!(s.member(p(2)).unwrap().role(), Role::Seeder);
        assert_eq!(s.member_count(), 2);
        s.check_invariants().unwrap();
    }

    #[test]
    fn join_is_idempotent() {
        let mut s = swarm();
        s.join_seeder(p(1));
        s.join_seeder(p(1));
        assert_eq!(s.member_count(), 1);
        assert_eq!(s.availability(0), 1);
        // an existing leecher is not silently upgraded
        s.join_leecher(p(2));
        s.join_seeder(p(2));
        assert_eq!(s.member(p(2)).unwrap().role(), Role::Leecher);
        s.check_invariants().unwrap();
    }

    #[test]
    fn leave_updates_availability() {
        let mut s = swarm();
        s.join_seeder(p(1));
        assert_eq!(s.availability(3), 1);
        s.leave(p(1));
        assert_eq!(s.availability(3), 0);
        assert!(!s.contains(p(1)));
        s.check_invariants().unwrap();
    }

    #[test]
    fn interest_requires_missing_piece() {
        let mut s = swarm();
        s.join_leecher(p(1));
        s.join_seeder(p(2));
        assert!(s.interested(p(1), p(2)));
        assert!(!s.interested(p(2), p(1)));
        assert!(!s.interested(p(1), p(99)));
    }

    #[test]
    fn credit_completes_pieces() {
        let mut s = swarm();
        s.join_leecher(p(1));
        s.join_seeder(p(2));
        let done = s.credit_download(p(1), &[p(2)], Bytes::from_mb(3));
        assert_eq!(done.len(), 3);
        assert_eq!(s.member(p(1)).unwrap().bitfield.count(), 3);
        assert_eq!(s.member(p(1)).unwrap().credit, Bytes::ZERO);
        s.check_invariants().unwrap();
    }

    #[test]
    fn partial_credit_carries_over() {
        let mut s = swarm();
        s.join_leecher(p(1));
        s.join_seeder(p(2));
        let done = s.credit_download(p(1), &[p(2)], Bytes::from_kb(700));
        assert!(done.is_empty());
        let done = s.credit_download(p(1), &[p(2)], Bytes::from_kb(400));
        assert_eq!(done.len(), 1, "700 KB + 400 KB crosses one 1 MB piece");
    }

    #[test]
    fn credit_without_providers_is_discarded() {
        let mut s = swarm();
        s.join_leecher(p(1));
        let done = s.credit_download(p(1), &[], Bytes::from_mb(5));
        assert!(done.is_empty());
        assert_eq!(s.member(p(1)).unwrap().credit, Bytes::ZERO);
    }

    #[test]
    fn completing_download_turns_seeder() {
        let mut s = swarm();
        s.join_leecher(p(1));
        s.join_seeder(p(2));
        s.credit_download(p(1), &[p(2)], Bytes::from_mb(10));
        assert_eq!(s.member(p(1)).unwrap().role(), Role::Seeder);
        assert!(!s.interested(p(1), p(2)));
    }

    #[test]
    fn rarest_first_prefers_low_availability() {
        let mut s = swarm();
        s.join_seeder(p(1)); // all pieces availability 1
        s.join_leecher(p(2));
        // peer 2 grabs pieces 0..4 => availability 2 for those
        for i in 0..5 {
            let m = s.member_mut(p(2)).unwrap();
            m.bitfield.set(i);
            s.availability[i] += 1;
        }
        s.join_leecher(p(3));
        // for peer 3, pieces 5..9 (availability 1) are rarer than 0..4
        let pick = s.rarest_wanted(p(3), &[p(1), p(2)]).unwrap();
        assert!(pick >= 5, "picked {pick}");
        s.check_invariants().unwrap();
    }

    #[test]
    fn rarest_wanted_respects_providers() {
        let mut s = swarm();
        s.join_leecher(p(1));
        s.join_leecher(p(2));
        // peer 2 only has piece 7
        s.member_mut(p(2)).unwrap().bitfield.set(7);
        s.availability[7] += 1;
        assert_eq!(s.rarest_wanted(p(1), &[p(2)]), Some(7));
        assert_eq!(s.rarest_wanted(p(1), &[]), None);
    }

    #[test]
    fn seeder_gets_no_pieces_from_credit() {
        let mut s = swarm();
        s.join_seeder(p(1));
        s.join_seeder(p(2));
        let done = s.credit_download(p(1), &[p(2)], Bytes::from_mb(5));
        assert!(done.is_empty());
    }
}
