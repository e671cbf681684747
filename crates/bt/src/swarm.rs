//! Per-swarm protocol state: members, bitfields, piece accounting and
//! rarest-first selection.
//!
//! Beside each piece's availability the swarm keeps its **planes**:
//! plane `a` is the set of pieces whose availability is `a`, stored as
//! words like a [`Bitfield`]. A completed piece moves one bit up a
//! plane, a departure moves the leaver's bits down, and a seeder's
//! arrival, which raises every piece by one, inserts an empty plane 0
//! instead of touching each piece. Rarest-first then reads the wanted
//! pieces plane by plane from the lowest, so a pick costs one AND per
//! plane it passes rather than a key per wanted piece.
//!
//! On the plane where a salted pick selects, it need not key the
//! plane's wanted pieces either. Below `2^b`, the piece count rounded
//! up to a power of two, the salted tie of piece `i` is `H + j·MIX`
//! (wrapping) with `H = (salt & !mask)·MIX` and `j = (i ^ salt) &
//! mask`, so every salt orders the pieces by one table: the `2^b`
//! values `j·MIX`, sorted once per swarm. A pick finds where `H`
//! makes the table wrap past `2^64` and walks it from there, keeping
//! the first pieces the plane offers.

use crate::bitfield::Bitfield;
use crate::choke::{Choker, Contention};
use crate::config::BtConfig;
use bartercast_util::units::{Bytes, PeerId};
use bartercast_util::FxHashMap;
use std::sync::OnceLock;

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

/// The pieces at one availability, as words over the file.
#[derive(Debug, Clone)]
struct Plane {
    words: Vec<u64>,
    /// Set bits of `words`.
    count: usize,
}

impl Plane {
    fn empty(words: usize) -> Self {
        Plane {
            words: vec![0; words],
            count: 0,
        }
    }

    fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
        self.count += 1;
    }

    fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
        self.count -= 1;
    }
}

/// The odd multiplier of the salted tie-break.
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// The rarest-first tie-break of piece `i` under `salt`: a bijection of
/// the index, so no two pieces tie. Salt 0 is the index itself.
fn tie(i: usize, salt: u64) -> u64 {
    if salt == 0 {
        i as u64
    } else {
        // multiply-xor mix; any fixed bijection works here
        (i as u64 ^ salt).wrapping_mul(MIX)
    }
}

/// Every `j < bits` (a power of two) in ascending `j·MIX` order: the
/// salted tie order of the pieces up to the wrap point and the low-bit
/// flip of each salt (module docs).
fn tie_order(bits: usize) -> Box<[u32]> {
    let bits = u32::try_from(bits).expect("the rounded-up piece count fits in u32");
    let mut order: Vec<u32> = (0..bits).collect();
    order.sort_unstable_by_key(|&j| u64::from(j).wrapping_mul(MIX));
    order.into_boxed_slice()
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
    /// `planes[a]`: the pieces whose availability is `a`. The top plane
    /// is never empty unless it is plane 0.
    planes: Vec<Plane>,
    /// [`tie_order`] of the piece count rounded up to a power of two,
    /// built on the first salted pick that walks it.
    tie_order: OnceLock<Box<[u32]>>,
    /// The choke contention of members that have left.
    departed: Contention,
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
            planes: vec![Plane {
                words: Bitfield::full(piece_count).words().to_vec(),
                count: piece_count,
            }],
            tie_order: OnceLock::new(),
            departed: Contention::default(),
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
        let words = self.planes[0].words.len();
        self.planes.insert(0, Plane::empty(words));
        self.members.insert(peer, m);
    }

    /// Remove a member (departure), updating availability.
    pub fn leave(&mut self, peer: PeerId) {
        let Some(m) = self.members.remove(&peer) else {
            return;
        };
        self.departed.add(m.choker.contention());
        if m.bitfield.is_complete() {
            // the inverse of `join_seeder`: every piece drops one plane
            for a in &mut self.availability {
                *a -= 1;
            }
            let bottom = self.planes.remove(0);
            debug_assert_eq!(bottom.count, 0, "a seeder left a piece at availability 0");
        } else {
            for i in m.bitfield.iter_set() {
                let a = self.availability[i] as usize;
                self.planes[a].remove(i);
                self.planes[a - 1].insert(i);
                self.availability[i] -= 1;
            }
        }
        while self.planes.len() > 1 && self.planes.last().is_some_and(|p| p.count == 0) {
            self.planes.pop();
        }
    }

    /// One more member now holds piece `i`: its bit moves up a plane.
    fn raise(&mut self, i: usize) {
        let a = self.availability[i] as usize;
        if a + 1 == self.planes.len() {
            self.planes.push(Plane::empty(self.planes[0].words.len()));
        }
        self.planes[a].remove(i);
        self.planes[a + 1].insert(i);
        self.availability[i] += 1;
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
    /// order: by `(availability, tie)`, the order of `k` successive
    /// min-picks under [`crate::picker::key`]. Unknown providers offer
    /// nothing.
    ///
    /// The wanted words are ANDed with each plane from the lowest up.
    /// A plane whose wanted pieces all fit in what is left of `k` is
    /// taken whole; on the plane that overflows, the smallest ties
    /// fill the rest. Ties are unique, so no index breaks them. A
    /// salted pick whose walk of the tie order ([`Swarm::walk`])
    /// expects fewer reads than the plane has wanted pieces walks;
    /// any other lists and keys the plane's wanted pieces.
    fn rarest_k(&self, d: &Member, providers: &[PeerId], salt: u64, k: usize) -> Vec<usize> {
        if k == 0 {
            return Vec::new();
        }
        let offers: Vec<&Bitfield> = providers
            .iter()
            .filter_map(|p| self.members.get(p))
            .map(|m| &m.bitfield)
            .collect();
        let wanted: Vec<u64> = d.bitfield.wanted_words(&offers).collect();
        let mut unseen: usize = wanted.iter().map(|w| w.count_ones() as usize).sum();
        let bits = self.piece_count.next_power_of_two();
        let mut picked = Vec::new();
        let mut level: Vec<(u64, usize)> = Vec::new();
        for plane in &self.planes {
            if unseen == 0 || picked.len() == k {
                break;
            }
            if plane.count == 0 {
                continue;
            }
            let here: usize = wanted
                .iter()
                .zip(&plane.words)
                .map(|(&want, &have)| (want & have).count_ones() as usize)
                .sum();
            if here == 0 {
                continue;
            }
            unseen -= here;
            let room = k - picked.len();
            // a walk reads about `room · 2^b / here` table entries
            if salt != 0 && room.saturating_mul(bits) / here < here {
                self.walk(&wanted, plane, salt, room, &mut picked);
                continue;
            }
            level.clear();
            for (w, (&want, &have)) in wanted.iter().zip(&plane.words).enumerate() {
                let mut word = want & have;
                while word != 0 {
                    let i = w * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    level.push((tie(i, salt), i));
                }
            }
            if level.len() > room {
                level.select_nth_unstable(room - 1);
                level.truncate(room);
            }
            level.sort_unstable();
            picked.extend(level.iter().map(|&(_, i)| i));
        }
        picked
    }

    /// Append to `picked`, in tie order under `salt` (non-zero), the
    /// first `room` pieces set in both `wanted` and `plane`; the plane
    /// holds more than `room` of them. Walks the swarm's tie order
    /// from the entry whose `j·MIX` first wraps past `2^64` once the
    /// salt's high part `H` is added (the smallest sums), through the
    /// end and round to the start; entry `j` is piece `j ^ (salt &
    /// mask)`, and entries past the piece count are skipped.
    fn walk(&self, wanted: &[u64], plane: &Plane, salt: u64, room: usize, picked: &mut Vec<usize>) {
        let order = self
            .tie_order
            .get_or_init(|| tie_order(self.piece_count.next_power_of_two()));
        let mask = (order.len() - 1) as u64;
        let high = (salt & !mask).wrapping_mul(MIX);
        let low = (salt & mask) as usize;
        let wrap =
            order.partition_point(|&j| u64::from(j).wrapping_mul(MIX).checked_add(high).is_some());
        let (unwrapped, wrapped) = order.split_at(wrap);
        let goal = picked.len() + room;
        for &j in wrapped.iter().chain(unwrapped) {
            let i = j as usize ^ low;
            if i < self.piece_count && (wanted[i / 64] & plane.words[i / 64]) >> (i % 64) & 1 == 1 {
                picked.push(i);
                if picked.len() == goal {
                    return;
                }
            }
        }
        unreachable!("the plane holds more than {room} wanted pieces");
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
        }
        for &piece in &completed {
            self.raise(piece);
        }
        completed
    }

    /// The choke contention of every member this swarm has had: the
    /// [`Choker::contention`] of those present plus those that left.
    pub fn contention(&self) -> Contention {
        let mut all = self.departed;
        for m in self.members.values() {
            all.add(m.choker.contention());
        }
        all
    }

    /// Swarm-wide availability of piece `i`.
    pub fn availability(&self, i: usize) -> u32 {
        self.availability[i]
    }

    /// Consistency check: availability counters match member
    /// bitfields, and the planes tile the pieces by availability with a
    /// non-empty top plane.
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
        let top = counts.iter().copied().max().unwrap_or(0) as usize;
        if self.planes.len() != top + 1 {
            return Err(format!(
                "{} planes for a top availability of {top}",
                self.planes.len()
            ));
        }
        let mut expected = vec![Plane::empty(self.planes[0].words.len()); top + 1];
        for (i, &a) in counts.iter().enumerate() {
            expected[a as usize].insert(i);
        }
        for (a, (plane, want)) in self.planes.iter().zip(&expected).enumerate() {
            if plane.words != want.words || plane.count != want.count {
                return Err(format!(
                    "plane {a} does not hold the pieces at availability {a}"
                ));
            }
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
            s.member_mut(p(2)).unwrap().bitfield.set(i);
            s.raise(i);
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
        s.raise(7);
        assert_eq!(s.rarest_wanted(p(1), &[p(2)]), Some(7));
        assert_eq!(s.rarest_wanted(p(1), &[]), None);
    }

    /// The `k` rarest wanted pieces by sorting every one on
    /// `(availability, tie)`.
    fn by_sorting(s: &Swarm, d: PeerId, providers: &[PeerId], salt: u64, k: usize) -> Vec<usize> {
        let mine = &s.member(d).unwrap().bitfield;
        let mut keyed: Vec<(u32, u64, usize)> = (0..s.piece_count())
            .filter(|&i| !mine.has(i))
            .filter(|&i| {
                providers
                    .iter()
                    .any(|&q| s.member(q).is_some_and(|m| m.bitfield.has(i)))
            })
            .map(|i| (s.availability(i), tie(i, salt), i))
            .collect();
        keyed.sort_unstable();
        keyed.into_iter().take(k).map(|(_, _, i)| i).collect()
    }

    /// Each selection path in turn: salt 0 and a plane too thin for a
    /// walk list the plane's wanted pieces and never build the tie
    /// order; a salted pick of a few pieces from a thick plane walks
    /// it, with the wrap point inside the table (high salt bits) and
    /// at its end (none).
    #[test]
    fn each_selection_path_picks_the_sorted_prefix() {
        let pieces = 1000; // 2^b = 1024: 24 entries past the file
        let mut s = Swarm::new(pieces, Bytes::from_kb(64), BtConfig::default());
        s.join_seeder(p(0));
        s.join_leecher(p(1));
        s.join_leecher(p(2));
        for i in (0..pieces).step_by(3) {
            s.member_mut(p(2)).unwrap().bitfield.set(i);
            s.raise(i);
        }
        let providers = [p(0), p(2)];
        // salt 0 lists whatever `room` is
        assert_eq!(
            s.rarest_k(s.member(p(1)).unwrap(), &providers, 0, 5),
            by_sorting(&s, p(1), &providers, 0, 5)
        );
        // 667 wanted at availability 1: 600 · 1024 / 667 ≥ 667 lists
        let salt = 0xDEAD_BEEF_0000_0377;
        assert_eq!(
            s.rarest_k(s.member(p(1)).unwrap(), &providers, salt, 600),
            by_sorting(&s, p(1), &providers, salt, 600)
        );
        assert!(
            s.tie_order.get().is_none(),
            "a listed pick built the tie order"
        );
        for salt in [salt, 0x377, 1, u64::MAX, 1 << 63] {
            for k in [1, 26, 64, 400] {
                let want = by_sorting(&s, p(1), &providers, salt, k);
                assert_eq!(
                    s.rarest_k(s.member(p(1)).unwrap(), &providers, salt, k),
                    want,
                    "salt {salt:#x}, k {k}"
                );
            }
        }
        assert_eq!(
            s.tie_order.get().map(|o| o.len()),
            Some(1024),
            "no pick walked"
        );
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
