//! Binary wire codec for BarterCast messages.
//!
//! A compact hand-rolled format over the `bytes` crate (serde binary
//! formats like bincode are outside the allowed dependency set):
//!
//! ```text
//! [magic u8 = 0xBC] [version u8 = 1] [sender u32 LE]
//! [record count u16 LE]
//! repeated: [peer u32 LE] [up u64 LE] [down u64 LE]
//! ```
//!
//! Decoding is defensive — any truncation, bad magic, or unsupported
//! version yields a typed error instead of a panic, since messages
//! arrive from untrusted peers.
//!
//! For byte-stream transports (the node runtime's sessions), the
//! message body above travels inside a length-delimited frame:
//!
//! ```text
//! [length u32 LE] [payload: length bytes]
//! ```
//!
//! [`FrameDecoder`] reassembles such frames incrementally from
//! arbitrarily fragmented reads — one byte at a time is fine — and
//! rejects any frame whose claimed length exceeds its cap *before*
//! buffering the payload, so a hostile length prefix can neither panic
//! nor force an unbounded allocation.

use crate::frontier::{DeltaMsg, Frontier};
use crate::message::{BarterCastMessage, TransferRecord};
use bartercast_util::units::{Bytes, PeerId, Seconds};
use bytes::{Buf, BufMut, BytesMut};
use std::fmt;

/// Magic byte opening every BarterCast frame.
pub const MAGIC: u8 = 0xBC;
/// Current wire version.
pub const VERSION: u8 = 1;
/// Upper bound on records per message (a frame claiming more is
/// rejected before any allocation).
pub const MAX_RECORDS: usize = 1024;
/// Fixed wire size of one v1 record (`peer u32 + up u64 + down u64`).
pub const RECORD_WIRE_BYTES: usize = 20;
/// Version byte opening digest/delta bodies.
pub const FRONTIER_VERSION: u8 = 1;

/// Upper bound on a stream frame's payload, in bytes. A full-size
/// message body is `8 + 20 ·`[`MAX_RECORDS`]` = 20488` bytes; the cap
/// leaves room for small envelope overheads layered on top (the node
/// runtime prepends a one-byte frame kind) while still rejecting
/// hostile length prefixes long before any large allocation.
pub const MAX_FRAME_BYTES: usize = 32 * 1024;

/// Decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Frame shorter than its headers/payload claim.
    Truncated,
    /// First byte was not [`MAGIC`].
    BadMagic(u8),
    /// Unsupported version byte.
    BadVersion(u8),
    /// Record count exceeded [`MAX_RECORDS`].
    TooManyRecords(usize),
    /// A stream frame's length prefix exceeded the decoder's cap.
    FrameTooLarge(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated frame"),
            DecodeError::BadMagic(b) => write!(f, "bad magic byte 0x{b:02x}"),
            DecodeError::BadVersion(v) => write!(f, "unsupported version {v}"),
            DecodeError::TooManyRecords(n) => write!(f, "record count {n} exceeds maximum"),
            DecodeError::FrameTooLarge(n) => write!(f, "frame length {n} exceeds maximum"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Serialize a message into a fresh buffer.
///
/// ```
/// use bartercast_core::{codec, BarterCastConfig, BarterCastMessage, PrivateHistory};
/// use bartercast_util::units::{Bytes, PeerId, Seconds};
///
/// let mut h = PrivateHistory::new(PeerId(7));
/// h.record_upload(PeerId(1), Bytes::from_mb(5), Seconds(1));
/// let msg = BarterCastMessage::from_history(&h, BarterCastConfig::default());
/// let frame = codec::encode(&msg);
/// assert_eq!(codec::decode(&frame).unwrap(), msg);
/// ```
pub fn encode(msg: &BarterCastMessage) -> BytesMut {
    let mut buf = BytesMut::with_capacity(8 + msg.records.len() * RECORD_WIRE_BYTES);
    encode_into(msg, &mut buf);
    buf
}

/// Serialize a message by *appending* to `out` — the allocation-free
/// sibling of [`encode`] for callers recycling buffers through a
/// [`BufPool`].
pub fn encode_into(msg: &BarterCastMessage, out: &mut BytesMut) {
    out.put_u8(MAGIC);
    out.put_u8(VERSION);
    out.put_u32_le(msg.sender.0);
    debug_assert!(msg.records.len() <= MAX_RECORDS);
    out.put_u16_le(msg.records.len() as u16);
    for r in &msg.records {
        out.put_u32_le(r.peer.0);
        out.put_u64_le(r.up.0);
        out.put_u64_le(r.down.0);
    }
}

/// Parse a frame produced by [`encode`].
pub fn decode(mut buf: &[u8]) -> Result<BarterCastMessage, DecodeError> {
    if buf.remaining() < 8 {
        return Err(DecodeError::Truncated);
    }
    let magic = buf.get_u8();
    if magic != MAGIC {
        return Err(DecodeError::BadMagic(magic));
    }
    let version = buf.get_u8();
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let sender = PeerId(buf.get_u32_le());
    let count = buf.get_u16_le() as usize;
    if count > MAX_RECORDS {
        return Err(DecodeError::TooManyRecords(count));
    }
    if buf.remaining() < count * 20 {
        return Err(DecodeError::Truncated);
    }
    let mut records = Vec::with_capacity(count);
    for _ in 0..count {
        records.push(TransferRecord {
            peer: PeerId(buf.get_u32_le()),
            up: Bytes(buf.get_u64_le()),
            down: Bytes(buf.get_u64_le()),
        });
    }
    Ok(BarterCastMessage { sender, records })
}

/// Wrap an arbitrary payload in a stream frame: `[len u32 LE][payload]`.
///
/// Panics (debug assertion) if the payload exceeds
/// [`MAX_FRAME_BYTES`]; callers build payloads from bounded messages,
/// so this cannot happen for well-formed traffic.
pub fn frame(payload: &[u8]) -> BytesMut {
    debug_assert!(payload.len() <= MAX_FRAME_BYTES);
    let mut buf = BytesMut::with_capacity(4 + payload.len());
    buf.put_u32_le(payload.len() as u32);
    buf.put_slice(payload);
    buf
}

/// Encode a message and wrap it in a stream frame in one step.
pub fn encode_framed(msg: &BarterCastMessage) -> BytesMut {
    frame(&encode(msg))
}

/// Append an LEB128 unsigned varint (7 data bits per byte, high bit =
/// continuation). Digest/delta bodies use varints because their fields
/// — peer ids, record counts, byte totals — are small in practice, and
/// the whole point of those envelopes is to be cheap on the wire.
pub fn put_uvarint<B: BufMut>(out: &mut B, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.put_u8(b);
            return;
        }
        out.put_u8(b | 0x80);
    }
}

/// Read an LEB128 unsigned varint, rejecting encodings that run past
/// 64 bits (a hostile stream of continuation bytes errors instead of
/// spinning or wrapping).
pub fn get_uvarint(buf: &mut &[u8]) -> Result<u64, DecodeError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    while shift < 64 {
        if buf.is_empty() {
            return Err(DecodeError::Truncated);
        }
        let b = buf.get_u8();
        let chunk = (b & 0x7f) as u64;
        if shift == 63 && chunk > 1 {
            return Err(DecodeError::Truncated);
        }
        v |= chunk << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
    Err(DecodeError::Truncated)
}

fn get_peer(buf: &mut &[u8]) -> Result<PeerId, DecodeError> {
    let raw = get_uvarint(buf)?;
    if raw > u32::MAX as u64 {
        return Err(DecodeError::Truncated);
    }
    Ok(PeerId(raw as u32))
}

fn put_frontier<B: BufMut>(out: &mut B, f: &Frontier) {
    put_uvarint(out, f.count as u64);
    put_uvarint(out, f.max_ts.0);
    out.put_u64_le(f.checksum);
}

fn get_frontier(buf: &mut &[u8]) -> Result<Frontier, DecodeError> {
    let count = get_uvarint(buf)?;
    if count > u32::MAX as u64 {
        return Err(DecodeError::Truncated);
    }
    let max_ts = Seconds(get_uvarint(buf)?);
    if buf.remaining() < 8 {
        return Err(DecodeError::Truncated);
    }
    Ok(Frontier {
        count: count as u32,
        max_ts,
        checksum: buf.get_u64_le(),
    })
}

/// Serialize a `Digest` body: the sender asks the receiver to compare
/// `claim` — the frontier the sender last saw from the receiver —
/// against the receiver's current advertised slice.
///
/// ```text
/// [frontier version u8 = 1] [sender uvarint]
/// [count uvarint] [max_ts uvarint] [checksum u64 LE]
/// ```
pub fn encode_digest_into(sender: PeerId, claim: &Frontier, out: &mut BytesMut) {
    out.put_u8(FRONTIER_VERSION);
    put_uvarint(out, sender.0 as u64);
    put_frontier(out, claim);
}

/// Parse a `Digest` body. Trailing bytes are rejected — a digest is a
/// fixed sequence of fields, so anything extra means a framing bug or
/// a hostile peer.
pub fn decode_digest(mut buf: &[u8]) -> Result<(PeerId, Frontier), DecodeError> {
    if buf.is_empty() {
        return Err(DecodeError::Truncated);
    }
    let version = buf.get_u8();
    if version != FRONTIER_VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let sender = get_peer(&mut buf)?;
    let claim = get_frontier(&mut buf)?;
    if !buf.is_empty() {
        return Err(DecodeError::Truncated);
    }
    Ok((sender, claim))
}

/// Serialize a `Delta` body: the records the digest sender lacked plus
/// the responder's fresh frontier stamp.
///
/// ```text
/// [frontier version u8 = 1] [full u8 ∈ {0,1}] [sender uvarint]
/// [stamp: count uvarint, max_ts uvarint, checksum u64 LE]
/// [record count uvarint]
/// repeated: [peer uvarint] [up uvarint] [down uvarint]
/// ```
pub fn encode_delta_into(delta: &DeltaMsg, out: &mut BytesMut) {
    out.put_u8(FRONTIER_VERSION);
    out.put_u8(delta.full as u8);
    put_uvarint(out, delta.sender.0 as u64);
    put_frontier(out, &delta.stamp);
    debug_assert!(delta.records.len() <= MAX_RECORDS);
    put_uvarint(out, delta.records.len() as u64);
    for r in &delta.records {
        put_uvarint(out, r.peer.0 as u64);
        put_uvarint(out, r.up.0);
        put_uvarint(out, r.down.0);
    }
}

/// Parse a `Delta` body. Same defensive posture as [`decode`]: record
/// counts are bounded before any allocation, flags outside `{0,1}`
/// and trailing bytes are refused.
pub fn decode_delta(mut buf: &[u8]) -> Result<DeltaMsg, DecodeError> {
    if buf.remaining() < 2 {
        return Err(DecodeError::Truncated);
    }
    let version = buf.get_u8();
    if version != FRONTIER_VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let full = match buf.get_u8() {
        0 => false,
        1 => true,
        _ => return Err(DecodeError::Truncated),
    };
    let sender = get_peer(&mut buf)?;
    let stamp = get_frontier(&mut buf)?;
    let count = get_uvarint(&mut buf)? as usize;
    if count > MAX_RECORDS {
        return Err(DecodeError::TooManyRecords(count));
    }
    let mut records = Vec::with_capacity(count);
    for _ in 0..count {
        let peer = get_peer(&mut buf)?;
        let up = Bytes(get_uvarint(&mut buf)?);
        let down = Bytes(get_uvarint(&mut buf)?);
        records.push(TransferRecord { peer, up, down });
    }
    if !buf.is_empty() {
        return Err(DecodeError::Truncated);
    }
    Ok(DeltaMsg {
        sender,
        full,
        stamp,
        records,
    })
}

/// A free-list of reusable output buffers.
///
/// Wire encoders append into a [`BytesMut`] taken from the pool; once
/// the frame is flushed the buffer returns, keeping its allocation.
/// Steady-state exchange — digests, deltas, control frames — therefore
/// allocates nothing once the pool is warm. The pool is deliberately
/// dumb: a bounded LIFO stack, no sizing classes, because every frame
/// here is small (≤ [`MAX_FRAME_BYTES`]).
#[derive(Debug, Default)]
pub struct BufPool {
    free: Vec<BytesMut>,
    /// Buffers handed out minus buffers returned, for leak assertions.
    outstanding: usize,
}

/// Upper bound on buffers the pool retains; beyond it, returned
/// buffers are simply dropped.
const POOL_CAP: usize = 64;

impl BufPool {
    /// An empty pool.
    pub fn new() -> Self {
        BufPool::default()
    }

    /// Take a cleared buffer, reusing a pooled allocation when one is
    /// available.
    pub fn take(&mut self) -> BytesMut {
        self.outstanding += 1;
        self.free.pop().unwrap_or_default()
    }

    /// Return a buffer to the pool. Contents are cleared; capacity is
    /// kept.
    pub fn put(&mut self, mut buf: BytesMut) {
        self.outstanding = self.outstanding.saturating_sub(1);
        if self.free.len() < POOL_CAP {
            buf.clear();
            self.free.push(buf);
        }
    }

    /// Buffers currently sitting in the free list.
    pub fn pooled(&self) -> usize {
        self.free.len()
    }

    /// Buffers taken and not yet returned.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }
}

/// Incremental decoder for length-delimited stream frames.
///
/// Feed it whatever fragments a byte-stream transport yields —
/// including single bytes — and pull complete frame payloads out as
/// they become available. A length prefix exceeding the cap is
/// rejected as soon as the four length bytes arrive, before the
/// payload is buffered, so a hostile prefix cannot force an unbounded
/// allocation. After any error the decoder is *poisoned* (the stream
/// position is no longer trustworthy) and every further call returns
/// the same error: the only safe recovery is dropping the connection.
///
/// ```
/// use bartercast_core::codec::{self, FrameDecoder};
/// use bartercast_core::BarterCastMessage;
/// use bartercast_util::units::PeerId;
///
/// let msg = BarterCastMessage { sender: PeerId(7), records: vec![] };
/// let wire = codec::encode_framed(&msg);
/// let mut dec = FrameDecoder::new();
/// // bytes arrive one at a time; the message pops out exactly once
/// let mut out = Vec::new();
/// for b in wire.iter() {
///     dec.feed(&[*b]);
///     while let Some(m) = dec.next_message().unwrap() {
///         out.push(m);
///     }
/// }
/// assert_eq!(out, vec![msg]);
/// ```
#[derive(Debug, Clone)]
pub struct FrameDecoder {
    /// Unconsumed stream bytes; `read` marks how far frames have been
    /// drained (compacted opportunistically to keep the buffer small).
    buf: Vec<u8>,
    read: usize,
    max_frame: usize,
    poisoned: Option<DecodeError>,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameDecoder {
    /// A decoder capped at [`MAX_FRAME_BYTES`] per frame.
    pub fn new() -> Self {
        Self::with_max_frame(MAX_FRAME_BYTES)
    }

    /// A decoder with a custom per-frame payload cap (tests and
    /// transports with tighter budgets).
    pub fn with_max_frame(max_frame: usize) -> Self {
        FrameDecoder {
            buf: Vec::new(),
            read: 0,
            max_frame,
            poisoned: None,
        }
    }

    /// Append raw stream bytes. Fragmentation is arbitrary: frames may
    /// span many feeds, and one feed may carry many frames.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.poisoned.is_some() {
            // a poisoned stream is dead; don't let its remnants grow
            return;
        }
        // compact before growing: drained frames never need replaying
        if self.read > 0 && (self.read == self.buf.len() || self.read >= 4096) {
            self.buf.drain(..self.read);
            self.read = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet drained as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.read
    }

    /// The next complete frame payload, `Ok(None)` while more bytes
    /// are needed, or the poisoning error.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, DecodeError> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        let pending = &self.buf[self.read..];
        if pending.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([pending[0], pending[1], pending[2], pending[3]]) as usize;
        if len > self.max_frame {
            let err = DecodeError::FrameTooLarge(len);
            self.poisoned = Some(err.clone());
            self.buf.clear();
            self.read = 0;
            return Err(err);
        }
        if pending.len() < 4 + len {
            return Ok(None);
        }
        let payload = pending[4..4 + len].to_vec();
        self.read += 4 + len;
        Ok(Some(payload))
    }

    /// The next complete frame decoded as a [`BarterCastMessage`].
    /// Malformed payloads poison the decoder like a bad length prefix:
    /// the framing may be intact, but the peer is speaking garbage.
    pub fn next_message(&mut self) -> Result<Option<BarterCastMessage>, DecodeError> {
        match self.next_frame()? {
            None => Ok(None),
            Some(payload) => match decode(&payload) {
                Ok(msg) => Ok(Some(msg)),
                Err(e) => {
                    self.poisoned = Some(e.clone());
                    self.buf.clear();
                    self.read = 0;
                    Err(e)
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BarterCastMessage {
        BarterCastMessage {
            sender: PeerId(42),
            records: vec![
                TransferRecord {
                    peer: PeerId(1),
                    up: Bytes::from_mb(100),
                    down: Bytes::from_mb(5),
                },
                TransferRecord {
                    peer: PeerId(7),
                    up: Bytes::ZERO,
                    down: Bytes::from_gb(2),
                },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let msg = sample();
        let buf = encode(&msg);
        let back = decode(&buf).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn empty_message_roundtrip() {
        let msg = BarterCastMessage {
            sender: PeerId(3),
            records: vec![],
        };
        let buf = encode(&msg);
        assert_eq!(buf.len(), 8);
        assert_eq!(decode(&buf).unwrap(), msg);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut buf = encode(&sample());
        buf[0] = 0xFF;
        assert_eq!(decode(&buf), Err(DecodeError::BadMagic(0xFF)));
    }

    #[test]
    fn rejects_bad_version() {
        let mut buf = encode(&sample());
        buf[1] = 9;
        assert_eq!(decode(&buf), Err(DecodeError::BadVersion(9)));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let buf = encode(&sample());
        for cut in 0..buf.len() {
            let res = decode(&buf[..cut]);
            assert!(res.is_err(), "prefix of length {cut} decoded successfully");
        }
    }

    #[test]
    fn rejects_record_count_bomb() {
        let mut buf = encode(&BarterCastMessage {
            sender: PeerId(1),
            records: vec![],
        });
        // forge a huge record count with no payload
        let n = buf.len();
        buf[n - 2] = 0xFF;
        buf[n - 1] = 0xFF;
        let res = decode(&buf);
        assert!(matches!(
            res,
            Err(DecodeError::TooManyRecords(_)) | Err(DecodeError::Truncated)
        ));
    }

    #[test]
    fn error_display() {
        assert!(DecodeError::Truncated.to_string().contains("truncated"));
        assert!(DecodeError::BadMagic(1).to_string().contains("magic"));
        assert!(DecodeError::FrameTooLarge(99).to_string().contains("99"));
    }

    #[test]
    fn frame_decoder_reassembles_byte_at_a_time() {
        let msgs = [sample(), sample()];
        let mut wire = Vec::new();
        for m in &msgs {
            wire.extend_from_slice(&encode_framed(m));
        }
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for b in wire {
            dec.feed(&[b]);
            while let Some(m) = dec.next_message().unwrap() {
                out.push(m);
            }
        }
        assert_eq!(out, msgs);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn frame_decoder_handles_many_frames_per_feed() {
        let mut wire = Vec::new();
        for _ in 0..5 {
            wire.extend_from_slice(&encode_framed(&sample()));
        }
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        let mut count = 0;
        while let Some(m) = dec.next_message().unwrap() {
            assert_eq!(m, sample());
            count += 1;
        }
        assert_eq!(count, 5);
    }

    #[test]
    fn frame_decoder_rejects_oversized_length_before_payload() {
        let mut dec = FrameDecoder::with_max_frame(64);
        // hostile prefix claiming 4 GiB: rejected from the length
        // bytes alone, with nothing buffered afterwards
        dec.feed(&u32::MAX.to_le_bytes());
        assert_eq!(
            dec.next_frame(),
            Err(DecodeError::FrameTooLarge(u32::MAX as usize))
        );
        // poisoned: same error forever, and feeds are discarded
        dec.feed(&[0u8; 128]);
        assert_eq!(dec.buffered(), 0);
        assert_eq!(
            dec.next_frame(),
            Err(DecodeError::FrameTooLarge(u32::MAX as usize))
        );
    }

    #[test]
    fn frame_decoder_poisons_on_garbage_payload() {
        let mut dec = FrameDecoder::new();
        dec.feed(&frame(&[0xFF, 1, 2, 3, 4, 5, 6, 7]));
        assert_eq!(dec.next_message(), Err(DecodeError::BadMagic(0xFF)));
        // a valid frame after the garbage is still refused
        dec.feed(&encode_framed(&sample()));
        assert!(dec.next_message().is_err());
    }

    #[test]
    fn uvarint_roundtrips_interesting_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = BytesMut::new();
            put_uvarint(&mut buf, v);
            assert!(buf.len() <= 10);
            let mut r: &[u8] = &buf;
            assert_eq!(get_uvarint(&mut r), Ok(v), "value {v}");
            assert!(r.is_empty());
        }
    }

    #[test]
    fn uvarint_rejects_overlong_and_truncated_input() {
        // eleven continuation bytes: past the 64-bit ceiling
        let mut r: &[u8] = &[0x80u8; 11];
        assert_eq!(get_uvarint(&mut r), Err(DecodeError::Truncated));
        // a 10th byte whose payload overflows bit 63
        let mut r: &[u8] = &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F];
        assert_eq!(get_uvarint(&mut r), Err(DecodeError::Truncated));
        // continuation bit set with nothing following
        let mut r: &[u8] = &[0x80];
        assert_eq!(get_uvarint(&mut r), Err(DecodeError::Truncated));
    }

    fn sample_delta() -> crate::frontier::DeltaMsg {
        crate::frontier::DeltaMsg {
            sender: PeerId(42),
            full: false,
            stamp: crate::frontier::Frontier {
                count: 3,
                max_ts: bartercast_util::units::Seconds(1234),
                checksum: 0xDEAD_BEEF_CAFE_F00D,
            },
            records: sample().records,
        }
    }

    #[test]
    fn digest_roundtrip_and_trailing_garbage_rejected() {
        let claim = sample_delta().stamp;
        let mut buf = BytesMut::new();
        encode_digest_into(PeerId(7), &claim, &mut buf);
        assert_eq!(decode_digest(&buf), Ok((PeerId(7), claim)));
        let mut long = buf.to_vec();
        long.push(0);
        assert_eq!(decode_digest(&long), Err(DecodeError::Truncated));
        for cut in 0..buf.len() {
            assert!(decode_digest(&buf[..cut]).is_err(), "prefix {cut}");
        }
    }

    #[test]
    fn delta_roundtrip_and_hostile_bodies_rejected() {
        let delta = sample_delta();
        let mut buf = BytesMut::new();
        encode_delta_into(&delta, &mut buf);
        assert_eq!(decode_delta(&buf), Ok(delta.clone()));
        for cut in 0..buf.len() {
            assert!(decode_delta(&buf[..cut]).is_err(), "prefix {cut}");
        }
        // bad frontier version
        let mut bad = buf.to_vec();
        bad[0] = 9;
        assert_eq!(decode_delta(&bad), Err(DecodeError::BadVersion(9)));
        // flag outside {0,1}
        let mut bad = buf.to_vec();
        bad[1] = 2;
        assert_eq!(decode_delta(&bad), Err(DecodeError::Truncated));
        // record-count bomb with no payload behind it
        let mut bomb = BytesMut::new();
        bomb.put_u8(FRONTIER_VERSION);
        bomb.put_u8(0);
        put_uvarint(&mut bomb, 42);
        put_frontier(&mut bomb, &delta.stamp);
        put_uvarint(&mut bomb, (MAX_RECORDS + 1) as u64);
        assert_eq!(
            decode_delta(&bomb),
            Err(DecodeError::TooManyRecords(MAX_RECORDS + 1))
        );
    }

    #[test]
    fn full_flag_survives_roundtrip() {
        let mut delta = sample_delta();
        delta.full = true;
        delta.records.clear();
        let mut buf = BytesMut::new();
        encode_delta_into(&delta, &mut buf);
        assert_eq!(decode_delta(&buf), Ok(delta));
    }

    #[test]
    fn buf_pool_recycles_allocations() {
        let mut pool = BufPool::new();
        let mut a = pool.take();
        a.put_slice(&[0u8; 256]);
        assert_eq!(pool.outstanding(), 1);
        pool.put(a);
        assert_eq!(pool.outstanding(), 0);
        assert_eq!(pool.pooled(), 1);
        let b = pool.take();
        assert!(b.is_empty(), "recycled buffer is cleared");
        assert!(b.capacity() >= 256, "recycled buffer keeps its allocation");
        pool.put(b);
    }

    #[test]
    fn encode_into_matches_encode() {
        let msg = sample();
        let mut buf = BytesMut::new();
        encode_into(&msg, &mut buf);
        assert_eq!(buf, encode(&msg));
    }

    #[test]
    fn frame_decoder_raw_frames_are_payload_agnostic() {
        let mut dec = FrameDecoder::new();
        dec.feed(&frame(b"hello"));
        dec.feed(&frame(b""));
        assert_eq!(dec.next_frame().unwrap().unwrap(), b"hello");
        assert_eq!(dec.next_frame().unwrap().unwrap(), b"");
        assert_eq!(dec.next_frame().unwrap(), None);
    }
}
