//! Session-layer envelopes: what actually travels inside each frame.
//!
//! Every frame on a node-to-node connection carries one [`Envelope`]:
//! a one-byte kind tag followed by a kind-specific body. The protocol
//! is deliberately tiny:
//!
//! * [`Envelope::Hello`] — versioned handshake, sent once by each side
//!   immediately after connect/accept. Carries the sender's peer id so
//!   the acceptor learns who dialed it (transports don't expose that).
//! * [`Envelope::Records`] — the paper's bare message: the sender's
//!   top-`Nh`/`Nr` slice of its private history, re-using the
//!   `bartercast-core` wire codec verbatim as the body. It still
//!   decodes, but no session accepts it: records travel only in the
//!   stamped `Delta` below, whose sender the session checks against
//!   its peer, so an established session that receives `Records`
//!   counts a protocol error and closes.
//! * [`Envelope::Bye`] — explicit teardown, so the peer can distinguish
//!   a graceful close from a severed connection.
//! * [`Envelope::Digest`] — delta anti-entropy request: a compact
//!   [`Frontier`] claim ("this is the newest slice of yours I hold"),
//!   asking the receiver to reply with only what the sender lacks.
//! * [`Envelope::Delta`] — the reply (and the full push): the missing
//!   records plus the responder's fresh frontier stamp ([`DeltaMsg`]).
//! * [`Envelope::Swarm`] — one BitTorrent-style swarm frame
//!   ([`SwarmFrame`]): bitfield/have availability advertisements,
//!   piece requests and transfers, and choke/unchoke notifications.
//!   These ride the same framed stream as record exchanges, so a
//!   transfer workload and BarterCast gossip share one session.
//!
//! Piece payloads are *logical*: a [`SwarmFrame::Piece`] carries the
//! piece index and its byte size, not the bytes themselves. The
//! runtime studies incentive dynamics (who gets unchoked, who
//! completes), for which shipping megabytes of zeroes through the
//! in-process transport would add nothing but wall-clock time; the
//! contribution accounting uses the declared size.

use bartercast_core::codec::{self, DecodeError};
use bartercast_core::{BarterCastMessage, DeltaMsg, Frontier};
use bartercast_util::units::PeerId;
use bytes::{Buf, BufMut, BytesMut};
use std::fmt;

/// Version of the session protocol (handshake + envelope layout).
/// Distinct from the record-codec version inside `Records` bodies.
/// v2 added the swarm frames (kinds 4–10); v3 added the delta
/// anti-entropy envelopes (kinds 11–12). A `Hello` advertising any
/// other version is refused.
pub const NODE_PROTOCOL_VERSION: u8 = 3;

const KIND_HELLO: u8 = 1;
const KIND_RECORDS: u8 = 2;
const KIND_BYE: u8 = 3;
const KIND_BITFIELD: u8 = 4;
const KIND_HAVE: u8 = 5;
const KIND_REQUEST: u8 = 6;
const KIND_PIECE: u8 = 7;
const KIND_CHOKE: u8 = 8;
const KIND_UNCHOKE: u8 = 9;
const KIND_CANCEL: u8 = 10;
const KIND_DIGEST: u8 = 11;
const KIND_DELTA: u8 = 12;

/// Magic byte opening a `Hello` body (same value as the record codec's
/// magic — one constant to grep for on the wire).
const HELLO_MAGIC: u8 = 0xBC;

/// One session-layer message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Envelope {
    /// Handshake: "I speak protocol `version`, and I am `peer`."
    Hello {
        /// The sender's identity.
        peer: PeerId,
        /// The protocol version the sender speaks
        /// ([`NODE_PROTOCOL_VERSION`], or the `Hello` is refused).
        version: u8,
    },
    /// One BarterCast record exchange.
    Records(BarterCastMessage),
    /// Graceful teardown; no more envelopes follow from the sender.
    Bye,
    /// Delta anti-entropy request: `claim` is the frontier the
    /// sender last saw from the receiver; the receiver answers with a
    /// [`Envelope::Delta`] of what the sender lacks, or stays silent
    /// when the claim is current.
    Digest {
        /// The digest sender's identity (must match the session peer).
        sender: PeerId,
        /// Frontier of the receiver's records as cached by the sender.
        claim: Frontier,
    },
    /// Delta anti-entropy reply: missing records plus the
    /// responder's fresh frontier stamp.
    Delta(DeltaMsg),
    /// One swarm-workload frame (piece transfer protocol).
    Swarm(SwarmFrame),
}

/// One BitTorrent-style frame of the piece-transfer workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwarmFrame {
    /// Full availability advertisement: which of the torrent's
    /// `piece_count` pieces the sender holds, packed LSB-first into
    /// `bits` (`ceil(piece_count / 8)` bytes).
    Bitfield {
        /// Number of pieces in the torrent, so the receiver can check
        /// the packing and reject mismatched swarms.
        piece_count: u32,
        /// Packed presence bits, LSB-first within each byte.
        bits: Vec<u8>,
    },
    /// The sender just completed `piece`.
    Have {
        /// Piece index.
        piece: u32,
    },
    /// The sender wants `piece` from us.
    Request {
        /// Piece index.
        piece: u32,
    },
    /// One piece transfer. The payload is logical (see module docs):
    /// `size` bytes are credited to the contribution books, no data
    /// bytes travel.
    Piece {
        /// Piece index.
        piece: u32,
        /// Piece size in bytes, as credited to the transfer ledger.
        size: u64,
    },
    /// The sender revoked our upload slot.
    Choke,
    /// The sender granted us an upload slot; requests may flow.
    Unchoke,
    /// The sender no longer wants `piece` (it arrived from someone
    /// else); drop it from our serve queue if still pending.
    Cancel {
        /// Piece index.
        piece: u32,
    },
}

/// Why an inbound envelope was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Empty payload or a kind byte this version doesn't know.
    BadKind(u8),
    /// `Hello` body malformed or wrong protocol version.
    BadHandshake,
    /// `Hello` advertised a protocol version we don't speak.
    VersionMismatch(u8),
    /// `Records` body failed the record codec.
    Codec(DecodeError),
    /// Body shorter than its kind requires.
    Truncated,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadKind(k) => write!(f, "unknown envelope kind {k:#04x}"),
            WireError::BadHandshake => write!(f, "malformed handshake"),
            WireError::VersionMismatch(v) => {
                write!(
                    f,
                    "peer speaks protocol v{v}, we speak v{NODE_PROTOCOL_VERSION}"
                )
            }
            WireError::Codec(e) => write!(f, "records body rejected: {e}"),
            WireError::Truncated => write!(f, "envelope body truncated"),
        }
    }
}

impl std::error::Error for WireError {}

/// Encode an envelope into a length-prefixed frame ready for
/// [`MemConn::try_send`](crate::mem::MemConn::try_send).
pub fn encode_envelope(envelope: &Envelope) -> BytesMut {
    let mut frame = BytesMut::new();
    encode_envelope_into(envelope, &mut frame);
    frame
}

/// Encode an envelope into `out` — cleared first — writing the frame
/// in a single pass: the length prefix is reserved up front and
/// backfilled once the payload size is known, so no intermediate
/// payload buffer exists. Paired with a
/// [`BufPool`](bartercast_core::codec::BufPool) this makes envelope
/// encoding allocation-free at steady state.
pub fn encode_envelope_into(envelope: &Envelope, out: &mut BytesMut) {
    out.clear();
    out.put_u32_le(0); // length prefix, backfilled below
    match envelope {
        Envelope::Hello { peer, version } => {
            out.put_u8(KIND_HELLO);
            out.put_u8(HELLO_MAGIC);
            out.put_u8(*version);
            out.put_u32_le(peer.0);
        }
        Envelope::Records(msg) => {
            out.put_u8(KIND_RECORDS);
            codec::encode_into(msg, out);
        }
        Envelope::Bye => out.put_u8(KIND_BYE),
        Envelope::Digest { sender, claim } => {
            out.put_u8(KIND_DIGEST);
            codec::encode_digest_into(*sender, claim, out);
        }
        Envelope::Delta(delta) => {
            out.put_u8(KIND_DELTA);
            codec::encode_delta_into(delta, out);
        }
        Envelope::Swarm(frame) => match frame {
            SwarmFrame::Bitfield { piece_count, bits } => {
                out.put_u8(KIND_BITFIELD);
                out.put_u32_le(*piece_count);
                out.put_slice(bits);
            }
            SwarmFrame::Have { piece } => {
                out.put_u8(KIND_HAVE);
                out.put_u32_le(*piece);
            }
            SwarmFrame::Request { piece } => {
                out.put_u8(KIND_REQUEST);
                out.put_u32_le(*piece);
            }
            SwarmFrame::Piece { piece, size } => {
                out.put_u8(KIND_PIECE);
                out.put_u32_le(*piece);
                out.put_u64_le(*size);
            }
            SwarmFrame::Choke => out.put_u8(KIND_CHOKE),
            SwarmFrame::Unchoke => out.put_u8(KIND_UNCHOKE),
            SwarmFrame::Cancel { piece } => {
                out.put_u8(KIND_CANCEL);
                out.put_u32_le(*piece);
            }
        },
    }
    let payload_len = out.len() - 4;
    debug_assert!(payload_len <= codec::MAX_FRAME_BYTES);
    out[..4].copy_from_slice(&(payload_len as u32).to_le_bytes());
}

/// Decode one frame payload (as yielded by
/// [`FrameDecoder::next_frame`](bartercast_core::codec::FrameDecoder::next_frame))
/// into an [`Envelope`].
pub fn decode_envelope(payload: &[u8]) -> Result<Envelope, WireError> {
    let Some((&kind, mut body)) = payload.split_first() else {
        return Err(WireError::BadKind(0));
    };
    match kind {
        KIND_HELLO => {
            if body.remaining() < 6 {
                return Err(WireError::Truncated);
            }
            if body.get_u8() != HELLO_MAGIC {
                return Err(WireError::BadHandshake);
            }
            let version = body.get_u8();
            if version != NODE_PROTOCOL_VERSION {
                return Err(WireError::VersionMismatch(version));
            }
            let peer = PeerId(body.get_u32_le());
            if body.remaining() != 0 {
                return Err(WireError::BadHandshake);
            }
            Ok(Envelope::Hello { peer, version })
        }
        KIND_RECORDS => codec::decode(body)
            .map(Envelope::Records)
            .map_err(WireError::Codec),
        KIND_DIGEST => codec::decode_digest(body)
            .map(|(sender, claim)| Envelope::Digest { sender, claim })
            .map_err(WireError::Codec),
        KIND_DELTA => codec::decode_delta(body)
            .map(Envelope::Delta)
            .map_err(WireError::Codec),
        KIND_BYE => {
            if body.is_empty() {
                Ok(Envelope::Bye)
            } else {
                Err(WireError::Truncated)
            }
        }
        KIND_BITFIELD => {
            if body.remaining() < 4 {
                return Err(WireError::Truncated);
            }
            let piece_count = body.get_u32_le();
            let want = (piece_count as usize).div_ceil(8);
            if body.remaining() != want {
                return Err(WireError::Truncated);
            }
            // trailing padding bits in the last byte must be zero, so
            // every bitfield has exactly one wire form
            let bits = body.to_vec();
            let spare = want * 8 - piece_count as usize;
            if spare > 0 {
                let last = bits[want - 1];
                if last >> (8 - spare) != 0 {
                    return Err(WireError::Truncated);
                }
            }
            Ok(Envelope::Swarm(SwarmFrame::Bitfield { piece_count, bits }))
        }
        KIND_HAVE | KIND_REQUEST | KIND_CANCEL => {
            if body.remaining() != 4 {
                return Err(WireError::Truncated);
            }
            let piece = body.get_u32_le();
            Ok(Envelope::Swarm(match kind {
                KIND_HAVE => SwarmFrame::Have { piece },
                KIND_REQUEST => SwarmFrame::Request { piece },
                _ => SwarmFrame::Cancel { piece },
            }))
        }
        KIND_PIECE => {
            if body.remaining() != 12 {
                return Err(WireError::Truncated);
            }
            let piece = body.get_u32_le();
            let size = body.get_u64_le();
            Ok(Envelope::Swarm(SwarmFrame::Piece { piece, size }))
        }
        KIND_CHOKE | KIND_UNCHOKE => {
            if !body.is_empty() {
                return Err(WireError::Truncated);
            }
            Ok(Envelope::Swarm(if kind == KIND_CHOKE {
                SwarmFrame::Choke
            } else {
                SwarmFrame::Unchoke
            }))
        }
        other => Err(WireError::BadKind(other)),
    }
}

/// Pack a presence predicate over `piece_count` pieces into the
/// LSB-first byte layout [`SwarmFrame::Bitfield`] carries.
pub fn pack_bits<F: FnMut(usize) -> bool>(piece_count: usize, mut has: F) -> Vec<u8> {
    let mut bits = vec![0u8; piece_count.div_ceil(8)];
    for i in 0..piece_count {
        if has(i) {
            bits[i / 8] |= 1 << (i % 8);
        }
    }
    bits
}

/// Whether bit `i` is set in a [`SwarmFrame::Bitfield`] byte layout.
pub fn bit_set(bits: &[u8], i: usize) -> bool {
    bits.get(i / 8).is_some_and(|b| b & (1 << (i % 8)) != 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bartercast_core::codec::FrameDecoder;
    use bartercast_core::TransferRecord;
    use bartercast_util::units::Bytes;

    fn sample_msg() -> BarterCastMessage {
        BarterCastMessage {
            sender: PeerId(7),
            records: vec![TransferRecord {
                peer: PeerId(9),
                up: Bytes(1024),
                down: Bytes(0),
            }],
        }
    }

    fn sample_delta() -> DeltaMsg {
        DeltaMsg {
            sender: PeerId(7),
            full: false,
            stamp: Frontier {
                count: 2,
                max_ts: bartercast_util::units::Seconds(99),
                checksum: 0x1234_5678_9ABC_DEF0,
            },
            records: sample_msg().records,
        }
    }

    #[test]
    fn all_kinds_roundtrip_through_the_frame_decoder() {
        let envs = [
            Envelope::Hello {
                peer: PeerId(42),
                version: NODE_PROTOCOL_VERSION,
            },
            Envelope::Records(sample_msg()),
            Envelope::Bye,
            Envelope::Digest {
                sender: PeerId(5),
                claim: Frontier::default(),
            },
            Envelope::Digest {
                sender: PeerId(5),
                claim: sample_delta().stamp,
            },
            Envelope::Delta(sample_delta()),
            Envelope::Swarm(SwarmFrame::Bitfield {
                piece_count: 10,
                bits: vec![0b1010_0101, 0b0000_0011],
            }),
            Envelope::Swarm(SwarmFrame::Have { piece: 7 }),
            Envelope::Swarm(SwarmFrame::Request { piece: 123_456 }),
            Envelope::Swarm(SwarmFrame::Piece {
                piece: 3,
                size: 262_144,
            }),
            Envelope::Swarm(SwarmFrame::Choke),
            Envelope::Swarm(SwarmFrame::Unchoke),
            Envelope::Swarm(SwarmFrame::Cancel { piece: 11 }),
        ];
        let mut dec = FrameDecoder::new();
        for env in &envs {
            dec.feed(&encode_envelope(env));
        }
        for env in &envs {
            let payload = dec.next_frame().unwrap().expect("one frame per envelope");
            assert_eq!(&decode_envelope(&payload).unwrap(), env);
        }
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn wrong_version_is_rejected_loudly() {
        let hello = Envelope::Hello {
            peer: PeerId(1),
            version: NODE_PROTOCOL_VERSION,
        };
        // payload layout after the 4-byte length prefix: kind, magic, version
        let mut frame = encode_envelope(&hello);
        frame[6] = NODE_PROTOCOL_VERSION + 1;
        assert_eq!(
            decode_envelope(&frame[4..]),
            Err(WireError::VersionMismatch(NODE_PROTOCOL_VERSION + 1))
        );
        // v2, the dialect before delta anti-entropy, is refused too
        let mut frame = encode_envelope(&hello);
        frame[6] = 2;
        assert_eq!(
            decode_envelope(&frame[4..]),
            Err(WireError::VersionMismatch(2))
        );
    }

    #[test]
    fn hostile_payloads_error_not_panic() {
        assert_eq!(decode_envelope(&[]), Err(WireError::BadKind(0)));
        assert_eq!(decode_envelope(&[99]), Err(WireError::BadKind(99)));
        assert_eq!(
            decode_envelope(&[KIND_HELLO, 0xBC]),
            Err(WireError::Truncated)
        );
        assert_eq!(
            decode_envelope(&[KIND_HELLO, 0x00, 1, 0, 0, 0, 0]),
            Err(WireError::BadHandshake)
        );
        assert_eq!(
            decode_envelope(&[KIND_HELLO, 0xBC, NODE_PROTOCOL_VERSION, 0, 0, 0, 0, 0xFF]),
            Err(WireError::BadHandshake)
        );
        assert_eq!(decode_envelope(&[KIND_BYE, 1]), Err(WireError::Truncated));
        assert!(matches!(
            decode_envelope(&[KIND_RECORDS, 1, 2, 3]),
            Err(WireError::Codec(_))
        ));
        // hostile digest/delta bodies surface as codec errors, never panics
        assert!(matches!(
            decode_envelope(&[KIND_DIGEST]),
            Err(WireError::Codec(_))
        ));
        assert!(matches!(
            decode_envelope(&[KIND_DIGEST, 0xFF, 0xFF, 0xFF]),
            Err(WireError::Codec(_))
        ));
        assert!(matches!(
            decode_envelope(&[KIND_DELTA, 1, 2]),
            Err(WireError::Codec(_))
        ));
        let mut truncated_delta = encode_envelope(&Envelope::Delta(sample_delta()))[4..].to_vec();
        truncated_delta.truncate(truncated_delta.len() - 3);
        assert!(matches!(
            decode_envelope(&truncated_delta),
            Err(WireError::Codec(_))
        ));
    }

    #[test]
    fn hostile_swarm_payloads_error_not_panic() {
        // bitfield body shorter than its own piece count claims
        assert_eq!(
            decode_envelope(&[KIND_BITFIELD, 16, 0, 0, 0, 0xFF]),
            Err(WireError::Truncated)
        );
        // huge piece count with no bytes must not allocate or panic
        assert_eq!(
            decode_envelope(&[KIND_BITFIELD, 0xFF, 0xFF, 0xFF, 0xFF]),
            Err(WireError::Truncated)
        );
        // non-zero padding bits past piece_count are rejected
        assert_eq!(
            decode_envelope(&[KIND_BITFIELD, 3, 0, 0, 0, 0b0000_1000]),
            Err(WireError::Truncated)
        );
        assert_eq!(
            decode_envelope(&[KIND_HAVE, 1, 2]),
            Err(WireError::Truncated)
        );
        assert_eq!(
            decode_envelope(&[KIND_REQUEST, 1, 2, 3, 4, 5]),
            Err(WireError::Truncated)
        );
        assert_eq!(
            decode_envelope(&[KIND_CANCEL, 1, 2]),
            Err(WireError::Truncated)
        );
        assert_eq!(
            decode_envelope(&[KIND_PIECE, 1, 2, 3, 4]),
            Err(WireError::Truncated)
        );
        assert_eq!(decode_envelope(&[KIND_CHOKE, 0]), Err(WireError::Truncated));
        assert_eq!(
            decode_envelope(&[KIND_UNCHOKE, 0]),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn bit_packing_helpers_roundtrip() {
        let have = [0usize, 3, 8, 12];
        let bits = pack_bits(13, |i| have.contains(&i));
        for i in 0..13 {
            assert_eq!(bit_set(&bits, i), have.contains(&i), "piece {i}");
        }
        // out-of-range queries are false, never a panic
        assert!(!bit_set(&bits, 200));
        // packed form decodes as a valid Bitfield frame
        let mut payload = vec![KIND_BITFIELD, 13, 0, 0, 0];
        payload.extend_from_slice(&bits);
        assert_eq!(
            decode_envelope(&payload).unwrap(),
            Envelope::Swarm(SwarmFrame::Bitfield {
                piece_count: 13,
                bits
            })
        );
    }
}
