//! The versioned, checksummed frame codec of the remote transport.
//!
//! A frame is the unit the TCP backend moves between rank processes: a fixed 32-byte little-endian header, a length-prefixed
//! payload, and an FNV-1a trailer over everything before it (the same hash
//! family `hpl-trace` and `hpl-ckpt` use, so corruption anywhere in the
//! stack is caught by the same arithmetic).
//!
//! ```text
//! offset  size  field
//!      0     4  magic  0x52485046 ("RHPF")
//!      4     2  version (currently 1)
//!      6     1  kind    (0 = Data, 1 = Death, 2 = Goodbye)
//!      7     1  reserved (must be 0)
//!      8     4  src     (sending world rank)
//!     12     4  dst     (receiving world rank)
//!     16     8  tag     (raw `Tag` value, context bits folded in)
//!     24     4  wire_id (payload schema id, see `wire`)
//!     28     4  payload_len
//!     32     n  payload
//!   32+n     8  checksum (FNV-1a 64 over bytes [0, 32+n))
//! ```
//!
//! Decoding is stream-oriented: [`Frame::total_len`] sizes a frame from its
//! header alone so a reader can wait for exactly the bytes it needs, and
//! [`Frame::decode_tolerant`] separates *framing* damage (unrecoverable —
//! the link is torn down) from *payload* damage (recoverable — the frame is
//! delivered marked corrupt, and the typed receive surfaces
//! [`crate::error::CommError::Corrupt`] instead of hanging).

/// Frame magic: "RHPF" little-endian.
pub const MAGIC: u32 = 0x5248_5046;

/// Codec version; bumped on any layout change.
pub const VERSION: u16 = 1;

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 32;

/// Trailer (checksum) size in bytes.
pub const TRAILER_LEN: usize = 8;

/// Sanity bound on payloads (1 GiB): anything larger is framing damage,
/// not a plausible panel.
pub const MAX_PAYLOAD: u32 = 1 << 30;

/// What a frame carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// A mailbox-bound message (data plane or reserved-tag control plane).
    Data,
    /// A rank died: `tag` holds the dead world rank, the payload its phase.
    Death,
    /// Clean link shutdown; EOF after this is not a failure.
    Goodbye,
}

impl FrameKind {
    fn to_u8(self) -> u8 {
        match self {
            FrameKind::Data => 0,
            FrameKind::Death => 1,
            FrameKind::Goodbye => 2,
        }
    }

    fn from_u8(b: u8) -> Option<FrameKind> {
        match b {
            0 => Some(FrameKind::Data),
            1 => Some(FrameKind::Death),
            2 => Some(FrameKind::Goodbye),
            _ => None,
        }
    }
}

/// A decoded (or to-be-encoded) frame.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    /// What the frame carries.
    pub kind: FrameKind,
    /// Sending world rank.
    pub src: u32,
    /// Receiving world rank.
    pub dst: u32,
    /// Raw tag value (context bits folded in by the communicator).
    pub tag: u64,
    /// Payload schema id (see [`crate::transport::wire`]).
    pub wire_id: u32,
    /// Encoded payload bytes.
    pub payload: Vec<u8>,
}

/// Why a byte sequence is not a valid frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Not enough bytes yet; `need` is the total the frame requires.
    Truncated {
        /// Bytes the complete frame occupies (0 when even the header is
        /// incomplete and the true length is unknown).
        need: usize,
        /// Bytes available.
        have: usize,
    },
    /// The first four bytes are not the frame magic.
    BadMagic(u32),
    /// Unknown codec version.
    BadVersion(u16),
    /// Unknown frame kind byte.
    BadKind(u8),
    /// Payload length over [`MAX_PAYLOAD`] — framing damage.
    TooLarge(u32),
    /// The trailer does not match the frame bytes.
    Checksum {
        /// Checksum recomputed over the received bytes.
        expected: u64,
        /// Checksum carried in the trailer.
        got: u64,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { need, have } => {
                write!(f, "truncated frame: have {have} bytes, need {need}")
            }
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            FrameError::BadVersion(v) => write!(f, "unsupported frame version {v}"),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::TooLarge(n) => write!(f, "frame payload of {n} bytes over limit"),
            FrameError::Checksum { expected, got } => {
                write!(
                    f,
                    "frame checksum mismatch: computed {expected:#x}, frame says {got:#x}"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// FNV-1a 64 over `bytes` (the ckpt/trace hash family).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u16(b: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([b[at], b[at + 1]])
}

fn get_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

fn get_u64(b: &[u8], at: usize) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[at..at + 8]);
    u64::from_le_bytes(a)
}

impl Frame {
    /// Encodes the frame (header + payload + checksum trailer).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len() + TRAILER_LEN);
        put_u32(&mut out, MAGIC);
        put_u16(&mut out, VERSION);
        out.push(self.kind.to_u8());
        out.push(0); // reserved
        put_u32(&mut out, self.src);
        put_u32(&mut out, self.dst);
        put_u64(&mut out, self.tag);
        put_u32(&mut out, self.wire_id);
        put_u32(&mut out, self.payload.len() as u32);
        out.extend_from_slice(&self.payload);
        let sum = fnv1a(&out);
        put_u64(&mut out, sum);
        out
    }

    /// Total frame size implied by a (possibly partial) buffer: validates
    /// the fixed header fields and returns `HEADER_LEN + payload_len +
    /// TRAILER_LEN`. `Truncated { need: 0 }` means the header itself is
    /// still incomplete.
    pub fn total_len(buf: &[u8]) -> Result<usize, FrameError> {
        if buf.len() < HEADER_LEN {
            return Err(FrameError::Truncated {
                need: 0,
                have: buf.len(),
            });
        }
        let magic = get_u32(buf, 0);
        if magic != MAGIC {
            return Err(FrameError::BadMagic(magic));
        }
        let version = get_u16(buf, 4);
        if version != VERSION {
            return Err(FrameError::BadVersion(version));
        }
        if FrameKind::from_u8(buf[6]).is_none() {
            return Err(FrameError::BadKind(buf[6]));
        }
        let payload_len = get_u32(buf, 28);
        if payload_len > MAX_PAYLOAD {
            return Err(FrameError::TooLarge(payload_len));
        }
        Ok(HEADER_LEN + payload_len as usize + TRAILER_LEN)
    }

    /// Strict decode: any damage — framing or checksum — is an error.
    /// Returns the frame and the bytes consumed.
    pub fn decode(buf: &[u8]) -> Result<(Frame, usize), FrameError> {
        let (frame, used, sum_ok) = Self::decode_tolerant(buf)?;
        if !sum_ok {
            // Recompute for the diagnostic (decode_tolerant discards it).
            let body = &buf[..used - TRAILER_LEN];
            return Err(FrameError::Checksum {
                expected: fnv1a(body),
                got: get_u64(buf, used - TRAILER_LEN),
            });
        }
        Ok((frame, used))
    }

    /// Tolerant decode: framing damage (bad magic/version/kind, oversized
    /// or truncated) is still an error, but a checksum mismatch over an
    /// intact header comes back as `sum_ok == false` with the frame — the
    /// receiver can deliver it marked corrupt so the typed receive fails
    /// with a payload error instead of tearing down the link.
    pub fn decode_tolerant(buf: &[u8]) -> Result<(Frame, usize, bool), FrameError> {
        let total = Self::total_len(buf)?;
        if buf.len() < total {
            return Err(FrameError::Truncated {
                need: total,
                have: buf.len(),
            });
        }
        let kind = FrameKind::from_u8(buf[6]).expect("validated by total_len");
        let payload_len = total - HEADER_LEN - TRAILER_LEN;
        let payload = buf[HEADER_LEN..HEADER_LEN + payload_len].to_vec();
        let frame = Frame {
            kind,
            src: get_u32(buf, 8),
            dst: get_u32(buf, 12),
            tag: get_u64(buf, 16),
            wire_id: get_u32(buf, 24),
            payload,
        };
        let sum_ok = fnv1a(&buf[..total - TRAILER_LEN]) == get_u64(buf, total - TRAILER_LEN);
        Ok((frame, total, sum_ok))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(payload: Vec<u8>) -> Frame {
        Frame {
            kind: FrameKind::Data,
            src: 3,
            dst: 1,
            tag: (1u64 << 48) + 7,
            wire_id: 42,
            payload,
        }
    }

    #[test]
    fn round_trip_empty_and_bulk() {
        for payload in [
            vec![],
            vec![0xAB; 1],
            (0..=255u8).cycle().take(9000).collect(),
        ] {
            let f = sample(payload);
            let bytes = f.encode();
            let (back, used) = Frame::decode(&bytes).expect("decodes");
            assert_eq!(used, bytes.len());
            assert_eq!(back, f);
        }
    }

    #[test]
    fn truncated_header_and_body_are_rejected() {
        let bytes = sample(vec![1, 2, 3, 4]).encode();
        for cut in [0, 1, HEADER_LEN - 1] {
            assert_eq!(
                Frame::total_len(&bytes[..cut]),
                Err(FrameError::Truncated { need: 0, have: cut })
            );
        }
        for cut in [HEADER_LEN, bytes.len() - 1] {
            match Frame::decode(&bytes[..cut]) {
                Err(FrameError::Truncated { need, have }) => {
                    assert_eq!(need, bytes.len());
                    assert_eq!(have, cut);
                }
                other => panic!("expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn bad_magic_version_kind_are_framing_errors() {
        let mut bytes = sample(vec![9]).encode();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            Frame::decode(&bytes),
            Err(FrameError::BadMagic(_))
        ));
        let mut bytes = sample(vec![9]).encode();
        bytes[4] = 0x7F;
        assert!(matches!(
            Frame::decode(&bytes),
            Err(FrameError::BadVersion(_))
        ));
        let mut bytes = sample(vec![9]).encode();
        bytes[6] = 200;
        assert!(matches!(
            Frame::decode(&bytes),
            Err(FrameError::BadKind(200))
        ));
    }

    #[test]
    fn payload_corruption_fails_strict_but_survives_tolerant() {
        let f = sample(vec![5; 64]);
        let mut bytes = f.encode();
        bytes[HEADER_LEN + 10] ^= 0x40;
        assert!(matches!(
            Frame::decode(&bytes),
            Err(FrameError::Checksum { .. })
        ));
        let (back, used, sum_ok) = Frame::decode_tolerant(&bytes).expect("header intact");
        assert!(!sum_ok);
        assert_eq!(used, bytes.len());
        assert_eq!(back.wire_id, f.wire_id);
    }

    #[test]
    fn oversized_payload_is_framing_damage() {
        let mut bytes = sample(vec![0; 8]).encode();
        bytes[28..32].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert_eq!(
            Frame::total_len(&bytes),
            Err(FrameError::TooLarge(MAX_PAYLOAD + 1))
        );
    }
}
