//! Bitcoin-style wire encoding: little-endian integers and compact-size
//! varints.
//!
//! Transactions and blocks are serialized with this format so that byte
//! sizes — and therefore fee *rates*, the quantity every ordering norm in the
//! paper ranks by — behave like the real network's.

use crate::hash::Hash256;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

/// Error returned when decoding malformed bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before the value was complete.
    UnexpectedEnd,
    /// A compact-size used a longer encoding than necessary.
    NonCanonicalCompactSize,
    /// A length prefix exceeded the sanity limit.
    OversizedLength(u64),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEnd => write!(f, "unexpected end of input"),
            DecodeError::NonCanonicalCompactSize => write!(f, "non-canonical compact size"),
            DecodeError::OversizedLength(n) => write!(f, "length {n} exceeds sanity limit"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Sanity cap on decoded collection lengths (prevents allocation bombs).
pub const MAX_DECODE_LEN: u64 = 8_000_000;

/// Types that can be serialized to the wire format.
pub trait Encodable {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);

    /// Serializes to a standalone byte buffer.
    fn encode_to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::new();
        self.encode(&mut buf);
        buf.freeze()
    }

    /// The encoded length in bytes.
    fn encoded_len(&self) -> usize {
        let mut buf = BytesMut::new();
        self.encode(&mut buf);
        buf.len()
    }
}

/// Types that can be deserialized from the wire format.
pub trait Decodable: Sized {
    /// Consumes bytes from `buf` and reconstructs the value.
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError>;

    /// Decodes from a byte slice, requiring that all input is consumed.
    fn decode_all(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut b = Bytes::copy_from_slice(bytes);
        let v = Self::decode(&mut b)?;
        if b.has_remaining() {
            return Err(DecodeError::UnexpectedEnd);
        }
        Ok(v)
    }
}

/// Writes a Bitcoin compact-size varint.
pub fn write_compact_size(buf: &mut BytesMut, n: u64) {
    match n {
        0..=0xfc => buf.put_u8(n as u8),
        0xfd..=0xffff => {
            buf.put_u8(0xfd);
            buf.put_u16_le(n as u16);
        }
        0x1_0000..=0xffff_ffff => {
            buf.put_u8(0xfe);
            buf.put_u32_le(n as u32);
        }
        _ => {
            buf.put_u8(0xff);
            buf.put_u64_le(n);
        }
    }
}

/// Reads a Bitcoin compact-size varint, enforcing canonical (minimal) form.
pub fn read_compact_size(buf: &mut Bytes) -> Result<u64, DecodeError> {
    if !buf.has_remaining() {
        return Err(DecodeError::UnexpectedEnd);
    }
    let tag = buf.get_u8();
    let value = match tag {
        0xfd => {
            ensure_remaining(buf, 2)?;
            let v = buf.get_u16_le() as u64;
            if v < 0xfd {
                return Err(DecodeError::NonCanonicalCompactSize);
            }
            v
        }
        0xfe => {
            ensure_remaining(buf, 4)?;
            let v = buf.get_u32_le() as u64;
            if v <= 0xffff {
                return Err(DecodeError::NonCanonicalCompactSize);
            }
            v
        }
        0xff => {
            ensure_remaining(buf, 8)?;
            let v = buf.get_u64_le();
            if v <= 0xffff_ffff {
                return Err(DecodeError::NonCanonicalCompactSize);
            }
            v
        }
        n => n as u64,
    };
    Ok(value)
}

/// Number of bytes `write_compact_size` will emit for `n`.
pub const fn compact_size_len(n: u64) -> usize {
    match n {
        0..=0xfc => 1,
        0xfd..=0xffff => 3,
        0x1_0000..=0xffff_ffff => 5,
        _ => 9,
    }
}

/// Reads a length prefix and that many raw bytes.
pub fn read_var_bytes(buf: &mut Bytes) -> Result<Vec<u8>, DecodeError> {
    let len = read_compact_size(buf)?;
    if len > MAX_DECODE_LEN {
        return Err(DecodeError::OversizedLength(len));
    }
    ensure_remaining(buf, len as usize)?;
    let mut out = vec![0u8; len as usize];
    buf.copy_to_slice(&mut out);
    Ok(out)
}

/// Writes a length-prefixed byte string.
pub fn write_var_bytes(buf: &mut BytesMut, bytes: &[u8]) {
    write_compact_size(buf, bytes.len() as u64);
    buf.put_slice(bytes);
}

/// Fails with `UnexpectedEnd` unless at least `n` bytes remain.
pub fn ensure_remaining(buf: &Bytes, n: usize) -> Result<(), DecodeError> {
    if buf.remaining() < n {
        Err(DecodeError::UnexpectedEnd)
    } else {
        Ok(())
    }
}

impl Encodable for Hash256 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_slice(&self.0);
    }

    fn encoded_len(&self) -> usize {
        32
    }
}

impl Decodable for Hash256 {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        ensure_remaining(buf, 32)?;
        let mut out = [0u8; 32];
        buf.copy_to_slice(&mut out);
        Ok(Hash256(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(n: u64) -> u64 {
        let mut buf = BytesMut::new();
        write_compact_size(&mut buf, n);
        assert_eq!(buf.len(), compact_size_len(n));
        let mut bytes = buf.freeze();
        let v = read_compact_size(&mut bytes).expect("round trip");
        assert!(!bytes.has_remaining());
        v
    }

    #[test]
    fn compact_size_round_trips_at_boundaries() {
        for n in [0, 1, 0xfc, 0xfd, 0xffff, 0x1_0000, 0xffff_ffff, 0x1_0000_0000, u64::MAX] {
            assert_eq!(round_trip(n), n);
        }
    }

    #[test]
    fn non_canonical_rejected() {
        // 0xfd with a payload < 0xfd must be rejected.
        let mut bytes = Bytes::from_static(&[0xfd, 0x01, 0x00]);
        assert_eq!(read_compact_size(&mut bytes), Err(DecodeError::NonCanonicalCompactSize));
        let mut bytes = Bytes::from_static(&[0xfe, 0xff, 0xff, 0x00, 0x00]);
        assert_eq!(read_compact_size(&mut bytes), Err(DecodeError::NonCanonicalCompactSize));
        let mut bytes = Bytes::from_static(&[0xff, 0, 0, 0, 0xff, 0, 0, 0, 0]);
        assert_eq!(read_compact_size(&mut bytes), Err(DecodeError::NonCanonicalCompactSize));
    }

    #[test]
    fn truncated_input_fails_cleanly() {
        let mut bytes = Bytes::from_static(&[0xfd, 0x01]);
        assert_eq!(read_compact_size(&mut bytes), Err(DecodeError::UnexpectedEnd));
        let mut empty = Bytes::new();
        assert_eq!(read_compact_size(&mut empty), Err(DecodeError::UnexpectedEnd));
    }

    #[test]
    fn var_bytes_round_trip() {
        let payload = b"arbitrary payload".to_vec();
        let mut buf = BytesMut::new();
        write_var_bytes(&mut buf, &payload);
        let mut bytes = buf.freeze();
        assert_eq!(read_var_bytes(&mut bytes).expect("ok"), payload);
    }

    #[test]
    fn var_bytes_rejects_oversized_claim() {
        let mut buf = BytesMut::new();
        write_compact_size(&mut buf, MAX_DECODE_LEN + 1);
        let mut bytes = buf.freeze();
        assert!(matches!(read_var_bytes(&mut bytes), Err(DecodeError::OversizedLength(_))));
    }

    #[test]
    fn hash_round_trip() {
        let h = crate::hash::sha256(b"x");
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), 32);
        let decoded = Hash256::decode_all(&buf).expect("ok");
        assert_eq!(decoded, h);
    }
}
