//! Hand-rolled binary codec for log records, checkpoints, and queue payloads.
//!
//! The format is deliberately simple and self-contained: fixed-width
//! little-endian integers, length-prefixed byte strings, and a [`Encode`] /
//! [`Decode`] trait pair. Keeping the codec in-crate means the WAL format is
//! fully specified by this repository (no external serialization crate whose
//! format could drift) and lets recovery distinguish truncation from
//! corruption precisely.

use crate::error::{StorageError, StorageResult};

/// Types that can serialize themselves onto a byte buffer.
pub trait Encode {
    /// Append this value's encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Convenience: encode into a fresh buffer.
    fn encode_to_vec(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }
}

/// Types that can deserialize themselves from a [`Reader`].
pub trait Decode: Sized {
    /// Consume bytes from `r` and reconstruct the value.
    fn decode(r: &mut Reader<'_>) -> StorageResult<Self>;

    /// Convenience: decode from a complete buffer, requiring full consumption.
    fn decode_all(bytes: &[u8]) -> StorageResult<Self> {
        let mut r = Reader::new(bytes);
        let v = Self::decode(&mut r)?;
        if !r.is_empty() {
            return Err(StorageError::Decode(format!(
                "{} trailing bytes after decode",
                r.remaining()
            )));
        }
        Ok(v)
    }
}

/// A cursor over a byte slice with checked reads.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wrap a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when all bytes are consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> StorageResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(StorageError::Decode(format!(
                "need {n} bytes, only {} remain",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a single byte.
    pub fn u8(&mut self) -> StorageResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian u16.
    pub fn u16(&mut self) -> StorageResult<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Read a little-endian u32.
    pub fn u32(&mut self) -> StorageResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian u64.
    pub fn u64(&mut self) -> StorageResult<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a little-endian i64.
    pub fn i64(&mut self) -> StorageResult<i64> {
        Ok(self.u64()? as i64)
    }

    /// Read a bool encoded as one byte (0 or 1).
    pub fn bool(&mut self) -> StorageResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(StorageError::Decode(format!("invalid bool byte {b}"))),
        }
    }

    /// Read a u32-length-prefixed byte string.
    pub fn bytes(&mut self) -> StorageResult<Vec<u8>> {
        Ok(self.bytes_ref()?.to_vec())
    }

    /// Read a u32-length-prefixed byte string without copying it out of the
    /// underlying buffer.
    pub fn bytes_ref(&mut self) -> StorageResult<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Read a u32-length-prefixed UTF-8 string.
    pub fn string(&mut self) -> StorageResult<String> {
        let raw = self.bytes()?;
        String::from_utf8(raw).map_err(|e| StorageError::Decode(format!("invalid utf8: {e}")))
    }
}

/// Append helpers mirroring [`Reader`].
pub mod put {
    /// Append a u8.
    pub fn u8(buf: &mut Vec<u8>, v: u8) {
        buf.push(v);
    }
    /// Append a little-endian u16.
    pub fn u16(buf: &mut Vec<u8>, v: u16) {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Append a little-endian u32.
    pub fn u32(buf: &mut Vec<u8>, v: u32) {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Append a little-endian u64.
    pub fn u64(buf: &mut Vec<u8>, v: u64) {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Append a little-endian i64.
    pub fn i64(buf: &mut Vec<u8>, v: i64) {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Append a bool as one byte.
    pub fn bool(buf: &mut Vec<u8>, v: bool) {
        buf.push(v as u8);
    }
    /// Append a u32-length-prefixed byte string.
    pub fn bytes(buf: &mut Vec<u8>, v: &[u8]) {
        u32(buf, v.len() as u32);
        buf.extend_from_slice(v);
    }
    /// Append a u32-length-prefixed UTF-8 string.
    pub fn string(buf: &mut Vec<u8>, v: &str) {
        bytes(buf, v.as_bytes());
    }
}

impl Encode for Vec<u8> {
    fn encode(&self, buf: &mut Vec<u8>) {
        put::bytes(buf, self);
    }
}

impl Decode for Vec<u8> {
    fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
        r.bytes()
    }
}

impl Encode for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        put::string(buf, self);
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
        r.string()
    }
}

impl Encode for u64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        put::u64(buf, *self);
    }
}

impl Decode for u64 {
    fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
        r.u64()
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => put::u8(buf, 0),
            Some(v) => {
                put::u8(buf, 1);
                v.encode(buf);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            b => Err(StorageError::Decode(format!("invalid option tag {b}"))),
        }
    }
}

impl<T: Encode> Encode for Vec<T>
where
    T: Encode,
{
    fn encode(&self, buf: &mut Vec<u8>) {
        put::u32(buf, self.len() as u32);
        for item in self {
            item.encode(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ints_roundtrip() {
        let mut buf = Vec::new();
        put::u8(&mut buf, 0xAB);
        put::u16(&mut buf, 0xBEEF);
        put::u32(&mut buf, 0xDEAD_BEEF);
        put::u64(&mut buf, u64::MAX - 1);
        put::i64(&mut buf, -42);
        put::bool(&mut buf, true);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.i64().unwrap(), -42);
        assert!(r.bool().unwrap());
        assert!(r.is_empty());
    }

    #[test]
    fn bytes_and_strings_roundtrip() {
        let mut buf = Vec::new();
        put::bytes(&mut buf, b"payload");
        put::string(&mut buf, "queue/req");
        let mut r = Reader::new(&buf);
        assert_eq!(r.bytes().unwrap(), b"payload");
        assert_eq!(r.string().unwrap(), "queue/req");
    }

    #[test]
    fn truncated_read_is_decode_error() {
        let buf = vec![1, 2];
        let mut r = Reader::new(&buf);
        assert!(matches!(r.u32(), Err(StorageError::Decode(_))));
    }

    #[test]
    fn bogus_bool_and_option_tags_rejected() {
        let mut r = Reader::new(&[7]);
        assert!(r.bool().is_err());
        let mut r = Reader::new(&[9]);
        assert!(Option::<u64>::decode(&mut r).is_err());
    }

    #[test]
    fn option_roundtrip() {
        let some: Option<u64> = Some(99);
        let none: Option<u64> = None;
        let mut buf = Vec::new();
        some.encode(&mut buf);
        none.encode(&mut buf);
        let mut r = Reader::new(&buf);
        assert_eq!(Option::<u64>::decode(&mut r).unwrap(), Some(99));
        assert_eq!(Option::<u64>::decode(&mut r).unwrap(), None);
    }

    #[test]
    fn decode_all_rejects_trailing_garbage() {
        let mut buf = Vec::new();
        put::u64(&mut buf, 5);
        buf.push(0xFF);
        assert!(u64::decode_all(&buf).is_err());
    }

    #[test]
    fn invalid_utf8_is_error() {
        let mut buf = Vec::new();
        put::bytes(&mut buf, &[0xFF, 0xFE]);
        let mut r = Reader::new(&buf);
        assert!(r.string().is_err());
    }
}
