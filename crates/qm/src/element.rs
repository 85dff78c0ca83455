//! Queue elements and their identifiers.

use rrq_storage::codec::{len, put, Decode, Encode, Reader};
use rrq_storage::{StorageError, StorageResult};
use std::fmt;

/// A system-wide unique element identifier (§4.1).
///
/// Layout: the high bits carry the repository *epoch* (bumped on every open,
/// so ids never repeat across restarts) and the low 40 bits a per-epoch
/// counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Eid(pub u64);

impl Eid {
    /// Compose from an epoch and a counter.
    pub fn compose(epoch: u64, counter: u64) -> Self {
        debug_assert!(counter < (1 << 40), "per-epoch counter overflow");
        Eid((epoch << 40) | counter)
    }

    /// Raw value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Eid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "eid:{:x}", self.0)
    }
}

/// Scheduling priority; higher dequeues first (§10 mentions priority-based
/// dequeue in DECintact). Default 0.
pub type Priority = u8;

/// A queue element: the uninterpreted record the QM stores (§1: elements
/// "are usually uninterpreted by the QM"), plus the metadata the QM itself
/// maintains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Element {
    /// Unique identifier.
    pub eid: Eid,
    /// Scheduling priority (higher first).
    pub priority: Priority,
    /// Monotonic arrival sequence (FIFO tiebreak within a priority).
    pub seq: u64,
    /// Times a dequeue of this element has been aborted.
    pub abort_count: u32,
    /// Abort code of the most recent aborting dequeuer (0 = none) —
    /// "the element is marked with an abort code" (§4.2).
    pub abort_code: u32,
    /// Named attributes for content-based retrieval (§1, §10).
    pub attrs: Vec<(String, String)>,
    /// The payload.
    pub payload: Vec<u8>,
}

impl Element {
    /// Look up an attribute value.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// An element's payload as `Enqueue` takes it: bytes, or a value whose
/// encoding *is* the payload, encoded straight into the stored element.
#[derive(Clone, Copy)]
pub enum Payload<'a> {
    /// These bytes.
    Bytes(&'a [u8]),
    /// This value's encoding.
    Encoded(&'a dyn Encode),
}

impl Payload<'_> {
    fn len(&self) -> usize {
        match self {
            Payload::Bytes(b) => b.len(),
            Payload::Encoded(v) => v.encoded_len(),
        }
    }
}

impl<'a, T: AsRef<[u8]> + ?Sized> From<&'a T> for Payload<'a> {
    fn from(b: &'a T) -> Self {
        Payload::Bytes(b.as_ref())
    }
}

/// An [`Element`] with attributes and payload borrowed. It encodes exactly
/// as the owned element does, so `Enqueue` can write the caller's payload
/// into the stored record without first copying it into an `Element`.
#[derive(Clone, Copy)]
pub struct ElementRef<'a> {
    /// Unique identifier.
    pub eid: Eid,
    /// Scheduling priority (higher first).
    pub priority: Priority,
    /// Monotonic arrival sequence.
    pub seq: u64,
    /// Times a dequeue of this element has been aborted.
    pub abort_count: u32,
    /// Abort code of the most recent aborting dequeuer (0 = none).
    pub abort_code: u32,
    /// Named attributes.
    pub attrs: &'a [(String, String)],
    /// The payload.
    pub payload: Payload<'a>,
}

impl Element {
    /// Borrow as an [`ElementRef`].
    pub fn view(&self) -> ElementRef<'_> {
        ElementRef {
            eid: self.eid,
            priority: self.priority,
            seq: self.seq,
            abort_count: self.abort_count,
            abort_code: self.abort_code,
            attrs: &self.attrs,
            payload: Payload::Bytes(&self.payload),
        }
    }
}

impl Encode for ElementRef<'_> {
    fn encode(&self, buf: &mut Vec<u8>) {
        put::u64(buf, self.eid.raw());
        put::u8(buf, self.priority);
        put::u64(buf, self.seq);
        put::u32(buf, self.abort_count);
        put::u32(buf, self.abort_code);
        put::u32(buf, self.attrs.len() as u32);
        for (n, v) in self.attrs {
            put::string(buf, n);
            put::string(buf, v);
        }
        match self.payload {
            Payload::Bytes(b) => put::bytes(buf, b),
            Payload::Encoded(v) => {
                put::u32(buf, v.encoded_len() as u32);
                v.encode(buf);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        let attr = |(n, v): &(String, String)| len::bytes(n.len()) + len::bytes(v.len());
        let attrs: usize = self.attrs.iter().map(attr).sum();
        // Eid, priority, seq, abort count and code, attribute count.
        8 + 1 + 8 + 4 + 4 + 4 + attrs + len::bytes(self.payload.len())
    }
}

impl Encode for Element {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.view().encode(buf);
    }

    fn encoded_len(&self) -> usize {
        self.view().encoded_len()
    }
}

/// Attribute counts past this are corruption, not data.
const MAX_ATTRS: usize = 1 << 20;

fn attr_count(r: &mut Reader<'_>) -> StorageResult<usize> {
    let n = r.u32()? as usize;
    if n > MAX_ATTRS {
        return Err(StorageError::Decode(format!(
            "implausible attribute count {n}"
        )));
    }
    Ok(n)
}

impl Element {
    /// The eid of the encoded element `raw`, if [`Element::decode_all`]
    /// accepts it — `Err` for exactly the inputs it refuses. The whole
    /// encoding is walked in place, attribute strings checked as UTF-8 and
    /// nothing allocated, so the recovery rebuild of the ready index pays
    /// for no element it only needs the eid of.
    pub fn checked_eid(raw: &[u8]) -> StorageResult<Eid> {
        let mut r = Reader::new(raw);
        let eid = Eid(r.u64()?);
        r.u8()?; // priority
        r.u64()?; // seq
        r.u32()?; // abort count
        r.u32()?; // abort code
        for _ in 0..attr_count(&mut r)? * 2 {
            std::str::from_utf8(r.bytes_ref()?)
                .map_err(|e| StorageError::Decode(format!("invalid utf8: {e}")))?;
        }
        r.bytes_ref()?; // payload
        r.finish()?;
        Ok(eid)
    }
}

impl Decode for Element {
    fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
        let eid = Eid(r.u64()?);
        let priority = r.u8()?;
        let seq = r.u64()?;
        let abort_count = r.u32()?;
        let abort_code = r.u32()?;
        let n_attrs = attr_count(r)?;
        let mut attrs = Vec::with_capacity(n_attrs);
        for _ in 0..n_attrs {
            attrs.push((r.string()?, r.string()?));
        }
        let payload = r.bytes()?;
        Ok(Element {
            eid,
            priority,
            seq,
            abort_count,
            abort_code,
            attrs,
            payload,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Element {
        Element {
            eid: Eid::compose(3, 77),
            priority: 5,
            seq: 1234,
            abort_count: 2,
            abort_code: 9,
            attrs: vec![
                ("rid".into(), "client-1/42".into()),
                ("kind".into(), "transfer".into()),
            ],
            payload: b"debit:100".to_vec(),
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let e = sample();
        let buf = e.encode_to_vec();
        let d = Element::decode_all(&buf).unwrap();
        assert_eq!(d, e);
    }

    #[test]
    fn eid_compose_orders_by_epoch_then_counter() {
        assert!(Eid::compose(1, 999).raw() < Eid::compose(2, 0).raw());
        assert!(Eid::compose(2, 0) < Eid::compose(2, 1));
    }

    #[test]
    fn attr_lookup() {
        let e = sample();
        assert_eq!(e.attr("kind"), Some("transfer"));
        assert_eq!(e.attr("missing"), None);
    }

    #[test]
    fn decode_rejects_corrupt_attr_count() {
        let e = sample();
        let mut buf = e.encode_to_vec();
        // attrs count sits after eid(8)+prio(1)+seq(8)+ac(4)+code(4) = 25.
        buf[25] = 0xFF;
        buf[26] = 0xFF;
        buf[27] = 0xFF;
        buf[28] = 0x7F;
        assert!(Element::decode_all(&buf).is_err());
    }

    #[test]
    fn display_eid() {
        assert_eq!(Eid(0xFF).to_string(), "eid:ff");
    }
}
