//! Persistent registration with operation tags — §4.3, the paper's
//! claimed-novel queue-manager feature.
//!
//! A registration associates an authenticated registrant with a queue and
//! survives registrant failures: "the failure of a registrant does not
//! implicitly deregister it". For a registrant that asked for stability, the
//! QM keeps a durable copy of the **tag**, **eid**, **operation type**, and
//! **element contents** of the registrant's most recent tagged operation,
//! updated *in the same transaction* as the operation itself. The record
//! holds the first three; the contents are the element itself, found by
//! `Read(eid)`: live in its queue after a tagged Enqueue, and after a tagged
//! Dequeue *retained* under the registration's name — a row this record owns
//! until the registrant's next tagged operation, its `Deregister`, or the
//! queue's destruction deletes it ([`Registration::retained`]).
//! Re-registering after a failure returns the record — this is the whole
//! basis of the client's connect-time resynchronization (Fig 2): the tag
//! carries the clerk's rid/ckpt state, so the QM performs the client's
//! checkpoint for free (§2).

use crate::element::Eid;
use rrq_storage::codec::{len, put, Decode, Encode, Reader};
use rrq_storage::{StorageError, StorageResult};

/// Which operation the stable record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LastOp {
    /// No tagged operation has run yet.
    None,
    /// Last tagged operation was an Enqueue.
    Enqueue,
    /// Last tagged operation was a Dequeue.
    Dequeue,
}

impl LastOp {
    fn to_byte(self) -> u8 {
        match self {
            LastOp::None => 0,
            LastOp::Enqueue => 1,
            LastOp::Dequeue => 2,
        }
    }

    fn from_byte(b: u8) -> StorageResult<Self> {
        match b {
            0 => Ok(LastOp::None),
            1 => Ok(LastOp::Enqueue),
            2 => Ok(LastOp::Dequeue),
            b => Err(StorageError::Decode(format!("bad last-op byte {b}"))),
        }
    }
}

/// The durable registration record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Registration {
    /// Registrant name (unique, authenticated by the caller).
    pub registrant: String,
    /// The queue this registration binds to.
    pub queue: String,
    /// Maintain the last-operation record? (`stable-flag` of Fig 3.)
    pub stable: bool,
    /// Type of the most recent tagged operation.
    pub last_op: LastOp,
    /// Tag supplied with that operation.
    pub tag: Option<Vec<u8>>,
    /// Eid of the element operated on.
    pub eid: Option<Eid>,
}

/// What a tagged operation makes of an encoded registration
/// ([`Registration::recorded`]).
#[derive(Debug, PartialEq, Eq)]
pub struct Recorded {
    /// The record's new encoding.
    pub raw: Vec<u8>,
    /// The retained element the superseded record owned.
    pub retired: Option<Eid>,
}

impl Registration {
    /// Fresh registration with no history.
    pub fn new(registrant: impl Into<String>, queue: impl Into<String>, stable: bool) -> Self {
        Registration {
            registrant: registrant.into(),
            queue: queue.into(),
            stable,
            last_op: LastOp::None,
            tag: None,
            eid: None,
        }
    }

    /// Record a tagged operation (only kept when `stable`).
    pub fn record(&mut self, op: LastOp, tag: Option<&[u8]>, eid: Eid) {
        if !self.stable {
            return;
        }
        self.last_op = op;
        self.tag = tag.map(|t| t.to_vec());
        self.eid = Some(eid);
    }

    /// The retained (`d/<eid>`) element this record owns: the one its last
    /// tagged operation dequeued.
    pub fn retained(&self) -> Option<Eid> {
        match self.last_op {
            LastOp::Dequeue if self.stable => self.eid,
            _ => None,
        }
    }

    /// The encoding `raw` (an encoded registration) takes once a tagged
    /// operation is recorded in it, with the retained element the old record
    /// owned, or `None` when the registration does not keep a stable record.
    /// Equal to decode → [`Registration::retained`] → [`Registration::record`]
    /// → encode, but the superseded tag is never copied and the new one is
    /// written straight from the caller's slice: this runs inside every
    /// tagged enqueue and dequeue.
    pub fn recorded(
        raw: &[u8],
        op: LastOp,
        tag: Option<&[u8]>,
        eid: Eid,
    ) -> StorageResult<Option<Recorded>> {
        let mut r = Reader::new(raw);
        r.bytes_ref()?; // registrant
        r.bytes_ref()?; // queue
        if !r.bool()? {
            return Ok(None);
        }
        let head = &raw[..raw.len() - r.remaining()];
        let was = LastOp::from_byte(r.u8()?)?;
        if r.u8()? != 0 {
            r.bytes_ref()?; // tag
        }
        let retired = match (decode_eid(&mut r)?, was) {
            (Some(eid), LastOp::Dequeue) => Some(eid),
            _ => None,
        };
        let mut buf = Vec::with_capacity(head.len() + last_op_len(tag, Some(eid)));
        buf.extend_from_slice(head);
        encode_last_op(&mut buf, op, tag, Some(eid));
        Ok(Some(Recorded { raw: buf, retired }))
    }
}

/// The record's tail — everything a tagged operation replaces. The head
/// (registrant, queue, stable flag) never changes after `Register`.
fn encode_last_op(buf: &mut Vec<u8>, last_op: LastOp, tag: Option<&[u8]>, eid: Option<Eid>) {
    put::u8(buf, last_op.to_byte());
    match tag {
        None => put::u8(buf, 0),
        Some(b) => {
            put::u8(buf, 1);
            put::bytes(buf, b);
        }
    }
    match eid {
        None => put::u8(buf, 0),
        Some(e) => {
            put::u8(buf, 1);
            put::u64(buf, e.raw());
        }
    }
}

/// Bytes [`encode_last_op`] appends.
fn last_op_len(tag: Option<&[u8]>, eid: Option<Eid>) -> usize {
    1 + 1 + tag.map_or(0, |t| len::bytes(t.len())) + 1 + eid.map_or(0, |_| 8)
}

fn decode_eid(r: &mut Reader<'_>) -> StorageResult<Option<Eid>> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(Eid(r.u64()?))),
        b => Err(StorageError::Decode(format!("bad eid tag {b}"))),
    }
}

impl Encode for Registration {
    fn encode(&self, buf: &mut Vec<u8>) {
        put::string(buf, &self.registrant);
        put::string(buf, &self.queue);
        put::bool(buf, self.stable);
        encode_last_op(buf, self.last_op, self.tag.as_deref(), self.eid);
    }

    fn encoded_len(&self) -> usize {
        len::bytes(self.registrant.len())
            + len::bytes(self.queue.len())
            + 1
            + last_op_len(self.tag.as_deref(), self.eid)
    }
}

impl Decode for Registration {
    fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
        let registrant = r.string()?;
        let queue = r.string()?;
        let stable = r.bool()?;
        let last_op = LastOp::from_byte(r.u8()?)?;
        let tag = Option::<Vec<u8>>::decode(r)?;
        let eid = decode_eid(r)?;
        Ok(Registration {
            registrant,
            queue,
            stable,
            last_op,
            tag,
            eid,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_registration_has_no_history() {
        let r = Registration::new("client-1", "req", true);
        assert_eq!(r.last_op, LastOp::None);
        assert!(r.tag.is_none() && r.eid.is_none() && r.retained().is_none());
    }

    #[test]
    fn record_updates_stable_registration() {
        let mut r = Registration::new("c", "q", true);
        r.record(LastOp::Enqueue, Some(b"rid-42"), Eid(9));
        assert_eq!(r.last_op, LastOp::Enqueue);
        assert_eq!(r.tag.as_deref(), Some(b"rid-42".as_slice()));
        assert_eq!(r.eid, Some(Eid(9)));
        assert_eq!(
            r.retained(),
            None,
            "an enqueued element is live, not retained"
        );
        r.record(LastOp::Dequeue, None, Eid(10));
        assert_eq!(r.retained(), Some(Eid(10)));
    }

    #[test]
    fn record_is_ignored_without_stable_flag() {
        let mut r = Registration::new("c", "q", false);
        r.record(LastOp::Dequeue, Some(b"t"), Eid(1));
        assert_eq!(r.last_op, LastOp::None);
        assert!(r.tag.is_none() && r.retained().is_none());
    }

    #[test]
    fn roundtrip_full() {
        let mut r = Registration::new("client-7", "reply", true);
        r.record(LastOp::Dequeue, Some(b"ckpt:3"), Eid::compose(2, 5));
        let d = Registration::decode_all(&r.encode_to_vec()).unwrap();
        assert_eq!(d, r);
    }

    #[test]
    fn roundtrip_empty() {
        let r = Registration::new("c", "q", false);
        let d = Registration::decode_all(&r.encode_to_vec()).unwrap();
        assert_eq!(d, r);
    }

    #[test]
    fn recorded_equals_decode_record_encode() {
        let mut reg = Registration::new("client-7", "reply", true);
        reg.record(LastOp::Enqueue, Some(b"old-tag"), Eid(1));
        let mut raw = reg.encode_to_vec();
        for (op, tag) in [
            (LastOp::Dequeue, None),
            (LastOp::Dequeue, Some(b"ckpt:4".as_slice())),
            (LastOp::Enqueue, Some(b"rid".as_slice())),
            (LastOp::Enqueue, None),
        ] {
            let got = Registration::recorded(&raw, op, tag, Eid(9))
                .unwrap()
                .expect("stable registration records");
            assert_eq!(got.retired, reg.retained(), "before {op:?}");
            reg.record(op, tag, Eid(9));
            assert_eq!(got.raw, reg.encode_to_vec());
            assert_eq!(Registration::decode_all(&got.raw).unwrap(), reg);
            raw = got.raw;
        }
        let unstable = Registration::new("c", "q", false).encode_to_vec();
        assert_eq!(
            Registration::recorded(&unstable, LastOp::Enqueue, None, Eid(1)).unwrap(),
            None
        );
        assert!(Registration::recorded(&raw[..5], LastOp::Enqueue, None, Eid(1)).is_err());
    }

    #[test]
    fn record_with_no_tag() {
        let mut r = Registration::new("c", "q", true);
        r.record(LastOp::Enqueue, None, Eid(3));
        assert_eq!(r.tag, None);
        let d = Registration::decode_all(&r.encode_to_vec()).unwrap();
        assert_eq!(d, r);
    }
}
