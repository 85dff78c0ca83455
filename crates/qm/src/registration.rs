//! Persistent registration with operation tags — §4.3, the paper's
//! claimed-novel queue-manager feature.
//!
//! A registration associates an authenticated registrant with a queue and
//! survives registrant failures: "the failure of a registrant does not
//! implicitly deregister it". For a registrant that asked for stability, the
//! QM keeps a durable copy of the **tag**, **eid**, **operation type**, and
//! **element contents** of the registrant's most recent tagged operation,
//! updated *in the same transaction* as the operation itself. Re-registering
//! after a failure returns that record — this is the whole basis of the
//! client's connect-time resynchronization (Fig 2): the tag carries the
//! clerk's rid/ckpt state, so the QM performs the client's checkpoint for
//! free (§2).

use crate::element::Eid;
use rrq_storage::codec::{put, Decode, Encode, Reader};
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
    /// Stable copy of that element's contents (payload only).
    pub element_copy: Option<Vec<u8>>,
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
            element_copy: None,
        }
    }

    /// Record a tagged operation (only kept when `stable`).
    pub fn record(&mut self, op: LastOp, tag: Option<&[u8]>, eid: Eid, payload: &[u8]) {
        if !self.stable {
            return;
        }
        self.last_op = op;
        self.tag = tag.map(|t| t.to_vec());
        self.eid = Some(eid);
        self.element_copy = Some(payload.to_vec());
    }

    /// The encoding `raw` (an encoded registration) takes once a tagged
    /// operation is recorded in it, or `None` when the registration does not
    /// keep a stable record. Equal to decode → [`Registration::record`] →
    /// encode, but the superseded tag and element copy are never decoded and
    /// the new ones are written straight from the caller's slices — the
    /// element copy is as large as the element, and this runs inside every
    /// tagged enqueue and dequeue.
    pub fn recorded(
        raw: &[u8],
        op: LastOp,
        tag: Option<&[u8]>,
        eid: Eid,
        payload: &[u8],
    ) -> StorageResult<Option<Vec<u8>>> {
        let mut r = Reader::new(raw);
        r.bytes_ref()?; // registrant
        r.bytes_ref()?; // queue
        if !r.bool()? {
            return Ok(None);
        }
        let head = &raw[..raw.len() - r.remaining()];
        let mut buf =
            Vec::with_capacity(head.len() + tag.map_or(0, <[u8]>::len) + payload.len() + 24);
        buf.extend_from_slice(head);
        encode_last_op(&mut buf, op, tag, Some(eid), Some(payload));
        Ok(Some(buf))
    }
}

/// The record's tail — everything a tagged operation replaces. The head
/// (registrant, queue, stable flag) never changes after `Register`.
fn encode_last_op(
    buf: &mut Vec<u8>,
    last_op: LastOp,
    tag: Option<&[u8]>,
    eid: Option<Eid>,
    element_copy: Option<&[u8]>,
) {
    fn opt_bytes(buf: &mut Vec<u8>, v: Option<&[u8]>) {
        match v {
            None => put::u8(buf, 0),
            Some(b) => {
                put::u8(buf, 1);
                put::bytes(buf, b);
            }
        }
    }
    put::u8(buf, last_op.to_byte());
    opt_bytes(buf, tag);
    match eid {
        None => put::u8(buf, 0),
        Some(e) => {
            put::u8(buf, 1);
            put::u64(buf, e.raw());
        }
    }
    opt_bytes(buf, element_copy);
}

impl Encode for Registration {
    fn encode(&self, buf: &mut Vec<u8>) {
        put::string(buf, &self.registrant);
        put::string(buf, &self.queue);
        put::bool(buf, self.stable);
        encode_last_op(
            buf,
            self.last_op,
            self.tag.as_deref(),
            self.eid,
            self.element_copy.as_deref(),
        );
    }
}

impl Decode for Registration {
    fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
        let registrant = r.string()?;
        let queue = r.string()?;
        let stable = r.bool()?;
        let last_op = LastOp::from_byte(r.u8()?)?;
        let tag = Option::<Vec<u8>>::decode(r)?;
        let eid = match r.u8()? {
            0 => None,
            1 => Some(Eid(r.u64()?)),
            b => return Err(StorageError::Decode(format!("bad eid tag {b}"))),
        };
        let element_copy = Option::<Vec<u8>>::decode(r)?;
        Ok(Registration {
            registrant,
            queue,
            stable,
            last_op,
            tag,
            eid,
            element_copy,
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
        assert!(r.tag.is_none() && r.eid.is_none() && r.element_copy.is_none());
    }

    #[test]
    fn record_updates_stable_registration() {
        let mut r = Registration::new("c", "q", true);
        r.record(LastOp::Enqueue, Some(b"rid-42"), Eid(9), b"body");
        assert_eq!(r.last_op, LastOp::Enqueue);
        assert_eq!(r.tag.as_deref(), Some(b"rid-42".as_slice()));
        assert_eq!(r.eid, Some(Eid(9)));
        assert_eq!(r.element_copy.as_deref(), Some(b"body".as_slice()));
    }

    #[test]
    fn record_is_ignored_without_stable_flag() {
        let mut r = Registration::new("c", "q", false);
        r.record(LastOp::Dequeue, Some(b"t"), Eid(1), b"x");
        assert_eq!(r.last_op, LastOp::None);
        assert!(r.tag.is_none());
    }

    #[test]
    fn roundtrip_full() {
        let mut r = Registration::new("client-7", "reply", true);
        r.record(
            LastOp::Dequeue,
            Some(b"ckpt:3"),
            Eid::compose(2, 5),
            b"reply!",
        );
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
        reg.record(LastOp::Enqueue, Some(b"old-tag"), Eid(1), &[7; 300]);
        let raw = reg.encode_to_vec();
        for tag in [None, Some(b"ckpt:4".as_slice())] {
            let got = Registration::recorded(&raw, LastOp::Dequeue, tag, Eid(9), b"new body")
                .unwrap()
                .expect("stable registration records");
            reg.record(LastOp::Dequeue, tag, Eid(9), b"new body");
            assert_eq!(got, reg.encode_to_vec());
            assert_eq!(Registration::decode_all(&got).unwrap(), reg);
        }
        let unstable = Registration::new("c", "q", false).encode_to_vec();
        assert_eq!(
            Registration::recorded(&unstable, LastOp::Enqueue, None, Eid(1), b"x").unwrap(),
            None
        );
        assert!(Registration::recorded(&raw[..5], LastOp::Enqueue, None, Eid(1), b"x").is_err());
    }

    #[test]
    fn record_with_no_tag() {
        let mut r = Registration::new("c", "q", true);
        r.record(LastOp::Enqueue, None, Eid(3), b"p");
        assert_eq!(r.tag, None);
        let d = Registration::decode_all(&r.encode_to_vec()).unwrap();
        assert_eq!(d, r);
    }
}
