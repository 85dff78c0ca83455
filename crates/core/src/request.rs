//! Request and reply records — "a request is a data structure (e.g., a
//! record) that describes some work that the system should perform" (§2).

use crate::rid::Rid;
use rrq_storage::codec::{len, put, Decode, Encode, Reader};
use rrq_storage::{StorageError, StorageResult};

/// A request as carried in a queue element payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The client-assigned request id.
    pub rid: Rid,
    /// Reply queue name — passed with the request so the server "knows where
    /// to Enqueue the reply" (§5 multi-client extension).
    pub reply_queue: String,
    /// Operation name the server dispatches on.
    pub op: String,
    /// Operation arguments, opaque to the transport.
    pub body: Vec<u8>,
    /// Pipeline state carried across the transactions of a
    /// multi-transaction request (§6: state "must [be stored] either in a
    /// database or in the next request").
    pub state: Vec<u8>,
    /// When set, the stage transaction processing this request begins under
    /// this pre-allocated id — §6 lock inheritance plumbing.
    pub inherit_txn: Option<u64>,
}

impl Request {
    /// A fresh single-transaction request.
    pub fn new(
        rid: Rid,
        reply_queue: impl Into<String>,
        op: impl Into<String>,
        body: Vec<u8>,
    ) -> Self {
        Request {
            rid,
            reply_queue: reply_queue.into(),
            op: op.into(),
            body,
            state: Vec::new(),
            inherit_txn: None,
        }
    }
}

impl Encode for Request {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.rid.encode(buf);
        put::string(buf, &self.reply_queue);
        put::string(buf, &self.op);
        put::bytes(buf, &self.body);
        put::bytes(buf, &self.state);
        match self.inherit_txn {
            None => put::u8(buf, 0),
            Some(t) => {
                put::u8(buf, 1);
                put::u64(buf, t);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        let fields = [
            self.reply_queue.len(),
            self.op.len(),
            self.body.len(),
            self.state.len(),
        ];
        let inherit = 1 + self.inherit_txn.map_or(0, |_| 8);
        self.rid.encoded_len() + fields.map(len::bytes).iter().sum::<usize>() + inherit
    }
}

impl Request {
    /// Decode the fields of a request from `r`, all but the body, which is
    /// returned where it lies, with the number of bytes after it.
    fn decode_fields<'a>(r: &mut Reader<'a>) -> StorageResult<(Request, &'a [u8], usize)> {
        let rid = Rid::decode(r)?;
        let reply_queue = r.string()?;
        let op = r.string()?;
        let body = r.bytes_ref()?;
        let after_body = r.remaining();
        let state = r.bytes()?;
        let inherit_txn = match r.u8()? {
            0 => None,
            1 => Some(r.u64()?),
            b => return Err(StorageError::Decode(format!("bad option tag {b}"))),
        };
        let request = Request {
            rid,
            reply_queue,
            op,
            body: Vec::new(),
            state,
            inherit_txn,
        };
        Ok((request, body, after_body - r.remaining()))
    }

    /// Decode an element payload, the body kept in `payload`'s own buffer
    /// (shifted to its front, not copied out): what [`Decode::decode_all`]
    /// accepts, it accepts.
    pub fn from_payload(mut payload: Vec<u8>) -> StorageResult<Request> {
        let mut r = Reader::new(&payload);
        let (mut request, body, tail) = Self::decode_fields(&mut r)?;
        r.finish()?;
        let end = payload.len() - tail;
        let start = end - body.len();
        payload.truncate(end);
        payload.drain(..start);
        request.body = payload;
        Ok(request)
    }
}

impl Decode for Request {
    fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
        let (mut request, body, _) = Self::decode_fields(r)?;
        request.body = body.to_vec();
        Ok(request)
    }
}

/// Outcome class of a reply.
///
/// §3: "The system may process the request by unsuccessfully attempting to
/// execute the request, and then returning a reply that indicates that fact;
/// the reply is a promise that it will not attempt to execute the request
/// any more."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyStatus {
    /// The request executed and committed.
    Ok,
    /// The system gave up on the request (rejected by the handler, or its
    /// element exhausted the retry limit); it will not be attempted again.
    Failed,
    /// Intermediate output of an interactive request (§8) — not the final
    /// reply.
    Intermediate,
}

impl ReplyStatus {
    fn to_byte(self) -> u8 {
        match self {
            ReplyStatus::Ok => 0,
            ReplyStatus::Failed => 1,
            ReplyStatus::Intermediate => 2,
        }
    }

    fn from_byte(b: u8) -> StorageResult<Self> {
        match b {
            0 => Ok(ReplyStatus::Ok),
            1 => Ok(ReplyStatus::Failed),
            2 => Ok(ReplyStatus::Intermediate),
            b => Err(StorageError::Decode(format!("bad reply status {b}"))),
        }
    }
}

/// A reply as carried in a queue element payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Rid of the request this answers — request/reply matching is checked
    /// against this.
    pub rid: Rid,
    /// Outcome class.
    pub status: ReplyStatus,
    /// Result payload.
    pub body: Vec<u8>,
}

impl Reply {
    /// A successful reply.
    pub fn ok(rid: Rid, body: Vec<u8>) -> Self {
        Reply {
            rid,
            status: ReplyStatus::Ok,
            body,
        }
    }

    /// A gave-up reply.
    pub fn failed(rid: Rid, body: Vec<u8>) -> Self {
        Reply {
            rid,
            status: ReplyStatus::Failed,
            body,
        }
    }
}

impl Encode for Reply {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.rid.encode(buf);
        put::u8(buf, self.status.to_byte());
        put::bytes(buf, &self.body);
    }

    fn encoded_len(&self) -> usize {
        self.rid.encoded_len() + 1 + len::bytes(self.body.len())
    }
}

impl Reply {
    /// Decode an element payload, the body kept in `payload`'s own buffer
    /// (shifted to its front, not copied out): what [`Decode::decode_all`]
    /// accepts, it accepts.
    pub fn from_payload(mut payload: Vec<u8>) -> StorageResult<Reply> {
        let mut r = Reader::new(&payload);
        let rid = Rid::decode(&mut r)?;
        let status = ReplyStatus::from_byte(r.u8()?)?;
        let body = r.bytes_ref()?.len();
        r.finish()?;
        payload.drain(..payload.len() - body);
        Ok(Reply {
            rid,
            status,
            body: payload,
        })
    }
}

impl Decode for Reply {
    fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
        Ok(Reply {
            rid: Rid::decode(r)?,
            status: ReplyStatus::from_byte(r.u8()?)?,
            body: r.bytes()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let mut req = Request::new(Rid::new("c", 1), "c.reply", "transfer", b"100".to_vec());
        req.state = b"stage-2".to_vec();
        req.inherit_txn = Some(77);
        let d = Request::decode_all(&req.encode_to_vec()).unwrap();
        assert_eq!(d, req);
    }

    #[test]
    fn reply_roundtrip() {
        for r in [
            Reply::ok(Rid::new("c", 1), b"done".to_vec()),
            Reply::failed(Rid::new("c", 2), b"no funds".to_vec()),
            Reply {
                rid: Rid::new("c", 3),
                status: ReplyStatus::Intermediate,
                body: b"enter PIN".to_vec(),
            },
        ] {
            let d = Reply::decode_all(&r.encode_to_vec()).unwrap();
            assert_eq!(d, r);
        }
    }

    #[test]
    fn bad_status_rejected() {
        let r = Reply::ok(Rid::new("c", 1), vec![]);
        let mut buf = r.encode_to_vec();
        // status byte sits after rid: client("c")=4+1 bytes + serial 8 = 13.
        buf[13] = 9;
        assert!(Reply::decode_all(&buf).is_err());
    }

    /// The in-place decoders agree with `decode_all` on every encoding, on
    /// every cut of one, and on one with a byte too many.
    #[test]
    fn from_payload_decodes_exactly_what_decode_all_does() {
        let mut staged = Request::new(Rid::new("c", 7), "c.reply", "op", b"body".to_vec());
        staged.state = b"stage".to_vec();
        staged.inherit_txn = Some(9);
        let requests = [
            Request::new(Rid::new("c", 1), "c.reply", "echo", vec![0xAB; 300]),
            Request::new(Rid::new("", 2), "", "", Vec::new()),
            staged,
        ];
        let replies = [
            Reply::ok(Rid::new("c", 1), vec![7; 300]),
            Reply::failed(Rid::new("c", 2), Vec::new()),
        ];
        let cuts = |buf: Vec<u8>| {
            let mut longer = buf.clone();
            longer.push(0);
            (0..=buf.len())
                .map(move |n| buf[..n].to_vec())
                .chain([longer])
        };
        for req in requests {
            for raw in cuts(req.encode_to_vec()) {
                let whole = Request::decode_all(&raw).ok();
                assert_eq!(Request::from_payload(raw.clone()).ok(), whole, "{raw:?}");
            }
        }
        for reply in replies {
            for raw in cuts(reply.encode_to_vec()) {
                let whole = Reply::decode_all(&raw).ok();
                assert_eq!(Reply::from_payload(raw.clone()).ok(), whole, "{raw:?}");
            }
        }
    }
}
