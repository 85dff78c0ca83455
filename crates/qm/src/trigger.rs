//! Triggers — the §6 fork/join mechanism for concurrent multi-transaction
//! requests.
//!
//! "The main issue is forking a request into multiple requests and rejoining
//! the requests when the concurrent branches complete. This can be handled by
//! extending the QM with a trigger mechanism. A trigger is set to send a
//! request when all of the replies to earlier concurrent requests have been
//! received."
//!
//! A [`Trigger`] watches a *join queue*: once every required rid appears
//! among the queue's live elements (each branch enqueues its reply carrying a
//! `rid` attribute), the QM enqueues the trigger's payload — the request for
//! the continuation transaction — into the target queue, exactly once.

use rrq_storage::codec::{len, put, Decode, Encode, Reader};
use rrq_storage::StorageResult;

/// A persistent fork/join trigger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trigger {
    /// Unique trigger id.
    pub id: String,
    /// Queue where the branch replies accumulate.
    pub join_queue: String,
    /// The `rid` attribute values that must all be present to fire.
    pub required_rids: Vec<String>,
    /// Queue that receives the continuation request when the join completes.
    pub target_queue: String,
    /// Payload of the continuation request.
    pub payload: Vec<u8>,
    /// Set once the trigger has fired (fire-once semantics).
    pub fired: bool,
}

impl Trigger {
    /// Convenience constructor for an unfired trigger.
    pub fn new(
        id: impl Into<String>,
        join_queue: impl Into<String>,
        required_rids: Vec<String>,
        target_queue: impl Into<String>,
        payload: Vec<u8>,
    ) -> Self {
        Trigger {
            id: id.into(),
            join_queue: join_queue.into(),
            required_rids,
            target_queue: target_queue.into(),
            payload,
            fired: false,
        }
    }
}

impl Encode for Trigger {
    fn encode(&self, buf: &mut Vec<u8>) {
        put::string(buf, &self.id);
        put::string(buf, &self.join_queue);
        put::u32(buf, self.required_rids.len() as u32);
        for r in &self.required_rids {
            put::string(buf, r);
        }
        put::string(buf, &self.target_queue);
        put::bytes(buf, &self.payload);
        put::bool(buf, self.fired);
    }

    fn encoded_len(&self) -> usize {
        let rids: usize = self.required_rids.iter().map(|r| len::bytes(r.len())).sum();
        let strings = [&self.id, &self.join_queue, &self.target_queue].map(|s| len::bytes(s.len()));
        strings.iter().sum::<usize>() + 4 + rids + len::bytes(self.payload.len()) + 1
    }
}

impl Decode for Trigger {
    fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
        let id = r.string()?;
        let join_queue = r.string()?;
        let n = r.u32()? as usize;
        let mut required_rids = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            required_rids.push(r.string()?);
        }
        let target_queue = r.string()?;
        let payload = r.bytes()?;
        let fired = r.bool()?;
        Ok(Trigger {
            id,
            join_queue,
            required_rids,
            target_queue,
            payload,
            fired,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let t = Trigger::new(
            "join-42",
            "replies",
            vec!["42/a".into(), "42/b".into()],
            "req-final",
            b"finish transfer 42".to_vec(),
        );
        let d = Trigger::decode_all(&t.encode_to_vec()).unwrap();
        assert_eq!(d, t);
        assert!(!d.fired);
    }

    #[test]
    fn fired_flag_roundtrips() {
        let mut t = Trigger::new("x", "j", vec![], "t", vec![]);
        t.fired = true;
        let d = Trigger::decode_all(&t.encode_to_vec()).unwrap();
        assert!(d.fired);
    }
}
