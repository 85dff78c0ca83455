//! Compensation-based late cancellation (§7).
//!
//! "With multi-transaction requests, the cancellation request fails once the
//! first transaction in the sequence has committed. Later cancellation can
//! still be arranged by supporting compensating transactions and sagas
//! [Garcia & Salem 87] … one cancels the request by compensating for the
//! committed transactions that executed on behalf of the request. This can
//! be done by executing the compensations as a serial multi-transaction
//! request."
//!
//! Each stage that commits real effects records its compensation in the
//! [`SagaLog`] *within the same transaction*, so the log is exactly the set
//! of committed stages. Cancellation enqueues the compensations in reverse
//! order as ordinary requests on a compensation queue.

use crate::error::CoreResult;
use crate::request::Request;
use crate::rid::Rid;
use rrq_qm::ops::{EnqueueOptions, QueueHandle};
use rrq_qm::repository::Repository;
use rrq_storage::codec::{put, Reader};
use rrq_storage::kv::KvStore;
use std::sync::Arc;

fn step_key(rid: &Rid, step: u32) -> Vec<u8> {
    format!("saga/{}/{step:08}", rid.to_attr()).into_bytes()
}

fn rid_prefix(rid: &Rid) -> Vec<u8> {
    format!("saga/{}/", rid.to_attr()).into_bytes()
}

/// One recorded compensation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SagaStep {
    /// Stage number (execution order).
    pub step: u32,
    /// Compensating operation name.
    pub comp_op: String,
    /// Compensating operation arguments.
    pub comp_body: Vec<u8>,
}

/// The durable per-request compensation log.
pub struct SagaLog {
    store: Arc<KvStore>,
}

impl SagaLog {
    /// Store the log in `store` (normally the repository's durable store, so
    /// records commit atomically with stage transactions).
    pub fn new(store: Arc<KvStore>) -> Self {
        SagaLog { store }
    }

    /// Record the compensation for stage `step` of request `rid`, inside the
    /// stage's own transaction `txn`.
    pub fn record(
        &self,
        txn: u64,
        rid: &Rid,
        step: u32,
        comp_op: &str,
        comp_body: &[u8],
    ) -> CoreResult<()> {
        let mut buf = Vec::new();
        put::string(&mut buf, comp_op);
        put::bytes(&mut buf, comp_body);
        self.store.put(txn, step_key(rid, step), &buf)?;
        Ok(())
    }

    /// Committed steps of `rid`, in execution order.
    pub fn steps(&self, rid: &Rid) -> CoreResult<Vec<SagaStep>> {
        let rows = self.store.scan_prefix(None, &rid_prefix(rid))?;
        let prefix_len = rid_prefix(rid).len();
        let mut out = Vec::with_capacity(rows.len());
        for (k, v) in rows {
            let step: u32 = String::from_utf8_lossy(&k[prefix_len..])
                .parse()
                .unwrap_or(0);
            let mut r = Reader::new(&v);
            let comp_op = r.string().map_err(crate::error::CoreError::Storage)?;
            let comp_body = r.bytes().map_err(crate::error::CoreError::Storage)?;
            out.push(SagaStep {
                step,
                comp_op,
                comp_body,
            });
        }
        Ok(out)
    }

    /// Remove `rid`'s log inside `txn` (after successful completion or after
    /// compensation finishes).
    pub fn clear(&self, txn: u64, rid: &Rid) -> CoreResult<usize> {
        let rows = self.store.scan_prefix(Some(txn), &rid_prefix(rid))?;
        let n = rows.len();
        for (k, _) in rows {
            self.store.delete(txn, &k)?;
        }
        Ok(n)
    }

    /// Cancel the committed prefix of request `rid`: enqueue its
    /// compensations, most recent first, as a serial multi-transaction
    /// request on `comp_queue`. Returns the number of compensations issued.
    ///
    /// The compensation requests reuse the original rid's client with fresh
    /// serials derived from the step number, and direct replies to
    /// `reply_queue`.
    pub fn compensate(
        &self,
        repo: &Repository,
        rid: &Rid,
        comp_queue: &str,
        reply_queue: &str,
    ) -> CoreResult<usize> {
        let mut steps = self.steps(rid)?;
        steps.sort_by_key(|s| std::cmp::Reverse(s.step));
        let n = steps.len();
        if n == 0 {
            return Ok(0);
        }
        let h = QueueHandle {
            queue: comp_queue.to_string(),
            registrant: format!("saga/{}", rid.to_attr()),
        };
        repo.autocommit(|t| {
            for s in &steps {
                let comp_rid = Rid::new(
                    format!("{}~comp", rid.client),
                    rid.serial * 1000 + s.step as u64,
                );
                let req = Request::new(
                    comp_rid,
                    reply_queue,
                    s.comp_op.clone(),
                    s.comp_body.clone(),
                );
                use rrq_storage::codec::Encode;
                repo.qm().enqueue(
                    t.id().raw(),
                    &h,
                    &req.encode_to_vec(),
                    EnqueueOptions {
                        attrs: vec![("compensates".into(), rid.to_attr())],
                        ..Default::default()
                    },
                )?;
            }
            // Clearing the log in the same transaction makes cancellation
            // itself exactly-once.
            let cleared = self
                .clear(t.id().raw(), rid)
                .map_err(|e| rrq_qm::QmError::Invalid(e.to_string()))?;
            debug_assert_eq!(cleared, n);
            Ok(())
        })?;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Arc<Repository>, SagaLog) {
        let repo = Arc::new(Repository::create("saga").unwrap());
        repo.create_queue_defaults("comp").unwrap();
        let log = SagaLog::new(Arc::clone(repo.store()));
        (repo, log)
    }

    #[test]
    fn record_and_read_steps_in_order() {
        let (repo, log) = setup();
        let rid = Rid::new("c", 1);
        repo.store().begin(1).unwrap();
        log.record(1, &rid, 0, "credit", b"src:100").unwrap();
        log.record(1, &rid, 1, "debit", b"dst:100").unwrap();
        repo.store().commit(1).unwrap();
        let steps = log.steps(&rid).unwrap();
        assert_eq!(steps.len(), 2);
        assert_eq!(steps[0].comp_op, "credit");
        assert_eq!(steps[1].comp_op, "debit");
    }

    #[test]
    fn aborted_stage_records_nothing() {
        let (repo, log) = setup();
        let rid = Rid::new("c", 2);
        repo.store().begin(1).unwrap();
        log.record(1, &rid, 0, "credit", b"x").unwrap();
        repo.store().abort(1).unwrap();
        assert!(log.steps(&rid).unwrap().is_empty());
    }

    #[test]
    fn compensate_enqueues_reverse_order_and_clears() {
        let (repo, log) = setup();
        let rid = Rid::new("c", 3);
        repo.store().begin(1).unwrap();
        log.record(1, &rid, 0, "undo-step-0", b"").unwrap();
        log.record(1, &rid, 1, "undo-step-1", b"").unwrap();
        log.record(1, &rid, 2, "undo-step-2", b"").unwrap();
        repo.store().commit(1).unwrap();

        let n = log.compensate(&repo, &rid, "comp", "reply.c").unwrap();
        assert_eq!(n, 3);
        assert_eq!(repo.qm().depth("comp").unwrap(), 3);
        assert!(log.steps(&rid).unwrap().is_empty(), "log cleared");

        // FIFO order of the compensation queue = reverse stage order.
        use rrq_qm::ops::DequeueOptions;
        use rrq_storage::codec::Decode;
        let (h, _) = repo.qm().register("comp", "x", false).unwrap();
        let mut ops = Vec::new();
        for _ in 0..3 {
            let e = repo
                .autocommit(|t| {
                    repo.qm()
                        .dequeue(t.id().raw(), &h, DequeueOptions::default())
                })
                .unwrap();
            let req = Request::decode_all(&e.payload).unwrap();
            ops.push(req.op);
        }
        assert_eq!(ops, vec!["undo-step-2", "undo-step-1", "undo-step-0"]);
    }

    #[test]
    fn compensate_with_empty_log_is_noop() {
        let (repo, log) = setup();
        let rid = Rid::new("c", 9);
        assert_eq!(log.compensate(&repo, &rid, "comp", "r").unwrap(), 0);
        assert_eq!(repo.qm().depth("comp").unwrap(), 0);
    }
}
