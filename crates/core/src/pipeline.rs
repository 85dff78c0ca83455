//! Multi-transaction requests (§6, Fig 6).
//!
//! "There is a sequence of server processes, which executes the sequence of
//! transactions for the request … Each server registers with a different
//! pair of queues." A stage's handler receives the request (with the state
//! the previous stage stored *in the request* — §6: local program variables
//! cannot be relied upon) and either continues the chain or completes it
//! with a reply.
//!
//! Request-level serializability is off by default (the paper: "the
//! execution of requests is not serializable; only the execution of the
//! component transactions is"). [`Serializability::InheritLocks`] is the §6
//! remedy: each stage transaction's locks are inherited by the next stage's
//! transaction, so the whole request holds its locks end-to-end. (The other
//! §6 remedy, a persistent application-lock table, is the E6 baseline in
//! `rrq-bench`.)

use crate::error::CoreResult;
use crate::request::Request;
use crate::server::{Handler, HandlerError, HandlerOutcome, Server, ServerConfig, ServerCtx};
use rrq_qm::repository::Repository;
use std::sync::Arc;

/// What a stage decided.
#[derive(Debug, Clone)]
pub enum StageResult {
    /// Continue to the next stage, carrying `state` in the request.
    Next(Vec<u8>),
    /// The request is complete; reply with this body.
    Done(Vec<u8>),
}

/// A stage function: `(ctx, request, stage_index) → result`.
pub type StageFn =
    Arc<dyn Fn(&ServerCtx<'_>, &Request, usize) -> Result<StageResult, HandlerError> + Send + Sync>;

/// Request-level serializability discipline (§6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Serializability {
    /// Component transactions only (the default; requests may interleave).
    None,
    /// Lock inheritance: locks transfer stage-to-stage and release only when
    /// the final transaction commits.
    InheritLocks,
}

/// Builds the chain of stage servers for one multi-transaction request type.
pub struct Pipeline {
    /// Input queue of each stage, in order.
    pub queues: Vec<String>,
    /// The per-stage logic.
    pub stage_fn: StageFn,
    /// Serializability mode.
    pub mode: Serializability,
}

impl Pipeline {
    /// Construct the stage servers. `queues[i]` feeds stage `i`; stage `i`
    /// forwards to `queues[i+1]`; the last stage must return
    /// [`StageResult::Done`].
    pub fn build_servers(&self, repo: &Arc<Repository>) -> CoreResult<Vec<Arc<Server>>> {
        self.build_servers_pool(repo, 1)
    }

    /// Like [`Pipeline::build_servers`] but with `per_stage` servers sharing
    /// each stage queue.
    ///
    /// With [`Serializability::InheritLocks`], more than one server per
    /// stage is strongly advised: a single-threaded stage can livelock on
    /// head-of-line inversion — the FIFO head needs a lock still *parked* by
    /// a request queued behind it, and a lone server retries the head
    /// forever. A second server adopts the later request's parked locks
    /// (releasing them even if it then aborts), restoring progress. This is
    /// the §6 lock-contention hazard made concrete.
    pub fn build_servers_pool(
        &self,
        repo: &Arc<Repository>,
        per_stage: usize,
    ) -> CoreResult<Vec<Arc<Server>>> {
        let mut servers = Vec::with_capacity(self.queues.len() * per_stage.max(1));
        for k in 0..per_stage.max(1) {
            for (i, q) in self.queues.iter().enumerate() {
                servers.push(self.build_stage_server(repo, i, q, k)?);
            }
        }
        Ok(servers)
    }

    fn build_stage_server(
        &self,
        repo: &Arc<Repository>,
        i: usize,
        q: &str,
        replica: usize,
    ) -> CoreResult<Arc<Server>> {
        {
            let next_queue = self.queues.get(i + 1).cloned();
            let stage_fn = Arc::clone(&self.stage_fn);
            let mode = self.mode;
            let is_last = next_queue.is_none();
            let handler: Handler = Arc::new(move |ctx, req| match stage_fn(ctx, req, i)? {
                StageResult::Done(body) => Ok(HandlerOutcome::Reply(body)),
                StageResult::Next(state) => {
                    let Some(nq) = &next_queue else {
                        return Err(HandlerError::Reject(format!(
                            "stage {i} is final but tried to continue"
                        )));
                    };
                    let mut fwd = req.clone();
                    fwd.state = state;
                    fwd.inherit_txn = None;
                    let _ = is_last;
                    match mode {
                        Serializability::None => Ok(HandlerOutcome::Forward {
                            queue: nq.clone(),
                            request: fwd,
                        }),
                        Serializability::InheritLocks => Ok(HandlerOutcome::ForwardInheriting {
                            queue: nq.clone(),
                            request: fwd,
                        }),
                    }
                }
            });
            let cfg = ServerConfig::new(format!("stage-{i}.{replica}"), q);
            Server::new(Arc::clone(repo), cfg, handler)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{LocalQm, QmApi};
    use crate::request::{Reply, ReplyStatus};
    use crate::rid::Rid;
    use rrq_qm::ops::{DequeueOptions, EnqueueOptions};
    use rrq_storage::codec::{Decode, Encode};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    /// Drive a 3-stage pipeline end to end: each stage appends its index to
    /// the state; the final stage replies with the accumulated state.
    #[test]
    fn three_stage_pipeline_completes() {
        let repo = Arc::new(Repository::create("pipe").unwrap());
        for q in ["s0", "s1", "s2", "reply.c"] {
            repo.create_queue_defaults(q).unwrap();
        }
        let stage_fn: StageFn = Arc::new(|_ctx, req, i| {
            let mut state = req.state.clone();
            state.push(b'0' + i as u8);
            if i == 2 {
                Ok(StageResult::Done(state))
            } else {
                Ok(StageResult::Next(state))
            }
        });
        let pipeline = Pipeline {
            queues: vec!["s0".into(), "s1".into(), "s2".into()],
            stage_fn,
            mode: Serializability::None,
        };
        let servers = pipeline.build_servers(&repo).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let handles: Vec<_> = servers.iter().map(|s| s.spawn(Arc::clone(&stop))).collect();

        let api = LocalQm::new(Arc::clone(&repo));
        api.register("s0", "c", false).unwrap();
        api.register("reply.c", "c", false).unwrap();
        let req = Request::new(Rid::new("c", 1), "reply.c", "chain", vec![]);
        api.enqueue("s0", "c", &req.encode_to_vec(), EnqueueOptions::default())
            .unwrap();

        let elem = api
            .dequeue(
                "reply.c",
                "c",
                DequeueOptions {
                    block: Some(Duration::from_secs(10)),
                    ..Default::default()
                },
            )
            .unwrap();
        let reply = Reply::decode_all(&elem.payload).unwrap();
        assert_eq!(reply.status, ReplyStatus::Ok);
        assert_eq!(reply.body, b"012");
        assert_eq!(reply.rid, Rid::new("c", 1));

        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
    }

    /// With lock inheritance, a resource locked by stage 0 stays locked
    /// until the final stage commits.
    #[test]
    fn lock_inheritance_holds_across_stages() {
        use rrq_txn::{LockKey, LockMode};
        let repo = Arc::new(Repository::create("pipe-locks").unwrap());
        for q in ["t0", "t1", "reply.c"] {
            repo.create_queue_defaults(q).unwrap();
        }
        // Stage 0 locks the account; stage 1 sleeps then completes. Between
        // the two commits a third party must NOT be able to take the lock.
        const ACCT_NS: u32 = 99;
        let stage_fn: StageFn = Arc::new(move |ctx, _req, i| {
            if i == 0 {
                ctx.txn
                    .lock_exclusive(&LockKey::new(ACCT_NS, "acct-1"))
                    .map_err(|e| HandlerError::Abort(e.to_string()))?;
                Ok(StageResult::Next(b"locked".to_vec()))
            } else {
                std::thread::sleep(Duration::from_millis(150));
                Ok(StageResult::Done(b"done".to_vec()))
            }
        });
        let pipeline = Pipeline {
            queues: vec!["t0".into(), "t1".into()],
            stage_fn,
            mode: Serializability::InheritLocks,
        };
        let servers = pipeline.build_servers(&repo).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let handles: Vec<_> = servers.iter().map(|s| s.spawn(Arc::clone(&stop))).collect();

        let api = LocalQm::new(Arc::clone(&repo));
        api.register("t0", "c", false).unwrap();
        api.register("reply.c", "c", false).unwrap();
        let req = Request::new(Rid::new("c", 1), "reply.c", "locked-chain", vec![]);
        api.enqueue("t0", "c", &req.encode_to_vec(), EnqueueOptions::default())
            .unwrap();

        // Poll: while the request is between stages, the lock must be held.
        std::thread::sleep(Duration::from_millis(60));
        let intruder = 123_456_789u64;
        let locked_midway = repo
            .tm()
            .locks()
            .try_lock(intruder, &LockKey::new(ACCT_NS, "acct-1"), LockMode::Shared)
            .is_err();
        repo.tm().locks().unlock_all(intruder);

        let elem = api
            .dequeue(
                "reply.c",
                "c",
                DequeueOptions {
                    block: Some(Duration::from_secs(10)),
                    ..Default::default()
                },
            )
            .unwrap();
        let reply = Reply::decode_all(&elem.payload).unwrap();
        assert_eq!(reply.body, b"done");
        assert!(
            locked_midway,
            "account lock must be held across the stage boundary"
        );
        // After the final commit the lock is freed. The reply becomes
        // visible a moment before the committing thread releases its locks
        // (normal strict 2PL: release follows commit), so poll briefly.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        loop {
            match repo.tm().locks().try_lock(
                intruder,
                &LockKey::new(ACCT_NS, "acct-1"),
                LockMode::Shared,
            ) {
                Ok(()) => break,
                Err(_) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => panic!("lock never released after final commit: {e}"),
            }
        }

        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
    }
}
