//! The bank: account table plus the §6 funds-transfer request.
//!
//! "A funds transfer request may be processed as three separate
//! transactions: debit source bank account, credit target bank account, and
//! log the transfer with a clearinghouse."
//!
//! The account table lives in the repository's durable store, so account
//! updates commit atomically with the queue operations of the stage
//! transactions. Balances may go negative (the paper's transfer is not an
//! authorization check) — conservation of total money is the invariant the
//! oracles verify.

use rrq_core::error::{CoreError, CoreResult};
use rrq_core::pipeline::{Pipeline, Serializability, StageFn, StageResult};
use rrq_core::request::Request;
use rrq_core::rid::Rid;
use rrq_core::server::{Handler, HandlerError, HandlerOutcome, Server, ServerConfig, ServerCtx};
use rrq_qm::repository::Repository;
use rrq_storage::codec::{put, Reader};
use rrq_txn::LockKey;
use std::io::Write;
use std::sync::Arc;

/// Lock namespace for account keys.
pub const BANK_NS: u32 = 7;

/// A transfer order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transfer {
    /// Source account index.
    pub from: u32,
    /// Target account index.
    pub to: u32,
    /// Amount in cents.
    pub amount: i64,
}

impl Transfer {
    /// Encode as a request body.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16);
        put::u32(&mut buf, self.from);
        put::u32(&mut buf, self.to);
        put::i64(&mut buf, self.amount);
        buf
    }

    /// Decode from a request body.
    pub fn decode(raw: &[u8]) -> CoreResult<Transfer> {
        let m = |e: rrq_storage::StorageError| CoreError::Malformed(e.to_string());
        let mut r = Reader::new(raw);
        Ok(Transfer {
            from: r.u32().map_err(m)?,
            to: r.u32().map_err(m)?,
            amount: r.i64().map_err(m)?,
        })
    }
}

// Keys are written straight into a buffer of their size: no `String` first.

fn account_key(i: u32) -> Vec<u8> {
    let mut key = Vec::with_capacity(18);
    write!(key, "bank/acct/{i:08}").expect("a Vec takes every write");
    key
}

fn clearing_key(rid: &Rid) -> Vec<u8> {
    let mut key = Vec::with_capacity(14 + rid.client.len() + 21);
    write!(key, "bank/clearing/{rid}").expect("a Vec takes every write");
    key
}

/// Create `n` accounts, each with `initial` cents (partition 0's store).
pub fn seed_accounts(repo: &Repository, n: u32, initial: i64) -> CoreResult<()> {
    seed_store(repo.store(), n, initial)
}

/// Create `n` accounts on the partition that owns `queue`, so a server
/// homed on that queue finds its working set partition-local.
pub fn seed_accounts_on(repo: &Repository, queue: &str, n: u32, initial: i64) -> CoreResult<()> {
    seed_store(repo.store_for(queue), n, initial)
}

fn seed_store(store: &Arc<rrq_storage::kv::KvStore>, n: u32, initial: i64) -> CoreResult<()> {
    let t = u64::MAX - 101;
    store.begin(t)?;
    for i in 0..n {
        store.put(t, account_key(i), &initial.to_le_bytes())?;
    }
    store.commit(t)?;
    Ok(())
}

/// Read one balance (committed view), summed across partition stores.
///
/// A handler adjusts the copy on its *home* partition's store, so under a
/// partitioned repository an account's true balance is the sum of its
/// per-partition copies — each delta lands on exactly one store, which is
/// what keeps conservation partition-count-independent.
pub fn balance(repo: &Repository, i: u32) -> CoreResult<i64> {
    let mut sum = 0;
    for p in 0..repo.partitions() {
        sum += repo
            .store_at(p)
            .get(None, &account_key(i))?
            .map(|raw| i64::from_le_bytes(raw.try_into().unwrap_or([0; 8])))
            .unwrap_or(0);
    }
    Ok(sum)
}

/// Sum of all balances (the conservation invariant).
pub fn total_money(repo: &Repository, n: u32) -> CoreResult<i64> {
    let mut sum = 0;
    for i in 0..n {
        sum += balance(repo, i)?;
    }
    Ok(sum)
}

/// Number of clearinghouse log entries (one per completed transfer),
/// summed across partition stores.
pub fn clearing_count(repo: &Repository) -> CoreResult<usize> {
    let mut n = 0;
    for p in 0..repo.partitions() {
        n += repo.store_at(p).scan_prefix(None, b"bank/clearing/")?.len();
    }
    Ok(n)
}

/// Race-detector cell name of one account balance. Every mutation goes
/// through [`adjust`]'s exclusive lock; a write reported on this cell
/// without that lock is a bug (see the rrq-check negative test).
pub fn account_cell(i: u32) -> String {
    format!("bank/acct/{i:08}")
}

fn adjust(ctx: &ServerCtx<'_>, account: u32, delta: i64) -> Result<(), HandlerError> {
    let lock = LockKey::new(BANK_NS, account_key(account));
    ctx.txn
        .lock_exclusive(&lock)
        .map_err(|e| HandlerError::Abort(e.to_string()))?;
    let txn = ctx.txn.id().raw();
    ctx.repo.obs().on_read(|| account_cell(account));
    let bal = ctx
        .store()
        .get_with(Some(txn), &lock.key, |raw| {
            raw.map_or(0, |raw| {
                i64::from_le_bytes(raw.try_into().unwrap_or([0; 8]))
            })
        })
        .map_err(|e| HandlerError::Abort(e.to_string()))?;
    ctx.repo.obs().on_write(|| account_cell(account));
    ctx.store()
        .put(txn, lock.key, &(bal + delta).to_le_bytes())
        .map_err(|e| HandlerError::Abort(e.to_string()))?;
    Ok(())
}

fn log_clearing(ctx: &ServerCtx<'_>, req: &Request, t: &Transfer) -> Result<(), HandlerError> {
    ctx.store()
        .put(ctx.txn.id().raw(), clearing_key(&req.rid), t.encode())
        .map_err(|e| HandlerError::Abort(e.to_string()))
}

/// Single-transaction transfer handler ("one long transaction", §6) for the
/// `transfer` op: debit + credit + clearinghouse log, all in one commit.
pub fn single_txn_handler() -> Handler {
    Arc::new(|ctx, req| {
        let t = Transfer::decode(&req.body).map_err(|e| HandlerError::Reject(e.to_string()))?;
        adjust(ctx, t.from, -t.amount)?;
        adjust(ctx, t.to, t.amount)?;
        log_clearing(ctx, req, &t)?;
        Ok(HandlerOutcome::Reply(b"transferred".to_vec()))
    })
}

/// Build the paper's three-transaction pipeline over `queues` (exactly 3):
/// stage 0 debits, stage 1 credits, stage 2 logs with the clearinghouse and
/// replies.
pub fn transfer_pipeline(queues: [&str; 3], mode: Serializability) -> Pipeline {
    let stage_fn: StageFn = Arc::new(move |ctx, req, i| {
        let t = Transfer::decode(&req.body).map_err(|e| HandlerError::Reject(e.to_string()))?;
        match i {
            0 => {
                adjust(ctx, t.from, -t.amount)?;
                Ok(StageResult::Next(b"debited".to_vec()))
            }
            1 => {
                adjust(ctx, t.to, t.amount)?;
                Ok(StageResult::Next(b"credited".to_vec()))
            }
            _ => {
                log_clearing(ctx, req, &t)?;
                Ok(StageResult::Done(b"transferred".to_vec()))
            }
        }
    });
    Pipeline {
        queues: queues.iter().map(|q| q.to_string()).collect(),
        stage_fn,
        mode,
    }
}

/// A transfer server that aborts with probability ~`abort_pct`% (driven by
/// the request serial, so it is deterministic): exercises retry/error-queue
/// paths under the bank workload.
pub fn flaky_transfer_handler(abort_every: u64) -> Handler {
    let inner = single_txn_handler();
    Arc::new(move |ctx, req| {
        if abort_every > 0 && req.rid.serial % abort_every == 0 {
            // Fail the first `retry` attempts of every abort_every-th
            // request: the element's abort count saves it eventually.
            let attempts = ctx
                .store()
                .get(
                    None,
                    &format!("bank/flaky/{}", req.rid.to_attr()).into_bytes(),
                )
                .ok()
                .flatten()
                .map(|v| v.first().copied().unwrap_or(0))
                .unwrap_or(0);
            if attempts < 2 {
                // Track attempts outside the aborting transaction.
                let t = u64::MAX - 3000 - req.rid.serial;
                let _ = ctx.store().begin(t);
                let _ = ctx.store().put(
                    t,
                    format!("bank/flaky/{}", req.rid.to_attr()).into_bytes(),
                    &[attempts + 1],
                );
                let _ = ctx.store().commit(t);
                return Err(HandlerError::Abort("injected fault".into()));
            }
        }
        inner(ctx, req)
    })
}

/// Compensation server for cancelled transfers (§7 sagas): handles
/// `undo-debit` / `undo-credit` ops by applying the inverse adjustment.
pub fn compensation_server(repo: &Arc<Repository>, queue: &str) -> CoreResult<Arc<Server>> {
    let handler: Handler = Arc::new(|ctx, req| {
        let t = Transfer::decode(&req.body).map_err(|e| HandlerError::Reject(e.to_string()))?;
        match req.op.as_str() {
            "undo-debit" => adjust(ctx, t.from, t.amount)?,
            "undo-credit" => adjust(ctx, t.to, -t.amount)?,
            other => {
                return Err(HandlerError::Reject(format!(
                    "unknown compensation {other}"
                )))
            }
        }
        Ok(HandlerOutcome::Reply(b"compensated".to_vec()))
    });
    Server::new(
        Arc::clone(repo),
        ServerConfig::new("compensator", queue),
        handler,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrq_core::api::{LocalQm, QmApi};
    use rrq_core::request::Reply;
    use rrq_core::rid::Rid;
    use rrq_qm::ops::{DequeueOptions, EnqueueOptions};
    use rrq_storage::codec::{Decode, Encode};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    #[test]
    fn transfer_codec_roundtrip() {
        let t = Transfer {
            from: 1,
            to: 2,
            amount: -500,
        };
        assert_eq!(Transfer::decode(&t.encode()).unwrap(), t);
    }

    #[test]
    fn single_txn_transfer_conserves_money() {
        let repo = Arc::new(Repository::create("bank1").unwrap());
        repo.create_queue_defaults("req").unwrap();
        repo.create_queue_defaults("reply.c").unwrap();
        seed_accounts(&repo, 4, 10_000).unwrap();

        let server = Server::new(
            Arc::clone(&repo),
            ServerConfig::new("s", "req"),
            single_txn_handler(),
        )
        .unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let h = server.spawn(Arc::clone(&stop));

        let api = LocalQm::new(Arc::clone(&repo));
        api.register("req", "c", false).unwrap();
        api.register("reply.c", "c", false).unwrap();
        let t = Transfer {
            from: 0,
            to: 3,
            amount: 2_500,
        };
        let req = Request::new(Rid::new("c", 1), "reply.c", "transfer", t.encode());
        api.enqueue("req", "c", &req.encode_to_vec(), EnqueueOptions::default())
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
        assert_eq!(reply.body, b"transferred");
        assert_eq!(balance(&repo, 0).unwrap(), 7_500);
        assert_eq!(balance(&repo, 3).unwrap(), 12_500);
        assert_eq!(total_money(&repo, 4).unwrap(), 40_000);
        assert_eq!(clearing_count(&repo).unwrap(), 1);

        stop.store(true, Ordering::Relaxed);
        h.join().unwrap();
    }

    #[test]
    fn pipelined_transfer_conserves_money() {
        let repo = Arc::new(Repository::create("bank3").unwrap());
        for q in ["xfer0", "xfer1", "xfer2", "reply.c"] {
            repo.create_queue_defaults(q).unwrap();
        }
        seed_accounts(&repo, 2, 1_000).unwrap();
        let pipeline = transfer_pipeline(["xfer0", "xfer1", "xfer2"], Serializability::None);
        let servers = pipeline.build_servers(&repo).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let handles: Vec<_> = servers.iter().map(|s| s.spawn(Arc::clone(&stop))).collect();

        let api = LocalQm::new(Arc::clone(&repo));
        api.register("xfer0", "c", false).unwrap();
        api.register("reply.c", "c", false).unwrap();
        let t = Transfer {
            from: 0,
            to: 1,
            amount: 300,
        };
        let req = Request::new(Rid::new("c", 1), "reply.c", "transfer", t.encode());
        api.enqueue(
            "xfer0",
            "c",
            &req.encode_to_vec(),
            EnqueueOptions::default(),
        )
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
        assert_eq!(reply.body, b"transferred");
        assert_eq!(balance(&repo, 0).unwrap(), 700);
        assert_eq!(balance(&repo, 1).unwrap(), 1_300);
        assert_eq!(total_money(&repo, 2).unwrap(), 2_000);
        assert_eq!(clearing_count(&repo).unwrap(), 1);

        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn compensation_reverses_a_stage() {
        let repo = Arc::new(Repository::create("bank-comp").unwrap());
        repo.create_queue_defaults("comp").unwrap();
        repo.create_queue_defaults("reply.c").unwrap();
        seed_accounts(&repo, 2, 1_000).unwrap();
        // Simulate: debit committed (stage 0), then the request is
        // cancelled; the compensation credits the money back.
        let t_raw = u64::MAX - 500;
        repo.store().begin(t_raw).unwrap();
        repo.store()
            .put(t_raw, account_key(0), &700i64.to_le_bytes())
            .unwrap();
        repo.store().commit(t_raw).unwrap();
        assert_eq!(total_money(&repo, 2).unwrap(), 1_700, "mid-request");

        let server = compensation_server(&repo, "comp").unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let h = server.spawn(Arc::clone(&stop));

        let api = LocalQm::new(Arc::clone(&repo));
        api.register("comp", "c", false).unwrap();
        api.register("reply.c", "c", false).unwrap();
        let t = Transfer {
            from: 0,
            to: 1,
            amount: 300,
        };
        let req = Request::new(Rid::new("c", 9), "reply.c", "undo-debit", t.encode());
        api.enqueue("comp", "c", &req.encode_to_vec(), EnqueueOptions::default())
            .unwrap();
        let _ = api
            .dequeue(
                "reply.c",
                "c",
                DequeueOptions {
                    block: Some(Duration::from_secs(10)),
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(balance(&repo, 0).unwrap(), 1_000, "debit undone");
        assert_eq!(total_money(&repo, 2).unwrap(), 2_000);

        stop.store(true, Ordering::Relaxed);
        h.join().unwrap();
    }
}
