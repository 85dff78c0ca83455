//! The §2 design comparison: how should a client's
//! {send request, receive reply, process reply} sequence be transacted?
//!
//! The paper walks through three designs:
//!
//! 1. **One transaction** — everything, including reply processing, inside
//!    one transaction. Correct, but "processing the reply may be slow, which
//!    creates contention for resources (e.g., locks) that the server must
//!    hold until the transaction commits".
//! 2. **Two transactions** — only {send, receive} inside the transaction;
//!    reply processing outside (risking a lost reply on a crash between).
//! 3. **Three transactions + two recoverable queues** — the paper's design:
//!    submit, process, and reply-handling each commit separately; no lock is
//!    ever held across user think time, at the cost of queue overhead.
//!
//! These runners execute the same logical workload (debit an account,
//! prepare a reply, "process" it for a think-time) under each design and
//! report throughput — experiment E3 regenerates the paper's qualitative
//! claim: design 1 collapses under contention × think time, design 3 stays
//! flat and pays only a constant queueing overhead.

use rrq_core::error::{CoreError, CoreResult};
use rrq_core::request::{Reply, Request};
use rrq_core::rid::Rid;
use rrq_qm::ops::{DequeueOptions, EnqueueOptions, QueueHandle};
use rrq_qm::repository::Repository;
use rrq_qm::QmError;
use rrq_storage::codec::{Decode, Encode};
use rrq_txn::{LockKey, TxnError};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Lock namespace for the shared account table.
pub const ACCOUNT_NS: u32 = 42;

/// Workload parameters shared by the three designs.
#[derive(Debug, Clone)]
pub struct DesignWorkload {
    /// Number of bank accounts (smaller = more contention).
    pub accounts: usize,
    /// Concurrent clients.
    pub clients: usize,
    /// Requests per client.
    pub requests_per_client: usize,
    /// Simulated reply-processing (user think) time.
    pub think: Duration,
    /// RNG seed for account selection.
    pub seed: u64,
}

/// What a design run measured.
#[derive(Debug, Clone, Copy)]
pub struct DesignMetrics {
    /// Requests completed.
    pub completed: u64,
    /// Wall-clock duration.
    pub elapsed: Duration,
    /// Requests per second.
    pub throughput: f64,
    /// Lock timeouts + deadlocks encountered (work was retried).
    pub lock_conflicts: u64,
}

fn account_key(i: usize) -> Vec<u8> {
    format!("acct/{i:06}").into_bytes()
}

/// Create `n` accounts with balance 1_000_000.
pub fn seed_accounts(repo: &Repository, n: usize) -> CoreResult<()> {
    let store = repo.store();
    store.begin(u64::MAX - 7)?;
    for i in 0..n {
        store.put(u64::MAX - 7, account_key(i), &1_000_000i64.to_le_bytes())?;
    }
    store.commit(u64::MAX - 7)?;
    Ok(())
}

/// Sum of all account balances (conservation check).
pub fn total_balance(repo: &Repository, n: usize) -> CoreResult<i64> {
    let store = repo.store();
    let mut sum = 0i64;
    for i in 0..n {
        if let Some(raw) = store.get(None, &account_key(i))? {
            sum += i64::from_le_bytes(raw.try_into().unwrap_or([0; 8]));
        }
    }
    Ok(sum)
}

fn debit(repo: &Repository, txn: u64, account: usize, amount: i64) -> CoreResult<()> {
    let key = account_key(account);
    let bal = repo
        .store()
        .get(Some(txn), &key)?
        .map(|raw| i64::from_le_bytes(raw.try_into().unwrap_or([0; 8])))
        .unwrap_or(0);
    repo.store().put(txn, &key, &(bal - amount).to_le_bytes())?;
    Ok(())
}

/// A simple deterministic PRNG (splitmix64) to avoid coupling the run to
/// the `rand` crate's thread RNG.
struct Mix(u64);
impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Design 1: {update, build reply, process reply} in ONE transaction — the
/// account lock is held through the think time.
pub fn run_one_txn(repo: &Arc<Repository>, w: &DesignWorkload) -> CoreResult<DesignMetrics> {
    run_direct(repo, w, true)
}

/// Design 2: the transaction covers only the update; reply processing
/// happens after commit, with no locks held.
pub fn run_two_txn(repo: &Arc<Repository>, w: &DesignWorkload) -> CoreResult<DesignMetrics> {
    run_direct(repo, w, false)
}

fn run_direct(
    repo: &Arc<Repository>,
    w: &DesignWorkload,
    think_inside_txn: bool,
) -> CoreResult<DesignMetrics> {
    let conflicts = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let mut handles = Vec::new();
    for c in 0..w.clients {
        let repo = Arc::clone(repo);
        let w = w.clone();
        let conflicts = Arc::clone(&conflicts);
        handles.push(rrq_core::threads::spawn_named(
            format!("rrq-d1c{c}"),
            move || -> CoreResult<u64> {
                let mut rng = Mix(w.seed ^ (c as u64) << 32);
                let mut done = 0u64;
                for _ in 0..w.requests_per_client {
                    let account = (rng.next() as usize) % w.accounts;
                    loop {
                        let txn = repo.begin()?;
                        let lk = LockKey::new(ACCOUNT_NS, account_key(account));
                        match txn.lock_exclusive(&lk) {
                            Ok(()) => {}
                            Err(TxnError::Deadlock { .. }) | Err(TxnError::LockTimeout) => {
                                conflicts.fetch_add(1, Ordering::AcqRel);
                                txn.abort()?;
                                continue;
                            }
                            Err(e) => return Err(e.into()),
                        }
                        debit(&repo, txn.id().raw(), account, 1)?;
                        if think_inside_txn && !w.think.is_zero() {
                            std::thread::sleep(w.think); // reply processed in-txn
                        }
                        txn.commit()?;
                        break;
                    }
                    if !think_inside_txn && !w.think.is_zero() {
                        std::thread::sleep(w.think); // reply processed post-commit
                    }
                    done += 1;
                }
                Ok(done)
            },
        ));
    }
    let mut completed = 0;
    for h in handles {
        completed += h.join().expect("client thread panicked")?;
    }
    let elapsed = start.elapsed();
    Ok(DesignMetrics {
        completed,
        elapsed,
        throughput: completed as f64 / elapsed.as_secs_f64().max(1e-9),
        lock_conflicts: conflicts.load(Ordering::Acquire),
    })
}

/// Design 3: the paper's queued architecture — clients enqueue requests,
/// a server pool processes them (one transaction each, no think time under
/// locks), clients dequeue replies and think outside any transaction.
pub fn run_queued(
    repo: &Arc<Repository>,
    w: &DesignWorkload,
    servers: usize,
) -> CoreResult<DesignMetrics> {
    // Queues for this run.
    let req_q = "design3.req";
    let _ = repo.create_queue_defaults(req_q);
    for c in 0..w.clients {
        let _ = repo.create_queue_defaults(&format!("design3.reply.{c}"));
    }

    // Server pool.
    let stop = Arc::new(AtomicBool::new(false));
    let conflicts = Arc::new(AtomicU64::new(0));
    let mut server_handles = Vec::new();
    for s in 0..servers {
        let repo = Arc::clone(repo);
        let stop = Arc::clone(&stop);
        let conflicts = Arc::clone(&conflicts);
        server_handles.push(rrq_core::threads::spawn_named(
            format!("rrq-d3s{s}"),
            move || -> CoreResult<()> {
                let (h, _) = repo.qm().register(req_q, &format!("d3s{s}"), false)?;
                while !stop.load(Ordering::Acquire) {
                    let txn = repo.begin()?;
                    let elem = match repo.qm().dequeue(
                        txn.id().raw(),
                        &h,
                        DequeueOptions {
                            block: Some(Duration::from_millis(50)),
                            ..Default::default()
                        },
                    ) {
                        Ok(e) => e,
                        Err(QmError::Empty(_)) => {
                            txn.abort()?;
                            continue;
                        }
                        Err(e) => {
                            let _ = txn.abort();
                            return Err(e.into());
                        }
                    };
                    let req = Request::decode_all(&elem.payload).map_err(CoreError::Storage)?;
                    let account: usize = String::from_utf8_lossy(&req.body).parse().unwrap_or(0);
                    let lk = LockKey::new(ACCOUNT_NS, account_key(account));
                    match txn.lock_exclusive(&lk) {
                        Ok(()) => {}
                        Err(TxnError::Deadlock { .. }) | Err(TxnError::LockTimeout) => {
                            conflicts.fetch_add(1, Ordering::AcqRel);
                            txn.abort()?; // request returns to the queue
                            continue;
                        }
                        Err(e) => return Err(e.into()),
                    }
                    debit(&repo, txn.id().raw(), account, 1)?;
                    let reply = Reply::ok(req.rid.clone(), b"done".to_vec());
                    let rh = QueueHandle {
                        queue: req.reply_queue.clone(),
                        registrant: format!("d3s{s}"),
                    };
                    repo.qm().enqueue(
                        txn.id().raw(),
                        &rh,
                        &reply.encode_to_vec(),
                        EnqueueOptions::default(),
                    )?;
                    txn.commit()?;
                }
                Ok(())
            },
        ));
    }

    // Clients.
    let start = Instant::now();
    let mut client_handles = Vec::new();
    for c in 0..w.clients {
        let repo = Arc::clone(repo);
        let w = w.clone();
        client_handles.push(rrq_core::threads::spawn_named(
            format!("rrq-d3c{c}"),
            move || -> CoreResult<u64> {
                let reply_q = format!("design3.reply.{c}");
                let (req_h, _) = repo.qm().register(req_q, &format!("d3c{c}"), false)?;
                let (rep_h, _) = repo.qm().register(&reply_q, &format!("d3c{c}"), false)?;
                let mut rng = Mix(w.seed ^ (c as u64) << 32);
                let mut done = 0u64;
                for i in 0..w.requests_per_client {
                    let account = (rng.next() as usize) % w.accounts;
                    let rid = Rid::new(format!("d3c{c}"), i as u64 + 1);
                    let req = Request::new(
                        rid,
                        reply_q.clone(),
                        "debit",
                        account.to_string().into_bytes(),
                    );
                    // Txn 1: submit.
                    repo.autocommit(|t| {
                        repo.qm().enqueue(
                            t.id().raw(),
                            &req_h,
                            &req.encode_to_vec(),
                            EnqueueOptions::default(),
                        )
                    })?;
                    // Txn 3: receive the reply…
                    repo.autocommit(|t| {
                        repo.qm().dequeue(
                            t.id().raw(),
                            &rep_h,
                            DequeueOptions {
                                block: Some(Duration::from_secs(30)),
                                ..Default::default()
                            },
                        )
                    })?;
                    // …and process it with no transaction open.
                    if !w.think.is_zero() {
                        std::thread::sleep(w.think);
                    }
                    done += 1;
                }
                Ok(done)
            },
        ));
    }

    let mut completed = 0;
    for h in client_handles {
        completed += h.join().expect("client thread panicked")?;
    }
    let elapsed = start.elapsed();
    stop.store(true, Ordering::Release);
    for h in server_handles {
        h.join().expect("server thread panicked")?;
    }
    Ok(DesignMetrics {
        completed,
        elapsed,
        throughput: completed as f64 / elapsed.as_secs_f64().max(1e-9),
        lock_conflicts: conflicts.load(Ordering::Acquire),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload(think_ms: u64) -> DesignWorkload {
        DesignWorkload {
            accounts: 2, // hot
            clients: 4,
            requests_per_client: 10,
            think: Duration::from_millis(think_ms),
            seed: 7,
        }
    }

    #[test]
    fn all_designs_complete_and_conserve_money() {
        for (name, runner) in [
            (
                "one",
                run_one_txn as fn(&Arc<Repository>, &DesignWorkload) -> CoreResult<DesignMetrics>,
            ),
            ("two", run_two_txn),
        ] {
            let repo = Arc::new(Repository::create(format!("design-{name}")).unwrap());
            let w = workload(0);
            seed_accounts(&repo, w.accounts).unwrap();
            let m = runner(&repo, &w).unwrap();
            assert_eq!(m.completed, 40, "{name}");
            let expect = 1_000_000 * w.accounts as i64 - 40;
            assert_eq!(total_balance(&repo, w.accounts).unwrap(), expect, "{name}");
        }
        let repo = Arc::new(Repository::create("design-q").unwrap());
        let w = workload(0);
        seed_accounts(&repo, w.accounts).unwrap();
        let m = run_queued(&repo, &w, 2).unwrap();
        assert_eq!(m.completed, 40);
        let expect = 1_000_000 * w.accounts as i64 - 40;
        assert_eq!(total_balance(&repo, w.accounts).unwrap(), expect);
    }

    #[test]
    fn think_time_under_locks_hurts_design_one_most() {
        // Qualitative shape check (the real sweep is bench E3): with hot
        // accounts and think time, design 1 must be measurably slower than
        // design 2 (locks released before thinking).
        let w = DesignWorkload {
            accounts: 1,
            clients: 4,
            requests_per_client: 5,
            think: Duration::from_millis(10),
            seed: 1,
        };
        let repo1 = Arc::new(Repository::create("d1").unwrap());
        seed_accounts(&repo1, 1).unwrap();
        let m1 = run_one_txn(&repo1, &w).unwrap();
        let repo2 = Arc::new(Repository::create("d2").unwrap());
        seed_accounts(&repo2, 1).unwrap();
        let m2 = run_two_txn(&repo2, &w).unwrap();
        assert!(
            m1.elapsed > m2.elapsed,
            "one-txn {:?} should exceed two-txn {:?}",
            m1.elapsed,
            m2.elapsed
        );
    }
}
