//! The transaction manager: lifecycle, enlistment, locking helpers, and
//! atomic commitment across one or more resource managers.
//!
//! The server loop of Fig 5 maps onto this API directly:
//!
//! ```text
//! start-transaction          → TxnManager::begin + Txn::enlist(queue store)
//! request = Dequeue(q-in)    → queue op under txn.id()
//! process request            → app-store ops under txn.id()
//! Enqueue(q-out, reply)      → queue op under txn.id()
//! commit-transaction         → Txn::commit  (1PC, or 2PC deciding in the
//!                                             first participant's commit)
//! ```
//!
//! Aborting at any point (crash, deadlock victim, handler failure) undoes
//! the dequeue, "thereby returning the request to the request queue" (§5).

use crate::error::{TxnError, TxnResult};
use crate::ids::{TxnId, TxnIdGen};
use crate::lock::{bump, LockKey, LockManager, LockMode};
use crate::rm::ResourceManager;
use parking_lot::Mutex;
use rrq_storage::StorageError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Aggregate transaction counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxnStats {
    /// Transactions begun.
    pub begun: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Transactions aborted.
    pub aborted: u64,
    /// Commits that used the two-phase protocol.
    pub two_phase_commits: u64,
}

/// [`TxnStats`] as it is counted: one atomic per field, so beginning or
/// finishing a transaction takes no lock (as `LockStats` and `QmStats`).
#[derive(Default)]
struct TxnCounters {
    begun: AtomicU64,
    committed: AtomicU64,
    aborted: AtomicU64,
    two_phase_commits: AtomicU64,
}

struct Inner {
    ids: Arc<TxnIdGen>,
    locks: Arc<LockManager>,
    /// Two-phase transactions whose every participant's commit returned: the
    /// next decision deletes their rows (so a manager's two-phase commits
    /// should share their first participant, as a partition's do).
    forgettable: Mutex<Vec<TxnId>>,
    /// Lock-wait timeout in milliseconds (atomic so it can be tuned live).
    lock_timeout_ms: AtomicU64,
    stats: TxnCounters,
}

impl Inner {
    fn lock_timeout(&self) -> Duration {
        Duration::from_millis(self.lock_timeout_ms.load(Ordering::Acquire))
    }
}

/// Shared, cheaply clonable transaction manager. One per node.
#[derive(Clone)]
pub struct TxnManager {
    inner: Arc<Inner>,
}

impl TxnManager {
    /// Build a manager.
    ///
    /// * `locks` — the node's lock manager.
    /// * `id_floor` — first transaction id to issue (pass a recovered
    ///   high-water mark after a restart).
    pub fn new(locks: Arc<LockManager>, id_floor: u64) -> Self {
        Self::with_shared(locks, Arc::new(TxnIdGen::new(id_floor)))
    }

    /// Build a manager around a *shared* id generator: several managers
    /// (one per repository partition) draw from it, so transaction ids
    /// (which key lock tables, store tokens and decision rows) stay unique
    /// across the whole cluster.
    pub fn with_shared(locks: Arc<LockManager>, ids: Arc<TxnIdGen>) -> Self {
        TxnManager {
            inner: Arc::new(Inner {
                ids,
                locks,
                forgettable: Mutex::new(Vec::new()),
                lock_timeout_ms: AtomicU64::new(5_000),
                stats: TxnCounters::default(),
            }),
        }
    }

    /// Manager with a fresh lock manager — the common single-store setup.
    pub fn single_node() -> Self {
        TxnManager::new(Arc::new(LockManager::new()), 1)
    }

    /// Override the lock-wait timeout (default 5 s).
    pub fn set_lock_timeout(&self, timeout: Duration) {
        self.inner
            .lock_timeout_ms
            .store(timeout.as_millis() as u64, Ordering::Release);
    }

    /// Begin a new transaction.
    pub fn begin(&self) -> Txn {
        bump(&self.inner.stats.begun);
        Txn {
            id: self.inner.ids.next(),
            mgr: self.clone(),
            rms: Mutex::new(Vec::new()),
            finished: false,
        }
    }

    /// Allocate an id without opening a transaction — used as a parking slot
    /// for inherited locks between the stages of a multi-transaction request.
    pub fn reserve_id(&self) -> TxnId {
        self.inner.ids.next()
    }

    /// The node's lock manager.
    pub fn locks(&self) -> &Arc<LockManager> {
        &self.inner.locks
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TxnStats {
        let c = &self.inner.stats;
        TxnStats {
            begun: c.begun.load(Ordering::Acquire),
            committed: c.committed.load(Ordering::Acquire),
            aborted: c.aborted.load(Ordering::Acquire),
            two_phase_commits: c.two_phase_commits.load(Ordering::Acquire),
        }
    }
}

/// An open transaction. Consumed by [`Txn::commit`] / [`Txn::abort`];
/// dropping it without either aborts (so a panicking server thread releases
/// its locks and its dequeues are undone — the paper's crash behaviour).
pub struct Txn {
    id: TxnId,
    mgr: TxnManager,
    /// Enlisted participants. Behind a mutex so mid-transaction code holding
    /// only `&Txn` (e.g. a server handler touching a remote repository
    /// partition) can still enlist.
    rms: Mutex<Vec<Arc<dyn ResourceManager>>>,
    finished: bool,
}

impl Txn {
    /// This transaction's id (pass as the token to enlisted stores).
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// Enlist a participant. Idempotent per participant name.
    pub fn enlist(&self, rm: Arc<dyn ResourceManager>) -> TxnResult<()> {
        let mut rms = self.rms.lock();
        if rms.iter().any(|r| r.name() == rm.name()) {
            return Ok(());
        }
        rm.begin(self.id)?;
        rms.push(rm);
        Ok(())
    }

    /// Number of enlisted participants (a commit with more than one runs the
    /// two-phase protocol, coordinated by the first).
    pub fn enlisted(&self) -> usize {
        self.rms.lock().len()
    }

    /// Acquire an exclusive lock, blocking up to the manager's timeout.
    pub fn lock_exclusive(&self, key: &LockKey) -> TxnResult<()> {
        self.mgr.inner.locks.lock(
            self.id.raw(),
            key,
            LockMode::Exclusive,
            self.mgr.inner.lock_timeout(),
        )
    }

    /// Commit: one-phase for a single participant, two-phase for several —
    /// the others prepare, then the first commits with the decision row
    /// ([`ResourceManager::commit_deciding`]), then the others commit. Locks
    /// are released on success. A failed prepare aborts every participant; a
    /// failed one-phase commit is undone in memory, its record, if any, left
    /// to the reopen (counted neither committed nor aborted). From the
    /// deciding commit on, a failure is [`TxnError::InDoubt`]: nothing aborts
    /// and the locks stay held until the reopen decides it.
    pub fn commit(self) -> TxnResult<()> {
        self.commit_with_heir(None)
    }

    /// Commit, but *transfer* this transaction's locks to `heir` instead of
    /// releasing them — §6 lock inheritance for multi-transaction requests.
    pub fn commit_inheriting_locks(self, heir: TxnId) -> TxnResult<()> {
        self.commit_with_heir(Some(heir))
    }

    fn commit_with_heir(mut self, heir: Option<TxnId>) -> TxnResult<()> {
        self.finished = true;
        let rms = std::mem::take(&mut *self.rms.lock());
        let (id, locks) = (self.id.raw(), &self.mgr.inner.locks);
        // Transfer BEFORE the commit makes this transaction's writes (e.g.
        // the forwarded request element) visible: the next stage may dequeue
        // the request and adopt the heir's locks the instant commit lands.
        // Nothing else can touch the heir id until then, so on a failure
        // before the decision the transfer is safely reversed.
        if let Some(heir) = heir {
            locks.transfer_locks(id, heir.raw());
        }
        let stats = &self.mgr.inner.stats;
        let result = match commit_impl(&self.mgr, self.id, &rms) {
            Ok(()) => {
                bump(&stats.committed);
                Ok(())
            }
            Err(CommitFailure::Undecided(e)) => {
                if let Some(heir) = heir {
                    locks.transfer_locks(heir.raw(), id);
                }
                // The commit's error is the one to report. Only a failed
                // prepare aborts for good; a one-phase record is the reopen's.
                let _ = abort_impl(self.id, &rms);
                if rms.len() > 1 {
                    bump(&stats.aborted);
                }
                Err(e)
            }
            // Held until the reopen, by the heir if there is one (the next
            // stage may have adopted them already): a lock given up now
            // could let another transaction take what the reopen commits.
            Err(CommitFailure::InDoubt(e)) => return Err(e),
        };
        // With an heir, what is left here is nothing.
        locks.unlock_all(id);
        result
    }

    /// Abort: undo every participant, release locks. Every participant is
    /// told even if one fails; the first failure is returned (a participant
    /// that never heard of the transaction has nothing to undo).
    pub fn abort(mut self) -> TxnResult<()> {
        self.finished = true;
        let rms = std::mem::take(&mut *self.rms.lock());
        let result = abort_impl(self.id, &rms);
        self.mgr.inner.locks.unlock_all(self.id.raw());
        bump(&self.mgr.inner.stats.aborted);
        result
    }
}

impl Drop for Txn {
    fn drop(&mut self) {
        if !self.finished {
            let rms = std::mem::take(&mut *self.rms.lock());
            let _ = abort_impl(self.id, &rms);
            self.mgr.inner.locks.unlock_all(self.id.raw());
            bump(&self.mgr.inner.stats.aborted);
        }
    }
}

/// How a commit failed: where undoing it in memory is safe (a prepare, or
/// the only participant's commit, whose failed log commits nothing else
/// before a reopen), or later, when only a reopen decides the transaction.
enum CommitFailure {
    Undecided(TxnError),
    InDoubt(TxnError),
}

fn commit_impl(
    mgr: &TxnManager,
    id: TxnId,
    rms: &[Arc<dyn ResourceManager>],
) -> Result<(), CommitFailure> {
    match rms {
        [] => Ok(()),
        [only] => only.commit(id).map_err(CommitFailure::Undecided),
        [coordinator, others @ ..] => {
            let obs = mgr.inner.locks.obs();
            obs.counter_inc("txn.twophase.rounds");
            for rm in others {
                rm.prepare(id).map_err(|e| {
                    CommitFailure::Undecided(TxnError::PrepareFailed(format!("{}: {e}", rm.name())))
                })?;
            }
            let forgettable = &mgr.inner.forgettable;
            let forget = std::mem::take(&mut *forgettable.lock());
            if let Err(e) = coordinator.commit_deciding(id, &forget) {
                // Its record may be on the device, for a reopen to commit
                // every sibling by; the rows in `forget` wait for its sweep.
                let e = TxnError::InDoubt(format!("{}: {e}", coordinator.name()));
                return Err(CommitFailure::InDoubt(e));
            }
            obs.counter_inc("txn.twophase.decisions");
            bump(&mgr.inner.stats.two_phase_commits);
            // Decided: every participant is told, whichever of them fails. A
            // failed one stays prepared, and recovery resolves it from the
            // decision row, which stays; aborting it, or skipping the rest,
            // would undo half of a committed transaction.
            let mut first = None;
            for rm in others {
                if let Err(e) = rm.commit(id) {
                    first.get_or_insert_with(|| TxnError::InDoubt(format!("{}: {e}", rm.name())));
                }
            }
            match first {
                None => {
                    forgettable.lock().push(id);
                    Ok(())
                }
                Some(e) => Err(CommitFailure::InDoubt(e)),
            }
        }
    }
}

/// Abort every participant, and return the first failure that is not "no
/// such transaction" (a participant that already aborted, or never saw the
/// transaction, has nothing to undo).
fn abort_impl(id: TxnId, rms: &[Arc<dyn ResourceManager>]) -> TxnResult<()> {
    let mut first = None;
    for rm in rms {
        match rm.abort(id) {
            Ok(()) | Err(TxnError::Storage(StorageError::UnknownTxn(_))) => {}
            Err(e) => {
                first.get_or_insert(e);
            }
        }
    }
    first.map_or(Ok(()), Err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rm::KvResource;
    use crate::twophase::{decision_key, resolve_in_doubt};
    use rrq_storage::disk::{CrashStyle, Disk, SimDisk};
    use rrq_storage::kv::KvStore;

    fn kv_on(wal: &SimDisk, ckpt: &SimDisk) -> Arc<KvStore> {
        KvStore::open(
            Arc::new(wal.clone()),
            Arc::new(ckpt.clone()),
            rrq_obs::Obs::default(),
        )
        .unwrap()
        .0
    }

    #[test]
    fn single_rm_commit_applies() {
        let mgr = TxnManager::single_node();
        let (wal, ckpt) = (SimDisk::new(), SimDisk::new());
        let store = kv_on(&wal, &ckpt);
        let rm: Arc<dyn ResourceManager> = Arc::new(KvResource::new("db", Arc::clone(&store)));

        let txn = mgr.begin();
        txn.enlist(Arc::clone(&rm)).unwrap();
        store.put(txn.id().raw(), b"k", b"v").unwrap();
        txn.commit().unwrap();
        assert_eq!(store.get(None, b"k").unwrap(), Some(b"v".to_vec()));
        assert_eq!(mgr.stats().committed, 1);
        assert_eq!(mgr.stats().two_phase_commits, 0);
    }

    #[test]
    fn abort_undoes_and_releases_locks() {
        let mgr = TxnManager::single_node();
        let (wal, ckpt) = (SimDisk::new(), SimDisk::new());
        let store = kv_on(&wal, &ckpt);
        let rm: Arc<dyn ResourceManager> = Arc::new(KvResource::new("db", Arc::clone(&store)));

        let txn = mgr.begin();
        txn.enlist(Arc::clone(&rm)).unwrap();
        let k = LockKey::new(0, "k");
        txn.lock_exclusive(&k).unwrap();
        store.put(txn.id().raw(), b"k", b"v").unwrap();
        let id = txn.id();
        txn.abort().unwrap();
        assert_eq!(store.get(None, b"k").unwrap(), None);
        assert_eq!(mgr.locks().held_count(id.raw()), 0);
    }

    #[test]
    fn drop_without_commit_aborts() {
        let mgr = TxnManager::single_node();
        let (wal, ckpt) = (SimDisk::new(), SimDisk::new());
        let store = kv_on(&wal, &ckpt);
        let rm: Arc<dyn ResourceManager> = Arc::new(KvResource::new("db", Arc::clone(&store)));
        {
            let txn = mgr.begin();
            txn.enlist(Arc::clone(&rm)).unwrap();
            store.put(txn.id().raw(), b"k", b"v").unwrap();
            // dropped here — simulating a crashed server thread
        }
        assert_eq!(store.get(None, b"k").unwrap(), None);
        assert_eq!(mgr.stats().aborted, 1);
    }

    #[test]
    fn two_rm_commit_is_atomic() {
        let mgr = TxnManager::single_node();
        let (w1, c1) = (SimDisk::new(), SimDisk::new());
        let (w2, c2) = (SimDisk::new(), SimDisk::new());
        let s1 = kv_on(&w1, &c1);
        let s2 = kv_on(&w2, &c2);
        let r1: Arc<dyn ResourceManager> = Arc::new(KvResource::new("a", Arc::clone(&s1)));
        let r2: Arc<dyn ResourceManager> = Arc::new(KvResource::new("b", Arc::clone(&s2)));
        let row = |s: &KvStore, id: TxnId| s.get(None, &decision_key(id)).unwrap();

        let mut ids = Vec::new();
        for (k, v) in [(b"x", b"1"), (b"y", b"2")] {
            let txn = mgr.begin();
            ids.push(txn.id());
            txn.enlist(Arc::clone(&r1)).unwrap();
            txn.enlist(Arc::clone(&r2)).unwrap();
            s1.put(txn.id().raw(), k, v).unwrap();
            s2.put(txn.id().raw(), k, v).unwrap();
            txn.commit().unwrap();
            assert_eq!(s1.get(None, k).unwrap(), Some(v.to_vec()));
            assert_eq!(s2.get(None, k).unwrap(), Some(v.to_vec()));
        }
        assert_eq!(mgr.stats().two_phase_commits, 2);
        // The first participant holds the decision row of the latest commit
        // only: the second decision deleted the first's, whose participants
        // had all committed. The other participant holds none.
        assert_eq!(row(&s1, ids[0]), None);
        assert_eq!(row(&s1, ids[1]), Some(Vec::new()));
        assert_eq!(row(&s2, ids[1]), None);
        assert_eq!(*mgr.inner.forgettable.lock(), vec![ids[1]]);
    }

    #[test]
    fn coordinator_crash_between_phases_resolves_by_decision() {
        let (w0, c0) = (SimDisk::new(), SimDisk::new());
        let (w1, c1) = (SimDisk::new(), SimDisk::new());
        let (s0, s1) = (kv_on(&w0, &c0), kv_on(&w1, &c1));

        // Run phase 1 and the coordinator's deciding commit by hand, then
        // "crash" before the participant's commit.
        let mgr = TxnManager::single_node();
        let r0: Arc<dyn ResourceManager> = Arc::new(KvResource::new("coord", Arc::clone(&s0)));
        let r1: Arc<dyn ResourceManager> = Arc::new(KvResource::new("a", Arc::clone(&s1)));
        let txn = mgr.begin();
        txn.enlist(Arc::clone(&r0)).unwrap();
        txn.enlist(Arc::clone(&r1)).unwrap();
        s1.put(txn.id().raw(), b"x", b"1").unwrap();
        r1.prepare(txn.id()).unwrap();
        r0.commit_deciding(txn.id(), &[]).unwrap();
        std::mem::forget(txn); // suppress the drop-abort: we crashed
        w0.crash(CrashStyle::DropVolatile);
        w1.crash(CrashStyle::DropVolatile);

        // Recovery: the participant reports it in doubt; the coordinator's
        // recovered tree holds the decision row that resolves it.
        let reopen = |w: &SimDisk, c: &SimDisk| {
            KvStore::open(
                Arc::new(w.clone()),
                Arc::new(c.clone()),
                rrq_obs::Obs::default(),
            )
            .unwrap()
        };
        let (s0b, coordinator) = reopen(&w0, &c0);
        let (s1b, report) = reopen(&w1, &c1);
        assert!(
            coordinator.in_doubt.is_empty(),
            "the coordinator never prepares"
        );
        assert_eq!(report.in_doubt.len(), 1);
        let outcome = resolve_in_doubt(&s1b, &report.in_doubt, &[s0b]).unwrap();
        assert_eq!(outcome, (1, 0));
        assert_eq!(s1b.get(None, b"x").unwrap(), Some(b"1".to_vec()));
    }

    /// A participant whose log device fails the moment its commit starts,
    /// so the store cannot write its commit record.
    struct FailsAtCommit {
        inner: KvResource,
        wal: SimDisk,
    }

    impl ResourceManager for FailsAtCommit {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn begin(&self, txn: TxnId) -> TxnResult<()> {
            self.inner.begin(txn)
        }
        fn prepare(&self, txn: TxnId) -> TxnResult<()> {
            self.inner.prepare(txn)
        }
        fn commit(&self, txn: TxnId) -> TxnResult<()> {
            self.wal.fail();
            self.inner.commit(txn)
        }
        fn abort(&self, txn: TxnId) -> TxnResult<()> {
            self.inner.abort(txn)
        }
    }

    #[test]
    fn a_commit_that_fails_after_the_decision_leaves_its_participant_in_doubt() {
        let mgr = TxnManager::single_node();
        let (w0, c0) = (SimDisk::new(), SimDisk::new());
        let (w1, c1) = (SimDisk::new(), SimDisk::new());
        let (w2, c2) = (SimDisk::new(), SimDisk::new());
        let (s0, s1, s2) = (kv_on(&w0, &c0), kv_on(&w1, &c1), kv_on(&w2, &c2));
        let coordinator: Arc<dyn ResourceManager> = Arc::new(KvResource::new("c", Arc::clone(&s0)));
        let failing: Arc<dyn ResourceManager> = Arc::new(FailsAtCommit {
            inner: KvResource::new("a", Arc::clone(&s1)),
            wal: w1.clone(),
        });
        let sibling: Arc<dyn ResourceManager> = Arc::new(KvResource::new("b", Arc::clone(&s2)));

        let txn = mgr.begin();
        let id = txn.id();
        txn.enlist(coordinator).unwrap();
        txn.enlist(failing).unwrap();
        txn.enlist(sibling).unwrap();
        txn.lock_exclusive(&LockKey::new(0, "x")).unwrap();
        s0.put(id.raw(), b"w", b"0").unwrap();
        s1.put(id.raw(), b"x", b"1").unwrap();
        s2.put(id.raw(), b"y", b"2").unwrap();
        let err = txn.commit().unwrap_err();
        assert!(
            matches!(&err, TxnError::InDoubt(msg) if msg.starts_with("a: ")),
            "the error names the participant: {err}"
        );
        // The coordinator decided and committed, and the sibling after the
        // failed participant was told the decision and committed; the failed
        // one was not aborted: still prepared, in doubt. The row stays.
        assert_eq!(s0.get(None, b"w").unwrap(), Some(b"0".to_vec()));
        assert_eq!(s2.get(None, b"y").unwrap(), Some(b"2".to_vec()));
        assert!(s1.is_open(id.raw()), "still in doubt");
        assert_eq!(s1.get(None, b"x").unwrap(), None);
        assert_eq!(mgr.locks().held_count(id.raw()), 1, "held until the reopen");
        assert_eq!((mgr.stats().committed, mgr.stats().aborted), (0, 0));
        assert!(mgr.inner.forgettable.lock().is_empty(), "the row is needed");

        // After a restart the coordinator's row resolves it to commit.
        w1.repair();
        w1.crash(CrashStyle::DropVolatile);
        let (s1b, report) = KvStore::open(
            Arc::new(w1.clone()),
            Arc::new(c1.clone()),
            rrq_obs::Obs::default(),
        )
        .unwrap();
        assert_eq!(report.in_doubt, vec![id.raw()]);
        assert_eq!(
            resolve_in_doubt(&s1b, &report.in_doubt, &[s0]).unwrap(),
            (1, 0)
        );
        assert_eq!(s1b.get(None, b"x").unwrap(), Some(b"1".to_vec()));
    }

    #[test]
    fn an_heir_keeps_its_locks_only_once_the_commit_is_decided() {
        let mgr = TxnManager::single_node();
        let (w0, c0) = (SimDisk::new(), SimDisk::new());
        let (w1, c1) = (SimDisk::new(), SimDisk::new());
        let (w2, c2) = (SimDisk::new(), SimDisk::new());
        let (s0, s1, s2) = (kv_on(&w0, &c0), kv_on(&w1, &c1), kv_on(&w2, &c2));

        // A one-phase commit that fails is undecided: the transfer is
        // reversed and the locks go with the abort.
        let txn = mgr.begin();
        let (id, heir) = (txn.id(), mgr.reserve_id());
        txn.enlist(Arc::new(KvResource::new("u", Arc::clone(&s0))))
            .unwrap();
        txn.lock_exclusive(&LockKey::new(0, "u")).unwrap();
        s0.put(id.raw(), b"u", b"0").unwrap();
        w0.fail();
        assert!(txn.commit_inheriting_locks(heir).is_err());
        assert_eq!(mgr.locks().held_count(heir.raw()), 0);
        assert_eq!(mgr.locks().held_count(id.raw()), 0);
        // Its record is the reopen's to decide: neither count moves.
        assert_eq!((mgr.stats().committed, mgr.stats().aborted), (0, 0));

        // After the decision the forwarded work is visible, and the next
        // stage may already have adopted the heir's locks: a participant's
        // failed commit leaves them with the heir.
        let coordinator: Arc<dyn ResourceManager> = Arc::new(KvResource::new("c", Arc::clone(&s2)));
        let failing: Arc<dyn ResourceManager> = Arc::new(FailsAtCommit {
            inner: KvResource::new("a", Arc::clone(&s1)),
            wal: w1.clone(),
        });
        let txn = mgr.begin();
        let (id, heir) = (txn.id(), mgr.reserve_id());
        txn.enlist(coordinator).unwrap();
        txn.enlist(failing).unwrap();
        txn.lock_exclusive(&LockKey::new(0, "d")).unwrap();
        s2.put(id.raw(), b"d", b"0").unwrap();
        s1.put(id.raw(), b"d", b"1").unwrap();
        let err = txn.commit_inheriting_locks(heir).unwrap_err();
        assert!(matches!(err, TxnError::InDoubt(_)), "{err}");
        assert_eq!(s2.get(None, b"d").unwrap(), Some(b"0".to_vec()), "decided");
        assert_eq!(mgr.locks().held_count(heir.raw()), 1, "the heir keeps them");
        assert_eq!(mgr.locks().held_count(id.raw()), 0);
    }

    #[test]
    fn a_deciding_commit_that_fails_leaves_every_participant_in_doubt() {
        // The coordinator's own deciding commit fails at its force: its record
        // is on the device, unsynced. A reopen that keeps those bytes (a
        // process restart) commits the transaction, one that drops them (a
        // crash) aborts it, so no participant may abort before the reopen.
        let mgr = TxnManager::single_node();
        let (w0, c0) = (SimDisk::new(), SimDisk::new());
        let (w1, c1) = (SimDisk::new(), SimDisk::new());
        let (w2, c2) = (SimDisk::new(), SimDisk::new());
        let (s0, s1, s2) = (kv_on(&w0, &c0), kv_on(&w1, &c1), kv_on(&w2, &c2));
        let healthy: Arc<dyn ResourceManager> = Arc::new(KvResource::new("h", Arc::clone(&s0)));
        let coordinator: Arc<dyn ResourceManager> = Arc::new(KvResource::new("a", Arc::clone(&s1)));
        let sibling: Arc<dyn ResourceManager> = Arc::new(KvResource::new("b", Arc::clone(&s2)));

        // A completed 2PC leaves its id for the next decision to forget.
        let txn = mgr.begin();
        let done = txn.id();
        txn.enlist(healthy).unwrap();
        txn.enlist(Arc::clone(&sibling)).unwrap();
        s2.put(done.raw(), b"z", b"9").unwrap();
        txn.commit().unwrap();
        assert_eq!(*mgr.inner.forgettable.lock(), vec![done]);

        let txn = mgr.begin();
        let id = txn.id();
        txn.enlist(coordinator).unwrap();
        txn.enlist(sibling).unwrap();
        txn.lock_exclusive(&LockKey::new(0, "x")).unwrap();
        s1.put(id.raw(), b"x", b"1").unwrap();
        s2.put(id.raw(), b"y", b"2").unwrap();
        w1.fail_syncs();
        let err = txn.commit().unwrap_err();
        assert!(
            matches!(&err, TxnError::InDoubt(msg) if msg.starts_with("a: ")),
            "the error names the coordinator: {err}"
        );
        // In doubt: the sibling is still prepared, the coordinator's state is
        // back for nobody to commit (its log failed), the locks are held and
        // the ids to forget are dropped: the reopen sweeps their rows.
        assert!(s2.is_open(id.raw()), "the sibling stays prepared");
        assert_eq!(s2.get(None, b"y").unwrap(), None);
        assert!(s1.log_failed());
        assert_eq!(s1.get(None, &decision_key(id)).unwrap(), None);
        assert_eq!(mgr.locks().held_count(id.raw()), 1, "held until the reopen");
        assert_eq!((mgr.stats().committed, mgr.stats().aborted), (1, 0));
        assert!(mgr.inner.forgettable.lock().is_empty());

        // Both reopens resolve the sibling as the coordinator's log reads,
        // and a crash right after the resolution, before either store forces
        // again, loses nothing it acted on: both sides still agree.
        w1.repair();
        let reopen = |w: &SimDisk, c: &SimDisk| {
            KvStore::open(
                Arc::new(w.clone()),
                Arc::new(c.clone()),
                rrq_obs::Obs::default(),
            )
            .unwrap()
        };
        let durable = w1.durable_len() as usize;
        let coordinator_log = w1.read(0, w1.len() as usize).unwrap();
        let sibling_log = w2.read(0, w2.len() as usize).unwrap();
        for (crash, committed) in [(false, true), (true, false)] {
            // The logs as the failed force left them: the decision appended
            // to the coordinator's, not synced.
            w1.reset(coordinator_log[..durable].to_vec()).unwrap();
            w1.append(&coordinator_log[durable..]).unwrap();
            w2.reset(sibling_log.clone()).unwrap();
            if crash {
                w1.crash(CrashStyle::DropVolatile);
            }
            let (s1b, _) = reopen(&w1, &c1);
            let (s2b, report) = reopen(&w2, &c2);
            assert_eq!(report.in_doubt, vec![id.raw()]);
            let resolved = resolve_in_doubt(&s2b, &report.in_doubt, &[Arc::clone(&s1b)]);
            assert_eq!(
                resolved.unwrap(),
                (usize::from(committed), usize::from(!committed))
            );
            let want = |v: &[u8]| committed.then(|| v.to_vec());
            assert_eq!(s1b.get(None, b"x").unwrap(), want(b"1"));
            assert_eq!(s2b.get(None, b"y").unwrap(), want(b"2"));

            w1.crash(CrashStyle::DropVolatile);
            w2.crash(CrashStyle::DropVolatile);
            let (s1c, _) = reopen(&w1, &c1);
            let (s2c, report) = reopen(&w2, &c2);
            resolve_in_doubt(&s2c, &report.in_doubt, &[Arc::clone(&s1c)]).unwrap();
            assert_eq!(s1c.get(None, b"x").unwrap(), want(b"1"), "crash: {crash}");
            assert_eq!(s2c.get(None, b"y").unwrap(), want(b"2"), "crash: {crash}");
        }
    }

    #[test]
    fn an_abort_that_fails_is_reported_after_every_participant_aborted() {
        let mgr = TxnManager::single_node();
        let (w1, c1) = (SimDisk::new(), SimDisk::new());
        let (w2, c2) = (SimDisk::new(), SimDisk::new());
        let (s1, s2) = (kv_on(&w1, &c1), kv_on(&w2, &c2));
        let r1: Arc<dyn ResourceManager> = Arc::new(KvResource::new("a", Arc::clone(&s1)));
        let r2: Arc<dyn ResourceManager> = Arc::new(KvResource::new("b", Arc::clone(&s2)));

        let txn = mgr.begin();
        let id = txn.id();
        txn.enlist(Arc::clone(&r1)).unwrap();
        txn.enlist(Arc::clone(&r2)).unwrap();
        txn.lock_exclusive(&LockKey::new(0, "x")).unwrap();
        s1.put(id.raw(), b"x", b"1").unwrap();
        s2.put(id.raw(), b"y", b"2").unwrap();
        // Prepared, so its abort must log a record; then its device fails.
        s1.prepare(id.raw()).unwrap();
        w1.fail();
        assert_eq!(
            txn.abort(),
            Err(TxnError::Storage(StorageError::DeviceFailed))
        );
        assert!(!s2.is_open(id.raw()), "the participant after it aborted");
        assert_eq!(mgr.locks().held_count(id.raw()), 0);
        assert_eq!(mgr.stats().aborted, 1);

        // A participant that no longer knows the transaction has nothing to
        // undo: that is no failure.
        let txn = mgr.begin();
        txn.enlist(Arc::clone(&r2)).unwrap();
        s2.abort(txn.id().raw()).unwrap();
        assert_eq!(txn.abort(), Ok(()));
    }

    #[test]
    fn in_doubt_without_decision_presumed_abort() {
        let (w1, c1) = (SimDisk::new(), SimDisk::new());
        let s1 = kv_on(&w1, &c1);
        s1.begin(7).unwrap();
        s1.put(7, b"x", b"1").unwrap();
        s1.prepare(7).unwrap();
        w1.crash(CrashStyle::DropVolatile);
        let (s1b, report) = KvStore::open(
            Arc::new(w1.clone()),
            Arc::new(c1.clone()),
            rrq_obs::Obs::default(),
        )
        .unwrap();
        // The coordinator's commit never happened: its tree has no row.
        let coordinator = kv_on(&SimDisk::new(), &SimDisk::new());
        let (c, a) = resolve_in_doubt(&s1b, &report.in_doubt, &[coordinator]).unwrap();
        assert_eq!((c, a), (0, 1));
        assert_eq!(s1b.get(None, b"x").unwrap(), None);
    }

    #[test]
    fn lock_inheritance_keeps_resource_locked_across_commit() {
        let mgr = TxnManager::single_node();
        let (wal, ckpt) = (SimDisk::new(), SimDisk::new());
        let store = kv_on(&wal, &ckpt);
        let rm: Arc<dyn ResourceManager> = Arc::new(KvResource::new("db", Arc::clone(&store)));

        let t1 = mgr.begin();
        t1.enlist(Arc::clone(&rm)).unwrap();
        let k = LockKey::new(0, "acct");
        t1.lock_exclusive(&k).unwrap();
        store.put(t1.id().raw(), b"acct", b"50").unwrap();

        let t2 = mgr.begin();
        let t2_id = t2.id();
        t1.commit_inheriting_locks(t2_id).unwrap();

        // A third txn still can't touch the account.
        assert!(mgr.locks().try_lock(999, &k, LockMode::Shared).is_err());
        // t2 holds it and finishes the request.
        assert!(mgr.locks().holds(t2_id.raw(), &k, LockMode::Exclusive));
        t2.commit().unwrap();
        assert!(mgr.locks().try_lock(999, &k, LockMode::Shared).is_ok());
    }

    #[test]
    fn enlist_is_idempotent_per_name() {
        let mgr = TxnManager::single_node();
        let (wal, ckpt) = (SimDisk::new(), SimDisk::new());
        let store = kv_on(&wal, &ckpt);
        let rm: Arc<dyn ResourceManager> = Arc::new(KvResource::new("db", Arc::clone(&store)));
        let txn = mgr.begin();
        txn.enlist(Arc::clone(&rm)).unwrap();
        txn.enlist(Arc::clone(&rm)).unwrap(); // second begin would error if not deduped
        txn.commit().unwrap();
    }
}
