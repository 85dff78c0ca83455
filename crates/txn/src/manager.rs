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
//! commit-transaction         → Txn::commit  (1PC or logged 2PC)
//! ```
//!
//! Aborting at any point (crash, deadlock victim, handler failure) undoes
//! the dequeue, "thereby returning the request to the request queue" (§5).

use crate::error::{TxnError, TxnResult};
use crate::ids::{TxnId, TxnIdGen};
use crate::lock::{LockKey, LockManager, LockMode};
use crate::rm::ResourceManager;
use crate::twophase::CoordinatorLog;
use parking_lot::Mutex;
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

struct Inner {
    ids: Arc<TxnIdGen>,
    locks: Arc<LockManager>,
    coord: Option<Arc<CoordinatorLog>>,
    /// Lock-wait timeout in milliseconds (atomic so it can be tuned live).
    lock_timeout_ms: std::sync::atomic::AtomicU64,
    stats: Mutex<TxnStats>,
}

impl Inner {
    fn lock_timeout(&self) -> Duration {
        Duration::from_millis(
            self.lock_timeout_ms
                .load(std::sync::atomic::Ordering::Acquire),
        )
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
    /// * `coord` — durable decision log; `None` disables logged 2PC (multi-RM
    ///   commits still run prepare/commit but a coordinator crash between the
    ///   phases leaves participants in-doubt until manually resolved).
    /// * `id_floor` — first transaction id to issue (pass a recovered
    ///   high-water mark after a restart).
    pub fn new(locks: Arc<LockManager>, coord: Option<CoordinatorLog>, id_floor: u64) -> Self {
        Self::with_shared(
            locks,
            coord.map(Arc::new),
            Arc::new(TxnIdGen::new(id_floor)),
        )
    }

    /// Build a manager around *shared* cluster infrastructure: several
    /// managers (one per repository partition) can point at the same
    /// coordinator log — so one decision record resolves every participant
    /// of a cross-partition transaction — and the same id generator, so
    /// transaction ids (which key lock tables and store tokens) stay unique
    /// across the whole cluster.
    pub fn with_shared(
        locks: Arc<LockManager>,
        coord: Option<Arc<CoordinatorLog>>,
        ids: Arc<TxnIdGen>,
    ) -> Self {
        TxnManager {
            inner: Arc::new(Inner {
                ids,
                locks,
                coord,
                lock_timeout_ms: std::sync::atomic::AtomicU64::new(5_000),
                stats: Mutex::new(TxnStats::default()),
            }),
        }
    }

    /// Manager with a fresh lock manager and no coordinator log — the common
    /// single-store setup.
    pub fn single_node() -> Self {
        TxnManager::new(Arc::new(LockManager::new()), None, 1)
    }

    /// Override the lock-wait timeout (default 5 s).
    pub fn set_lock_timeout(&self, timeout: Duration) {
        self.inner.lock_timeout_ms.store(
            timeout.as_millis() as u64,
            std::sync::atomic::Ordering::Release,
        );
    }

    /// Begin a new transaction.
    pub fn begin(&self) -> Txn {
        self.inner.stats.lock().begun += 1;
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

    /// Begin a transaction under a caller-chosen id (used by recovery and by
    /// tests that need stable ids). The generator is bumped past it.
    pub fn begin_with_id(&self, id: TxnId) -> Txn {
        self.inner.stats.lock().begun += 1;
        Txn {
            id,
            mgr: self.clone(),
            rms: Mutex::new(Vec::new()),
            finished: false,
        }
    }

    /// The node's lock manager.
    pub fn locks(&self) -> &Arc<LockManager> {
        &self.inner.locks
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TxnStats {
        *self.inner.stats.lock()
    }

    /// Current id high-water mark (persist across restarts).
    pub fn id_high_water(&self) -> u64 {
        self.inner.ids.peek()
    }

    /// Resolve transactions a participant reported as in-doubt after
    /// recovery: commit those with a durable commit decision, abort the rest
    /// (presumed abort).
    pub fn resolve_in_doubt(
        &self,
        rm: &dyn ResourceManager,
        in_doubt: &[u64],
    ) -> TxnResult<(usize, usize)> {
        let decisions = match &self.inner.coord {
            Some(c) => c.decisions()?,
            None => Default::default(),
        };
        let mut committed = 0;
        let mut aborted = 0;
        for &t in in_doubt {
            if decisions.get(&t).copied().unwrap_or(false) {
                rm.commit(TxnId(t))?;
                committed += 1;
            } else {
                rm.abort(TxnId(t))?;
                aborted += 1;
            }
        }
        Ok((committed, aborted))
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
    /// logged two-phase protocol).
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

    /// Acquire a shared lock, blocking up to the manager's timeout.
    pub fn lock_shared(&self, key: &LockKey) -> TxnResult<()> {
        self.mgr.inner.locks.lock(
            self.id.raw(),
            key,
            LockMode::Shared,
            self.mgr.inner.lock_timeout(),
        )
    }

    /// Commit: one-phase for a single participant, logged two-phase for
    /// several. Locks are released on success.
    pub fn commit(mut self) -> TxnResult<()> {
        self.finished = true;
        let rms = std::mem::take(&mut *self.rms.lock());
        let result = commit_impl(&self.mgr, self.id, &rms);
        match result {
            Ok(()) => {
                self.mgr.inner.locks.unlock_all(self.id.raw());
                self.mgr.inner.stats.lock().committed += 1;
                Ok(())
            }
            Err(e) => {
                abort_impl(&self.mgr, self.id, &rms);
                self.mgr.inner.locks.unlock_all(self.id.raw());
                self.mgr.inner.stats.lock().aborted += 1;
                Err(e)
            }
        }
    }

    /// Commit, but *transfer* this transaction's locks to `heir` instead of
    /// releasing them — §6 lock inheritance for multi-transaction requests.
    pub fn commit_inheriting_locks(mut self, heir: TxnId) -> TxnResult<()> {
        self.finished = true;
        let rms = std::mem::take(&mut *self.rms.lock());
        // Transfer BEFORE the commit makes this transaction's writes (e.g.
        // the forwarded request element) visible: the next stage may dequeue
        // the request and adopt the heir's locks the instant commit lands.
        // Nothing else can touch the heir id until then, so on commit
        // failure the transfer is safely reversed.
        self.mgr
            .inner
            .locks
            .transfer_locks(self.id.raw(), heir.raw());
        match commit_impl(&self.mgr, self.id, &rms) {
            Ok(()) => {
                self.mgr.inner.stats.lock().committed += 1;
                Ok(())
            }
            Err(e) => {
                self.mgr
                    .inner
                    .locks
                    .transfer_locks(heir.raw(), self.id.raw());
                abort_impl(&self.mgr, self.id, &rms);
                self.mgr.inner.locks.unlock_all(self.id.raw());
                self.mgr.inner.stats.lock().aborted += 1;
                Err(e)
            }
        }
    }

    /// Abort: undo every participant, release locks.
    pub fn abort(mut self) -> TxnResult<()> {
        self.finished = true;
        let rms = std::mem::take(&mut *self.rms.lock());
        abort_impl(&self.mgr, self.id, &rms);
        self.mgr.inner.locks.unlock_all(self.id.raw());
        self.mgr.inner.stats.lock().aborted += 1;
        Ok(())
    }
}

impl Drop for Txn {
    fn drop(&mut self) {
        if !self.finished {
            let rms = std::mem::take(&mut *self.rms.lock());
            abort_impl(&self.mgr, self.id, &rms);
            self.mgr.inner.locks.unlock_all(self.id.raw());
            self.mgr.inner.stats.lock().aborted += 1;
        }
    }
}

fn commit_impl(mgr: &TxnManager, id: TxnId, rms: &[Arc<dyn ResourceManager>]) -> TxnResult<()> {
    match rms.len() {
        0 => Ok(()),
        1 => rms[0].commit(id),
        _ => {
            rrq_obs::counter_inc("txn.twophase.rounds");
            for rm in rms {
                rm.prepare(id)
                    .map_err(|e| TxnError::PrepareFailed(format!("{}: {e}", rm.name())))?;
            }
            if let Some(coord) = &mgr.inner.coord {
                coord.log_decision(id, true)?;
            }
            rrq_obs::counter_inc("txn.twophase.decisions");
            mgr.inner.stats.lock().two_phase_commits += 1;
            for rm in rms {
                rm.commit(id)?;
            }
            Ok(())
        }
    }
}

fn abort_impl(mgr: &TxnManager, id: TxnId, rms: &[Arc<dyn ResourceManager>]) {
    let _ = mgr; // coordinator: presumed abort, nothing to log
    for rm in rms {
        // Best-effort: a participant that already aborted (or never saw the
        // txn) must not stop the others from aborting.
        let _ = rm.abort(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rm::KvResource;
    use rrq_storage::disk::{CrashStyle, SimDisk};
    use rrq_storage::kv::KvStore;

    fn kv_on(wal: &SimDisk, ckpt: &SimDisk) -> Arc<KvStore> {
        KvStore::open(Arc::new(wal.clone()), Arc::new(ckpt.clone()))
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
        let coord_disk = SimDisk::new();
        let mgr = TxnManager::new(
            Arc::new(LockManager::new()),
            Some(CoordinatorLog::new(Arc::new(coord_disk.clone()))),
            1,
        );
        let (w1, c1) = (SimDisk::new(), SimDisk::new());
        let (w2, c2) = (SimDisk::new(), SimDisk::new());
        let s1 = kv_on(&w1, &c1);
        let s2 = kv_on(&w2, &c2);
        let r1: Arc<dyn ResourceManager> = Arc::new(KvResource::new("a", Arc::clone(&s1)));
        let r2: Arc<dyn ResourceManager> = Arc::new(KvResource::new("b", Arc::clone(&s2)));

        let txn = mgr.begin();
        txn.enlist(Arc::clone(&r1)).unwrap();
        txn.enlist(Arc::clone(&r2)).unwrap();
        s1.put(txn.id().raw(), b"x", b"1").unwrap();
        s2.put(txn.id().raw(), b"y", b"2").unwrap();
        txn.commit().unwrap();
        assert_eq!(s1.get(None, b"x").unwrap(), Some(b"1".to_vec()));
        assert_eq!(s2.get(None, b"y").unwrap(), Some(b"2".to_vec()));
        assert_eq!(mgr.stats().two_phase_commits, 1);
    }

    #[test]
    fn coordinator_crash_between_phases_resolves_by_decision() {
        let coord_disk = SimDisk::new();
        let (w1, c1) = (SimDisk::new(), SimDisk::new());
        let s1 = kv_on(&w1, &c1);

        // Manually run phase 1 + decision, then "crash" before phase 2.
        {
            let mgr = TxnManager::new(
                Arc::new(LockManager::new()),
                Some(CoordinatorLog::new(Arc::new(coord_disk.clone()))),
                1,
            );
            let r1: Arc<dyn ResourceManager> = Arc::new(KvResource::new("a", Arc::clone(&s1)));
            let txn = mgr.begin();
            txn.enlist(Arc::clone(&r1)).unwrap();
            s1.put(txn.id().raw(), b"x", b"1").unwrap();
            // phase 1 by hand:
            r1.prepare(txn.id()).unwrap();
            CoordinatorLog::new(Arc::new(coord_disk.clone()))
                .log_decision(txn.id(), true)
                .unwrap();
            std::mem::forget(txn); // suppress the drop-abort: we crashed
        }
        w1.crash(CrashStyle::DropVolatile);

        // Recovery: store reports in-doubt; coordinator decisions resolve it.
        let (s1b, report) = KvStore::open(Arc::new(w1.clone()), Arc::new(c1.clone())).unwrap();
        assert_eq!(report.in_doubt.len(), 1);
        let mgr2 = TxnManager::new(
            Arc::new(LockManager::new()),
            Some(CoordinatorLog::new(Arc::new(coord_disk.clone()))),
            100,
        );
        let r1b = KvResource::new("a", Arc::clone(&s1b));
        let (committed, aborted) = mgr2.resolve_in_doubt(&r1b, &report.in_doubt).unwrap();
        assert_eq!((committed, aborted), (1, 0));
        assert_eq!(s1b.get(None, b"x").unwrap(), Some(b"1".to_vec()));
    }

    #[test]
    fn in_doubt_without_decision_presumed_abort() {
        let (w1, c1) = (SimDisk::new(), SimDisk::new());
        let s1 = kv_on(&w1, &c1);
        s1.begin(7).unwrap();
        s1.put(7, b"x", b"1").unwrap();
        s1.prepare(7).unwrap();
        w1.crash(CrashStyle::DropVolatile);
        let (s1b, report) = KvStore::open(Arc::new(w1.clone()), Arc::new(c1.clone())).unwrap();
        let mgr = TxnManager::new(
            Arc::new(LockManager::new()),
            Some(CoordinatorLog::new(Arc::new(SimDisk::new()))),
            100,
        );
        let rm = KvResource::new("a", Arc::clone(&s1b));
        let (c, a) = mgr.resolve_in_doubt(&rm, &report.in_doubt).unwrap();
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

    #[test]
    fn begin_with_id_uses_given_id() {
        let mgr = TxnManager::single_node();
        let txn = mgr.begin_with_id(TxnId(424242));
        assert_eq!(txn.id(), TxnId(424242));
        txn.abort().unwrap();
    }
}
