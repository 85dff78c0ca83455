//! The queue manager's data-manipulation operations (Fig 3) and its role as
//! a two-phase-commit participant.
//!
//! ## Transactional semantics (§4.2)
//!
//! Every operation runs under a transaction token issued by
//! [`rrq_txn::TxnManager`]; the manager itself implements
//! [`rrq_txn::ResourceManager`], so queue updates commit or abort atomically
//! with whatever else the transaction did. The key behaviours:
//!
//! * An **aborted dequeue returns the element to its queue** — automatic,
//!   because uncommitted deletes never touch the committed tree.
//! * On the **n-th aborted dequeue** of an element, the abort handler moves
//!   it to the queue's *error queue* (with the abort code recorded), which is
//!   what guarantees a poisoned request cannot cyclically restart a server
//!   forever (§5's termination argument).
//! * A **tagged dequeue by a stable registration retains its element**: the
//!   row moves from `e/<queue>/<ord>` to `d/<eid>` — a key-only log record,
//!   the body is not logged again — so `Read` works "even if the last
//!   operation was a Dequeue" (§4.3), the basis of the clerk's `Rereceive`.
//!   The retained row belongs to that registration and is deleted in the
//!   transaction of its next tagged operation, of its `Deregister`, or of
//!   its queue's `destroy_queue`. Any other dequeue deletes the element.
//!
//! ## Concurrency (§10)
//!
//! Dequeue scans the queue in priority-then-FIFO order and write-locks the
//! element it takes. In [`OrderingMode::SkipLocked`] the scan ignores
//! elements locked by concurrent uncommitted dequeuers (the paper's relaxed
//! ordering, trading strict FIFO for concurrency); in
//! [`OrderingMode::StrictFifo`] it blocks behind the head element's lock.
//! Blocking dequeue on an empty queue uses the [`crate::notify`] versioning
//! — the paper's "notify lock".
//!
//! ## The queue catalog
//!
//! A queue's metadata is the queue database's catalog (Gray, *Queues Are
//! Databases*), and it changes only through `update_queue` and
//! `destroy_queue`; every request reads it several times. The manager
//! therefore keeps each queue's `m/<queue>` record decoded, beside the
//! queue's lock namespace, in an `Arc` behind one `RwLock`
//! ([`QueueManager::queue_info`]): a request takes the read lock, clones
//! the `Arc`, and neither touches the store nor decodes anything. Coherence
//! needs two rules, both about the catalog's *write* lock. A miss is filled
//! under it, the store read inside it; and `update_queue`/`destroy_queue`
//! drop the entry under it *after* their system transaction has committed.
//! A fill that read the old record finished inserting it before the drop
//! could begin, and any fill that begins after the drop reads the new
//! record — so the first operation to start after `update_queue` returns
//! sees the update. Operations already past their lookup finish with the
//! metadata they started with, as they did when each lookup read the
//! store. A queue that does not exist has no entry, so `create_queue` has
//! nothing to drop.
//!
//! Two more per-commit store reads are gated the same way, by counters
//! instead of copies: the number of unfired triggers in `t/` and of kill
//! tombstones in `k/`, counted at open. Each is raised *before* the system
//! transaction that writes a record commits and lowered *after* the one that
//! retires it, so a reader that finds zero knows the store holds none.

use crate::element::{Eid, Element, ElementRef, Priority};
use crate::error::{QmError, QmResult};
use crate::keys;
use crate::meta::{OrderingMode, QueueMeta};
use crate::notify::QueueNotifier;
use crate::qindex::QueueIndex;
use crate::registration::{LastOp, Registration};
use crate::retrieval::Predicate;
use crate::trigger::Trigger;
use parking_lot::{Mutex, MutexGuard, RwLock};
use rrq_storage::codec::{put, Decode, Encode, Reader};
use rrq_storage::kv::KvStore;
use rrq_txn::{
    LockKey, LockManager, LockMode, ResourceManager, TxnError, TxnId, TxnIdGen, TxnResult,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `queue → ordered (element key, eid)` — the shape in which both the ready
/// index ([`QueueManager::index_snapshot`]) and a ground-truth storage scan
/// ([`QueueManager::index_from_scan`]) report the committed element keyspace,
/// so equivalence checks can compare them directly.
pub type IndexSnapshot = BTreeMap<String, Vec<(Vec<u8>, Eid)>>;

/// Identifies a registered (queue, registrant) binding — the `handle`
/// returned by `Register` in Fig 3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueHandle {
    /// Queue name.
    pub queue: String,
    /// Registrant name.
    pub registrant: String,
}

/// Options for [`QueueManager::enqueue`].
#[derive(Debug, Clone, Default)]
pub struct EnqueueOptions {
    /// Scheduling priority (higher dequeues first).
    pub priority: Priority,
    /// Content attributes for predicate retrieval.
    pub attrs: Vec<(String, String)>,
    /// Registrant-defined operation tag (§4.3), recorded atomically with the
    /// operation in the registrant's stable registration record.
    pub tag: Option<Vec<u8>>,
}

/// Options for [`QueueManager::dequeue`].
#[derive(Debug, Clone, Default)]
pub struct DequeueOptions {
    /// Operation tag (§4.3).
    pub tag: Option<Vec<u8>>,
    /// Only elements matching this predicate are candidates.
    pub predicate: Option<Predicate>,
    /// Block up to this long when no candidate is available.
    pub block: Option<Duration>,
    /// Route to this error queue instead of the queue's default (`eh` in
    /// Fig 3's Dequeue).
    pub error_queue: Option<String>,
}

/// Operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QmStats {
    /// Committed-path enqueue calls.
    pub enqueues: u64,
    /// Successful dequeue calls.
    pub dequeues: u64,
    /// Read calls.
    pub reads: u64,
    /// Elements skipped because a concurrent dequeuer held their lock.
    pub lock_skips: u64,
    /// Dequeues undone by transaction aborts.
    pub aborted_dequeues: u64,
    /// Elements moved to an error queue.
    pub error_moves: u64,
    /// KillElement calls that cancelled an element.
    pub kills: u64,
    /// Alert-threshold crossings observed at commit.
    pub alerts: u64,
    /// Triggers fired.
    pub triggers_fired: u64,
}

/// [`QmStats`] as it is counted: one atomic per field, so the request path
/// adds to a counter without taking a lock.
#[derive(Debug, Default)]
struct QmCounters {
    enqueues: AtomicU64,
    dequeues: AtomicU64,
    reads: AtomicU64,
    lock_skips: AtomicU64,
    aborted_dequeues: AtomicU64,
    error_moves: AtomicU64,
    kills: AtomicU64,
    alerts: AtomicU64,
    triggers_fired: AtomicU64,
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::AcqRel);
}

/// Lower a count of stored records by one, never below zero: a count left
/// too high only costs its readers a store probe, one wrapped past zero
/// would hide a record.
fn lower(count: &AtomicUsize) {
    let _ = count.fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1));
}

/// What the request path needs to know about a queue: its decoded `m/`
/// record and the namespace of its element locks.
#[derive(Debug)]
struct QueueInfo {
    meta: QueueMeta,
    ns: u32,
}

/// One queue name's place in the catalog. The namespace is handed out once
/// and outlives every invalidation: element locks taken under it before an
/// `update_queue` must still exclude those taken after.
#[derive(Debug)]
struct CatalogSlot {
    ns: u32,
    /// `None` until the first lookup, and again after the record changed.
    info: Option<Arc<QueueInfo>>,
}

/// The queue catalog (see the module docs).
#[derive(Debug)]
struct Catalog {
    slots: HashMap<String, CatalogSlot>,
    next_ns: u32,
}

impl Catalog {
    fn slot(&mut self, queue: &str) -> &mut CatalogSlot {
        let next_ns = &mut self.next_ns;
        self.slots.entry(queue.to_string()).or_insert_with(|| {
            let ns = *next_ns;
            *next_ns += 1;
            CatalogSlot { ns, info: None }
        })
    }
}

/// A dequeue performed by a still-open transaction.
#[derive(Debug, Clone)]
struct DequeuedRef {
    queue: String,
    elem_key: Vec<u8>,
    eid: Eid,
    /// Error-queue override from the Dequeue call.
    error_queue: Option<String>,
    /// Logical tick at which the element lock was taken (metrics only: the
    /// hold time ends when the owning transaction commits or aborts).
    grabbed_at: u64,
}

/// Outcome of trying to take one dequeue candidate under its element lock.
enum Grab {
    /// Locked, validated, and removed — the dequeue succeeded.
    Taken(Element),
    /// The element vanished between selection and locking.
    Gone,
    /// A kill tombstone is racing; leave the element for its cancel.
    Tombstoned,
    /// The element lock is held by a concurrent dequeuer.
    Busy,
}

/// A ready-index entry a dequeue pass is about to try. When `held`, the
/// pass claimed it ([`QueueIndex::next_after`]) and the mark is cleared on
/// drop — every exit, `?` and unwind included — unless the element was taken
/// ([`Claim::keep`]).
struct Claim<'a> {
    ix: &'a QueueIndex,
    queue: &'a str,
    key: Vec<u8>,
    held: bool,
}

impl Claim<'_> {
    /// The element was taken: the mark stays until commit removes the entry
    /// or the abort fix-up re-inserts it.
    fn keep(mut self) {
        self.held = false;
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        if self.held {
            self.ix.unclaim(self.queue, &self.key);
        }
    }
}

/// An enqueue performed by a still-open transaction — enough to make the
/// element visible to the ready index when the transaction commits, and to
/// the transaction's *own* dequeues before then.
#[derive(Debug, Clone)]
struct EnqueuedRef {
    queue: String,
    elem_key: Vec<u8>,
    eid: Eid,
}

#[derive(Debug, Default)]
struct PendingTxn {
    dequeued: Vec<DequeuedRef>,
    enqueued: Vec<EnqueuedRef>,
    enqueued_queues: HashSet<String>,
    /// Set by KillElement when this transaction holds a cancelled element:
    /// the transaction must abort (§7).
    poisoned: Option<Eid>,
    /// Set by [`QueueManager::defer_commit`], cleared by `prepare`: a
    /// one-phase commit appends its commit record without forcing it and
    /// parks this mirror in `epoch_buf`; [`QueueManager::close_epoch`]
    /// forces the log and only then shows the effects to dequeuers.
    deferred: bool,
}

/// The queue manager for one repository.
pub struct QueueManager {
    name: String,
    durable: Arc<KvStore>,
    /// The main-memory store of this incarnation's volatile queues (§10):
    /// born empty with the manager, gone with it. Every transaction begins
    /// on `durable`; it joins this store at its first touch of a volatile
    /// queue ([`QueueManager::store_for`]).
    volatile: Arc<KvStore>,
    locks: Arc<LockManager>,
    notifier: QueueNotifier,
    /// Open-transaction bookkeeping, striped by transaction id so concurrent
    /// servers enlisting different transactions don't share one mutex. Each
    /// access touches exactly one stripe; the kill-element poison scan walks
    /// the stripes one at a time (never two guards at once — the `qm-pending`
    /// class in LOCKS.md, enforced by the rrq-analyze `lock-order` rule).
    pending: Box<[Mutex<HashMap<u64, PendingTxn>>]>,
    /// Committed ready-lists per queue — the dequeue/depth hot path. Kept in
    /// lock-step with the stores at commit/abort/kill/destroy boundaries and
    /// rebuilt from a storage scan on restart.
    qindex: QueueIndex,
    /// Ids for internal system transactions (registration writes, abort-count
    /// maintenance). High floor keeps them disjoint from user transactions.
    sys_ids: TxnIdGen,
    epoch: u64,
    counter: AtomicU64,
    /// Decoded queue metadata and lock namespaces (see the module docs). A
    /// leaf: nothing is acquired under it but the store's own locks, and
    /// those only by the fill's one committed read.
    catalog: RwLock<Catalog>,
    /// Unfired trigger records in `t/`; zero lets an enqueue-commit skip
    /// the scan for them.
    unfired_triggers: AtomicUsize,
    /// Kill tombstones in `k/`; zero lets a dequeue skip the probe for one.
    kill_marks: AtomicUsize,
    stats: QmCounters,
    /// Queues whose depth crossed their alert threshold since the last
    /// `take_alerts`, each at most once.
    alerts: Mutex<Vec<String>>,
    /// Effect mirrors of deferred commits whose commit records are appended
    /// but not yet forced, waiting for a `close_epoch`. Volatile by design:
    /// a crash drops the buffer along with the unforced commits it mirrors,
    /// and recovery rebuilds the index from storage.
    epoch_buf: Mutex<Vec<PendingTxn>>,
}

/// Stripe count of the pending-transaction map; matches the lock manager's
/// default.
const PENDING_SHARDS: usize = 16;

/// Lock namespace of trigger records (`t/<id>`); queues' namespaces count
/// up from 1.
const TRIGGER_NS: u32 = 0;

impl QueueManager {
    /// Build a manager over a durable store, sharing the node's lock manager.
    pub fn new(
        name: impl Into<String>,
        durable: Arc<KvStore>,
        locks: Arc<LockManager>,
    ) -> QmResult<Arc<Self>> {
        Self::with_epoch_base(name, durable, locks, 0)
    }

    /// [`Self::new`] with an epoch *band*: a fresh store starts its epoch at
    /// `epoch_base + 1` instead of `1`. Bumps and persists the repository
    /// epoch (element ids and sequence numbers from this incarnation sort
    /// after every earlier one). Repository partition *p* passes `p << 20`,
    /// which keeps element ids — `(epoch << 40) | counter` — disjoint across
    /// every partition of a cluster (2^20 restarts per partition before
    /// bands could meet), so an eid names its element cluster-wide and
    /// `Read`/`KillElement` can safely probe partitions. `epoch_base = 0` is
    /// bit-for-bit the single-partition baseline.
    pub fn with_epoch_base(
        name: impl Into<String>,
        durable: Arc<KvStore>,
        locks: Arc<LockManager>,
        epoch_base: u64,
    ) -> QmResult<Arc<Self>> {
        let sys_ids = TxnIdGen::new(1 << 56);
        // Bump the epoch in a system transaction.
        let t = sys_ids.next().raw();
        durable.begin(t)?;
        let epoch = match durable.get(Some(t), &keys::epoch_key())? {
            Some(raw) => u64::decode_all(&raw).map_err(QmError::Storage)? + 1,
            None => epoch_base + 1,
        };
        durable.put(t, &keys::epoch_key(), &epoch.encode_to_vec())?;
        durable.commit(t)?;

        // Rebuild the ready index from the committed element keyspace. The
        // caller resolves in-doubt transactions before constructing the
        // manager, so `scan_prefix(None, ..)` is exactly the post-recovery
        // committed truth. (Volatile queues come back empty.)
        let qindex = QueueIndex::new();
        for (k, raw) in durable.scan_prefix(None, b"e/")? {
            let Some(queue) = keys::parse_element_key(&k) else {
                continue;
            };
            let elem = Element::decode_all(&raw).map_err(QmError::Storage)?;
            qindex.insert(queue, k.clone(), elem.eid);
            rrq_obs::counter_inc("qm.recovery.index_rebuild");
        }
        let mut unfired_triggers = 0;
        for (_, raw) in durable.scan_prefix(None, b"t/")? {
            if !Trigger::decode_all(&raw).map_err(QmError::Storage)?.fired {
                unfired_triggers += 1;
            }
        }
        let kill_marks = durable.scan_prefix(None, b"k/")?.len();

        Ok(Arc::new(QueueManager {
            name: name.into(),
            durable,
            volatile: KvStore::volatile(),
            locks,
            notifier: QueueNotifier::new(),
            pending: (0..PENDING_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            qindex,
            sys_ids,
            epoch,
            counter: AtomicU64::new(0),
            catalog: RwLock::new(Catalog {
                slots: HashMap::new(),
                next_ns: 1,
            }),
            unfired_triggers: AtomicUsize::new(unfired_triggers),
            kill_marks: AtomicUsize::new(kill_marks),
            stats: QmCounters::default(),
            alerts: Mutex::new(Vec::new()),
            epoch_buf: Mutex::new(Vec::new()),
        }))
    }

    /// This manager's participant name.
    pub fn qm_name(&self) -> &str {
        &self.name
    }

    /// The repository epoch of this incarnation.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The stripe of the pending map that owns `txn`'s bookkeeping.
    fn pending_shard(&self, txn: u64) -> MutexGuard<'_, HashMap<u64, PendingTxn>> {
        self.pending_shard_at(txn as usize % self.pending.len())
    }

    /// Acquire stripe `i` of the pending map, counting contended
    /// acquisitions (one extra CAS on the uncontended path; the metrics are
    /// no-ops unless a Session is installed).
    fn pending_shard_at(&self, i: usize) -> MutexGuard<'_, HashMap<u64, PendingTxn>> {
        let m = &self.pending[i];
        if let Some(g) = m.try_lock() {
            return g;
        }
        rrq_obs::counter_inc("qm.pending.shard.contended");
        let start = rrq_obs::now();
        let g = m.lock();
        rrq_obs::observe(
            "qm.pending.shard.acquire_wait_ticks",
            rrq_obs::now().saturating_sub(start),
        );
        g
    }

    /// Counter snapshot.
    pub fn stats(&self) -> QmStats {
        let c = &self.stats;
        let read = |counter: &AtomicU64| counter.load(Ordering::Acquire);
        QmStats {
            enqueues: read(&c.enqueues),
            dequeues: read(&c.dequeues),
            reads: read(&c.reads),
            lock_skips: read(&c.lock_skips),
            aborted_dequeues: read(&c.aborted_dequeues),
            error_moves: read(&c.error_moves),
            kills: read(&c.kills),
            alerts: read(&c.alerts),
            triggers_fired: read(&c.triggers_fired),
        }
    }

    /// Drain the queue names whose alert thresholds were crossed since the
    /// last call (§9 "alert thresholds"), each named once however often it
    /// crossed.
    pub fn take_alerts(&self) -> Vec<String> {
        std::mem::take(&mut *self.alerts.lock())
    }

    /// `(unfired triggers, kill tombstones)` as the manager counts them —
    /// what gates the trigger scan at enqueue-commit and the tombstone probe
    /// at dequeue. At any quiescent point they equal the `t/` and `k/`
    /// records a scan of the store would find.
    pub fn gated_records(&self) -> (usize, usize) {
        (
            self.unfired_triggers.load(Ordering::Acquire),
            self.kill_marks.load(Ordering::Acquire),
        )
    }

    /// The shared lock manager.
    pub fn locks(&self) -> &Arc<LockManager> {
        &self.locks
    }

    /// The main-memory store behind this manager's volatile queues
    /// (diagnostics: its `txn_counts` say how many transactions joined it).
    pub fn volatile_store(&self) -> &Arc<KvStore> {
        &self.volatile
    }

    /// The catalog entry of `queue`: a shared-lock map probe and an `Arc`
    /// clone when it is there, one committed store read and a decode, under
    /// the catalog's write lock, when it is not (see the module docs).
    fn queue_info(&self, queue: &str) -> QmResult<Arc<QueueInfo>> {
        if let Some(info) = self
            .catalog
            .read()
            .slots
            .get(queue)
            .and_then(|s| s.info.clone())
        {
            return Ok(info);
        }
        let mut catalog = self.catalog.write();
        if let Some(info) = catalog.slots.get(queue).and_then(|s| s.info.clone()) {
            return Ok(info);
        }
        let raw = self
            .durable
            .get(None, &keys::meta_key(queue))?
            .ok_or_else(|| QmError::NoSuchQueue(queue.to_string()))?;
        let meta = QueueMeta::decode_all(&raw).map_err(QmError::Storage)?;
        let slot = catalog.slot(queue);
        let info = Arc::new(QueueInfo { meta, ns: slot.ns });
        slot.info = Some(Arc::clone(&info));
        Ok(info)
    }

    /// Drop `queue`'s decoded record; call after the system transaction that
    /// changed it has committed.
    fn invalidate(&self, queue: &str) {
        if let Some(slot) = self.catalog.write().slots.get_mut(queue) {
            slot.info = None;
        }
    }

    /// Lock namespace of `queue`'s elements, whether or not the queue
    /// (still) exists: an element index entry can outlive its queue.
    fn ns_of(&self, queue: &str) -> u32 {
        if let Some(slot) = self.catalog.read().slots.get(queue) {
            return slot.ns;
        }
        self.catalog.write().slot(queue).ns
    }

    fn next_eid(&self) -> (Eid, u64) {
        let c = self.counter.fetch_add(1, Ordering::AcqRel);
        let eid = Eid::compose(self.epoch, c);
        // The same epoch-qualified counter doubles as the FIFO sequence.
        (eid, eid.raw())
    }

    /// The store that holds `meta`'s elements.
    fn store_of(&self, meta: &QueueMeta) -> &Arc<KvStore> {
        if meta.durable {
            &self.durable
        } else {
            &self.volatile
        }
    }

    /// [`Self::store_of`] for an operation of the user transaction `txn`,
    /// which joins the main-memory store here, at its first touch of a
    /// volatile queue; `prepare`/`commit`/`abort` pass by a store the
    /// transaction never joined.
    fn store_for(&self, txn: u64, meta: &QueueMeta) -> QmResult<&Arc<KvStore>> {
        if !meta.durable && !self.volatile.is_open(txn) {
            self.volatile.begin(txn)?;
        }
        Ok(self.store_of(meta))
    }

    /// Run `f` inside a fresh system transaction on the durable store.
    fn system_txn<R>(&self, f: impl FnOnce(u64) -> QmResult<R>) -> QmResult<R> {
        self.system_txn_on(&self.durable, f)
    }

    /// Run `f` inside a fresh system transaction on the durable store that
    /// also writes `store`'s rows — the main-memory store joins it when
    /// `store` is that one.
    fn system_txn_on<R>(
        &self,
        store: &Arc<KvStore>,
        f: impl FnOnce(u64) -> QmResult<R>,
    ) -> QmResult<R> {
        let joined = Arc::ptr_eq(store, &self.volatile);
        let t = self.sys_ids.next().raw();
        self.durable.begin(t)?;
        let run = || {
            if joined {
                self.volatile.begin(t)?;
            }
            let r = f(t)?;
            self.durable.commit(t)?;
            Ok(r)
        };
        match run() {
            Ok(r) => {
                // Committed: the main-memory store has no device to fail on.
                if joined {
                    self.volatile.commit(t)?;
                }
                Ok(r)
            }
            Err(e) => {
                let _ = self.durable.abort(t);
                if joined {
                    let _ = self.volatile.abort(t);
                }
                Err(e)
            }
        }
    }

    // ------------------------------------------------------------------
    // Data definition (§4.1)
    // ------------------------------------------------------------------

    /// Create a queue. Its error queue is created lazily on first use.
    pub fn create_queue(&self, meta: QueueMeta) -> QmResult<()> {
        self.system_txn(|t| {
            let key = keys::meta_key(&meta.name);
            if self.durable.get(Some(t), &key)?.is_some() {
                return Err(QmError::QueueExists(meta.name.clone()));
            }
            self.durable.put(t, &key, &meta.encode_to_vec())?;
            Ok(())
        })
    }

    /// Fetch a queue's metadata.
    pub fn queue_meta(&self, queue: &str) -> QmResult<QueueMeta> {
        Ok(self.queue_info(queue)?.meta.clone())
    }

    /// Update a queue's metadata in place (start/stop, redirect, thresholds…).
    /// The first operation to start after this returns sees the update.
    pub fn update_queue(&self, queue: &str, f: impl FnOnce(&mut QueueMeta)) -> QmResult<QueueMeta> {
        let updated = self.system_txn(|t| {
            let key = keys::meta_key(queue);
            let raw = self
                .durable
                .get(Some(t), &key)?
                .ok_or_else(|| QmError::NoSuchQueue(queue.to_string()))?;
            let mut meta = QueueMeta::decode_all(&raw).map_err(QmError::Storage)?;
            f(&mut meta);
            meta.name = queue.to_string(); // the name is immutable
            self.durable.put(t, &key, &meta.encode_to_vec())?;
            Ok(meta)
        });
        self.invalidate(queue);
        updated
    }

    /// Destroy a queue with all of its live elements, its registrations and
    /// the elements those retain.
    pub fn destroy_queue(&self, queue: &str) -> QmResult<()> {
        let info = self.queue_info(queue)?;
        let store = self.store_of(&info.meta);
        let r = self.system_txn_on(store, |t| {
            for (k, raw) in store.scan_prefix(Some(t), &keys::element_prefix(queue))? {
                let eid = Element::decode_all(&raw).map_err(QmError::Storage)?.eid;
                store.delete(t, &k)?;
                store.delete(t, &keys::index_key(eid))?;
            }
            let regs = self
                .durable
                .scan_prefix(Some(t), format!("r/{queue}/").as_bytes())?;
            for (k, raw) in regs {
                let reg = Registration::decode_all(&raw).map_err(QmError::Storage)?;
                if let Some(eid) = reg.retained() {
                    store.delete(t, &keys::retained_key(eid))?;
                }
                self.durable.delete(t, &k)?;
            }
            self.durable.delete(t, &keys::meta_key(queue))?;
            Ok(())
        });
        self.invalidate(queue);
        if r.is_ok() {
            self.qindex.clear_queue(queue);
        }
        r
    }

    /// List all queue names in the repository.
    pub fn list_queues(&self) -> QmResult<Vec<String>> {
        let rows = self.durable.scan_prefix(None, b"m/")?;
        let mut out = Vec::with_capacity(rows.len());
        for (_, raw) in rows {
            out.push(QueueMeta::decode_all(&raw).map_err(QmError::Storage)?.name);
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Registration (§4.3)
    // ------------------------------------------------------------------

    /// `Register(qname, client, stable-flag)` — idempotent. If the registrant
    /// is already registered (e.g. recovering from a failure), the existing
    /// record — including the last tagged operation — is returned unchanged.
    pub fn register(
        &self,
        queue: &str,
        registrant: &str,
        stable: bool,
    ) -> QmResult<(QueueHandle, Registration)> {
        self.queue_info(queue)?; // must exist
        let handle = QueueHandle {
            queue: queue.to_string(),
            registrant: registrant.to_string(),
        };
        let key = keys::registration_key(queue, registrant);
        // Registration records are serialized by the KV store itself, not
        // by a lock-manager lock; report them through the store-latch hooks
        // so any future direct access that bypasses this path is flagged.
        let cell = || reg_cell(queue, registrant);
        rrq_check::race::serialized_read(cell);
        if let Some(raw) = self.durable.get(None, &key)? {
            let reg = Registration::decode_all(&raw).map_err(QmError::Storage)?;
            return Ok((handle, reg));
        }
        let reg = Registration::new(registrant, queue, stable);
        let reg2 = reg.clone();
        rrq_check::race::serialized_write(cell);
        self.system_txn(move |t| {
            self.durable.put(t, &key, &reg2.encode_to_vec())?;
            Ok(())
        })?;
        Ok((handle, reg))
    }

    /// `Deregister` — destroys all registration information (§4.3), the
    /// retained element of the registrant's last tagged dequeue included.
    pub fn deregister(&self, handle: &QueueHandle) -> QmResult<()> {
        let key = keys::registration_key(&handle.queue, &handle.registrant);
        rrq_check::race::serialized_write(|| reg_cell(&handle.queue, &handle.registrant));
        let info = match self.queue_info(&handle.queue) {
            // A destroyed queue took its registrations with it.
            Err(QmError::NoSuchQueue(_)) => {
                return Err(QmError::NotRegistered(handle.registrant.clone()))
            }
            info => info?,
        };
        let store = self.store_of(&info.meta);
        self.system_txn_on(store, |t| {
            let raw = self
                .durable
                .get(Some(t), &key)?
                .ok_or_else(|| QmError::NotRegistered(handle.registrant.clone()))?;
            let reg = Registration::decode_all(&raw).map_err(QmError::Storage)?;
            if let Some(eid) = reg.retained() {
                store.delete(t, &keys::retained_key(eid))?;
            }
            self.durable.delete(t, &key)?;
            Ok(())
        })
    }

    /// Update the registrant's stable last-operation record inside the user
    /// transaction `txn` — atomic with the tagged operation — and delete the
    /// retained element the superseded record owned. Returns whether the
    /// registration keeps such a record at all.
    fn record_op(
        &self,
        txn: u64,
        handle: &QueueHandle,
        op: LastOp,
        tag: &[u8],
        eid: Eid,
    ) -> QmResult<bool> {
        let key = keys::registration_key(&handle.queue, &handle.registrant);
        // Read-modify-write of the registration record under the store's
        // internal serialization (see `register`).
        rrq_check::race::serialized_write(|| reg_cell(&handle.queue, &handle.registrant));
        let raw = self
            .durable
            .get(Some(txn), &key)?
            .ok_or_else(|| QmError::NotRegistered(handle.registrant.clone()))?;
        let Some(recorded) =
            Registration::recorded(&raw, op, Some(tag), eid).map_err(QmError::Storage)?
        else {
            return Ok(false);
        };
        self.durable.put(txn, &key, &recorded.raw)?;
        if let Some(retired) = recorded.retired {
            // Retained where it was dequeued: in the store of the
            // registration's own queue, whatever this operation resolved to.
            let own = self.queue_info(&handle.queue)?;
            self.store_for(txn, &own.meta)?
                .delete(txn, &keys::retained_key(retired))?;
        }
        Ok(true)
    }

    // ------------------------------------------------------------------
    // Enqueue / Dequeue / Read / KillElement (§4.2, §7)
    // ------------------------------------------------------------------

    /// Resolve §9 queue redirection, guarding against cycles.
    fn resolve_queue(&self, queue: &str) -> QmResult<Arc<QueueInfo>> {
        let mut info = self.queue_info(queue)?;
        for _ in 0..32 {
            match &info.meta.redirect_to {
                Some(t) if t != &info.meta.name => info = self.queue_info(t)?,
                _ => return Ok(info),
            }
        }
        Err(QmError::RedirectCycle(queue.to_string()))
    }

    /// `Enqueue(h, element, t)` — create an element in the handle's queue
    /// under transaction `txn`, returning its eid.
    pub fn enqueue(
        &self,
        txn: u64,
        handle: &QueueHandle,
        payload: &[u8],
        opts: EnqueueOptions,
    ) -> QmResult<Eid> {
        let info = self.resolve_queue(&handle.queue)?;
        let meta = &info.meta;
        if !meta.started {
            return Err(QmError::QueueStopped(meta.name.clone()));
        }
        let store = self.store_for(txn, meta)?;
        let (eid, seq) = self.next_eid();
        let elem = ElementRef {
            eid,
            priority: opts.priority,
            seq,
            abort_count: 0,
            abort_code: 0,
            attrs: &opts.attrs,
            payload,
        };
        let ekey = keys::element_key(&meta.name, elem.priority, seq);
        store.put(txn, &ekey, &elem.encode_to_vec())?;
        // Tracked for the race detector; the matching dequeue-side access
        // is ordered by the queue's enqueue→dequeue happens-before edge.
        rrq_check::race::on_write(|| elem_cell(eid));
        // Live-element index: eid → (queue, element key). Always durable so
        // Read/Kill can find volatile elements too? No — volatile elements
        // index in the volatile store, consistent with their lifetime.
        store.put(txn, &keys::index_key(eid), &encode_index(&meta.name, &ekey))?;
        if let Some(tag) = &opts.tag {
            self.record_op(txn, handle, LastOp::Enqueue, tag, eid)?;
        }
        {
            let mut g = self.pending_shard(txn);
            let p = g.entry(txn).or_default();
            p.enqueued.push(EnqueuedRef {
                queue: meta.name.clone(),
                elem_key: ekey.clone(),
                eid,
            });
            p.enqueued_queues.insert(meta.name.clone());
        }
        rrq_check::race::queue_enqueued(&meta.name);
        bump(&self.stats.enqueues);
        rrq_obs::counter_inc("qm.enqueue.ops");
        Ok(eid)
    }

    /// `Dequeue(h, t, eh)` — remove and return the next element under
    /// transaction `txn`. See the module docs for ordering and blocking
    /// semantics.
    pub fn dequeue(
        &self,
        txn: u64,
        handle: &QueueHandle,
        opts: DequeueOptions,
    ) -> QmResult<Element> {
        let info = self.queue_info(&handle.queue)?;
        let meta = &info.meta;
        if !meta.started {
            return Err(QmError::QueueStopped(meta.name.clone()));
        }
        let deadline = opts.block.map(|d| Instant::now() + d);
        loop {
            let seen = self.notifier.version(&meta.name);
            match self.try_dequeue_once(txn, handle, &info, &opts, deadline)? {
                Some(elem) => return Ok(elem),
                None => {
                    let Some(dl) = deadline else {
                        return Err(QmError::Empty(meta.name.clone()));
                    };
                    let now = Instant::now();
                    if now >= dl {
                        return Err(QmError::Empty(meta.name.clone()));
                    }
                    self.notifier.wait_past(&meta.name, seen, dl - now);
                    if Instant::now() >= dl {
                        return Err(QmError::Empty(meta.name.clone()));
                    }
                }
            }
        }
    }

    /// One candidate-selection pass: a cursor walk over the ready index,
    /// merged in key order with this transaction's own uncommitted enqueues
    /// (invisible to the committed-only index) and minus its own uncommitted
    /// dequeues. A skip-locked dequeue with no predicate *claims* each index
    /// entry it is offered, so concurrent dequeuers are never offered the
    /// same one (see [`crate::qindex`], "Claim marks"); strict-FIFO blocks on
    /// the head by design and predicate dequeues filter before locking, so
    /// both walk without claiming. `Ok(None)` means no candidate is
    /// currently available.
    fn try_dequeue_once(
        &self,
        txn: u64,
        handle: &QueueHandle,
        info: &QueueInfo,
        opts: &DequeueOptions,
        deadline: Option<Instant>,
    ) -> QmResult<Option<Element>> {
        let meta = &info.meta;
        let store = self.store_for(txn, meta)?;
        let ns = info.ns;
        let strict = meta.mode == OrderingMode::StrictFifo;
        let claim = !strict && opts.predicate.is_none();
        // This transaction's own uncommitted overlay for the queue.
        let (own_enq, own_deq) = {
            let g = self.pending_shard(txn);
            match g.get(&txn) {
                None => (Vec::new(), HashSet::new()),
                Some(p) => {
                    let mut enq: Vec<Vec<u8>> = p
                        .enqueued
                        .iter()
                        .filter(|e| e.queue == meta.name)
                        .map(|e| e.elem_key.clone())
                        .collect();
                    enq.sort_unstable();
                    let deq: HashSet<Vec<u8>> =
                        p.dequeued.iter().map(|d| d.elem_key.clone()).collect();
                    (enq, deq)
                }
            }
        };
        // Cheap rejections before the element lock: already taken by this
        // transaction, or failing the predicate.
        let eligible = |ekey: &[u8]| -> QmResult<bool> {
            if own_deq.contains(ekey) {
                return Ok(false);
            }
            let Some(p) = &opts.predicate else {
                return Ok(true);
            };
            let Some(raw) = store.get(Some(txn), ekey)? else {
                return Ok(false);
            };
            let elem = Element::decode_all(&raw).map_err(QmError::Storage)?;
            Ok(p.matches(&elem))
        };
        let grab =
            |ekey: &[u8]| self.grab_element(txn, handle, meta, opts, deadline, ns, store, ekey);
        let mut own = own_enq.iter().peekable();
        let mut cursor: Option<Vec<u8>> = None;
        // The next index entry, fetched (and claimed) but not yet tried.
        let mut next: Option<Claim<'_>> = None;
        let mut index_dry = false;
        loop {
            if next.is_none() && !index_dry {
                next = self
                    .qindex
                    .next_after(&meta.name, cursor.as_deref(), claim)
                    .map(|(key, _)| Claim {
                        ix: &self.qindex,
                        queue: &meta.name,
                        key,
                        held: claim,
                    });
                index_dry = next.is_none();
            }
            // Own enqueues sorting before the next index entry go first.
            // Nobody else can see, lock, or kill an uncommitted element,
            // so the only outcomes are taken or filtered out.
            if let Some(okey) = own.next_if(|o| next.as_ref().is_none_or(|c| **o < c.key)) {
                if eligible(okey)? {
                    if let Grab::Taken(e) = grab(okey)? {
                        if next.take().is_some_and(|c| c.held) {
                            // The entry we claimed and did not need is
                            // available again; a dequeuer that found it
                            // claimed may have gone to sleep meanwhile.
                            self.notifier.signal(&meta.name);
                        }
                        return Ok(Some(e));
                    }
                }
                continue;
            }
            let Some(cand) = next.take() else {
                return Ok(None);
            };
            if eligible(&cand.key)? {
                match grab(&cand.key)? {
                    Grab::Taken(e) => {
                        cand.keep();
                        return Ok(Some(e));
                    }
                    Grab::Busy if strict => return Ok(None),
                    // `Gone`: a committed dequeue whose entry is still
                    // indexed — a deferred commit keeps it until its
                    // `close_epoch`. The entry after it is the head.
                    Grab::Gone | Grab::Tombstoned | Grab::Busy => {}
                }
            }
            // Not taken: `cand` drops here, clearing its mark.
            cursor = Some(cand.key.clone());
        }
    }

    /// Lock, re-validate, and take one candidate element.
    #[allow(clippy::too_many_arguments)]
    fn grab_element(
        &self,
        txn: u64,
        handle: &QueueHandle,
        meta: &QueueMeta,
        opts: &DequeueOptions,
        deadline: Option<Instant>,
        ns: u32,
        store: &Arc<KvStore>,
        ekey: &[u8],
    ) -> QmResult<Grab> {
        let lk = LockKey::new(ns, ekey.to_vec());
        let acquired = match meta.mode {
            OrderingMode::SkipLocked => self.locks.try_lock(txn, &lk, LockMode::Exclusive),
            OrderingMode::StrictFifo => {
                // Block behind the head element's lock.
                let wait = deadline
                    .map(|dl| dl.saturating_duration_since(Instant::now()))
                    .unwrap_or(Duration::from_secs(5));
                self.locks.lock(txn, &lk, LockMode::Exclusive, wait)
            }
        };
        match acquired {
            Ok(()) => {}
            Err(TxnError::LockTimeout) => {
                bump(&self.stats.lock_skips);
                rrq_obs::counter_inc("qm.dequeue.lock_skips");
                return Ok(Grab::Busy);
            }
            Err(e) => return Err(e.into()),
        }
        // Re-check under the lock: the element may have been taken
        // (committed) between candidate selection and lock acquisition.
        let Some(raw2) = store.get(Some(txn), ekey)? else {
            return Ok(Grab::Gone);
        };
        let elem = Element::decode_all(&raw2).map_err(QmError::Storage)?;
        // A kill tombstone means a cancel is racing; skip.
        if self.kill_marked(elem.eid)? {
            return Ok(Grab::Tombstoned);
        }
        // Join the queue's happens-before edge, then touch the tracked
        // element cell (we hold its element lock, so this is also
        // lock-ordered).
        rrq_check::race::queue_dequeued(&meta.name);
        rrq_check::race::on_write(|| elem_cell(elem.eid));
        // A stable registration's tagged dequeue keeps the element readable
        // (`Read`, `Rereceive`) until its next tagged operation: the row
        // changes keys. Every other dequeue is the end of the element.
        let retained = match &opts.tag {
            Some(tag) => self.record_op(txn, handle, LastOp::Dequeue, tag, elem.eid)?,
            None => false,
        };
        store.delete(txn, &keys::index_key(elem.eid))?;
        if retained {
            store.rename(txn, ekey, &keys::retained_key(elem.eid))?;
        } else {
            store.delete(txn, ekey)?;
        }
        self.pending_shard(txn)
            .entry(txn)
            .or_default()
            .dequeued
            .push(DequeuedRef {
                queue: meta.name.clone(),
                elem_key: ekey.to_vec(),
                eid: elem.eid,
                error_queue: opts.error_queue.clone(),
                grabbed_at: rrq_obs::now(),
            });
        bump(&self.stats.dequeues);
        rrq_obs::counter_inc("qm.dequeue.ops");
        Ok(Grab::Taken(elem))
    }

    /// Batch dequeue (§1: requests "can be captured reliably in a queue, and
    /// processed later in a batch"): remove up to `max` elements in one
    /// transaction. Returns fewer (possibly zero) when the queue runs dry —
    /// batch consumers don't block.
    pub fn dequeue_batch(
        &self,
        txn: u64,
        handle: &QueueHandle,
        max: usize,
        opts: &DequeueOptions,
    ) -> QmResult<Vec<Element>> {
        let mut out = Vec::with_capacity(max.min(64));
        for _ in 0..max {
            match self.dequeue(
                txn,
                handle,
                DequeueOptions {
                    tag: None, // tags describe single ops; batch is untagged
                    predicate: opts.predicate.clone(),
                    block: None,
                    error_queue: opts.error_queue.clone(),
                },
            ) {
                Ok(e) => out.push(e),
                Err(QmError::Empty(_)) => break,
                Err(e) => return Err(e),
            }
        }
        Ok(out)
    }

    /// Dequeue from a *queue set* (§9, DECintact: "queue sets (a view of a
    /// set of queues)"): take the next available element from any of the
    /// named queues, trying them in order. Blocks (when `opts.block` is set)
    /// until one of them yields.
    pub fn dequeue_from_set(
        &self,
        txn: u64,
        handles: &[QueueHandle],
        opts: DequeueOptions,
    ) -> QmResult<(usize, Element)> {
        if handles.is_empty() {
            return Err(QmError::Invalid("empty queue set".into()));
        }
        let deadline = opts.block.map(|d| Instant::now() + d);
        loop {
            // Record versions before scanning so wakeups are not missed.
            let versions: Vec<u64> = handles
                .iter()
                .map(|h| self.notifier.version(&h.queue))
                .collect();
            for (i, h) in handles.iter().enumerate() {
                match self.dequeue(
                    txn,
                    h,
                    DequeueOptions {
                        tag: opts.tag.clone(),
                        predicate: opts.predicate.clone(),
                        block: None,
                        error_queue: opts.error_queue.clone(),
                    },
                ) {
                    Ok(e) => return Ok((i, e)),
                    Err(QmError::Empty(_)) => continue,
                    Err(e) => return Err(e),
                }
            }
            let Some(dl) = deadline else {
                return Err(QmError::Empty(format!(
                    "queue set [{}]",
                    handles
                        .iter()
                        .map(|h| h.queue.as_str())
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            };
            let now = Instant::now();
            if now >= dl {
                return Err(QmError::Empty("queue set".into()));
            }
            // Wait for any member queue to gain elements (short poll slices
            // so a signal on a later queue is still noticed promptly).
            let slice = (dl - now).min(Duration::from_millis(25));
            let mut woken = false;
            for (h, &seen) in handles.iter().zip(&versions) {
                if self.notifier.version(&h.queue) > seen {
                    woken = true;
                    break;
                }
            }
            if !woken {
                self.notifier
                    .wait_past(&handles[0].queue, versions[0], slice);
            }
        }
    }

    /// `Read(h, e)` — return the element with `eid` without modifying it.
    /// Works for live elements and for the one a stable registration's last
    /// tagged dequeue retained.
    pub fn read(&self, eid: Eid) -> QmResult<Element> {
        bump(&self.stats.reads);
        for store in [&self.durable, &self.volatile] {
            if let Some(raw) = store.get(None, &keys::index_key(eid))? {
                let (_, ekey) = decode_index(&raw)?;
                if let Some(eraw) = store.get(None, &ekey)? {
                    return Element::decode_all(&eraw).map_err(QmError::Storage);
                }
            }
            if let Some(raw) = store.get(None, &keys::retained_key(eid))? {
                return Element::decode_all(&raw).map_err(QmError::Storage);
            }
        }
        Err(QmError::NoSuchElement(eid.raw()))
    }

    /// `KillElement(e)` — §7 cancellation.
    ///
    /// * Live and unlocked: deleted immediately; returns `true`.
    /// * Dequeued by an uncommitted transaction: that transaction is poisoned
    ///   (its commit fails, forcing an abort) and a tombstone ensures the
    ///   element is deleted instead of requeued; returns `true`.
    /// * Already dequeued and committed: returns `false` — too late (§7: with
    ///   multi-transaction requests, use compensation).
    pub fn kill_element(&self, eid: Eid) -> QmResult<bool> {
        // Find the element in either store.
        for store in [&self.durable, &self.volatile] {
            let Some(raw) = store.get(None, &keys::index_key(eid))? else {
                continue;
            };
            let (queue, ekey) = decode_index(&raw)?;
            let ns = self.ns_of(&queue);
            let lk = LockKey::new(ns, ekey.clone());
            let sys = self.sys_ids.next().raw();
            match self.locks.try_lock(sys, &lk, LockMode::Exclusive) {
                Ok(()) => {
                    // Unlocked: delete right now in a system transaction.
                    let r = Self::kill_live_element(store, sys, &ekey, eid);
                    self.locks.unlock_all(sys);
                    let killed = r?;
                    if killed {
                        self.qindex.remove(&queue, &ekey);
                        rrq_obs::counter_inc("qm.element.dropped");
                        bump(&self.stats.kills);
                    }
                    return Ok(killed);
                }
                Err(_) => {
                    // Held by an in-flight dequeuer: poison it and leave a
                    // tombstone for its abort path. Counted before it can
                    // be read; not counted at all if it adds no record.
                    let tomb = keys::kill_key(eid);
                    self.kill_marks.fetch_add(1, Ordering::AcqRel);
                    let added = self.system_txn(|t| {
                        let fresh = self.durable.get(Some(t), &tomb)?.is_none();
                        self.durable.put(t, &tomb, &[1])?;
                        Ok(fresh)
                    });
                    if !matches!(added, Ok(true)) {
                        lower(&self.kill_marks);
                    }
                    added?;
                    // Walk the stripes one at a time; a dequeuer lives in
                    // exactly one, and holding two guards is never needed.
                    for i in 0..self.pending.len() {
                        let mut g = self.pending_shard_at(i);
                        for p in g.values_mut() {
                            if p.dequeued.iter().any(|d| d.eid == eid) {
                                p.poisoned = Some(eid);
                            }
                        }
                    }
                    bump(&self.stats.kills);
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }

    /// Delete a live, unlocked element inside a committed system
    /// transaction; returns whether it was still present. A named function
    /// (not a closure in `kill_element`) so the durability-dominator pass
    /// can see the `commit` on every path to the caller's index update.
    fn kill_live_element(store: &Arc<KvStore>, sys: u64, ekey: &[u8], eid: Eid) -> QmResult<bool> {
        store.begin(sys)?;
        let still_there = store.get(Some(sys), ekey)?.is_some();
        if still_there {
            store.delete(sys, ekey)?;
            store.delete(sys, &keys::index_key(eid))?;
        }
        store.commit(sys)?;
        Ok(still_there)
    }

    /// Is there a kill tombstone for `eid`? The store is probed only while
    /// tombstones exist at all.
    fn kill_marked(&self, eid: Eid) -> QmResult<bool> {
        if self.kill_marks.load(Ordering::Acquire) == 0 {
            return Ok(false);
        }
        Ok(self.durable.get(None, &keys::kill_key(eid))?.is_some())
    }

    /// Number of live (committed) elements in `queue` — answered from the
    /// ready index, no storage scan.
    pub fn depth(&self, queue: &str) -> QmResult<usize> {
        self.queue_info(queue)?; // unknown queues still error
        Ok(self.qindex.depth(queue))
    }

    /// Depth by paging the element keyspace — the index's verification
    /// baseline.
    pub fn depth_scan(&self, queue: &str) -> QmResult<usize> {
        let info = self.queue_info(queue)?;
        let store = self.store_of(&info.meta);
        let prefix = keys::element_prefix(queue);
        let mut after: Option<Vec<u8>> = None;
        let mut n = 0usize;
        loop {
            let (page, cursor) = store.scan_prefix_page(None, &prefix, after.as_deref(), 256)?;
            n += page.len();
            match cursor {
                Some(c) => after = Some(c),
                None => return Ok(n),
            }
        }
    }

    /// Defer `txn`'s durability: when it commits one-phase, its commit
    /// record is appended but not forced, its locks are released, and its
    /// enqueues and dequeues stay out of the ready index (no clerk can
    /// dequeue its reply, no wakeup fires) until [`Self::close_epoch`]. A
    /// transaction that goes through `prepare` — anything enlisted beyond
    /// this queue manager — loses the mark and commits forced, as ever.
    /// Call right after enlisting, before the transaction touches an element.
    pub fn defer_commit(&self, txn: u64) {
        self.pending_shard(txn).entry(txn).or_default().deferred = true;
    }

    /// Make every deferred commit so far durable, then visible: take the
    /// buffered mirrors, force the log, apply them to the ready index and
    /// fire their wakeups and alerts. Returns how many commits it showed.
    /// Taking *first* is what lets any number of callers close concurrently:
    /// a mirror is buffered after its commit record is appended, so every
    /// mirror taken here is covered by the force that follows, whoever
    /// buffered it. If the force fails nothing is applied and the mirrors go
    /// back for a later close.
    pub fn close_epoch(&self) -> QmResult<usize> {
        let taken = {
            let mut buf = self.epoch_buf.lock();
            std::mem::take(&mut *buf)
        };
        if taken.is_empty() {
            return Ok(0);
        }
        if let Err(e) = self.durable.force_wal() {
            let mut buf = self.epoch_buf.lock();
            let later = std::mem::replace(&mut *buf, taken);
            buf.extend(later);
            return Err(e.into());
        }
        for pend in &taken {
            self.apply_committed(pend);
        }
        Ok(taken.len())
    }

    /// Deferred commits waiting for a [`Self::close_epoch`]. Zero at any
    /// quiescent point.
    pub fn deferred_commits(&self) -> usize {
        self.epoch_buf.lock().len()
    }

    /// Mirror one committed transaction's effects into the ready index
    /// *before* waking anyone: a dequeuer signalled below must find the new
    /// entries. The index application itself is the batch
    /// [`QueueIndex::apply_mirror`] — by the time this runs, the
    /// transaction's commit record is forced (by its own commit, or by
    /// `close_epoch` for a deferred one), so the mirror redoes durable
    /// effects.
    fn apply_committed(&self, pend: &PendingTxn) {
        self.qindex.apply_mirror(
            pend.enqueued
                .iter()
                .map(|e| (e.queue.as_str(), e.elem_key.clone(), e.eid)),
            pend.dequeued
                .iter()
                .map(|dq| (dq.queue.as_str(), dq.elem_key.as_slice())),
        );
        rrq_obs::counter_add("qm.enqueue.committed", pend.enqueued.len() as u64);
        for dq in &pend.dequeued {
            rrq_obs::counter_inc("qm.dequeue.committed");
            rrq_obs::observe(
                "qm.element.lock_hold_ticks",
                rrq_obs::now().saturating_sub(dq.grabbed_at),
            );
        }
        for q in &pend.enqueued_queues {
            // Counted wakeup: at most one blocked dequeuer per newly
            // available element, never the herd (see `notify`).
            let newly = pend.enqueued.iter().filter(|e| &e.queue == q).count();
            self.notifier.signal_n(q, newly);
            // Alert thresholds (§9): raised by the commit whose inserts
            // carried the depth across the threshold, not by every commit
            // that finds it there.
            let threshold = self.queue_info(q).ok().and_then(|i| i.meta.alert_threshold);
            if let Some(threshold) = threshold {
                let after = self.qindex.depth(q) as u64;
                let before = after.saturating_sub(newly as u64);
                if before < threshold && threshold <= after {
                    bump(&self.stats.alerts);
                    let mut pending = self.alerts.lock();
                    if !pending.contains(q) {
                        pending.push(q.clone());
                    }
                }
            }
            // Fork/join triggers (§6).
            let _ = self.check_triggers(q);
        }
    }

    /// The ready index's current contents: `queue → ordered (key, eid)`.
    pub fn index_snapshot(&self) -> IndexSnapshot {
        self.qindex.snapshot()
    }

    /// How many ready-index entries carry a dequeuer's claim mark. Zero at
    /// any quiescent point and after every restart.
    pub fn claimed_entries(&self) -> usize {
        self.qindex.claimed()
    }

    /// The ready index's element total and the `qm.queue.depth` gauge
    /// reading, captured in one critical section. The two must always agree
    /// — the gauge is updated inside the index mutex (see [`QueueIndex`]).
    pub fn depth_accounting(&self) -> (usize, i64) {
        self.qindex.depth_accounting()
    }

    /// The same structure derived from a fresh scan of the committed element
    /// keyspace in both stores — the ground truth the index must match at
    /// any quiescent point (and, critically, right after recovery).
    pub fn index_from_scan(&self) -> QmResult<IndexSnapshot> {
        let mut out = IndexSnapshot::new();
        for store in [&self.durable, &self.volatile] {
            for (k, raw) in store.scan_prefix(None, b"e/")? {
                let Some(queue) = keys::parse_element_key(&k) else {
                    continue;
                };
                let elem = Element::decode_all(&raw).map_err(QmError::Storage)?;
                out.entry(queue.to_string())
                    .or_default()
                    .push((k, elem.eid));
            }
        }
        for v in out.values_mut() {
            v.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        }
        Ok(out)
    }

    /// Verification hook: is the element lock for `(queue, ekey)` free?
    /// Probes with a throwaway system id and releases immediately. Dequeue
    /// locks are volatile, so after a restart this must hold for every
    /// indexed element.
    pub fn element_lock_free(&self, queue: &str, ekey: &[u8]) -> bool {
        let ns = self.ns_of(queue);
        let lk = LockKey::new(ns, ekey.to_vec());
        let probe = self.sys_ids.next().raw();
        let free = self.locks.try_lock(probe, &lk, LockMode::Exclusive).is_ok();
        self.locks.unlock_all(probe);
        free
    }

    /// `None` when the ready index and a fresh storage scan agree exactly
    /// (same queues, same keys in the same order, same eids); otherwise a
    /// description of the first divergence.
    pub fn index_divergence(&self) -> QmResult<Option<String>> {
        let ix = self.index_snapshot();
        let scan = self.index_from_scan()?;
        if ix == scan {
            return Ok(None);
        }
        for (q, want) in &scan {
            match ix.get(q) {
                None => {
                    return Ok(Some(format!(
                        "queue {q:?}: {} elements in storage, none in index",
                        want.len()
                    )))
                }
                Some(have) if have != want => {
                    return Ok(Some(format!(
                        "queue {q:?}: index has {} elements, storage has {}",
                        have.len(),
                        want.len()
                    )))
                }
                _ => {}
            }
        }
        for q in ix.keys() {
            if !scan.contains_key(q) {
                return Ok(Some(format!("queue {q:?}: in index but not in storage")));
            }
        }
        Ok(Some("index != storage".into()))
    }

    /// `None` when the retained rows and the live-element index are what the
    /// registrations and the elements say they should be: every `d/<eid>`
    /// row is named by exactly one stable registration whose last tagged
    /// operation was that dequeue, and every `x/<eid>` row points at an
    /// element that is there. Otherwise a description of the first
    /// divergence. Meaningful at a quiescent point, like
    /// [`Self::index_divergence`].
    pub fn retention_divergence(&self) -> QmResult<Option<String>> {
        let mut owners: HashMap<Eid, Vec<String>> = HashMap::new();
        for (_, raw) in self.durable.scan_prefix(None, b"r/")? {
            let reg = Registration::decode_all(&raw).map_err(QmError::Storage)?;
            if let Some(eid) = reg.retained() {
                owners
                    .entry(eid)
                    .or_default()
                    .push(format!("{}/{}", reg.queue, reg.registrant));
            }
        }
        for store in [&self.durable, &self.volatile] {
            for (k, _) in store.scan_prefix(None, b"d/")? {
                let eid = keys::eid_of(&k).ok_or_else(|| bad_key(&k))?;
                match owners.get(&eid).map_or(&[][..], Vec::as_slice) {
                    [_] => {}
                    [] => return Ok(Some(format!("retained {eid} belongs to no registration"))),
                    many => return Ok(Some(format!("retained {eid} belongs to {many:?}"))),
                }
            }
            for (k, raw) in store.scan_prefix(None, b"x/")? {
                let (queue, ekey) = decode_index(&raw)?;
                if store.get(None, &ekey)?.is_none() {
                    let eid = keys::eid_of(&k).ok_or_else(|| bad_key(&k))?;
                    return Ok(Some(format!(
                        "index row of {eid} points at no element of {queue:?}"
                    )));
                }
            }
        }
        Ok(None)
    }

    /// Read-only content query over a queue's live elements.
    pub fn query(&self, queue: &str, predicate: &Predicate) -> QmResult<Vec<Element>> {
        let info = self.queue_info(queue)?;
        let store = self.store_of(&info.meta);
        let rows = store.scan_prefix(None, &keys::element_prefix(queue))?;
        let mut out = Vec::new();
        for (_, raw) in rows {
            let e = Element::decode_all(&raw).map_err(QmError::Storage)?;
            if predicate.matches(&e) {
                out.push(e);
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Triggers (§6 fork/join)
    // ------------------------------------------------------------------

    /// Install a trigger: when all `required_rids` are present (as `rid`
    /// attributes) among the live elements of `join_queue`, enqueue `payload`
    /// into `target_queue` exactly once.
    pub fn set_trigger(&self, trigger: Trigger) -> QmResult<()> {
        let key = keys::trigger_key(&trigger.id);
        // Counted before it can be read; the count is of unfired records,
        // so the raise is given back unless this call added one.
        self.unfired_triggers.fetch_add(1, Ordering::AcqRel);
        let replaced_unfired = self.system_txn(|t| {
            let unfired = match self.durable.get(Some(t), &key)? {
                Some(raw) => !Trigger::decode_all(&raw).map_err(QmError::Storage)?.fired,
                None => false,
            };
            self.durable.put(t, &key, &trigger.encode_to_vec())?;
            Ok(unfired)
        });
        if trigger.fired || !matches!(replaced_unfired, Ok(false)) {
            lower(&self.unfired_triggers);
        }
        replaced_unfired.map(|_| ())
    }

    /// Evaluate triggers watching `queue`; fire those whose join condition
    /// is now satisfied.
    fn check_triggers(&self, queue: &str) -> QmResult<()> {
        if self.unfired_triggers.load(Ordering::Acquire) == 0 {
            return Ok(());
        }
        for (tkey, raw) in self.durable.scan_prefix(None, b"t/")? {
            let trig = Trigger::decode_all(&raw).map_err(QmError::Storage)?;
            if trig.fired || trig.join_queue != queue {
                continue;
            }
            // Evaluations of one trigger take turns under its record's
            // lock: of two commits that complete a join together, exactly
            // one finds the record unfired, so the continuation is sent
            // once and the unfired count comes down once.
            let turn = self.sys_ids.next().raw();
            let lk = LockKey::new(TRIGGER_NS, tkey.clone());
            self.locks
                .lock(turn, &lk, LockMode::Exclusive, Duration::from_secs(5))
                .map_err(QmError::Txn)?;
            let joined = self.mark_fired_if_joined(&tkey);
            self.locks.unlock_all(turn);
            let Some(trig) = joined? else {
                continue;
            };
            // Fire via a normal system enqueue (outside the user txn).
            let sys = self.sys_ids.next().raw();
            self.begin(TxnId(sys)).map_err(QmError::Txn)?;
            let h = QueueHandle {
                queue: trig.target_queue,
                registrant: format!("trigger/{}", trig.id),
            };
            match self.enqueue(sys, &h, &trig.payload, EnqueueOptions::default()) {
                Ok(_) => {
                    ResourceManager::commit(self, TxnId(sys)).map_err(QmError::Txn)?;
                    bump(&self.stats.triggers_fired);
                }
                Err(e) => {
                    let _ = ResourceManager::abort(self, TxnId(sys));
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// With the trigger's lock held: if the record at `tkey` is still
    /// unfired and every required rid is among its join queue's live
    /// elements, commit it as fired and return it.
    fn mark_fired_if_joined(&self, tkey: &[u8]) -> QmResult<Option<Trigger>> {
        let Some(raw) = self.durable.get(None, tkey)? else {
            return Ok(None);
        };
        let mut trig = Trigger::decode_all(&raw).map_err(QmError::Storage)?;
        if trig.fired {
            return Ok(None);
        }
        let live = self.query(&trig.join_queue, &Predicate::True)?;
        let present: HashSet<&str> = live.iter().filter_map(|e| e.attr("rid")).collect();
        if !trig
            .required_rids
            .iter()
            .all(|r| present.contains(r.as_str()))
        {
            return Ok(None);
        }
        trig.fired = true;
        self.system_txn(|t| {
            self.durable.put(t, tkey, &trig.encode_to_vec())?;
            Ok(())
        })?;
        lower(&self.unfired_triggers);
        Ok(Some(trig))
    }

    // ------------------------------------------------------------------
    // Abort-side maintenance
    // ------------------------------------------------------------------

    /// After a transaction abort returned `d`'s element to its queue, bump
    /// its abort count, honour kill tombstones, and move it to the error
    /// queue when the retry limit is reached (§4.2).
    fn handle_aborted_dequeue(&self, d: &DequeuedRef, abort_code: u32) -> QmResult<()> {
        /// Where the element ended up, for ready-index maintenance and
        /// signalling — decided inside the system transaction, applied to
        /// the index only after it commits.
        enum AbortOutcome {
            /// Gone (concurrent destroy) or deleted honouring a kill.
            Dropped,
            /// Moved to the error queue under a fresh ordering key.
            Moved { queue: String, ekey: Vec<u8> },
            /// Returned to its queue under a fresh ordering key (rotate).
            Requeued { ekey: Vec<u8> },
            /// Returned to its queue under its original key.
            Returned,
        }
        bump(&self.stats.aborted_dequeues);
        let info = self.queue_info(&d.queue)?;
        let meta = &info.meta;
        let store = Arc::clone(self.store_of(meta));
        let tomb = keys::kill_key(d.eid);
        let killed = self.kill_marked(d.eid)?;

        let sys = self.sys_ids.next().raw();
        store.begin(sys)?;
        let result = (|| -> QmResult<AbortOutcome> {
            let Some(raw) = store.get(Some(sys), &d.elem_key)? else {
                return Ok(AbortOutcome::Dropped); // vanished (e.g. destroy)
            };
            let mut elem = Element::decode_all(&raw).map_err(QmError::Storage)?;
            if killed {
                store.delete(sys, &d.elem_key)?;
                store.delete(sys, &keys::index_key(d.eid))?;
                return Ok(AbortOutcome::Dropped);
            }
            elem.abort_count += 1;
            elem.abort_code = abort_code;
            let limit = meta.retry_limit;
            if limit > 0 && elem.abort_count >= limit {
                // Move to the error queue, keeping the element's identity.
                let errq = d
                    .error_queue
                    .clone()
                    .unwrap_or_else(|| meta.error_queue.clone());
                self.ensure_error_queue(&errq)?;
                store.delete(sys, &d.elem_key)?;
                let (_, seq) = self.next_eid(); // fresh ordering slot
                let ekey = keys::element_key(&errq, elem.priority, seq);
                elem.seq = seq;
                store.put(sys, &ekey, &elem.encode_to_vec())?;
                store.put(sys, &keys::index_key(d.eid), &encode_index(&errq, &ekey))?;
                Ok(AbortOutcome::Moved { queue: errq, ekey })
            } else if meta.requeue_at_back_on_abort {
                // Rotate to the back of the queue: same element identity,
                // fresh ordering slot. Prevents head-of-line livelock when
                // the head's required resources are held by requests deeper
                // in the queue.
                store.delete(sys, &d.elem_key)?;
                let (_, seq) = self.next_eid();
                elem.seq = seq;
                let ekey = keys::element_key(&meta.name, elem.priority, seq);
                store.put(sys, &ekey, &elem.encode_to_vec())?;
                store.put(
                    sys,
                    &keys::index_key(d.eid),
                    &encode_index(&meta.name, &ekey),
                )?;
                Ok(AbortOutcome::Requeued { ekey })
            } else {
                store.put(sys, &d.elem_key, &elem.encode_to_vec())?;
                Ok(AbortOutcome::Returned)
            }
        })();
        match result {
            Ok(outcome) => {
                store.commit(sys)?;
                if killed {
                    // Clear the tombstone now the element is gone.
                    self.system_txn(|t| {
                        self.durable.delete(t, &tomb)?;
                        Ok(())
                    })?;
                    lower(&self.kill_marks);
                }
                // The dequeue never committed, so the old key is still in
                // the ready index; fix it up to match the outcome, then
                // signal so woken dequeuers see the fresh entry. Each arm is
                // one `fixup` call — one critical section — so the index
                // (and the depth gauge it carries) never shows the element
                // half-moved to a concurrent `depth()` or divergence check.
                match outcome {
                    AbortOutcome::Dropped => {
                        self.qindex.fixup(Some((&d.queue, &d.elem_key)), None);
                        rrq_obs::counter_inc("qm.element.dropped");
                    }
                    AbortOutcome::Moved { queue, ekey } => {
                        self.qindex
                            .fixup(Some((&d.queue, &d.elem_key)), Some((&queue, ekey, d.eid)));
                        bump(&self.stats.error_moves);
                        self.notifier.signal(&queue);
                    }
                    AbortOutcome::Requeued { ekey } => {
                        self.qindex
                            .fixup(Some((&d.queue, &d.elem_key)), Some((&d.queue, ekey, d.eid)));
                        self.notifier.signal(&d.queue);
                    }
                    AbortOutcome::Returned => {
                        self.qindex
                            .fixup(None, Some((&d.queue, d.elem_key.clone(), d.eid)));
                        self.notifier.signal(&d.queue);
                    }
                }
                rrq_obs::observe(
                    "qm.element.lock_hold_ticks",
                    rrq_obs::now().saturating_sub(d.grabbed_at),
                );
                Ok(())
            }
            Err(e) => {
                let _ = store.abort(sys);
                Err(e)
            }
        }
    }

    fn ensure_error_queue(&self, name: &str) -> QmResult<()> {
        if self.queue_info(name).is_ok() {
            return Ok(());
        }
        let mut meta = QueueMeta::with_defaults(name);
        meta.retry_limit = 0; // error queues never cascade
        match self.create_queue(meta) {
            Ok(()) | Err(QmError::QueueExists(_)) => Ok(()),
            Err(e) => Err(e),
        }
    }
}

/// Race-detector cell name of a §4.3 registration record.
fn reg_cell(queue: &str, registrant: &str) -> String {
    format!("qm/reg/{queue}/{registrant}")
}

/// Race-detector cell name of an element.
fn elem_cell(eid: Eid) -> String {
    format!("qm/elem/{eid}")
}

fn bad_key(key: &[u8]) -> QmError {
    QmError::Invalid(format!("malformed eid key {key:?}"))
}

fn encode_index(queue: &str, ekey: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + queue.len() + ekey.len());
    put::string(&mut buf, queue);
    put::bytes(&mut buf, ekey);
    buf
}

fn decode_index(raw: &[u8]) -> QmResult<(String, Vec<u8>)> {
    let mut r = Reader::new(raw);
    let queue = r.string().map_err(QmError::Storage)?;
    let ekey = r.bytes().map_err(QmError::Storage)?;
    Ok((queue, ekey))
}

// ----------------------------------------------------------------------
// ResourceManager: the QM as a transaction participant
// ----------------------------------------------------------------------

impl ResourceManager for QueueManager {
    fn name(&self) -> &str {
        &self.name
    }

    fn begin(&self, txn: TxnId) -> TxnResult<()> {
        self.durable.begin(txn.raw())?;
        self.pending_shard(txn.raw())
            .insert(txn.raw(), PendingTxn::default());
        Ok(())
    }

    fn prepare(&self, txn: TxnId) -> TxnResult<()> {
        {
            let mut g = self.pending_shard(txn.raw());
            if let Some(p) = g.get_mut(&txn.raw()) {
                if let Some(eid) = p.poisoned {
                    return Err(TxnError::InvalidState(format!(
                        "element {eid} cancelled; transaction must abort"
                    )));
                }
                // Another participant commits and forces on its own; an
                // unforced commit here could lose this half of the
                // transaction in a crash the other half survives.
                p.deferred = false;
            }
        }
        self.durable.prepare(txn.raw())?;
        if self.volatile.is_open(txn.raw()) {
            self.volatile.prepare(txn.raw())?;
        }
        Ok(())
    }

    fn commit(&self, txn: TxnId) -> TxnResult<()> {
        // One-phase path: the poison check runs here too.
        let deferred = {
            let g = self.pending_shard(txn.raw());
            let pend = g.get(&txn.raw());
            if let Some(eid) = pend.and_then(|p| p.poisoned) {
                return Err(TxnError::InvalidState(format!(
                    "element {eid} cancelled; transaction must abort"
                )));
            }
            pend.is_some_and(|p| p.deferred)
        };
        if deferred {
            self.durable.commit_deferred(txn.raw())?;
        } else {
            self.durable.commit(txn.raw())?;
        }
        // The transaction is committed. What is left cannot fail and leave
        // the mirror below unapplied: the main-memory store has no device.
        if self.volatile.is_open(txn.raw()) {
            self.volatile.commit(txn.raw())?;
        }
        let pend = self
            .pending_shard(txn.raw())
            .remove(&txn.raw())
            .unwrap_or_default();
        if deferred {
            // Buffered only now, after the commit record's append: whoever
            // takes this mirror forces the log afterwards (`close_epoch`).
            self.epoch_buf.lock().push(pend);
            return Ok(());
        }
        self.apply_committed(&pend);
        Ok(())
    }

    fn abort(&self, txn: TxnId) -> TxnResult<()> {
        self.durable.abort(txn.raw())?;
        if self.volatile.is_open(txn.raw()) {
            self.volatile.abort(txn.raw())?;
        }
        let pend = self
            .pending_shard(txn.raw())
            .remove(&txn.raw())
            .unwrap_or_default();
        let mut first_err = None;
        for d in &pend.dequeued {
            if let Err(e) = self.handle_aborted_dequeue(d, 1) {
                // The disposition did not happen: the stored element is
                // unchanged and the abort releases its lock, so it must be
                // offered again — clear the claim this dequeue left on it.
                self.qindex.unclaim(&d.queue, &d.elem_key);
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(TxnError::InvalidState(e.to_string())),
        }
    }
}
