//! A queue repository: "a set of queues … Each repository has a system- (or
//! network-) wide unique name" (§4.1), bundled with the node-local
//! transaction machinery and its recovery path.
//!
//! [`Repository::open`] is the restart entry point: it recovers the durable
//! store from checkpoint + log, resolves in-doubt two-phase-commit
//! participants against the coordinator log, and hands back a ready
//! [`QueueManager`] + [`TxnManager`] pair. Each queue manager is born with an
//! empty main-memory store for its volatile queues, which lose their contents
//! on a node failure (§10).
//!
//! With `RepoOptions { repo_partitions: N > 1 }` the repository becomes a
//! shared-nothing *cluster* of N partitions (DESIGN.md S25): each partition
//! owns the queues [`crate::route::partition_of`] hashes to it and runs its
//! own durable store (own log + checkpoint device), queue manager, and lock
//! manager — a partition is the unit of logging and of recovery. Only two
//! pieces are shared, both append-only: the 2PC coordinator log (one
//! decision record covers every partition a transaction touched) and the
//! transaction-id generator (ids key lock tables and store tokens, so they
//! must be cluster-unique). A transaction
//! homed on one partition that never touches another partition's queues is
//! the paper's common case and pays zero cross-partition coordination; one
//! that does touch a sibling enlists it as a second resource manager and
//! commits through the existing logged two-phase protocol in `rrq-txn`.

use crate::error::{QmError, QmResult};
use crate::meta::QueueMeta;
use crate::ops::QueueManager;
use crate::route::{partition_of, MAX_REPO_PARTITIONS};
use rrq_storage::disk::{CrashStyle, Disk, LatencyDisk, SimDisk, TornWriteMode};
use rrq_storage::kv::KvStore;
use rrq_storage::recovery::RecoveryReport;
use rrq_storage::StorageError;
use rrq_txn::{
    CoordinatorLog, KvResource, LockManager, ResourceManager, Txn, TxnId, TxnIdGen, TxnManager,
    TxnResult,
};
use std::sync::Arc;
use std::time::Duration;

/// The stable devices backing a repository. Clone-shared: keep a copy to
/// crash and reopen the "same disks" in tests and simulations.
///
/// Devices come in [`MAX_REPO_PARTITIONS`] groups — one per possible
/// repository partition, each a log device and a checkpoint device; a
/// repository opened with `repo_partitions = P` uses the first `P` groups.
/// The legacy fields alias group 0 (SimDisk clones share state), so single-
/// partition code keeps working unchanged. The coordinator log is a single
/// shared device: it is the one piece of 2PC state every partition's
/// recovery consults.
#[derive(Debug, Clone)]
pub struct RepoDisks {
    /// Partition 0's write-ahead log device (aliases `wal_groups[0][0]`).
    pub wal: SimDisk,
    /// Partition 0's checkpoint device (aliases `ckpts[0]`).
    pub ckpt: SimDisk,
    /// Two-phase-commit coordinator log device (cluster-shared).
    pub coord: SimDisk,
    /// Per-repository-partition log devices: exactly one per group, since a
    /// partition's store writes one log. The nesting is what the benchmark
    /// package under `perf/` compiles against (`wal_groups.iter().flatten()`),
    /// and flattening it to `Vec<SimDisk>` has to be a benchmark change.
    pub wal_groups: Vec<Vec<SimDisk>>,
    /// Per-repository-partition checkpoint devices.
    pub ckpts: Vec<SimDisk>,
}

impl Default for RepoDisks {
    fn default() -> Self {
        let wal_groups: Vec<Vec<SimDisk>> = (0..MAX_REPO_PARTITIONS)
            .map(|_| vec![SimDisk::new()])
            .collect();
        let ckpts: Vec<SimDisk> = (0..MAX_REPO_PARTITIONS).map(|_| SimDisk::new()).collect();
        RepoDisks {
            wal: wal_groups[0][0].clone(),
            ckpt: ckpts[0].clone(),
            coord: SimDisk::new(),
            wal_groups,
            ckpts,
        }
    }
}

impl RepoDisks {
    /// Fresh, empty devices.
    pub fn new() -> Self {
        Self::default()
    }

    /// Crash all devices (unsynced bytes lost).
    pub fn crash(&self) {
        self.crash_with(None);
    }

    /// Crash all devices; with `Some(mode)` every WAL device additionally
    /// keeps a torn (corrupt) tail of its unsynced bytes, so recovery must
    /// reject the partial frames. The checkpoint and coordinator devices
    /// only ever take whole-contents swaps or forced appends, so a torn
    /// tail there models nothing the protocol can see — they always drop
    /// volatile cleanly.
    pub fn crash_with(&self, torn: Option<TornWriteMode>) {
        for part in 0..self.wal_groups.len() {
            self.crash_partition(part, torn);
        }
        self.coord.crash(CrashStyle::DropVolatile);
    }

    /// Crash only repository partition `part`'s devices (its log and
    /// checkpoint device), leaving every sibling partition's devices — and
    /// the shared coordinator log — untouched. This is the partition-scoped
    /// failure of a shared-nothing cluster: one node loses power while the
    /// rest keep their state. `torn` follows [`Self::crash_with`].
    pub fn crash_partition(&self, part: usize, torn: Option<TornWriteMode>) {
        let part = part % self.wal_groups.len().max(1);
        for w in &self.wal_groups[part] {
            match torn {
                Some(mode) => w.crash_torn(mode),
                None => w.crash(CrashStyle::DropVolatile),
            }
        }
        self.ckpts[part].crash(CrashStyle::DropVolatile);
    }
}

/// Tuning knobs for [`Repository::open_with`]. `Default` is what
/// [`Repository::open`] uses.
#[derive(Debug, Clone)]
pub struct RepoOptions {
    /// When set, wrap each WAL device in a [`LatencyDisk`] charging this
    /// much per force — models real storage devices for contention
    /// experiments. Each partition's log gets its *own* latency wrapper, so
    /// forces on different partitions proceed in parallel.
    pub wal_sync_latency: Option<Duration>,
    /// Number of shared-nothing repository partitions (clamped to
    /// `1..=`[`MAX_REPO_PARTITIONS`]). Each owns the queues that hash to it
    /// plus its own store, log, and lock manager; `1` is the exact
    /// single-repository baseline.
    pub repo_partitions: usize,
}

impl Default for RepoOptions {
    fn default() -> Self {
        RepoOptions {
            wal_sync_latency: None,
            repo_partitions: 1,
        }
    }
}

/// One shared-nothing partition: a durable store, its queue manager, and
/// the transaction manager wired to the partition's own lock manager (plus
/// the cluster-shared coordinator log and id generator).
struct RepoPartition {
    qm: Arc<QueueManager>,
    tm: TxnManager,
    store: Arc<KvStore>,
}

/// A cross-partition participant: wraps a *sibling* partition's queue
/// manager so locks taken there under the transaction's id are released on
/// that partition's own lock manager at commit/abort. ([`Txn`] only releases
/// locks on its home manager; without this wrapper a cross-partition
/// enqueue would leak its element locks forever.)
struct SiblingRm {
    qm: Arc<QueueManager>,
    locks: Arc<LockManager>,
}

impl ResourceManager for SiblingRm {
    fn name(&self) -> &str {
        self.qm.qm_name()
    }

    fn begin(&self, txn: TxnId) -> TxnResult<()> {
        ResourceManager::begin(&*self.qm, txn)
    }

    fn prepare(&self, txn: TxnId) -> TxnResult<()> {
        ResourceManager::prepare(&*self.qm, txn)
    }

    fn commit(&self, txn: TxnId) -> TxnResult<()> {
        let r = ResourceManager::commit(&*self.qm, txn);
        // 2PL release point for the sibling's locks: the commit decision is
        // already durable in the shared coordinator log by the time the
        // commit phase runs, and on failure the transaction aborts below.
        self.locks.unlock_all(txn.raw());
        r
    }

    fn abort(&self, txn: TxnId) -> TxnResult<()> {
        let r = ResourceManager::abort(&*self.qm, txn);
        self.locks.unlock_all(txn.raw());
        r
    }
}

/// An open repository (a cluster of 1..=[`MAX_REPO_PARTITIONS`] shared-
/// nothing partitions; see the module docs).
pub struct Repository {
    name: String,
    parts: Vec<RepoPartition>,
    disks: RepoDisks,
}

impl Repository {
    /// Open (or recover) the repository on `disks` with default options.
    pub fn open(name: impl Into<String>, disks: RepoDisks) -> QmResult<(Self, RecoveryReport)> {
        Self::open_with(name, disks, RepoOptions::default())
    }

    /// Open (or recover) the repository on `disks` with explicit tuning.
    ///
    /// Partitions recover independently and concurrently (each replays only
    /// its own log, on a thread of its own), then resolve their in-doubt
    /// transactions, in partition order, against the shared coordinator log
    /// — so a cross-partition transaction prepared everywhere but only
    /// decided in the coordinator log commits on every partition, and one
    /// never decided aborts on every partition (presumed abort). The
    /// returned report aggregates all partitions.
    pub fn open_with(
        name: impl Into<String>,
        disks: RepoDisks,
        opts: RepoOptions,
    ) -> QmResult<(Self, RecoveryReport)> {
        let name = name.into();
        let repo_partitions = opts.repo_partitions.clamp(1, MAX_REPO_PARTITIONS);

        // Cluster-shared pieces: one decision log, one id space.
        let coord = Arc::new(CoordinatorLog::new(Arc::new(disks.coord.clone())));
        let ids = Arc::new(TxnIdGen::new(1));

        // Each partition owns its log and its checkpoint chain, so the
        // stores recover side by side: partition 0 on this thread, every
        // other one on a named thread of its own (so a single-partition
        // repository starts none). What touches shared state — in-doubt
        // resolution against the coordinator log, queue-manager
        // construction — stays serial below, in partition order, so a
        // simulator run does not depend on the threads' timing.
        let open_store = |p: usize| {
            let wal = Arc::new(disks.wal_groups[p][0].clone());
            let wal: Arc<dyn Disk> = match opts.wal_sync_latency {
                Some(cost) => Arc::new(LatencyDisk::new(wal, cost)),
                None => wal,
            };
            KvStore::open(wal, Arc::new(disks.ckpts[p].clone()))
        };
        let recovered = std::thread::scope(|s| {
            let siblings = (1..repo_partitions)
                .map(|p| {
                    std::thread::Builder::new()
                        .name(format!("rrq-recover-{p}"))
                        .spawn_scoped(s, move || open_store(p))
                })
                .collect::<std::io::Result<Vec<_>>>()
                .map_err(|e| StorageError::InvalidState(format!("recovery thread: {e}")))?;
            let mut recovered = vec![open_store(0)?];
            for h in siblings {
                let joined = h
                    .join()
                    .map_err(|_| StorageError::InvalidState("recovery thread panicked".into()))?;
                recovered.push(joined?);
            }
            Ok::<_, StorageError>(recovered)
        })?;

        let mut parts = Vec::with_capacity(repo_partitions);
        let mut total = RecoveryReport::default();
        for (p, (store, report)) in recovered.into_iter().enumerate() {
            let locks = Arc::new(LockManager::new());
            let tm =
                TxnManager::with_shared(Arc::clone(&locks), Some(Arc::clone(&coord)), ids.clone());

            // Resolve in-doubt transactions left by a crash between 2PC
            // phases.
            if !report.in_doubt.is_empty() {
                let rm_name = match p {
                    0 => format!("{name}/store"),
                    p => format!("{name}/p{p}/store"),
                };
                let rm = KvResource::new(rm_name, Arc::clone(&store));
                tm.resolve_in_doubt(&rm, &report.in_doubt)?;
            }

            let qm_name = match p {
                0 => format!("qm/{name}"),
                p => format!("qm/{name}/p{p}"),
            };
            let qm = QueueManager::with_epoch_base(
                qm_name,
                Arc::clone(&store),
                locks,
                crate::route::epoch_band_base(p),
            )?;
            parts.push(RepoPartition { qm, tm, store });
            total.replayed += report.replayed;
            total.committed_txns += report.committed_txns;
            total.aborted_txns += report.aborted_txns;
            total.in_doubt.extend(report.in_doubt);
        }
        total.in_doubt.sort_unstable();

        Ok((Repository { name, parts, disks }, total))
    }

    /// Open on fresh devices.
    pub fn create(name: impl Into<String>) -> QmResult<Self> {
        let (repo, _) = Self::open(name, RepoDisks::new())?;
        Ok(repo)
    }

    /// Repository name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of shared-nothing partitions in this cluster.
    pub fn partitions(&self) -> usize {
        self.parts.len()
    }

    /// The partition that owns `queue`.
    pub fn partition_of(&self, queue: &str) -> usize {
        partition_of(queue, self.parts.len())
    }

    /// Partition 0's queue manager — with `repo_partitions = 1` (the
    /// default) this is *the* queue manager, exactly as before.
    pub fn qm(&self) -> &Arc<QueueManager> {
        &self.parts[0].qm
    }

    /// Partition 0's transaction manager.
    pub fn tm(&self) -> &TxnManager {
        &self.parts[0].tm
    }

    /// Partition 0's durable store (application tables can live here too).
    pub fn store(&self) -> &Arc<KvStore> {
        &self.parts[0].store
    }

    /// Queue manager of partition `p` (clamped).
    pub fn qm_at(&self, p: usize) -> &Arc<QueueManager> {
        &self.parts[p % self.parts.len()].qm
    }

    /// Transaction manager of partition `p` (clamped).
    pub fn tm_at(&self, p: usize) -> &TxnManager {
        &self.parts[p % self.parts.len()].tm
    }

    /// Durable store of partition `p` (clamped).
    pub fn store_at(&self, p: usize) -> &Arc<KvStore> {
        &self.parts[p % self.parts.len()].store
    }

    /// Queue manager owning `queue`.
    pub fn qm_for(&self, queue: &str) -> &Arc<QueueManager> {
        &self.parts[self.partition_of(queue)].qm
    }

    /// Durable store of the partition owning `queue` (application state
    /// lives co-located with the queue that drives it).
    pub fn store_for(&self, queue: &str) -> &Arc<KvStore> {
        &self.parts[self.partition_of(queue)].store
    }

    /// The backing devices (crash injection, reopening).
    pub fn disks(&self) -> &RepoDisks {
        &self.disks
    }

    /// Begin a transaction homed on partition 0 with its queue manager
    /// already enlisted — the single-partition baseline entry point.
    pub fn begin(&self) -> QmResult<Txn> {
        self.begin_on_part(0)
    }

    /// Begin a transaction homed on partition `p`: its lock manager serves
    /// the transaction's lock calls and its queue manager is enlisted.
    pub fn begin_on_part(&self, p: usize) -> QmResult<Txn> {
        let part = &self.parts[p % self.parts.len()];
        let txn = part.tm.begin();
        let rm: Arc<dyn ResourceManager> = Arc::clone(&part.qm) as _;
        txn.enlist(rm)?;
        Ok(txn)
    }

    /// Begin a transaction homed on the partition owning `queue`; returns
    /// the transaction and its home partition index.
    pub fn begin_on(&self, queue: &str) -> QmResult<(Txn, usize)> {
        let p = self.partition_of(queue);
        Ok((self.begin_on_part(p)?, p))
    }

    /// Make `queue`'s owning partition a participant of `txn` (no-op when
    /// `queue` is already home — the caller's own partition). Returns the
    /// owning partition's queue manager, ready for operations under
    /// `txn`'s id. A cross-partition enlistment upgrades the eventual
    /// commit to the logged two-phase protocol.
    pub fn enlist_queue(
        &self,
        txn: &Txn,
        home: usize,
        queue: &str,
    ) -> QmResult<&Arc<QueueManager>> {
        let p = self.partition_of(queue);
        if p == home % self.parts.len() {
            return Ok(&self.parts[p].qm);
        }
        rrq_obs::counter_inc("route.xpart.enlists");
        let part = &self.parts[p];
        let rm: Arc<dyn ResourceManager> = Arc::new(SiblingRm {
            qm: Arc::clone(&part.qm),
            locks: Arc::clone(part.tm.locks()),
        });
        txn.enlist(rm)?;
        Ok(&part.qm)
    }

    /// Run `f` inside a partition-0-homed transaction and commit; abort on
    /// error.
    pub fn autocommit<R>(&self, f: impl FnOnce(&Txn) -> QmResult<R>) -> QmResult<R> {
        self.autocommit_on_part(0, f)
    }

    /// [`Self::autocommit`] homed on the partition owning `queue`.
    pub fn autocommit_on<R>(
        &self,
        queue: &str,
        f: impl FnOnce(&Txn) -> QmResult<R>,
    ) -> QmResult<R> {
        self.autocommit_on_part(self.partition_of(queue), f)
    }

    /// [`Self::autocommit`] homed on partition `p`.
    pub fn autocommit_on_part<R>(
        &self,
        p: usize,
        f: impl FnOnce(&Txn) -> QmResult<R>,
    ) -> QmResult<R> {
        let txn = self.begin_on_part(p)?;
        match f(&txn) {
            Ok(r) => {
                txn.commit()?;
                Ok(r)
            }
            Err(e) => {
                let _ = txn.abort();
                Err(e)
            }
        }
    }

    /// Create a queue with default settings on its owning partition,
    /// returning its metadata.
    pub fn create_queue_defaults(&self, name: &str) -> QmResult<QueueMeta> {
        let meta = QueueMeta::with_defaults(name);
        let qm = self.qm_for(name);
        match qm.create_queue(meta.clone()) {
            Ok(()) => Ok(meta),
            Err(QmError::QueueExists(_)) => qm.queue_meta(name),
            Err(e) => Err(e),
        }
    }

    /// Checkpoint every partition's durable store (bounds recovery time).
    pub fn checkpoint(&self) -> QmResult<()> {
        for part in &self.parts {
            part.store.checkpoint()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{DequeueOptions, EnqueueOptions};

    #[test]
    fn create_and_reopen_preserves_queues() {
        let disks = RepoDisks::new();
        {
            let (repo, _) = Repository::open("r1", disks.clone()).unwrap();
            repo.create_queue_defaults("req").unwrap();
            let (h, _) = repo.qm().register("req", "c1", true).unwrap();
            repo.autocommit(|t| {
                repo.qm()
                    .enqueue(t.id().raw(), &h, b"hello", EnqueueOptions::default())
            })
            .unwrap();
        }
        disks.crash();
        let (repo2, _) = Repository::open("r1", disks).unwrap();
        assert_eq!(repo2.qm().depth("req").unwrap(), 1);
        let (h, _) = repo2.qm().register("req", "s1", false).unwrap();
        let e = repo2
            .autocommit(|t| {
                repo2
                    .qm()
                    .dequeue(t.id().raw(), &h, DequeueOptions::default())
            })
            .unwrap();
        assert_eq!(e.payload, b"hello");
    }

    #[test]
    fn autocommit_aborts_on_error() {
        let repo = Repository::create("r2").unwrap();
        repo.create_queue_defaults("q").unwrap();
        let (h, _) = repo.qm().register("q", "c", false).unwrap();
        let r: QmResult<()> = repo.autocommit(|t| {
            repo.qm()
                .enqueue(t.id().raw(), &h, b"x", EnqueueOptions::default())?;
            Err(QmError::Invalid("boom".into()))
        });
        assert!(r.is_err());
        assert_eq!(repo.qm().depth("q").unwrap(), 0);
    }

    #[test]
    fn volatile_queue_empty_after_reopen() {
        let disks = RepoDisks::new();
        {
            let (repo, _) = Repository::open("r3", disks.clone()).unwrap();
            let mut meta = QueueMeta::with_defaults("vol");
            meta.durable = false;
            repo.qm().create_queue(meta).unwrap();
            let (h, _) = repo.qm().register("vol", "c", false).unwrap();
            repo.autocommit(|t| {
                repo.qm()
                    .enqueue(t.id().raw(), &h, b"gone", EnqueueOptions::default())
            })
            .unwrap();
            assert_eq!(repo.qm().depth("vol").unwrap(), 1);
        }
        disks.crash();
        let (repo2, _) = Repository::open("r3", disks).unwrap();
        // The queue still exists (metadata is durable) but is empty.
        assert_eq!(repo2.qm().depth("vol").unwrap(), 0);
    }

    #[test]
    fn epoch_increases_across_opens() {
        let disks = RepoDisks::new();
        let e1 = {
            let (repo, _) = Repository::open("r4", disks.clone()).unwrap();
            repo.qm().epoch()
        };
        let (repo2, _) = Repository::open("r4", disks).unwrap();
        assert!(repo2.qm().epoch() > e1);
    }

    fn partitioned(name: &str, disks: RepoDisks, n: usize) -> Repository {
        let (repo, _) = Repository::open_with(
            name,
            disks,
            RepoOptions {
                repo_partitions: n,
                ..RepoOptions::default()
            },
        )
        .unwrap();
        repo
    }

    #[test]
    fn partitioned_local_roundtrip_on_every_partition() {
        let repo = partitioned("pr1", RepoDisks::new(), 4);
        for i in 0..16 {
            let q = format!("q{i}");
            repo.create_queue_defaults(&q).unwrap();
            let (h, _) = repo.qm_for(&q).register(&q, "c", false).unwrap();
            repo.autocommit_on(&q, |t| {
                repo.qm_for(&q)
                    .enqueue(t.id().raw(), &h, q.as_bytes(), EnqueueOptions::default())
            })
            .unwrap();
            assert_eq!(repo.qm_for(&q).depth(&q).unwrap(), 1);
            let e = repo
                .autocommit_on(&q, |t| {
                    repo.qm_for(&q)
                        .dequeue(t.id().raw(), &h, DequeueOptions::default())
                })
                .unwrap();
            assert_eq!(e.payload, q.as_bytes());
        }
    }

    #[test]
    fn cross_partition_move_commits_atomically() {
        let repo = partitioned("pr2", RepoDisks::new(), 4);
        // Find two queues on different partitions.
        let (qa, qb) = two_queues_apart(&repo);
        repo.create_queue_defaults(&qa).unwrap();
        repo.create_queue_defaults(&qb).unwrap();
        let (ha, _) = repo.qm_for(&qa).register(&qa, "mv", false).unwrap();
        let (hb, _) = repo.qm_for(&qb).register(&qb, "mv", false).unwrap();
        repo.autocommit_on(&qa, |t| {
            repo.qm_for(&qa)
                .enqueue(t.id().raw(), &ha, b"m", EnqueueOptions::default())
        })
        .unwrap();

        // Move: dequeue from qa (home), enqueue to qb (sibling) — one txn.
        let (txn, home) = repo.begin_on(&qa).unwrap();
        let e = repo
            .qm_for(&qa)
            .dequeue(txn.id().raw(), &ha, DequeueOptions::default())
            .unwrap();
        let qm_b = repo.enlist_queue(&txn, home, &qb).unwrap();
        qm_b.enqueue(txn.id().raw(), &hb, &e.payload, EnqueueOptions::default())
            .unwrap();
        assert_eq!(txn.enlisted(), 2);
        txn.commit().unwrap();

        assert_eq!(repo.qm_for(&qa).depth(&qa).unwrap(), 0);
        assert_eq!(repo.qm_for(&qb).depth(&qb).unwrap(), 1);
        // Sibling locks released: another txn can take the element.
        let e2 = repo
            .autocommit_on(&qb, |t| {
                repo.qm_for(&qb)
                    .dequeue(t.id().raw(), &hb, DequeueOptions::default())
            })
            .unwrap();
        assert_eq!(e2.payload, b"m");
    }

    #[test]
    fn cross_partition_abort_undoes_both_sides() {
        let repo = partitioned("pr3", RepoDisks::new(), 4);
        let (qa, qb) = two_queues_apart(&repo);
        repo.create_queue_defaults(&qa).unwrap();
        repo.create_queue_defaults(&qb).unwrap();
        let (ha, _) = repo.qm_for(&qa).register(&qa, "mv", false).unwrap();
        let (hb, _) = repo.qm_for(&qb).register(&qb, "mv", false).unwrap();
        repo.autocommit_on(&qa, |t| {
            repo.qm_for(&qa)
                .enqueue(t.id().raw(), &ha, b"m", EnqueueOptions::default())
        })
        .unwrap();

        let (txn, home) = repo.begin_on(&qa).unwrap();
        repo.qm_for(&qa)
            .dequeue(txn.id().raw(), &ha, DequeueOptions::default())
            .unwrap();
        let qm_b = repo.enlist_queue(&txn, home, &qb).unwrap();
        qm_b.enqueue(txn.id().raw(), &hb, b"m", EnqueueOptions::default())
            .unwrap();
        txn.abort().unwrap();

        // The dequeue is undone (element back on qa) and the enqueue gone.
        assert_eq!(repo.qm_for(&qa).depth(&qa).unwrap(), 1);
        assert_eq!(repo.qm_for(&qb).depth(&qb).unwrap(), 0);
        // No leaked locks on the sibling: a fresh enqueue+dequeue works.
        let e = repo
            .autocommit_on(&qa, |t| {
                repo.qm_for(&qa)
                    .dequeue(t.id().raw(), &ha, DequeueOptions::default())
            })
            .unwrap();
        assert_eq!(e.payload, b"m");
    }

    #[test]
    fn partitioned_cluster_survives_full_crash() {
        let disks = RepoDisks::new();
        let (qa, qb);
        {
            let repo = partitioned("pr4", disks.clone(), 4);
            (qa, qb) = two_queues_apart(&repo);
            for q in [&qa, &qb] {
                repo.create_queue_defaults(q).unwrap();
                let (h, _) = repo.qm_for(q).register(q, "c", false).unwrap();
                repo.autocommit_on(q, |t| {
                    repo.qm_for(q).enqueue(
                        t.id().raw(),
                        &h,
                        q.as_bytes(),
                        EnqueueOptions::default(),
                    )
                })
                .unwrap();
            }
        }
        disks.crash();
        let repo2 = partitioned("pr4", disks, 4);
        for q in [&qa, &qb] {
            assert_eq!(repo2.qm_for(q).depth(q).unwrap(), 1, "queue {q}");
        }
    }

    #[test]
    fn eids_are_disjoint_across_partitions() {
        let repo = partitioned("pr5", RepoDisks::new(), 4);
        let (qa, qb) = two_queues_apart(&repo);
        let mut eids = Vec::new();
        for q in [&qa, &qb] {
            repo.create_queue_defaults(q).unwrap();
            let (h, _) = repo.qm_for(q).register(q, "c", false).unwrap();
            for _ in 0..8 {
                let eid = repo
                    .autocommit_on(q, |t| {
                        repo.qm_for(q)
                            .enqueue(t.id().raw(), &h, b"x", EnqueueOptions::default())
                    })
                    .unwrap();
                eids.push(eid.raw());
            }
        }
        let uniq: std::collections::HashSet<u64> = eids.iter().copied().collect();
        assert_eq!(uniq.len(), eids.len(), "eids collide across partitions");
    }

    /// Two queue names guaranteed to live on different partitions.
    fn two_queues_apart(repo: &Repository) -> (String, String) {
        let qa = "q0".to_string();
        let pa = repo.partition_of(&qa);
        for i in 1..64 {
            let qb = format!("q{i}");
            if repo.partition_of(&qb) != pa {
                return (qa, qb);
            }
        }
        panic!("no second partition found");
    }
}
