//! A queue repository: "a set of queues … Each repository has a system- (or
//! network-) wide unique name" (§4.1), bundled with the node-local
//! transaction machinery and its recovery path.
//!
//! [`Repository::open`] is the restart entry point: it recovers the durable
//! store from checkpoint + log, resolves in-doubt two-phase-commit
//! participants by their decision rows, and hands back a ready
//! [`QueueManager`] + [`TxnManager`] pair. Each queue manager is born with an
//! empty main-memory store for its volatile queues, which lose their contents
//! on a node failure (§10).
//!
//! On [`RepoDisks::partitioned`]`(N > 1)` the repository is a
//! shared-nothing *cluster* of N partitions (DESIGN.md S25): each partition
//! owns the queues [`crate::route::partition_of`] hashes to it and runs its
//! own durable store (own log + checkpoint device), queue manager, and lock
//! manager — a partition is the unit of logging and of recovery. Only the
//! transaction-id generator is shared (ids key lock tables, store tokens and
//! decision rows, so they must be cluster-unique). A transaction homed on
//! one partition that never touches another partition's queues is the
//! paper's common case and pays zero cross-partition coordination; one that
//! does touch a sibling enlists it as a second resource manager and commits
//! through the two-phase protocol in `rrq-txn`: the sibling prepares, and
//! the home partition, enlisted first, commits one-phase with the decision
//! row `o/<txn>` in its own write set (`rrq_txn::twophase`).

use crate::error::{QmError, QmResult};
use crate::meta::QueueMeta;
use crate::ops::QueueManager;
use crate::route::{partition_of, MAX_REPO_PARTITIONS};
use rrq_obs::Obs;
use rrq_storage::disk::{CrashStyle, SimDisk, TornWriteMode};
use rrq_storage::kv::KvStore;
use rrq_storage::recovery::RecoveryReport;
use rrq_storage::StorageError;
use rrq_txn::{
    forget_decisions, resolve_in_doubt, LockManager, ResourceManager, Txn, TxnId, TxnIdGen,
    TxnManager, TxnResult, DEFAULT_LOCK_SHARDS,
};
use std::sync::Arc;

/// The stable devices backing a repository, and so its layout: one group
/// per partition, each a log device and a checkpoint device. Clone-shared:
/// keep a copy to crash and reopen the "same disks" in tests and
/// simulations.
///
/// The fields are public, so [`Repository::open_with`] checks them. The
/// legacy fields alias group 0 (SimDisk clones share state), so single-
/// partition code keeps working unchanged.
#[derive(Debug, Clone)]
pub struct RepoDisks {
    /// Partition 0's write-ahead log device (aliases `wal_groups[0][0]`).
    pub wal: SimDisk,
    /// Partition 0's checkpoint device (aliases `ckpts[0]`).
    pub ckpt: SimDisk,
    /// An empty device that nothing opens: the retired 2PC coordinator
    /// log's. The benchmark package under `perf/` still names it.
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
        Self::partitioned(1)
    }
}

impl RepoDisks {
    /// Fresh, empty devices for one partition.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh, empty devices for `n` partitions (clamped to
    /// `1..=`[`MAX_REPO_PARTITIONS`]).
    pub fn partitioned(n: usize) -> Self {
        let n = n.clamp(1, MAX_REPO_PARTITIONS);
        let wal_groups: Vec<Vec<SimDisk>> = (0..n).map(|_| vec![SimDisk::new()]).collect();
        let ckpts: Vec<SimDisk> = (0..n).map(|_| SimDisk::new()).collect();
        RepoDisks {
            wal: wal_groups[0][0].clone(),
            ckpt: ckpts[0].clone(),
            coord: SimDisk::new(),
            wal_groups,
            ckpts,
        }
    }

    /// The partition count these devices lay out, or why they lay out none.
    fn partitions(&self) -> QmResult<usize> {
        let (n, ckpts) = (self.wal_groups.len(), self.ckpts.len());
        let why = if n == 0 || n > MAX_REPO_PARTITIONS {
            format!("{n} partitions, not 1..={MAX_REPO_PARTITIONS}")
        } else if ckpts != n {
            format!("{n} log groups but {ckpts} checkpoints")
        } else if let Some(p) = self.wal_groups.iter().position(|g| g.len() != 1) {
            format!("group {p} has {} logs, not 1", self.wal_groups[p].len())
        } else {
            return Ok(n);
        };
        Err(QmError::Invalid(format!("repository devices: {why}")))
    }

    /// Crash all devices (unsynced bytes lost).
    pub fn crash(&self) {
        self.crash_with(None);
    }

    /// Crash all devices; with `Some(mode)` every WAL device additionally
    /// keeps a torn (corrupt) tail of its unsynced bytes, so recovery must
    /// reject the partial frames. The checkpoint devices only ever take
    /// whole-contents swaps, so a torn tail there models nothing the
    /// protocol can see — they always drop volatile cleanly.
    pub fn crash_with(&self, torn: Option<TornWriteMode>) {
        for part in 0..self.wal_groups.len() {
            self.crash_partition(part, torn);
        }
    }

    /// Crash only repository partition `part`'s devices (its log and
    /// checkpoint device), leaving every sibling partition's untouched. This
    /// is the partition-scoped failure of a shared-nothing cluster: one node
    /// loses power while the rest keep their state. `torn` follows
    /// [`Self::crash_with`].
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

/// One shared-nothing partition: a durable store, its queue manager, and
/// the transaction manager wired to the partition's own lock manager (plus
/// the cluster-shared id generator).
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
        ResourceManager::commit(&*self.qm, txn)?;
        // 2PL release point for the sibling's locks: the decision row is
        // already durable in the home partition's commit by the time the
        // commit phase runs. A failed commit leaves this participant
        // prepared, its locks held, for the reopen to resolve from that row.
        self.locks.unlock_all(txn.raw());
        Ok(())
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
    obs: Obs,
}

impl Repository {
    /// Open (or recover) the repository on `disks` with a handle of its
    /// own, dormant until someone starts it.
    pub fn open(name: impl Into<String>, disks: RepoDisks) -> QmResult<(Self, RecoveryReport)> {
        Self::open_with(name, disks, Obs::default())
    }

    /// Open (or recover) the repository on `disks`, one partition per
    /// device group, every partition's store, lock manager and queue
    /// manager reporting to `obs` — recovery included, so an owner that
    /// outlives the repository (a simulated node across crashes) passes its
    /// own. Devices that lay out no repository (no group, more than
    /// [`MAX_REPO_PARTITIONS`], log and checkpoint counts that differ, a
    /// group without exactly one log) are refused with
    /// [`QmError::Invalid`].
    ///
    /// Partitions recover independently and concurrently (each replays only
    /// its own log, on a thread of its own). Then, in partition order, each
    /// in-doubt transaction commits if a recovered partition holds its
    /// decision row and aborts if none does (presumed abort), and only
    /// after every partition has resolved are the rows left over deleted.
    /// The returned report aggregates all partitions.
    pub fn open_with(
        name: impl Into<String>,
        disks: RepoDisks,
        obs: Obs,
    ) -> QmResult<(Self, RecoveryReport)> {
        let name = name.into();
        let repo_partitions = disks.partitions()?;

        // The one cluster-shared piece: one id space.
        let ids = Arc::new(TxnIdGen::new(1));

        // Each partition owns its log and its checkpoint chain, so the
        // stores recover side by side: partition 0 on this thread, every
        // other one on a named thread of its own (so a single-partition
        // repository starts none). What reads across partitions — in-doubt
        // resolution, the decision-row sweep, queue-manager construction —
        // stays serial below, in partition order, so a simulator run does
        // not depend on the threads' timing.
        let open_store = |p: usize| {
            let (wal, ckpt) = (&disks.wal_groups[p][0], &disks.ckpts[p]);
            KvStore::open(Arc::new(wal.clone()), Arc::new(ckpt.clone()), obs.clone())
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

        // A crash between a decision and a sibling's commit leaves the
        // sibling in doubt; its transaction's home partition holds the row.
        let stores: Vec<Arc<KvStore>> = recovered.iter().map(|(s, _)| Arc::clone(s)).collect();
        for (store, report) in &recovered {
            resolve_in_doubt(store, &report.in_doubt, &stores)?;
        }
        for store in &stores {
            forget_decisions(store, &ids)?;
        }

        let mut parts = Vec::with_capacity(repo_partitions);
        let mut total = RecoveryReport::default();
        for (p, (store, report)) in recovered.into_iter().enumerate() {
            let locks = Arc::new(LockManager::with_shards(DEFAULT_LOCK_SHARDS, obs.clone()));
            let tm = TxnManager::with_shared(Arc::clone(&locks), ids.clone());
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

        let repo = Repository {
            name,
            parts,
            disks,
            obs,
        };
        Ok((repo, total))
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

    /// Partition 0's queue manager — on one partition (the default) this
    /// is *the* queue manager.
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

    /// True once any partition's log has failed: nothing that enlists that
    /// partition commits until the repository reopens.
    pub fn log_failed(&self) -> bool {
        self.parts.iter().any(|p| p.store.log_failed())
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

    /// The handle every component of this repository reports to.
    pub fn obs(&self) -> &Obs {
        &self.obs
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
    /// commit to the two-phase protocol, which the home partition, enlisted
    /// first, decides.
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
        self.obs.counter_inc("route.xpart.enlists");
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

    fn partitioned(name: &str, disks: RepoDisks) -> Repository {
        let (repo, _) = Repository::open(name, disks).unwrap();
        repo
    }

    #[test]
    fn a_partitioned_image_reopens_whole_with_plain_open() {
        let disks = RepoDisks::partitioned(4);
        let queues: Vec<String> = (0..16).map(|i| format!("q{i}")).collect();
        {
            let repo = partitioned("img", disks.clone());
            for q in &queues {
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
            assert!((1..4).all(|p| queues.iter().any(|q| repo.partition_of(q) == p)));
        }
        disks.crash();
        let (repo, _) = Repository::open("img", disks).unwrap();
        assert_eq!(repo.partitions(), 4);
        for q in &queues {
            assert_eq!(repo.qm_for(q).depth(q).unwrap(), 1, "queue {q}");
        }
    }

    #[test]
    fn devices_that_lay_out_no_repository_are_refused() {
        let refused =
            |disks: RepoDisks| matches!(Repository::open("bad", disks), Err(QmError::Invalid(_)));
        let mut none = RepoDisks::new();
        (none.wal_groups, none.ckpts) = (Vec::new(), Vec::new());
        assert!(refused(none), "zero groups");
        let mut too_many = RepoDisks::partitioned(MAX_REPO_PARTITIONS);
        too_many.wal_groups.push(vec![SimDisk::new()]);
        too_many.ckpts.push(SimDisk::new());
        assert!(refused(too_many), "more than MAX_REPO_PARTITIONS");
        let mut uneven = RepoDisks::partitioned(2);
        uneven.ckpts.pop();
        assert!(refused(uneven), "log and checkpoint counts differ");
        let mut logless = RepoDisks::partitioned(2);
        logless.wal_groups[1].clear();
        assert!(refused(logless), "a group without a log");
        let mut two_logs = RepoDisks::new();
        two_logs.wal_groups[0].push(SimDisk::new());
        assert!(refused(two_logs), "a group with two logs");
        assert_eq!(RepoDisks::partitioned(0).wal_groups.len(), 1);
        assert_eq!(RepoDisks::partitioned(99).ckpts.len(), MAX_REPO_PARTITIONS);
    }

    #[test]
    fn partitioned_local_roundtrip_on_every_partition() {
        let repo = partitioned("pr1", RepoDisks::partitioned(4));
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
        let repo = partitioned("pr2", RepoDisks::partitioned(4));
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
        let repo = partitioned("pr3", RepoDisks::partitioned(4));
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
        let disks = RepoDisks::partitioned(4);
        let (qa, qb);
        {
            let repo = partitioned("pr4", disks.clone());
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
        let repo2 = partitioned("pr4", disks);
        for q in [&qa, &qb] {
            assert_eq!(repo2.qm_for(q).depth(q).unwrap(), 1, "queue {q}");
        }
    }

    #[test]
    fn eids_are_disjoint_across_partitions() {
        let repo = partitioned("pr5", RepoDisks::partitioned(4));
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
