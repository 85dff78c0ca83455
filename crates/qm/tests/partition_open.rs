//! `Repository::open_with` recovers its partitions' stores on one thread
//! each. Nothing a caller can observe may depend on that: the recovered
//! state, the aggregated report and the way every in-doubt two-phase
//! transaction resolves must equal those of the same disk image recovered
//! one partition after the other.

use rrq_qm::keys;
use rrq_qm::ops::{DequeueOptions, EnqueueOptions};
use rrq_qm::repository::{RepoDisks, RepoOptions, Repository};
use rrq_storage::disk::{Disk, SimDisk};
use rrq_storage::kv::KvStore;
use rrq_storage::recovery::RecoveryReport;
use rrq_txn::{CoordinatorLog, KvResource, LockManager, ResourceManager, TxnManager};
use std::sync::Arc;

const PARTS: usize = 4;
const TAIL: usize = 50;

fn open(disks: &RepoDisks) -> (Repository, RecoveryReport) {
    let opts = RepoOptions {
        repo_partitions: PARTS,
        ..RepoOptions::default()
    };
    Repository::open_with("po", disks.clone(), opts).unwrap()
}

fn devices(disks: &RepoDisks) -> Vec<&SimDisk> {
    let logs = disks.wal_groups.iter().flatten();
    logs.chain(&disks.ckpts).chain([&disks.coord]).collect()
}

type Dump = Vec<(Vec<u8>, Vec<u8>)>;

/// Everything committed in `store`, less the epoch counter that building a
/// queue manager over it bumps.
fn dump(store: &KvStore) -> Dump {
    let mut all = store.scan_prefix(None, b"").unwrap();
    all.retain(|(k, _)| *k != keys::epoch_key());
    all
}

#[test]
fn concurrent_partition_recovery_equals_serial() {
    let disks = RepoDisks::new();
    let mut decided = Vec::new();
    {
        let (repo, _) = open(&disks);
        // One queue per partition, each with a log tail of its own.
        let queues: Vec<String> = (0..PARTS)
            .map(|p| {
                let mut names = (0..64).map(|i| format!("q{i}"));
                let q = names.find(|q| repo.partition_of(q) == p).unwrap();
                repo.create_queue_defaults(&q).unwrap();
                q
            })
            .collect();
        let handles: Vec<_> = queues
            .iter()
            .map(|q| repo.qm_for(q).register(q, "c", false).unwrap().0)
            .collect();
        for (q, h) in queues.iter().zip(&handles) {
            for i in 0..TAIL {
                repo.autocommit_on(q, |t| {
                    let body = format!("{q}/{i}");
                    repo.qm_for(q).enqueue(
                        t.id().raw(),
                        h,
                        body.as_bytes(),
                        EnqueueOptions::default(),
                    )
                })
                .unwrap();
            }
        }
        // A ring of moves, each prepared on both of its partitions and then
        // abandoned: every partition is in doubt about two transactions.
        for p in 0..PARTS {
            let (from, to) = (p, (p + 1) % PARTS);
            let (txn, home) = repo.begin_on(&queues[from]).unwrap();
            let id = txn.id();
            let e = repo
                .qm_at(from)
                .dequeue(id.raw(), &handles[from], DequeueOptions::default())
                .unwrap();
            repo.enlist_queue(&txn, home, &queues[to])
                .unwrap()
                .enqueue(
                    id.raw(),
                    &handles[to],
                    &e.payload,
                    EnqueueOptions::default(),
                )
                .unwrap();
            ResourceManager::prepare(&**repo.qm_at(from), id).unwrap();
            ResourceManager::prepare(&**repo.qm_at(to), id).unwrap();
            std::mem::forget(txn);
            // Every other move reached its decision record: those commit on
            // both partitions, the rest abort on both (presumed abort).
            if p % 2 == 0 {
                let coord = CoordinatorLog::new(Arc::new(disks.coord.clone()));
                coord.log_decision(id, true).unwrap();
                decided.push(id.raw());
            }
        }
    }
    disks.crash();
    let image: Vec<Vec<u8>> = devices(&disks)
        .iter()
        .map(|d| d.read(0, d.len() as usize).unwrap())
        .collect();

    let (repo, report) = open(&disks);
    let concurrent: Vec<Dump> = (0..PARTS).map(|p| dump(repo.store_at(p))).collect();
    drop(repo);
    for (device, bytes) in devices(&disks).iter().zip(image) {
        device.reset(bytes).unwrap();
    }

    // The same image, one store at a time, resolved as `open_with` resolves.
    let coord = CoordinatorLog::new(Arc::new(disks.coord.clone()));
    let tm = TxnManager::new(Arc::new(LockManager::new()), Some(coord), 1);
    let mut serial_report = RecoveryReport::default();
    for (p, got) in concurrent.iter().enumerate() {
        let (store, part) = KvStore::open(
            Arc::new(disks.wal_groups[p][0].clone()),
            Arc::new(disks.ckpts[p].clone()),
        )
        .unwrap();
        assert_eq!(part.in_doubt.len(), 2, "partition {p}: {part:?}");
        assert!(part.replayed >= TAIL, "partition {p} had a log tail");
        let rm = KvResource::new(format!("po/p{p}/store"), Arc::clone(&store));
        let outcomes = tm.resolve_in_doubt(&rm, &part.in_doubt).unwrap();
        assert_eq!(outcomes, (1, 1), "partition {p}: one commits, one aborts");
        assert_eq!(*got, dump(&store), "partition {p}");
        serial_report.replayed += part.replayed;
        serial_report.committed_txns += part.committed_txns;
        serial_report.aborted_txns += part.aborted_txns;
        serial_report.in_doubt.extend(part.in_doubt);
    }
    serial_report.in_doubt.sort_unstable();
    assert_eq!(report, serial_report);
    for id in decided {
        assert_eq!(report.in_doubt.iter().filter(|t| **t == id).count(), 2);
    }
}
