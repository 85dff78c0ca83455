//! `Repository::open_with` recovers its partitions' stores on one thread
//! each. Nothing a caller can observe may depend on that: the recovered
//! state, the aggregated report and the way every in-doubt two-phase
//! transaction resolves must equal those of the same disk image recovered
//! one partition after the other.

use rrq_qm::keys;
use rrq_qm::ops::{DequeueOptions, EnqueueOptions};
use rrq_qm::repository::{RepoDisks, Repository};
use rrq_storage::disk::{Disk, SimDisk};
use rrq_storage::kv::KvStore;
use rrq_storage::recovery::RecoveryReport;
use rrq_txn::twophase::DECISION_PREFIX;
use rrq_txn::{forget_decisions, resolve_in_doubt, ResourceManager, TxnIdGen};
use std::sync::Arc;

const PARTS: usize = 4;
const TAIL: usize = 50;

fn open(disks: &RepoDisks) -> (Repository, RecoveryReport) {
    Repository::open("po", disks.clone()).unwrap()
}

fn devices(disks: &RepoDisks) -> Vec<&SimDisk> {
    let logs = disks.wal_groups.iter().flatten();
    logs.chain(&disks.ckpts).collect()
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
    let disks = RepoDisks::partitioned(PARTS);
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
        // A ring of moves, each prepared on its sibling partition and then
        // abandoned: every partition is in doubt about the move it receives.
        // Every other move reached its home partition's deciding commit:
        // those commit on both partitions, the rest abort on both (presumed
        // abort), so each partition sees one commit and one abort.
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
            ResourceManager::prepare(&**repo.qm_at(to), id).unwrap();
            if p % 2 == 0 {
                ResourceManager::commit_deciding(&**repo.qm_at(from), id, &[]).unwrap();
                decided.push(id.raw());
            }
            std::mem::forget(txn);
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

    // The same image, one store at a time, resolved as `open_with` resolves:
    // every in-doubt transaction by the recovered rows, then the sweep.
    let recovered: Vec<_> = (0..PARTS)
        .map(|p| {
            KvStore::open(
                Arc::new(disks.wal_groups[p][0].clone()),
                Arc::new(disks.ckpts[p].clone()),
                rrq_obs::Obs::default(),
            )
            .unwrap()
        })
        .collect();
    let stores: Vec<Arc<KvStore>> = recovered.iter().map(|(s, _)| Arc::clone(s)).collect();
    for (p, (store, part)) in recovered.iter().enumerate() {
        assert_eq!(part.in_doubt.len(), 1, "partition {p}: {part:?}");
        assert!(part.replayed >= TAIL, "partition {p} had a log tail");
        let (committed, aborted) = resolve_in_doubt(store, &part.in_doubt, &stores).unwrap();
        // The move this partition sent decided (or not) before the crash.
        let home_committed = usize::from(p % 2 == 0);
        assert_eq!(
            (committed + home_committed, aborted + 1 - home_committed),
            (1, 1),
            "partition {p}: one commits, one aborts"
        );
    }
    let ids = TxnIdGen::new(1);
    let swept: usize = stores
        .iter()
        .map(|s| forget_decisions(s, &ids).unwrap())
        .sum();
    assert_eq!(swept, decided.len(), "one row per decided move");
    let mut serial_report = RecoveryReport::default();
    for (p, (got, (store, part))) in concurrent.iter().zip(recovered).enumerate() {
        assert_eq!(*got, dump(&store), "partition {p}");
        assert!(
            !got.iter().any(|(k, _)| k.starts_with(DECISION_PREFIX)),
            "partition {p} kept a decision row"
        );
        serial_report.replayed += part.replayed;
        serial_report.committed_txns += part.committed_txns;
        serial_report.aborted_txns += part.aborted_txns;
        serial_report.in_doubt.extend(part.in_doubt);
    }
    serial_report.in_doubt.sort_unstable();
    assert_eq!(report, serial_report);
    for id in decided {
        assert_eq!(report.in_doubt.iter().filter(|t| **t == id).count(), 1);
    }
}
