//! obs-report: drive a canonical repository workload and print the rrq-obs
//! snapshot after each phase, as a diff against the previous phase — a
//! human-readable tour of the metric catalogue (`crates/obs/METRICS.md`)
//! using only the snapshot/diff/render export API.
//!
//! ```sh
//! cargo run --release -p rrq-bench --bin obs-report            # per-phase diffs
//! cargo run --release -p rrq-bench --bin obs-report -- --full  # plus cumulative dump
//! ```
//!
//! The bin only *reads* metrics; every recording call site lives in the
//! production crates, so what prints here is exactly what the explorer's
//! metrics-conservation oracle sees.

use rrq_obs::{Obs, Snapshot};
use rrq_qm::ops::{DequeueOptions, EnqueueOptions};
use rrq_qm::repository::{RepoDisks, Repository};
use rrq_storage::disk::TornWriteMode;
use std::sync::Arc;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    // One handle across both incarnations, so the recovery shows up too.
    let obs = Obs::default();
    obs.start();
    let open = |disks: RepoDisks| Repository::open_with("obs-report", disks, obs.clone()).unwrap();

    let disks = RepoDisks::new();
    let (repo, _) = open(disks.clone());
    let repo = Arc::new(repo);
    repo.create_queue_defaults("q").unwrap();
    let (h, _) = repo.qm().register("q", "reporter", false).unwrap();

    let mut prev = obs.snapshot();
    let phase = |title: &str, prev: &mut Snapshot| {
        let now = obs.snapshot();
        println!("== {title} ==");
        let rendered = now.diff(prev).render();
        if rendered.is_empty() {
            println!("(no metric movement)");
        } else {
            print!("{rendered}");
        }
        println!();
        *prev = now;
    };

    // Phase 1: an enqueue burst — WAL appends/forces, enqueue counters, and
    // the depth gauge climbing.
    for i in 0..64u32 {
        repo.autocommit(|t| {
            repo.qm().enqueue(
                t.id().raw(),
                &h,
                &i.to_le_bytes(),
                EnqueueOptions::default(),
            )
        })
        .unwrap();
    }
    phase("enqueue burst (64 elements)", &mut prev);

    // Phase 2: dequeues with aborts — every third transaction aborts, so the
    // disposition fix-up (requeue / error-queue moves) shows up alongside
    // committed dequeues and lock hold-time observations.
    for i in 0..48u32 {
        let txn = repo.begin().unwrap();
        let got = repo
            .qm()
            .dequeue(txn.id().raw(), &h, DequeueOptions::default());
        match got {
            Ok(_) if i % 3 == 0 => txn.abort().unwrap(),
            Ok(_) => txn.commit().unwrap(),
            Err(_) => {
                txn.abort().unwrap();
                break;
            }
        }
    }
    phase("dequeue with aborts (every third aborts)", &mut prev);

    // Phase 3: a torn crash and reopen — recovery replay, tail truncation,
    // and the index rebuild re-arming the depth gauge.
    disks.crash_with(Some(TornWriteMode::Midway));
    drop(repo);
    let (repo2, report) = open(disks);
    phase("torn crash + recovery", &mut prev);
    let (total, gauge) = repo2.qm().depth_accounting();
    println!(
        "recovery replayed {} records; live elements {total}, depth gauge {gauge}\n",
        report.replayed
    );

    if full {
        println!("== cumulative ==");
        print!("{}", obs.snapshot().render());
    }
}
