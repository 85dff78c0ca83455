//! `Read` and `KillElement` find a live element by its eid alone, with no
//! row that maps the eid to the element's key: one walk of `e/` finds it
//! wherever it is — under the fresh key a requeue or an error-queue move gave
//! it, in the main-memory store of a volatile queue, after a crash — and the
//! `x/<eid>` rows that stores written by earlier versions still hold are
//! never read.

use rrq_qm::element::Eid;
use rrq_qm::meta::QueueMeta;
use rrq_qm::ops::{DequeueOptions, EnqueueOptions, QueueHandle};
use rrq_qm::repository::{RepoDisks, Repository};
use rrq_qm::QmError;
use rrq_storage::codec::put;

fn enq(repo: &Repository, h: &QueueHandle, payload: &[u8]) -> Eid {
    repo.autocommit(|t| {
        repo.qm()
            .enqueue(t.id().raw(), h, payload, EnqueueOptions::default())
    })
    .unwrap()
}

/// Dequeue `h`'s head and abort: the abort disposition runs.
fn abort_a_dequeue(repo: &Repository, h: &QueueHandle) -> Eid {
    let txn = repo.begin().unwrap();
    let e = repo
        .qm()
        .dequeue(txn.id().raw(), h, DequeueOptions::default())
        .unwrap();
    txn.abort().unwrap();
    e.eid
}

fn assert_self_checks(repo: &Repository) {
    assert_eq!(repo.qm().retention_divergence().unwrap(), None);
    assert_eq!(repo.qm().index_divergence().unwrap(), None);
}

/// Read finds `eid` with `payload`, and a kill takes it out of `queue`.
fn read_then_kill(repo: &Repository, eid: Eid, payload: &[u8], queue: &str) {
    assert_eq!(repo.qm().read(eid).unwrap().payload, payload);
    let depth = repo.qm().depth(queue).unwrap();
    assert!(repo.qm().kill_element(eid).unwrap());
    assert_eq!(repo.qm().depth(queue).unwrap(), depth - 1);
    assert!(matches!(
        repo.qm().read(eid),
        Err(QmError::NoSuchElement(_))
    ));
    assert!(!repo.qm().kill_element(eid).unwrap());
    assert_self_checks(repo);
}

#[test]
fn a_requeued_and_an_error_moved_element_keep_their_eid_under_a_new_key() {
    let repo = Repository::create("lookup-moved").unwrap();
    let mut rotating = QueueMeta::with_defaults("rot");
    rotating.retry_limit = 0;
    rotating.requeue_at_back_on_abort = true;
    repo.qm().create_queue(rotating).unwrap();
    let mut once = QueueMeta::with_defaults("once");
    once.retry_limit = 1;
    repo.qm().create_queue(once).unwrap();
    let (rot, _) = repo.qm().register("rot", "c", false).unwrap();
    let (one, _) = repo.qm().register("once", "c", false).unwrap();

    let rotated = enq(&repo, &rot, b"rotated");
    enq(&repo, &rot, b"behind");
    assert_eq!(abort_a_dequeue(&repo, &rot), rotated);
    let moved = enq(&repo, &one, b"moved");
    assert_eq!(abort_a_dequeue(&repo, &one), moved);
    assert_eq!(repo.qm().depth("once.errors").unwrap(), 1);
    assert_self_checks(&repo);

    read_then_kill(&repo, rotated, b"rotated", "rot");
    read_then_kill(&repo, moved, b"moved", "once.errors");
}

#[test]
fn a_volatile_element_is_found() {
    let repo = Repository::create("lookup-volatile").unwrap();
    let mut meta = QueueMeta::with_defaults("vol");
    meta.durable = false;
    repo.qm().create_queue(meta).unwrap();
    repo.create_queue_defaults("dur").unwrap();
    let (vol, _) = repo.qm().register("vol", "c", false).unwrap();
    let (dur, _) = repo.qm().register("dur", "c", false).unwrap();
    // A durable element first, so the walk must go past the durable store.
    let durable = enq(&repo, &dur, b"durable");
    let volatile = enq(&repo, &vol, b"volatile");
    read_then_kill(&repo, volatile, b"volatile", "vol");
    read_then_kill(&repo, durable, b"durable", "dur");
}

#[test]
fn an_element_is_found_after_a_crash_and_a_reopen() {
    let disks = RepoDisks::new();
    let (repo, _) = Repository::open("lookup-crash", disks.clone()).unwrap();
    repo.create_queue_defaults("q").unwrap();
    let (h, _) = repo.qm().register("q", "c", false).unwrap();
    let first = enq(&repo, &h, b"first");
    repo.checkpoint().unwrap();
    let second = enq(&repo, &h, b"second");
    drop(repo);
    disks.crash();

    let (repo, _) = Repository::open("lookup-crash", disks).unwrap();
    assert_self_checks(&repo);
    read_then_kill(&repo, second, b"second", "q");
    read_then_kill(&repo, first, b"first", "q");
}

#[test]
fn index_rows_an_older_version_wrote_are_ignored() {
    let disks = RepoDisks::new();
    let (repo, _) = Repository::open("lookup-legacy", disks.clone()).unwrap();
    repo.create_queue_defaults("q").unwrap();
    let (h, _) = repo.qm().register("q", "c", false).unwrap();
    let gone = enq(&repo, &h, b"gone");
    let live = enq(&repo, &h, b"live");
    let snapshot = repo.qm().index_snapshot();
    let (live_key, _) = snapshot["q"].iter().find(|(_, e)| *e == live).unwrap();
    repo.autocommit(|t| {
        repo.qm()
            .dequeue(t.id().raw(), &h, DequeueOptions::default())
    })
    .unwrap();
    // `x/<eid>` → (queue, element key), as versions that kept the row wrote
    // it: one for the live element, one left pointing at a dequeued one.
    let legacy_row = |eid: Eid, key: &[u8]| {
        let mut k = b"x/".to_vec();
        k.extend_from_slice(&eid.raw().to_be_bytes());
        let mut v = Vec::new();
        put::string(&mut v, "q");
        put::bytes(&mut v, key);
        (k, v)
    };
    let rows = [legacy_row(live, live_key), legacy_row(gone, b"e/q/gone")];
    repo.autocommit(|t| {
        for (k, v) in &rows {
            repo.store().put(t.id().raw(), k, v)?;
        }
        Ok(())
    })
    .unwrap();
    drop(repo);
    disks.crash();

    let (repo, _) = Repository::open("lookup-legacy", disks).unwrap();
    assert_self_checks(&repo);
    assert!(matches!(
        repo.qm().read(gone),
        Err(QmError::NoSuchElement(_))
    ));
    assert!(!repo.qm().kill_element(gone).unwrap());
    read_then_kill(&repo, live, b"live", "q");
    let left = repo.store().scan_prefix(None, b"x/").unwrap();
    assert_eq!(left.len(), 2, "nothing reads, rewrites or deletes them");
}
