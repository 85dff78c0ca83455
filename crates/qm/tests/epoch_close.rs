//! `QueueManager::close_epoch` takes the buffered mirrors *before* it
//! forces the log, so any number of servers may close at once: nothing it
//! shows is unforced, whoever committed it and whenever.
//!
//! The window between the force and the take cannot be hit from outside, so
//! the log device here runs a callback at the end of its next `sync` — the
//! instant a second server's deferred commit would have to land to be taken
//! without being forced. What is visible after the close must survive a
//! crash; what the crash loses must never have been visible.

use parking_lot::Mutex;
use rrq_qm::ops::{DequeueOptions, EnqueueOptions, QueueHandle, QueueManager};
use rrq_storage::disk::{CrashStyle, Disk, DiskStats, SimDisk};
use rrq_storage::kv::KvStore;
use rrq_storage::StorageResult;
use rrq_txn::{LockManager, ResourceManager, TxnManager};
use std::sync::Arc;

type Hook = Box<dyn FnOnce() + Send>;

/// A `SimDisk` that runs `after_sync` once, when its next `sync` is done.
#[derive(Default)]
struct HookDisk {
    inner: SimDisk,
    after_sync: Mutex<Option<Hook>>,
}

impl Disk for HookDisk {
    fn append(&self, data: &[u8]) -> StorageResult<u64> {
        self.inner.append(data)
    }
    fn read(&self, offset: u64, len: usize) -> StorageResult<Vec<u8>> {
        self.inner.read(offset, len)
    }
    fn len(&self) -> u64 {
        self.inner.len()
    }
    fn sync(&self) -> StorageResult<()> {
        self.inner.sync()?;
        let hook = self.after_sync.lock().take();
        if let Some(hook) = hook {
            hook();
        }
        Ok(())
    }
    fn reset(&self, contents: Vec<u8>) -> StorageResult<()> {
        self.inner.reset(contents)
    }
    fn truncate(&self, len: u64) -> StorageResult<()> {
        self.inner.truncate(len)
    }
    fn stats(&self) -> DiskStats {
        self.inner.stats()
    }
}

struct Node {
    qm: Arc<QueueManager>,
    tm: TxnManager,
    handle: QueueHandle,
}

fn boot(wal: &Arc<HookDisk>, ckpt: &SimDisk) -> Node {
    let (durable, _) = KvStore::open(
        Arc::clone(wal) as _,
        Arc::new(ckpt.clone()),
        rrq_obs::Obs::default(),
    )
    .unwrap();
    let locks = Arc::new(LockManager::new());
    let qm = QueueManager::new("qm", durable, Arc::clone(&locks)).unwrap();
    match qm.create_queue(rrq_qm::meta::QueueMeta::with_defaults("q")) {
        Ok(()) | Err(rrq_qm::QmError::QueueExists(_)) => {}
        Err(e) => panic!("{e}"),
    }
    let (handle, _) = qm.register("q", "t", false).unwrap();
    Node {
        tm: TxnManager::new(locks, 1),
        qm,
        handle,
    }
}

impl Node {
    /// Enqueue `payload` in a transaction of its own, committed deferred.
    fn enqueue_deferred(&self, payload: &[u8]) {
        let txn = self.tm.begin();
        txn.enlist(Arc::clone(&self.qm) as Arc<dyn ResourceManager>)
            .unwrap();
        self.qm.defer_commit(txn.id().raw());
        self.qm
            .enqueue(
                txn.id().raw(),
                &self.handle,
                payload,
                EnqueueOptions::default(),
            )
            .unwrap();
        txn.commit().unwrap();
    }

    /// What a dequeuer can get, in order (taken out for good).
    fn visible(&self) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        loop {
            let txn = self.tm.begin();
            txn.enlist(Arc::clone(&self.qm) as Arc<dyn ResourceManager>)
                .unwrap();
            let got = self
                .qm
                .dequeue(txn.id().raw(), &self.handle, DequeueOptions::default());
            match got {
                Ok(elem) => {
                    txn.commit().unwrap();
                    out.push(elem.payload);
                }
                Err(_) => {
                    txn.abort().unwrap();
                    return out;
                }
            }
        }
    }
}

#[test]
fn a_commit_landing_during_the_force_is_not_shown_by_that_close() {
    let wal = Arc::new(HookDisk::default());
    let ckpt = SimDisk::new();
    let node = Arc::new(boot(&wal, &ckpt));

    node.enqueue_deferred(b"first");
    assert_eq!(node.qm.depth("q").unwrap(), 0, "shown before any force");
    // The second server's commit lands when the first server's force is
    // done and before its close looks at the buffer again.
    let other = Arc::clone(&node);
    *wal.after_sync.lock() = Some(Box::new(move || other.enqueue_deferred(b"second")));
    assert_eq!(node.qm.close_epoch().unwrap(), 1);

    assert_eq!(
        node.qm.depth("q").unwrap(),
        1,
        "an unforced commit is shown"
    );
    assert_eq!(node.qm.deferred_commits(), 1);
    assert_eq!(node.qm.claimed_entries(), 0);

    // What the close showed is durable, and all that is durable.
    drop(node);
    wal.inner.crash(CrashStyle::DropVolatile);
    let node = boot(&wal, &ckpt);
    assert_eq!(node.qm.deferred_commits(), 0);
    assert_eq!(node.visible(), vec![b"first".to_vec()]);
}

#[test]
fn the_second_close_shows_what_the_first_one_left() {
    let wal = Arc::new(HookDisk::default());
    let node = Arc::new(boot(&wal, &SimDisk::new()));
    node.enqueue_deferred(b"first");
    let other = Arc::clone(&node);
    *wal.after_sync.lock() = Some(Box::new(move || other.enqueue_deferred(b"second")));
    assert_eq!(node.qm.close_epoch().unwrap(), 1);
    assert_eq!(node.qm.close_epoch().unwrap(), 1);
    assert_eq!(node.qm.close_epoch().unwrap(), 0);
    assert_eq!(node.qm.deferred_commits(), 0);
    assert_eq!(
        node.visible(),
        vec![b"first".to_vec(), b"second".to_vec()],
        "commit order is dequeue order"
    );
    assert_eq!(node.qm.claimed_entries(), 0);
}
