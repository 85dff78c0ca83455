//! Stripe occupancy — what lets `unlock_all` pass by a stripe — has to be
//! exact wherever a held-set is created, moved or dropped: a count left too
//! high only costs a mutex, but one left at zero under a live held-set would
//! strand its holder's locks for good.

use rrq_storage::disk::SimDisk;
use rrq_storage::kv::KvStore;
use rrq_txn::{KvResource, LockKey, LockManager, LockMode, ResourceManager, TxnManager};
use std::sync::Arc;
use std::time::Duration;

const T: Duration = Duration::from_secs(5);

fn key(i: u64) -> LockKey {
    LockKey::new((i % 3) as u32, i.to_be_bytes().to_vec())
}

fn idle(lm: &LockManager) -> Vec<usize> {
    vec![0; lm.shard_count()]
}

#[test]
fn occupancy_counts_holders_and_returns_to_zero() {
    let lm = LockManager::new();
    assert_eq!(lm.stripe_occupancy(), idle(&lm));
    for i in 0..64 {
        lm.lock(1, &key(i), LockMode::Exclusive, T).unwrap();
        lm.lock(2, &key(i + 64), LockMode::Shared, T).unwrap();
    }
    // 128 keys over 16 stripes: both transactions hold on every one.
    assert_eq!(lm.stripe_occupancy(), vec![2; lm.shard_count()]);
    lm.unlock_all(1);
    assert_eq!(lm.stripe_occupancy(), vec![1; lm.shard_count()]);
    // Releasing twice, or releasing a transaction that never locked,
    // changes nothing.
    lm.unlock_all(1);
    lm.unlock_all(99);
    assert_eq!(lm.stripe_occupancy(), vec![1; lm.shard_count()]);
    lm.unlock_all(2);
    assert_eq!(lm.stripe_occupancy(), idle(&lm));
}

#[test]
fn occupancy_follows_a_transfer() {
    let lm = LockManager::new();
    let only = key(7);
    let stripe = lm.shard_id(&only);
    lm.lock(1, &only, LockMode::Exclusive, T).unwrap();
    lm.transfer_locks(1, 2);
    let mut want = idle(&lm);
    want[stripe] = 1;
    assert_eq!(lm.stripe_occupancy(), want, "one holder before, one after");
    // The heir's release must find the stripe: it never locked there itself.
    lm.unlock_all(2);
    assert_eq!(lm.stripe_occupancy(), idle(&lm));
    assert!(lm.try_lock(3, &only, LockMode::Exclusive).is_ok());
    lm.unlock_all(3);

    // Merging into an heir that already holds on the stripe: still one.
    lm.lock(1, &only, LockMode::Shared, T).unwrap();
    lm.lock(2, &only, LockMode::Shared, T).unwrap();
    want[stripe] = 2;
    assert_eq!(lm.stripe_occupancy(), want);
    lm.transfer_locks(1, 2);
    want[stripe] = 1;
    assert_eq!(lm.stripe_occupancy(), want);
    lm.unlock_all(2);
    assert_eq!(lm.stripe_occupancy(), idle(&lm));
}

#[test]
fn occupancy_survives_commit_inheriting_locks() {
    let mgr = TxnManager::single_node();
    let (store, _) = KvStore::open(Arc::new(SimDisk::new()), Arc::new(SimDisk::new())).unwrap();
    let rm: Arc<dyn ResourceManager> = Arc::new(KvResource::new("db", Arc::clone(&store)));
    let keys: Vec<LockKey> = (0..40).map(key).collect();

    let t1 = mgr.begin();
    t1.enlist(Arc::clone(&rm)).unwrap();
    for k in &keys {
        t1.lock_exclusive(k).unwrap();
    }
    let held = mgr.locks().stripe_occupancy();
    let t2 = mgr.begin();
    t1.commit_inheriting_locks(t2.id()).unwrap();
    assert_eq!(mgr.locks().stripe_occupancy(), held);
    assert_eq!(mgr.locks().held_count(t2.id().raw()), keys.len());
    t2.commit().unwrap();
    assert_eq!(mgr.locks().stripe_occupancy(), idle(mgr.locks()));
    for k in &keys {
        assert!(mgr.locks().try_lock(999, k, LockMode::Exclusive).is_ok());
    }
    mgr.locks().unlock_all(999);
}

/// Eight threads, 50 000 rounds each, of lock-a-few-keys / release, over a
/// key space small enough that stripes are shared all the time and keys some
/// of the time. A release that skipped a stripe its transaction held on
/// would leave a key locked by a transaction id nobody will ever use again,
/// and the exclusive sweep at the end would find it.
#[test]
fn racing_lock_unlock_rounds_never_strand_a_holder() {
    const THREADS: u64 = 8;
    const ROUNDS: u64 = 50_000;
    const KEYS: u64 = 48;
    let lm = Arc::new(LockManager::new());
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let lm = Arc::clone(&lm);
            s.spawn(move || {
                let mut x = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(t + 1);
                for round in 0..ROUNDS {
                    let txn = (t << 32) | round;
                    let mut got = 0;
                    for _ in 0..3 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        if lm
                            .try_lock(txn, &key(x % KEYS), LockMode::Exclusive)
                            .is_ok()
                        {
                            got += 1;
                        }
                    }
                    assert!(lm.held_count(txn) <= got);
                    lm.unlock_all(txn);
                }
            });
        }
    });
    assert_eq!(lm.stripe_occupancy(), idle(&lm));
    for i in 0..KEYS {
        assert!(
            lm.try_lock(u64::MAX, &key(i), LockMode::Exclusive).is_ok(),
            "key {i} is still held"
        );
    }
    lm.unlock_all(u64::MAX);
    assert_eq!(lm.stripe_occupancy(), idle(&lm));
}
