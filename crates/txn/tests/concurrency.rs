//! Concurrency tests for the transaction layer: serializability of money
//! movements under 2PL, and deadlock-victim liveness.

use rrq_storage::disk::SimDisk;
use rrq_storage::kv::KvStore;
use rrq_txn::{KvResource, LockKey, ResourceManager, TxnError, TxnManager};
use std::sync::Arc;
use std::time::Duration;

fn store() -> Arc<KvStore> {
    KvStore::open(
        Arc::new(SimDisk::new()),
        Arc::new(SimDisk::new()),
        rrq_obs::Obs::default(),
    )
    .unwrap()
    .0
}

fn balance(store: &KvStore, key: &[u8]) -> i64 {
    store
        .get(None, key)
        .unwrap()
        .map(|raw| i64::from_le_bytes(raw.try_into().unwrap()))
        .unwrap_or(0)
}

/// N threads move money between M accounts with strict 2PL; the total is
/// invariant and no increment is lost — the serializability smoke test.
#[test]
fn concurrent_transfers_conserve_money() {
    let mgr = TxnManager::single_node();
    mgr.set_lock_timeout(Duration::from_secs(30));
    let s = store();
    let rm: Arc<dyn ResourceManager> = Arc::new(KvResource::new("bank", Arc::clone(&s)));

    const ACCOUNTS: usize = 4;
    const THREADS: usize = 6;
    const TRANSFERS: usize = 80;
    // Seed.
    s.begin(999_999).unwrap();
    for a in 0..ACCOUNTS {
        s.put(
            999_999,
            format!("a{a}").as_bytes(),
            &10_000i64.to_le_bytes(),
        )
        .unwrap();
    }
    s.commit(999_999).unwrap();

    let mut handles = Vec::new();
    for t in 0..THREADS {
        let mgr = mgr.clone();
        let s = Arc::clone(&s);
        let rm = Arc::clone(&rm);
        handles.push(std::thread::spawn(move || {
            let mut done = 0;
            let mut i = 0usize;
            while done < TRANSFERS {
                i += 1;
                let from = (t + i) % ACCOUNTS;
                let to = (t + i + 1 + i % (ACCOUNTS - 1)) % ACCOUNTS;
                if from == to {
                    continue;
                }
                let txn = mgr.begin();
                txn.enlist(Arc::clone(&rm)).unwrap();
                // Deterministic lock order prevents deadlock here; the
                // deadlock test below covers the victim path.
                let (lo, hi) = (from.min(to), from.max(to));
                if txn
                    .lock_exclusive(&LockKey::new(1, format!("a{lo}")))
                    .is_err()
                    || txn
                        .lock_exclusive(&LockKey::new(1, format!("a{hi}")))
                        .is_err()
                {
                    txn.abort().unwrap();
                    continue;
                }
                let token = txn.id().raw();
                let fk = format!("a{from}");
                let tk = format!("a{to}");
                let fb = s
                    .get(Some(token), fk.as_bytes())
                    .unwrap()
                    .map(|r| i64::from_le_bytes(r.try_into().unwrap()))
                    .unwrap();
                let tb = s
                    .get(Some(token), tk.as_bytes())
                    .unwrap()
                    .map(|r| i64::from_le_bytes(r.try_into().unwrap()))
                    .unwrap();
                s.put(token, fk.as_bytes(), &(fb - 7).to_le_bytes())
                    .unwrap();
                s.put(token, tk.as_bytes(), &(tb + 7).to_le_bytes())
                    .unwrap();
                txn.commit().unwrap();
                done += 1;
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let total: i64 = (0..ACCOUNTS)
        .map(|a| balance(&s, format!("a{a}").as_bytes()))
        .sum();
    assert_eq!(total, 10_000 * ACCOUNTS as i64, "money conserved");
    assert_eq!(mgr.stats().committed, (THREADS * TRANSFERS) as u64);
}

/// Opposite-order lockers deadlock; the victim aborts cleanly, the survivor
/// commits, and the system keeps going.
#[test]
fn deadlock_victims_do_not_wedge_the_system() {
    let mgr = TxnManager::single_node();
    mgr.set_lock_timeout(Duration::from_secs(10));
    let s = store();
    let rm: Arc<dyn ResourceManager> = Arc::new(KvResource::new("db", Arc::clone(&s)));

    let mut handles = Vec::new();
    for t in 0..4 {
        let mgr = mgr.clone();
        let s = Arc::clone(&s);
        let rm = Arc::clone(&rm);
        handles.push(std::thread::spawn(move || {
            let mut commits = 0;
            for i in 0..40 {
                let txn = mgr.begin();
                txn.enlist(Arc::clone(&rm)).unwrap();
                // Half the threads lock x then y, half y then x.
                let (first, second) = if t % 2 == 0 { ("x", "y") } else { ("y", "x") };
                let ok = txn.lock_exclusive(&LockKey::new(2, first)).is_ok()
                    && txn.lock_exclusive(&LockKey::new(2, second)).is_ok();
                if !ok {
                    txn.abort().unwrap();
                    continue;
                }
                let token = txn.id().raw();
                s.put(token, b"counter", format!("{t}:{i}").into_bytes())
                    .unwrap();
                txn.commit().unwrap();
                commits += 1;
            }
            commits
        }));
    }
    let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total > 0, "some transactions must commit");
    let stats = mgr.locks().stats();
    assert!(
        stats.deadlocks > 0 || stats.timeouts > 0 || total == 160,
        "either conflicts occurred and were resolved, or everything serialized cleanly"
    );
    // The store is still usable.
    s.begin(123_456).unwrap();
    s.put(123_456, b"after", b"fine").unwrap();
    s.commit(123_456).unwrap();
    assert_eq!(s.get(None, b"after").unwrap(), Some(b"fine".to_vec()));
}

/// Lock timeouts surface as errors, not hangs, even under heavy contention.
#[test]
fn lock_timeout_is_bounded() {
    let mgr = TxnManager::single_node();
    mgr.set_lock_timeout(Duration::from_millis(50));
    let holder = mgr.begin();
    holder.lock_exclusive(&LockKey::new(3, "hot")).unwrap();

    let t0 = std::time::Instant::now();
    let waiter = mgr.begin();
    let r = waiter.lock_exclusive(&LockKey::new(3, "hot"));
    assert_eq!(r, Err(TxnError::LockTimeout));
    assert!(t0.elapsed() < Duration::from_secs(2));
    waiter.abort().unwrap();
    holder.abort().unwrap();
}
