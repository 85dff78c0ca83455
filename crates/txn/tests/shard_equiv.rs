//! Striping must be invisible: a lock table split over 8 stripes has to
//! make exactly the decisions the single-mutex table makes.
//!
//! * The proptest replays random lock / unlock / transfer scripts against
//!   `with_shards(1)` and `with_shards(8)` and requires identical per-op
//!   outcomes, identical final holdings, and identical stats counters.
//! * The directed test drives a real two-thread deadlock whose two keys
//!   provably live on different stripes, checking that the waits-for graph
//!   (which stayed global by design) still closes the cycle.

use proptest::prelude::*;
use rrq_txn::{LockKey, LockManager, LockMode, TxnError};
use std::sync::{Arc, Barrier};
use std::time::Duration;

const TXNS: u64 = 4;
const KEYS: usize = 8;

#[derive(Debug, Clone)]
enum Op {
    /// `try_lock` — zero timeout keeps single-threaded replay deterministic.
    Lock {
        txn: u64,
        key: usize,
        exclusive: bool,
    },
    UnlockAll {
        txn: u64,
    },
    Transfer {
        from: u64,
        to: u64,
    },
}

fn key(i: usize) -> LockKey {
    // Two namespaces so stripe hashing mixes ns and key bytes.
    LockKey::new((i % 2) as u32, vec![i as u8])
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..TXNS, 0..KEYS, any::<bool>())
            .prop_map(|(txn, key, exclusive)| Op::Lock { txn, key, exclusive }),
        1 => (0..TXNS).prop_map(|txn| Op::UnlockAll { txn }),
        1 => (0..TXNS, 0..TXNS).prop_map(|(from, to)| Op::Transfer { from, to }),
    ]
}

/// Replay `ops` on a fresh manager with `shards` stripes; the returned
/// trace captures everything the caller is allowed to observe.
fn replay(ops: &[Op], shards: usize) -> Vec<String> {
    let lm = LockManager::with_shards(shards, rrq_obs::Obs::default());
    let mut trace = Vec::new();
    for op in ops {
        match op {
            Op::Lock {
                txn,
                key: k,
                exclusive,
            } => {
                let mode = if *exclusive {
                    LockMode::Exclusive
                } else {
                    LockMode::Shared
                };
                trace.push(format!(
                    "lock {txn} {k} {mode:?}: {:?}",
                    lm.try_lock(*txn, &key(*k), mode)
                ));
            }
            Op::UnlockAll { txn } => {
                lm.unlock_all(*txn);
                trace.push(format!("unlock {txn}"));
            }
            Op::Transfer { from, to } => {
                lm.transfer_locks(*from, *to);
                trace.push(format!("transfer {from}->{to}"));
            }
        }
    }
    for txn in 0..TXNS {
        trace.push(format!("held[{txn}]={}", lm.held_count(txn)));
        for k in 0..KEYS {
            for mode in [LockMode::Shared, LockMode::Exclusive] {
                if lm.holds(txn, &key(k), mode) {
                    trace.push(format!("holds {txn} {k} {mode:?}"));
                }
            }
        }
    }
    trace.push(format!("stats {:?}", lm.stats()));
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Grant / upgrade / timeout decisions, final holdings, and counters
    /// are identical at 1 stripe and 8 stripes for any script.
    #[test]
    fn striped_table_is_observationally_equal_to_single_mutex(
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        let baseline = replay(&ops, 1);
        let striped = replay(&ops, 8);
        prop_assert_eq!(baseline, striped);
    }
}

/// A real deadlock whose two resources live on different stripes: detection
/// must still fire, because the waits-for graph is global even though the
/// tables are striped.
#[test]
fn cross_shard_deadlock_is_still_detected() {
    let lm = Arc::new(LockManager::with_shards(8, rrq_obs::Obs::default()));

    // Find two keys on provably different stripes.
    let a = key(0);
    let mut b = key(1);
    for i in 1..KEYS {
        b = key(i);
        if lm.shard_id(&b) != lm.shard_id(&a) {
            break;
        }
    }
    assert_ne!(
        lm.shard_id(&a),
        lm.shard_id(&b),
        "need two distinct stripes"
    );

    let barrier = Arc::new(Barrier::new(2));
    let spawn = |me: u64, first: LockKey, second: LockKey| {
        let lm = Arc::clone(&lm);
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            lm.try_lock(me, &first, LockMode::Exclusive).unwrap();
            barrier.wait();
            let got = lm.lock(me, &second, LockMode::Exclusive, Duration::from_secs(5));
            lm.unlock_all(me);
            got
        })
    };
    let t1 = spawn(1, a.clone(), b.clone());
    let t2 = spawn(2, b, a);
    let r1 = t1.join().unwrap();
    let r2 = t2.join().unwrap();

    let deadlocks = [&r1, &r2]
        .iter()
        .filter(|r| matches!(r, Err(TxnError::Deadlock { .. })))
        .count();
    assert_eq!(
        deadlocks, 1,
        "exactly one side is the block-time victim: {r1:?} / {r2:?}"
    );
    // The survivor's wait was resolved by the victim's release, not by the
    // 5s timeout backstop.
    assert!(
        [&r1, &r2].iter().any(|r| r.is_ok()),
        "survivor must be granted after the victim aborts: {r1:?} / {r2:?}"
    );
    assert_eq!(lm.stats().deadlocks, 1);
    assert_eq!(lm.held_count(1) + lm.held_count(2), 0);
}
