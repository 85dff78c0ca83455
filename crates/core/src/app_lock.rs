//! The §6 application lock table.
//!
//! When the underlying database systems "won't hold locks across
//! transactions, the application can mimic database system locking by
//! creating a persistent database of locks, setting the appropriate locks
//! for each database object it accesses, and releasing all of these
//! 'application locks' just before the final transaction of the
//! multi-transaction request commits."
//!
//! The table lives in the ordinary recoverable store, so lock acquisition
//! and release commit atomically with the stage transactions that perform
//! them. The paper predicts — and experiment E6 measures — that "the
//! performance of this approach will be limited, due to the high overhead of
//! setting locks".

use crate::error::CoreResult;
use crate::rid::Rid;
use rrq_storage::kv::KvStore;
use std::sync::Arc;

/// Key of a lock record: `al/o/<resource>` → owner rid.
fn owner_key(resource: &str) -> Vec<u8> {
    format!("al/o/{resource}").into_bytes()
}

/// Reverse index: `al/r/<rid>/<resource>` → empty.
fn by_owner_key(rid: &Rid, resource: &str) -> Vec<u8> {
    format!("al/r/{}/{resource}", rid.to_attr()).into_bytes()
}

fn by_owner_prefix(rid: &Rid) -> Vec<u8> {
    format!("al/r/{}/", rid.to_attr()).into_bytes()
}

/// A persistent application-level lock table.
pub struct AppLockTable {
    store: Arc<KvStore>,
}

impl AppLockTable {
    /// Use `store` (normally the repository's durable store) for the table.
    pub fn new(store: Arc<KvStore>) -> Self {
        AppLockTable { store }
    }

    /// Try to lock `resource` for request `rid` inside transaction `txn`.
    /// Returns `false` when another request holds it (the caller should
    /// abort its stage transaction and let the request retry).
    pub fn acquire(&self, txn: u64, resource: &str, rid: &Rid) -> CoreResult<bool> {
        let key = owner_key(resource);
        match self.store.get(Some(txn), &key)? {
            Some(owner) if owner != rid.to_attr().into_bytes() => Ok(false),
            Some(_) => Ok(true), // re-entrant for the same request
            None => {
                self.store.put(txn, &key, rid.to_attr().as_bytes())?;
                self.store.put(txn, &by_owner_key(rid, resource), b"")?;
                Ok(true)
            }
        }
    }

    /// Current owner of `resource` (committed view).
    pub fn owner(&self, resource: &str) -> CoreResult<Option<Rid>> {
        Ok(self
            .store
            .get(None, &owner_key(resource))?
            .and_then(|raw| String::from_utf8(raw).ok())
            .and_then(|s| Rid::from_attr(&s)))
    }

    /// Release every lock held by `rid` inside `txn` — called "just before
    /// the final transaction … commits".
    pub fn release_all(&self, txn: u64, rid: &Rid) -> CoreResult<usize> {
        let rows = self.store.scan_prefix(Some(txn), &by_owner_prefix(rid))?;
        let prefix_len = by_owner_prefix(rid).len();
        let mut n = 0;
        for (k, _) in rows {
            let resource = String::from_utf8_lossy(&k[prefix_len..]).to_string();
            self.store.delete(txn, &owner_key(&resource))?;
            self.store.delete(txn, &k)?;
            n += 1;
        }
        Ok(n)
    }

    /// Number of locks currently held by `rid` (committed view).
    pub fn held_by(&self, rid: &Rid) -> CoreResult<usize> {
        Ok(self.store.scan_prefix(None, &by_owner_prefix(rid))?.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrq_storage::disk::SimDisk;

    fn store() -> Arc<KvStore> {
        KvStore::open(Arc::new(SimDisk::new()), Arc::new(SimDisk::new()))
            .unwrap()
            .0
    }

    #[test]
    fn acquire_conflict_and_release() {
        let s = store();
        let t = AppLockTable::new(Arc::clone(&s));
        let r1 = Rid::new("c", 1);
        let r2 = Rid::new("c", 2);

        s.begin(1).unwrap();
        assert!(t.acquire(1, "acct-7", &r1).unwrap());
        assert!(t.acquire(1, "acct-7", &r1).unwrap(), "re-entrant");
        s.commit(1).unwrap();
        assert_eq!(t.owner("acct-7").unwrap(), Some(r1.clone()));

        s.begin(2).unwrap();
        assert!(!t.acquire(2, "acct-7", &r2).unwrap(), "held by r1");
        s.abort(2).unwrap();

        s.begin(3).unwrap();
        assert_eq!(t.release_all(3, &r1).unwrap(), 1);
        s.commit(3).unwrap();
        assert_eq!(t.owner("acct-7").unwrap(), None);

        s.begin(4).unwrap();
        assert!(t.acquire(4, "acct-7", &r2).unwrap());
        s.commit(4).unwrap();
        assert_eq!(t.held_by(&r2).unwrap(), 1);
    }

    #[test]
    fn aborted_acquire_leaves_no_lock() {
        let s = store();
        let t = AppLockTable::new(Arc::clone(&s));
        let r1 = Rid::new("c", 1);
        s.begin(1).unwrap();
        assert!(t.acquire(1, "x", &r1).unwrap());
        s.abort(1).unwrap();
        assert_eq!(t.owner("x").unwrap(), None);
        assert_eq!(t.held_by(&r1).unwrap(), 0);
    }

    #[test]
    fn locks_survive_across_transactions_until_released() {
        // The whole point: unlike lock-manager locks, these persist between
        // the stages of a multi-transaction request.
        let s = store();
        let t = AppLockTable::new(Arc::clone(&s));
        let r1 = Rid::new("c", 1);
        s.begin(1).unwrap();
        t.acquire(1, "a", &r1).unwrap();
        t.acquire(1, "b", &r1).unwrap();
        s.commit(1).unwrap();
        // A different transaction (stage 2 of the same request) still owns.
        s.begin(2).unwrap();
        assert!(t.acquire(2, "a", &r1).unwrap());
        assert_eq!(t.release_all(2, &r1).unwrap(), 2);
        s.commit(2).unwrap();
        assert_eq!(t.held_by(&r1).unwrap(), 0);
    }
}
