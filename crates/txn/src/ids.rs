//! Transaction identifiers.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A globally unique transaction identifier.
///
/// The raw `u64` doubles as the transaction token passed to
/// [`rrq_storage::KvStore`], so one id drives every enlisted store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnId(pub u64);

impl TxnId {
    /// The raw token value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn#{}", self.0)
    }
}

/// Monotonic id generator.
///
/// Ids start from a caller-chosen floor so that a restarted node can resume
/// above every id it may have logged before the crash (the manager persists
/// a high-water mark for this).
#[derive(Debug)]
pub struct TxnIdGen {
    next: AtomicU64,
}

impl TxnIdGen {
    /// Start issuing ids at `floor` (must be ≥ 1; 0 is the reserved
    /// "no transaction" token).
    pub fn new(floor: u64) -> Self {
        TxnIdGen {
            next: AtomicU64::new(floor.max(1)),
        }
    }

    /// Issue the next id.
    pub fn next(&self) -> TxnId {
        TxnId(self.next.fetch_add(1, Ordering::AcqRel))
    }
}

impl Default for TxnIdGen {
    fn default() -> Self {
        TxnIdGen::new(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_monotonic_and_unique() {
        let g = TxnIdGen::default();
        let a = g.next();
        let b = g.next();
        assert!(b.raw() > a.raw());
        assert_ne!(a, b);
    }

    #[test]
    fn floor_is_respected_and_zero_reserved() {
        let g = TxnIdGen::new(0);
        assert_eq!(g.next().raw(), 1);
        let g = TxnIdGen::new(500);
        assert_eq!(g.next().raw(), 500);
        assert_eq!(g.next().raw(), 501);
    }

    #[test]
    fn display_format() {
        assert_eq!(TxnId(9).to_string(), "txn#9");
    }

    #[test]
    fn concurrent_generation_has_no_duplicates() {
        use std::collections::HashSet;
        use std::sync::Arc;
        let g = Arc::new(TxnIdGen::default());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let g = Arc::clone(&g);
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| g.next().raw()).collect::<Vec<_>>()
            }));
        }
        let mut seen = HashSet::new();
        for h in handles {
            for id in h.join().unwrap() {
                assert!(seen.insert(id), "duplicate id {id}");
            }
        }
    }
}
