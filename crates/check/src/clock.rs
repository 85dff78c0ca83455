//! Vector clocks over dense thread slots.
//!
//! The race detector assigns each participating OS thread a small integer
//! slot for the lifetime of a [`crate::race::Detector`], so a clock is just
//! a growable vector of counters — component `i` is the most recent event
//! of thread-slot `i` that the clock's owner has (transitively) observed.

/// A vector clock. Missing components read as zero.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VectorClock {
    slots: Vec<u64>,
}

impl VectorClock {
    /// The all-zero clock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Component `slot` (zero when never written).
    pub fn get(&self, slot: usize) -> u64 {
        self.slots.get(slot).copied().unwrap_or(0)
    }

    /// Advance component `slot` by one; returns the new value.
    pub fn tick(&mut self, slot: usize) -> u64 {
        if self.slots.len() <= slot {
            self.slots.resize(slot + 1, 0);
        }
        self.slots[slot] += 1;
        self.slots[slot]
    }

    /// Pointwise maximum: afterwards `self` has observed everything either
    /// clock had observed.
    pub fn join(&mut self, other: &VectorClock) {
        if self.slots.len() < other.slots.len() {
            self.slots.resize(other.slots.len(), 0);
        }
        for (i, v) in other.slots.iter().enumerate() {
            if self.slots[i] < *v {
                self.slots[i] = *v;
            }
        }
    }

    /// True when `self` is pointwise ≥ `other` — i.e. every event `other`
    /// has observed happens-before (or is) an event `self` has observed.
    pub fn dominates(&self, other: &VectorClock) -> bool {
        (0..other.slots.len()).all(|i| self.get(i) >= other.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_and_get() {
        let mut c = VectorClock::new();
        assert_eq!(c.get(3), 0);
        assert_eq!(c.tick(3), 1);
        assert_eq!(c.tick(3), 2);
        assert_eq!(c.get(3), 2);
        assert_eq!(c.get(0), 0);
    }

    #[test]
    fn join_is_pointwise_max() {
        let mut a = VectorClock::new();
        a.tick(0);
        a.tick(0);
        let mut b = VectorClock::new();
        b.tick(1);
        a.join(&b);
        assert_eq!(a.get(0), 2);
        assert_eq!(a.get(1), 1);
        // b is unchanged and now strictly behind a.
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
    }

    #[test]
    fn concurrent_clocks_do_not_dominate() {
        let mut a = VectorClock::new();
        a.tick(0);
        let mut b = VectorClock::new();
        b.tick(1);
        assert!(!a.dominates(&b));
        assert!(!b.dominates(&a));
    }
}
