//! Runtime lock-order checker for the coordination locks in this crate.
//!
//! The static side of the story lives in `LOCKS.md` + `rrq-analyze`: the
//! declared partial order is `txn-stripe < txn-meta`, one stripe guard per
//! thread. This module is the *dynamic* mirror: every stripe/meta guard
//! carries a [`Held`] token that, in debug builds, pushes its class onto a
//! thread-local stack and `debug_assert!`s the stack stays strictly
//! increasing — so an execution that would deadlock under an adversarial
//! schedule panics deterministically in any test or explorer sweep that
//! merely *reaches* the bad acquisition, no unlucky interleaving required.
//!
//! In release builds [`Held`] is a zero-sized no-op; the tier-1 `cargo test`
//! run (dev profile) and explorer debug sweeps get the checks for free.

#[cfg(debug_assertions)]
use std::cell::RefCell;

/// The classes of this crate's coordination locks, ranked by the declared
/// acquisition order (lower rank first). Must agree with `LOCKS.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum GuardClass {
    /// One stripe of the lock table (`Shard::state`).
    Stripe = 1,
    /// The global waits-for graph + counters (`LockManager::meta`).
    Meta = 2,
}

#[cfg(debug_assertions)]
thread_local! {
    static HELD: RefCell<Vec<GuardClass>> = const { RefCell::new(Vec::new()) };
}

/// An order-checking token held alongside a lock guard. Acquire it *before*
/// the lock itself (so a would-deadlock acquisition panics even when the
/// schedule would have let it succeed); drop order relative to the guard is
/// irrelevant because release order never deadlocks.
#[derive(Debug)]
pub struct Held {
    #[cfg(debug_assertions)]
    class: GuardClass,
}

impl Held {
    /// Record the intent to acquire a guard of `class`, asserting every
    /// class already held by this thread ranks strictly below it.
    #[inline]
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    pub fn acquire(class: GuardClass) -> Held {
        #[cfg(debug_assertions)]
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(&top) = held.last() {
                debug_assert!(
                    top < class,
                    "lock-order violation: acquiring {class:?} while holding {held:?} \
                     (declared order in LOCKS.md: Stripe < Meta, never two stripes)"
                );
            }
            held.push(class);
        });
        Held {
            #[cfg(debug_assertions)]
            class,
        }
    }
}

#[cfg(debug_assertions)]
impl Drop for Held {
    fn drop(&mut self) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            let top = held.pop();
            debug_assert_eq!(
                top,
                Some(self.class),
                "lock-order tokens released out of acquisition order"
            );
        });
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;

    #[test]
    fn stripe_then_meta_is_legal() {
        let s = Held::acquire(GuardClass::Stripe);
        let m = Held::acquire(GuardClass::Meta);
        drop(m);
        drop(s);
    }

    #[test]
    fn sequential_reacquisition_is_legal() {
        for _ in 0..3 {
            let _s = Held::acquire(GuardClass::Stripe);
        }
        let _m = Held::acquire(GuardClass::Meta);
    }

    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn meta_then_stripe_panics() {
        let _m = Held::acquire(GuardClass::Meta);
        let _s = Held::acquire(GuardClass::Stripe);
    }

    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn two_stripes_panic() {
        let _a = Held::acquire(GuardClass::Stripe);
        let _b = Held::acquire(GuardClass::Stripe);
    }
}
