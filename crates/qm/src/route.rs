//! Queue-name → repository-partition placement.
//!
//! Gray's "Queues Are Databases" argument (PAPERS.md) runs through here: a
//! cluster of shared-nothing repository partitions each owns a disjoint
//! subset of queues, and ownership is a pure function of the queue *name* —
//! no directory service, no routing table to keep consistent, any clerk or
//! server computes the same owner from the name alone. FNV-1a keeps the
//! mapping stable across processes and restarts (`DefaultHasher` is
//! documented as unstable across releases, which would silently re-home
//! every queue on a toolchain bump).

/// Upper bound on repository partitions per cluster. Each partition owns a
/// full WAL group, so this bounds total device count in simulations.
pub const MAX_REPO_PARTITIONS: usize = 8;

/// Width of each partition's private epoch band, in bits.
///
/// Element ids compose as `(epoch << 40) | counter` and every repository
/// open bumps the epoch, so partition `p` seeds its queue managers at epoch
/// `(p << EPOCH_BAND_BITS) + restarts` — the single definition of the band
/// arithmetic that `Repository::open_with` uses. A band of 2^20 epochs means ids from different partitions
/// can only collide after a million restarts of one partition; the
/// `partition_bands_never_collide` proptest pins the disjointness for every
/// `repo_partitions <= MAX_REPO_PARTITIONS`.
pub const EPOCH_BAND_BITS: u64 = 20;

/// First epoch of partition `p`'s band (the `Repository::open_with` seed).
pub fn epoch_band_base(p: usize) -> u64 {
    (p as u64) << EPOCH_BAND_BITS
}

/// 64-bit FNV-1a over a queue name.
fn fnv1a(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The partition that owns `queue` in a cluster of `partitions` repositories.
///
/// `partitions <= 1` always routes to partition 0 (the single-repository
/// baseline short-circuits before hashing, so its cost is a compare).
pub fn partition_of(queue: &str, partitions: usize) -> usize {
    if partitions <= 1 {
        return 0;
    }
    (fnv1a(queue) % partitions as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_partition_owns_everything() {
        for q in ["req", "reply.c1", "", "x"] {
            assert_eq!(partition_of(q, 0), 0);
            assert_eq!(partition_of(q, 1), 0);
        }
    }

    #[test]
    fn placement_is_stable_and_in_range() {
        for parts in 2..=MAX_REPO_PARTITIONS {
            for i in 0..64 {
                let q = format!("queue.{i}");
                let p = partition_of(&q, parts);
                assert!(p < parts);
                assert_eq!(p, partition_of(&q, parts), "must be deterministic");
            }
        }
    }

    #[test]
    fn hash_spreads_queue_names() {
        // Not a statistical test — just proof the map isn't degenerate.
        let hits: std::collections::HashSet<usize> =
            (0..32).map(|i| partition_of(&format!("q{i}"), 4)).collect();
        assert!(hits.len() >= 3, "32 names landed on {hits:?}");
    }

    #[test]
    fn fnv1a_reference_vector() {
        // FNV-1a("a") per the published reference implementation.
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Eids minted by different partitions never collide: each partition's
        /// epoch band is disjoint for any restart count below the band width,
        /// for every legal cluster size.
        #[test]
        fn partition_bands_never_collide(
            parts in 2usize..MAX_REPO_PARTITIONS + 1,
            pa in 0usize..MAX_REPO_PARTITIONS,
            pb in 0usize..MAX_REPO_PARTITIONS,
            restarts_a in 0u64..(1 << EPOCH_BAND_BITS),
            restarts_b in 0u64..(1 << EPOCH_BAND_BITS),
            counter in 0u64..(1 << 40),
        ) {
            let (pa, pb) = (pa % parts, pb % parts);
            let ea = epoch_band_base(pa) + restarts_a;
            let eb = epoch_band_base(pb) + restarts_b;
            // Epochs stay inside their own band...
            prop_assert_eq!(ea >> EPOCH_BAND_BITS, pa as u64);
            prop_assert_eq!(eb >> EPOCH_BAND_BITS, pb as u64);
            // ...so eids from different partitions can never be equal.
            if pa != pb {
                prop_assert!(
                    crate::element::Eid::compose(ea, counter)
                        != crate::element::Eid::compose(eb, counter),
                    "bands {pa}/{pb} collided at epochs {ea}/{eb}"
                );
            }
        }
    }
}
