//! Clerk-side routing across repository partitions.
//!
//! A shared-nothing cluster exposes one [`QmApi`] endpoint per partition
//! (see [`crate::remote::QmRpcServer::spawn_partition`]). [`RoutedQm`]
//! recombines them into a single [`QmApi`]: queue-addressed operations go
//! straight to the owner computed by [`rrq_qm::route::partition_of`] — one
//! hop, no fan-out — and so do eid-addressed operations ([`QmApi::read`],
//! [`QmApi::kill`]): the eid's epoch band names the partition that minted it
//! ([`rrq_qm::route::partition_of_eid`]), and the element never leaves it.
//!
//! The clerk itself never changes: it already speaks [`QmApi`], so handing
//! it a `RoutedQm` is all it takes to run against a partitioned cluster.
//! A network partition between the clerk and one endpoint therefore severs
//! exactly the queues that endpoint owns, leaving traffic to every other
//! partition untouched — the failure isolation shared-nothing promises.

use crate::api::QmApi;
use crate::error::CoreResult;
use rrq_qm::element::{Eid, Element};
use rrq_qm::ops::{DequeueOptions, EnqueueOptions};
use rrq_qm::registration::Registration;
use rrq_qm::route::{partition_of, partition_of_eid};
use rrq_qm::QmError;
use std::sync::Arc;

/// One [`QmApi`] over many per-partition endpoints.
pub struct RoutedQm {
    parts: Vec<Arc<dyn QmApi>>,
}

impl RoutedQm {
    /// Combine per-partition endpoints; `parts[i]` must serve the queues
    /// partition `i` owns (same partition count as the repository).
    pub fn new(parts: Vec<Arc<dyn QmApi>>) -> Self {
        assert!(!parts.is_empty(), "at least one partition endpoint");
        RoutedQm { parts }
    }

    fn api_for(&self, queue: &str) -> &Arc<dyn QmApi> {
        self.obs().counter_inc("route.lookups");
        &self.parts[partition_of(queue, self.parts.len())]
    }
}

impl QmApi for RoutedQm {
    fn register(&self, queue: &str, registrant: &str, stable: bool) -> CoreResult<Registration> {
        self.api_for(queue).register(queue, registrant, stable)
    }

    fn deregister(&self, queue: &str, registrant: &str) -> CoreResult<()> {
        self.api_for(queue).deregister(queue, registrant)
    }

    fn enqueue(
        &self,
        queue: &str,
        registrant: &str,
        payload: &[u8],
        opts: EnqueueOptions,
    ) -> CoreResult<Eid> {
        self.api_for(queue)
            .enqueue(queue, registrant, payload, opts)
    }

    fn enqueue_unacked(
        &self,
        queue: &str,
        registrant: &str,
        payload: &[u8],
        opts: EnqueueOptions,
    ) -> CoreResult<()> {
        self.api_for(queue)
            .enqueue_unacked(queue, registrant, payload, opts)
    }

    fn dequeue(&self, queue: &str, registrant: &str, opts: DequeueOptions) -> CoreResult<Element> {
        self.api_for(queue).dequeue(queue, registrant, opts)
    }

    fn read(&self, eid: Eid) -> CoreResult<Element> {
        match partition_of_eid(eid, self.parts.len()) {
            Some(p) => self.parts[p].read(eid),
            None => Err(QmError::NoSuchElement(eid.raw()).into()),
        }
    }

    fn kill(&self, eid: Eid) -> CoreResult<bool> {
        match partition_of_eid(eid, self.parts.len()) {
            Some(p) => self.parts[p].kill(eid),
            None => Ok(false),
        }
    }

    fn depth(&self, queue: &str) -> CoreResult<usize> {
        self.api_for(queue).depth(queue)
    }

    /// The first endpoint's: every endpoint of one clerk shares its side.
    fn obs(&self) -> &rrq_obs::Obs {
        self.parts[0].obs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::LocalQm;
    use rrq_qm::repository::{RepoDisks, RepoOptions, Repository};

    #[test]
    fn routed_local_endpoints_roundtrip() {
        let (repo, _) = Repository::open_with(
            "routed",
            RepoDisks::new(),
            RepoOptions {
                repo_partitions: 4,
                ..RepoOptions::default()
            },
            rrq_obs::Obs::default(),
        )
        .unwrap();
        let repo = Arc::new(repo);
        // One LocalQm per partition is overkill (LocalQm already routes),
        // but it exercises the RoutedQm paths with real partition counts.
        let parts: Vec<Arc<dyn QmApi>> = (0..4)
            .map(|_| Arc::new(LocalQm::new(Arc::clone(&repo))) as Arc<dyn QmApi>)
            .collect();
        let routed = RoutedQm::new(parts);
        for i in 0..8 {
            let q = format!("rq{i}");
            repo.create_queue_defaults(&q).unwrap();
            routed.register(&q, "c", false).unwrap();
            let eid = routed
                .enqueue(&q, "c", q.as_bytes(), EnqueueOptions::default())
                .unwrap();
            assert_eq!(routed.depth(&q).unwrap(), 1);
            assert_eq!(routed.read(eid).unwrap().payload, q.as_bytes());
            let e = routed.dequeue(&q, "c", DequeueOptions::default()).unwrap();
            assert_eq!(e.eid, eid);
        }
    }

    #[test]
    fn routed_kill_probes_partitions() {
        let (repo, _) = Repository::open_with(
            "routed2",
            RepoDisks::new(),
            RepoOptions {
                repo_partitions: 4,
                ..RepoOptions::default()
            },
            rrq_obs::Obs::default(),
        )
        .unwrap();
        let repo = Arc::new(repo);
        let parts: Vec<Arc<dyn QmApi>> = (0..4)
            .map(|_| Arc::new(LocalQm::new(Arc::clone(&repo))) as Arc<dyn QmApi>)
            .collect();
        let routed = RoutedQm::new(parts);
        // A queue on a non-zero partition: the kill must go there.
        let q = (0..64)
            .map(|i| format!("kq{i}"))
            .find(|q| repo.partition_of(q) != 0)
            .unwrap();
        repo.create_queue_defaults(&q).unwrap();
        routed.register(&q, "c", false).unwrap();
        let eid = routed
            .enqueue(&q, "c", b"bye", EnqueueOptions::default())
            .unwrap();
        assert!(routed.kill(eid).unwrap());
        assert_eq!(routed.depth(&q).unwrap(), 0);
    }

    /// Read and Kill go to the one partition the eid's band names: no other
    /// partition is asked, and a band no partition has finds nothing.
    #[test]
    fn eid_lookups_ask_only_the_partition_of_the_band() {
        let (repo, _) = Repository::open_with(
            "routed3",
            RepoDisks::new(),
            RepoOptions {
                repo_partitions: 4,
                ..RepoOptions::default()
            },
            rrq_obs::Obs::default(),
        )
        .unwrap();
        let repo = Arc::new(repo);
        let local = LocalQm::new(Arc::clone(&repo));
        let routed = RoutedQm::new(
            (0..4)
                .map(|_| Arc::new(LocalQm::new(Arc::clone(&repo))) as Arc<dyn QmApi>)
                .collect(),
        );
        let reads = || -> Vec<u64> { (0..4).map(|p| repo.qm_at(p).stats().reads).collect() };
        for p in 0..4 {
            let q = (0..64)
                .map(|i| format!("bq{i}"))
                .find(|q| repo.partition_of(q) == p)
                .unwrap();
            repo.create_queue_defaults(&q).unwrap();
            local.register(&q, "c", false).unwrap();
            let eid = local
                .enqueue(&q, "c", q.as_bytes(), EnqueueOptions::default())
                .unwrap();
            assert_eq!(partition_of_eid(eid, 4), Some(p));
            for api in [&local as &dyn QmApi, &routed] {
                let before = reads();
                assert_eq!(api.read(eid).unwrap().payload, q.as_bytes());
                let asked: Vec<usize> = (0..4).filter(|&i| reads()[i] != before[i]).collect();
                assert_eq!(asked, [p], "read of {eid}");
            }
            assert!(routed.kill(eid).unwrap());
            assert_eq!(repo.qm_at(p).stats().kills, 1);
            assert!(!local.kill(eid).unwrap());
        }
        let nowhere = Eid::compose(rrq_qm::route::epoch_band_base(5) + 1, 0);
        for api in [&local as &dyn QmApi, &routed] {
            assert!(matches!(
                api.read(nowhere),
                Err(crate::error::CoreError::Qm(QmError::NoSuchElement(_)))
            ));
            assert!(!api.kill(nowhere).unwrap());
        }
    }
}
