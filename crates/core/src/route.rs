//! Clerk-side routing across repository partitions.
//!
//! A shared-nothing cluster exposes one [`QmApi`] endpoint per partition
//! (see [`crate::remote::QmRpcServer::spawn_partition`]). [`RoutedQm`]
//! recombines them into a single [`QmApi`]: queue-addressed operations go
//! straight to the owner computed by [`rrq_qm::route::partition_of`] — one
//! hop, no fan-out — and eid-addressed operations ([`QmApi::read`],
//! [`QmApi::kill`]) probe partitions in order, which is safe because
//! per-partition epoch bands make eids cluster-unique.
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
use rrq_qm::route::partition_of;
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
        // Probe owners in order; a partitioned/crashed endpoint's error is
        // kept only if no later partition knows the element.
        let mut last = None;
        for api in &self.parts {
            match api.read(eid) {
                Ok(e) => return Ok(e),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| QmError::NoSuchElement(eid.raw()).into()))
    }

    fn kill(&self, eid: Eid) -> CoreResult<bool> {
        let mut last = None;
        for api in &self.parts {
            match api.kill(eid) {
                Ok(true) => return Ok(true),
                Ok(false) => {}
                Err(e) => last = Some(e),
            }
        }
        match last {
            Some(e) => Err(e),
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
        // Find a queue on a non-zero partition so the probe must walk.
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
}
