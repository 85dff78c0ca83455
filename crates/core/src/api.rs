//! The clerk's view of a queue manager.
//!
//! §2: "the client accesses queues outside of a transaction, while the
//! server accesses queues within transactions. In this sense, the queue is a
//! gateway between the non-transaction world of front-ends and the
//! transactional world of back-ends."
//!
//! [`QmApi`] is that gateway: each operation is atomic on the QM node (a
//! system transaction there) but the caller holds no transaction. The clerk
//! is written against this trait, so it runs identically against an
//! in-process repository ([`LocalQm`]) or a remote one over the simulated
//! network ([`crate::remote::RemoteQm`]).

use crate::error::CoreResult;
use rrq_obs::Obs;
use rrq_qm::element::{Eid, Element};
use rrq_qm::ops::{DequeueOptions, EnqueueOptions, QueueHandle};
use rrq_qm::registration::Registration;
use rrq_qm::repository::Repository;
use rrq_qm::route::partition_of_eid;
use rrq_qm::QmError;
use std::sync::Arc;

/// Non-transactional queue access for front-end processes.
pub trait QmApi: Send + Sync {
    /// `Register` (§4.3): idempotent; returns the stable last-operation
    /// record for recovering registrants.
    fn register(&self, queue: &str, registrant: &str, stable: bool) -> CoreResult<Registration>;

    /// `Deregister` (§4.3).
    fn deregister(&self, queue: &str, registrant: &str) -> CoreResult<()>;

    /// Atomic enqueue; when this returns, the element is stably stored
    /// ("When Send returns, the client knows that the request was stably
    /// stored", §5).
    fn enqueue(
        &self,
        queue: &str,
        registrant: &str,
        payload: &[u8],
        opts: EnqueueOptions,
    ) -> CoreResult<Eid>;

    /// Best-effort enqueue with no acknowledgement (§5's one-way-message
    /// Send optimization). Local implementations may simply acknowledge.
    fn enqueue_unacked(
        &self,
        queue: &str,
        registrant: &str,
        payload: &[u8],
        opts: EnqueueOptions,
    ) -> CoreResult<()>;

    /// Atomic dequeue (optionally blocking via `opts.block`).
    fn dequeue(&self, queue: &str, registrant: &str, opts: DequeueOptions) -> CoreResult<Element>;

    /// `Read` (§4.2): fetch by eid without modification; works for retained
    /// (already dequeued) elements too.
    fn read(&self, eid: Eid) -> CoreResult<Element>;

    /// `KillElement` (§7).
    fn kill(&self, eid: Eid) -> CoreResult<bool>;

    /// Live depth of a queue (diagnostics, batching decisions).
    fn depth(&self, queue: &str) -> CoreResult<usize>;

    /// The observation handle of the clerk's side of this transport: the
    /// repository's for a local one, the bus's for a remote one.
    fn obs(&self) -> &Obs;
}

/// In-process implementation over a [`Repository`].
pub struct LocalQm {
    repo: Arc<Repository>,
}

impl LocalQm {
    /// Wrap a repository.
    pub fn new(repo: Arc<Repository>) -> Self {
        LocalQm { repo }
    }

    /// The underlying repository.
    pub fn repo(&self) -> &Arc<Repository> {
        &self.repo
    }

    pub(crate) fn handle(queue: &str, registrant: &str) -> QueueHandle {
        QueueHandle {
            queue: queue.to_string(),
            registrant: registrant.to_string(),
        }
    }
}

impl QmApi for LocalQm {
    fn register(&self, queue: &str, registrant: &str, stable: bool) -> CoreResult<Registration> {
        let (_, reg) = self
            .repo
            .qm_for(queue)
            .register(queue, registrant, stable)?;
        Ok(reg)
    }

    fn deregister(&self, queue: &str, registrant: &str) -> CoreResult<()> {
        Ok(self
            .repo
            .qm_for(queue)
            .deregister(&Self::handle(queue, registrant))?)
    }

    fn enqueue(
        &self,
        queue: &str,
        registrant: &str,
        payload: &[u8],
        opts: EnqueueOptions,
    ) -> CoreResult<Eid> {
        let h = Self::handle(queue, registrant);
        Ok(self.repo.autocommit_on(queue, |t| {
            self.repo
                .qm_for(queue)
                .enqueue(t.id().raw(), &h, payload, opts)
        })?)
    }

    fn enqueue_unacked(
        &self,
        queue: &str,
        registrant: &str,
        payload: &[u8],
        opts: EnqueueOptions,
    ) -> CoreResult<()> {
        self.enqueue(queue, registrant, payload, opts).map(|_| ())
    }

    fn dequeue(&self, queue: &str, registrant: &str, opts: DequeueOptions) -> CoreResult<Element> {
        let h = Self::handle(queue, registrant);
        Ok(self.repo.autocommit_on(queue, |t| {
            self.repo.qm_for(queue).dequeue(t.id().raw(), &h, opts)
        })?)
    }

    /// Only the partition the eid's epoch band names can hold the element.
    fn read(&self, eid: Eid) -> CoreResult<Element> {
        match partition_of_eid(eid, self.repo.partitions()) {
            Some(p) => Ok(self.repo.qm_at(p).read(eid)?),
            None => Err(QmError::NoSuchElement(eid.raw()).into()),
        }
    }

    fn kill(&self, eid: Eid) -> CoreResult<bool> {
        match partition_of_eid(eid, self.repo.partitions()) {
            Some(p) => Ok(self.repo.qm_at(p).kill_element(eid)?),
            None => Ok(false),
        }
    }

    fn depth(&self, queue: &str) -> CoreResult<usize> {
        Ok(self.repo.qm_for(queue).depth(queue)?)
    }

    fn obs(&self) -> &Obs {
        self.repo.obs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrq_qm::QmError;

    #[test]
    fn local_qm_roundtrip() {
        let repo = Arc::new(Repository::create("api").unwrap());
        repo.create_queue_defaults("q").unwrap();
        let api = LocalQm::new(Arc::clone(&repo));
        api.register("q", "c", true).unwrap();
        let eid = api
            .enqueue("q", "c", b"x", EnqueueOptions::default())
            .unwrap();
        assert_eq!(api.depth("q").unwrap(), 1);
        assert_eq!(api.read(eid).unwrap().payload, b"x");
        let tagged = DequeueOptions {
            tag: Some(b"t".to_vec()),
            ..Default::default()
        };
        let e = api.dequeue("q", "c", tagged).unwrap();
        assert_eq!(e.eid, eid);
        assert_eq!(api.depth("q").unwrap(), 0);
        // A stable registration's tagged dequeue retains the element...
        assert_eq!(api.read(eid).unwrap().payload, b"x");
        // ...an untagged one does not.
        let gone = api
            .enqueue("q", "c", b"y", EnqueueOptions::default())
            .unwrap();
        api.dequeue("q", "c", DequeueOptions::default()).unwrap();
        assert!(matches!(
            api.read(gone),
            Err(crate::error::CoreError::Qm(QmError::NoSuchElement(_)))
        ));
        assert_eq!(api.read(eid).unwrap().payload, b"x");
        api.deregister("q", "c").unwrap();
        assert!(api.read(eid).is_err(), "deregistered: nothing retained");
    }

    #[test]
    fn local_qm_kill() {
        let repo = Arc::new(Repository::create("api2").unwrap());
        repo.create_queue_defaults("q").unwrap();
        let api = LocalQm::new(repo);
        api.register("q", "c", false).unwrap();
        let eid = api
            .enqueue("q", "c", b"x", EnqueueOptions::default())
            .unwrap();
        assert!(api.kill(eid).unwrap());
        assert!(matches!(
            api.dequeue("q", "c", DequeueOptions::default()),
            Err(crate::error::CoreError::Qm(QmError::Empty(_)))
        ));
    }

    /// Read and Kill go to the one partition the eid's band names: no other
    /// partition is asked, and a band no partition has finds nothing.
    #[test]
    fn eid_lookups_ask_only_the_partition_of_the_band() {
        use rrq_qm::repository::{RepoDisks, RepoOptions};
        let opts = RepoOptions {
            repo_partitions: 4,
            ..RepoOptions::default()
        };
        let (repo, _) =
            Repository::open_with("bands", RepoDisks::new(), opts, rrq_obs::Obs::default())
                .unwrap();
        let repo = Arc::new(repo);
        let api = LocalQm::new(Arc::clone(&repo));
        let reads = || -> Vec<u64> { (0..4).map(|p| repo.qm_at(p).stats().reads).collect() };
        for p in 0..4 {
            let q = (0..64)
                .map(|i| format!("bq{i}"))
                .find(|q| repo.partition_of(q) == p)
                .unwrap();
            repo.create_queue_defaults(&q).unwrap();
            api.register(&q, "c", false).unwrap();
            let eid = api
                .enqueue(&q, "c", q.as_bytes(), EnqueueOptions::default())
                .unwrap();
            assert_eq!(partition_of_eid(eid, 4), Some(p));
            let before = reads();
            assert_eq!(api.read(eid).unwrap().payload, q.as_bytes());
            let asked: Vec<usize> = (0..4).filter(|&i| reads()[i] != before[i]).collect();
            assert_eq!(asked, [p], "read of {eid}");
            assert!(api.kill(eid).unwrap());
            assert_eq!(repo.qm_at(p).stats().kills, 1);
            assert!(!api.kill(eid).unwrap());
        }
        let nowhere = Eid::compose(rrq_qm::route::epoch_band_base(5) + 1, 0);
        assert!(matches!(
            api.read(nowhere),
            Err(crate::error::CoreError::Qm(QmError::NoSuchElement(_)))
        ));
        assert!(!api.kill(nowhere).unwrap());
    }
}
