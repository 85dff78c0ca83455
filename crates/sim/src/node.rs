//! Whole-node crash simulation for the server side.
//!
//! A node crash kills every server thread, loses all unsynced storage
//! (volatile queue contents included), and recovery reopens the repository
//! from checkpoint + log. Requests that were mid-transaction reappear in
//! their queues; committed work survives — §5's server-failure argument,
//! executable.

use rrq_core::error::CoreResult;
use rrq_core::server::{Handler, Server, ServerConfig};
use rrq_qm::repository::{RepoDisks, RepoOptions, Repository};
use rrq_qm::QmError;
use rrq_storage::disk::TornWriteMode;
use rrq_storage::recovery::RecoveryReport;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Builds the node's server set against a freshly recovered repository.
pub type ServerFactory =
    Arc<dyn Fn(&Arc<Repository>) -> CoreResult<Vec<Arc<Server>>> + Send + Sync>;

/// A crash-restartable server node.
pub struct ServerNodeSim {
    disks: RepoDisks,
    opts: RepoOptions,
    name: String,
    server_factory: ServerFactory,
    repo: Option<Arc<Repository>>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    crashes: u64,
    /// Queues to create on first boot.
    initial_queues: Vec<String>,
}

impl ServerNodeSim {
    /// Define a node serving `queue` with `n_servers` threads of one
    /// handler; `queues` are created on first boot.
    pub fn new(
        name: impl Into<String>,
        queue: impl Into<String>,
        n_servers: usize,
        queues: Vec<String>,
        handler_factory: Arc<dyn Fn() -> Handler + Send + Sync>,
    ) -> Self {
        let name = name.into();
        let queue = queue.into();
        let node_name = name.clone();
        let factory: ServerFactory = Arc::new(move |repo| {
            let mut servers = Vec::with_capacity(n_servers);
            for i in 0..n_servers {
                let cfg = ServerConfig::new(format!("{node_name}-s{i}"), queue.clone());
                servers.push(Server::new(Arc::clone(repo), cfg, handler_factory())?);
            }
            Ok(servers)
        });
        Self::with_factory(name, queues, factory)
    }

    /// Define a node whose server set is built by `server_factory` on every
    /// boot — pipelines, reapers, mixed pools.
    pub fn with_factory(
        name: impl Into<String>,
        queues: Vec<String>,
        server_factory: ServerFactory,
    ) -> Self {
        ServerNodeSim {
            disks: RepoDisks::new(),
            opts: RepoOptions::default(),
            name: name.into(),
            server_factory,
            repo: None,
            stop: Arc::new(AtomicBool::new(false)),
            threads: Vec::new(),
            crashes: 0,
            initial_queues: queues,
        }
    }

    /// Repository tuning used on every boot (partitioned WAL in particular).
    /// Call before the first [`ServerNodeSim::start`]; the options persist
    /// across crashes and restarts.
    pub fn set_repo_options(&mut self, opts: RepoOptions) {
        self.opts = opts;
    }

    /// Boot (or re-boot after [`ServerNodeSim::crash`]) the node. Returns
    /// the storage recovery report.
    pub fn start(&mut self) -> CoreResult<RecoveryReport> {
        assert!(self.repo.is_none(), "node already running");
        let (repo, report) =
            Repository::open_with(self.name.clone(), self.disks.clone(), self.opts.clone())?;
        let repo = Arc::new(repo);
        // What recovery rebuilt must pass the queue managers' self-checks
        // before a server touches it: this is the one moment after a crash
        // when nothing is in flight.
        let diverged = crate::oracle::store_self_checks(&repo);
        if !diverged.is_empty() {
            return Err(QmError::Invalid(diverged.join("; ")).into());
        }
        for q in &self.initial_queues {
            repo.create_queue_defaults(q)?;
        }
        self.stop = Arc::new(AtomicBool::new(false));
        for server in (self.server_factory)(&repo)? {
            self.threads.push(server.spawn(Arc::clone(&self.stop)));
        }
        self.repo = Some(repo);
        Ok(report)
    }

    /// The running repository (panics when the node is down).
    pub fn repo(&self) -> Arc<Repository> {
        Arc::clone(self.repo.as_ref().expect("node is down"))
    }

    /// Is the node up?
    pub fn is_up(&self) -> bool {
        self.repo.is_some()
    }

    /// Crash the node: threads die, unsynced bytes vanish.
    pub fn crash(&mut self) {
        self.crash_with(None);
    }

    /// Crash the node; with `Some(mode)` the WAL keeps a torn tail that
    /// recovery must reject (see `RepoDisks::crash_with`).
    pub fn crash_with(&mut self, torn: Option<TornWriteMode>) {
        self.halt();
        self.disks.crash_with(torn);
        self.crashes += 1;
    }

    /// Partition-scoped crash: only repository partition `part`'s devices
    /// (its log + checkpoint) lose their volatile bytes — siblings
    /// and the shared coordinator log keep theirs. Server threads still die
    /// (they share the process), so [`ServerNodeSim::start`] reboots the
    /// whole cluster; sibling partitions recover from intact logs while the
    /// crashed one must resolve any prepared cross-partition transactions.
    pub fn crash_partition(&mut self, part: usize, torn: Option<TornWriteMode>) {
        self.halt();
        self.disks.crash_partition(part, torn);
        self.crashes += 1;
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Release);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        self.repo = None;
    }

    /// Graceful stop (no storage loss) — used at test teardown.
    pub fn shutdown(&mut self) {
        self.halt();
    }

    /// Number of crashes injected so far.
    pub fn crash_count(&self) -> u64 {
        self.crashes
    }
}

impl Drop for ServerNodeSim {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrq_core::api::{LocalQm, QmApi};
    use rrq_core::request::{Reply, Request};
    use rrq_core::rid::Rid;
    use rrq_core::server::HandlerOutcome;
    use rrq_qm::ops::{DequeueOptions, EnqueueOptions};
    use rrq_storage::codec::{Decode, Encode};
    use std::time::Duration;

    #[test]
    fn node_crash_preserves_queued_requests() {
        let factory: Arc<dyn Fn() -> Handler + Send + Sync> = Arc::new(|| {
            Arc::new(|_ctx, req: &Request| {
                Ok(HandlerOutcome::Reply(
                    format!("did {}", req.rid).into_bytes(),
                ))
            })
        });
        let mut node = ServerNodeSim::new(
            "node1",
            "req",
            0, // no servers yet: requests pile up
            vec!["req".into(), "reply.c".into()],
            factory,
        );
        node.start().unwrap();
        {
            let api = LocalQm::new(node.repo());
            api.register("req", "c", false).unwrap();
            for i in 0..5u64 {
                let req = Request::new(Rid::new("c", i + 1), "reply.c", "op", vec![]);
                api.enqueue("req", "c", &req.encode_to_vec(), EnqueueOptions::default())
                    .unwrap();
            }
            assert_eq!(api.depth("req").unwrap(), 5);
        }
        node.crash();
        assert!(!node.is_up());
        node.start().unwrap();
        let api = LocalQm::new(node.repo());
        assert_eq!(api.depth("req").unwrap(), 5, "requests survived the crash");
    }

    #[test]
    fn node_crash_then_restart_serves_requests() {
        let factory: Arc<dyn Fn() -> Handler + Send + Sync> = Arc::new(|| {
            Arc::new(|_ctx, req: &Request| {
                Ok(HandlerOutcome::Reply(
                    format!("did {}", req.rid).into_bytes(),
                ))
            })
        });
        let mut node = ServerNodeSim::new(
            "node2",
            "req",
            2,
            vec!["req".into(), "reply.c".into()],
            factory,
        );
        node.start().unwrap();
        {
            let api = LocalQm::new(node.repo());
            api.register("req", "c", false).unwrap();
            let req = Request::new(Rid::new("c", 1), "reply.c", "op", vec![]);
            api.enqueue("req", "c", &req.encode_to_vec(), EnqueueOptions::default())
                .unwrap();
        }
        // Crash almost immediately; the request either committed (reply in
        // reply queue) or returns to the request queue on recovery.
        node.crash();
        node.start().unwrap();
        let api = LocalQm::new(node.repo());
        api.register("reply.c", "c", false).unwrap();
        let elem = api
            .dequeue(
                "reply.c",
                "c",
                DequeueOptions {
                    block: Some(Duration::from_secs(10)),
                    ..Default::default()
                },
            )
            .unwrap();
        let reply = Reply::decode_all(&elem.payload).unwrap();
        assert_eq!(reply.rid, Rid::new("c", 1));
        assert_eq!(node.crash_count(), 1);
    }
}
