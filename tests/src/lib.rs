//! Shared fixtures for the cross-crate integration tests.

use rrq_core::api::{LocalQm, QmApi};
use rrq_core::clerk::{Clerk, ClerkConfig, SendMode};
use rrq_core::remote::{QmRpcServer, RemoteQm};
use rrq_core::server::{Handler, HandlerOutcome};
use rrq_net::rpc::ServerGuard;
use rrq_net::NetworkBus;
use rrq_qm::repository::{RepoDisks, RepoOptions, Repository};
use std::sync::Arc;
use std::time::Duration;

/// A repository with the standard request/reply queues for `client_id`.
pub fn repo_with_queues(name: &str, client_id: &str) -> Arc<Repository> {
    let repo = Arc::new(Repository::create(name).unwrap());
    repo.create_queue_defaults("req").unwrap();
    repo.create_queue_defaults(&format!("reply.{client_id}"))
        .unwrap();
    repo
}

/// A clerk over a local QM with a short receive window for tests.
pub fn local_clerk(repo: &Arc<Repository>, client_id: &str) -> Clerk {
    test_clerk(Arc::new(LocalQm::new(Arc::clone(repo))), client_id)
}

fn test_clerk(api: Arc<dyn QmApi>, client_id: &str) -> Clerk {
    let mut cfg = ClerkConfig::new(client_id, "req");
    cfg.receive_block = Duration::from_secs(10);
    cfg.send_mode = SendMode::Acked;
    Clerk::new(api, cfg)
}

/// How a clerk reaches its queue manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// In process, through [`LocalQm`].
    Local,
    /// A [`RemoteQm`] on one RPC endpoint that serves the whole repository.
    Remote,
    /// A [`RemoteQm`] over one partition-scoped endpoint per partition of a
    /// four-partition repository.
    RemotePartitioned,
}

impl Transport {
    /// Every transport, for tests that must hold on each.
    pub const ALL: [Transport; 3] = [
        Transport::Local,
        Transport::Remote,
        Transport::RemotePartitioned,
    ];
}

/// A repository with the standard queues for one client, served over one
/// [`Transport`]; it keeps the RPC servers running while it lives.
pub struct Served {
    /// The repository behind the transport.
    pub repo: Arc<Repository>,
    transport: Transport,
    bus: NetworkBus,
    _servers: Vec<ServerGuard>,
}

impl Served {
    /// Create `name`'s repository and serve it over `transport`.
    pub fn new(name: &str, client_id: &str, transport: Transport) -> Self {
        let partitions = match transport {
            Transport::RemotePartitioned => 4,
            Transport::Local | Transport::Remote => 1,
        };
        let opts = RepoOptions {
            repo_partitions: partitions,
            ..RepoOptions::default()
        };
        let (repo, _) =
            Repository::open_with(name, RepoDisks::new(), opts, rrq_obs::Obs::default()).unwrap();
        let repo = Arc::new(repo);
        repo.create_queue_defaults("req").unwrap();
        repo.create_queue_defaults(&format!("reply.{client_id}"))
            .unwrap();
        let bus = NetworkBus::new(1);
        let _servers = match transport {
            Transport::Local => Vec::new(),
            Transport::Remote => vec![QmRpcServer::spawn(&bus, "qm", Arc::clone(&repo))],
            Transport::RemotePartitioned => (0..partitions)
                .map(|p| {
                    QmRpcServer::spawn_partition(&bus, &format!("qm{p}"), Arc::clone(&repo), p)
                })
                .collect(),
        };
        Served {
            repo,
            transport,
            bus,
            _servers,
        }
    }

    /// A fresh clerk over the transport, as [`local_clerk`] configures one.
    /// Each call registers its client endpoints anew on the bus, as a
    /// restarted client process would.
    pub fn clerk(&self, client_id: &str) -> Clerk {
        let api: Arc<dyn QmApi> = match self.transport {
            Transport::Local => Arc::new(LocalQm::new(Arc::clone(&self.repo))),
            Transport::Remote => Arc::new(RemoteQm::new(&self.bus, client_id, "qm")),
            Transport::RemotePartitioned => {
                let links: Vec<(String, String)> = (0..self.repo.partitions())
                    .map(|p| (format!("{client_id}.p{p}"), format!("qm{p}")))
                    .collect();
                Arc::new(RemoteQm::partitioned(&self.bus, &links))
            }
        };
        test_clerk(api, client_id)
    }
}

/// An echo handler: replies with the request body.
pub fn echo_handler() -> Handler {
    Arc::new(|_ctx, req| Ok(HandlerOutcome::Reply(req.body.clone())))
}
