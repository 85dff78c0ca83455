//! The clerk↔QM wire protocol over the simulated network.
//!
//! §5: "If the QM is remote from the client, then we assume that the clerk
//! invokes QM operations using remote procedure call." [`QmRpcServer`]
//! exposes a [`Repository`] on a bus endpoint; [`RemoteQm`] implements
//! [`QmApi`] by encoding each operation into a request envelope.
//!
//! Two transport choices from the paper are modelled:
//!
//! * `enqueue` is an acknowledged RPC — "when Send returns, the client knows
//!   that the request was stably stored";
//! * `enqueue_unacked` is a one-way message — the §5 optimization that
//!   "saves a message from the QM to the client in the common case that the
//!   reply arrives within the client's timeout period". A lost unacked
//!   enqueue is discovered by the client's Receive timing out, followed by
//!   connect-time resynchronization.
//!
//! Blocking dequeues are client-driven: the server answers "empty"
//! immediately and the remote client polls until its deadline, so one slow
//! client never stalls the QM's RPC loop.

use crate::api::QmApi;
use crate::error::{CoreError, CoreResult};
use rrq_net::rpc::{spawn_server, RpcClient, ServerGuard};
use rrq_net::NetworkBus;
use rrq_qm::element::{Eid, Element};
use rrq_qm::ops::{DequeueOptions, EnqueueOptions, QueueHandle};
use rrq_qm::registration::Registration;
use rrq_qm::repository::Repository;
use rrq_qm::route::partition_of_eid;
use rrq_qm::QmError;
use rrq_storage::codec::{put, Decode, Encode, Reader};
use std::sync::Arc;
use std::time::{Duration, Instant};

const OP_REGISTER: u8 = 1;
const OP_DEREGISTER: u8 = 2;
const OP_ENQUEUE: u8 = 3;
const OP_DEQUEUE: u8 = 4;
const OP_READ: u8 = 5;
const OP_KILL: u8 = 6;
const OP_DEPTH: u8 = 7;

const ST_OK: u8 = 0;
const ST_ERR: u8 = 1;
const ST_EMPTY: u8 = 2;

fn encode_enqueue_opts(buf: &mut Vec<u8>, opts: &EnqueueOptions) {
    put::u8(buf, opts.priority);
    put::u32(buf, opts.attrs.len() as u32);
    for (n, v) in &opts.attrs {
        put::string(buf, n);
        put::string(buf, v);
    }
    opts.tag.encode(buf);
}

fn decode_enqueue_opts(r: &mut Reader<'_>) -> CoreResult<EnqueueOptions> {
    let m = |e: rrq_storage::StorageError| CoreError::Malformed(e.to_string());
    let priority = r.u8().map_err(m)?;
    let n = r.u32().map_err(m)? as usize;
    let mut attrs = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        attrs.push((r.string().map_err(m)?, r.string().map_err(m)?));
    }
    let tag = Option::<Vec<u8>>::decode(r).map_err(m)?;
    Ok(EnqueueOptions {
        priority,
        attrs,
        tag,
    })
}

/// Serve a repository's queue operations on `endpoint_name`.
pub struct QmRpcServer;

impl QmRpcServer {
    /// Spawn the serving thread; the guard stops it on drop. Serves every
    /// partition of the repository (operations route internally).
    pub fn spawn(bus: &NetworkBus, endpoint_name: &str, repo: Arc<Repository>) -> ServerGuard {
        Self::spawn_scoped(bus, endpoint_name, repo, None)
    }

    /// Spawn a server for *one* repository partition: operations on queues
    /// the partition doesn't own are refused, and an eid is looked up only
    /// when its epoch band names this partition. With one endpoint per
    /// partition, a network partition between a clerk and endpoint *i*
    /// severs exactly the queues partition *i* owns — the directional fault
    /// the explorer injects.
    pub fn spawn_partition(
        bus: &NetworkBus,
        endpoint_name: &str,
        repo: Arc<Repository>,
        part: usize,
    ) -> ServerGuard {
        Self::spawn_scoped(bus, endpoint_name, repo, Some(part))
    }

    fn spawn_scoped(
        bus: &NetworkBus,
        endpoint_name: &str,
        repo: Arc<Repository>,
        scope: Option<usize>,
    ) -> ServerGuard {
        spawn_server(bus, endpoint_name, move |env| {
            handle(&repo, scope, &env.payload).unwrap_or_else(|e| {
                let mut out = vec![ST_ERR];
                put::string(&mut out, &e.to_string());
                out
            })
        })
    }
}

/// Refuse operations a partition-scoped endpoint doesn't own.
fn check_scope(repo: &Repository, scope: Option<usize>, queue: &str) -> CoreResult<()> {
    if let Some(p) = scope {
        let owner = repo.partition_of(queue);
        if owner != p {
            return Err(CoreError::Protocol(format!(
                "queue {queue} owned by partition {owner}, not {p}"
            )));
        }
    }
    Ok(())
}

fn ok_payload(body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = vec![ST_OK];
    body(&mut out);
    out
}

/// The partition holding `eid` (its epoch band's), if this server serves it.
fn eid_home(repo: &Repository, scope: Option<usize>, eid: Eid) -> Option<usize> {
    partition_of_eid(eid, repo.partitions()).filter(|p| scope.is_none_or(|s| s == *p))
}

fn handle(repo: &Repository, scope: Option<usize>, raw: &[u8]) -> CoreResult<Vec<u8>> {
    if raw.is_empty() {
        return Err(CoreError::Malformed("empty rpc payload".into()));
    }
    let m = |e: rrq_storage::StorageError| CoreError::Malformed(e.to_string());
    let mut r = Reader::new(&raw[1..]);
    match raw[0] {
        OP_REGISTER => {
            let queue = r.string().map_err(m)?;
            let registrant = r.string().map_err(m)?;
            let stable = r.bool().map_err(m)?;
            check_scope(repo, scope, &queue)?;
            let (_, reg) = repo.qm_for(&queue).register(&queue, &registrant, stable)?;
            Ok(ok_payload(|out| reg.encode(out)))
        }
        OP_DEREGISTER => {
            let queue = r.string().map_err(m)?;
            let registrant = r.string().map_err(m)?;
            check_scope(repo, scope, &queue)?;
            repo.qm_for(&queue)
                .deregister(&QueueHandle { queue, registrant })?;
            Ok(ok_payload(|_| {}))
        }
        OP_ENQUEUE => {
            let queue = r.string().map_err(m)?;
            let registrant = r.string().map_err(m)?;
            let payload = r.bytes().map_err(m)?;
            let opts = decode_enqueue_opts(&mut r)?;
            check_scope(repo, scope, &queue)?;
            let h = QueueHandle { queue, registrant };
            let eid = repo.autocommit_on(&h.queue, |t| {
                repo.qm_for(&h.queue)
                    .enqueue(t.id().raw(), &h, &payload, opts)
            })?;
            Ok(ok_payload(|out| put::u64(out, eid.raw())))
        }
        OP_DEQUEUE => {
            let queue = r.string().map_err(m)?;
            let registrant = r.string().map_err(m)?;
            let tag = Option::<Vec<u8>>::decode(&mut r).map_err(m)?;
            let error_queue = match r.u8().map_err(m)? {
                0 => None,
                _ => Some(r.string().map_err(m)?),
            };
            check_scope(repo, scope, &queue)?;
            let h = QueueHandle { queue, registrant };
            let res = repo.autocommit_on(&h.queue, |t| {
                repo.qm_for(&h.queue).dequeue(
                    t.id().raw(),
                    &h,
                    DequeueOptions {
                        tag,
                        predicate: None,
                        block: None, // remote blocking is client-side polling
                        error_queue,
                    },
                )
            });
            match res {
                Ok(elem) => Ok(ok_payload(|out| elem.encode(out))),
                Err(QmError::Empty(_)) => Ok(vec![ST_EMPTY]),
                Err(e) => Err(e.into()),
            }
        }
        OP_READ => {
            let eid = Eid(r.u64().map_err(m)?);
            let Some(p) = eid_home(repo, scope, eid) else {
                return Err(QmError::NoSuchElement(eid.raw()).into());
            };
            let elem = repo.qm_at(p).read(eid)?;
            Ok(ok_payload(|out| elem.encode(out)))
        }
        OP_KILL => {
            let eid = Eid(r.u64().map_err(m)?);
            let killed = match eid_home(repo, scope, eid) {
                Some(p) => repo.qm_at(p).kill_element(eid)?,
                None => false,
            };
            Ok(ok_payload(|out| put::bool(out, killed)))
        }
        OP_DEPTH => {
            let queue = r.string().map_err(m)?;
            check_scope(repo, scope, &queue)?;
            let d = repo.qm_for(&queue).depth(&queue)?;
            Ok(ok_payload(|out| put::u64(out, d as u64)))
        }
        op => Err(CoreError::Malformed(format!("unknown opcode {op}"))),
    }
}

/// [`QmApi`] over the network.
pub struct RemoteQm {
    client: RpcClient,
    server: String,
    rpc_timeout: Duration,
    poll_interval: Duration,
}

impl RemoteQm {
    /// Build a remote handle speaking from `client_endpoint` to
    /// `server_endpoint`.
    pub fn new(bus: &NetworkBus, client_endpoint: &str, server_endpoint: &str) -> Self {
        RemoteQm {
            client: RpcClient::new(bus, client_endpoint),
            server: server_endpoint.to_string(),
            rpc_timeout: Duration::from_secs(2),
            poll_interval: Duration::from_millis(20),
        }
    }

    /// Change the per-RPC timeout.
    pub fn set_rpc_timeout(&mut self, t: Duration) {
        self.rpc_timeout = t;
    }

    /// (rpc calls, one-way sends) counters — message-cost accounting for the
    /// §5 Send-mode experiment.
    pub fn message_counts(&self) -> (u64, u64) {
        self.client.counts()
    }

    fn call(&self, payload: Vec<u8>) -> CoreResult<Vec<u8>> {
        let resp = self.client.call(&self.server, payload, self.rpc_timeout)?;
        parse_response(resp)
    }
}

fn parse_response(resp: Vec<u8>) -> CoreResult<Vec<u8>> {
    let m = |e: rrq_storage::StorageError| CoreError::Malformed(e.to_string());
    match resp.first() {
        Some(&ST_OK) => Ok(resp[1..].to_vec()),
        Some(&ST_EMPTY) => Err(CoreError::Qm(QmError::Empty("remote".into()))),
        Some(&ST_ERR) => {
            let mut r = Reader::new(&resp[1..]);
            Err(CoreError::Protocol(r.string().map_err(m)?))
        }
        _ => Err(CoreError::Malformed("empty rpc response".into())),
    }
}

impl QmApi for RemoteQm {
    fn register(&self, queue: &str, registrant: &str, stable: bool) -> CoreResult<Registration> {
        let mut buf = vec![OP_REGISTER];
        put::string(&mut buf, queue);
        put::string(&mut buf, registrant);
        put::bool(&mut buf, stable);
        let resp = self.call(buf)?;
        Registration::decode_all(&resp).map_err(|e| CoreError::Malformed(e.to_string()))
    }

    fn deregister(&self, queue: &str, registrant: &str) -> CoreResult<()> {
        let mut buf = vec![OP_DEREGISTER];
        put::string(&mut buf, queue);
        put::string(&mut buf, registrant);
        self.call(buf).map(|_| ())
    }

    fn enqueue(
        &self,
        queue: &str,
        registrant: &str,
        payload: &[u8],
        opts: EnqueueOptions,
    ) -> CoreResult<Eid> {
        let mut buf = vec![OP_ENQUEUE];
        put::string(&mut buf, queue);
        put::string(&mut buf, registrant);
        put::bytes(&mut buf, payload);
        encode_enqueue_opts(&mut buf, &opts);
        let resp = self.call(buf)?;
        let mut r = Reader::new(&resp);
        Ok(Eid(r
            .u64()
            .map_err(|e| CoreError::Malformed(e.to_string()))?))
    }

    fn enqueue_unacked(
        &self,
        queue: &str,
        registrant: &str,
        payload: &[u8],
        opts: EnqueueOptions,
    ) -> CoreResult<()> {
        let mut buf = vec![OP_ENQUEUE];
        put::string(&mut buf, queue);
        put::string(&mut buf, registrant);
        put::bytes(&mut buf, payload);
        encode_enqueue_opts(&mut buf, &opts);
        // One-way: no correlation id, no reply expected. The server will
        // compute a response and discard it.
        Ok(self.client.send_one_way(&self.server, buf)?)
    }

    fn dequeue(&self, queue: &str, registrant: &str, opts: DequeueOptions) -> CoreResult<Element> {
        if opts.predicate.is_some() {
            // The wire format carries no predicate: the server would hand
            // back the head element, matching or not.
            return Err(CoreError::Protocol(
                "predicate dequeue is not supported over RPC".into(),
            ));
        }
        let deadline = opts.block.map(|b| Instant::now() + b);
        loop {
            let mut buf = vec![OP_DEQUEUE];
            put::string(&mut buf, queue);
            put::string(&mut buf, registrant);
            opts.tag.encode(&mut buf);
            match &opts.error_queue {
                None => put::u8(&mut buf, 0),
                Some(q) => {
                    put::u8(&mut buf, 1);
                    put::string(&mut buf, q);
                }
            }
            match self.call(buf) {
                Ok(resp) => {
                    return Element::decode_all(&resp)
                        .map_err(|e| CoreError::Malformed(e.to_string()))
                }
                Err(CoreError::Qm(QmError::Empty(_))) => match deadline {
                    Some(dl) if Instant::now() < dl => {
                        std::thread::sleep(self.poll_interval);
                    }
                    _ => return Err(CoreError::Qm(QmError::Empty(queue.to_string()))),
                },
                Err(e) => return Err(e),
            }
        }
    }

    fn read(&self, eid: Eid) -> CoreResult<Element> {
        let mut buf = vec![OP_READ];
        put::u64(&mut buf, eid.raw());
        let resp = self.call(buf)?;
        Element::decode_all(&resp).map_err(|e| CoreError::Malformed(e.to_string()))
    }

    fn kill(&self, eid: Eid) -> CoreResult<bool> {
        let mut buf = vec![OP_KILL];
        put::u64(&mut buf, eid.raw());
        let resp = self.call(buf)?;
        let mut r = Reader::new(&resp);
        r.bool().map_err(|e| CoreError::Malformed(e.to_string()))
    }

    fn depth(&self, queue: &str) -> CoreResult<usize> {
        let mut buf = vec![OP_DEPTH];
        put::string(&mut buf, queue);
        let resp = self.call(buf)?;
        let mut r = Reader::new(&resp);
        Ok(r.u64().map_err(|e| CoreError::Malformed(e.to_string()))? as usize)
    }

    fn obs(&self) -> &rrq_obs::Obs {
        self.client.obs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrq_qm::retrieval::Predicate;

    fn setup() -> (NetworkBus, Arc<Repository>, ServerGuard, RemoteQm) {
        let bus = NetworkBus::new(7);
        let repo = Arc::new(Repository::create("remote").unwrap());
        repo.create_queue_defaults("q").unwrap();
        let guard = QmRpcServer::spawn(&bus, "qm", Arc::clone(&repo));
        let remote = RemoteQm::new(&bus, "client", "qm");
        (bus, repo, guard, remote)
    }

    #[test]
    fn remote_roundtrip() {
        let (_bus, _repo, _guard, remote) = setup();
        remote.register("q", "c", true).unwrap();
        let eid = remote
            .enqueue("q", "c", b"over-the-wire", EnqueueOptions::default())
            .unwrap();
        assert_eq!(remote.depth("q").unwrap(), 1);
        assert_eq!(remote.read(eid).unwrap().payload, b"over-the-wire");
        let e = remote.dequeue("q", "c", DequeueOptions::default()).unwrap();
        assert_eq!(e.eid, eid);
        remote.deregister("q", "c").unwrap();
    }

    #[test]
    fn remote_empty_dequeue_reports_empty() {
        let (_bus, _repo, _guard, remote) = setup();
        remote.register("q", "c", false).unwrap();
        assert!(matches!(
            remote.dequeue("q", "c", DequeueOptions::default()),
            Err(CoreError::Qm(QmError::Empty(_)))
        ));
    }

    #[test]
    fn remote_predicate_dequeue_is_refused_before_any_rpc() {
        let (_bus, repo, _guard, remote) = setup();
        remote.register("q", "c", false).unwrap();
        remote
            .enqueue("q", "c", b"no-match", EnqueueOptions::default())
            .unwrap();
        let sent = remote.message_counts();
        let r = remote.dequeue(
            "q",
            "c",
            DequeueOptions {
                predicate: Some(Predicate::PayloadContains(b"other".to_vec())),
                ..Default::default()
            },
        );
        assert!(matches!(r, Err(CoreError::Protocol(_))), "{r:?}");
        assert_eq!(remote.message_counts(), sent, "refused client-side");
        assert_eq!(repo.qm().depth("q").unwrap(), 1, "the head stays queued");
    }

    #[test]
    fn remote_blocking_dequeue_polls_until_available() {
        let (_bus, repo, _guard, remote) = setup();
        remote.register("q", "c", false).unwrap();
        let repo2 = Arc::clone(&repo);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(60));
            let (h, _) = repo2.qm().register("q", "late", false).unwrap();
            repo2
                .autocommit(|t| {
                    repo2
                        .qm()
                        .enqueue(t.id().raw(), &h, b"late", EnqueueOptions::default())
                })
                .unwrap();
        });
        let e = remote
            .dequeue(
                "q",
                "c",
                DequeueOptions {
                    block: Some(Duration::from_secs(5)),
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(e.payload, b"late");
        t.join().unwrap();
    }

    #[test]
    fn remote_unacked_enqueue_is_fire_and_forget() {
        let (_bus, repo, _guard, remote) = setup();
        remote.register("q", "c", false).unwrap();
        remote
            .enqueue_unacked("q", "c", b"silent", EnqueueOptions::default())
            .unwrap();
        // Give the server loop a moment.
        let deadline = Instant::now() + Duration::from_secs(2);
        while repo.qm().depth("q").unwrap() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(repo.qm().depth("q").unwrap(), 1);
        let (calls, one_ways) = remote.message_counts();
        assert_eq!((calls, one_ways), (1, 1)); // the register RPC + the one-way enqueue
    }

    #[test]
    fn remote_errors_propagate() {
        let (_bus, _repo, _guard, remote) = setup();
        let r = remote.register("missing-queue", "c", false);
        assert!(matches!(r, Err(CoreError::Protocol(_))));
    }

    #[test]
    fn a_scoped_server_looks_up_only_the_eids_of_its_band() {
        use rrq_qm::repository::{RepoDisks, RepoOptions};
        let bus = NetworkBus::new(11);
        let opts = RepoOptions {
            repo_partitions: 4,
            ..RepoOptions::default()
        };
        let (repo, _) =
            Repository::open_with("scoped", RepoDisks::new(), opts, rrq_obs::Obs::default())
                .unwrap();
        let repo = Arc::new(repo);
        let _guards: Vec<ServerGuard> = (0..4)
            .map(|p| QmRpcServer::spawn_partition(&bus, &format!("qm{p}"), Arc::clone(&repo), p))
            .collect();
        let remotes: Vec<RemoteQm> = (0..4)
            .map(|p| RemoteQm::new(&bus, &format!("c{p}"), &format!("qm{p}")))
            .collect();
        for p in 0..4 {
            let q = (0..64)
                .map(|i| format!("sq{i}"))
                .find(|q| repo.partition_of(q) == p)
                .unwrap();
            repo.create_queue_defaults(&q).unwrap();
            remotes[p].register(&q, "c", false).unwrap();
            let eid = remotes[p]
                .enqueue(&q, "c", q.as_bytes(), EnqueueOptions::default())
                .unwrap();
            let other = &remotes[(p + 1) % 4];
            assert!(other.read(eid).is_err(), "not its band");
            assert!(!other.kill(eid).unwrap());
            assert_eq!(remotes[p].read(eid).unwrap().payload, q.as_bytes());
            assert!(remotes[p].kill(eid).unwrap());
        }
    }

    #[test]
    fn partition_makes_calls_time_out() {
        let (bus, _repo, _guard, mut remote) = setup();
        remote.set_rpc_timeout(Duration::from_millis(50));
        bus.faults().partition_pair("client", "qm");
        assert!(matches!(
            remote.register("q", "c", false),
            Err(CoreError::Net(rrq_net::NetError::Timeout))
        ));
        bus.faults().heal_pair("client", "qm");
        remote.set_rpc_timeout(Duration::from_secs(2));
        assert!(remote.register("q", "c", false).is_ok());
    }
}
