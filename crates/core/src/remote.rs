//! The clerk↔QM wire protocol over the simulated network.
//!
//! §5: "If the QM is remote from the client, then we assume that the clerk
//! invokes QM operations using remote procedure call." [`RemoteQm`] sends
//! each [`QmApi`] operation as one `Call`, to one endpoint or to one per
//! repository partition ([`rrq_qm::route`] picks the link, one hop);
//! [`QmRpcServer`] runs it through a [`LocalQm`], so the operations are
//! written once. `enqueue_unacked` is the §5 one-way message, whose loss
//! Receive's timeout and resynchronization discover; blocking dequeues are
//! client-side polling, so one slow client never stalls the QM's RPC loop.

use crate::api::{LocalQm, QmApi};
use crate::error::{CoreError, CoreResult};
use rrq_net::rpc::{spawn_server, RpcClient, ServerGuard};
use rrq_net::NetworkBus;
use rrq_qm::element::{Eid, Element};
use rrq_qm::ops::{DequeueOptions, EnqueueOptions, QueueHandle};
use rrq_qm::registration::Registration;
use rrq_qm::repository::Repository;
use rrq_qm::route::{partition_of, partition_of_eid};
use rrq_qm::QmError;
use rrq_storage::codec::{put, Decode, Encode, Reader};
use rrq_storage::{StorageError, StorageResult};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ST_OK: u8 = 0;
const ST_ERR: u8 = 1;
const ST_EMPTY: u8 = 2;

fn malformed(e: StorageError) -> CoreError {
    CoreError::Malformed(e.to_string())
}

/// One QM operation on the wire: what [`RemoteQm`] sends and what
/// [`QmRpcServer`] decodes and runs on its [`LocalQm`].
enum Call {
    Register(QueueHandle, bool),
    Deregister(QueueHandle),
    Enqueue(QueueHandle, Vec<u8>, EnqueueOptions),
    /// Only the tag and the error queue cross the wire: a predicate is
    /// refused before sending, and blocking is client-side polling.
    Dequeue(QueueHandle, DequeueOptions),
    Read(Eid),
    Kill(Eid),
    Depth(String),
}

impl Call {
    /// The queue a queue-addressed call names.
    fn queue(&self) -> Option<&str> {
        match self {
            Call::Register(h, _)
            | Call::Deregister(h)
            | Call::Enqueue(h, ..)
            | Call::Dequeue(h, _) => Some(&h.queue),
            Call::Depth(queue) => Some(queue),
            Call::Read(_) | Call::Kill(_) => None,
        }
    }

    /// Run the call on `qm` and encode its result after `ST_OK`; a server
    /// scoped to `p` refuses queues and finds no eids outside partition `p`.
    fn serve(self, qm: &LocalQm, scope: Option<usize>) -> CoreResult<Vec<u8>> {
        let repo = qm.repo();
        if let (Some(p), Some(queue)) = (scope, self.queue()) {
            let owner = repo.partition_of(queue);
            if owner != p {
                let why = format!("queue {queue} owned by partition {owner}, not {p}");
                return Err(CoreError::Protocol(why));
            }
        }
        let parts = repo.partitions();
        let foreign = |eid| scope.is_some_and(|s| partition_of_eid(eid, parts) != Some(s));
        let mut out = vec![ST_OK];
        match self {
            Call::Register(h, stable) => qm
                .register(&h.queue, &h.registrant, stable)?
                .encode(&mut out),
            Call::Deregister(h) => qm.deregister(&h.queue, &h.registrant)?,
            Call::Enqueue(h, payload, opts) => {
                let eid = qm.enqueue(&h.queue, &h.registrant, &payload, opts)?;
                put::u64(&mut out, eid.raw())
            }
            Call::Dequeue(h, opts) => qm.dequeue(&h.queue, &h.registrant, opts)?.encode(&mut out),
            Call::Read(eid) if foreign(eid) => return Err(QmError::NoSuchElement(eid.raw()).into()),
            Call::Read(eid) => qm.read(eid)?.encode(&mut out),
            Call::Kill(eid) => put::bool(&mut out, !foreign(eid) && qm.kill(eid)?),
            Call::Depth(queue) => put::u64(&mut out, qm.depth(&queue)? as u64),
        }
        Ok(out)
    }
}

/// Start a call's encoding: its opcode, then the handle it names, if any.
fn op<'b>(buf: &'b mut Vec<u8>, op: u8, h: Option<&QueueHandle>) -> &'b mut Vec<u8> {
    put::u8(buf, op);
    if let Some(h) = h {
        put::string(buf, &h.queue);
        put::string(buf, &h.registrant);
    }
    buf
}

fn handle(r: &mut Reader<'_>) -> StorageResult<QueueHandle> {
    Ok(QueueHandle {
        queue: r.string()?,
        registrant: r.string()?,
    })
}

impl Encode for Call {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Call::Register(h, stable) => put::bool(op(buf, 1, Some(h)), *stable),
            Call::Deregister(h) => _ = op(buf, 2, Some(h)),
            Call::Enqueue(h, payload, opts) => {
                put::bytes(op(buf, 3, Some(h)), payload);
                put::u8(buf, opts.priority);
                put::u32(buf, opts.attrs.len() as u32);
                for (n, v) in &opts.attrs {
                    put::string(buf, n);
                    put::string(buf, v);
                }
                opts.tag.encode(buf);
            }
            Call::Dequeue(h, opts) => {
                opts.tag.encode(op(buf, 4, Some(h)));
                opts.error_queue.encode(buf);
            }
            Call::Read(eid) => put::u64(op(buf, 5, None), eid.raw()),
            Call::Kill(eid) => put::u64(op(buf, 6, None), eid.raw()),
            Call::Depth(queue) => put::string(op(buf, 7, None), queue),
        }
    }
}

impl Decode for Call {
    fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
        Ok(match r.u8()? {
            1 => Call::Register(handle(r)?, r.bool()?),
            2 => Call::Deregister(handle(r)?),
            3 => {
                let (h, payload, mut opts) = (handle(r)?, r.bytes()?, EnqueueOptions::default());
                opts.priority = r.u8()?;
                opts.attrs = (0..r.u32()?)
                    .map(|_| Ok((r.string()?, r.string()?)))
                    .collect::<StorageResult<_>>()?;
                opts.tag = Option::decode(r)?;
                Call::Enqueue(h, payload, opts)
            }
            4 => {
                let (h, mut opts) = (handle(r)?, DequeueOptions::default());
                (opts.tag, opts.error_queue) = (Option::decode(r)?, Option::decode(r)?);
                Call::Dequeue(h, opts)
            }
            5 => Call::Read(Eid(r.u64()?)),
            6 => Call::Kill(Eid(r.u64()?)),
            7 => Call::Depth(r.string()?),
            op => return Err(StorageError::Decode(format!("unknown opcode {op}"))),
        })
    }
}

/// Serve a repository's queue operations on `endpoint_name`.
pub struct QmRpcServer;

impl QmRpcServer {
    /// Spawn the serving thread; the guard stops it on drop. Serves every
    /// partition of the repository (operations route internally).
    pub fn spawn(bus: &NetworkBus, endpoint_name: &str, repo: Arc<Repository>) -> ServerGuard {
        serve(bus, endpoint_name, LocalQm::new(repo), None)
    }

    /// Spawn a server for *one* repository partition: it refuses the queues
    /// of other partitions and finds no eid of another partition's band.
    pub fn spawn_partition(
        bus: &NetworkBus,
        endpoint_name: &str,
        repo: Arc<Repository>,
        part: usize,
    ) -> ServerGuard {
        serve(bus, endpoint_name, LocalQm::new(repo), Some(part))
    }
}

fn serve(bus: &NetworkBus, name: &str, qm: LocalQm, scope: Option<usize>) -> ServerGuard {
    spawn_server(bus, name, move |env| {
        let call = Call::decode_all(&env.payload).map_err(malformed);
        match call.and_then(|call| call.serve(&qm, scope)) {
            Ok(out) => out,
            Err(CoreError::Qm(QmError::Empty(_))) => vec![ST_EMPTY],
            Err(e) => [vec![ST_ERR], e.to_string().encode_to_vec()].concat(),
        }
    })
}

/// [`QmApi`] over the network, on one endpoint or one per partition.
pub struct RemoteQm {
    /// One RPC client per partition, and the server endpoint it calls.
    links: Vec<(RpcClient, String)>,
    rpc_timeout: Duration,
    poll_interval: Duration,
}

impl RemoteQm {
    /// Build a remote handle speaking from `client_endpoint` to
    /// `server_endpoint`, which serves the whole repository.
    pub fn new(bus: &NetworkBus, client_endpoint: &str, server_endpoint: &str) -> Self {
        Self::partitioned(bus, &[(client_endpoint, server_endpoint)])
    }

    /// One link per repository partition: `endpoints[i]` is a client endpoint
    /// of its own (for its replies) and the server endpoint of partition `i`.
    pub fn partitioned(bus: &NetworkBus, endpoints: &[(impl AsRef<str>, impl AsRef<str>)]) -> Self {
        assert!(!endpoints.is_empty(), "at least one endpoint");
        RemoteQm {
            links: endpoints
                .iter()
                .map(|(c, s)| (RpcClient::new(bus, c.as_ref()), s.as_ref().to_string()))
                .collect(),
            rpc_timeout: Duration::from_secs(2),
            poll_interval: Duration::from_millis(20),
        }
    }

    /// Change the per-RPC timeout of every link.
    pub fn set_rpc_timeout(&mut self, t: Duration) {
        self.rpc_timeout = t;
    }

    /// (rpc calls, one-way sends) counters summed over the links —
    /// message-cost accounting for the §5 Send-mode experiment.
    pub fn message_counts(&self) -> (u64, u64) {
        let counts = self.links.iter().map(|(client, _)| client.counts());
        counts.fold((0, 0), |(c, o), (lc, lo)| (c + lc, o + lo))
    }

    /// The link to the partition that owns the call's queue, or whose band
    /// holds its eid (a single link serves every eid). An eid of a band no
    /// partition has is [`QmError::NoSuchElement`], with no message sent.
    fn link(&self, call: &Call) -> CoreResult<&(RpcClient, String)> {
        let n = self.links.len();
        let p = match (call, call.queue()) {
            (_, Some(queue)) => {
                self.obs().counter_inc("route.lookups");
                partition_of(queue, n)
            }
            (Call::Read(eid) | Call::Kill(eid), None) if n > 1 => {
                partition_of_eid(*eid, n).ok_or(QmError::NoSuchElement(eid.raw()))?
            }
            _ => 0,
        };
        Ok(&self.links[p])
    }

    /// Send `call` as an RPC on its link and return the reply body.
    fn call(&self, call: &Call) -> CoreResult<Vec<u8>> {
        let (client, server) = self.link(call)?;
        let resp = client.call(server, call.encode_to_vec(), self.rpc_timeout)?;
        let Some((&status, body)) = resp.split_first() else {
            return Err(CoreError::Malformed("empty rpc response".into()));
        };
        match status {
            ST_OK => Ok(body.to_vec()),
            ST_EMPTY => Err(QmError::Empty("remote".into()).into()),
            _ => Err(CoreError::Protocol(
                String::decode_all(body).map_err(malformed)?,
            )),
        }
    }

    /// [`RemoteQm::call`], with the reply body decoded as a `T`.
    fn call_as<T: Decode>(&self, call: &Call) -> CoreResult<T> {
        T::decode_all(&self.call(call)?).map_err(malformed)
    }
}

impl QmApi for RemoteQm {
    fn register(&self, queue: &str, registrant: &str, stable: bool) -> CoreResult<Registration> {
        self.call_as(&Call::Register(LocalQm::handle(queue, registrant), stable))
    }

    fn deregister(&self, queue: &str, registrant: &str) -> CoreResult<()> {
        self.call(&Call::Deregister(LocalQm::handle(queue, registrant)))
            .map(|_| ())
    }

    fn enqueue(
        &self,
        queue: &str,
        registrant: &str,
        payload: &[u8],
        opts: EnqueueOptions,
    ) -> CoreResult<Eid> {
        let h = LocalQm::handle(queue, registrant);
        Ok(Eid(self.call_as(&Call::Enqueue(
            h,
            payload.to_vec(),
            opts,
        ))?))
    }

    fn enqueue_unacked(
        &self,
        queue: &str,
        registrant: &str,
        payload: &[u8],
        opts: EnqueueOptions,
    ) -> CoreResult<()> {
        let call = Call::Enqueue(LocalQm::handle(queue, registrant), payload.to_vec(), opts);
        // One-way: no correlation id, no reply expected. The server will
        // compute a response and discard it.
        let (client, server) = self.link(&call)?;
        Ok(client.send_one_way(server, call.encode_to_vec())?)
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
        let call = Call::Dequeue(LocalQm::handle(queue, registrant), opts);
        loop {
            match self.call_as(&call) {
                Err(CoreError::Qm(QmError::Empty(_))) => match deadline {
                    Some(dl) if Instant::now() < dl => std::thread::sleep(self.poll_interval),
                    _ => return Err(CoreError::Qm(QmError::Empty(queue.to_string()))),
                },
                res => return res,
            }
        }
    }

    fn read(&self, eid: Eid) -> CoreResult<Element> {
        self.call_as(&Call::Read(eid))
    }

    fn kill(&self, eid: Eid) -> CoreResult<bool> {
        match self.call(&Call::Kill(eid)) {
            // No partition's band holds it: nothing to kill.
            Err(CoreError::Qm(QmError::NoSuchElement(_))) => Ok(false),
            res => Reader::new(&res?).bool().map_err(malformed),
        }
    }

    fn depth(&self, queue: &str) -> CoreResult<usize> {
        Ok(self.call_as::<u64>(&Call::Depth(queue.to_string()))? as usize)
    }

    /// The first link's: every link of one clerk is on the same bus.
    fn obs(&self) -> &rrq_obs::Obs {
        self.links[0].0.obs()
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

    /// Through one scoped endpoint per partition, and through one
    /// `RemoteQm` over all of them: each queue's calls reach its owner, and
    /// Read and Kill ask only the partition the eid's band names.
    #[test]
    fn a_scoped_server_looks_up_only_the_eids_of_its_band() {
        use rrq_qm::repository::{RepoDisks, RepoOptions};
        let bus = NetworkBus::new(11);
        bus.obs().start();
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
        let links: Vec<(String, String)> = (0..4)
            .map(|p| (format!("r{p}"), format!("qm{p}")))
            .collect();
        let routed = RemoteQm::partitioned(&bus, &links);
        let reads = || -> Vec<u64> { (0..4).map(|p| repo.qm_at(p).stats().reads).collect() };
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
            assert!(other.register(&q, "c", false).is_err(), "not its queue");
            assert!(other.read(eid).is_err(), "not its band");
            assert!(!other.kill(eid).unwrap());
            assert_eq!(remotes[p].read(eid).unwrap().payload, q.as_bytes());
            assert!(remotes[p].kill(eid).unwrap());

            routed.register(&q, "r", false).unwrap();
            let eid = routed
                .enqueue(&q, "r", q.as_bytes(), EnqueueOptions::default())
                .unwrap();
            assert_eq!(partition_of_eid(eid, 4), Some(p));
            assert_eq!(routed.depth(&q).unwrap(), 1);
            let before = reads();
            assert_eq!(routed.read(eid).unwrap().payload, q.as_bytes());
            let asked: Vec<usize> = (0..4).filter(|&i| reads()[i] != before[i]).collect();
            assert_eq!(asked, [p], "read of {eid}");
            assert_eq!(
                routed
                    .dequeue(&q, "r", DequeueOptions::default())
                    .unwrap()
                    .eid,
                eid
            );
            let eid = routed
                .enqueue(&q, "r", b"bye", EnqueueOptions::default())
                .unwrap();
            assert!(routed.kill(eid).unwrap());
            assert_eq!(repo.qm_at(p).stats().kills, 2);
            assert_eq!(routed.depth(&q).unwrap(), 0);
        }
        // A band no partition has: nothing is found, and nothing is sent.
        let nowhere = Eid::compose(rrq_qm::route::epoch_band_base(5) + 1, 0);
        let sent = routed.message_counts();
        assert!(matches!(
            routed.read(nowhere),
            Err(CoreError::Qm(QmError::NoSuchElement(_)))
        ));
        assert!(!routed.kill(nowhere).unwrap());
        assert_eq!(routed.message_counts(), sent);
        // Per partition, three queue-addressed calls through the one-link
        // handles and six through the routed one: every handle counts.
        let lookups = routed.obs().snapshot().counter("route.lookups");
        assert_eq!(lookups, 4 * (3 + 6));
    }

    /// A 4-partition repository with one scoped server per partition, and
    /// one `RemoteQm` linked to all four.
    fn partitioned_setup(
        seed: u64,
        name: &str,
    ) -> (NetworkBus, Arc<Repository>, Vec<ServerGuard>, RemoteQm) {
        use rrq_qm::repository::{RepoDisks, RepoOptions};
        let bus = NetworkBus::new(seed);
        let opts = RepoOptions {
            repo_partitions: 4,
            ..RepoOptions::default()
        };
        let (repo, _) =
            Repository::open_with(name, RepoDisks::new(), opts, rrq_obs::Obs::default()).unwrap();
        let repo = Arc::new(repo);
        let guards = (0..4)
            .map(|p| QmRpcServer::spawn_partition(&bus, &format!("qm{p}"), Arc::clone(&repo), p))
            .collect();
        let links: Vec<(String, String)> = (0..4)
            .map(|p| (format!("c{p}"), format!("qm{p}")))
            .collect();
        let remote = RemoteQm::partitioned(&bus, &links);
        (bus, repo, guards, remote)
    }

    #[test]
    fn partitioned_links_roundtrip_every_queue() {
        let (_bus, repo, _guards, remote) = partitioned_setup(13, "links");
        for i in 0..8 {
            let q = format!("rq{i}");
            repo.create_queue_defaults(&q).unwrap();
            remote.register(&q, "c", false).unwrap();
            let eid = remote
                .enqueue(&q, "c", q.as_bytes(), EnqueueOptions::default())
                .unwrap();
            assert_eq!(remote.depth(&q).unwrap(), 1);
            assert_eq!(remote.read(eid).unwrap().payload, q.as_bytes());
            let e = remote.dequeue(&q, "c", DequeueOptions::default()).unwrap();
            assert_eq!(e.eid, eid);
        }
    }

    #[test]
    fn partitioned_kill_reaches_a_nonzero_partition() {
        let (_bus, repo, _guards, remote) = partitioned_setup(14, "links-kill");
        // A queue on a non-zero partition: the kill must go there.
        let q = (0..64)
            .map(|i| format!("kq{i}"))
            .find(|q| repo.partition_of(q) != 0)
            .unwrap();
        repo.create_queue_defaults(&q).unwrap();
        remote.register(&q, "c", false).unwrap();
        let eid = remote
            .enqueue(&q, "c", b"bye", EnqueueOptions::default())
            .unwrap();
        assert!(remote.kill(eid).unwrap());
        assert_eq!(remote.depth(&q).unwrap(), 0);
    }

    /// One link to an unscoped server serves the whole repository: it reads
    /// and kills the eids of every band.
    #[test]
    fn one_link_reaches_every_band_of_a_partitioned_repository() {
        use rrq_qm::repository::{RepoDisks, RepoOptions};
        let bus = NetworkBus::new(12);
        let opts = RepoOptions {
            repo_partitions: 4,
            ..RepoOptions::default()
        };
        let (repo, _) =
            Repository::open_with("onelink", RepoDisks::new(), opts, rrq_obs::Obs::default())
                .unwrap();
        let repo = Arc::new(repo);
        let _guard = QmRpcServer::spawn(&bus, "qm", Arc::clone(&repo));
        let remote = RemoteQm::new(&bus, "c", "qm");
        for p in 0..4 {
            let q = (0..64)
                .map(|i| format!("oq{i}"))
                .find(|q| repo.partition_of(q) == p)
                .unwrap();
            repo.create_queue_defaults(&q).unwrap();
            remote.register(&q, "c", false).unwrap();
            let eid = remote
                .enqueue(&q, "c", q.as_bytes(), EnqueueOptions::default())
                .unwrap();
            assert_eq!(partition_of_eid(eid, 4), Some(p));
            assert_eq!(remote.read(eid).unwrap().payload, q.as_bytes());
            assert!(remote.kill(eid).unwrap());
        }
    }

    /// Every call decodes to itself, and no cut of one decodes at all.
    #[test]
    fn every_call_survives_the_codec_and_no_prefix_decodes() {
        let h = || QueueHandle {
            queue: "q".into(),
            registrant: "c".into(),
        };
        let enqueue_opts = EnqueueOptions {
            priority: 7,
            attrs: vec![("k".into(), "v".into()), ("k2".into(), String::new())],
            tag: Some(b"t".to_vec()),
        };
        let dequeue_opts = DequeueOptions {
            tag: Some(b"t".to_vec()),
            error_queue: Some("eq".into()),
            ..Default::default()
        };
        let calls = [
            Call::Register(h(), true),
            Call::Deregister(h()),
            Call::Enqueue(h(), b"body".to_vec(), enqueue_opts),
            Call::Enqueue(h(), Vec::new(), EnqueueOptions::default()),
            Call::Dequeue(h(), dequeue_opts),
            Call::Dequeue(h(), DequeueOptions::default()),
            Call::Read(Eid(u64::MAX)),
            Call::Kill(Eid(1)),
            Call::Depth("q".into()),
        ];
        for call in calls {
            let bytes = call.encode_to_vec();
            let back = Call::decode_all(&bytes).unwrap();
            assert_eq!(back.encode_to_vec(), bytes);
            assert_eq!(back.queue(), call.queue());
            for cut in 0..bytes.len() {
                assert!(Call::decode_all(&bytes[..cut]).is_err(), "cut at {cut}");
            }
        }
        assert!(Call::decode_all(&[0]).is_err(), "no opcode 0");
        assert!(Call::decode_all(&[8]).is_err(), "no opcode 8");
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
