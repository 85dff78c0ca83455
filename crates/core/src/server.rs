//! The server of the System Model (§5, Figs 4–5): for each request, within
//! one transaction — dequeue it, process it, enqueue the reply, commit.
//!
//! Failure behaviour follows the paper exactly:
//!
//! * a handler that returns [`HandlerError::Abort`] (or a crash/deadlock)
//!   aborts the transaction, returning the request to its queue for
//!   reprocessing;
//! * after the queue's retry limit, the element moves to the error queue —
//!   "to avoid cyclic restart of the request … the server should use the
//!   error queue facility" — where [`Server::failed_reply_reaper`] turns it
//!   into a `Failed` reply, the §3 "promise that it will not attempt to
//!   execute the request any more";
//! * a handler that returns [`HandlerError::Reject`] commits a `Failed`
//!   reply immediately (the request *was* processed exactly once: the
//!   processing concluded "don't do it").
//!
//! **Epoch commit.** [`Server::run_once`] is Fig 5 verbatim: one request, one
//! forced commit. The [`Server::spawn`] loop serves requests back to back —
//! each still its own transaction under 2PL, its locks released when its
//! commit record is appended — and forces the log once for all of them
//! ([`Server::run_epoch`]): a lone request costs one force, a backlog one per
//! epoch. Until that force no clerk can dequeue (or be woken for) any of the
//! epoch's replies, so a reply a client has seen is always durable. A crash
//! before the force returns every request of the epoch to its queue with no
//! reply; exactly-once holds because dequeue, effects and reply are one
//! commit record. Transactions that enlist anything besides the home queue
//! manager (a reply queue on another partition, application resource
//! managers) commit two-phase and force at once, inside the epoch or not.

use crate::error::{CoreError, CoreResult};
use crate::request::{Reply, Request};
use crate::rid::Rid;
use parking_lot::Mutex;
use rrq_qm::ops::{DequeueOptions, EnqueueOptions, QueueHandle};
use rrq_qm::repository::Repository;
use rrq_qm::QmError;
use rrq_storage::codec::{Decode, Encode};
use rrq_txn::{ResourceManager, Txn, TxnError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Handler failure classes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HandlerError {
    /// Transient failure: abort the transaction; the request returns to the
    /// queue and will be retried (until the retry limit).
    Abort(String),
    /// Permanent failure: commit a `Failed` reply; the request will never be
    /// attempted again.
    Reject(String),
}

/// What a handler produced.
#[derive(Debug, Clone)]
pub enum HandlerOutcome {
    /// Final reply for the client.
    Reply(Vec<u8>),
    /// Intermediate output of an interactive request (§8.2): a reply with
    /// `Intermediate` status; the conversation continues on `next_queue`.
    IntermediateReply {
        /// Bytes shown to the client.
        body: Vec<u8>,
        /// Queue for the client's next input.
        next_queue: String,
        /// Conversation state echoed back by the client (§9's IMS "scratch
        /// pad" rides in the element instead of program variables).
        state: Vec<u8>,
    },
    /// Forward the (rewritten) request to the next stage of a
    /// multi-transaction request (§6) — no reply yet.
    Forward {
        /// Next stage's input queue.
        queue: String,
        /// The rewritten request (state carried in `request.state`).
        request: Request,
    },
    /// Forward and *inherit locks*: the transaction's locks transfer to a
    /// parking id embedded in the forwarded request, and the next stage
    /// adopts them (§6 request-level serializability).
    ForwardInheriting {
        /// Next stage's input queue.
        queue: String,
        /// The rewritten request.
        request: Request,
    },
}

/// Processing context handed to handlers.
pub struct ServerCtx<'a> {
    /// The open transaction (locks, id).
    pub txn: &'a Txn,
    /// The node's repository (application state lives in [`Self::store`]).
    pub repo: &'a Arc<Repository>,
    /// The repository partition owning the request queue — the transaction's
    /// home. Application state written through [`Self::store`] stays
    /// co-located with the queue that drives it.
    pub home: usize,
}

impl ServerCtx<'_> {
    /// The home partition's durable store: where this request's application
    /// state lives (with one partition this is exactly `repo.store()`).
    pub fn store(&self) -> &Arc<rrq_storage::kv::KvStore> {
        self.repo.store_at(self.home)
    }

    /// Enlist `queue`'s owning partition in the current transaction and
    /// return its queue manager — the handler-facing door to cross-partition
    /// work (a no-op returning the home queue manager when `queue` is
    /// co-located).
    pub fn enlist_queue(&self, queue: &str) -> CoreResult<&Arc<rrq_qm::ops::QueueManager>> {
        Ok(self.repo.enlist_queue(self.txn, self.home, queue)?)
    }
}

/// The handler signature: pure request → outcome, using `ctx` for state.
pub type Handler =
    Arc<dyn Fn(&ServerCtx<'_>, &Request) -> Result<HandlerOutcome, HandlerError> + Send + Sync>;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Name used for queue registration.
    pub server_name: String,
    /// Input queue.
    pub request_queue: String,
    /// Dequeue blocking window per loop iteration.
    pub block: Duration,
}

impl ServerConfig {
    /// Defaults: 200 ms poll window.
    pub fn new(server_name: impl Into<String>, request_queue: impl Into<String>) -> Self {
        ServerConfig {
            server_name: server_name.into(),
            request_queue: request_queue.into(),
            block: Duration::from_millis(200),
        }
    }
}

/// Most requests one epoch serves before it forces the log. Bounds how long
/// the first reply of a backlog waits for its force and how much work a
/// crash can return to the queue; a shorter queue closes the epoch sooner.
const EPOCH_MAX: usize = 64;

/// What one `run_once` iteration did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// A request was processed and committed.
    Committed,
    /// The handler asked for an abort (request returned to the queue).
    Aborted,
    /// The transaction lost a deadlock or was poisoned by a cancel.
    Rolled,
    /// Nothing to do.
    Idle,
}

/// Counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Requests committed.
    pub committed: u64,
    /// Handler-requested aborts.
    pub aborted: u64,
    /// Rejected (Failed reply) requests.
    pub rejected: u64,
    /// Deadlock/cancel rollbacks.
    pub rolled: u64,
}

/// A server process (one dequeue loop).
pub struct Server {
    repo: Arc<Repository>,
    app_rms: Vec<Arc<dyn ResourceManager>>,
    handler: Handler,
    cfg: ServerConfig,
    handle: QueueHandle,
    /// Partition owning `cfg.request_queue`; every request transaction is
    /// homed here.
    home: usize,
    stats: Mutex<ServerStats>,
}

impl Server {
    /// Build a server; registers with the request queue immediately.
    pub fn new(
        repo: Arc<Repository>,
        cfg: ServerConfig,
        handler: Handler,
    ) -> CoreResult<Arc<Self>> {
        Self::with_resources(repo, cfg, handler, Vec::new())
    }

    /// Build a server that additionally enlists application resource
    /// managers in every request transaction.
    pub fn with_resources(
        repo: Arc<Repository>,
        cfg: ServerConfig,
        handler: Handler,
        app_rms: Vec<Arc<dyn ResourceManager>>,
    ) -> CoreResult<Arc<Self>> {
        let home = repo.partition_of(&cfg.request_queue);
        let (handle, _) = repo
            .qm_at(home)
            .register(&cfg.request_queue, &cfg.server_name, false)?;
        Ok(Arc::new(Server {
            repo,
            app_rms,
            handler,
            cfg,
            handle,
            home,
            stats: Mutex::new(ServerStats::default()),
        }))
    }

    /// A reaper for `error_queue`: turns dead requests into `Failed` replies
    /// so the client's Receive eventually completes (§3's unsuccessful-
    /// attempt reply).
    pub fn failed_reply_reaper(
        repo: Arc<Repository>,
        server_name: &str,
        error_queue: &str,
    ) -> CoreResult<Arc<Self>> {
        let handler: Handler = Arc::new(|_ctx, req| {
            Ok(HandlerOutcome::Reply(
                format!("request {} gave up after repeated failures", req.rid).into_bytes(),
            ))
        });
        // The reaper wraps the reply as Failed via a marker op below.
        let cfg = ServerConfig::new(server_name, error_queue);
        // The error queue is normally created lazily by the first retry-limit
        // move; the reaper may boot earlier, so create it here (no cascading
        // retries on error queues).
        let mut meta = rrq_qm::meta::QueueMeta::with_defaults(error_queue);
        meta.retry_limit = 0;
        let home = repo.partition_of(error_queue);
        match repo.qm_at(home).create_queue(meta) {
            Ok(()) | Err(QmError::QueueExists(_)) => {}
            Err(e) => return Err(e.into()),
        }
        let (handle, _) = repo
            .qm_at(home)
            .register(&cfg.request_queue, &cfg.server_name, false)?;
        Ok(Arc::new(Server {
            repo,
            app_rms: Vec::new(),
            handler,
            cfg: ServerConfig {
                // A sentinel so run_once marks replies Failed.
                server_name: format!("!failed!{}", cfg.server_name),
                ..cfg
            },
            handle,
            home,
            stats: Mutex::new(ServerStats::default()),
        }))
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServerStats {
        *self.stats.lock()
    }

    /// The repository this server runs on.
    pub fn repo(&self) -> &Arc<Repository> {
        &self.repo
    }

    fn reply_failed_sentinel(&self) -> bool {
        self.cfg.server_name.starts_with("!failed!")
    }

    /// One iteration of the Fig 5 loop: the commit is forced before this
    /// returns and the reply is visible at once.
    pub fn run_once(&self) -> CoreResult<Served> {
        self.serve(Some(self.cfg.block), false)
    }

    /// One iteration of the Fig 5 loop whose commit is *deferred*: its
    /// commit record is appended and its locks are released, but the force —
    /// and with it the reply's visibility — waits for the caller's
    /// [`Server::close_epoch`]. `block: None` returns [`Served::Idle`] at
    /// once on an empty queue.
    pub fn serve_deferred(&self, block: Option<Duration>) -> CoreResult<Served> {
        self.serve(block, true)
    }

    /// Force the log and show every reply committed deferred so far (by this
    /// or any other server of the home partition). On a failed force nothing
    /// is shown and a later close retries.
    pub fn close_epoch(&self) -> CoreResult<()> {
        let from = rrq_obs::now();
        if self.repo.qm_at(self.home).close_epoch()? > 0 {
            rrq_obs::observe(
                "core.epoch.commit_wait_ticks",
                rrq_obs::now().saturating_sub(from),
            );
        }
        Ok(())
    }

    /// One epoch of the [`Server::spawn`] loop: wait up to the configured
    /// window for a first request, serve what the queue holds back to back —
    /// at most `EPOCH_MAX` requests, stopping at the first empty dequeue —
    /// then close. Returns how many requests were served. The epoch is closed
    /// on every exit, an error or a panicking handler included, so commits
    /// already appended never stay invisible behind a dead thread.
    pub fn run_epoch(&self) -> CoreResult<usize> {
        struct Close<'a>(&'a Server);
        impl Drop for Close<'_> {
            fn drop(&mut self) {
                // A failed force leaves the mirrors buffered; the next
                // epoch's close (idle ones included) retries it.
                let _ = self.0.close_epoch();
            }
        }
        let _close = Close(self);
        let mut served = 0;
        let mut block = Some(self.cfg.block);
        while served < EPOCH_MAX {
            match self.serve_deferred(block) {
                Ok(Served::Idle) => break,
                // Aborts and rollbacks count: an element that keeps coming
                // back must not hold earlier replies invisible forever.
                Ok(_) | Err(CoreError::Malformed(_)) => served += 1,
                Err(e) => return Err(e),
            }
            block = None;
        }
        Ok(served)
    }

    fn serve(&self, block: Option<Duration>, defer: bool) -> CoreResult<Served> {
        rrq_obs::counter_inc("core.server.loop_iterations");
        let txn = self.repo.begin_on_part(self.home)?;
        for rm in &self.app_rms {
            txn.enlist(Arc::clone(rm))?;
        }
        if defer {
            self.repo.qm_at(self.home).defer_commit(txn.id().raw());
        }
        let elem = match self.repo.qm_at(self.home).dequeue(
            txn.id().raw(),
            &self.handle,
            DequeueOptions {
                block,
                ..Default::default()
            },
        ) {
            Ok(e) => e,
            Err(QmError::Empty(_)) => {
                txn.abort()?;
                return Ok(Served::Idle);
            }
            Err(QmError::Txn(TxnError::Deadlock { .. })) => {
                txn.abort()?;
                self.stats.lock().rolled += 1;
                return Ok(Served::Rolled);
            }
            Err(e) => {
                let _ = txn.abort();
                return Err(e.into());
            }
        };

        let request = match Request::decode_all(&elem.payload) {
            Ok(r) => r,
            Err(e) => {
                // Undecodable request: reject it permanently by committing
                // the dequeue without a reply (nothing to match it to).
                rrq_check::protocol::emit_server(&self.cfg.server_name, || {
                    rrq_check::protocol::ServerEvent::DropMalformed
                });
                txn.commit()?;
                rrq_check::protocol::emit_server(&self.cfg.server_name, || {
                    rrq_check::protocol::ServerEvent::Commit
                });
                return Err(CoreError::Malformed(format!(
                    "dropped undecodable request: {e}"
                )));
            }
        };
        rrq_check::protocol::emit_server(&self.cfg.server_name, || {
            rrq_check::protocol::ServerEvent::Dequeue {
                rid: request.rid.to_attr(),
            }
        });

        // Any error below unwinds the server transaction, so the observable
        // protocol transition is an abort.
        let served = self.serve_request(txn, &request, &elem);
        if served.is_err() {
            rrq_check::protocol::emit_server(&self.cfg.server_name, || {
                rrq_check::protocol::ServerEvent::Abort
            });
        }
        served
    }

    /// The Fig 5 body after a decodable request was dequeued.
    fn serve_request(
        &self,
        txn: Txn,
        request: &Request,
        elem: &rrq_qm::element::Element,
    ) -> CoreResult<Served> {
        // §6 lock inheritance: adopt locks parked by the previous stage.
        if let Some(parked) = request.inherit_txn {
            self.repo
                .tm_at(self.home)
                .locks()
                .transfer_locks(parked, txn.id().raw());
        }

        let ctx = ServerCtx {
            txn: &txn,
            repo: &self.repo,
            home: self.home,
        };
        let outcome = if self.reply_failed_sentinel() {
            // Error-queue reaper: always produce a Failed reply.
            Err(HandlerError::Reject(format!(
                "request {} exhausted its retries (abort count {})",
                request.rid, elem.abort_count
            )))
        } else {
            (self.handler)(&ctx, request)
        };

        match outcome {
            Ok(HandlerOutcome::Reply(body)) => {
                self.enqueue_reply(&txn, request, Reply::ok(request.rid.clone(), body))?;
                let served = self.commit(txn);
                if matches!(served, Ok(Served::Committed)) {
                    rrq_obs::counter_inc("core.server.replies_committed");
                }
                served
            }
            Ok(HandlerOutcome::IntermediateReply {
                body,
                next_queue,
                state,
            }) => {
                let reply = Reply {
                    rid: request.rid.clone(),
                    status: crate::request::ReplyStatus::Intermediate,
                    body: crate::interactive::encode_intermediate(&next_queue, &body, &state),
                };
                self.enqueue_reply(&txn, request, reply)?;
                self.commit(txn)
            }
            Ok(HandlerOutcome::Forward { queue, request }) => {
                self.forward(&txn, &queue, &request)?;
                self.commit(txn)
            }
            Ok(HandlerOutcome::ForwardInheriting { queue, mut request }) => {
                // Lock inheritance cannot span partitions: the parked locks
                // live in this partition's lock manager, where the next
                // stage (homed on the target queue's partition) would never
                // find them — they would leak forever. Downgrade to a plain
                // forward; the next stage re-acquires its locks (DESIGN.md
                // S25).
                if self.repo.partition_of(&queue) != self.home {
                    rrq_obs::counter_inc("route.forward_inherit.downgraded");
                    self.forward(&txn, &queue, &request)?;
                    return self.commit(txn);
                }
                let parked = self.repo.tm_at(self.home).reserve_id();
                request.inherit_txn = Some(parked.raw());
                self.forward(&txn, &queue, &request)?;
                match txn.commit_inheriting_locks(parked) {
                    Ok(()) => {
                        rrq_check::protocol::emit_server(&self.cfg.server_name, || {
                            rrq_check::protocol::ServerEvent::Commit
                        });
                        self.stats.lock().committed += 1;
                        Ok(Served::Committed)
                    }
                    Err(e) => {
                        rrq_check::protocol::emit_server(&self.cfg.server_name, || {
                            rrq_check::protocol::ServerEvent::Abort
                        });
                        self.stats.lock().rolled += 1;
                        let _ = e;
                        Ok(Served::Rolled)
                    }
                }
            }
            Err(HandlerError::Reject(msg)) => {
                self.enqueue_reply(
                    &txn,
                    request,
                    Reply::failed(request.rid.clone(), msg.into_bytes()),
                )?;
                self.stats.lock().rejected += 1;
                let served = self.commit(txn);
                if matches!(served, Ok(Served::Committed)) {
                    rrq_obs::counter_inc("core.server.replies_committed");
                }
                served
            }
            Err(HandlerError::Abort(_)) => {
                txn.abort()?;
                rrq_check::protocol::emit_server(&self.cfg.server_name, || {
                    rrq_check::protocol::ServerEvent::Abort
                });
                self.stats.lock().aborted += 1;
                rrq_obs::counter_inc("core.server.handler_aborts");
                Ok(Served::Aborted)
            }
        }
    }

    fn enqueue_reply(&self, txn: &Txn, request: &Request, reply: Reply) -> CoreResult<()> {
        // The server enqueues into the client's reply queue named in the
        // request (§5 multi-client extension). The reply queue must exist;
        // requests naming unknown queues get their reply dropped (the client
        // would never see it anyway).
        let h = QueueHandle {
            queue: request.reply_queue.clone(),
            registrant: self.cfg.server_name.clone(),
        };
        let payload = reply.encode_to_vec();
        let opts = EnqueueOptions {
            attrs: vec![("rid".into(), reply.rid.to_attr())],
            ..Default::default()
        };
        let qm = self
            .repo
            .enlist_queue(txn, self.home, &request.reply_queue)?;
        match qm.enqueue(txn.id().raw(), &h, &payload, opts) {
            Ok(_) | Err(QmError::NoSuchQueue(_)) => {
                rrq_check::protocol::emit_server(&self.cfg.server_name, || {
                    rrq_check::protocol::ServerEvent::Reply {
                        rid: reply.rid.to_attr(),
                    }
                });
                Ok(())
            }
            Err(e) => Err(e.into()),
        }
    }

    fn forward(&self, txn: &Txn, queue: &str, request: &Request) -> CoreResult<()> {
        let h = QueueHandle {
            queue: queue.to_string(),
            registrant: self.cfg.server_name.clone(),
        };
        let payload = request.encode_to_vec();
        let opts = EnqueueOptions {
            attrs: vec![
                ("rid".into(), request.rid.to_attr()),
                ("reply_queue".into(), request.reply_queue.clone()),
            ],
            ..Default::default()
        };
        let qm = self.repo.enlist_queue(txn, self.home, queue)?;
        qm.enqueue(txn.id().raw(), &h, &payload, opts)?;
        rrq_check::protocol::emit_server(&self.cfg.server_name, || {
            rrq_check::protocol::ServerEvent::Forward {
                rid: request.rid.to_attr(),
            }
        });
        Ok(())
    }

    fn commit(&self, txn: Txn) -> CoreResult<Served> {
        let xpart = self.repo.partitions() > 1 && txn.enlisted() > 1;
        match txn.commit() {
            Ok(()) => {
                if xpart {
                    rrq_obs::counter_inc("txn.xpart.commits");
                }
                rrq_check::protocol::emit_server(&self.cfg.server_name, || {
                    rrq_check::protocol::ServerEvent::Commit
                });
                self.stats.lock().committed += 1;
                Ok(Served::Committed)
            }
            Err(TxnError::InvalidState(_)) | Err(TxnError::PrepareFailed(_)) => {
                // Poisoned by a cancel, or a participant failed to prepare:
                // the manager already aborted everything.
                if xpart {
                    rrq_obs::counter_inc("txn.xpart.aborts");
                }
                rrq_check::protocol::emit_server(&self.cfg.server_name, || {
                    rrq_check::protocol::ServerEvent::Abort
                });
                self.stats.lock().rolled += 1;
                Ok(Served::Rolled)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Run the loop on a thread, one epoch at a time, until `stop` is set.
    pub fn spawn(self: &Arc<Self>, stop: Arc<AtomicBool>) -> JoinHandle<()> {
        let me = Arc::clone(self);
        let name = format!("rrq-server-{}", self.cfg.server_name);
        crate::threads::spawn_named(name, move || {
            while !stop.load(Ordering::Acquire) {
                if me.run_epoch().is_err() {
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        })
    }
}

/// A running pool: the servers, their join handles, and the shared stop flag.
pub type Pool = (Vec<Arc<Server>>, Vec<JoinHandle<()>>, Arc<AtomicBool>);

/// Spawn `n` servers sharing one queue (§1 load sharing).
pub fn spawn_pool(
    repo: &Arc<Repository>,
    queue: &str,
    n: usize,
    handler: Handler,
) -> CoreResult<Pool> {
    let stop = Arc::new(AtomicBool::new(false));
    let mut servers = Vec::with_capacity(n);
    let mut handles = Vec::with_capacity(n);
    for i in 0..n {
        let cfg = ServerConfig::new(format!("server-{i}"), queue);
        let s = Server::new(Arc::clone(repo), cfg, Arc::clone(&handler))?;
        handles.push(s.spawn(Arc::clone(&stop)));
        servers.push(s);
    }
    Ok((servers, handles, stop))
}

/// Extract the rid attribute from a queue element (diagnostics).
pub fn element_rid(elem: &rrq_qm::element::Element) -> Option<Rid> {
    elem.attr("rid").and_then(Rid::from_attr)
}
