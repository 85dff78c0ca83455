//! Planned (epoch-batched, deterministic) request execution — the
//! `ExecMode::Planned` alternative to the §5 dequeue loop.
//!
//! The locked baseline lets every server race on the shared request queue
//! and arbitrates with 2PL: the element try-lock picks dequeue winners and
//! the account locks serialize conflicting handlers. Under high contention
//! both degenerate — servers queue on the same element locks and the lock
//! manager's stripes become the hot spot. Planned execution (after QueCC,
//! PAPERS.md) moves the arbitration off the hot path entirely:
//!
//! 1. **Plan.** A coordinator snapshots a batch of committed ready elements
//!    (the *epoch*), peeks each request's payload, and asks an [`AccessFn`]
//!    which lock keys the handler will touch. The batch becomes an
//!    [`EpochPlan`]: per-key FIFO queues in arrival-priority order.
//! 2. **Execute.** Workers pull any task whose index heads *all* of its key
//!    queues and run it **lock-free**: [`rrq_qm::ops::QueueManager::dequeue_planned`]
//!    skips the element try-lock (the plan already assigned the element to
//!    exactly one transaction) and the transaction's plan scope degrades
//!    `lock_exclusive`/`lock_shared` to membership checks. Results are
//!    handed down each key queue speculatively: a commit is visible to the
//!    next task on the key immediately, while durability and the
//!    ready-index/notification mirror are deferred to the epoch close.
//! 3. **Commit.** The epoch close forces the home partition's WAL once for
//!    the whole batch ([`rrq_storage::kv::KvStore::force_wal`]) and then
//!    applies the buffered mirrors ([`rrq_qm::ops::QueueManager::apply_epoch`]),
//!    at which point clerk wakeups fire — a client can only ever observe a
//!    durable reply.
//!
//! **Misspeculation.** A handler that touches an undeclared key gets
//! [`rrq_txn::TxnError::OutsidePlan`], aborts, and the executor *replans*
//! it: the task re-enters the epoch at the back of its (widened) key queues.
//! Any other in-epoch abort (handler `Abort`, cancel poison) counts as a
//! misspeculation too; the element is redisposed by the normal abort path
//! and reappears in a later epoch. Speculative reads of an aborted
//! transaction's writes are impossible by construction: a task's commit
//! *precedes* `complete`, so a successor on the key only ever starts after
//! its predecessor resolved.
//!
//! **Crash windows.** Plan window: nothing committed, the batch is
//! re-formed after recovery. Execute window: commits are in the WAL but
//! unforced — a crash drops them and the requests are reprocessed
//! (exactly-once holds: dequeue + effects + reply are one transaction).
//! Commit window (post-force, pre-apply): effects are durable; recovery
//! rebuilds the ready index from storage, so the mirror is never lost. The
//! [`EpochHook`] lets tests abandon an epoch at each window boundary to pin
//! these down.
//!
//! **Known caveat**: a `KillElement` racing the execute phase may poison a
//! planned transaction after the plan assigned it the element;
//! `dequeue_planned` checks the kill tombstone once at take time, so a kill
//! landing later surfaces as a commit-time poison → misspeculation, exactly
//! like the locked path's poisoned commit.

use crate::error::{CoreError, CoreResult};
use crate::request::{Reply, Request};
use crate::server::{Handler, HandlerError, HandlerOutcome, ServerCtx};
use parking_lot::{Condvar, Mutex};
use rrq_qm::ops::{EnqueueOptions, QueueHandle};
use rrq_qm::repository::{ExecMode, Repository};
use rrq_qm::QmError;
use rrq_storage::codec::{Decode, Encode};
use rrq_txn::{EpochPlan, LockKey, Txn, TxnError};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Derives the lock keys a request's handler will touch, from the request
/// alone — the planner's access-set oracle. `None` marks the request
/// *unplannable*: the executor runs it solo (after the lock-free tasks, with
/// real locks) instead of guessing a scope that would misspeculate.
pub type AccessFn = Arc<dyn Fn(&Request) -> Option<Vec<LockKey>> + Send + Sync>;

/// Epoch lifecycle points where the crash hook is consulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochWindow {
    /// Batch formed and planned; nothing executed yet.
    Plan,
    /// Every task resolved; commits appended to the WAL but not forced.
    Execute,
    /// WAL forced; ready-index/notification mirrors not yet applied.
    Commit,
}

/// Test hook consulted at each [`EpochWindow`] boundary with the epoch
/// number. Returning `true` abandons the epoch mid-flight — the caller is
/// expected to crash the repository (the abandoned state is exactly what a
/// crash at that window leaves behind).
pub type EpochHook = Arc<dyn Fn(u64, EpochWindow) -> bool + Send + Sync>;

/// Planned-pool configuration.
#[derive(Debug, Clone)]
pub struct PlannedConfig {
    /// Name used for queue registration and protocol-event attribution.
    pub pool_name: String,
    /// Input queue.
    pub request_queue: String,
    /// Execute-phase worker threads (1 ⇒ the coordinator runs tasks inline,
    /// strictly in plan priority order — the deterministic mode the
    /// equivalence tests pin).
    pub workers: usize,
    /// Largest batch one epoch may take.
    pub batch_max: usize,
    /// Idle poll window between epochs when the queue is empty.
    pub block: Duration,
}

impl PlannedConfig {
    /// Defaults: 1 worker, 128-element epochs, 200 ms idle poll.
    pub fn new(pool_name: impl Into<String>, request_queue: impl Into<String>) -> Self {
        PlannedConfig {
            pool_name: pool_name.into(),
            request_queue: request_queue.into(),
            workers: 1,
            batch_max: 128,
            block: Duration::from_millis(200),
        }
    }
}

/// Counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlannedStats {
    /// Epochs closed (force + apply completed).
    pub epochs: u64,
    /// Requests committed.
    pub committed: u64,
    /// Rejected (Failed reply) requests.
    pub rejected: u64,
    /// In-epoch aborts of any kind.
    pub misspeculations: u64,
    /// Tasks re-entered into their epoch with a widened scope.
    pub replans: u64,
    /// Unplannable requests executed solo with real locks.
    pub solo: u64,
}

/// One epoch task: the element assignment plus everything the plan phase
/// learned about it.
#[derive(Clone)]
struct Task {
    ekey: Vec<u8>,
    /// `None`: payload did not decode — the task commits the dequeue with no
    /// reply, mirroring [`crate::server::Server`]'s malformed-request drop.
    request: Option<Request>,
    /// Declared scope (sorted, deduped). Empty for solo tasks.
    access: Vec<LockKey>,
}

/// What one task execution asks the plan to do next.
enum TaskOutcome {
    /// Resolved (committed, skipped, or deferred to a later epoch).
    Done,
    /// Misspeculated on scope: re-enter with these extra keys.
    Replan(Vec<LockKey>),
}

/// Execute-phase state shared between the coordinator and the workers.
#[derive(Default)]
struct Shared {
    plan: EpochPlan,
    tasks: Vec<Task>,
    /// Workers currently running a task.
    running: usize,
    /// An epoch's execute phase is open.
    active: bool,
    shutdown: bool,
}

/// The planned executor: one coordinator forming epochs over a request
/// queue, plus an optional worker pool for the execute phase.
pub struct PlannedPool {
    repo: Arc<Repository>,
    handler: Handler,
    access: AccessFn,
    cfg: PlannedConfig,
    handle: QueueHandle,
    home: usize,
    stats: Mutex<PlannedStats>,
    shared: Mutex<Shared>,
    cv: Condvar,
    epoch: AtomicU64,
    workers_alive: AtomicUsize,
    hook: Mutex<Option<EpochHook>>,
}

impl PlannedPool {
    /// Build a pool; registers with the request queue immediately. The
    /// repository must have been opened with [`ExecMode::Planned`] — on a
    /// locked repository the deferral machinery would fight the dequeue-loop
    /// servers for the same elements.
    pub fn new(
        repo: Arc<Repository>,
        cfg: PlannedConfig,
        handler: Handler,
        access: AccessFn,
    ) -> CoreResult<Arc<Self>> {
        if repo.exec_mode() != ExecMode::Planned {
            return Err(CoreError::Protocol(
                "PlannedPool requires a repository opened with ExecMode::Planned".into(),
            ));
        }
        let home = repo.partition_of(&cfg.request_queue);
        let (handle, _) = repo
            .qm_at(home)
            .register(&cfg.request_queue, &cfg.pool_name, false)?;
        Ok(Arc::new(PlannedPool {
            repo,
            handler,
            access,
            cfg,
            handle,
            home,
            stats: Mutex::new(PlannedStats::default()),
            shared: Mutex::new(Shared::default()),
            cv: Condvar::new(),
            epoch: AtomicU64::new(0),
            workers_alive: AtomicUsize::new(0),
            hook: Mutex::new(None),
        }))
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PlannedStats {
        *self.stats.lock()
    }

    /// Install the crash-window hook (tests only).
    pub fn set_epoch_hook(&self, hook: EpochHook) {
        *self.hook.lock() = Some(hook);
    }

    fn hook_fires(&self, epoch: u64, window: EpochWindow) -> bool {
        let hook = self.hook.lock().clone();
        hook.map(|h| h(epoch, window)).unwrap_or(false)
    }

    /// Form, execute, and close one epoch. Returns the number of tasks
    /// resolved (0 when the queue had nothing ready, or when the epoch was
    /// abandoned by the hook before its close).
    pub fn run_epoch(&self) -> CoreResult<usize> {
        let qm = self.repo.qm_at(self.home);
        let batch = qm.ready_batch(&self.cfg.request_queue, self.cfg.batch_max)?;
        if batch.is_empty() {
            return Ok(0);
        }
        let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        rrq_obs::counter_inc("txn.plan.epochs");
        rrq_obs::observe("txn.plan.batch_size", batch.len() as u64);

        // Plan phase: peek payloads, derive access sets.
        let mut planned = Vec::new();
        let mut solo = Vec::new();
        for (ekey, eid) in batch {
            // An entry may race with a committed dequeue from an earlier
            // incarnation of this pool; a vanished element just drops out.
            let request = match qm.read(eid) {
                Ok(elem) => Request::decode_all(&elem.payload).ok(),
                Err(_) => continue,
            };
            match request.as_ref().and_then(|r| (self.access)(r)) {
                Some(mut keys) => {
                    keys.sort();
                    keys.dedup();
                    planned.push(Task {
                        ekey,
                        request,
                        access: keys,
                    });
                }
                None => solo.push(Task {
                    ekey,
                    request,
                    access: Vec::new(),
                }),
            }
        }
        if self.hook_fires(epoch, EpochWindow::Plan) {
            return Ok(0);
        }

        // Execute phase: lock-free planned tasks first (workers or inline),
        // then the unplannable tail solo — real locks must never overlap
        // with transactions whose locking is a membership check.
        let n_planned = self.execute_planned(planned)?;
        let mut n_solo = 0;
        for t in &solo {
            self.stats.lock().solo += 1;
            let _ = self.exec_task(t, false, 0);
            n_solo += 1;
        }
        let exec_done = rrq_obs::now();
        if self.hook_fires(epoch, EpochWindow::Execute) {
            return Ok(0);
        }

        // Commit phase: durable first, visible second.
        self.repo
            .store_at(self.home)
            .force_wal()
            .map_err(QmError::Storage)?;
        if self.hook_fires(epoch, EpochWindow::Commit) {
            return Ok(0);
        }
        qm.apply_epoch();
        rrq_obs::observe(
            "core.epoch.commit_wait_ticks",
            rrq_obs::now().saturating_sub(exec_done),
        );
        self.stats.lock().epochs += 1;
        Ok(n_planned + n_solo)
    }

    /// Run the planned tasks of one epoch to completion; returns how many
    /// task slots resolved (replans count again).
    fn execute_planned(&self, tasks: Vec<Task>) -> CoreResult<usize> {
        if tasks.is_empty() {
            return Ok(0);
        }
        let plan = EpochPlan::build(&tasks.iter().map(|t| t.access.clone()).collect::<Vec<_>>());
        let mut g = self.shared.lock();
        g.plan = plan;
        g.tasks = tasks;
        g.active = true;
        if self.workers_alive.load(Ordering::Acquire) == 0 {
            // Inline: strictly plan priority order, one task at a time.
            let mut resolved = 0;
            while let Some(i) = g.plan.next_ready() {
                let task = g.tasks[i].clone();
                drop(g);
                let outcome = self.exec_task(&task, true, 0);
                g = self.shared.lock();
                resolved += 1;
                self.settle(&mut g, i, &task, outcome);
            }
            g.active = false;
            return Ok(resolved);
        }
        // Worker pool: hand the plan over and wait for quiescence.
        self.cv.notify_all();
        while !(g.plan.is_done() && g.running == 0) {
            self.cv.wait(&mut g);
        }
        g.active = false;
        Ok(g.plan.len())
    }

    /// Apply one task's outcome to the shared plan (lock held by caller).
    fn settle(&self, g: &mut Shared, i: usize, task: &Task, outcome: TaskOutcome) {
        match outcome {
            TaskOutcome::Done => g.plan.complete(i),
            TaskOutcome::Replan(extra) => {
                let ni = g.plan.replan(i, &extra);
                let mut widened = task.clone();
                widened.access.extend(extra);
                widened.access.sort();
                widened.access.dedup();
                debug_assert_eq!(ni, g.tasks.len());
                g.tasks.push(widened);
                rrq_obs::counter_inc("txn.plan.replans");
                self.stats.lock().replans += 1;
            }
        }
    }

    /// The execute-phase worker loop (spawned by [`PlannedPool::spawn`]).
    /// Exits only on the coordinator-set shutdown flag — never on the raw
    /// stop flag, which may land mid-epoch while the coordinator still waits
    /// for this worker's tasks.
    fn worker_loop(&self, idx: usize) {
        loop {
            let (i, task) = {
                let mut g = self.shared.lock();
                loop {
                    if g.shutdown {
                        return;
                    }
                    if g.active {
                        if let Some(i) = g.plan.next_ready() {
                            g.running += 1;
                            break (i, g.tasks[i].clone());
                        }
                    }
                    // Parked until a completion frees a queue head, the
                    // coordinator opens an epoch, or shutdown.
                    self.cv.wait(&mut g);
                }
            };
            let outcome = self.exec_task(&task, true, idx);
            let mut g = self.shared.lock();
            g.running -= 1;
            self.settle(&mut g, i, &task, outcome);
            self.cv.notify_all();
        }
    }

    /// Protocol-event source name for one executing thread. Per-thread (not
    /// per-pool) so the conformance oracle sees a well-formed per-server
    /// event sequence.
    fn event_source(&self, worker: usize) -> String {
        format!("{}-w{worker}", self.cfg.pool_name)
    }

    /// Run one task in its own transaction. `planned` selects the lock-free
    /// path (scope + deferred mirror); solo tasks take real locks but still
    /// defer durability to the epoch close.
    fn exec_task(&self, task: &Task, planned: bool, worker: usize) -> TaskOutcome {
        let source = self.event_source(worker);
        let qm = self.repo.qm_at(self.home);
        let txn = match self.repo.begin_on_part(self.home) {
            Ok(t) => t,
            Err(_) => {
                rrq_obs::counter_inc("core.planned.task_errors");
                return TaskOutcome::Done;
            }
        };
        let tid = txn.id().raw();
        qm.mark_planned(tid);
        if planned {
            txn.set_plan_scope(task.access.iter().cloned());
            // The plan's per-key queues are logical locks: publish the same
            // happens-before edges the lock manager would, so the race
            // detector sees plan-ordered accesses as ordered.
            for k in &task.access {
                rrq_check::race::lock_acquired(k.ns, &k.key);
            }
        }
        let outcome = self.exec_task_body(txn, task, planned, &source);
        if planned {
            for k in &task.access {
                rrq_check::race::lock_released(k.ns, &k.key);
            }
        }
        outcome
    }

    fn exec_task_body(&self, txn: Txn, task: &Task, planned: bool, source: &str) -> TaskOutcome {
        let qm = self.repo.qm_at(self.home);
        let tid = txn.id().raw();
        match qm.dequeue_planned(tid, &self.handle, &task.ekey) {
            // The payload was already decoded at plan time; the element
            // itself is not needed again.
            Ok(Some(_)) => {}
            Ok(None) => {
                // Gone: consumed by an earlier epoch, redisposed by an
                // abort, or tombstoned by a kill. Drop the task.
                let _ = txn.abort();
                return TaskOutcome::Done;
            }
            Err(_) => {
                let _ = txn.abort();
                rrq_obs::counter_inc("core.planned.task_errors");
                return TaskOutcome::Done;
            }
        }
        let Some(request) = &task.request else {
            // Undecodable payload: commit the dequeue with no reply.
            rrq_check::protocol::emit_server(source, || {
                rrq_check::protocol::ServerEvent::DropMalformed
            });
            return self.commit_task(txn, source, false);
        };
        rrq_check::protocol::emit_server(source, || rrq_check::protocol::ServerEvent::Dequeue {
            rid: request.rid.to_attr(),
        });
        let outcome = {
            let ctx = ServerCtx {
                txn: &txn,
                repo: &self.repo,
                home: self.home,
            };
            (self.handler)(&ctx, request)
        };
        match outcome {
            Ok(HandlerOutcome::Reply(body)) => {
                if self
                    .enqueue_reply(&txn, request, Reply::ok(request.rid.clone(), body), source)
                    .is_err()
                {
                    return self.abort_task(txn, planned, source);
                }
                self.commit_task(txn, source, true)
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
                if self.enqueue_reply(&txn, request, reply, source).is_err() {
                    return self.abort_task(txn, planned, source);
                }
                self.commit_task(txn, source, false)
            }
            Ok(HandlerOutcome::Forward { queue, request })
            | Ok(HandlerOutcome::ForwardInheriting { queue, request }) => {
                // Planned transactions hold no transferable locks, so the
                // inheriting variant degrades to a plain forward — the next
                // stage re-acquires (same downgrade the partitioned locked
                // path takes, DESIGN.md S25).
                if self.forward(&txn, &queue, &request, source).is_err() {
                    return self.abort_task(txn, planned, source);
                }
                self.commit_task(txn, source, false)
            }
            Err(HandlerError::Reject(msg)) => {
                if self
                    .enqueue_reply(
                        &txn,
                        request,
                        Reply::failed(request.rid.clone(), msg.into_bytes()),
                        source,
                    )
                    .is_err()
                {
                    return self.abort_task(txn, planned, source);
                }
                self.stats.lock().rejected += 1;
                self.commit_task(txn, source, true)
            }
            Err(HandlerError::Abort(_)) => self.abort_task(txn, planned, source),
        }
    }

    /// Abort and decide between replan (scope misspeculation) and deferral
    /// (any other in-epoch abort).
    fn abort_task(&self, txn: Txn, planned: bool, source: &str) -> TaskOutcome {
        let violations = txn.plan_violations();
        let _ = txn.abort();
        rrq_check::protocol::emit_server(source, || rrq_check::protocol::ServerEvent::Abort);
        rrq_obs::counter_inc("txn.plan.misspeculations");
        self.stats.lock().misspeculations += 1;
        if planned && !violations.is_empty() {
            TaskOutcome::Replan(violations)
        } else {
            TaskOutcome::Done
        }
    }

    /// Commit, translating the poisoned-commit outcomes the way
    /// [`crate::server::Server`] does. `count_reply` marks transactions
    /// carrying a final reply, counted toward `core.server.replies_committed`
    /// only when the commit actually lands (metrics law D).
    fn commit_task(&self, txn: Txn, source: &str, count_reply: bool) -> TaskOutcome {
        match txn.commit() {
            Ok(()) => {
                rrq_check::protocol::emit_server(source, || {
                    rrq_check::protocol::ServerEvent::Commit
                });
                self.stats.lock().committed += 1;
                if count_reply {
                    rrq_obs::counter_inc("core.server.replies_committed");
                }
                TaskOutcome::Done
            }
            Err(TxnError::InvalidState(_)) | Err(TxnError::PrepareFailed(_)) => {
                // Poisoned by a cancel: the manager already aborted.
                rrq_check::protocol::emit_server(source, || {
                    rrq_check::protocol::ServerEvent::Abort
                });
                rrq_obs::counter_inc("txn.plan.misspeculations");
                self.stats.lock().misspeculations += 1;
                TaskOutcome::Done
            }
            Err(_) => {
                rrq_check::protocol::emit_server(source, || {
                    rrq_check::protocol::ServerEvent::Abort
                });
                rrq_obs::counter_inc("core.planned.task_errors");
                TaskOutcome::Done
            }
        }
    }

    /// Enqueue a reply into the queue named by the request; `Err` means the
    /// caller must abort the transaction.
    fn enqueue_reply(
        &self,
        txn: &Txn,
        request: &Request,
        reply: Reply,
        source: &str,
    ) -> Result<(), QmError> {
        let h = QueueHandle {
            queue: request.reply_queue.clone(),
            registrant: self.cfg.pool_name.clone(),
        };
        let payload = reply.encode_to_vec();
        let opts = EnqueueOptions {
            attrs: vec![("rid".into(), reply.rid.to_attr())],
            ..Default::default()
        };
        match qm_enlisted(&self.repo, txn, self.home, &request.reply_queue)
            .and_then(|qm| qm.enqueue(txn.id().raw(), &h, &payload, opts))
        {
            Ok(_) | Err(QmError::NoSuchQueue(_)) => {
                rrq_check::protocol::emit_server(source, || {
                    rrq_check::protocol::ServerEvent::Reply {
                        rid: reply.rid.to_attr(),
                    }
                });
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Forward the request to the next stage's queue; `Err` means the caller
    /// must abort the transaction.
    fn forward(
        &self,
        txn: &Txn,
        queue: &str,
        request: &Request,
        source: &str,
    ) -> Result<(), QmError> {
        let h = QueueHandle {
            queue: queue.to_string(),
            registrant: self.cfg.pool_name.clone(),
        };
        let payload = request.encode_to_vec();
        let opts = EnqueueOptions {
            attrs: vec![
                ("rid".into(), request.rid.to_attr()),
                ("reply_queue".into(), request.reply_queue.clone()),
            ],
            ..Default::default()
        };
        match qm_enlisted(&self.repo, txn, self.home, queue)
            .and_then(|qm| qm.enqueue(txn.id().raw(), &h, &payload, opts))
        {
            Ok(_) => {
                rrq_check::protocol::emit_server(source, || {
                    rrq_check::protocol::ServerEvent::Forward {
                        rid: request.rid.to_attr(),
                    }
                });
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Run the epoch loop until `stop` is set, plus `workers` execute-phase
    /// worker threads when `workers > 1` (with one worker the coordinator
    /// executes tasks inline, strictly in plan priority order).
    pub fn spawn(self: &Arc<Self>, stop: Arc<AtomicBool>) -> Vec<JoinHandle<()>> {
        let mut handles = Vec::new();
        if self.cfg.workers > 1 {
            for i in 0..self.cfg.workers {
                let me = Arc::clone(self);
                self.workers_alive.fetch_add(1, Ordering::AcqRel);
                handles.push(crate::threads::spawn_named(
                    format!("rrq-planned-{}-w{}", self.cfg.pool_name, i + 1),
                    move || {
                        me.worker_loop(i + 1);
                        me.workers_alive.fetch_sub(1, Ordering::AcqRel);
                    },
                ));
            }
        }
        let me = Arc::clone(self);
        let st = Arc::clone(&stop);
        handles.insert(
            0,
            crate::threads::spawn_named(format!("rrq-planned-{}", self.cfg.pool_name), move || {
                while !st.load(Ordering::Acquire) {
                    match me.run_epoch() {
                        Ok(0) => std::thread::sleep(me.cfg.block.min(Duration::from_millis(2))),
                        Ok(_) => {}
                        Err(_) => std::thread::sleep(Duration::from_millis(10)),
                    }
                }
                // Unpark the workers so they see the stop flag.
                let mut g = me.shared.lock();
                g.shutdown = true;
                me.cv.notify_all();
            }),
        );
        handles
    }
}

/// Enlist the partition owning `queue` and return its queue manager (the
/// home manager under the single-partition constraint `open_with` enforces
/// for planned mode, but written through the routing door anyway).
fn qm_enlisted<'r>(
    repo: &'r Arc<Repository>,
    txn: &Txn,
    home: usize,
    queue: &str,
) -> Result<&'r Arc<rrq_qm::ops::QueueManager>, QmError> {
    repo.enlist_queue(txn, home, queue)
}
