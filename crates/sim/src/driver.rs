//! The client crash driver: the Fig 2 program ([`ClientRuntime`]) with
//! crashes injectable at every state of the Fig 1 state-transition diagram.
//!
//! A "crash" abandons the clerk instance (its in-memory state is lost — the
//! process died) and starts a new incarnation, which resynchronizes through
//! [`ClientRuntime::resume`] (Fig 2 lines 2–11). The physical device (the
//! [`rrq_core::client::ReplyProcessor`]) survives, like a real printer
//! would.

use rrq_core::clerk::Clerk;
use rrq_core::client::{ClientRuntime, ReplyProcessor, ResyncAction};
use rrq_core::error::{CoreError, CoreResult};
use std::collections::HashSet;

/// Where in the request lifecycle the client process dies (Fig 1 states).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// Crash after `Send` returns, before `Receive` — the reply (when it
    /// arrives) waits in the reply queue.
    AfterSend,
    /// Crash after `Receive` returns, before the reply is processed — the
    /// reply must be re-obtained (Rereceive) and processed again.
    AfterReceive,
    /// Crash after the reply is processed, before the next `Send` — resync
    /// must detect the reply was already processed and *not* repeat it.
    AfterProcess,
}

/// What a full driven run observed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DriverReport {
    /// Requests whose replies were processed at least once.
    pub completed: u64,
    /// Client process incarnations (1 = no crashes).
    pub incarnations: u64,
    /// Resyncs that found an outstanding request and received its reply.
    pub resync_received: u64,
    /// Resyncs that re-processed a possibly-unprocessed reply (Rereceive).
    pub resync_reprocessed: u64,
    /// Resyncs where the device proved the reply was already processed.
    pub resync_already_processed: u64,
}

/// Drives one client identity through `n_requests` sequential requests,
/// crashing according to the schedule. Each incarnation is a fresh
/// [`ClientRuntime`]; crashes fall between its steps.
pub struct ClientCrashDriver<F: Fn() -> Clerk> {
    make_clerk: F,
    op: String,
}

impl<F: Fn() -> Clerk> ClientCrashDriver<F> {
    /// `make_clerk` builds the clerk of a fresh process incarnation (same
    /// client id each time).
    pub fn new(make_clerk: F, op: impl Into<String>) -> Self {
        ClientCrashDriver {
            make_clerk,
            op: op.into(),
        }
    }

    /// Run to completion. `schedule(serial)` names the crash to inject while
    /// processing that serial — injected at most once per (serial, point).
    /// `body(serial)` builds each request body.
    pub fn run(
        &self,
        n_requests: u64,
        schedule: impl Fn(u64) -> Option<CrashPoint>,
        body: impl Fn(u64) -> Vec<u8>,
        processor: &mut dyn ReplyProcessor,
    ) -> CoreResult<DriverReport> {
        let mut report = DriverReport::default();
        let mut injected: HashSet<(u64, CrashPoint)> = HashSet::new();
        // Hard bound: every injected crash adds one incarnation; anything
        // beyond schedule size + n_requests indicates livelock.
        let max_incarnations = 3 * n_requests + 10;

        'incarnation: loop {
            report.incarnations += 1;
            if report.incarnations > max_incarnations {
                return Err(CoreError::Protocol(
                    "crash driver livelocked: too many incarnations".into(),
                ));
            }
            let mut client = ClientRuntime::new((self.make_clerk)());
            match client.resume(processor)? {
                ResyncAction::Fresh => {}
                ResyncAction::ReceivedOutstanding { .. } => {
                    report.resync_received += 1;
                    report.completed += 1;
                }
                ResyncAction::AlreadyProcessed { .. } => report.resync_already_processed += 1,
                ResyncAction::Reprocessed { .. } => {
                    report.resync_reprocessed += 1;
                    report.completed += 1;
                }
            }

            while client.next_serial() <= n_requests {
                let serial = client.next_serial();
                let crash = schedule(serial).filter(|p| injected.insert((serial, *p)));
                let rid = client.send(&self.op, body(serial))?;
                if crash == Some(CrashPoint::AfterSend) {
                    continue 'incarnation; // process dies
                }
                let reply = client.receive(&rid, processor)?;
                if crash == Some(CrashPoint::AfterReceive) {
                    continue 'incarnation; // reply received, never processed
                }
                processor.process(&rid, &reply);
                report.completed += 1;
                if crash == Some(CrashPoint::AfterProcess) {
                    continue 'incarnation;
                }
            }
            client.disconnect()?;
            return Ok(report);
        }
    }
}
