//! Remote procedure call and one-way messaging over the bus.
//!
//! [`RpcClient::call`] is the clerk's normal path (§5: "the clerk invokes QM
//! operations using remote procedure call"); [`RpcClient::send_one_way`] is
//! the §5 optimization where `Send` forgoes the enqueue acknowledgement —
//! "this saves a message from the QM to the client in the common case that
//! the reply arrives within the client's timeout period".

use crate::bus::{Endpoint, Envelope, NetworkBus};
use crate::error::{NetError, NetResult};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client half: issues requests from its own endpoint and matches replies by
/// correlation id.
pub struct RpcClient {
    endpoint: Endpoint,
    next_corr: AtomicU64,
    /// Counters: (calls, one_way_sends, retries).
    calls: AtomicU64,
    one_ways: AtomicU64,
}

impl RpcClient {
    /// Create a client endpoint named `name` on `bus`.
    pub fn new(bus: &NetworkBus, name: &str) -> Self {
        RpcClient {
            endpoint: bus.endpoint(name),
            next_corr: AtomicU64::new(1),
            calls: AtomicU64::new(0),
            one_ways: AtomicU64::new(0),
        }
    }

    /// This client's endpoint name.
    pub fn name(&self) -> &str {
        self.endpoint.name()
    }

    /// Its bus's observation handle.
    pub fn obs(&self) -> &rrq_obs::Obs {
        self.endpoint.bus().obs()
    }

    /// (rpc calls, one-way sends) so far.
    pub fn counts(&self) -> (u64, u64) {
        (
            self.calls.load(Ordering::Acquire),
            self.one_ways.load(Ordering::Acquire),
        )
    }

    /// Synchronous request/response. Envelopes that arrive with a stale
    /// correlation id (replies to calls that already timed out) are
    /// discarded.
    pub fn call(&self, to: &str, payload: Vec<u8>, timeout: Duration) -> NetResult<Vec<u8>> {
        self.calls.fetch_add(1, Ordering::AcqRel);
        self.obs().counter_inc("net.rpc.calls");
        let corr = self.next_corr.fetch_add(1, Ordering::AcqRel);
        self.endpoint.send_to(to, corr, false, payload)?;
        let deadline = Instant::now() + timeout;
        loop {
            let now = Instant::now();
            if now >= deadline {
                self.obs().counter_inc("net.rpc.timeouts");
                return Err(NetError::Timeout);
            }
            let env = self.endpoint.recv(deadline - now)?;
            if env.is_reply && env.correlation == corr {
                return Ok(env.payload);
            }
            // Stale or unexpected: drop and keep waiting.
        }
    }

    /// Fire-and-forget send; no acknowledgement, no failure signal beyond
    /// local misconfiguration.
    pub fn send_one_way(&self, to: &str, payload: Vec<u8>) -> NetResult<()> {
        self.one_ways.fetch_add(1, Ordering::AcqRel);
        self.endpoint.send_to(to, 0, false, payload)
    }
}

/// Server half: receives requests on its endpoint and replies through the
/// handler's return value.
pub struct RpcServer {
    endpoint: Endpoint,
}

impl RpcServer {
    /// Create a server endpoint named `name` on `bus`.
    pub fn new(bus: &NetworkBus, name: &str) -> Self {
        RpcServer {
            endpoint: bus.endpoint(name),
        }
    }

    /// Receive one request (up to `timeout`) and answer it with `handler`.
    /// One-way messages (correlation 0) are handled without replying.
    /// Returns `false` on timeout.
    pub fn serve_one(
        &self,
        timeout: Duration,
        handler: impl FnOnce(&Envelope) -> Vec<u8>,
    ) -> NetResult<bool> {
        match self.endpoint.recv(timeout) {
            Ok(env) => {
                let response = handler(&env);
                if env.correlation != 0 {
                    match self
                        .endpoint
                        .send_to(&env.from, env.correlation, true, response)
                    {
                        // A reply that can't reach the caller (fail-fast
                        // partition, or the caller's endpoint restarted away)
                        // is a lost message, not a server fault — the caller
                        // times out and resynchronizes, the server keeps
                        // serving.
                        Err(NetError::Partitioned | NetError::UnknownEndpoint(_)) => {}
                        other => other?,
                    }
                }
                Ok(true)
            }
            Err(NetError::Timeout) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Serve until `stop` returns true, with a poll interval for the stop
    /// check.
    pub fn serve_until(
        &self,
        stop: impl Fn() -> bool,
        handler: impl Fn(&Envelope) -> Vec<u8>,
    ) -> NetResult<()> {
        while !stop() {
            self.serve_one(Duration::from_millis(20), &handler)?;
        }
        Ok(())
    }
}

/// Spawn a server loop on a thread; returns a shutdown guard.
pub fn spawn_server(
    bus: &NetworkBus,
    name: &str,
    handler: impl Fn(&Envelope) -> Vec<u8> + Send + 'static,
) -> ServerGuard {
    let server = RpcServer::new(bus, name);
    let stop = Arc::new(AtomicU64::new(0));
    let stop2 = Arc::clone(&stop);
    let handle = std::thread::spawn(move || {
        let _ = server.serve_until(|| stop2.load(Ordering::Acquire) != 0, handler);
    });
    ServerGuard {
        stop,
        handle: Some(handle),
    }
}

/// Stops the spawned server when dropped.
pub struct ServerGuard {
    stop: Arc<AtomicU64>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ServerGuard {
    /// Stop the server and join its thread.
    pub fn shutdown(mut self) {
        self.stop.store(1, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerGuard {
    fn drop(&mut self) {
        self.stop.store(1, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_rpc() {
        let bus = NetworkBus::new(1);
        let _guard = spawn_server(&bus, "server", |env| {
            let mut out = b"echo:".to_vec();
            out.extend_from_slice(&env.payload);
            out
        });
        let client = RpcClient::new(&bus, "client");
        let reply = client
            .call("server", b"hello".to_vec(), Duration::from_secs(2))
            .unwrap();
        assert_eq!(reply, b"echo:hello");
        assert_eq!(client.counts(), (1, 0));
    }

    #[test]
    fn rpc_times_out_without_server() {
        let bus = NetworkBus::new(1);
        bus.endpoint("server"); // exists but nobody serves
        let client = RpcClient::new(&bus, "client");
        let r = client.call("server", b"x".to_vec(), Duration::from_millis(50));
        assert_eq!(r, Err(NetError::Timeout));
    }

    #[test]
    fn rpc_times_out_under_partition_then_recovers() {
        let bus = NetworkBus::new(1);
        let _guard = spawn_server(&bus, "server", |_| b"ok".to_vec());
        let client = RpcClient::new(&bus, "client");
        bus.faults().partition_pair("client", "server");
        assert_eq!(
            client.call("server", vec![], Duration::from_millis(60)),
            Err(NetError::Timeout)
        );
        bus.faults().heal_pair("client", "server");
        assert_eq!(
            client
                .call("server", vec![], Duration::from_secs(2))
                .unwrap(),
            b"ok"
        );
    }

    #[test]
    fn stale_replies_are_discarded() {
        let bus = NetworkBus::new(1);
        // A slow server: delays the first reply past the client timeout.
        bus.faults()
            .set_delay("server", "client", Duration::from_millis(80));
        let _guard = spawn_server(&bus, "server", |env| env.payload.clone());
        let client = RpcClient::new(&bus, "client");
        assert_eq!(
            client.call("server", b"first".to_vec(), Duration::from_millis(30)),
            Err(NetError::Timeout)
        );
        bus.faults().set_delay("server", "client", Duration::ZERO);
        // The second call must get the *second* reply even though the first,
        // late reply arrives in between.
        let r = client
            .call("server", b"second".to_vec(), Duration::from_secs(2))
            .unwrap();
        assert_eq!(r, b"second");
    }

    #[test]
    fn server_survives_unreachable_reply_path() {
        let bus = NetworkBus::new(1);
        bus.faults().set_fail_fast(true);
        let _guard = spawn_server(&bus, "server", |_| b"ok".to_vec());
        let client = RpcClient::new(&bus, "client");
        // Requests get through; replies are refused fail-fast. The server
        // loop must shrug that off rather than die.
        bus.faults().partition("server", "client");
        assert_eq!(
            client.call("server", vec![], Duration::from_millis(60)),
            Err(NetError::Timeout)
        );
        bus.faults().heal("server", "client");
        assert_eq!(
            client
                .call("server", vec![], Duration::from_secs(2))
                .unwrap(),
            b"ok"
        );
    }

    #[test]
    fn one_way_send_reaches_server() {
        let bus = NetworkBus::new(1);
        let (tx, rx) = crossbeam::channel::unbounded();
        let _guard = spawn_server(&bus, "server", move |env| {
            tx.send(env.payload.clone()).unwrap();
            vec![]
        });
        let client = RpcClient::new(&bus, "client");
        client.send_one_way("server", b"fire".to_vec()).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(2)).unwrap(), b"fire");
        assert_eq!(client.counts(), (0, 1));
    }
}
