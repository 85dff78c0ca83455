//! The in-process message bus: named endpoints exchanging envelopes, with
//! every delivery routed through the [`crate::faults::FaultPlan`].

use crate::error::{NetError, NetResult};
use crate::faults::{FaultPlan, Verdict};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use rrq_obs::Obs;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// A message in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Sender endpoint name.
    pub from: String,
    /// Destination endpoint name.
    pub to: String,
    /// Correlates replies to requests (0 for one-way messages).
    pub correlation: u64,
    /// True when this envelope answers a request.
    pub is_reply: bool,
    /// Opaque payload.
    pub payload: Vec<u8>,
}

struct BusInner {
    endpoints: Mutex<HashMap<String, Sender<Envelope>>>,
    faults: FaultPlan,
    delivered: Mutex<u64>,
    obs: Obs,
}

/// The shared network. Cheap to clone.
#[derive(Clone)]
pub struct NetworkBus {
    inner: Arc<BusInner>,
}

impl NetworkBus {
    /// A bus with fault decisions seeded by `seed` and a dormant handle.
    pub fn new(seed: u64) -> Self {
        NetworkBus {
            inner: Arc::new(BusInner {
                endpoints: Mutex::new(HashMap::new()),
                faults: FaultPlan::new(seed),
                delivered: Mutex::new(0),
                obs: Obs::default(),
            }),
        }
    }

    /// The client side's handle: the bus, its RPC clients and their clerks.
    pub fn obs(&self) -> &Obs {
        &self.inner.obs
    }

    /// The fault-injection controls.
    pub fn faults(&self) -> &FaultPlan {
        &self.inner.faults
    }

    /// Messages successfully delivered so far.
    pub fn delivered_count(&self) -> u64 {
        *self.inner.delivered.lock()
    }

    /// Create (or replace) an endpoint. Replacing models a process restart:
    /// messages sent to the old incarnation's queue are lost.
    pub fn endpoint(&self, name: &str) -> Endpoint {
        let (tx, rx) = unbounded();
        self.inner.endpoints.lock().insert(name.to_string(), tx);
        Endpoint {
            name: name.to_string(),
            rx,
            bus: self.clone(),
        }
    }

    /// Remove an endpoint (process death).
    pub fn remove_endpoint(&self, name: &str) {
        self.inner.endpoints.lock().remove(name);
    }

    /// Send an envelope, subject to the fault plan. Lost messages and
    /// messages to unknown endpoints vanish silently from the sender's point
    /// of view — like UDP — except that an unknown *destination* is reported
    /// so tests can distinguish misconfiguration from injected loss, and
    /// partition drops are reported when the plan is in fail-fast mode (the
    /// explorer's way of skipping real timeout waits).
    pub fn send(&self, env: Envelope) -> NetResult<()> {
        let delay = match self.inner.faults.judge_verdict(&env.from, &env.to) {
            Verdict::Deliver(d) => d,
            Verdict::DroppedByPartition => {
                self.obs().counter_inc("net.partition.drops");
                return if self.inner.faults.fail_fast() {
                    Err(NetError::Partitioned)
                } else {
                    Ok(()) // dropped: sender can't tell
                };
            }
            Verdict::DroppedByChance => {
                self.obs().counter_inc("net.chance.drops");
                return Ok(()); // dropped: sender can't tell
            }
        };
        let tx = {
            let g = self.inner.endpoints.lock();
            g.get(&env.to)
                .cloned()
                .ok_or_else(|| NetError::UnknownEndpoint(env.to.clone()))?
        };
        if delay.is_zero() {
            let _ = tx.send(env);
            *self.inner.delivered.lock() += 1;
        } else {
            let bus = self.clone();
            std::thread::spawn(move || {
                std::thread::sleep(delay);
                let _ = tx.send(env);
                *bus.inner.delivered.lock() += 1;
            });
        }
        Ok(())
    }
}

/// A receiving endpoint (single consumer).
pub struct Endpoint {
    name: String,
    rx: Receiver<Envelope>,
    bus: NetworkBus,
}

impl Endpoint {
    /// This endpoint's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The bus this endpoint is attached to.
    pub fn bus(&self) -> &NetworkBus {
        &self.bus
    }

    /// Block for the next envelope up to `timeout`.
    pub fn recv(&self, timeout: Duration) -> NetResult<Envelope> {
        self.rx.recv_timeout(timeout).map_err(|_| NetError::Timeout)
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Envelope> {
        self.rx.try_recv().ok()
    }

    /// Send a payload from this endpoint.
    pub fn send_to(
        &self,
        to: &str,
        correlation: u64,
        is_reply: bool,
        payload: Vec<u8>,
    ) -> NetResult<()> {
        self.bus.send(Envelope {
            from: self.name.clone(),
            to: to.to_string(),
            correlation,
            is_reply,
            payload,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_to_point_delivery() {
        let bus = NetworkBus::new(1);
        let a = bus.endpoint("a");
        let b = bus.endpoint("b");
        a.send_to("b", 1, false, b"hi".to_vec()).unwrap();
        let env = b.recv(Duration::from_secs(1)).unwrap();
        assert_eq!(env.from, "a");
        assert_eq!(env.payload, b"hi");
        assert_eq!(bus.delivered_count(), 1);
    }

    #[test]
    fn unknown_destination_reported() {
        let bus = NetworkBus::new(1);
        let a = bus.endpoint("a");
        assert!(matches!(
            a.send_to("ghost", 0, false, vec![]),
            Err(NetError::UnknownEndpoint(_))
        ));
    }

    #[test]
    fn partitioned_messages_vanish() {
        let bus = NetworkBus::new(1);
        let a = bus.endpoint("a");
        let b = bus.endpoint("b");
        bus.faults().partition("a", "b");
        a.send_to("b", 0, false, b"lost".to_vec()).unwrap();
        assert!(b.recv(Duration::from_millis(50)).is_err());
        bus.faults().heal("a", "b");
        a.send_to("b", 0, false, b"ok".to_vec()).unwrap();
        assert_eq!(b.recv(Duration::from_secs(1)).unwrap().payload, b"ok");
    }

    #[test]
    fn delayed_delivery_arrives_later() {
        let bus = NetworkBus::new(1);
        let a = bus.endpoint("a");
        let b = bus.endpoint("b");
        bus.faults().set_delay("a", "b", Duration::from_millis(60));
        a.send_to("b", 0, false, b"slow".to_vec()).unwrap();
        assert!(b.recv(Duration::from_millis(10)).is_err());
        assert_eq!(b.recv(Duration::from_secs(2)).unwrap().payload, b"slow");
    }

    #[test]
    fn endpoint_replacement_drops_old_queue() {
        let bus = NetworkBus::new(1);
        let a = bus.endpoint("a");
        let b1 = bus.endpoint("b");
        a.send_to("b", 0, false, b"for-old".to_vec()).unwrap();
        // "b" restarts before consuming.
        let b2 = bus.endpoint("b");
        a.send_to("b", 0, false, b"for-new".to_vec()).unwrap();
        assert_eq!(b2.recv(Duration::from_secs(1)).unwrap().payload, b"for-new");
        // The old incarnation still has its message, but the process is gone.
        assert_eq!(b1.try_recv().unwrap().payload, b"for-old");
    }

    #[test]
    fn fail_fast_partition_is_reported_to_sender() {
        let bus = NetworkBus::new(1);
        let a = bus.endpoint("a");
        let _b = bus.endpoint("b");
        bus.faults().set_fail_fast(true);
        bus.faults().partition("a", "b");
        assert!(matches!(
            a.send_to("b", 0, false, vec![]),
            Err(NetError::Partitioned)
        ));
        bus.faults().heal("a", "b");
        a.send_to("b", 0, false, b"ok".to_vec()).unwrap();
    }

    #[test]
    fn remove_endpoint_makes_destination_unknown() {
        let bus = NetworkBus::new(1);
        let a = bus.endpoint("a");
        let _b = bus.endpoint("b");
        bus.remove_endpoint("b");
        assert!(matches!(
            a.send_to("b", 0, false, vec![]),
            Err(NetError::UnknownEndpoint(_))
        ));
    }
}
