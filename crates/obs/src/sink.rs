//! What the two optional sinks of an [`crate::Obs`] handle receive.
//!
//! The events are plain data: `rrq-check`'s conformance checker gives them
//! their meaning (the Fig 1 / Fig 5 transition tables) and its race
//! detector gives the edges theirs (vector clocks), so the production crates
//! that emit them depend on this crate alone.

/// An observable client (clerk) transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientEvent {
    /// `Connect` returned the resynchronization triple `(s_rid, r_rid)`.
    Connect {
        /// Tag of the last acknowledged `Send`, if any.
        s_rid: Option<String>,
        /// Tag of the last delivered reply, if any.
        r_rid: Option<String>,
    },
    /// A request was enqueued. `acked` is true when the send was tagged
    /// (recoverable); an unacknowledged send leaves no resync trace.
    Send {
        /// The request id.
        rid: String,
        /// Whether the send updated the stable registration tag.
        acked: bool,
    },
    /// A reply was received (and the receive tagged).
    Receive {
        /// Rid of the request the reply answers.
        rid: String,
    },
    /// The already-delivered reply was obtained again (Fig 2 line 8).
    Rereceive {
        /// Rid of the request the reply answers.
        rid: String,
    },
    /// The client deregistered, destroying its resynchronization state.
    Disconnect,
    /// An operation failed client-side (network error): whether it took
    /// effect at the QM is unknown — an acked `Send` or a `Receive` that
    /// timed out on the wire may still have committed server-side and
    /// advanced the stable tags. The client's state does not change, but the
    /// checker can no longer predict the next resync triple.
    OpFailed {
        /// Which operation failed (e.g. "send", "receive").
        op: String,
    },
}

/// An observable server-loop transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerEvent {
    /// A request was dequeued and decoded.
    Dequeue {
        /// The request id.
        rid: String,
    },
    /// A malformed element was dequeued; it will be consumed (§3: a
    /// request that cannot be parsed must not poison the queue).
    DropMalformed,
    /// The reply (final, intermediate, or rejection) was enqueued.
    Reply {
        /// Rid of the request being answered.
        rid: String,
    },
    /// The request was forwarded to the next queue instead of answered.
    Forward {
        /// Rid of the forwarded request.
        rid: String,
    },
    /// The server transaction committed.
    Commit,
    /// The server transaction aborted (the request returns to its queue).
    Abort,
}

/// Receives every protocol event emitted through the handle it is attached
/// to.
pub trait ProtocolSink: Send + Sync {
    /// A clerk transition for client `client`.
    fn on_client(&self, client: &str, event: ClientEvent);
    /// A server-loop transition for server `server`.
    fn on_server(&self, server: &str, event: ServerEvent);
}

/// Receives the race hooks' happens-before edges and tracked-cell accesses,
/// each on the thread that performed it.
pub trait RaceSink: Send + Sync {
    /// The calling thread acquired `resource`: it now observes everything
    /// released to `resource` before.
    fn acquired(&self, resource: &str);
    /// The calling thread publishes everything it did so far to whoever
    /// acquires `resource` next.
    fn released(&self, resource: &str);
    /// The calling thread read (or, with `write`, wrote) `cell`. A `latched`
    /// access is serialized by the store's per-key latch: ordered with every
    /// other latched access to `cell`, but not with a plain one.
    fn accessed(&self, cell: &str, write: bool, latched: bool);
}
