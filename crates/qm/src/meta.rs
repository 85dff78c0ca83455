//! Per-queue configuration.

use rrq_storage::codec::{len, put, Decode, Encode, Reader};
use rrq_storage::{StorageError, StorageResult};

/// How concurrent dequeuers interact with write-locked elements (§10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderingMode {
    /// Scan past elements locked by uncommitted dequeues — the paper's
    /// recommended behaviour ("allowing readers to scan the queue and ignore
    /// write-locked elements"). Dequeue order can deviate from FIFO when a
    /// dequeuer aborts, which §10 argues is tolerable.
    SkipLocked,
    /// Block behind the lock on the head element: exact FIFO, at the cost of
    /// the "performance degradation that strict ordering would imply".
    StrictFifo,
}

impl OrderingMode {
    fn to_byte(self) -> u8 {
        match self {
            OrderingMode::SkipLocked => 0,
            OrderingMode::StrictFifo => 1,
        }
    }

    fn from_byte(b: u8) -> StorageResult<Self> {
        match b {
            0 => Ok(OrderingMode::SkipLocked),
            1 => Ok(OrderingMode::StrictFifo),
            b => Err(StorageError::Decode(format!("bad ordering mode {b}"))),
        }
    }
}

/// Queue metadata, stored durably alongside the elements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueMeta {
    /// Queue name (unique within the repository, §4.1).
    pub name: String,
    /// Dequeue ordering discipline.
    pub mode: OrderingMode,
    /// The *n* attribute of §4.2: the n-th aborted dequeue moves the element
    /// to the error queue. `0` disables the limit (retry forever).
    pub retry_limit: u32,
    /// Name of the error queue; defaults to `<name>.errors`.
    pub error_queue: String,
    /// Durable (survives crashes) or volatile (§10) storage.
    pub durable: bool,
    /// Forward enqueues to this queue instead (§9 "queue redirection").
    pub redirect_to: Option<String>,
    /// Raise an alert when live depth reaches this value (§9 "alert
    /// thresholds").
    pub alert_threshold: Option<u64>,
    /// Accepting operations? (start/stop, §4.1.)
    pub started: bool,
    /// When an aborted dequeue returns the element, move it to the *back*
    /// of the queue instead of its original position. Trades FIFO fidelity
    /// for livelock-freedom when requests block on resources held by
    /// requests deeper in the queue (see the §6 lock-inheritance hazard in
    /// `rrq-core::pipeline`).
    pub requeue_at_back_on_abort: bool,
}

impl QueueMeta {
    /// Metadata with the library defaults for `name`.
    pub fn with_defaults(name: impl Into<String>) -> Self {
        let name = name.into();
        let error_queue = format!("{name}.errors");
        QueueMeta {
            name,
            mode: OrderingMode::SkipLocked,
            retry_limit: 5,
            error_queue,
            durable: true,
            redirect_to: None,
            alert_threshold: None,
            started: true,
            requeue_at_back_on_abort: false,
        }
    }
}

impl Encode for QueueMeta {
    fn encode(&self, buf: &mut Vec<u8>) {
        put::string(buf, &self.name);
        put::u8(buf, self.mode.to_byte());
        put::u32(buf, self.retry_limit);
        put::string(buf, &self.error_queue);
        put::bool(buf, self.durable);
        match &self.redirect_to {
            None => put::u8(buf, 0),
            Some(t) => {
                put::u8(buf, 1);
                put::string(buf, t);
            }
        }
        match self.alert_threshold {
            None => put::u8(buf, 0),
            Some(v) => {
                put::u8(buf, 1);
                put::u64(buf, v);
            }
        }
        put::bool(buf, self.started);
        put::bool(buf, self.requeue_at_back_on_abort);
    }

    fn encoded_len(&self) -> usize {
        // Mode, retry limit, durable, two option tags, started, requeue.
        let fixed = 1 + 4 + 1 + 2 + 1 + 1;
        let redirect = self.redirect_to.as_ref().map_or(0, |t| len::bytes(t.len()));
        let alert = self.alert_threshold.map_or(0, |_| 8);
        len::bytes(self.name.len()) + len::bytes(self.error_queue.len()) + fixed + redirect + alert
    }
}

impl Decode for QueueMeta {
    fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
        let name = r.string()?;
        let mode = OrderingMode::from_byte(r.u8()?)?;
        let retry_limit = r.u32()?;
        let error_queue = r.string()?;
        let durable = r.bool()?;
        let redirect_to = match r.u8()? {
            0 => None,
            1 => Some(r.string()?),
            b => return Err(StorageError::Decode(format!("bad option tag {b}"))),
        };
        let alert_threshold = match r.u8()? {
            0 => None,
            1 => Some(r.u64()?),
            b => return Err(StorageError::Decode(format!("bad option tag {b}"))),
        };
        let started = r.bool()?;
        let requeue_at_back_on_abort = r.bool()?;
        Ok(QueueMeta {
            name,
            mode,
            retry_limit,
            error_queue,
            durable,
            redirect_to,
            alert_threshold,
            started,
            requeue_at_back_on_abort,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sensible() {
        let m = QueueMeta::with_defaults("req");
        assert_eq!(m.name, "req");
        assert_eq!(m.error_queue, "req.errors");
        assert_eq!(m.mode, OrderingMode::SkipLocked);
        assert!(m.durable);
        assert!(m.started);
        assert_eq!(m.retry_limit, 5);
    }

    #[test]
    fn roundtrip_all_fields() {
        let m = QueueMeta {
            name: "q".into(),
            mode: OrderingMode::StrictFifo,
            retry_limit: 0,
            error_queue: "deadletter".into(),
            durable: false,
            redirect_to: Some("other".into()),
            alert_threshold: Some(1000),
            started: false,
            requeue_at_back_on_abort: true,
        };
        let d = QueueMeta::decode_all(&m.encode_to_vec()).unwrap();
        assert_eq!(d, m);
    }

    #[test]
    fn roundtrip_defaults() {
        let m = QueueMeta::with_defaults("x");
        let d = QueueMeta::decode_all(&m.encode_to_vec()).unwrap();
        assert_eq!(d, m);
    }

    #[test]
    fn bad_mode_byte_rejected() {
        assert!(OrderingMode::from_byte(9).is_err());
    }
}
