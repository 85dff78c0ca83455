//! Every wire type encodes in one exact allocation: for generated values,
//! `encode_to_vec` returns a buffer whose length and capacity both equal
//! `encoded_len`. (`remote::Call`, private to `rrq-core`, has the same
//! property test beside its codec.)

use proptest::collection::vec;
use proptest::prelude::*;
use rrq_core::request::{Reply, ReplyStatus, Request};
use rrq_core::rid::Rid;
use rrq_core::tagcodec::{encode_receive_tag, encode_send_tag};
use rrq_qm::element::{Eid, Element, ElementRef, Payload};
use rrq_qm::meta::{OrderingMode, QueueMeta};
use rrq_qm::registration::{LastOp, Registration};
use rrq_storage::codec::Encode;
use rrq_workload::bank::Transfer;

/// Names and attribute values, some characters two bytes long.
fn text() -> impl Strategy<Value = String> {
    vec(any::<u8>(), 0..12).prop_map(|raw| {
        raw.iter()
            .map(|&c| match c % 7 {
                0 => 'é',
                _ => char::from(b'a' + c % 26),
            })
            .collect()
    })
}

fn bytes() -> impl Strategy<Value = Vec<u8>> {
    vec(any::<u8>(), 0..300)
}

fn maybe<S: Strategy>(s: S) -> impl Strategy<Value = Option<S::Value>> {
    (any::<bool>(), s).prop_map(|(some, v)| some.then_some(v))
}

fn rid() -> impl Strategy<Value = Rid> {
    (text(), any::<u64>()).prop_map(|(client, serial)| Rid::new(client, serial))
}

fn request() -> impl Strategy<Value = Request> {
    (
        rid(),
        (text(), text()),
        bytes(),
        maybe(bytes()),
        maybe(any::<u64>()),
    )
        .prop_map(|(rid, (reply_queue, op), body, state, inherit_txn)| {
            let mut request = Request::new(rid, reply_queue, op, body);
            request.state = state.unwrap_or_default();
            request.inherit_txn = inherit_txn;
            request
        })
}

fn reply() -> impl Strategy<Value = Reply> {
    (rid(), 0..3u8, bytes()).prop_map(|(rid, status, body)| Reply {
        rid,
        status: [
            ReplyStatus::Ok,
            ReplyStatus::Failed,
            ReplyStatus::Intermediate,
        ][usize::from(status)],
        body,
    })
}

fn element() -> impl Strategy<Value = Element> {
    (
        (any::<u64>(), any::<u8>(), any::<u64>()),
        (any::<u32>(), any::<u32>()),
        vec((text(), text()), 0..4),
        bytes(),
    )
        .prop_map(
            |((eid, priority, seq), (abort_count, abort_code), attrs, payload)| Element {
                eid: Eid(eid),
                priority,
                seq,
                abort_count,
                abort_code,
                attrs,
                payload,
            },
        )
}

/// `buf` is exactly `len` bytes, with no room to spare.
fn exact(buf: &[u8], capacity: usize, len: usize) -> Result<(), TestCaseError> {
    prop_assert_eq!(buf.len(), len);
    prop_assert_eq!(capacity, len);
    Ok(())
}

fn exact_encoding(v: &dyn Encode) -> Result<Vec<u8>, TestCaseError> {
    let buf = v.encode_to_vec();
    exact(&buf, buf.capacity(), v.encoded_len())?;
    Ok(buf)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn requests_replies_and_rids_encode_exactly(
        request in request(),
        reply in reply(),
        rid in rid(),
        ckpt in bytes(),
    ) {
        exact_encoding(&request)?;
        exact_encoding(&reply)?;
        exact_encoding(&rid)?;
        let send = encode_send_tag(&rid);
        exact(&send, send.capacity(), 1 + rid.encoded_len())?;
        let receive = encode_receive_tag(&rid, &ckpt);
        exact(&receive, receive.capacity(), 1 + rid.encoded_len() + 4 + ckpt.len())?;
    }

    #[test]
    fn elements_encode_exactly_whatever_carries_their_payload(
        elem in element(),
        request in request(),
        reply in reply(),
    ) {
        exact_encoding(&elem)?;
        // A payload encoded straight into the element is byte for byte the
        // element of its encoding.
        for inner in [&request as &dyn Encode, &reply] {
            let raw = inner.encode_to_vec();
            let by_bytes = ElementRef { payload: Payload::Bytes(&raw), ..elem.view() };
            let encoded = ElementRef { payload: Payload::Encoded(inner), ..elem.view() };
            let buf = exact_encoding(&encoded)?;
            prop_assert_eq!(buf, by_bytes.encode_to_vec());
        }
    }

    #[test]
    fn queue_records_encode_exactly(
        names in (text(), text(), maybe(text())),
        flags in (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
        numbers in (any::<u32>(), maybe(any::<u64>()), any::<u64>()),
        tag in maybe(bytes()),
        last in 0..3u8,
    ) {
        let ((name, other, redirect_to), (strict, durable, started, requeue)) = (names, flags);
        let (retry_limit, alert_threshold, eid) = numbers;
        let meta = QueueMeta {
            name: name.clone(),
            mode: if strict { OrderingMode::StrictFifo } else { OrderingMode::SkipLocked },
            retry_limit,
            error_queue: other.clone(),
            durable,
            redirect_to,
            alert_threshold,
            started,
            requeue_at_back_on_abort: requeue,
        };
        exact_encoding(&meta)?;
        let mut reg = Registration::new(other, name, durable);
        let op = [LastOp::None, LastOp::Enqueue, LastOp::Dequeue][usize::from(last)];
        reg.record(op, tag.as_deref(), Eid(eid));
        let raw = exact_encoding(&reg)?;
        if let Some(recorded) =
            Registration::recorded(&raw, LastOp::Dequeue, tag.as_deref(), Eid(!eid)).unwrap()
        {
            exact(&recorded.raw, recorded.raw.capacity(), recorded.raw.len())?;
            reg.record(LastOp::Dequeue, tag.as_deref(), Eid(!eid));
            prop_assert_eq!(recorded.raw, reg.encode_to_vec());
        }
    }

    #[test]
    fn transfers_encode_exactly(from in any::<u32>(), to in any::<u32>(), amount in any::<i64>()) {
        let body = Transfer { from, to, amount }.encode();
        exact(&body, body.capacity(), 16)?;
    }
}
