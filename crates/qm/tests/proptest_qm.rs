//! Property-based tests for the queue manager.
//!
//! The reference model is a sequence of (priority, payload) pairs; the QM
//! must dequeue in priority-descending, FIFO-within-priority order, never
//! lose or duplicate an element across aborts, and preserve identity.

use proptest::prelude::*;
use rrq_qm::meta::QueueMeta;
use rrq_qm::ops::{DequeueOptions, EnqueueOptions};
use rrq_qm::repository::Repository;
use rrq_qm::QmError;
use std::collections::BTreeMap;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    Enqueue { priority: u8, payload: u8 },
    DequeueCommit,
    DequeueAbort,
    Kill,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0u8..4, any::<u8>()).prop_map(|(priority, payload)| Op::Enqueue {
            priority,
            payload
        }),
        4 => Just(Op::DequeueCommit),
        2 => Just(Op::DequeueAbort),
        1 => Just(Op::Kill),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sequential ops against the QM match a reference priority-FIFO model.
    #[test]
    fn qm_matches_reference_priority_queue(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let repo = Repository::create("prop-qm").unwrap();
        let mut meta = QueueMeta::with_defaults("q");
        meta.retry_limit = 0; // aborts never exile in this model
        repo.qm().create_queue(meta).unwrap();
        let (h, _) = repo.qm().register("q", "c", false).unwrap();

        // Reference: map (255-priority, seq) -> payload. Aborted dequeues
        // reappear at their original position (default policy).
        let mut model: BTreeMap<(u8, u64), u8> = BTreeMap::new();
        let mut seq = 0u64;

        for op in &ops {
            match op {
                Op::Enqueue { priority, payload } => {
                    repo.autocommit(|t| {
                        repo.qm().enqueue(
                            t.id().raw(),
                            &h,
                            &[*payload],
                            EnqueueOptions {
                                priority: *priority,
                                ..Default::default()
                            },
                        )
                    })
                    .unwrap();
                    model.insert((255 - priority, seq), *payload);
                    seq += 1;
                }
                Op::DequeueCommit => {
                    let got = repo.autocommit(|t| {
                        repo.qm().dequeue(t.id().raw(), &h, DequeueOptions::default())
                    });
                    match got {
                        Ok(e) => {
                            let (k, expected) =
                                model.iter().next().map(|(k, v)| (*k, *v)).expect("model empty but QM had element");
                            prop_assert_eq!(e.payload, vec![expected], "dequeue order");
                            model.remove(&k);
                        }
                        Err(QmError::Empty(_)) => prop_assert!(model.is_empty()),
                        Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                    }
                }
                Op::DequeueAbort => {
                    let txn = repo.begin().unwrap();
                    let got = repo
                        .qm()
                        .dequeue(txn.id().raw(), &h, DequeueOptions::default());
                    txn.abort().unwrap();
                    if let Err(QmError::Empty(_)) = got {
                        prop_assert!(model.is_empty());
                    }
                    // Model unchanged: the element reappears in place.
                }
                Op::Kill => {
                    // Kill the current head, if any.
                    if let Some((k, _)) = model.iter().next().map(|(k, v)| (*k, *v)) {
                        let live = repo
                            .qm()
                            .query("q", &rrq_qm::Predicate::True)
                            .unwrap();
                        if let Some(head) = live.first() {
                            prop_assert!(repo.qm().kill_element(head.eid).unwrap());
                            model.remove(&k);
                        }
                    }
                }
            }
        }

        // Drain and compare the tails.
        let mut remaining = Vec::new();
        loop {
            match repo.autocommit(|t| {
                repo.qm().dequeue(t.id().raw(), &h, DequeueOptions::default())
            }) {
                Ok(e) => remaining.push(e.payload[0]),
                Err(QmError::Empty(_)) => break,
                Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
            }
        }
        let model_tail: Vec<u8> = model.values().copied().collect();
        prop_assert_eq!(remaining, model_tail, "final drain order");
    }

    /// Crash-recovery: whatever was committed before the crash is exactly
    /// what is in the queue afterwards, in the same order.
    #[test]
    fn queue_contents_survive_crash_exactly(
        payloads in proptest::collection::vec(any::<u8>(), 1..30),
        dequeue_n in 0usize..10,
    ) {
        let disks = rrq_qm::repository::RepoDisks::new();
        {
            let (repo, _) = Repository::open("prop-crash", disks.clone()).unwrap();
            repo.create_queue_defaults("q").unwrap();
            let (h, _) = repo.qm().register("q", "c", false).unwrap();
            for p in &payloads {
                repo.autocommit(|t| {
                    repo.qm()
                        .enqueue(t.id().raw(), &h, &[*p], EnqueueOptions::default())
                })
                .unwrap();
            }
            for _ in 0..dequeue_n.min(payloads.len()) {
                repo.autocommit(|t| {
                    repo.qm().dequeue(t.id().raw(), &h, DequeueOptions::default())
                })
                .unwrap();
            }
        }
        disks.crash();
        let (repo2, _) = Repository::open("prop-crash", disks).unwrap();
        let (h, _) = repo2.qm().register("q", "c2", false).unwrap();
        let expected: Vec<u8> = payloads
            .iter()
            .skip(dequeue_n.min(payloads.len()))
            .copied()
            .collect();
        let mut got = Vec::new();
        loop {
            match repo2.autocommit(|t| {
                repo2.qm().dequeue(t.id().raw(), &h, DequeueOptions::default())
            }) {
                Ok(e) => got.push(e.payload[0]),
                Err(QmError::Empty(_)) => break,
                Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
            }
        }
        prop_assert_eq!(got, expected);
    }
}

/// Attribute text: ASCII, or raw bytes that are mostly not UTF-8.
fn attr_text() -> impl Strategy<Value = Vec<u8>> {
    (proptest::collection::vec(any::<u8>(), 0..6), 0u8..4).prop_map(|(bytes, ascii)| {
        if ascii == 0 {
            bytes
        } else {
            bytes.into_iter().map(|b| b'a' + b % 26).collect()
        }
    })
}

/// An element encoded field by field as `Element::encode` lays it out, with
/// attribute text that need not be UTF-8.
fn encoded_element() -> impl Strategy<Value = Vec<u8>> {
    let attrs = proptest::collection::vec((attr_text(), attr_text()), 0..3);
    let payload = proptest::collection::vec(any::<u8>(), 0..12);
    (any::<u64>(), any::<u8>(), any::<u32>(), attrs, payload).prop_map(
        |(eid, priority, abort_count, attrs, payload)| {
            use rrq_storage::codec::put;
            let mut buf = Vec::new();
            put::u64(&mut buf, eid);
            put::u8(&mut buf, priority);
            put::u64(&mut buf, eid.rotate_left(7));
            put::u32(&mut buf, abort_count);
            put::u32(&mut buf, abort_count ^ 5);
            put::u32(&mut buf, attrs.len() as u32);
            for (name, value) in &attrs {
                put::bytes(&mut buf, name);
                put::bytes(&mut buf, value);
            }
            put::bytes(&mut buf, &payload);
            buf
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The recovery rebuild's eid check accepts exactly what a full decode
    /// accepts, and reads the same eid: over encoded elements and their
    /// truncations, trailing bytes, flipped bytes and rewritten attribute
    /// counts (bad UTF-8 comes from the generator).
    #[test]
    fn checked_eid_agrees_with_a_full_decode(
        raw in encoded_element(),
        mutation in 0u8..5,
        noise in any::<u64>(),
    ) {
        use rrq_qm::element::Element;
        use rrq_storage::codec::Decode;
        let mut raw = raw;
        let at = (noise % raw.len() as u64) as usize;
        match mutation {
            0 => {}
            1 => raw.truncate(at),
            2 => raw.extend_from_slice(&noise.to_le_bytes()[..1 + at % 4]),
            3 => raw[at] ^= (noise >> 32) as u8 | 1,
            _ => {
                // The attribute count sits after eid, priority, seq and the
                // two abort fields; around the plausibility limit, or small.
                let count = [1 << 20, (1 << 20) + 1, u32::MAX, (noise >> 40) as u32 % 4];
                raw[25..29].copy_from_slice(&count[at % 4].to_le_bytes());
            }
        }
        let decoded = Element::decode_all(&raw).map(|e| e.eid);
        let checked = Element::checked_eid(&raw);
        prop_assert_eq!(checked.is_ok(), decoded.is_ok(), "{:?} vs {:?}", checked, decoded);
        prop_assert_eq!(checked.ok(), decoded.ok());
    }
}

/// Concurrency: N threads consuming one queue never lose or double-consume,
/// regardless of interleaving (run outside proptest for thread control).
#[test]
fn concurrent_consumers_partition_the_queue() {
    use std::sync::Mutex;
    for seed in 0..3u64 {
        let repo = Arc::new(Repository::create(format!("prop-conc-{seed}")).unwrap());
        let mut meta = QueueMeta::with_defaults("q");
        meta.retry_limit = 0; // injected aborts must never exile elements
        repo.qm().create_queue(meta).unwrap();
        let (h, _) = repo.qm().register("q", "p", false).unwrap();
        let n = 120usize;
        for i in 0..n {
            repo.autocommit(|t| {
                repo.qm().enqueue(
                    t.id().raw(),
                    &h,
                    &(i as u32).to_le_bytes(),
                    EnqueueOptions::default(),
                )
            })
            .unwrap();
        }
        let consumed = Arc::new(Mutex::new(Vec::new()));
        let mut threads = Vec::new();
        for c in 0..6 {
            let repo = Arc::clone(&repo);
            let consumed = Arc::clone(&consumed);
            threads.push(std::thread::spawn(move || {
                let (h, _) = repo.qm().register("q", &format!("c{c}"), false).unwrap();
                let mut iter = 0u64;
                loop {
                    iter += 1;
                    // Mix commits and aborts to shake the ordering.
                    let abort = (iter + c).is_multiple_of(7);
                    if abort {
                        let txn = repo.begin().unwrap();
                        let _ = repo
                            .qm()
                            .dequeue(txn.id().raw(), &h, DequeueOptions::default());
                        txn.abort().unwrap();
                        continue;
                    }
                    match repo.autocommit(|t| {
                        repo.qm()
                            .dequeue(t.id().raw(), &h, DequeueOptions::default())
                    }) {
                        Ok(e) => consumed
                            .lock()
                            .unwrap()
                            .push(u32::from_le_bytes(e.payload.try_into().unwrap())),
                        Err(QmError::Empty(_)) => return,
                        Err(e) => panic!("{e}"),
                    }
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        let mut got = Arc::try_unwrap(consumed).unwrap().into_inner().unwrap();
        got.sort();
        let expected: Vec<u32> = (0..n as u32).collect();
        assert_eq!(got, expected, "seed {seed}: every element exactly once");
    }
}
