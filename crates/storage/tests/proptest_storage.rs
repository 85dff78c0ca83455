//! Property-based tests for the storage substrate.
//!
//! The central invariant, from the paper's §2 failure argument: after *any*
//! crash, the recovered store contains exactly the effects of committed
//! transactions — never a partial transaction, never a lost committed one.

use proptest::prelude::*;
use rrq_storage::disk::{CrashStyle, SimDisk, TornWriteMode};
use rrq_storage::kv::KvStore;
use rrq_storage::recovery::RecoveryReport;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A scripted action against the store. `Rename` is `KvStore::rename` (a
/// key-only log record when the transaction has not written `from` itself,
/// a delete and a put when it has). `CommitDeferred` is
/// `commit_deferred`: no force of its own, durable once anything later forces
/// the log. With `reset_fails` the log device refuses a checkpoint's
/// truncating swap, so the call fails after its segment is durable and the
/// log stays whole.
#[derive(Debug, Clone)]
enum Action {
    Put { txn: u8, key: u8, val: u16 },
    Delete { txn: u8, key: u8 },
    Rename { txn: u8, from: u8, to: u8 },
    Prepare { txn: u8 },
    Commit { txn: u8 },
    CommitDeferred { txn: u8 },
    Abort { txn: u8 },
    Checkpoint { reset_fails: bool },
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        4 => (0u8..4, 0u8..16, any::<u16>())
            .prop_map(|(txn, key, val)| Action::Put { txn, key, val }),
        2 => (0u8..4, 0u8..16).prop_map(|(txn, key)| Action::Delete { txn, key }),
        3 => (0u8..4, 0u8..16, 0u8..16)
            .prop_map(|(txn, from, to)| Action::Rename { txn, from, to }),
        1 => (0u8..4).prop_map(|txn| Action::Prepare { txn }),
        3 => (0u8..4).prop_map(|txn| Action::Commit { txn }),
        2 => (0u8..4).prop_map(|txn| Action::CommitDeferred { txn }),
        2 => (0u8..4).prop_map(|txn| Action::Abort { txn }),
        2 => any::<bool>().prop_map(|reset_fails| Action::Checkpoint { reset_fails }),
    ]
}

/// How the devices lose their unsynced bytes: cleanly, or with the log
/// keeping a corrupt tail of them.
fn crash_strategy() -> impl Strategy<Value = Option<TornWriteMode>> {
    prop_oneof![
        2 => Just(None),
        1 => Just(Some(TornWriteMode::Midway)),
        1 => Just(Some(TornWriteMode::FullLengthCorrupt)),
        1 => Just(Some(TornWriteMode::HeaderOnly)),
    ]
}

type Tree = BTreeMap<Vec<u8>, Vec<u8>>;

/// One buffered write of the reference model.
#[derive(Debug, Clone)]
enum Write {
    Put(u8, Vec<u8>),
    Delete(u8),
    Rename(u8, u8),
}

impl Write {
    fn keys(&self) -> Vec<u8> {
        match *self {
            Write::Put(k, _) | Write::Delete(k) => vec![k],
            Write::Rename(from, to) => vec![from, to],
        }
    }
}

/// A transaction's writes in program order.
type PendingWrites = Vec<Write>;

/// The model's meaning of a write set: each write, in order, against the
/// tree as the ones before it left it. A rename of a key that holds nothing
/// changes nothing.
fn apply(tree: &mut Tree, writes: &[Write]) {
    for w in writes {
        match w {
            Write::Put(k, v) => {
                tree.insert(vec![*k], v.clone());
            }
            Write::Delete(k) => {
                tree.remove(&vec![*k]);
            }
            Write::Rename(from, to) => {
                if let Some(v) = tree.remove(&vec![*from]) {
                    tree.insert(vec![*to], v);
                }
            }
        }
    }
}

/// Read-your-writes: `token` must see the committed tree with its own writes
/// on top, through point reads and the overlay-merging scan, while the
/// borrowed walk sees the committed tree alone.
fn assert_own_view(store: &KvStore, token: u64, committed: &Tree, own: &[Write]) {
    let mut want = committed.clone();
    apply(&mut want, own);
    for k in 0u8..16 {
        assert_eq!(
            store.get(Some(token), &[k]).unwrap().as_ref(),
            want.get(&vec![k]),
            "key {k} as seen by {token} after {own:?}"
        );
    }
    let scanned: Tree = store
        .scan_prefix(Some(token), b"")
        .unwrap()
        .into_iter()
        .collect();
    assert_eq!(scanned, want, "scan as seen by {token}");
    let mut walked = Tree::new();
    store
        .for_each_committed(b"", |k, v| {
            walked.insert(k.to_vec(), v.to_vec());
            Ok::<(), ()>(())
        })
        .unwrap();
    assert_eq!(&walked, committed, "borrowed walk beside {token}'s writes");
}

fn open(wal: &SimDisk, ckpt: &SimDisk) -> (Arc<KvStore>, RecoveryReport) {
    KvStore::open(
        Arc::new(wal.clone()),
        Arc::new(ckpt.clone()),
        rrq_obs::Obs::default(),
    )
    .unwrap()
}

fn crash(wal: &SimDisk, ckpt: &SimDisk, torn: Option<TornWriteMode>) {
    match torn {
        Some(mode) => wal.crash_torn(mode),
        None => wal.crash(CrashStyle::DropVolatile),
    }
    ckpt.crash(CrashStyle::DropVolatile);
}

fn dump(store: &KvStore) -> Tree {
    store.scan_prefix(None, b"").unwrap().into_iter().collect()
}

/// Run the script against both the real store and a reference model that
/// applies writes only at commit. Then crash at an arbitrary point in the
/// suffix and check the recovered store equals the model at the last forced
/// commit point (a torn tail may also keep some of the deferred commits
/// after it, oldest first), that exactly the prepared transactions come back
/// in-doubt, and that the recovered store still matches the model after
/// they are resolved and after a checkpoint and a second crash.
fn run_script(actions: Vec<Action>, crash_after: usize, torn: Option<TornWriteMode>) {
    let wal = SimDisk::new();
    let ckpt = SimDisk::new();
    let (store, _) = open(&wal, &ckpt);

    // Reference model: committed state and per-txn pending buffers.
    let mut committed = Tree::new();
    // What a crash may leave: the committed state at the last log force,
    // then the state after each deferred commit since.
    let mut survivable = vec![Tree::new()];
    let mut pending: BTreeMap<u8, PendingWrites> = BTreeMap::new();
    let mut open_txns: BTreeMap<u8, u64> = BTreeMap::new();
    let mut prepared: BTreeSet<u8> = BTreeSet::new();
    // Tokens aborted after their prepare. The abort record is not forced,
    // so whether it survives the crash depends on what was forced after it
    // and on the tear: such a token may come back in-doubt, or not.
    let mut aborted_prepared: BTreeSet<u64> = BTreeSet::new();
    let mut next_token = 1u64;

    for (i, act) in actions.iter().enumerate() {
        if i == crash_after {
            break;
        }
        match act {
            Action::Put { txn, .. } | Action::Delete { txn, .. } | Action::Rename { txn, .. } => {
                if prepared.contains(txn) {
                    continue; // no writes after prepare
                }
                let write = match act {
                    Action::Put { key, val, .. } => Write::Put(*key, val.to_le_bytes().to_vec()),
                    Action::Delete { key, .. } => Write::Delete(*key),
                    Action::Rename { from, to, .. } => Write::Rename(*from, *to),
                    _ => unreachable!(),
                };
                // The store leaves isolation to the layer above it. Blind
                // writes may race (commit order decides), but a rename reads:
                // it gets what a lock on its two keys would give it — no
                // other open transaction writes them, before or after.
                let renames = matches!(write, Write::Rename(..));
                let conflict = pending.iter().any(|(other, writes)| {
                    other != txn
                        && writes.iter().any(|w| {
                            (renames || matches!(w, Write::Rename(..)))
                                && w.keys().iter().any(|k| write.keys().contains(k))
                        })
                });
                if conflict {
                    continue;
                }
                let token = *open_txns.entry(*txn).or_insert_with(|| {
                    let t = next_token;
                    next_token += 1;
                    store.begin(t).unwrap();
                    t
                });
                match &write {
                    Write::Put(k, v) => store.put(token, &[*k], v).unwrap(),
                    Write::Delete(k) => store.delete(token, &[*k]).unwrap(),
                    Write::Rename(from, to) => store.rename(token, &[*from], &[*to]).unwrap(),
                }
                let own = pending.entry(*txn).or_default();
                own.push(write);
                assert_own_view(&store, token, &committed, own);
            }
            Action::Prepare { txn } => {
                if let Some(token) = open_txns.get(txn) {
                    store.prepare(*token).unwrap();
                    // Only the first prepare writes (and forces) anything.
                    if prepared.insert(*txn) {
                        survivable = vec![committed.clone()];
                    }
                }
            }
            Action::Commit { txn } | Action::CommitDeferred { txn } => {
                if let Some(token) = open_txns.remove(txn) {
                    // A prepared transaction is always committed with a
                    // force: its fate after a lost commit record is the
                    // in-doubt list's business, checked below.
                    let forced = prepared.remove(txn) || matches!(act, Action::Commit { .. });
                    if forced {
                        store.commit(token).unwrap();
                    } else {
                        store.commit_deferred(token).unwrap();
                    }
                    apply(&mut committed, &pending.remove(txn).unwrap_or_default());
                    if forced {
                        survivable.clear();
                    }
                    survivable.push(committed.clone());
                }
            }
            Action::Abort { txn } => {
                if let Some(token) = open_txns.remove(txn) {
                    store.abort(token).unwrap();
                    if prepared.remove(txn) {
                        aborted_prepared.insert(token);
                    }
                    pending.remove(txn);
                }
            }
            Action::Checkpoint { reset_fails } => {
                if *reset_fails {
                    wal.fail_resets();
                }
                let done = store.checkpoint();
                wal.repair();
                let admitted = prepared.is_empty();
                assert_eq!(done.is_ok(), admitted && !reset_fails, "{done:?}");
                if admitted {
                    // Forced the log before it wrote its segment.
                    survivable = vec![committed.clone()];
                }
            }
        }
    }
    if crash_after > actions.len() {
        assert_eq!(dump(&store), committed, "committed view diverges");
        return;
    }
    crash(&wal, &ckpt, torn);

    // Recover and compare full contents and the in-doubt list.
    let (recovered, report) = open(&wal, &ckpt);
    let mut committed = dump(&recovered);
    match torn {
        None => assert_eq!(committed, survivable[0], "recovered state diverges"),
        Some(_) => assert!(
            survivable.contains(&committed),
            "recovered {committed:?} is none of {survivable:?}"
        ),
    }
    let in_doubt: BTreeSet<u64> = prepared.iter().map(|txn| open_txns[txn]).collect();
    let resurfaced: Vec<u64> = report
        .in_doubt
        .iter()
        .copied()
        .filter(|t| !in_doubt.contains(t))
        .collect();
    assert_eq!(report.in_doubt.len(), in_doubt.len() + resurfaced.len());
    assert!(report.in_doubt.windows(2).all(|w| w[0] < w[1]), "sorted");
    assert!(
        resurfaced.iter().all(|t| aborted_prepared.contains(t)),
        "{resurfaced:?} were never prepared and aborted"
    );

    // The coordinator's turn: commit the even tokens, abort the odd ones
    // (and, again, whatever it had already aborted).
    for token in resurfaced {
        recovered.abort(token).unwrap();
    }
    // An in-doubt transaction came back with its whole write set.
    for txn in &prepared {
        let own = pending.get(txn).map_or(&[][..], Vec::as_slice);
        assert_own_view(&recovered, open_txns[txn], &committed, own);
    }
    for txn in prepared {
        let token = open_txns[&txn];
        if token.is_multiple_of(2) {
            recovered.commit(token).unwrap();
            apply(&mut committed, &pending.remove(&txn).unwrap_or_default());
        } else {
            recovered.abort(token).unwrap();
        }
    }
    assert_eq!(dump(&recovered), committed, "diverged after resolution");

    // The recovered store (its torn tail cut off at open) keeps working:
    // checkpoint, one more commit, clean crash, recover.
    recovered.checkpoint().unwrap();
    recovered.begin(10_000).unwrap();
    recovered.put(10_000, b"post", b"crash").unwrap();
    recovered.commit(10_000).unwrap();
    committed.insert(b"post".to_vec(), b"crash".to_vec());
    crash(&wal, &ckpt, None);
    let (again, report) = open(&wal, &ckpt);
    assert_eq!(report.in_doubt, Vec::<u64>::new());
    assert_eq!(dump(&again), committed, "diverged after second crash");
}

proptest! {
    // A case is ~0.1 ms. The rarest window the model covers — a deferred
    // commit, then a checkpoint whose log reset fails, then the crash, with
    // no force in between — turns up in about 1 script in 250.
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Crash anywhere in a random script: recovery equals the reference model.
    #[test]
    fn recovery_matches_reference_model(
        actions in proptest::collection::vec(action_strategy(), 1..60),
        crash_frac in 0.0f64..1.0,
        torn in crash_strategy(),
    ) {
        let crash_after = ((actions.len() as f64) * crash_frac) as usize;
        run_script(actions, crash_after, torn);
    }

    /// Without a crash the final committed view also matches the model
    /// (crash point beyond the script length disables crashing).
    #[test]
    fn committed_view_matches_reference_model(
        actions in proptest::collection::vec(action_strategy(), 1..60),
    ) {
        let n = actions.len();
        run_script(actions, n + 1, None);
    }
}

proptest! {
    // Each case runs its script once per cut, some twenty times.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A crash between any two actions of one script — so after every commit
    /// point, forced or deferred, every prepare and every checkpoint in it.
    #[test]
    fn recovery_matches_reference_model_at_every_cut(
        actions in proptest::collection::vec(action_strategy(), 1..40),
        torn in crash_strategy(),
    ) {
        for crash_after in 0..=actions.len() {
            run_script(actions.clone(), crash_after, torn);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The WAL never yields a record it wasn't given, regardless of torn tail
    /// position.
    #[test]
    fn wal_scan_returns_prefix_of_appends(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..20),
        sync_every in 1usize..5,
        torn_keep in 0usize..64,
    ) {
        use rrq_storage::wal::{RecordKind, Wal};
        let disk = SimDisk::new();
        let wal = Wal::new(Arc::new(disk.clone()));
        let mut synced = 0usize;
        for (i, p) in payloads.iter().enumerate() {
            wal.append(i as u64, RecordKind::Custom(0x80), p).unwrap();
            if (i + 1) % sync_every == 0 {
                wal.sync().unwrap();
                synced = i + 1;
            }
        }
        disk.crash(CrashStyle::Torn { keep: torn_keep });
        let (recs, _) = wal.scan(0).unwrap();
        // Valid records must be a prefix of what was appended, at least
        // covering everything synced.
        assert!(recs.len() >= synced.min(payloads.len()));
        for (i, r) in recs.iter().enumerate() {
            if i < payloads.len() {
                // A torn tail may corrupt at most records after the synced
                // prefix; any record the scan *accepts* must be byte-correct.
                assert_eq!(r.txn, i as u64);
                assert_eq!(&r.payload, &payloads[i]);
            }
        }
    }
}

/// Values for a checkpoint base: mostly short, sometimes longer than the
/// window the chain is read in, so entries cross window boundaries.
fn base_value() -> impl Strategy<Value = Vec<u8>> {
    use rrq_storage::wal::SCAN_WINDOW;
    prop_oneof![
        8 => proptest::collection::vec(any::<u8>(), 0..200),
        1 => (0usize..3, any::<u8>()).prop_map(|(extra, b)| vec![b; SCAN_WINDOW - 3 + extra * 7]),
        1 => any::<u8>().prop_map(|b| vec![b; SCAN_WINDOW * 2 + 11]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The base segment, streamed in windows and bulk-built, loads to the
    /// tree one insert per key builds from the same entries.
    #[test]
    fn a_streamed_base_loads_to_the_tree_inserts_build(
        entries in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..24), base_value()),
            0..150,
        ),
    ) {
        use rrq_storage::checkpoint::{load_chain, Segment, Tree};
        use rrq_storage::disk::Disk;
        let mut want = Tree::new();
        for (k, v) in entries {
            want.insert(k, v);
        }
        let disk = SimDisk::new();
        Segment::base(&want).write(&disk).unwrap();
        let chain = load_chain(&disk).unwrap();
        prop_assert_eq!(chain.mark.end, disk.len());
        prop_assert!(chain.mem == want, "the loaded tree differs");
    }
}

/// Keys and values for op lists: short random ones, and the lengths where a
/// LEB128 length changes width (127/128 and 16 383/16 384 bytes), empty
/// included.
fn op_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        3 => (0usize..40, any::<u8>())
            .prop_map(|(n, seed)| (0..n).map(|i| seed.wrapping_mul(i as u8 + 1)).collect()),
        2 => (0usize..6, any::<u8>())
            .prop_map(|(i, b)| vec![b; [0, 1, 127, 128, 16_383, 16_384][i]]),
    ]
}

fn op_strategy() -> impl Strategy<Value = rrq_storage::kv::WriteOp> {
    use rrq_storage::kv::WriteOp;
    prop_oneof![
        2 => (op_bytes(), op_bytes()).prop_map(|(key, value)| WriteOp::Put { key, value }),
        1 => op_bytes().prop_map(|key| WriteOp::Delete { key }),
        1 => (op_bytes(), op_bytes()).prop_map(|(from, to)| WriteOp::Move { from, to }),
    ]
}

/// Bytes of a LEB128-prefixed field of `n` bytes.
fn field_len(n: usize) -> usize {
    let mut width = 1;
    while n >> (7 * width) != 0 {
        width += 1;
    }
    width + n
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// An op list decodes to the ops it was encoded from, at exactly one tag
    /// byte plus two (or one) prefixed fields per op; and a list cut short
    /// anywhere decodes to an error or to a whole-op prefix of the ops —
    /// never to part of an op.
    #[test]
    fn op_lists_roundtrip_and_never_decode_a_partial_op(
        ops in proptest::collection::vec(op_strategy(), 0..6),
        cut_frac in 0.0f64..1.0,
    ) {
        use rrq_storage::codec::Reader;
        use rrq_storage::kv::WriteOp;
        let mut buf = Vec::new();
        WriteOp::encode_list(&ops, &mut buf);
        let want_len: usize = ops
            .iter()
            .map(|op| {
                1 + match op {
                    WriteOp::Put { key, value } => field_len(key.len()) + field_len(value.len()),
                    WriteOp::Delete { key } => field_len(key.len()),
                    WriteOp::Move { from, to } => field_len(from.len()) + field_len(to.len()),
                }
            })
            .sum();
        prop_assert_eq!(buf.len(), want_len);
        let mut r = Reader::new(&buf);
        prop_assert_eq!(&WriteOp::decode_list(&mut r).unwrap(), &ops);
        prop_assert!(r.is_empty());

        let cut = ((buf.len() as f64) * cut_frac) as usize;
        if let Ok(prefix) = WriteOp::decode_list(&mut Reader::new(&buf[..cut])) {
            prop_assert_eq!(&prefix[..], &ops[..prefix.len()]);
            let mut whole = Vec::new();
            WriteOp::encode_list(&prefix, &mut whole);
            prop_assert_eq!(&whole[..], &buf[..cut], "the cut fell between two ops");
        }
    }
}
