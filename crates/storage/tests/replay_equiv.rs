//! `recovery::replay` reads the log twice and hands each op to its sink as
//! it decodes it. It replaced a single pass that decoded every committed
//! write set of the log into one list before anything was applied; this
//! file keeps that pass as a test-only reference and checks the two agree —
//! on the ops and their order, the `RecoveryReport`, the in-doubt
//! transactions, `next_txn_id` and `valid_end` — over generated logs with
//! retried one-phase commits, retried prepares, prepares resolved by one or
//! more empty commits, aborts, `Checkpoint` records that name the chain and
//! ones that do not, and every torn tail. A CRC-valid record whose op list
//! does not decode fails both at the same offset, and the sink is never
//! called.

use proptest::prelude::*;
use rrq_storage::checkpoint::ChainMark;
use rrq_storage::codec::Reader;
use rrq_storage::disk::{CrashStyle, SimDisk, TornWriteMode};
use rrq_storage::kv::WriteOp;
use rrq_storage::recovery::{replay, RecoveryReport};
use rrq_storage::wal::{RecordKind, Wal};
use rrq_storage::{StorageError, StorageResult};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// What either pass reports, besides the ops.
#[derive(Debug, PartialEq)]
struct Found {
    report: RecoveryReport,
    in_doubt: HashMap<u64, Vec<WriteOp>>,
    in_doubt_internal: HashMap<u64, u64>,
    next_txn_id: u64,
    valid_end: u64,
}

/// The single pass `replay` used to be: every committed write set decoded
/// into memory in commit order, and flattened into one op list at the end.
fn reference(wal: &Wal, chain: ChainMark) -> StorageResult<(Vec<WriteOp>, Found)> {
    let mut commits: Vec<Vec<WriteOp>> = Vec::new();
    let mut commit_at: HashMap<u64, usize> = HashMap::new();
    let mut prepared: HashMap<u64, (u64, Vec<WriteOp>)> = HashMap::new();
    let mut aborted: HashSet<u64> = HashSet::new();
    let mut max_txn = 0u64;
    let valid_end = wal.scan_with(0, |lsn, txn, kind, payload| {
        max_txn = max_txn.max(txn);
        let corrupt = |e: StorageError| StorageError::Corrupt {
            offset: lsn,
            detail: e.to_string(),
        };
        let mut r = Reader::new(payload);
        match kind {
            RecordKind::KvPut | RecordKind::KvDelete | RecordKind::KvMove => {
                let stray = format!("a {kind:?} record outside a commit point");
                return Err(corrupt(StorageError::Decode(stray)));
            }
            RecordKind::Prepare => {
                let token = r.u64().map_err(corrupt)?;
                let ops = WriteOp::decode_list(&mut r).map_err(corrupt)?;
                prepared.insert(txn, (token, ops));
            }
            RecordKind::Commit => {
                let ops = WriteOp::decode_list(&mut r).map_err(corrupt)?;
                let logged = match commit_at.insert(txn, commits.len()) {
                    Some(at) => std::mem::take(&mut commits[at]),
                    None => prepared
                        .remove(&txn)
                        .map(|(_, ops)| ops)
                        .unwrap_or_default(),
                };
                commits.push(if ops.is_empty() { logged } else { ops });
            }
            RecordKind::Abort => {
                prepared.remove(&txn);
                aborted.insert(txn);
            }
            RecordKind::Checkpoint => {
                if chain.named_by(payload) {
                    commits.clear();
                    commit_at.clear();
                    prepared.clear();
                    aborted.clear();
                }
            }
            RecordKind::Custom(_) => {}
        }
        Ok(())
    })?;
    let redo: Vec<WriteOp> = commits.into_iter().flatten().collect();
    let mut in_doubt = HashMap::new();
    let mut in_doubt_internal = HashMap::new();
    for (id, (token, ops)) in prepared {
        in_doubt.insert(token, ops);
        in_doubt_internal.insert(token, id);
    }
    let mut tokens: Vec<u64> = in_doubt.keys().copied().collect();
    tokens.sort_unstable();
    let report = RecoveryReport {
        replayed: redo.len(),
        committed_txns: commit_at.len(),
        aborted_txns: aborted
            .iter()
            .filter(|t| !commit_at.contains_key(t))
            .count(),
        in_doubt: tokens,
    };
    let found = Found {
        report,
        in_doubt,
        in_doubt_internal,
        next_txn_id: max_txn + 1,
        valid_end,
    };
    Ok((redo, found))
}

/// The two-pass `replay`, its sink collecting the ops.
fn two_pass(wal: &Wal, chain: ChainMark) -> StorageResult<(Vec<WriteOp>, Found)> {
    let mut redo = Vec::new();
    let out = replay(wal, chain, |op| redo.push(op))?;
    let found = Found {
        report: out.report(),
        in_doubt: out.in_doubt,
        in_doubt_internal: out.in_doubt_internal,
        next_txn_id: out.next_txn_id,
        valid_end: out.valid_end,
    };
    Ok((redo, found))
}

/// The chain replay is handed, and one that no log record names.
const CHAIN: ChainMark = ChainMark { end: 65, crc: 7 };
const OTHER: ChainMark = ChainMark { end: 65, crc: 8 };

/// One log record.
#[derive(Debug, Clone)]
enum Rec {
    /// A commit record: a one-phase write set, or empty (what resolves a
    /// prepare).
    Commit {
        txn: u64,
        ops: Vec<WriteOp>,
    },
    Prepare {
        txn: u64,
        ops: Vec<WriteOp>,
    },
    Abort {
        txn: u64,
    },
    /// `Some(true)` names [`CHAIN`], `Some(false)` another chain, `None`
    /// none (the record that opens a truncated log).
    Checkpoint {
        names: Option<bool>,
    },
    Custom {
        txn: u64,
    },
    /// A CRC-valid commit record whose op list holds an unknown tag.
    Corrupt {
        txn: u64,
    },
}

impl Rec {
    fn append(&self, wal: &Wal) {
        let list = |ops: &[WriteOp]| {
            let mut buf = Vec::new();
            WriteOp::encode_list(ops, &mut buf);
            buf
        };
        let (txn, kind, payload) = match self {
            Rec::Commit { txn, ops } => (*txn, RecordKind::Commit, list(ops)),
            Rec::Prepare { txn, ops } => {
                // One token per incarnation id: two in-doubt incarnations
                // under one token would leave which one is reported to the
                // order a hash map is drained in, in either pass.
                let mut buf = (txn + 100).to_le_bytes().to_vec();
                buf.extend(list(ops));
                (*txn, RecordKind::Prepare, buf)
            }
            Rec::Abort { txn } => (*txn, RecordKind::Abort, Vec::new()),
            Rec::Checkpoint { names } => {
                let mut buf = Vec::new();
                match names {
                    Some(true) => CHAIN.encode_into(&mut buf),
                    Some(false) => OTHER.encode_into(&mut buf),
                    None => {}
                }
                (0, RecordKind::Checkpoint, buf)
            }
            Rec::Custom { txn } => (*txn, RecordKind::Custom(0xC0), vec![1]),
            Rec::Corrupt { txn } => (*txn, RecordKind::Commit, vec![0x09, 0x01, b'k']),
        };
        wal.append(txn, kind, &payload).unwrap();
    }
}

fn op_strategy() -> impl Strategy<Value = WriteOp> {
    let key = || (0u8..6).prop_map(|k| vec![b'k', k]);
    // Now and then a value larger than a scan window, so records straddle
    // the window boundary.
    let len = prop_oneof![30 => 0usize..40, 1 => 70_000usize..70_100];
    prop_oneof![
        4 => (key(), len, any::<u8>())
            .prop_map(|(key, len, fill)| WriteOp::Put { key, value: vec![fill; len] }),
        2 => key().prop_map(|key| WriteOp::Delete { key }),
        2 => (key(), key()).prop_map(|(from, to)| WriteOp::Move { from, to }),
    ]
}

fn ops_strategy() -> impl Strategy<Value = Vec<WriteOp>> {
    proptest::collection::vec(op_strategy(), 1..4)
}

/// One step of a script: one record, or the records of a retried commit
/// point.
fn step_strategy() -> impl Strategy<Value = Vec<Rec>> {
    let txn = || 1u64..6;
    prop_oneof![
        // A one-phase commit, its force retried `n - 1` times.
        6 => (txn(), ops_strategy(), 1usize..4)
            .prop_map(|(txn, ops, n)| vec![Rec::Commit { txn, ops }; n]),
        // A prepare, retried, then resolved by zero or more empty commits.
        3 => (txn(), ops_strategy(), 1usize..3, 0usize..3).prop_map(|(txn, ops, p, c)| {
            let mut recs = vec![Rec::Prepare { txn, ops }; p];
            recs.extend(vec![Rec::Commit { txn, ops: Vec::new() }; c]);
            recs
        }),
        // Lone records, interleaving with the shapes above by txn id.
        2 => txn().prop_map(|txn| vec![Rec::Commit { txn, ops: Vec::new() }]),
        2 => (txn(), ops_strategy()).prop_map(|(txn, ops)| vec![Rec::Prepare { txn, ops }]),
        2 => txn().prop_map(|txn| vec![Rec::Abort { txn }]),
        2 => (0u8..3).prop_map(|n| vec![Rec::Checkpoint {
            names: [Some(true), Some(false), None][usize::from(n)],
        }]),
        1 => txn().prop_map(|txn| vec![Rec::Custom { txn }]),
        1 => Just(vec![Rec::Checkpoint { names: Some(true) }]),
    ]
}

/// How the log's unsynced tail ends.
const CRASHES: [Option<CrashStyle>; 2] = [None, Some(CrashStyle::DropVolatile)];

/// The log of `recs`, the first `synced` of them forced, the rest lost or
/// torn by `crash` (`Err` = torn with that mode).
fn log_of(recs: &[Rec], synced: usize, crash: Result<Option<CrashStyle>, TornWriteMode>) -> Wal {
    let disk = SimDisk::new();
    let wal = Wal::new(Arc::new(disk.clone()));
    for (i, rec) in recs.iter().enumerate() {
        if i == synced {
            wal.sync().unwrap();
        }
        rec.append(&wal);
    }
    match crash {
        Ok(Some(style)) => disk.crash(style),
        Ok(None) => {}
        Err(mode) => disk.crash_torn(mode),
    }
    wal
}

/// Both passes over one log: the same ops in the same order and the same
/// findings, or the same corrupt record with nothing handed to the sink.
fn agree(wal: &Wal) -> Result<(), TestCaseError> {
    match (reference(wal, CHAIN), two_pass(wal, CHAIN)) {
        (Ok(want), Ok(got)) => prop_assert_eq!(got, want),
        (
            Err(StorageError::Corrupt { offset: want, .. }),
            Err(StorageError::Corrupt { offset: got, .. }),
        ) => {
            prop_assert_eq!(got, want);
            let mut handed = 0;
            let _ = replay(wal, CHAIN, |_| handed += 1);
            prop_assert_eq!(handed, 0, "ops handed over before the corrupt record");
        }
        (want, got) => {
            let outcome = |r: &StorageResult<(Vec<WriteOp>, Found)>| match r {
                Ok((ops, found)) => format!("{} ops, {found:?}", ops.len()),
                Err(e) => format!("{e}"),
            };
            return Err(TestCaseError::fail(format!(
                "reference {}, two-pass {}",
                outcome(&want),
                outcome(&got)
            )));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every generated log, with every tail: clean, dropped, and torn in
    /// each `TornWriteMode`.
    #[test]
    fn two_pass_replay_matches_the_single_pass_reference(
        steps in proptest::collection::vec(step_strategy(), 1..16),
        corrupt in (0u8..5, any::<u16>()),
        cut in 0.0f64..1.0,
    ) {
        let mut recs: Vec<Rec> = steps.into_iter().flatten().collect();
        // In one case of five, a corrupt record somewhere in the log —
        // possibly in an attempt a retry supersedes, before a record that
        // names the chain, or in the tail a crash loses.
        if corrupt.0 == 0 {
            let at = usize::from(corrupt.1) % (recs.len() + 1);
            recs.insert(at, Rec::Corrupt { txn: 1 + at as u64 % 5 });
        }
        let synced = (cut * recs.len() as f64) as usize;
        for crash in CRASHES {
            agree(&log_of(&recs, synced, Ok(crash)))?;
        }
        for mode in TornWriteMode::ALL {
            agree(&log_of(&recs, synced, Err(mode)))?;
        }
    }
}
