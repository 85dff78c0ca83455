//! A recoverable, transactional, main-memory key-value store.
//!
//! This is the "main memory database" of §10 of the paper: all live data is
//! in an in-memory B-tree, durability comes from the write-ahead log, and a
//! periodic checkpoint bounds recovery time. The store is the foundation for
//! the queue manager's element, registration, and metadata tables, and for
//! the application databases (bank accounts, orders) used by the servers.
//!
//! ## Transaction discipline
//!
//! * All mutations happen under a caller-supplied transaction token
//!   ([`KvStore::begin`]). Uncommitted writes live only in the transaction's
//!   private buffer — they never touch the shared tree, so *abort is a no-op*
//!   on the tree and crash recovery is redo-only.
//! * Reads within a transaction see the transaction's own writes (the buffer
//!   is an overlay over the tree).
//! * [`KvStore::rename`] moves a value to another key without copying it or
//!   logging it again: its redo op ([`WriteOp::Move`]) carries the two keys.
//! * [`KvStore::prepare`] forces one `Prepare` record carrying the
//!   transaction's write set — phase 1 of two-phase commit. A prepared
//!   transaction survives a crash as *in-doubt* and can be resolved either
//!   way by the coordinator after recovery.
//! * [`KvStore::commit`] forces one `Commit` record (carrying the write set
//!   if `prepare` was skipped, the one-phase fast path; empty after a
//!   prepare) and only then applies the writes to the tree. A transaction
//!   that wrote nothing and was never prepared commits without a record or
//!   a force.
//!
//! Concurrency control (locking) is the responsibility of the transaction
//! layer above; this store guarantees atomicity and durability only.
//!
//! ## The main-memory store
//!
//! [`KvStore::volatile`] is the store of the paper's *volatile queues*
//! (§10): the same transactions, overlay, tree and retire line with no log
//! or checkpoint device behind them. Its commit point is the draw of a
//! retire-line number; `prepare` only marks the transaction, `force_wal` has
//! nothing to force and `checkpoint` is refused.
//! It encodes no frame, computes no checksum and retains no byte per commit,
//! and its contents die with the process.
//!
//! ## One store, one log
//!
//! A store writes one write-ahead log, with one append latch. A commit point
//! frames one record, the transaction's whole write set inside it
//! ([`WriteOp::encode_list`]), in the latch's buffer and hands it to the
//! device as one write, so the order of commit records in the log *is*
//! commit order and recovery replays the log as it scans it (see
//! [`crate::recovery::replay`]). Every force — commit, prepare, epoch close,
//! checkpoint — is the log's own group commit, [`Wal::force_through`]. Forces
//! run outside the latch, so two committers can return from their forces in either order;
//! the retire line applies their writes to the shared tree in the order of
//! the sequence numbers they drew under the latch, which keeps the live tree
//! equal to what recovery would rebuild. Scaling past one log is the job of the layer
//! above: a repository partition is a whole store with its own log.
//!
//! A checkpoint is the whole tree as one base segment (see
//! [`crate::checkpoint`]). It appends a `Checkpoint` record naming that
//! segment, forces the log, swaps the segment onto the checkpoint device,
//! and then resets the log with one atomic device swap ([`Wal::reset`]). A
//! crash between the last two leaves the *whole* log beside a checkpoint that
//! already covers it up to that record, and recovery replays only what
//! follows the record naming the checkpoint it loaded. Replaying the covered
//! part again would rebuild the same tree from puts and deletes — every key
//! would end at the log's last value for it, which the checkpoint recorded —
//! but not from a move, which reads the tree it is replayed over. The force
//! is what makes the covered part whole: a checkpoint over commits whose
//! records were still volatile would be followed by a log that ends before
//! them.
//!
//! ## Internal locking
//!
//! The store is reader-parallel: committed state lives in `mem` behind an
//! `RwLock`, so `get`/`scan_prefix*` take a read lock and run concurrently
//! with each other and with the logging half of a commit. Private overlays
//! live in `txns`, striped by token so that two open transactions do not
//! share a lock word; the log's append latch serializes appends, and a
//! commit point hands the device its one record as one write. Forces run
//! after the latch is released, and the log's [`Wal::force_through`] batches
//! concurrent committers into one device sync per group.
//!
//! A transaction's write set exists once: `put` moves the caller's buffers
//! into `TxnState::ops`, or copies borrowed bytes there ([`IntoBytes`]); the
//! read-your-writes overlay indexes into it by key hash and copies no key.
//! Commit and prepare take the whole state out of `txns` so the log can be
//! written from it by reference with no internal lock held, and a successful
//! commit moves the operations into `mem`. A commit-point operation that
//! fails puts the state back, so the transaction stays open and retryable. A
//! read hands the caller the value where it is held
//! ([`KvStore::get_with`]); [`KvStore::get`] is the copying one.
//!
//! Lock order: a thread holds at most one of {a `txns` stripe, `mem`,
//! `latch`} at a time, except the apply step (`apply` → `mem.write`) and
//! checkpointing, which holds the exclusive `ckpt_gate` and may take
//! `mem.read` then the log latch. Commit-point record writers (commit /
//! prepare / logged abort) hold `ckpt_gate.read` so a checkpoint can never
//! truncate the log while a commit record is in flight between append and
//! sync. The classes and their declared order live in `LOCKS.md` (kv-gate,
//! kv-txns, kv-log, kv-apply, kv-mem, and the log's wal-force); the rrq-lint
//! `lock-order` and `no-block-under-guard` rules check every path against
//! them — in particular the log latch is a no-block class, so device forces
//! happen outside it (see [`KvStore::checkpoint`]).

use crate::checkpoint::{load_chain, Segment, Tree};
use crate::codec::{put, Reader};
use crate::disk::Disk;
use crate::error::{StorageError, StorageResult};
use crate::recovery::{replay, RecoveryReport};
use crate::wal::{GroupCommitStats, RecordKind, Wal};
use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};
use rrq_obs::Obs;
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A single redo operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteOp {
    /// Insert or overwrite `key`.
    Put {
        /// Key bytes.
        key: Vec<u8>,
        /// Value bytes.
        value: Vec<u8>,
    },
    /// Remove `key` (removing an absent key is a logged no-op).
    Delete {
        /// Key bytes.
        key: Vec<u8>,
    },
    /// Rename `from` to `to`, replacing whatever `to` held: the value stays
    /// where it is, in the tree and in the log (moving an absent key is a
    /// logged no-op that leaves `to` alone).
    Move {
        /// The key the value leaves.
        from: Vec<u8>,
        /// The key it is found under afterwards.
        to: Vec<u8>,
    },
}

impl WriteOp {
    /// Append `ops` to `buf` as the op list a `Commit` or `Prepare` record
    /// carries: per op, one tag byte (the byte of [`RecordKind::KvPut`],
    /// `KvDelete` or `KvMove`), then its key and value, or its two keys, each
    /// prefixed with its LEB128 length. Nothing else: no count, no padding.
    pub fn encode_list(ops: &[WriteOp], buf: &mut Vec<u8>) {
        for op in ops {
            match op {
                WriteOp::Put { key, value } => {
                    buf.push(RecordKind::KvPut.to_byte());
                    put::var_bytes(buf, key);
                    put::var_bytes(buf, value);
                }
                WriteOp::Delete { key } => {
                    buf.push(RecordKind::KvDelete.to_byte());
                    put::var_bytes(buf, key);
                }
                WriteOp::Move { from, to } => {
                    buf.push(RecordKind::KvMove.to_byte());
                    put::var_bytes(buf, from);
                    put::var_bytes(buf, to);
                }
            }
        }
    }

    /// Read an op list from `r` to its end, copying each key and value out
    /// once. An unknown tag, a length past the end, or an over-long varint
    /// is an error, and no partial list is returned.
    pub fn decode_list(r: &mut Reader<'_>) -> StorageResult<Vec<WriteOp>> {
        let mut ops = Vec::new();
        OpRef::decode_each(r, |op| ops.push(op.into_op()))?;
        Ok(ops)
    }
}

/// A [`WriteOp`] borrowed from the op list that logs it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum OpRef<'a> {
    Put { key: &'a [u8], value: &'a [u8] },
    Delete { key: &'a [u8] },
    Move { from: &'a [u8], to: &'a [u8] },
}

impl<'a> OpRef<'a> {
    /// Read the op list in `r` to its end and hand each op to `each` as soon
    /// as it is read, borrowed from the list: nothing is copied unless `each`
    /// copies it. An unknown tag, a length past the end, or an over-long
    /// varint is an error — after the ops before it were handed over.
    pub(crate) fn decode_each(
        r: &mut Reader<'a>,
        mut each: impl FnMut(OpRef<'a>),
    ) -> StorageResult<()> {
        while !r.is_empty() {
            let kind = RecordKind::from_byte(r.u8()?)?;
            each(match kind {
                RecordKind::KvPut => OpRef::Put {
                    key: r.var_bytes_ref()?,
                    value: r.var_bytes_ref()?,
                },
                RecordKind::KvDelete => OpRef::Delete {
                    key: r.var_bytes_ref()?,
                },
                RecordKind::KvMove => OpRef::Move {
                    from: r.var_bytes_ref()?,
                    to: r.var_bytes_ref()?,
                },
                other => {
                    return Err(StorageError::Decode(format!("{other:?} is not an op tag")));
                }
            });
        }
        Ok(())
    }

    /// The op, its keys and value copied out.
    pub(crate) fn into_op(self) -> WriteOp {
        match self {
            OpRef::Put { key, value } => WriteOp::Put {
                key: key.to_vec(),
                value: value.to_vec(),
            },
            OpRef::Delete { key } => WriteOp::Delete { key: key.to_vec() },
            OpRef::Move { from, to } => WriteOp::Move {
                from: from.to_vec(),
                to: to.to_vec(),
            },
        }
    }
}

/// A key or value handed to the store's write calls: an owned buffer moves
/// into the write set, anything borrowed is copied into one.
pub trait IntoBytes {
    /// The bytes as a buffer of their own.
    fn into_bytes(self) -> Vec<u8>;
}

impl IntoBytes for Vec<u8> {
    fn into_bytes(self) -> Vec<u8> {
        self
    }
}

impl<T: AsRef<[u8]> + ?Sized> IntoBytes for &T {
    fn into_bytes(self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

/// Hasher of the store's own tables (`txns`, a transaction's overlay) and of
/// the lock table (`rrq_txn`): one multiply per eight key bytes, where
/// `std`'s SipHash works a byte at a time. Which bucket a key lands in is
/// never observable (the tables are only probed, or drained into ordered
/// collections), and whoever can choose keys to collide already holds the
/// transaction interface, so the flooding protection of the default hasher
/// buys nothing here.
#[derive(Debug, Default, Clone, Copy)]
pub struct KeyHasher(u64);

impl KeyHasher {
    /// The hash a table of this hasher gives `key`: its length, then its
    /// bytes, as `Hash for [u8]` writes them. Computed once, it can stand
    /// for the key in a table of hashes (a transaction's overlay, the lock
    /// table).
    pub fn hash_bytes(key: &[u8]) -> u64 {
        BuildHasherDefault::<KeyHasher>::default().hash_one(key)
    }

    /// Multiply to 128 bits and fold the halves together, so every bit of
    /// `word` reaches both the low bits of the state (a table's bucket index)
    /// and its top seven (the tag a probe compares first). A plain 64-bit
    /// multiply-rotate does not: the store's keys end in big-endian
    /// counters, whose fast-moving byte is the *high* byte of the last word
    /// and would move nothing but a few top bits.
    #[inline]
    fn mix(&mut self, word: u64) {
        let m = u128::from(self.0 ^ word ^ 0x243f_6a88_85a3_08d3) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }
}

impl Hasher for KeyHasher {
    /// Whole words, the last one re-read from the key's final eight bytes
    /// (it may overlap the word before; the length is hashed too, so equal
    /// hashes still need equal bytes); shorter keys from two overlapping
    /// halves or three bytes. No tail buffer, no copy loop.
    #[inline]
    fn write(&mut self, key: &[u8]) {
        let word = |at: usize| u64::from_le_bytes(key[at..at + 8].try_into().expect("eight bytes"));
        let half = |at: usize| {
            u64::from(u32::from_le_bytes(
                key[at..at + 4].try_into().expect("four bytes"),
            ))
        };
        let n = key.len();
        if n >= 8 {
            let mut at = 0;
            while at + 8 < n {
                self.mix(word(at));
                at += 8;
            }
            self.mix(word(n - 8));
        } else if n >= 4 {
            self.mix(half(0) | half(n - 4) << 32);
        } else if n > 0 {
            self.mix(u64::from(key[0]) | u64::from(key[n / 2]) << 8 | u64::from(key[n - 1]) << 16);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

/// Per-transaction private state.
#[derive(Debug, Default)]
struct TxnState {
    /// Unique incarnation id stamped into this transaction's log records.
    /// Never reused (the counter resumes past every id found in the log),
    /// so a recycled caller token can never splice a dead incarnation's
    /// records into a later outcome during replay.
    internal: u64,
    /// Redo operations in execution order. The only copy of the written
    /// keys and values: commit logs them from here and then moves them into
    /// the tree.
    ops: Vec<WriteOp>,
    /// Overlay for read-your-writes: [`KeyHasher::hash_bytes`] of a written
    /// key → the [`Slot`] of the latest write to it; the key is read from
    /// `ops`, not copied. A key whose hash another written key holds (a
    /// 64-bit collision: practically never) takes the next free hash; no
    /// entry is ever removed, so a lookup probes forward until it finds the
    /// key or a hash nobody holds.
    overlay: KeyMap<u64, Slot>,
    /// Writes have been logged (prepare ran, or recovery found them).
    logged: bool,
    /// Prepare record is durable — the txn is in-doubt until resolved.
    prepared: bool,
}

/// Where a written key is held: the index of its op in `TxnState::ops` and,
/// for a move, which of the op's two keys it is.
#[derive(Debug, Clone, Copy)]
struct Slot {
    op: usize,
    to: bool,
}

/// The key of `ops` that `s` names.
fn key_at(ops: &[WriteOp], s: Slot) -> &[u8] {
    match &ops[s.op] {
        WriteOp::Put { key, .. } | WriteOp::Delete { key } => key,
        WriteOp::Move { to, .. } if s.to => to,
        WriteOp::Move { from, .. } => from,
    }
}

/// What a transaction's own writes say about one key. Borrowed from the
/// transaction's state under its `txns` stripe; [`Own::into_owned`] takes it
/// out from under the stripe to be resolved under `mem` (a thread holds one
/// of the two at a time).
enum Own<'a> {
    /// Put here, with this value.
    Value(Cow<'a, [u8]>),
    /// Deleted, or moved away, here.
    Absent,
    /// Moved here from this key of the committed tree, where the value still
    /// is: nothing of the transaction is applied before its commit.
    TreeValueOf(Cow<'a, [u8]>),
}

impl Own<'_> {
    fn into_owned(self) -> Own<'static> {
        match self {
            Own::Value(v) => Own::Value(Cow::Owned(v.into_owned())),
            Own::Absent => Own::Absent,
            Own::TreeValueOf(from) => Own::TreeValueOf(Cow::Owned(from.into_owned())),
        }
    }

    /// The key's value as the transaction sees it, over the committed `mem`.
    fn resolve(self, mem: &Tree) -> Option<Vec<u8>> {
        match self {
            Own::Value(v) => Some(v.into_owned()),
            Own::Absent => None,
            Own::TreeValueOf(from) => mem.get(from.as_ref()).cloned(),
        }
    }
}

impl TxnState {
    fn buffer_put(&mut self, key: Vec<u8>, value: Vec<u8>) {
        self.ops.push(WriteOp::Put { key, value });
        self.index(false);
    }

    fn buffer_delete(&mut self, key: Vec<u8>) {
        self.ops.push(WriteOp::Delete { key });
        self.index(false);
    }

    /// Record a move of `from`, a key this transaction has not written, to
    /// `to`. `in_tree`: the committed tree holds `from` — otherwise the move
    /// will find nothing to move, and the transaction's view of `to` stays
    /// what it was.
    fn buffer_move(&mut self, from: Vec<u8>, to: Vec<u8>, in_tree: bool) {
        self.ops.push(WriteOp::Move { from, to });
        self.index(false);
        if in_tree {
            self.index(true);
        }
    }

    /// Point the overlay at the last op for its key (`to`: a move's target).
    fn index(&mut self, to: bool) {
        let s = Slot {
            op: self.ops.len() - 1,
            to,
        };
        self.index_at(KeyHasher::hash_bytes(key_at(&self.ops, s)), s);
    }

    /// [`TxnState::index`] with the hash `h` of `s`'s key given.
    fn index_at(&mut self, mut h: u64, s: Slot) {
        let key = key_at(&self.ops, s);
        loop {
            match self.overlay.entry(h) {
                Entry::Occupied(o) if key_at(&self.ops, *o.get()) != key => h = h.wrapping_add(1),
                e => {
                    e.insert_entry(s);
                    return;
                }
            }
        }
    }

    /// Where the latest write to `key` is held: `None` = not written here.
    fn slot(&self, key: &[u8]) -> Option<Slot> {
        self.slot_at(KeyHasher::hash_bytes(key), key)
    }

    /// [`TxnState::slot`] with the hash `h` of `key` given.
    fn slot_at(&self, mut h: u64, key: &[u8]) -> Option<Slot> {
        loop {
            let s = *self.overlay.get(&h)?;
            if key_at(&self.ops, s) == key {
                return Some(s);
            }
            h = h.wrapping_add(1);
        }
    }

    /// The transaction's own view of `key`: `None` = not written here.
    fn read(&self, key: &[u8]) -> Option<Own<'_>> {
        self.slot(key).map(|s| Self::written(&self.ops[s.op], key))
    }

    /// Every key written here with the transaction's view of it, unordered.
    fn writes(&self) -> impl Iterator<Item = (&[u8], Own<'_>)> {
        self.overlay.values().map(|&s| {
            let key = key_at(&self.ops, s);
            (key, Self::written(&self.ops[s.op], key))
        })
    }

    /// What `op`, the latest write to `key`, left under it.
    fn written<'a>(op: &'a WriteOp, key: &[u8]) -> Own<'a> {
        match op {
            WriteOp::Put { value, .. } => Own::Value(Cow::Borrowed(value)),
            WriteOp::Delete { .. } => Own::Absent,
            // `to` first: a key moved onto itself keeps its value.
            WriteOp::Move { from, to } if key == to.as_slice() => {
                Own::TreeValueOf(Cow::Borrowed(from))
            }
            WriteOp::Move { .. } => Own::Absent,
        }
    }
}

/// What makes a store recoverable: its WAL, the append latch serializing
/// appends, and the checkpoint device. The latch owns the log's frame buffer:
/// whoever may append may build a frame in it, and its capacity carries over
/// from record to record.
struct LogUnit {
    wal: Wal,
    latch: Mutex<Vec<u8>>,
    ckpt: Arc<dyn Disk>,
}

/// Move one committed (or replayed) operation into the tree.
fn apply(mem: &mut Tree, op: WriteOp) {
    match op {
        WriteOp::Put { key, value } => {
            mem.insert(key, value);
        }
        WriteOp::Delete { key } => {
            mem.remove(&key);
        }
        WriteOp::Move { from, to } => {
            // The node changes keys; its value is not copied.
            if let Some(moved) = mem.remove(&from) {
                mem.insert(to, moved);
            }
        }
    }
}

/// The committed entries of `mem` under `prefix`, in key order.
fn committed_range<'a>(
    mem: &'a Tree,
    prefix: &'a [u8],
) -> impl Iterator<Item = (&'a Vec<u8>, &'a Vec<u8>)> {
    mem.range::<[u8], _>((Bound::Included(prefix), Bound::Unbounded))
        .take_while(move |(k, _)| k.starts_with(prefix))
}

/// Stripes of the open-transaction table (as the queue manager's pending
/// map: tokens are handed out in sequence, so concurrent transactions land
/// on different stripes).
const TXN_STRIPES: usize = 16;

/// One stripe, on a cache line of its own.
#[repr(align(64))]
struct TxnStripe(Mutex<KeyMap<u64, TxnState>>);

/// Handle to an open transaction, used purely as documentation — all methods
/// take the raw token so the transaction layer can drive many stores with
/// one token.
pub type KvTxn = u64;

/// The recoverable key-value store. Cheap to share via `Arc`.
pub struct KvStore {
    /// Committed state. Readers share; only the apply step writes.
    mem: RwLock<Tree>,
    /// Open transactions' private buffers, striped by token so that two
    /// transactions' reads and writes of their own buffers do not share a
    /// lock word. A thread holds at most one stripe at a time.
    txns: Box<[TxnStripe]>,
    /// `None` in the main-memory store ([`KvStore::volatile`]).
    log: Option<LogUnit>,
    /// Commit sequence: drawn under the append latch, so it numbers commit
    /// records in log order. It is the retire line's ticket and nothing
    /// else — never written to disk, restarting at zero with every open.
    commit_seq: AtomicU64,
    /// Incarnation-id allocator (see [`TxnState::internal`]).
    next_txn: AtomicU64,
    /// The retire line: how many commits have been applied. The commit with
    /// sequence number `n` may touch the shared tree only once it reads `n`.
    applied: Mutex<u64>,
    apply_cv: Condvar,
    /// Commit-point writers hold `read`; checkpoint holds `write` so the
    /// log is never truncated under an in-flight commit record.
    ckpt_gate: RwLock<()>,
    commits: AtomicU64,
    aborts: AtomicU64,
}

impl KvStore {
    /// Open (or recover) a store over a log device and a checkpoint device.
    ///
    /// Recovery loads the checkpoint, replays every committed transaction of
    /// the log in log order, and re-materializes prepared but unresolved
    /// transactions as in-doubt (listed in the returned [`RecoveryReport`];
    /// resolve them with [`KvStore::commit`] / [`KvStore::abort`]). A
    /// checkpoint device that is not empty and not exactly one valid base
    /// fails the open as [`StorageError::Corrupt`].
    ///
    /// The store's log reports to `obs`, recovery included.
    pub fn open(
        wal_disk: Arc<dyn Disk>,
        ckpt_disk: Arc<dyn Disk>,
        obs: Obs,
    ) -> StorageResult<(Arc<KvStore>, RecoveryReport)> {
        let chain = load_chain(ckpt_disk.as_ref())?;

        let wal = Wal::with_obs(wal_disk, obs);
        // A log that survived a crash between "segment durable" and "log
        // reset" names the chain that covers it, and is replayed from there
        // (see the module docs). Each op goes into the checkpoint's tree as
        // the second pass decodes it, before the store exists.
        let mut mem = chain.mem;
        let outcome = replay(&wal, chain.mark, |op| apply(&mut mem, op))?;
        let obs = wal.obs();
        obs.counter_inc("storage.recovery.runs");
        obs.counter_add("storage.recovery.redo_records", outcome.replayed as u64);
        obs.counter_add("storage.recovery.in_doubt", outcome.in_doubt.len() as u64);

        // Discard a torn tail (a crash mid-append left corrupt bytes on the
        // platter). Future appends must start at the log's valid prefix, or
        // the next recovery's scan would stop at the old tear and lose them.
        if outcome.valid_end < wal.len() {
            wal.disk().truncate(outcome.valid_end)?;
            obs.counter_inc("storage.recovery.torn_tail_truncations");
        }

        let report = outcome.report();
        let store = KvStore::new(
            mem,
            Some(LogUnit {
                wal,
                latch: Mutex::new(Vec::new()),
                ckpt: ckpt_disk,
            }),
            outcome.next_txn_id,
        );
        for (token, ops) in outcome.in_doubt {
            let mut st = TxnState {
                internal: outcome.in_doubt_internal.get(&token).copied().unwrap_or(0),
                logged: true,
                prepared: true,
                ..Default::default()
            };
            for op in ops {
                match op {
                    WriteOp::Put { key, value } => st.buffer_put(key, value),
                    WriteOp::Delete { key } => st.buffer_delete(key),
                    WriteOp::Move { from, to } => {
                        // As `KvStore::rename` recorded it: a key-only move
                        // of a key the transaction had not written before.
                        let in_tree = {
                            let mem = store.mem.read();
                            mem.contains_key(&from)
                        };
                        st.buffer_move(from, to, in_tree);
                    }
                }
            }
            store.txn_stripe(token).insert(token, st);
        }
        Ok((Arc::new(store), report))
    }

    /// The main-memory store of the paper's volatile queues (§10): empty,
    /// with nothing behind it (see the module docs). Same transaction
    /// interface as a store from [`KvStore::open`].
    pub fn volatile() -> Arc<KvStore> {
        Arc::new(KvStore::new(Tree::new(), None, 1))
    }

    fn new(mem: Tree, log: Option<LogUnit>, next_txn: u64) -> KvStore {
        KvStore {
            mem: RwLock::new(mem),
            txns: (0..TXN_STRIPES)
                .map(|_| TxnStripe(Mutex::new(KeyMap::default())))
                .collect(),
            log,
            commit_seq: AtomicU64::new(0),
            next_txn: AtomicU64::new(next_txn),
            applied: Mutex::new(0),
            apply_cv: Condvar::new(),
            ckpt_gate: RwLock::new(()),
            commits: AtomicU64::new(0),
            aborts: AtomicU64::new(0),
        }
    }

    /// The stripe of the open-transaction table that owns `txn`.
    fn txn_stripe(&self, txn: KvTxn) -> MutexGuard<'_, KeyMap<u64, TxnState>> {
        self.txn_stripe_at(txn as usize % TXN_STRIPES)
    }

    fn txn_stripe_at(&self, i: usize) -> MutexGuard<'_, KeyMap<u64, TxnState>> {
        self.txns[i].0.lock()
    }

    /// Begin a transaction under the caller's token.
    pub fn begin(&self, txn: KvTxn) -> StorageResult<()> {
        let internal = self.next_txn.fetch_add(1, Ordering::SeqCst);
        let mut g = self.txn_stripe(txn);
        if g.contains_key(&txn) {
            return Err(StorageError::InvalidState(format!(
                "txn {txn} already open"
            )));
        }
        g.insert(
            txn,
            TxnState {
                internal,
                ..Default::default()
            },
        );
        Ok(())
    }

    /// True if `txn` is currently open (including recovered in-doubt ones).
    pub fn is_open(&self, txn: KvTxn) -> bool {
        self.txn_stripe(txn).contains_key(&txn)
    }

    /// Buffer a put in `txn`. An owned key or value (`Vec<u8>`) moves into
    /// the write set; a borrowed one is copied ([`IntoBytes`]).
    pub fn put(&self, txn: KvTxn, key: impl IntoBytes, value: impl IntoBytes) -> StorageResult<()> {
        let mut g = self.txn_stripe(txn);
        writable(&mut g, txn)?.buffer_put(key.into_bytes(), value.into_bytes());
        Ok(())
    }

    /// Buffer a delete in `txn`; the key moves in or is copied, as in
    /// [`KvStore::put`].
    pub fn delete(&self, txn: KvTxn, key: impl IntoBytes) -> StorageResult<()> {
        let mut g = self.txn_stripe(txn);
        writable(&mut g, txn)?.buffer_delete(key.into_bytes());
        Ok(())
    }

    /// Buffer a rename in `txn`: at commit the value under `from` is found
    /// under `to` (replacing what `to` held) and `from` is gone. The redo
    /// op carries the two keys only — the value was logged when it was
    /// put, and the tree node changes keys without being copied. Renaming a
    /// key that holds nothing is a logged no-op, like deleting one. A `from`
    /// this transaction wrote itself has no logged value yet, so its rename
    /// is buffered as the delete and the put it amounts to.
    pub fn rename(&self, txn: KvTxn, from: &[u8], to: impl IntoBytes) -> StorageResult<()> {
        // Read before the stripe is taken (one internal lock at a time);
        // the caller's lock on `from` keeps the answer true until commit.
        let in_tree = {
            let mem = self.mem.read();
            mem.contains_key(from)
        };
        {
            let mut g = self.txn_stripe(txn);
            let st = writable(&mut g, txn)?;
            if st.slot(from).is_none() {
                st.buffer_move(from.to_vec(), to.into_bytes(), in_tree);
                return Ok(());
            }
        }
        let own = self.get(Some(txn), from)?;
        self.delete(txn, from)?;
        match own {
            Some(value) => self.put(txn, to, value),
            None => Ok(()),
        }
    }

    /// Read `key` as a copy. With `Some(txn)`, the transaction's own writes
    /// are visible; with `None`, only committed state is read.
    pub fn get(&self, txn: Option<KvTxn>, key: &[u8]) -> StorageResult<Option<Vec<u8>>> {
        self.get_with(txn, key, |v| v.map(<[u8]>::to_vec))
    }

    /// Read `key` as [`KvStore::get`] does and hand the value to `f`
    /// borrowed where it is held — the transaction's write set or the tree —
    /// so nothing is copied unless `f` copies it. `f` runs under the
    /// transaction's stripe or the tree's read lock and must not call back
    /// into this store or take a lock of its own (`kv-mem` in LOCKS.md).
    pub fn get_with<R>(
        &self,
        txn: Option<KvTxn>,
        key: &[u8],
        f: impl FnOnce(Option<&[u8]>) -> R,
    ) -> StorageResult<R> {
        // The tree key that holds the value: `key`, unless `txn` moved it.
        let mut moved_from = None;
        if let Some(t) = txn {
            let g = self.txn_stripe(t);
            let st = g.get(&t).ok_or(StorageError::UnknownTxn(t))?;
            match st.read(key) {
                Some(Own::Value(v)) => return Ok(f(Some(&v))),
                Some(Own::Absent) => return Ok(f(None)),
                Some(Own::TreeValueOf(from)) => moved_from = Some(from.into_owned()),
                None => {}
            }
        }
        let mem = self.mem.read();
        let at = moved_from.as_deref().unwrap_or(key);
        Ok(f(mem.get(at).map(Vec::as_slice)))
    }

    /// Scan all committed keys with `prefix`, merged with the transaction's
    /// overlay when `txn` is supplied. Results are key-ordered.
    pub fn scan_prefix(
        &self,
        txn: Option<KvTxn>,
        prefix: &[u8],
    ) -> StorageResult<Vec<(Vec<u8>, Vec<u8>)>> {
        // Overlay first (own-thread data, brief txns lock), tree second —
        // never two internal locks at once.
        let overlay: Vec<(Vec<u8>, Own<'static>)> = match txn {
            Some(t) => {
                let g = self.txn_stripe(t);
                let st = g.get(&t).ok_or(StorageError::UnknownTxn(t))?;
                st.writes()
                    .filter(|(k, _)| k.starts_with(prefix))
                    .map(|(k, own)| (k.to_vec(), own.into_owned()))
                    .collect()
            }
            None => Vec::new(),
        };
        let mem = self.mem.read();
        let committed = committed_range(&mem, prefix).map(|(k, v)| (k.clone(), v.clone()));
        if overlay.is_empty() {
            return Ok(committed.collect()); // already in key order
        }
        let mut out: BTreeMap<Vec<u8>, Vec<u8>> = committed.collect();
        for (k, own) in overlay {
            match own.resolve(&mem) {
                Some(val) => {
                    out.insert(k, val);
                }
                None => {
                    out.remove(&k);
                }
            }
        }
        Ok(out.into_iter().collect())
    }

    /// Hand `visit` every committed entry under `prefix`, in key order,
    /// borrowed from the tree: no key or value is copied. The tree's read
    /// lock is held for the whole walk, so `visit` must not call back into
    /// this store or take a lock of its own (`kv-mem` in LOCKS.md). The first
    /// error `visit` returns ends the walk and is returned.
    pub fn for_each_committed<E>(
        &self,
        prefix: &[u8],
        mut visit: impl FnMut(&[u8], &[u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        let mem = self.mem.read();
        for (k, v) in committed_range(&mem, prefix) {
            visit(k, v)?;
        }
        Ok(())
    }

    /// Number of committed keys (diagnostics).
    pub fn committed_len(&self) -> usize {
        self.mem.read().len()
    }

    /// Phase 1 of two-phase commit: force a `Prepare` record carrying the
    /// transaction's write set to the log. After this returns, the transaction
    /// will survive a crash as in-doubt. (The main-memory store has no crash
    /// to survive: there, prepare only closes the transaction to writes.)
    pub fn prepare(&self, txn: KvTxn) -> StorageResult<()> {
        let _gate = self.ckpt_gate.read();
        // Checked out, no write can slip in unlogged between the logging and
        // the durable prepare record.
        let mut st = self.checkout(txn)?;
        let result = if st.prepared {
            Ok(()) // idempotent
        } else {
            self.log_prepare(txn, &st)
        };
        if result.is_ok() {
            st.logged = true;
            st.prepared = true;
        }
        // Back in on every path: after a failure unprepared, write set
        // intact, and the caller may retry.
        self.txn_stripe(txn).insert(txn, st);
        result
    }

    fn log_prepare(&self, txn: KvTxn, st: &TxnState) -> StorageResult<()> {
        let Some(log) = &self.log else {
            return Ok(());
        };
        // The payload opens with the caller's token: recovery surfaces the
        // in-doubt txn under the token the coordinator knows, while the
        // records stay keyed by the incarnation id.
        let payload = |buf: &mut Vec<u8>| {
            put::u64(buf, txn);
            WriteOp::encode_list(&st.ops, buf);
        };
        let target = {
            let mut latch = log.latch.lock();
            log.wal
                .append_with(&mut latch, st.internal, RecordKind::Prepare, payload)?
        };
        log.wal.force_through(target)
    }

    /// Take `txn`'s state out of the table for a commit-point operation (see
    /// the module docs). Until the caller puts it back — prepare always, commit
    /// on failure — the token is unknown to every other call.
    fn checkout(&self, txn: KvTxn) -> StorageResult<TxnState> {
        let st = self.txn_stripe(txn).remove(&txn);
        st.ok_or(StorageError::UnknownTxn(txn))
    }

    /// Commit `txn`: make its writes durable and visible.
    ///
    /// One-phase path (no prior [`KvStore::prepare`]): one `Commit` record
    /// carrying the writes is logged and forced. The force is the log's
    /// [`Wal::force_through`], so concurrent committers share one device
    /// sync; writes reach the shared tree only after the force returns, in
    /// the order of their commit records.
    pub fn commit(&self, txn: KvTxn) -> StorageResult<()> {
        self.commit_inner(txn, true)
    }

    /// Commit `txn` with durability deferred: writes become visible and the
    /// commit record is appended, but no force is issued. The caller owns
    /// the durability point and must call [`KvStore::force_wal`] before
    /// externalizing the result (the queue manager's `close_epoch`). A crash
    /// before that force loses the commit.
    pub fn commit_deferred(&self, txn: KvTxn) -> StorageResult<()> {
        self.commit_inner(txn, false)
    }

    /// Force the log through its current end. This is the epoch durability
    /// point for [`KvStore::commit_deferred`]: after it returns, every
    /// previously committed transaction survives a crash. (Nothing to do in
    /// the main-memory store.)
    pub fn force_wal(&self) -> StorageResult<()> {
        let Some(log) = &self.log else {
            return Ok(());
        };
        let _gate = self.ckpt_gate.read();
        log.wal.force_through(log.wal.len())
    }

    fn commit_inner(&self, txn: KvTxn, sync: bool) -> StorageResult<()> {
        let _gate = self.ckpt_gate.read();
        let st = self.checkout(txn)?;
        if !st.logged && st.ops.is_empty() {
            // Nothing written and nothing in the log to resolve: no record,
            // no force, no turn on the retire line. (A prepared transaction
            // is logged, and still logs its outcome.)
            self.commits.fetch_add(1, Ordering::AcqRel);
            return Ok(());
        }
        match self.log_commit(&st, sync) {
            Ok(seq) => {
                self.retire(seq, st.ops);
                self.commits.fetch_add(1, Ordering::AcqRel);
                Ok(())
            }
            Err(e) => {
                // Whichever step failed — the append or the force — the txn
                // stays open with its write set intact.
                self.txn_stripe(txn).insert(txn, st);
                Err(e)
            }
        }
    }

    /// Make `st`'s commit durable (unless `sync` leaves the force to a later
    /// [`KvStore::force_wal`]) and return its sequence number; the caller owes
    /// the retire line that number's turn. On error nothing is owed: the turn
    /// has already been passed on empty.
    fn log_commit(&self, st: &TxnState, sync: bool) -> StorageResult<u64> {
        let Some(log) = &self.log else {
            // The main-memory store's commit point: a place on the retire line.
            return Ok(self.commit_seq.fetch_add(1, Ordering::SeqCst));
        };
        let id = st.internal;
        // A prepared transaction's write set is in its `Prepare` record.
        let ops: &[WriteOp] = if st.logged { &[] } else { &st.ops };
        let payload = |buf: &mut Vec<u8>| WriteOp::encode_list(ops, buf);
        let seq;
        let appended;
        {
            // The write set rides inside the commit record, one frame under
            // one checksum: all of the transaction is in the log, or none.
            let mut latch = log.latch.lock();
            seq = self.commit_seq.fetch_add(1, Ordering::SeqCst);
            appended = log
                .wal
                .append_with(&mut latch, id, RecordKind::Commit, payload);
        }
        // A deferred commit forces through 0, always durable: its force is the
        // epoch close's `force_wal`, run before its effects are externalized.
        let forced = appended.and_then(|end| log.wal.force_through(if sync { end } else { 0 }));
        if let Err(e) = forced {
            // Append or force failed after the number was drawn: keep the
            // retire line moving. Nothing is applied, and the caller sees the
            // device error.
            self.retire(seq, Vec::new());
            return Err(e);
        }
        Ok(seq)
    }

    /// Wait for our turn on the retire line, move `ops` into the shared tree,
    /// and pass the baton. Applying in commit-record order keeps the live
    /// tree identical to what recovery would rebuild.
    fn retire(&self, seq: u64, ops: Vec<WriteOp>) {
        let mut applied = self.applied.lock();
        while *applied != seq {
            self.apply_cv.wait(&mut applied);
        }
        if !ops.is_empty() {
            let mut mem = self.mem.write();
            for op in ops {
                apply(&mut mem, op);
            }
        }
        *applied += 1;
        self.apply_cv.notify_all();
    }

    /// Abort `txn`: discard its buffered writes.
    ///
    /// If the transaction was prepared, an `Abort` record is logged so
    /// recovery stops considering it in-doubt.
    pub fn abort(&self, txn: KvTxn) -> StorageResult<()> {
        let _gate = self.ckpt_gate.read();
        let st = self
            .txn_stripe(txn)
            .remove(&txn)
            .ok_or(StorageError::UnknownTxn(txn))?;
        if let (true, Some(log)) = (st.logged, &self.log) {
            let _latch = log.latch.lock();
            log.wal.append(st.internal, RecordKind::Abort, &[])?;
            // No sync needed: if the abort record is lost, recovery treats the
            // txn as in-doubt and the coordinator aborts it again (presumed
            // abort would also work).
        }
        self.aborts.fetch_add(1, Ordering::AcqRel);
        Ok(())
    }

    /// Write a checkpoint and truncate the log.
    ///
    /// A checkpoint is the whole committed tree as one base segment,
    /// swapped onto the checkpoint device atomically: a crash mid-checkpoint
    /// leaves the previous checkpoint and the still-untruncated log. Open
    /// transactions are unaffected (their writes are not yet in `mem`), but
    /// prepared transactions block checkpointing — their redo records live
    /// only in the log.
    ///
    /// The log is told which checkpoint is about to cover it (a `Checkpoint`
    /// record naming it), forced before the segment is written, and
    /// truncated with one atomic device swap, so a crash after the segment
    /// is durable leaves the whole log or none of it; recovery replays a
    /// surviving log from the record that names the checkpoint it loaded
    /// (see the module docs).
    ///
    /// Holds the checkpoint gate exclusively, so no commit record can sit
    /// appended-but-unforced (or forced-but-unapplied) while the log is
    /// truncated underneath it.
    ///
    /// The main-memory store has no checkpoint to write and refuses.
    pub fn checkpoint(&self) -> StorageResult<()> {
        let Some(log) = &self.log else {
            return Err(StorageError::InvalidState(
                "a main-memory store has no checkpoint".into(),
            ));
        };
        let _gate = self.ckpt_gate.write();
        if (0..TXN_STRIPES).any(|i| self.txn_stripe_at(i).values().any(|t| t.prepared)) {
            return Err(StorageError::InvalidState(
                "cannot checkpoint with prepared transactions pending".into(),
            ));
        }
        // The exclusive gate means no commit is in flight: every logged
        // commit has retired, so `mem` reflects the whole log. Its tail may
        // still be volatile (deferred commits): force it before the
        // checkpoint claims those commits.
        let segment = {
            let mem = self.mem.read();
            Segment::base(&mem)
        };
        {
            // The log is told which checkpoint will cover it up to here
            // before that checkpoint exists: should the truncation below
            // never happen, recovery replays only what follows this record.
            let _latch = log.latch.lock();
            let mut payload = Vec::new();
            segment.mark().encode_into(&mut payload);
            log.wal.append(0, RecordKind::Checkpoint, &payload)?;
        }
        log.wal.force_through(log.wal.len())?;
        segment.write(log.ckpt.as_ref())?;
        log.wal.obs().counter_inc("storage.ckpt.base_segments");
        {
            // The append latch covers only the truncate + marker append; the
            // device force runs after it drops (kv-log is a no-block class —
            // the exclusive gate already excludes every appender, so nothing
            // can slip in between). The reset restarted the log's watermark
            // with its offsets.
            let _latch = log.latch.lock();
            log.wal.reset()?;
            log.wal.append(0, RecordKind::Checkpoint, &[])?;
        }
        log.wal.force_through(log.wal.len())?;
        Ok(())
    }

    /// Log length in bytes (drives checkpoint policy); zero in the
    /// main-memory store, always.
    pub fn wal_len(&self) -> u64 {
        self.log.as_ref().map_or(0, |log| log.wal.len())
    }

    /// (commits, aborts) counters.
    pub fn txn_counts(&self) -> (u64, u64) {
        (
            self.commits.load(Ordering::Acquire),
            self.aborts.load(Ordering::Acquire),
        )
    }

    /// Group-commit batching counters (requests vs. device syncs); zeros in
    /// the main-memory store, which forces nothing.
    pub fn group_commit_stats(&self) -> GroupCommitStats {
        self.log
            .as_ref()
            .map(|log| log.wal.group_commit_stats())
            .unwrap_or_default()
    }
}

/// `txn`'s state in its stripe `g`, for a write: open and not yet prepared.
fn writable(g: &mut KeyMap<u64, TxnState>, txn: KvTxn) -> StorageResult<&mut TxnState> {
    let st = g.get_mut(&txn).ok_or(StorageError::UnknownTxn(txn))?;
    if st.prepared {
        return Err(StorageError::InvalidState(
            "cannot write after prepare".into(),
        ));
    }
    Ok(st)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{CrashStyle, SimDisk};
    use std::collections::HashSet;

    fn fresh() -> (Arc<KvStore>, SimDisk, SimDisk) {
        let wal = SimDisk::new();
        let ckpt = SimDisk::new();
        let (store, report) = reopen(&wal, &ckpt);
        assert_eq!(report.replayed, 0);
        (store, wal, ckpt)
    }

    fn reopen(wal: &SimDisk, ckpt: &SimDisk) -> (Arc<KvStore>, RecoveryReport) {
        KvStore::open(
            Arc::new(wal.clone()),
            Arc::new(ckpt.clone()),
            Obs::default(),
        )
        .unwrap()
    }

    #[test]
    fn key_hasher_spreads_trailing_counters_over_buckets_and_tags() {
        use std::hash::BuildHasher;
        // The store's hot keys end in a big-endian counter (`e/<queue>/<ord>`,
        // `d/<eid>`), at every alignment to the hasher's eight-byte words. A
        // table indexes a bucket with the hash's low bits and pre-filters a
        // probe with its top seven: 4 096 consecutive counters must fill
        // both about as evenly as random values would (a multiply-rotate
        // hasher left all of them on ONE tag for the 15-byte element key).
        let hasher = BuildHasherDefault::<KeyHasher>::default();
        for prefix in [
            &b"d/"[..],
            b"e/req/\xff",
            b"e/reply.c0/\xff",
            b"",
            b"0123456",
        ] {
            let mut buckets = HashSet::new();
            let mut tags = HashSet::new();
            for counter in (1u64 << 20)..(1 << 20) + 4096 {
                let mut key = prefix.to_vec();
                key.extend_from_slice(&counter.to_be_bytes());
                let h = hasher.hash_one(key.as_slice());
                assert_eq!(h, hasher.hash_one(&key), "a key hashes as its slice");
                buckets.insert(h & 0xffff);
                tags.insert(h >> 57);
            }
            // Random 16-bit values: about 3 970 distinct among 4 096 draws.
            assert!(
                buckets.len() > 3800,
                "{prefix:?}: {} buckets",
                buckets.len()
            );
            assert_eq!(tags.len(), 128, "{prefix:?}: every tag in use");
        }
        // Keys shorter than a word, and tokens.
        let short: HashSet<u64> = (0..=255u8)
            .flat_map(|b| [vec![b], vec![b, 0], vec![0, b, 0], vec![b; 5]])
            .map(|k| hasher.hash_one(k.as_slice()))
            .collect();
        assert_eq!(short.len(), 4 * 256, "the length is hashed, too");
        let tokens: HashSet<u64> = (0..4096u64).map(|t| hasher.hash_one(t) & 0xfff).collect();
        assert!(tokens.len() > 2500, "{} of 4 096 buckets", tokens.len());
    }

    #[test]
    fn committed_writes_visible_and_durable() {
        let (store, wal, ckpt) = fresh();
        store.begin(1).unwrap();
        store.put(1, b"a", b"1").unwrap();
        store.put(1, b"b", b"2").unwrap();
        store.commit(1).unwrap();
        assert_eq!(store.get(None, b"a").unwrap(), Some(b"1".to_vec()));

        wal.crash(CrashStyle::DropVolatile);
        let (store2, report) = reopen(&wal, &ckpt);
        assert_eq!(report.committed_txns, 1);
        assert_eq!(store2.get(None, b"a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(store2.get(None, b"b").unwrap(), Some(b"2".to_vec()));
    }

    #[test]
    fn deferred_commit_visible_but_lost_until_forced() {
        let (store, wal, ckpt) = fresh();
        store.begin(1).unwrap();
        store.put(1, b"a", b"1").unwrap();
        store.commit_deferred(1).unwrap();
        // Visible immediately, like any commit...
        assert_eq!(store.get(None, b"a").unwrap(), Some(b"1".to_vec()));

        // ...but a crash before the epoch force loses it.
        wal.crash(CrashStyle::DropVolatile);
        let (store2, _) = reopen(&wal, &ckpt);
        assert_eq!(
            store2.get(None, b"a").unwrap(),
            None,
            "unforced commit lost"
        );

        // A deferred commit followed by force_wal survives.
        store2.begin(2).unwrap();
        store2.put(2, b"b", b"2").unwrap();
        store2.commit_deferred(2).unwrap();
        store2.force_wal().unwrap();
        wal.crash(CrashStyle::DropVolatile);
        let (store3, report) = reopen(&wal, &ckpt);
        assert_eq!(report.committed_txns, 1);
        assert_eq!(store3.get(None, b"b").unwrap(), Some(b"2".to_vec()));
    }

    #[test]
    fn uncommitted_writes_invisible_and_lost() {
        let (store, wal, ckpt) = fresh();
        store.begin(1).unwrap();
        store.put(1, b"a", b"1").unwrap();
        assert_eq!(store.get(None, b"a").unwrap(), None, "not visible outside");
        assert_eq!(
            store.get(Some(1), b"a").unwrap(),
            Some(b"1".to_vec()),
            "read-your-writes"
        );
        wal.crash(CrashStyle::DropVolatile);
        let (store2, report) = reopen(&wal, &ckpt);
        assert_eq!(report.replayed, 0);
        assert_eq!(store2.get(None, b"a").unwrap(), None);
    }

    #[test]
    fn abort_discards_buffer() {
        let (store, _, _) = fresh();
        store.begin(1).unwrap();
        store.put(1, b"a", b"1").unwrap();
        store.abort(1).unwrap();
        assert_eq!(store.get(None, b"a").unwrap(), None);
        assert!(!store.is_open(1));
        assert_eq!(store.txn_counts(), (0, 1));
    }

    #[test]
    fn delete_roundtrip() {
        let (store, _, _) = fresh();
        store.begin(1).unwrap();
        store.put(1, b"k", b"v").unwrap();
        store.commit(1).unwrap();
        store.begin(2).unwrap();
        store.delete(2, b"k").unwrap();
        assert_eq!(store.get(Some(2), b"k").unwrap(), None);
        assert_eq!(store.get(None, b"k").unwrap(), Some(b"v".to_vec()));
        store.commit(2).unwrap();
        assert_eq!(store.get(None, b"k").unwrap(), None);
    }

    #[test]
    fn rename_moves_the_value_and_reads_its_own_write() {
        let (store, wal, ckpt) = fresh();
        store.begin(1).unwrap();
        store.put(1, b"e/1", b"body").unwrap();
        store.put(1, b"d/9", b"stale").unwrap();
        store.commit(1).unwrap();

        store.begin(2).unwrap();
        store.rename(2, b"e/1", b"d/9").unwrap();
        assert_eq!(store.get(Some(2), b"e/1").unwrap(), None);
        assert_eq!(store.get(Some(2), b"d/9").unwrap(), Some(b"body".to_vec()));
        assert_eq!(
            store.scan_prefix(Some(2), b"").unwrap(),
            vec![(b"d/9".to_vec(), b"body".to_vec())]
        );
        assert_eq!(
            store.get(None, b"e/1").unwrap(),
            Some(b"body".to_vec()),
            "not visible outside before commit"
        );
        // A later write to either key is the transaction's latest word on it.
        store.put(2, b"e/1", b"again").unwrap();
        assert_eq!(store.get(Some(2), b"e/1").unwrap(), Some(b"again".to_vec()));
        assert_eq!(store.get(Some(2), b"d/9").unwrap(), Some(b"body".to_vec()));
        store.commit(2).unwrap();
        let want = vec![
            (b"d/9".to_vec(), b"body".to_vec()),
            (b"e/1".to_vec(), b"again".to_vec()),
        ];
        assert_eq!(store.scan_prefix(None, b"").unwrap(), want);

        wal.crash(CrashStyle::DropVolatile);
        let (store2, _) = reopen(&wal, &ckpt);
        assert_eq!(store2.scan_prefix(None, b"").unwrap(), want);
    }

    #[test]
    fn rename_of_an_absent_key_leaves_the_target_alone() {
        let (store, wal, ckpt) = fresh();
        store.begin(1).unwrap();
        store.put(1, b"to", b"kept").unwrap();
        store.commit(1).unwrap();
        let before = store.wal_len();
        store.begin(2).unwrap();
        store.rename(2, b"nothing", b"to").unwrap();
        assert_eq!(store.get(Some(2), b"to").unwrap(), Some(b"kept".to_vec()));
        store.commit(2).unwrap();
        assert!(store.wal_len() > before, "a logged no-op, like a delete");
        assert_eq!(store.get(None, b"to").unwrap(), Some(b"kept".to_vec()));
        wal.crash(CrashStyle::DropVolatile);
        let (store2, _) = reopen(&wal, &ckpt);
        assert_eq!(store2.get(None, b"to").unwrap(), Some(b"kept".to_vec()));
        assert_eq!(store2.committed_len(), 1);
    }

    #[test]
    fn rename_of_a_key_written_in_the_same_transaction_is_a_delete_and_a_put() {
        let (store, wal, ckpt) = fresh();
        store.begin(1).unwrap();
        store.put(1, b"a", b"fresh").unwrap();
        store.rename(1, b"a", b"b").unwrap();
        assert_eq!(store.get(Some(1), b"a").unwrap(), None);
        assert_eq!(store.get(Some(1), b"b").unwrap(), Some(b"fresh".to_vec()));
        // A chain of renames: the second one's source is the first one's
        // target, written here.
        store.rename(1, b"b", b"c").unwrap();
        store.commit(1).unwrap();
        let want = vec![(b"c".to_vec(), b"fresh".to_vec())];
        assert_eq!(store.scan_prefix(None, b"").unwrap(), want);
        wal.crash(CrashStyle::DropVolatile);
        let (store2, _) = reopen(&wal, &ckpt);
        assert_eq!(store2.scan_prefix(None, b"").unwrap(), want);
    }

    #[test]
    fn a_commit_that_wrote_nothing_appends_and_forces_nothing() {
        let (store, wal, _) = fresh();
        let (len, syncs) = (store.wal_len(), wal.stats().syncs);
        store.begin(1).unwrap();
        assert_eq!(store.get(Some(1), b"k").unwrap(), None);
        store.commit(1).unwrap();
        store.begin(2).unwrap();
        store.commit_deferred(2).unwrap();
        assert_eq!(store.wal_len(), len);
        assert_eq!(wal.stats().syncs, syncs);
        assert_eq!(store.txn_counts(), (2, 0));
        assert!(!store.is_open(1));
        // A prepared transaction is in the log: it logs its outcome, even
        // with an empty write set, or it would come back in doubt.
        store.begin(3).unwrap();
        store.prepare(3).unwrap();
        store.commit(3).unwrap();
        assert!(store.wal_len() > len);
    }

    #[test]
    fn scan_prefix_merges_overlay() {
        let (store, _, _) = fresh();
        store.begin(1).unwrap();
        store.put(1, b"q/1", b"a").unwrap();
        store.put(1, b"q/2", b"b").unwrap();
        store.put(1, b"r/1", b"x").unwrap();
        store.commit(1).unwrap();

        store.begin(2).unwrap();
        store.put(2, b"q/3", b"c").unwrap();
        store.delete(2, b"q/1").unwrap();
        let rows = store.scan_prefix(Some(2), b"q/").unwrap();
        assert_eq!(
            rows,
            vec![
                (b"q/2".to_vec(), b"b".to_vec()),
                (b"q/3".to_vec(), b"c".to_vec())
            ]
        );
        // Committed view unchanged until commit.
        let committed = store.scan_prefix(None, b"q/").unwrap();
        assert_eq!(committed.len(), 2);
        store.abort(2).unwrap();
    }

    /// Written keys whose hashes collide: each reads back its own latest
    /// write, and each is listed once among the writes. (No two keys are
    /// known to collide, so the test hashes them all to one value.)
    #[test]
    fn keys_whose_hashes_collide_read_back_their_own_writes() {
        const H: u64 = 7;
        let mut st = TxnState::default();
        let write = |st: &mut TxnState, op: WriteOp, to: bool| {
            st.ops.push(op);
            st.index_at(
                H,
                Slot {
                    op: st.ops.len() - 1,
                    to,
                },
            );
        };
        let put = |k: &[u8], v: &[u8]| WriteOp::Put {
            key: k.to_vec(),
            value: v.to_vec(),
        };
        write(&mut st, put(b"k1", b"one"), false);
        write(&mut st, put(b"k2", b"two"), false);
        write(
            &mut st,
            WriteOp::Delete {
                key: b"k2".to_vec(),
            },
            false,
        );
        let mv = WriteOp::Move {
            from: b"k3".to_vec(),
            to: b"k2".to_vec(),
        };
        write(&mut st, mv, false);
        st.index_at(H, Slot { op: 3, to: true });
        write(&mut st, put(b"k1", b"uno"), false);
        assert_eq!(st.overlay.len(), 3, "one entry per key");
        let view = |k: &[u8]| match st
            .slot_at(H, k)
            .map(|s| TxnState::written(&st.ops[s.op], k))
        {
            Some(Own::Value(v)) => format!("= {}", String::from_utf8_lossy(&v)),
            Some(Own::TreeValueOf(from)) => format!("<- {}", String::from_utf8_lossy(&from)),
            Some(Own::Absent) => "absent".into(),
            None => "unwritten".into(),
        };
        assert_eq!(view(b"k1"), "= uno");
        assert_eq!(view(b"k2"), "<- k3");
        assert_eq!(view(b"k3"), "absent");
        assert_eq!(view(b"k4"), "unwritten");
        let mut written: Vec<_> = st.writes().map(|(k, _)| k.to_vec()).collect();
        written.sort();
        assert_eq!(written, [b"k1".to_vec(), b"k2".to_vec(), b"k3".to_vec()]);
    }

    #[test]
    fn prepared_txn_survives_crash_as_in_doubt() {
        let (store, wal, ckpt) = fresh();
        store.begin(7).unwrap();
        store.put(7, b"x", b"1").unwrap();
        store.prepare(7).unwrap();
        wal.crash(CrashStyle::DropVolatile);

        let (store2, report) = reopen(&wal, &ckpt);
        assert_eq!(report.in_doubt, vec![7]);
        assert_eq!(store2.get(None, b"x").unwrap(), None, "still invisible");
        // Coordinator decides commit:
        store2.commit(7).unwrap();
        assert_eq!(store2.get(None, b"x").unwrap(), Some(b"1".to_vec()));

        // And the commit itself is durable.
        wal.crash(CrashStyle::DropVolatile);
        let (store3, _) = reopen(&wal, &ckpt);
        assert_eq!(store3.get(None, b"x").unwrap(), Some(b"1".to_vec()));
    }

    #[test]
    fn in_doubt_tokens_are_reported_sorted() {
        let (store, wal, ckpt) = fresh();
        let tokens = [9u64, 3, 7, 14, 1, 12, 5, 16, 2, 11, 8, 15, 4, 13, 6, 10];
        for t in tokens {
            store.begin(t).unwrap();
            store.put(t, &t.to_be_bytes(), b"v").unwrap();
            store.prepare(t).unwrap();
        }
        wal.crash(CrashStyle::DropVolatile);
        let (_, report) = reopen(&wal, &ckpt);
        assert_eq!(report.in_doubt, (1..=16).collect::<Vec<u64>>());
    }

    #[test]
    fn in_doubt_txn_can_be_aborted_after_recovery() {
        let (store, wal, ckpt) = fresh();
        store.begin(7).unwrap();
        store.put(7, b"x", b"1").unwrap();
        store.prepare(7).unwrap();
        wal.crash(CrashStyle::DropVolatile);
        let (store2, report) = reopen(&wal, &ckpt);
        assert_eq!(report.in_doubt, vec![7]);
        store2.abort(7).unwrap();
        assert_eq!(store2.get(None, b"x").unwrap(), None);
        let (store3, report3) = reopen(&wal, &ckpt);
        // The abort may need re-resolution if its record wasn't synced —
        // presumed abort: still in doubt or gone, but never committed.
        if !report3.in_doubt.is_empty() {
            store3.abort(7).unwrap();
        }
        assert_eq!(store3.get(None, b"x").unwrap(), None);
    }

    #[test]
    fn write_after_prepare_rejected() {
        let (store, _, _) = fresh();
        store.begin(1).unwrap();
        store.put(1, b"a", b"1").unwrap();
        store.prepare(1).unwrap();
        assert!(store.put(1, b"b", b"2").is_err());
        assert!(store.delete(1, b"a").is_err());
    }

    #[test]
    fn checkpoint_truncates_log_and_preserves_data() {
        let (store, wal, ckpt) = fresh();
        for i in 0..50u32 {
            let t = 100 + i as u64;
            store.begin(t).unwrap();
            store.put(t, format!("k{i}").as_bytes(), b"v").unwrap();
            store.commit(t).unwrap();
        }
        let before = store.wal_len();
        store.checkpoint().unwrap();
        assert!(store.wal_len() < before);

        wal.crash(CrashStyle::DropVolatile);
        let (store2, report) = reopen(&wal, &ckpt);
        assert_eq!(report.replayed, 0, "state came from checkpoint");
        assert_eq!(store2.committed_len(), 50);
        assert_eq!(store2.get(None, b"k49").unwrap(), Some(b"v".to_vec()));
    }

    #[test]
    fn post_checkpoint_commits_replay_over_checkpoint() {
        let (store, wal, ckpt) = fresh();
        store.begin(1).unwrap();
        store.put(1, b"a", b"old").unwrap();
        store.commit(1).unwrap();
        store.checkpoint().unwrap();
        store.begin(2).unwrap();
        store.put(2, b"a", b"new").unwrap();
        store.commit(2).unwrap();

        wal.crash(CrashStyle::DropVolatile);
        let (store2, report) = reopen(&wal, &ckpt);
        assert_eq!(report.replayed, 1);
        assert_eq!(store2.get(None, b"a").unwrap(), Some(b"new".to_vec()));
    }

    #[test]
    fn checkpoint_blocked_by_prepared_txn() {
        let (store, _, _) = fresh();
        store.begin(1).unwrap();
        store.put(1, b"a", b"1").unwrap();
        store.prepare(1).unwrap();
        assert!(store.checkpoint().is_err());
        store.commit(1).unwrap();
        assert!(store.checkpoint().is_ok());
    }

    #[test]
    fn double_begin_rejected_and_unknown_txn_errors() {
        let (store, _, _) = fresh();
        store.begin(1).unwrap();
        assert!(store.begin(1).is_err());
        assert!(matches!(
            store.put(99, b"k", b"v"),
            Err(StorageError::UnknownTxn(99))
        ));
        assert!(store.commit(99).is_err());
        assert!(store.abort(99).is_err());
    }

    #[test]
    fn volatile_store_commits_aborts_and_scans_like_a_logged_one() {
        let store = KvStore::volatile();
        store.begin(1).unwrap();
        store.put(1, b"q/1", b"a").unwrap();
        store.put(1, b"q/2", b"b").unwrap();
        assert_eq!(store.get(None, b"q/1").unwrap(), None, "not yet committed");
        assert_eq!(store.get(Some(1), b"q/1").unwrap(), Some(b"a".to_vec()));
        store.commit(1).unwrap();
        store.begin(2).unwrap();
        store.delete(2, b"q/1").unwrap();
        store.put(2, b"q/3", b"c").unwrap();
        assert_eq!(store.scan_prefix(Some(2), b"q/").unwrap().len(), 2);
        store.abort(2).unwrap();
        store.begin(3).unwrap();
        store.delete(3, b"q/2").unwrap();
        store.commit_deferred(3).unwrap();
        store.force_wal().unwrap();
        assert_eq!(
            store.scan_prefix(None, b"q/").unwrap(),
            vec![(b"q/1".to_vec(), b"a".to_vec())]
        );
        assert_eq!(store.txn_counts(), (2, 1));
        assert!(!store.is_open(2));
    }

    #[test]
    fn volatile_store_prepare_marks_without_a_log() {
        let store = KvStore::volatile();
        store.begin(1).unwrap();
        store.put(1, b"a", b"1").unwrap();
        store.prepare(1).unwrap();
        store.prepare(1).unwrap(); // idempotent, as on a logged store
        assert!(store.put(1, b"b", b"2").is_err(), "write after prepare");
        assert!(store.delete(1, b"a").is_err(), "write after prepare");
        assert_eq!(
            store.get(None, b"a").unwrap(),
            None,
            "prepared, not visible"
        );
        store.commit(1).unwrap();
        assert_eq!(store.get(None, b"a").unwrap(), Some(b"1".to_vec()));
        // A prepared transaction aborts with no record to write either.
        store.begin(2).unwrap();
        store.put(2, b"a", b"2").unwrap();
        store.prepare(2).unwrap();
        store.abort(2).unwrap();
        assert_eq!(store.get(None, b"a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(store.group_commit_stats(), GroupCommitStats::default());
        assert_eq!(store.wal_len(), 0);
    }

    #[test]
    fn volatile_store_refuses_checkpoint_and_retains_no_log_bytes() {
        let store = KvStore::volatile();
        for t in 1..=10_000u64 {
            store.begin(t).unwrap();
            store.put(t, b"slot", &t.to_le_bytes()).unwrap();
            store.commit(t).unwrap();
        }
        assert_eq!(store.wal_len(), 0, "10 000 commits, no byte retained");
        assert_eq!(store.committed_len(), 1);
        assert_eq!(store.txn_counts(), (10_000, 0));
        assert!(matches!(
            store.checkpoint(),
            Err(StorageError::InvalidState(_))
        ));
        assert_eq!(
            store.get(None, b"slot").unwrap(),
            Some(10_000u64.to_le_bytes().to_vec()),
            "a refused checkpoint leaves the store as it was"
        );
    }

    #[test]
    fn commit_order_respected_on_replay() {
        let (store, wal, ckpt) = fresh();
        // Interleave two txns writing the same key; commit order decides.
        store.begin(1).unwrap();
        store.begin(2).unwrap();
        store.put(1, b"k", b"from-1").unwrap();
        store.put(2, b"k", b"from-2").unwrap();
        store.commit(2).unwrap();
        store.commit(1).unwrap();
        assert_eq!(store.get(None, b"k").unwrap(), Some(b"from-1".to_vec()));
        wal.crash(CrashStyle::DropVolatile);
        let (store2, _) = reopen(&wal, &ckpt);
        assert_eq!(store2.get(None, b"k").unwrap(), Some(b"from-1".to_vec()));
    }

    #[test]
    fn torn_tail_after_last_commit_is_harmless() {
        let (store, wal, ckpt) = fresh();
        store.begin(1).unwrap();
        store.put(1, b"a", b"1").unwrap();
        store.commit(1).unwrap();
        // Start another commit whose records only partially reach disk.
        store.begin(2).unwrap();
        store.put(2, b"b", b"2").unwrap();
        // Simulate: records appended but torn mid-write during the sync.
        // (commit would sync; emulate by writing ops without sync then tearing)
        // We use prepare's logging path indirectly: just crash before commit.
        wal.crash(CrashStyle::Torn { keep: 5 });
        let (store2, _) = reopen(&wal, &ckpt);
        assert_eq!(store2.get(None, b"a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(store2.get(None, b"b").unwrap(), None);
    }

    #[test]
    fn a_checkpoint_over_a_checkpoint_preserves_deletes() {
        let (store, wal, ckpt) = fresh();
        store.begin(1).unwrap();
        store.put(1, b"keep", b"1").unwrap();
        store.put(1, b"drop", b"2").unwrap();
        store.commit(1).unwrap();
        store.checkpoint().unwrap(); // both keys
        store.begin(2).unwrap();
        store.delete(2, b"drop").unwrap();
        store.commit(2).unwrap();
        store.checkpoint().unwrap(); // replaces it, without `drop`
        wal.crash(CrashStyle::DropVolatile);
        let (store2, report) = reopen(&wal, &ckpt);
        assert_eq!(report.replayed, 0);
        assert_eq!(store2.get(None, b"keep").unwrap(), Some(b"1".to_vec()));
        assert_eq!(store2.get(None, b"drop").unwrap(), None);
    }
}
