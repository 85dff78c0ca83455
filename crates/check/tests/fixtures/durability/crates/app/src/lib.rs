// Fixture: the commit record is appended but the device is never forced, so
// the commit-point mutation is not dominated by a sync (and the append has
// no post-dominating sync either).
pub struct S;

pub fn commit_bad(s: &S) {
    s.wal.append(7, RecordKind::Commit, &[]);
    s.index.mutate(7);
}

// The store's shape: the commit record is framed into a reused buffer, its
// write set inside, by `append_with` — and again never forced.
pub fn commit_bad_framed(s: &S, buf: &mut Vec<u8>) {
    s.wal.append_with(buf, 7, RecordKind::Commit, |b| ops(b));
    s.index.mutate(7);
}
