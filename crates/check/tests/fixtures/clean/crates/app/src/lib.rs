// Fixture: declared order respected, commit append synced before the
// commit-point mutation, no Relaxed atomics — zero findings expected.
pub struct S;

pub fn good(s: &S) {
    let a = s.alpha();
    let b = s.beta();
    use_both(&a, &b);
}

pub fn commit_good(s: &S) {
    s.wal.append(7, RecordKind::Commit, &[]);
    s.wal.sync();
    s.index.mutate(7);
}

pub fn commit_good_framed(s: &S, buf: &mut Vec<u8>) {
    let end = s.wal.append_with(buf, 7, RecordKind::Commit, |b| ops(b));
    s.group.sync_through(end);
    s.index.mutate(7);
}
