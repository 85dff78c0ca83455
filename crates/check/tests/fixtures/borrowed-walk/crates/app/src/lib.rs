// Fixture: the store's borrowed walk holds `kv-mem` for its closure. A
// rebuild that gathers inside it and installs after it is clean; one that
// takes the index's outer lock inside it is the finding.
pub struct S;

pub fn rebuild(s: &S) {
    let mut runs = Vec::new();
    s.durable.for_each_committed(b"e/", |k, v| {
        runs.push((k.to_vec(), v.len()));
        Ok(())
    });
    let mut g = s.queues.write();
    g.install(runs);
}

pub fn rebuild_bad(s: &S) {
    s.durable.for_each_committed(b"e/", |k, v| {
        let mut g = s.queues.write();
        g.insert(k.to_vec(), v.len());
        Ok(())
    });
}
