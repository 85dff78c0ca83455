//! Counter monotonicity and gauge churn under concurrent incrementers.
//!
//! A file (so a process) of its own: after `drop(session)` the test reads
//! the process-global registry, which any sibling test holding a `Session`
//! in the same binary would have reset (ROADMAP item 1).

use rrq_obs::Session;

#[test]
fn counter_snapshots_are_monotone_across_concurrent_incrementers() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 20_000;

    let session = Session::start();
    let workers: Vec<_> = (0..THREADS)
        .map(|_| {
            std::thread::spawn(|| {
                for _ in 0..PER_THREAD {
                    rrq_obs::counter_inc("prop.concurrent");
                }
            })
        })
        .collect();

    // Snapshots taken mid-flight must read a non-decreasing sequence.
    let mut last = 0u64;
    let mut observed = 0usize;
    while observed < 200 {
        let now = rrq_obs::snapshot().counter("prop.concurrent");
        assert!(
            now >= last,
            "counter went backwards: {now} after {last} (snapshot {observed})"
        );
        last = now;
        observed += 1;
    }
    for w in workers {
        w.join().unwrap();
    }
    assert_eq!(
        session.snapshot().counter("prop.concurrent"),
        THREADS as u64 * PER_THREAD,
        "no increment lost"
    );
    drop(session);

    // Disabled registry: hooks are inert, the last session's numbers stay.
    rrq_obs::counter_inc("prop.concurrent");
    let v = rrq_obs::snapshot().counter("prop.concurrent");
    assert_eq!(v, THREADS as u64 * PER_THREAD);

    // Gauges accept concurrent churn too: +1/-1 pairs always net zero.
    let session = Session::start();
    let churners: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(|| {
                for _ in 0..10_000 {
                    rrq_obs::gauge_add("prop.churn", 1);
                    rrq_obs::gauge_add("prop.churn", -1);
                }
            })
        })
        .collect();
    for c in churners {
        c.join().unwrap();
    }
    assert_eq!(session.snapshot().gauge("prop.churn"), 0);
}
