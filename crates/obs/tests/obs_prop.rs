//! Properties of the metrics layer: bucket geometry, exact histogram
//! bookkeeping for arbitrary value sequences, merge-as-concatenation and
//! text round-trips. (Counter monotonicity under concurrent incrementers is
//! in `obs_concurrent.rs`.)

use proptest::collection::vec;
use proptest::prelude::*;
use rrq_obs::{bucket_bound, bucket_of, HistogramSnapshot, Session, Snapshot, Value, BUCKETS};

fn ground_truth(values: &[u64]) -> HistogramSnapshot {
    let mut h = HistogramSnapshot::default();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bucket_geometry_covers_u64(v in any::<u64>()) {
        let i = bucket_of(v);
        prop_assert!(i < BUCKETS);
        // The value lies within its bucket's bounds.
        prop_assert!(v <= bucket_bound(i));
        if i > 0 {
            prop_assert!(v > bucket_bound(i - 1));
        } else {
            prop_assert_eq!(v, 0);
        }
    }

    #[test]
    fn histogram_counts_arbitrary_sequences_exactly(values in vec(any::<u64>(), 0..200)) {
        let h = ground_truth(&values);
        prop_assert_eq!(h.count, values.len() as u64);
        let mut wrap_sum = 0u64;
        let mut by_bucket = [0u64; BUCKETS];
        for &v in &values {
            wrap_sum = wrap_sum.wrapping_add(v);
            by_bucket[bucket_of(v)] += 1;
        }
        prop_assert_eq!(h.sum, wrap_sum);
        prop_assert_eq!(h.buckets, by_bucket);
        prop_assert_eq!(h.buckets.iter().sum::<u64>(), h.count);
    }

    #[test]
    fn merge_is_concatenation(
        a in vec(any::<u64>(), 0..120),
        b in vec(any::<u64>(), 0..120),
    ) {
        let mut merged = ground_truth(&a);
        merged.merge(&ground_truth(&b));
        let mut both = a.clone();
        both.extend_from_slice(&b);
        prop_assert_eq!(merged, ground_truth(&both));
    }

    #[test]
    fn quantile_bound_is_attained_and_monotone(values in vec(any::<u64>(), 1..120)) {
        let h = ground_truth(&values);
        // Quantiles are bucket upper bounds, so q=1.0 dominates every
        // observation and quantiles never decrease in q.
        let max = *values.iter().max().unwrap();
        prop_assert!(h.quantile(1.0) >= max);
        let mut last = h.quantile(0.0);
        for q in [0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let cur = h.quantile(q);
            prop_assert!(cur >= last);
            last = cur;
        }
    }

    #[test]
    fn registry_observation_and_text_round_trip_are_exact(
        values in vec(any::<u64>(), 0..150),
        counter_increments in vec(any::<u32>(), 0..40),
        gauge_moves in vec(any::<i32>(), 0..40),
    ) {
        // One registry session per case: counters start from zero.
        let session = Session::start();
        for &v in &values {
            rrq_obs::observe("prop.hist", v);
        }
        let mut want_counter = 0u64;
        for &d in &counter_increments {
            rrq_obs::counter_add("prop.counter", u64::from(d));
            want_counter += u64::from(d);
        }
        let mut want_gauge = 0i64;
        for &d in &gauge_moves {
            rrq_obs::gauge_add("prop.gauge", i64::from(d));
            want_gauge += i64::from(d);
        }
        let snap = session.snapshot();

        // The registry recorded exactly the ground truth.
        let got = snap.histogram("prop.hist").cloned().unwrap_or_default();
        prop_assert_eq!(&got, &ground_truth(&values));
        prop_assert_eq!(snap.counter("prop.counter"), want_counter);
        prop_assert_eq!(snap.gauge("prop.gauge"), want_gauge);

        // render → parse is the identity on snapshots.
        let reparsed = Snapshot::parse(&snap.render()).unwrap();
        prop_assert_eq!(&reparsed, &snap);
        // ... and renders byte-identically (the format is canonical).
        prop_assert_eq!(reparsed.render(), snap.render());
    }

    #[test]
    fn diff_inverts_merge_for_counters(
        early in vec(any::<u32>(), 0..30),
        late in vec(any::<u32>(), 0..30),
    ) {
        let session = Session::start();
        for &d in &early {
            rrq_obs::counter_add("prop.diff", u64::from(d));
        }
        let before = session.snapshot();
        for &d in &late {
            rrq_obs::counter_add("prop.diff", u64::from(d));
        }
        let after = session.snapshot();
        let delta = after.diff(&before);
        let want: u64 = late.iter().map(|&d| u64::from(d)).sum();
        prop_assert_eq!(delta.counter("prop.diff"), want);
    }
}

#[test]
fn parse_rejects_malformed_lines() {
    for bad in [
        "counter only-name",
        "gauge g not-a-number",
        "hist h count=x",
        "hist h 99:1",
        "hist h 5",
        "widget w 3",
    ] {
        assert!(
            Snapshot::parse(bad).is_err(),
            "expected a parse error for {bad:?}"
        );
    }
    // Values survive even when entries arrive unsorted.
    let s = Snapshot::parse("counter b 2\ncounter a 1\n").unwrap();
    assert_eq!(s.counter("a"), 1);
    assert_eq!(s.counter("b"), 2);
    assert!(matches!(s.get("a"), Some(Value::Counter(1))));
}
