//! Property-based verification: for ANY crash schedule over the Fig 1
//! states, the three §3 guarantees hold with a testable device — on every
//! clerk↔QM transport.

use proptest::prelude::*;
use rrq_core::device::TicketPrinter;
use rrq_core::rid::Rid;
use rrq_core::server::spawn_pool;
use rrq_sim::driver::{ClientCrashDriver, CrashPoint};
use rrq_sim::oracle::EffectLedger;
use rrq_tests::{echo_handler, Served, Transport};
use std::collections::HashMap;
use std::sync::atomic::Ordering;

fn crash_point_strategy() -> impl Strategy<Value = Option<CrashPoint>> {
    prop_oneof![
        3 => Just(None),
        1 => Just(Some(CrashPoint::AfterSend)),
        1 => Just(Some(CrashPoint::AfterReceive)),
        1 => Just(Some(CrashPoint::AfterProcess)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))] // each case spins up real threads; keep it tight

    #[test]
    fn any_crash_schedule_preserves_guarantees(
        points in proptest::collection::vec(crash_point_strategy(), 1..7),
    ) {
        let n = points.len() as u64;
        let schedule: HashMap<u64, CrashPoint> = points
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.map(|p| (i as u64 + 1, p)))
            .collect();

        for transport in Transport::ALL {
            let client = "pc";
            let name = format!("prop-{n}-{}-{transport:?}", schedule.len());
            let served = Served::new(&name, client, transport);
            let repo = &served.repo;
            let handler = EffectLedger::instrument(echo_handler());
            let (_servers, handles, stop) = spawn_pool(repo, "req", 2, handler).unwrap();

            let driver = ClientCrashDriver::new(|| served.clerk(client), "echo");
            let mut printer = TicketPrinter::new();
            let report = driver
                .run(
                    n,
                    |s| schedule.get(&s).copied(),
                    |s| s.to_le_bytes().to_vec(),
                    &mut printer,
                )
                .unwrap();

            stop.store(true, Ordering::Relaxed);
            for h in handles {
                h.join().unwrap();
            }

            // At-least-once reply processing: every request completed.
            prop_assert_eq!(report.completed, n, "{:?}", transport);
            // Exactly-once request processing.
            let expected: Vec<Rid> = (1..=n).map(|s| Rid::new(client, s)).collect();
            let violations = EffectLedger::violations(repo, &expected).unwrap();
            prop_assert!(violations.is_empty(), "{:?}: {:?}", transport, violations);
            // Exactly-once reply processing with the testable device.
            prop_assert!(!printer.has_duplicate_prints(), "{:?}", transport);
            // Every ticket printed corresponds to a real request, in order.
            prop_assert_eq!(printer.printed().len() as u64, n, "{:?}", transport);
        }
    }
}
