//! End-to-end verification of the §3 Client Model guarantees under client
//! crash schedules: Request-Reply Matching, Exactly-Once Request-Processing,
//! At-Least-Once Reply-Processing. Every scenario runs on each clerk↔QM
//! transport: in process, over one RPC endpoint, and over one endpoint per
//! partition of a four-partition repository.

use rrq_core::device::{Display, TicketPrinter};
use rrq_core::rid::Rid;
use rrq_core::server::spawn_pool;
use rrq_sim::driver::{ClientCrashDriver, CrashPoint};
use rrq_sim::oracle::EffectLedger;
use rrq_sim::schedule::CrashSchedule;
use rrq_tests::{echo_handler, Served, Transport};
use std::sync::atomic::Ordering;

const N: u64 = 12;

fn expected_rids(client: &str) -> Vec<Rid> {
    (1..=N).map(|s| Rid::new(client, s)).collect()
}

/// (driver report, exactly-once violations, duplicate prints?).
type Outcome = (rrq_sim::DriverReport, Vec<String>, bool);

/// Run the crash driver over `transport` against an instrumented echo server
/// pool.
fn run_on(
    transport: Transport,
    name: &str,
    schedule: &CrashSchedule,
    use_printer: bool,
) -> Outcome {
    let client = "c1";
    let served = Served::new(name, client, transport);
    let repo = &served.repo;
    let handler = EffectLedger::instrument(echo_handler());
    let (_servers, handles, stop) = spawn_pool(repo, "req", 2, handler).unwrap();

    let driver = ClientCrashDriver::new(|| served.clerk(client), "echo");
    let body = |serial: u64| format!("payload-{serial}").into_bytes();

    let (report, duplicate_prints) = if use_printer {
        let mut printer = TicketPrinter::new();
        let report = driver
            .run(N, |s| schedule.get(s), body, &mut printer)
            .unwrap();
        (report, printer.has_duplicate_prints())
    } else {
        let mut display = Display::new();
        let report = driver
            .run(N, |s| schedule.get(s), body, &mut display)
            .unwrap();
        (report, false)
    };

    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    let violations = EffectLedger::violations(repo, &expected_rids(client)).unwrap();
    (report, violations, duplicate_prints)
}

/// [`run_on`] on every transport, each result tagged with its transport.
fn run_scenario(
    name: &str,
    schedule: CrashSchedule,
    use_printer: bool,
) -> Vec<(Transport, Outcome)> {
    Transport::ALL
        .into_iter()
        .map(|t| {
            (
                t,
                run_on(t, &format!("{name}-{t:?}"), &schedule, use_printer),
            )
        })
        .collect()
}

#[test]
fn no_crashes_baseline() {
    for (t, (report, violations, _)) in run_scenario("g-none", CrashSchedule::none(), true) {
        assert_eq!(report.completed, N, "{t:?}");
        assert_eq!(report.incarnations, 1, "{t:?}");
        assert!(violations.is_empty(), "{t:?}: {violations:?}");
    }
}

#[test]
fn crash_after_every_send() {
    let schedule = CrashSchedule::every(N, CrashPoint::AfterSend);
    for (t, (report, violations, dups)) in run_scenario("g-send", schedule, true) {
        assert_eq!(report.completed, N, "{t:?}");
        assert_eq!(
            report.resync_received, N,
            "{t:?}: every reply picked up at resync"
        );
        assert!(
            violations.is_empty(),
            "{t:?}: exactly-once violated: {violations:?}"
        );
        assert!(
            !dups,
            "{t:?}: testable device must prevent duplicate prints"
        );
    }
}

#[test]
fn crash_after_every_receive_reprocesses() {
    let schedule = CrashSchedule::every(N, CrashPoint::AfterReceive);
    for (t, (report, violations, dups)) in run_scenario("g-recv", schedule, true) {
        assert_eq!(report.completed, N, "{t:?}");
        assert_eq!(
            report.resync_reprocessed, N,
            "{t:?}: each reply reprocessed via Rereceive"
        );
        assert!(violations.is_empty(), "{t:?}: {violations:?}");
        // AfterReceive crashes happen BEFORE processing, so even the printer
        // never prints twice.
        assert!(!dups, "{t:?}");
    }
}

#[test]
fn crash_after_every_process_detects_already_processed() {
    let schedule = CrashSchedule::every(N, CrashPoint::AfterProcess);
    for (t, (report, violations, dups)) in run_scenario("g-proc", schedule, true) {
        assert_eq!(report.completed, N, "{t:?}");
        assert_eq!(
            report.resync_already_processed, N,
            "{t:?}: testable device proves the reply was processed"
        );
        assert!(violations.is_empty(), "{t:?}: {violations:?}");
        assert!(
            !dups,
            "{t:?}: exactly-once reply processing with a testable device"
        );
    }
}

#[test]
fn random_crash_schedule_preserves_all_guarantees() {
    for seed in [1u64, 7, 42] {
        let schedule = CrashSchedule::random(N, 0.5, seed);
        for (t, (report, violations, dups)) in
            run_scenario(&format!("g-rand{seed}"), schedule, true)
        {
            assert_eq!(report.completed, N, "{t:?} seed {seed}");
            assert!(violations.is_empty(), "{t:?} seed {seed}: {violations:?}");
            assert!(!dups, "{t:?} seed {seed}");
        }
    }
}

#[test]
fn display_without_ckpt_still_at_least_once() {
    // With an idempotent display, at-least-once is the guarantee; the
    // display's duplicate detection absorbs repeats.
    let schedule = CrashSchedule::random(N, 0.4, 99);
    for (t, (report, violations, _)) in run_scenario("g-disp", schedule, false) {
        assert_eq!(report.completed, N, "{t:?}");
        assert!(violations.is_empty(), "{t:?}: {violations:?}");
    }
}
