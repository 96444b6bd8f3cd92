//! Fault-injection soak tests (compiled only with `--features
//! fault-injection`): every registered failpoint is driven to panic,
//! delay, and spuriously cancel, and the session must degrade exactly as
//! the fault-model contract promises — a typed `ScheduleError::Internal`,
//! nothing of the faulted search left behind, and a follow-up call
//! bit-identical to a fresh session's.
#![cfg(feature = "fault-injection")]

use std::sync::Mutex;
use std::time::Duration;

use sunstone::faultpoint::{self, FaultAction};
use sunstone::prelude::*;
use sunstone_arch::presets;
use sunstone_ir::Workload;

/// The failpoint registry is process-global and cargo runs tests of one
/// binary concurrently, so every test serializes behind this lock. An
/// injected panic can unwind while the guard is held; recover from the
/// poison — the guard protects no data.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    let guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    faultpoint::disarm_all();
    guard
}

fn conv(name: &str, k: u64, c: u64, pq: u64, r: u64) -> Workload {
    let mut b = Workload::builder(name);
    let kd = b.dim("K", k);
    let cd = b.dim("C", c);
    let p = b.dim("P", pq);
    let q = b.dim("Q", pq);
    let rd = b.dim("R", r);
    let s = b.dim("S", r);
    b.input("ifmap", [cd.expr(), p.expr() + rd.expr(), q.expr() + s.expr()]);
    b.input("weight", [kd.expr(), cd.expr(), rd.expr(), s.expr()]);
    b.output("ofmap", [kd.expr(), p.expr(), q.expr()]);
    b.build().expect("valid conv workload")
}

/// The acceptance soak: for every registered failpoint, a panic injected
/// at that point must surface as `ScheduleError::Internal` carrying the
/// injected message, and the *same* session must then re-schedule clean
/// with results bit-identical to a session that never faulted.
#[test]
fn soak_panic_at_every_failpoint_recovers_bit_identically() {
    let _guard = serial();
    let arch = presets::conventional();
    let w = conv("soak", 32, 16, 14, 3);
    let reference =
        Scheduler::new(SunstoneConfig::default()).schedule(&w, &arch).expect("clean schedule");

    for &point in faultpoint::POINTS {
        let session = Scheduler::new(SunstoneConfig::default());
        faultpoint::arm(point, 1, FaultAction::Panic);
        let err = session
            .schedule(&w, &arch)
            .expect_err(&format!("panic injected at {point} must fail the call"));
        let ScheduleError::Internal { stage, layer, message } = &err else {
            panic!("panic at {point} must surface as Internal, got {err:?}");
        };
        assert!(
            message.contains(&format!("injected fault at {point}")),
            "{point}: message lost ({message:?})"
        );
        assert!(!stage.is_empty(), "{point}: fault stage breadcrumb missing");
        assert_eq!(layer.as_deref(), Some("soak"), "{point}: layer attribution");
        assert!(faultpoint::hits(point) >= 1, "{point}: failpoint never hit");

        // The faulted search took its half-written tables with it: the
        // same session must now schedule cleanly and bit-identically to a
        // session that never saw the fault.
        assert_eq!(session.cache_stats().entries, 0, "{point}: a faulted call memoizes nothing");
        let recovered = session
            .schedule(&w, &arch)
            .unwrap_or_else(|e| panic!("recovery after {point} fault failed: {e}"));
        assert_eq!(recovered.mapping, reference.mapping, "{point}: recovery diverged");
        assert_eq!(
            recovered.report.edp.to_bits(),
            reference.report.edp.to_bits(),
            "{point}: recovery EDP not bitwise identical"
        );
    }
    faultpoint::disarm_all();
}

/// A panic that fires mid-publish (`estimate.publish`), with the round's
/// estimate column half-settled, must leave nothing behind: the fault
/// surfaces as a typed `Internal`, and the same session then answers
/// bit-identically to a fresh one instead of reading a torn round or
/// aborting on a poisoned mutex.
#[test]
fn held_lock_panics_do_not_poison_the_session() {
    let _guard = serial();
    let arch = presets::conventional();
    let a = conv("lockheld", 32, 16, 14, 3);
    let b = conv("lockheld_next", 64, 32, 7, 3);
    let fresh = Scheduler::new(SunstoneConfig::default());
    let ref_a = fresh.schedule(&a, &arch).expect("clean schedule");
    let ref_b = fresh.schedule(&b, &arch).expect("clean schedule");

    let point = "estimate.publish";
    let session = Scheduler::new(SunstoneConfig::default());
    faultpoint::arm(point, 1, FaultAction::Panic);
    let err =
        session.schedule(&a, &arch).expect_err(&format!("panic at {point} must fail the call"));
    assert!(
        matches!(err, ScheduleError::Internal { .. }),
        "{point}: mid-publish panic must surface typed, got {err:?}"
    );

    // The next calls on the same session walk straight through the
    // locks the panic unwound across — the pool queue — and search from
    // scratch. Any residual poisoning aborts here.
    let again = session
        .schedule(&a, &arch)
        .unwrap_or_else(|e| panic!("{point}: recovery call failed: {e}"));
    assert_eq!(again.mapping, ref_a.mapping, "{point}: recovery diverged");
    assert_eq!(again.report.edp.to_bits(), ref_a.report.edp.to_bits());

    // A second context after the fault as well.
    let next = session
        .schedule(&b, &arch)
        .unwrap_or_else(|e| panic!("{point}: second context after fault failed: {e}"));
    assert_eq!(next.mapping, ref_b.mapping, "{point}: second context diverged");
    assert_eq!(next.report.edp.to_bits(), ref_b.report.edp.to_bits());
    faultpoint::disarm_all();
}

/// A fault in one batch layer fails only that layer: the others still
/// return valid mappings, and the per-layer error replays onto every
/// occurrence of the poisoned shape.
#[test]
fn batch_with_poisoned_layer_keeps_other_layers() {
    let _guard = serial();
    let arch = presets::conventional();
    // threads: 1 → the pool runs inline in index order, so the first
    // unique shape deterministically absorbs the injected fault.
    let config = SunstoneConfig { threads: 1, ..SunstoneConfig::default() };
    let net = vec![
        conv("bad", 32, 16, 14, 3),
        conv("good", 64, 32, 7, 3),
        conv("bad_again", 32, 16, 14, 3), // dedups onto `bad`
    ];

    let session = Scheduler::new(config.clone());
    faultpoint::arm("estimate.round", 1, FaultAction::Panic);
    let outcome = session
        .schedule_batch_outcomes(&net, &arch, &ScheduleOptions::new())
        .expect("partial failure is an Ok outcome");
    assert!(!outcome.all_ok());
    assert!(matches!(outcome.layers[0], Err(ScheduleError::Internal { .. })));
    assert!(outcome.layers[1].is_ok(), "healthy layer must survive the faulting one");
    assert!(
        matches!(outcome.layers[2], Err(ScheduleError::Internal { .. })),
        "the error replays onto every occurrence of the deduped shape"
    );
    assert_eq!(outcome.stats.failed, 2, "failed counts occurrences, not unique shapes");
    assert_eq!(outcome.failures().count(), 2);

    // The surviving layer matches a fresh, fault-free session bitwise.
    let reference =
        Scheduler::new(config.clone()).schedule(&net[1], &arch).expect("clean schedule");
    let good = outcome.best(1).expect("healthy layer has a mapping");
    assert_eq!(good.mapping, reference.mapping);
    assert_eq!(good.report.edp.to_bits(), reference.report.edp.to_bits());

    // Recovery: the same session re-runs the whole batch clean.
    let retry =
        session.schedule_batch_outcomes(&net, &arch, &ScheduleOptions::new()).expect("clean retry");
    assert!(retry.all_ok());
    let fresh = Scheduler::new(config)
        .schedule_batch_outcomes(&net, &arch, &ScheduleOptions::new())
        .and_then(BatchOutcome::into_result)
        .expect("fresh batch schedules");
    for (i, layer) in retry.layers.iter().enumerate() {
        let retry_best = &layer.as_ref().expect("retry layer ok")[0];
        let fresh_best = fresh.best(i);
        assert_eq!(retry_best.mapping, fresh_best.mapping, "layer {i} recovery diverged");
        assert_eq!(retry_best.report.edp.to_bits(), fresh_best.report.edp.to_bits());
    }
    faultpoint::disarm_all();
}

/// A spurious cancel fired mid-round (from the Nth pool claim; claims
/// are chunked, so the fault lands after at most one chunk of
/// evaluations) is observed within a bounded number of evaluations: the
/// call returns `Cancelled` — never `Infeasible` — after strictly less
/// model work than a full search, and the session stays usable.
#[test]
fn injected_cancel_is_observed_with_bounded_latency() {
    let _guard = serial();
    let arch = presets::conventional();
    let w = conv("cancelme", 32, 16, 14, 3);
    let config = SunstoneConfig { threads: 1, ..SunstoneConfig::default() };

    // Full-search model-evaluation count, for the bound below: every
    // priced estimate passes the `estimate.publish` point once.
    Scheduler::new(config.clone()).schedule(&w, &arch).expect("clean schedule");
    let full_misses = faultpoint::hits("estimate.publish");
    faultpoint::disarm_all();

    let session = Scheduler::new(config);
    let token = CancelToken::new();
    // Claim 2 lands inside the first estimate round (chunked claiming:
    // a round of N misses is ⌈N / chunk⌉ claims), so the abort must be
    // observed before any later round's misses are even counted.
    faultpoint::arm("pool.claim", 2, FaultAction::Cancel(token.clone()));
    let opts = ScheduleOptions::new().cancel(token);
    let err = session.schedule_with(&w, &arch, &opts).expect_err("cancel must abort the search");
    assert!(matches!(err, ScheduleError::Cancelled), "cancel must not be masked: {err:?}");
    let cancelled_misses = faultpoint::hits("estimate.publish");
    assert_eq!(session.cache_stats().entries, 0, "a cancelled call memoizes nothing");
    assert!(
        cancelled_misses < full_misses,
        "a cancel on claim 5 must stop the search early \
         ({cancelled_misses} misses vs {full_misses} for a full search)"
    );

    // The session is not poisoned by a cancel: a fresh call completes.
    session.schedule(&w, &arch).expect("session survives a cancelled call");
    faultpoint::disarm_all();
}

/// A deadline that passes inside stage 1: the delay injected at the start
/// of the second estimate round outlasts the budget, so every claim of
/// that round sees the stop and the stage is discarded. The call returns
/// stage 0's beam completed — best-so-far, stage 0's work kept — with one
/// mapping at every thread count, and memoizes nothing.
#[test]
fn deadline_inside_stage_one_keeps_stage_zero() {
    let _guard = serial();
    let arch = presets::conventional();
    let w = conv("late", 32, 16, 14, 3);
    let opts = ScheduleOptions::new().time_budget(Duration::from_millis(200));
    let mut mappings = Vec::new();
    for threads in [1, 2, 8] {
        let session = Scheduler::new(SunstoneConfig { threads, ..SunstoneConfig::default() });
        faultpoint::arm("estimate.round", 2, FaultAction::Delay(Duration::from_millis(400)));
        let outcome = session.schedule_with(&w, &arch, &opts).expect("a cut search answers");
        assert_eq!(faultpoint::hits("estimate.round"), 2, "threads {threads}: cut in stage 1");
        assert!(!outcome.is_complete(), "threads {threads}: the deadline cut the search");
        let stats = &outcome.results()[0].stats;
        assert!(stats.levels[0].cache_misses > 0, "threads {threads}: stage 0's work is kept");
        assert_eq!(session.cache_stats().entries, 0, "a cut search memoizes nothing");
        mappings.push(outcome.results()[0].mapping.clone());
    }
    assert!(mappings.iter().all(|m| *m == mappings[0]), "the cut answer depends on threads");
    faultpoint::disarm_all();
}

/// Delays injected at the estimate publish and the estimate round are
/// harmless: the search completes with bit-identical results.
#[test]
fn injected_delay_does_not_change_results() {
    let _guard = serial();
    let arch = presets::conventional();
    let w = conv("slow", 32, 16, 14, 3);
    let reference =
        Scheduler::new(SunstoneConfig::default()).schedule(&w, &arch).expect("clean schedule");

    for &point in &["estimate.round", "estimate.publish"] {
        faultpoint::arm(point, 1, FaultAction::Delay(Duration::from_millis(20)));
        let out = Scheduler::new(SunstoneConfig::default())
            .schedule(&w, &arch)
            .unwrap_or_else(|e| panic!("delay at {point} must be harmless: {e}"));
        assert_eq!(out.mapping, reference.mapping, "{point}: delay changed the result");
        assert_eq!(out.report.edp.to_bits(), reference.report.edp.to_bits());
    }
    faultpoint::disarm_all();
}
