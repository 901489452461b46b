//! Degraded-mode conformance: the sharded replay engine survives
//! seeded fault schedules without losing its guarantees.
//!
//! - Under the canned chaos schedule (one shard crash + 30% report
//!   loss) the SYN flood is still detected within a bounded number of
//!   extra intervals, with no false positive before onset, and the
//!   outcome reports degraded coverage.
//! - Two runs of the same `(spec, seed)` pair are byte-identical —
//!   merged state, alerts, health, and the deterministic telemetry
//!   counters all compare equal.
//! - An empty fault schedule leaves the engine bit-identical to
//!   [`replay::run_replay`].
//! - A panicking shard thread is caught and quarantined, never
//!   propagated (regression for the old
//!   `expect("shard thread panicked")`).

use faultinject::FaultSchedule;
use replay::{run_replay, run_replay_with_faults, IncidentKind, ReplayConfig};
use workloads::{Schedule, SynFloodWorkload};

fn small_flood() -> Schedule {
    let (s, _) = SynFloodWorkload {
        background_cps: 500,
        flood_pps: 20_000,
        flood_start: 150_000_000,
        duration: 400_000_000,
        seed: 11,
        ..SynFloodWorkload::default()
    }
    .generate();
    s
}

fn four_shards() -> ReplayConfig {
    ReplayConfig {
        shards: 4,
        ..ReplayConfig::default()
    }
}

/// The CI smoke schedule: shard 1 crashes at epoch 3 (well before the
/// flood), and 30% of epoch reports are lost on the control channel.
const CANNED: &str = "shard_crash=1@3,ctrl_loss=0.30";

#[test]
fn canned_chaos_still_detects_within_bounded_extra_intervals() {
    let s = small_flood();
    let cfg = four_shards();
    let interval = cfg.detector.interval_ns;
    let clean = run_replay(&s, &cfg);
    let clean_at = clean.detected_at.expect("clean run detects the flood");

    let faults = FaultSchedule::parse(CANNED, 42).unwrap();
    let out = run_replay_with_faults(&s, &cfg, &faults);
    let at = out.detected_at.expect("flood detected despite the chaos");
    assert!(at >= 150_000_000, "no false positive before onset: {at}");
    assert!(
        at <= clean_at + 5 * interval,
        "detection within 5 extra intervals: clean {clean_at}, chaos {at}"
    );

    let h = &out.health;
    assert!(h.degraded());
    assert_eq!(h.shards_configured, 4);
    assert_eq!(h.shards_alive, 3);
    assert_eq!(h.incidents.len(), 1);
    assert_eq!(h.incidents[0].shard, 1);
    assert_eq!(h.incidents[0].epoch, 3);
    assert_eq!(h.incidents[0].kind, IncidentKind::Crashed);
    assert!(h.reports_dropped > 0, "30% loss drops some reports");
    assert!(h.packets_rerouted > 0, "dead shard's traffic rerouted");
    assert!(h.packets_lost > 0, "crash epoch's slice is lost");
    assert!(
        h.coverage() > 0.9 && h.coverage() < 1.0,
        "degraded but useful coverage, got {}",
        h.coverage()
    );
    assert_eq!(
        h.packets_ingested + h.packets_lost,
        h.packets_offered,
        "health accounting balances"
    );
}

#[test]
fn same_seed_chaos_reruns_are_bit_identical() {
    let s = small_flood();
    let cfg = four_shards();
    let faults = FaultSchedule::parse(CANNED, 1234).unwrap();
    let a = run_replay_with_faults(&s, &cfg, &faults);
    let b = run_replay_with_faults(&s, &cfg, &faults);
    assert_eq!(a.merged, b.merged);
    assert_eq!(a.alerts, b.alerts);
    assert_eq!(a.detected_at, b.detected_at);
    assert_eq!(a.health, b.health);
    assert_eq!(a.packets, b.packets);
    assert_eq!(a.epochs, b.epochs);
    // The deterministic telemetry counters agree too (timings differ).
    assert_eq!(
        a.telemetry.faults_injected.get(),
        b.telemetry.faults_injected.get()
    );
    assert_eq!(
        a.telemetry.reports_dropped.get(),
        b.telemetry.reports_dropped.get()
    );
    assert_eq!(
        a.telemetry.shards_quarantined.get(),
        b.telemetry.shards_quarantined.get()
    );
    assert_eq!(a.telemetry.packets_lost.get(), b.telemetry.packets_lost.get());
    assert_eq!(
        a.telemetry.packets_rerouted.get(),
        b.telemetry.packets_rerouted.get()
    );
}

#[test]
fn different_seed_perturbs_the_run_differently() {
    let s = small_flood();
    let cfg = four_shards();
    let a = run_replay_with_faults(&s, &cfg, &FaultSchedule::parse(CANNED, 1).unwrap());
    let b = run_replay_with_faults(&s, &cfg, &FaultSchedule::parse(CANNED, 2).unwrap());
    // The scheduled crash is seed-independent; the report-loss pattern
    // is not.
    assert_ne!(a.health.reports_dropped, b.health.reports_dropped);
}

/// A lost report is not a stall: the intervals a spanning report
/// covers reach the stalled-flow detector at the span's average, never
/// at zero, so report loss alone gives it nothing to fire on.
#[test]
fn report_loss_does_not_read_as_a_stall() {
    let s = small_flood();
    let cfg = four_shards();
    let stalled_fires = |out: &replay::ReplayOutcome| out.ensemble.engine("stalled").unwrap().fires;
    let clean = run_replay(&s, &cfg);
    let faults = FaultSchedule::parse("ctrl_loss=0.10", 42).unwrap();
    let lossy = run_replay_with_faults(&s, &cfg, &faults);
    assert!(lossy.health.reports_dropped > 0);
    assert!(
        stalled_fires(&lossy) <= stalled_fires(&clean),
        "{} fire(s) under loss, {} without",
        stalled_fires(&lossy),
        stalled_fires(&clean)
    );
}

#[test]
fn empty_fault_schedule_matches_unfaulted_run() {
    let s = small_flood();
    let cfg = four_shards();
    let plain = run_replay(&s, &cfg);
    let faulted = run_replay_with_faults(&s, &cfg, &FaultSchedule::none());
    assert_eq!(plain.merged, faulted.merged);
    assert_eq!(plain.alerts, faulted.alerts);
    assert_eq!(plain.detected_at, faulted.detected_at);
    assert_eq!(plain.health, faulted.health);
    assert!(!faulted.health.degraded());
    assert_eq!(faulted.telemetry.faults_injected.get(), 0);
    assert_eq!(faulted.telemetry.reports_dropped.get(), 0);
    assert_eq!(faulted.telemetry.shards_quarantined.get(), 0);
}

#[test]
fn injected_panic_is_caught_and_quarantined() {
    // Regression for the old `expect("shard thread panicked")`: a
    // panicking shard thread must degrade the run, not abort it.
    let s = small_flood();
    let cfg = four_shards();
    let faults = FaultSchedule::parse("shard_panic=2@4", 0).unwrap();
    let out = run_replay_with_faults(&s, &cfg, &faults);
    let h = &out.health;
    assert_eq!(h.shards_alive, 3);
    assert_eq!(h.incidents.len(), 1);
    assert_eq!(h.incidents[0].shard, 2);
    assert_eq!(h.incidents[0].epoch, 4);
    match &h.incidents[0].kind {
        IncidentKind::Panicked(msg) => {
            assert!(msg.contains("injected fault"), "captured message: {msg}");
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
    assert!(h.packets_lost > 0);
    // Detection still works: the flood traffic reroutes to survivors.
    assert!(out.detected_at.is_some());
}

#[test]
fn stall_changes_timing_but_not_outcome() {
    let s = small_flood();
    let cfg = four_shards();
    let clean = run_replay(&s, &cfg);
    // 2 ms stall on shard 1 at epoch 2: state survives, nothing lost.
    let faults = FaultSchedule::parse("shard_stall=1@2:2000000", 0).unwrap();
    let out = run_replay_with_faults(&s, &cfg, &faults);
    assert_eq!(out.merged, clean.merged);
    assert_eq!(out.alerts, clean.alerts);
    assert!(out.health.incidents.is_empty());
    assert!(!out.health.degraded());
    assert_eq!(out.telemetry.faults_injected.get(), 1);
}

#[test]
fn losing_every_shard_still_completes() {
    let s = small_flood();
    let cfg = ReplayConfig {
        shards: 2,
        ..ReplayConfig::default()
    };
    let faults = FaultSchedule::parse("shard_crash=0@1,shard_crash=1@1", 0).unwrap();
    let out = run_replay_with_faults(&s, &cfg, &faults);
    let h = &out.health;
    assert_eq!(h.shards_alive, 0);
    assert_eq!(h.incidents.len(), 2);
    // Everything is lost: the quarantined shards' epoch-0 history is
    // discarded and no shard remains to take later traffic.
    assert_eq!(h.packets_lost, h.packets_offered);
    assert_eq!(out.merged.packets, 0);
    assert!(out.detected_at.is_none(), "no data, no detection");
}
