//! Ensemble coverage matrix: each new workload is detectable by
//! exactly one new engine, and the seed detectors stay silent on all
//! of them.
//!
//! The workloads are built so every non-target signal is
//! deterministically flat (constant per-interval counts, constant
//! sizes, constant kind mix), which keeps every other engine's band
//! closed by construction:
//!
//! | workload    | target engine | moving signal              |
//! |-------------|---------------|----------------------------|
//! | seasonal    | holtwinters   | seasonal phase of packets  |
//! | scan        | cusum         | small persistent SYN drift |
//! | cardinality | cardinality   | distinct sources only      |
//!
//! Each test asserts the target engine fires within a bounded number
//! of intervals of the anomaly onset and never before it, and that
//! every other ensemble engine reports zero fires across the whole
//! run. `matrix_every_workload_caught_by_exactly_one_engine` is the
//! CI smoke: it fails if any workload is caught by zero engines or by
//! more than one.

use faultinject::FaultSchedule;
use replay::{run_replay, run_replay_with_faults, EnsembleReport, ReplayConfig, ReplayOutcome};
use workloads::{
    CardinalitySpikeWorkload, LowSlowScanWorkload, Schedule, SeasonalDriftWorkload,
};

/// One row of the coverage matrix.
struct Row {
    workload: &'static str,
    engine: &'static str,
    /// Anomaly onset (ns).
    onset: u64,
    /// The engine must first fire within this many 10 ms intervals of
    /// onset.
    max_delay_intervals: u64,
    schedule: Schedule,
}

fn rows() -> Vec<Row> {
    let seasonal = SeasonalDriftWorkload::default();
    let scan = LowSlowScanWorkload::default();
    let card = CardinalitySpikeWorkload::default();
    vec![
        Row {
            workload: "seasonal",
            engine: "holtwinters",
            onset: seasonal.aligned_drift_start(),
            // The forecast is wrong from the first drifted interval.
            max_delay_intervals: 2,
            schedule: seasonal.generate(),
        },
        Row {
            workload: "scan",
            engine: "cusum",
            onset: scan.scan_start,
            // +3 SYNs/interval against slack ≈ σ/2 accumulates to the
            // 8σ threshold in ~10 intervals.
            max_delay_intervals: 16,
            schedule: scan.generate().0,
        },
        Row {
            workload: "cardinality",
            engine: "cardinality",
            onset: card.spike_start,
            // The HLL estimate jumps inside the first spiked interval.
            max_delay_intervals: 2,
            schedule: card.generate(),
        },
    ]
}

fn run(schedule: &Schedule) -> ReplayOutcome {
    run_replay(
        schedule,
        &ReplayConfig {
            shards: 4,
            ..ReplayConfig::default()
        },
    )
}

/// Engines that fired at least once, in ensemble order.
fn fired_engines(report: &EnsembleReport) -> Vec<&'static str> {
    report
        .engines
        .iter()
        .filter(|e| e.fires > 0)
        .map(|e| e.name)
        .collect()
}

fn assert_exclusive_catch(out: &ReplayOutcome, row: &Row) {
    let interval = ReplayConfig::default().detector.interval_ns;
    let target = out
        .ensemble
        .engine(row.engine)
        .unwrap_or_else(|| panic!("{}: engine {} not in report", row.workload, row.engine));
    let first = target.first_fired_at.unwrap_or_else(|| {
        panic!(
            "{}: target engine {} never fired (report: {:?})",
            row.workload,
            row.engine,
            fired_engines(&out.ensemble)
        )
    });
    assert!(
        first >= row.onset,
        "{}: {} fired at {} ns, before the {} ns onset — false positive",
        row.workload,
        row.engine,
        first,
        row.onset
    );
    let delay_intervals = (first - row.onset) / interval;
    assert!(
        delay_intervals <= row.max_delay_intervals,
        "{}: {} took {} intervals to fire (bound {})",
        row.workload,
        row.engine,
        delay_intervals,
        row.max_delay_intervals
    );
    for e in &out.ensemble.engines {
        if e.name != row.engine {
            assert_eq!(
                e.fires, 0,
                "{}: engine {} fired {} time(s) — the workload must be exclusive to {}",
                row.workload, e.name, e.fires, row.engine
            );
        }
    }
}

#[test]
fn seasonal_drift_caught_only_by_holtwinters() {
    let row = &rows()[0];
    assert_exclusive_catch(&run(&row.schedule), row);
}

#[test]
fn low_and_slow_scan_caught_only_by_cusum() {
    let row = &rows()[1];
    assert_exclusive_catch(&run(&row.schedule), row);
}

#[test]
fn cardinality_spike_caught_only_by_hyperloglog() {
    let row = &rows()[2];
    assert_exclusive_catch(&run(&row.schedule), row);
}

/// The CI coverage smoke: every workload caught by exactly one
/// engine, and the matrix printed for the build log.
#[test]
fn matrix_every_workload_caught_by_exactly_one_engine() {
    let mut failures = Vec::new();
    for row in &rows() {
        let out = run(&row.schedule);
        let caught = fired_engines(&out.ensemble);
        println!(
            "coverage: {:<12} -> {:?} (want exactly [{:?}])",
            row.workload, caught, row.engine
        );
        if caught.len() != 1 || caught[0] != row.engine {
            failures.push(format!(
                "{}: caught by {:?}, want exactly [{:?}]",
                row.workload, caught, row.engine
            ));
        }
    }
    assert!(failures.is_empty(), "coverage holes:\n{}", failures.join("\n"));
}

/// The seed detectors' own workload still belongs to them: the legacy
/// SYN flood is caught by the lifted synflood engine and by none of
/// the three workload-specific engines' *exclusive* claims (other
/// volumetric engines may also see a flood — that is expected and
/// allowed; exclusivity is a property of the crafted workloads, not
/// of floods).
#[test]
fn synflood_still_caught_by_the_lifted_engine() {
    let (s, _) = workloads::SynFloodWorkload {
        background_cps: 500,
        flood_pps: 20_000,
        flood_start: 150_000_000,
        duration: 400_000_000,
        seed: 11,
        ..workloads::SynFloodWorkload::default()
    }
    .generate();
    let out = run(&s);
    let syn = out.ensemble.engine("synflood").expect("synflood row");
    assert!(syn.fires > 0, "the lifted engine must still catch floods");
    assert_eq!(syn.first_fired_at, out.detected_at);
}

/// A verdict is an engine's fire: under report loss, seasonal load on
/// four shards raises no alert before the phase drift at epoch 64 (an
/// average score over every engine once pulled the trigger at epochs
/// 24-42), and every provenance record names an engine that fired.
/// The first verdict at 56 is Holt-Winters under report loss.
#[test]
fn seasonal_chaos_alerts_only_on_an_engine_fire() {
    let schedule = SeasonalDriftWorkload::default().generate();
    let cfg = ReplayConfig {
        shards: 4,
        ..ReplayConfig::default()
    };
    let runs = [
        ("shard_crash=1@3,ctrl_loss=0.30", 3, Some(75)),
        ("ctrl_loss=0.5", 1, Some(104)),
        ("ctrl_loss=0.5", 3, None),
        ("shard_crash=0@10,ctrl_loss=0.1", 1, Some(69)),
        ("shard_crash=0@10,ctrl_loss=0.1", 2, Some(56)),
        ("shard_crash=0@10,ctrl_loss=0.1", 3, Some(56)),
    ];
    for (spec, seed, first) in runs {
        let faults = FaultSchedule::parse(spec, seed).unwrap();
        let out = run_replay_with_faults(&schedule, &cfg, &faults);
        let verdicts: Vec<u64> = out.provenance.iter().map(|r| r.provenance.epoch).collect();
        assert_eq!(verdicts.first().copied(), first, "{spec} seed {seed}: first verdict");
        for r in &out.provenance {
            assert!(
                r.provenance.engines.iter().any(|e| e.fired),
                "{spec} seed {seed}: the record at epoch {} names no fired engine",
                r.provenance.epoch
            );
        }
    }
}
