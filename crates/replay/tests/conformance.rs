//! Cross-shard conformance suite (ISSUE acceptance criterion): for the
//! `synflood` and `mix` workloads, sharded replay at 2/4/8 shards must
//! produce the *same merged statistics* and the *same verdicts* as the
//! single-shard run — bit for bit, not approximately.
//!
//! Why this holds (and what the tests pin down):
//!
//! - `RunningStats`, `FrequencyDist`, and `CountMinSketch` merge by
//!   summing, so any partition of the input folds back to the
//!   sequential state exactly.
//! - The length distribution is kept as counts, which merge by summing
//!   too. Counts are merged and the quantile is read exactly; the marker
//!   walk is the paper's per-packet tracker, and no shard walks one. The
//!   median read off partition-invariant counts is itself invariant —
//!   every shard count yields the same estimate.
//! - The ensemble consumes only merged aggregates, so identical
//!   aggregates force identical verdicts.

use anomaly::synflood::SynFloodConfig;
use replay::{run_replay, ReplayConfig, ReplayOutcome};
use workloads::{PacketMixWorkload, Schedule, SynFloodWorkload};

fn synflood_schedule() -> Schedule {
    let (s, _) = SynFloodWorkload {
        background_cps: 500,
        flood_pps: 50_000,
        flood_start: 300_000_000,
        duration: 700_000_000,
        seed: 4,
        ..SynFloodWorkload::default()
    }
    .generate();
    s
}

fn mix_schedule() -> Schedule {
    let (s, _) = PacketMixWorkload {
        packets: 40_000,
        ..PacketMixWorkload::default()
    }
    .generate();
    s
}

/// When the SYN-flood detector first fired, if it did.
fn syn_first(out: &ReplayOutcome) -> Option<u64> {
    out.ensemble.engine("synflood").and_then(|e| e.first_fired_at)
}

fn run(schedule: &Schedule, shards: usize) -> ReplayOutcome {
    run_replay(
        schedule,
        &ReplayConfig {
            shards,
            ..ReplayConfig::default()
        },
    )
}

fn assert_conformant(schedule: &Schedule, label: &str) {
    let reference = run(schedule, 1);
    assert_eq!(
        reference.packets,
        schedule.len() as u64,
        "{label}: reference replays every packet"
    );
    for shards in [2usize, 4, 8] {
        let out = run(schedule, shards);
        assert_eq!(
            out.merged, reference.merged,
            "{label}: merged state at {shards} shards differs from 1 shard"
        );
        assert_eq!(
            out.ensemble, reference.ensemble,
            "{label}: verdicts at {shards} shards differ from 1 shard"
        );
        assert_eq!(out.packets, reference.packets, "{label}: {shards}");
        assert_eq!(out.epochs, reference.epochs, "{label}: {shards}");
    }
}

#[test]
fn synflood_sharded_matches_sequential() {
    let s = synflood_schedule();
    assert_conformant(&s, "synflood");
}

#[test]
fn synflood_flood_is_detected_at_every_shard_count() {
    let s = synflood_schedule();
    for shards in [1usize, 2, 4, 8] {
        let out = run(&s, shards);
        let at = syn_first(&out)
            .unwrap_or_else(|| panic!("{shards} shards: flood must be detected"));
        assert!(at >= 300_000_000, "{shards} shards: false positive at {at}");
        assert!(
            at < 400_000_000,
            "{shards} shards: detected {} ms after onset",
            (at - 300_000_000) / 1_000_000
        );
    }
}

#[test]
fn mix_sharded_matches_sequential() {
    let s = mix_schedule();
    assert_conformant(&s, "mix");
}

#[test]
fn mix_stable_composition_stays_quiet() {
    let s = mix_schedule();
    for shards in [1usize, 4, 8] {
        let out = run(&s, shards);
        let fired = &out.ensemble.fired;
        assert_eq!(syn_first(&out), None, "{shards} shards: spurious fires {fired:?}");
    }
}

#[test]
fn percentile_estimate_is_shard_count_invariant() {
    // The median is read off the merged counts, so its estimate cannot
    // depend on how the trace was partitioned.
    let s = mix_schedule();
    let reference = run(&s, 1);
    let expect = reference.merged.len_median.estimate(0);
    assert!(expect.is_some(), "median defined after 40k packets");
    for shards in [2usize, 4, 8] {
        assert_eq!(
            run(&s, shards).merged.len_median.estimate(0),
            expect,
            "median estimate at {shards} shards"
        );
    }
}

#[test]
fn interval_length_does_not_break_conformance() {
    // Epoch (interval) length changes detection granularity but must
    // never reintroduce order dependence in the merged state.
    let s = synflood_schedule();
    for interval_ns in [5_000_000u64, 20_000_000] {
        let cfg1 = ReplayConfig {
            shards: 1,
            detector: SynFloodConfig { interval_ns },
            ..ReplayConfig::default()
        };
        let cfg8 = ReplayConfig {
            shards: 8,
            ..cfg1
        };
        let a = run_replay(&s, &cfg1);
        let b = run_replay(&s, &cfg8);
        assert_eq!(a.merged, b.merged, "interval {interval_ns}");
        assert_eq!(a.ensemble, b.ensemble, "interval {interval_ns}");
    }
}
