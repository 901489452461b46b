//! Behavior preservation: running the SYN-flood, stalled-flow and
//! median-shift detectors as `Detector`s of the ensemble must not
//! change a single alert. The goldens below were captured by running
//! the pre-ensemble engine (the SYN-flood detector wired directly
//! into the replay loop) on fixed workloads; the ensemble must
//! reproduce them bit for bit — same alert timestamps, same SYN
//! counts, same first-detection time — under the pool engine, the
//! reference engine, and a chaos schedule with report loss.

use anomaly::Alert;
use faultinject::FaultSchedule;
use replay::{reference, run_replay, run_replay_with_faults, ReplayConfig, ReplayOutcome};
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

fn conformance_flood() -> Schedule {
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

/// Pre-refactor golden: (detected_at, [(alert_at, syn_count)]).
type Golden = (u64, &'static [(u64, u64)]);

const SMALL_CLEAN: Golden = (
    160_000_000,
    &[
        (160_000_000, 204),
        (170_000_000, 205),
        (180_000_000, 204),
        (190_000_000, 205),
    ],
);

const SMALL_CHAOS: Golden = (
    160_000_000,
    &[(160_000_000, 204), (180_000_000, 204), (190_000_000, 205)],
);

const CONF_1SHARD: Golden = (
    310_000_000,
    &[
        (310_000_000, 505),
        (320_000_000, 504),
        (330_000_000, 504),
        (340_000_000, 505),
        (350_000_000, 504),
        (360_000_000, 505),
        (370_000_000, 504),
    ],
);

fn assert_matches_golden(out: &ReplayOutcome, golden: Golden, ctx: &str) {
    let (detected_at, alerts) = golden;
    assert_eq!(
        out.detected_at,
        Some(detected_at),
        "{ctx}: first-detection time drifted from the pre-refactor engine"
    );
    let got: Vec<(u64, u64)> = out
        .alerts
        .iter()
        .map(|a| match a {
            Alert::SynFlood { at, syn_count, .. } => (*at, *syn_count),
            other => panic!("{ctx}: unexpected alert kind {other:?}"),
        })
        .collect();
    assert_eq!(got, alerts, "{ctx}: alert stream drifted");
    // The trait-lifted engine must agree with the legacy alert list it
    // now produces: the ensemble's synflood summary is the same data
    // through the new path.
    let syn = out
        .ensemble
        .engine("synflood")
        .expect("synflood engine reported");
    assert_eq!(syn.fires, alerts.len() as u64, "{ctx}: synflood fire count");
    assert_eq!(
        syn.first_fired_at,
        Some(detected_at),
        "{ctx}: synflood first fire"
    );
}

#[test]
fn pool_engine_preserves_pre_refactor_alerts() {
    let cfg = ReplayConfig {
        shards: 4,
        ..ReplayConfig::default()
    };
    let out = run_replay(&small_flood(), &cfg);
    assert_matches_golden(&out, SMALL_CLEAN, "pool/clean");
}

#[test]
fn reference_engine_preserves_pre_refactor_alerts() {
    let cfg = ReplayConfig {
        shards: 4,
        ..ReplayConfig::default()
    };
    let out = reference::run_replay(&small_flood(), &cfg);
    assert_matches_golden(&out, SMALL_CLEAN, "reference/clean");
}

#[test]
fn chaos_schedule_preserves_pre_refactor_alerts() {
    // Same chaos spec + seed as the pre-refactor capture: a shard
    // crash at epoch 3 plus 30% epoch-report loss. Carried-forward
    // counts and span averaging are detector inputs, so they must
    // reproduce exactly too.
    let cfg = ReplayConfig {
        shards: 4,
        ..ReplayConfig::default()
    };
    let faults = FaultSchedule::parse("shard_crash=1@3,ctrl_loss=0.30", 42).unwrap();
    let pool = run_replay_with_faults(&small_flood(), &cfg, &faults);
    assert_matches_golden(&pool, SMALL_CHAOS, "pool/chaos");
    let refr = reference::run_replay_with_faults(&small_flood(), &cfg, &faults);
    assert_matches_golden(&refr, SMALL_CHAOS, "reference/chaos");
}

#[test]
fn single_shard_conformance_flood_preserves_alerts() {
    let cfg = ReplayConfig {
        shards: 1,
        ..ReplayConfig::default()
    };
    let out = run_replay(&conformance_flood(), &cfg);
    assert_matches_golden(&out, CONF_1SHARD, "pool/1shard");
    let refr = reference::run_replay(&conformance_flood(), &cfg);
    assert_matches_golden(&refr, CONF_1SHARD, "reference/1shard");
}
