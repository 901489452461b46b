//! Alert provenance and run-snapshot conformance.
//!
//! Provenance must (a) tell a true story — signal values, engine
//! scores, lineage, and drilldown transactions that match what the run
//! actually did — and (b) be part of the bit-identity surface: the
//! same workload yields byte-identical records at every shard count,
//! and the JSON snapshot round-trips field for field (the golden
//! test).

use faultinject::FaultSchedule;
use replay::{
    parse_outcome_json, render_outcome_json, run_replay, run_replay_with_faults, ReplayConfig,
    RunSnapshot,
};
use workloads::{Schedule, SynFloodWorkload};

fn flood() -> Schedule {
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

#[test]
fn flood_alert_carries_its_provenance() {
    let s = flood();
    let out = run_replay(&s, &ReplayConfig::default());
    assert!(
        !out.provenance.is_empty(),
        "the flood must produce at least one provenance record"
    );
    for (i, rec) in out.provenance.iter().enumerate() {
        assert_eq!(rec.id, i as u64, "ids are dense and ordered");
        // The record quotes a real ensemble verdict: the quoted engine
        // rows include at least one that fired, which pulled the
        // trigger.
        assert!(
            rec.provenance.engines.iter().any(|e| e.fired),
            "record {i} cites no firing engine: {rec:?}"
        );
        assert_eq!(
            rec.provenance.epoch, rec.lineage.epoch,
            "provenance and lineage disagree on the epoch"
        );
        assert_eq!(
            rec.lineage.delivered_shards,
            (0..out.health.shards_configured).collect::<Vec<_>>(),
            "a clean run delivers every shard"
        );
        assert!(rec.lineage.quarantined.is_empty(), "clean run: {rec:?}");
        assert_eq!(rec.lineage.rerouted_frames, 0, "clean run reroutes nothing");
        // Signals snapshot the merged interval: the flood epoch saw
        // packets, and the SYN count can't exceed them.
        assert!(rec.provenance.signals.packets > 0);
        assert!(rec.provenance.signals.syns <= rec.provenance.signals.packets);
    }
}

#[test]
fn provenance_is_invariant_across_shard_counts() {
    let s = flood();
    let baseline = run_replay(
        &s,
        &ReplayConfig {
            shards: 1,
            ..ReplayConfig::default()
        },
    );
    assert!(!baseline.provenance.is_empty());
    for shards in [2usize, 4, 8] {
        let out = run_replay(
            &s,
            &ReplayConfig {
                shards,
                ..ReplayConfig::default()
            },
        );
        // The detection-side story (signals, scores, cause, drilldown)
        // must not know how many shards assembled the interval...
        for (b, o) in baseline.provenance.iter().zip(out.provenance.iter()) {
            assert_eq!(
                b.provenance, o.provenance,
                "{shards} shards: detection provenance diverged"
            );
            assert_eq!(b.drilldown, o.drilldown, "{shards} shards: drilldown");
        }
        // ...while the lineage names exactly the shards that did.
        for rec in &out.provenance {
            assert_eq!(
                rec.lineage.delivered_shards,
                (0..shards).collect::<Vec<_>>(),
                "{shards} shards: delivered set"
            );
        }
    }
}

#[test]
fn chaos_lineage_names_the_quarantined_shard() {
    let s = flood();
    let cfg = ReplayConfig {
        shards: 4,
        ..ReplayConfig::default()
    };
    let faults = FaultSchedule::parse("shard_crash=1@3", 42).expect("valid spec");
    let out = run_replay_with_faults(&s, &cfg, &faults);
    assert!(!out.provenance.is_empty());
    // Every record fired after the crash epoch must carry the incident
    // and exclude the dead shard from the delivered set.
    for rec in &out.provenance {
        if rec.lineage.epoch >= 3 {
            assert!(
                rec.lineage.quarantined.iter().any(|q| q.shard == 1),
                "post-crash record misses the quarantine: {rec:?}"
            );
            assert!(
                !rec.lineage.delivered_shards.contains(&1),
                "dead shard listed as delivered: {rec:?}"
            );
        }
    }
}

#[test]
fn golden_snapshot_round_trips_field_for_field() {
    // The golden test: render the full outcome — alerts, health with
    // incidents, ensemble report, provenance records, merged summary —
    // to JSON and parse it back; every field must survive. Run under
    // chaos so the optional structures (incidents, carried epochs,
    // reroutes) are populated rather than vacuously empty.
    let s = flood();
    let cfg = ReplayConfig {
        shards: 4,
        ..ReplayConfig::default()
    };
    let faults =
        FaultSchedule::parse("shard_crash=1@3,ctrl_loss=0.30", 42).expect("valid spec");
    let out = run_replay_with_faults(&s, &cfg, &faults);
    assert!(!out.provenance.is_empty(), "need records to round-trip");
    assert!(
        !out.health.incidents.is_empty(),
        "need incidents to round-trip"
    );

    let snap = RunSnapshot::of(&out);
    let text = render_outcome_json(&out);
    let parsed = parse_outcome_json(&text).expect("rendered outcome parses");
    assert_eq!(parsed, snap, "snapshot did not survive the round trip");

    // And rendering the parsed snapshot again is byte-stable.
    let text2 = telemetry::json::write(&parsed);
    assert_eq!(text, text2, "re-render is not byte-identical");
}
