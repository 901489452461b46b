//! End-to-end inspector coverage: run a real (chaotic) replay, render
//! the artifacts exactly as the CLI flags do, and drive every
//! inspector view over them — the same path CI's trace smoke exercises
//! through the binaries.

use faultinject::FaultSchedule;
use replay::{parse_outcome_json, render_outcome_json, run_replay_with_faults, ReplayConfig};
use stat4_trace::{explain, flame, flame_rows, timeline, thread_name};
use telemetry::{check_trace, parse_trace, COORDINATOR_TID};
use workloads::{Schedule, SynFloodWorkload};

/// The flood's epochs are ≈1 000 frames: long enough that the pool
/// hands them to its workers, so the trace has the coordinator's
/// `barrier` spans and the workers' `queue_wait` spans in it (the quiet
/// epochs before it are ingested on the coordinator, with neither).
fn flood() -> Schedule {
    let (s, _) = SynFloodWorkload {
        background_cps: 500,
        flood_pps: 100_000,
        flood_start: 150_000_000,
        duration: 400_000_000,
        seed: 11,
        ..SynFloodWorkload::default()
    }
    .generate();
    s
}

#[test]
fn chaos_run_artifacts_survive_every_inspector_view() {
    let s = flood();
    let cfg = ReplayConfig {
        shards: 4,
        ..ReplayConfig::default()
    };
    let faults =
        FaultSchedule::parse("shard_crash=1@3,ctrl_loss=0.30", 42).expect("valid chaos spec");
    let out = run_replay_with_faults(&s, &cfg, &faults);

    // The trace must validate and carry spans from the coordinator and
    // every live shard.
    let trace_text = out.telemetry.merged_trace().to_chrome_json();
    let summary = check_trace(&trace_text).expect("merged chaos trace validates");
    assert!(summary.spans > 0, "no spans in {summary:?}");
    let doc = parse_trace(&trace_text).expect("parses");
    let mut tids: Vec<u64> = doc.events.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    assert!(
        tids.contains(&u64::from(COORDINATOR_TID)),
        "coordinator missing from {tids:?}"
    );
    for shard in 0..cfg.shards as u64 {
        if shard == 1 {
            continue; // crashed at epoch 3 — may or may not have traced
        }
        assert!(tids.contains(&shard), "shard {shard} missing from {tids:?}");
    }

    // Timeline and flamegraph render the same document.
    let tl = timeline(&doc);
    assert!(tl.contains("coordinator"), "{tl}");
    assert!(tl.contains(&thread_name(0)), "{tl}");
    assert!(tl.contains("▶ ingest"), "{tl}");
    let fl = flame(&doc);
    assert!(fl.contains("ingest"), "{fl}");
    let rows = flame_rows(&doc);
    for r in &rows {
        assert!(r.self_ns <= r.total_ns, "self exceeds total in {r:?}");
    }
    assert!(
        rows.iter()
            .any(|r| r.name == "barrier" && r.tid == u64::from(COORDINATOR_TID)),
        "coordinator barrier span missing from flame rows"
    );

    // The snapshot round-trips and explains its first alert.
    assert!(
        !out.provenance.is_empty(),
        "the flood must leave at least one provenance record"
    );
    let snap_text = render_outcome_json(&out);
    let snap = parse_outcome_json(&snap_text).expect("snapshot parses");
    let story = explain(&snap, out.provenance[0].id).expect("first alert explains");
    assert!(story.contains("FIRED"), "{story}");
    assert!(story.contains("score"), "{story}");
    assert!(story.contains("lineage"), "{story}");
    assert!(
        story.contains("quarantined at epoch"),
        "chaos quarantine missing from: {story}"
    );

    // Asking for an alert that never fired names the ones that did.
    let err = explain(&snap, 9_999).expect_err("bogus id must fail");
    assert!(err.contains("no alert 9999"), "{err}");
}

#[test]
fn clean_run_explain_reports_full_lineage() {
    let s = flood();
    let cfg = ReplayConfig {
        shards: 2,
        ..ReplayConfig::default()
    };
    let out = run_replay_with_faults(&s, &cfg, &FaultSchedule::none());
    assert!(!out.provenance.is_empty());
    let snap = parse_outcome_json(&render_outcome_json(&out)).expect("snapshot parses");
    let story = explain(&snap, 0).expect("alert 0 explains");
    assert!(
        story.contains("assembled from 2 shard(s)"),
        "clean run must deliver every shard: {story}"
    );
    assert!(
        story.contains("no shards quarantined"),
        "clean run has no incidents: {story}"
    );
}

/// The lifecycle view answers "what did each checkpoint cost" from the
/// report alone: every `checkpoint written` line carries the document
/// size and the serialize / on-disk times the coordinator measured.
#[test]
fn lifecycle_story_shows_each_checkpoints_size_and_cost() {
    let dir = std::env::temp_dir().join(format!("stat4-trace-ckpt-cost-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let plan = replay::LifecyclePlan {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 10,
        ..replay::LifecyclePlan::none()
    };
    let cfg = ReplayConfig {
        shards: 2,
        ..ReplayConfig::default()
    };
    let (out, report) = replay::run_replay_lifecycle(&flood(), &cfg, &FaultSchedule::none(), &plan);
    assert!(report.checkpoints_written >= 2, "{report:?}");

    let story = stat4_trace::lifecycle_story(
        &replay::LifecycleReport::parse(&telemetry::json::write(&report)).expect("own rendering parses"),
    );
    let lines: Vec<&str> = story.lines().filter(|l| l.contains("checkpoint written")).collect();
    assert_eq!(lines.len() as u64, report.checkpoints_written, "{story}");
    for (ordinal, line) in lines.iter().enumerate() {
        let file = dir.join(replay::ckpt::file_name(ordinal as u64));
        let bytes = std::fs::metadata(&file).expect("the named file exists").len();
        assert!(line.contains(&format!("({bytes} bytes, serialized in ")), "{line}");
        assert!(line.contains(" us, on disk after ") && line.contains(" us; resumes at"), "{line}");
    }

    // The same two quantities as one-sample-per-checkpoint histograms.
    let snap = out.telemetry.snapshot();
    let text = telemetry::render_prometheus(&snap);
    for family in ["replay_ckpt_serialize_ns", "replay_ckpt_bytes", "replay_ckpt_write_ns"] {
        assert!(
            text.contains(&format!("{family}_count {}", report.checkpoints_written)),
            "{family}: one sample per checkpoint"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
