//! A file handed to `stat4-trace` is untrusted input. Whatever a
//! truncated or bit-flipped copy of a real run's merged trace, run
//! snapshot or lifecycle report holds, the readers and the views built
//! on them refuse it or render it; none panics.
//!
//! One chaos-plus-checkpoint run (2 shards, `shard_crash=1@3,
//! ctrl_loss=0.30`, a checkpoint every 10 epochs) writes the three
//! documents exactly as `--trace-out`, `--snapshot-out` and
//! `--lifecycle-out` do. Each is cut at every stride point and has each
//! bit of the byte there flipped; every variant that is still UTF-8
//! (the CLI reads files with `read_to_string`, which refuses the rest)
//! goes through the same reader and view as its subcommand.

use std::panic::{catch_unwind, AssertUnwindSafe};

use faultinject::FaultSchedule;
use replay::{
    parse_outcome_json, render_outcome_json, run_replay_lifecycle, LifecyclePlan, LifecycleReport,
    ReplayConfig,
};
use stat4_trace::{explain, flame, lifecycle_story, timeline};
use telemetry::{check_trace, parse_trace};
use workloads::SynFloodWorkload;

const CHAOS: &str = "shard_crash=1@3,ctrl_loss=0.30";

/// Every cut and every single-bit flip at each of at most `points`
/// stride points spread over `doc` that is still UTF-8, as (what was
/// done, the text).
fn variants(doc: &str, points: usize) -> Vec<(String, String)> {
    let bytes = doc.as_bytes();
    let stride = (bytes.len() / points).max(1) | 1;
    let mut out = Vec::new();
    for at in (0..bytes.len()).step_by(stride) {
        if let Ok(text) = std::str::from_utf8(&bytes[..at]) {
            out.push((format!("cut at byte {at}"), text.to_string()));
        }
        for bit in 0..8 {
            let mut flipped = bytes.to_vec();
            flipped[at] ^= 1 << bit;
            if let Ok(text) = String::from_utf8(flipped) {
                out.push((format!("bit {bit} of byte {at} flipped"), text));
            }
        }
    }
    out
}

/// Runs `read` on every variant of `doc`, naming each one that panics.
fn never_panics(what: &str, doc: &str, points: usize, read: impl Fn(&str)) -> usize {
    let vs = variants(doc, points);
    let panicked: Vec<&str> = vs
        .iter()
        .filter(|(_, text)| catch_unwind(AssertUnwindSafe(|| read(text))).is_err())
        .map(|(how, _)| how.as_str())
        .collect();
    assert!(panicked.is_empty(), "{what}: a reader panicked on {panicked:?}");
    vs.len()
}

#[test]
fn damaged_run_artifacts_never_panic_a_reader() {
    let (schedule, _) = SynFloodWorkload {
        background_cps: 500,
        flood_pps: 20_000,
        flood_start: 150_000_000,
        duration: 400_000_000,
        seed: 11,
        ..SynFloodWorkload::default()
    }
    .generate();
    let dir = std::env::temp_dir().join(format!("stat4-trace-damaged-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let plan = LifecyclePlan {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 10,
        faults_spec: String::from(CHAOS),
        ..LifecyclePlan::none()
    };
    let cfg = ReplayConfig {
        shards: 2,
        ..ReplayConfig::default()
    };
    let faults = FaultSchedule::parse(CHAOS, 42).expect("valid chaos spec");
    let (out, report) = run_replay_lifecycle(&schedule, &cfg, &faults, &plan);
    std::fs::remove_dir_all(&dir).ok();
    assert!(report.checkpoints_written >= 2, "{report:?}");
    assert!(!out.provenance.is_empty(), "the flood must raise an alert");

    let trace = out.telemetry.merged_trace().to_chrome_json();
    let snapshot = render_outcome_json(&out);
    let lifecycle = telemetry::json::write(&report);
    // The undamaged documents read cleanly, so a variant that fails
    // fails for its damage.
    check_trace(&trace).expect("the run's trace validates");
    parse_outcome_json(&snapshot).expect("the run's snapshot parses");
    LifecycleReport::parse(&lifecycle).expect("the run's lifecycle report parses");
    let mut ids: Vec<u64> = out.provenance.iter().map(|p| p.id).collect();
    ids.push(u64::MAX);

    // Reading a variant of the ≈36 KB trace takes about a millisecond
    // and of the ≈15 KB snapshot a fifth of one, so they get fewer
    // stride points than the lifecycle report, which gets every byte.
    // `check_trace` starts with `parse_trace`, so a text that does not
    // parse has been through it once.
    let mut tried = never_panics("trace", &trace, 128, |text| {
        if let Ok(doc) = parse_trace(text) {
            let _ = check_trace(text);
            let _ = timeline(&doc);
            let _ = flame(&doc);
        }
    });
    tried += never_panics("snapshot", &snapshot, 256, |text| {
        if let Ok(snap) = parse_outcome_json(text) {
            for id in ids.iter().copied().chain(snap.provenance.iter().map(|p| p.id)) {
                let _ = explain(&snap, id);
            }
        }
    });
    tried += never_panics("lifecycle report", &lifecycle, usize::MAX, |text| {
        if let Ok(report) = LifecycleReport::parse(text) {
            let _ = lifecycle_story(&report);
        }
    });
    assert!(tried > 5_000, "only {tried} variants");
}
