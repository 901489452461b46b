//! What both replay engines produce, pinned against literal values.
//!
//! `tests/pool.rs` holds the pool to the reference engine. Since both
//! close an epoch through the same coordinator, a change to the shared
//! code moves both sides together and that comparison stays green.
//! This test is what notices: the FNV-1a of `render_outcome_json` for
//! each engine over a fixed set of runs (no faults at three shard
//! counts, a crash with report loss, an injected panic, total shard
//! loss), and of the bytes of one checkpoint, compared with
//! `tests/golden/engines.golden`.
//!
//! The golden file was recorded at the commit *before* the two engines
//! were folded onto one coordinator (PR 16), so it is the two
//! hand-written engines' behaviour the shared code is held to. A change
//! that means to alter behaviour re-records it with
//! `GOLDEN_RECORD=1 cargo test -p replay --test engine_golden` and
//! reviews the diff.
//!
//! A hash says *that* a document moved. `documents_match_recorded_bytes`
//! keeps three documents whole (`tests/golden/*.json`, recorded at the
//! commit before the codecs were folded onto `telemetry::json`'s trait
//! pair), so a renamed key, a reordered member or a respelled value
//! shows as the byte where it happens. `ckpt_roundtrip` cannot see
//! those: parse∘serialize is the identity under any key names.

use faultinject::FaultSchedule;
use replay::ckpt::{self, fnv1a64};
use replay::{
    reference, render_outcome_json, resume_from_checkpoint, run_replay_lifecycle,
    run_replay_with_faults, LifecyclePlan, LifecycleReport, ReplayConfig, ReplayOutcome,
};
use std::fmt::Write as _;
use std::path::PathBuf;
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

fn golden_file(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

/// What `replay synflood` replays (`generate` in `src/main.rs`).
fn cli_synflood() -> Schedule {
    let (s, _) = SynFloodWorkload {
        background_cps: 500,
        flood_pps: 50_000,
        flood_start: 400_000_000,
        duration: 900_000_000,
        seed: 4,
        ..SynFloodWorkload::default()
    }
    .generate();
    s
}

/// Holds `got` to the recorded file `name`, or records it. A mismatch
/// names the first differing byte with what surrounds it on each side
/// (the documents are single lines of up to ~350 kB).
fn assert_recorded_bytes(name: &str, got: &str) {
    let path = golden_file(name);
    if std::env::var_os("GOLDEN_RECORD").is_some() {
        std::fs::write(&path, got).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    if got == want {
        return;
    }
    let (g, w) = (got.as_bytes(), want.as_bytes());
    let at = g.iter().zip(w).position(|(a, b)| a != b).unwrap_or(g.len().min(w.len()));
    let around = |b: &[u8]| {
        String::from_utf8_lossy(&b[at.saturating_sub(60)..b.len().min(at + 60)]).into_owned()
    };
    panic!(
        "{name}: {} bytes against {} recorded, first difference at byte {at}\n  got      …{}…\n  recorded …{}…",
        g.len(),
        w.len(),
        around(g),
        around(w),
    );
}

/// One line per engine: the snapshot hash, and beside it the counts a
/// reader needs to see *what* moved when the hash does.
fn render_run(out: &mut String, engine: &str, label: &str, o: &ReplayOutcome) {
    writeln!(
        out,
        "{engine} {label}: snapshot {:016x} packets {} epochs {} alerts {} provenance {} \
         alive {} lost {} rerouted {} dropped_reports {}",
        fnv1a64(render_outcome_json(o).as_bytes()),
        o.packets,
        o.epochs,
        o.alerts.len(),
        o.provenance.len(),
        o.health.shards_alive,
        o.health.packets_lost,
        o.health.packets_rerouted,
        o.health.reports_dropped,
    )
    .unwrap();
}

#[test]
fn engines_match_golden() {
    let s = small_flood();
    let runs: [(usize, &str, u64); 7] = [
        (1, "", 0),
        (2, "", 0),
        (4, "", 0),
        (2, "shard_crash=1@3,ctrl_loss=0.30", 7),
        (4, "shard_crash=1@3,ctrl_loss=0.30", 7),
        (2, "shard_panic=0@2", 0),
        (2, "shard_crash=0@1,shard_crash=1@1", 0),
    ];
    let mut got = String::new();
    for (shards, spec, seed) in runs {
        let cfg = ReplayConfig {
            shards,
            ..ReplayConfig::default()
        };
        let faults = if spec.is_empty() {
            FaultSchedule::none()
        } else {
            FaultSchedule::parse(spec, seed).unwrap()
        };
        let label = format!("shards={shards} faults={spec:?} seed={seed}");
        render_run(&mut got, "pool", &label, &run_replay_with_faults(&s, &cfg, &faults));
        render_run(
            &mut got,
            "reference",
            &label,
            &reference::run_replay_with_faults(&s, &cfg, &faults),
        );
    }

    // Checkpoint #3 (taken at epoch ordinal 8) of a chaos run killed at
    // ordinal 9: the coordinator's whole state as bytes.
    let spec = "shard_crash=1@3,ctrl_loss=0.30";
    let dir = std::env::temp_dir().join(format!("replay-engine-golden-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let plan = LifecyclePlan {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 2,
        kill_at_epoch: Some(9),
        faults_spec: String::from(spec),
        ..LifecyclePlan::none()
    };
    let cfg = ReplayConfig {
        shards: 2,
        ..ReplayConfig::default()
    };
    let faults = FaultSchedule::parse(spec, 7).unwrap();
    let (_, report) = run_replay_lifecycle(&s, &cfg, &faults, &plan);
    assert_eq!(report.checkpoints_written, 4);
    let text = std::fs::read_to_string(dir.join(ckpt::file_name(3))).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    // The bytes hash to what the parent commit wrote, so this is also
    // "a file written at the parent re-serializes to itself".
    let parsed = ckpt::parse(&text).expect("a freshly written checkpoint parses");
    assert_eq!(ckpt::serialize(&parsed), text);
    writeln!(
        got,
        "checkpoint 3 of shards=2 faults={spec:?} seed=7 killed at 9: bytes {} fnv1a {:016x}",
        text.len(),
        fnv1a64(text.as_bytes()),
    )
    .unwrap();

    let path = golden_file("engines.golden");
    if std::env::var_os("GOLDEN_RECORD").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden file has a directory"))
            .and_then(|()| std::fs::write(&path, &got))
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    for (line, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {} differs from {}", line + 1, path.display());
    }
    assert_eq!(got.lines().count(), want.lines().count(), "{}", path.display());
}

/// The recovery smoke run of the CI workflow (`replay synflood 4
/// --faults shard_crash=1@3,ctrl_loss=0.30 --seed 42 --checkpoint-every
/// 2 --kill-at-epoch 5`, then `--resume`): the newest checkpoint and
/// the resumed run's snapshot, byte for byte, and one lifecycle report.
#[test]
fn documents_match_recorded_bytes() {
    let spec = "shard_crash=1@3,ctrl_loss=0.30";
    let s = cli_synflood();
    let cfg = ReplayConfig {
        shards: 4,
        ..ReplayConfig::default()
    };
    let dir = std::env::temp_dir().join(format!("replay-golden-bytes-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let plan = LifecyclePlan {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 2,
        kill_at_epoch: Some(5),
        faults_spec: String::from(spec),
        ..LifecyclePlan::none()
    };
    let faults = FaultSchedule::parse(spec, 42).unwrap();
    let (_, report) = run_replay_lifecycle(&s, &cfg, &faults, &plan);
    assert_eq!(report.checkpoints_written, 2);
    let (newest, rejected) = ckpt::load_latest(&dir).expect("the killed run left checkpoints");
    assert!(rejected.is_empty(), "{rejected:?}");
    let on_disk = std::fs::read_to_string(dir.join(ckpt::file_name(1))).unwrap();
    let resume = LifecyclePlan {
        kill_at_epoch: None,
        faults_spec: String::new(),
        ..plan
    };
    let (resumed, resumed_report) = resume_from_checkpoint(&s, &cfg, &resume).expect("resumes");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(resumed_report.resumed_from, Some(1));
    assert_eq!(ckpt::serialize(&newest), on_disk, "what was parsed re-serializes to the file");
    assert_recorded_bytes("checkpoint.json", &on_disk);
    assert_recorded_bytes("snapshot.json", &render_outcome_json(&resumed));

    // A run's own report carries a temp path and wall-clock figures,
    // so this one is built by hand: every member set, every event
    // kind's shape, a detail that needs escaping.
    let mut report = LifecycleReport {
        generation: 2,
        checkpoints_written: 3,
        swaps_committed: 2,
        swaps_rejected: 1,
        resumed_from: Some(1),
        ..LifecycleReport::default()
    };
    report.push(4, "resumed", String::from("from checkpoint 1 at \"/tmp/ck\\ckpt-000001.json\""));
    report.push(6, "checkpoint_written", String::from("ckpt-000002.json (169099 bytes)\n"));
    report.push(7, "swap_rejected", String::from("register `rate_window` differs: λ ≠ µ"));
    report.push(9, "shed_level", String::from("no_traces"));
    assert_recorded_bytes("lifecycle_report.json", &telemetry::json::write(&report));
}
