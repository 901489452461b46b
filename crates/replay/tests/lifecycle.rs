//! Lifecycle guarantees: a run killed mid-stream and resumed from its
//! newest checkpoint is byte-identical to the uninterrupted run; a
//! rejected hot-swap leaves the running configuration untouched; a
//! torn checkpoint write is detected by the checksum and recovery
//! falls back to the previous checkpoint. The snapshot does not hold
//! the ensemble's fired log, so each resume also compares the
//! in-memory ensemble report, whose fired log the resumed run rebuilt
//! from the checkpoint's provenance.

use std::path::PathBuf;

use faultinject::FaultSchedule;
use replay::{
    ckpt, render_outcome_json, resume_from_checkpoint, run_replay_lifecycle, LifecyclePlan,
    ReplayConfig, SwapRequest,
};
use stat4_p4::{CaseStudyApp, CaseStudyParams};
use workloads::{Schedule, SynFloodWorkload};

const CHAOS: &str = "shard_crash=1@3,ctrl_loss=0.30";
const SEED: u64 = 7;

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

fn cfg(shards: usize) -> ReplayConfig {
    ReplayConfig {
        shards,
        ..ReplayConfig::default()
    }
}

/// A unique scratch dir per test invocation; cleaned up at the end of
/// each test that succeeds (a failed test leaves it for inspection).
fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "replay-lifecycle-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id(),
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn chaos(spec: &str) -> FaultSchedule {
    FaultSchedule::parse(spec, SEED).unwrap()
}

/// The acceptance criterion: kill at an epoch ordinal, resume from the
/// newest checkpoint, and the deterministic run snapshot must be
/// byte-identical to the uninterrupted run's — across shard counts,
/// under chaos. The last case's seed is above `i64::MAX`: the resumed
/// run rebuilds its fault schedule from the seed the checkpoint
/// stored, so the checkpoint must store all 64 bits of it.
#[test]
fn kill_and_resume_is_byte_identical_across_shard_counts() {
    let s = small_flood();
    for (shards, seed) in [(1usize, SEED), (2, SEED), (4, SEED), (8, SEED), (4, u64::MAX - 3)] {
        let cfg = cfg(shards);
        let dir = fresh_dir(&format!("resume-{shards}-{seed}"));
        let chaos = |spec: &str| FaultSchedule::parse(spec, seed).unwrap();

        let (full, _) = run_replay_lifecycle(&s, &cfg, &chaos(CHAOS), &LifecyclePlan::none());

        let plan = LifecyclePlan {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 2,
            kill_at_epoch: Some(5),
            faults_spec: String::from(CHAOS),
            ..LifecyclePlan::none()
        };
        let (killed, killed_report) = run_replay_lifecycle(&s, &cfg, &chaos(CHAOS), &plan);
        assert!(
            killed.epochs < full.epochs,
            "{shards} shard(s): the kill must actually cut the run short"
        );
        assert!(
            killed_report.checkpoints_written >= 1,
            "{shards} shard(s): no checkpoint was written before the kill"
        );
        assert!(killed_report
            .events
            .iter()
            .any(|e| e.kind == "killed" && e.epoch == 5));

        let resume_plan = LifecyclePlan {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 2,
            ..LifecyclePlan::none()
        };
        let (resumed, resumed_report) = resume_from_checkpoint(&s, &cfg, &resume_plan)
            .unwrap_or_else(|e| panic!("{shards} shard(s): resume failed: {e}"));
        assert!(resumed_report.resumed_from.is_some());
        assert_eq!(
            render_outcome_json(&resumed),
            render_outcome_json(&full),
            "{shards} shard(s), seed {seed}: resumed snapshot differs from the uninterrupted run"
        );
        assert_eq!(resumed.ensemble, full.ensemble, "{shards} shard(s), seed {seed}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The pool ingests short epochs on the coordinator and hands long ones
/// to the workers; a checkpoint must not care which. Quiet background
/// (epochs of a few dozen frames) up to 150 ms, ≈1 000-frame epochs
/// after: a run killed in the quiet stretch resumes into inline epochs
/// and then crosses into dispatched ones, a run killed in the burst
/// resumes into dispatched ones only, and both end where the
/// uninterrupted run does.
#[test]
fn kill_and_resume_is_byte_identical_on_either_side_of_the_inline_bound() {
    let (s, _) = SynFloodWorkload {
        background_cps: 500,
        flood_pps: 100_000,
        flood_start: 150_000_000,
        duration: 300_000_000,
        seed: 11,
        ..SynFloodWorkload::default()
    }
    .generate();
    let cfg = cfg(2);
    let (full, _) = run_replay_lifecycle(&s, &cfg, &chaos(CHAOS), &LifecyclePlan::none());
    let inline = full.telemetry.epochs_inline.get();
    assert!(0 < inline && inline < full.epochs, "{inline} of {} inline", full.epochs);

    for (kill_at, in_quiet_stretch) in [(9u64, true), (22, false)] {
        let dir = fresh_dir(&format!("straddle-{kill_at}"));
        let plan = LifecyclePlan {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 4,
            kill_at_epoch: Some(kill_at),
            faults_spec: String::from(CHAOS),
            ..LifecyclePlan::none()
        };
        let (killed, _) = run_replay_lifecycle(&s, &cfg, &chaos(CHAOS), &plan);
        assert_eq!(killed.epochs, kill_at);
        assert_eq!(
            killed.telemetry.partition_ns.count(),
            kill_at,
            "kill at {kill_at}: a routing sample per epoch that ran, and none for epoch \
             {kill_at}, routed while its predecessor was ingested and never taken"
        );
        assert_eq!(
            killed.telemetry.epochs_inline.get() == killed.epochs,
            in_quiet_stretch,
            "kill at {kill_at}: which side of the burst the kill fell on"
        );

        // Killed in the burst, the run resumes with a fired log to
        // rebuild from the checkpoint's provenance.
        let (newest, _) = ckpt::load_latest(&dir).expect("the killed run left checkpoints");
        let engines = newest.provenance.iter().flat_map(|r| &r.provenance.engines);
        assert_eq!(engines.filter(|e| e.fired).count() > 0, !in_quiet_stretch, "kill at {kill_at}");

        let resume_plan = LifecyclePlan {
            checkpoint_dir: Some(dir.clone()),
            ..LifecyclePlan::none()
        };
        let (resumed, report) = resume_from_checkpoint(&s, &cfg, &resume_plan)
            .unwrap_or_else(|e| panic!("kill at {kill_at}: resume failed: {e}"));
        assert!(report.resumed_from.is_some());
        // Telemetry starts over at a resume: these count its epochs only.
        let t = &resumed.telemetry;
        assert!(t.epochs_inline.get() < t.epochs.get(), "the resumed run dispatched the burst");
        assert_eq!(t.partition_ns.count(), t.epochs.get(), "a routing sample per resumed epoch");
        if in_quiet_stretch {
            // Resumed at the checkpoint of ordinal 8; the burst starts at 15.
            assert!(t.epochs_inline.get() >= 7, "{} inline", t.epochs_inline.get());
        }
        assert_eq!(
            render_outcome_json(&resumed),
            render_outcome_json(&full),
            "kill at {kill_at}: resumed snapshot differs from the uninterrupted run"
        );
        assert_eq!(resumed.ensemble, full.ensemble, "kill at {kill_at}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A swap whose proposed program provably diverges from the running
/// one must be rejected at the drain point with the configuration —
/// and the run's outcome — untouched.
#[test]
fn rejected_swap_leaves_outcome_and_generation_untouched() {
    let s = small_flood();
    let cfg = cfg(4);
    let base = CaseStudyApp::build(CaseStudyParams::default()).unwrap();
    // Halving the rate window changes the ring-buffer modulus, so the
    // equivalence check finds a concrete counterexample.
    let poisoned = CaseStudyApp::build(CaseStudyParams {
        window_size: CaseStudyParams::default().window_size / 2,
        ..CaseStudyParams::default()
    })
    .unwrap();

    let (baseline, _) = run_replay_lifecycle(&s, &cfg, &chaos(CHAOS), &LifecyclePlan::none());

    let plan = LifecyclePlan {
        initial_program: Some(base.pipeline),
        swaps: vec![SwapRequest {
            at_epoch: 3,
            expected_generation: 0,
            program: Some(poisoned.pipeline),
            bindings: Vec::new(),
        }],
        faults_spec: String::from(CHAOS),
        ..LifecyclePlan::none()
    };
    let (out, report) = run_replay_lifecycle(&s, &cfg, &chaos(CHAOS), &plan);

    assert_eq!(report.swaps_rejected, 1);
    assert_eq!(report.swaps_committed, 0);
    assert_eq!(report.generation, 0, "a rejected swap must not bump the generation");
    let rejection = report
        .events
        .iter()
        .find(|e| e.kind == "swap_rejected")
        .expect("a swap_rejected event");
    assert_eq!(rejection.epoch, 3);
    assert!(
        rejection.detail.contains("diverges"),
        "the rejection names the counterexample: {}",
        rejection.detail
    );
    assert_eq!(
        render_outcome_json(&out),
        render_outcome_json(&baseline),
        "a rejected swap must leave the run's outcome untouched"
    );
}

/// An equivalent recompile commits and bumps the generation — and
/// still leaves the statistical outcome untouched, because the swap is
/// a control-plane event, not a data mutation.
#[test]
fn accepted_swap_bumps_generation_without_changing_the_outcome() {
    let s = small_flood();
    let cfg = cfg(2);
    let base = CaseStudyApp::build(CaseStudyParams::default()).unwrap();
    let recompile = CaseStudyApp::build(CaseStudyParams::default()).unwrap();

    let (baseline, _) = run_replay_lifecycle(&s, &cfg, &FaultSchedule::none(), &LifecyclePlan::none());

    let plan = LifecyclePlan {
        initial_program: Some(base.pipeline),
        swaps: vec![SwapRequest {
            at_epoch: 3,
            expected_generation: 0,
            program: Some(recompile.pipeline),
            bindings: Vec::new(),
        }],
        ..LifecyclePlan::none()
    };
    let (out, report) = run_replay_lifecycle(&s, &cfg, &FaultSchedule::none(), &plan);

    assert_eq!(report.swaps_committed, 1);
    assert_eq!(report.swaps_rejected, 0);
    assert_eq!(report.generation, 1);
    assert!(report
        .events
        .iter()
        .any(|e| e.kind == "swap_committed" && e.epoch == 3));
    assert_eq!(render_outcome_json(&out), render_outcome_json(&baseline));
}

/// `reconfig_storm=1.0` redelivers every committed swap; the duplicate
/// carries the old expected generation, so it must vet to a stale
/// rejection — commit exactly once, reject exactly once.
#[test]
fn storm_redelivered_swap_is_rejected_as_stale() {
    let s = small_flood();
    let cfg = cfg(2);
    let base = CaseStudyApp::build(CaseStudyParams::default()).unwrap();
    let recompile = CaseStudyApp::build(CaseStudyParams::default()).unwrap();

    let spec = "reconfig_storm=1.0";
    let plan = LifecyclePlan {
        initial_program: Some(base.pipeline),
        swaps: vec![SwapRequest {
            at_epoch: 3,
            expected_generation: 0,
            program: Some(recompile.pipeline),
            bindings: Vec::new(),
        }],
        faults_spec: String::from(spec),
        ..LifecyclePlan::none()
    };
    let (_, report) = run_replay_lifecycle(&s, &cfg, &chaos(spec), &plan);

    assert_eq!(report.swaps_committed, 1, "the original commits once");
    assert_eq!(report.swaps_rejected, 1, "the redelivery is rejected");
    assert_eq!(report.generation, 1, "the generation bumps exactly once");
    let stale = report
        .events
        .iter()
        .find(|e| e.kind == "stale_swap_rejected")
        .expect("a stale_swap_rejected event");
    assert!(stale.detail.contains("stale"), "{}", stale.detail);
}

/// `ckpt_corrupt=N` tears the Nth checkpoint write after its checksum
/// is computed. The loader must detect the damage, fall back to the
/// previous checkpoint, and the resumed run must still be
/// byte-identical to the uninterrupted one.
#[test]
fn torn_checkpoint_write_falls_back_and_still_resumes_identically() {
    let s = small_flood();
    let cfg = cfg(4);
    let dir = fresh_dir("torn");
    // Checkpoints land at epochs 2 (#0), 4 (#1), 6 (#2); the newest
    // (#2) is corrupted, so resume must fall back to #1.
    let spec = "shard_crash=1@3,ctrl_loss=0.30,ckpt_corrupt=2";

    let (full, _) = run_replay_lifecycle(&s, &cfg, &chaos(spec), &LifecyclePlan::none());

    let plan = LifecyclePlan {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 2,
        kill_at_epoch: Some(7),
        faults_spec: String::from(spec),
        ..LifecyclePlan::none()
    };
    let (_, killed_report) = run_replay_lifecycle(&s, &cfg, &chaos(spec), &plan);
    assert_eq!(killed_report.checkpoints_written, 3);

    let resume_plan = LifecyclePlan {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 2,
        ..LifecyclePlan::none()
    };
    let (resumed, report) = resume_from_checkpoint(&s, &cfg, &resume_plan).unwrap();
    assert_eq!(
        report.resumed_from,
        Some(1),
        "resume must fall back past the corrupt newest checkpoint"
    );
    assert!(
        report
            .events
            .iter()
            .any(|e| e.kind == "checkpoint_fallback" && e.detail.contains("ckpt-000002")),
        "the fallback names the rejected file: {:?}",
        report.events
    );
    assert_eq!(render_outcome_json(&resumed), render_outcome_json(&full));
    assert_eq!(resumed.ensemble, full.ensemble);
    std::fs::remove_dir_all(&dir).ok();
}

/// Resume validates its inputs: a missing directory, a mismatched
/// topology, and a mismatched schedule are all loud errors instead of
/// silently divergent runs.
#[test]
fn resume_rejects_mismatched_inputs() {
    let s = small_flood();
    let dir = fresh_dir("mismatch");

    let err = resume_from_checkpoint(
        &s,
        &cfg(4),
        &LifecyclePlan {
            checkpoint_dir: Some(dir.clone()),
            ..LifecyclePlan::none()
        },
    )
    .unwrap_err();
    assert!(err.contains("checkpoint"), "missing dir is a clear error: {err}");

    let plan = LifecyclePlan {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 2,
        kill_at_epoch: Some(5),
        ..LifecyclePlan::none()
    };
    let _ = run_replay_lifecycle(&s, &cfg(4), &FaultSchedule::none(), &plan);

    let err = resume_from_checkpoint(
        &s,
        &cfg(2),
        &LifecyclePlan {
            checkpoint_dir: Some(dir.clone()),
            ..LifecyclePlan::none()
        },
    )
    .unwrap_err();
    assert!(err.contains("shard"), "topology mismatch is named: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A kill or swap ordinal past the run's last drain point does
/// nothing; the binary names it with the run's epoch count and exits 2
/// instead of 0. One reached beside it changes nothing.
#[test]
fn unreached_kill_or_swap_exits_2() {
    let replay = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_replay"))
            .args(["synflood", "1"])
            .args(args)
            .output()
            .expect("replay binary runs")
    };
    for (flag, reached) in [
        ("--kill-at-epoch", "lifecycle: killed at epoch 5"),
        ("--swap-demo", "lifecycle: swap committed at epoch 5"),
    ] {
        let out = replay(&[flag, "99999"]);
        assert_eq!(out.status.code(), Some(2), "{flag} 99999");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("{flag} 99999 was never reached: the run has 90 epoch(s)")),
            "got: {err}"
        );
        let out = replay(&[flag, "5"]);
        assert_eq!(out.status.code(), Some(0), "{flag} 5");
        assert!(String::from_utf8_lossy(&out.stdout).contains(reached));
    }
}
