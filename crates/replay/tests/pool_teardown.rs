//! Pool teardown under injected shard faults: a run whose workers
//! panic or crash must still tear the pool down completely — no leaked
//! worker threads, every queue dropped — and rerunning the same seed
//! must stay byte-identical to the reference engine.
//!
//! Everything lives in ONE test function: thread-count accounting is
//! process-global, and integration tests in one binary share a
//! process, so interleaved tests would race the baseline.

use faultinject::FaultSchedule;
use replay::{
    reference, resume_from_checkpoint, run_replay_lifecycle, run_replay_with_faults,
    IncidentKind, LifecyclePlan, ReplayConfig, SwapRequest,
};
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

/// Live threads in this process, from `/proc/self/status` (`Threads:`
/// line). Linux-only — on other targets the leak check is skipped and
/// only the behavioural assertions run.
fn thread_count() -> Option<usize> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

/// Waits (bounded) for the process thread count to drop back to
/// `baseline`: worker exit is observable strictly after `join`
/// returns, via the kernel reaping the task, so allow a grace period.
fn settles_to(baseline: usize) -> bool {
    for _ in 0..200 {
        match thread_count() {
            Some(n) if n <= baseline => return true,
            Some(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
            None => return true,
        }
    }
    false
}

#[test]
fn faulted_pool_runs_tear_down_without_leaking_workers() {
    let s = small_flood();
    let cfg = ReplayConfig {
        shards: 4,
        ..ReplayConfig::default()
    };
    // A panic (worker thread dies mid-run, joined by the supervisor),
    // a crash (worker idles until shutdown), and report loss together.
    let faults = FaultSchedule::parse(
        "shard_crash=1@3,shard_panic=2@5,ctrl_loss=0.30",
        77,
    )
    .unwrap();

    let baseline = thread_count().unwrap_or(0);

    let first = run_replay_with_faults(&s, &cfg, &faults);
    assert!(
        settles_to(baseline),
        "worker threads leaked after a faulted run: baseline {baseline}, now {:?}",
        thread_count()
    );

    // The faults actually fired and were supervised.
    assert_eq!(first.health.shards_alive, 2);
    let kinds: Vec<_> = first.health.incidents.iter().map(|i| &i.kind).collect();
    assert!(kinds.iter().any(|k| matches!(k, IncidentKind::Crashed)));
    assert!(kinds
        .iter()
        .any(|k| matches!(k, IncidentKind::Panicked(m) if m.contains("injected fault"))));

    // Ten more runs: thread count stays flat (the pool is per-run, so
    // repeated runs must not accrete threads) and every rerun is
    // byte-identical — the dead workers' queues were fully drained,
    // leaving no state to leak between runs.
    for i in 0..10 {
        let again = run_replay_with_faults(&s, &cfg, &faults);
        assert_eq!(again.merged, first.merged, "rerun {i}: merged state");
        assert_eq!(again.alerts, first.alerts, "rerun {i}: alerts");
        assert_eq!(again.health, first.health, "rerun {i}: health");
    }
    assert!(
        settles_to(baseline),
        "worker threads accreted across runs: baseline {baseline}, now {:?}",
        thread_count()
    );

    // And the whole faulted run is still bit-identical to the pre-pool
    // engine (the satellite guarantee: same-seed chaos byte-identity
    // against the reference path survives teardown-under-fault).
    let refr = reference::run_replay_with_faults(&s, &cfg, &faults);
    assert_eq!(first.merged, refr.merged);
    assert_eq!(first.alerts, refr.alerts);
    assert_eq!(first.detected_at, refr.detected_at);
    assert_eq!(first.health, refr.health);

    // Drain-swap-resume under the same active chaos: checkpoint every
    // other epoch, reject a stale reconfiguration at a drain point,
    // kill mid-run, then resume. Two pools get built and torn down —
    // neither may leak a thread, and the stitched-together run must
    // still equal the single-pass reference engine above.
    let spec = "shard_crash=1@3,shard_panic=2@5,ctrl_loss=0.30";
    let dir = std::env::temp_dir().join(format!(
        "replay-pool-teardown-lifecycle-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let plan = LifecyclePlan {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 2,
        kill_at_epoch: Some(6),
        // expected_generation 1 while generation 0 runs: a stale
        // request, rejected without vetting — the drain point still
        // exercises the swap path without perturbing the run.
        swaps: vec![SwapRequest {
            at_epoch: 4,
            expected_generation: 1,
            program: None,
            bindings: Vec::new(),
        }],
        faults_spec: String::from(spec),
        ..LifecyclePlan::none()
    };
    let (_, killed_report) = run_replay_lifecycle(&s, &cfg, &faults, &plan);
    assert!(killed_report.checkpoints_written >= 1);
    assert_eq!(killed_report.swaps_rejected, 1, "the stale swap is rejected");
    assert_eq!(killed_report.generation, 0, "rejection leaves the generation alone");
    assert!(
        settles_to(baseline),
        "worker threads leaked after the killed lifecycle run: baseline {baseline}, now {:?}",
        thread_count()
    );

    let resume_plan = LifecyclePlan {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 2,
        ..LifecyclePlan::none()
    };
    let (resumed, resumed_report) =
        resume_from_checkpoint(&s, &cfg, &resume_plan).expect("resume after kill");
    assert!(resumed_report.resumed_from.is_some());
    assert!(
        settles_to(baseline),
        "worker threads leaked after the resumed run: baseline {baseline}, now {:?}",
        thread_count()
    );
    assert_eq!(resumed.merged, refr.merged);
    assert_eq!(resumed.alerts, refr.alerts);
    assert_eq!(resumed.detected_at, refr.detected_at);
    assert_eq!(resumed.health, refr.health);
    std::fs::remove_dir_all(&dir).ok();
}
