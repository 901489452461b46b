//! State that must survive a crash is bounded in size: over a
//! 10 000-epoch run checkpointed every 1 000 epochs, what a checkpoint
//! holds apart from the run's output (alert provenance, which also
//! holds every fired result) stops growing once the windows are full —
//! counter digits, nothing else. Version 1 stored every interval the
//! detectors had seen; its ninth file was several times its second.
//! Versions before 5 also wrote the fired log and two detectors' alert
//! lists, which grew with the output and had to be subtracted here.

use faultinject::FaultSchedule;
use replay::ckpt;
use replay::{run_replay_lifecycle, LifecyclePlan, ReplayConfig};
use telemetry::json::render;
use telemetry::Json;
use workloads::SeasonalDriftWorkload;

/// Rendered size of a checkpoint file's payload without the member
/// that is the run's output, plus the size of that member.
fn state_and_output_bytes(path: &std::path::Path) -> (usize, usize) {
    let text = std::fs::read_to_string(path).unwrap();
    ckpt::parse(&text).expect("a written checkpoint parses");
    let doc = Json::parse(&text).unwrap();
    let payload = doc.get("payload").unwrap();
    let output = render(payload.get("provenance").unwrap()).len();
    (render(payload).len() - output, output)
}

#[test]
fn checkpoint_state_plateaus_over_ten_thousand_epochs() {
    const MS: u64 = 1_000_000;
    let w = SeasonalDriftWorkload {
        high_rate: 30,
        low_rate: 10,
        duration: 100_000 * MS,
        drift_start: 50_000 * MS,
        seed: 3,
        ..SeasonalDriftWorkload::default()
    };
    let schedule = w.generate();
    let cfg = ReplayConfig {
        shards: 2,
        ..ReplayConfig::default()
    };
    let dir = std::env::temp_dir().join(format!("replay-ckpt-bounded-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let plan = LifecyclePlan {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 1_000,
        ..LifecyclePlan::none()
    };
    let (out, report) = run_replay_lifecycle(&schedule, &cfg, &FaultSchedule::none(), &plan);
    assert_eq!(out.epochs, 10_000);
    assert_eq!(report.checkpoints_written, 9);
    assert!(
        !out.ensemble.fired.is_empty(),
        "the drift must be detected: output has to grow"
    );

    let sizes: Vec<(usize, usize)> = (0..9)
        .map(|ordinal| state_and_output_bytes(&dir.join(ckpt::file_name(ordinal))))
        .collect();
    let (second, last) = (sizes[1], sizes[8]);
    assert!(
        last.0 * 100 < second.0 * 110,
        "state grew {} -> {} bytes from checkpoint 2 to checkpoint 9: {sizes:?}",
        second.0,
        last.0
    );
    assert!(last.1 > second.1, "output members did not grow: {sizes:?}");
    std::fs::remove_dir_all(&dir).ok();
}
