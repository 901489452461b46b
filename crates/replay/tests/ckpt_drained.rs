//! A checkpoint is taken at a drain point, where every shard state is
//! one `ShardState::new` could have become: a fresh state's tracker
//! geometry, and the open interval closed (its SYN, frame and length
//! counts zero, its distinct-source registers washed). Resume admits
//! no other shard state, because no barrier after it checks again. A
//! file that holds one, sealed under a valid checksum, is a counted
//! fallback naming what is wrong, and the run resumed from its
//! predecessor is the uninterrupted run. So is a shard state that is
//! not even consistent in itself.

use std::path::Path;

use faultinject::FaultSchedule;
use replay::ckpt::{self, ShardStateRaw};
use replay::{
    render_outcome_json, resume_from_checkpoint, run_replay, run_replay_lifecycle, LifecyclePlan,
    ReplayConfig,
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

fn cfg() -> ReplayConfig {
    ReplayConfig {
        shards: 2,
        ..ReplayConfig::default()
    }
}

fn resume_plan(dir: &Path) -> LifecyclePlan {
    LifecyclePlan {
        checkpoint_dir: Some(dir.to_path_buf()),
        ..LifecyclePlan::none()
    }
}

/// What to damage in shard 0 of a checkpoint, and the reason the
/// fallback must give.
type Case = (&'static str, fn(&mut ShardStateRaw), &'static str);

#[test]
fn a_shard_no_drain_point_holds_is_refused_at_restore() {
    let cases: [Case; 8] = [
        (
            "a negative SYN count",
            |r| r.syn_in_interval = -1_000_000,
            "syn_in_interval is -1000000",
        ),
        (
            "frames in the open interval",
            |r| r.packets_in_interval = 7,
            "packets_in_interval is 7",
        ),
        (
            "a length sum in the open interval",
            |r| r.len_sum_in_interval = 420,
            "len_sum_in_interval is 420",
        ),
        (
            "an unwashed distinct-source register",
            |r| r.hll_registers[17] = 3,
            "source HLL register 17 is set",
        ),
        (
            "kinds one cell wider",
            |r| r.kinds_counts.push(0),
            "different frequency domains",
        ),
        (
            "another sketch row count",
            |r| {
                r.sk_rows -= 1;
                r.sk_cells.truncate(r.sk_rows << r.sk_width_log2);
            },
            "different sketch geometries",
        ),
        (
            "a shorter percentile domain",
            |r| {
                r.pc_max -= 1;
                assert_eq!(r.pc_counts.pop(), Some(0), "no frame is that long");
            },
            "different percentile domains",
        ),
        (
            "another HLL precision",
            |r| {
                r.hll_precision += 1;
                r.hll_registers = vec![0; 1 << r.hll_precision];
            },
            "different hyperloglog precisions",
        ),
    ];
    each_falls_back("drained", &cases, true);
}

/// A shard's total is the sum of its length counts; counts that sum past
/// `u64::MAX` have none, and the shard is refused where it is read.
#[test]
fn length_counts_that_sum_past_u64_max_are_refused_at_restore() {
    let cases: [Case; 1] = [(
        "length counts summing past u64::MAX",
        |r| {
            let populated = r.pc_counts.iter().position(|&c| c > 0).expect("frames were counted");
            r.pc_counts[populated] = u64::MAX;
            r.pc_counts[populated + 1] += 1;
        },
        "length counts: inconsistent raw state: counts sum past u64::MAX",
    )];
    each_falls_back("overflow", &cases, false);
}

/// Seals each tampered copy of checkpoint #1 of a killed run in its
/// place and resumes: the resume falls back to #0, names `reason` for
/// shard 0, and finishes as the uninterrupted run. `restores` is
/// whether the tampered raw state is consistent in itself, so that it
/// is the drain-point check that refuses it.
fn each_falls_back(tag: &str, cases: &[Case], restores: bool) {
    let s = small_flood();
    let full = run_replay(&s, &cfg());
    assert!(
        full.detected_at.is_some(),
        "the uninterrupted run detects the flood"
    );
    let full = render_outcome_json(&full);

    // Checkpoints #0 (resumes at epoch ordinal 2) and #1 (at 4).
    let dir = std::env::temp_dir().join(format!("replay-drained-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let none = FaultSchedule::none();
    let killed = LifecyclePlan {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 2,
        kill_at_epoch: Some(5),
        ..LifecyclePlan::none()
    };
    let (_, report) = run_replay_lifecycle(&s, &cfg(), &none, &killed);
    assert_eq!(report.checkpoints_written, 2);
    let newest = dir.join(ckpt::file_name(1));
    let intact = ckpt::parse(&std::fs::read_to_string(&newest).unwrap()).unwrap();

    // Untampered, #1 is taken as it is.
    let (resumed, report) = resume_from_checkpoint(&s, &cfg(), &resume_plan(&dir)).unwrap();
    assert_eq!(report.resumed_from, Some(1));
    assert!(report
        .events
        .iter()
        .all(|e| e.kind != "checkpoint_fallback"));
    assert_eq!(render_outcome_json(&resumed), full);

    for (what, tamper, reason) in cases {
        let mut c = intact.clone();
        let shard = c.shards[0].as_mut().expect("shard 0 is alive");
        tamper(shard);
        assert_eq!(shard.restore().is_ok(), restores, "{what}: {:?}", shard.restore().err());
        // Sealed as a run seals it: the checksum is valid.
        ckpt::write_checkpoint(&dir, &c, &none).unwrap();

        let (resumed, report) = resume_from_checkpoint(&s, &cfg(), &resume_plan(&dir))
            .unwrap_or_else(|e| panic!("{what}: resume failed instead of falling back: {e}"));
        assert_eq!(report.resumed_from, Some(0), "{what}");
        let fallback = report
            .events
            .iter()
            .find(|e| e.kind == "checkpoint_fallback")
            .unwrap_or_else(|| panic!("{what}: no checkpoint_fallback in {:?}", report.events));
        assert!(
            fallback.detail.contains("ckpt-000001")
                && fallback.detail.contains("shard 0: ")
                && fallback.detail.contains(reason),
            "{what}: {}",
            fallback.detail
        );
        assert_eq!(render_outcome_json(&resumed), full, "{what}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
