//! A checkpoint is taken at a drain point, where every shard state is
//! one `ShardState::new` could have become: a fresh state's tracker
//! geometry, and the open interval closed (its SYN, frame and length
//! counts zero, its distinct-source registers washed). Resume admits
//! no other shard state, because no barrier after it checks again. A
//! file that holds one, sealed under a valid checksum, is a counted
//! fallback naming what is wrong, and the run resumed from its
//! predecessor is the uninterrupted run. So is a shard state that is
//! not even consistent in itself.
//!
//! A geometry is refused where the file is read: the reader sizes each
//! register file by a fresh shard's geometry, holds the file's geometry
//! members to it, and refuses a cell at or past the end of its file.
//! The rest is refused where the state is restored.

mod reseal;

use std::path::{Path, PathBuf};

use faultinject::FaultSchedule;
use reseal::with_first_pair;
use replay::ckpt::{self, Checkpoint, ShardStateRaw};
use replay::{
    render_outcome_json, resume_from_checkpoint, run_replay, run_replay_lifecycle, EnsembleReport,
    LifecyclePlan, ReplayConfig,
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
/// fallback must give for it.
type Case = (&'static str, fn(&mut ShardStateRaw), &'static str);

#[test]
fn a_shard_no_drain_point_holds_is_refused_at_restore() {
    let cases: [Case; 4] = [
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
    ];
    each_falls_back("drained", &cases, Some(true));
}

/// A geometry other than a fresh shard's is refused by name as the
/// file is read, before the register file it sizes is allocated. What
/// the raw state says with an array of another length, the file says
/// with a cell at or past the end of its register file.
#[test]
fn a_shard_of_another_geometry_is_refused_by_name_where_it_is_read() {
    let cases: [Case; 5] = [
        (
            "another sketch row count",
            |r| {
                r.sk_rows -= 1;
                r.sk_cells.truncate(r.sk_rows << r.sk_width_log2);
            },
            "$.payload.shards[0].sk_rows: 3 is not the 4 this build reads",
        ),
        (
            "a shorter percentile domain",
            |r| {
                r.pc_max -= 1;
                assert_eq!(r.pc_counts.pop(), Some(0), "no frame is that long");
            },
            "$.payload.shards[0].pc_max: 2046 is not the 2047 this build reads",
        ),
        (
            "another HLL precision",
            |r| {
                r.hll_precision += 1;
                r.hll_registers = vec![0; 1 << r.hll_precision];
            },
            "$.payload.shards[0].hll_precision: 11 is not the 10 this build reads",
        ),
        (
            "nine sketch rows",
            |r| {
                r.sk_rows = 9;
                r.sk_cells.resize(9 << r.sk_width_log2, 0);
            },
            "$.payload.shards[0].sk_rows: 9 is not the 4 this build reads",
        ),
        (
            "a kind domain ending past i64::MAX",
            |r| r.kinds_min = i64::MAX,
            "$.payload.shards[0].kinds_min: 9223372036854775807 is not the 0 this build reads",
        ),
    ];
    each_falls_back("geometry", &cases, None);

    let run = KilledRun::new("past-the-end", BEFORE_THE_FLOOD);
    let written = ckpt::serialize(&run.intact);
    for (what, member, len) in [
        ("kinds one cell wider", "kinds_counts", 8),
        ("a sketch cell past the last row", "sk_cells", 16_384),
        ("a length count past the domain", "pc_counts", 2_048),
        ("a distinct-source register past the file", "hll_registers", 1_024),
    ] {
        let reason = format!("$.payload.shards[0].{member}[0]: index {len} is outside its {len} cells");
        run.falls_back(what, &with_first_pair(&written, member, &format!("[{len},1]")), &reason);
    }
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
    each_falls_back("overflow", &cases, Some(false));
}

/// A shard feeds every frame to every tracker. A sketch row that does
/// not sum to the sketch's total, or trackers that disagree on what
/// the shard saw are no shard's state, and each is refused where it is
/// read: none panics the resume, and none is taken.
#[test]
fn a_shard_whose_trackers_disagree_is_refused_at_restore() {
    let row_sums = "destination sketch: inconsistent raw state: a row does not sum to the total";
    let cases: [Case; 5] = [
        ("a sketch total of u64::MAX", |r| r.sk_total = u64::MAX, row_sums),
        ("a sketch total 1000 high", |r| r.sk_total += 1000, row_sums),
        ("a sketch total of 0", |r| r.sk_total = 0, row_sums),
        (
            "no length moments",
            |r| r.len_n = 0,
            "trackers disagree on the frames seen: length moments counted 0, packets is",
        ),
        (
            "a length sum one high",
            |r| r.len_xsum += 1,
            "are not those of the length counts",
        ),
    ];
    each_falls_back("disagree", &cases, Some(false));
}

/// A checkpoint taken after the first alert holds fired results, each
/// in the provenance of the trigger it pulled, and a resume reads them
/// back into the ensemble's fired log: the resumed run's ensemble
/// report, fired log included, is the uninterrupted run's. A shard that
/// no drain point holds is refused there as before the flood, and the
/// resume falls back to #0, from before the first alert.
#[test]
fn a_resume_after_the_first_alert_refills_the_fired_log() {
    let run = KilledRun::new("after-alert", AFTER_THE_FIRST_ALERT);
    let first = run.ensemble.fired.first().expect("the flood fires an engine").epoch;
    let fired_in = |c: &Checkpoint| -> usize {
        let engines = c.provenance.iter().flat_map(|r| &r.provenance.engines);
        engines.filter(|e| e.fired).count()
    };
    assert!(first < 20, "first alert at epoch {first}, not before checkpoint #1 at 20");
    assert!(fired_in(&run.intact) > 0, "checkpoint #1 holds fired results");
    let before = run.ensemble.fired.iter().filter(|f| f.epoch < 20).count();
    assert_eq!(fired_in(&run.intact), before, "every fire before #1 is in its provenance, once");

    let mut c = run.intact.clone();
    c.shards[0].as_mut().expect("shard 0 is alive").packets_in_interval = 7;
    run.falls_back("frames in the open interval", &ckpt::serialize(&c), "packets_in_interval is 7");
}

/// Seals each tampered copy of checkpoint #1 of a killed run in its
/// place and resumes, as [`KilledRun::falls_back`] does. `restores` is
/// whether the tampered raw state is consistent in itself, so that it
/// is the drain-point check that refuses it (`None`: the file is
/// refused as it is read, whatever the raw state would make of it).
fn each_falls_back(tag: &str, cases: &[Case], restores: Option<bool>) {
    let run = KilledRun::new(tag, BEFORE_THE_FLOOD);
    for (what, tamper, reason) in cases {
        let mut c = run.intact.clone();
        let shard = c.shards[0].as_mut().expect("shard 0 is alive");
        tamper(shard);
        if let Some(restores) = restores {
            assert_eq!(shard.restore().is_ok(), restores, "{what}: {:?}", shard.restore().err());
        }
        // Sealed as a run seals it: the checksum is valid.
        run.falls_back(what, &ckpt::serialize(&c), reason);
    }
}

/// When a run is checkpointed and killed, as `(checkpoint_every,
/// kill_at_epoch)`: two checkpoints each time, #0 resuming at epoch
/// ordinal `every` and #1 at `2 · every`.
type Kill = (u64, u64);

/// Checkpoints at 2 and 4, killed at 5: long before the flood, which
/// starts at epoch 15.
const BEFORE_THE_FLOOD: Kill = (2, 5);

/// Checkpoints at 10 and 20, killed at 21: #0 before the first alert,
/// #1 after it.
const AFTER_THE_FIRST_ALERT: Kill = (10, 21);

/// A run killed after checkpoints #0 and #1 ([`Kill`]), and the
/// uninterrupted run's snapshot and ensemble report (the snapshot
/// holds no fired log; the report does).
struct KilledRun {
    schedule: Schedule,
    full: String,
    ensemble: EnsembleReport,
    dir: PathBuf,
    intact: Checkpoint,
}

impl KilledRun {
    fn new(tag: &str, (every, kill_at): Kill) -> Self {
        let schedule = small_flood();
        let full = run_replay(&schedule, &cfg());
        assert!(
            full.ensemble.engine("synflood").is_some_and(|e| e.first_fired_at.is_some()),
            "the uninterrupted run detects the flood"
        );
        let ensemble = full.ensemble.clone();
        let full = render_outcome_json(&full);

        let dir = std::env::temp_dir().join(format!("replay-drained-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let killed = LifecyclePlan {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: every,
            kill_at_epoch: Some(kill_at),
            ..LifecyclePlan::none()
        };
        let (_, report) = run_replay_lifecycle(&schedule, &cfg(), &FaultSchedule::none(), &killed);
        assert_eq!(report.checkpoints_written, 2);
        let newest = dir.join(ckpt::file_name(1));
        let intact = ckpt::parse(&std::fs::read_to_string(newest).unwrap()).unwrap();

        // Untampered, #1 is taken as it is.
        let (resumed, report) = resume_from_checkpoint(&schedule, &cfg(), &resume_plan(&dir)).unwrap();
        assert_eq!(report.resumed_from, Some(1));
        assert!(report
            .events
            .iter()
            .all(|e| e.kind != "checkpoint_fallback"));
        assert_eq!(render_outcome_json(&resumed), full);
        assert_eq!(resumed.ensemble, ensemble);
        Self { schedule, full, ensemble, dir, intact }
    }

    /// Writes `document` as #1 and resumes: the resume falls back to
    /// #0, names `reason` for shard 0 of #1, and finishes as the
    /// uninterrupted run.
    fn falls_back(&self, what: &str, document: &str, reason: &str) {
        std::fs::write(self.dir.join(ckpt::file_name(1)), document).unwrap();
        let (resumed, report) = resume_from_checkpoint(&self.schedule, &cfg(), &resume_plan(&self.dir))
            .unwrap_or_else(|e| panic!("{what}: resume failed instead of falling back: {e}"));
        assert_eq!(report.resumed_from, Some(0), "{what}");
        let fallback = report
            .events
            .iter()
            .find(|e| e.kind == "checkpoint_fallback")
            .unwrap_or_else(|| panic!("{what}: no checkpoint_fallback in {:?}", report.events));
        // Shard 0 is named: by the restore, or in the path of what the
        // read refused.
        let shard_0 = fallback.detail.contains("shard 0: ") || fallback.detail.contains(".shards[0].");
        assert!(
            fallback.detail.contains("ckpt-000001") && shard_0 && fallback.detail.contains(reason),
            "{what}: {}",
            fallback.detail
        );
        assert_eq!(render_outcome_json(&resumed), self.full, "{what}");
        assert_eq!(resumed.ensemble, self.ensemble, "{what}");
    }
}

impl Drop for KilledRun {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}
