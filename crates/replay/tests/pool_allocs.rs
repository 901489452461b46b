//! The pool's per-epoch allocation budget.
//!
//! On a sparse input every epoch is short, the coordinator ingests it
//! itself, and nothing it runs allocates for the epoch but one list:
//! the ensemble verdict's `results`, which leaves `Ensemble::observe`
//! by value and is sized once there. Everything else a quiet epoch on
//! two shards touches is the run's and is reused: the executor's frame
//! lists, result slots and predicted alive map, the coordinator's fault
//! plan, the barrier's one `ShardDelta` (refilled by `take_delta_into`)
//! and the trackers' dirty journals (drained, not taken).
//!
//! The test counts every allocation the process makes during a whole
//! `run_replay` at two lengths of one schedule; set-up and teardown
//! (states, hashing, channels, thread spawn, the final merge) are the
//! same in both, so the difference is the epochs'. While the pool still
//! wrapped single buffers in a `Vec` to recycle them and built its
//! work, result and prediction lists afresh every epoch, this read 30;
//! while every barrier built fresh deltas, and so emptied the journals
//! they drained, it read 25.
//!
//! The counting allocator is `counting/mod.rs`, shared with
//! `ckpt_allocs.rs`.

mod counting;

use counting::count;
use replay::{run_replay, ReplayConfig};
use workloads::SeasonalDriftWorkload;

const MS: u64 = 1_000_000;

/// Allocations per quiet epoch of the sparse shape on two shards. The
/// code reads 1.01 (module doc; the 0.01 is buffers still growing to
/// their working set); one more per epoch, anywhere, fails.
const PER_EPOCH_CEILING: f64 = 1.5;

#[test]
fn an_inline_epoch_allocates_nothing_in_the_pool() {
    // The benchmark's sparse shape, 60 to 180 frames per 10 ms epoch on
    // two shards, with the seasons never swapping: no engine fires, so
    // no provenance record is captured.
    let run = |epochs: u64| {
        let schedule = SeasonalDriftWorkload {
            duration: epochs * 10 * MS,
            drift_start: epochs * 10 * MS,
            seed: 3,
            ..SeasonalDriftWorkload::default()
        }
        .generate();
        let cfg = ReplayConfig {
            shards: 2,
            ..ReplayConfig::default()
        };
        let (out, allocs, _) = count(|| run_replay(&schedule, &cfg));
        assert_eq!(out.epochs, epochs);
        assert_eq!(out.telemetry.epochs_inline.get(), epochs, "a sparse run is all inline");
        assert!(out.ensemble.fired.is_empty(), "no alert: {:?}", out.ensemble.fired);
        allocs
    };
    let (short, long) = (run(400), run(800));
    let per_epoch = (long as f64 - short as f64) / 400.0;
    assert!(
        per_epoch <= PER_EPOCH_CEILING,
        "{per_epoch:.2} allocations per epoch ({short} over 400 epochs, {long} over 800); \
         the ceiling is {PER_EPOCH_CEILING}"
    );
}
