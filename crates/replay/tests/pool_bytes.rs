//! What a run holds per frame of its trace: nothing.
//!
//! The pool hashes a frame when it routes the frame's epoch, so the
//! only per-frame memory it has is the epoch's own frame lists, which
//! are the run's and stop growing once the largest epoch has passed.
//! While it flow-hashed the whole trace before the first epoch it kept
//! a `Vec<usize>` of home shards, 8 bytes a frame, and built it from
//! per-thread chunks it then copied: 16 bytes and more for every frame
//! the trace grew by, on one shard as on two.
//!
//! The test counts every byte the process asks its allocator for
//! during a whole `run_replay` at two lengths of one steady-rate
//! schedule. Set-up, teardown and the growth of the frame lists are the
//! same in both; what is left is per epoch (the sparse deltas, the
//! epoch range list) and does not depend on how the frames are routed.
//!
//! The counting allocator is `counting/mod.rs`, shared with
//! `pool_allocs.rs` and `ckpt_allocs.rs`.

mod counting;

use counting::count;
use replay::{run_replay, ReplayConfig};
use workloads::SynFloodWorkload;

const MS: u64 = 1_000_000;

/// Bytes allocated per frame the trace grows by. The code reads 1.3 on
/// one shard and 2.5 on two (≈25 kB per shard and epoch, the deltas'
/// and their journals'); with the table of home shards it read 17.3 on
/// one.
const PER_FRAME_CEILING: f64 = 4.0;

#[test]
fn the_pool_holds_nothing_per_frame_of_the_trace() {
    // The flood of the benchmark's dense shape from the first frame on:
    // 20 000 frames per 10 ms epoch, so every epoch is dispatched and a
    // trace twice as long has twice as many epochs of the same size.
    let run = |shards: usize, epochs: u64| {
        let (schedule, _) = SynFloodWorkload {
            background_cps: 0,
            flood_pps: 2_000_000,
            flood_start: 0,
            duration: epochs * 10 * MS,
            seed: 3,
            ..SynFloodWorkload::default()
        }
        .generate();
        let cfg = ReplayConfig {
            shards,
            ..ReplayConfig::default()
        };
        let (out, _, bytes) = count(|| run_replay(&schedule, &cfg));
        assert_eq!(out.epochs, epochs);
        assert_eq!(out.telemetry.epochs_inline.get(), 0, "every epoch is dispatched");
        (out.packets, bytes)
    };
    for shards in [1usize, 2] {
        let ((short_frames, short), (long_frames, long)) = (run(shards, 6), run(shards, 12));
        let per_frame = (long as f64 - short as f64) / (long_frames - short_frames) as f64;
        assert!(
            per_frame <= PER_FRAME_CEILING,
            "{shards} shard(s): {per_frame:.2} bytes per added frame ({short} for {short_frames} \
             frames, {long} for {long_frames}); the ceiling is {PER_FRAME_CEILING}"
        );
    }
}
