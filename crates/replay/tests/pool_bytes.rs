//! What a run holds per frame of its trace: nothing; and per frame of
//! its longest epoch: a frame list's pointer on two or more shards,
//! nothing on one.
//!
//! The pool hashes a frame when it routes the frame's epoch, so the
//! only per-frame memory it has is the epoch's own frame lists, which
//! are the run's and stop growing once the largest epoch has passed.
//! While it flow-hashed the whole trace before the first epoch it kept
//! a `Vec<usize>` of home shards, 8 bytes a frame, and built it from
//! per-thread chunks it then copied: 16 bytes and more for every frame
//! the trace grew by, on one shard as on two.
//!
//! On one shard routing is the identity, and the shard ingests its
//! epoch straight from the schedule: there is no list at all. While one
//! shard was routed onto two lists like any other, a run of six
//! 20 000-frame epochs asked for 1 237 507 bytes where it now asks for
//! 713 219, and each frame the epochs grew by cost 26.2 bytes, as it
//! still does on two shards: two lists of 8-byte pointers, grown by
//! doubling.
//!
//! The tests count every byte the process asks its allocator for during
//! a whole `run_replay`, at two lengths of one steady-rate schedule and
//! at two rates of it. Set-up, teardown and the growth of the frame
//! lists are the same at both lengths; what is left is per epoch (the
//! sparse deltas, the epoch range list) and does not depend on how the
//! frames are routed.
//!
//! The counting allocator is `counting/mod.rs`, shared with
//! `pool_allocs.rs` and `ckpt_allocs.rs`.

mod counting;

use counting::count;
use replay::{run_replay, ReplayConfig};
use std::sync::Mutex;
use workloads::SynFloodWorkload;

const MS: u64 = 1_000_000;

/// The counter is the process's: the tests take turns.
static SERIAL: Mutex<()> = Mutex::new(());

/// Bytes allocated per frame the trace grows by. The code reads 0.03 on
/// one shard and on two (≈0.7 kB per epoch); with the table of home
/// shards it read 17.3 on one.
const PER_FRAME_CEILING: f64 = 4.0;

/// The flood of the benchmark's dense shape from the first frame on, at
/// `flood_pps` for `epochs` 10 ms epochs, every one of them dispatched,
/// through `run_replay` on `shards` shards: frames replayed and bytes
/// allocated.
fn run(shards: usize, epochs: u64, flood_pps: u64) -> (u64, u64) {
    let (schedule, _) = SynFloodWorkload {
        background_cps: 0,
        flood_pps,
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
}

#[test]
fn the_pool_holds_nothing_per_frame_of_the_trace() {
    let _turn = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    // 20 000 frames per epoch: a trace twice as long has twice as many
    // epochs of the same size.
    for shards in [1usize, 2] {
        let ((short_frames, short), (long_frames, long)) =
            (run(shards, 6, 2_000_000), run(shards, 12, 2_000_000));
        let per_frame = (long as f64 - short as f64) / (long_frames - short_frames) as f64;
        assert!(
            per_frame <= PER_FRAME_CEILING,
            "{shards} shard(s): {per_frame:.2} bytes per added frame ({short} for {short_frames} \
             frames, {long} for {long_frames}); the ceiling is {PER_FRAME_CEILING}"
        );
    }
}

/// Bytes allocated per frame the longest epoch grows by, on one shard.
/// The code reads 0 (−48 bytes in all); 26.2 while one shard was
/// routed onto frame lists.
const ONE_SHARD_PER_EPOCH_FRAME_CEILING: f64 = 1.0;

/// Two shards keep their frame lists, which is what shows that the
/// measurement sees one: each frame of an epoch is a pointer on this
/// epoch's list of its shard and, a turn later, on the next epoch's.
/// The code reads 26.2.
const TWO_SHARD_PER_EPOCH_FRAME_FLOOR: f64 = 16.0;

#[test]
fn one_shard_builds_no_frame_list() {
    let _turn = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    // Six epochs of 20 000 frames, then six of 40 000: as many epochs,
    // each twice as long.
    let per_epoch_frame = |shards: usize| {
        let ((short_frames, short), (long_frames, long)) =
            (run(shards, 6, 2_000_000), run(shards, 6, 4_000_000));
        (long as f64 - short as f64) / ((long_frames - short_frames) / 6) as f64
    };
    let (one, two) = (per_epoch_frame(1), per_epoch_frame(2));
    assert!(
        two >= TWO_SHARD_PER_EPOCH_FRAME_FLOOR,
        "two shards: {two:.2} bytes per frame an epoch grows by; their lists take at least \
         {TWO_SHARD_PER_EPOCH_FRAME_FLOOR}"
    );
    assert!(
        one <= ONE_SHARD_PER_EPOCH_FRAME_CEILING,
        "one shard: {one:.2} bytes per frame an epoch grows by (two shards: {two:.2}); a frame \
         list is back where the ceiling is {ONE_SHARD_PER_EPOCH_FRAME_CEILING}"
    );
}
