//! Replay throughput scaling (ISSUE acceptance criterion): ≥ 3×
//! throughput at 8 shards over 1 shard.
//!
//! The speedup assertion only makes sense on a machine that can
//! actually run 8 worker threads in parallel, so it is gated on
//! `std::thread::available_parallelism()`; on smaller machines the test
//! still runs both configurations and checks conformance, but skips
//! the scaling assertion with a note.

use replay::{run_replay, ReplayConfig};
use workloads::SynFloodWorkload;

#[test]
fn eight_shards_scale_or_skip() {
    let (schedule, _) = SynFloodWorkload {
        background_cps: 2_000,
        flood_pps: 80_000,
        flood_start: 200_000_000,
        duration: 1_000_000_000,
        seed: 7,
        ..SynFloodWorkload::default()
    }
    .generate();

    let run = |shards: usize| {
        run_replay(
            &schedule,
            &ReplayConfig {
                shards,
                ..ReplayConfig::default()
            },
        )
    };

    // Warm-up pass so neither timed run pays first-touch costs.
    let _ = run(1);

    let single = run(1);
    let sharded = run(8);

    // Scaling must never cost correctness.
    assert_eq!(single.merged, sharded.merged);
    assert_eq!(single.ensemble, sharded.ensemble);

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if cores < 8 {
        eprintln!(
            "skipping ≥3× speedup assertion: only {cores} core(s) available \
             (1-shard {:.0} pkt/s, 8-shard {:.0} pkt/s)",
            single.throughput_pps(),
            sharded.throughput_pps()
        );
        return;
    }
    let speedup = sharded.throughput_pps() / single.throughput_pps();
    assert!(
        speedup >= 3.0,
        "8 shards only {speedup:.2}x faster than 1 shard \
         ({:.0} vs {:.0} pkt/s)",
        sharded.throughput_pps(),
        single.throughput_pps()
    );
}
