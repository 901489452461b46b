//! Property tests for shard-merge equivalence (ISSUE satellite):
//! across randomly parameterised workloads and every shard count in
//! {1, 2, 4, 8}, the merged `RunningStats` / `FrequencyDist` / sketch
//! state is bit-identical to the sequential ingest, and the SYN-flood
//! alert sets match across shard counts.

use proptest::prelude::*;
use replay::{run_replay, ReplayConfig, ShardState};
use workloads::{PacketMixWorkload, Schedule, SynFloodWorkload};

fn direct_ingest(schedule: &Schedule, cfg: &ReplayConfig) -> ShardState {
    let mut s = ShardState::new(cfg);
    for (_, frame) in schedule {
        s.ingest(frame);
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random SYN-flood traces: merged order-free state equals the
    /// sequential ingest at every shard count, and the alert sequence
    /// is shard-count invariant.
    #[test]
    fn synflood_replay_equivalent_across_shards(
        seed in 0u64..1000,
        flood_pps in 5_000u64..40_000,
        onset_ms in 60u64..200,
    ) {
        let (schedule, _) = SynFloodWorkload {
            background_cps: 400,
            flood_pps,
            flood_start: onset_ms * 1_000_000,
            duration: 320_000_000,
            seed,
            ..SynFloodWorkload::default()
        }
        .generate();
        let cfg = ReplayConfig::default();
        let direct = direct_ingest(&schedule, &cfg);
        let reference = run_replay(&schedule, &cfg);

        for shards in [1usize, 2, 4, 8] {
            let out = run_replay(
                &schedule,
                &ReplayConfig { shards, ..ReplayConfig::default() },
            );
            // Order-free trackers: bit-identical to sequential ingest.
            prop_assert_eq!(&out.merged.len_stats, &direct.len_stats);
            prop_assert_eq!(&out.merged.kinds, &direct.kinds);
            prop_assert_eq!(&out.merged.dst_sketch, &direct.dst_sketch);
            prop_assert_eq!(out.merged.packets, direct.packets);
            // Whole merged state (incl. canonical percentile markers)
            // and verdicts: invariant across shard counts.
            prop_assert_eq!(&out.merged, &reference.merged);
            prop_assert_eq!(&out.ensemble, &reference.ensemble);
        }
    }

    /// Random packet mixes (including mid-stream composition shifts):
    /// same invariants.
    #[test]
    fn mix_replay_equivalent_across_shards(
        seed in 0u64..1000,
        packets in 2_000usize..10_000,
        shift in any::<bool>(),
    ) {
        let (schedule, _) = PacketMixWorkload {
            packets,
            shift_at: if shift { 40_000_000 } else { u64::MAX },
            seed,
            ..PacketMixWorkload::default()
        }
        .generate();
        let cfg = ReplayConfig::default();
        let direct = direct_ingest(&schedule, &cfg);
        let reference = run_replay(&schedule, &cfg);

        for shards in [1usize, 2, 4, 8] {
            let out = run_replay(
                &schedule,
                &ReplayConfig { shards, ..ReplayConfig::default() },
            );
            prop_assert_eq!(&out.merged.len_stats, &direct.len_stats);
            prop_assert_eq!(&out.merged.kinds, &direct.kinds);
            prop_assert_eq!(&out.merged.dst_sketch, &direct.dst_sketch);
            prop_assert_eq!(&out.merged, &reference.merged);
            prop_assert_eq!(&out.ensemble, &reference.ensemble);
        }
    }
}
