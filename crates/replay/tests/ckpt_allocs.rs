//! What `ckpt::serialize` and `ckpt::parse` allocate: the buffer and
//! the values, not a node per cell.
//!
//! A checkpoint is streamed into one `String`, each shard register
//! file as its non-zero cells. Serializing the newest checkpoint of a
//! short killed run on two shards (38 928 cells in memory, 4 087 bytes
//! on disk; 4 509 while the detectors wrote their own alert records
//! and each engine's fire count twice, 5 708 while the ensemble held
//! eight engines, weights and a combined score) makes 8 allocations:
//! the header, the doublings that grow the buffer to hold the document,
//! and the one `ShardIncident`'s kind tag (9 at 4 509 bytes; 16 while
//! that incident was written through a tree it built). On four shards
//! there are twice the cells in 4 842 bytes (5 264, 6 463) and the
//! count is 9 (9, 9). The checksum's sixteen
//! digits are written over their placeholder in that buffer; while
//! `format!` wrote them into a `String` of their own, the counts were
//! 10 and 11, the one more on four shards because that checksum begins
//! with a zero, which `format!` wrote as padding before the other
//! fifteen digits, growing its string once more. While every cell was
//! written, the files were 83 139 and 161 585 bytes and
//! the counts 20 and 21, the buffer doubling to 106 kB and 212 kB;
//! while `serialize` built the `Json` tree and rendered it, the same
//! two calls made 446 and 517: a `String` per key and a list per
//! array, the lists 32 bytes a cell.
//!
//! What `ckpt::parse` allocates: the values, not a tree. The same two
//! documents are read in one pass over their tokens, into the vectors
//! and strings of the `Checkpoint` (each register file allocated once,
//! at the length a fresh shard's geometry gives it; every other vector
//! grown by doubling) and the text of the `ensemble` and `drill`
//! members: 31 allocations and 300 628 bytes asked for on two shards,
//! 39 and 597 716 on four, whatever the checksum's first digit (32 and
//! 301 051, 40 and 598 139 while the detectors' own alert records and
//! a second copy of each fire count were written; 36 and
//! 302 270, 44 and 599 358 while the ensemble held eight engines and
//! provenance a combined score, a trigger cause and engine weights; 37 and
//! 302 286, 46 and 599 374 while the checksum read was compared with
//! one `format!` wrote, padded on four shards; 37 and 302 325, 45 and
//! 599 413 while the ensemble's text held
//! the fired log and two detectors' alert lists; 410 and 331 658, 418
//! and 628 746 while those two members were read as trees; 468 and 534
//! while every register file was written whole and grew by doubling as
//! it was read). While
//! `parse` built the whole document's tree first, it made 907 and
//! 1 051 allocations for 1 613 097 and 3 161 713 bytes, a 32-byte node
//! per cell.
//!
//! The counting allocator is `counting/mod.rs`, shared with
//! `pool_allocs.rs`.

mod counting;

use counting::count;
use faultinject::FaultSchedule;
use replay::ckpt::{self, Checkpoint};
use replay::{run_replay_lifecycle, LifecyclePlan, ReplayConfig};
use std::sync::Mutex;
use telemetry::json::Raw;
use workloads::SynFloodWorkload;

/// The counter is the process's: the tests take turns.
static SERIAL: Mutex<()> = Mutex::new(());

/// The newest checkpoint of the run `engine_golden` records
/// `checkpoint.json` from (`replay synflood --faults
/// shard_crash=1@3,ctrl_loss=0.30 --seed 42 --checkpoint-every 2
/// --kill-at-epoch 5`), on `shards` shards.
fn newest_checkpoint(shards: usize) -> Checkpoint {
    let spec = "shard_crash=1@3,ctrl_loss=0.30";
    let (schedule, _) = SynFloodWorkload {
        background_cps: 500,
        flood_pps: 50_000,
        flood_start: 400_000_000,
        duration: 900_000_000,
        seed: 4,
        ..SynFloodWorkload::default()
    }
    .generate();
    let cfg = ReplayConfig {
        shards,
        ..ReplayConfig::default()
    };
    let dir = std::env::temp_dir().join(format!("replay-ckpt-allocs-{}-{shards}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let plan = LifecyclePlan {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 2,
        kill_at_epoch: Some(5),
        faults_spec: String::from(spec),
        ..LifecyclePlan::none()
    };
    let faults = FaultSchedule::parse(spec, 42).unwrap();
    let (_, report) = run_replay_lifecycle(&schedule, &cfg, &faults, &plan);
    assert_eq!(report.checkpoints_written, 2);
    let (newest, rejected) = ckpt::load_latest(&dir).expect("the killed run left checkpoints");
    std::fs::remove_dir_all(&dir).ok();
    assert!(rejected.is_empty(), "{rejected:?}");
    newest
}

/// Allocations of `serialize` on two shards and on four (module doc).
const SERIALIZE_ALLOCS: [u64; 2] = [8, 9];

#[test]
fn serialize_allocates_for_the_buffer_and_nothing_per_cell() {
    let _turn = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let (two, four) = (newest_checkpoint(2), newest_checkpoint(4));
    let cells = |c: &Checkpoint| -> usize {
        let per_shard = |s: &ckpt::ShardStateRaw| {
            s.kinds_counts.len() + s.sk_cells.len() + s.pc_counts.len() + s.hll_registers.len()
        };
        c.shards.iter().flatten().map(per_shard).sum()
    };
    assert_eq!(cells(&four), 2 * cells(&two), "twice the shards, twice the cells");
    assert!(cells(&two) > 30_000, "{} cells", cells(&two));

    let (doc2, allocs2, _) = count(|| ckpt::serialize(&two));
    let (doc4, allocs4, _) = count(|| ckpt::serialize(&four));
    assert_eq!(ckpt::parse(&doc2).as_ref(), Ok(&two));
    assert_eq!(ckpt::parse(&doc4).as_ref(), Ok(&four));
    assert_eq!(
        [allocs2, allocs4],
        SERIALIZE_ALLOCS,
        "allocations for {} bytes on two shards and {} on four",
        doc2.len(),
        doc4.len()
    );
}

#[test]
fn parse_allocates_for_the_values_and_no_node_per_cell() {
    let _turn = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    for (shards, want_allocs, want_bytes) in [(2, 31, 300_628), (4, 39, 597_716)] {
        let doc = ckpt::serialize(&newest_checkpoint(shards));
        let (parsed, allocs, bytes) = count(|| ckpt::parse(&doc));
        assert_eq!(ckpt::serialize(&parsed.expect("own serialization parses")), doc);
        assert_eq!(allocs, want_allocs, "allocations on {shards} shards (module doc)");
        assert!(bytes <= want_bytes, "{bytes} bytes on {shards} shards; it reads {want_bytes}");
    }
}

/// What `Checkpoint::rebuild_detection` allocates: the detectors it
/// builds and the values it reads into them. On the newest two-shard
/// checkpoint that is 73 allocations for 86 986 bytes; 78 for 95 283
/// while the detectors kept their own alert records; 109
/// for 114 103 while the ensemble ran
/// eight engines with weight overrides; 110 for 114 279 while the ensemble's
/// text held the fired log and the stalled and shift detectors' alert
/// lists. While the ensemble's reader copied each engine's state out of
/// its entry as text and lexed that again, it was 128 for 149 721.
#[test]
fn rebuild_reads_each_engine_state_where_it_lies() {
    let _turn = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let c = newest_checkpoint(2);
    let cfg = ReplayConfig {
        shards: 2,
        ..ReplayConfig::default()
    };
    let (rebuilt, allocs, bytes) = count(|| c.rebuild_detection(&cfg));
    let (ensemble, _) = rebuilt.expect("own export imports");
    assert_eq!(Raw::of(|out| ensemble.export_state(out)), c.ensemble);
    assert!(allocs <= 73, "{allocs} allocations; the copying reader made 128");
    assert!(bytes <= 86_986, "{bytes} bytes; the copying reader asked for 149 721");
}
