//! What `ckpt::serialize` and `ckpt::parse` allocate: the buffer and
//! the values, not a node per cell.
//!
//! A checkpoint is streamed into one `String`, each shard register
//! file as its non-zero cells. Serializing the newest checkpoint of a
//! short killed run on two shards (38 928 cells in memory, 5 747 bytes
//! on disk) makes 10 allocations: the header, the 7 doublings that
//! take the buffer from its 53 bytes to 6.8 kB, the checksum's sixteen
//! digits, and the one `ShardIncident`'s kind tag (16 while that
//! incident was written through a tree it built). On four shards there
//! are twice the cells in 6 502 bytes and the count is 10 again. While
//! every cell was written, the files were 83 139 and 161 585 bytes and
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
//! members: 37 allocations and 302 325 bytes asked for on two shards,
//! 45 and 599 413 on four (410 and 331 658, 418 and 628 746 while those
//! two members were read as trees; 468 and 534 while every register
//! file was written whole and grew by doubling as it was read). While
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

/// The code reads 16 on two shards (module doc); a tree reads in the
/// hundreds, a temporary per cell in the tens of thousands.
const TWO_SHARD_CEILING: u64 = 24;

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
    assert!(
        allocs2 <= TWO_SHARD_CEILING,
        "{allocs2} allocations for {} bytes on two shards; the ceiling is {TWO_SHARD_CEILING}",
        doc2.len()
    );
    // Twice the cells is at most two more doublings of the buffer.
    assert!(
        allocs4 <= allocs2 + 2,
        "{allocs4} allocations for {} bytes on four shards against {allocs2} for {} on two",
        doc4.len(),
        doc2.len()
    );
}

#[test]
fn parse_allocates_for_the_values_and_no_node_per_cell() {
    let _turn = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    for (shards, old_allocs, old_bytes) in [(2, 907, 1_613_097), (4, 1_051, 3_161_713)] {
        let doc = ckpt::serialize(&newest_checkpoint(shards));
        let (parsed, allocs, bytes) = count(|| ckpt::parse(&doc));
        assert_eq!(ckpt::serialize(&parsed.expect("own serialization parses")), doc);
        assert!(allocs < old_allocs, "{allocs} allocations on {shards} shards; the tree made {old_allocs}");
        assert!(bytes <= old_bytes / 2, "{bytes} bytes on {shards} shards; the tree asked for {old_bytes}");
    }
}

/// What `Checkpoint::rebuild_detection` allocates: the detectors it
/// builds (35 allocations, 58 216 bytes, on two shards) and the values
/// it reads into them. On the newest two-shard checkpoint that is 110
/// allocations for 114 279 bytes. While the ensemble's reader copied
/// each engine's state out of its entry as text and lexed that again,
/// it was 128 for 149 721.
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
    assert!(allocs <= 110, "{allocs} allocations; the copying reader made 128");
    assert!(bytes <= 114_279, "{bytes} bytes; the copying reader asked for 149 721");
}
