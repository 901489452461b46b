//! The pool's per-epoch allocation budget.
//!
//! On a sparse input every epoch is short, the coordinator ingests it
//! itself, and the executor in `pool.rs` allocates nothing for it: the
//! frame lists, the result slots and the predicted alive map are the
//! run's, not the epoch's. What a quiet epoch on two shards still
//! allocates is not the executor's: 8 sparse deltas (four trackers per
//! shard, `take_delta`), 13 regrowths of the dirty journals those takes
//! emptied (`DirtyJournal::mark` under `ingest_meta`), 2 in the
//! ensemble's verdict, the fault plan's list in `open_epoch` and the
//! merge entry list in `close_epoch`: 25.
//!
//! The test counts every allocation the process makes during a whole
//! `run_replay` at two lengths of one schedule; set-up and teardown
//! (states, hashing, channels, thread spawn, the final merge) are the
//! same in both, so the difference is the epochs'. While the pool still
//! wrapped single buffers in a `Vec` to recycle them and built its
//! work, result and prediction lists afresh every epoch, this read 30.
//!
//! The counting allocator lives here, in an integration-test crate, as
//! in `crates/stat4-p4/tests/alloc_budget.rs`.

use replay::{run_replay, ReplayConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use workloads::SeasonalDriftWorkload;

/// Allocations made by any thread while `COUNTING` is set: the pool's
/// workers count with the coordinator, so an allocation cannot leave
/// the budget by moving to another thread. This file holds one test,
/// so nothing else in the process allocates meanwhile.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

struct Counting;

fn record() {
    // `Relaxed`: a statistic, read after the threads it counts are joined.
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are atomics
// in statics, so touching them neither allocates nor re-enters the
// allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; the caller guarantees the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the process made while `f` ran.
fn count<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

const MS: u64 = 1_000_000;

/// Allocations per quiet epoch of the sparse shape on two shards. The
/// code reads 25.0 (module doc); one more per epoch, anywhere, fails.
const PER_EPOCH_CEILING: f64 = 25.5;

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
        let (out, allocs) = count(|| run_replay(&schedule, &cfg));
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
