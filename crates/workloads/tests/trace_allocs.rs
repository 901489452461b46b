//! A generated frame costs no allocation of its own.
//!
//! Every generator appends its frames to one buffer and hands out
//! slices of it, so a schedule of any length allocates a bounded
//! number of times: the buffer and the entry list growing by doubling.
//! The test generates the SYN-flood workload at two flood rates over
//! the same background and divides the extra allocations by the extra
//! frames. While each frame was its own `Vec`, copied into its own
//! shared buffer, this read 2.0.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use workloads::SynFloodWorkload;

/// Allocations (a `realloc` counts as one) made while `COUNTING` is set.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

struct Counting;

fn record() {
    // `Relaxed`: the count is read on the thread that made it.
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

/// The most allocations one extra frame may cost: buffers growing by
/// doubling amortise to almost nothing; one allocation per frame
/// anywhere fails by two orders of magnitude.
const PER_FRAME_CEILING: f64 = 0.01;

const MS: u64 = 1_000_000;

#[test]
fn an_extra_frame_allocates_nothing() {
    // `(frames, allocations)` of one generation; the background is the
    // same at every flood rate, because it is drawn first.
    let run = |flood_pps: u64| {
        let w = SynFloodWorkload {
            background_cps: 2_000,
            flood_pps,
            flood_start: 100 * MS,
            duration: 500 * MS,
            seed: 5,
            ..SynFloodWorkload::default()
        };
        let before = ALLOCS.load(Ordering::Relaxed);
        COUNTING.store(true, Ordering::Relaxed);
        let (schedule, _) = w.generate();
        COUNTING.store(false, Ordering::Relaxed);
        (schedule.len(), ALLOCS.load(Ordering::Relaxed) - before)
    };
    let (low, high) = (run(50_000), run(150_000));
    assert!(
        high.0 > low.0 + 30_000,
        "{low:?} and {high:?}: the flood did not grow"
    );
    let per_frame = (high.1 as f64 - low.1 as f64) / (high.0 - low.0) as f64;
    assert!(
        per_frame <= PER_FRAME_CEILING,
        "{per_frame:.4} allocations per extra frame ({} over {} frames, {} over {}); \
         the ceiling is {PER_FRAME_CEILING}",
        low.1,
        low.0,
        high.1,
        high.0
    );
}
