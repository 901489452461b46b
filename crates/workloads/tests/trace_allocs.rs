//! A generated frame costs no allocation of its own.
//!
//! Every generator appends its frames to one buffer and hands out
//! slices of it, so a schedule of any length allocates a bounded
//! number of times: the buffer and the entry list growing by doubling.
//! One test generates the SYN-flood workload at two flood rates over
//! the same background and divides the extra allocations by the extra
//! frames; while each frame was its own `Vec`, copied into its own
//! shared buffer, this read 2.0. The other counts a whole generation,
//! background included, against those growth steps alone; while the
//! frame builder copied its payload into a `Vec` of its own, it read
//! 3 599 at 50 000 SYN/s, one for every background data segment.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use workloads::SynFloodWorkload;

thread_local! {
    /// Allocations (a `realloc` counts as one) this thread made while
    /// it was counting, or `None`: tests run side by side, and each
    /// counts only its own.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

struct Counting;

fn record() {
    ALLOCS.with(|n| n.set(n.get().map(|n| n + 1)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialised thread-local with no destructor, so touching it
// neither allocates nor re-enters the allocator.
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

/// `(frames, frame bytes, allocations)` of one SYN-flood generation;
/// the background is the same at every flood rate, because it is drawn
/// first.
fn generate(flood_pps: u64) -> (usize, usize, u64) {
    let w = SynFloodWorkload {
        background_cps: 2_000,
        flood_pps,
        flood_start: 100 * MS,
        duration: 500 * MS,
        seed: 5,
        ..SynFloodWorkload::default()
    };
    ALLOCS.with(|n| n.set(Some(0)));
    let (schedule, _) = w.generate();
    let allocs = ALLOCS.with(|n| n.take()).expect("counting");
    let bytes = schedule.iter().map(|(_, frame)| frame.len()).sum();
    (schedule.len(), bytes, allocs)
}

/// How many times a `Vec` grown by doubling from empty to `n` elements
/// may allocate: once per power of two, with room for a small first
/// capacity.
fn growth_steps(n: usize) -> u64 {
    u64::from(usize::BITS - n.leading_zeros())
}

#[test]
fn a_generation_allocates_only_its_growth_steps() {
    let (frames, bytes, allocs) = generate(50_000);
    // The frame buffer and the entry list grow by doubling; the server
    // list and the stable sort's scratch are a few more.
    let ceiling = growth_steps(bytes) + growth_steps(frames) + 8;
    assert!(
        allocs <= ceiling,
        "{allocs} allocations for {frames} frames of {bytes} bytes; the ceiling is {ceiling}"
    );
}

#[test]
fn an_extra_frame_allocates_nothing() {
    let run = |flood_pps| {
        let (frames, _, allocs) = generate(flood_pps);
        (frames, allocs)
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
