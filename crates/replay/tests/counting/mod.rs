//! The counting allocator of the allocation-budget tests
//! (`pool_allocs.rs`, `pool_bytes.rs`, `ckpt_allocs.rs`,
//! `ckpt_untrusted.rs`), as in
//! `crates/stat4-p4/tests/alloc_budget.rs`. It has to be the test
//! binary's global allocator, so it lives with the integration tests
//! and each of those files, whose tests run one at a time, includes it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Allocations made by any thread while `COUNTING` is set, and the
/// bytes they asked for (a `realloc` counts what it grows by): the
/// pool's workers count with the coordinator, so an allocation cannot
/// leave the budget by moving to another thread. A file that includes
/// this holds one test, or runs its tests in turn under one lock, so
/// nothing else in the process allocates meanwhile.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

struct Counting;

fn record(bytes: usize) {
    // `Relaxed`: statistics, read after the threads they count are joined.
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are atomics
// in statics, so touching them neither allocates nor re-enters the
// allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size.saturating_sub(layout.size()));
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

/// Allocations the process made while `f` ran, and their bytes.
pub fn count<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = (ALLOCS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (
        out,
        ALLOCS.load(Ordering::Relaxed) - before.0,
        BYTES.load(Ordering::Relaxed) - before.1,
    )
}
