//! A counting wrapper around the system allocator, so a traced run
//! can say how many heap allocations one rep of a workload makes.
//! Counting is off except inside [`count`]; off, it costs every
//! allocation one relaxed load, which the untraced runs pay too and
//! therefore cancels between commits.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

pub struct Counting;

// The counters publish no other data (they are statistics read after
// the counted threads have been joined), so `Relaxed` is enough.
fn record(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state and cannot allocate.
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
        record(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; the caller guarantees the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Runs `f` with counting on and returns its result with the number
/// of allocations and the bytes requested, across all threads, while
/// it ran. Not re-entrant: the harness has one caller.
pub fn count<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (allocs0, bytes0) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (
        out,
        ALLOCS.load(Ordering::Relaxed) - allocs0,
        BYTES.load(Ordering::Relaxed) - bytes0,
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn counts_only_inside_the_window() {
        // Other tests allocate on their own threads while this one
        // counts, so only lower bounds are exact.
        let (v, allocs, bytes) = super::count(|| vec![0u8; 4096]);
        assert_eq!(v.len(), 4096);
        assert!(allocs >= 1);
        assert!(bytes >= 4096);
    }
}
