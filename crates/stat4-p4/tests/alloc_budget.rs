//! The interpreter's per-packet allocation budget.
//!
//! A packet borrows the program; nothing of the program is copied for
//! it, and its applied-table trace lives inline in the `PacketOutcome`
//! (no built-in program applies more than the four it holds). What is
//! left on the heap per packet is the digests the caller is handed back:
//! per emitted digest its `values` list, plus the `digests` list itself
//! on a packet that emits any, so a packet that emits no digest
//! allocates nothing. This test counts, on its own thread, every allocation
//! made while ≥10 000 seeded frames go through each built-in
//! application in steady state, and holds the count to that (plus the
//! few doublings of the registers' dirty journals, see below).
//! Before the interpreter stopped cloning the control tree, actions and
//! table entries per packet the case study made 36 allocations a frame,
//! and one while the trace was a `Vec`.
//!
//! The counting allocator lives here, in an integration-test crate, so
//! `p4sim` and `stat4-p4` keep `#![forbid(unsafe_code)]`.

use p4sim::phv::fields;
use p4sim::{parse_frame, Pipeline};
use stat4_p4::{
    CaseStudyApp, CaseStudyParams, EchoApp, MedianApp, MedianAppParams, SketchApp, SketchAppParams,
    Stat4Config,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use workloads::{Schedule, SpikeWorkload};

thread_local! {
    /// Allocations made by this thread while `COUNTING` is set. Per
    /// thread, so the test harness's other threads cannot disturb it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

fn record() {
    // `try_with`: the allocator also runs while a thread is torn down,
    // after its thread-locals are gone.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are
// const-initialised `Cell`s without destructors, so touching them
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

/// Allocations this thread made while `f` ran.
fn count<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, ALLOCS.with(Cell::get) - before)
}

const MS: u64 = 1_000_000;

/// What one pass over the trace handed back.
#[derive(Default)]
struct Pass {
    packets: u64,
    digests: u64,
    /// Packets that emitted at least one digest.
    emitting: u64,
}

/// One pass of `trace` through `p`, timestamps offset by `shift` so a
/// second pass continues in time where the first stopped. The payload
/// integer echo and median read is set on every frame.
fn pass(p: &mut Pipeline, trace: &Schedule, shift: u64) -> Pass {
    let mut seen = Pass::default();
    for (i, (t, frame)) in trace.iter().enumerate() {
        let mut phv = parse_frame(frame, 1, t + shift);
        phv.set(fields::PAYLOAD_VALUE, i as u64 % 511);
        let o = p.process_phv(&mut phv).expect("built-in programs accept every frame");
        seen.packets += 1;
        seen.digests += o.digests.len() as u64;
        seen.emitting += u64::from(!o.digests.is_empty());
    }
    seen
}

/// The first write to a register cell since the last delta take appends
/// to that register's dirty journal, a `Vec` that doubles: O(log cells)
/// reallocations per register over a run, not per packet. The case
/// study's rate window keeps advancing into fresh cells during the
/// measured pass, so this much is allowed on top of the budget.
const JOURNAL_GROWTH: u64 = 8;

#[test]
fn steady_state_allocations_are_the_returned_outcome_only() {
    let duration = 200 * MS;
    let trace = SpikeWorkload {
        background_pps: 20_000,
        duration,
        spike_start_range: (100 * MS, 110 * MS),
        seed: 11,
        ..SpikeWorkload::default()
    }
    .generate()
    .0;
    assert!(trace.len() >= 10_000, "{} frames", trace.len());

    let programs: Vec<(&str, Pipeline)> = vec![
        (
            "casestudy",
            CaseStudyApp::build(CaseStudyParams::default()).expect("case study builds").pipeline,
        ),
        ("echo", EchoApp::build(&Stat4Config::default()).expect("echo builds").pipeline),
        (
            "median",
            MedianApp::build(MedianAppParams::default()).expect("median builds").pipeline,
        ),
        (
            "median (recirculating)",
            MedianApp::build(MedianAppParams {
                converge_with_recirculation: true,
                ..MedianAppParams::default()
            })
            .expect("recirculating median builds")
            .pipeline,
        ),
        ("sketch", SketchApp::build(SketchAppParams::default()).expect("sketch builds").pipeline),
    ];
    for (name, mut p) in programs {
        pass(&mut p, &trace, 0);
        let (seen, allocs) = count(|| pass(&mut p, &trace, duration));
        let budget = seen.digests + seen.emitting;
        assert!(
            allocs <= budget + JOURNAL_GROWTH,
            "{name}: {allocs} allocations over {} packets ({:.2}/packet); the returned outcomes \
             account for {budget} ({} digest value lists, {} digests lists)",
            seen.packets,
            allocs as f64 / seen.packets as f64,
            seen.digests,
            seen.emitting,
        );
    }
}
