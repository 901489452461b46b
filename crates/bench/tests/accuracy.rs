//! Asserted accuracy tests for the paper's Table 2 and Table 3 — the
//! checked bounds beside `repro table2` / `table3` (which print the full
//! human-readable sweep, pinned in EXPERIMENTS.md by `experiments_golden`).
//!
//! Two layers of claims are pinned:
//!
//! 1. **Controller-side refinement meets the paper's numbers.** The
//!    paper's upper-decade Table 2 errors (≤ 0.01%) are unreachable by
//!    any integer-*output* variant of the Figure 2 shift algorithm (see
//!    EXPERIMENTS.md) — they require fractional resolution. The Q16
//!    Newton refinement (`refined_sqrt_q16`), which models the control
//!    plane recomputing σ from exported sums, is asserted against the
//!    ISSUE bounds: median error ≤ 3.8% on y ∈ [10,100] and ≤ 0.01% on
//!    y ∈ [1000,10000].
//! 2. **The data-plane approximation stays inside its documented
//!    envelope.** The exhaustive per-decade sweep is deterministic, so
//!    regressions in the shift algorithm show up as exact threshold
//!    crossings.
//!
//! Table 3 is asserted on the paper's own qualitative claim — "always
//! ≤ 1%, except early in our simulations, when distributions are
//! sparse": tight bounds after the distribution fills in (N/2 samples),
//! loose sanity bounds on the sparse warm-up phase.
//!
//! The last case pins the one count `repro cost` prints that no
//! other test does (the one-step bound is
//! `percentile::tests::one_step_per_packet_bound`).

use bench::{max_f64, median_error_run, percentile_f64, run_unary, squaring_pipelines};
use stat4_core::isqrt::{approx_error_percent, approx_isqrt, refined_error_percent};

// ---------------------------------------------------------------- Table 2

#[test]
fn table2_refined_sqrt_meets_paper_bounds() {
    let low: Vec<f64> = (10..=100).map(refined_error_percent).collect();
    let high: Vec<f64> = (1000..=10_000).map(refined_error_percent).collect();
    let low_median = percentile_f64(&low, 50.0);
    let high_median = percentile_f64(&high, 50.0);
    assert!(
        low_median <= 3.8,
        "median error on [10,100] is {low_median:.4}% (bound 3.8%)"
    );
    assert!(
        high_median <= 0.01,
        "median error on [1000,10000] is {high_median:.6}% (bound 0.01%)"
    );
    // The refinement converges to fixed-point resolution, so even the
    // worst case of the upper decade sits under the paper's 0.05% max.
    assert!(
        max_f64(&high) <= 0.05,
        "max error on [1000,10000] is {:.6}%",
        max_f64(&high)
    );
}

#[test]
fn table2_switch_approx_within_documented_envelope() {
    // (lo, hi, p50 bound, p90 bound, max bound) — the measured envelope
    // of the shift-based data-plane approximation (`repro table2` prints
    // the exact values); the sweep is exhaustive and deterministic.
    let rows: [(u64, u64, f64, f64, f64); 4] = [
        (1, 10, 6.5, 30.0, 42.5),
        (10, 100, 5.5, 12.0, 23.0),
        (100, 1000, 2.0, 4.5, 6.5),
        (1000, 10_000, 2.0, 5.0, 6.5),
    ];
    for (lo, hi, p50, p90, max) in rows {
        let errs: Vec<f64> = (lo..=hi).map(approx_error_percent).collect();
        let m50 = percentile_f64(&errs, 50.0);
        let m90 = percentile_f64(&errs, 90.0);
        let mmax = max_f64(&errs);
        assert!(m50 <= p50, "[{lo},{hi}] p50 {m50:.3}% > {p50}%");
        assert!(m90 <= p90, "[{lo},{hi}] p90 {m90:.3}% > {p90}%");
        assert!(mmax <= max, "[{lo},{hi}] max {mmax:.3}% > {max}%");
    }
}

#[test]
fn table2_figure2_worked_example() {
    assert_eq!(approx_isqrt(106), 10, "paper Figure 2: √106 ≈ 10");
}

#[test]
fn table2_approx_exact_on_even_powers_of_two() {
    for k in 0..=31u32 {
        assert_eq!(approx_isqrt(1u64 << (2 * k)), 1u64 << k);
    }
}

// ---------------------------------------------------------------- Table 3

#[test]
fn table3_median_tracker_within_bounds() {
    // (N, samples, steady-state p90 bound from the paper's Table 3
    // "after" column, with headroom for the smaller repetition count)
    let rows: [(i64, usize, f64); 3] = [
        (100, 2_000, 1.0),
        (1_000, 8_000, 0.1),
        (65_536, 120_000, 0.02),
    ];
    const REPS: u64 = 5;
    for (n, samples, after_p90_bound) in rows {
        let mut before = Vec::new();
        let mut after = Vec::new();
        for rep in 0..REPS {
            let (b, a) = median_error_run(n, samples, 1000 + rep);
            before.extend(b);
            after.extend(a);
        }
        let a50 = percentile_f64(&after, 50.0);
        let a90 = percentile_f64(&after, 90.0);
        let b90 = percentile_f64(&before, 90.0);
        assert!(
            a50 <= 0.05,
            "N={n}: steady-state median error {a50:.4}% (paper: 0%)"
        );
        assert!(
            a90 <= after_p90_bound,
            "N={n}: steady-state p90 error {a90:.4}% > {after_p90_bound}%"
        );
        // Sparse warm-up phase: the paper reports up to ~35% at p90;
        // with few repetitions the phase holds only N/2 samples each,
        // so sanity-bound it loosely rather than pinning a noisy value.
        assert!(b90 <= 50.0, "N={n}: warm-up p90 error {b90:.2}%");
    }
}

// ------------------------------------------------------------ repro cost

/// The squaring table's step column: on the table's own 64 packets the
/// unrolled multiplier computes what runtime `Mul` computes (its
/// exactness on chosen pairs is `fragments::tests::unrolled_mul_is_exact`)
/// and pays 1 + 6 steps per unrolled bit where `Mul` pays one.
#[test]
fn unrolled_squarer_agrees_with_mul_at_97_times_the_steps() {
    let packets: Vec<u64> = (1..65u64).map(|i| i.wrapping_mul(2_654_435_761) % 60_000).collect();
    let [(_, mut mul), (_, mut unrolled)] = squaring_pipelines();
    let (mul_sum, mul_steps) = run_unary(&mut mul, &packets);
    let (unrolled_sum, unrolled_steps) = run_unary(&mut unrolled, &packets);
    assert_eq!(mul_sum, packets.iter().map(|x| x * x).sum::<u64>());
    assert_eq!(unrolled_sum, mul_sum);
    assert_eq!(mul_steps, 64);
    assert_eq!(unrolled_steps, 64 * (1 + 6 * 16));
}
