//! Approximate squaring with shifts, for targets without runtime multiply.
//!
//! The paper notes (Sec. 2) that "some hardware switches do not support
//! the squaring of values unknown at compile time" and that squaring can
//! be approximated with shifting operations, as suggested by Ding et
//! al. (NOMS '20). The trick mirrors the square-root approximation:
//! decompose `x = 2^e + m` where `e` is the MSB position and `m` the
//! mantissa, then
//!
//! ```text
//! x² = 2^{2e} + 2·2^e·m + m²  ≈  2^{2e} + (m << (e+1))
//! ```
//!
//! dropping the `m²` term. The result always *underestimates*, by at most
//! `m² < 2^{2e} ≤ x²/1`, i.e. the relative error is below `(m/x)² < 25%`
//! and shrinks as `x` approaches a power of two. [`approx_square_refined`]
//! re-applies the trick to the dropped `m²` term, pushing the worst case
//! under ~6%.
//!
//! In a pipeline the variable-distance shift `m << (e+1)` is realised the
//! same way as the MSB scan in [`crate::isqrt`]: an `if` cascade on bmv2
//! or a TCAM match on hardware. `p4sim` models that cost explicitly.

/// Shift-approximated square of `x`, always `<= x²`, relative error `< 25%`.
///
/// Uses only MSB detection, shifts and addition — legal on multiply-less
/// P4 targets.
///
/// # Examples
///
/// ```
/// use stat4_core::square::approx_square;
/// assert_eq!(approx_square(0), 0);
/// assert_eq!(approx_square(1), 1);
/// assert_eq!(approx_square(4), 16);        // exact on powers of two
/// assert_eq!(approx_square(5), 24);        // 25 - 1² = 24
/// assert_eq!(approx_square(6), 32);        // 36 - 2² = 32
/// ```
#[must_use]
pub fn approx_square(x: u64) -> u128 {
    if x == 0 {
        return 0;
    }
    let e = 63 - u64::from(x.leading_zeros());
    if e == 0 {
        return 1;
    }
    let m = (x & ((1u64 << e) - 1)) as u128;
    (1u128 << (2 * e)) + (m << (e + 1))
}

/// One-level refinement: adds a shift-approximation of the dropped `m²`
/// term, reducing the worst-case relative error to roughly 6%.
///
/// # Examples
///
/// ```
/// use stat4_core::square::approx_square_refined;
/// assert_eq!(approx_square_refined(4), 16);
/// // 7² = 49; one-term gives 40, refined recovers the 3² = 9 as 8 -> 48.
/// assert_eq!(approx_square_refined(7), 48);
/// ```
#[must_use]
pub fn approx_square_refined(x: u64) -> u128 {
    if x == 0 {
        return 0;
    }
    let e = 63 - u64::from(x.leading_zeros());
    if e == 0 {
        return 1;
    }
    let m = x & ((1u64 << e) - 1);
    (1u128 << (2 * e)) + ((m as u128) << (e + 1)) + approx_square(m)
}

/// Saturating `u64` variant of [`approx_square`] for register-width-bound
/// pipelines; values whose square exceeds `u64::MAX` clamp.
#[must_use]
pub fn approx_square_u64(x: u64) -> u64 {
    u64::try_from(approx_square(x)).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exact_on_powers_of_two() {
        for k in 0..32u32 {
            let x = 1u64 << k;
            assert_eq!(approx_square(x), (x as u128) * (x as u128));
            assert_eq!(approx_square_refined(x), (x as u128) * (x as u128));
        }
    }

    #[test]
    fn zero_and_one() {
        assert_eq!(approx_square(0), 0);
        assert_eq!(approx_square(1), 1);
        assert_eq!(approx_square_refined(0), 0);
        assert_eq!(approx_square_refined(1), 1);
    }

    #[test]
    fn small_values_by_hand() {
        // 3 = 2 + 1: 4 + (1 << 2) = 8; truth 9.
        assert_eq!(approx_square(3), 8);
        // 5 = 4 + 1: 16 + (1 << 3) = 24; truth 25.
        assert_eq!(approx_square(5), 24);
        // 7 = 4 + 3: 16 + (3 << 3) = 40; truth 49.
        assert_eq!(approx_square(7), 40);
        // refined(7): 40 + approx_square(3) = 48.
        assert_eq!(approx_square_refined(7), 48);
    }

    #[test]
    fn saturating_u64_clamps() {
        assert_eq!(approx_square_u64(u64::MAX), u64::MAX);
        assert_eq!(approx_square_u64(3), 8);
    }

    /// The widening shifts stay inside `u128` even at the top of the
    /// input range (e = 63 makes `m << 64` a 127-bit quantity, and the
    /// refined sum is bounded by the true square `< 2¹²⁸`).
    #[test]
    fn no_overflow_at_word_boundary() {
        for x in [u64::MAX, u64::MAX - 1, 1 << 63, (1 << 63) - 1] {
            let truth = u128::from(x) * u128::from(x);
            assert!(approx_square(x) <= truth, "x = {x}");
            assert!(approx_square_refined(x) <= truth, "x = {x}");
            assert!(approx_square(x) >= truth / 2, "x = {x}");
        }
    }

    #[test]
    fn error_band_shrinks_with_refinement() {
        let max_err = |f: fn(u64) -> u128| -> f64 {
            (2u64..50_000)
                .map(|x| {
                    let truth = (x as u128) * (x as u128);
                    ((truth - f(x)) as f64 / truth as f64) * 100.0
                })
                .fold(0.0, f64::max)
        };
        let one_term = max_err(approx_square);
        let refined = max_err(approx_square_refined);
        assert!(one_term < 25.0, "one-term max err {one_term}");
        assert!(refined < 7.0, "refined max err {refined}");
        assert!(refined < one_term);
    }

    proptest! {
        /// Always an underestimate, never by more than 25%.
        #[test]
        fn underestimates_within_bound(x in 2u64..u64::MAX) {
            let truth = (x as u128) * (x as u128);
            let approx = approx_square(x);
            prop_assert!(approx <= truth);
            // Dropped term is m² < 2^{2e} <= truth/4 rounded up.
            prop_assert!(truth - approx <= truth / 4 + 2,
                "x = {} approx = {} truth = {}", x, approx, truth);
        }

        /// Refinement never hurts.
        #[test]
        fn refined_dominates(x in 0u64..u64::MAX) {
            let truth = (x as u128) * (x as u128);
            let a = approx_square(x);
            let r = approx_square_refined(x);
            prop_assert!(r >= a);
            prop_assert!(r <= truth);
        }

        /// Order of magnitude is always right: the MSB of the result is
        /// exactly 2e or 2e+1.
        #[test]
        fn msb_is_doubled(x in 1u64..u64::MAX) {
            let e = 63 - u64::from(x.leading_zeros());
            let r = approx_square(x);
            let re = 127 - u128::from(r.leading_zeros());
            prop_assert!(re == u128::from(2 * e) || re == u128::from(2 * e + 1));
        }
    }
}
