//! Shift-based exponentially weighted moving averages.
//!
//! The paper's future-work section calls for "a larger exploration of
//! in-switch statistical primitives". The EWMA is the most requested
//! one in practice (RED/CoDel-style smoothing, baseline tracking), and
//! it has a classic division-free form when the smoothing factor is a
//! negative power of two:
//!
//! ```text
//! avg ← avg + (x − avg) >> k        (α = 2^−k)
//! ```
//!
//! To avoid losing the fractional part to integer truncation (which
//! would bias the average low and freeze it for small deviations), the
//! accumulator stores the average **left-shifted by `k`** — fixed-point
//! with `k` fractional bits:
//!
//! ```text
//! acc ← acc − (acc >> k) + x
//! avg = acc >> k
//! ```
//!
//! One subtraction, one shift, one addition per update — the same
//! register budget as the paper's counters.

/// A fixed-point EWMA with `α = 2^−shift`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ewma {
    /// Fixed-point accumulator (`avg << shift`).
    acc: i64,
    /// `α = 2^−shift`.
    shift: u32,
    /// True once the first sample seeded the accumulator.
    seeded: bool,
}

impl Ewma {
    /// Creates an EWMA with smoothing factor `2^-shift`
    /// (`shift = 3` → α = 0.125).
    ///
    /// # Panics
    ///
    /// Panics if `shift` is 0 or ≥ 32 (degenerate smoothing / overflow
    /// headroom).
    #[must_use]
    pub fn new(shift: u32) -> Self {
        assert!((1..32).contains(&shift), "shift {shift} out of range");
        Self {
            acc: 0,
            shift,
            seeded: false,
        }
    }

    /// Feeds one sample.
    pub fn update(&mut self, x: i64) {
        if !self.seeded {
            // Seed at the first sample, as RFC 6298-style estimators do.
            self.acc = x << self.shift;
            self.seeded = true;
            return;
        }
        self.acc = self.acc - (self.acc >> self.shift) + x;
    }

    /// The current average (integer part).
    #[must_use]
    pub fn value(&self) -> i64 {
        self.acc >> self.shift
    }

    /// The raw fixed-point accumulator (for register-level tests).
    #[must_use]
    pub fn raw(&self) -> i64 {
        self.acc
    }

    /// The configured shift.
    #[must_use]
    pub fn shift(&self) -> u32 {
        self.shift
    }

    /// Resets to the unseeded state.
    pub fn reset(&mut self) {
        self.acc = 0;
        self.seeded = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn seeds_at_first_sample() {
        let mut e = Ewma::new(3);
        assert!(!e.seeded);
        assert_eq!(e.value(), 0);
        e.update(100);
        assert!(e.seeded);
        assert_eq!(e.value(), 100, "no warm-up bias");
    }

    #[test]
    fn converges_to_constant_input() {
        let mut e = Ewma::new(4);
        e.update(0);
        for _ in 0..200 {
            e.update(1000);
        }
        let v = e.value();
        assert!((999..=1000).contains(&v), "converged: {v}");
    }

    #[test]
    fn tracks_step_change_geometrically() {
        let mut e = Ewma::new(3); // alpha = 1/8
        e.update(0);
        // After n updates at level L, avg ≈ L(1 − (7/8)^n).
        e.update(800);
        assert_eq!(e.value(), 100); // 800/8
        e.update(800);
        // acc = 800+... ≈ 800*(1-(7/8)^2)=187.5
        let v = e.value();
        assert!((186..=188).contains(&v), "second step: {v}");
    }

    #[test]
    fn no_truncation_freeze() {
        // A naive avg += (x-avg)>>k freezes when |x-avg| < 2^k; the
        // fixed-point accumulator must keep converging.
        let mut e = Ewma::new(4);
        e.update(0);
        for _ in 0..500 {
            e.update(7); // deviation smaller than 2^4
        }
        assert_eq!(e.value(), 7, "small deviations still converge");
    }

    #[test]
    fn negative_values() {
        let mut e = Ewma::new(3);
        e.update(-100);
        for _ in 0..100 {
            e.update(-100);
        }
        assert_eq!(e.value(), -100);
    }

    #[test]
    fn reset_clears() {
        let mut e = Ewma::new(3);
        e.update(5);
        e.reset();
        assert!(!e.seeded);
        assert_eq!(e.value(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_shift_rejected() {
        let _ = Ewma::new(0);
    }

    proptest! {
        /// The average always stays within the observed value range.
        #[test]
        fn bounded_by_input_range(
            values in proptest::collection::vec(-10_000i64..10_000, 1..300),
            shift in 1u32..8,
        ) {
            let mut e = Ewma::new(shift);
            for &v in &values {
                e.update(v);
            }
            let lo = *values.iter().min().expect("non-empty");
            let hi = *values.iter().max().expect("non-empty");
            prop_assert!(e.value() >= lo - 1, "value {} lo {lo}", e.value());
            prop_assert!(e.value() <= hi + 1, "value {} hi {hi}", e.value());
        }

        /// Against the floating-point EWMA with the same alpha, the
        /// fixed-point version stays within one unit plus accumulated
        /// rounding (bounded by 2).
        #[test]
        fn close_to_float_reference(
            values in proptest::collection::vec(0i64..100_000, 1..200),
            shift in 1u32..8,
        ) {
            let alpha = 1.0 / f64::from(1u32 << shift);
            let mut e = Ewma::new(shift);
            let mut f = values[0] as f64;
            e.update(values[0]);
            for &v in &values[1..] {
                e.update(v);
                f = f + alpha * (v as f64 - f);
            }
            let diff = (e.value() as f64 - f).abs();
            prop_assert!(diff <= 2.0, "fixed {} float {f}", e.value());
        }
    }
}
