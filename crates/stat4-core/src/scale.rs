//! Order-of-magnitude value scaling.
//!
//! The paper (Sec. 2) reduces memory by "storing the order of magnitude
//! of the values in the tracked distributions, possibly relative to a
//! baseline": a switch forwarding ~10 Gb per 100 ms interval tracks the
//! interval volumes *in Gb units*, so counters stay small (≤ a few
//! hundred) and the frequency-array domains stay narrow.
//!
//! In a pipeline the only division-free scaling is a right shift, so
//! [`Scale`] quantises by powers of two, optionally after subtracting a
//! baseline. The controller (which *can* divide) chooses the shift so
//! that typical values land in the target range.

use crate::error::{Stat4Error, Stat4Result};

/// A data-plane-legal affine quantiser: `scaled = (raw − baseline) >> shift`,
/// clamped to `[0, max_scaled]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Subtracted before shifting (the paper's "relative to a baseline").
    pub baseline: i64,
    /// Right-shift distance; `1 << shift` raw units map to one scaled unit.
    pub shift: u32,
    /// Inclusive upper clamp of the scaled output (the last counter cell
    /// absorbs everything larger).
    pub max_scaled: i64,
}

impl Scale {
    /// Identity scale (no baseline, no shift, clamp at `max`).
    #[must_use]
    pub fn identity(max: i64) -> Self {
        Self {
            baseline: 0,
            shift: 0,
            max_scaled: max,
        }
    }

    /// Builds a scale with an explicit shift.
    ///
    /// # Errors
    ///
    /// [`Stat4Error::InvalidDomain`] if `shift > 62` or `max_scaled < 0`.
    pub fn new(baseline: i64, shift: u32, max_scaled: i64) -> Stat4Result<Self> {
        if shift > 62 || max_scaled < 0 {
            return Err(Stat4Error::InvalidDomain {
                min: 0,
                max: max_scaled,
            });
        }
        Ok(Self {
            baseline,
            shift,
            max_scaled,
        })
    }

    /// Applies the quantisation: shift-and-clamp, never negative.
    #[must_use]
    pub fn apply(&self, raw: i64) -> i64 {
        let shifted = raw.saturating_sub(self.baseline) >> self.shift;
        shifted.clamp(0, self.max_scaled)
    }

    /// Worst-case absolute quantisation error in raw units.
    #[must_use]
    pub fn quantisation_error(&self) -> i64 {
        (1i64 << self.shift) / 2 + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identity_passthrough() {
        let s = Scale::identity(100);
        assert_eq!(s.apply(42), 42);
        assert_eq!(s.apply(150), 100, "clamped");
        assert_eq!(s.apply(-5), 0, "never negative");
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(Scale::new(0, 63, 10).is_err());
        assert!(Scale::new(0, 3, -1).is_err());
        assert!(Scale::new(0, 62, 0).is_ok());
    }

    #[test]
    fn gigabit_example() {
        // ~10 Gb per interval tracked in 2^30-byte buckets: a typical
        // 10e9 lands at <= 15.
        let s = Scale::new(0, 30, 127).unwrap();
        let scaled = s.apply(10_000_000_000);
        assert!(scaled > 0 && scaled <= 15, "scaled = {scaled}");
        // A 4x spike stays in-domain and distinguishable.
        let spike = s.apply(40_000_000_000);
        assert!(spike > scaled && spike <= 127, "spike = {spike}");
    }

    #[test]
    fn baseline_subtraction() {
        let s = Scale::new(1000, 0, 100).unwrap();
        assert_eq!(s.apply(1000), 0);
        assert_eq!(s.apply(1050), 50);
        assert_eq!(s.apply(900), 0, "below baseline clamps to 0");
    }

    proptest! {
        /// apply is monotone non-decreasing.
        #[test]
        fn apply_monotone(a in 0i64..1_000_000_000, b in 0i64..1_000_000_000, shift in 0u32..30) {
            let s = Scale::new(0, shift, i64::MAX >> 1).unwrap();
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(s.apply(lo) <= s.apply(hi));
        }

        /// Output always within [0, max_scaled].
        #[test]
        fn apply_bounded(raw in i64::MIN/2..i64::MAX/2, shift in 0u32..40, max in 0i64..1_000_000) {
            let s = Scale::new(0, shift, max).unwrap();
            let out = s.apply(raw);
            prop_assert!((0..=max).contains(&out));
        }
    }
}
