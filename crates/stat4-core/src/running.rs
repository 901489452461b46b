//! Online mean / variance / standard deviation in the `NX` domain.
//!
//! P4 cannot divide, so the classical online algorithms (Welford etc.)
//! are out of reach. The paper instead tracks the *scaled* distribution
//! `NX = {N·x1, …, N·xN}`:
//!
//! - the **mean of `NX`** is exactly `Xsum = Σ xi` — a plain sum, no
//!   division;
//! - the **variance of `NX`** is `σ²(NX) = N·Xsumsq − Xsum²` where
//!   `Xsumsq = Σ xi²` — products and a subtraction, no division;
//! - the **standard deviation of `NX`** is `√(σ²(NX))`, computed with
//!   the shift-based [`crate::isqrt::approx_isqrt`].
//!
//! Anomaly checks are rewritten into the same domain: "is `xj` more than
//! `k` standard deviations above the mean" becomes the integer test
//! `N·xj > Xsum + k·σ(NX)`. All the state is three integers, updated in
//! constant time per new value.
//!
//! Standard deviation is computed **lazily** (paper Sec. 3): per-value
//! updates only maintain `N`, `Xsum` and `Xsumsq`; the variance and the
//! (comparatively expensive) MSB scan inside the square root run only
//! when a check actually reads `σ`. The [`RunningStats::sd_cached`]
//! accessor memoises the last computed value for the eager-vs-lazy
//! ablation benchmark.

use crate::delta::{DeltaMergeable, RunningDelta};
use crate::isqrt::approx_isqrt;

/// Online tracker for `N`, `Xsum`, `Xsumsq` and the derived `NX`-domain
/// statistics of a stream of integer values.
///
/// `push` is the per-new-value update a switch performs when an interval
/// closes; reads (`variance_nx`, `sd_nx`, outlier checks) are the lazy,
/// less frequent operations a detection algorithm performs.
///
/// Values are `i64`; internal products are computed in `i128` so that any
/// realistic data-plane register contents (counters of packets, bytes,
/// intervals) are far from overflow. Overflow in `Xsumsq` accumulation
/// itself is checked in debug builds and saturates in release builds —
/// matching how a fixed-width P4 register would wrap-or-clamp rather than
/// trap.
#[derive(Debug, Clone, Default)]
pub struct RunningStats {
    n: u64,
    sum: i64,
    sumsq: i64,
    /// Memoised standard deviation, invalidated on every push.
    sd_cache: Option<u64>,
    /// Accumulator values at the last `take_delta` — the baseline the
    /// next delta is computed against. Like `sd_cache`, derived
    /// bookkeeping: excluded from eq.
    taken_n: u64,
    taken_sum: i64,
    taken_sumsq: i64,
}

/// Equality is over the three accumulators only — the σ memo and the
/// delta baseline are derived bookkeeping, not identity.
impl PartialEq for RunningStats {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.sum == other.sum && self.sumsq == other.sumsq
    }
}

impl Eq for RunningStats {}

impl RunningStats {
    /// Creates an empty tracker (`N = 0`).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a tracker from previously exported raw accumulators
    /// (`n()`, `xsum()`, `xsumsq()`), as a crash-recovery checkpoint
    /// does. The derived-statistic cache starts cold, exactly as after
    /// any mutation, so a restored tracker compares equal to the live
    /// tracker it was exported from.
    #[must_use]
    pub fn from_raw(n: u64, xsum: i64, xsumsq: i64) -> Self {
        Self {
            n,
            sum: xsum,
            sumsq: xsumsq,
            sd_cache: None,
            // Restored state ships nothing until the next rebuild.
            taken_n: n,
            taken_sum: xsum,
            taken_sumsq: xsumsq,
        }
    }

    /// Number of values observed so far.
    #[must_use]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// `Xsum = Σ xi` — also the exact mean of the tracked `NX`
    /// distribution.
    #[must_use]
    pub fn xsum(&self) -> i64 {
        self.sum
    }

    /// `Xsumsq = Σ xi²`.
    #[must_use]
    pub fn xsumsq(&self) -> i64 {
        self.sumsq
    }

    /// Adds a new value `x` to the distribution: `N += 1`,
    /// `Xsum += x`, `Xsumsq += x²`. Constant work.
    // Always inlined: `replay::ShardState::ingest_meta` calls this per
    // frame, and with plain `#[inline]` LLVM's cost model took the call
    // back out of line as soon as that crate had a second caller.
    #[inline(always)]
    pub fn push(&mut self, x: i64) {
        self.n = self.n.saturating_add(1);
        self.sum = self.sum.saturating_add(x);
        self.sumsq = self.sumsq.saturating_add(x.saturating_mul(x));
        self.sd_cache = None;
    }

    /// Absorbs another tracker's distribution: `N`, `Xsum` and `Xsumsq`
    /// add. Exactly the state a single tracker would hold after pushing
    /// both value streams in any order (absent saturation).
    pub fn absorb(&mut self, other: &Self) {
        self.n = self.n.saturating_add(other.n);
        self.sum = self.sum.saturating_add(other.sum);
        self.sumsq = self.sumsq.saturating_add(other.sumsq);
        self.sd_cache = None;
    }

    /// Replaces a previously pushed value `old` with `new` without
    /// changing `N`. This is the circular-buffer update of the paper's
    /// case study: when the window is full, the oldest interval counter
    /// is overwritten by the newest.
    pub fn replace(&mut self, old: i64, new: i64) {
        self.sum = self.sum.saturating_sub(old).saturating_add(new);
        self.sumsq = self
            .sumsq
            .saturating_sub(old.saturating_mul(old))
            .saturating_add(new.saturating_mul(new));
        self.sd_cache = None;
    }

    /// Removes a previously pushed value (`N -= 1`). Used when a tracked
    /// distribution shrinks, e.g. when a binding is retired.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `N` is already zero.
    pub fn remove(&mut self, x: i64) {
        debug_assert!(self.n > 0, "remove from empty RunningStats");
        self.n = self.n.saturating_sub(1);
        self.sum = self.sum.saturating_sub(x);
        self.sumsq = self.sumsq.saturating_sub(x.saturating_mul(x));
        self.sd_cache = None;
    }

    /// Variance of the `NX` distribution: `N·Xsumsq − Xsum²`, computed in
    /// `i128`. Never negative for a state reachable via `push`/`replace`
    /// (Cauchy–Schwarz); clamped at zero defensively for saturated states.
    #[must_use]
    pub fn variance_nx(&self) -> u128 {
        let v = (self.n as i128) * (self.sumsq as i128) - (self.sum as i128) * (self.sum as i128);
        if v < 0 {
            0
        } else {
            v as u128
        }
    }

    /// Standard deviation of `NX` via the shift-approximated square root.
    ///
    /// The variance is an `i128` product but `approx_isqrt` operates on
    /// `u64`, matching a pipeline's register width; variances beyond
    /// `u64::MAX` clamp (their square root saturates at `√(u64::MAX)`,
    /// still monotone).
    #[must_use]
    pub fn sd_nx(&self) -> u64 {
        let v = self.variance_nx();
        let v64 = u64::try_from(v).unwrap_or(u64::MAX);
        approx_isqrt(v64)
    }

    /// Memoising accessor used by the lazy-vs-eager ablation: recomputes
    /// only when the state changed since the last read.
    pub fn sd_cached(&mut self) -> u64 {
        if let Some(sd) = self.sd_cache {
            return sd;
        }
        let sd = self.sd_nx();
        self.sd_cache = Some(sd);
        sd
    }

    /// Integer-only outlier test in the `NX` domain:
    /// `N·x > Xsum + k·σ(NX)`.
    ///
    /// This is the paper's example check "if traffic rates follow a
    /// normal distribution, the rate `xj` is an outlier if
    /// `N·xj > N·x̄ + 2σ(NX)`".
    #[must_use]
    pub fn is_upper_outlier(&self, x: i64, k: u32) -> bool {
        let nx = (self.n as i128) * (x as i128);
        let bound = (self.sum as i128) + (k as i128) * (self.sd_nx() as i128);
        nx > bound
    }

    /// Upper-tail test with an additional absolute margin:
    /// `N·x > Xsum + k·σ(NX) + margin`. Detectors use a *relative*
    /// margin ([`Self::relative_margin`]) because a bare k·σ band
    /// false-alarms on any stochastic traffic: interval noise crosses
    /// 2σ in roughly 2% of intervals.
    #[must_use]
    pub fn is_upper_outlier_with_margin(&self, x: i64, k: u32, margin: u64) -> bool {
        let nx = (self.n as i128) * (x as i128);
        let bound = (self.sum as i128)
            + (k as i128) * (self.sd_nx() as i128)
            + (margin as i128);
        nx > bound
    }

    /// Lower-tail test with a margin: `N·x < Xsum − k·σ(NX) − margin`.
    #[must_use]
    pub(crate) fn is_lower_outlier_with_margin(&self, x: i64, k: u32, margin: u64) -> bool {
        let nx = (self.n as i128) * (x as i128);
        let bound = (self.sum as i128)
            - (k as i128) * (self.sd_nx() as i128)
            - (margin as i128);
        nx < bound
    }

    /// The data-plane-legal relative margin: `max(|Xsum| >> shift,
    /// floor)` — a shift, a compare, both P4-expressible. A shift of 3
    /// demands outliers beat the mean by 12.5% on top of the σ band.
    #[must_use]
    pub fn relative_margin(&self, shift: u32, floor: u64) -> u64 {
        let base = (self.sum.unsigned_abs()) >> shift.min(63);
        base.max(floor)
    }

    /// Symmetric lower-tail test: `N·x < Xsum − k·σ(NX)`.
    #[must_use]
    pub fn is_lower_outlier(&self, x: i64, k: u32) -> bool {
        let nx = (self.n as i128) * (x as i128);
        let bound = (self.sum as i128) - (k as i128) * (self.sd_nx() as i128);
        nx < bound
    }

    /// Resets to the empty state, as a switch does when the controller
    /// rebinds a register block to a new distribution.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

impl crate::merge::Mergeable for RunningStats {
    /// Sums are order-free: any shard partition merges back to the
    /// sequential state. Infallible (no configuration to mismatch).
    fn merge_from(&mut self, other: &Self) -> crate::error::Stat4Result<()> {
        self.absorb(other);
        Ok(())
    }
}

impl DeltaMergeable for RunningStats {
    type Delta = RunningDelta;

    fn take_delta_into(&mut self, delta: &mut RunningDelta) {
        *delta = RunningDelta {
            dn: i128::from(self.n) - i128::from(self.taken_n),
            dsum: i128::from(self.sum) - i128::from(self.taken_sum),
            dsumsq: i128::from(self.sumsq) - i128::from(self.taken_sumsq),
        };
        self.taken_n = self.n;
        self.taken_sum = self.sum;
        self.taken_sumsq = self.sumsq;
    }

    /// Adds the accumulator changes, clamping at the register bounds
    /// exactly as `absorb`'s saturating adds do. Infallible, like the
    /// full merge.
    fn apply_delta(&mut self, delta: &RunningDelta) -> crate::error::Stat4Result<()> {
        let n = i128::from(self.n) + delta.dn;
        self.n = u64::try_from(n.clamp(0, i128::from(u64::MAX))).expect("clamped into range");
        let sum = i128::from(self.sum) + delta.dsum;
        self.sum = i64::try_from(sum.clamp(i128::from(i64::MIN), i128::from(i64::MAX)))
            .expect("clamped into range");
        let sumsq = i128::from(self.sumsq) + delta.dsumsq;
        self.sumsq = i64::try_from(sumsq.clamp(i128::from(i64::MIN), i128::from(i64::MAX)))
            .expect("clamped into range");
        self.sd_cache = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use proptest::prelude::*;

    #[test]
    fn from_raw_round_trips() {
        let mut s = RunningStats::new();
        for v in [3i64, -7, 40, 40, 12] {
            s.push(v);
        }
        let restored = RunningStats::from_raw(s.n(), s.xsum(), s.xsumsq());
        assert_eq!(restored, s);
        assert_eq!(restored.variance_nx(), s.variance_nx());
    }

    #[test]
    fn empty_state() {
        let s = RunningStats::new();
        assert_eq!(s.n(), 0);
        assert_eq!(s.xsum(), 0);
        assert_eq!(s.xsumsq(), 0);
        assert_eq!(s.variance_nx(), 0);
        assert_eq!(s.sd_nx(), 0);
    }

    #[test]
    fn single_value_has_zero_variance() {
        let mut s = RunningStats::new();
        s.push(2);
        // The paper's Fig. 5 caption: N=1, Xsum=2, Xsumsq=4, var=0, sd=0.
        assert_eq!(s.n(), 1);
        assert_eq!(s.xsum(), 2);
        assert_eq!(s.xsumsq(), 4);
        assert_eq!(s.variance_nx(), 0);
        assert_eq!(s.sd_nx(), 0);
    }

    #[test]
    fn hand_computed_variance() {
        let mut s = RunningStats::new();
        for x in [1, 2, 3, 4] {
            s.push(x);
        }
        // Xsum = 10, Xsumsq = 30, N = 4 -> var(NX) = 4*30 - 100 = 20.
        assert_eq!(s.variance_nx(), 20);
    }

    #[test]
    fn variance_matches_scaled_oracle() {
        let values = [5i64, 9, 2, 14, 7, 7, 3, 11, 6];
        let mut s = RunningStats::new();
        for &v in &values {
            s.push(v);
        }
        let exact = oracle::variance_nx_exact(&values);
        assert_eq!(s.variance_nx(), exact);
    }

    #[test]
    fn replace_equals_rebuild() {
        let mut a = RunningStats::new();
        for x in [10, 20, 30] {
            a.push(x);
        }
        a.replace(10, 40);

        let mut b = RunningStats::new();
        for x in [40, 20, 30] {
            b.push(x);
        }
        assert_eq!(a.n(), b.n());
        assert_eq!(a.xsum(), b.xsum());
        assert_eq!(a.xsumsq(), b.xsumsq());
    }

    #[test]
    fn remove_undoes_push() {
        let mut a = RunningStats::new();
        for x in [3, 1, 4, 1, 5] {
            a.push(x);
        }
        a.remove(4);
        let mut b = RunningStats::new();
        for x in [3, 1, 1, 5] {
            b.push(x);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn outlier_detection_on_stable_stream() {
        let mut s = RunningStats::new();
        for _ in 0..50 {
            s.push(100);
        }
        for wiggle in [98, 99, 101, 102, 100, 97, 103] {
            s.push(wiggle);
        }
        assert!(s.is_upper_outlier(200, 2));
        assert!(!s.is_upper_outlier(101, 2));
        assert!(s.is_lower_outlier(10, 2));
        assert!(!s.is_lower_outlier(99, 2));
    }

    #[test]
    fn negative_values_supported() {
        let mut s = RunningStats::new();
        for x in [-5, 5, -5, 5] {
            s.push(x);
        }
        assert_eq!(s.xsum(), 0);
        assert_eq!(s.xsumsq(), 100);
        // var(NX) = 4*100 - 0 = 400; sd ~ 20.
        assert_eq!(s.variance_nx(), 400);
        let sd = s.sd_nx();
        assert!((16..=24).contains(&sd), "sd = {sd}");
    }

    #[test]
    fn cache_invalidation() {
        let mut s = RunningStats::new();
        for x in [1, 2, 3, 4, 5] {
            s.push(x);
        }
        let sd1 = s.sd_cached();
        assert_eq!(s.sd_cached(), sd1);
        s.push(1000);
        let sd2 = s.sd_cached();
        assert!(sd2 > sd1);
    }

    /// Extreme values saturate every accumulator instead of trapping in
    /// debug builds — the library-side mirror of a fixed-width register.
    #[test]
    fn push_saturates_on_extreme_values() {
        let mut s = RunningStats::new();
        s.push(i64::MAX);
        s.push(i64::MAX);
        assert_eq!(s.xsum(), i64::MAX);
        assert_eq!(s.xsumsq(), i64::MAX);
        // Saturated states keep the variance clamp at zero rather than
        // producing a garbage negative value.
        let _ = s.variance_nx();
        s.push(i64::MIN);
        assert_eq!(s.n(), 3);
    }

    /// Merging two near-ceiling trackers must not wrap `N`.
    #[test]
    fn absorb_saturates_n() {
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        a.push(1);
        b.push(2);
        a.n = u64::MAX - 1;
        b.n = 3;
        a.absorb(&b);
        assert_eq!(a.n(), u64::MAX);
        assert_eq!(a.xsum(), 3);
    }

    #[test]
    fn reset_clears_everything() {
        let mut s = RunningStats::new();
        s.push(42);
        s.reset();
        assert_eq!(s, RunningStats::new());
    }

    proptest! {
        /// Non-negativity of the variance expression for any push-only
        /// state (Cauchy–Schwarz in integers).
        #[test]
        fn variance_never_negative(values in proptest::collection::vec(-10_000i64..10_000, 0..200)) {
            let mut s = RunningStats::new();
            for v in &values {
                s.push(*v);
            }
            // variance_nx already clamps; verify the raw expression too.
            let raw = (s.n() as i128) * (s.xsumsq() as i128)
                - (s.xsum() as i128) * (s.xsum() as i128);
            prop_assert!(raw >= 0);
        }

        /// Online state equals batch recomputation.
        #[test]
        fn online_equals_batch(values in proptest::collection::vec(-1_000i64..1_000, 1..100)) {
            let mut s = RunningStats::new();
            for v in &values {
                s.push(*v);
            }
            let sum: i64 = values.iter().sum();
            let sumsq: i64 = values.iter().map(|v| v * v).sum();
            prop_assert_eq!(s.n(), values.len() as u64);
            prop_assert_eq!(s.xsum(), sum);
            prop_assert_eq!(s.xsumsq(), sumsq);
            prop_assert_eq!(s.variance_nx(), oracle::variance_nx_exact(&values));
        }

        /// Push-then-replace equals pushing the final window contents in
        /// any order.
        #[test]
        fn replace_is_order_insensitive(
            window in proptest::collection::vec(0i64..100_000, 2..50),
            newval in 0i64..100_000,
        ) {
            let mut a = RunningStats::new();
            for v in &window {
                a.push(*v);
            }
            a.replace(window[0], newval);

            let mut b = RunningStats::new();
            b.push(newval);
            for v in &window[1..] {
                b.push(*v);
            }
            prop_assert_eq!(a.n(), b.n());
            prop_assert_eq!(a.xsum(), b.xsum());
            prop_assert_eq!(a.xsumsq(), b.xsumsq());
        }

        /// The integer outlier check agrees with the floating-point check
        /// up to the documented square-root approximation error: if the
        /// integer test fires at k, the float z-score is at least k/2
        /// (factor-2 envelope of approx_isqrt).
        #[test]
        fn outlier_check_consistent_with_float(
            values in proptest::collection::vec(1i64..1_000, 8..64),
            candidate in 1i64..10_000,
        ) {
            let mut s = RunningStats::new();
            for v in &values {
                s.push(*v);
            }
            if s.variance_nx() == 0 {
                return Ok(());
            }
            let n = values.len() as f64;
            let mean = values.iter().sum::<i64>() as f64 / n;
            let var = values.iter()
                .map(|&v| (v as f64 - mean).powi(2))
                .sum::<f64>() / n;
            let sd = var.sqrt();
            if sd == 0.0 {
                return Ok(());
            }
            let z = (candidate as f64 - mean) / sd;
            if s.is_upper_outlier(candidate, 2) {
                // sd(NX) = N * sd(X); integer test: N*x > Xsum + 2*sd(NX)
                // => z > 2 * approx/true >= 2 * (1/2) = 1.
                prop_assert!(z > 0.9, "z = {z}");
            }
        }
    }
}
