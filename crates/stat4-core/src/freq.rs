//! Frequency distributions with constant-work moment updates.
//!
//! A *frequency distribution* (paper Sec. 2) tracks how often each value
//! of interest occurs: `X = {f_1, …, f_N}` where `f_i` is the frequency
//! of value `i` (SYN vs data packets, packets per protocol, occurrences
//! of payload integers, …). Its moments are maintained without any
//! re-scan:
//!
//! - a value `k` seen for the first time increments `N` (the number of
//!   *distinct* values observed);
//! - every observation increments `Xsum` (total observation count) by 1;
//! - `Xsumsq` absorbs the change from `f_k²` to `(f_k+1)²` as
//!   `Xsumsq += 2·f_k + 1` — one shift and two adds.
//!
//! The distribution's domain is a fixed integer interval, mirroring the
//! register array a switch pre-allocates (`STAT_COUNTER_SIZE` cells); the
//! paper's validation app uses the domain `[-255, 255]`.

use crate::delta::{DeltaMergeable, DirtyJournal, FreqDelta};
use crate::error::{Stat4Error, Stat4Result};
use crate::isqrt::approx_isqrt;

/// A bounded-domain frequency distribution with O(1) updates of
/// `N`, `Xsum` and `Xsumsq`.
#[derive(Debug, Clone)]
pub struct FrequencyDist {
    min: i64,
    max: i64,
    counts: Vec<u64>,
    /// Number of distinct values observed (the paper's `N`).
    n_distinct: u64,
    /// Total number of observations (`Xsum = Σ f_i`).
    total: u64,
    /// Sum of squared frequencies (`Xsumsq = Σ f_i²`).
    sumsq: u128,
    /// Buckets touched since the last `take_delta`; not part of the
    /// distribution's identity (excluded from eq).
    journal: DirtyJournal,
}

/// Equality is over counters and moments only — the dirty journal is
/// bookkeeping, not identity.
impl PartialEq for FrequencyDist {
    fn eq(&self, other: &Self) -> bool {
        self.min == other.min
            && self.max == other.max
            && self.counts == other.counts
            && self.n_distinct == other.n_distinct
            && self.total == other.total
            && self.sumsq == other.sumsq
    }
}

impl Eq for FrequencyDist {}

impl FrequencyDist {
    /// Creates a distribution over the inclusive domain `[min, max]`.
    ///
    /// # Errors
    ///
    /// [`Stat4Error::InvalidDomain`] if `min > max` or the domain has more
    /// than 2³² cells (a register array no switch could allocate).
    pub fn new(min: i64, max: i64) -> Stat4Result<Self> {
        if min > max {
            return Err(Stat4Error::InvalidDomain { min, max });
        }
        let size = (max as i128) - (min as i128) + 1;
        if size > (1i128 << 32) {
            return Err(Stat4Error::InvalidDomain { min, max });
        }
        Ok(Self {
            min,
            max,
            counts: vec![0; size as usize],
            n_distinct: 0,
            total: 0,
            sumsq: 0,
            journal: DirtyJournal::over(size as usize),
        })
    }

    /// Seeds a distribution directly from per-cell counters (cell 0 =
    /// `min`), recomputing the moments with the same saturating
    /// arithmetic `observe` uses. Exists so tests can reach the
    /// near-ceiling states that would take 2⁶⁴ observations to produce.
    ///
    /// # Errors
    ///
    /// [`Stat4Error::InvalidDomain`] if `counts` is empty, wider than
    /// 2³² cells, or would end past `i64::MAX`.
    #[doc(hidden)]
    pub fn from_raw_counts(min: i64, counts: Vec<u64>) -> Stat4Result<Self> {
        if counts.is_empty() || counts.len() > (1usize << 32) {
            return Err(Stat4Error::InvalidDomain { min, max: min });
        }
        let max = min
            .checked_add(counts.len() as i64 - 1)
            .ok_or(Stat4Error::InvalidDomain { min, max: i64::MAX })?;
        let mut n_distinct = 0u64;
        let mut total = 0u64;
        let mut sumsq = 0u128;
        for &f in &counts {
            if f != 0 {
                n_distinct += 1;
            }
            total = total.saturating_add(f);
            sumsq = sumsq.saturating_add(u128::from(f) * u128::from(f));
        }
        let journal = DirtyJournal::over(counts.len());
        Ok(Self {
            min,
            max,
            counts,
            n_distinct,
            total,
            sumsq,
            journal,
        })
    }

    /// Inclusive lower bound of the domain.
    #[must_use]
    pub fn min_value(&self) -> i64 {
        self.min
    }

    /// Inclusive upper bound of the domain.
    #[must_use]
    pub fn max_value(&self) -> i64 {
        self.max
    }

    #[inline]
    fn index(&self, value: i64) -> Option<usize> {
        if value < self.min || value > self.max {
            None
        } else {
            Some((value - self.min) as usize)
        }
    }

    /// Records one occurrence of `value`.
    ///
    /// # Errors
    ///
    /// [`Stat4Error::ValueOutOfDomain`] if `value` lies outside the
    /// configured domain. (A pipeline would simply not match such a
    /// packet; host code gets an explicit error.)
    // Always inlined: `replay::ShardState::ingest_meta` calls this per
    // frame, and with plain `#[inline]` LLVM's cost model took the call
    // back out of line as soon as that crate had a second caller.
    #[inline(always)]
    pub fn observe(&mut self, value: i64) -> Stat4Result<()> {
        let idx = self.index(value).ok_or(Stat4Error::ValueOutOfDomain {
            value,
            min: self.min,
            max: self.max,
        })?;
        let f = self.counts[idx];
        self.journal.mark(idx, f);
        if f == 0 {
            self.n_distinct += 1;
        }
        // Xsumsq += (f+1)² − f² = 2f + 1 — the constant-work update.
        // All three accumulators saturate explicitly at their register
        // ceiling instead of wrapping (or panicking in debug builds):
        // a pinned counter is what a fixed-width switch register does.
        self.sumsq = self.sumsq.saturating_add(2 * u128::from(f) + 1);
        self.total = self.total.saturating_add(1);
        self.counts[idx] = f.saturating_add(1);
        Ok(())
    }

    /// Current frequency of `value` (zero if out of domain).
    #[must_use]
    pub fn frequency(&self, value: i64) -> u64 {
        self.index(value).map_or(0, |i| self.counts[i])
    }

    /// Number of distinct values observed — the paper's `N` for
    /// frequency distributions.
    #[must_use]
    pub fn n_distinct(&self) -> u64 {
        self.n_distinct
    }

    /// Total observations — `Xsum`, and also the exact mean of `NX`.
    #[must_use]
    pub fn xsum(&self) -> u64 {
        self.total
    }

    /// Sum of squared frequencies — `Xsumsq`.
    #[must_use]
    pub fn xsumsq(&self) -> u128 {
        self.sumsq
    }

    /// `σ²(NX) = N·Xsumsq − Xsum²` over the frequencies of the observed
    /// values.
    #[must_use]
    pub fn variance_nx(&self) -> u128 {
        let n = u128::from(self.n_distinct);
        let sum = u128::from(self.total);
        (n * self.sumsq).saturating_sub(sum * sum)
    }

    /// `σ(NX)` via the shift-approximated square root (clamped to the
    /// 64-bit register width like [`crate::RunningStats::sd_nx`]).
    #[must_use]
    pub fn sd_nx(&self) -> u64 {
        approx_isqrt(u64::try_from(self.variance_nx()).unwrap_or(u64::MAX))
    }

    /// Snapshot of the per-cell counters, index 0 = `min_value()`.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Clears all counters and moments (and re-bases the dirty journal:
    /// a reset distribution has nothing to ship).
    pub fn reset(&mut self) {
        self.counts.fill(0);
        self.n_distinct = 0;
        self.total = 0;
        self.sumsq = 0;
        self.journal.clear();
    }
}

impl DeltaMergeable for FrequencyDist {
    type Delta = FreqDelta;

    fn take_delta_into(&mut self, delta: &mut FreqDelta) {
        self.journal
            .drain_cells_into(&self.counts, &mut delta.cells);
    }

    /// Applies the count increments cellwise and updates the moments
    /// incrementally from the old/new cell values — exactly what the
    /// full merge's recomputation yields, one touched cell at a time
    /// (bit-identical absent accumulator saturation).
    fn apply_delta(&mut self, delta: &FreqDelta) -> Stat4Result<()> {
        for &(idx, base, cur) in &delta.cells {
            let c = self
                .counts
                .get_mut(idx as usize)
                .ok_or(Stat4Error::MergeMismatch {
                    what: "frequency domains",
                })?;
            let old = *c;
            let new = if cur >= base {
                old.saturating_add(cur - base)
            } else {
                old.saturating_sub(base - cur)
            };
            *c = new;
            if old == 0 && new != 0 {
                self.n_distinct += 1;
            } else if old != 0 && new == 0 {
                self.n_distinct -= 1;
            }
            self.total = self.total.saturating_sub(old).saturating_add(new);
            self.sumsq = self
                .sumsq
                .saturating_sub(u128::from(old) * u128::from(old))
                .saturating_add(u128::from(new) * u128::from(new));
        }
        Ok(())
    }
}

impl crate::merge::Mergeable for FrequencyDist {
    /// Cellwise count addition with the moments recomputed from the
    /// merged cells in the same pass. The recomputation matters:
    /// `(f_a + f_b)² ≠ f_a² + f_b²`, so `Xsumsq` cannot merge by
    /// addition — but the merged cells determine it exactly, making the
    /// result bit-identical to a sequential pass over both streams.
    fn merge_from(&mut self, other: &Self) -> crate::error::Stat4Result<()> {
        if self.min != other.min || self.max != other.max {
            return Err(Stat4Error::MergeMismatch {
                what: "frequency domains",
            });
        }
        let mut n_distinct = 0u64;
        let mut total = 0u64;
        let mut sumsq = 0u128;
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            let f = c.saturating_add(*o);
            *c = f;
            if f != 0 {
                n_distinct += 1;
            }
            total = total.saturating_add(f);
            sumsq += u128::from(f) * u128::from(f);
        }
        self.n_distinct = n_distinct;
        self.total = total;
        self.sumsq = sumsq;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn invalid_domains_rejected() {
        assert!(matches!(
            FrequencyDist::new(10, 5),
            Err(Stat4Error::InvalidDomain { .. })
        ));
        assert!(matches!(
            FrequencyDist::new(0, i64::MAX),
            Err(Stat4Error::InvalidDomain { .. })
        ));
    }

    #[test]
    fn empty_distribution() {
        let d = FrequencyDist::new(-255, 255).unwrap();
        assert_eq!(d.n_distinct(), 0);
        assert_eq!(d.xsum(), 0);
        assert_eq!(d.xsumsq(), 0);
        assert_eq!(d.variance_nx(), 0);
        assert_eq!(d.counts().len(), 511);
    }

    #[test]
    fn out_of_domain_rejected() {
        let mut d = FrequencyDist::new(0, 10).unwrap();
        assert!(matches!(
            d.observe(11),
            Err(Stat4Error::ValueOutOfDomain { .. })
        ));
        assert!(matches!(
            d.observe(-1),
            Err(Stat4Error::ValueOutOfDomain { .. })
        ));
        assert_eq!(d.frequency(11), 0);
    }

    #[test]
    fn moments_track_by_hand() {
        let mut d = FrequencyDist::new(0, 10).unwrap();
        d.observe(3).unwrap();
        d.observe(3).unwrap();
        d.observe(7).unwrap();
        // frequencies: {3: 2, 7: 1} -> N = 2, Xsum = 3, Xsumsq = 4 + 1 = 5.
        assert_eq!(d.n_distinct(), 2);
        assert_eq!(d.xsum(), 3);
        assert_eq!(d.xsumsq(), 5);
        // var(NX) = 2*5 - 9 = 1.
        assert_eq!(d.variance_nx(), 1);
    }

    #[test]
    fn negative_domain_works() {
        let mut d = FrequencyDist::new(-255, 255).unwrap();
        d.observe(-255).unwrap();
        d.observe(255).unwrap();
        d.observe(0).unwrap();
        d.observe(-255).unwrap();
        assert_eq!(d.frequency(-255), 2);
        assert_eq!(d.frequency(255), 1);
        assert_eq!(d.n_distinct(), 3);
        assert_eq!(d.xsum(), 4);
    }

    #[test]
    fn counts_by_cell() {
        let mut d = FrequencyDist::new(-2, 2).unwrap();
        d.observe(-2).unwrap();
        d.observe(2).unwrap();
        d.observe(2).unwrap();
        assert_eq!(d.counts(), &[1, 0, 0, 0, 2]);
    }

    /// A cell pinned at `u64::MAX` must saturate, not wrap (release) or
    /// panic (debug): wrapping to 0 would silently corrupt `n_distinct`.
    #[test]
    fn observe_saturates_at_counter_ceiling() {
        let mut d = FrequencyDist::from_raw_counts(0, vec![u64::MAX, 3]).unwrap();
        let (n, total) = (d.n_distinct(), d.xsum());
        d.observe(0).unwrap();
        assert_eq!(d.frequency(0), u64::MAX, "count pins at the ceiling");
        assert_eq!(d.n_distinct(), n, "a pinned cell stays distinct");
        assert_eq!(d.xsum(), total, "total already saturated");
    }

    /// `total` saturates independently of any single cell.
    #[test]
    fn total_saturates() {
        let mut d = FrequencyDist::from_raw_counts(0, vec![u64::MAX - 1, 1]).unwrap();
        assert_eq!(d.xsum(), u64::MAX, "sum of cells saturates");
        d.observe(1).unwrap();
        assert_eq!(d.xsum(), u64::MAX);
        assert_eq!(d.frequency(1), 2, "the cell itself is still exact");
    }

    #[test]
    fn from_raw_counts_matches_observes() {
        let mut a = FrequencyDist::new(0, 3).unwrap();
        for v in [0, 1, 1, 3, 3, 3] {
            a.observe(v).unwrap();
        }
        let b = FrequencyDist::from_raw_counts(0, vec![1, 2, 0, 3]).unwrap();
        assert_eq!(a, b);
        assert!(FrequencyDist::from_raw_counts(0, vec![]).is_err());
    }

    #[test]
    fn reset_clears() {
        let mut d = FrequencyDist::new(0, 5).unwrap();
        d.observe(1).unwrap();
        d.reset();
        assert_eq!(d.xsum(), 0);
        assert_eq!(d.n_distinct(), 0);
        assert_eq!(d.frequency(1), 0);
    }

    proptest! {
        /// The incremental moments always equal a batch recomputation
        /// from the counters.
        #[test]
        fn incremental_equals_batch(values in proptest::collection::vec(-50i64..=50, 0..500)) {
            let mut d = FrequencyDist::new(-50, 50).unwrap();
            for v in &values {
                d.observe(*v).unwrap();
            }
            let mut batch = crate::RunningStats::new();
            for &f in d.counts().iter().filter(|&&f| f != 0) {
                batch.push(f as i64);
            }
            prop_assert_eq!(d.n_distinct(), batch.n());
            prop_assert_eq!(d.xsum() as i64, batch.xsum());
            prop_assert_eq!(d.xsumsq(), batch.xsumsq() as u128);
            prop_assert_eq!(d.variance_nx(), batch.variance_nx());
        }

        /// Xsum always equals the number of observations and n_distinct
        /// never exceeds the domain size.
        #[test]
        fn counting_invariants(values in proptest::collection::vec(-10i64..=10, 0..300)) {
            let mut d = FrequencyDist::new(-10, 10).unwrap();
            for v in &values {
                d.observe(*v).unwrap();
            }
            prop_assert_eq!(d.xsum(), values.len() as u64);
            prop_assert!(d.n_distinct() as usize <= d.counts().len());
        }
    }
}
