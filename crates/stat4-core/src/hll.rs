//! Integer HyperLogLog cardinality estimation.
//!
//! The paper's aggregates (moments, percentiles, sketches) all measure
//! *how much* traffic flows; none measure *how many distinct* entities
//! send it. A spoofed-source sweep keeps every volume counter flat
//! while the number of distinct sources explodes — the signal
//! Turkovic et al.'s heavy-hitter work motivates tracking alongside
//! the paper's statistics. HyperLogLog closes that gap with data-plane
//! legal per-packet work: hash, shift, compare, max — one `u8` register
//! update per packet, no division, no floats.
//!
//! The *estimator* runs at the controller (like every division in this
//! repo) but still in pure integer arithmetic: the harmonic sum
//! `Σ 2^-reg` is computed as `Σ (2^32 >> reg)` in Q32, the bias
//! constant α is Q16, and the small-range linear-counting correction
//! `m·ln(m/V)` uses an integer `atanh`-series logarithm.
//!
//! Registers merge by cellwise `max`, which is commutative, associative
//! and idempotent — any partition of a stream folds back to the
//! sequential register file exactly, so sharded replay stays
//! bit-identical at every shard count.
//!
//! The two sums the estimator reads (the Q32 harmonic sum and the count
//! of zero registers) are kept beside the registers. [`HyperLogLog::new`],
//! `reset`, `merge_from` and [`HyperLogLog::from_registers`] set them,
//! and `apply_delta` updates them per risen register, so on a sketch
//! that has not observed since then — a coordinator's accumulator, which
//! only ever resets and applies deltas — [`HyperLogLog::estimate`] is
//! O(1). `observe` only marks them stale, and the estimate of a sketch
//! that has observed since scans the `2^precision` registers.

use crate::delta::{DeltaMergeable, DirtyJournal, HllDelta};
use crate::error::{Stat4Error, Stat4Result};
use crate::merge::Mergeable;

/// A HyperLogLog sketch with `2^precision` one-byte registers.
#[derive(Debug, Clone)]
pub struct HyperLogLog {
    precision: u32,
    registers: Vec<u8>,
    /// Registers that rose since the last `take_delta`; not part of the
    /// sketch's identity (excluded from eq).
    journal: DirtyJournal,
    /// `Σ 2^-reg` in Q32 and the zero-register count, both functions of
    /// `registers` and valid unless `sums_stale`; derived, so not part
    /// of identity or of the codec.
    harmonic_q32: u64,
    zeros: u64,
    /// Set by `observe`, which raises registers without keeping the sums.
    sums_stale: bool,
}

/// `2^-rank` in Q32. A rank is at most 61, so the shift is in range.
#[inline]
fn inv_pow2_q32(rank: u8) -> u64 {
    (1u64 << 32) >> u32::from(rank)
}

/// The harmonic sum and zero count of `registers`, by a full scan.
fn scan_sums(registers: &[u8]) -> (u64, u64) {
    registers.iter().fold((0, 0), |(harmonic, zeros), &r| {
        (harmonic + inv_pow2_q32(r), zeros + u64::from(r == 0))
    })
}

/// Equality is over the register file only — the dirty journal and the
/// cached sums are bookkeeping, not identity.
impl PartialEq for HyperLogLog {
    fn eq(&self, other: &Self) -> bool {
        self.precision == other.precision && self.registers == other.registers
    }
}

impl Eq for HyperLogLog {}

/// ln(2) in Q16.
const LN2_Q16: u64 = 45_426;

/// Integer `ln(num/den)` in Q16 for `num ≥ den ≥ 1`: range-reduce by
/// powers of two (`ln(r) = k·ln2 + ln(r/2^k)` with the residual ratio
/// in `[1, 2)`), then the `ln(1+x) = 2·atanh(x/(2+x))` series. The
/// reduced series argument stays below 1/3, so four odd terms leave a
/// truncation error under 3 Q16 ulps.
#[must_use]
fn ln_ratio_q16(num: u64, den: u64) -> u64 {
    debug_assert!(num >= den && den >= 1);
    let k = (num / den).ilog2();
    let den = den << k;
    let d = num - den;
    let series = if d == 0 {
        0
    } else {
        let z = (d << 16) / (2 * den + d);
        let z2 = (z * z) >> 16;
        let z3 = (z2 * z) >> 16;
        let z5 = (z3 * z2) >> 16;
        let z7 = (z5 * z2) >> 16;
        2 * (z + z3 / 3 + z5 / 5 + z7 / 7)
    };
    u64::from(k) * LN2_Q16 + series
}

/// [`HyperLogLog::estimate`] of a file of `m` registers with harmonic
/// sum `harmonic_q32` (Q32) and `zeros` zero registers.
#[must_use]
fn estimate_from_sums(m: u64, harmonic_q32: u64, zeros: u64) -> u64 {
    if harmonic_q32 == 0 {
        // Every register saturated: report the estimator's ceiling.
        return u64::MAX;
    }
    // α in Q16: the small-m constants, then 0.7213/(1 + 1.079/m).
    let alpha_q16: u128 = match m {
        16 => 44_102,
        32 => 45_675,
        64 => 46_461,
        _ => (47_273u128 * 1000 * m as u128) / (1000 * m as u128 + 1079),
    };
    let raw = (((alpha_q16 * (m as u128) * (m as u128)) << 32)
        / (harmonic_q32 as u128))
        >> 16;
    if zeros > 0 && raw * 2 <= 5 * m as u128 {
        // Linear counting: m · ln(m / V).
        (m * ln_ratio_q16(m, zeros)) >> 16
    } else {
        raw.min(u64::MAX as u128) as u64
    }
}

impl HyperLogLog {
    /// Creates a sketch with `2^precision` registers. The standard
    /// error is `1.04 / sqrt(2^precision)` — precision 10 (1 KiB of
    /// registers) gives ±3.3%.
    ///
    /// # Errors
    ///
    /// [`Stat4Error::InvalidDomain`] unless `4 ≤ precision ≤ 16`.
    pub fn new(precision: u32) -> Stat4Result<Self> {
        if !(4..=16).contains(&precision) {
            return Err(Stat4Error::InvalidDomain {
                min: 4,
                max: 16,
            });
        }
        Ok(Self::with_registers(precision, vec![0; 1 << precision]))
    }

    /// A sketch over a checked register file, with its sums computed
    /// and an empty journal over the whole file.
    fn with_registers(precision: u32, registers: Vec<u8>) -> Self {
        let (harmonic_q32, zeros) = scan_sums(&registers);
        let journal = DirtyJournal::over(registers.len());
        Self {
            precision,
            registers,
            journal,
            harmonic_q32,
            zeros,
            sums_stale: false,
        }
    }

    /// Rebuilds a sketch from a previously exported register file
    /// (`precision()`, `registers()`), as a crash-recovery checkpoint
    /// does.
    ///
    /// # Errors
    ///
    /// [`Stat4Error::InvalidDomain`] for an out-of-range precision, a
    /// register file of the wrong length, or a register value above the
    /// maximum rank `64 − precision + 1`.
    pub fn from_registers(precision: u32, registers: Vec<u8>) -> Stat4Result<Self> {
        if !(4..=16).contains(&precision)
            || registers.len() != 1 << precision
            || registers
                .iter()
                .any(|&r| u32::from(r) > 64 - precision + 1)
        {
            return Err(Stat4Error::InvalidDomain { min: 4, max: 16 });
        }
        Ok(Self::with_registers(precision, registers))
    }

    /// Register-file precision (log2 of the register count).
    #[must_use]
    pub fn precision(&self) -> u32 {
        self.precision
    }

    /// Observes one key: the data-plane path. Hash, take the top
    /// `precision` bits as the register index, count the leading zeros
    /// of the rest, keep the max — all P4-expressible.
    // Always inlined: `replay::ShardState::ingest_meta` calls this per
    // frame, and with plain `#[inline]` LLVM's cost model took the call
    // back out of line as soon as that crate had a second caller.
    #[inline(always)]
    pub fn observe(&mut self, key: u64) {
        let h = crate::splitmix64(key);
        let idx = (h >> (64 - self.precision)) as usize;
        // Rank of the remaining 64−p bits: leading zeros + 1, with the
        // all-zero suffix pinned to its maximum rank.
        let rest = h << self.precision;
        let rank = if rest == 0 {
            (64 - self.precision + 1) as u8
        } else {
            (rest.leading_zeros() + 1) as u8
        };
        if rank > self.registers[idx] {
            self.journal.mark(idx, u64::from(self.registers[idx]));
            self.registers[idx] = rank;
            self.sums_stale = true;
        }
    }

    /// The harmonic sum and zero count: the kept ones, or a scan if
    /// `observe` has raised a register since they were last set.
    fn sums(&self) -> (u64, u64) {
        if self.sums_stale {
            scan_sums(&self.registers)
        } else {
            (self.harmonic_q32, self.zeros)
        }
    }

    /// Raw register file (oldest-fashioned debugging aid and the
    /// float-oracle hook for tests).
    #[must_use]
    pub fn registers(&self) -> &[u8] {
        &self.registers
    }

    /// Integer cardinality estimate (controller-side).
    ///
    /// Harmonic-mean estimate `α·m²/Σ2^-reg` with the classic
    /// small-range linear-counting correction `m·ln(m/V)` when the raw
    /// estimate is below `5m/2` and some register is still zero. All
    /// arithmetic is integer: Q32 harmonic sum, Q16 α, Q16 series log.
    /// O(1) unless the sketch has observed since its sums were last set
    /// (module doc).
    #[must_use]
    pub fn estimate(&self) -> u64 {
        let (harmonic_q32, zeros) = self.sums();
        estimate_from_sums(self.registers.len() as u64, harmonic_q32, zeros)
    }

    /// Clears every register, as the switch does when the controller
    /// rebinds the register block at an interval boundary (and re-bases
    /// the dirty journal: a reset sketch has nothing to ship).
    pub fn reset(&mut self) {
        self.registers.fill(0);
        self.journal.clear();
        let m = self.registers.len() as u64;
        (self.harmonic_q32, self.zeros, self.sums_stale) = (m << 32, m, false);
    }
}

impl DeltaMergeable for HyperLogLog {
    type Delta = HllDelta;

    fn take_delta_into(&mut self, delta: &mut HllDelta) {
        let registers = &self.registers;
        delta.regs.clear();
        // Registers only rise between resets, so the current rank alone
        // is the delta: max-merge needs no base.
        delta.regs.extend(
            self.journal
                .drain()
                .map(|(idx, _base)| (idx, registers[idx as usize])),
        );
    }

    /// Maxes the risen registers in — commutative, associative and
    /// idempotent like the full merge, hence exact unconditionally — and
    /// moves the kept sums by each register that rose.
    fn apply_delta(&mut self, delta: &HllDelta) -> Stat4Result<()> {
        for &(idx, rank) in &delta.regs {
            let r = self
                .registers
                .get_mut(idx as usize)
                .ok_or(Stat4Error::MergeMismatch {
                    what: "hyperloglog precisions",
                })?;
            if rank > *r {
                if !self.sums_stale {
                    self.harmonic_q32 = self.harmonic_q32 - inv_pow2_q32(*r) + inv_pow2_q32(rank);
                    self.zeros -= u64::from(*r == 0);
                }
                *r = rank;
            }
        }
        Ok(())
    }
}

impl Mergeable for HyperLogLog {
    fn merge_from(&mut self, other: &Self) -> Stat4Result<()> {
        if self.precision != other.precision {
            return Err(Stat4Error::MergeMismatch {
                what: "hyperloglog precisions",
            });
        }
        for (a, b) in self.registers.iter_mut().zip(&other.registers) {
            *a = (*a).max(*b);
        }
        (self.harmonic_q32, self.zeros) = scan_sums(&self.registers);
        self.sums_stale = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_rng;
    use proptest::prelude::*;
    use rand::Rng;
    use std::collections::HashSet;

    /// The float reference estimator over the same register file.
    fn float_estimate(h: &HyperLogLog) -> f64 {
        let m = h.registers().len() as f64;
        let sum: f64 = h.registers().iter().map(|r| 2f64.powi(-i32::from(*r))).sum();
        let alpha = match h.registers().len() {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            _ => 0.7213 / (1.0 + 1.079 / m),
        };
        let raw = alpha * m * m / sum;
        let zeros = h.sums().1 as f64;
        if zeros > 0.0 && raw <= 2.5 * m {
            m * (m / zeros).ln()
        } else {
            raw
        }
    }

    /// The harmonic sum and zero count by a scan of `registers()`, as
    /// the estimator computed them on every call before it kept them.
    fn full_scan(h: &HyperLogLog) -> (u64, u64) {
        let harmonic = h
            .registers()
            .iter()
            .map(|r| (1u64 << 32) >> u32::from(*r))
            .sum();
        let zeros = h.registers().iter().filter(|r| **r == 0).count() as u64;
        (harmonic, zeros)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random interleavings of every mutation at the smallest, the
        /// replay's and the largest precision: after each step the
        /// estimate and the zero count read what a full scan reads, and
        /// so do the kept sums whenever they are not stale. One step
        /// saturates every register through `apply_delta`, where the
        /// harmonic sum is 0 and the estimate is the ceiling.
        #[test]
        fn kept_sums_match_a_full_scan(
            precision_idx in 0usize..3,
            ops in proptest::collection::vec((0u8..6, any::<u64>()), 1..24),
        ) {
            let p = [4u32, 10, 16][precision_idx];
            let max_rank = 64 - p + 1;
            let mut h = HyperLogLog::new(p).unwrap();
            let mut other = HyperLogLog::new(p).unwrap();
            let mut delta = HllDelta::default();
            let burst = |t: &mut HyperLogLog, x: u64| {
                for k in 0..=x % 32 {
                    t.observe(x ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                }
            };
            for &(op, x) in &ops {
                match op {
                    0 => burst(&mut h, x),
                    1 => {
                        burst(&mut other, x);
                        other.take_delta_into(&mut delta);
                        h.apply_delta(&delta).unwrap();
                    }
                    2 => h.merge_from(&other).unwrap(),
                    3 => h.reset(),
                    4 => h = HyperLogLog::from_registers(p, h.registers().to_vec()).unwrap(),
                    _ => {
                        // Every register to a rank whose 2^-rank is 0 in Q32.
                        delta.regs.clear();
                        delta.regs.extend((0..1u32 << p).map(|i| {
                            (i, (33 + (x.wrapping_add(u64::from(i))) % u64::from(max_rank - 32)) as u8)
                        }));
                        h.apply_delta(&delta).unwrap();
                        prop_assert_eq!(h.estimate(), u64::MAX);
                    }
                }
                let (harmonic, zeros) = full_scan(&h);
                prop_assert_eq!(h.estimate(), estimate_from_sums(1 << p, harmonic, zeros));
                prop_assert_eq!(h.sums().1, zeros);
                if !h.sums_stale {
                    prop_assert_eq!((h.harmonic_q32, h.zeros), (harmonic, zeros));
                }
            }
        }
    }

    #[test]
    fn precision_bounds_enforced() {
        assert!(HyperLogLog::new(3).is_err());
        assert!(HyperLogLog::new(17).is_err());
        assert_eq!(HyperLogLog::new(10).unwrap().registers().len(), 1024);
    }

    #[test]
    fn empty_estimates_zero() {
        assert_eq!(HyperLogLog::new(10).unwrap().estimate(), 0);
    }

    #[test]
    fn duplicate_keys_do_not_inflate() {
        let mut h = HyperLogLog::new(10).unwrap();
        for _ in 0..100_000 {
            h.observe(42);
        }
        assert!(h.estimate() <= 2, "one key: {}", h.estimate());
    }

    #[test]
    fn small_exact_range_is_tight() {
        let mut h = HyperLogLog::new(10).unwrap();
        for k in 0..64u64 {
            h.observe(k);
        }
        let e = h.estimate() as i64;
        assert!((e - 64).abs() <= 6, "linear counting near-exact: {e}");
    }

    #[test]
    fn ln_ratio_matches_float() {
        for (num, den) in [(1024u64, 1024u64), (1024, 1000), (1024, 512), (1024, 100), (4096, 336)] {
            let want = (num as f64 / den as f64).ln();
            let got = ln_ratio_q16(num, den) as f64 / 65536.0;
            assert!(
                (got - want).abs() <= 0.02 * want.max(0.01),
                "ln({num}/{den}): int {got} float {want}"
            );
        }
    }

    #[test]
    fn from_registers_round_trips() {
        let mut h = HyperLogLog::new(8).unwrap();
        for k in 0..5_000u64 {
            h.observe(k.wrapping_mul(0x9e37_79b9));
        }
        let restored = HyperLogLog::from_registers(h.precision(), h.registers().to_vec()).unwrap();
        assert_eq!(restored, h);
        assert_eq!(restored.estimate(), h.estimate());
    }

    #[test]
    fn from_registers_rejects_bad_state() {
        assert!(HyperLogLog::from_registers(3, vec![0; 8]).is_err());
        assert!(HyperLogLog::from_registers(8, vec![0; 7]).is_err());
        assert!(HyperLogLog::from_registers(8, vec![64; 256]).is_err());
    }

    #[test]
    fn merge_of_another_precision_rejected() {
        let mut a = HyperLogLog::new(10).unwrap();
        let b = HyperLogLog::new(12).unwrap();
        assert!(matches!(
            a.merge_from(&b),
            Err(Stat4Error::MergeMismatch { what: "hyperloglog precisions" })
        ));
    }

    #[test]
    fn reset_clears() {
        let mut h = HyperLogLog::new(8).unwrap();
        for k in 0..1000u64 {
            h.observe(k);
        }
        h.reset();
        assert_eq!(h.estimate(), 0);
        assert_eq!(h.sums().1, 256);
    }

    proptest! {
        /// Uniform streams: estimate within ±15% of the true distinct
        /// count (4.6σ of the p=10 standard error) plus small-range
        /// slack.
        #[test]
        fn uniform_relative_error_bounded(seed in 0u64..200, n in 1usize..30_000) {
            let mut r = test_rng(seed);
            let mut h = HyperLogLog::new(10).unwrap();
            let mut truth = HashSet::new();
            for _ in 0..n {
                let k: u64 = r.random::<u64>() % (4 * n as u64);
                truth.insert(k);
                h.observe(k);
            }
            let est = h.estimate() as f64;
            let t = truth.len() as f64;
            prop_assert!(
                (est - t).abs() <= 0.15 * t + 4.0,
                "n={} truth={} est={}", n, t, est
            );
        }

        /// Zipf streams (heavy duplication) obey the same bound.
        #[test]
        fn zipf_relative_error_bounded(seed in 0u64..200, n in 100usize..30_000) {
            let mut r = test_rng(seed);
            let mut h = HyperLogLog::new(10).unwrap();
            let mut truth = HashSet::new();
            for _ in 0..n {
                // Inverse-CDF Zipf(s≈1.2) over a large id space.
                let u: f64 = r.random::<f64>().max(1e-12);
                let k = u.powf(-1.0 / 1.2).min(1e9) as u64;
                truth.insert(k);
                h.observe(k);
            }
            let est = h.estimate() as f64;
            let t = truth.len() as f64;
            prop_assert!(
                (est - t).abs() <= 0.15 * t + 4.0,
                "n={} truth={} est={}", n, t, est
            );
        }

        /// The integer estimator tracks the float reference estimator
        /// (same registers) within 3%.
        #[test]
        fn integer_estimator_matches_float_reference(
            seed in 0u64..100,
            n in 1usize..20_000,
        ) {
            let mut r = test_rng(seed);
            let mut h = HyperLogLog::new(10).unwrap();
            for _ in 0..n {
                h.observe(r.random::<u64>() % (2 * n as u64 + 1));
            }
            let int_e = h.estimate() as f64;
            let float_e = float_estimate(&h);
            prop_assert!(
                (int_e - float_e).abs() <= 0.03 * float_e + 2.0,
                "int {} float {}", int_e, float_e
            );
        }

        /// Any 2/4/8-way partition of a stream merges back to the
        /// sequential register file bit-for-bit.
        #[test]
        fn merge_is_partition_invariant(
            keys in proptest::collection::vec(0u64..5_000, 1..2_000),
            parts_pow in 1u32..4,
        ) {
            let parts = 1usize << parts_pow;
            let mut seq = HyperLogLog::new(8).unwrap();
            for k in &keys {
                seq.observe(*k);
            }
            let mut shards: Vec<HyperLogLog> =
                (0..parts).map(|_| HyperLogLog::new(8).unwrap()).collect();
            for (i, k) in keys.iter().enumerate() {
                shards[i % parts].observe(*k);
            }
            let mut merged = shards.remove(0);
            for s in &shards {
                merged.merge_from(s).unwrap();
            }
            prop_assert_eq!(merged, seq);
        }
    }
}
