//! Log-linear histogram bucketed by the paper's MSB decomposition.
//!
//! The bucket index of a value is
//! [`stat4_core::isqrt::log_linear_bucket`]: exponent (MSB position)
//! concatenated with the top `m` mantissa bits — the same
//! exponent‖mantissa bit string the approximate square root of Figure 2
//! halves. Values below `2^m` get exact unit buckets; above, the
//! relative bucket width is `2^-m`, so quantiles read from the
//! histogram are within one bucket width of the exact sample quantile
//! (asserted by `tests/histogram.rs`).
//!
//! Recording is one bucket index (shifts and masks), three adds and no
//! allocation — hot-path safe. Per-shard histograms fold at epoch
//! barriers via [`Mergeable`]: cellwise count addition, which is
//! bit-identical to single-shard recording for any traffic partition.

use crate::json::{At, FromJson, Lexer, Sparse, ToJson};
use crate::json_struct;
use stat4_core::isqrt::{log_linear_bucket, log_linear_bucket_count, log_linear_lower_bound};
use stat4_core::{Mergeable, Stat4Error, Stat4Result};

/// Default mantissa bits: 8 sub-buckets per power of two, ≤ 12.5%
/// relative bucket width.
pub(crate) const DEFAULT_MANTISSA_BITS: u32 = 3;

/// A fixed-size log-linear histogram over `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogLinearHistogram {
    mantissa_bits: u32,
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogLinearHistogram {
    fn default() -> Self {
        Self::new(DEFAULT_MANTISSA_BITS)
    }
}

impl LogLinearHistogram {
    /// A histogram with `2^mantissa_bits` sub-buckets per octave.
    /// The bucket array covers all of `u64` (for `m = 3`: 504 cells).
    ///
    /// # Panics
    ///
    /// Panics if `mantissa_bits >= 16` (bucket array would be absurd).
    #[must_use]
    pub fn new(mantissa_bits: u32) -> Self {
        assert!(mantissa_bits < 16, "mantissa_bits {mantissa_bits} too large");
        Self {
            mantissa_bits,
            buckets: vec![0; log_linear_bucket_count(mantissa_bits)],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample. Allocation-free.
    pub fn record(&mut self, v: u64) {
        self.buckets[log_linear_bucket(v, self.mantissa_bits)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples.
    #[must_use]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest recorded sample (`None` when empty).
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample (`None` when empty).
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sub-bucket resolution.
    #[must_use]
    pub fn mantissa_bits(&self) -> u32 {
        self.mantissa_bits
    }

    /// Mean of the recorded samples (`None` when empty).
    #[must_use]
    pub fn mean(&self) -> Option<u64> {
        (self.count > 0).then(|| (self.sum / u128::from(self.count)) as u64)
    }

    /// Inclusive value range `[lo, hi]` of bucket `idx`.
    #[must_use]
    pub(crate) fn bucket_range(&self, idx: usize) -> (u64, u64) {
        let lo = log_linear_lower_bound(idx, self.mantissa_bits);
        let hi = log_linear_lower_bound(idx + 1, self.mantissa_bits);
        (lo, hi.saturating_sub(u64::from(hi != u64::MAX)))
    }

    /// Non-empty buckets as `(index, count)` pairs, ascending.
    pub(crate) fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Nearest-rank `p`-th percentile estimate (`0 < p <= 100`): the
    /// inclusive upper bound of the bucket where the cumulative count
    /// reaches `ceil(p/100 · count)`. `None` when empty.
    ///
    /// The estimate lands in the same bucket as the exact sample
    /// quantile, i.e. within one bucket width (`2^-m` relative).
    #[must_use]
    pub fn quantile(&self, p: u32) -> Option<u64> {
        assert!((1..=100).contains(&p), "percentile {p} out of range");
        if self.count == 0 {
            return None;
        }
        let target = (u128::from(self.count) * u128::from(p)).div_ceil(100) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Some(self.bucket_range(i).1.min(self.max));
            }
        }
        Some(self.max)
    }
}

/// The full recorded state: non-empty buckets as `[index, count]`
/// pairs plus the four scalars (the `u128` sum as a decimal string).
struct HistState {
    buckets: Vec<u64>,
    count: u64,
    sum: String,
    min: Option<u64>,
    max: Option<u64>,
}

// The document does not carry a resolution: every histogram whose
// state is stored is built by `default()`.
json_struct!(HistState { buckets: Sparse(log_linear_bucket_count(DEFAULT_MANTISSA_BITS)), count, sum, min, max });

impl ToJson for LogLinearHistogram {
    fn write_json(&self, out: &mut String) {
        let (buckets, count, sum) = (self.buckets.clone(), self.count, self.sum.to_string());
        HistState { buckets, count, sum, min: self.min(), max: self.max() }.write_json(out);
    }
}

/// Reads the state back exactly, into a histogram of the default
/// resolution. Refused: a bucket index outside the histogram, bucket
/// counts that do not add up to `count`, extrema that contradict it.
impl FromJson for LogLinearHistogram {
    fn read_json(lx: &mut Lexer<'_>, at: At<'_>) -> Result<Self, String> {
        let HistState { buckets, count, sum, min, max } = HistState::read_json(lx, at)?;
        let total: u128 = buckets.iter().map(|&c| u128::from(c)).sum();
        if total != u128::from(count) {
            return Err(at.err(format_args!("buckets hold {total} samples, \"count\" says {count}")));
        }
        let sum = sum
            .parse::<u128>()
            .map_err(|_| At::Key(&at, "sum").err("not a decimal integer in a string"))?;
        let extrema_fit = match (min, max) {
            (None, None) => count == 0,
            (Some(lo), Some(hi)) => count > 0 && lo <= hi,
            _ => false,
        };
        if !extrema_fit {
            return Err(at.err(format_args!("\"min\"/\"max\" contradict a count of {count}")));
        }
        Ok(Self {
            mantissa_bits: DEFAULT_MANTISSA_BITS,
            buckets,
            count,
            sum,
            min: min.unwrap_or(u64::MAX),
            max: max.unwrap_or(0),
        })
    }
}

impl Mergeable for LogLinearHistogram {
    /// Cellwise count addition — bit-identical to single-shard
    /// recording of the combined sample stream.
    fn merge_from(&mut self, other: &Self) -> Stat4Result<()> {
        if self.mantissa_bits != other.mantissa_bits {
            return Err(Stat4Error::MergeMismatch {
                what: "histogram mantissa bits",
            });
        }
        for (d, s) in self.buckets.iter_mut().zip(&other.buckets) {
            *d += s;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_reports() {
        let mut h = LogLinearHistogram::new(2);
        for v in [1u64, 2, 3, 100, 106, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1212);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(1000));
        assert_eq!(h.mean(), Some(202));
        assert!(!h.is_empty());
    }

    #[test]
    fn empty_has_no_quantile() {
        let h = LogLinearHistogram::default();
        assert!(h.quantile(50).is_none());
        assert!(h.min().is_none());
        assert!(h.max().is_none());
    }

    #[test]
    fn quantile_of_point_mass_is_exactish() {
        let mut h = LogLinearHistogram::new(3);
        for _ in 0..1000 {
            h.record(5000);
        }
        // Bucket upper bound is >= 5000, capped at the observed max.
        assert_eq!(h.quantile(50), Some(5000));
    }

    #[test]
    fn mismatched_resolution_rejected() {
        let mut a = LogLinearHistogram::new(2);
        let b = LogLinearHistogram::new(3);
        assert!(matches!(
            a.merge_from(&b),
            Err(Stat4Error::MergeMismatch { .. })
        ));
    }

    #[test]
    fn bucket_range_is_inclusive_and_contiguous() {
        let h = LogLinearHistogram::new(3);
        let mut prev_hi = None;
        for idx in 0..64 {
            let (lo, hi) = h.bucket_range(idx);
            assert!(lo <= hi);
            if let Some(p) = prev_hi {
                assert_eq!(lo, p + 1, "bucket {idx} not contiguous");
            }
            prev_hi = Some(hi);
        }
    }

    #[test]
    fn state_round_trips_exactly_and_rejects_inconsistency() {
        use crate::json::{read, write};
        let root = At::Root("$");
        let mut h = LogLinearHistogram::default();
        assert_eq!(read::<LogLinearHistogram>(&write(&h), root).unwrap(), h);
        for v in [0u64, 7, 7, 10_000_000, u64::MAX / 3, u64::MAX - 1] {
            h.record(v);
        }
        let text = write(&h);
        let back = read::<LogLinearHistogram>(&text, root).unwrap();
        assert_eq!(back, h);
        assert_eq!(write(&back), text);

        for (from, to) in [
            ("\"count\":6", "\"count\":7"),
            ("[0,1]", "[9999,1]"),
            ("\"min\":0", "\"min\":null"),
            ("\"sum\":\"", "\"sum\":\"x"),
        ] {
            let bad = text.replace(from, to);
            assert_ne!(bad, text, "{from} must hit");
            let at = At::Key(&root, "h");
            let err = read::<LogLinearHistogram>(&bad, at).unwrap_err();
            assert!(err.starts_with("$.h"), "{err}");
        }
    }
}

// Log-linear histogram conformance: bucket boundaries are the isqrt
// MSB decomposition, quantiles are within one bucket width of exact,
// and the `Mergeable` fold is bit-identical to single-shard
// recording.
#[cfg(test)]
mod conformance {
    use proptest::prelude::*;
    use stat4_core::isqrt::{log_linear_bucket, log_linear_lower_bound, msb_decompose};
    use stat4_core::Mergeable;
    use crate::LogLinearHistogram;

    /// Bucket boundaries match the MSB exponent/mantissa decomposition the
    /// approximate isqrt halves: every bucket's lower bound re-materialises
    /// the (exponent ‖ mantissa) bit string, and values sharing a
    /// decomposition share a bucket.
    #[test]
    fn bucket_boundaries_match_isqrt_decomposition() {
        for m in [0u32, 2, 3, 6] {
            let h = LogLinearHistogram::new(m);
            for y in (0u64..4096).chain([1 << 20, u64::MAX / 3, u64::MAX]) {
                let b = log_linear_bucket(y, m);
                let (lo, hi) = h.bucket_range(b);
                assert!(lo <= y && y <= hi, "m={m} y={y} outside [{lo},{hi}]");
                if y >= (1u64 << m) {
                    // Above the linear region the lower bound has the same
                    // decomposition as y: same exponent class, same top
                    // mantissa bits.
                    let (e_y, f_y) = msb_decompose(y, m);
                    let (e_lo, f_lo) = msb_decompose(lo, m);
                    assert_eq!((e_y, f_y), (e_lo, f_lo), "m={m} y={y} lo={lo}");
                    // And the bucket index is literally that bit string.
                    let expect = (((u64::from(e_y) - u64::from(m) + 1) << m) + f_y) as usize;
                    assert_eq!(b, expect, "m={m} y={y}");
                } else {
                    assert_eq!((lo, hi), (y, y), "linear region is exact");
                }
            }
        }
    }

    /// The histogram records into exactly the bucket the decomposition
    /// names — observed via nonzero_buckets.
    #[test]
    fn record_lands_in_decomposition_bucket() {
        let m = 3;
        let mut h = LogLinearHistogram::new(m);
        let values = [0u64, 1, 7, 8, 106, 1000, 123_456_789];
        for &v in &values {
            h.record(v);
        }
        let got: Vec<usize> = h.nonzero_buckets().map(|(i, _)| i).collect();
        let mut expect: Vec<usize> = values.iter().map(|&v| log_linear_bucket(v, m)).collect();
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(got, expect);
    }

    fn exact_nearest_rank(sorted: &[u64], p: u32) -> u64 {
        let rank = ((sorted.len() as u64) * u64::from(p)).div_ceil(100).max(1) as usize;
        sorted[rank.min(sorted.len()) - 1]
    }

    proptest! {
        /// Quantile estimates land in the same bucket as the exact sample
        /// quantile — i.e. within one bucket width (2^-m relative error).
        #[test]
        fn quantile_within_one_bucket(
            samples in proptest::collection::vec(any::<u64>(), 1..400),
            m in 1u32..7,
            p in 1u32..=100,
        ) {
            let mut h = LogLinearHistogram::new(m);
            for &s in &samples {
                h.record(s);
            }
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            let exact = exact_nearest_rank(&sorted, p);
            let est = h.quantile(p).expect("non-empty");
            let exact_bucket = log_linear_bucket(exact, m);
            let lo = log_linear_lower_bound(exact_bucket, m);
            let hi = log_linear_lower_bound(exact_bucket + 1, m);
            prop_assert!(
                est >= lo && (est < hi || hi == u64::MAX),
                "estimate {est} outside exact quantile's bucket [{lo},{hi}) (exact {exact}, p {p}, m {m})"
            );
        }

        /// Merging per-shard histograms equals single-shard recording of
        /// the full stream, bit for bit — the same conformance property the
        /// Stat4 trackers satisfy at epoch barriers.
        #[test]
        fn merge_equals_single_shard(
            tagged in proptest::collection::vec((any::<u64>(), 0usize..4), 0..400),
            m in 0u32..7,
        ) {
            let mut single = LogLinearHistogram::new(m);
            let mut shards: Vec<LogLinearHistogram> =
                (0..4).map(|_| LogLinearHistogram::new(m)).collect();
            for &(v, s) in &tagged {
                single.record(v);
                shards[s].record(v);
            }
            // Fold in both directions: merge must be order-free.
            let mut fwd = shards[0].clone();
            for s in &shards[1..] {
                fwd.merge_from(s).unwrap();
            }
            let mut rev = shards[3].clone();
            for s in shards[..3].iter().rev() {
                rev.merge_from(s).unwrap();
            }
            prop_assert_eq!(&fwd, &single);
            prop_assert_eq!(&rev, &single);
        }

        /// count/sum/min/max survive any merge partition.
        #[test]
        fn merged_moments_exact(
            tagged in proptest::collection::vec((any::<u64>(), 0usize..3), 1..200),
        ) {
            let mut shards: Vec<LogLinearHistogram> =
                (0..3).map(|_| LogLinearHistogram::default()).collect();
            for &(v, s) in &tagged {
                shards[s].record(v);
            }
            let mut merged = LogLinearHistogram::default();
            for s in &shards {
                merged.merge_from(s).unwrap();
            }
            let values: Vec<u64> = tagged.iter().map(|&(v, _)| v).collect();
            prop_assert_eq!(merged.count(), values.len() as u64);
            prop_assert_eq!(merged.sum(), values.iter().map(|&v| u128::from(v)).sum::<u128>());
            prop_assert_eq!(merged.min(), values.iter().min().copied());
            prop_assert_eq!(merged.max(), values.iter().max().copied());
        }
    }
}
