//! Cross-shard state merging.
//!
//! Real switches process traffic on multiple pipes, each with its own
//! register file; heavy-hitter and entropy detectors in the literature
//! all assume per-pipe state that is periodically reduced into a global
//! view. This module defines the [`Mergeable`] trait that makes that
//! reduce step explicit for every Stat4 tracker, together with the
//! merge rule each one satisfies:
//!
//! | tracker | merge rule | exactness |
//! |---|---|---|
//! | [`RunningStats`](crate::running::RunningStats) | `N`, `Xsum`, `Xsumsq` add | bit-identical to the sequential run (absent saturation) |
//! | [`FrequencyDist`](crate::freq::FrequencyDist) | cellwise count add, moments recomputed | bit-identical |
//! | [`CountMinSketch`](crate::sketch::CountMinSketch) | cellwise row add (same salts/width) | bit-identical for plain updates |
//! | [`QuantileCounts`](crate::percentile::QuantileCounts) | cellwise count add; quantiles read off the merged counts | bit-identical; each quantile exact at nearest rank |
//!
//! All four are *order-free*: their state is a sum over per-value
//! contributions, so any partition of the input stream across shards
//! merges back to exactly the state a single sequential pass would hold.
//! (`CountMinSketch::update_conservative` is the exception — conservative
//! update is order-dependent by design, so merged conservative sketches
//! keep the ≥-truth guarantee but not bit-equality; see the sketch docs.)
//!
//! Counts are merged and the quantile is read exactly; the marker walk
//! is the paper's per-packet tracker. A walked marker
//! ([`PercentileSet`](crate::percentile::PercentileSet)) encodes the path
//! it took, one step per packet, and two shards' markers cannot be
//! combined into the one a sequential run would hold, so it has no merge
//! rule. A distribution that is merged is kept as
//! [`QuantileCounts`](crate::percentile::QuantileCounts), whose quantile
//! is a function of the merged counts alone, the same for any shard
//! count.
//!
//! Full-state merges are O(state size) however sparse the interval's
//! traffic was. The [`crate::delta`] module layers sparse merging on
//! top of this trait ([`crate::delta::DeltaMergeable`]): trackers
//! journal the cells they touch, and a coordinator that already holds
//! the previous fold applies only those cells — same results (the table
//! above is preserved entry for entry), per-merge work proportional to
//! the traffic actually observed.

use crate::error::Stat4Result;

/// In-place merge of another shard's state into `self`.
///
/// Implementations must be **commutative and associative** on the state
/// observable through the type's public API, so that folding any number
/// of shards in any order produces one well-defined global state.
pub trait Mergeable {
    /// Absorbs `other` into `self`.
    ///
    /// # Errors
    ///
    /// [`crate::error::Stat4Error::MergeMismatch`] when the two trackers
    /// were configured incompatibly (different domains, sketch
    /// geometries, or quantile sets).
    fn merge_from(&mut self, other: &Self) -> Stat4Result<()>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Stat4Error;
    use crate::freq::FrequencyDist;
    use crate::percentile::{Quantile, QuantileCounts};
    use crate::running::RunningStats;
    use crate::sketch::CountMinSketch;
    use proptest::prelude::*;

    #[test]
    fn running_stats_merge_equals_sequential() {
        let xs = [3i64, -7, 100, 0, 42, 5];
        let mut seq = RunningStats::new();
        for x in xs {
            seq.push(x);
        }
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for (i, x) in xs.iter().enumerate() {
            if i % 2 == 0 { &mut a } else { &mut b }.push(*x);
        }
        a.merge_from(&b).unwrap();
        assert_eq!(a.n(), seq.n());
        assert_eq!(a.xsum(), seq.xsum());
        assert_eq!(a.xsumsq(), seq.xsumsq());
    }

    #[test]
    fn freq_merge_of_another_domain_rejected() {
        let mut a = FrequencyDist::new(0, 10).unwrap();
        let b = FrequencyDist::new(0, 11).unwrap();
        assert!(matches!(
            a.merge_from(&b),
            Err(Stat4Error::MergeMismatch { .. })
        ));
    }

    #[test]
    fn sketch_merge_of_another_geometry_rejected() {
        let mut a = CountMinSketch::new(4, 8);
        let b = CountMinSketch::new(3, 8);
        let c = CountMinSketch::new(4, 9);
        assert!(matches!(
            a.merge_from(&b),
            Err(Stat4Error::MergeMismatch { .. })
        ));
        assert!(matches!(
            a.merge_from(&c),
            Err(Stat4Error::MergeMismatch { .. })
        ));
    }

    #[test]
    fn percentile_merge_of_other_quantiles_rejected() {
        let mut a = QuantileCounts::new(0, 100, &[Quantile::median()]).unwrap();
        let b = QuantileCounts::new(0, 100, &[Quantile::percentile(90).unwrap()]).unwrap();
        assert!(matches!(
            a.merge_from(&b),
            Err(Stat4Error::MergeMismatch { .. })
        ));
    }

    /// Merging into an empty tracker is the identity on the other's
    /// observable state.
    #[test]
    fn merge_into_empty_is_identity() {
        let mut src = FrequencyDist::new(-5, 5).unwrap();
        for v in [-5, 0, 0, 3, 5, 5, 5] {
            src.observe(v).unwrap();
        }
        let mut dst = FrequencyDist::new(-5, 5).unwrap();
        dst.merge_from(&src).unwrap();
        assert_eq!(dst, src);
    }

    proptest! {
        /// Any 3-way partition of a value stream merges (in either fold
        /// order) back to the sequential FrequencyDist, bit for bit.
        #[test]
        fn freq_partition_merge_exact(
            values in proptest::collection::vec((-20i64..=20, 0usize..3), 0..300),
        ) {
            let mut seq = FrequencyDist::new(-20, 20).unwrap();
            let mut parts =
                [FrequencyDist::new(-20, 20).unwrap(),
                 FrequencyDist::new(-20, 20).unwrap(),
                 FrequencyDist::new(-20, 20).unwrap()];
            for (v, p) in &values {
                seq.observe(*v).unwrap();
                parts[*p].observe(*v).unwrap();
            }
            let mut fwd = parts[0].clone();
            fwd.merge_from(&parts[1]).unwrap();
            fwd.merge_from(&parts[2]).unwrap();
            let mut rev = parts[2].clone();
            rev.merge_from(&parts[1]).unwrap();
            rev.merge_from(&parts[0]).unwrap();
            prop_assert_eq!(&fwd, &seq);
            prop_assert_eq!(&rev, &seq);
        }

        /// Plain count-min updates partitioned across shards merge back
        /// to the sequential sketch, bit for bit.
        #[test]
        fn sketch_partition_merge_exact(
            updates in proptest::collection::vec((0u64..1_000, 0usize..4), 0..200),
        ) {
            let mut seq = CountMinSketch::new(3, 6);
            let mut parts: Vec<CountMinSketch> =
                (0..4).map(|_| CountMinSketch::new(3, 6)).collect();
            for (key, p) in &updates {
                seq.update(*key, 1);
                parts[*p].update(*key, 1);
            }
            let mut merged = parts[0].clone();
            for p in &parts[1..] {
                merged.merge_from(p).unwrap();
            }
            prop_assert_eq!(&merged, &seq);
        }

        /// Merged quantile counts equal the sequential counts, so every
        /// quantile read off them is the sequential one, at 2 and 4
        /// shards alike.
        #[test]
        fn percentile_merge_counts_exact_quantiles_invariant(
            values in proptest::collection::vec(0i64..=63, 1..300),
        ) {
            let quantiles = [Quantile::median(), Quantile::percentile(90).unwrap()];
            let build = |ways: usize| {
                let mut parts: Vec<QuantileCounts> = (0..ways)
                    .map(|_| QuantileCounts::new(0, 63, &quantiles).unwrap())
                    .collect();
                for (i, v) in values.iter().enumerate() {
                    parts[i % ways].observe(*v).unwrap();
                }
                let mut merged = parts[0].clone();
                for p in &parts[1..] {
                    merged.merge_from(p).unwrap();
                }
                merged
            };
            let mut seq = QuantileCounts::new(0, 63, &quantiles).unwrap();
            for v in &values {
                seq.observe(*v).unwrap();
            }
            prop_assert_eq!(&build(2), &seq);
            prop_assert_eq!(&build(4), &seq);
            for i in 0..quantiles.len() {
                prop_assert_eq!(build(4).estimate(i), seq.estimate(i));
            }
        }
    }
}
