//! Sparse delta merging: ship only the state mutated since the last
//! merge.
//!
//! [`crate::merge::Mergeable`] folds *whole* trackers — O(state size)
//! per reduce, every interval, even when an epoch touched a handful of
//! cells. Real traffic is sparse in exactly that sense (the same
//! observation that motivates sketch-based data planes: per-update work
//! must track traffic, not table size), so this module extends the
//! merge surface with **dirty tracking**: each tracker journals the
//! cells it touched since the last [`DeltaMergeable::take_delta`], and
//! a coordinator that already holds the fold of the previous barrier
//! applies just those entries.
//!
//! ## Protocol
//!
//! A coordinator keeps an accumulator `acc` and a set of source
//! trackers `s_1..s_k`:
//!
//! 1. **Rebuild** (full merge): `acc = fold(merge_from, fresh, s_i)`,
//!    then [`discard_delta`](DeltaMergeable::discard_delta) on every
//!    `s_i` — this *re-bases* each journal so the next delta is
//!    relative to exactly the state the accumulator saw.
//! 2. **Delta step**: for each `s_i`, `acc.apply_delta(&s_i.take_delta())`.
//!    The invariant: after the applies, `acc` is bit-identical to what
//!    a fresh rebuild would have produced (absent register saturation —
//!    the same caveat [`crate::merge`] documents for full merges).
//!
//! Each journal is sized with the register file it covers
//! ([`DirtyJournal::over`]), so a tracker update marks a cell with one
//! bit test on a word that already exists; no journal grows.
//!
//! Nothing in a steady delta step needs to allocate. A journal keeps
//! its buffers when it is drained ([`DirtyJournal::drain`]), and
//! [`DeltaMergeable::take_delta_into`] refills a delta the caller keeps
//! between windows; `take_delta` is that call on a fresh delta.
//!
//! Every journal entry carries the cell's **base** value (its value
//! when first touched after a take) together with the current value,
//! so the delta is self-describing: `apply` adds `cur − base` (or, for
//! [`crate::hll::HyperLogLog`], maxes in `cur` — register files that
//! only rise need no base). A decrementing mutator
//! ([`crate::running::RunningStats::remove`]) journals the same way and
//! produces negative increments; the equivalence holds for it too.
//!
//! `reset()`-style bulk mutations clear the journal and re-base: a
//! reset tracker reports an *empty* delta, which is correct for the
//! interval-scoped use (the accumulator is reset alongside) and
//! conservative for every other use — a coordinator that cannot prove
//! its accumulator matched the pre-reset fold must rebuild.
//!
//! Dirty state is deliberately **invisible**: it is excluded from
//! `PartialEq` and from the codec on every tracker, so journaled and
//! journal-free instances of equal register state compare equal and
//! checkpoint formats are unchanged (a restored tracker starts with an
//! empty journal over its whole register file, i.e. "nothing to ship
//! until the next rebuild").

use crate::error::Stat4Result;
use crate::merge::Mergeable;

/// First-touch journal over an indexed register file: a bitmap guards
/// one `(index, base value)` record per cell per window, so repeated
/// hits on the same hot cell cost one bit test after the first.
///
/// The bitmap is sized with the register file it covers
/// ([`DirtyJournal::over`]): every register file has a fixed size, so
/// marking never grows it. `drain`/`clear` scrub only the touched
/// bits — O(touched), never O(domain). The record buffer keeps its
/// capacity across windows, so a journal that has seen its working set
/// once allocates nothing more.
#[derive(Debug, Clone)]
pub struct DirtyJournal {
    bits: Vec<u64>,
    touched: Vec<(u32, u64)>,
}

impl DirtyJournal {
    /// An empty journal over a register file of `cells` cells.
    #[must_use]
    pub fn over(cells: usize) -> Self {
        Self {
            bits: vec![0; cells.div_ceil(64)],
            touched: Vec::new(),
        }
    }

    /// Records the first touch of `idx` this window with its pre-write
    /// value `base`; later touches of the same cell are no-ops (the
    /// base stays the value the cell had when the window opened).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is past the register file the journal was sized
    /// with.
    // Always inlined: each per-packet tracker update marks, and
    // `replay::ShardState::ingest_meta` is call-free only if this is
    // inlined into every one of them.
    #[inline(always)]
    pub fn mark(&mut self, idx: usize, base: u64) {
        let word = &mut self.bits[idx / 64];
        let bit = 1u64 << (idx % 64);
        if *word & bit == 0 {
            *word |= bit;
            self.touched.push((idx as u32, base));
        }
    }

    /// Number of distinct cells touched this window.
    #[must_use]
    pub fn len(&self) -> usize {
        self.touched.len()
    }

    /// True when no cell was touched since the last drain/clear.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// Drains the journal: yields the `(index, base)` records in
    /// first-touch order, scrubbing exactly the touched bits. The record
    /// buffer keeps its capacity for the next window.
    pub fn drain(&mut self) -> std::vec::Drain<'_, (u32, u64)> {
        for &(idx, _) in &self.touched {
            let i = idx as usize;
            self.bits[i / 64] &= !(1u64 << (i % 64));
        }
        self.touched.drain(..)
    }

    /// Drains the journal into `out` as `(index, base, current)` cells,
    /// each `current` read from `values`, the register file this journal
    /// covers. Whatever `out` held is replaced; it keeps its capacity.
    pub fn drain_cells_into(&mut self, values: &[u64], out: &mut Vec<CellDelta>) {
        out.clear();
        out.extend(
            self.drain()
                .map(|(idx, base)| (idx, base, values[idx as usize])),
        );
    }

    /// Drops all records (same bit scrubbing as [`drain`](Self::drain)).
    pub fn clear(&mut self) {
        self.drain();
    }
}

/// One journaled cell: where, what it was at the window open, what it
/// is now. The shipped increment is `cur − base`.
pub(crate) type CellDelta = (u32, u64, u64);

/// Serialized-size model shared by the delta types: what a wire
/// encoding of the entries would cost, for merge-traffic telemetry.
fn cell_bytes(entries: usize) -> u64 {
    // 4-byte index + two 8-byte values per entry.
    entries as u64 * 20
}

/// Delta of a [`crate::sketch::CountMinSketch`] window.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SketchDelta {
    pub(crate) cells: Vec<CellDelta>,
    pub(crate) total_base: u64,
    pub(crate) total_cur: u64,
}

impl SketchDelta {
    /// Distinct cells touched in the window.
    #[must_use]
    pub fn touched(&self) -> usize {
        self.cells.len()
    }

    /// Modelled wire size of this delta.
    #[must_use]
    pub fn wire_bytes(&self) -> u64 {
        16 + cell_bytes(self.cells.len())
    }
}

/// Delta of a [`crate::freq::FrequencyDist`] window. The moments are
/// not shipped: the receiver updates them incrementally from the count
/// increments, exactly as a full merge recomputes them from the merged
/// counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FreqDelta {
    pub(crate) cells: Vec<CellDelta>,
}

impl FreqDelta {
    /// Distinct cells touched in the window.
    #[must_use]
    pub fn touched(&self) -> usize {
        self.cells.len()
    }

    /// Modelled wire size of this delta.
    #[must_use]
    pub fn wire_bytes(&self) -> u64 {
        cell_bytes(self.cells.len())
    }
}

/// Delta of a [`crate::percentile::QuantileCounts`] window: counts
/// only. Counts are merged and the quantile is read exactly; the marker
/// walk is the paper's per-packet tracker, and no delta carries one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PercentileDelta {
    pub(crate) cells: Vec<CellDelta>,
    pub(crate) total_base: u64,
    pub(crate) total_cur: u64,
}

impl PercentileDelta {
    /// Distinct cells touched in the window.
    #[must_use]
    pub fn touched(&self) -> usize {
        self.cells.len()
    }

    /// Modelled wire size of this delta.
    #[must_use]
    pub fn wire_bytes(&self) -> u64 {
        16 + cell_bytes(self.cells.len())
    }
}

/// Delta of a [`crate::hll::HyperLogLog`] window: the registers that
/// rose, with their current rank. Registers only rise between resets,
/// so no base is needed — the receiver maxes the rank in, which is
/// idempotent and order-free.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HllDelta {
    pub(crate) regs: Vec<(u32, u8)>,
}

impl HllDelta {
    /// Distinct registers that rose in the window.
    #[must_use]
    pub fn touched(&self) -> usize {
        self.regs.len()
    }

    /// Modelled wire size of this delta.
    #[must_use]
    pub fn wire_bytes(&self) -> u64 {
        self.regs.len() as u64 * 5
    }
}

/// Delta of a [`crate::running::RunningStats`] window: the change of
/// the three accumulators since the last take, in `i128` so any
/// mutator mix (push/absorb/replace/remove) is representable exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunningDelta {
    pub(crate) dn: i128,
    pub(crate) dsum: i128,
    pub(crate) dsumsq: i128,
}

impl RunningDelta {
    /// True when the tracker did not change in the window.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.dn == 0 && self.dsum == 0 && self.dsumsq == 0
    }

    /// Modelled wire size of this delta.
    #[must_use]
    pub fn wire_bytes(&self) -> u64 {
        48
    }
}

/// The sparse-merge extension of [`Mergeable`]: trackers that journal
/// their mutations and can ship/apply them as deltas.
///
/// The contract, for any tracker `t` and merge-compatible accumulator
/// `acc` (all equalities bit-exact absent register saturation):
///
/// - after `acc.merge_from(&t)` and `t.discard_delta()`, any sequence
///   of mutations on `t` followed by `acc.apply_delta(&t.take_delta())`
///   leaves `acc` equal to a fresh fold that used the mutated `t`;
/// - `take_delta` drains the journal: a second immediate take yields an
///   empty delta;
/// - `apply_delta` does **not** record into the receiver's own journal
///   (an accumulator is a sink, not a source).
pub trait DeltaMergeable: Mergeable {
    /// The delta payload this tracker ships; `Default` is the empty
    /// delta.
    type Delta: Default;

    /// Drains the journal into `delta` and re-bases it, so the next
    /// take covers only mutations from this point on. Whatever `delta`
    /// held is replaced, and its buffers are reused.
    fn take_delta_into(&mut self, delta: &mut Self::Delta);

    /// [`Self::take_delta_into`] a fresh delta.
    fn take_delta(&mut self) -> Self::Delta {
        let mut delta = Self::Delta::default();
        self.take_delta_into(&mut delta);
        delta
    }

    /// Applies a delta taken from a merge-compatible tracker.
    ///
    /// # Errors
    ///
    /// [`crate::error::Stat4Error::MergeMismatch`] when an entry falls
    /// outside this tracker's geometry — the same incompatibilities
    /// [`Mergeable::merge_from`] rejects.
    fn apply_delta(&mut self, delta: &Self::Delta) -> Stat4Result<()>;

    /// Drops pending journal entries and re-bases, without building the
    /// delta — what a coordinator does right after a full rebuild.
    fn discard_delta(&mut self) {
        let _ = self.take_delta();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freq::FrequencyDist;
    use crate::hll::HyperLogLog;
    use crate::percentile::{Quantile, QuantileCounts};
    use crate::running::RunningStats;
    use crate::sketch::{row_hash, CountMinSketch, ROW_SALTS};
    use proptest::prelude::*;

    #[test]
    fn journal_records_first_touch_base_only() {
        let mut j = DirtyJournal::over(71);
        j.mark(3, 10);
        j.mark(3, 999); // later touch: base must stay 10
        j.mark(70, 0); // the last cell, in the bitmap's second word
        assert_eq!(j.len(), 2);
        let taken: Vec<_> = j.drain().collect();
        assert_eq!(taken, vec![(3, 10), (70, 0)]);
        assert!(j.is_empty());
        // Bits were scrubbed: marking again re-records.
        j.mark(3, 42);
        assert_eq!(j.drain().collect::<Vec<_>>(), vec![(3, 42)]);
    }

    /// The full protocol check for one tracker: merge a baseline into
    /// an accumulator, mutate the source, and require delta-apply to
    /// land bit-identically on a from-scratch full merge of the mutated
    /// source. Every take is repeated on a clone of the source by
    /// `take_delta_into` on one buffer kept across the windows (it first
    /// holds the baseline's delta), which must equal the fresh delta.
    macro_rules! assert_delta_matches_full {
        ($fresh:expr, $src:ident, $mutate:block) => {{
            let mut acc_delta = $fresh;
            acc_delta.merge_from(&$src).expect("baseline merge");
            let mut reused = $src.clone().take_delta();
            $src.discard_delta();
            $mutate
            let mut twin = $src.clone();
            let d = $src.take_delta();
            twin.take_delta_into(&mut reused);
            prop_assert_eq!(&reused, &d);
            acc_delta.apply_delta(&d).expect("delta applies");
            let mut acc_full = $fresh;
            acc_full.merge_from(&$src).expect("full merge");
            prop_assert_eq!(&acc_delta, &acc_full);
            // A drained journal ships nothing more.
            let empty = $src.take_delta();
            twin.take_delta_into(&mut reused);
            prop_assert_eq!(&reused, &empty);
            let mut acc_again = acc_delta.clone();
            acc_again.apply_delta(&empty).expect("empty delta applies");
            prop_assert_eq!(&acc_again, &acc_delta);
        }};
    }

    proptest! {
        #[test]
        fn freq_delta_equals_full_merge(
            before in proptest::collection::vec(0i64..32, 0..200),
            after in proptest::collection::vec(0i64..32, 0..200),
        ) {
            let mut src = FrequencyDist::new(0, 31).unwrap();
            for v in &before {
                src.observe(*v).unwrap();
            }
            assert_delta_matches_full!(FrequencyDist::new(0, 31).unwrap(), src, {
                for v in &after {
                    src.observe(*v).unwrap();
                }
            });
        }

        #[test]
        fn sketch_delta_equals_full_merge(
            before in proptest::collection::vec(any::<u64>(), 0..150),
            after in proptest::collection::vec(any::<u64>(), 0..150),
            conservative in any::<bool>(),
        ) {
            let mut src = CountMinSketch::new(3, 6);
            for k in &before {
                src.update(*k, 1);
            }
            assert_delta_matches_full!(CountMinSketch::new(3, 6), src, {
                for k in &after {
                    if conservative {
                        src.update_conservative(*k, 2);
                    } else {
                        src.update(*k, 1);
                    }
                }
            });
        }

        #[test]
        fn percentile_delta_equals_full_merge(
            before in proptest::collection::vec(0i64..128, 0..150),
            after in proptest::collection::vec(0i64..128, 0..150),
        ) {
            let quantiles = [Quantile::median(), Quantile::percentile(90).unwrap()];
            let mut src = QuantileCounts::new(0, 127, &quantiles).unwrap();
            for v in &before {
                src.observe(*v).unwrap();
            }
            assert_delta_matches_full!(
                QuantileCounts::new(0, 127, &quantiles).unwrap(),
                src,
                {
                    for v in &after {
                        src.observe(*v).unwrap();
                    }
                }
            );
        }

        #[test]
        fn running_delta_equals_full_merge(
            before in proptest::collection::vec(-1000i64..1000, 0..100),
            after in proptest::collection::vec(-1000i64..1000, 0..100),
            removes in 0usize..20,
        ) {
            let mut src = RunningStats::new();
            for v in &before {
                src.push(*v);
            }
            assert_delta_matches_full!(RunningStats::new(), src, {
                for v in &after {
                    src.push(*v);
                }
                for v in after.iter().take(removes) {
                    src.remove(*v);
                }
            });
        }

        #[test]
        fn hll_delta_equals_full_merge(
            before in proptest::collection::vec(any::<u64>(), 0..200),
            after in proptest::collection::vec(any::<u64>(), 0..200),
        ) {
            let mut src = HyperLogLog::new(6).unwrap();
            for k in &before {
                src.observe(*k);
            }
            assert_delta_matches_full!(HyperLogLog::new(6).unwrap(), src, {
                for k in &after {
                    src.observe(*k);
                }
            });
        }

        /// Multi-round: three take/apply windows in a row stay pinned to
        /// the from-scratch merge, i.e. re-basing composes.
        #[test]
        fn freq_delta_composes_across_windows(
            rounds in proptest::collection::vec(
                proptest::collection::vec(0i64..16, 0..60), 1..4),
        ) {
            let mut src = FrequencyDist::new(0, 15).unwrap();
            let mut acc = FrequencyDist::new(0, 15).unwrap();
            acc.merge_from(&src).unwrap();
            src.discard_delta();
            // One buffer for every window, refilled by `take_delta_into`
            // on a clone: it must read what a fresh `take_delta` reads.
            let mut reused = FreqDelta::default();
            for round in &rounds {
                for v in round {
                    src.observe(*v).unwrap();
                }
                src.clone().take_delta_into(&mut reused);
                let d = src.take_delta();
                prop_assert_eq!(&reused, &d);
                acc.apply_delta(&d).unwrap();
                let mut full = FrequencyDist::new(0, 15).unwrap();
                full.merge_from(&src).unwrap();
                prop_assert_eq!(&acc, &full);
            }
        }
    }

    /// Full-merges `restored` into `fresh`, then `touch`es both: a
    /// restored tracker's journal covers its whole file, so both ship
    /// the same delta, and it is not empty.
    fn assert_restored_journal_covers<T>(mut restored: T, mut fresh: T, touch: impl Fn(&mut T))
    where
        T: DeltaMergeable,
        T::Delta: PartialEq + std::fmt::Debug,
    {
        fresh.merge_from(&restored).unwrap();
        fresh.discard_delta();
        touch(&mut restored);
        touch(&mut fresh);
        let d = restored.take_delta();
        assert_ne!(d, T::Delta::default());
        assert_eq!(d, fresh.take_delta());
    }

    /// Each restoring constructor sizes its journal with the register
    /// file: touching the first and the last cell of a restored tracker
    /// (the last in the bitmap's second word or later) ships exactly what
    /// a fresh tracker's does after a full merge of the restored state.
    #[test]
    fn restored_journals_cover_the_whole_file() {
        let counts: Vec<u64> = (0..70).map(|i| i % 4).collect();
        let restored = FrequencyDist::from_raw_counts(-5, counts.clone()).unwrap();
        let fresh = FrequencyDist::new(-5, 64).unwrap();
        assert_restored_journal_covers(restored, fresh, |t| {
            t.observe(-5).unwrap();
            t.observe(64).unwrap();
        });

        let q = [Quantile::median()];
        let restored = QuantileCounts::from_counts(-5, 64, &q, counts).unwrap();
        let fresh = QuantileCounts::new(-5, 64, &q).unwrap();
        assert_restored_journal_covers(restored, fresh, |t| {
            t.observe(-5).unwrap();
            t.observe(64).unwrap();
        });

        let (rows, w) = (3, 5);
        let mut live = CountMinSketch::new(rows, w);
        for k in 0..200u64 {
            live.update(k * 7919, k % 3 + 1);
        }
        let restored = CountMinSketch::from_raw(rows, w, live.cells().to_vec(), live.total()).unwrap();
        let hits = |row: usize, col: u64| {
            (0u64..).find(|&k| row_hash(ROW_SALTS[row], w, k) == col).unwrap()
        };
        let (first, last) = (hits(0, 0), hits(rows - 1, (1 << w) - 1));
        assert_restored_journal_covers(restored, CountMinSketch::new(rows, w), |t| {
            t.update(first, 1);
            t.update(last, 1);
        });

        // Registers 0 and the last are zero, so the keys that land on
        // them raise them.
        let p = 6;
        let m = 1usize << p;
        let lands = |reg: usize| {
            (0u64..)
                .find(|&k| {
                    let mut h = HyperLogLog::new(p).unwrap();
                    h.observe(k);
                    h.registers()[reg] > 0
                })
                .unwrap()
        };
        let (first, last) = (lands(0), lands(m - 1));
        let regs: Vec<u8> = (0..m).map(|i| if i == 0 || i == m - 1 { 0 } else { (i % 5) as u8 }).collect();
        let restored = HyperLogLog::from_registers(p, regs).unwrap();
        assert_restored_journal_covers(restored, HyperLogLog::new(p).unwrap(), |t| {
            t.observe(first);
            t.observe(last);
        });
    }

    #[test]
    fn reset_rebases_the_journal() {
        let mut h = HyperLogLog::new(6).unwrap();
        h.observe(1);
        h.observe(2);
        h.reset();
        assert_eq!(h.take_delta().touched(), 0, "reset drops pending entries");
        h.observe(3);
        let d = h.take_delta();
        assert!(d.touched() >= 1, "post-reset observes journal afresh");
    }

    #[test]
    fn apply_delta_rejects_foreign_geometry() {
        let mut a = FrequencyDist::new(0, 63).unwrap();
        a.discard_delta();
        for v in 0..64 {
            a.observe(v).unwrap();
        }
        let d = a.take_delta();
        let mut small = FrequencyDist::new(0, 3).unwrap();
        assert!(small.apply_delta(&d).is_err());

        let mut h = HyperLogLog::new(8).unwrap();
        h.discard_delta();
        for k in 0..2000u64 {
            h.observe(k);
        }
        let hd = h.take_delta();
        let mut tiny = HyperLogLog::new(4).unwrap();
        assert!(tiny.apply_delta(&hd).is_err());
    }
}
