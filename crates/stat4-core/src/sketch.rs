//! Count-min sketches: hashed counters for sparse domains.
//!
//! The paper's future-work section: "Stat4 currently allocates switch
//! resources for every possible value in the tracked distributions …
//! We will explore techniques to avoid reserving memory for
//! non-observed values (e.g., using hash-tables similarly to \[23\])
//! which would be especially beneficial for sparse distributions."
//! This module implements that direction: a count-min sketch whose rows
//! are exactly the register arrays a P4 target provides and whose
//! hashes model the CRC extern every target exposes (here: independent
//! multiply-shift hashes, one odd constant per row).
//!
//! Two update policies:
//!
//! - **plain**: increment every row — one register write per row, the
//!   standard CM guarantee (`estimate ≥ truth`, overshoot bounded by
//!   `N/w` per row with probability 1/2 each);
//! - **conservative**: raise only the rows at the current minimum —
//!   tighter estimates for the same memory, at the cost of a
//!   read-then-conditionally-write per row (still loop-free: the row
//!   count is a compile-time constant). The `sketch` bench quantifies
//!   the accuracy gap.

use crate::delta::{DeltaMergeable, DirtyJournal, SketchDelta};
use crate::error::{Stat4Error, Stat4Result};

/// Per-row multiply-shift hash constants (odd, from the golden-ratio
/// family), modelling independent CRC polynomials. Public so the
/// pipeline realisation (`stat4-p4`) uses the same family and the two
/// implementations can be cross-validated cell for cell.
pub const ROW_SALTS: [u64; 8] = [
    0x9e37_79b9_7f4a_7c15,
    0xbf58_476d_1ce4_e5b9,
    0x94d0_49bb_1331_11eb,
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
    0x2545_f491_4f6c_dd1d,
    0x27d4_eb2f_1656_67c5,
    0x1171_5211_59e3_779b,
];

/// The multiply-shift row hash: the high bits of `key·salt` are well
/// mixed; masking keeps the column in range. This is the canonical
/// definition both the portable sketch and the pipeline `Hash`
/// primitive implement.
#[inline]
#[must_use]
pub fn row_hash(salt: u64, width_log2: u32, key: u64) -> u64 {
    let mask = (1u64 << width_log2) - 1;
    (key.wrapping_mul(salt | 1) >> (64 - width_log2 - 1)) & mask
}

/// A count-min sketch over `u64` keys.
#[derive(Debug, Clone)]
pub struct CountMinSketch {
    rows: usize,
    /// Log2 of the row width: a power of two, so a column is a mask
    /// and a row base a shift, never a modulo or a multiply.
    width_log2: u32,
    cells: Vec<u64>,
    /// Total increments (the stream length `N` in the error bound).
    total: u64,
    /// Cells touched since the last `take_delta` (dirty state is not
    /// part of the sketch's identity: excluded from eq).
    journal: DirtyJournal,
    /// `total` at the last `take_delta` — the delta's total baseline.
    taken_total: u64,
}

/// Equality is over register state only — the dirty journal is
/// bookkeeping, not identity.
impl PartialEq for CountMinSketch {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.width_log2 == other.width_log2
            && self.cells == other.cells
            && self.total == other.total
    }
}

impl Eq for CountMinSketch {}

/// Why `rows × 2^width_log2` is not a sketch geometry, or `None` if it
/// is: `rows` in `1..=8` (the salt table / realistic stage budget) and
/// `width_log2 < 28`.
fn geometry_error(rows: usize, width_log2: u32) -> Option<&'static str> {
    if !(1..=ROW_SALTS.len()).contains(&rows) {
        Some("rows out of range")
    } else if width_log2 >= 28 {
        Some("width too large")
    } else {
        None
    }
}

/// The cell `key` hashes to in each of the first `rows` rows, in row
/// order: row `r`'s is `(r << width_log2) | row_hash(ROW_SALTS[r],
/// width_log2, key)`. The one index definition `update`, `estimate` and
/// `update_conservative` share; the row base is a shift, never a
/// multiply, and the salts are walked, never indexed.
#[inline(always)]
fn row_cells(rows: usize, width_log2: u32, key: u64) -> impl Iterator<Item = usize> {
    let salts: &'static [u64; 8] = &ROW_SALTS;
    salts[..rows]
        .iter()
        .enumerate()
        .map(move |(r, &salt)| (r << width_log2) | row_hash(salt, width_log2, key) as usize)
}

impl CountMinSketch {
    /// Creates a sketch of `rows × 2^width_log2` counters.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is 0 or exceeds 8 (the salt table / realistic
    /// stage budget) or `width_log2` ≥ 28.
    #[must_use]
    pub fn new(rows: usize, width_log2: u32) -> Self {
        if let Some(what) = geometry_error(rows, width_log2) {
            panic!("{what}");
        }
        let cells = rows << width_log2;
        Self {
            rows,
            width_log2,
            cells: vec![0; cells],
            total: 0,
            journal: DirtyJournal::over(cells),
            taken_total: 0,
        }
    }

    /// Rebuilds a sketch from a previously exported cell array and
    /// increment total (`cells()`, `total()`), as a crash-recovery
    /// checkpoint does. The geometry must be one [`new`] accepts, the
    /// cell count `rows × 2^width_log2`, and every row must sum to
    /// `total` — what a sketch fed plain [`update`]s and merges holds.
    ///
    /// [`new`]: CountMinSketch::new
    /// [`update`]: CountMinSketch::update
    ///
    /// # Errors
    ///
    /// [`Stat4Error::InvalidState`] naming the first of these the raw
    /// state breaks.
    pub fn from_raw(rows: usize, width_log2: u32, cells: Vec<u64>, total: u64) -> Stat4Result<Self> {
        if let Some(what) = geometry_error(rows, width_log2) {
            return Err(Stat4Error::InvalidState { what });
        }
        let width = 1usize << width_log2;
        if cells.len() != rows * width {
            return Err(Stat4Error::InvalidState { what: "cell array length mismatch" });
        }
        for row in cells.chunks_exact(width) {
            if row.iter().try_fold(0u64, |sum, &c| sum.checked_add(c)) != Some(total) {
                return Err(Stat4Error::InvalidState { what: "a row does not sum to the total" });
            }
        }
        let journal = DirtyJournal::over(cells.len());
        Ok(Self {
            rows,
            width_log2,
            cells,
            total,
            journal,
            // Restored state ships nothing until the next rebuild.
            taken_total: total,
        })
    }

    /// Raw cell array in row-major order — the checkpoint export
    /// counterpart of [`CountMinSketch::from_raw`].
    #[must_use]
    pub fn cells(&self) -> &[u64] {
        &self.cells
    }

    /// Plain update: add `amount` to every row.
    // Always inlined: `replay::ShardState::ingest_meta` calls this per
    // frame, and with plain `#[inline]` LLVM's cost model took the call
    // back out of line as soon as that crate had a second caller.
    #[inline(always)]
    pub fn update(&mut self, key: u64, amount: u64) {
        for i in row_cells(self.rows, self.width_log2, key) {
            self.journal.mark(i, self.cells[i]);
            self.cells[i] = self.cells[i].saturating_add(amount);
        }
        self.total += amount;
    }

    /// Conservative update: only rows currently at the minimum rise, to
    /// `min + amount`.
    pub fn update_conservative(&mut self, key: u64, amount: u64) {
        let new_min = self.estimate(key).saturating_add(amount);
        for i in row_cells(self.rows, self.width_log2, key) {
            if self.cells[i] < new_min {
                self.journal.mark(i, self.cells[i]);
                self.cells[i] = new_min;
            }
        }
        self.total += amount;
    }

    /// Point estimate: the row minimum (never underestimates).
    #[must_use]
    pub fn estimate(&self, key: u64) -> u64 {
        row_cells(self.rows, self.width_log2, key)
            .map(|i| self.cells[i])
            .min()
            .unwrap_or(0)
    }

    /// Total increments observed.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Memory footprint in bytes (64-bit cells).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.cells.len() * 8
    }

    /// Number of hash rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Log2 of the per-row width; two sketches merge iff `rows` and
    /// `width_log2` agree ([`crate::Mergeable::merge_from`]).
    #[must_use]
    pub fn width_log2(&self) -> u32 {
        self.width_log2
    }

    /// The classic heavy-hitter test in Stat4's integer style: is this
    /// key's estimated count above `fraction = 1/2^shift` of the total
    /// (`estimate << shift > total`)?
    #[must_use]
    pub fn is_heavy(&self, key: u64, shift: u32) -> bool {
        let est = self.estimate(key);
        (est << shift.min(63)) > self.total
    }

    /// Clears the sketch (and re-bases the dirty journal: a reset
    /// sketch has nothing to ship).
    pub fn reset(&mut self) {
        self.cells.fill(0);
        self.total = 0;
        self.journal.clear();
        self.taken_total = 0;
    }
}

impl DeltaMergeable for CountMinSketch {
    type Delta = SketchDelta;

    fn take_delta_into(&mut self, delta: &mut SketchDelta) {
        self.journal.drain_cells_into(&self.cells, &mut delta.cells);
        delta.total_base = self.taken_total;
        delta.total_cur = self.total;
        self.taken_total = self.total;
    }

    fn apply_delta(&mut self, delta: &SketchDelta) -> crate::error::Stat4Result<()> {
        for &(idx, base, cur) in &delta.cells {
            let c = self.cells.get_mut(idx as usize).ok_or(
                crate::error::Stat4Error::MergeMismatch {
                    what: "sketch geometries",
                },
            )?;
            // Same saturating cellwise addition a full merge performs,
            // fed the window's increment. `forget`-style decrements do
            // not exist for sketches, but the signed form keeps the
            // apply total-ordering-free.
            *c = if cur >= base {
                c.saturating_add(cur - base)
            } else {
                c.saturating_sub(base - cur)
            };
        }
        // Plain add, mirroring `merge_from`'s `self.total += other.total`.
        self.total += delta.total_cur - delta.total_base;
        Ok(())
    }
}

impl crate::merge::Mergeable for CountMinSketch {
    /// Cellwise row addition. Both sketches hash with the same
    /// [`ROW_SALTS`] table, so equal geometry means equal cell
    /// assignment and the merged sketch equals a sequential sketch fed
    /// both streams of **plain** updates, bit for bit. Conservative
    /// updates are order-dependent (a row rises only when it is the
    /// current minimum), so merged conservative sketches keep the
    /// `estimate ≥ truth` guarantee but not bit-equality.
    fn merge_from(&mut self, other: &Self) -> crate::error::Stat4Result<()> {
        if self.rows != other.rows || self.width_log2 != other.width_log2 {
            return Err(crate::error::Stat4Error::MergeMismatch {
                what: "sketch geometries",
            });
        }
        for (c, o) in self.cells.iter_mut().zip(&other.cells) {
            *c = c.saturating_add(*o);
        }
        self.total += other.total;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;

    #[test]
    fn never_underestimates() {
        let mut s = CountMinSketch::new(4, 8);
        let keys: Vec<u64> = (0..500).map(|i| i * 7919).collect();
        for (i, &k) in keys.iter().enumerate() {
            s.update(k, (i as u64 % 5) + 1);
        }
        for (i, &k) in keys.iter().enumerate() {
            let truth = (i as u64 % 5) + 1;
            assert!(s.estimate(k) >= truth, "key {k}");
        }
    }

    #[test]
    fn exact_when_sparse() {
        // Few keys, wide sketch: no collisions expected.
        let mut s = CountMinSketch::new(4, 12);
        for k in 0..50u64 {
            for _ in 0..=k {
                s.update(k * 104729, 1);
            }
        }
        for k in 0..50u64 {
            assert_eq!(s.estimate(k * 104729), k + 1);
        }
    }

    #[test]
    fn conservative_no_worse_than_plain() {
        let mut rng = crate::test_rng(7);
        let keys: Vec<u64> = (0..2000).map(|_| rng.random_range(0..300u64) * 31) .collect();
        let mut plain = CountMinSketch::new(3, 6);
        let mut cons = CountMinSketch::new(3, 6);
        let mut truth = std::collections::HashMap::new();
        for &k in &keys {
            plain.update(k, 1);
            cons.update_conservative(k, 1);
            *truth.entry(k).or_insert(0u64) += 1;
        }
        let mut plain_err = 0u64;
        let mut cons_err = 0u64;
        for (&k, &t) in &truth {
            assert!(cons.estimate(k) >= t, "CM guarantee holds");
            plain_err += plain.estimate(k) - t;
            cons_err += cons.estimate(k) - t;
        }
        assert!(
            cons_err <= plain_err,
            "conservative {cons_err} <= plain {plain_err}"
        );
        assert!(plain_err > 0, "the narrow sketch does collide");
    }

    #[test]
    fn heavy_hitter_detection() {
        let mut s = CountMinSketch::new(4, 10);
        // 10k background over many keys, one key with 30% of traffic.
        let mut rng = crate::test_rng(3);
        for _ in 0..10_000 {
            s.update(rng.random_range(0..5_000u64) | 0x8000_0000, 1);
        }
        for _ in 0..4_300 {
            s.update(42, 1);
        }
        assert!(s.is_heavy(42, 2), "42 holds > 1/4 of the total");
        assert!(!s.is_heavy(77 | 0x8000_0000, 2));
    }

    #[test]
    fn from_raw_round_trips() {
        let mut s = CountMinSketch::new(4, 6);
        for k in 0..200u64 {
            s.update(k * 31, (k % 3) + 1);
        }
        let restored =
            CountMinSketch::from_raw(s.rows(), s.width_log2(), s.cells().to_vec(), s.total())
                .unwrap();
        assert_eq!(restored, s);
    }

    #[test]
    fn from_raw_rejects_bad_length() {
        let what = "cell array length mismatch";
        assert_eq!(CountMinSketch::from_raw(2, 4, vec![0; 3], 0), Err(Stat4Error::InvalidState { what }));
    }

    #[test]
    fn memory_model() {
        let s = CountMinSketch::new(4, 10);
        assert_eq!(s.memory_bytes(), 4 * 1024 * 8);
    }

    #[test]
    fn reset_clears() {
        let mut s = CountMinSketch::new(2, 4);
        s.update(9, 5);
        s.reset();
        assert_eq!(s.estimate(9), 0);
        assert_eq!(s.total(), 0);
    }

    #[test]
    #[should_panic(expected = "rows out of range")]
    fn zero_rows_rejected() {
        let _ = CountMinSketch::new(0, 4);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The cells a key hits are row `r`'s `r·2^w + row_hash(ROW_SALTS[r],
        /// w, key)`: `update` raises exactly those by `amount`, `estimate`
        /// is their minimum, and `update_conservative` raises only the
        /// hit cells below `minimum + amount`, to it (for `amount` 1, the
        /// rows at the minimum).
        #[test]
        fn a_key_hits_row_hash_cells(
            rows in 1usize..=8,
            w_at in 0usize..5,
            prior in proptest::collection::vec((any::<u64>(), 1u64..1000), 0..40),
            key in any::<u64>(),
            amount in 1u64..1000,
        ) {
            let w = [0u32, 1, 5, 12, 16][w_at];
            let mut before = CountMinSketch::new(rows, w);
            for &(k, a) in &prior {
                before.update(k, a);
            }
            before.discard_delta();
            let hit: Vec<usize> = (0..rows)
                .map(|r| r * (1 << w) + row_hash(ROW_SALTS[r], w, key) as usize)
                .collect();

            let mut plain = before.clone();
            plain.update(key, amount);
            let mut raised: Vec<(usize, u64)> = plain
                .take_delta()
                .cells
                .iter()
                .map(|&(i, base, cur)| (i as usize, cur - base))
                .collect();
            raised.sort_unstable();
            prop_assert_eq!(raised, hit.iter().map(|&i| (i, amount)).collect::<Vec<_>>());
            let min = hit.iter().map(|&i| plain.cells()[i]).min().unwrap();
            prop_assert_eq!(plain.estimate(key), min);

            let min = before.estimate(key);
            prop_assert_eq!(min, hit.iter().map(|&i| before.cells()[i]).min().unwrap());
            let mut cons = before.clone();
            cons.update_conservative(key, amount);
            for (i, (&was, &now)) in before.cells().iter().zip(cons.cells()).enumerate() {
                let rises = hit.contains(&i) && was < min + amount;
                prop_assert_eq!(now, if rises { min + amount } else { was }, "cell {}", i);
            }
        }

        /// CM guarantee under arbitrary streams, both update policies.
        #[test]
        fn overestimate_only(
            stream in proptest::collection::vec((0u64..64, 1u64..4), 1..400),
            conservative in any::<bool>(),
        ) {
            let mut s = CountMinSketch::new(3, 5);
            let mut truth = std::collections::HashMap::new();
            for &(k, amt) in &stream {
                if conservative {
                    s.update_conservative(k, amt);
                } else {
                    s.update(k, amt);
                }
                *truth.entry(k).or_insert(0u64) += amt;
            }
            for (&k, &t) in &truth {
                prop_assert!(s.estimate(k) >= t);
            }
            prop_assert_eq!(s.total(), stream.iter().map(|(_, a)| a).sum::<u64>());
        }
    }
}
