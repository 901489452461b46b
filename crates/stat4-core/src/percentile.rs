//! Online median and percentile tracking, one marker step per packet.
//!
//! The paper (Sec. 2, Figure 3) tracks the median of a frequency
//! distribution `F = {f_1..f_N}` with three registers: the marker (the
//! current median estimate), the combined frequency of all values
//! *strictly below* it, and the combined frequency of all values
//! *strictly above* it. Each arriving value updates one frequency counter
//! and one of the two masses, then the marker is *rebalanced by at most
//! one value per packet* — P4 has no loops, and the paper explicitly
//! avoids recirculation. Skipping an empty cell therefore costs one
//! packet (Figure 3's example takes two packets to move the median from
//! 4 to 6).
//!
//! Arbitrary percentiles reuse the same machinery with a reweighted
//! balance test ([`Quantile`]): for the 90th percentile "the frequency of
//! values lower than `p` must stay nine times bigger than the frequency
//! of values higher than `p`".
//!
//! The one-step-per-packet rule bounds the estimation error by the
//! marker's lag; the paper's Table 3 quantifies it (≤1% once the
//! distribution stops being sparse). `repro table3`
//! regenerates that table; [`PercentileSet::rebalance_full`] exists for
//! the lag ablation (what an unconstrained, loop-capable tracker would
//! do).
//!
//! Counts are merged and the quantile is read exactly; the marker walk
//! is the paper's per-packet tracker. A walked marker encodes the path
//! it took and cannot be merged, so [`PercentileSet`] is not mergeable.
//! Where shards' distributions are folded (the replay),
//! [`QuantileCounts`] keeps only the counts, which merge by addition, and
//! reads each quantile off them at nearest rank when it is asked for:
//! controller-side work, outside P4's rules.

use crate::delta::{DeltaMergeable, DirtyJournal, PercentileDelta};
use crate::error::{Stat4Error, Stat4Result};
use crate::merge::Mergeable;

/// A quantile expressed as the integer balance ratio `low : high` the
/// marker must maintain — the form in which P4 can test it without
/// division.
///
/// The median is `1:1`; the 90th percentile is `9:1`; the 10th is `1:9`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Quantile {
    /// Weight of the mass below the marker.
    low_weight: u32,
    /// Weight of the mass above the marker.
    high_weight: u32,
}

impl Quantile {
    /// The median (50th percentile).
    #[must_use]
    pub const fn median() -> Self {
        Self {
            low_weight: 1,
            high_weight: 1,
        }
    }

    /// The `p`-th percentile, `1 <= p <= 99`, as the ratio `p : 100 − p`
    /// reduced to lowest terms.
    ///
    /// # Errors
    ///
    /// [`Stat4Error::InvalidQuantile`] if `p` is 0 or ≥ 100.
    pub fn percentile(p: u32) -> Stat4Result<Self> {
        if p == 0 || p >= 100 {
            return Err(Stat4Error::InvalidQuantile {
                low_weight: p,
                high_weight: 100 - p.min(100),
            });
        }
        Ok(Self::from_weights(p, 100 - p).expect("both weights non-zero"))
    }

    /// A quantile from explicit balance weights `low : high`.
    ///
    /// # Errors
    ///
    /// [`Stat4Error::InvalidQuantile`] if either weight is zero.
    pub fn from_weights(low_weight: u32, high_weight: u32) -> Stat4Result<Self> {
        if low_weight == 0 || high_weight == 0 {
            return Err(Stat4Error::InvalidQuantile {
                low_weight,
                high_weight,
            });
        }
        let g = gcd(low_weight, high_weight);
        Ok(Self {
            low_weight: low_weight / g,
            high_weight: high_weight / g,
        })
    }

    /// Weight applied to the low-side mass in the balance test.
    #[must_use]
    pub fn low_weight(&self) -> u32 {
        self.low_weight
    }

    /// Weight applied to the high-side mass in the balance test.
    #[must_use]
    pub fn high_weight(&self) -> u32 {
        self.high_weight
    }

    /// The fraction this quantile targets, for reporting (`0.5` for the
    /// median).
    #[must_use]
    pub fn fraction(&self) -> f64 {
        f64::from(self.low_weight) / f64::from(self.low_weight + self.high_weight)
    }
}

fn gcd(mut a: u32, mut b: u32) -> u32 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a.max(1)
}

/// Cells of the inclusive domain `[min, max]`.
fn domain_cells(min: i64, max: i64) -> Stat4Result<usize> {
    let size = i128::from(max) - i128::from(min) + 1;
    if min > max || size > (1i128 << 32) {
        return Err(Stat4Error::InvalidDomain { min, max });
    }
    Ok(size as usize)
}

/// One percentile marker: estimate position plus the two combined-mass
/// registers.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Marker {
    q: Quantile,
    /// Index of the current estimate within the counts array; `None`
    /// until the first observation seeds it.
    pos: Option<usize>,
    /// Combined frequency of all cells strictly below `pos`.
    low: u64,
    /// Combined frequency of all cells strictly above `pos`.
    high: u64,
    /// Total marker movements — the paper suggests percentile *change
    /// rates* as an anomaly signal.
    moves: u64,
}

impl Marker {
    fn new(q: Quantile) -> Self {
        Self {
            q,
            pos: None,
            low: 0,
            high: 0,
            moves: 0,
        }
    }

    /// Accounts an arrival at `idx` into the side masses.
    fn record(&mut self, idx: usize) {
        match self.pos {
            None => self.pos = Some(idx),
            Some(p) => {
                if idx < p {
                    self.low += 1;
                } else if idx > p {
                    self.high += 1;
                }
            }
        }
    }

    /// Moves the marker at most one cell toward balance. Returns whether
    /// it moved.
    fn rebalance_step(&mut self, counts: &[u64]) -> bool {
        let Some(p) = self.pos else { return false };
        let f = u128::from(counts[p]);
        let low = u128::from(self.low);
        let high = u128::from(self.high);
        let a = u128::from(self.q.low_weight);
        let b = u128::from(self.q.high_weight);

        if a * high > b * (low + f) && p + 1 < counts.len() {
            // Too much mass above: step toward the higher values.
            self.low += counts[p];
            self.high -= counts[p + 1];
            self.pos = Some(p + 1);
            self.moves += 1;
            true
        } else if b * low > a * (high + f) && p > 0 {
            // Too much mass below: step toward the lower values.
            self.high += counts[p];
            self.low -= counts[p - 1];
            self.pos = Some(p - 1);
            self.moves += 1;
            true
        } else {
            false
        }
    }
}

/// The raw register state of one percentile marker, as exported by
/// [`PercentileSet::export_markers`] and reloaded through
/// [`PercentileSet::from_raw`]. Marker positions are path-dependent
/// (one step per packet), so a crash-recovery checkpoint must carry
/// them verbatim — the exact quantile of the counters is another cell
/// than the one the live walk occupies. Only the `median_shift`
/// engine's tracker still carries a marker through a checkpoint: the
/// replay's shards count, and their checkpoints hold counts alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarkerRaw {
    /// Weight of the mass below the marker (see [`Quantile`]).
    pub low_weight: u32,
    /// Weight of the mass above the marker.
    pub high_weight: u32,
    /// Index of the current estimate, `None` before the first
    /// observation.
    pub pos: Option<usize>,
    /// Combined frequency strictly below `pos`.
    pub low: u64,
    /// Combined frequency strictly above `pos`.
    pub high: u64,
    /// Total marker movements.
    pub moves: u64,
}

/// A frequency-counter array with any number of percentile markers
/// tracked over it — the register layout a Stat4 switch allocates per
/// monitored distribution. It is not mergeable: see the module doc.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PercentileSet {
    min: i64,
    max: i64,
    counts: Vec<u64>,
    total: u64,
    markers: Vec<Marker>,
}

impl PercentileSet {
    /// Creates an empty tracker over the inclusive domain `[min, max]`
    /// with the given quantile markers.
    ///
    /// # Errors
    ///
    /// [`Stat4Error::InvalidDomain`] for an empty or oversized domain.
    pub fn new(min: i64, max: i64, quantiles: &[Quantile]) -> Stat4Result<Self> {
        Ok(Self {
            min,
            max,
            counts: vec![0; domain_cells(min, max)?],
            total: 0,
            markers: quantiles.iter().copied().map(Marker::new).collect(),
        })
    }

    /// Rebuilds a tracker from previously exported raw state
    /// ([`counts`], [`total`], [`export_markers`]), as a crash-recovery
    /// checkpoint does. Markers are restored verbatim, preserving the
    /// path-dependent walk position.
    ///
    /// [`counts`]: PercentileSet::counts
    /// [`total`]: PercentileSet::total
    /// [`export_markers`]: PercentileSet::export_markers
    ///
    /// # Errors
    ///
    /// [`Stat4Error::InvalidDomain`] for a bad domain, a counts array of
    /// the wrong length, or a marker position outside the domain;
    /// [`Stat4Error::InvalidQuantile`] for zero marker weights.
    pub fn from_raw(
        min: i64,
        max: i64,
        counts: Vec<u64>,
        total: u64,
        markers: &[MarkerRaw],
    ) -> Stat4Result<Self> {
        if counts.len() != domain_cells(min, max)? {
            return Err(Stat4Error::InvalidDomain { min, max });
        }
        let markers = markers
            .iter()
            .map(|r| {
                if r.pos.is_some_and(|p| p >= counts.len()) {
                    return Err(Stat4Error::InvalidDomain { min, max });
                }
                Ok(Marker {
                    q: Quantile::from_weights(r.low_weight, r.high_weight)?,
                    pos: r.pos,
                    low: r.low,
                    high: r.high,
                    moves: r.moves,
                })
            })
            .collect::<Stat4Result<Vec<_>>>()?;
        Ok(Self {
            min,
            max,
            counts,
            total,
            markers,
        })
    }

    /// Raw per-cell frequency counters — the checkpoint export
    /// counterpart of [`PercentileSet::from_raw`].
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Raw marker state, verbatim, for checkpoint export.
    #[must_use]
    pub fn export_markers(&self) -> Vec<MarkerRaw> {
        self.markers
            .iter()
            .map(|m| MarkerRaw {
                low_weight: m.q.low_weight(),
                high_weight: m.q.high_weight(),
                pos: m.pos,
                low: m.low,
                high: m.high,
                moves: m.moves,
            })
            .collect()
    }

    /// Records one occurrence of `value` and rebalances every marker by
    /// at most one step — the complete per-packet work.
    ///
    /// # Errors
    ///
    /// [`Stat4Error::ValueOutOfDomain`] if outside the domain.
    pub fn observe(&mut self, value: i64) -> Stat4Result<()> {
        if value < self.min || value > self.max {
            return Err(Stat4Error::ValueOutOfDomain {
                value,
                min: self.min,
                max: self.max,
            });
        }
        let idx = (value - self.min) as usize;
        for m in &mut self.markers {
            m.record(idx);
        }
        self.counts[idx] += 1;
        self.total += 1;
        for m in &mut self.markers {
            m.rebalance_step(&self.counts);
        }
        Ok(())
    }

    /// Rebalances every marker until no marker can move — the
    /// loop-capable baseline for the step-size ablation. Returns the
    /// total number of steps taken.
    pub fn rebalance_full(&mut self) -> u64 {
        let mut steps = 0;
        for m in &mut self.markers {
            while m.rebalance_step(&self.counts) {
                steps += 1;
            }
        }
        steps
    }

    /// Current estimate of the `i`-th configured quantile, `None` before
    /// the first observation.
    #[must_use]
    pub fn estimate(&self, i: usize) -> Option<i64> {
        self.markers
            .get(i)
            .and_then(|m| m.pos)
            .map(|p| self.min + p as i64)
    }

    /// Total marker movements of the `i`-th quantile so far — the
    /// percentile *change rate* signal.
    #[must_use]
    pub fn moves(&self, i: usize) -> u64 {
        self.markers.get(i).map_or(0, |m| m.moves)
    }

    /// The quantile configured at slot `i`.
    #[must_use]
    pub fn quantile(&self, i: usize) -> Option<Quantile> {
        self.markers.get(i).map(|m| m.q)
    }

    /// Total observations recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Frequency of `value` (zero if out of domain).
    #[must_use]
    pub fn frequency(&self, value: i64) -> u64 {
        if value < self.min || value > self.max {
            0
        } else {
            self.counts[(value - self.min) as usize]
        }
    }

    /// Inclusive domain bounds.
    #[must_use]
    pub fn domain(&self) -> (i64, i64) {
        (self.min, self.max)
    }

    /// Verifies the register invariant `low + f(pos) + high == total` for
    /// every marker; used by tests and debug assertions.
    #[must_use]
    pub fn masses_consistent(&self) -> bool {
        self.markers.iter().all(|m| match m.pos {
            None => self.total == 0,
            Some(p) => m.low + self.counts[p] + m.high == self.total,
        })
    }

    /// Clears all counters and markers.
    pub fn reset(&mut self) {
        self.counts.fill(0);
        self.total = 0;
        for m in &mut self.markers {
            let q = m.q;
            *m = Marker::new(q);
        }
    }
}

/// A frequency-counter array and the quantiles read off it exactly.
/// [`Self::observe`] bumps one cell and takes no marker step, counts
/// merge by addition, and [`Self::estimate`] scans them where the
/// quantile is read: the data plane bins and the controller reads the
/// percentile off the bins, as P4TG's histogram monitoring does.
#[derive(Debug, Clone)]
pub struct QuantileCounts {
    min: i64,
    max: i64,
    counts: Vec<u64>,
    total: u64,
    quantiles: Vec<Quantile>,
    /// Cells touched since the last `take_delta`; not part of the
    /// tracker's identity (excluded from eq).
    journal: DirtyJournal,
    /// `total` at the last `take_delta` — the delta's total baseline.
    taken_total: u64,
}

/// Equality is over the domain, counters and quantiles — the dirty
/// journal is bookkeeping, not identity.
impl PartialEq for QuantileCounts {
    fn eq(&self, other: &Self) -> bool {
        (self.min, self.max, self.total) == (other.min, other.max, other.total)
            && self.counts == other.counts
            && self.quantiles == other.quantiles
    }
}

impl Eq for QuantileCounts {}

impl QuantileCounts {
    /// Empty counts over the inclusive domain `[min, max]`, answering
    /// `quantiles`.
    ///
    /// # Errors
    ///
    /// [`Stat4Error::InvalidDomain`] for an empty or oversized domain.
    pub fn new(min: i64, max: i64, quantiles: &[Quantile]) -> Stat4Result<Self> {
        Self::from_counts(min, max, quantiles, vec![0; domain_cells(min, max)?])
    }

    /// Counts exported through [`Self::counts`], as a checkpoint holds
    /// them. The total is their sum, so it cannot disagree with them.
    ///
    /// # Errors
    ///
    /// [`Stat4Error::InvalidDomain`] for a bad domain or a counts array
    /// of the wrong length; [`Stat4Error::InvalidState`] when the counts
    /// sum past `u64::MAX`.
    pub fn from_counts(min: i64, max: i64, quantiles: &[Quantile], counts: Vec<u64>) -> Stat4Result<Self> {
        if counts.len() != domain_cells(min, max)? {
            return Err(Stat4Error::InvalidDomain { min, max });
        }
        let what = "counts sum past u64::MAX";
        let total = counts.iter().try_fold(0u64, |sum, &c| sum.checked_add(c));
        let total = total.ok_or(Stat4Error::InvalidState { what })?;
        let journal = DirtyJournal::over(counts.len());
        Ok(Self {
            min,
            max,
            counts,
            total,
            quantiles: quantiles.to_vec(),
            journal,
            // Restored counts ship nothing until the next take.
            taken_total: total,
        })
    }

    /// Records one occurrence of `value`: one cell, no marker step.
    ///
    /// # Errors
    ///
    /// [`Stat4Error::ValueOutOfDomain`] if outside the domain.
    // Always inlined: `replay::ShardState::ingest_meta` calls this per
    // frame, and with plain `#[inline]` LLVM's cost model took the call
    // back out of line as soon as that crate had a second caller.
    #[inline(always)]
    pub fn observe(&mut self, value: i64) -> Stat4Result<()> {
        if value < self.min || value > self.max {
            return Err(Stat4Error::ValueOutOfDomain { value, min: self.min, max: self.max });
        }
        let idx = (value - self.min) as usize;
        self.journal.mark(idx, self.counts[idx]);
        self.counts[idx] += 1;
        self.total += 1;
        Ok(())
    }

    /// The `i`-th configured quantile at nearest rank: the smallest
    /// value whose cumulative count `cum` meets `(a+b)·cum ≥ a·total`
    /// for the quantile's weights `a : b` — the cell a loop-capable
    /// marker walk from the lowest populated cell would settle on.
    /// `None` before the first observation or for no such quantile.
    #[must_use]
    pub fn estimate(&self, i: usize) -> Option<i64> {
        let q = self.quantiles.get(i)?;
        if self.total == 0 {
            return None;
        }
        let (a, b) = (u128::from(q.low_weight), u128::from(q.high_weight));
        // `cum ≥ ⌈a·total / (a+b)⌉`, which fits a `u64` as `a < a+b`.
        let rank = (a * u128::from(self.total)).div_ceil(a + b) as u64;
        let mut cum = 0u64;
        let at = self.counts.iter().position(|&c| {
            cum = cum.saturating_add(c);
            cum >= rank
        });
        Some(self.min + at.unwrap_or(self.counts.len() - 1) as i64)
    }

    /// Raw per-cell counts — the checkpoint export counterpart of
    /// [`Self::from_counts`].
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Inclusive domain bounds.
    #[must_use]
    pub fn domain(&self) -> (i64, i64) {
        (self.min, self.max)
    }
}

impl DeltaMergeable for QuantileCounts {
    type Delta = PercentileDelta;

    fn take_delta_into(&mut self, delta: &mut PercentileDelta) {
        self.journal.drain_cells_into(&self.counts, &mut delta.cells);
        delta.total_base = self.taken_total;
        delta.total_cur = self.total;
        self.taken_total = self.total;
    }

    /// Adds the count increments cellwise. Nothing else is kept, so the
    /// delta-applied counts equal a full merge's.
    fn apply_delta(&mut self, delta: &PercentileDelta) -> Stat4Result<()> {
        for &(idx, base, cur) in &delta.cells {
            let what = "percentile domains";
            let c = self.counts.get_mut(idx as usize).ok_or(Stat4Error::MergeMismatch { what })?;
            *c = if cur >= base {
                c.saturating_add(cur - base)
            } else {
                c.saturating_sub(base - cur)
            };
        }
        let (tb, tc) = (delta.total_base, delta.total_cur);
        self.total = if tc >= tb {
            self.total.saturating_add(tc - tb)
        } else {
            self.total.saturating_sub(tb - tc)
        };
        Ok(())
    }
}

impl Mergeable for QuantileCounts {
    /// Cellwise addition: counts are plain frequency registers, so any
    /// partition of a stream merges back to the sequential counts, and
    /// every quantile read off them is shard-count invariant.
    fn merge_from(&mut self, other: &Self) -> Stat4Result<()> {
        if (self.min, self.max) != (other.min, other.max) {
            return Err(Stat4Error::MergeMismatch { what: "percentile domains" });
        }
        if self.quantiles != other.quantiles {
            return Err(Stat4Error::MergeMismatch { what: "quantile sets" });
        }
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c = c.saturating_add(*o);
        }
        self.total = self.total.saturating_add(other.total);
        Ok(())
    }
}

/// Convenience wrapper tracking a single quantile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PercentileTracker {
    set: PercentileSet,
}

impl PercentileTracker {
    /// A median tracker over `[min, max]`.
    ///
    /// # Errors
    ///
    /// See [`PercentileSet::new`].
    pub fn median(min: i64, max: i64) -> Stat4Result<Self> {
        Ok(Self {
            set: PercentileSet::new(min, max, &[Quantile::median()])?,
        })
    }

    /// A tracker for quantile `q` over `[min, max]`.
    ///
    /// # Errors
    ///
    /// See [`PercentileSet::new`].
    pub fn new(min: i64, max: i64, q: Quantile) -> Stat4Result<Self> {
        Ok(Self {
            set: PercentileSet::new(min, max, &[q])?,
        })
    }

    /// Records one occurrence and rebalances (at most one marker step).
    ///
    /// # Errors
    ///
    /// [`Stat4Error::ValueOutOfDomain`] if outside the domain.
    pub fn observe(&mut self, value: i64) -> Stat4Result<()> {
        self.set.observe(value)
    }

    /// Current estimate, `None` before the first observation.
    #[must_use]
    pub fn estimate(&self) -> Option<i64> {
        self.set.estimate(0)
    }

    /// Marker movements so far.
    #[must_use]
    pub fn moves(&self) -> u64 {
        self.set.moves(0)
    }

    /// Total observations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.set.total()
    }

    /// Read-only access to the underlying set.
    #[must_use]
    pub fn as_set(&self) -> &PercentileSet {
        &self.set
    }

    /// Reloads counters and the marker's walk position exported from a
    /// tracker of the same domain and quantile (through
    /// [`Self::as_set`]: `counts`, `total`, `export_markers`), with the
    /// mass invariants a checkpoint import cannot take on trust.
    ///
    /// # Errors
    ///
    /// Everything [`PercentileSet::from_raw`] rejects, plus
    /// [`Stat4Error::InvalidState`] when the marker tracks another
    /// quantile, the counters do not add up to `total`, or the masses
    /// around the marker do not; `self` is left untouched.
    pub fn restore(&mut self, counts: Vec<u64>, total: u64, marker: MarkerRaw) -> Stat4Result<()> {
        let tracked = self.set.quantile(0).map(|q| (q.low_weight(), q.high_weight()));
        let sum: u128 = counts.iter().map(|&c| u128::from(c)).sum();
        let around = marker.pos.and_then(|p| counts.get(p)).map_or(0, |&at| {
            u128::from(marker.low) + u128::from(at) + u128::from(marker.high)
        });
        let what = if tracked != Some((marker.low_weight, marker.high_weight)) {
            "marker tracks a different quantile"
        } else if sum != u128::from(total) {
            "percentile counters do not add up to the total"
        } else if around != u128::from(total) {
            "masses around the marker do not add up to the total"
        } else {
            let (min, max) = self.set.domain();
            self.set = PercentileSet::from_raw(min, max, counts, total, &[marker])?;
            return Ok(());
        };
        Err(Stat4Error::InvalidState { what })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use proptest::prelude::*;

    /// The paper's Figure 3 at the register level. The pre-add state has
    /// frequencies {2:10, 3:2, 6:1, 9:5, 10:6} (Figure 3 without the
    /// added 8) and the marker one imbalance away from value 4. Feeding
    /// the 8 pushes the marker onto the empty cell 4; it then takes
    /// **two more steps** — one per packet — to skip the empty cells and
    /// settle on 6, exactly as the paper narrates ("it would therefore
    /// take us two packets to move the median from 4 to 6").
    #[test]
    fn figure3_register_transition() {
        let mut s = PercentileSet::new(1, 10, &[Quantile::median()]).unwrap();
        // Feed low values first so the marker seeds at 2, then the high
        // tail; the marker walks up as the high mass accumulates.
        for _ in 0..10 {
            s.observe(2).unwrap();
        }
        for _ in 0..2 {
            s.observe(3).unwrap();
        }
        s.observe(6).unwrap();
        for _ in 0..5 {
            s.observe(9).unwrap();
        }
        for _ in 0..6 {
            s.observe(10).unwrap();
        }
        assert!(s.masses_consistent());
        assert_eq!(s.estimate(0), Some(3), "pre-add resting point");

        // The paper's added packet with value 8.
        s.observe(8).unwrap();
        assert_eq!(s.estimate(0), Some(4), "one packet, one step: onto 4");
        assert!(s.masses_consistent());

        // Two further packets' worth of rebalancing: 4 -> 5 -> 6, the
        // empty cell 5 costing one packet, as in the paper.
        let steps = s.rebalance_full();
        assert_eq!(steps, 2, "two packets to move the median from 4 to 6");
        assert_eq!(s.estimate(0), Some(6));
        assert!(s.masses_consistent());
    }

    #[test]
    fn quantile_constructors() {
        assert_eq!(Quantile::median().fraction(), 0.5);
        let p90 = Quantile::percentile(90).unwrap();
        assert_eq!((p90.low_weight(), p90.high_weight()), (9, 1));
        let p10 = Quantile::percentile(10).unwrap();
        assert_eq!((p10.low_weight(), p10.high_weight()), (1, 9));
        let p75 = Quantile::percentile(75).unwrap();
        assert_eq!((p75.low_weight(), p75.high_weight()), (3, 1));
        assert!(Quantile::percentile(0).is_err());
        assert!(Quantile::percentile(100).is_err());
        assert!(Quantile::from_weights(0, 1).is_err());
    }

    #[test]
    fn median_of_uniform_converges() {
        let mut t = PercentileTracker::median(1, 100).unwrap();
        // Deterministic uniform sweep, repeated: true median = 50 (lower).
        for _ in 0..20 {
            for v in 1..=100 {
                t.observe(v).unwrap();
            }
        }
        let est = t.estimate().unwrap();
        assert!((49..=51).contains(&est), "estimate = {est}");
        assert!(t.as_set().masses_consistent());
    }

    #[test]
    fn p90_of_uniform_converges() {
        let mut t = PercentileTracker::new(1, 100, Quantile::percentile(90).unwrap()).unwrap();
        for _ in 0..20 {
            for v in 1..=100 {
                t.observe(v).unwrap();
            }
        }
        let est = t.estimate().unwrap();
        assert!((88..=92).contains(&est), "estimate = {est}");
    }

    #[test]
    fn constant_stream_pins_marker() {
        let mut t = PercentileTracker::median(0, 1000).unwrap();
        for _ in 0..500 {
            t.observe(700).unwrap();
        }
        assert_eq!(t.estimate(), Some(700));
        assert_eq!(t.moves(), 0, "marker seeded at the value, never moves");
    }

    #[test]
    fn one_step_per_packet_bound() {
        let mut t = PercentileTracker::median(0, 1000).unwrap();
        t.observe(0).unwrap();
        let mut prev = t.estimate().unwrap();
        // Hammer the far end: the marker may only walk one cell a packet.
        for _ in 0..100 {
            t.observe(1000).unwrap();
            let now = t.estimate().unwrap();
            assert!((now - prev).abs() <= 1);
            prev = now;
        }
        assert!(t.estimate().unwrap() <= 101);
    }

    #[test]
    fn multiple_markers_share_counts() {
        let qs = [
            Quantile::percentile(10).unwrap(),
            Quantile::median(),
            Quantile::percentile(90).unwrap(),
        ];
        let mut s = PercentileSet::new(1, 100, &qs).unwrap();
        for _ in 0..30 {
            for v in 1..=100 {
                s.observe(v).unwrap();
            }
        }
        let p10 = s.estimate(0).unwrap();
        let p50 = s.estimate(1).unwrap();
        let p90 = s.estimate(2).unwrap();
        assert!(p10 < p50 && p50 < p90);
        assert!((8..=12).contains(&p10), "p10 = {p10}");
        assert!((48..=52).contains(&p50), "p50 = {p50}");
        assert!((88..=92).contains(&p90), "p90 = {p90}");
        assert!(s.masses_consistent());
    }

    #[test]
    fn from_raw_round_trips_verbatim() {
        let qs = [Quantile::median(), Quantile::percentile(90).unwrap()];
        let mut s = PercentileSet::new(0, 50, &qs).unwrap();
        // An asymmetric stream leaves the markers mid-walk, away from
        // the exact quantile — exactly what a checkpoint must preserve.
        s.observe(0).unwrap();
        for _ in 0..40 {
            s.observe(50).unwrap();
        }
        let restored = PercentileSet::from_raw(
            0,
            50,
            s.counts().to_vec(),
            s.total(),
            &s.export_markers(),
        )
        .unwrap();
        assert_eq!(restored, s);
    }

    #[test]
    fn tracker_restore_is_exact_and_checks_the_masses() {
        let mut live = PercentileTracker::median(0, 63).unwrap();
        for v in [5, 9, 9, 40, 41, 12, 9, 63, 0, 33] {
            live.observe(v).unwrap();
        }
        let raw = |t: &PercentileTracker| {
            let set = t.as_set();
            (set.counts().to_vec(), set.total(), set.export_markers()[0])
        };
        let mut back = PercentileTracker::median(0, 63).unwrap();
        let (counts, total, marker) = raw(&live);
        back.restore(counts, total, marker).unwrap();
        assert_eq!(back, live);
        for v in [1, 62, 30] {
            back.observe(v).unwrap();
            live.observe(v).unwrap();
        }
        assert_eq!((back.estimate(), back.moves()), (live.estimate(), live.moves()));

        let (counts, total, marker) = raw(&live);
        let fresh = PercentileTracker::median(0, 63).unwrap();
        let mut t = fresh.clone();
        let invalid = |r: Stat4Result<()>| matches!(r, Err(Stat4Error::InvalidState { .. }));
        assert!(invalid(t.restore(counts.clone(), total + 1, marker)));
        assert!(invalid(t.restore(counts.clone(), total, MarkerRaw { low: marker.low + 1, ..marker })));
        assert!(invalid(t.restore(counts.clone(), total, MarkerRaw { pos: None, ..marker })));
        assert!(invalid(t.restore(counts.clone(), total, MarkerRaw { low_weight: 9, ..marker })));
        assert!(t.restore(counts[1..].to_vec(), total - counts[0], marker).is_err());
        assert_eq!(t, fresh, "a failed restore changes nothing");
    }

    #[test]
    fn from_raw_rejects_bad_state() {
        assert!(PercentileSet::from_raw(0, 10, vec![0; 5], 0, &[]).is_err());
        let bad_pos = MarkerRaw {
            low_weight: 1,
            high_weight: 1,
            pos: Some(11),
            low: 0,
            high: 0,
            moves: 0,
        };
        assert!(PercentileSet::from_raw(0, 10, vec![0; 11], 0, &[bad_pos]).is_err());
        let bad_q = MarkerRaw {
            low_weight: 0,
            high_weight: 1,
            pos: None,
            low: 0,
            high: 0,
            moves: 0,
        };
        assert!(PercentileSet::from_raw(0, 10, vec![0; 11], 0, &[bad_q]).is_err());
    }

    #[test]
    fn out_of_domain_rejected() {
        let mut t = PercentileTracker::median(0, 10).unwrap();
        assert!(t.observe(11).is_err());
        assert!(t.observe(-1).is_err());
        assert_eq!(t.estimate(), None);
    }

    #[test]
    fn reset_restores_empty() {
        let mut s = PercentileSet::new(0, 10, &[Quantile::median()]).unwrap();
        s.observe(5).unwrap();
        s.reset();
        assert_eq!(s.estimate(0), None);
        assert_eq!(s.total(), 0);
        assert!(s.masses_consistent());
    }

    /// Nearest rank in integers: the smallest value `v` with
    /// `100·#{x ≤ v} ≥ p·n`, `None` for no values.
    fn nearest_rank(values: &[i64], p: u32) -> Option<i64> {
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        let rank = (u64::from(p) * sorted.len() as u64).div_ceil(100).max(1);
        sorted.get(rank as usize - 1).copied()
    }

    #[test]
    fn counts_answer_nothing_empty_and_one_cell_populated() {
        let qs: Vec<Quantile> = (1..=99).map(|p| Quantile::percentile(p).unwrap()).collect();
        let mut c = QuantileCounts::new(-5, 60, &qs).unwrap();
        assert!((0..=qs.len()).all(|i| c.estimate(i).is_none()), "nothing observed");
        for _ in 0..7 {
            c.observe(42).unwrap();
        }
        assert!((0..qs.len()).all(|i| c.estimate(i) == Some(42)));
        assert_eq!(c.estimate(qs.len()), None, "no such quantile");
        assert!(c.observe(61).is_err() && c.observe(-6).is_err());
        assert_eq!(c.total(), 7);
    }

    #[test]
    fn counts_summing_past_u64_max_are_refused() {
        let q = [Quantile::median()];
        let over = QuantileCounts::from_counts(0, 2, &q, vec![u64::MAX, 0, 1]);
        assert!(matches!(over, Err(Stat4Error::InvalidState { .. })), "{over:?}");
        assert!(QuantileCounts::from_counts(0, 2, &q, vec![0; 4]).is_err());
        let full = QuantileCounts::from_counts(0, 2, &q, vec![u64::MAX - 1, 0, 1]).unwrap();
        assert_eq!((full.total(), full.estimate(0)), (u64::MAX, Some(0)));
    }

    #[test]
    fn moves_counts_marker_movement() {
        let mut t = PercentileTracker::median(0, 100).unwrap();
        t.observe(0).unwrap();
        for _ in 0..10 {
            t.observe(100).unwrap();
        }
        assert!(t.moves() >= 5, "moves = {}", t.moves());
    }

    proptest! {
        /// The counts answer every percentile at its nearest rank,
        /// computed in integers, and the median at `oracle::median`'s
        /// (its float rank `0.5·n` is exact).
        #[test]
        fn counts_estimate_is_nearest_rank(
            values in proptest::collection::vec(-20i64..=40, 0..300),
        ) {
            let qs: Vec<Quantile> = (1..=99).map(|p| Quantile::percentile(p).unwrap()).collect();
            let mut c = QuantileCounts::new(-20, 40, &qs).unwrap();
            for v in &values {
                c.observe(*v).unwrap();
            }
            for p in 1..=99 {
                prop_assert_eq!(c.estimate(p as usize - 1), nearest_rank(&values, p), "p{}", p);
            }
            prop_assert_eq!(c.estimate(49), oracle::median(&values));
        }

        /// Register invariant after any observation sequence.
        #[test]
        fn masses_always_consistent(values in proptest::collection::vec(0i64..=50, 0..400)) {
            let mut s = PercentileSet::new(
                0, 50,
                &[Quantile::median(), Quantile::percentile(90).unwrap()],
            ).unwrap();
            for v in &values {
                s.observe(*v).unwrap();
            }
            prop_assert!(s.masses_consistent());
        }

        /// After full rebalance on a static distribution the marker is a
        /// valid nearest-rank median up to one occupied cell: the mass
        /// strictly below never exceeds half the total, and the mass
        /// strictly above never exceeds half the total plus the marker
        /// cell.
        #[test]
        fn full_rebalance_is_balanced(values in proptest::collection::vec(0i64..=30, 1..300)) {
            let mut s = PercentileSet::new(0, 30, &[Quantile::median()]).unwrap();
            for v in &values {
                s.observe(*v).unwrap();
            }
            s.rebalance_full();
            let p = s.estimate(0).unwrap();
            let below: u64 = (0..p).map(|v| s.frequency(v)).sum();
            let above: u64 = ((p + 1)..=30).map(|v| s.frequency(v)).sum();
            let f = s.frequency(p);
            // Balance conditions hold (no further step possible):
            prop_assert!(above <= below + f);
            prop_assert!(below <= above + f);
        }

        /// The fully rebalanced median is close to the exact oracle
        /// median: within the span of the marker's cell neighbourhood
        /// (empty cells between occupied ones can park the marker one
        /// occupied-run away from the oracle's nearest-rank choice).
        #[test]
        fn converged_median_near_oracle(values in proptest::collection::vec(0i64..=30, 5..300)) {
            let mut s = PercentileSet::new(0, 30, &[Quantile::median()]).unwrap();
            for v in &values {
                s.observe(*v).unwrap();
            }
            s.rebalance_full();
            let est = s.estimate(0).unwrap();
            let truth = oracle::median(values.as_slice()).unwrap();
            // The marker's balance-point can differ from nearest-rank by
            // at most one occupied cell in each direction; bound the rank
            // error instead of the value error.
            let below: u64 = (0..est).map(|v| s.frequency(v)).sum();
            let n = values.len() as u64;
            prop_assert!(below <= n / 2 + 1, "below = {below} n = {n} est = {est} truth = {truth}");
        }

        /// Marker estimates of distinct quantiles are ordered.
        #[test]
        fn quantile_estimates_ordered(values in proptest::collection::vec(0i64..=40, 50..400)) {
            let qs = [
                Quantile::percentile(25).unwrap(),
                Quantile::median(),
                Quantile::percentile(75).unwrap(),
            ];
            let mut s = PercentileSet::new(0, 40, &qs).unwrap();
            for v in &values {
                s.observe(*v).unwrap();
            }
            s.rebalance_full();
            let p25 = s.estimate(0).unwrap();
            let p50 = s.estimate(1).unwrap();
            let p75 = s.estimate(2).unwrap();
            prop_assert!(p25 <= p50 + 1 && p50 <= p75 + 1,
                "p25={p25} p50={p50} p75={p75}");
        }
    }
}
