//! Circular-buffer distributions of per-interval values.
//!
//! The paper's case study (Sec. 4) monitors *packets per time interval*:
//! "the switch implements a circular buffer that by default stores 100
//! 8ms-long time intervals". Every packet increments the current
//! interval's counter; when an interval closes, the interval's value
//! joins the distribution (and once the buffer is full, evicts the
//! oldest value — the 12-step "override the oldest counter" chain the
//! paper's resource analysis mentions).
//!
//! [`WindowedDist`] packages that: a ring of interval counters plus a
//! [`RunningStats`] over the ring contents, with the paper's outlier
//! check (`N·x > Xsum + k·σ(NX)`) evaluated when intervals close.

use crate::error::{Stat4Error, Stat4Result};
use crate::running::RunningStats;

/// A sliding window of the most recent `capacity` interval values with
/// constant-work maintenance of `N`, `Xsum`, `Xsumsq`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowedDist {
    ring: Vec<i64>,
    /// Next slot to write (== oldest slot once the ring is full).
    head: usize,
    /// Number of valid slots (saturates at `ring.len()`).
    filled: usize,
    stats: RunningStats,
    /// Counter accumulating within the *current, still-open* interval.
    current: i64,
}

impl WindowedDist {
    /// Creates a window of `capacity` intervals (the paper's default is
    /// 100).
    ///
    /// # Errors
    ///
    /// [`Stat4Error::EmptyWindow`] if `capacity == 0`.
    pub fn new(capacity: usize) -> Stat4Result<Self> {
        if capacity == 0 {
            return Err(Stat4Error::EmptyWindow);
        }
        Ok(Self {
            ring: vec![0; capacity],
            head: 0,
            filled: 0,
            stats: RunningStats::new(),
            current: 0,
        })
    }

    /// Adds `amount` to the still-open interval (one packet's
    /// contribution: 1 for packet counts, the length for byte counts).
    pub fn accumulate(&mut self, amount: i64) {
        self.current = self.current.saturating_add(amount);
    }

    /// Value accumulated in the still-open interval.
    #[must_use]
    pub fn current(&self) -> i64 {
        self.current
    }

    /// Closes the current interval: its value enters the distribution
    /// (evicting the oldest value if the ring is full) and the
    /// accumulator resets. Returns the closed value.
    pub fn close_interval(&mut self) -> i64 {
        let value = self.current;
        self.current = 0;
        if self.filled < self.ring.len() {
            self.ring[self.head] = value;
            self.stats.push(value);
            self.filled += 1;
        } else {
            let old = self.ring[self.head];
            self.ring[self.head] = value;
            self.stats.replace(old, value);
        }
        self.head = (self.head + 1) % self.ring.len();
        value
    }

    /// The moments over the closed intervals currently in the window.
    #[must_use]
    pub fn stats(&self) -> &RunningStats {
        &self.stats
    }

    /// Number of closed intervals currently in the window.
    #[must_use]
    pub fn len(&self) -> usize {
        self.filled
    }

    /// True before any interval has closed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.filled == 0
    }

    /// Window capacity in intervals.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.ring.len()
    }

    /// The paper's case-study check, run when an interval closes: is the
    /// just-closed value `x` an upper outlier of the stored distribution
    /// (`N·x > Xsum + k·σ(NX)`)? Requires a minimally warm window
    /// (`min_fill` closed intervals) before it will ever fire, so the
    /// first interval cannot alarm against an empty history.
    #[must_use]
    pub fn is_spike(&self, x: i64, k: u32, min_fill: usize) -> bool {
        self.filled >= min_fill && self.stats.is_upper_outlier(x, k)
    }

    /// [`Self::is_spike`] with the relative margin: the closed value
    /// must also beat the mean by `max(Xsum >> shift, floor)` — the
    /// production configuration of the detectors (a bare k·σ band
    /// false-alarms on stochastic interval counts).
    #[must_use]
    pub fn is_spike_margined(&self, x: i64, k: u32, min_fill: usize, shift: u32, floor: u64) -> bool {
        self.filled >= min_fill
            && self
                .stats
                .is_upper_outlier_with_margin(x, k, self.stats.relative_margin(shift, floor))
    }

    /// Lower-tail variant for activity-collapse detection.
    #[must_use]
    pub fn is_drop_margined(&self, x: i64, k: u32, min_fill: usize, shift: u32, floor: u64) -> bool {
        self.filled >= min_fill
            && self
                .stats
                .is_lower_outlier_with_margin(x, k, self.stats.relative_margin(shift, floor))
    }

    /// Iterates the closed intervals, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = i64> + '_ {
        let cap = self.ring.len();
        let start = if self.filled < cap { 0 } else { self.head };
        (0..self.filled).map(move |i| self.ring[(start + i) % cap])
    }

    /// The raw ring slots, in slot order (not age order) — with
    /// [`Self::head`], [`Self::len`], [`Self::stats`] and
    /// [`Self::current`] the complete state [`Self::restore`] reloads.
    #[must_use]
    pub fn ring(&self) -> &[i64] {
        &self.ring
    }

    /// The next slot to be written.
    #[must_use]
    pub fn head(&self) -> usize {
        self.head
    }

    /// Reloads state exported from a window of the same capacity, as a
    /// crash-recovery checkpoint does. The moments are taken verbatim
    /// rather than recomputed from the ring: they saturate, so they
    /// are a function of the window's whole history.
    ///
    /// # Errors
    ///
    /// [`Stat4Error::InvalidState`] if the ring is not `capacity()`
    /// slots, `head` or `filled` point outside it, a part-filled ring
    /// does not have its head at the fill mark, or the moments count a
    /// different number of values than the ring holds; `self` is left
    /// untouched.
    pub fn restore(
        &mut self,
        ring: Vec<i64>,
        head: usize,
        filled: usize,
        stats: RunningStats,
        current: i64,
    ) -> Stat4Result<()> {
        let cap = self.ring.len();
        let what = if ring.len() != cap {
            "window ring length differs from the configured capacity"
        } else if head >= cap || filled > cap {
            "window head or fill mark outside the ring"
        } else if filled < cap && head != filled {
            "part-filled window whose head is not at the fill mark"
        } else if stats.n() != filled as u64 {
            "window moments count a different number of values than the ring holds"
        } else {
            *self = Self { ring, head, filled, stats, current };
            return Ok(());
        };
        Err(Stat4Error::InvalidState { what })
    }

    /// Clears the window and the open accumulator.
    pub fn reset(&mut self) {
        self.ring.fill(0);
        self.head = 0;
        self.filled = 0;
        self.stats.reset();
        self.current = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_capacity_rejected() {
        assert!(matches!(WindowedDist::new(0), Err(Stat4Error::EmptyWindow)));
    }

    #[test]
    fn fill_then_wrap() {
        let mut w = WindowedDist::new(3).unwrap();
        for v in [10, 20, 30] {
            w.accumulate(v);
            w.close_interval();
        }
        assert_eq!(w.len(), 3);
        assert_eq!(w.iter().collect::<Vec<_>>(), vec![10, 20, 30]);
        // Wrap: 40 evicts 10.
        w.accumulate(40);
        w.close_interval();
        assert_eq!(w.len(), 3);
        assert_eq!(w.iter().collect::<Vec<_>>(), vec![20, 30, 40]);
        assert_eq!(w.stats().xsum(), 90);
        assert_eq!(w.stats().n(), 3);
    }

    #[test]
    fn accumulate_within_interval() {
        let mut w = WindowedDist::new(4).unwrap();
        w.accumulate(1);
        w.accumulate(1);
        w.accumulate(3);
        assert_eq!(w.current(), 5);
        assert_eq!(w.close_interval(), 5);
        assert_eq!(w.current(), 0);
        assert_eq!(w.stats().xsum(), 5);
    }

    #[test]
    fn spike_detection_warms_up() {
        let mut w = WindowedDist::new(100).unwrap();
        // Too early: even an enormous value must not alarm.
        assert!(!w.is_spike(1_000_000, 2, 10));
        for _ in 0..50 {
            w.accumulate(100);
            w.close_interval();
        }
        // Insert mild noise so sigma is non-zero.
        for v in [98, 102, 99, 101, 100, 97, 103, 100, 96, 104] {
            w.accumulate(v);
            w.close_interval();
        }
        assert!(w.is_spike(500, 2, 10));
        // 101 sits inside the 2-sigma band (sigma of this stream is ~1).
        assert!(!w.is_spike(101, 2, 10));
    }

    #[test]
    fn stats_match_ring_rebuild_after_wraps() {
        let mut w = WindowedDist::new(5).unwrap();
        for v in 1..=17 {
            w.accumulate(v * 3);
            w.close_interval();
        }
        let mut fresh = RunningStats::new();
        for v in w.iter() {
            fresh.push(v);
        }
        assert_eq!(w.stats().n(), fresh.n());
        assert_eq!(w.stats().xsum(), fresh.xsum());
        assert_eq!(w.stats().xsumsq(), fresh.xsumsq());
    }

    #[test]
    fn reset_clears() {
        let mut w = WindowedDist::new(3).unwrap();
        w.accumulate(9);
        w.close_interval();
        w.accumulate(1);
        w.reset();
        assert!(w.is_empty());
        assert_eq!(w.current(), 0);
        assert_eq!(w.stats().n(), 0);
    }

    proptest! {
        /// After any sequence of interval closes, the incremental stats
        /// equal a batch rebuild over the ring contents.
        #[test]
        fn incremental_equals_rebuild(
            values in proptest::collection::vec(0i64..10_000, 1..60),
            cap in 1usize..12,
        ) {
            let mut w = WindowedDist::new(cap).unwrap();
            for v in &values {
                w.accumulate(*v);
                w.close_interval();
            }
            let mut fresh = RunningStats::new();
            for v in w.iter() {
                fresh.push(v);
            }
            prop_assert_eq!(w.stats().n(), fresh.n());
            prop_assert_eq!(w.stats().xsum(), fresh.xsum());
            prop_assert_eq!(w.stats().xsumsq(), fresh.xsumsq());
        }

        /// The ring always holds the `min(len, cap)` most recent values
        /// in order.
        #[test]
        fn ring_holds_most_recent(
            values in proptest::collection::vec(0i64..1_000, 1..60),
            cap in 1usize..12,
        ) {
            let mut w = WindowedDist::new(cap).unwrap();
            for v in &values {
                w.accumulate(*v);
                w.close_interval();
            }
            let expect: Vec<i64> = values
                .iter()
                .copied()
                .skip(values.len().saturating_sub(cap))
                .collect();
            prop_assert_eq!(w.iter().collect::<Vec<_>>(), expect);
        }
    }

    #[test]
    fn restore_is_exact_before_and_after_wraparound() {
        for closes in [0usize, 3, 5, 12] {
            let mut live = WindowedDist::new(5).unwrap();
            for i in 0..closes {
                live.accumulate(10 + (i as i64 * 7) % 13);
                live.close_interval();
            }
            live.accumulate(4);
            let mut back = WindowedDist::new(5).unwrap();
            back.restore(live.ring().to_vec(), live.head(), live.len(), live.stats().clone(), live.current())
                .unwrap();
            assert_eq!(back, live, "after {closes} closes");
            for w in [&mut live, &mut back] {
                w.accumulate(9);
                w.close_interval();
            }
            assert_eq!(back, live);
        }
    }

    #[test]
    fn restore_rejects_state_no_live_window_can_hold() {
        let mut live = WindowedDist::new(4).unwrap();
        for v in [1, 2] {
            live.accumulate(v);
            live.close_interval();
        }
        let stats = live.stats().clone();
        let fresh = WindowedDist::new(4).unwrap();
        let mut w = fresh.clone();
        let invalid = |r: Stat4Result<()>| matches!(r, Err(Stat4Error::InvalidState { .. }));
        assert!(invalid(w.restore(vec![1, 2, 0], 2, 2, stats.clone(), 0)), "wrong ring length");
        assert!(invalid(w.restore(vec![1, 2, 0, 0], 4, 2, stats.clone(), 0)), "head outside");
        assert!(invalid(w.restore(vec![1, 2, 0, 0], 2, 5, stats.clone(), 0)), "overfull");
        assert!(invalid(w.restore(vec![1, 2, 0, 0], 1, 2, stats.clone(), 0)), "head off the fill mark");
        assert!(invalid(w.restore(vec![1, 2, 0, 0], 3, 3, stats, 0)), "moments count differs");
        assert_eq!(w, fresh, "a failed restore changes nothing");
    }
}
