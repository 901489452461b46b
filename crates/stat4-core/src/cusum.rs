//! Integer CUSUM change detection.
//!
//! A second "in-switch statistical primitive" beyond the paper's
//! mean ± k·σ band (its future-work section invites exactly this
//! exploration). CUSUM accumulates evidence of a *persistent* shift
//! rather than judging each interval in isolation:
//!
//! ```text
//! S ← max(0, S + (x − target − slack))
//! alarm when S > threshold
//! ```
//!
//! Everything is addition, subtraction, comparison and `max` — the same
//! P4-legal vocabulary as the rest of the library. Against the paper's
//! band check, CUSUM trades a little detection latency on huge spikes
//! for the ability to catch *small sustained* shifts the band never
//! sees (a spike of +0.5σ per interval is invisible to a 2σ band but
//! accumulates linearly in S); `repro cusum` quantifies
//! the trade.
//!
//! The `target`/`slack` parameters are either fixed by the controller
//! or derived from the tracked mean — [`CusumDetector::from_stats`]
//! uses the paper's own `Xsum`/`N` machinery to calibrate them (one
//! division *at the controller*, never in the data plane, matching the
//! paper's division of labour).

use crate::error::{Stat4Error, Stat4Result};
use crate::running::RunningStats;

/// One-sided (upper) integer CUSUM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CusumDetector {
    /// Reference level subtracted from every sample.
    pub target: i64,
    /// Additional slack per sample (suppresses drift from noise).
    pub slack: i64,
    /// Alarm threshold on the accumulated sum.
    pub threshold: i64,
    /// The accumulated statistic `S`.
    s: i64,
    /// Alarms raised so far.
    pub alarms: u64,
}

impl CusumDetector {
    /// Creates a detector with explicit calibration.
    #[must_use]
    pub fn new(target: i64, slack: i64, threshold: i64) -> Self {
        Self {
            target,
            slack,
            threshold,
            s: 0,
            alarms: 0,
        }
    }

    /// Calibrates from tracked statistics (controller-side): `target` =
    /// the current mean, `slack` = `slack_sigmas/2` standard deviations,
    /// `threshold` = `threshold_sigmas` standard deviations — the
    /// textbook (k = σ/2, h = 4σ…5σ) tuning, computed from the same
    /// `Xsum`/`N`/`σ(NX)` registers the paper maintains.
    #[must_use]
    pub fn from_stats(stats: &RunningStats, slack_halves: i64, threshold_sigmas: i64) -> Self {
        let n = stats.n().max(1) as i64;
        let mean = stats.xsum() / n;
        let sd = (stats.sd_nx() as i64) / n; // σ(X) = σ(NX)/N
        Self::new(
            mean,
            (slack_halves * sd / 2).max(1),
            (threshold_sigmas * sd).max(4),
        )
    }

    /// Feeds one sample; returns true if the alarm fired (the statistic
    /// resets after an alarm).
    pub fn observe(&mut self, x: i64) -> bool {
        self.s = (self.s + x - self.target - self.slack).max(0);
        if self.s > self.threshold {
            self.alarms += 1;
            self.s = 0;
            true
        } else {
            false
        }
    }

    /// Current accumulated evidence.
    #[must_use]
    pub fn statistic(&self) -> i64 {
        self.s
    }

    /// Resets the accumulated statistic (not the calibration).
    pub fn reset(&mut self) {
        self.s = 0;
    }

    /// Reloads the accumulated statistic exported by
    /// [`Self::statistic`] (the calibration and alarm count are public
    /// fields).
    ///
    /// # Errors
    ///
    /// [`Stat4Error::InvalidState`] for a negative statistic, which
    /// [`Self::observe`] can never leave behind.
    pub fn restore_statistic(&mut self, s: i64) -> Stat4Result<()> {
        if s < 0 {
            return Err(Stat4Error::InvalidState {
                what: "negative CUSUM statistic",
            });
        }
        self.s = s;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn quiet_on_target_noise() {
        let mut c = CusumDetector::new(100, 3, 50);
        // Noise within +-slack around the target never accumulates.
        for i in 0..10_000i64 {
            let x = 100 + [0, 1, -1, 2, -2, 3, -3][(i % 7) as usize];
            assert!(!c.observe(x), "false alarm at {i}");
        }
        assert_eq!(c.alarms, 0);
    }

    #[test]
    fn detects_small_sustained_shift() {
        // +5 over target with slack 3: accumulates 2 per sample; the
        // 2-sigma band (sigma ~2) would need x >= 104+margin and sees
        // at most borderline evidence each interval.
        let mut c = CusumDetector::new(100, 3, 50);
        let mut fired_at = None;
        for i in 0..1000i64 {
            if c.observe(105) {
                fired_at = Some(i);
                break;
            }
        }
        let at = fired_at.expect("sustained shift detected");
        assert!(at <= 30, "accumulates ~2/sample: fired at {at}");
    }

    #[test]
    fn huge_spike_fires_quickly() {
        let mut c = CusumDetector::new(100, 3, 50);
        for _ in 0..20 {
            c.observe(100);
        }
        assert!(c.observe(1000), "one giant sample crosses the threshold");
        assert_eq!(c.statistic(), 0, "reset after alarm");
    }

    #[test]
    fn calibration_from_stats() {
        let mut s = RunningStats::new();
        for v in [100i64, 102, 98, 101, 99, 100, 103, 97, 100, 100] {
            s.push(v);
        }
        let c = CusumDetector::from_stats(&s, 1, 8);
        assert_eq!(c.target, s.xsum() / 10);
        assert!(c.slack >= 1);
        assert!(c.threshold >= 4);
    }

    proptest! {
        /// The statistic never goes negative and never exceeds the
        /// threshold after observe returns.
        #[test]
        fn statistic_invariants(
            samples in proptest::collection::vec(0i64..10_000, 1..500),
            target in 0i64..5_000,
            slack in 1i64..100,
            threshold in 10i64..1_000,
        ) {
            let mut c = CusumDetector::new(target, slack, threshold);
            for &x in &samples {
                let _ = c.observe(x);
                prop_assert!(c.statistic() >= 0);
                prop_assert!(c.statistic() <= threshold);
            }
        }

        /// Detection delay is monotone in drift magnitude: feeding a
        /// constant supercritical level `target + slack + d`, a larger
        /// `d` never fires *later* than a smaller one (each sample
        /// accumulates exactly `d`, so the delay is `ceil((h+1)/d)`).
        #[test]
        fn detection_delay_monotone_in_drift(
            d_small in 1i64..50,
            d_extra in 1i64..50,
            target in 0i64..1_000,
            slack in 1i64..20,
            threshold in 10i64..500,
        ) {
            let delay_of = |d: i64| -> i64 {
                let mut c = CusumDetector::new(target, slack, threshold);
                for i in 1..10_000i64 {
                    if c.observe(target + slack + d) {
                        return i;
                    }
                }
                i64::MAX
            };
            let slow = delay_of(d_small);
            let fast = delay_of(d_small + d_extra);
            prop_assert!(slow < i64::MAX, "supercritical drift always fires");
            prop_assert!(
                fast <= slow,
                "drift {} fired at {}, larger drift {} at {}",
                d_small, slow, d_small + d_extra, fast
            );
        }

        /// Samples at or below target+slack never alarm.
        #[test]
        fn subcritical_never_alarms(
            deltas in proptest::collection::vec(-100i64..=0, 1..500),
        ) {
            let mut c = CusumDetector::new(50, 5, 100);
            for &d in &deltas {
                prop_assert!(!c.observe(50 + 5 + d));
            }
        }
    }

    #[test]
    fn restored_statistic_continues_the_same_walk() {
        let mut live = CusumDetector::new(10, 1, 20);
        for x in [12, 15, 9, 14] {
            live.observe(x);
        }
        let mut back = CusumDetector::new(10, 1, 20);
        back.alarms = live.alarms;
        back.restore_statistic(live.statistic()).unwrap();
        assert_eq!(back, live);
        for x in [18, 30, 11] {
            assert_eq!(back.observe(x), live.observe(x));
        }
        assert_eq!(back, live);
        assert!(back.restore_statistic(-1).is_err());
    }
}
