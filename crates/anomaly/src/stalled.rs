//! Remote-failure detection via stalled flows (paper Table 1: "remote
//! failure — satisfy uptime SLAs, stalled flows over time").
//!
//! The value of interest is *flow activity per interval*: how many
//! tracked flows made progress. A remote failure (link cut, blackholed
//! prefix) makes many flows stall at once, so the per-interval activity
//! collapses — a **lower-tail** outlier of the windowed distribution,
//! the mirror image of the spike check (`N·x < Xsum − k·σ(NX)`).

use crate::alerts::Alert;
use crate::detector::{DetectionResult, Detector, SignalContext};
use crate::state::{WindowState, WindowStateOf};
use stat4_core::window::WindowedDist;
use std::any::Any;
use telemetry::json::{At, FromJson, Lexer, ToJson};
use telemetry::json_struct;

/// Configuration.
#[derive(Debug, Clone, Copy)]
pub struct StalledFlowConfig {
    /// Interval length (ns).
    pub interval_ns: u64,
    /// Window capacity in intervals.
    pub window: usize,
    /// σ multiplier.
    pub k: u32,
    /// Minimum closed intervals before alerts.
    pub min_intervals: usize,
}

impl Default for StalledFlowConfig {
    fn default() -> Self {
        Self {
            interval_ns: 100_000_000, // 100 ms
            window: 50,
            k: 2,
            min_intervals: 10,
        }
    }
}

/// Streaming detector over per-interval activity counts.
#[derive(Debug)]
pub struct StalledFlowDetector {
    cfg: StalledFlowConfig,
    window: WindowedDist,
    current_interval: Option<u64>,
    /// First alert time.
    pub detected_at: Option<u64>,
}

impl StalledFlowDetector {
    /// Creates a detector.
    ///
    /// # Panics
    ///
    /// Panics on a zero-interval window.
    #[must_use]
    pub fn new(cfg: StalledFlowConfig) -> Self {
        Self {
            window: WindowedDist::new(cfg.window).expect("non-empty window"),
            current_interval: None,
            detected_at: None,
            cfg,
        }
    }

    /// Records one unit of flow activity (e.g. an ACK advancing a flow)
    /// at time `at`; returns an alert if the interval that just closed
    /// was anomalously quiet.
    pub fn observe_activity(&mut self, at: u64) -> Option<Alert> {
        let alert = self.roll_to(at);
        self.window.accumulate(1);
        alert
    }

    /// Records `n` units of activity at time `at` in one call —
    /// behaviorally identical to `n` calls of
    /// [`Self::observe_activity`] at the same instant (the roll to
    /// `at` happens once, then the units accumulate), which the
    /// equivalence proptest in this module pins down. `n == 0` is a
    /// plain [`Self::tick`]. This is the entry point for epoch-driven
    /// callers that learn per-interval activity from merged reports.
    pub(crate) fn observe_activity_n(&mut self, at: u64, n: u64) -> Option<Alert> {
        let alert = self.roll_to(at);
        self.window
            .accumulate(i64::try_from(n).unwrap_or(i64::MAX));
        alert
    }

    /// Advances time without activity (call at least once per interval
    /// when idle, e.g. from a timer); may close quiet intervals and
    /// alert on them.
    pub fn tick(&mut self, at: u64) -> Option<Alert> {
        self.roll_to(at)
    }

    fn roll_to(&mut self, at: u64) -> Option<Alert> {
        let ivl = at / self.cfg.interval_ns;
        let cur = match self.current_interval {
            None => {
                self.current_interval = Some(ivl);
                return None;
            }
            Some(c) => c,
        };
        if ivl == cur {
            return None;
        }
        let mut first_alert = None;
        // Close every elapsed interval, including fully idle ones —
        // exactly the case a failure produces.
        for _ in cur..ivl {
            let closed = self.window.current();
            let quiet = self.window.is_drop_margined(
                closed,
                self.cfg.k,
                self.cfg.min_intervals,
                3, // -12.5% of the mean
                4,
            );
            self.window.close_interval();
            if quiet {
                let alert = Alert::ActivityDrop {
                    at,
                    interval_value: closed,
                };
                self.detected_at.get_or_insert(at);
                first_alert.get_or_insert(alert);
            }
        }
        self.current_interval = Some(ivl);
        first_alert
    }

    /// Stats over the stored window (for reports).
    #[must_use]
    pub fn stats(&self) -> &stat4_core::running::RunningStats {
        self.window.stats()
    }
}

/// The activity window, the interval it is in, and the first alert's
/// time; `W` is the window's state as written or as read.
struct StalledState<W> {
    window: W,
    current_interval: Option<u64>,
    detected_at: Option<u64>,
}

json_struct!(@write StalledState<WindowStateOf<'_>> { window, current_interval, detected_at });
json_struct!(@read StalledState<WindowState> { window, current_interval, detected_at });

/// The ensemble's `stalled` engine. Signal binding: per-interval
/// merged packet count as the activity measure, fed as one bulk record
/// at the interval end via `StalledFlowDetector::observe_activity_n`.
/// The window therefore closes interval `e`'s value when interval
/// `e+1` reports — a one-interval judgement lag inherited from the
/// timestamp-driven design. A report that spans several intervals
/// (the ones before it were dropped) carries their average, and each
/// of them is fed that average: a lost report is not a quiet interval.
impl Detector for StalledFlowDetector {
    fn name(&self) -> &'static str {
        "stalled"
    }

    fn update(&mut self, ctx: &SignalContext<'_>) -> Option<DetectionResult> {
        let n = u64::try_from(ctx.packets.max(0)).unwrap_or(0);
        let spanned = u64::try_from(ctx.spanned).unwrap_or(1).max(1);
        let mut fired = false;
        for back in (0..spanned).rev() {
            let at = ctx.at.saturating_sub(back * self.cfg.interval_ns);
            fired |= self.observe_activity_n(at, n).is_some();
        }
        let stats = self.stats();
        let expected = stats.xsum() / (stats.n().max(1) as i64);
        Some(DetectionResult::saturated(self.name(), ctx, fired, expected, ctx.packets))
    }

    fn export_state(&self, out: &mut String) {
        StalledState {
            window: WindowStateOf::of(&self.window),
            current_interval: self.current_interval,
            detected_at: self.detected_at,
        }
        .write_json(out);
    }

    fn import_state(&mut self, lx: &mut Lexer<'_>) -> Result<(), String> {
        let at = At::Root("stalled");
        let s = StalledState::<WindowState>::read_json(lx, at)?;
        s.window.restore(&mut self.window, At::Key(&at, "window"))?;
        self.current_interval = s.current_interval;
        self.detected_at = s.detected_at;
        Ok(())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> StalledFlowConfig {
        StalledFlowConfig {
            interval_ns: 1_000_000,
            window: 32,
            k: 2,
            min_intervals: 8,
        }
    }

    /// Steady activity, then a failure zeroes it: detect on the first
    /// quiet interval.
    #[test]
    fn detects_activity_collapse() {
        let mut det = StalledFlowDetector::new(cfg());
        // ~50 activity units per 1 ms interval for 30 intervals, with
        // deterministic variation.
        for i in 0..30u64 {
            let per = 48 + (i % 5);
            for j in 0..per {
                det.observe_activity(i * 1_000_000 + j * 10_000);
            }
        }
        assert!(det.detected_at.is_none(), "healthy phase clean");
        // Failure: silence. A tick 3 intervals later must close the
        // quiet intervals and alert.
        match det.tick(33 * 1_000_000).expect("collapse detected") {
            Alert::ActivityDrop { interval_value, .. } => {
                assert!(interval_value < 10, "quiet interval: {interval_value}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn gradual_decline_within_band_is_quiet() {
        let mut det = StalledFlowDetector::new(cfg());
        let mut raised = Vec::new();
        for i in 0..40u64 {
            // 50 ± small wiggle, no collapse.
            let per = 50 + (i % 3) - 1;
            for j in 0..per {
                raised.extend(det.observe_activity(i * 1_000_000 + j * 10_000));
            }
        }
        assert!(raised.is_empty(), "alerts: {raised:?}");
        assert!(det.detected_at.is_none());
    }

    mod bulk_equivalence {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// `observe_activity_n(at, n)` ≡ `n × observe_activity(at)`:
            /// the same alert at every step, and identical window stats,
            /// on arbitrary (time, count) sequences.
            #[test]
            fn bulk_activity_equals_repeated_single(
                steps in proptest::collection::vec((0u64..40, 0u64..80), 1..60),
            ) {
                let mut single = StalledFlowDetector::new(cfg());
                let mut bulk = StalledFlowDetector::new(cfg());
                let mut t = 0u64;
                for &(advance, n) in &steps {
                    t += advance * 250_000;
                    let mut raised = None;
                    for _ in 0..n {
                        raised = raised.or(single.observe_activity(t));
                    }
                    if n == 0 {
                        raised = single.tick(t);
                    }
                    prop_assert_eq!(raised, bulk.observe_activity_n(t, n));
                    prop_assert_eq!(single.detected_at, bulk.detected_at);
                    prop_assert_eq!(single.stats(), bulk.stats());
                }
            }
        }
    }

    /// The ensemble's path: one report per interval carrying 38–42
    /// packets, except that `skipped`'s report is lost and the next one
    /// spans both intervals with their average.
    fn run_reports(skipped: Option<u64>) -> StalledFlowDetector {
        let (kinds, len_stats) = (
            stat4_core::FrequencyDist::new(0, 7).unwrap(),
            stat4_core::RunningStats::new(),
        );
        let mut det = StalledFlowDetector::new(cfg());
        for epoch in (0..40u64).filter(|e| Some(*e) != skipped) {
            let spanned = if epoch > 0 && Some(epoch - 1) == skipped { 2 } else { 1 };
            det.update(&SignalContext {
                at: (epoch + 1) * 1_000_000,
                epoch,
                interval_ns: 1_000_000,
                spanned,
                packets: 38 + (epoch % 5) as i64,
                syns: 0,
                len_sum: 0,
                distinct_sources: 0,
                median_len: 0,
                kinds: &kinds,
                len_stats: &len_stats,
            });
        }
        det
    }

    /// A dropped report is not an interval of zero activity: the
    /// spanning report's average stands in for the interval it covers.
    #[test]
    fn skipped_report_is_not_a_quiet_interval() {
        assert!(run_reports(None).detected_at.is_none());
        let det = run_reports(Some(20));
        assert!(det.detected_at.is_none(), "alerted at {:?}", det.detected_at);
        assert_eq!(det.stats().n(), 32, "every interval closed, the skipped one too");
        assert!(det.stats().xsum() >= 32 * 38, "none of them at zero");
    }

    #[test]
    fn warmup_suppresses_alerts() {
        let mut det = StalledFlowDetector::new(cfg());
        // Two busy intervals then silence: window too shallow to judge.
        for i in 0..2u64 {
            for j in 0..50 {
                det.observe_activity(i * 1_000_000 + j * 10_000);
            }
        }
        assert!(det.tick(6 * 1_000_000).is_none());
        assert!(det.detected_at.is_none());
    }
}
