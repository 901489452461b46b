//! CUSUM change-point engine: `stat4-core::cusum` behind the trait.
//!
//! Signal binding: SYNs per interval. The band engines judge each
//! interval in isolation, so a sustained shift smaller than
//! `k·σ + margin` is invisible to them forever; CUSUM accumulates the
//! excess over `target + slack` across intervals and fires once the
//! sum crosses a threshold — the low-and-slow port scan detector.
//!
//! Calibration is self-serve: the first `WARMUP_INTERVALS` delivered
//! reports feed a [`WindowedDist`] baseline, then
//! [`CusumDetector::from_stats`] freezes `target`/`slack`/`threshold`
//! from its moments (the one division at the controller). Until then
//! the engine returns `None` — it has no opinion.

use crate::detector::{confidence_q16, ratio_q16, DetectionResult, Detector, SignalContext};
use crate::state::{WindowState, WindowStateOf};
use stat4_core::{CusumDetector, WindowedDist};
use telemetry::json::{At, FromJson, Lexer, ToJson};
use telemetry::json_struct;

/// Delivered intervals used to calibrate target/slack/threshold.
const WARMUP_INTERVALS: usize = 32;
/// Slack in half-σ units (1 = the textbook σ/2).
const SLACK_HALVES: i64 = 1;
/// Threshold in σ units (textbook 4–5; higher = fewer false alarms on
/// bursty integer-noise baselines).
const THRESHOLD_SIGMAS: i64 = 8;

/// Self-calibrating CUSUM over per-interval SYN counts.
#[derive(Debug)]
pub struct CusumEngine {
    baseline: WindowedDist,
    inner: Option<CusumDetector>,
}

impl CusumEngine {
    /// Creates an uncalibrated engine.
    #[must_use]
    pub fn new() -> Self {
        Self {
            baseline: WindowedDist::new(WARMUP_INTERVALS).expect("non-zero warmup"),
            inner: None,
        }
    }

    /// The frozen calibration, once warm.
    #[must_use]
    pub fn calibration(&self) -> Option<&CusumDetector> {
        self.inner.as_ref()
    }
}

/// The frozen calibration and the running sum.
struct Calibrated {
    target: i64,
    slack: i64,
    threshold: i64,
    statistic: i64,
    alarms: u64,
}

json_struct!(Calibrated { target, slack, threshold, statistic, alarms });

/// The baseline window, and the calibration once warm; `W` is the
/// window's state as written or as read.
struct CusumState<W> {
    baseline: W,
    calibrated: Option<Calibrated>,
}

json_struct!(@write CusumState<WindowStateOf<'_>> { baseline, calibrated });
json_struct!(@read CusumState<WindowState> { baseline, calibrated });

impl Default for CusumEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl Detector for CusumEngine {
    fn name(&self) -> &'static str {
        "cusum"
    }

    fn update(&mut self, ctx: &SignalContext<'_>) -> Option<DetectionResult> {
        let x = ctx.syns;
        let Some(c) = self.inner.as_mut() else {
            self.baseline.accumulate(x);
            self.baseline.close_interval();
            if self.baseline.len() >= WARMUP_INTERVALS {
                self.inner = Some(CusumDetector::from_stats(
                    self.baseline.stats(),
                    SLACK_HALVES,
                    THRESHOLD_SIGMAS,
                ));
            }
            return None;
        };
        // Score the statistic *after* this sample, before the alarm
        // reset: projected/threshold ≥ 1 exactly when the alarm fires.
        let projected = (c.statistic() + x - c.target - c.slack).max(0);
        let score = ratio_q16(projected, c.threshold + 1);
        let target = c.target;
        let fired = c.observe(x);
        Some(DetectionResult {
            engine: "cusum",
            at: ctx.at,
            epoch: ctx.epoch,
            score,
            confidence: confidence_q16(score),
            expected: target,
            observed: x,
            fired,
        })
    }

    fn export_state(&self, out: &mut String) {
        let calibrated = self.inner.as_ref().map(|c| Calibrated {
            target: c.target,
            slack: c.slack,
            threshold: c.threshold,
            statistic: c.statistic(),
            alarms: c.alarms,
        });
        CusumState {
            baseline: WindowStateOf::of(&self.baseline),
            calibrated,
        }
        .write_json(out);
    }

    fn import_state(&mut self, lx: &mut Lexer<'_>) -> Result<(), String> {
        let at = At::Root("cusum");
        let CusumState { baseline, calibrated } = CusumState::<WindowState>::read_json(lx, at)?;
        baseline.restore(&mut self.baseline, At::Key(&at, "baseline"))?;
        self.inner = match calibrated {
            None => None,
            Some(c) => {
                let mut inner = CusumDetector::new(c.target, c.slack, c.threshold);
                inner
                    .restore_statistic(c.statistic)
                    .map_err(|e| At::Key(&at, "calibrated").err(e))?;
                inner.alarms = c.alarms;
                Some(inner)
            }
        };
        Ok(())
    }
}
