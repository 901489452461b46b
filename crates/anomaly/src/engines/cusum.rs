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
use crate::state::{restore_window, window_json};
use stat4_core::{CusumDetector, WindowedDist};
use std::any::Any;
use telemetry::json::{field, field_with, obj, At, Json, ToJson};

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
            weight: self.weight_q16(),
            confidence: confidence_q16(score),
            expected: target,
            observed: x,
            fired,
        })
    }

    fn export_state(&self) -> Json {
        let calibrated = self.inner.as_ref().map_or(Json::Null, |c| {
            obj(vec![
                ("target", c.target.to_json()),
                ("slack", c.slack.to_json()),
                ("threshold", c.threshold.to_json()),
                ("statistic", c.statistic().to_json()),
                ("alarms", c.alarms.to_json()),
            ])
        });
        obj(vec![
            ("baseline", window_json(&self.baseline)),
            ("calibrated", calibrated),
        ])
    }

    fn import_state(&mut self, state: &Json) -> Result<(), String> {
        let at = At::Root("cusum");
        field_with(state, "baseline", at, |w, at| restore_window(&mut self.baseline, w, at))?;
        self.inner = field_with(state, "calibrated", at, |c, at| {
            if c.is_null() {
                return Ok(None);
            }
            let mut inner = CusumDetector::new(
                field(c, "target", at)?,
                field(c, "slack", at)?,
                field(c, "threshold", at)?,
            );
            inner
                .restore_statistic(field(c, "statistic", at)?)
                .map_err(|e| at.err(e))?;
            inner.alarms = field(c, "alarms", at)?;
            Ok(Some(inner))
        })?;
        Ok(())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}
