//! The percentile-shift detector lifted behind the `Detector` trait.
//!
//! Signal binding: the canonical merged median frame length. The
//! streaming detector watches its own marker's per-interval movement;
//! at epoch granularity the engine feeds it the merged median estimate
//! once per interval, so a shift in the length distribution sends the
//! inner tracker's marker walking after the migrating estimate and
//! the movement band fires. Constant-size traffic keeps the estimate
//! pinned and the engine silent, which is what keeps it orthogonal to
//! the volume engines.

use crate::detector::{DetectionResult, Detector, SignalContext, Q16};
use crate::shift::{PercentileShiftDetector, ShiftConfig};
use std::any::Any;
use telemetry::json::{At, Json};

/// Trait adapter over [`PercentileShiftDetector`].
#[derive(Debug)]
pub struct MedianShiftEngine {
    inner: PercentileShiftDetector,
}

impl MedianShiftEngine {
    /// Wraps a fresh shift detector (configure `domain` to the frame
    /// length range).
    #[must_use]
    pub fn new(cfg: ShiftConfig) -> Self {
        Self {
            inner: PercentileShiftDetector::new(cfg),
        }
    }

    /// The inner detector (alert stream, marker estimate).
    #[must_use]
    pub fn inner(&self) -> &PercentileShiftDetector {
        &self.inner
    }
}

impl Detector for MedianShiftEngine {
    fn name(&self) -> &'static str {
        "median_shift"
    }

    fn update(&mut self, ctx: &SignalContext<'_>) -> Option<DetectionResult> {
        let raised = self.inner.observe(ctx.at, ctx.median_len);
        let fired = raised.is_some();
        Some(DetectionResult {
            engine: self.name(),
            at: ctx.at,
            epoch: ctx.epoch,
            score: if fired { 2 * Q16 } else { 0 },
            weight: self.weight_q16(),
            confidence: if fired { Q16 } else { 0 },
            expected: self.inner.estimate().unwrap_or(0),
            observed: ctx.median_len,
            fired,
        })
    }

    fn export_state(&self) -> Json {
        self.inner.export_state()
    }

    fn import_state(&mut self, state: &Json) -> Result<(), String> {
        self.inner.import_state(state, At::Root("median_shift"))
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}
