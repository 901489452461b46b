//! Adaptive 2σ threshold engine.
//!
//! Signal binding: mean frame length per interval (`len_sum/packets`,
//! one controller-side division). Where the windowed bands carry a
//! fixed-capacity ring, this engine keeps two shift-based EWMAs — a
//! level and a mean absolute deviation — so its threshold
//! `level ± k·dev + margin` adapts continuously with O(1) state: the
//! RED/CoDel idiom applied to detection. It catches regime changes in
//! packet sizing (a flood of bare-header frames, a jumbo-frame leak)
//! that volume and cardinality engines cannot see, and its two-sided
//! band makes it the only length-sensitive engine besides the median
//! tracker — which watches the *median*, blind to tail-driven mean
//! shifts.

use crate::detector::{confidence_q16, ratio_q16, DetectionResult, Detector, SignalContext};
use stat4_core::Ewma;
use std::any::Any;
use telemetry::json::{field, obj, At, Json, ToJson};

/// Configuration.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveEngineConfig {
    /// Level EWMA smoothing (`α = 2^-level_shift`).
    pub level_shift: u32,
    /// Deviation EWMA smoothing.
    pub dev_shift: u32,
    /// Band width in deviation multiples (the "2" in 2σ).
    pub k: i64,
    /// Relative margin shift on the level (3 = 12.5%).
    pub margin_shift: u32,
    /// Margin floor in raw signal units.
    pub margin_floor: i64,
    /// Intervals before the engine may fire.
    pub warmup_intervals: u64,
}

impl Default for AdaptiveEngineConfig {
    fn default() -> Self {
        Self {
            level_shift: 3,
            dev_shift: 3,
            k: 2,
            margin_shift: 3,
            margin_floor: 8,
            warmup_intervals: 10,
        }
    }
}

/// Two-sided adaptive EWMA band over per-interval mean frame length.
#[derive(Debug)]
pub struct AdaptiveEngine {
    cfg: AdaptiveEngineConfig,
    level: Ewma,
    dev: Ewma,
    seen: u64,
}

impl AdaptiveEngine {
    /// Creates an unseeded engine.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range EWMA shift.
    #[must_use]
    pub fn new(cfg: AdaptiveEngineConfig) -> Self {
        Self {
            level: Ewma::new(cfg.level_shift),
            dev: Ewma::new(cfg.dev_shift),
            seen: 0,
            cfg,
        }
    }

    /// Current adaptive level (the learned mean frame length).
    #[must_use]
    pub fn level(&self) -> i64 {
        self.level.value()
    }
}

impl Detector for AdaptiveEngine {
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn update(&mut self, ctx: &SignalContext<'_>) -> Option<DetectionResult> {
        let x = ctx.len_sum / ctx.packets.max(1);
        self.seen += 1;
        if !self.level.is_seeded() {
            self.level.update(x);
            self.dev.update(0);
            return None;
        }
        let lv = self.level.value();
        let d = (x - lv).abs();
        let margin = (lv.abs() >> self.cfg.margin_shift).max(self.cfg.margin_floor);
        let band = self.cfg.k * self.dev.value() + margin;
        let score = ratio_q16(d, band.max(1));
        let fired = self.seen > self.cfg.warmup_intervals && d > band;
        // Band first, then learn, so an outlier cannot hide inside the
        // band it just widened.
        self.level.update(x);
        self.dev.update(d);
        Some(DetectionResult {
            engine: "adaptive",
            at: ctx.at,
            epoch: ctx.epoch,
            score,
            weight: self.weight_q16(),
            confidence: confidence_q16(score),
            expected: lv,
            observed: x,
            fired,
        })
    }

    fn export_state(&self) -> Json {
        obj(vec![
            ("level_acc", self.level.raw().to_json()),
            ("level_seeded", self.level.is_seeded().to_json()),
            ("dev_acc", self.dev.raw().to_json()),
            ("dev_seeded", self.dev.is_seeded().to_json()),
            ("seen", self.seen.to_json()),
        ])
    }

    fn import_state(&mut self, state: &Json) -> Result<(), String> {
        let at = At::Root("adaptive");
        self.level
            .restore(field(state, "level_acc", at)?, field(state, "level_seeded", at)?);
        self.dev
            .restore(field(state, "dev_acc", at)?, field(state, "dev_seeded", at)?);
        self.seen = field(state, "seen", at)?;
        Ok(())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}
