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
use telemetry::json::{At, FromJson, Lexer, ToJson};
use telemetry::json_struct;

/// Level EWMA smoothing (`α = 2^-LEVEL_SHIFT`).
const LEVEL_SHIFT: u32 = 3;
/// Deviation EWMA smoothing.
const DEV_SHIFT: u32 = 3;
/// Band width in deviation multiples (the "2" in 2σ).
const K: i64 = 2;
/// Relative margin shift on the level (3 = 12.5%).
const MARGIN_SHIFT: u32 = 3;
/// Margin floor in raw signal units.
const MARGIN_FLOOR: i64 = 8;
/// Intervals before the engine may fire.
const WARMUP_INTERVALS: u64 = 10;

/// Two-sided adaptive EWMA band over per-interval mean frame length.
#[derive(Debug)]
pub struct AdaptiveEngine {
    level: Ewma,
    dev: Ewma,
    seen: u64,
}

impl AdaptiveEngine {
    /// Creates an unseeded engine.
    #[must_use]
    pub fn new() -> Self {
        Self {
            level: Ewma::new(LEVEL_SHIFT),
            dev: Ewma::new(DEV_SHIFT),
            seen: 0,
        }
    }

    /// Current adaptive level (the learned mean frame length).
    #[must_use]
    pub fn level(&self) -> i64 {
        self.level.value()
    }
}

impl Default for AdaptiveEngine {
    fn default() -> Self {
        Self::new()
    }
}

/// Both averages' raw accumulators and seeding, and the intervals seen.
struct AdaptiveState {
    level_acc: i64,
    level_seeded: bool,
    dev_acc: i64,
    dev_seeded: bool,
    seen: u64,
}

json_struct!(AdaptiveState { level_acc, level_seeded, dev_acc, dev_seeded, seen });

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
        let margin = (lv.abs() >> MARGIN_SHIFT).max(MARGIN_FLOOR);
        let band = K * self.dev.value() + margin;
        let score = ratio_q16(d, band.max(1));
        let fired = self.seen > WARMUP_INTERVALS && d > band;
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

    fn export_state(&self, out: &mut String) {
        AdaptiveState {
            level_acc: self.level.raw(),
            level_seeded: self.level.is_seeded(),
            dev_acc: self.dev.raw(),
            dev_seeded: self.dev.is_seeded(),
            seen: self.seen,
        }
        .write_json(out);
    }

    fn import_state(&mut self, lx: &mut Lexer<'_>) -> Result<(), String> {
        let s = AdaptiveState::read_json(lx, At::Root("adaptive"))?;
        self.level.restore(s.level_acc, s.level_seeded);
        self.dev.restore(s.dev_acc, s.dev_seeded);
        self.seen = s.seen;
        Ok(())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}
