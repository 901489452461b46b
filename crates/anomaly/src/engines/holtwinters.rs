//! Holt-Winters seasonal forecasting engine.
//!
//! Signal binding: packets per interval. Periodic traffic breaks the
//! stationary-band assumption — the seasonal swing inflates σ until
//! the band tolerates anything, so an anomaly that preserves mean and
//! variance (a phase flip, a pattern permutation) sails through every
//! other volume engine. [`HoltWinters`] learns a per-phase forecast;
//! this engine keeps an integer EWMA of the absolute residual and
//! fires when a residual beats `k·dev + margin` — the same margined
//! band idiom as the rest of the repo, but over *forecast residuals*
//! instead of raw values.

use crate::detector::{confidence_q16, ratio_q16, DetectionResult, Detector, SignalContext};
use stat4_core::HoltWinters;
use std::any::Any;
use telemetry::json::{field, obj, At, Json, ToJson};

/// Configuration.
#[derive(Debug, Clone, Copy)]
pub struct HoltWintersEngineConfig {
    /// Intervals per season (must divide the workload's period for a
    /// clean fit, but any value ≥ 2 is legal).
    pub season_len: usize,
    /// Level smoothing `α = 2^-alpha_shift`.
    pub alpha_shift: u32,
    /// Trend smoothing `β = 2^-beta_shift`.
    pub beta_shift: u32,
    /// Season smoothing `γ = 2^-gamma_shift`.
    pub gamma_shift: u32,
    /// Residual-deviation EWMA smoothing (`2^-dev_shift`).
    pub dev_shift: u32,
    /// Band width in deviation multiples.
    pub k: i64,
    /// Relative margin shift on the level (3 = 12.5%).
    pub margin_shift: u32,
    /// Margin floor in raw signal units.
    pub margin_floor: i64,
    /// Seasons after seeding before the engine may fire.
    pub warm_seasons: u64,
}

impl Default for HoltWintersEngineConfig {
    fn default() -> Self {
        Self {
            season_len: 16,
            alpha_shift: 2,
            beta_shift: 4,
            gamma_shift: 2,
            dev_shift: 2,
            k: 2,
            margin_shift: 3,
            margin_floor: 8,
            warm_seasons: 2,
        }
    }
}

/// Seasonal forecast-residual band over per-interval packet counts.
#[derive(Debug)]
pub struct HoltWintersEngine {
    cfg: HoltWintersEngineConfig,
    model: HoltWinters,
    /// EWMA of |residual| in Q16.
    dev_q16: i64,
    /// Post-seed intervals observed.
    observed: u64,
}

impl HoltWintersEngine {
    /// Creates an unseeded engine.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate season length or smoothing shift.
    #[must_use]
    pub fn new(cfg: HoltWintersEngineConfig) -> Self {
        Self {
            model: HoltWinters::new(
                cfg.season_len,
                cfg.alpha_shift,
                cfg.beta_shift,
                cfg.gamma_shift,
            )
            .expect("valid Holt-Winters config"),
            dev_q16: 0,
            observed: 0,
            cfg,
        }
    }

    /// The underlying forecaster (level/trend/season inspection).
    #[must_use]
    pub fn model(&self) -> &HoltWinters {
        &self.model
    }
}

impl Detector for HoltWintersEngine {
    fn name(&self) -> &'static str {
        "holtwinters"
    }

    fn update(&mut self, ctx: &SignalContext<'_>) -> Option<DetectionResult> {
        let x = ctx.packets;
        let forecast = self.model.observe(x)?;
        self.observed += 1;
        let r = forecast.residual_q16.abs();
        let margin =
            (self.model.level_q16().abs() >> self.cfg.margin_shift).max(self.cfg.margin_floor << 16);
        let band = self.cfg.k * self.dev_q16 + margin;
        let score = ratio_q16(r, band.max(1));
        let warm = self.observed > self.cfg.warm_seasons * self.cfg.season_len as u64;
        let fired = warm && r > band;
        // Band first, then learn: the residual that fired must not
        // have widened its own band.
        self.dev_q16 += (r - self.dev_q16) >> self.cfg.dev_shift;
        Some(DetectionResult {
            engine: "holtwinters",
            at: ctx.at,
            epoch: ctx.epoch,
            score,
            weight: self.weight_q16(),
            confidence: confidence_q16(score),
            expected: forecast.forecast_q16 >> 16,
            observed: x,
            fired,
        })
    }

    fn export_state(&self) -> Json {
        obj(vec![
            ("level_q16", self.model.level_q16().to_json()),
            ("trend_q16", self.model.trend_q16().to_json()),
            ("season_q16", self.model.seasons_q16().to_json()),
            ("seed", self.model.seed_values().to_json()),
            ("phase", self.model.phase().to_json()),
            ("dev_q16", self.dev_q16.to_json()),
            ("observed", self.observed.to_json()),
        ])
    }

    fn import_state(&mut self, state: &Json) -> Result<(), String> {
        let at = At::Root("holtwinters");
        self.model
            .restore(
                field(state, "level_q16", at)?,
                field(state, "trend_q16", at)?,
                field(state, "season_q16", at)?,
                field(state, "seed", at)?,
                field(state, "phase", at)?,
            )
            .map_err(|e| at.err(e))?;
        self.dev_q16 = field(state, "dev_q16", at)?;
        self.observed = field(state, "observed", at)?;
        Ok(())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}
