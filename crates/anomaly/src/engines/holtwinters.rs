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
use crate::state::{i64_arr, req_i64_arr};
use stat4_core::HoltWinters;
use std::any::Any;
use telemetry::json::{ju, jus, obj, req_i64, req_u64, req_usize, Json};

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
            ("level_q16", Json::Int(self.model.level_q16())),
            ("trend_q16", Json::Int(self.model.trend_q16())),
            ("season_q16", i64_arr(self.model.seasons_q16())),
            ("seed", i64_arr(self.model.seed_values())),
            ("phase", jus(self.model.phase())),
            ("dev_q16", Json::Int(self.dev_q16)),
            ("observed", ju(self.observed)),
        ])
    }

    fn import_state(&mut self, state: &Json) -> Result<(), String> {
        let p = "holtwinters";
        self.model
            .restore(
                req_i64(state, "level_q16", p)?,
                req_i64(state, "trend_q16", p)?,
                req_i64_arr(state, "season_q16", p)?,
                req_i64_arr(state, "seed", p)?,
                req_usize(state, "phase", p)?,
            )
            .map_err(|e| format!("{p}: {e}"))?;
        self.dev_q16 = req_i64(state, "dev_q16", p)?;
        self.observed = req_u64(state, "observed", p)?;
        Ok(())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}
