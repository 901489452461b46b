//! The pluggable `Detector` trait and ensemble combiner.
//!
//! The paper's thesis is that *simple statistics suffice*: each
//! detector in this crate is one statistical check over per-interval
//! aggregates. This module gives them a common shape so the replay
//! engine can run any number of them over the same merged switch state
//! without knowing what each one computes:
//!
//! - [`SignalContext`] is the per-interval view of the merged shard
//!   state — the controller-side aggregates every engine reads.
//! - [`Detector::update`] consumes one context and returns a
//!   [`DetectionResult`] carrying a Q16 score/weight/confidence.
//! - [`Ensemble`] drives all engines, combines scores into one Q16
//!   verdict (a weighted mean — the one division lives at the
//!   controller, like every division in this repo), and keeps
//!   per-engine fire counters and detection-delay histograms.
//!
//! ## Score convention
//!
//! `score` is the engine's instantaneous statistical verdict in Q16,
//! normalised so `score ≥ Q16` means "past my threshold" — typically
//! `observed/bound` for a band engine or `residual/band` for a
//! forecaster, *before* warm-up gating. `fired` is the production
//! (gated) verdict; during warm-up an engine can score above Q16
//! without firing, which is exactly the gap the detection-delay
//! histogram measures. The three Table 1 detectors (SYN flood, shift,
//! stalled) report a saturated score (`2·Q16` on fire, `0` otherwise)
//! because their checks are booleans, not margins — their alert
//! streams are the behavioral contract.

use crate::metrics::{Check, DetectorMetrics};
use stat4_core::{FrequencyDist, RunningStats};
use std::any::Any;
use telemetry::json::{need, read_obj, write_obj, At, FromJson, Lexer, Raw, ToJson};
use telemetry::{json_struct, Json, Snapshot};

/// One in Q16 fixed point — the firing threshold for scores.
pub const Q16: i64 = 1 << 16;

/// Scores saturate at 16 in Q16 so weighted sums cannot overflow.
pub(crate) const SCORE_CAP: i64 = 16 * Q16;

/// `num/den` in Q16, clamped to `[0, SCORE_CAP]`; `den ≤ 0` maps to
/// the cap (an exhausted bound means any observation is past it).
#[must_use]
pub(crate) fn ratio_q16(num: i64, den: i64) -> i64 {
    if num <= 0 {
        return 0;
    }
    if den <= 0 {
        return SCORE_CAP;
    }
    let r = ((num as i128) << 16) / (den as i128);
    r.min(SCORE_CAP as i128) as i64
}

/// Confidence convention: how far past the threshold the score sits,
/// saturating at one (Q16).
#[must_use]
pub(crate) fn confidence_q16(score: i64) -> i64 {
    (score - Q16).clamp(0, Q16)
}

/// Per-interval merged switch state, as seen by every engine.
///
/// `packets`, `syns` and `len_sum` are per-interval *averages over the
/// report span*: when chaos drops epoch reports, the next delivered
/// report carries the accumulated counts and `spanned` says how many
/// intervals it covers (≥ 1). `distinct_sources` is the HyperLogLog
/// estimate for the delivered interval only (registers wash every
/// interval). `kinds` and `len_stats` are cumulative since the start
/// of the replay.
#[derive(Debug, Clone, Copy)]
pub struct SignalContext<'a> {
    /// End of the interval (ns).
    pub at: u64,
    /// Interval ordinal since replay start.
    pub epoch: u64,
    /// Interval length (ns).
    pub interval_ns: u64,
    /// Intervals this report spans (> 1 after dropped reports).
    pub spanned: i64,
    /// Packets per interval (span average).
    pub packets: i64,
    /// Pure SYNs per interval (span average).
    pub syns: i64,
    /// Sum of frame lengths per interval (span average).
    pub len_sum: i64,
    /// Distinct source addresses this interval (HLL estimate).
    pub distinct_sources: i64,
    /// Exact median frame length over the whole replay so far.
    pub median_len: i64,
    /// Cumulative packet-kind composition.
    pub kinds: &'a FrequencyDist,
    /// Cumulative frame-length moments.
    pub len_stats: &'a RunningStats,
}

/// One engine's verdict for one interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectionResult {
    /// Engine that produced this result.
    pub engine: &'static str,
    /// Interval end (ns).
    pub at: u64,
    /// Interval ordinal.
    pub epoch: u64,
    /// Instantaneous verdict in Q16 (`≥ Q16` = past threshold).
    pub score: i64,
    /// Engine weight in Q16 for the ensemble combiner.
    pub weight: i64,
    /// `confidence_q16` of the score.
    pub confidence: i64,
    /// What the engine expected for its signal (raw units).
    pub expected: i64,
    /// What it observed (raw units).
    pub observed: i64,
    /// Gated production verdict: did the engine alert?
    pub fired: bool,
}

impl DetectionResult {
    /// The verdict of a check that is a boolean, not a margin (the
    /// three Table 1 detectors): a saturated score on fire, zero
    /// otherwise, at the trait's default weight.
    pub(crate) fn saturated(
        engine: &'static str,
        ctx: &SignalContext<'_>,
        fired: bool,
        expected: i64,
        observed: i64,
    ) -> Self {
        Self {
            engine,
            at: ctx.at,
            epoch: ctx.epoch,
            score: if fired { 2 * Q16 } else { 0 },
            weight: Q16,
            confidence: if fired { Q16 } else { 0 },
            expected,
            observed,
            fired,
        }
    }
}

/// A fired [`DetectionResult`] with an owned engine name: the one JSON
/// form of a fired-log entry, in run snapshots and in
/// [`Ensemble::export_state`] alike. `fired` is not a member: only
/// fired results are logged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiredSnap {
    /// Engine that fired.
    pub engine: String,
    /// Interval end (ns).
    pub at: u64,
    /// Interval ordinal.
    pub epoch: u64,
    /// Q16 score.
    pub score: i64,
    /// Ensemble weight, Q16.
    pub weight: i64,
    /// Confidence, Q16.
    pub confidence: i64,
    /// Expected signal value.
    pub expected: i64,
    /// Observed signal value.
    pub observed: i64,
}

json_struct!(FiredSnap { engine, at, epoch, score, weight, confidence, expected, observed });

impl From<&DetectionResult> for FiredSnap {
    fn from(r: &DetectionResult) -> Self {
        Self {
            engine: r.engine.to_string(),
            at: r.at,
            epoch: r.epoch,
            score: r.score,
            weight: r.weight,
            confidence: r.confidence,
            expected: r.expected,
            observed: r.observed,
        }
    }
}

impl FiredSnap {
    /// The result this entry was taken from, its engine name borrowed
    /// from `names`; `None` when the entry names none of them.
    fn to_result(&self, names: &[&'static str]) -> Option<DetectionResult> {
        Some(DetectionResult {
            engine: names.iter().copied().find(|n| *n == self.engine)?,
            at: self.at,
            epoch: self.epoch,
            score: self.score,
            weight: self.weight,
            confidence: self.confidence,
            expected: self.expected,
            observed: self.observed,
            fired: true,
        })
    }
}

/// A pluggable anomaly detection engine over merged interval state.
pub trait Detector {
    /// Stable engine name (telemetry label, report key).
    fn name(&self) -> &'static str;

    /// Ensemble weight in Q16 (default: 1.0).
    fn weight_q16(&self) -> i64 {
        Q16
    }

    /// Consumes one interval; `None` while the engine cannot yet form
    /// a verdict (seeding/calibration), a result afterwards.
    fn update(&mut self, ctx: &SignalContext<'_>) -> Option<DetectionResult>;

    /// Appends everything [`Self::update`] reads or writes between
    /// intervals to `out`, as one JSON value: a few integers, a ring, a
    /// Q16 or two, best given as a `json_struct!` state struct. The
    /// engine owns this form; a checkpoint stores its text without
    /// looking inside. What the constructor fixed (window capacity,
    /// season length, shifts) is not written.
    fn export_state(&self, out: &mut String);

    /// Reads state written by [`Self::export_state`] from the value `lx`
    /// is at into an engine built from the same configuration, after
    /// which the two engines answer every future `update` identically.
    /// The state may come from disk, so it is checked, not trusted.
    ///
    /// # Errors
    ///
    /// What is missing, mistyped, or could not have been exported by
    /// an engine of this configuration (a ring of another length, a
    /// phase outside the season, a negative count). The engine is then
    /// part-loaded and must be discarded.
    fn import_state(&mut self, lx: &mut Lexer<'_>) -> Result<(), String>;

    /// Typed access for callers that need an engine's extra state
    /// (e.g. the SYN-flood detector's alert stream).
    fn as_any(&self) -> &dyn Any;
}

/// An owned snapshot of the scalar fields of a [`SignalContext`] —
/// what every engine saw for one interval, detached from the borrowed
/// cumulative state so it can ride inside an [`AlertProvenance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignalValues {
    /// Interval end (ns).
    pub at: u64,
    /// Interval ordinal.
    pub epoch: u64,
    /// Interval length (ns).
    pub interval_ns: u64,
    /// Intervals the report spans (> 1 after dropped reports).
    pub spanned: i64,
    /// Packets per interval (span average).
    pub packets: i64,
    /// Pure SYNs per interval (span average).
    pub syns: i64,
    /// Sum of frame lengths per interval (span average).
    pub len_sum: i64,
    /// Distinct source addresses this interval (HLL estimate).
    pub distinct_sources: i64,
    /// Exact median frame length so far.
    pub median_len: i64,
}

json_struct!(SignalValues {
    at,
    epoch,
    interval_ns,
    spanned,
    packets,
    syns,
    len_sum,
    distinct_sources,
    median_len
});

impl SignalValues {
    /// Captures the scalar view of `ctx`.
    #[must_use]
    pub fn capture(ctx: &SignalContext<'_>) -> Self {
        Self {
            at: ctx.at,
            epoch: ctx.epoch,
            interval_ns: ctx.interval_ns,
            spanned: ctx.spanned,
            packets: ctx.packets,
            syns: ctx.syns,
            len_sum: ctx.len_sum,
            distinct_sources: ctx.distinct_sources,
            median_len: ctx.median_len,
        }
    }
}

/// The combined verdict for one interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnsembleVerdict {
    /// Interval end (ns).
    pub at: u64,
    /// Interval ordinal.
    pub epoch: u64,
    /// Weighted mean score over all reporting engines, Q16.
    pub combined_q16: i64,
    /// Results from engines that fired this interval.
    pub fired: Vec<DetectionResult>,
    /// Every reporting engine's result this interval (fired or not),
    /// in report order — the provenance record's raw material.
    pub results: Vec<DetectionResult>,
}

/// Why a drilldown (or any alert-consumer) acted on a verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TriggerCause {
    /// One or more engines' gated verdicts fired; names in report
    /// order.
    EnginesFired(Vec<String>),
    /// No single engine fired, but the ensemble's combined weighted
    /// score crossed the trigger threshold.
    CombinedScore {
        /// The combined weighted mean at trigger time, Q16.
        combined_q16: i64,
        /// The configured trigger threshold, Q16.
        threshold_q16: i64,
    },
}

/// Tagged by `kind`; the other members are the variant's.
impl ToJson for TriggerCause {
    fn write_json(&self, out: &mut String) {
        match self {
            TriggerCause::EnginesFired(names) => {
                write_obj(out, [("kind", &"engines_fired" as &dyn ToJson), ("engines", names)]);
            }
            TriggerCause::CombinedScore { combined_q16, threshold_q16 } => write_obj(
                out,
                [
                    ("kind", &"combined_score" as &dyn ToJson),
                    ("combined_q16", combined_q16),
                    ("threshold_q16", threshold_q16),
                ],
            ),
        }
    }
}

impl FromJson for TriggerCause {
    fn read_json(lx: &mut Lexer<'_>, at: At<'_>) -> Result<Self, String> {
        let (mut kind, mut engines, mut combined_q16, mut threshold_q16) = (None, None, None, None);
        read_obj(lx, at, |key, lx, at| {
            match key {
                "kind" if kind.is_none() => kind = Some(String::read_json(lx, at)?),
                "engines" if engines.is_none() => engines = Some(Vec::<String>::read_json(lx, at)?),
                "combined_q16" if combined_q16.is_none() => combined_q16 = Some(i64::read_json(lx, at)?),
                "threshold_q16" if threshold_q16.is_none() => threshold_q16 = Some(i64::read_json(lx, at)?),
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        match need(kind, at, "kind")?.as_str() {
            "engines_fired" => Ok(TriggerCause::EnginesFired(need(engines, at, "engines")?)),
            "combined_score" => Ok(TriggerCause::CombinedScore {
                combined_q16: need(combined_q16, at, "combined_q16")?,
                threshold_q16: need(threshold_q16, at, "threshold_q16")?,
            }),
            other => Err(at.err(format_args!("unknown cause kind {other:?}"))),
        }
    }
}

/// One engine's state at the moment an alert fired, with owned
/// strings so provenance survives JSON round trips field-for-field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineAtFire {
    /// Engine name.
    pub engine: String,
    /// Instantaneous Q16 score.
    pub score: i64,
    /// The firing threshold the score is normalised against (Q16 by
    /// the crate's score convention).
    pub threshold_q16: i64,
    /// `confidence_q16` of the score.
    pub confidence: i64,
    /// Ensemble weight, Q16.
    pub weight: i64,
    /// Expected signal value (raw units).
    pub expected: i64,
    /// Observed signal value (raw units).
    pub observed: i64,
    /// Did the engine's gated verdict fire?
    pub fired: bool,
}

json_struct!(EngineAtFire {
    engine,
    score,
    threshold_q16,
    confidence,
    weight,
    expected,
    observed,
    fired
});

impl EngineAtFire {
    /// Snapshot of one engine's result.
    #[must_use]
    pub fn of(r: &DetectionResult) -> Self {
        Self {
            engine: r.engine.to_string(),
            score: r.score,
            threshold_q16: Q16,
            confidence: r.confidence,
            weight: r.weight,
            expected: r.expected,
            observed: r.observed,
            fired: r.fired,
        }
    }
}

/// The full statistical provenance of one alert: the signals every
/// engine read, each engine's score against its threshold at fire
/// time, the combined score, and what pulled the trigger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertProvenance {
    /// Interval end (ns).
    pub at: u64,
    /// Interval ordinal.
    pub epoch: u64,
    /// The merged per-interval signals the engines consumed.
    pub signals: SignalValues,
    /// Weighted mean score at fire time, Q16.
    pub combined_q16: i64,
    /// Every reporting engine's state at fire time.
    pub engines: Vec<EngineAtFire>,
    /// What pulled the trigger.
    pub cause: TriggerCause,
}

json_struct!(AlertProvenance { at, epoch, signals, combined_q16, engines, cause });

impl AlertProvenance {
    /// Assembles provenance from the interval's signals, the verdict
    /// that tripped, and the trigger cause.
    #[must_use]
    pub fn assemble(signals: SignalValues, verdict: &EnsembleVerdict, cause: TriggerCause) -> Self {
        Self {
            at: verdict.at,
            epoch: verdict.epoch,
            signals,
            combined_q16: verdict.combined_q16,
            engines: verdict.results.iter().map(EngineAtFire::of).collect(),
            cause,
        }
    }
}

/// Per-engine summary for reports (shard-count invariant).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineSummary {
    /// Engine name.
    pub name: &'static str,
    /// Total gated fires.
    pub fires: u64,
    /// First fire time (ns), if any.
    pub first_fired_at: Option<u64>,
}

/// One engine's entry in [`Ensemble::export_state`]: its name, its own
/// state, metrics, fire count, first fire and weight override. The name
/// comes first, so a reader knows the engine before it reaches the
/// state ([`Ensemble::import_state`] reads the entry member by member).
struct EngineEntry {
    name: String,
    state: Raw,
    metrics: DetectorMetrics,
    fires: u64,
    first_fired: Option<u64>,
    weight_override: Option<i64>,
}

json_struct!(@write EngineEntry { name, state, metrics, fires, first_fired, weight_override });

/// [`Ensemble::export_state`]'s form: the engines in report order, then
/// the fired log.
struct EnsembleState {
    engines: Vec<EngineEntry>,
    fired_log: Vec<FiredSnap>,
}

json_struct!(@write EnsembleState { engines, fired_log });

/// Drives a set of engines over the interval stream and combines their
/// scores.
pub struct Ensemble {
    engines: Vec<Box<dyn Detector>>,
    /// Per-engine fire counters and detection-delay histograms,
    /// parallel to the engine list.
    pub metrics: Vec<DetectorMetrics>,
    first_fired: Vec<Option<u64>>,
    fires: Vec<u64>,
    /// Per-engine combining-weight overrides, parallel to the engine
    /// list. `None` leaves the engine's own reported weight in force;
    /// `Some(w)` replaces it in the combined score and in every logged
    /// result from the interval the override lands on. Installed by the
    /// replay lifecycle's vetted hot-swap path.
    weight_overrides: Vec<Option<i64>>,
    /// Every fired result, in interval order then engine order — the
    /// determinism regression surface.
    pub fired_log: Vec<DetectionResult>,
}

impl std::fmt::Debug for Ensemble {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ensemble")
            .field("engines", &self.names())
            .field("fired_log", &self.fired_log.len())
            .finish()
    }
}

impl Ensemble {
    /// Builds an ensemble over `engines` (order is report order).
    #[must_use]
    pub fn new(engines: Vec<Box<dyn Detector>>) -> Self {
        let n = engines.len();
        Self {
            engines,
            metrics: (0..n).map(|_| DetectorMetrics::new()).collect(),
            first_fired: vec![None; n],
            fires: vec![0; n],
            weight_overrides: vec![None; n],
            fired_log: Vec::new(),
        }
    }

    /// Which engine slot each override in `overrides` would land in.
    ///
    /// # Errors
    ///
    /// The first override that names an engine this ensemble does not
    /// run, or carries a negative weight (which could zero or invert
    /// the combined-score denominator).
    pub fn check_weight_overrides(
        &self,
        overrides: &[(String, Option<i64>)],
    ) -> Result<Vec<usize>, String> {
        overrides
            .iter()
            .map(|(name, weight)| {
                if let Some(w) = weight.filter(|w| *w < 0) {
                    return Err(format!("weight override for {name:?} is negative ({w})"));
                }
                self.engines
                    .iter()
                    .position(|e| e.name() == name)
                    .ok_or_else(|| format!("weight override names unknown engine {name:?}"))
            })
            .collect()
    }

    /// Overrides the combining weights of the named engines for every
    /// subsequent interval (`None` restores an engine's own weight),
    /// all of them or — on the first one
    /// [`Self::check_weight_overrides`] refuses — none.
    ///
    /// # Errors
    ///
    /// As [`Self::check_weight_overrides`]; nothing was changed.
    pub fn set_weight_overrides(
        &mut self,
        overrides: &[(String, Option<i64>)],
    ) -> Result<(), String> {
        let slots = self.check_weight_overrides(overrides)?;
        for (slot, (_, weight)) in slots.into_iter().zip(overrides) {
            self.weight_overrides[slot] = *weight;
        }
        Ok(())
    }

    /// [`Self::set_weight_overrides`] for one engine.
    ///
    /// # Errors
    ///
    /// As [`Self::check_weight_overrides`]; nothing was changed.
    pub fn set_weight_override(&mut self, name: &str, weight: Option<i64>) -> Result<(), String> {
        self.set_weight_overrides(&[(name.to_string(), weight)])
    }

    /// Engine names in report order.
    #[must_use]
    pub fn names(&self) -> Vec<&'static str> {
        self.engines.iter().map(|e| e.name()).collect()
    }

    /// Typed access to an engine by name.
    #[must_use]
    pub fn engine<T: 'static>(&self, name: &str) -> Option<&T> {
        self.engines
            .iter()
            .find(|e| e.name() == name)
            .and_then(|e| e.as_any().downcast_ref::<T>())
    }

    /// Feeds one interval to every engine and combines the results.
    pub fn observe(&mut self, ctx: &SignalContext<'_>) -> EnsembleVerdict {
        let mut fired = Vec::new();
        // Sized once: at most one result per engine.
        let mut results = Vec::with_capacity(self.engines.len());
        let mut weighted: i128 = 0;
        let mut weights: i128 = 0;
        for (i, engine) in self.engines.iter_mut().enumerate() {
            let Some(mut result) = engine.update(ctx) else {
                continue;
            };
            if let Some(w) = self.weight_overrides[i] {
                result.weight = w;
            }
            weighted += (result.score as i128) * (result.weight as i128);
            weights += result.weight as i128;
            // Episode clock: raw (ungated) anomaly = score past Q16.
            self.metrics[i].signal(ctx.at, result.score >= Q16);
            if result.fired {
                self.metrics[i].fired(Check::Rate, ctx.at);
                self.fires[i] += 1;
                self.first_fired[i].get_or_insert(ctx.at);
                fired.push(result);
            }
            results.push(result);
        }
        self.fired_log.extend(fired.iter().copied());
        let combined_q16 = if weights == 0 {
            0
        } else {
            (weighted / weights) as i64
        };
        EnsembleVerdict {
            at: ctx.at,
            epoch: ctx.epoch,
            combined_q16,
            fired,
            results,
        }
    }

    /// Appends the whole ensemble to `out` as JSON: per engine its
    /// [`Detector::export_state`], metrics, fire count, first fire and
    /// weight override, then the fired log. Only the fired log grows
    /// over a run, and it grows with alerts, not with intervals.
    pub fn export_state(&self, out: &mut String) {
        let engines = self.engines.iter().enumerate().map(|(i, e)| EngineEntry {
            name: e.name().to_string(),
            state: Raw::of(|out| e.export_state(out)),
            metrics: self.metrics[i].clone(),
            fires: self.fires[i],
            first_fired: self.first_fired[i],
            weight_override: self.weight_overrides[i],
        });
        let fired_log = self.fired_log.iter().map(FiredSnap::from).collect();
        EnsembleState { engines: engines.collect(), fired_log }.write_json(out);
    }

    /// Reads [`Self::export_state`]'s form from the value `lx` is at
    /// into an ensemble built from the same configuration (same
    /// engines, same order), after which both answer every future
    /// [`Self::observe`] identically and report identical summaries,
    /// metrics and fired logs. An entry is read in one pass: when its
    /// `name` comes before its `state`, as [`Self::export_state`] writes
    /// it, the state is lexed straight into the engine it names; in any
    /// other order it is kept as text until the name is known.
    ///
    /// # Errors
    ///
    /// In document order: an engine this ensemble does not run, an
    /// engine the state lacks, whatever an engine's own
    /// [`Detector::import_state`] rejects, a negative weight override,
    /// more engines than the ensemble runs (whatever they are named),
    /// or a fired-log entry naming none of them. The ensemble is then part-loaded and must be
    /// discarded.
    pub fn import_state(&mut self, lx: &mut Lexer<'_>) -> Result<(), String> {
        let root = At::Root("ensemble");
        let (mut engines, mut fired_log) = (None, None);
        read_obj(lx, root, |key, lx, at| {
            match key {
                "engines" if engines.is_none() => engines = Some(self.import_engines(lx, at)?),
                "fired_log" if fired_log.is_none() => fired_log = Some(Vec::<FiredSnap>::read_json(lx, at)?),
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        need(engines, root, "engines")?;
        let names = self.names();
        let at = At::Key(&root, "fired_log");
        let result = |(i, f): (usize, &FiredSnap)| {
            f.to_result(&names)
                .ok_or_else(|| At::Idx(&at, i).err(format_args!("unknown engine {:?}", f.engine)))
        };
        let fired_log = need(fired_log, root, "fired_log")?;
        self.fired_log = fired_log.iter().enumerate().map(result).collect::<Result<_, _>>()?;
        Ok(())
    }

    /// Reads the `engines` array at `at` into the engines, entry `i`
    /// into engine `i`. An entry past the last engine is only counted.
    fn import_engines(&mut self, lx: &mut Lexer<'_>, at: At<'_>) -> Result<(), String> {
        let root = At::Root("ensemble");
        let names = self.names();
        let Json::Arr(_) = lx.value()? else { return Err(at.err("not an array")) };
        let mut held = 0;
        while lx.next_item()? {
            let i = held;
            held += 1;
            if i >= names.len() {
                lx.skip()?;
                continue;
            }
            let at = At::Idx(&at, i);
            // `Some(None)`: the state went straight into the engine.
            let mut state: Option<Option<Raw>> = None;
            let (mut name, mut metrics, mut fires, mut first_fired, mut weight_override) = (None, None, None, None, None);
            read_obj(lx, at, |key, lx, at| {
                match key {
                    "name" if name.is_none() => {
                        let n = String::read_json(lx, at)?;
                        if n != names[i] {
                            let why = if names.contains(&n.as_str()) {
                                format!("engine {:?} is missing at position {i}", names[i])
                            } else {
                                format!("unknown engine {n:?}")
                            };
                            return Err(root.err(why));
                        }
                        name = Some(n);
                    }
                    "state" if state.is_none() && name.is_some() => {
                        self.engines[i].import_state(lx)?;
                        state = Some(None);
                    }
                    "state" if state.is_none() => state = Some(Some(Raw::read_json(lx, at)?)),
                    "metrics" if metrics.is_none() => metrics = Some(DetectorMetrics::read_json(lx, at)?),
                    "fires" if fires.is_none() => fires = Some(u64::read_json(lx, at)?),
                    "first_fired" if first_fired.is_none() => first_fired = Some(Option::read_json(lx, at)?),
                    "weight_override" if weight_override.is_none() => {
                        weight_override = Some(Option::<i64>::read_json(lx, at)?);
                    }
                    _ => return Ok(false),
                }
                Ok(true)
            })?;
            need(name, at, "name")?;
            if let Some(text) = need(state, at, "state")? {
                self.engines[i].import_state(&mut text.lexer())?;
            }
            self.metrics[i] = need(metrics, at, "metrics")?;
            self.fires[i] = need(fires, at, "fires")?;
            self.first_fired[i] = need(first_fired, at, "first_fired")?;
            let weight_override = need(weight_override, at, "weight_override")?;
            if weight_override.is_some_and(|w| w < 0) {
                return Err(At::Key(&root, names[i]).err("negative weight override"));
            }
            self.weight_overrides[i] = weight_override;
        }
        if let Some(name) = names.get(held) {
            return Err(root.err(format_args!("engine {name:?} is missing at position {held}")));
        }
        if held != names.len() {
            return Err(root.err(format_args!("state holds {held} engine(s), the ensemble runs {}", names.len())));
        }
        Ok(())
    }

    /// Per-engine summaries, in report order.
    #[must_use]
    pub fn summaries(&self) -> Vec<EngineSummary> {
        self.engines
            .iter()
            .enumerate()
            .map(|(i, e)| EngineSummary {
                name: e.name(),
                fires: self.fires[i],
                first_fired_at: self.first_fired[i],
            })
            .collect()
    }

    /// Per-engine metrics keyed by engine name (for telemetry export).
    #[must_use]
    pub fn metrics_by_name(&self) -> Vec<(&'static str, DetectorMetrics)> {
        self.engines
            .iter()
            .zip(&self.metrics)
            .map(|(e, m)| (e.name(), m.clone()))
            .collect()
    }

    /// Exports per-engine fire counters and delay histograms.
    pub fn export(&self, snap: &mut Snapshot) {
        for (name, m) in self.metrics_by_name() {
            m.export(snap, name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FixedEngine {
        name: &'static str,
        score: i64,
        warmup: u64,
        seen: u64,
    }

    impl Detector for FixedEngine {
        fn name(&self) -> &'static str {
            self.name
        }
        fn update(&mut self, ctx: &SignalContext<'_>) -> Option<DetectionResult> {
            self.seen += 1;
            let gated = self.seen <= self.warmup;
            Some(DetectionResult {
                engine: self.name,
                at: ctx.at,
                epoch: ctx.epoch,
                score: self.score,
                weight: Q16,
                confidence: confidence_q16(self.score),
                expected: 0,
                observed: 0,
                fired: !gated && self.score >= Q16,
            })
        }
        fn export_state(&self, out: &mut String) {
            self.seen.write_json(out);
        }
        fn import_state(&mut self, lx: &mut Lexer<'_>) -> Result<(), String> {
            self.seen = u64::read_json(lx, At::Root("seen"))?;
            Ok(())
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    fn ctx_at<'a>(at: u64, kinds: &'a FrequencyDist, stats: &'a RunningStats) -> SignalContext<'a> {
        SignalContext {
            at,
            epoch: at / 10,
            interval_ns: 10,
            spanned: 1,
            packets: 0,
            syns: 0,
            len_sum: 0,
            distinct_sources: 0,
            median_len: 0,
            kinds,
            len_stats: stats,
        }
    }

    #[test]
    fn weight_overrides_steer_the_combined_score() {
        let kinds = FrequencyDist::new(0, 3).unwrap();
        let stats = RunningStats::new();
        let mut e = Ensemble::new(vec![
            Box::new(FixedEngine { name: "hot", score: 2 * Q16, warmup: 0, seen: 0 }),
            Box::new(FixedEngine { name: "cold", score: 0, warmup: 0, seen: 0 }),
        ]);
        let even = e.observe(&ctx_at(10, &kinds, &stats)).combined_q16;
        assert_eq!(even, Q16, "equal weights average to Q16");

        e.set_weight_override("cold", Some(0)).unwrap();
        let skewed = e.observe(&ctx_at(20, &kinds, &stats)).combined_q16;
        assert_eq!(skewed, 2 * Q16, "silenced engine no longer dilutes");
        assert_eq!(e.weight_overrides, vec![None, Some(0)]);

        e.set_weight_override("cold", None).unwrap();
        let restored = e.observe(&ctx_at(30, &kinds, &stats)).combined_q16;
        assert_eq!(restored, Q16);

        assert!(e.set_weight_override("missing", Some(1)).unwrap_err().contains("unknown engine"));
        assert!(e.set_weight_override("cold", Some(-1)).unwrap_err().contains("negative"));
        // A batch with one bad entry changes nothing, good entries included.
        let batch = [("hot".to_string(), Some(7)), ("missing".to_string(), None)];
        assert!(e.set_weight_overrides(&batch).is_err());
        assert_eq!(e.weight_overrides, vec![None, None]);
    }

    #[test]
    fn ratio_q16_clamps() {
        assert_eq!(ratio_q16(0, 10), 0);
        assert_eq!(ratio_q16(-5, 10), 0);
        assert_eq!(ratio_q16(10, 0), SCORE_CAP);
        assert_eq!(ratio_q16(5, 10), Q16 / 2);
        assert_eq!(ratio_q16(i64::MAX, 1), SCORE_CAP);
    }

    #[test]
    fn confidence_saturates() {
        assert_eq!(confidence_q16(0), 0);
        assert_eq!(confidence_q16(Q16), 0);
        assert_eq!(confidence_q16(Q16 + 100), 100);
        assert_eq!(confidence_q16(10 * Q16), Q16);
    }

    #[test]
    fn combined_score_is_weighted_mean() {
        let kinds = FrequencyDist::new(0, 7).unwrap();
        let stats = RunningStats::new();
        let mut ens = Ensemble::new(vec![
            Box::new(FixedEngine { name: "a", score: 2 * Q16, warmup: 0, seen: 0 }),
            Box::new(FixedEngine { name: "b", score: 0, warmup: 0, seen: 0 }),
        ]);
        let v = ens.observe(&ctx_at(10, &kinds, &stats));
        assert_eq!(v.combined_q16, Q16, "mean of 2.0 and 0.0");
        assert_eq!(v.fired.len(), 1);
        assert_eq!(v.fired[0].engine, "a");
    }

    #[test]
    fn warmup_gating_feeds_detection_delay() {
        let kinds = FrequencyDist::new(0, 7).unwrap();
        let stats = RunningStats::new();
        // Scores anomalous from the start, but gated for 3 intervals:
        // the recorded delay is the gating lag.
        let mut ens = Ensemble::new(vec![Box::new(FixedEngine {
            name: "g",
            score: 2 * Q16,
            warmup: 3,
            seen: 0,
        })]);
        for at in [10u64, 20, 30, 40] {
            ens.observe(&ctx_at(at, &kinds, &stats));
        }
        assert_eq!(ens.summaries()[0].fires, 1);
        assert_eq!(ens.summaries()[0].first_fired_at, Some(40));
        assert_eq!(ens.metrics[0].detection_delay.max(), Some(30));
    }

    #[test]
    fn typed_engine_access() {
        let mut ens = Ensemble::new(vec![Box::new(FixedEngine {
            name: "a",
            score: 0,
            warmup: 0,
            seen: 0,
        })]);
        let kinds = FrequencyDist::new(0, 7).unwrap();
        let stats = RunningStats::new();
        ens.observe(&ctx_at(10, &kinds, &stats));
        let e: &FixedEngine = ens.engine("a").expect("typed access");
        assert_eq!(e.seen, 1);
        assert!(ens.engine::<FixedEngine>("missing").is_none());
    }

    #[test]
    fn export_shape_is_valid() {
        let mut ens = Ensemble::new(vec![Box::new(FixedEngine {
            name: "a",
            score: 2 * Q16,
            warmup: 0,
            seen: 0,
        })]);
        let kinds = FrequencyDist::new(0, 7).unwrap();
        let stats = RunningStats::new();
        ens.observe(&ctx_at(10, &kinds, &stats));
        let mut snap = Snapshot::new();
        ens.export(&mut snap);
        assert_eq!(snap.counter_sum("anomaly_detector_fires_total"), 1);
    }
}
