//! The pluggable `Detector` trait and the ensemble that drives it.
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
//!   [`DetectionResult`] carrying a Q16 score and confidence and the
//!   engine's gated verdict.
//! - [`Ensemble`] drives all engines, collects the interval's results
//!   into one [`EnsembleVerdict`], and keeps per-engine fire counters
//!   and detection-delay histograms. There is no combiner: a verdict is
//!   an engine's fire, one integer statistic past its own bound.
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
//! because their checks are booleans, not margins.

use crate::metrics::DetectorMetrics;
use stat4_core::{FrequencyDist, RunningStats};
use telemetry::json::{need, read_obj, write_obj, At, FromJson, Lexer, Raw, ToJson};
use telemetry::{json_struct, Json, Snapshot};

/// One in Q16 fixed point — the firing threshold for scores.
pub const Q16: i64 = 1 << 16;

/// Scores saturate at 16 in Q16.
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
    /// otherwise.
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
            confidence: if fired { Q16 } else { 0 },
            expected,
            observed,
            fired,
        }
    }
}

/// A pluggable anomaly detection engine over merged interval state.
pub trait Detector {
    /// Stable engine name (telemetry label, report key).
    fn name(&self) -> &'static str;

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

/// Every engine's verdict for one interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnsembleVerdict {
    /// Interval end (ns).
    pub at: u64,
    /// Interval ordinal.
    pub epoch: u64,
    /// Results from engines that fired this interval.
    pub fired: Vec<DetectionResult>,
    /// Every reporting engine's result this interval (fired or not),
    /// in report order — the provenance record's raw material.
    pub results: Vec<DetectionResult>,
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
            expected: r.expected,
            observed: r.observed,
            fired: r.fired,
        }
    }
}

/// The full statistical provenance of one alert: the signals every
/// engine read and each engine's score against its threshold at fire
/// time. The engines whose `fired` is set pulled the trigger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertProvenance {
    /// Interval end (ns).
    pub at: u64,
    /// Interval ordinal.
    pub epoch: u64,
    /// The merged per-interval signals the engines consumed.
    pub signals: SignalValues,
    /// Every reporting engine's state at fire time.
    pub engines: Vec<EngineAtFire>,
}

json_struct!(AlertProvenance { at, epoch, signals, engines });

impl AlertProvenance {
    /// Assembles provenance from the interval's signals and the verdict
    /// that tripped.
    #[must_use]
    pub fn assemble(signals: SignalValues, verdict: &EnsembleVerdict) -> Self {
        Self {
            at: verdict.at,
            epoch: verdict.epoch,
            signals,
            engines: verdict.results.iter().map(EngineAtFire::of).collect(),
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
/// state, metrics (its fire count among them) and first fire, each
/// borrowed from the ensemble and written where it lies. The name
/// comes first, so a reader knows the engine before it reaches the
/// state ([`Ensemble::import_state`] reads the entry member by member).
struct EngineEntry<'a> {
    name: &'static str,
    state: StateOf<'a>,
    metrics: &'a DetectorMetrics,
    first_fired: Option<u64>,
}

json_struct!(@write EngineEntry<'_> { name, state, metrics, first_fired });

/// An engine's [`Detector::export_state`], written in place.
struct StateOf<'a>(&'a dyn Detector);

impl ToJson for StateOf<'_> {
    fn write_json(&self, out: &mut String) {
        self.0.export_state(out);
    }
}

/// Drives a set of engines over the interval stream and collects their
/// verdicts.
pub struct Ensemble {
    engines: Vec<Box<dyn Detector>>,
    /// Per-engine fire counters and detection-delay histograms,
    /// parallel to the engine list.
    pub metrics: Vec<DetectorMetrics>,
    first_fired: Vec<Option<u64>>,
    /// Every fired result, in interval order then engine order — the
    /// determinism regression surface. Held in memory only: a
    /// checkpoint keeps it as provenance, and [`Self::log_fired`]
    /// rebuilds it from there.
    pub fired_log: Vec<DetectionResult>,
}

impl std::fmt::Debug for Ensemble {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ensemble")
            .field("engines", &self.names())
            .field("fired", &self.fired_log.len())
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
            fired_log: Vec::new(),
        }
    }

    /// Engine names in report order.
    #[must_use]
    pub fn names(&self) -> Vec<&'static str> {
        self.engines.iter().map(|e| e.name()).collect()
    }

    /// Feeds one interval to every engine and collects the results.
    pub fn observe(&mut self, ctx: &SignalContext<'_>) -> EnsembleVerdict {
        let mut fired = Vec::new();
        // Sized once: at most one result per engine.
        let mut results = Vec::with_capacity(self.engines.len());
        for (i, engine) in self.engines.iter_mut().enumerate() {
            let Some(result) = engine.update(ctx) else {
                continue;
            };
            // Episode clock: raw (ungated) anomaly = score past Q16.
            self.metrics[i].signal(ctx.at, result.score >= Q16);
            if result.fired {
                self.metrics[i].fired(ctx.at);
                self.first_fired[i].get_or_insert(ctx.at);
                fired.push(result);
            }
            results.push(result);
        }
        self.fired_log.extend(fired.iter().copied());
        EnsembleVerdict {
            at: ctx.at,
            epoch: ctx.epoch,
            fired,
            results,
        }
    }

    /// Appends the whole ensemble to `out` as JSON, `{"engines":[..]}`
    /// in report order: per engine its [`Detector::export_state`],
    /// metrics and first fire. The fired log is not written: every
    /// fired result is in the provenance of the trigger it pulled, and
    /// [`Self::log_fired`] reads it back from there.
    pub fn export_state(&self, out: &mut String) {
        let engines = self.engines.iter().enumerate().map(|(i, e)| EngineEntry {
            name: e.name(),
            state: StateOf(e.as_ref()),
            metrics: &self.metrics[i],
            first_fired: self.first_fired[i],
        });
        write_obj(out, [("engines", &engines.collect::<Vec<_>>() as &dyn ToJson)]);
    }

    /// Reads [`Self::export_state`]'s form from the value `lx` is at
    /// into an ensemble built from the same configuration (same
    /// engines, same order), after which both answer every future
    /// [`Self::observe`] identically and report identical summaries and
    /// metrics; the fired log stays as it was, for [`Self::log_fired`]
    /// to refill from the run's provenance. An entry is read in one
    /// pass: when its `name` comes before its `state`, as
    /// [`Self::export_state`] writes it, the state is lexed straight
    /// into the engine it names; in any other order it is kept as text
    /// until the name is known.
    ///
    /// # Errors
    ///
    /// In document order: an engine this ensemble does not run, an
    /// engine the state lacks, whatever an engine's own
    /// [`Detector::import_state`] rejects, or more engines than the
    /// ensemble runs (whatever they are named). The ensemble is then
    /// part-loaded and must be discarded.
    pub fn import_state(&mut self, lx: &mut Lexer<'_>) -> Result<(), String> {
        let root = At::Root("ensemble");
        let mut engines = None;
        read_obj(lx, root, |key, lx, at| {
            if key != "engines" || engines.is_some() {
                return Ok(false);
            }
            engines = Some(self.import_engines(lx, at)?);
            Ok(true)
        })?;
        need(engines, root, "engines")
    }

    /// Appends to the fired log each result that fired at the trigger
    /// `p` records, in engine order, as [`Self::observe`] logged it:
    /// the provenance of a trigger holds every engine's result with its
    /// `fired` flag, and every fired result pulls the trigger. Fed a
    /// run's provenance record by record, it rebuilds the run's fired
    /// log.
    ///
    /// # Errors
    ///
    /// A fired engine this ensemble does not run, named at its path
    /// under `at`, where `p` lies. The log is then part-filled.
    pub fn log_fired(&mut self, p: &AlertProvenance, at: At<'_>) -> Result<(), String> {
        let engines = At::Key(&at, "engines");
        for (j, e) in p.engines.iter().enumerate().filter(|(_, e)| e.fired) {
            let Some(engine) = self.engines.iter().map(|d| d.name()).find(|n| *n == e.engine) else {
                let at = At::Key(&At::Idx(&engines, j), "engine");
                return Err(at.err(format_args!("unknown engine {:?}", e.engine)));
            };
            self.fired_log.push(DetectionResult {
                engine,
                at: p.at,
                epoch: p.epoch,
                score: e.score,
                confidence: e.confidence,
                expected: e.expected,
                observed: e.observed,
                fired: true,
            });
        }
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
            let (mut name, mut metrics, mut first_fired) = (None, None, None);
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
                    "first_fired" if first_fired.is_none() => first_fired = Some(Option::read_json(lx, at)?),
                    _ => return Ok(false),
                }
                Ok(true)
            })?;
            need(name, at, "name")?;
            if let Some(text) = need(state, at, "state")? {
                self.engines[i].import_state(&mut text.lexer())?;
            }
            self.metrics[i] = need(metrics, at, "metrics")?;
            self.first_fired[i] = need(first_fired, at, "first_fired")?;
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
                fires: self.metrics[i].fires.get(),
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
    fn a_verdict_is_the_engines_fires() {
        let kinds = FrequencyDist::new(0, 7).unwrap();
        let stats = RunningStats::new();
        let mut ens = Ensemble::new(vec![
            Box::new(FixedEngine { name: "a", score: 2 * Q16, warmup: 0, seen: 0 }),
            Box::new(FixedEngine { name: "b", score: 0, warmup: 0, seen: 0 }),
        ]);
        let v = ens.observe(&ctx_at(10, &kinds, &stats));
        assert_eq!(v.results.len(), 2, "every reporting engine is in the verdict");
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
