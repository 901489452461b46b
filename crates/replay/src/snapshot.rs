//! Deterministic JSON snapshot of a [`ReplayOutcome`] — render *and*
//! parse, hand-rolled on [`telemetry::Json`].
//!
//! [`RunSnapshot`] mirrors every deterministic field of an outcome
//! (alerts, health, ensemble report, alert provenance, merged-state
//! summary); wall-clock fields are deliberately absent, so two
//! snapshots of bit-identical runs compare equal. [`render_outcome_json`]
//! writes the snapshot; [`parse_outcome_json`] reads it back
//! field-for-field — the golden round-trip `tests/provenance.rs`
//! pins. `stat4-trace explain` consumes these files.

use crate::provenance::{AlertProvenanceRecord, EpochLineage, IncidentRef};
use crate::ReplayOutcome;
use anomaly::synflood::KIND_SYN;
use anomaly::{
    Alert, AlertProvenance, DetectionResult, EngineAtFire, RebindTransaction, SignalValues,
    TriggerCause,
};
use telemetry::json::{
    jopt, js, ju, jus, obj, opt_u64, render, req, req_arr, req_bool, req_i64, req_str, req_u64,
    req_usize,
};
use telemetry::Json;

/// One alert flattened to `(kind, at, value)` — enough to reconstruct
/// the alert timeline without a per-variant schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertSnap {
    /// Variant name (`"syn_flood"`, `"traffic_spike"`, ...).
    pub kind: String,
    /// Detection time (ns).
    pub at: u64,
    /// The variant's payload value (count, group, address, ...).
    pub value: i64,
}

impl AlertSnap {
    fn of(a: &Alert) -> Self {
        let (kind, at, value) = a.flatten();
        Self {
            kind: kind.to_string(),
            at,
            value,
        }
    }
}

/// [`crate::ReplayHealth`] with incidents rendered as [`IncidentRef`]s.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HealthSnap {
    /// Shards the run was configured with.
    pub shards_configured: usize,
    /// Shards alive at the end.
    pub shards_alive: usize,
    /// Frames in the schedule.
    pub packets_offered: u64,
    /// Frames in the final merged view.
    pub packets_ingested: u64,
    /// Frames missing from the merged view.
    pub packets_lost: u64,
    /// Frames redirected from quarantined shards.
    pub packets_rerouted: u64,
    /// Epoch reports lost on the control channel.
    pub reports_dropped: u64,
    /// Every quarantine event, in occurrence order.
    pub incidents: Vec<IncidentRef>,
}

/// One engine's run summary with an owned name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineSnap {
    /// Engine name.
    pub name: String,
    /// Total gated fires.
    pub fires: u64,
    /// First fire time (ns), if any.
    pub first_fired_at: Option<u64>,
}

/// One fired [`DetectionResult`] with an owned engine name.
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

impl FiredSnap {
    fn of(r: &DetectionResult) -> Self {
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

/// The ensemble report: per-engine summaries plus the fired log.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EnsembleSnap {
    /// Per-engine fire counts, in report order.
    pub engines: Vec<EngineSnap>,
    /// Every fired result, in interval order then engine order.
    pub fired: Vec<FiredSnap>,
}

/// Scalar summary of the final merged [`crate::ShardState`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MergedSnap {
    /// Frames in the merged view.
    pub packets: u64,
    /// SYN frames (merged kind frequency).
    pub syn_total: u64,
    /// Frame-length observations.
    pub len_n: u64,
    /// Canonical median frame length.
    pub median_len: i64,
}

/// Every deterministic field of a [`ReplayOutcome`], JSON-round-trip
/// safe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSnapshot {
    /// Frames replayed.
    pub packets: u64,
    /// Closed epochs.
    pub epochs: u64,
    /// First alert time, if any.
    pub detected_at: Option<u64>,
    /// Central-detector alerts, in interval order.
    pub alerts: Vec<AlertSnap>,
    /// Degraded-mode summary.
    pub health: HealthSnap,
    /// Ensemble report.
    pub ensemble: EnsembleSnap,
    /// Alert provenance records, in fire order.
    pub provenance: Vec<AlertProvenanceRecord>,
    /// Final merged-state summary.
    pub merged: MergedSnap,
}

impl RunSnapshot {
    /// Captures the deterministic view of `out`.
    #[must_use]
    pub fn of(out: &ReplayOutcome) -> Self {
        Self {
            packets: out.packets,
            epochs: out.epochs,
            detected_at: out.detected_at,
            alerts: out.alerts.iter().map(AlertSnap::of).collect(),
            health: HealthSnap {
                shards_configured: out.health.shards_configured,
                shards_alive: out.health.shards_alive,
                packets_offered: out.health.packets_offered,
                packets_ingested: out.health.packets_ingested,
                packets_lost: out.health.packets_lost,
                packets_rerouted: out.health.packets_rerouted,
                reports_dropped: out.health.reports_dropped,
                incidents: out.health.incidents.iter().map(IncidentRef::from).collect(),
            },
            ensemble: EnsembleSnap {
                engines: out
                    .ensemble
                    .engines
                    .iter()
                    .map(|e| EngineSnap {
                        name: e.name.to_string(),
                        fires: e.fires,
                        first_fired_at: e.first_fired_at,
                    })
                    .collect(),
                fired: out.ensemble.fired.iter().map(FiredSnap::of).collect(),
            },
            provenance: out.provenance.clone(),
            merged: MergedSnap {
                packets: out.merged.packets,
                syn_total: out.merged.kinds.frequency(KIND_SYN),
                len_n: out.merged.len_stats.n(),
                median_len: out.merged.len_median.estimate(0).unwrap_or(0),
            },
        }
    }
}

// ---- render ---------------------------------------------------------

fn cause_json(c: &TriggerCause) -> Json {
    match c {
        TriggerCause::EnginesFired(names) => obj(vec![
            ("kind", js("engines_fired")),
            ("engines", Json::Arr(names.iter().map(|n| js(n)).collect())),
        ]),
        TriggerCause::CombinedScore {
            combined_q16,
            threshold_q16,
        } => obj(vec![
            ("kind", js("combined_score")),
            ("combined_q16", Json::Int(*combined_q16)),
            ("threshold_q16", Json::Int(*threshold_q16)),
        ]),
    }
}

fn signals_json(s: &SignalValues) -> Json {
    obj(vec![
        ("at", ju(s.at)),
        ("epoch", ju(s.epoch)),
        ("interval_ns", ju(s.interval_ns)),
        ("spanned", Json::Int(s.spanned)),
        ("packets", Json::Int(s.packets)),
        ("syns", Json::Int(s.syns)),
        ("len_sum", Json::Int(s.len_sum)),
        ("distinct_sources", Json::Int(s.distinct_sources)),
        ("median_len", Json::Int(s.median_len)),
    ])
}

fn engine_at_fire_json(e: &EngineAtFire) -> Json {
    obj(vec![
        ("engine", js(&e.engine)),
        ("score", Json::Int(e.score)),
        ("threshold_q16", Json::Int(e.threshold_q16)),
        ("confidence", Json::Int(e.confidence)),
        ("weight", Json::Int(e.weight)),
        ("expected", Json::Int(e.expected)),
        ("observed", Json::Int(e.observed)),
        ("fired", Json::Bool(e.fired)),
    ])
}

fn provenance_json(p: &AlertProvenance) -> Json {
    obj(vec![
        ("at", ju(p.at)),
        ("epoch", ju(p.epoch)),
        ("signals", signals_json(&p.signals)),
        ("combined_q16", Json::Int(p.combined_q16)),
        (
            "engines",
            Json::Arr(p.engines.iter().map(engine_at_fire_json).collect()),
        ),
        ("cause", cause_json(&p.cause)),
    ])
}

fn incident_json(i: &IncidentRef) -> Json {
    obj(vec![
        ("shard", jus(i.shard)),
        ("epoch", ju(i.epoch)),
        ("detail", js(&i.detail)),
    ])
}

fn lineage_json(l: &EpochLineage) -> Json {
    obj(vec![
        ("epoch", ju(l.epoch)),
        (
            "delivered_shards",
            Json::Arr(l.delivered_shards.iter().map(|&s| jus(s)).collect()),
        ),
        (
            "carried_epochs",
            Json::Arr(l.carried_epochs.iter().map(|&e| ju(e)).collect()),
        ),
        ("spanned", Json::Int(l.spanned)),
        ("rerouted_frames", ju(l.rerouted_frames)),
        (
            "quarantined",
            Json::Arr(l.quarantined.iter().map(incident_json).collect()),
        ),
    ])
}

fn rebind_json(t: &RebindTransaction) -> Json {
    obj(vec![
        ("generation", ju(t.generation)),
        ("epoch", ju(t.epoch)),
        ("at", ju(t.at)),
        ("from_phase", js(&t.from_phase)),
        ("to_phase", js(&t.to_phase)),
        ("binds", ju(u64::from(t.binds))),
        ("cause", cause_json(&t.cause)),
    ])
}

pub(crate) fn record_json(r: &AlertProvenanceRecord) -> Json {
    obj(vec![
        ("id", ju(r.id)),
        ("provenance", provenance_json(&r.provenance)),
        ("lineage", lineage_json(&r.lineage)),
        (
            "drilldown",
            Json::Arr(r.drilldown.iter().map(rebind_json).collect()),
        ),
    ])
}

fn snapshot_json(s: &RunSnapshot) -> Json {
    obj(vec![
        ("packets", ju(s.packets)),
        ("epochs", ju(s.epochs)),
        ("detected_at", jopt(s.detected_at)),
        (
            "alerts",
            Json::Arr(
                s.alerts
                    .iter()
                    .map(|a| {
                        obj(vec![
                            ("kind", js(&a.kind)),
                            ("at", ju(a.at)),
                            ("value", Json::Int(a.value)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "health",
            obj(vec![
                ("shards_configured", jus(s.health.shards_configured)),
                ("shards_alive", jus(s.health.shards_alive)),
                ("packets_offered", ju(s.health.packets_offered)),
                ("packets_ingested", ju(s.health.packets_ingested)),
                ("packets_lost", ju(s.health.packets_lost)),
                ("packets_rerouted", ju(s.health.packets_rerouted)),
                ("reports_dropped", ju(s.health.reports_dropped)),
                (
                    "incidents",
                    Json::Arr(s.health.incidents.iter().map(incident_json).collect()),
                ),
            ]),
        ),
        (
            "ensemble",
            obj(vec![
                (
                    "engines",
                    Json::Arr(
                        s.ensemble
                            .engines
                            .iter()
                            .map(|e| {
                                obj(vec![
                                    ("name", js(&e.name)),
                                    ("fires", ju(e.fires)),
                                    ("first_fired_at", jopt(e.first_fired_at)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "fired",
                    Json::Arr(
                        s.ensemble
                            .fired
                            .iter()
                            .map(|f| {
                                obj(vec![
                                    ("engine", js(&f.engine)),
                                    ("at", ju(f.at)),
                                    ("epoch", ju(f.epoch)),
                                    ("score", Json::Int(f.score)),
                                    ("weight", Json::Int(f.weight)),
                                    ("confidence", Json::Int(f.confidence)),
                                    ("expected", Json::Int(f.expected)),
                                    ("observed", Json::Int(f.observed)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "provenance",
            Json::Arr(s.provenance.iter().map(record_json).collect()),
        ),
        (
            "merged",
            obj(vec![
                ("packets", ju(s.merged.packets)),
                ("syn_total", ju(s.merged.syn_total)),
                ("len_n", ju(s.merged.len_n)),
                ("median_len", Json::Int(s.merged.median_len)),
            ]),
        ),
    ])
}

/// Renders the deterministic snapshot of `out` as a JSON document.
#[must_use]
pub fn render_outcome_json(out: &ReplayOutcome) -> String {
    render_snapshot_json(&RunSnapshot::of(out))
}

/// Renders an already-captured snapshot.
#[must_use]
pub fn render_snapshot_json(s: &RunSnapshot) -> String {
    render(&snapshot_json(s))
}

// ---- parse ----------------------------------------------------------

fn parse_cause(v: &Json, path: &str) -> Result<TriggerCause, String> {
    match req_str(v, "kind", path)?.as_str() {
        "engines_fired" => {
            let names = req_arr(v, "engines", path)?
                .iter()
                .enumerate()
                .map(|(i, n)| {
                    n.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("{path}: engines[{i}] is not a string"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(TriggerCause::EnginesFired(names))
        }
        "combined_score" => Ok(TriggerCause::CombinedScore {
            combined_q16: req_i64(v, "combined_q16", path)?,
            threshold_q16: req_i64(v, "threshold_q16", path)?,
        }),
        other => Err(format!("{path}: unknown cause kind {other:?}")),
    }
}

fn parse_incident(v: &Json, path: &str) -> Result<IncidentRef, String> {
    Ok(IncidentRef {
        shard: req_usize(v, "shard", path)?,
        epoch: req_u64(v, "epoch", path)?,
        detail: req_str(v, "detail", path)?,
    })
}

pub(crate) fn parse_record(v: &Json, path: &str) -> Result<AlertProvenanceRecord, String> {
    let prov = req(v, "provenance", path)?;
    let ppath = format!("{path}.provenance");
    let sig = req(prov, "signals", &ppath)?;
    let spath = format!("{ppath}.signals");
    let signals = SignalValues {
        at: req_u64(sig, "at", &spath)?,
        epoch: req_u64(sig, "epoch", &spath)?,
        interval_ns: req_u64(sig, "interval_ns", &spath)?,
        spanned: req_i64(sig, "spanned", &spath)?,
        packets: req_i64(sig, "packets", &spath)?,
        syns: req_i64(sig, "syns", &spath)?,
        len_sum: req_i64(sig, "len_sum", &spath)?,
        distinct_sources: req_i64(sig, "distinct_sources", &spath)?,
        median_len: req_i64(sig, "median_len", &spath)?,
    };
    let engines = req_arr(prov, "engines", &ppath)?
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let epath = format!("{ppath}.engines[{i}]");
            Ok(EngineAtFire {
                engine: req_str(e, "engine", &epath)?,
                score: req_i64(e, "score", &epath)?,
                threshold_q16: req_i64(e, "threshold_q16", &epath)?,
                confidence: req_i64(e, "confidence", &epath)?,
                weight: req_i64(e, "weight", &epath)?,
                expected: req_i64(e, "expected", &epath)?,
                observed: req_i64(e, "observed", &epath)?,
                fired: req_bool(e, "fired", &epath)?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let lin = req(v, "lineage", path)?;
    let lpath = format!("{path}.lineage");
    let delivered_shards = req_arr(lin, "delivered_shards", &lpath)?
        .iter()
        .enumerate()
        .map(|(i, s)| {
            s.as_u64()
                .and_then(|u| usize::try_from(u).ok())
                .ok_or_else(|| format!("{lpath}: delivered_shards[{i}] is not a shard index"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let carried_epochs = req_arr(lin, "carried_epochs", &lpath)?
        .iter()
        .enumerate()
        .map(|(i, e)| {
            e.as_u64()
                .ok_or_else(|| format!("{lpath}: carried_epochs[{i}] is not an epoch"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let quarantined = req_arr(lin, "quarantined", &lpath)?
        .iter()
        .enumerate()
        .map(|(i, q)| parse_incident(q, &format!("{lpath}.quarantined[{i}]")))
        .collect::<Result<Vec<_>, _>>()?;
    let drilldown = req_arr(v, "drilldown", path)?
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let tpath = format!("{path}.drilldown[{i}]");
            Ok(RebindTransaction {
                generation: req_u64(t, "generation", &tpath)?,
                epoch: req_u64(t, "epoch", &tpath)?,
                at: req_u64(t, "at", &tpath)?,
                from_phase: req_str(t, "from_phase", &tpath)?,
                to_phase: req_str(t, "to_phase", &tpath)?,
                binds: u32::try_from(req_u64(t, "binds", &tpath)?)
                    .map_err(|_| format!("{tpath}: \"binds\" overflows u32"))?,
                cause: parse_cause(req(t, "cause", &tpath)?, &format!("{tpath}.cause"))?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(AlertProvenanceRecord {
        id: req_u64(v, "id", path)?,
        provenance: AlertProvenance {
            at: req_u64(prov, "at", &ppath)?,
            epoch: req_u64(prov, "epoch", &ppath)?,
            signals,
            combined_q16: req_i64(prov, "combined_q16", &ppath)?,
            engines,
            cause: parse_cause(req(prov, "cause", &ppath)?, &format!("{ppath}.cause"))?,
        },
        lineage: EpochLineage {
            epoch: req_u64(lin, "epoch", &lpath)?,
            delivered_shards,
            carried_epochs,
            spanned: req_i64(lin, "spanned", &lpath)?,
            rerouted_frames: req_u64(lin, "rerouted_frames", &lpath)?,
            quarantined,
        },
        drilldown,
    })
}

/// Parses a document written by [`render_outcome_json`] back into the
/// snapshot it encodes.
///
/// # Errors
///
/// A description of the first structural problem (JSON syntax, missing
/// field, wrong type), prefixed with the offending path.
pub fn parse_outcome_json(text: &str) -> Result<RunSnapshot, String> {
    let doc = Json::parse(text)?;
    let alerts = req_arr(&doc, "alerts", "$")?
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let path = format!("$.alerts[{i}]");
            Ok(AlertSnap {
                kind: req_str(a, "kind", &path)?,
                at: req_u64(a, "at", &path)?,
                value: req_i64(a, "value", &path)?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let health = req(&doc, "health", "$")?;
    let hpath = "$.health";
    let incidents = req_arr(health, "incidents", hpath)?
        .iter()
        .enumerate()
        .map(|(i, q)| parse_incident(q, &format!("{hpath}.incidents[{i}]")))
        .collect::<Result<Vec<_>, _>>()?;
    let ens = req(&doc, "ensemble", "$")?;
    let engines = req_arr(ens, "engines", "$.ensemble")?
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let path = format!("$.ensemble.engines[{i}]");
            Ok(EngineSnap {
                name: req_str(e, "name", &path)?,
                fires: req_u64(e, "fires", &path)?,
                first_fired_at: opt_u64(e, "first_fired_at", &path)?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let fired = req_arr(ens, "fired", "$.ensemble")?
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let path = format!("$.ensemble.fired[{i}]");
            Ok(FiredSnap {
                engine: req_str(f, "engine", &path)?,
                at: req_u64(f, "at", &path)?,
                epoch: req_u64(f, "epoch", &path)?,
                score: req_i64(f, "score", &path)?,
                weight: req_i64(f, "weight", &path)?,
                confidence: req_i64(f, "confidence", &path)?,
                expected: req_i64(f, "expected", &path)?,
                observed: req_i64(f, "observed", &path)?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let provenance = req_arr(&doc, "provenance", "$")?
        .iter()
        .enumerate()
        .map(|(i, r)| parse_record(r, &format!("$.provenance[{i}]")))
        .collect::<Result<Vec<_>, _>>()?;
    let merged = req(&doc, "merged", "$")?;
    let mpath = "$.merged";
    Ok(RunSnapshot {
        packets: req_u64(&doc, "packets", "$")?,
        epochs: req_u64(&doc, "epochs", "$")?,
        detected_at: opt_u64(&doc, "detected_at", "$")?,
        alerts,
        health: HealthSnap {
            shards_configured: req_usize(health, "shards_configured", hpath)?,
            shards_alive: req_usize(health, "shards_alive", hpath)?,
            packets_offered: req_u64(health, "packets_offered", hpath)?,
            packets_ingested: req_u64(health, "packets_ingested", hpath)?,
            packets_lost: req_u64(health, "packets_lost", hpath)?,
            packets_rerouted: req_u64(health, "packets_rerouted", hpath)?,
            reports_dropped: req_u64(health, "reports_dropped", hpath)?,
            incidents,
        },
        ensemble: EnsembleSnap { engines, fired },
        provenance,
        merged: MergedSnap {
            packets: req_u64(merged, "packets", mpath)?,
            syn_total: req_u64(merged, "syn_total", mpath)?,
            len_n: req_u64(merged, "len_n", mpath)?,
            median_len: req_i64(merged, "median_len", mpath)?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> RunSnapshot {
        let signals = SignalValues {
            at: 2_000_000,
            epoch: 1,
            interval_ns: 1_000_000,
            spanned: 2,
            packets: 900,
            syns: 450,
            len_sum: 54_000,
            distinct_sources: 37,
            median_len: 60,
        };
        let cause = TriggerCause::EnginesFired(vec![String::from("synflood")]);
        let record = AlertProvenanceRecord {
            id: 0,
            provenance: AlertProvenance {
                at: 2_000_000,
                epoch: 1,
                signals,
                combined_q16: 80_000,
                engines: vec![EngineAtFire {
                    engine: String::from("synflood"),
                    score: 131_072,
                    threshold_q16: 65_536,
                    confidence: 65_536,
                    weight: 65_536,
                    expected: 100,
                    observed: 450,
                    fired: true,
                }],
                cause: cause.clone(),
            },
            lineage: EpochLineage {
                epoch: 1,
                delivered_shards: vec![0, 2, 3],
                carried_epochs: vec![0],
                spanned: 2,
                rerouted_frames: 17,
                quarantined: vec![IncidentRef {
                    shard: 1,
                    epoch: 0,
                    detail: String::from("crashed"),
                }],
            },
            drilldown: vec![RebindTransaction {
                generation: 1,
                epoch: 1,
                at: 2_000_000,
                from_phase: String::from("prefix"),
                to_phase: String::from("subnets"),
                binds: 16,
                cause: TriggerCause::CombinedScore {
                    combined_q16: 50_000,
                    threshold_q16: 49_152,
                },
            }],
        };
        RunSnapshot {
            packets: 1234,
            epochs: 9,
            detected_at: Some(2_000_000),
            alerts: vec![AlertSnap {
                kind: String::from("syn_flood"),
                at: 2_000_000,
                value: 450,
            }],
            health: HealthSnap {
                shards_configured: 4,
                shards_alive: 3,
                packets_offered: 1234,
                packets_ingested: 1200,
                packets_lost: 34,
                packets_rerouted: 17,
                reports_dropped: 1,
                incidents: vec![IncidentRef {
                    shard: 1,
                    epoch: 0,
                    detail: String::from("panicked: injected fault"),
                }],
            },
            ensemble: EnsembleSnap {
                engines: vec![EngineSnap {
                    name: String::from("synflood"),
                    fires: 3,
                    first_fired_at: Some(2_000_000),
                }],
                fired: vec![FiredSnap {
                    engine: String::from("synflood"),
                    at: 2_000_000,
                    epoch: 1,
                    score: 131_072,
                    weight: 65_536,
                    confidence: 65_536,
                    expected: 100,
                    observed: 450,
                }],
            },
            provenance: vec![record],
            merged: MergedSnap {
                packets: 1200,
                syn_total: 700,
                len_n: 1200,
                median_len: 60,
            },
        }
    }

    #[test]
    fn hand_built_snapshot_round_trips() {
        let snap = sample_snapshot();
        let text = render_snapshot_json(&snap);
        let parsed = parse_outcome_json(&text).expect("rendered snapshot parses");
        assert_eq!(parsed, snap);
    }

    #[test]
    fn none_detected_at_round_trips_as_null() {
        let mut snap = sample_snapshot();
        snap.detected_at = None;
        snap.ensemble.engines[0].first_fired_at = None;
        let text = render_snapshot_json(&snap);
        assert!(text.contains("\"detected_at\":null"));
        let parsed = parse_outcome_json(&text).expect("parses");
        assert_eq!(parsed, snap);
    }

    #[test]
    fn parse_reports_the_offending_path() {
        let snap = sample_snapshot();
        let text = render_snapshot_json(&snap);
        let broken = text.replace("\"combined_q16\":80000", "\"combined_q17\":80000");
        let err = parse_outcome_json(&broken).expect_err("missing field must fail");
        assert!(err.contains("combined_q16"), "unhelpful error: {err}");
        assert!(err.contains("$.provenance[0]"), "no path in error: {err}");
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(parse_outcome_json("{\"packets\":").is_err());
        assert!(parse_outcome_json("[]").is_err());
    }
}
