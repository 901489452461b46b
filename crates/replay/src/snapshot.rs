//! Deterministic JSON snapshot of a [`ReplayOutcome`], written and read
//! through `telemetry::json`'s [`ToJson`](telemetry::json::ToJson)/[`FromJson`](telemetry::json::FromJson) pair.
//!
//! [`RunSnapshot`] mirrors every deterministic field of an outcome
//! (health, ensemble report, alert provenance, merged-state summary);
//! wall-clock fields are deliberately absent, so two snapshots of
//! bit-identical runs compare equal. Each struct here has its JSON
//! form declared once, as the `json_struct!` line under it; the
//! provenance forms come with their types from `anomaly` and
//! [`crate::provenance`]. [`render_outcome_json`]
//! writes the snapshot; [`parse_outcome_json`] reads it back
//! field-for-field — the golden round-trip `tests/provenance.rs`
//! pins. `stat4-trace explain` consumes these files.

use crate::provenance::{AlertProvenanceRecord, IncidentRef};
use crate::ReplayOutcome;
use anomaly::synflood::KIND_SYN;
use telemetry::json::{self, read, At};
use telemetry::json_struct;

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

json_struct!(HealthSnap {
    shards_configured,
    shards_alive,
    packets_offered,
    packets_ingested,
    packets_lost,
    packets_rerouted,
    reports_dropped,
    incidents
});

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

json_struct!(EngineSnap { name, fires, first_fired_at });

/// The ensemble report's per-engine summaries; fired results are in provenance.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EnsembleSnap {
    /// Per-engine fire counts, in report order.
    pub engines: Vec<EngineSnap>,
}

json_struct!(EnsembleSnap { engines });

/// Scalar summary of the final merged [`crate::ShardState`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MergedSnap {
    /// Frames in the merged view.
    pub packets: u64,
    /// SYN frames (merged kind frequency).
    pub syn_total: u64,
    /// Frame-length observations.
    pub len_n: u64,
    /// Exact median frame length.
    pub median_len: i64,
}

json_struct!(MergedSnap { packets, syn_total, len_n, median_len });

/// Every deterministic field of a [`ReplayOutcome`], JSON-round-trip
/// safe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSnapshot {
    /// Frames replayed.
    pub packets: u64,
    /// Closed epochs.
    pub epochs: u64,
    /// Degraded-mode summary.
    pub health: HealthSnap,
    /// Ensemble report.
    pub ensemble: EnsembleSnap,
    /// Alert provenance records, in fire order.
    pub provenance: Vec<AlertProvenanceRecord>,
    /// Final merged-state summary.
    pub merged: MergedSnap,
}

json_struct!(RunSnapshot {
    packets,
    epochs,
    health,
    ensemble,
    provenance,
    merged
});

impl RunSnapshot {
    /// Captures the deterministic view of `out`.
    #[must_use]
    pub fn of(out: &ReplayOutcome) -> Self {
        Self {
            packets: out.packets,
            epochs: out.epochs,
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

/// Renders the deterministic snapshot of `out` as a JSON document.
#[must_use]
pub fn render_outcome_json(out: &ReplayOutcome) -> String {
    json::write(&RunSnapshot::of(out))
}

/// Parses a document written by [`render_outcome_json`] back into the
/// snapshot it encodes.
///
/// # Errors
///
/// A description of the first structural problem (JSON syntax, missing
/// field, wrong type), prefixed with the offending path.
pub fn parse_outcome_json(text: &str) -> Result<RunSnapshot, String> {
    read(text, At::Root("$"))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::provenance::EpochLineage;
    use anomaly::{AlertProvenance, EngineAtFire, RebindTransaction, SignalValues};

    /// One of everything a snapshot can hold; `ckpt`'s generic
    /// round-trip test takes it apart type by type.
    pub(crate) fn sample_snapshot() -> RunSnapshot {
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
        let record = AlertProvenanceRecord {
            id: 0,
            provenance: AlertProvenance {
                at: 2_000_000,
                epoch: 1,
                signals,
                engines: vec![EngineAtFire {
                    engine: String::from("synflood"),
                    score: 131_072,
                    threshold_q16: 65_536,
                    confidence: 65_536,
                    expected: 100,
                    observed: 450,
                    fired: true,
                }],
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
            }],
        };
        RunSnapshot {
            packets: 1234,
            epochs: 9,
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
    fn no_first_fire_round_trips_as_null() {
        let mut snap = sample_snapshot();
        snap.ensemble.engines[0].first_fired_at = None;
        let text = json::write(&snap);
        assert!(text.contains("\"first_fired_at\":null"));
        let parsed = parse_outcome_json(&text).expect("parses");
        assert_eq!(parsed, snap);
    }

    #[test]
    fn parse_reports_the_offending_path() {
        let snap = sample_snapshot();
        let text = json::write(&snap);
        let broken = text.replace("\"rerouted_frames\":17", "\"rerouted_framez\":17");
        let err = parse_outcome_json(&broken).expect_err("missing field must fail");
        assert!(err.contains("rerouted_frames"), "unhelpful error: {err}");
        assert!(err.contains("$.provenance[0]"), "no path in error: {err}");
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(parse_outcome_json("{\"packets\":").is_err());
        assert!(parse_outcome_json("[]").is_err());
    }
}
