//! Alert provenance: the full causal record behind each drilldown
//! trigger a replay run fired.
//!
//! When an engine's fire pulls the drilldown trigger at an epoch
//! barrier, the engines capture one
//! [`AlertProvenanceRecord`]: the merged signals every engine read,
//! each engine's score against its threshold at fire time
//! ([`anomaly::AlertProvenance`]), the epoch's *lineage* — which shard
//! reports arrived, which earlier epochs carried forward under report
//! loss, every quarantine so far — and the drilldown rebind
//! transactions the trigger caused.
//!
//! Everything here derives only from merged state and deterministic
//! supervisor events, so provenance is part of the pool-vs-reference
//! bit-identity surface (`tests/pool.rs`) and survives the JSON round
//! trip field-for-field: each type's form is its field list, declared
//! beside it, and a run snapshot and a checkpoint carry the same one.

use crate::{IncidentKind, ShardIncident};
use anomaly::{AlertProvenance, EnsembleVerdict, RebindTransaction, SignalContext, SignalValues};
use telemetry::json_struct;

/// A quarantine event referenced from an alert's lineage, with the
/// incident kind rendered as a stable string so records round-trip
/// through JSON without loss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncidentRef {
    /// Index of the quarantined shard.
    pub shard: usize,
    /// Epoch at which it was quarantined.
    pub epoch: u64,
    /// `"crashed"` or `"panicked: <msg>"`.
    pub detail: String,
}

json_struct!(IncidentRef { shard, epoch, detail });

impl From<&ShardIncident> for IncidentRef {
    fn from(i: &ShardIncident) -> Self {
        let detail = match &i.kind {
            IncidentKind::Crashed => String::from("crashed"),
            IncidentKind::Panicked(msg) => format!("panicked: {msg}"),
        };
        Self {
            shard: i.shard,
            epoch: i.epoch,
            detail,
        }
    }
}

/// How the firing interval's merged report came to be: which shards
/// contributed, what carried forward, what the supervisor had done by
/// then.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochLineage {
    /// The epoch whose report fired.
    pub epoch: u64,
    /// Shards alive after this epoch's merge — whose state is in the
    /// merged view the engines judged.
    pub delivered_shards: Vec<usize>,
    /// Earlier epochs whose reports were lost on the control channel
    /// and carried (cumulative-register style) into this one.
    pub carried_epochs: Vec<u64>,
    /// Intervals the delivered report spans (`carried_epochs + 1`).
    pub spanned: i64,
    /// Frames rerouted from quarantined shards to survivors in this
    /// epoch.
    pub rerouted_frames: u64,
    /// Every quarantine up to and including this epoch, in occurrence
    /// order.
    pub quarantined: Vec<IncidentRef>,
}

json_struct!(EpochLineage {
    epoch,
    delivered_shards,
    carried_epochs,
    spanned,
    rerouted_frames,
    quarantined
});

/// The supervisor-side facts [`AlertProvenanceRecord::capture`] folds
/// into a lineage — what the run knew at the detect site, before any
/// provenance shaping.
#[derive(Debug)]
pub struct LineageSources<'a> {
    /// Shards alive after this epoch's merge.
    pub delivered_shards: Vec<usize>,
    /// Epochs whose reports were lost and carried into this one.
    pub carried_from: &'a [u64],
    /// Frames rerouted from quarantined shards this epoch.
    pub rerouted_frames: u64,
    /// Every quarantine incident so far, in occurrence order.
    pub incidents: &'a [ShardIncident],
}

/// One fired alert with its statistical provenance, epoch lineage and
/// the drilldown transactions it caused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertProvenanceRecord {
    /// Ordinal of the record within the run (stable alert id).
    pub id: u64,
    /// Per-engine scores and signals at fire time; the engines marked
    /// `fired` pulled the trigger.
    pub provenance: AlertProvenance,
    /// How the firing report was assembled.
    pub lineage: EpochLineage,
    /// Rebind transactions the trigger caused (empty once the ladder
    /// is at host granularity).
    pub drilldown: Vec<RebindTransaction>,
}

json_struct!(AlertProvenanceRecord { id, provenance, lineage, drilldown });

impl AlertProvenanceRecord {
    /// Captures one record at the detect site, with the rebind
    /// `transactions` the trigger caused. Both replay engines call this
    /// with identical inputs, which is what keeps provenance on the
    /// bit-identity surface.
    #[must_use]
    pub fn capture(
        id: u64,
        ctx: &SignalContext<'_>,
        verdict: &EnsembleVerdict,
        transactions: Vec<RebindTransaction>,
        sources: LineageSources<'_>,
    ) -> Self {
        Self {
            id,
            provenance: AlertProvenance::assemble(SignalValues::capture(ctx), verdict),
            lineage: EpochLineage {
                epoch: verdict.epoch,
                delivered_shards: sources.delivered_shards,
                carried_epochs: sources.carried_from.to_vec(),
                spanned: ctx.spanned,
                rerouted_frames: sources.rerouted_frames,
                quarantined: sources.incidents.iter().map(IncidentRef::from).collect(),
            },
            drilldown: transactions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incident_ref_renders_each_kind() {
        let cases = [
            (IncidentKind::Crashed, "crashed"),
            (
                IncidentKind::Panicked(String::from("boom")),
                "panicked: boom",
            ),
        ];
        for (kind, want) in cases {
            let r = IncidentRef::from(&ShardIncident {
                shard: 3,
                epoch: 7,
                kind,
            });
            assert_eq!(r.shard, 3);
            assert_eq!(r.epoch, 7);
            assert_eq!(r.detail, want);
        }
    }
}
