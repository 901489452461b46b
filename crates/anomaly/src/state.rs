//! JSON forms of the state several detectors share (history windows,
//! alert lists), so each engine's
//! [`Detector::export_state`](crate::detector::Detector::export_state)
//! is a list of members and its `import_state` the same list read
//! back through [`telemetry::json::field`]. Every reader takes the
//! [`At`] of the value it is handed and puts it in front of what it
//! rejects.

use crate::alerts::Alert;
use stat4_core::{RunningStats, WindowedDist};
use telemetry::json::{field, obj, At, FromJson, Json, ToJson};

/// A history window: the ring in slot order, where the next value
/// lands, how many slots are live, the open interval's accumulator and
/// the three moments verbatim.
pub(crate) fn window_json(w: &WindowedDist) -> Json {
    obj(vec![
        ("ring", w.ring().to_json()),
        ("head", w.head().to_json()),
        ("filled", w.len().to_json()),
        ("current", w.current().to_json()),
        ("n", w.stats().n().to_json()),
        ("xsum", w.stats().xsum().to_json()),
        ("xsumsq", w.stats().xsumsq().to_json()),
    ])
}

/// Reloads `w` (built from the engine's config, which fixes the
/// capacity) from [`window_json`]'s form.
pub(crate) fn restore_window(w: &mut WindowedDist, v: &Json, at: At<'_>) -> Result<(), String> {
    let stats =
        RunningStats::from_raw(field(v, "n", at)?, field(v, "xsum", at)?, field(v, "xsumsq", at)?);
    w.restore(
        field(v, "ring", at)?,
        field(v, "head", at)?,
        field(v, "filled", at)?,
        stats,
        field(v, "current", at)?,
    )
    .map_err(|e| at.err(e))
}

/// An alert flattened to `(kind, at, value)` with an owned tag: the
/// one JSON form of an alert, in run snapshots and in the
/// detectors' exported state alike.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertSnap {
    /// Variant tag (`"syn_flood"`, `"traffic_spike"`, ...).
    pub kind: String,
    /// Detection time (ns).
    pub at: u64,
    /// The variant's payload value (count, group, address, ...).
    pub value: i64,
}

telemetry::json_struct!(AlertSnap { kind, at, value });

impl From<&Alert> for AlertSnap {
    fn from(a: &Alert) -> Self {
        let (kind, at, value) = a.flatten();
        Self { kind: kind.to_string(), at, value }
    }
}

impl ToJson for Alert {
    fn to_json(&self) -> Json {
        AlertSnap::from(self).to_json()
    }
}

impl FromJson for Alert {
    fn from_json(v: &Json, at: At<'_>) -> Result<Self, String> {
        let AlertSnap { kind, at: when, value } = AlertSnap::from_json(v, at)?;
        Alert::unflatten(&kind, when, value)
            .ok_or_else(|| at.err(format_args!("not a {kind:?} alert this build knows")))
    }
}
