//! JSON forms of the state several detectors share — history windows,
//! alert lists, integer rings — so each engine's
//! [`Detector::export_state`](crate::detector::Detector::export_state)
//! is a list of members and its `import_state` the same list read
//! back. Every reader takes the `path` of the value it is handed and
//! puts it in front of what it rejects.

use crate::alerts::Alert;
use stat4_core::{RunningStats, WindowedDist};
use telemetry::json::{ju, jus, obj, req, req_arr, req_i64, req_str, req_u64, req_usize, Json};

pub(crate) fn i64_arr(values: &[i64]) -> Json {
    Json::Arr(values.iter().map(|&x| Json::Int(x)).collect())
}

pub(crate) fn req_i64_arr(v: &Json, key: &str, path: &str) -> Result<Vec<i64>, String> {
    req_arr(v, key, path)?
        .iter()
        .enumerate()
        .map(|(i, x)| {
            x.as_i64()
                .ok_or_else(|| format!("{path}: {key}[{i}] is not an integer"))
        })
        .collect()
}

pub(crate) fn jopt_i64(v: Option<i64>) -> Json {
    v.map_or(Json::Null, Json::Int)
}

pub(crate) fn opt_i64(v: &Json, key: &str, path: &str) -> Result<Option<i64>, String> {
    let field = req(v, key, path)?;
    if field.is_null() {
        return Ok(None);
    }
    field
        .as_i64()
        .map(Some)
        .ok_or_else(|| format!("{path}: \"{key}\" is neither null nor an integer"))
}

/// A history window: the ring in slot order, where the next value
/// lands, how many slots are live, the open interval's accumulator and
/// the three moments verbatim.
pub(crate) fn window_json(w: &WindowedDist) -> Json {
    obj(vec![
        ("ring", i64_arr(w.ring())),
        ("head", jus(w.head())),
        ("filled", jus(w.len())),
        ("current", Json::Int(w.current())),
        ("n", ju(w.stats().n())),
        ("xsum", Json::Int(w.stats().xsum())),
        ("xsumsq", Json::Int(w.stats().xsumsq())),
    ])
}

/// Reloads `w` (built from the engine's config, which fixes the
/// capacity) from [`window_json`]'s form.
pub(crate) fn restore_window(w: &mut WindowedDist, v: &Json, path: &str) -> Result<(), String> {
    let stats = RunningStats::from_raw(
        req_u64(v, "n", path)?,
        req_i64(v, "xsum", path)?,
        req_i64(v, "xsumsq", path)?,
    );
    w.restore(
        req_i64_arr(v, "ring", path)?,
        req_usize(v, "head", path)?,
        req_usize(v, "filled", path)?,
        stats,
        req_i64(v, "current", path)?,
    )
    .map_err(|e| format!("{path}: {e}"))
}

/// An alert list in the flattened `(kind, at, value)` schema.
pub(crate) fn alerts_json(alerts: &[Alert]) -> Json {
    Json::Arr(
        alerts
            .iter()
            .map(|a| {
                let (kind, at, value) = a.flatten();
                obj(vec![
                    ("kind", Json::Str(kind.to_string())),
                    ("at", ju(at)),
                    ("value", Json::Int(value)),
                ])
            })
            .collect(),
    )
}

pub(crate) fn req_alerts(v: &Json, key: &str, path: &str) -> Result<Vec<Alert>, String> {
    req_arr(v, key, path)?
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let ap = format!("{path}.{key}[{i}]");
            let kind = req_str(a, "kind", &ap)?;
            Alert::unflatten(&kind, req_u64(a, "at", &ap)?, req_i64(a, "value", &ap)?)
                .ok_or_else(|| format!("{ap}: not a {kind:?} alert this build knows"))
        })
        .collect()
}
