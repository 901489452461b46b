//! JSON forms of the state several detectors share (history windows,
//! alert lists). Each engine's
//! [`Detector::export_state`](crate::detector::Detector::export_state)
//! writes a `json_struct!` state struct built from the engine, and its
//! `import_state` reads the same struct from the lexer and checks it
//! into the engine. Every reader takes the [`At`] of the value it is
//! handed and puts it in front of what it rejects.

use crate::alerts::Alert;
use stat4_core::{RunningStats, WindowedDist};
use telemetry::json::{At, FromJson, Lexer, ToJson};
use telemetry::json_struct;

/// A history window: the ring in slot order, where the next value
/// lands, how many slots are live, the open interval's accumulator and
/// the three moments verbatim. Read as an owned ring; written as a
/// [`WindowStateOf`], which borrows the ring from the window.
#[derive(Debug)]
pub(crate) struct WindowState<R = Vec<i64>> {
    ring: R,
    head: usize,
    filled: usize,
    current: i64,
    n: u64,
    xsum: i64,
    xsumsq: i64,
}

/// A window's state as written: the ring is the window's own slots.
pub(crate) type WindowStateOf<'a> = WindowState<&'a [i64]>;

json_struct!(@read WindowState { ring, head, filled, current, n, xsum, xsumsq });
json_struct!(@write WindowStateOf<'_> { ring, head, filled, current, n, xsum, xsumsq });

impl<'a> WindowStateOf<'a> {
    /// The state of `w`, borrowing its ring.
    pub(crate) fn of(w: &'a WindowedDist) -> Self {
        Self {
            ring: w.ring(),
            head: w.head(),
            filled: w.len(),
            current: w.current(),
            n: w.stats().n(),
            xsum: w.stats().xsum(),
            xsumsq: w.stats().xsumsq(),
        }
    }
}

impl WindowState {
    /// Reloads `w` (built from the engine's config, which fixes the
    /// capacity), which sits at `at`.
    pub(crate) fn restore(self, w: &mut WindowedDist, at: At<'_>) -> Result<(), String> {
        let stats = RunningStats::from_raw(self.n, self.xsum, self.xsumsq);
        w.restore(self.ring, self.head, self.filled, stats, self.current)
            .map_err(|e| at.err(e))
    }
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

json_struct!(AlertSnap { kind, at, value });

impl From<&Alert> for AlertSnap {
    fn from(a: &Alert) -> Self {
        let (kind, at, value) = a.flatten();
        Self { kind: kind.to_string(), at, value }
    }
}

impl ToJson for Alert {
    fn write_json(&self, out: &mut String) {
        AlertSnap::from(self).write_json(out);
    }
}

impl FromJson for Alert {
    fn read_json(lx: &mut Lexer<'_>, at: At<'_>) -> Result<Self, String> {
        let AlertSnap { kind, at: when, value } = AlertSnap::read_json(lx, at)?;
        Alert::unflatten(&kind, when, value)
            .ok_or_else(|| at.err(format_args!("not a {kind:?} alert this build knows")))
    }
}
