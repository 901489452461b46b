//! The Chrome-trace validator.
//!
//! [`check_trace`] checks the merged trace document that `--trace-out`
//! emits ([`crate::trace::MergedTrace`]): every event well-formed,
//! per-thread timestamps monotone, begin/end spans properly nested
//! with matching names, no span left open. [`parse_trace`] reads the
//! same document without the ordering checks, for the inspectors that
//! only need its records. (A metrics [`crate::Snapshot`] needs no
//! checker: its push methods refuse what would make it invalid.)

use crate::json::Json;
use std::collections::HashMap;

/// One event from a parsed trace document. Field types are owned so
/// inspectors can hold records independently of the source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Event name, e.g. `"ingest"`.
    pub name: String,
    /// Phase code: `"B"`, `"E"` or `"i"`.
    pub phase: String,
    /// Origin-relative timestamp, nanoseconds.
    pub ts: u64,
    /// Recording thread (shard index or the coordinator sentinel).
    pub tid: u64,
    /// Epoch the event belongs to.
    pub epoch: u64,
}

/// A parsed `--trace-out` document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDoc {
    /// Events in document order.
    pub events: Vec<TraceRecord>,
    /// The producer's dropped-events counter.
    pub dropped: u64,
}

/// What a successful [`check_trace`] saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    /// Events parsed.
    pub events: usize,
    /// Distinct thread ids.
    pub threads: usize,
    /// Completed begin/end span pairs.
    pub spans: usize,
    /// The document's dropped-events counter.
    pub dropped: u64,
}

fn event_u64(ev: &Json, key: &str, idx: usize, errors: &mut Vec<String>) -> Option<u64> {
    match ev.get(key) {
        Some(v) => match v.as_u64() {
            Some(n) => Some(n),
            None => {
                errors.push(format!("event {idx}: {key} is not a non-negative integer"));
                None
            }
        },
        None => {
            errors.push(format!("event {idx}: missing {key}"));
            None
        }
    }
}

fn event_str(ev: &Json, key: &str, idx: usize, errors: &mut Vec<String>) -> Option<String> {
    match ev.get(key) {
        Some(v) => match v.as_str() {
            Some(s) => Some(s.to_string()),
            None => {
                errors.push(format!("event {idx}: {key} is not a string"));
                None
            }
        },
        None => {
            errors.push(format!("event {idx}: missing {key}"));
            None
        }
    }
}

/// Parses a trace document without enforcing ordering/nesting
/// invariants (that is [`check_trace`]'s job). Inspectors that only
/// need the records use this directly.
///
/// # Errors
///
/// Returns every structural problem as a human-readable message.
pub fn parse_trace(text: &str) -> Result<TraceDoc, Vec<String>> {
    let doc = Json::parse(text).map_err(|e| vec![format!("document: {e}")])?;
    let mut errors = Vec::new();
    let Some(events_json) = doc.get("traceEvents") else {
        return Err(vec!["document: missing traceEvents".into()]);
    };
    let Some(items) = events_json.as_arr() else {
        return Err(vec!["document: traceEvents is not an array".into()]);
    };
    let dropped = match doc.get("dropped") {
        Some(v) => v.as_u64().unwrap_or_else(|| {
            errors.push("document: dropped is not a non-negative integer".into());
            0
        }),
        None => {
            errors.push("document: missing dropped counter".into());
            0
        }
    };
    let mut events = Vec::with_capacity(items.len());
    for (idx, ev) in items.iter().enumerate() {
        if ev.as_obj().is_none() {
            errors.push(format!("event {idx}: not an object"));
            continue;
        }
        let name = event_str(ev, "name", idx, &mut errors);
        let phase = event_str(ev, "ph", idx, &mut errors);
        let ts = event_u64(ev, "ts", idx, &mut errors);
        let tid = event_u64(ev, "tid", idx, &mut errors);
        let epoch = event_u64(ev, "epoch", idx, &mut errors);
        if let (Some(name), Some(phase), Some(ts), Some(tid), Some(epoch)) =
            (name, phase, ts, tid, epoch)
        {
            events.push(TraceRecord {
                name,
                phase,
                ts,
                tid,
                epoch,
            });
        }
    }
    if errors.is_empty() {
        Ok(TraceDoc { events, dropped })
    } else {
        Err(errors)
    }
}

/// Validates a merged Chrome-trace document.
///
/// Invariants enforced, per recording thread:
///
/// - phase codes are `B`/`E`/`i` only;
/// - timestamps are monotone non-decreasing in document order;
/// - `B`/`E` form a proper stack: every `E` closes the innermost open
///   span and matches its name and epoch, and no span is left open at
///   end of document.
///
/// # Errors
///
/// Returns every violated invariant as a human-readable message.
pub fn check_trace(text: &str) -> Result<TraceSummary, Vec<String>> {
    let doc = parse_trace(text)?;
    let mut errors = Vec::new();
    let mut last_ts: HashMap<u64, u64> = HashMap::new();
    let mut stacks: HashMap<u64, Vec<(String, u64, usize)>> = HashMap::new();
    let mut spans = 0usize;
    for (idx, ev) in doc.events.iter().enumerate() {
        if !["B", "E", "i"].contains(&ev.phase.as_str()) {
            errors.push(format!("event {idx}: unknown phase {:?}", ev.phase));
            continue;
        }
        if let Some(&prev) = last_ts.get(&ev.tid) {
            if ev.ts < prev {
                errors.push(format!(
                    "event {idx}: tid {} ts {} goes backwards (previous {prev})",
                    ev.tid, ev.ts
                ));
            }
        }
        last_ts.insert(ev.tid, ev.ts);
        let stack = stacks.entry(ev.tid).or_default();
        match ev.phase.as_str() {
            "B" => stack.push((ev.name.clone(), ev.epoch, idx)),
            "E" => match stack.pop() {
                Some((name, epoch, _)) => {
                    if name != ev.name || epoch != ev.epoch {
                        errors.push(format!(
                            "event {idx}: tid {} end {:?} epoch {} closes open span {name:?} epoch {epoch}",
                            ev.tid, ev.name, ev.epoch
                        ));
                    } else {
                        spans += 1;
                    }
                }
                None => errors.push(format!(
                    "event {idx}: tid {} end {:?} with no open span",
                    ev.tid, ev.name
                )),
            },
            _ => {}
        }
    }
    for (tid, stack) in &stacks {
        for (name, epoch, idx) in stack {
            errors.push(format!(
                "event {idx}: tid {tid} span {name:?} epoch {epoch} never closed"
            ));
        }
    }
    if errors.is_empty() {
        Ok(TraceSummary {
            events: doc.events.len(),
            threads: last_ts.len(),
            spans,
            dropped: doc.dropped,
        })
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_doc(events: &str, dropped: u64) -> String {
        format!("{{\"traceEvents\":[{events}],\"dropped\":{dropped},\"threads\":0}}")
    }

    fn ev(name: &str, ph: &str, ts: u64, tid: u64, epoch: u64) -> String {
        format!(
            "{{\"name\":\"{name}\",\"ph\":\"{ph}\",\"ts\":{ts},\"pid\":0,\"tid\":{tid},\"epoch\":{epoch}}}"
        )
    }

    #[test]
    fn merged_tracer_output_passes_check_trace() {
        use crate::trace::{MergedTrace, Tracer};
        let mut coord = Tracer::new(16);
        let mut shard = Tracer::for_shard(16, 0, coord.origin());
        coord.begin("ingest", 0);
        shard.begin("ingest", 0);
        shard.end("ingest", 0);
        coord.end("ingest", 0);
        coord.instant("alert", 0);
        let json = MergedTrace::merge([&coord, &shard]).to_chrome_json();
        let summary = check_trace(&json).expect("real merged output must validate");
        assert_eq!(summary.events, 5);
        assert_eq!(summary.threads, 2);
        assert_eq!(summary.spans, 2);
        assert_eq!(summary.dropped, 0);
    }

    #[test]
    fn interleaved_threads_validate_independently() {
        let events = [
            ev("ingest", "B", 0, 4_294_967_295, 0),
            ev("ingest", "B", 1, 0, 0),
            ev("ingest", "B", 2, 1, 0),
            ev("ingest", "E", 3, 1, 0),
            ev("ingest", "E", 5, 0, 0),
            ev("ingest", "E", 9, 4_294_967_295, 0),
        ]
        .join(",");
        let summary = check_trace(&trace_doc(&events, 2)).unwrap();
        assert_eq!(summary.threads, 3);
        assert_eq!(summary.spans, 3);
        assert_eq!(summary.dropped, 2);
    }

    #[test]
    fn backwards_time_within_a_thread_flagged() {
        let events = [ev("a", "i", 10, 0, 0), ev("b", "i", 5, 0, 0)].join(",");
        let errs = check_trace(&trace_doc(&events, 0)).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("goes backwards")), "{errs:?}");
    }

    #[test]
    fn mismatched_span_name_flagged() {
        let events = [ev("a", "B", 0, 0, 0), ev("b", "E", 1, 0, 0)].join(",");
        let errs = check_trace(&trace_doc(&events, 0)).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("closes open span")), "{errs:?}");
    }

    #[test]
    fn unclosed_and_unopened_spans_flagged() {
        let open = check_trace(&trace_doc(&ev("a", "B", 0, 0, 0), 0)).unwrap_err();
        assert!(open.iter().any(|e| e.contains("never closed")), "{open:?}");
        let close = check_trace(&trace_doc(&ev("a", "E", 0, 0, 0), 0)).unwrap_err();
        assert!(close.iter().any(|e| e.contains("no open span")), "{close:?}");
    }

    #[test]
    fn malformed_trace_documents_flagged() {
        assert!(check_trace("not json").is_err());
        assert!(check_trace("{}").unwrap_err()[0].contains("traceEvents"));
        let errs = check_trace("{\"traceEvents\":[{\"ph\":\"i\"}],\"dropped\":0}").unwrap_err();
        assert!(errs.iter().any(|e| e.contains("missing name")), "{errs:?}");
        let errs = check_trace("{\"traceEvents\":[]}").unwrap_err();
        assert!(errs.iter().any(|e| e.contains("dropped")), "{errs:?}");
        let events = ev("a", "X", 0, 0, 0);
        let errs = check_trace(&trace_doc(&events, 0)).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("unknown phase")), "{errs:?}");
    }
}
