//! The Chrome-trace validator.
//!
//! [`check_trace`] checks the merged trace document that `--trace-out`
//! emits ([`crate::trace::MergedTrace`]): every event well-formed,
//! per-thread timestamps monotone, begin/end spans properly nested
//! with matching names, no span left open. [`parse_trace`] reads the
//! same document without the ordering checks, for the inspectors that
//! only need its records. (A metrics [`crate::Snapshot`] needs no
//! checker: its push methods refuse what would make it invalid.)

use crate::json::{self, read_obj, At, Json, Lexer};
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

fn event_u64(v: Option<&Json>, key: &str, idx: usize, errors: &mut Vec<String>) -> Option<u64> {
    match v {
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

fn event_str(v: Option<Json>, key: &str, idx: usize, errors: &mut Vec<String>) -> Option<String> {
    match v {
        Some(Json::Str(s)) => Some(s),
        Some(_) => {
            errors.push(format!("event {idx}: {key} is not a string"));
            None
        }
        None => {
            errors.push(format!("event {idx}: missing {key}"));
            None
        }
    }
}

/// The value `lx` is at, checked whole: a scalar as it reads, a
/// container as its empty opening, which no event member may be.
fn scalar(lx: &mut Lexer<'_>) -> Result<Json, String> {
    let v = lx.value()?;
    lx.rest(&v)?;
    Ok(v)
}

/// The `traceEvents` value `lx` is at: its events in document order,
/// each event's problems appended to `errors` in the order of its
/// members below; `None` if it is not an array. Fails only on syntax.
fn read_events(lx: &mut Lexer<'_>, errors: &mut Vec<String>) -> Result<Option<Vec<TraceRecord>>, String> {
    let open = lx.value()?;
    if !matches!(open, Json::Arr(_)) {
        lx.rest(&open)?;
        return Ok(None);
    }
    let mut events = Vec::new();
    for idx in 0.. {
        if !lx.next_item()? {
            break;
        }
        let open = lx.value()?;
        if !matches!(open, Json::Obj(_)) {
            lx.rest(&open)?;
            errors.push(format!("event {idx}: not an object"));
            continue;
        }
        // Each member's first value, as `Json::get` finds it.
        let [mut name, mut phase, mut ts, mut tid, mut epoch] = [None, None, None, None, None];
        while let Some(key) = lx.next_key()? {
            let slot = match &*key {
                "name" => &mut name,
                "ph" => &mut phase,
                "ts" => &mut ts,
                "tid" => &mut tid,
                "epoch" => &mut epoch,
                _ => {
                    lx.skip()?;
                    continue;
                }
            };
            let v = scalar(lx)?;
            slot.get_or_insert(v);
        }
        let name = event_str(name, "name", idx, errors);
        let phase = event_str(phase, "ph", idx, errors);
        let ts = event_u64(ts.as_ref(), "ts", idx, errors);
        let tid = event_u64(tid.as_ref(), "tid", idx, errors);
        let epoch = event_u64(epoch.as_ref(), "epoch", idx, errors);
        if let (Some(name), Some(phase), Some(ts), Some(tid), Some(epoch)) = (name, phase, ts, tid, epoch) {
            events.push(TraceRecord { name, phase, ts, tid, epoch });
        }
    }
    Ok(Some(events))
}

/// Parses a trace document without enforcing ordering/nesting
/// invariants (that is [`check_trace`]'s job). Inspectors that only
/// need the records use this directly. The document is read in one
/// pass over its tokens, building no tree; a document that pass
/// refuses is checked whole first, so a syntax error anywhere in it is
/// the one error named.
///
/// # Errors
///
/// Returns every structural problem as a human-readable message.
pub fn parse_trace(text: &str) -> Result<TraceDoc, Vec<String>> {
    let mut lx = Lexer::new(text);
    let (mut events, mut dropped) = (None, None);
    let mut event_errors = Vec::new();
    let pass = read_obj(&mut lx, At::Root("document"), |key, lx, _| {
        match key {
            "traceEvents" if events.is_none() => events = Some(read_events(lx, &mut event_errors)?),
            "dropped" if dropped.is_none() => dropped = Some(scalar(lx)?),
            _ => return Ok(false),
        }
        Ok(true)
    });
    if pass.and_then(|()| lx.finish()).is_err() {
        // A syntax error, or a document that is not an object and so
        // has no `traceEvents`.
        return Err(vec![match json::check(text) {
            Err(e) => format!("document: {e}"),
            Ok(()) => "document: missing traceEvents".into(),
        }]);
    }
    let Some(events) = events else {
        return Err(vec!["document: missing traceEvents".into()]);
    };
    let Some(events) = events else {
        return Err(vec!["document: traceEvents is not an array".into()]);
    };
    let mut errors = Vec::new();
    let dropped = match dropped {
        Some(v) => v.as_u64().unwrap_or_else(|| {
            errors.push("document: dropped is not a non-negative integer".into());
            0
        }),
        None => {
            errors.push("document: missing dropped counter".into());
            0
        }
    };
    errors.append(&mut event_errors);
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

    /// How a trace read as a tree: the reader [`parse_trace`] used
    /// before it streamed, kept as the oracle for its messages.
    fn parse_trace_by_tree(text: &str) -> Result<TraceDoc, Vec<String>> {
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
        let mut events = Vec::new();
        for (idx, ev) in items.iter().enumerate() {
            if ev.as_obj().is_none() {
                errors.push(format!("event {idx}: not an object"));
                continue;
            }
            let name = event_str(ev.get("name").cloned(), "name", idx, &mut errors);
            let phase = event_str(ev.get("ph").cloned(), "ph", idx, &mut errors);
            let ts = event_u64(ev.get("ts"), "ts", idx, &mut errors);
            let tid = event_u64(ev.get("tid"), "tid", idx, &mut errors);
            let epoch = event_u64(ev.get("epoch"), "epoch", idx, &mut errors);
            if let (Some(name), Some(phase), Some(ts), Some(tid), Some(epoch)) = (name, phase, ts, tid, epoch) {
                events.push(TraceRecord { name, phase, ts, tid, epoch });
            }
        }
        if errors.is_empty() {
            Ok(TraceDoc { events, dropped })
        } else {
            Err(errors)
        }
    }

    /// The streaming reader gives what the tree gave, messages and their
    /// order included, on every cut and every single-bit flip of a
    /// trace, and on documents shaped to hit each branch: members out of
    /// order or twice, values of every wrong type, containers where a
    /// scalar belongs, a syntax error behind a structural one.
    #[test]
    fn the_streaming_reader_reads_as_the_tree_did() {
        let events = [ev("ingest", "B", 0, 4_294_967_295, 0), ev("x\\y", "E", 7, 1, 18_446_744_073_709_551_615)];
        let doc = trace_doc(&events.join(","), 3);
        let shaped = [
            r#"[]"#,
            r#"7"#,
            r#"{"dropped":1}"#,
            r#"{"traceEvents":{"a":[1]},"dropped":0}"#,
            r#"{"traceEvents":"no","dropped":0}"#,
            r#"{"dropped":-1,"traceEvents":[5,[],{"name":1,"ph":{"k":[]},"ts":-3,"tid":1.5,"epoch":"0"}]}"#,
            r#"{"traceEvents":[{"ts":1}],"dropped":{}}"#,
            r#"{"traceEvents":[{"name":"a","name":2,"ph":"i","ts":1,"tid":0,"epoch":0,"ts":"x"}],"dropped":0,"dropped":"x"}"#,
            r#"{"traceEvents":[],"traceEvents":5,"dropped":0}"#,
            r#"{"traceEvents":5,"traceEvents":[],"dropped":0}"#,
            r#"{"traceEvents":[{"extra":[{"deep":[1,2]}],"name":"a","ph":"i","ts":1,"tid":0,"epoch":0}],"dropped":0}"#,
            r#"{"traceEvents":7,"dropped":0,"x":[1,}"#,
            r#"[1,2"#,
            r#"{"traceEvents":[],"dropped":0} {}"#,
        ];
        let mut texts: Vec<String> = shaped.iter().map(|s| (*s).to_string()).collect();
        let bytes = doc.as_bytes();
        for at in 0..bytes.len() {
            texts.extend(std::str::from_utf8(&bytes[..at]).ok().map(str::to_string));
            for bit in 0..8 {
                let mut flipped = bytes.to_vec();
                flipped[at] ^= 1 << bit;
                texts.extend(String::from_utf8(flipped).ok());
            }
        }
        assert!(texts.len() > 1_000, "{} texts", texts.len());
        for text in &texts {
            assert_eq!(parse_trace(text), parse_trace_by_tree(text), "{text}");
        }
    }
}
