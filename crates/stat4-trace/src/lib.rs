//! Run inspector for the replay engine's observability artifacts.
//!
//! A replay run leaves two files behind: the merged Chrome-trace
//! document (`--trace-out`) and the deterministic run snapshot
//! (`--snapshot-out`). This crate renders both for humans:
//!
//! - [`timeline`] — every span open/close and instant, one line per
//!   event, indented by nesting depth per thread;
//! - [`flame`] — a folded flamegraph table: per `(thread, span)` call
//!   count, total time, and self time (total minus nested children);
//! - [`explain`] — the full provenance story of one alert: which
//!   engines fired at what score against what threshold, the signal
//!   values the ensemble saw, the epoch's lineage (delivered shards,
//!   carried epochs, quarantines, reroutes), and any drilldown rebind
//!   transactions the alert triggered.
//!
//! Validation itself lives in [`telemetry::check_trace`]; the
//! `stat4-trace check` subcommand is a thin wrapper over it.

use std::collections::HashMap;
use std::fmt::Write as _;

use replay::{LifecycleReport, RunSnapshot};
use telemetry::{TraceDoc, COORDINATOR_TID};

/// Human name for a recording thread id.
#[must_use]
pub(crate) fn thread_name(tid: u64) -> String {
    if tid == u64::from(COORDINATOR_TID) {
        String::from("coordinator")
    } else {
        format!("shard {tid}")
    }
}

/// Renders nanoseconds with a readable unit (ns, µs, ms, or s).
#[must_use]
pub(crate) fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{}.{:01}µs", ns / 1_000, (ns % 1_000) / 100)
    } else if ns < 1_000_000_000 {
        format!("{}.{:03}ms", ns / 1_000_000, (ns % 1_000_000) / 1_000)
    } else {
        format!("{}.{:03}s", ns / 1_000_000_000, (ns % 1_000_000_000) / 1_000_000)
    }
}

/// Q16 fixed-point value rendered as a decimal with three places.
/// Widened to `u128`: a snapshot is read from a file, and any `i64`
/// in it must render, not overflow.
#[must_use]
pub(crate) fn fmt_q16(v: i64) -> String {
    let sign = if v < 0 { "-" } else { "" };
    let abs = u128::from(v.unsigned_abs());
    let scaled = (abs * 1000 + (1 << 15)) >> 16;
    format!("{sign}{}.{:03}", scaled / 1000, scaled % 1000)
}

/// One line per trace event, in document order, indented by the
/// recording thread's span nesting depth at that point.
#[must_use]
pub fn timeline(doc: &TraceDoc) -> String {
    let mut out = String::new();
    let mut depth: HashMap<u64, usize> = HashMap::new();
    let mut opened_at: HashMap<u64, Vec<u64>> = HashMap::new();
    for ev in &doc.events {
        let d = depth.entry(ev.tid).or_insert(0);
        match ev.phase.as_str() {
            "B" => {
                let indent = "  ".repeat(*d);
                let _ = writeln!(
                    out,
                    "{:>12}  {:<12} {indent}▶ {} epoch {}",
                    fmt_ns(ev.ts),
                    thread_name(ev.tid),
                    ev.name,
                    ev.epoch,
                );
                *d += 1;
                opened_at.entry(ev.tid).or_default().push(ev.ts);
            }
            "E" => {
                *d = d.saturating_sub(1);
                let started = opened_at.entry(ev.tid).or_default().pop();
                let dur = started.map_or_else(String::new, |s| {
                    format!(" ({})", fmt_ns(ev.ts.saturating_sub(s)))
                });
                let indent = "  ".repeat(*d);
                let _ = writeln!(
                    out,
                    "{:>12}  {:<12} {indent}◀ {} epoch {}{dur}",
                    fmt_ns(ev.ts),
                    thread_name(ev.tid),
                    ev.name,
                    ev.epoch,
                );
            }
            _ => {
                let indent = "  ".repeat(*d);
                let _ = writeln!(
                    out,
                    "{:>12}  {:<12} {indent}· {} epoch {}",
                    fmt_ns(ev.ts),
                    thread_name(ev.tid),
                    ev.name,
                    ev.epoch,
                );
            }
        }
    }
    if doc.dropped > 0 {
        let _ = writeln!(out, "(… {} event(s) dropped at the buffer cap)", doc.dropped);
    }
    out
}

/// Aggregate row of [`flame`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FlameRow {
    /// Recording thread.
    pub tid: u64,
    /// Span name.
    pub name: String,
    /// Completed spans with this name on this thread.
    pub calls: u64,
    /// Wall time inside the span, children included.
    pub total_ns: u64,
    /// Wall time inside the span, children excluded.
    pub self_ns: u64,
}

/// Folds completed spans into per-`(thread, name)` totals with self
/// time (total minus the time spent in nested child spans). Unclosed
/// spans and instants contribute nothing.
#[must_use]
pub(crate) fn flame_rows(doc: &TraceDoc) -> Vec<FlameRow> {
    // Per-thread stack of (name, start_ts, time eaten by children).
    let mut stacks: HashMap<u64, Vec<(String, u64, u64)>> = HashMap::new();
    let mut agg: HashMap<(u64, String), (u64, u64, u64)> = HashMap::new();
    for ev in &doc.events {
        let stack = stacks.entry(ev.tid).or_default();
        match ev.phase.as_str() {
            "B" => stack.push((ev.name.clone(), ev.ts, 0)),
            "E" => {
                if let Some((name, start, child_ns)) = stack.pop() {
                    let total = ev.ts.saturating_sub(start);
                    let entry = agg.entry((ev.tid, name)).or_insert((0, 0, 0));
                    // Saturating: the timestamps are read from a file,
                    // and a span nested in one of its own name counts twice.
                    entry.0 += 1;
                    entry.1 = entry.1.saturating_add(total);
                    entry.2 = entry.2.saturating_add(total.saturating_sub(child_ns));
                    if let Some(parent) = stack.last_mut() {
                        parent.2 = parent.2.saturating_add(total);
                    }
                }
            }
            _ => {}
        }
    }
    let mut rows: Vec<FlameRow> = agg
        .into_iter()
        .map(|((tid, name), (calls, total_ns, self_ns))| FlameRow {
            tid,
            name,
            calls,
            total_ns,
            self_ns,
        })
        .collect();
    rows.sort_by(|a, b| {
        b.self_ns
            .cmp(&a.self_ns)
            .then(a.tid.cmp(&b.tid))
            .then(a.name.cmp(&b.name))
    });
    rows
}

/// Renders `flame_rows` as an aligned table, hottest self time
/// first.
#[must_use]
pub fn flame(doc: &TraceDoc) -> String {
    let rows = flame_rows(doc);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:<16} {:>7} {:>12} {:>12}",
        "thread", "span", "calls", "total", "self"
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "{:<12} {:<16} {:>7} {:>12} {:>12}",
            thread_name(r.tid),
            r.name,
            r.calls,
            fmt_ns(r.total_ns),
            fmt_ns(r.self_ns),
        );
    }
    if rows.is_empty() {
        let _ = writeln!(out, "(no completed spans in this trace)");
    }
    out
}

/// Renders the provenance story of alert `id` from a run snapshot.
///
/// # Errors
///
/// When the snapshot holds no record with that id — the message lists
/// the ids that do exist.
pub fn explain(snap: &RunSnapshot, id: u64) -> Result<String, String> {
    let Some(rec) = snap.provenance.iter().find(|r| r.id == id) else {
        let have: Vec<String> = snap.provenance.iter().map(|r| r.id.to_string()).collect();
        return Err(if have.is_empty() {
            String::from("this run fired no alerts, so there is nothing to explain")
        } else {
            format!("no alert {id} in this run (have: {})", have.join(", "))
        });
    };
    let p = &rec.provenance;
    let l = &rec.lineage;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "alert {} — epoch {} at {}",
        rec.id,
        p.epoch,
        fmt_ns(p.at)
    );
    let fired: Vec<&str> = p.engines.iter().filter(|e| e.fired).map(|e| e.engine.as_str()).collect();
    let _ = writeln!(out, "cause: engine(s) fired: {}", fired.join(", "));
    let _ = writeln!(out, "engines at fire time:");
    for e in &p.engines {
        let verdict = if e.fired { "FIRED" } else { "quiet" };
        let _ = writeln!(
            out,
            "  {:>12}  {verdict:<5} score {} vs threshold {}  (confidence {}, expected {}, observed {})",
            e.engine,
            fmt_q16(e.score),
            fmt_q16(e.threshold_q16),
            fmt_q16(e.confidence),
            e.expected,
            e.observed,
        );
    }
    let s = &p.signals;
    let _ = writeln!(
        out,
        "signals: {} packet(s), {} syn(s), {} distinct source(s), median len {} B over {} interval(s)",
        s.packets, s.syns, s.distinct_sources, s.median_len, s.spanned,
    );
    let _ = writeln!(
        out,
        "lineage: epoch {} assembled from {} shard(s) {:?}",
        l.epoch,
        l.delivered_shards.len(),
        l.delivered_shards,
    );
    if l.carried_epochs.is_empty() {
        let _ = writeln!(out, "  no carry-forward: every earlier epoch was delivered");
    } else {
        let _ = writeln!(
            out,
            "  carried forward from {} undelivered epoch(s): {:?}",
            l.carried_epochs.len(),
            l.carried_epochs,
        );
    }
    if l.rerouted_frames > 0 {
        let _ = writeln!(
            out,
            "  {} frame(s) rerouted around quarantined shards this epoch",
            l.rerouted_frames
        );
    }
    if l.quarantined.is_empty() {
        let _ = writeln!(out, "  no shards quarantined before this alert");
    } else {
        for q in &l.quarantined {
            let _ = writeln!(
                out,
                "  shard {} quarantined at epoch {}: {}",
                q.shard, q.epoch, q.detail
            );
        }
    }
    if rec.drilldown.is_empty() {
        let _ = writeln!(out, "drilldown: no rebind transactions");
    } else {
        let _ = writeln!(
            out,
            "drilldown: {} rebind transaction(s)",
            rec.drilldown.len()
        );
        for t in &rec.drilldown {
            let _ = writeln!(
                out,
                "  gen {} at {}: {} -> {} ({} bind(s))",
                t.generation,
                fmt_ns(t.at),
                t.from_phase,
                t.to_phase,
                t.binds,
            );
        }
    }
    Ok(out)
}

/// Renders a replay lifecycle report (`--lifecycle-out`) as a short
/// narrative: where the run resumed from, every checkpoint, every swap
/// verdict, the kill point, and the closing generation tally.
#[must_use]
pub fn lifecycle_story(report: &LifecycleReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "lifecycle:");
    if report.events.is_empty() {
        let _ = writeln!(out, "  quiet run: no lifecycle events");
    }
    for ev in &report.events {
        let line = match ev.kind.as_str() {
            "resumed" => format!("resumed ({})", ev.detail),
            "checkpoint_written" => format!("checkpoint written ({})", ev.detail),
            "checkpoint_error" => format!("checkpoint FAILED ({})", ev.detail),
            "checkpoint_fallback" => format!("fell back past a bad checkpoint ({})", ev.detail),
            "killed" => format!("killed ({})", ev.detail),
            "swap_committed" => format!("swap committed ({})", ev.detail),
            "swap_rejected" => format!("swap REJECTED: {}", ev.detail),
            "stale_swap_rejected" => format!("stale swap rejected: {}", ev.detail),
            other => format!("{other}: {}", ev.detail),
        };
        let _ = writeln!(out, "  epoch {:>4}  {line}", ev.epoch);
    }
    let _ = writeln!(
        out,
        "  summary: generation {}, {} checkpoint(s) written, {} swap(s) committed, {} rejected{}",
        report.generation,
        report.checkpoints_written,
        report.swaps_committed,
        report.swaps_rejected,
        match report.resumed_from {
            Some(ord) => format!(", resumed from checkpoint {ord}"),
            None => String::new(),
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::check::TraceRecord;

    fn rec(name: &str, phase: &str, ts: u64, tid: u64, epoch: u64) -> TraceRecord {
        TraceRecord {
            name: name.to_string(),
            phase: phase.to_string(),
            ts,
            tid,
            epoch,
        }
    }

    #[test]
    fn fmt_ns_picks_readable_units() {
        assert_eq!(fmt_ns(17), "17ns");
        assert_eq!(fmt_ns(2_500), "2.5µs");
        assert_eq!(fmt_ns(3_042_000), "3.042ms");
        assert_eq!(fmt_ns(1_250_000_000), "1.250s");
    }

    #[test]
    fn fmt_q16_rounds_to_three_places() {
        assert_eq!(fmt_q16(1 << 16), "1.000");
        assert_eq!(fmt_q16(3 << 15), "1.500");
        assert_eq!(fmt_q16(-(1 << 15)), "-0.500");
        assert_eq!(fmt_q16(0), "0.000");
        assert_eq!(fmt_q16(1 << 62), "70368744177664.000");
        assert_eq!(fmt_q16(i64::MAX), "140737488355328.000");
        assert_eq!(fmt_q16(i64::MIN), "-140737488355328.000");
    }

    #[test]
    fn thread_names_distinguish_coordinator() {
        assert_eq!(thread_name(u64::from(COORDINATOR_TID)), "coordinator");
        assert_eq!(thread_name(2), "shard 2");
    }

    #[test]
    fn flame_attributes_self_time_to_the_innermost_span() {
        // ingest [0, 100] wraps barrier [10, 60]: ingest self = 50.
        let doc = TraceDoc {
            events: vec![
                rec("ingest", "B", 0, 7, 0),
                rec("barrier", "B", 10, 7, 0),
                rec("barrier", "E", 60, 7, 0),
                rec("ingest", "E", 100, 7, 0),
            ],
            dropped: 0,
        };
        let rows = flame_rows(&doc);
        let ingest = rows.iter().find(|r| r.name == "ingest").unwrap();
        assert_eq!((ingest.calls, ingest.total_ns, ingest.self_ns), (1, 100, 50));
        let barrier = rows.iter().find(|r| r.name == "barrier").unwrap();
        assert_eq!((barrier.calls, barrier.total_ns, barrier.self_ns), (1, 50, 50));
    }

    #[test]
    fn flame_saturates_on_spans_as_long_as_the_clock() {
        // Valid for `check_trace` (monotone, properly nested), but the
        // two `a` spans together last longer than a u64 can count.
        let doc = TraceDoc {
            events: vec![
                rec("a", "B", 0, 0, 0),
                rec("a", "B", 0, 0, 0),
                rec("a", "E", u64::MAX, 0, 0),
                rec("a", "E", u64::MAX, 0, 0),
            ],
            dropped: 0,
        };
        let rows = flame_rows(&doc);
        assert_eq!(rows.len(), 1);
        assert_eq!((rows[0].calls, rows[0].total_ns, rows[0].self_ns), (2, u64::MAX, u64::MAX));
    }

    #[test]
    fn timeline_indents_nested_spans_and_reports_drops() {
        let doc = TraceDoc {
            events: vec![
                rec("ingest", "B", 0, 0, 3),
                rec("alert", "i", 5, 0, 3),
                rec("ingest", "E", 10, 0, 3),
            ],
            dropped: 2,
        };
        let text = timeline(&doc);
        assert!(text.contains("▶ ingest epoch 3"), "{text}");
        assert!(text.contains("  · alert epoch 3"), "instant indented: {text}");
        assert!(text.contains("◀ ingest epoch 3 (10ns)"), "{text}");
        assert!(text.contains("2 event(s) dropped"), "{text}");
    }
}

// End-to-end inspector coverage: run a real (chaotic) replay, render
// the artifacts exactly as the CLI flags do, and drive every
// inspector view over them — the same path CI's trace smoke exercises
// through the binaries.
#[cfg(test)]
mod inspect {
    use faultinject::FaultSchedule;
    use replay::{parse_outcome_json, render_outcome_json, run_replay_with_faults, ReplayConfig};
    use crate::{explain, flame, flame_rows, timeline, thread_name};
    use telemetry::{check_trace, parse_trace, COORDINATOR_TID};
    use workloads::{Schedule, SynFloodWorkload};

    /// The flood's epochs are ≈1 000 frames: long enough that the pool
    /// hands them to its workers, so the trace has the coordinator's
    /// `barrier` spans and the workers' `queue_wait` spans in it (the quiet
    /// epochs before it are ingested on the coordinator, with neither).
    fn flood() -> Schedule {
        let (s, _) = SynFloodWorkload {
            background_cps: 500,
            flood_pps: 100_000,
            flood_start: 150_000_000,
            duration: 400_000_000,
            seed: 11,
            ..SynFloodWorkload::default()
        }
        .generate();
        s
    }

    #[test]
    fn chaos_run_artifacts_survive_every_inspector_view() {
        let s = flood();
        let cfg = ReplayConfig {
            shards: 4,
            ..ReplayConfig::default()
        };
        let faults =
            FaultSchedule::parse("shard_crash=1@3,ctrl_loss=0.30", 42).expect("valid chaos spec");
        let out = run_replay_with_faults(&s, &cfg, &faults);

        // The trace must validate and carry spans from the coordinator and
        // every live shard.
        let trace_text = out.telemetry.merged_trace().to_chrome_json();
        let summary = check_trace(&trace_text).expect("merged chaos trace validates");
        assert!(summary.spans > 0, "no spans in {summary:?}");
        let doc = parse_trace(&trace_text).expect("parses");
        let mut tids: Vec<u64> = doc.events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert!(
            tids.contains(&u64::from(COORDINATOR_TID)),
            "coordinator missing from {tids:?}"
        );
        for shard in 0..cfg.shards as u64 {
            if shard == 1 {
                continue; // crashed at epoch 3 — may or may not have traced
            }
            assert!(tids.contains(&shard), "shard {shard} missing from {tids:?}");
        }

        // Timeline and flamegraph render the same document.
        let tl = timeline(&doc);
        assert!(tl.contains("coordinator"), "{tl}");
        assert!(tl.contains(&thread_name(0)), "{tl}");
        assert!(tl.contains("▶ ingest"), "{tl}");
        let fl = flame(&doc);
        assert!(fl.contains("ingest"), "{fl}");
        let rows = flame_rows(&doc);
        for r in &rows {
            assert!(r.self_ns <= r.total_ns, "self exceeds total in {r:?}");
        }
        assert!(
            rows.iter()
                .any(|r| r.name == "barrier" && r.tid == u64::from(COORDINATOR_TID)),
            "coordinator barrier span missing from flame rows"
        );

        // The snapshot round-trips and explains its first alert.
        assert!(
            !out.provenance.is_empty(),
            "the flood must leave at least one provenance record"
        );
        let snap_text = render_outcome_json(&out);
        let snap = parse_outcome_json(&snap_text).expect("snapshot parses");
        let story = explain(&snap, out.provenance[0].id).expect("first alert explains");
        assert!(story.contains("FIRED"), "{story}");
        assert!(story.contains("score"), "{story}");
        assert!(story.contains("lineage"), "{story}");
        assert!(
            story.contains("quarantined at epoch"),
            "chaos quarantine missing from: {story}"
        );

        // Asking for an alert that never fired names the ones that did.
        let err = explain(&snap, 9_999).expect_err("bogus id must fail");
        assert!(err.contains("no alert 9999"), "{err}");
    }

    #[test]
    fn clean_run_explain_reports_full_lineage() {
        let s = flood();
        let cfg = ReplayConfig {
            shards: 2,
            ..ReplayConfig::default()
        };
        let out = run_replay_with_faults(&s, &cfg, &FaultSchedule::none());
        assert!(!out.provenance.is_empty());
        let snap = parse_outcome_json(&render_outcome_json(&out)).expect("snapshot parses");
        let story = explain(&snap, 0).expect("alert 0 explains");
        assert!(
            story.contains("assembled from 2 shard(s)"),
            "clean run must deliver every shard: {story}"
        );
        assert!(
            story.contains("no shards quarantined"),
            "clean run has no incidents: {story}"
        );
    }

    /// The lifecycle view answers "what did each checkpoint cost" from the
    /// report alone: every `checkpoint written` line carries the document
    /// size and the serialize / on-disk times the coordinator measured.
    #[test]
    fn lifecycle_story_shows_each_checkpoints_size_and_cost() {
        let dir = std::env::temp_dir().join(format!("stat4-trace-ckpt-cost-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let plan = replay::LifecyclePlan {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 10,
            ..replay::LifecyclePlan::none()
        };
        let cfg = ReplayConfig {
            shards: 2,
            ..ReplayConfig::default()
        };
        let (out, report) = replay::run_replay_lifecycle(&flood(), &cfg, &FaultSchedule::none(), &plan);
        assert!(report.checkpoints_written >= 2, "{report:?}");

        let story = crate::lifecycle_story(
            &replay::LifecycleReport::parse(&telemetry::json::write(&report)).expect("own rendering parses"),
        );
        let lines: Vec<&str> = story.lines().filter(|l| l.contains("checkpoint written")).collect();
        assert_eq!(lines.len() as u64, report.checkpoints_written, "{story}");
        for (ordinal, line) in lines.iter().enumerate() {
            let file = dir.join(replay::ckpt::file_name(ordinal as u64));
            let bytes = std::fs::metadata(&file).expect("the named file exists").len();
            assert!(line.contains(&format!("({bytes} bytes, serialized in ")), "{line}");
            assert!(line.contains(" us, on disk after ") && line.contains(" us; resumes at"), "{line}");
        }

        // The same two quantities as one-sample-per-checkpoint histograms.
        let snap = out.telemetry.snapshot();
        for family in ["replay_ckpt_serialize_ns", "replay_ckpt_bytes", "replay_ckpt_write_ns"] {
            let samples = &snap.find(family).expect("family exported").samples;
            assert_eq!(samples.len(), 1, "{family}");
            let telemetry::SampleValue::Histogram(h) = &samples[0].value else {
                panic!("{family} holds {:?}", samples[0].value);
            };
            assert_eq!(h.count, report.checkpoints_written, "{family}: one sample per checkpoint");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
