//! Lightweight span/event tracing for epoch lifecycle.
//!
//! The replay engine's epoch loop is the system's heartbeat: split →
//! ingest (parallel) → barrier → merge → detect. [`Tracer`] records
//! that lifecycle as begin/end/instant events with nanosecond
//! timestamps relative to the tracer's creation, into a **bounded**
//! buffer — when full, new events are counted as dropped instead of
//! growing memory, so tracing can stay on for arbitrarily long
//! replays.
//!
//! Each tracer is single-owner (`&mut` recording) and carries a
//! *thread id*: the coordinator's epoch loop owns one
//! ([`COORDINATOR_TID`]), and each shard worker owns its own, created
//! with [`Tracer::for_shard`] against the coordinator's time origin so
//! timestamps from different threads live on one clock. Shard tracers
//! travel with the epoch work through the dispatch channel — threads
//! never share a tracer, they hand it off. After a run,
//! [`MergedTrace::merge`] folds every per-thread buffer into one
//! causally-ordered Chrome-trace document. Per-packet work is *not*
//! traced — that's what the histograms are for; traces capture the
//! epoch-granularity control flow.

use crate::json::{self, obj_of, write_obj, Json, Member, ToJson};
use std::time::Instant;

/// Thread id used for the coordinator's own tracer. Shard tracers use
/// the shard index; `u32::MAX` can never collide with one (shard
/// counts are tiny).
pub const COORDINATOR_TID: u32 = u32::MAX;

/// Event phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    /// A span opened.
    Begin,
    /// A span closed.
    End,
    /// A point event.
    Instant,
}

impl TracePhase {
    /// Short phase code (Chrome-trace-style: B/E/i).
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            TracePhase::Begin => "B",
            TracePhase::End => "E",
            TracePhase::Instant => "i",
        }
    }
}

/// Written as its [`TracePhase::code`].
impl ToJson for TracePhase {
    fn to_json(&self) -> Json {
        self.code().to_json()
    }

    fn write_json(&self, out: &mut String) {
        self.code().write_json(out);
    }
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the owning tracer's time origin.
    pub at_ns: u64,
    /// The epoch the event belongs to.
    pub epoch: u64,
    /// Static event name (e.g. `"ingest"`, `"merge"`).
    pub name: &'static str,
    /// Begin/end/instant.
    pub phase: TracePhase,
    /// Recording thread: shard index, or [`COORDINATOR_TID`].
    pub tid: u32,
}

impl TraceEvent {
    /// The Chrome-trace event object: `ph` is the phase code, `ts` is
    /// in ns, and every event has the one `pid` 0.
    fn members(&self) -> [Member<'_>; 6] {
        [
            ("name", &self.name),
            ("ph", &self.phase),
            ("ts", &self.at_ns),
            ("pid", &0u8),
            ("tid", &self.tid),
            ("epoch", &self.epoch),
        ]
    }
}

impl ToJson for TraceEvent {
    fn to_json(&self) -> Json {
        obj_of(self.members())
    }

    fn write_json(&self, out: &mut String) {
        write_obj(out, self.members());
    }
}

/// A bounded event recorder.
#[derive(Debug, Clone)]
pub struct Tracer {
    origin: Instant,
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
    tid: u32,
}

impl Tracer {
    /// A coordinator tracer holding at most `capacity` events, with a
    /// fresh time origin.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self::with_tid(capacity, COORDINATOR_TID, Instant::now())
    }

    /// A shard worker's tracer sharing the coordinator's `origin`, so
    /// its timestamps and the coordinator's compare directly.
    #[must_use]
    pub fn for_shard(capacity: usize, shard: u32, origin: Instant) -> Self {
        Self::with_tid(capacity, shard, origin)
    }

    fn with_tid(capacity: usize, tid: u32, origin: Instant) -> Self {
        Self {
            origin,
            events: Vec::with_capacity(capacity.min(1024)),
            capacity,
            dropped: 0,
            tid,
        }
    }

    /// The tracer's time origin (pass to [`Tracer::for_shard`] so all
    /// threads share one clock).
    #[must_use]
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// The recording thread id.
    #[must_use]
    pub fn tid(&self) -> u32 {
        self.tid
    }

    /// Nanoseconds since the tracer's origin (saturating).
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Nanoseconds from the origin to `t` (0 if `t` precedes it).
    #[must_use]
    pub fn ns_since(&self, t: Instant) -> u64 {
        t.checked_duration_since(self.origin)
            .map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
    }

    /// Records an event stamped `at_ns(self)`, or counts it dropped if
    /// the buffer is full. The cap is checked first, so a dropped event
    /// reads no clock.
    fn push(
        &mut self,
        name: &'static str,
        epoch: u64,
        phase: TracePhase,
        at_ns: impl FnOnce(&Self) -> u64,
    ) {
        if self.events.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        // Clamp to the last recorded timestamp: per-thread event order
        // is the causal order, and a monotone `ts` keeps every
        // consumer (check_trace, Chrome) from seeing time run
        // backwards on clock jitter.
        let floor = self.events.last().map_or(0, |e| e.at_ns);
        self.events.push(TraceEvent {
            at_ns: at_ns(self).max(floor),
            epoch,
            name,
            phase,
            tid: self.tid,
        });
    }

    /// Records a span opening.
    pub fn begin(&mut self, name: &'static str, epoch: u64) {
        self.push(name, epoch, TracePhase::Begin, Self::now_ns);
    }

    /// Records a span opening at an explicit origin-relative
    /// timestamp (e.g. the instant an epoch was *queued*, captured on
    /// another thread before this tracer saw it).
    pub fn begin_at(&mut self, name: &'static str, epoch: u64, at_ns: u64) {
        self.push(name, epoch, TracePhase::Begin, |_| at_ns);
    }

    /// Records a span closing.
    pub fn end(&mut self, name: &'static str, epoch: u64) {
        self.push(name, epoch, TracePhase::End, Self::now_ns);
    }

    /// Records a point event.
    pub fn instant(&mut self, name: &'static str, epoch: u64) {
        self.push(name, epoch, TracePhase::Instant, Self::now_ns);
    }

    /// The recorded events, in order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events rejected because the buffer was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Every thread's trace buffers folded into one causally-ordered
/// event stream, plus the total number of events lost to buffer
/// bounds — truncation is never silent.
#[derive(Debug, Clone)]
pub struct MergedTrace {
    /// All events, sorted by timestamp (stable: per-thread order is
    /// preserved among equal timestamps).
    pub events: Vec<TraceEvent>,
    /// Sum of every contributing tracer's dropped-event counter.
    pub dropped: u64,
    /// Number of tracers that contributed at least one event.
    pub threads: usize,
}

impl MergedTrace {
    /// Merges the coordinator's and the shards' buffers. Pass the
    /// coordinator tracer first so stable sorting breaks timestamp
    /// ties in favour of the thread that caused the work.
    pub fn merge<'a, I: IntoIterator<Item = &'a Tracer>>(tracers: I) -> Self {
        let mut events = Vec::new();
        let mut dropped = 0u64;
        let mut threads = 0usize;
        for t in tracers {
            if !t.events().is_empty() {
                threads += 1;
            }
            dropped = dropped.saturating_add(t.dropped());
            events.extend_from_slice(t.events());
        }
        // Stable: per-tracer (= per-thread) event order survives ties,
        // so B/E nesting inside a thread can never be reordered.
        events.sort_by_key(|e| e.at_ns);
        Self {
            events,
            dropped,
            threads,
        }
    }

    /// Renders the merged stream as a Chrome-trace JSON object:
    /// `{"traceEvents":[...],"dropped":N,"threads":K}`. Loadable by
    /// `chrome://tracing` / Perfetto (extra top-level keys are
    /// ignored there) and by [`crate::check::check_trace`].
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        json::write(self)
    }

    fn members(&self) -> [Member<'_>; 3] {
        [("traceEvents", &self.events), ("dropped", &self.dropped), ("threads", &self.threads)]
    }
}

impl ToJson for MergedTrace {
    fn to_json(&self) -> Json {
        obj_of(self.members())
    }

    fn write_json(&self, out: &mut String) {
        write_obj(out, self.members());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_ordered_events() {
        let mut t = Tracer::new(16);
        t.begin("ingest", 0);
        t.end("ingest", 0);
        t.instant("alert", 1);
        let ev = t.events();
        assert_eq!(ev.len(), 3);
        assert!(ev.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        assert_eq!(ev[2].phase, TracePhase::Instant);
        assert_eq!(t.dropped(), 0);
        assert!(ev.iter().all(|e| e.tid == COORDINATOR_TID));
    }

    #[test]
    fn bounded_buffer_counts_drops() {
        let mut t = Tracer::new(2);
        for i in 0..5 {
            t.instant("e", i);
        }
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn shard_tracer_shares_the_origin_clock() {
        let coord = Tracer::new(8);
        let mut shard = Tracer::for_shard(8, 3, coord.origin());
        shard.begin("ingest", 0);
        shard.end("ingest", 0);
        assert_eq!(shard.tid(), 3);
        assert!(shard.events().iter().all(|e| e.tid == 3));
        // Timestamps relate to the same origin, so they are comparable
        // with the coordinator's clock reading.
        assert!(shard.events()[0].at_ns <= coord.now_ns() + 1_000_000_000);
    }

    #[test]
    fn begin_at_backdates_but_never_reverses_time() {
        let mut t = Tracer::new(8);
        t.instant("mark", 0);
        let mark = t.events()[0].at_ns;
        // An explicit timestamp earlier than the last event is clamped
        // so per-thread order stays monotone.
        t.begin_at("queue_wait", 1, 0);
        assert_eq!(t.events()[1].at_ns, mark);
        // A later explicit timestamp is taken as-is.
        t.begin_at("queue_wait", 2, mark + 500);
        assert_eq!(t.events()[2].at_ns, mark + 500);
    }

    #[test]
    fn ns_since_saturates_at_zero_before_origin() {
        let before = Instant::now();
        let t = Tracer::new(4);
        assert_eq!(t.ns_since(before), 0);
        let after = Instant::now();
        let _ = t.ns_since(after); // must not panic
    }

    #[test]
    fn merge_orders_across_threads_and_sums_drops() {
        let mut coord = Tracer::new(8);
        let origin = coord.origin();
        let mut s0 = Tracer::for_shard(2, 0, origin);
        let mut s1 = Tracer::for_shard(8, 1, origin);
        coord.begin("ingest", 0);
        s0.begin("ingest", 0);
        s0.end("ingest", 0);
        s0.instant("overflow", 0); // dropped: capacity 2
        s1.begin("ingest", 0);
        s1.end("ingest", 0);
        coord.end("ingest", 0);
        let merged = MergedTrace::merge([&coord, &s0, &s1]);
        assert_eq!(merged.events.len(), 6);
        assert_eq!(merged.dropped, 1);
        assert_eq!(merged.threads, 3);
        assert!(merged.events.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        let json = merged.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"dropped\":1"));
        assert!(json.contains("\"threads\":3"));
        assert!(json.contains("\"name\":\"ingest\",\"ph\":\"B\""));
        assert!(json.contains("\"tid\":1,\"epoch\":0"));
        assert!(json.contains(&format!("\"tid\":{COORDINATOR_TID}")));
    }

    #[test]
    fn chrome_document_is_pinned_byte_for_byte() {
        let event = |at_ns, epoch, name, phase, tid| TraceEvent { at_ns, epoch, name, phase, tid };
        let merged = MergedTrace {
            events: vec![
                event(0, 0, "barrier", TracePhase::Begin, COORDINATOR_TID),
                event(5, 0, "ingest", TracePhase::Begin, 1),
                event(1_000_000_007, 0, "ingest", TracePhase::End, 1),
                event(1_000_000_008, 0, "barrier", TracePhase::End, COORDINATOR_TID),
                event(u64::MAX, 41, "alert", TracePhase::Instant, COORDINATOR_TID),
            ],
            dropped: 3,
            threads: 2,
        };
        let want = concat!(
            r#"{"traceEvents":[{"name":"barrier","ph":"B","ts":0,"pid":0,"tid":4294967295,"epoch":0},"#,
            r#"{"name":"ingest","ph":"B","ts":5,"pid":0,"tid":1,"epoch":0},"#,
            r#"{"name":"ingest","ph":"E","ts":1000000007,"pid":0,"tid":1,"epoch":0},"#,
            r#"{"name":"barrier","ph":"E","ts":1000000008,"pid":0,"tid":4294967295,"epoch":0},"#,
            r#"{"name":"alert","ph":"i","ts":18446744073709551615,"pid":0,"tid":4294967295,"epoch":41}],"#,
            r#""dropped":3,"threads":2}"#
        );
        assert_eq!(merged.to_chrome_json(), want);
        // The tree the streamed text skips is the same document.
        assert_eq!(json::render(&merged.to_json()), want);
    }

    #[test]
    fn merge_is_stable_within_a_thread() {
        // Force equal timestamps by backdating everything to 0 — the
        // per-thread B/E order must survive the sort.
        let coord = Tracer::new(8);
        let mut s = Tracer::for_shard(8, 0, coord.origin());
        s.begin_at("ingest", 0, 0);
        s.begin_at("chunk", 0, 0);
        let merged = MergedTrace::merge([&s]);
        assert_eq!(merged.events[0].name, "ingest");
        assert_eq!(merged.events[1].name, "chunk");
    }
}
