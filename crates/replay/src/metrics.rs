//! Replay-engine telemetry: per-shard metric sets that merge at the
//! same epoch barriers as the Stat4 state itself.
//!
//! Each shard thread owns one [`ShardMetrics`] — plain counters and
//! log-linear histograms, updated once per epoch so the per-packet
//! hot path stays allocation- and timing-free. Like
//! [`crate::ShardState`], the sets implement
//! [`stat4_core::Mergeable`]; the merged view
//! ([`ReplayTelemetry::merged_shard`]) is a pure fold of the per-shard
//! sets, so `merged.packets == Σ shard.packets` by construction.
//!
//! [`ReplayTelemetry::snapshot`] renders everything — per-shard
//! series (labelled `shard="<i>"`), engine-level epoch/merge timings,
//! the epoch tracer's bookkeeping, and the central detector's fire /
//! detection-delay metrics — into one [`telemetry::Snapshot`], which
//! `--metrics-out` writes as JSON.

use anomaly::DetectorMetrics;
use stat4_core::{Mergeable, Stat4Result};
use telemetry::{Counter, LogLinearHistogram, MergedTrace, Snapshot, Tracer};

/// Metrics one shard thread maintains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMetrics {
    /// Frames ingested.
    pub packets: Counter,
    /// SYN frames ingested (folded in at each epoch barrier).
    pub syn_packets: Counter,
    /// Nanoseconds spent ingesting (excludes barrier waits).
    pub ingest_ns: Counter,
    /// Nanoseconds spent idle at the epoch barrier waiting for the
    /// slowest shard — the straggler signal.
    pub barrier_wait_ns: LogLinearHistogram,
    /// Nanoseconds each dispatched epoch sat in this shard's bounded
    /// queue before the worker dequeued it (pool engine; no sample for
    /// an epoch the coordinator ingested inline, and empty on the
    /// reference engine, which has no queues).
    pub queue_wait_ns: LogLinearHistogram,
}

impl Default for ShardMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardMetrics {
    /// A zeroed set.
    #[must_use]
    pub fn new() -> Self {
        Self {
            packets: Counter::new(),
            syn_packets: Counter::new(),
            ingest_ns: Counter::new(),
            barrier_wait_ns: LogLinearHistogram::default(),
            queue_wait_ns: LogLinearHistogram::default(),
        }
    }

    /// Ingest throughput in packets per second of *busy* time (0.0
    /// before any timed work).
    #[must_use]
    pub(crate) fn ingest_pps(&self) -> f64 {
        let ns = self.ingest_ns.get();
        if ns == 0 {
            return 0.0;
        }
        self.packets.get() as f64 / (ns as f64 / 1e9)
    }
}

impl Mergeable for ShardMetrics {
    /// Counters and histograms add cellwise — the merged set equals a
    /// single shard having done all the work (modulo wall-clock
    /// fields, which are sums of busy time, not elapsed time).
    fn merge_from(&mut self, other: &Self) -> Stat4Result<()> {
        self.packets.merge_from(&other.packets)?;
        self.syn_packets.merge_from(&other.syn_packets)?;
        self.ingest_ns.merge_from(&other.ingest_ns)?;
        self.barrier_wait_ns.merge_from(&other.barrier_wait_ns)?;
        self.queue_wait_ns.merge_from(&other.queue_wait_ns)?;
        Ok(())
    }
}

/// Everything the replay engine observed about itself during one run.
#[derive(Debug, Clone)]
pub struct ReplayTelemetry {
    /// Per-shard metric sets, index = shard id.
    pub shards: Vec<ShardMetrics>,
    /// Closed epochs.
    pub epochs: Counter,
    /// Of those, the ones the pool's coordinator ingested itself
    /// because they were too short to pay for a hand-off to the
    /// workers; the rest were dispatched. Zero on the reference engine.
    pub epochs_inline: Counter,
    /// Alerts the central detector raised.
    pub alerts: Counter,
    /// Wall time of each epoch (dispatch → merged, detected verdict),
    /// ns. A real clock measurement: every sample is bounded by the
    /// run's `elapsed_ns`.
    pub epoch_ns: LogLinearHistogram,
    /// Time folding shard state into the merged view per epoch
    /// (rebuild fold or sparse delta application), ns.
    pub merge_ns: LogLinearHistogram,
    /// The central detector's fire counts and detection-delay
    /// histogram (copied out after the run).
    pub detector: DetectorMetrics,
    /// Per-engine ensemble metrics (fire counts and detection-delay
    /// histograms), one entry per ensemble engine, copied out after
    /// the run in engine order.
    pub engines: Vec<(String, DetectorMetrics)>,
    /// Shard faults the supervisor injected (stalls, panics, crashes).
    pub faults_injected: Counter,
    /// Shards quarantined by the supervisor (a panic or a crash) —
    /// each shard counts at most once.
    pub shards_quarantined: Counter,
    /// Frames never reflected in the merged view: slices of shards
    /// that died mid-epoch plus the discarded history of quarantined
    /// shards.
    pub packets_lost: Counter,
    /// Frames redirected from a quarantined shard to a survivor.
    pub packets_rerouted: Counter,
    /// Epoch reports lost on the control channel (the detector skipped
    /// those intervals; SYN counts carried forward).
    pub reports_dropped: Counter,
    /// Time from detecting a shard failure to having re-merged the
    /// surviving state, per quarantine incident, ns.
    pub recover_ns: LogLinearHistogram,
    /// Time the pool spent hashing and routing each epoch's frames into
    /// per-shard work lists, ns: one sample per epoch that ran,
    /// recorded when the epoch is taken and holding all routing time
    /// spent on it (a speculative pass its alive-map prediction then
    /// discarded included). A route made for an epoch the run is
    /// killed before leaves no sample. Empty on the reference engine.
    pub partition_ns: LogLinearHistogram,
    /// Bytes of sparse delta state shipped across all epoch-barrier
    /// merges (what a control channel would carry; full rebuild merges
    /// contribute nothing here).
    pub merge_delta_bytes: Counter,
    /// Register cells the delta path did **not** ship because they
    /// were untouched since the previous barrier — the sparsity win
    /// over a full-state merge.
    pub merge_skipped_registers: Counter,
    /// Epoch barriers that fell back to a full rebuild merge (first
    /// epoch, resume, or a change in the alive map).
    pub merge_rebuilds: Counter,
    /// Median-length estimates that came back empty and were reported
    /// as 0 to the detectors (previously swallowed by `unwrap_or`).
    pub median_fallbacks: Counter,
    /// Crash-consistent checkpoints written at epoch drain points.
    pub checkpoints_written: Counter,
    /// Time serializing and durably writing each checkpoint, ns.
    pub ckpt_write_ns: LogLinearHistogram,
    /// The serializing share of `ckpt_write_ns` (state export and the
    /// one render), ns — apart from the disk, so a codec change and a
    /// slow disk do not look the same.
    pub ckpt_serialize_ns: LogLinearHistogram,
    /// Size of each checkpoint document, bytes.
    pub ckpt_bytes: LogLinearHistogram,
    /// Drain-point reconfiguration requests committed.
    pub swaps_committed: Counter,
    /// Drain-point reconfiguration requests rejected (vet failures and
    /// stale duplicates).
    pub swaps_rejected: Counter,
    /// Epoch lifecycle events recorded by the coordinator (bounded).
    pub trace: Tracer,
    /// One bounded tracer per shard, sharing the coordinator's time
    /// origin — workers record their ingest/queue-wait spans into
    /// their own buffer (handed off through the dispatch channel on
    /// the pool engine, or written in place for an inline epoch;
    /// borrowed in-scope on the reference engine).
    /// [`Self::merged_trace`] folds them with the coordinator's.
    pub shard_traces: Vec<Tracer>,
    /// Total wall time of the replay, ns.
    pub elapsed_ns: u64,
}

impl ReplayTelemetry {
    /// Default trace-buffer capacity (events).
    pub const TRACE_CAPACITY: usize = 4096;

    /// Fresh telemetry for `shards` worker shards.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        let trace = Tracer::new(Self::TRACE_CAPACITY);
        let origin = trace.origin();
        Self {
            shards: (0..shards).map(|_| ShardMetrics::new()).collect(),
            epochs: Counter::new(),
            epochs_inline: Counter::new(),
            alerts: Counter::new(),
            epoch_ns: LogLinearHistogram::default(),
            merge_ns: LogLinearHistogram::default(),
            detector: DetectorMetrics::new(),
            engines: Vec::new(),
            faults_injected: Counter::new(),
            shards_quarantined: Counter::new(),
            packets_lost: Counter::new(),
            packets_rerouted: Counter::new(),
            reports_dropped: Counter::new(),
            recover_ns: LogLinearHistogram::default(),
            partition_ns: LogLinearHistogram::default(),
            merge_delta_bytes: Counter::new(),
            merge_skipped_registers: Counter::new(),
            merge_rebuilds: Counter::new(),
            median_fallbacks: Counter::new(),
            checkpoints_written: Counter::new(),
            ckpt_write_ns: LogLinearHistogram::default(),
            ckpt_serialize_ns: LogLinearHistogram::default(),
            ckpt_bytes: LogLinearHistogram::default(),
            swaps_committed: Counter::new(),
            swaps_rejected: Counter::new(),
            trace,
            shard_traces: (0..shards)
                .map(|s| Tracer::for_shard(Self::TRACE_CAPACITY, s as u32, origin))
                .collect(),
            elapsed_ns: 0,
        }
    }

    /// Every thread's trace buffer — the coordinator's first, then
    /// each shard's — folded into one causally-ordered stream with the
    /// total dropped-event count.
    #[must_use]
    pub fn merged_trace(&self) -> MergedTrace {
        MergedTrace::merge(std::iter::once(&self.trace).chain(self.shard_traces.iter()))
    }

    /// The cross-shard fold of the per-shard sets.
    ///
    /// # Panics
    ///
    /// Never in practice: all sets share one histogram geometry.
    #[must_use]
    pub fn merged_shard(&self) -> ShardMetrics {
        let mut merged = ShardMetrics::new();
        for s in &self.shards {
            merged.merge_from(s).expect("uniform metric geometry");
        }
        merged
    }

    /// Renders the full metric set as a [`Snapshot`].
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::new();
        for (i, s) in self.shards.iter().enumerate() {
            let id = i.to_string();
            let labels: [(&str, &str); 1] = [("shard", &id)];
            snap.push_counter(
                "replay_shard_packets_total",
                "frames ingested per shard",
                &labels,
                s.packets.get(),
            );
            snap.push_counter(
                "replay_shard_syn_packets_total",
                "SYN frames ingested per shard",
                &labels,
                s.syn_packets.get(),
            );
            snap.push_counter(
                "replay_shard_ingest_ns_total",
                "busy ingest nanoseconds per shard",
                &labels,
                s.ingest_ns.get(),
            );
            snap.push_gauge(
                "replay_shard_ingest_pps",
                "ingest throughput per shard (packets per busy second)",
                &labels,
                s.ingest_pps() as i64,
            );
            snap.push_histogram(
                "replay_shard_barrier_wait_ns",
                "idle time at the epoch barrier per shard",
                &labels,
                &s.barrier_wait_ns,
            );
            snap.push_histogram(
                "replay_shard_queue_wait_ns",
                "time dispatched epochs sat in the shard's queue",
                &labels,
                &s.queue_wait_ns,
            );
            if let Some(t) = self.shard_traces.get(i) {
                snap.push_counter(
                    "replay_shard_trace_dropped_total",
                    "trace events dropped at the shard tracer's buffer cap",
                    &labels,
                    t.dropped(),
                );
            }
        }
        let merged = self.merged_shard();
        snap.push_counter(
            "replay_packets_total",
            "frames ingested across all shards",
            &[],
            merged.packets.get(),
        );
        snap.push_counter(
            "replay_epochs_total",
            "closed detector intervals",
            &[],
            self.epochs.get(),
        );
        snap.push_counter(
            "replay_epochs_inline_total",
            "closed intervals the pool's coordinator ingested without a hand-off",
            &[],
            self.epochs_inline.get(),
        );
        snap.push_counter(
            "replay_alerts_total",
            "alerts raised by the central detector",
            &[],
            self.alerts.get(),
        );
        snap.push_histogram(
            "replay_epoch_ns",
            "wall time per epoch (dispatch through merge and detection)",
            &[],
            &self.epoch_ns,
        );
        snap.push_histogram(
            "replay_merge_ns",
            "time folding shard state into the merged view per epoch",
            &[],
            &self.merge_ns,
        );
        snap.push_gauge(
            "replay_elapsed_ns",
            "wall time of the whole replay",
            &[],
            i64::try_from(self.elapsed_ns).unwrap_or(i64::MAX),
        );
        snap.push_counter(
            "replay_faults_injected_total",
            "shard faults injected by the supervisor",
            &[],
            self.faults_injected.get(),
        );
        snap.push_counter(
            "replay_shards_quarantined_total",
            "shards quarantined after a panic or crash",
            &[],
            self.shards_quarantined.get(),
        );
        snap.push_counter(
            "replay_packets_lost_total",
            "frames missing from the merged view after quarantines",
            &[],
            self.packets_lost.get(),
        );
        snap.push_counter(
            "replay_packets_rerouted_total",
            "frames redirected from quarantined shards to survivors",
            &[],
            self.packets_rerouted.get(),
        );
        snap.push_counter(
            "replay_reports_dropped_total",
            "epoch reports lost on the control channel",
            &[],
            self.reports_dropped.get(),
        );
        snap.push_histogram(
            "replay_recover_ns",
            "time from shard failure to re-merged surviving state",
            &[],
            &self.recover_ns,
        );
        snap.push_histogram(
            "replay_partition_ns",
            "time hashing and routing each epoch into shard work lists",
            &[],
            &self.partition_ns,
        );
        snap.push_counter(
            "replay_merge_delta_bytes_total",
            "bytes of sparse delta state shipped across barrier merges",
            &[],
            self.merge_delta_bytes.get(),
        );
        snap.push_counter(
            "replay_merge_skipped_registers_total",
            "untouched register cells the delta merges did not ship",
            &[],
            self.merge_skipped_registers.get(),
        );
        snap.push_counter(
            "replay_merge_rebuilds_total",
            "epoch barriers that fell back to a full rebuild merge",
            &[],
            self.merge_rebuilds.get(),
        );
        snap.push_counter(
            "replay_median_fallbacks_total",
            "empty median estimates reported to the detectors as 0",
            &[],
            self.median_fallbacks.get(),
        );
        snap.push_counter(
            "replay_checkpoints_written_total",
            "crash-consistent checkpoints written at epoch drain points",
            &[],
            self.checkpoints_written.get(),
        );
        snap.push_histogram(
            "replay_ckpt_write_ns",
            "time serializing and durably writing each checkpoint",
            &[],
            &self.ckpt_write_ns,
        );
        snap.push_histogram(
            "replay_ckpt_serialize_ns",
            "state export and render share of each checkpoint write",
            &[],
            &self.ckpt_serialize_ns,
        );
        snap.push_histogram(
            "replay_ckpt_bytes",
            "size of each checkpoint document",
            &[],
            &self.ckpt_bytes,
        );
        snap.push_counter(
            "replay_swaps_committed_total",
            "drain-point reconfiguration requests committed",
            &[],
            self.swaps_committed.get(),
        );
        snap.push_counter(
            "replay_swaps_rejected_total",
            "drain-point reconfiguration requests rejected",
            &[],
            self.swaps_rejected.get(),
        );
        let merged_trace = self.merged_trace();
        snap.push_counter(
            "replay_trace_events_total",
            "epoch lifecycle events recorded across all threads",
            &[],
            merged_trace.events.len() as u64,
        );
        snap.push_counter(
            "replay_trace_dropped_total",
            "trace events dropped at any thread's buffer cap",
            &[],
            merged_trace.dropped,
        );
        self.detector.export(&mut snap, "epoch_synflood");
        for (name, m) in &self.engines {
            m.export(&mut snap, name);
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::SampleValue;

    /// Samples recorded across every series of the histogram family `name`.
    fn histogram_count(snap: &Snapshot, name: &str) -> u64 {
        let family = snap.find(name).unwrap_or_else(|| panic!("{name} missing"));
        family
            .samples
            .iter()
            .map(|s| match &s.value {
                SampleValue::Histogram(h) => h.count,
                other => panic!("{name} holds {other:?}"),
            })
            .sum()
    }

    #[test]
    fn merged_shard_is_the_sum() {
        let mut t = ReplayTelemetry::new(3);
        for (i, s) in t.shards.iter_mut().enumerate() {
            s.packets.add(10 * (i as u64 + 1));
            s.queue_wait_ns.record(256);
        }
        let m = t.merged_shard();
        assert_eq!(m.packets.get(), 60);
        assert_eq!(m.queue_wait_ns.count(), 3);
    }

    #[test]
    fn snapshot_validates_and_sums() {
        let mut t = ReplayTelemetry::new(2);
        t.shards[0].packets.add(7);
        t.shards[1].packets.add(5);
        t.shards[0].ingest_ns.add(1_000);
        t.shards[0].barrier_wait_ns.record(42);
        t.epochs.add(3);
        t.epoch_ns.record(100_000);
        let snap = t.snapshot();
        assert_eq!(snap.counter_sum("replay_shard_packets_total"), 12);
        assert_eq!(snap.counter_sum("replay_packets_total"), 12);
    }

    #[test]
    fn fault_counters_render_in_snapshot() {
        let mut t = ReplayTelemetry::new(1);
        t.faults_injected.add(3);
        t.shards_quarantined.inc();
        t.packets_lost.add(120);
        t.packets_rerouted.add(45);
        t.reports_dropped.add(2);
        t.recover_ns.record(5_000);
        let snap = t.snapshot();
        assert_eq!(snap.counter_sum("replay_faults_injected_total"), 3);
        assert_eq!(snap.counter_sum("replay_shards_quarantined_total"), 1);
        assert_eq!(snap.counter_sum("replay_packets_lost_total"), 120);
        assert_eq!(snap.counter_sum("replay_packets_rerouted_total"), 45);
        assert_eq!(snap.counter_sum("replay_reports_dropped_total"), 2);
        assert_eq!(histogram_count(&snap, "replay_recover_ns"), 1);
    }

    #[test]
    fn engine_metrics_render_in_snapshot() {
        let mut t = ReplayTelemetry::new(1);
        let mut m = DetectorMetrics::new();
        m.signal(100, true);
        m.fired(anomaly::metrics::Check::Rate, 130);
        t.engines.push((String::from("cusum"), m));
        let snap = t.snapshot();
        let fires = snap.find("anomaly_detector_fires_total").expect("fires family");
        let cusum: Vec<&SampleValue> = fires
            .samples
            .iter()
            .filter(|s| s.labels.iter().any(|(k, v)| k == "detector" && v == "cusum"))
            .map(|s| &s.value)
            .collect();
        assert_eq!(
            cusum,
            [&SampleValue::Counter(1), &SampleValue::Counter(0)],
            "per-engine fire counters (rate, share) missing: {fires:?}"
        );
    }

    #[test]
    fn merged_trace_folds_every_thread() {
        let mut t = ReplayTelemetry::new(2);
        t.trace.begin("ingest", 0);
        for tr in &mut t.shard_traces {
            tr.begin("ingest", 0);
            tr.end("ingest", 0);
        }
        t.trace.end("ingest", 0);
        let m = t.merged_trace();
        assert_eq!(m.events.len(), 6);
        assert_eq!(m.threads, 3, "coordinator plus two shards");
        assert_eq!(m.dropped, 0);
        telemetry::check_trace(&m.to_chrome_json()).expect("valid merged trace");
    }

    #[test]
    fn trace_counters_expose_merged_and_per_shard_drops() {
        let mut t = ReplayTelemetry::new(2);
        // Rebuild shard 1's tracer with a one-event buffer so the
        // second event overflows.
        t.shard_traces[1] = Tracer::for_shard(1, 1, t.trace.origin());
        t.shard_traces[1].instant("a", 0);
        t.shard_traces[1].instant("b", 0); // dropped at the cap
        t.trace.instant("alert", 0);
        let snap = t.snapshot();
        assert_eq!(snap.counter_sum("replay_trace_events_total"), 2);
        assert_eq!(snap.counter_sum("replay_trace_dropped_total"), 1);
        assert_eq!(snap.counter_sum("replay_shard_trace_dropped_total"), 1);
        let per_shard = &snap.find("replay_shard_trace_dropped_total").expect("family").samples;
        assert_eq!(per_shard[1].labels, [(String::from("shard"), String::from("1"))]);
        assert_eq!(per_shard[1].value, SampleValue::Counter(1), "per-shard dropped counter");
    }

    #[test]
    fn lifecycle_series_render_in_snapshot() {
        let mut t = ReplayTelemetry::new(1);
        t.checkpoints_written.add(2);
        t.ckpt_write_ns.record(40_000);
        t.ckpt_serialize_ns.record(9_000);
        t.ckpt_bytes.record(110_000);
        t.swaps_committed.inc();
        t.swaps_rejected.add(3);
        let snap = t.snapshot();
        assert_eq!(snap.counter_sum("replay_checkpoints_written_total"), 2);
        assert_eq!(snap.counter_sum("replay_swaps_committed_total"), 1);
        assert_eq!(snap.counter_sum("replay_swaps_rejected_total"), 3);
        for family in ["replay_ckpt_write_ns", "replay_ckpt_serialize_ns", "replay_ckpt_bytes"] {
            assert_eq!(histogram_count(&snap, family), 1, "{family}");
        }
    }

    #[test]
    fn ingest_pps_zero_when_untimed() {
        let s = ShardMetrics::new();
        assert_eq!(s.ingest_pps(), 0.0);
    }

    #[test]
    fn pool_series_render_in_snapshot() {
        let mut t = ReplayTelemetry::new(2);
        t.shards[0].queue_wait_ns.record(900);
        t.shards[1].queue_wait_ns.record(700);
        t.partition_ns.record(12_000);
        let snap = t.snapshot();
        assert_eq!(histogram_count(&snap, "replay_shard_queue_wait_ns"), 2);
        assert_eq!(histogram_count(&snap, "replay_partition_ns"), 1);
        // The merged set folds the queue histogram too.
        assert_eq!(t.merged_shard().queue_wait_ns.count(), 2);
    }
}
