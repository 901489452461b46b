//! Integration tests for the replay engine's telemetry: the exported
//! snapshot must be internally consistent with the [`ReplayOutcome`]
//! and export the families the CLI's `--metrics-out` document carries,
//! which CI checks again against the binary's output.

use replay::{run_replay, ReplayConfig, ReplayTelemetry};
use telemetry::{render_json, MetricKind, SampleValue, TracePhase, Tracer};
use workloads::{Schedule, SeasonalDriftWorkload, SynFloodWorkload};

fn flood() -> Schedule {
    let (s, _) = SynFloodWorkload {
        background_cps: 500,
        flood_pps: 20_000,
        flood_start: 150_000_000,
        duration: 400_000_000,
        seed: 11,
        ..SynFloodWorkload::default()
    }
    .generate();
    s
}

fn run(shards: usize) -> replay::ReplayOutcome {
    run_replay(
        &flood(),
        &ReplayConfig {
            shards,
            ..ReplayConfig::default()
        },
    )
}

#[test]
fn per_shard_packet_counters_sum_to_outcome_packets() {
    // The acceptance check: a 4-shard run's per-shard packet counters
    // must sum to ReplayOutcome::packets exactly.
    let out = run(4);
    let snap = out.telemetry.snapshot();
    assert_eq!(snap.counter_sum("replay_shard_packets_total"), out.packets);
    assert_eq!(snap.counter_sum("replay_packets_total"), out.packets);
    // And each shard appears as its own labelled sample.
    let fam = snap
        .find("replay_shard_packets_total")
        .expect("per-shard family present");
    assert_eq!(fam.samples.len(), 4);
    for (i, s) in fam.samples.iter().enumerate() {
        assert_eq!(s.labels, vec![("shard".to_string(), i.to_string())]);
    }
}

#[test]
fn a_run_exports_every_family_with_its_series() {
    let out = run(2);
    let snap = out.telemetry.snapshot();
    // Every family a run exports: a series that appears or vanishes
    // is a change to the exposition's contract and has to be made here
    // too.
    let mut families: Vec<&str> = snap.metrics.iter().map(|m| m.name.as_str()).collect();
    families.sort_unstable();
    assert_eq!(
        families,
        [
            "anomaly_detection_delay_ns",
            "anomaly_detector_fires_total",
            "replay_checkpoints_written_total",
            "replay_ckpt_bytes",
            "replay_ckpt_serialize_ns",
            "replay_ckpt_write_ns",
            "replay_elapsed_ns",
            "replay_epoch_ns",
            "replay_epochs_inline_total",
            "replay_epochs_total",
            "replay_faults_injected_total",
            "replay_median_fallbacks_total",
            "replay_merge_delta_bytes_total",
            "replay_merge_ns",
            "replay_merge_rebuilds_total",
            "replay_merge_skipped_registers_total",
            "replay_packets_lost_total",
            "replay_packets_rerouted_total",
            "replay_packets_total",
            "replay_partition_ns",
            "replay_recover_ns",
            "replay_reports_dropped_total",
            "replay_shard_barrier_wait_ns",
            "replay_shard_ingest_ns_total",
            "replay_shard_ingest_pps",
            "replay_shard_packets_total",
            "replay_shard_queue_wait_ns",
            "replay_shard_syn_packets_total",
            "replay_shard_trace_dropped_total",
            "replay_shards_quarantined_total",
            "replay_swaps_committed_total",
            "replay_swaps_rejected_total",
            "replay_trace_dropped_total",
            "replay_trace_events_total",
        ]
    );
    assert!(snap.metrics.len() >= 10, "families: {}", snap.metrics.len());
    assert!(snap.sample_count() > snap.metrics.len());
}

#[test]
fn inline_epoch_counter_is_exported() {
    // Which path an epoch took is answerable from a run's artifacts:
    // every epoch of this flood is short enough to be ingested inline.
    let out = run(2);
    let snap = out.telemetry.snapshot();
    assert_eq!(out.telemetry.epochs_inline.get(), out.epochs);
    assert_eq!(snap.counter_sum("replay_epochs_inline_total"), out.epochs);
    assert_eq!(snap.counter_sum("replay_epochs_total"), out.epochs);
    let inline = snap.find("replay_epochs_inline_total").expect("inline counter exported");
    assert_eq!(inline.samples.len(), 1);
    assert!(inline.samples[0].labels.is_empty(), "{:?}", inline.samples[0]);
    assert_eq!(inline.samples[0].value, SampleValue::Counter(out.epochs));
    assert!(render_json(&snap).contains("\"name\":\"replay_epochs_inline_total\""));
}

#[test]
fn detector_metrics_flow_through_to_the_snapshot() {
    let out = run(2);
    let snap = out.telemetry.snapshot();
    // The fires family carries one series per ensemble engine, each
    // equal to that engine's fire count in the ensemble report.
    let fires = snap
        .find("anomaly_detector_fires_total")
        .expect("fires family exported");
    assert_eq!(fires.samples.len(), out.ensemble.engines.len());
    for (sample, engine) in fires.samples.iter().zip(&out.ensemble.engines) {
        assert_eq!(sample.labels, [(String::from("detector"), engine.name.to_string())]);
        assert_eq!(sample.value, SampleValue::Counter(engine.fires), "{}", engine.name);
    }
    let synflood = out.ensemble.engine("synflood").expect("synflood engine");
    assert!(synflood.fires > 0, "flood must be detected");
    let delay = snap
        .find("anomaly_detection_delay_ns")
        .expect("delay histogram exported");
    assert_eq!(delay.kind, MetricKind::Histogram);
    let SampleValue::Histogram(h) = &delay.samples[0].value else {
        panic!("histogram family holds a histogram sample");
    };
    assert!(h.count >= 1, "the flood episode produced a delay sample");
}

#[test]
fn telemetry_does_not_depend_on_shard_count_for_totals() {
    let a = run(1);
    let b = run(8);
    assert_eq!(
        a.telemetry.merged_shard().packets.get(),
        b.telemetry.merged_shard().packets.get()
    );
    assert_eq!(
        a.telemetry.merged_shard().syn_packets.get(),
        b.telemetry.merged_shard().syn_packets.get()
    );
    assert_eq!(a.telemetry.epochs.get(), b.telemetry.epochs.get());
    assert_eq!(a.telemetry.engines, b.telemetry.engines);
}

#[test]
fn json_rendering_contains_every_family_once() {
    let out = run(2);
    let snap = out.telemetry.snapshot();
    let json = render_json(&snap);
    for m in &snap.metrics {
        let needle = format!("\"name\":\"{}\"", m.name);
        assert_eq!(
            json.matches(&needle).count(),
            1,
            "family {} rendered exactly once",
            m.name
        );
    }
    // Crude but dependency-free structural sanity: balanced braces.
    let opens = json.matches('{').count();
    let closes = json.matches('}').count();
    assert_eq!(opens, closes);
}

/// The spans a quiet, all-inline epoch records on each tracer, in
/// order, each as a begin and an end.
const COORDINATOR_SPANS: [&str; 3] = ["ingest", "merge", "detect"];
const SHARD_SPANS: [&str; 2] = ["ingest", "close_interval"];

/// What a tracer recording `spans` every epoch of `ordinals` holds
/// with no cap.
fn inventory(spans: &[&'static str], ordinals: &[u64]) -> Vec<(&'static str, TracePhase, u64)> {
    ordinals
        .iter()
        .flat_map(|&e| {
            spans
                .iter()
                .flat_map(move |&n| [(n, TracePhase::Begin, e), (n, TracePhase::End, e)])
        })
        .collect()
}

fn recorded(t: &Tracer) -> Vec<(&'static str, TracePhase, u64)> {
    t.events()
        .iter()
        .map(|e| (e.name, e.phase, e.epoch))
        .collect()
}

#[test]
fn a_sparse_run_traces_its_span_inventory_up_to_the_cap() {
    // Sparse 120-frame epochs on two shards, at a flat rate so no
    // engine fires and no instant joins the spans: 300 epochs stay
    // under every tracer's cap (6 coordinator events and 4 per shard
    // an epoch), 1 100 pass all three. A full buffer drops events
    // without reading the clock, and must still drop exactly the ones
    // past the cap.
    const MS: u64 = 1_000_000;
    let cap = ReplayTelemetry::TRACE_CAPACITY;
    for epochs in [300u64, 1_100] {
        let schedule = SeasonalDriftWorkload {
            duration: epochs * 10 * MS,
            drift_start: epochs * 10 * MS,
            seed: 3,
            high_rate: 120,
            low_rate: 120,
            ..SeasonalDriftWorkload::default()
        }
        .generate();
        let cfg = ReplayConfig {
            shards: 2,
            ..ReplayConfig::default()
        };
        let out = run_replay(&schedule, &cfg);
        assert_eq!(out.epochs, epochs);
        assert_eq!(out.telemetry.epochs_inline.get(), epochs, "a sparse run is all inline");
        assert!(out.ensemble.fired.is_empty(), "no alert: {:?}", out.ensemble.fired);
        let interval = cfg.detector.interval_ns;
        let mut ordinals: Vec<u64> = schedule.iter().map(|(t, _)| t / interval).collect();
        ordinals.dedup();

        let t = &out.telemetry;
        let tracers = std::iter::once((&t.trace, &COORDINATOR_SPANS[..]))
            .chain(t.shard_traces.iter().map(|s| (s, &SHARD_SPANS[..])));
        let mut past_cap = 0;
        for (tracer, spans) in tracers {
            let want = inventory(spans, &ordinals);
            let held = want.len().min(cap);
            if epochs > 1_024 {
                assert_eq!(tracer.events().len(), cap, "tid {}", tracer.tid());
            }
            assert_eq!(recorded(tracer), want[..held], "tid {}", tracer.tid());
            assert_eq!(tracer.dropped(), (want.len() - held) as u64);
            past_cap += (want.len() - held) as u64;
        }
        assert_eq!(past_cap > 0, epochs > 1_024);
        assert_eq!(
            t.snapshot().counter_sum("replay_trace_dropped_total"),
            past_cap
        );
    }
}
