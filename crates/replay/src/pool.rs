//! The persistent shard worker pool — the crate's production engine.
//!
//! The [`reference`](crate::reference) engine pays two coordinator
//! taxes every detector interval: it spawns and joins a full
//! `std::thread::scope` worker set, and it flow-hashes every frame of
//! the interval serially between barriers. This module removes both
//! while reproducing the reference outcome bit for bit:
//!
//! - **Workers spawn once per run.** One OS thread per shard lives for
//!   the whole replay inside a single `std::thread::scope`, fed
//!   through a bounded [`sync_channel`] of capacity
//!   [`QUEUE_CAPACITY`]. An epoch is a message, not a thread.
//! - **State ping-pongs, never copies.** Each epoch the coordinator
//!   *moves* the shard's [`ShardState`] plus its frame list to the
//!   worker and gets both back in the reply — pointer handoffs through
//!   the channel, zero clones. Merging therefore still happens on the
//!   coordinator, serialized exactly like the reference engine.
//! - **Partitioning is a parallel pre-stage.** Flow hashing — the
//!   expensive, alive-map-independent half of partitioning — runs once
//!   up front over the whole schedule on scoped threads
//!   ([`workloads::shard::assignments_parallel`]). The cheap routing
//!   pass (home → survivor, quarantine reroutes) for interval *k+1*
//!   runs while the workers ingest interval *k*.
//! - **Routing is speculative but exact.** Interval *k+1* is routed
//!   against the alive map *predicted* after *k*: the current map
//!   minus shards with an injected panic scheduled at *k*. Injected
//!   faults are deterministic, so the prediction only misses on
//!   organic failures (a worker dying on its own, a merge mismatch) —
//!   then the speculative partition is discarded and rebuilt from the
//!   actual map, keeping outcomes bit-identical to the reference
//!   engine in every case.
//! - **Buffers are pooled.** Frame lists return (cleared) in each
//!   reply and recycle through a spare pool; steady state circulates
//!   ~2× shards buffers for the whole run instead of reallocating
//!   `shards` fresh `Vec`s per interval.
//!
//! Fault supervision is re-wired onto the pool with identical
//! semantics: a scheduled crash quarantines the shard before dispatch
//! (its state stays with the coordinator, excluded from merges); an
//! injected panic unwinds the worker — the coordinator notices the
//! reply channel disconnect, joins the dead thread for its payload,
//! and quarantines the shard (its state died with the worker, which
//! matches the reference engine's "a dead pipe's registers are
//! unreadable" exclusion); merge mismatches quarantine at the barrier.
//! `tests/pool.rs` and `tests/pool_teardown.rs` hold the engine to
//! bit-identical outcomes and leak-free teardown.

use crate::ckpt::{self, Checkpoint, ShardStateRaw};
use crate::lifecycle::{self, LifecyclePlan, LifecycleReport, ResumeState};
use crate::provenance::{AlertProvenanceRecord, LineageSources};
use crate::{
    merge_surviving_entries, next_alive, panic_message, EnsembleReport, IncidentKind, ReplayConfig,
    ReplayHealth, ReplayOutcome, ReplayTelemetry, ShardIncident, ShardState,
};
use anomaly::{SignalContext, SynFloodEngine};
use faultinject::{FaultSchedule, ShardFaultKind};
use p4sim::Pipeline;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::time::Instant;
use telemetry::Tracer;
use workloads::Schedule;

/// Bound of each shard's dispatch queue: one epoch in flight plus the
/// shutdown marker, so the coordinator never blocks on a send. Depth
/// beyond 1 would let epoch k+1 start before k's merge — the detector
/// is sequential, so the pipeline ends at the barrier by design.
pub(crate) const QUEUE_CAPACITY: usize = 2;

/// Scoped threads for the up-front flow-hash pass. Hashing is pure and
/// order-preserving, so any thread count yields the same assignment
/// (`assignments_parallel` falls back to serial for short schedules).
const PARTITION_THREADS: usize = 4;

/// One epoch's work order for a shard: its state, its routed frame
/// slice, and any fault scheduled to fire on the worker.
struct EpochWork<'a> {
    epoch_idx: u64,
    fault: Option<ShardFaultKind>,
    state: ShardState,
    frames: Vec<&'a bytes::Bytes>,
    batch: usize,
    /// Dispatch timestamp, for the queue-wait histogram.
    sent_at: Instant,
    /// The shard's span recorder, handed off with the state — threads
    /// never share a tracer. Dies with the worker on a panic.
    tracer: Tracer,
}

/// Coordinator → worker messages. The size skew between the variants
/// is deliberate: an `EpochWork` lives in at most one channel slot per
/// shard at a time (queue depth ≤ 1 by construction), so boxing it
/// would add a per-epoch allocation to save nothing.
#[allow(clippy::large_enum_variant)]
enum Dispatch<'a> {
    Epoch(EpochWork<'a>),
    Shutdown,
}

/// A routed epoch produced speculatively for interval k+1 while k is
/// in flight, valid only if `assumed_alive` still matches reality when
/// k+1 dispatches.
struct RoutedEpoch<'a> {
    work: Vec<Vec<&'a bytes::Bytes>>,
    rerouted: u64,
    assumed_alive: Vec<bool>,
}

/// Worker → coordinator reply: the state and (cleared) frame buffer
/// come home, plus the numbers the coordinator needs to reconstruct
/// the per-batch metrics the reference engine records in-thread.
struct Reply<'a> {
    state: ShardState,
    frames: Vec<&'a bytes::Bytes>,
    ingested: u64,
    busy_ns: u64,
    queue_wait_ns: u64,
    tracer: Tracer,
}

#[inline]
fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The persistent per-shard worker: block on the queue, run one epoch,
/// reply, repeat until shutdown or coordinator disconnect. An injected
/// panic fires before any ingest (same clean-epoch-boundary guarantee
/// as the reference engine) and unwinds through this loop, dropping
/// both channel ends — the reply-channel disconnect is how the
/// supervisor notices.
fn worker_loop<'a>(shard: usize, rx: &Receiver<Dispatch<'a>>, tx: &SyncSender<Reply<'a>>) {
    // Flat parsed-batch buffer, reused for the worker's whole life:
    // each batch's headers are parsed once into it, then the trackers
    // replay the metas without touching the frame bytes again.
    let mut metas: Vec<crate::FrameMeta> = Vec::new();
    while let Ok(Dispatch::Epoch(mut work)) = rx.recv() {
        let queue_wait_ns = elapsed_ns(work.sent_at);
        let mut tracer = work.tracer;
        // The queue-wait span opens at the instant the coordinator
        // dispatched (captured on its thread, same clock origin) and
        // closes now that the worker has dequeued.
        let sent_ns = tracer.ns_since(work.sent_at);
        tracer.begin_at("queue_wait", work.epoch_idx, sent_ns);
        tracer.end("queue_wait", work.epoch_idx);
        match work.fault {
            Some(ShardFaultKind::Panic) => {
                let epoch_idx = work.epoch_idx;
                panic!("injected fault: shard {shard} panicked at epoch {epoch_idx}")
            }
            Some(ShardFaultKind::Stall { ns }) => {
                std::thread::sleep(std::time::Duration::from_nanos(ns));
            }
            _ => {}
        }
        tracer.begin("ingest", work.epoch_idx);
        let busy = Instant::now();
        for chunk in work.frames.chunks(work.batch) {
            metas.clear();
            metas.extend(chunk.iter().map(|f| crate::parse_frame(f)));
            for m in &metas {
                work.state.ingest_meta(m);
            }
        }
        let busy_ns = elapsed_ns(busy);
        tracer.end("ingest", work.epoch_idx);
        let ingested = work.frames.len() as u64;
        work.frames.clear();
        let reply = Reply {
            state: work.state,
            frames: work.frames,
            ingested,
            busy_ns,
            queue_wait_ns,
            tracer,
        };
        if tx.send(reply).is_err() {
            return;
        }
    }
}

/// Routes one epoch's frames into per-shard work lists under `alive`:
/// home shard if alive, else the next survivor in ring order, else the
/// frame is lost. Buffers come from (and eventually return to) the
/// spare pool. Returns the lists and the reroute count — the caller
/// commits the count only when the routing is actually used (a
/// discarded speculative route must not leak into health accounting).
fn route<'a>(
    schedule: &'a Schedule,
    homes: &[usize],
    range: std::ops::Range<usize>,
    alive: &[bool],
    spare: &mut Vec<Vec<&'a bytes::Bytes>>,
    shards: usize,
) -> (Vec<Vec<&'a bytes::Bytes>>, u64) {
    let mut work: Vec<Vec<&'a bytes::Bytes>> =
        (0..shards).map(|_| spare.pop().unwrap_or_default()).collect();
    let mut rerouted = 0u64;
    for idx in range {
        let home = homes[idx];
        let target = if alive[home] {
            Some(home)
        } else {
            next_alive(alive, home)
        };
        if let Some(t) = target {
            if t != home {
                rerouted += 1;
            }
            work[t].push(&schedule[idx].1);
        }
    }
    (work, rerouted)
}

/// Returns an epoch's buffers to the spare pool, cleared.
fn recycle<'a>(work: Vec<Vec<&'a bytes::Bytes>>, spare: &mut Vec<Vec<&'a bytes::Bytes>>) {
    for mut buf in work {
        buf.clear();
        spare.push(buf);
    }
}

/// [`crate::run_replay_with_faults`] on the persistent worker pool,
/// with the lifecycle layer threaded through: `plan` schedules
/// checkpoints, cooperative kills and drain-point swaps; `resume`
/// continues a checkpointed run bit-identically. Outcome semantics are
/// documented on the public wrappers; a fresh run with an inert plan is
/// required (and tested) to be a bit-identical drop-in for
/// [`crate::reference::run_replay_with_faults`].
#[allow(clippy::too_many_lines)]
pub(crate) fn run(
    schedule: &Schedule,
    cfg: &ReplayConfig,
    faults: &FaultSchedule,
    plan: &LifecyclePlan,
    resume: Option<ResumeState>,
) -> (ReplayOutcome, LifecycleReport) {
    assert!(cfg.shards >= 1, "need at least one shard");
    let interval = cfg.detector.interval_ns.max(1);
    let batch = cfg.batch.max(1);
    let batch_u64 = batch as u64;

    // Fresh runs and resumes share one initialisation path: the state
    // a fresh run starts from is just the resume state of ordinal 0.
    let r = resume.unwrap_or_else(|| ResumeState::fresh(cfg));
    let start_ordinal = r.next_ordinal;
    let mut next_ckpt_ordinal = r.next_checkpoint_ordinal;
    // Ping-pong slots: `Some` while the coordinator holds the state,
    // `None` while it is out with the worker (or died with one).
    let mut states: Vec<Option<ShardState>> = r.states;
    let mut alive: Vec<bool> = r.alive;
    let mut incidents: Vec<ShardIncident> = r.incidents;
    let mut ensemble = r.ensemble;
    let mut telemetry = ReplayTelemetry::new(cfg.shards);
    telemetry.queue_capacity = QUEUE_CAPACITY as u64;
    let mut packets: u64 = r.packets;
    let mut epochs: u64 = r.epochs;
    let mut packets_rerouted: u64 = r.packets_rerouted;
    let mut reports_dropped: u64 = r.reports_dropped;
    // Report-loss carry-forward — identical to the reference engine:
    // the next delivered report observes the per-interval average of
    // the span it covers. (HLL registers are not carried: a dropped
    // interval's distinct-source registers wash at its barrier.)
    let mut carried_syns: i64 = r.carried_syns;
    let mut carried_packets: i64 = r.carried_packets;
    let mut carried_len_sum: i64 = r.carried_len_sum;
    let mut carried_epochs: i64 = r.carried_epochs;
    // Epoch ordinals of the carried (dropped) reports — alert lineage.
    let mut carried_from: Vec<u64> = r.carried_from;
    // Drilldown ladder fed by every delivered verdict; each trigger
    // yields one provenance record.
    let mut drill = r.drill;
    let mut provenance: Vec<AlertProvenanceRecord> = r.provenance;

    // Lifecycle state. The shadow model starts from the plan's program
    // on a fresh run; a resume arrives with the checkpointed registers
    // already restored into it.
    let mut shadow: Option<Pipeline> = r.shadow.or_else(|| plan.initial_program.clone());
    let mut generation: u64 = r.generation;
    let mut swaps_committed_total: u64 = r.swaps_committed;
    let mut shed = lifecycle::ShedController::new(plan.shed);
    let mut report = LifecycleReport::default();
    if let Some(from) = r.resumed_from {
        report.resumed_from = Some(from);
        report.push(
            start_ordinal as u64,
            "resumed",
            format!("from checkpoint {from} at epoch ordinal {start_ordinal}"),
        );
        for note in r.fallbacks {
            report.push(start_ordinal as u64, "checkpoint_fallback", note);
        }
    }

    // Incremental barrier merger: keeps the previous epoch's merged
    // view and folds per-shard deltas into it; rebuilds from scratch
    // (the old full fold) on the first barrier and whenever the alive
    // map changes. A resume starts with no accumulator, so its first
    // barrier is a rebuild over the restored states.
    let mut merger = crate::barrier::BarrierMerger::new();

    let started = Instant::now();

    if !schedule.is_empty() {
        // Parallel pre-partition stage: hash every frame's flow once,
        // up front. Assignments depend only on frame bytes — the
        // alive-dependent routing stays per-epoch (and overlapped).
        // Recorded as `prepartition_ns`, not into the per-epoch
        // `partition_ns` histogram: this warm-up pass happens before
        // any epoch runs, and counting it there left the histogram
        // with epochs + 1 samples — off by one against every
        // per-epoch series.
        let hash_started = Instant::now();
        let homes = workloads::shard::assignments_parallel(schedule, cfg.shards, PARTITION_THREADS);
        telemetry.prepartition_ns.add(elapsed_ns(hash_started));

        // Epoch boundaries: contiguous runs of `t / interval` in the
        // time-sorted schedule, exactly like the reference engine.
        let mut ranges: Vec<(u64, std::ops::Range<usize>)> = Vec::new();
        let mut i = 0;
        while i < schedule.len() {
            let epoch_idx = schedule[i].0 / interval;
            let mut j = i;
            while j < schedule.len() && schedule[j].0 / interval == epoch_idx {
                j += 1;
            }
            ranges.push((epoch_idx, i..j));
            i = j;
        }

        // Shard tracers ping-pong with the state: `Some` while the
        // coordinator holds one, `None` while it is out with the
        // worker (or died with a panicked one).
        let trace_origin = telemetry.trace.origin();
        let mut shard_tracers: Vec<Option<Tracer>> =
            telemetry.shard_traces.drain(..).map(Some).collect();

        std::thread::scope(|scope| {
            let mut to_worker: Vec<SyncSender<Dispatch<'_>>> = Vec::with_capacity(cfg.shards);
            let mut from_worker: Vec<Receiver<Reply<'_>>> = Vec::with_capacity(cfg.shards);
            let mut handles = Vec::with_capacity(cfg.shards);
            for s in 0..cfg.shards {
                let (tx_d, rx_d) = sync_channel::<Dispatch<'_>>(QUEUE_CAPACITY);
                let (tx_r, rx_r) = sync_channel::<Reply<'_>>(QUEUE_CAPACITY);
                to_worker.push(tx_d);
                from_worker.push(rx_r);
                handles.push(Some(scope.spawn(move || worker_loop(s, &rx_d, &tx_r))));
            }

            // Run-long buffer pool (~2× shards lists in steady state).
            let mut spare: Vec<Vec<&bytes::Bytes>> = Vec::new();
            let mut in_flight: Vec<u64> = vec![0; cfg.shards];
            let mut speculative: Option<RoutedEpoch> = None;

            for (k, (epoch_idx, range)) in ranges.iter().enumerate().skip(start_ordinal) {
                let epoch_idx = *epoch_idx;
                let k64 = k as u64;

                // (0) Drain point: every surviving state is home, no
                // epoch is in flight — the only place configuration or
                // persistence may change.
                //
                // (0a) Checkpoint cadence. Written *before* the kill
                // check so a killed run's directory looks exactly like
                // a crashed run's. `k != start_ordinal` skips the
                // vacuous checkpoint of the state we just loaded (or,
                // fresh, of an empty run).
                if let Some(dir) = plan.checkpoint_dir.as_deref() {
                    if plan.checkpoint_every > 0
                        && k64.is_multiple_of(plan.checkpoint_every)
                        && k != start_ordinal
                    {
                        let t0 = Instant::now();
                        let c = Checkpoint {
                            next_ordinal: k,
                            checkpoint_ordinal: next_ckpt_ordinal,
                            cfg_shards: cfg.shards,
                            cfg_batch: cfg.batch,
                            cfg_interval_ns: cfg.detector.interval_ns,
                            schedule_packets: schedule.len() as u64,
                            faults_spec: plan.faults_spec.clone(),
                            fault_seed: faults.seed(),
                            packets,
                            epochs,
                            packets_rerouted,
                            reports_dropped,
                            carried_syns,
                            carried_packets,
                            carried_len_sum,
                            carried_epochs,
                            carried_from: carried_from.clone(),
                            alive: alive.clone(),
                            shards: states
                                .iter()
                                .map(|s| s.as_ref().map(ShardStateRaw::of))
                                .collect(),
                            incidents: incidents.clone(),
                            ensemble: ensemble.export_state(),
                            drill: drill.export_state(),
                            provenance: provenance.clone(),
                            generation,
                            swaps_committed: swaps_committed_total,
                            pipeline: shadow.as_ref().map(Pipeline::export_state),
                        };
                        let document = ckpt::serialize(&c);
                        let (bytes, serialize_ns) = (document.len() as u64, elapsed_ns(t0));
                        let written =
                            ckpt::write_serialized(dir, c.checkpoint_ordinal, document, faults);
                        let write_ns = elapsed_ns(t0);
                        match written {
                            Ok(path) => {
                                telemetry.checkpoints_written.inc();
                                report.checkpoints_written += 1;
                                report.push(
                                    k64,
                                    "checkpoint_written",
                                    format!(
                                        "{} ({bytes} bytes, serialized in {} us, on disk after \
                                         {} us; resumes at ordinal {k})",
                                        path.display(),
                                        serialize_ns / 1_000,
                                        write_ns / 1_000,
                                    ),
                                );
                            }
                            Err(e) => report.push(k64, "checkpoint_error", e),
                        }
                        // One sample each per checkpoint: the codec's
                        // share (export + render) apart from the
                        // total, which the two fsyncs dominate on a
                        // slow disk.
                        telemetry.ckpt_serialize_ns.record(serialize_ns);
                        telemetry.ckpt_bytes.record(bytes);
                        telemetry.ckpt_write_ns.record(write_ns);
                        next_ckpt_ordinal += 1;
                    }
                }

                // (0b) Cooperative kill: stop at the drain point with a
                // clean teardown — the crash model recovery tests
                // resume from.
                if plan.kill_at_epoch == Some(k64) {
                    report.push(
                        k64,
                        "killed",
                        format!("stopped at drain point before epoch ordinal {k}"),
                    );
                    break;
                }

                // (0c) Drain-point swaps: vet everything against the
                // running configuration, then commit atomically — or
                // reject leaving it untouched.
                for req in plan.swaps.iter().filter(|s| s.at_epoch == k64) {
                    match lifecycle::vet_swap(req, generation, shadow.as_ref(), &ensemble) {
                        Ok(vetted) => {
                            // `vet_swap` ran the same check, so a
                            // refusal here means vetting and commit
                            // disagree. Nothing has changed yet (the
                            // overrides are all-or-nothing and go
                            // first): say so loudly, commit nothing.
                            if let Err(e) = ensemble.set_weight_overrides(&req.weights) {
                                report.swap_errors += 1;
                                report.push(
                                    k64,
                                    "swap_error",
                                    format!("vetted swap could not be applied, not committed: {e}"),
                                );
                                continue;
                            }
                            if let Some(next) = vetted.shadow {
                                shadow = Some(next);
                            }
                            generation += 1;
                            swaps_committed_total += 1;
                            telemetry.swaps_committed.inc();
                            report.swaps_committed += 1;
                            report.push(
                                k64,
                                "swap_committed",
                                format!("generation {generation}: {}", vetted.detail),
                            );
                            // Control-channel duplication: the storm
                            // fault redelivers the request we just
                            // committed. Its expected generation is now
                            // stale, so the duplicate vets to rejection
                            // — commits are idempotent.
                            if faults.duplicate_reconfig(swaps_committed_total) {
                                if let Err(e) = lifecycle::vet_swap(
                                    req,
                                    generation,
                                    shadow.as_ref(),
                                    &ensemble,
                                ) {
                                    telemetry.swaps_rejected.inc();
                                    report.swaps_rejected += 1;
                                    report.push(k64, "stale_swap_rejected", e);
                                }
                            }
                        }
                        Err(e) => {
                            telemetry.swaps_rejected.inc();
                            report.swaps_rejected += 1;
                            let kind = if req.expected_generation == generation {
                                "swap_rejected"
                            } else {
                                "stale_swap_rejected"
                            };
                            report.push(k64, kind, e);
                        }
                    }
                }

                // Telemetry shedding is sampled once per epoch so every
                // span opened this epoch also closes this epoch.
                let traces_on = shed.allow_traces();
                let hists_on = shed.allow_histograms();
                if !traces_on {
                    telemetry.telemetry_shed.inc();
                }

                let incidents_before = incidents.len();

                // (A) This epoch's routing: the speculative partition
                // if its predicted alive map held, else a fresh pass.
                let (mut work, rerouted) = match speculative.take() {
                    Some(spec) if spec.assumed_alive == alive => (spec.work, spec.rerouted),
                    other => {
                        if let Some(spec) = other {
                            recycle(spec.work, &mut spare);
                        }
                        let t0 = Instant::now();
                        let routed =
                            route(schedule, &homes, range.clone(), &alive, &mut spare, cfg.shards);
                        if hists_on {
                            telemetry.partition_ns.record(elapsed_ns(t0));
                        }
                        routed
                    }
                };
                packets_rerouted += rerouted;

                // (B) Fault plan; crashes quarantine before dispatch,
                // so the crashed shard's slice of this interval is
                // lost — its state stays parked in its slot.
                let mut recover_started: Option<Instant> = None;
                let plan: Vec<Option<ShardFaultKind>> = (0..cfg.shards)
                    .map(|s| {
                        if alive[s] {
                            faults.shard_fault(epoch_idx, s)
                        } else {
                            None
                        }
                    })
                    .collect();
                for (s, fault) in plan.iter().enumerate() {
                    let Some(kind) = fault else { continue };
                    telemetry.faults_injected.inc();
                    if *kind == ShardFaultKind::Crash {
                        recover_started.get_or_insert_with(Instant::now);
                        alive[s] = false;
                        incidents.push(ShardIncident {
                            shard: s,
                            epoch: epoch_idx,
                            kind: IncidentKind::Crashed,
                        });
                    }
                }

                // (C) Dispatch to every surviving worker: move the
                // state and frame list through the bounded queue.
                if traces_on {
                    telemetry.trace.begin("ingest", epoch_idx);
                }
                let epoch_started = Instant::now();
                let mut dispatched = vec![false; cfg.shards];
                for s in 0..cfg.shards {
                    let frames = std::mem::take(&mut work[s]);
                    if alive[s] {
                        let state = states[s].take().expect("alive shard holds its state");
                        let tracer =
                            shard_tracers[s].take().expect("alive shard holds its tracer");
                        let msg = Dispatch::Epoch(EpochWork {
                            epoch_idx,
                            fault: plan[s],
                            state,
                            frames,
                            batch,
                            sent_at: Instant::now(),
                            tracer,
                        });
                        to_worker[s]
                            .send(msg)
                            .expect("dispatch to a live worker cannot fail");
                        in_flight[s] += 1;
                        if hists_on {
                            telemetry.shards[s].queue_depth.record(in_flight[s]);
                        }
                        dispatched[s] = true;
                    } else {
                        recycle(vec![frames], &mut spare);
                    }
                }

                // (D) Pipelined pre-partition: route interval k+1 while
                // the workers ingest interval k, against the alive map
                // predicted after k (current minus injected panics at
                // k — deterministic, so only organic failures miss).
                let mut spec_route_ns = None;
                if let Some((_, next_range)) = ranges.get(k + 1) {
                    let mut pred = alive.clone();
                    for (s, fault) in plan.iter().enumerate() {
                        if matches!(fault, Some(ShardFaultKind::Panic)) {
                            pred[s] = false;
                        }
                    }
                    let t0 = Instant::now();
                    let (w, r) =
                        route(schedule, &homes, next_range.clone(), &pred, &mut spare, cfg.shards);
                    let dur = elapsed_ns(t0);
                    if hists_on {
                        telemetry.partition_ns.record(dur);
                    }
                    spec_route_ns = Some(dur);
                    speculative = Some(RoutedEpoch {
                        work: w,
                        rerouted: r,
                        assumed_alive: pred,
                    });
                }

                // (E) Collect replies in shard order. A disconnected
                // reply channel means the worker died: join it for the
                // panic payload and quarantine (its state is gone).
                type EpochResult = (usize, Result<(u64, u64, u64), String>);
                let mut results: Vec<EpochResult> = Vec::with_capacity(cfg.shards);
                if traces_on {
                    telemetry.trace.begin("barrier", epoch_idx);
                }
                for s in 0..cfg.shards {
                    if !dispatched[s] {
                        continue;
                    }
                    in_flight[s] -= 1;
                    match from_worker[s].recv() {
                        Ok(reply) => {
                            states[s] = Some(reply.state);
                            shard_tracers[s] = Some(reply.tracer);
                            recycle(vec![reply.frames], &mut spare);
                            results
                                .push((s, Ok((reply.busy_ns, reply.ingested, reply.queue_wait_ns))));
                        }
                        Err(_) => {
                            let h = handles[s].take().expect("dead worker joined once");
                            let msg = match h.join() {
                                Err(payload) => panic_message(payload),
                                Ok(()) => String::from("shard worker exited without a reply"),
                            };
                            results.push((s, Err(msg)));
                        }
                    }
                }
                if traces_on {
                    telemetry.trace.end("barrier", epoch_idx);
                }
                let epoch_wall = elapsed_ns(epoch_started);
                if traces_on {
                    telemetry.trace.end("ingest", epoch_idx);
                }
                let mut worst_queue_wait_ns = 0u64;
                for (s, r) in &results {
                    match r {
                        Ok((busy_ns, ingested, queue_wait_ns)) => {
                            // Reconstruct the reference engine's
                            // per-chunk records from the counts: `full`
                            // whole batches plus one remainder batch is
                            // exactly what `chunks(batch)` yields, and
                            // `record_n` is bit-identical to repeated
                            // `record`s.
                            let full = ingested / batch_u64;
                            let rem = ingested % batch_u64;
                            worst_queue_wait_ns = worst_queue_wait_ns.max(*queue_wait_ns);
                            let m = &mut telemetry.shards[*s];
                            m.packets.add(*ingested);
                            m.batches.add(full + u64::from(rem > 0));
                            m.ingest_ns.add(*busy_ns);
                            if hists_on {
                                m.batch_size.record_n(batch_u64, full);
                                if rem > 0 {
                                    m.batch_size.record(rem);
                                }
                                m.queue_wait_ns.record(*queue_wait_ns);
                                m.barrier_wait_ns.record(epoch_wall.saturating_sub(*busy_ns));
                            }
                        }
                        Err(msg) => {
                            recover_started.get_or_insert_with(Instant::now);
                            alive[*s] = false;
                            incidents.push(ShardIncident {
                                shard: *s,
                                epoch: epoch_idx,
                                kind: IncidentKind::Panicked(msg.clone()),
                            });
                        }
                    }
                }
                packets += range.len() as u64;
                epochs += 1;

                // (F) Barrier: merge surviving state (serialized on
                // the coordinator, like the reference engine) and feed
                // the central detector unless this report is lost.
                if traces_on {
                    telemetry.trace.begin("merge", epoch_idx);
                }
                let merge_started = Instant::now();
                let mut entries: Vec<(usize, &mut ShardState)> = states
                    .iter_mut()
                    .enumerate()
                    .filter_map(|(s, st)| st.as_mut().map(|st| (s, st)))
                    .collect();
                let merge_stats =
                    merger.merge(&mut entries, &mut alive, cfg, epoch_idx, &mut incidents);
                drop(entries);
                let merged = merger.merged();
                let merge_ns = elapsed_ns(merge_started);
                if traces_on {
                    telemetry.trace.end("merge", epoch_idx);
                }
                if hists_on {
                    telemetry.merge_ns.record(merge_ns);
                }
                telemetry.merge_delta_bytes.add(merge_stats.delta_bytes);
                telemetry
                    .merge_skipped_registers
                    .add(merge_stats.skipped_registers);
                if merge_stats.rebuilt {
                    telemetry.merge_rebuilds.inc();
                }
                let at = (epoch_idx + 1) * interval;
                let mut any_fired = false;
                if faults.drop_epoch_report(epoch_idx) {
                    reports_dropped += 1;
                    telemetry.reports_dropped.inc();
                    if traces_on {
                        telemetry.trace.instant("report_dropped", epoch_idx);
                    }
                    carried_syns += merged.syn_in_interval;
                    carried_packets += merged.packets_in_interval;
                    carried_len_sum += merged.len_sum_in_interval;
                    carried_epochs += 1;
                    carried_from.push(epoch_idx);
                } else {
                    if traces_on {
                        telemetry.trace.begin("detect", epoch_idx);
                    }
                    let span = carried_epochs + 1;
                    let ctx = SignalContext {
                        at,
                        epoch: epoch_idx,
                        interval_ns: interval,
                        spanned: span,
                        packets: (merged.packets_in_interval + carried_packets) / span,
                        syns: (merged.syn_in_interval + carried_syns) / span,
                        len_sum: (merged.len_sum_in_interval + carried_len_sum) / span,
                        distinct_sources: i64::try_from(merged.src_hll.estimate())
                            .unwrap_or(i64::MAX),
                        median_len: crate::median_len_signal(
                            &merged.len_median,
                            &mut telemetry.median_fallbacks,
                        ),
                        kinds: &merged.kinds,
                        len_stats: &merged.len_stats,
                    };
                    let verdict = ensemble.observe(&ctx);
                    any_fired = !verdict.fired.is_empty();
                    if let Some(outcome) = drill.observe(&verdict) {
                        if traces_on && !outcome.transactions.is_empty() {
                            telemetry.trace.instant("rebind", epoch_idx);
                        }
                        let delivered: Vec<usize> = alive
                            .iter()
                            .enumerate()
                            .filter(|&(_, a)| *a)
                            .map(|(s, _)| s)
                            .collect();
                        provenance.push(AlertProvenanceRecord::capture(
                            provenance.len() as u64,
                            &ctx,
                            &verdict,
                            outcome,
                            LineageSources {
                                delivered_shards: delivered,
                                carried_from: &carried_from,
                                rerouted_frames: rerouted,
                                incidents: &incidents,
                            },
                        ));
                    }
                    if traces_on {
                        telemetry.trace.end("detect", epoch_idx);
                    }
                    carried_syns = 0;
                    carried_packets = 0;
                    carried_len_sum = 0;
                    carried_epochs = 0;
                    carried_from.clear();
                }
                if any_fired && traces_on {
                    telemetry.trace.instant("alert", epoch_idx);
                }
                if hists_on {
                    // Actual wall time of the whole epoch (dispatch
                    // through merge and detection). The old record
                    // summed the ingest window with the merge window,
                    // double-counting any overlap — epoch_ns samples
                    // could exceed what a wall clock ever measured.
                    telemetry.epoch_ns.record(elapsed_ns(epoch_started));
                }
                telemetry.epochs.inc();
                if let Some(dur) = spec_route_ns {
                    // The k+1 routing ran inside k's ingest window;
                    // anything beyond the wall was coordinator-bound.
                    if hists_on {
                        telemetry.overlap_ns.record(dur.min(epoch_wall));
                    }
                }

                // (G) Quarantine bookkeeping, same clock semantics as
                // the reference engine.
                let new_incidents = incidents.len() - incidents_before;
                if new_incidents > 0 {
                    telemetry.shards_quarantined.add(new_incidents as u64);
                    if traces_on {
                        telemetry.trace.instant("quarantine", epoch_idx);
                    }
                    let t0 = recover_started.unwrap_or(merge_started);
                    let spent = elapsed_ns(t0);
                    for _ in 0..new_incidents {
                        telemetry.recover_ns.record(spent);
                    }
                }

                // (H) Fold the closed interval's SYN counts and reset
                // the per-interval fields (counters and HLL registers).
                // Parked (dead-but-present) states carry zero here,
                // exactly like the reference engine's stale entries.
                for (s, (st, m)) in states
                    .iter_mut()
                    .zip(telemetry.shards.iter_mut())
                    .enumerate()
                {
                    if let Some(state) = st {
                        if traces_on {
                            if let Some(tr) = shard_tracers[s].as_mut() {
                                tr.begin("close_interval", epoch_idx);
                            }
                        }
                        m.syn_packets.add(crate::closed_interval_syns(
                            state.syn_in_interval,
                            &mut telemetry.syn_clamps,
                        ));
                        state.close_interval();
                        if traces_on {
                            if let Some(tr) = shard_tracers[s].as_mut() {
                                tr.end("close_interval", epoch_idx);
                            }
                        }
                    }
                }

                // Feed the shed controller the epoch's worst queue
                // wait; a level change takes effect next epoch (this
                // one's spans are already committed).
                if let Some(level) = shed.observe(worst_queue_wait_ns) {
                    report.push(k64, "shed_level", level.as_str().to_string());
                }
            }

            // Teardown: wake every worker with a shutdown marker (dead
            // workers' queues are disconnected — ignore), then join.
            // Panicked workers were joined at quarantine time, so every
            // remaining join is a clean exit and the scope ends with no
            // unjoined threads to re-panic on.
            for tx in &to_worker {
                let _ = tx.send(Dispatch::Shutdown);
            }
            drop(to_worker);
            for h in &mut handles {
                if let Some(h) = h.take() {
                    h.join().expect("idle worker shuts down cleanly");
                }
            }
        });

        // Bring the shard trace buffers home. A panicked worker's
        // tracer died with it — an empty placeholder keeps the slot
        // (it contributes no events and no thread to the merge).
        telemetry.shard_traces = shard_tracers
            .into_iter()
            .enumerate()
            .map(|(s, t)| t.unwrap_or_else(|| Tracer::for_shard(0, s as u32, trace_origin)))
            .collect();
    }

    let elapsed = started.elapsed();
    telemetry.elapsed_ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
    let syn_engine = ensemble
        .engine::<SynFloodEngine>("synflood")
        .expect("ensemble always carries the SYN-flood engine");
    let alerts = syn_engine.alerts().to_vec();
    let detected_at = syn_engine.detected_at();
    telemetry.alerts.add(alerts.len() as u64);
    telemetry.detector = syn_engine.metrics().clone();
    telemetry.engines = ensemble
        .metrics_by_name()
        .into_iter()
        .map(|(n, m)| (n.to_string(), m))
        .collect();
    let ensemble_report = EnsembleReport {
        engines: ensemble.summaries(),
        fired: ensemble.fired_log.clone(),
    };

    let final_epoch = schedule.last().map_or(0, |(t, _)| t / interval);
    let entries: Vec<(usize, &ShardState)> = states
        .iter()
        .enumerate()
        .filter_map(|(s, st)| st.as_ref().map(|st| (s, st)))
        .collect();
    let merged = merge_surviving_entries(&entries, &mut alive, cfg, final_epoch, &mut incidents);
    let health = ReplayHealth {
        shards_configured: cfg.shards,
        shards_alive: alive.iter().filter(|a| **a).count(),
        packets_offered: packets,
        packets_ingested: merged.packets,
        packets_lost: packets.saturating_sub(merged.packets),
        packets_rerouted,
        reports_dropped,
        incidents,
    };
    telemetry.packets_lost.add(health.packets_lost);
    telemetry.packets_rerouted.add(health.packets_rerouted);
    report.generation = generation;
    let outcome = ReplayOutcome {
        merged,
        alerts,
        detected_at,
        packets,
        epochs,
        elapsed,
        health,
        ensemble: ensemble_report,
        provenance,
        telemetry,
    };
    (outcome, report)
}
