//! The persistent shard worker pool — the crate's production executor.
//!
//! An executor decides where an epoch's frames go and which thread
//! ingests them; what the epoch then *means* (merge, report-loss carry,
//! detection, quarantine bookkeeping) is the
//! [`EpochCoordinator`]'s, shared with the [`reference`](crate::reference)
//! executor. That one spawns and joins a `std::thread::scope` worker
//! set every detector interval and flow-hashes every frame of the
//! interval serially between barriers. This one removes both costs
//! while delivering the same frames to the same shards:
//!
//! - **Workers spawn once per run.** One OS thread per shard lives for
//!   the whole replay inside a single `std::thread::scope`, fed
//!   through a bounded [`sync_channel`] of capacity
//!   [`QUEUE_CAPACITY`]. An epoch is a message, not a thread.
//! - **State ping-pongs, never copies.** Each epoch the pool *moves*
//!   the shard's [`ShardState`] out of its coordinator slot, with its
//!   frame list, to the worker and puts it back from the reply —
//!   pointer handoffs through the channel, zero clones. Merging
//!   therefore still happens on the coordinator thread.
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
//!   actual map, so every frame still lands where the reference's
//!   serial partition puts it.
//! - **Buffers are pooled.** Frame lists return (cleared) in each
//!   reply and recycle through a spare pool; steady state circulates
//!   ~2× shards buffers for the whole run instead of reallocating
//!   `shards` fresh `Vec`s per interval.
//!
//! Supervision, seen from here: a shard the coordinator's fault plan
//! crashed is not dispatched (its state stays parked in its slot); an
//! injected panic unwinds the worker, the pool notices the reply
//! channel disconnect, joins the dead thread for its payload and
//! reports it with [`EpochCoordinator::quarantine`] (the state died
//! with the worker: a dead pipe's registers are unreadable).
//! `tests/pool.rs` and `tests/pool_teardown.rs` hold the pool to
//! outcomes bit-identical to the reference's and to leak-free
//! teardown.

use crate::coordinator::{elapsed_ns, fire_on_worker, EpochCoordinator};
use crate::lifecycle::{LifecycleReport, RunLifecycle};
use crate::{
    panic_message, route_target, IncidentKind, ReplayOutcome, ShardMetrics, ShardState,
};
use faultinject::{FaultSchedule, ShardFaultKind};
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
/// come home, plus the numbers [`record_ingest`] rebuilds the
/// per-batch metrics from.
struct Reply<'a> {
    state: ShardState,
    frames: Vec<&'a bytes::Bytes>,
    ingested: Ingested,
    tracer: Tracer,
}

/// What a worker did with one epoch.
struct Ingested {
    frames: u64,
    busy_ns: u64,
    queue_wait_ns: u64,
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
        fire_on_worker(work.fault, shard, work.epoch_idx);
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
        let frames = work.frames.len() as u64;
        work.frames.clear();
        let reply = Reply {
            state: work.state,
            frames: work.frames,
            ingested: Ingested {
                frames,
                busy_ns,
                queue_wait_ns,
            },
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
        if let Some(t) = route_target(alive, home) {
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

/// Folds one shard's reply into its metric set. The reference engine
/// records per chunk on the shard thread; the pool reconstructs the
/// same records from the counts: `full` whole batches plus one
/// remainder batch is exactly what `chunks(batch)` yields, and
/// `record_n` is bit-identical to repeated `record`s.
fn record_ingest(m: &mut ShardMetrics, r: &Ingested, batch: u64, epoch_wall: u64, hists_on: bool) {
    let full = r.frames / batch;
    let rem = r.frames % batch;
    m.packets.add(r.frames);
    m.batches.add(full + u64::from(rem > 0));
    m.ingest_ns.add(r.busy_ns);
    if hists_on {
        m.batch_size.record_n(batch, full);
        if rem > 0 {
            m.batch_size.record(rem);
        }
        m.queue_wait_ns.record(r.queue_wait_ns);
        m.barrier_wait_ns.record(epoch_wall.saturating_sub(r.busy_ns));
    }
}

/// Runs `coord` over the rest of `schedule` on the persistent worker
/// pool, with `life` given every drain point. This function is the
/// executor: routing, dispatch, collection. What an epoch *means* is
/// [`EpochCoordinator::close_epoch`], which the reference engine calls
/// too, so the two agree by construction wherever their executors
/// deliver the same frames to the same shards.
pub(crate) fn run(
    schedule: &Schedule,
    faults: &FaultSchedule,
    mut coord: EpochCoordinator,
    mut life: RunLifecycle<'_>,
) -> (ReplayOutcome, LifecycleReport) {
    let shards = coord.cfg.shards;
    let batch = coord.cfg.batch.max(1);
    coord.telemetry.queue_capacity = QUEUE_CAPACITY as u64;
    let started = Instant::now();

    if !schedule.is_empty() {
        // Parallel pre-partition stage: hash every frame's flow once,
        // up front. Assignments depend only on frame bytes; the
        // alive-dependent routing stays per-epoch (and overlapped).
        // This warm-up pass happens before any epoch runs, so it is
        // counted apart from the per-epoch `partition_ns` histogram,
        // which holds exactly one sample per epoch.
        let hash_started = Instant::now();
        let homes = workloads::shard::assignments_parallel(schedule, shards, PARTITION_THREADS);
        coord.telemetry.prepartition_ns.add(elapsed_ns(hash_started));
        let ranges = coord.epoch_ranges(schedule);
        let trace_origin = coord.telemetry.trace.origin();

        std::thread::scope(|scope| {
            let mut to_worker: Vec<SyncSender<Dispatch<'_>>> = Vec::with_capacity(shards);
            let mut from_worker: Vec<Receiver<Reply<'_>>> = Vec::with_capacity(shards);
            let mut handles = Vec::with_capacity(shards);
            for s in 0..shards {
                let (tx_d, rx_d) = sync_channel::<Dispatch<'_>>(QUEUE_CAPACITY);
                let (tx_r, rx_r) = sync_channel::<Reply<'_>>(QUEUE_CAPACITY);
                to_worker.push(tx_d);
                from_worker.push(rx_r);
                handles.push(Some(scope.spawn(move || worker_loop(s, &rx_d, &tx_r))));
            }

            // Run-long buffer pool (~2× shards lists in steady state).
            let mut spare: Vec<Vec<&bytes::Bytes>> = Vec::new();
            let mut in_flight: Vec<u64> = vec![0; shards];
            let mut speculative: Option<RoutedEpoch> = None;

            for (k, (epoch_idx, range)) in ranges.iter().enumerate().skip(life.start_ordinal) {
                let epoch_idx = *epoch_idx;
                if life.drain_point(k, &mut coord, schedule, faults).is_break() {
                    break;
                }

                // Telemetry shedding is sampled once per epoch so every
                // span opened this epoch also closes this epoch.
                let (traces_on, hists_on) = (life.shed.allow_traces(), life.shed.allow_histograms());
                if !traces_on {
                    coord.telemetry.telemetry_shed.inc();
                }

                // (A) This epoch's routing: the speculative partition
                // if its predicted alive map held, else a fresh pass.
                let (mut work, rerouted) = match speculative.take() {
                    Some(spec) if spec.assumed_alive == coord.alive => (spec.work, spec.rerouted),
                    other => {
                        if let Some(spec) = other {
                            recycle(spec.work, &mut spare);
                        }
                        let t0 = Instant::now();
                        let routed =
                            route(schedule, &homes, range.clone(), &coord.alive, &mut spare, shards);
                        if hists_on {
                            coord.telemetry.partition_ns.record(elapsed_ns(t0));
                        }
                        routed
                    }
                };

                // (B) The fault plan; a crash quarantines its shard
                // before dispatch.
                let mut open = coord.open_epoch(epoch_idx, range.len(), rerouted, faults);

                // (C) Dispatch to every surviving worker: move the
                // state, the frame list and the shard's span recorder
                // through the bounded queue. An empty recorder keeps
                // the slot meanwhile (and for good, if the worker dies
                // with the real one).
                if traces_on {
                    coord.telemetry.trace.begin("ingest", epoch_idx);
                }
                let epoch_started = Instant::now();
                for s in 0..shards {
                    let frames = std::mem::take(&mut work[s]);
                    if coord.alive[s] {
                        let msg = Dispatch::Epoch(EpochWork {
                            epoch_idx,
                            fault: open.faults[s],
                            state: coord.states[s].take().expect("alive shard holds its state"),
                            frames,
                            batch,
                            sent_at: Instant::now(),
                            tracer: std::mem::replace(
                                &mut coord.telemetry.shard_traces[s],
                                Tracer::for_shard(0, s as u32, trace_origin),
                            ),
                        });
                        to_worker[s]
                            .send(msg)
                            .expect("dispatch to a live worker cannot fail");
                        in_flight[s] += 1;
                        if hists_on {
                            coord.telemetry.shards[s].queue_depth.record(in_flight[s]);
                        }
                    } else {
                        recycle(vec![frames], &mut spare);
                    }
                }

                // (D) Pipelined pre-partition: route interval k+1 while
                // the workers ingest interval k, against the alive map
                // predicted after k (current minus injected panics at
                // k: deterministic, so only organic failures miss).
                let mut spec_route_ns = None;
                if let Some((_, next_range)) = ranges.get(k + 1) {
                    let mut pred = coord.alive.clone();
                    for (s, fault) in open.faults.iter().enumerate() {
                        if matches!(fault, Some(ShardFaultKind::Panic)) {
                            pred[s] = false;
                        }
                    }
                    let t0 = Instant::now();
                    let (w, r) =
                        route(schedule, &homes, next_range.clone(), &pred, &mut spare, shards);
                    let dur = elapsed_ns(t0);
                    if hists_on {
                        coord.telemetry.partition_ns.record(dur);
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
                // panic payload (its state is gone).
                let mut results: Vec<(usize, Result<Ingested, String>)> =
                    Vec::with_capacity(shards);
                if traces_on {
                    coord.telemetry.trace.begin("barrier", epoch_idx);
                }
                for s in 0..shards {
                    // Dispatched above iff alive: nothing since has
                    // touched the alive map.
                    if !coord.alive[s] {
                        continue;
                    }
                    in_flight[s] -= 1;
                    match from_worker[s].recv() {
                        Ok(reply) => {
                            coord.states[s] = Some(reply.state);
                            coord.telemetry.shard_traces[s] = reply.tracer;
                            recycle(vec![reply.frames], &mut spare);
                            results.push((s, Ok(reply.ingested)));
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
                    coord.telemetry.trace.end("barrier", epoch_idx);
                }
                let epoch_wall = elapsed_ns(epoch_started);
                if traces_on {
                    coord.telemetry.trace.end("ingest", epoch_idx);
                }
                let mut worst_queue_wait_ns = 0u64;
                for (s, r) in results {
                    match r {
                        Ok(r) => {
                            worst_queue_wait_ns = worst_queue_wait_ns.max(r.queue_wait_ns);
                            let m = &mut coord.telemetry.shards[s];
                            record_ingest(m, &r, batch as u64, epoch_wall, hists_on);
                        }
                        Err(msg) => coord.quarantine(&mut open, s, IncidentKind::Panicked(msg)),
                    }
                }

                // (F) The barrier: merge, detect, wash.
                coord.close_epoch(open, faults, epoch_started, &life.shed);
                if let (Some(dur), true) = (spec_route_ns, hists_on) {
                    // The k+1 routing ran inside k's ingest window;
                    // anything beyond the wall was coordinator-bound.
                    coord.telemetry.overlap_ns.record(dur.min(epoch_wall));
                }
                life.observe_queue_wait(k, worst_queue_wait_ns);
            }

            // Teardown: wake every worker with a shutdown marker (dead
            // workers' queues are disconnected, ignore), then join.
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
    }

    (coord.finish(schedule, started), life.report)
}
