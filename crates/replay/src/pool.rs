//! The persistent shard worker pool — the crate's production executor.
//!
//! An executor decides where an epoch's frames go and which thread
//! ingests them; what the epoch then *means* (merge, report-loss carry,
//! detection, quarantine bookkeeping) is the
//! [`EpochCoordinator`]'s, shared with the [`reference`](crate::reference)
//! executor. That one routes each detector interval's frames between
//! barriers, with nothing else running, and ingests every shard's slice
//! on its caller's thread, one shard after another. This one runs
//! threads because a long epoch's slices are worth ingesting at once,
//! and overlaps routing with that ingest, while delivering the same
//! frames to the same shards:
//!
//! - **Workers spawn once per run.** One OS thread per shard lives for
//!   the whole replay inside a single `std::thread::scope`, fed
//!   through a [`sync_channel`] of capacity 1: the coordinator collects
//!   every reply of epoch *k* before it dispatches *k+1*, so a queue
//!   never holds more than one epoch and a send never blocks.
//! - **A hand-off has to pay for itself.** A large epoch is a message:
//!   the pool *moves* each shard's [`ShardState`] out of its
//!   coordinator slot, with its frame list, to the worker and puts it
//!   back from the reply — pointer handoffs through the channel, zero
//!   clones. A small epoch (at most [`INLINE_MAX_FRAMES`] frames, no
//!   fault to fire on a worker) is not worth the two wake-ups per shard
//!   that costs, so the coordinator ingests it itself, shard by shard,
//!   into the states where they are parked. Both run `ingest_epoch`,
//!   as the reference does for every epoch;
//!   the choice is made per epoch from the epoch's length, and
//!   `ReplayTelemetry::epochs_inline` counts how often it fell this
//!   way. Merging happens on the coordinator thread either way.
//! - **A frame is hashed when it is routed.** There is no pass over
//!   the trace before the first epoch and no table of home shards:
//!   [`route_epoch`], the routing step the reference calls too, hashes
//!   each frame of one epoch and pushes it onto its shard's list, and
//!   on one shard [`workloads::shard::shard_of`] answers without
//!   reading the frame. Interval *k+1* is routed while the workers
//!   ingest a dispatched interval *k*; the hash is then the
//!   coordinator's serial share of a frame (≈14 ns against the
//!   workers' ≈45 ns ÷ shards, DESIGN.md §5g).
//! - **Routing is speculative but exact.** Interval *k+1* is routed
//!   against the alive map *predicted* after *k*: the current map
//!   minus shards with an injected panic scheduled at *k*. Injected
//!   faults are deterministic, so the prediction only misses when a
//!   worker dies on its own. Then the speculative lists are discarded
//!   and that one epoch is hashed and routed again under the actual
//!   map (as the first epoch of a run or a resume is, which nothing
//!   routed ahead), so every frame still lands where the reference
//!   puts it.
//! - **Nothing is allocated per epoch.** Each shard has two frame
//!   lists for the whole run, this epoch's and the next one's, which
//!   trade places at every epoch; a dispatched list comes home
//!   (cleared) in the reply. The reply slots, the predicted alive
//!   map and the per-home target table are reused the same way.
//!   `tests/pool_allocs.rs` holds the pool to that, and
//!   `tests/pool_bytes.rs` to holding nothing per frame of the trace
//!   beyond those lists.
//!
//! Supervision, seen from here: a shard the coordinator's fault plan
//! crashed is not ingested (its state stays parked in its slot); an
//! epoch with a panic or stall scheduled is always dispatched, so the
//! fault fires on a worker and never on the coordinator. An injected
//! panic unwinds the worker, the pool notices the reply channel
//! disconnect, joins the dead thread for its payload and reports it
//! with [`EpochCoordinator::quarantine`] (the state died with the
//! worker: a dead pipe's registers are unreadable). `tests/pool.rs`
//! and `tests/pool_teardown.rs` hold the pool to outcomes bit-identical
//! to the reference's on both paths and to leak-free teardown.

use crate::coordinator::{
    elapsed_ns, fire_on_worker, ingest_epoch, record_ingest, EpochCoordinator, Ingested,
};
use crate::lifecycle::{LifecycleReport, RunLifecycle};
use crate::{panic_message, route_epoch, IncidentKind, ReplayOutcome, ShardState};
use faultinject::{FaultSchedule, ShardFaultKind};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::time::Instant;
use telemetry::Tracer;
use workloads::Schedule;

/// Longest epoch, in frames over all shards, that the coordinator
/// ingests itself instead of handing it to the workers.
///
/// A hand-off is a `sync_channel` round-trip: two futex wake-ups and
/// two context switches per shard. Measured on the benchmark's
/// `sparse_2shard` (≈120-frame epochs, two workers) it left 12.7 µs
/// per epoch that no stage accounts for, ≈6 µs per round-trip with
/// coordinator and workers on one CPU, and 11–46 µs per round-trip when
/// they sit on two vCPUs and the wake-up crosses the hypervisor
/// (benchmark/README.md § "One CPU": 70 and 140 ms per rep against 48).
/// A frame costs ≈45 ns to parse and ingest (parse ≈14 + ingest ≈25–33,
/// traced `dense_1shard` on a 2-vCPU guest in its fast phase; ingest fell
/// ≈6 ns when a shard stopped walking a length marker and ≈9 more when
/// its five tracker updates compiled into one call-free kernel), so the
/// serial cost of an inline epoch is at most 256 × 45 ns ≈ 12 µs
/// whatever the shard count: less
/// than two hand-offs on the cheapest machine measured, and an epoch
/// hands off once per shard. The bound is on the epoch and not on a
/// shard's slice for that reason, and because the epoch's length is
/// known before routing.
///
/// A threshold sweep (per shard, two shards) shows where the cliff is:
/// 96 frames reads 6.8 M frames/s on `sparse_2shard`, 128 reads 8.3 M,
/// no bound at all reads 8.3 M. So the bound has to clear the sparse
/// generator's 60–180-frame epochs, and it must stay far below the
/// dense generator's 12 000, where the workers' parallel ingest is the
/// point of the pool. Between ≈256 and a few thousand frames per epoch
/// nothing in the benchmark decides it (ROADMAP item 1).
const INLINE_MAX_FRAMES: usize = 256;

/// One epoch's work order for a shard: its state, its routed frame
/// slice, and any fault scheduled to fire on the worker.
struct EpochWork<'a> {
    epoch_idx: u64,
    fault: Option<ShardFaultKind>,
    state: ShardState,
    frames: Vec<&'a bytes::Bytes>,
    /// Dispatch timestamp, for the queue-wait histogram.
    sent_at: Instant,
    /// The shard's span recorder, handed off with the state — threads
    /// never share a tracer. Dies with the worker on a panic.
    tracer: Tracer,
}

/// The routing of the epoch about to run: one frame list per shard,
/// filled for interval k+1 while k is in flight and valid only if
/// `assumed_alive` still matches reality when k+1 starts.
struct RoutedEpoch<'a> {
    work: Vec<Vec<&'a bytes::Bytes>>,
    rerouted: u64,
    /// All the time spent routing this epoch, a discarded speculative
    /// pass included: the epoch's `partition_ns` sample once it runs.
    route_ns: u64,
    /// Empty until something has been routed: no run's alive map.
    assumed_alive: Vec<bool>,
    /// [`route_epoch`]'s per-home scratch.
    targets: Vec<Option<usize>>,
}

impl<'a> RoutedEpoch<'a> {
    /// Routes `frames` into the per-shard lists under `assumed_alive`.
    /// Whatever the lists held is discarded, reroute count included: a
    /// speculative route that is not used must not leak into health
    /// accounting. Its time is kept, because it was spent on this epoch.
    fn route(&mut self, frames: &'a [(u64, bytes::Bytes)]) {
        let t0 = Instant::now();
        self.rerouted = route_epoch(frames, &self.assumed_alive, &mut self.targets, &mut self.work);
        self.route_ns += elapsed_ns(t0);
    }
}

/// Worker → coordinator reply: the state and (cleared) frame buffer
/// come home, plus the numbers [`record_ingest`] folds into the
/// shard's metrics.
struct Reply<'a> {
    state: ShardState,
    frames: Vec<&'a bytes::Bytes>,
    ingested: Ingested,
    tracer: Tracer,
}

/// The persistent per-shard worker: block on the queue, run one epoch,
/// reply, repeat until the coordinator drops its end. An injected
/// panic fires before any ingest (same clean-epoch-boundary guarantee
/// as the reference engine, where `catch_unwind` stops it on the
/// caller's thread) and unwinds through this loop, dropping
/// both channel ends — the reply-channel disconnect is how the
/// supervisor notices.
fn worker_loop<'a>(shard: usize, rx: &Receiver<EpochWork<'a>>, tx: &SyncSender<Reply<'a>>) {
    while let Ok(mut work) = rx.recv() {
        let queue_wait_ns = elapsed_ns(work.sent_at);
        let mut tracer = work.tracer;
        // The queue-wait span opens at the instant the coordinator
        // dispatched (captured on its thread, same clock origin) and
        // closes now that the worker has dequeued.
        let sent_ns = tracer.ns_since(work.sent_at);
        tracer.begin_at("queue_wait", work.epoch_idx, sent_ns);
        tracer.end("queue_wait", work.epoch_idx);
        fire_on_worker(work.fault, shard, work.epoch_idx);
        let busy_ns = ingest_epoch(&mut work.state, &work.frames, &mut tracer, work.epoch_idx);
        let frames = work.frames.len() as u64;
        work.frames.clear();
        let reply = Reply {
            state: work.state,
            frames: work.frames,
            ingested: Ingested {
                frames,
                busy_ns,
                queue_wait_ns: Some(queue_wait_ns),
            },
            tracer,
        };
        if tx.send(reply).is_err() {
            return;
        }
    }
}

/// Runs `coord` over the rest of `schedule` on the persistent worker
/// pool, with `life` given every drain point. This function is the
/// executor: routing, then dispatch and collection or inline ingest.
/// What an epoch *means* is [`EpochCoordinator::close_epoch`], which
/// the reference engine calls too, so the two agree by construction
/// wherever their executors deliver the same frames to the same shards.
pub(crate) fn run(
    schedule: &Schedule,
    faults: &FaultSchedule,
    mut coord: EpochCoordinator,
    mut life: RunLifecycle<'_>,
) -> (ReplayOutcome, LifecycleReport) {
    let shards = coord.cfg.shards;
    let started = Instant::now();

    if !schedule.is_empty() {
        let ranges = coord.epoch_ranges(schedule);
        let trace_origin = coord.telemetry.trace.origin();

        std::thread::scope(|scope| {
            let mut to_worker: Vec<SyncSender<EpochWork<'_>>> = Vec::with_capacity(shards);
            let mut from_worker: Vec<Receiver<Reply<'_>>> = Vec::with_capacity(shards);
            let mut handles = Vec::with_capacity(shards);
            for s in 0..shards {
                let (tx_d, rx_d) = sync_channel::<EpochWork<'_>>(1);
                let (tx_r, rx_r) = sync_channel::<Reply<'_>>(1);
                to_worker.push(tx_d);
                from_worker.push(rx_r);
                handles.push(Some(scope.spawn(move || worker_loop(s, &rx_d, &tx_r))));
            }

            // Everything below lives for the run and is reused every
            // epoch: this epoch's frame lists and the next one's, and
            // the per-shard results.
            let mut work: Vec<Vec<&bytes::Bytes>> = vec![Vec::new(); shards];
            let mut next = RoutedEpoch {
                work: vec![Vec::new(); shards],
                rerouted: 0,
                route_ns: 0,
                assumed_alive: Vec::with_capacity(shards),
                targets: Vec::with_capacity(shards),
            };
            let mut results: Vec<(usize, Result<Ingested, String>)> = Vec::with_capacity(shards);

            for (k, (epoch_idx, range)) in ranges.iter().enumerate().skip(life.start_ordinal) {
                let epoch_idx = *epoch_idx;
                if life.drain_point(k, &mut coord, schedule, faults).is_break() {
                    break;
                }

                // (A) This epoch's routing: the speculative lists if
                // their predicted alive map held, else a fresh pass.
                // The epoch is taken here, so here is where its routing
                // time becomes a sample: one per epoch that runs, none
                // for a route the run is killed before using. Either
                // way the lists of the epoch before, all home and
                // empty, become the next epoch's.
                if next.assumed_alive != coord.alive {
                    next.assumed_alive.clone_from(&coord.alive);
                    next.route(&schedule[range.clone()]);
                }
                coord.telemetry.partition_ns.record(std::mem::take(&mut next.route_ns));
                std::mem::swap(&mut work, &mut next.work);

                // (B) The fault plan; a crash quarantines its shard
                // before dispatch.
                let mut open = coord.open_epoch(epoch_idx, range.len(), next.rerouted, faults);

                // (C) Ingest. A short epoch with nothing to fire on a
                // worker stays here: each surviving shard's list goes
                // into its parked state, in shard order. Any other is
                // dispatched to every surviving worker: the state, the
                // frame list and the shard's span recorder move through
                // the bounded queue, and an empty recorder keeps the
                // slot meanwhile (and for good, if the worker dies with
                // the real one). A crashed shard's slice is dropped.
                let inline = range.len() <= INLINE_MAX_FRAMES
                    && !open.faults.iter().any(|f| {
                        matches!(f, Some(ShardFaultKind::Panic | ShardFaultKind::Stall { .. }))
                    });
                coord.telemetry.trace.begin("ingest", epoch_idx);
                let epoch_started = Instant::now();
                if inline {
                    coord.telemetry.epochs_inline.inc();
                }
                for s in 0..shards {
                    if !coord.alive[s] {
                        work[s].clear();
                    } else if inline {
                        let busy_ns = ingest_epoch(
                            coord.states[s].as_mut().expect("alive shard holds its state"),
                            &work[s],
                            &mut coord.telemetry.shard_traces[s],
                            epoch_idx,
                        );
                        let ingested = Ingested {
                            frames: work[s].len() as u64,
                            busy_ns,
                            queue_wait_ns: None,
                        };
                        work[s].clear();
                        results.push((s, Ok(ingested)));
                    } else {
                        let msg = EpochWork {
                            epoch_idx,
                            fault: open.faults[s],
                            state: coord.states[s].take().expect("alive shard holds its state"),
                            frames: std::mem::take(&mut work[s]),
                            sent_at: Instant::now(),
                            tracer: std::mem::replace(
                                &mut coord.telemetry.shard_traces[s],
                                Tracer::for_shard(0, s as u32, trace_origin),
                            ),
                        };
                        to_worker[s]
                            .send(msg)
                            .expect("dispatch to a live worker cannot fail");
                    }
                }

                // (D) Pipelined routing: hash and route interval k+1
                // while the workers ingest interval k, against the
                // alive map predicted after k (current minus injected
                // panics at k: deterministic, so only organic failures
                // miss).
                if let Some((_, next_range)) = ranges.get(k + 1) {
                    next.assumed_alive.clone_from(&coord.alive);
                    for (s, fault) in open.faults.iter().enumerate() {
                        if matches!(fault, Some(ShardFaultKind::Panic)) {
                            next.assumed_alive[s] = false;
                        }
                    }
                    next.route(&schedule[next_range.clone()]);
                }

                // (E) Collect what was dispatched, in shard order. A
                // disconnected reply channel means the worker died:
                // join it for the panic payload (its state is gone).
                if !inline {
                    coord.telemetry.trace.begin("barrier", epoch_idx);
                    for s in 0..shards {
                        // Dispatched above iff alive: nothing since has
                        // touched the alive map.
                        if !coord.alive[s] {
                            continue;
                        }
                        match from_worker[s].recv() {
                            Ok(reply) => {
                                coord.states[s] = Some(reply.state);
                                coord.telemetry.shard_traces[s] = reply.tracer;
                                work[s] = reply.frames;
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
                    coord.telemetry.trace.end("barrier", epoch_idx);
                }
                let epoch_wall = elapsed_ns(epoch_started);
                coord.telemetry.trace.end("ingest", epoch_idx);
                for (s, r) in results.drain(..) {
                    match r {
                        Ok(r) => record_ingest(&mut coord.telemetry.shards[s], &r, epoch_wall),
                        Err(msg) => coord.quarantine(&mut open, s, IncidentKind::Panicked(msg)),
                    }
                }

                // (F) The barrier: merge, detect, wash.
                coord.close_epoch(open, faults, epoch_started);
            }

            // Teardown: dropping the dispatch ends wakes every worker
            // out of its `recv`, then join. Panicked workers were
            // joined at quarantine time, so every remaining join is a
            // clean exit and the scope ends with no unjoined threads to
            // re-panic on.
            drop(to_worker);
            for h in &mut handles {
                if let Some(h) = h.take() {
                    h.join().expect("idle worker shuts down cleanly");
                }
            }
        });
    }

    (coord.finish(started), life.report)
}
