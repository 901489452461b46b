//! The spawn-per-epoch executor, kept as the **conformance baseline**
//! for the persistent worker pool.
//!
//! An executor decides where frames go and which thread ingests them;
//! the crate's `EpochCoordinator` decides everything else, and both
//! engines use the same one. So this module holds only what it is a
//! reference *for*, done the plainest way: every epoch it routes the
//! interval's frames under the alive map as it stands, with nothing
//! else running (the pool's own routing step, `route_epoch`, into
//! fresh lists: no speculation, no overlap with ingest, no buffer
//! pool), spawns one scoped thread per surviving shard that
//! borrows the shard's state where it sits, and joins them all. The
//! pool must deliver the same frames to the same shards and report a
//! dead worker the same way; `tests/pool.rs` holds it to that, and the
//! benchmark harness checks every rep against this engine's snapshot.

use crate::coordinator::{elapsed_ns, fire_on_worker, EpochCoordinator};
use crate::{panic_message, route_epoch, IncidentKind, ReplayConfig, ReplayOutcome};
use faultinject::FaultSchedule;
use std::time::Instant;
use workloads::Schedule;

/// [`crate::run_replay`] on the reference engine — no faults.
///
/// # Panics
///
/// Panics if `cfg.shards` is zero.
#[must_use]
pub fn run_replay(schedule: &Schedule, cfg: &ReplayConfig) -> ReplayOutcome {
    run_replay_with_faults(schedule, cfg, &FaultSchedule::none())
}

/// [`crate::run_replay_with_faults`] on the reference engine: per-epoch
/// scoped worker threads, serial coordinator-side partitioning, no
/// pipelining. Semantics are documented on the crate-level function.
///
/// # Panics
///
/// Panics if `cfg.shards` is zero.
#[must_use]
pub fn run_replay_with_faults(
    schedule: &Schedule,
    cfg: &ReplayConfig,
    faults: &FaultSchedule,
) -> ReplayOutcome {
    let mut coord = EpochCoordinator::fresh(cfg);
    let started = Instant::now();

    for (epoch_idx, range) in coord.epoch_ranges(schedule) {
        let epoch_frames = &schedule[range];

        // Deterministic flow-affine split of this epoch's frames.
        // Frames whose home shard was quarantined in an earlier epoch
        // reroute to the next survivor in ring order (the controller's
        // repartitioning); with no survivors at all they are lost.
        let mut work: Vec<Vec<&bytes::Bytes>> = vec![Vec::new(); cfg.shards];
        let rerouted = route_epoch(epoch_frames, &coord.alive, &mut Vec::new(), &mut work);
        let mut open = coord.open_epoch(epoch_idx, epoch_frames.len(), rerouted, faults);

        // One thread per surviving shard; the scope end is the epoch
        // barrier. Each thread updates its own ShardMetrics
        // (single-owner, no atomics) once per epoch and reports
        // its busy time so barrier idle time can be attributed after
        // the join. A failed join quarantines the shard instead of
        // propagating the panic; its state stays where it was, dead.
        coord.telemetry.trace.begin("ingest", epoch_idx);
        let epoch_started = Instant::now();
        let results: Vec<(usize, Result<u64, String>)> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (s, (((state, m), tracer), list)) in coord
                .states
                .iter_mut()
                .zip(coord.telemetry.shards.iter_mut())
                .zip(coord.telemetry.shard_traces.iter_mut())
                .zip(&work)
                .enumerate()
            {
                let (Some(state), true) = (state.as_mut(), coord.alive[s]) else {
                    continue;
                };
                let fault = open.faults[s];
                let handle = scope.spawn(move || {
                    fire_on_worker(fault, s, epoch_idx);
                    tracer.begin("ingest", epoch_idx);
                    let busy = Instant::now();
                    for frame in list {
                        state.ingest(frame);
                    }
                    let ns = elapsed_ns(busy);
                    m.packets.add(list.len() as u64);
                    m.ingest_ns.add(ns);
                    tracer.end("ingest", epoch_idx);
                    ns
                });
                handles.push((s, handle));
            }
            handles
                .into_iter()
                .map(|(s, h)| (s, h.join().map_err(panic_message)))
                .collect()
        });
        let epoch_wall = elapsed_ns(epoch_started);
        coord.telemetry.trace.end("ingest", epoch_idx);
        for (s, r) in results {
            match r {
                Ok(busy) => coord.telemetry.shards[s]
                    .barrier_wait_ns
                    .record(epoch_wall.saturating_sub(busy)),
                Err(msg) => coord.quarantine(&mut open, s, IncidentKind::Panicked(msg)),
            }
        }
        coord.close_epoch(open, faults, epoch_started);
    }

    coord.finish(started)
}
