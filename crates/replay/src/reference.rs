//! The serial executor, kept as the **conformance baseline** for the
//! persistent worker pool.
//!
//! An executor decides where frames go and which thread ingests them;
//! the crate's `EpochCoordinator` decides everything else, and both
//! engines use the same one. So this module holds only what it is a
//! reference *for*, done the plainest way: every epoch it routes the
//! interval's frames under the alive map as it stands, with nothing
//! else running (the pool's own routing step, `route_epoch`: no
//! speculation, no overlap with ingest), then ingests each surviving
//! shard's frames on the calling thread, in shard order, into the state
//! where it sits, through the function the pool's workers run. On one
//! shard that routing is the identity, as it is for the pool: the shard
//! ingests the epoch's slice of the schedule, and no list is built. A shard
//! that panics is contained by `catch_unwind`, not by a thread: its
//! payload quarantines it as a failed join would, and its state stays
//! where it was, dead. The pool must deliver the same frames to the
//! same shards and report a dead worker the same way; `tests/pool.rs`
//! holds it to that, and the benchmark harness checks every rep
//! against this engine's snapshot.

use crate::coordinator::{
    elapsed_ns, fire_on_worker, ingest_epoch, record_ingest, EpochCoordinator, Ingested,
};
use crate::{
    panic_message, route_epoch, EpochFrames, IncidentKind, ReplayConfig, ReplayOutcome,
};
use faultinject::FaultSchedule;
use std::panic::{catch_unwind, AssertUnwindSafe};
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

/// [`crate::run_replay_with_faults`] on the reference engine: one
/// thread, routing then ingest, shard by shard, every epoch. Semantics
/// are documented on the crate-level function.
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
    // For the whole run: the per-shard frames (on one shard, the epoch
    // itself), `route_epoch`'s per-home targets, and what each ingested
    // shard's epoch came to.
    let mut work: Vec<EpochFrames<'_>> = vec![EpochFrames::default(); cfg.shards];
    let mut targets = Vec::with_capacity(cfg.shards);
    let mut ingested: Vec<(usize, Ingested)> = Vec::with_capacity(cfg.shards);

    for (epoch_idx, range) in coord.epoch_ranges(schedule) {
        let epoch_frames = &schedule[range];

        // Deterministic flow-affine split of this epoch's frames (on
        // one shard, the epoch whole). Frames whose home shard was
        // quarantined in an earlier epoch reroute to the next survivor
        // in ring order (the controller's repartitioning); with no
        // survivors at all they are lost.
        let rerouted = route_epoch(epoch_frames, &coord.alive, &mut targets, &mut work);
        let mut open = coord.open_epoch(epoch_idx, epoch_frames.len(), rerouted, faults);

        // Each surviving shard in turn; a scheduled fault fires first,
        // a stall on this thread. A panic quarantines the shard instead
        // of propagating; its state stays where it was, dead.
        coord.telemetry.trace.begin("ingest", epoch_idx);
        let epoch_started = Instant::now();
        for (s, list) in work.iter().enumerate() {
            let (Some(state), true) = (coord.states[s].as_mut(), coord.alive[s]) else {
                continue;
            };
            let tracer = &mut coord.telemetry.shard_traces[s];
            let fault = open.faults[s];
            match catch_unwind(AssertUnwindSafe(|| {
                fire_on_worker(fault, s, epoch_idx);
                ingest_epoch(state, list, tracer, epoch_idx)
            })) {
                Ok(busy_ns) => {
                    let frames = list.len() as u64;
                    ingested.push((s, Ingested { frames, busy_ns, queue_wait_ns: None }));
                }
                Err(payload) => {
                    coord.quarantine(&mut open, s, IncidentKind::Panicked(panic_message(payload)));
                }
            }
        }
        let epoch_wall = elapsed_ns(epoch_started);
        coord.telemetry.trace.end("ingest", epoch_idx);
        for (s, r) in ingested.drain(..) {
            record_ingest(&mut coord.telemetry.shards[s], &r, epoch_wall);
        }
        coord.close_epoch(open, faults, epoch_started);
    }

    coord.finish(started)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{render_outcome_json, ShardIncident};
    use std::sync::{Arc, Mutex};
    use std::thread::{self, ThreadId};
    use workloads::SynFloodWorkload;

    /// The threads each injected panic fired on, in order, while `run`
    /// runs. Those panics are kept off stderr; any other goes to the
    /// default hook, which is put back when `run` returns.
    fn injected_panics_on<T>(run: impl FnOnce() -> T) -> (T, Vec<ThreadId>) {
        let seen: Arc<Mutex<Vec<ThreadId>>> = Arc::default();
        let hook_seen = Arc::clone(&seen);
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info.payload().downcast_ref::<String>();
            if msg.is_some_and(|m| m.starts_with("injected fault")) {
                hook_seen.lock().unwrap().push(thread::current().id());
            } else {
                default(info);
            }
        }));
        let out = run();
        drop(std::panic::take_hook());
        let seen = seen.lock().unwrap().clone();
        (out, seen)
    }

    /// An injected panic, on one shard or on two in the same epoch, is
    /// caught on the caller's thread: the run returns, each incident
    /// carries the injected message, and the snapshot is the pool's,
    /// whose panics fire on its workers.
    #[test]
    fn an_injected_panic_is_caught_on_the_callers_thread() {
        let (s, _) = SynFloodWorkload {
            background_cps: 500,
            flood_pps: 20_000,
            flood_start: 150_000_000,
            duration: 400_000_000,
            seed: 11,
            ..SynFloodWorkload::default()
        }
        .generate();
        let cfg = ReplayConfig {
            shards: 4,
            ..ReplayConfig::default()
        };
        let one_and_two: [(&str, &[usize]); 2] =
            [("shard_panic=2@4", &[2]), ("shard_panic=1@4,shard_panic=3@4", &[1, 3])];
        for (spec, panicked) in one_and_two {
            let faults = FaultSchedule::parse(spec, 0).unwrap();
            let (refr, on) = injected_panics_on(|| run_replay_with_faults(&s, &cfg, &faults));
            assert_eq!(on, vec![thread::current().id(); panicked.len()], "{spec}");
            let msg = |p| format!("injected fault: shard {p} panicked at epoch 4");
            let want: Vec<_> = panicked
                .iter()
                .map(|&p| ShardIncident { shard: p, epoch: 4, kind: IncidentKind::Panicked(msg(p)) })
                .collect();
            assert_eq!(refr.health.incidents, want, "{spec}");

            let (pool, on) = injected_panics_on(|| crate::run_replay_with_faults(&s, &cfg, &faults));
            assert_eq!(on.len(), panicked.len(), "{spec}");
            assert!(!on.contains(&thread::current().id()), "{spec}: the pool's fire on its workers");
            assert_eq!(render_outcome_json(&refr), render_outcome_json(&pool), "{spec}");
        }
    }
}
