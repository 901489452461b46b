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
    drive(EpochCoordinator::fresh(cfg), schedule, faults)
}

/// Runs `schedule` through `coord` to the end: the reference engine's
/// loop, whatever ensemble `coord` judges with.
fn drive(
    mut coord: EpochCoordinator,
    schedule: &Schedule,
    faults: &FaultSchedule,
) -> ReplayOutcome {
    let shards = coord.cfg.shards;
    let started = Instant::now();
    // For the whole run: the per-shard frames (on one shard, the epoch
    // itself), `route_epoch`'s per-home targets, and what each ingested
    // shard's epoch came to.
    let mut work: Vec<EpochFrames<'_>> = vec![EpochFrames::default(); shards];
    let mut targets = Vec::with_capacity(shards);
    let mut ingested: Vec<(usize, Ingested)> = Vec::with_capacity(shards);

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
    use crate::{build_ensemble, ensemble_engines, render_outcome_json, ShardIncident};
    use anomaly::Ensemble;
    use std::sync::{Arc, Mutex};
    use std::thread::{self, ThreadId};
    use workloads::{
        CardinalitySpikeWorkload, LowSlowScanWorkload, PacketMixWorkload, SeasonalDriftWorkload,
        SynFloodWorkload,
    };

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

    /// The `replay` binary's workload of that name.
    fn cli_workload(name: &str) -> Schedule {
        match name {
            "synflood" => {
                SynFloodWorkload {
                    background_cps: 500,
                    flood_pps: 50_000,
                    flood_start: 400_000_000,
                    duration: 900_000_000,
                    seed: 4,
                    ..SynFloodWorkload::default()
                }
                .generate()
                .0
            }
            "mix" => {
                PacketMixWorkload {
                    packets: 100_000,
                    ..PacketMixWorkload::default()
                }
                .generate()
                .0
            }
            "seasonal" => SeasonalDriftWorkload::default().generate(),
            "scan" => LowSlowScanWorkload::default().generate().0,
            "cardinality" => CardinalitySpikeWorkload::default().generate(),
            other => panic!("no workload {other:?}"),
        }
    }

    /// A run that needs `engine`: leaving it out moves the first
    /// verdict from `first` to `first_without`, or loses the rebind
    /// `lost_rebind` from the drill-down.
    struct Witness {
        engine: &'static str,
        workload: &'static str,
        shards: usize,
        faults: &'static str,
        fault_seed: u64,
        first: Option<u64>,
        first_without: Option<u64>,
        lost_rebind: Option<(u64, &'static str, &'static str)>,
    }

    /// What a run decided: the first verdict's epoch and every rebind
    /// as `(epoch, from, to)`.
    type Decided = (Option<u64>, Vec<(u64, String, String)>);

    fn decided(out: &ReplayOutcome) -> Decided {
        let first = out.provenance.first().map(|r| r.provenance.epoch);
        let rebinds = out.provenance.iter().flat_map(|r| &r.drilldown);
        (
            first,
            rebinds
                .map(|t| (t.epoch, t.from_phase.clone(), t.to_phase.clone()))
                .collect(),
        )
    }

    /// Every engine `build_ensemble` runs decides something no other
    /// engine does: on its witness run, leaving it out changes the
    /// first verdict or the drill-down. An engine without a witness
    /// fails here. The SYN-flood detector is exempt: its alert stream
    /// is `ReplayOutcome::alerts`, which `tests/preservation.rs` pins.
    #[test]
    fn every_engine_changes_a_verdict_when_left_out() {
        let witnesses = [
            Witness {
                engine: "stalled",
                workload: "mix",
                shards: 4,
                faults: "shard_crash=0@10,ctrl_loss=0.1",
                fault_seed: 1,
                first: Some(11),
                first_without: Some(62),
                lost_rebind: None,
            },
            Witness {
                engine: "median_shift",
                workload: "synflood",
                shards: 4,
                faults: "ctrl_loss=0.5",
                fault_seed: 3,
                first: Some(42),
                first_without: Some(42),
                lost_rebind: Some((86, "prefix", "subnets")),
            },
            Witness {
                engine: "cusum",
                workload: "scan",
                shards: 2,
                faults: "",
                fault_seed: 0,
                first: Some(58),
                first_without: None,
                lost_rebind: None,
            },
            Witness {
                engine: "holtwinters",
                workload: "seasonal",
                shards: 2,
                faults: "",
                fault_seed: 0,
                first: Some(64),
                first_without: None,
                lost_rebind: None,
            },
            Witness {
                engine: "cardinality",
                workload: "cardinality",
                shards: 2,
                faults: "",
                fault_seed: 0,
                first: Some(40),
                first_without: None,
                lost_rebind: None,
            },
        ];
        for engine in build_ensemble(&ReplayConfig::default()).names() {
            if engine == "synflood" {
                continue;
            }
            let w = witnesses
                .iter()
                .find(|w| w.engine == engine)
                .unwrap_or_else(|| panic!("engine {engine:?} has no witness run"));
            let cfg = ReplayConfig {
                shards: w.shards,
                ..ReplayConfig::default()
            };
            let schedule = cli_workload(w.workload);
            let faults = FaultSchedule::parse(w.faults, w.fault_seed).unwrap();
            let with = decided(&drive(EpochCoordinator::fresh(&cfg), &schedule, &faults));
            let mut coord = EpochCoordinator::fresh(&cfg);
            let rest = ensemble_engines(&cfg)
                .into_iter()
                .filter(|e| e.name() != engine);
            coord.ensemble = Ensemble::new(rest.collect());
            let without = decided(&drive(coord, &schedule, &faults));

            assert_ne!(with, without, "{engine}: leaving it out changes nothing");
            assert_eq!(
                (with.0, without.0),
                (w.first, w.first_without),
                "{engine}: first verdict"
            );
            let mut kept = with.1.clone();
            if let Some((epoch, from, to)) = w.lost_rebind {
                let lost = (epoch, from.to_string(), to.to_string());
                let at = kept.iter().position(|t| *t == lost);
                kept.remove(at.unwrap_or_else(|| panic!("{engine}: no rebind {lost:?}")));
                assert_eq!(
                    without.1, kept,
                    "{engine}: the drill-down loses {lost:?} alone"
                );
            }
        }
    }
}
