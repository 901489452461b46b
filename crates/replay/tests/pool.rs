//! Worker-pool conformance: the persistent-pool engine behind
//! [`replay::run_replay_with_faults`] must be a bit-identical drop-in
//! for the serial engine, [`replay::reference`], which is kept exactly
//! for this comparison.
//!
//! "Bit-identical" is literal: merged tracker state compares with
//! `==`, alert sequences and quarantine incidents (including captured
//! panic-message strings) compare with `==`, and the deterministic
//! telemetry counters (per-shard packet and SYN counts) must match
//! field for field.
//! Wall-clock fields (ingest/barrier/epoch timings, elapsed) are the
//! only permitted difference.
//!
//! The pool has two ways to get an epoch ingested: it hands a long one
//! to the workers and ingests a short one (≤ 256 frames, no fault to
//! fire on a worker) on the coordinator. Every epoch of
//! [`small_flood`] is short; [`straddling_flood`] has both kinds, and
//! `epochs_inline` says which way each run went.

use faultinject::FaultSchedule;
use replay::{
    reference, resume_from_checkpoint, run_replay, run_replay_lifecycle, run_replay_with_faults,
    IncidentKind, LifecyclePlan, ReplayConfig, ReplayOutcome, ShardIncident,
};
use workloads::{Schedule, SynFloodWorkload};

fn small_flood() -> Schedule {
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

/// Quiet background, then a burst: epochs of a few dozen frames up to
/// 150 ms and of ≈1 000 after, so one run crosses the pool's inline
/// bound in both directions of size.
fn straddling_flood() -> Schedule {
    let (s, _) = SynFloodWorkload {
        background_cps: 500,
        flood_pps: 100_000,
        flood_start: 150_000_000,
        duration: 300_000_000,
        seed: 11,
        ..SynFloodWorkload::default()
    }
    .generate();
    s
}

/// Asserts everything deterministic about two outcomes is equal.
fn assert_outcomes_identical(pool: &ReplayOutcome, refr: &ReplayOutcome, ctx: &str) {
    assert_eq!(pool.merged, refr.merged, "{ctx}: merged state");
    assert_eq!(pool.alerts, refr.alerts, "{ctx}: alerts");
    assert_eq!(pool.detected_at, refr.detected_at, "{ctx}: detection time");
    assert_eq!(pool.packets, refr.packets, "{ctx}: packets");
    assert_eq!(pool.epochs, refr.epochs, "{ctx}: epochs");
    assert_eq!(pool.health, refr.health, "{ctx}: health (incidents included)");
    assert_eq!(
        pool.ensemble, refr.ensemble,
        "{ctx}: ensemble report (per-engine summaries and fired log)"
    );
    assert_eq!(
        pool.provenance, refr.provenance,
        "{ctx}: alert provenance (signals, lineage, drilldown transactions)"
    );

    // Deterministic telemetry: per-shard counters must be identical.
    assert_eq!(
        pool.telemetry.shards.len(),
        refr.telemetry.shards.len(),
        "{ctx}: shard metric sets"
    );
    for (s, (p, r)) in pool
        .telemetry
        .shards
        .iter()
        .zip(&refr.telemetry.shards)
        .enumerate()
    {
        assert_eq!(p.packets, r.packets, "{ctx}: shard {s} packets");
        assert_eq!(p.syn_packets, r.syn_packets, "{ctx}: shard {s} syn_packets");
        assert_eq!(
            p.barrier_wait_ns.count(),
            r.barrier_wait_ns.count(),
            "{ctx}: shard {s} barrier records"
        );
    }
    for (name, p, r) in [
        ("epochs", pool.telemetry.epochs.get(), refr.telemetry.epochs.get()),
        ("alerts", pool.telemetry.alerts.get(), refr.telemetry.alerts.get()),
        (
            "faults_injected",
            pool.telemetry.faults_injected.get(),
            refr.telemetry.faults_injected.get(),
        ),
        (
            "shards_quarantined",
            pool.telemetry.shards_quarantined.get(),
            refr.telemetry.shards_quarantined.get(),
        ),
        (
            "packets_lost",
            pool.telemetry.packets_lost.get(),
            refr.telemetry.packets_lost.get(),
        ),
        (
            "packets_rerouted",
            pool.telemetry.packets_rerouted.get(),
            refr.telemetry.packets_rerouted.get(),
        ),
        (
            "reports_dropped",
            pool.telemetry.reports_dropped.get(),
            refr.telemetry.reports_dropped.get(),
        ),
    ] {
        assert_eq!(p, r, "{ctx}: telemetry counter {name}");
    }
}

#[test]
fn pool_matches_reference_at_every_shard_count() {
    let s = small_flood();
    for shards in [1usize, 2, 4, 8] {
        let cfg = ReplayConfig {
            shards,
            ..ReplayConfig::default()
        };
        let pool = run_replay(&s, &cfg);
        let refr = reference::run_replay(&s, &cfg);
        assert_outcomes_identical(&pool, &refr, &format!("{shards} shards"));
        assert!(!pool.health.degraded());
    }
}

#[test]
fn ensemble_report_is_identical_across_shard_counts() {
    // Sharding must not leak into detection: the merged per-interval
    // state is a pure fold of the shards, and the HyperLogLog register
    // merge is partition-invariant, so the same seed + workload must
    // yield a byte-identical DetectionResult sequence on 1, 2, 4 and
    // 8 shards — under both engines.
    let s = small_flood();
    let baseline = run_replay(
        &s,
        &ReplayConfig {
            shards: 1,
            ..ReplayConfig::default()
        },
    );
    assert!(
        !baseline.ensemble.fired.is_empty(),
        "the flood must trip at least one engine"
    );
    for shards in [2usize, 4, 8] {
        let cfg = ReplayConfig {
            shards,
            ..ReplayConfig::default()
        };
        let pool = run_replay(&s, &cfg);
        assert_eq!(
            pool.ensemble, baseline.ensemble,
            "{shards} shards: ensemble report differs from 1-shard run"
        );
        let refr = reference::run_replay(&s, &cfg);
        assert_eq!(
            refr.ensemble, baseline.ensemble,
            "{shards} shards (reference): ensemble report differs from 1-shard run"
        );
    }
}

/// One run, both paths: the quiet stretch is ingested inline and the
/// burst is dispatched, and the outcome is the reference engine's at
/// every shard count.
#[test]
fn pool_matches_reference_when_epochs_straddle_the_inline_bound() {
    let s = straddling_flood();
    for shards in [1usize, 2, 4, 8] {
        let cfg = ReplayConfig {
            shards,
            ..ReplayConfig::default()
        };
        let ctx = format!("{shards} shards");
        let pool = run_replay(&s, &cfg);
        let refr = reference::run_replay(&s, &cfg);
        assert_outcomes_identical(&pool, &refr, &ctx);
        let inline = pool.telemetry.epochs_inline.get();
        assert!(
            0 < inline && inline < pool.epochs,
            "{ctx}: {inline} of {} epochs inline, wanted both paths taken",
            pool.epochs
        );
        assert_eq!(refr.telemetry.epochs_inline.get(), 0, "{ctx}: reference");
    }
}

/// A panic or a stall scheduled on a short epoch still fires on a
/// worker: that epoch is dispatched, the coordinator (this thread) is
/// not unwound, and the quarantine reads as the reference engine's.
#[test]
fn faults_on_short_epochs_fire_on_a_worker() {
    let s = small_flood();
    let cfg = ReplayConfig {
        shards: 4,
        ..ReplayConfig::default()
    };
    let clean = run_replay(&s, &cfg);
    assert_eq!(
        clean.telemetry.epochs_inline.get(),
        clean.epochs,
        "every epoch of this schedule is under the inline bound"
    );

    let faults = FaultSchedule::parse("shard_panic=2@4,shard_stall=0@7:1000000", 0).unwrap();
    let pool = run_replay_with_faults(&s, &cfg, &faults);
    let refr = reference::run_replay_with_faults(&s, &cfg, &faults);
    assert_outcomes_identical(&pool, &refr, "panic and stall on short epochs");
    assert_eq!(
        pool.health.incidents,
        [ShardIncident {
            shard: 2,
            epoch: 4,
            kind: IncidentKind::Panicked(String::from(
                "injected fault: shard 2 panicked at epoch 4"
            )),
        }]
    );
    assert_eq!(
        pool.telemetry.epochs_inline.get(),
        pool.epochs - 2,
        "the two faulted epochs, and only those, were dispatched"
    );
    let dispatches: Vec<u64> = pool
        .telemetry
        .shards
        .iter()
        .map(|m| m.queue_wait_ns.count())
        .collect();
    // A queue wait is recorded from the worker's reply. Shard 2 was
    // dispatched epoch 4 and panicked before replying, so that dispatch
    // left no record, and it was dead by epoch 7.
    assert_eq!(dispatches, [2, 2, 0, 2]);
}

/// A crash is the coordinator's (the shard is quarantined as the epoch
/// opens, before either path), so a short epoch with one stays inline
/// and loses that shard's slice of it, no more.
#[test]
fn a_crash_on_a_short_epoch_loses_exactly_its_slice() {
    let s = small_flood();
    let cfg = ReplayConfig {
        shards: 4,
        ..ReplayConfig::default()
    };
    let faults = FaultSchedule::parse("shard_crash=1@3", 0).unwrap();
    let pool = run_replay_with_faults(&s, &cfg, &faults);
    let refr = reference::run_replay_with_faults(&s, &cfg, &faults);
    assert_outcomes_identical(&pool, &refr, "crash on a short epoch");
    assert_eq!(pool.telemetry.epochs_inline.get(), pool.epochs);

    // What shard 1 held is gone with it: its history (epochs 0 to 2)
    // and its slice of epoch 3. Everything after reroutes.
    let interval = cfg.detector.interval_ns;
    let gone = s
        .iter()
        .filter(|(t, frame)| t / interval <= 3 && workloads::shard::shard_of(frame, 4) == 1)
        .count() as u64;
    assert!(gone > 0);
    assert_eq!(pool.health.packets_lost, gone);
}

#[test]
fn pool_matches_reference_under_chaos_seeds() {
    // The CI canned schedule plus a nastier mix: a crash, an injected
    // worker panic (exact captured message must round-trip), a stall,
    // and report loss — across several seeds.
    // The last spec puts the same mix on the burst of the straddling
    // schedule, where the faulted epochs are long ones.
    let (small, straddling) = (small_flood(), straddling_flood());
    let cfg = ReplayConfig {
        shards: 4,
        ..ReplayConfig::default()
    };
    for (s, spec) in [
        (&small, "shard_crash=1@3,ctrl_loss=0.30"),
        (&small, "shard_panic=2@4"),
        (&small, "shard_crash=1@3,shard_panic=2@5,shard_stall=0@2:1000000,ctrl_loss=0.30"),
        (&straddling, "shard_crash=1@17,shard_panic=2@20,shard_stall=0@16:1000000,ctrl_loss=0.30"),
    ] {
        for seed in [0u64, 42, 1234] {
            let faults = FaultSchedule::parse(spec, seed).unwrap();
            let pool = run_replay_with_faults(s, &cfg, &faults);
            let refr = reference::run_replay_with_faults(s, &cfg, &faults);
            assert_outcomes_identical(&pool, &refr, &format!("spec {spec:?} seed {seed}"));
        }
    }
}

#[test]
fn pool_matches_reference_when_every_shard_dies() {
    let s = small_flood();
    let cfg = ReplayConfig {
        shards: 2,
        ..ReplayConfig::default()
    };
    let faults = FaultSchedule::parse("shard_crash=0@1,shard_panic=1@1", 0).unwrap();
    let pool = run_replay_with_faults(&s, &cfg, &faults);
    let refr = reference::run_replay_with_faults(&s, &cfg, &faults);
    assert_outcomes_identical(&pool, &refr, "total shard loss");
    assert_eq!(pool.health.shards_alive, 0);
    assert_eq!(pool.merged.packets, 0);
}

#[test]
fn pool_matches_reference_on_empty_schedule() {
    let cfg = ReplayConfig {
        shards: 4,
        ..ReplayConfig::default()
    };
    let pool = run_replay(&Schedule::new(), &cfg);
    let refr = reference::run_replay(&Schedule::new(), &cfg);
    assert_outcomes_identical(&pool, &refr, "empty schedule");
    assert_eq!(pool.epochs, 0);
}

#[test]
fn pool_reports_queue_and_pipeline_telemetry() {
    let s = straddling_flood();
    let cfg = ReplayConfig {
        shards: 4,
        ..ReplayConfig::default()
    };
    let out = run_replay(&s, &cfg);
    let t = &out.telemetry;
    let inline = t.epochs_inline.get();
    for (s_idx, m) in t.shards.iter().enumerate() {
        assert_eq!(
            m.queue_wait_ns.count() + inline,
            out.epochs,
            "shard {s_idx}: one dequeue per epoch that was not ingested inline"
        );
    }
    // Routing: every epoch is hashed and routed once, the first when
    // it starts and the rest while the epoch before is ingested, and
    // its time is sampled when the epoch is taken. Exactly one sample
    // per epoch; nothing is hashed before the first one.
    assert_eq!(t.partition_ns.count(), out.epochs);

    // The reference engine reports none of this.
    let refr = reference::run_replay(&s, &cfg);
    assert_eq!(refr.telemetry.merged_shard().queue_wait_ns.count(), 0);
    assert_eq!(refr.telemetry.partition_ns.count(), 0);
}

/// One routing sample per epoch that ran, on a resumed run too. Nothing
/// routed the first epoch after a resume ahead of time (the run that
/// would have was killed), so it is routed under the restored alive
/// map, where shard 1 is already dead: the same fresh pass a
/// prediction missed by a worker dying on its own takes. Every epoch
/// after it is routed ahead, the injected panic predicted. Each epoch
/// is one sample either way, and the resumed run is the uninterrupted
/// one.
#[test]
fn a_resumed_run_is_still_one_routing_sample_per_epoch() {
    let s = small_flood();
    let cfg = ReplayConfig {
        shards: 3,
        ..ReplayConfig::default()
    };
    let spec = "shard_crash=1@1,shard_panic=2@5";
    let faults = FaultSchedule::parse(spec, 0).unwrap();
    let dir = std::env::temp_dir().join(format!("replay-pool-resume-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let plan = LifecyclePlan {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 2,
        kill_at_epoch: Some(3),
        faults_spec: String::from(spec),
        ..LifecyclePlan::none()
    };
    let _ = run_replay_lifecycle(&s, &cfg, &faults, &plan);
    let plan = LifecyclePlan {
        checkpoint_dir: Some(dir.clone()),
        ..LifecyclePlan::none()
    };
    let (out, report) = resume_from_checkpoint(&s, &cfg, &plan).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(report.resumed_from, Some(0));

    let full = run_replay_with_faults(&s, &cfg, &faults);
    assert_eq!(out.merged, full.merged);
    assert_eq!(out.health, full.health);
    let quarantined: Vec<_> = out.health.incidents.iter().map(|i| (i.shard, i.epoch)).collect();
    assert_eq!(quarantined, [(1, 1), (2, 5)]);
    assert!(out.health.packets_rerouted > 0, "frames were rerouted after the crash");
    // Telemetry starts over at a resume: these count its epochs only.
    let t = &out.telemetry;
    assert!(t.epochs.get() > 1 && t.epochs.get() < out.epochs);
    assert_eq!(t.partition_ns.count(), t.epochs.get());
}

/// What the pool's threads are for: an epoch longer than the inline
/// bound is handed to the workers, which ingest their slices at once,
/// while the reference ingests every shard's slice on one thread, one
/// after the other. So on a flood of ≈10 000 frames per 10 ms epoch a
/// 4-shard pool must beat the serial reference. Gated on core count
/// (four workers need four cores to run at once) and run best-of-3 per
/// engine to shrug off scheduler noise.
#[test]
fn pool_beats_serial_reference_on_dispatched_epochs() {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if cores < 4 {
        eprintln!("skipping pool-vs-reference throughput check: {cores} cores");
        return;
    }
    let (s, _) = SynFloodWorkload {
        background_cps: 500,
        flood_pps: 1_000_000,
        flood_start: 0,
        duration: 300_000_000,
        seed: 11,
        ..SynFloodWorkload::default()
    }
    .generate();
    let cfg = ReplayConfig {
        shards: 4,
        ..ReplayConfig::default()
    };
    let pool = run_replay(&s, &cfg);
    // Every epoch but the trace's trailing frame is handed off.
    assert!(pool.epochs > 30, "{} epochs", pool.epochs);
    assert!(pool.telemetry.epochs_inline.get() <= 1, "every full epoch is dispatched");

    let best = |run: &dyn Fn() -> std::time::Duration| {
        (0..3).map(|_| run()).min().expect("three timed runs")
    };
    let pool_best = best(&|| run_replay(&s, &cfg).elapsed);
    let ref_best = best(&|| reference::run_replay(&s, &cfg).elapsed);
    assert!(
        pool_best < ref_best,
        "4-shard pool ({pool_best:?}) must beat the serial reference ({ref_best:?})"
    );
}

/// The epoch histogram must record what a wall clock actually
/// measured. The old record summed the ingest window with the merge
/// window — double-counting overlap — so `epoch_ns` samples could
/// exceed real time. Every epoch's wall time strictly contains its
/// merge window, so exact sums must dominate.
#[test]
fn epoch_ns_is_wall_time_and_dominates_merge_ns() {
    let s = small_flood();
    for engine in ["pool", "reference"] {
        let cfg = ReplayConfig {
            shards: 4,
            ..ReplayConfig::default()
        };
        let out = if engine == "pool" {
            run_replay(&s, &cfg)
        } else {
            reference::run_replay(&s, &cfg)
        };
        let t = &out.telemetry;
        assert_eq!(t.epoch_ns.count(), out.epochs, "{engine}: one sample per epoch");
        assert_eq!(t.merge_ns.count(), out.epochs, "{engine}: one merge per epoch");
        assert!(
            t.epoch_ns.sum() >= t.merge_ns.sum(),
            "{engine}: epoch wall time ({}) must contain the merge window ({})",
            t.epoch_ns.sum(),
            t.merge_ns.sum()
        );
        assert!(
            u128::from(t.elapsed_ns) >= t.epoch_ns.sum(),
            "{engine}: run wall time ({}) must contain every epoch ({}) — \
             the double-count this regression test guards against",
            t.elapsed_ns,
            t.epoch_ns.sum()
        );
    }
}

/// Every histogram that takes one sample per epoch holds exactly one
/// per epoch, under faults too: nothing decides at run time whether a
/// sample is recorded. The schedule has inline and dispatched epochs,
/// the crash leaves three survivors, and the stalled epoch is
/// dispatched whatever its length.
#[test]
fn sample_counts_are_identities_under_faults() {
    let s = straddling_flood();
    let cfg = ReplayConfig {
        shards: 4,
        ..ReplayConfig::default()
    };
    let faults =
        FaultSchedule::parse("shard_crash=1@3,shard_stall=0@16:1000000,ctrl_loss=0.30", 42)
            .unwrap();
    let pool = run_replay_with_faults(&s, &cfg, &faults);
    let refr = reference::run_replay_with_faults(&s, &cfg, &faults);
    assert!(pool.health.reports_dropped > 0, "the loss rate dropped some report");
    for (engine, out) in [("pool", &pool), ("reference", &refr)] {
        let t = &out.telemetry;
        assert_eq!(t.epoch_ns.count(), out.epochs, "{engine}: one sample per epoch");
        assert_eq!(t.merge_ns.count(), out.epochs, "{engine}: one merge per epoch");
        assert!(
            t.epoch_ns.sum() <= u128::from(t.elapsed_ns),
            "{engine}: the epochs ({}) fit inside the run ({})",
            t.epoch_ns.sum(),
            t.elapsed_ns
        );
    }
    // The pool's own series. Neither fault changes the alive map behind
    // the speculative router's back (the crash lands before epoch 4 is
    // routed), so routing still runs once per epoch.
    let t = &pool.telemetry;
    assert_eq!(t.partition_ns.count(), pool.epochs);
    let inline = t.epochs_inline.get();
    assert!(0 < inline && inline < pool.epochs, "both ingest paths ran");
    for (shard, m) in t.shards.iter().enumerate() {
        if shard == 1 {
            assert_eq!(m.queue_wait_ns.count(), 0, "crashed before the first dispatched epoch");
        } else {
            assert_eq!(
                m.queue_wait_ns.count() + inline,
                pool.epochs,
                "shard {shard}: one dequeue per epoch that was not ingested inline"
            );
        }
    }
}

/// Steady-state barriers ship sparse deltas; quarantines force full
/// rebuilds. Both paths must stay bit-identical across engines — and
/// the delta telemetry itself is deterministic (journals depend only
/// on the frame sequence), so it must match across engines too.
#[test]
fn delta_merges_are_sparse_and_identical_across_engines() {
    let s = small_flood();
    let cfg = ReplayConfig {
        shards: 4,
        ..ReplayConfig::default()
    };

    // Faultless: exactly one rebuild (the first barrier), everything
    // else rides the delta path.
    let pool = run_replay(&s, &cfg);
    let refr = reference::run_replay(&s, &cfg);
    assert_outcomes_identical(&pool, &refr, "faultless delta merges");
    for (name, out) in [("pool", &pool), ("reference", &refr)] {
        let t = &out.telemetry;
        assert_eq!(t.merge_rebuilds.get(), 1, "{name}: only the first barrier rebuilds");
        assert!(t.merge_delta_bytes.get() > 0, "{name}: deltas shipped");
        assert!(
            t.merge_skipped_registers.get() > 0,
            "{name}: untouched registers skipped"
        );
    }
    for (name, p, r) in [
        ("merge_rebuilds", pool.telemetry.merge_rebuilds.get(), refr.telemetry.merge_rebuilds.get()),
        (
            "merge_delta_bytes",
            pool.telemetry.merge_delta_bytes.get(),
            refr.telemetry.merge_delta_bytes.get(),
        ),
        (
            "merge_skipped_registers",
            pool.telemetry.merge_skipped_registers.get(),
            refr.telemetry.merge_skipped_registers.get(),
        ),
    ] {
        assert_eq!(p, r, "faultless: delta telemetry counter {name}");
    }

    // A quarantined shard's carried-forward state must leave the
    // merged view through a rebuild, then the survivors resume the
    // delta path — outcomes stay identical and the rebuild count shows
    // both transitions (first barrier + post-quarantine).
    let faults = FaultSchedule::parse("shard_crash=1@3,shard_panic=2@5", 7).unwrap();
    let pool = run_replay_with_faults(&s, &cfg, &faults);
    let refr = reference::run_replay_with_faults(&s, &cfg, &faults);
    assert_outcomes_identical(&pool, &refr, "quarantine through the delta path");
    assert_eq!(pool.health.incidents.len(), 2);
    for (name, out) in [("pool", &pool), ("reference", &refr)] {
        let t = &out.telemetry;
        assert_eq!(
            t.merge_rebuilds.get(),
            3,
            "{name}: first barrier + one rebuild per quarantine epoch"
        );
        assert!(t.merge_delta_bytes.get() > 0, "{name}: survivors still delta-merge");
    }
    assert_eq!(
        pool.telemetry.merge_delta_bytes.get(),
        refr.telemetry.merge_delta_bytes.get(),
        "chaos: delta bytes identical across engines"
    );
    assert_eq!(
        pool.telemetry.merge_skipped_registers.get(),
        refr.telemetry.merge_skipped_registers.get(),
        "chaos: skipped registers identical across engines"
    );
}

/// With every shard quarantined the merged view is empty, so the
/// median estimate has no answer. That used to be silently flattened
/// to 0; now each fallback is counted — identically on both engines.
#[test]
fn total_shard_loss_counts_median_fallbacks() {
    let s = small_flood();
    let cfg = ReplayConfig {
        shards: 2,
        ..ReplayConfig::default()
    };
    let faults = FaultSchedule::parse("shard_crash=0@1,shard_panic=1@1", 0).unwrap();
    let pool = run_replay_with_faults(&s, &cfg, &faults);
    let refr = reference::run_replay_with_faults(&s, &cfg, &faults);
    assert_outcomes_identical(&pool, &refr, "total loss median fallback");
    assert!(
        pool.telemetry.median_fallbacks.get() > 0,
        "empty merged state must be counted, not silently zeroed"
    );
    assert_eq!(
        pool.telemetry.median_fallbacks.get(),
        refr.telemetry.median_fallbacks.get(),
        "median fallbacks identical across engines"
    );
}
