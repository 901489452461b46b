//! The traced pass: a workload's own input replayed stage by stage
//! through the public functions the engines call, one span per stage
//! per epoch. The engines themselves are not instrumented here (spans
//! inside the program are a later change); what this pass adds is
//! proof that it did the same work — its final state must equal the
//! real run's — and therefore that its stage times are the real
//! run's costs, minus what the pass leaves out on purpose: channels,
//! thread wake-ups, provenance capture and the engine's own telemetry.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use anomaly::synflood::KIND_SYN;
use anomaly::{DetectionResult, ScoreDrilldown, SignalContext};
use faultinject::ShardFaultKind;
use replay::{build_ensemble, parse_frame, FrameMeta, ReplayConfig, ShardState};
use telemetry::{MergedTrace, TracePhase, Tracer};

use crate::workload::{P4Observed, P4Workload, ReplayWorkload};

pub const EPOCH: &str = "epoch";
pub const PARSE: &str = "replay.parse_frame";
pub const ROUTE: &str = "workloads.route";
pub const INGEST: &str = "replay.ingest_meta";
pub const FREQ: &str = "stat4-core.freq_observe";
pub const RUNNING: &str = "stat4-core.running_push";
pub const PERCENTILE: &str = "stat4-core.percentile_observe";
pub const CMS: &str = "stat4-core.cms_update";
pub const HLL: &str = "stat4-core.hll_observe";
pub const TAKE_DELTA: &str = "replay.take_delta";
pub const APPLY_DELTA: &str = "replay.apply_delta";
pub const MERGE_FROM: &str = "replay.merge_from";
pub const CLOSE: &str = "replay.close_interval";
pub const ENSEMBLE: &str = "anomaly.ensemble_observe";
pub const DRILLDOWN: &str = "anomaly.drilldown_observe";
pub const P4_PARSE: &str = "p4sim.parse_frame";
pub const P4_PROCESS: &str = "p4sim.process_phv";
pub const P4_TAKE_DELTA: &str = "p4sim.take_register_delta";

/// Per-packet stages of the replay pass. With [`REPLAY_PER_EPOCH`],
/// the stages the real run also executes; their sum is what
/// `harness.layers_sum_share` compares with the real rep.
pub const REPLAY_PER_PACKET: [&str; 3] = [PARSE, ROUTE, INGEST];
/// Per-epoch stages of the replay pass.
pub const REPLAY_PER_EPOCH: [&str; 6] = [
    TAKE_DELTA,
    APPLY_DELTA,
    MERGE_FROM,
    CLOSE,
    ENSEMBLE,
    DRILLDOWN,
];
/// A second, tracker-by-tracker pass over the same frames that breaks
/// `replay.ingest_meta` down; in no sum.
pub const TRACKERS: [&str; 5] = [FREQ, RUNNING, PERCENTILE, CMS, HLL];
/// The stages of the P4 pass that the real run also executes.
/// `p4sim.take_register_delta` is not one: `process_frame` never takes
/// a delta.
pub const P4_SUM: [&str; 2] = [P4_PARSE, P4_PROCESS];

/// Span recorder of one pass; `off` records nothing and reads no
/// clock, which is what tracing overhead is measured against.
pub struct Spans {
    tracer: Option<Tracer>,
}

impl Spans {
    /// Large enough for every pass here (the longest, 2 000 epochs of
    /// two shards, records ≈90 000 events); a pass that overflows it
    /// fails its check, since drops are counted.
    const CAPACITY: usize = 1 << 20;

    #[must_use]
    pub fn recording() -> Self {
        Self {
            tracer: Some(Tracer::new(Self::CAPACITY)),
        }
    }

    #[must_use]
    pub fn off() -> Self {
        Self { tracer: None }
    }

    fn begin(&mut self, name: &'static str, epoch: u64) {
        if let Some(t) = &mut self.tracer {
            t.begin(name, epoch);
        }
    }

    fn end(&mut self, name: &'static str, epoch: u64) {
        if let Some(t) = &mut self.tracer {
            t.end(name, epoch);
        }
    }

    /// Total nanoseconds inside spans of each name.
    #[must_use]
    pub fn totals(&self) -> BTreeMap<&'static str, u64> {
        let mut totals = BTreeMap::new();
        let mut open: Vec<u64> = Vec::new();
        for e in self.tracer.iter().flat_map(|t| t.events()) {
            match e.phase {
                TracePhase::Begin => open.push(e.at_ns),
                TracePhase::End => {
                    // begin/end are only ever called in matched pairs.
                    let began = open.pop().expect("every end follows its begin");
                    *totals.entry(e.name).or_insert(0) += e.at_ns - began;
                }
                TracePhase::Instant => {}
            }
        }
        totals
    }

    /// The Chrome-trace document `telemetry::check_trace` validates.
    #[must_use]
    pub fn chrome_json(&self) -> String {
        MergedTrace::merge(self.tracer.iter()).to_chrome_json()
    }
}

/// What the staged replay pass ended with.
pub struct StagedReplay {
    /// Fold of the shard states fed by `ingest_meta`.
    pub merged: ShardState,
    /// Fold of the twins fed tracker by tracker.
    pub twin: ShardState,
    pub fired: Vec<DetectionResult>,
    pub epochs: u64,
    /// Epochs whose barrier shipped deltas (the rest rebuilt).
    pub delta_epochs: u64,
    /// `ShardDelta::wire_bytes` over all delta epochs.
    pub delta_bytes: u64,
    pub wall_s: f64,
}

fn next_alive(alive: &[bool], home: usize) -> Option<usize> {
    (1..alive.len())
        .map(|d| (home + d) % alive.len())
        .find(|&s| alive[s])
}

fn fold(states: &[ShardState], alive: &[bool], cfg: &ReplayConfig) -> ShardState {
    let mut merged = ShardState::new(cfg);
    for (st, _) in states.iter().zip(alive).filter(|(_, a)| **a) {
        merged
            .merge_from(st)
            .expect("states built from one config merge");
    }
    merged
}

/// Replays `w`'s schedule serially on this thread with the engines'
/// semantics: flow-affine routing with ring reroutes around crashed
/// shards, a delta barrier that rebuilds when the alive map changes,
/// carried counts across lost reports, the ensemble and the drilldown
/// ladder on the merged view.
///
/// # Panics
///
/// Panics on a scheduled fault other than a crash: the harness's
/// workloads schedule none, and a stall or panic has no serial model.
#[must_use]
pub fn replay_staged(w: &ReplayWorkload, spans: &mut Spans) -> StagedReplay {
    let cfg = &w.cfg;
    let shards = cfg.shards;
    let interval = cfg.detector.interval_ns;
    let mut states: Vec<ShardState> = (0..shards).map(|_| ShardState::new(cfg)).collect();
    let mut twins = states.clone();
    let mut alive = vec![true; shards];
    let mut acc: Option<(ShardState, Vec<bool>)> = None;
    let mut ensemble = build_ensemble(cfg);
    let mut drill = ScoreDrilldown::new(cfg.ensemble.trigger);
    let (mut carried_syns, mut carried_packets, mut carried_len_sum, mut carried_epochs) =
        (0i64, 0i64, 0i64, 0i64);
    let mut metas: Vec<FrameMeta> = Vec::new();
    let mut lists: Vec<Vec<FrameMeta>> = vec![Vec::new(); shards];
    let (mut epochs, mut delta_epochs, mut delta_bytes) = (0u64, 0u64, 0u64);

    let t0 = Instant::now();
    let mut rest = &w.schedule[..];
    while let Some((first, _)) = rest.first() {
        let epoch = first / interval;
        let n = rest
            .iter()
            .take_while(|(t, _)| t / interval == epoch)
            .count();
        let (frames, tail) = rest.split_at(n);
        rest = tail;
        epochs += 1;
        spans.begin(EPOCH, epoch);

        spans.begin(PARSE, epoch);
        metas.clear();
        metas.extend(frames.iter().map(|(_, f)| parse_frame(f)));
        spans.end(PARSE, epoch);

        spans.begin(ROUTE, epoch);
        let homes = workloads::shard::assignments(frames, shards);
        lists.iter_mut().for_each(Vec::clear);
        for (m, home) in metas.iter().zip(homes) {
            let target = if alive[home] {
                Some(home)
            } else {
                next_alive(&alive, home)
            };
            if let Some(t) = target {
                lists[t].push(*m);
            }
        }
        spans.end(ROUTE, epoch);

        // A crash takes the shard out before it ingests: its slice of
        // this epoch is lost and its history leaves the merged view.
        for (s, a) in alive.iter_mut().enumerate().filter(|(_, a)| **a) {
            match w.faults.shard_fault(epoch, s) {
                Some(ShardFaultKind::Crash) => *a = false,
                Some(other) => panic!("staged replay has no model of {other:?}"),
                None => {}
            }
        }
        let live = |s: &usize| alive[*s];

        spans.begin(INGEST, epoch);
        for s in (0..shards).filter(live) {
            for m in &lists[s] {
                states[s].ingest_meta(m);
            }
        }
        spans.end(INGEST, epoch);

        // The same frames again, one tracker at a time.
        let mut twin_stage = |name, observe: &dyn Fn(&mut ShardState, &[FrameMeta])| {
            spans.begin(name, epoch);
            for s in (0..shards).filter(live) {
                observe(&mut twins[s], &lists[s]);
            }
            spans.end(name, epoch);
        };
        twin_stage(FREQ, &|tw, metas| {
            for m in metas {
                let _ = tw.kinds.observe(m.kind);
            }
        });
        twin_stage(RUNNING, &|tw, metas| {
            metas.iter().for_each(|m| tw.len_stats.push(m.len))
        });
        twin_stage(PERCENTILE, &|tw, metas| {
            for m in metas {
                let _ = tw.len_median.observe(m.len);
            }
        });
        twin_stage(CMS, &|tw, metas| {
            metas.iter().for_each(|m| tw.dst_sketch.update(m.dst, 1))
        });
        twin_stage(HLL, &|tw, metas| {
            metas.iter().for_each(|m| tw.src_hll.observe(m.src))
        });
        for s in (0..shards).filter(live) {
            let tw = &mut twins[s];
            let n = lists[s].len();
            tw.packets += n as u64;
            tw.packets_in_interval += n as i64;
            tw.len_sum_in_interval += lists[s].iter().map(|m| m.len).sum::<i64>();
            tw.syn_in_interval += lists[s].iter().filter(|m| m.kind == KIND_SYN).count() as i64;
        }

        // Barrier.
        match &mut acc {
            Some((merged, built_over)) if *built_over == alive => {
                merged.syn_in_interval = 0;
                merged.packets_in_interval = 0;
                merged.len_sum_in_interval = 0;
                merged.src_hll.reset();
                for s in (0..shards).filter(live) {
                    spans.begin(TAKE_DELTA, epoch);
                    let delta = states[s].take_delta();
                    spans.end(TAKE_DELTA, epoch);
                    delta_bytes += delta.wire_bytes();
                    spans.begin(APPLY_DELTA, epoch);
                    merged
                        .apply_delta(&delta)
                        .expect("a delta of the same geometry applies");
                    spans.end(APPLY_DELTA, epoch);
                }
                delta_epochs += 1;
            }
            _ => {
                spans.begin(MERGE_FROM, epoch);
                let merged = fold(&states, &alive, cfg);
                spans.end(MERGE_FROM, epoch);
                for s in (0..shards).filter(live) {
                    states[s].discard_delta();
                }
                acc = Some((merged, alive.clone()));
            }
        }
        let merged = &acc.as_ref().expect("the barrier just ran").0;

        // Detection, unless this epoch's report is lost on its way.
        if w.faults.drop_epoch_report(epoch) {
            carried_syns += merged.syn_in_interval;
            carried_packets += merged.packets_in_interval;
            carried_len_sum += merged.len_sum_in_interval;
            carried_epochs += 1;
        } else {
            // Building the context (HLL estimate, median read) is part
            // of what the coordinator pays to observe.
            spans.begin(ENSEMBLE, epoch);
            let spanned = carried_epochs + 1;
            let ctx = SignalContext {
                at: (epoch + 1) * interval,
                epoch,
                interval_ns: interval,
                spanned,
                packets: (merged.packets_in_interval + carried_packets) / spanned,
                syns: (merged.syn_in_interval + carried_syns) / spanned,
                len_sum: (merged.len_sum_in_interval + carried_len_sum) / spanned,
                distinct_sources: i64::try_from(merged.src_hll.estimate()).unwrap_or(i64::MAX),
                median_len: merged.len_median.estimate(0).unwrap_or(0),
                kinds: &merged.kinds,
                len_stats: &merged.len_stats,
            };
            let verdict = ensemble.observe(&ctx);
            spans.end(ENSEMBLE, epoch);
            spans.begin(DRILLDOWN, epoch);
            black_box(drill.observe(&verdict));
            spans.end(DRILLDOWN, epoch);
            (
                carried_syns,
                carried_packets,
                carried_len_sum,
                carried_epochs,
            ) = (0, 0, 0, 0);
        }

        spans.begin(CLOSE, epoch);
        states.iter_mut().for_each(ShardState::close_interval);
        spans.end(CLOSE, epoch);
        for tw in &mut twins {
            tw.close_interval();
            tw.discard_delta();
        }
        spans.end(EPOCH, epoch);
    }

    // The engines' final fold, over the closed states.
    let last = w.schedule.last().map_or(0, |(t, _)| t / interval);
    spans.begin(MERGE_FROM, last);
    let merged = fold(&states, &alive, cfg);
    spans.end(MERGE_FROM, last);
    let wall_s = t0.elapsed().as_secs_f64();
    StagedReplay {
        merged,
        twin: fold(&twins, &alive, cfg),
        fired: ensemble.fired_log,
        epochs,
        delta_epochs,
        delta_bytes,
        wall_s,
    }
}

/// What the staged P4 pass ended with.
pub struct StagedP4 {
    pub observed: P4Observed,
    pub epochs: u64,
    pub wall_s: f64,
}

/// Runs `w`'s schedule through a clone of its pipeline one case-study
/// interval at a time: parse the interval's frames, then process the
/// parsed headers, then take the register delta a controller would
/// poll. Parsing is pure, so the result equals `process_frame` per
/// frame.
///
/// # Panics
///
/// Panics if the interpreter rejects a generated frame, which the
/// case-study program never does.
#[must_use]
pub fn p4_staged(w: &P4Workload, spans: &mut Spans) -> StagedP4 {
    let mut pipeline = w.pipeline.clone();
    let mut phvs = Vec::new();
    let mut digests = Vec::new();
    let (mut steps, mut epochs) = (0u64, 0u64);

    let t0 = Instant::now();
    let mut rest = &w.schedule[..];
    while let Some((first, _)) = rest.first() {
        let epoch = first / w.interval_ns;
        let n = rest
            .iter()
            .take_while(|(t, _)| t / w.interval_ns == epoch)
            .count();
        let (frames, tail) = rest.split_at(n);
        rest = tail;
        epochs += 1;
        spans.begin(EPOCH, epoch);

        spans.begin(P4_PARSE, epoch);
        phvs.clear();
        phvs.extend(frames.iter().map(|(t, f)| p4sim::parse_frame(f, 1, *t)));
        spans.end(P4_PARSE, epoch);

        spans.begin(P4_PROCESS, epoch);
        for (phv, (t, _)) in phvs.iter_mut().zip(frames) {
            let outcome = pipeline
                .process_phv(phv)
                .expect("the case-study program accepts every generated frame");
            steps += outcome.steps;
            digests.extend(outcome.digests.into_iter().map(|d| (*t, d)));
        }
        spans.end(P4_PROCESS, epoch);

        spans.begin(P4_TAKE_DELTA, epoch);
        black_box(pipeline.take_register_delta());
        spans.end(P4_TAKE_DELTA, epoch);
        spans.end(EPOCH, epoch);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    StagedP4 {
        observed: P4Observed {
            digests,
            state: pipeline.export_state(),
            steps,
        },
        epochs,
        wall_s,
    }
}
