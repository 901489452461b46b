//! The epoch coordinator: what a replay decides about an epoch, once.
//!
//! The paper's controller does one thing per interval: read the merged
//! registers, judge them, drill down. [`EpochCoordinator`] is that
//! step and the state it needs between intervals. An executor (the
//! worker pool in [`mod@crate::pool`], the serial loop in
//! [`crate::reference`]) owns routing and threads and nothing else: it
//! asks for the epoch's fault plan ([`EpochCoordinator::open_epoch`]),
//! gets the frames ingested however it likes, and hands the epoch back
//! ([`EpochCoordinator::close_epoch`]). What the detectors see is
//! therefore the same under either executor by construction.
//!
//! The struct is also the resume state: [`EpochCoordinator::checkpoint`]
//! exports it and [`EpochCoordinator::restore`] takes a checkpoint back
//! after checking that it describes a state a run could have been in.

use crate::barrier::BarrierMerger;
use crate::ckpt::{Checkpoint, ShardStateRaw};
use crate::provenance::{AlertProvenanceRecord, LineageSources};
use crate::{
    build_ensemble, median_len_signal, merge_surviving, EnsembleReport, IncidentKind, ReplayConfig,
    ReplayHealth, ReplayOutcome, ReplayTelemetry, ShardIncident, ShardMetrics, ShardState,
};
use anomaly::{Ensemble, ScoreDrilldown, SignalContext, SynFloodDetector};
use faultinject::{FaultSchedule, ShardFaultKind};
use std::ops::Range;
use std::time::Instant;
use telemetry::json::Raw;
use telemetry::Tracer;
use workloads::Schedule;

#[inline]
pub(crate) fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// What a scheduled fault does on the thread that ingests the shard
/// (a pool worker, or the reference engine's caller). It fires
/// before any ingest (and before the shard's span opens), so a
/// quarantined state is always a clean epoch boundary.
pub(crate) fn fire_on_worker(fault: Option<ShardFaultKind>, shard: usize, epoch_idx: u64) {
    match fault {
        Some(ShardFaultKind::Panic) => {
            panic!("injected fault: shard {shard} panicked at epoch {epoch_idx}")
        }
        Some(ShardFaultKind::Stall { ns }) => {
            std::thread::sleep(std::time::Duration::from_nanos(ns));
        }
        _ => {}
    }
}

/// What one shard's epoch came to, on whichever thread ingested it.
pub(crate) struct Ingested {
    pub(crate) frames: u64,
    pub(crate) busy_ns: u64,
    /// `None` where nothing was queued: an inline epoch of the pool, and
    /// every epoch of the reference.
    pub(crate) queue_wait_ns: Option<u64>,
}

/// One shard's share of one epoch, on whichever thread holds the state:
/// a pool worker for a dispatched epoch, the pool's coordinator for an
/// inline one, the caller of the reference engine for every one. Every
/// frame goes through [`ShardState::ingest`]. Returns the busy time,
/// which is also the `ingest` span on the shard's `tracer`.
pub(crate) fn ingest_epoch(
    state: &mut ShardState,
    frames: &[&bytes::Bytes],
    tracer: &mut Tracer,
    epoch_idx: u64,
) -> u64 {
    tracer.begin("ingest", epoch_idx);
    let busy = Instant::now();
    for frame in frames {
        state.ingest(frame);
    }
    let busy_ns = elapsed_ns(busy);
    tracer.end("ingest", epoch_idx);
    busy_ns
}

/// Folds one shard's epoch into its metric set.
pub(crate) fn record_ingest(m: &mut ShardMetrics, r: &Ingested, epoch_wall: u64) {
    m.packets.add(r.frames);
    m.ingest_ns.add(r.busy_ns);
    if let Some(waited) = r.queue_wait_ns {
        m.queue_wait_ns.record(waited);
    }
    m.barrier_wait_ns.record(epoch_wall.saturating_sub(r.busy_ns));
}

/// One epoch between its fault plan and its barrier.
pub(crate) struct OpenEpoch {
    pub(crate) epoch_idx: u64,
    /// Per shard, the fault to fire on its worker this epoch (`None`
    /// for a shard that was already dead). The coordinator's buffer,
    /// lent for the epoch.
    pub(crate) faults: Vec<Option<ShardFaultKind>>,
    rerouted: u64,
    incidents_before: usize,
    /// First failure of this epoch: the time-to-recover clock's start.
    recover_started: Option<Instant>,
}

pub(crate) struct EpochCoordinator {
    pub(crate) cfg: ReplayConfig,
    /// Home slots of the shard states: `Some` while the coordinator
    /// holds the state, `None` while an executor has it out with a
    /// worker (or it died with one). A quarantined shard's state may
    /// stay parked here; `alive` is what excludes it from merges.
    pub(crate) states: Vec<Option<ShardState>>,
    pub(crate) alive: Vec<bool>,
    incidents: Vec<ShardIncident>,
    pub(crate) ensemble: Ensemble,
    /// Fed every delivered verdict; each trigger yields one provenance
    /// record.
    drill: ScoreDrilldown,
    provenance: Vec<AlertProvenanceRecord>,
    /// Keeps the previous barrier's merged view and folds per-shard
    /// deltas into it. A restored coordinator starts with no
    /// accumulator, so its first barrier rebuilds from the restored
    /// states.
    merger: BarrierMerger,
    packets: u64,
    epochs: u64,
    packets_rerouted: u64,
    reports_dropped: u64,
    // Counts from intervals whose epoch report was lost, folded into
    // the next delivered report (switch registers are cumulative). That
    // report spans `carried_epochs + 1` intervals and the engines
    // observe the per-interval average, so a run of dropped reports
    // does not masquerade as a spike. HLL registers are not carried: a
    // dropped interval's distinct-source registers wash at its barrier.
    carried_syns: i64,
    carried_packets: i64,
    carried_len_sum: i64,
    carried_epochs: i64,
    /// Epoch ordinals of the carried (dropped) reports: alert lineage.
    carried_from: Vec<u64>,
    /// The run's one fault-plan buffer: an open epoch holds it as
    /// [`OpenEpoch::faults`] and its close hands it back.
    fault_plan: Vec<Option<ShardFaultKind>>,
    pub(crate) telemetry: ReplayTelemetry,
}

impl EpochCoordinator {
    /// The coordinator of a run that has closed no epoch.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.shards` is zero.
    pub(crate) fn fresh(cfg: &ReplayConfig) -> Self {
        assert!(cfg.shards >= 1, "need at least one shard");
        Self {
            cfg: *cfg,
            states: (0..cfg.shards).map(|_| Some(ShardState::new(cfg))).collect(),
            alive: vec![true; cfg.shards],
            incidents: Vec::new(),
            ensemble: build_ensemble(cfg),
            drill: ScoreDrilldown::new(cfg.ensemble.trigger),
            provenance: Vec::new(),
            merger: BarrierMerger::new(),
            packets: 0,
            epochs: 0,
            packets_rerouted: 0,
            reports_dropped: 0,
            carried_syns: 0,
            carried_packets: 0,
            carried_len_sum: 0,
            carried_epochs: 0,
            carried_from: Vec::new(),
            fault_plan: Vec::new(),
            telemetry: ReplayTelemetry::new(cfg.shards),
        }
    }

    /// The coordinator `c` was exported from, for a run under `cfg`. A
    /// checkpoint is input from disk and its checksum is no secret, so
    /// every field the epoch loop indexes or divides by is checked,
    /// every shard and detector must take its state back, and every
    /// shard state must be one a run holds at a drain point
    /// ([`ShardState::check_drained`]). This is the one door through
    /// which a state not built by [`ShardState::new`] enters, so no
    /// barrier checks again.
    ///
    /// # Errors
    ///
    /// The first reason `c` is not a state such a run could have
    /// exported.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.shards` is zero.
    pub(crate) fn restore(c: &Checkpoint, cfg: &ReplayConfig) -> Result<Self, String> {
        assert!(cfg.shards >= 1, "need at least one shard");
        if c.alive.len() != cfg.shards || c.shards.len() != cfg.shards {
            return Err(format!(
                "coordinator state lists {} alive flag(s) and {} shard slot(s) for a {}-shard run",
                c.alive.len(),
                c.shards.len(),
                cfg.shards
            ));
        }
        if let Some(s) = (0..cfg.shards).find(|&s| c.alive[s] && c.shards[s].is_none()) {
            return Err(format!("shard {s} is marked alive but its state is absent"));
        }
        if usize::try_from(c.carried_epochs).ok() != Some(c.carried_from.len()) {
            return Err(format!(
                "carried_epochs is {} but carried_from lists {} dropped report(s)",
                c.carried_epochs,
                c.carried_from.len()
            ));
        }
        for (name, v) in [
            ("carried_syns", c.carried_syns),
            ("carried_packets", c.carried_packets),
            ("carried_len_sum", c.carried_len_sum),
        ] {
            if v < 0 {
                return Err(format!("{name} is negative ({v})"));
            }
        }
        let states = c.shards.iter().enumerate().map(|(s, raw)| {
            raw.as_ref()
                .map(|r| {
                    r.restore()
                        .and_then(|state| state.check_drained(cfg).map(|()| state))
                        .map_err(|e| format!("shard {s}: {e}"))
                })
                .transpose()
        });
        let (ensemble, drill) = c.rebuild_detection(cfg)?;
        Ok(Self {
            cfg: *cfg,
            states: states.collect::<Result<_, String>>()?,
            alive: c.alive.clone(),
            incidents: c.incidents.clone(),
            ensemble,
            drill,
            provenance: c.provenance.clone(),
            merger: BarrierMerger::new(),
            packets: c.packets,
            epochs: c.epochs,
            packets_rerouted: c.packets_rerouted,
            reports_dropped: c.reports_dropped,
            carried_syns: c.carried_syns,
            carried_packets: c.carried_packets,
            carried_len_sum: c.carried_len_sum,
            carried_epochs: c.carried_epochs,
            carried_from: c.carried_from.clone(),
            fault_plan: Vec::new(),
            telemetry: ReplayTelemetry::new(cfg.shards),
        })
    }

    /// The coordinator's half of a checkpoint, taken at a drain point
    /// (every surviving state home). Where in which run this is (the
    /// ordinals, the schedule and fault identity, the lifecycle
    /// generation and shadow registers) is not the coordinator's to
    /// know: those fields come back empty for the drain point to fill.
    pub(crate) fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            next_ordinal: 0,
            checkpoint_ordinal: 0,
            cfg_shards: self.cfg.shards,
            cfg_interval_ns: self.cfg.detector.interval_ns,
            schedule_packets: 0,
            faults_spec: String::new(),
            fault_seed: 0,
            packets: self.packets,
            epochs: self.epochs,
            packets_rerouted: self.packets_rerouted,
            reports_dropped: self.reports_dropped,
            carried_syns: self.carried_syns,
            carried_packets: self.carried_packets,
            carried_len_sum: self.carried_len_sum,
            carried_epochs: self.carried_epochs,
            carried_from: self.carried_from.clone(),
            alive: self.alive.clone(),
            shards: self
                .states
                .iter()
                .map(|s| s.as_ref().map(ShardStateRaw::of))
                .collect(),
            incidents: self.incidents.clone(),
            ensemble: Raw::of(|out| self.ensemble.export_state(out)),
            drill: Raw::of(|out| self.drill.export_state(out)),
            provenance: self.provenance.clone(),
            generation: 0,
            swaps_committed: 0,
            pipeline: None,
        }
    }

    fn interval(&self) -> u64 {
        self.cfg.detector.interval_ns.max(1)
    }

    /// Cuts a time-sorted schedule into epochs, one detector interval
    /// each: `(epoch index, frame range)` for every contiguous run of
    /// `t / interval`.
    pub(crate) fn epoch_ranges(&self, schedule: &Schedule) -> Vec<(u64, Range<usize>)> {
        let interval = self.interval();
        let mut ranges = Vec::new();
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
        ranges
    }

    /// Takes `shard` out of the run. An executor calls this for a
    /// worker that died (`Panicked` with its payload); whatever state
    /// the worker had out is lost with it.
    pub(crate) fn quarantine(&mut self, open: &mut OpenEpoch, shard: usize, kind: IncidentKind) {
        open.recover_started.get_or_insert_with(Instant::now);
        self.alive[shard] = false;
        self.incidents.push(ShardIncident {
            shard,
            epoch: open.epoch_idx,
            kind,
        });
    }

    /// Opens an epoch of `frames` frames, `rerouted` of which the
    /// executor's routing sent to a survivor of their home shard, and
    /// draws its fault plan. A scheduled crash quarantines its shard
    /// here, before any dispatch, so the crashed shard's slice of this
    /// interval is lost and its state stays parked in its slot.
    pub(crate) fn open_epoch(
        &mut self,
        epoch_idx: u64,
        frames: usize,
        rerouted: u64,
        faults: &FaultSchedule,
    ) -> OpenEpoch {
        self.packets += frames as u64;
        self.packets_rerouted += rerouted;
        let mut plan = std::mem::take(&mut self.fault_plan);
        plan.clear();
        plan.extend(
            self.alive
                .iter()
                .enumerate()
                .map(|(s, &alive)| alive.then(|| faults.shard_fault(epoch_idx, s)).flatten()),
        );
        let mut open = OpenEpoch {
            epoch_idx,
            faults: plan,
            rerouted,
            incidents_before: self.incidents.len(),
            recover_started: None,
        };
        for s in 0..self.cfg.shards {
            let Some(kind) = open.faults[s] else { continue };
            self.telemetry.faults_injected.inc();
            if kind == ShardFaultKind::Crash {
                self.quarantine(&mut open, s, IncidentKind::Crashed);
            }
        }
        open
    }

    /// The epoch barrier, with every surviving state back in its slot:
    /// merge, then either carry a lost report forward or let the
    /// ensemble judge the merged interval and the ladder drill down,
    /// then quarantine bookkeeping and the interval wash on every shard.
    /// `started` is when the executor began dispatching the epoch.
    pub(crate) fn close_epoch(
        &mut self,
        open: OpenEpoch,
        faults: &FaultSchedule,
        started: Instant,
    ) {
        let epoch_idx = open.epoch_idx;
        let interval = self.interval();
        let t = &mut self.telemetry;
        self.epochs += 1;

        // Merging is serialized on the coordinator under every
        // executor.
        t.trace.begin("merge", epoch_idx);
        let merge_started = Instant::now();
        let stats = self.merger.merge(&mut self.states, &self.alive, &self.cfg);
        let merged = self.merger.merged();
        let merge_ns = elapsed_ns(merge_started);
        t.trace.end("merge", epoch_idx);
        t.merge_ns.record(merge_ns);
        t.merge_delta_bytes.add(stats.delta_bytes);
        t.merge_skipped_registers.add(stats.skipped_registers);
        if stats.rebuilt {
            t.merge_rebuilds.inc();
        }

        if faults.drop_epoch_report(epoch_idx) {
            self.reports_dropped += 1;
            t.reports_dropped.inc();
            t.trace.instant("report_dropped", epoch_idx);
            self.carried_syns += merged.syn_in_interval;
            self.carried_packets += merged.packets_in_interval;
            self.carried_len_sum += merged.len_sum_in_interval;
            self.carried_epochs += 1;
            self.carried_from.push(epoch_idx);
        } else {
            t.trace.begin("detect", epoch_idx);
            let span = self.carried_epochs + 1;
            let ctx = SignalContext {
                at: (epoch_idx + 1) * interval,
                epoch: epoch_idx,
                interval_ns: interval,
                spanned: span,
                packets: (merged.packets_in_interval + self.carried_packets) / span,
                syns: (merged.syn_in_interval + self.carried_syns) / span,
                len_sum: (merged.len_sum_in_interval + self.carried_len_sum) / span,
                distinct_sources: i64::try_from(merged.src_hll.estimate()).unwrap_or(i64::MAX),
                median_len: median_len_signal(&merged.len_median, &mut t.median_fallbacks),
                kinds: &merged.kinds,
                len_stats: &merged.len_stats,
            };
            let verdict = self.ensemble.observe(&ctx);
            if let Some(outcome) = self.drill.observe(&verdict) {
                if !outcome.transactions.is_empty() {
                    t.trace.instant("rebind", epoch_idx);
                }
                let delivered = (0..self.cfg.shards).filter(|&s| self.alive[s]).collect();
                self.provenance.push(AlertProvenanceRecord::capture(
                    self.provenance.len() as u64,
                    &ctx,
                    &verdict,
                    outcome,
                    LineageSources {
                        delivered_shards: delivered,
                        carried_from: &self.carried_from,
                        rerouted_frames: open.rerouted,
                        incidents: &self.incidents,
                    },
                ));
            }
            t.trace.end("detect", epoch_idx);
            if !verdict.fired.is_empty() {
                t.trace.instant("alert", epoch_idx);
            }
            self.carried_syns = 0;
            self.carried_packets = 0;
            self.carried_len_sum = 0;
            self.carried_epochs = 0;
            self.carried_from.clear();
        }
        // Wall time of the whole epoch, dispatch through merge and
        // detection: one clock reading, so no sample can exceed what
        // the run's own wall clock measured.
        t.epoch_ns.record(elapsed_ns(started));
        t.epochs.inc();

        // Recovery is complete once the surviving state is re-merged,
        // so the time-to-recover clock runs from the first failure of
        // this epoch (every one went through `quarantine`) to here.
        if let Some(failed_at) = open.recover_started {
            let new_incidents = self.incidents.len() - open.incidents_before;
            t.shards_quarantined.add(new_incidents as u64);
            t.trace.instant("quarantine", epoch_idx);
            let spent = elapsed_ns(failed_at);
            for _ in 0..new_incidents {
                t.recover_ns.record(spent);
            }
        }

        // Fold the closed interval's SYN counts and reset the
        // per-interval fields (counters and HLL registers) of every
        // state that is home. A parked dead state carries zero here.
        // A state counts up from the zero it was built or restored
        // with, so its count is never negative.
        for (s, slot) in self.states.iter_mut().enumerate() {
            let Some(state) = slot else { continue };
            t.shard_traces[s].begin("close_interval", epoch_idx);
            let syns = state.syn_in_interval.unsigned_abs();
            t.shards[s].syn_packets.add(syns);
            state.close_interval();
            t.shard_traces[s].end("close_interval", epoch_idx);
        }
        self.fault_plan = open.faults;
    }

    /// Ends the run: the final merged view, the health summary and the
    /// detectors' results. `started` is when the run began.
    pub(crate) fn finish(self, started: Instant) -> ReplayOutcome {
        let elapsed = started.elapsed();
        let mut telemetry = self.telemetry;
        telemetry.elapsed_ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        let syn = self
            .ensemble
            .engine::<SynFloodDetector>("synflood")
            .expect("ensemble always carries the SYN-flood detector");
        let alerts = syn.alerts.clone();
        let detected_at = syn.detected_at;
        telemetry.alerts.add(alerts.len() as u64);
        telemetry.detector = syn.metrics.clone();
        telemetry.engines = self
            .ensemble
            .metrics_by_name()
            .into_iter()
            .map(|(n, m)| (n.to_string(), m))
            .collect();
        let ensemble = EnsembleReport {
            engines: self.ensemble.summaries(),
            fired: self.ensemble.fired_log.clone(),
        };

        let merged = merge_surviving(&self.states, &self.alive, &self.cfg);
        let health = ReplayHealth {
            shards_configured: self.cfg.shards,
            shards_alive: self.alive.iter().filter(|a| **a).count(),
            packets_offered: self.packets,
            packets_ingested: merged.packets,
            packets_lost: self.packets.saturating_sub(merged.packets),
            packets_rerouted: self.packets_rerouted,
            reports_dropped: self.reports_dropped,
            incidents: self.incidents,
        };
        telemetry.packets_lost.add(health.packets_lost);
        telemetry.packets_rerouted.add(health.packets_rerouted);
        ReplayOutcome {
            merged,
            alerts,
            detected_at,
            packets: self.packets,
            epochs: self.epochs,
            elapsed,
            health,
            ensemble,
            provenance: self.provenance,
            telemetry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FrameMeta, KIND_TCP};
    use anomaly::synflood::KIND_SYN;
    use anomaly::{DetectionResult, Detector, SignalValues};
    use std::sync::{Arc, Mutex};

    /// An engine that writes down what it is shown and has no opinion.
    struct Probe(Arc<Mutex<Vec<SignalValues>>>);

    impl Detector for Probe {
        fn name(&self) -> &'static str {
            "probe"
        }
        fn update(&mut self, ctx: &SignalContext<'_>) -> Option<DetectionResult> {
            self.0.lock().unwrap().push(SignalValues::capture(ctx));
            None
        }
        fn export_state(&self, out: &mut String) {
            out.push_str("null");
        }
        fn import_state(&mut self, lx: &mut telemetry::json::Lexer<'_>) -> Result<(), String> {
            lx.skip()
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    const INTERVAL: u64 = 10_000_000;

    fn two_shards() -> ReplayConfig {
        let mut cfg = ReplayConfig {
            shards: 2,
            ..ReplayConfig::default()
        };
        cfg.detector.interval_ns = INTERVAL;
        cfg
    }

    /// Replaces the ensemble of `c` with a single probe.
    fn probe(c: &mut EpochCoordinator) -> Arc<Mutex<Vec<SignalValues>>> {
        let seen = Arc::new(Mutex::new(Vec::new()));
        c.ensemble = Ensemble::new(vec![Box::new(Probe(Arc::clone(&seen)))]);
        seen
    }

    /// One epoch with no engine: `syns` SYNs go to shard 0 and `others`
    /// plain TCP segments to shard 1 (if it is alive), every frame
    /// `len` bytes from its own source address.
    fn epoch(
        c: &mut EpochCoordinator,
        epoch_idx: u64,
        (syns, others, len): (u64, u64, i64),
        faults: &FaultSchedule,
    ) {
        let open = c.open_epoch(epoch_idx, (syns + others) as usize, 0, faults);
        for (shard, kind, n) in [(0, KIND_SYN, syns), (1, KIND_TCP, others)] {
            if !c.alive[shard] {
                continue;
            }
            let state = c.states[shard].as_mut().expect("state is home");
            for i in 0..n {
                let src = epoch_idx * 1_000 + shard as u64 * 500 + i;
                state.ingest_meta(&FrameMeta { kind, len, dst: 7, src });
            }
        }
        c.close_epoch(open, faults, Instant::now());
    }

    fn carry(c: &EpochCoordinator) -> (i64, i64, i64, i64, &[u64]) {
        (
            c.carried_syns,
            c.carried_packets,
            c.carried_len_sum,
            c.carried_epochs,
            &c.carried_from,
        )
    }

    #[test]
    fn dropped_reports_reach_the_detectors_as_a_span_average() {
        let mut c = EpochCoordinator::fresh(&two_shards());
        let seen = probe(&mut c);
        let deliver = FaultSchedule::none();
        let lose = FaultSchedule::parse("ctrl_loss=1.0", 0).unwrap();

        // A delivered report with nothing carried is its own interval.
        epoch(&mut c, 4, (3, 5, 60), &deliver);
        let first = seen.lock().unwrap()[0];
        assert_eq!((first.epoch, first.at), (4, 5 * INTERVAL));
        assert_eq!((first.spanned, first.packets, first.syns, first.len_sum), (1, 8, 3, 480));
        assert_eq!(carry(&c), (0, 0, 0, 0, &[][..]));

        // k = 3 reports lost in a row: nothing is shown to the
        // detectors, the counts and the ordinals are carried.
        epoch(&mut c, 5, (4, 6, 100), &lose);
        epoch(&mut c, 6, (8, 12, 50), &lose);
        epoch(&mut c, 7, (0, 6, 200), &lose);
        assert_eq!(seen.lock().unwrap().len(), 1);
        assert_eq!(carry(&c), (12, 36, 3_200, 3, &[5, 6, 7][..]));
        assert_eq!(c.reports_dropped, 3);

        // The next delivered report spans k + 1 intervals and carries
        // their per-interval average: (36 + 4) / 4 frames, (12 + 4) / 4
        // SYNs, (3 200 + 400) / 4 bytes.
        epoch(&mut c, 8, (4, 0, 100), &deliver);
        let spanning = seen.lock().unwrap()[1];
        assert_eq!((spanning.epoch, spanning.at), (8, 9 * INTERVAL));
        assert_eq!(
            (spanning.spanned, spanning.packets, spanning.syns, spanning.len_sum),
            (4, 10, 4, 900)
        );
        // Distinct sources are not carried: the four of epoch 8 only.
        assert_eq!(spanning.distinct_sources, 4);
        assert_eq!(carry(&c), (0, 0, 0, 0, &[][..]));

        // And the one after that is a plain interval again.
        epoch(&mut c, 9, (1, 1, 40), &deliver);
        let plain = seen.lock().unwrap()[2];
        assert_eq!((plain.spanned, plain.packets, plain.syns, plain.len_sum), (1, 2, 1, 80));
        assert_eq!((c.packets, c.epochs), (8 + 10 + 20 + 6 + 4 + 2, 6));
    }

    #[test]
    fn the_carry_survives_a_checkpoint() {
        let cfg = two_shards();
        let mut c = EpochCoordinator::fresh(&cfg);
        let lose = FaultSchedule::parse("ctrl_loss=1.0", 0).unwrap();
        epoch(&mut c, 0, (2, 2, 100), &FaultSchedule::none());
        epoch(&mut c, 1, (6, 0, 100), &lose);
        epoch(&mut c, 2, (0, 9, 100), &lose);

        let exported = c.checkpoint();
        assert_eq!(
            (exported.carried_epochs, exported.carried_from.as_slice()),
            (2, &[1, 2][..])
        );
        let mut back = EpochCoordinator::restore(&exported, &cfg).expect("own export restores");
        assert_eq!(carry(&back), (6, 15, 1_500, 2, &[1, 2][..]));
        assert_eq!(back.checkpoint(), exported, "restore then export is the identity");

        let seen = probe(&mut back);
        epoch(&mut back, 3, (3, 0, 100), &FaultSchedule::none());
        let spanning = seen.lock().unwrap()[0];
        assert_eq!(
            (spanning.spanned, spanning.packets, spanning.syns, spanning.len_sum),
            (3, 6, 3, 600)
        );
    }

    #[test]
    fn a_scheduled_crash_quarantines_before_the_epoch_is_ingested() {
        let mut c = EpochCoordinator::fresh(&two_shards());
        let seen = probe(&mut c);
        let faults = FaultSchedule::parse("shard_crash=1@6", 0).unwrap();
        epoch(&mut c, 5, (2, 10, 100), &faults);

        let open = c.open_epoch(6, 0, 0, &faults);
        assert_eq!(open.faults, [None, Some(ShardFaultKind::Crash)]);
        assert_eq!(c.alive, [true, false]);
        c.close_epoch(open, &faults, Instant::now());
        assert_eq!(
            c.incidents,
            [ShardIncident { shard: 1, epoch: 6, kind: IncidentKind::Crashed }]
        );
        assert_eq!(c.telemetry.shards_quarantined.get(), 1);
        assert_eq!(c.telemetry.merge_rebuilds.get(), 2, "first barrier, then the quarantine");

        // A dead shard draws no further faults and its history has left
        // the merged view: epoch 7 is shard 0 alone.
        epoch(&mut c, 7, (5, 99, 100), &faults);
        let alone = seen.lock().unwrap()[2];
        assert_eq!((alone.spanned, alone.packets, alone.syns, alone.len_sum), (1, 5, 5, 500));
        assert_eq!(c.merger.merged().packets, 2 + 5);
        assert!(c.states[1].is_some(), "a crashed shard's state stays parked");
    }
}
