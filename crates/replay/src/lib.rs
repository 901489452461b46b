//! # replay
//!
//! A multi-threaded packet-replay engine that shards traffic
//! across N worker pipelines — the software model of a multi-pipe
//! switch running the paper's Stat4 programs, one pipeline per ingress
//! pipe, with the control plane periodically folding per-pipe state
//! into a global view.
//!
//! ## Architecture
//!
//! ```text
//!            ┌── shard 0: ShardState ──┐
//! schedule ──┤   shard 1: ShardState   ├── epoch barrier ── merge ──▶
//!   (split   │   ...                   │   (Σ sums, Σ cells,         central
//!   by flow  └── shard N-1 ────────────┘    exact median)            detector
//!   5-tuple)
//! ```
//!
//! - **Sharding** — [`workloads::shard`] hashes each frame's flow
//!   5-tuple, so splitting is deterministic and flow-affine.
//! - **Coordinator and executors** — what an epoch means is written
//!   once, in the crate-private `coordinator` module: the fault plan,
//!   the barrier merge, the report-loss carry, detection, drill-down,
//!   provenance and quarantine bookkeeping, plus the state they need
//!   between intervals (which is also what a checkpoint holds). An
//!   *executor* owns only routing and threads. The production one is
//!   the worker pool (the private `pool` module): one OS thread per shard,
//!   spawned **once per run** and fed through bounded per-shard
//!   channels; for an epoch long enough to pay for the hand-off it
//!   moves the shard's state plus the interval's frame list to the
//!   worker and hashes and routes the *next* interval while the workers
//!   ingest, a short epoch it ingests on the coordinator's own thread,
//!   and the frame lists are the run's either way.
//!   [`mod@reference`] is the other: the same routing step with nothing
//!   overlapped, then every surviving shard ingested on the caller's
//!   thread in shard order (a shard's panic contained by
//!   `catch_unwind`), kept as the baseline the pool is tested
//!   bit-identical against (`tests/pool.rs`). The drain point between
//!   epochs (checkpoints, kill, hot swaps) is [`lifecycle`]'s.
//! - **Epochs** — time is cut into detector intervals; each epoch,
//!   every surviving shard's slice of the interval is ingested frame
//!   by frame, then everything joins at the coordinator's barrier.
//! - **Merge** — shard state folds into a global [`ShardState`] via
//!   [`stat4_core::Mergeable`]: `RunningStats` / `FrequencyDist` /
//!   `CountMinSketch` and the length counts merge by summing
//!   (order-free, bit-identical to a sequential run). Counts are merged
//!   and the quantile is read exactly; the marker walk is the paper's
//!   per-packet tracker, and no shard walks one: the median handed to
//!   the detectors is read off the merged counts once per epoch.
//! - **Detection** — [`anomaly::SynFloodDetector`] runs only on
//!   merged aggregates, so its verdicts are shard-count invariant *by
//!   construction*: a 1-shard and an 8-shard replay hand it
//!   bit-identical inputs.
//! - **Supervision** — shard threads run under a supervisor
//!   ([`run_replay_with_faults`]): a panicked or crashed shard is
//!   *quarantined* — its state is excluded from all future merges (a
//!   dead pipe's registers are unreadable) and its traffic reroutes to
//!   the next survivor in ring order — and the run completes in
//!   degraded mode, reporting coverage and incidents in
//!   [`ReplayHealth`] instead of propagating the failure. Faults are
//!   driven by a seeded [`faultinject::FaultSchedule`], so every chaos
//!   run replays bit-identically from its `(spec, seed)` pair.
//!
//! The conformance suite (`tests/conformance.rs`) asserts exactly that:
//! for the `synflood` and `mix` workloads, 2/4/8-shard runs produce the
//! same merged statistics and the same alert sequence as the
//! single-shard run. The chaos suite (`tests/chaos.rs`) adds the
//! degraded-mode guarantees: under a schedule with a shard crash and
//! 30% report loss the flood is still detected, and reruns of one seed
//! are byte-identical.

mod barrier;
pub mod ckpt;
mod coordinator;
pub mod lifecycle;
pub mod metrics;
mod pool;
pub mod provenance;
pub mod reference;
pub mod snapshot;

pub use ckpt::Checkpoint;
pub use lifecycle::{LifecycleEvent, LifecyclePlan, LifecycleReport, SwapRequest};
pub use metrics::{ReplayTelemetry, ShardMetrics};
pub use provenance::{AlertProvenanceRecord, EpochLineage, IncidentRef};
pub use snapshot::{parse_outcome_json, render_outcome_json, RunSnapshot};

use anomaly::shift::ShiftConfig;
use anomaly::stalled::StalledFlowConfig;
use anomaly::synflood::{SynFloodConfig, KIND_SYN};
use anomaly::{
    AdaptiveEngine, Alert, CardinalityEngine, CusumEngine, DetectionResult, EngineSummary,
    Ensemble, EnsembleConfig, HoltWintersEngine, MultiScaleEngine, PercentileShiftDetector,
    StalledFlowDetector, SynFloodDetector,
};
use coordinator::EpochCoordinator;
use faultinject::FaultSchedule;
use lifecycle::RunLifecycle;
use packet::{EtherType, EthernetFrame, IpProtocol, Ipv4Packet, TcpSegment, UdpDatagram};
use stat4_core::freq::FrequencyDist;
use stat4_core::hll::HyperLogLog;
use stat4_core::percentile::{Quantile, QuantileCounts};
use stat4_core::running::RunningStats;
use stat4_core::sketch::CountMinSketch;
use stat4_core::delta::{FreqDelta, HllDelta, PercentileDelta, RunningDelta, SketchDelta};
use stat4_core::{DeltaMergeable, Mergeable, Stat4Result};
use workloads::Schedule;

/// Kind cell for non-SYN TCP segments.
pub(crate) const KIND_TCP: i64 = 0;
/// Kind cell for plain UDP datagrams.
pub(crate) const KIND_UDP: i64 = 2;
/// Kind cell for QUIC (UDP port 443).
pub(crate) const KIND_QUIC: i64 = 3;
/// Kind cell for everything else (non-IPv4, parse failures).
pub(crate) const KIND_OTHER: i64 = 4;
/// Cells of a shard's kind distribution, `0..KIND_CELLS`: fixed, like
/// a Stat4 program's register sizes, so every shard of every run has
/// the same kind domain.
pub(crate) const KIND_CELLS: i64 = 8;

// Every kind `parse_frame` yields is a cell of the kind domain.
const _: () = {
    let kinds = [KIND_TCP, KIND_SYN, KIND_UDP, KIND_QUIC, KIND_OTHER];
    let mut i = 0;
    while i < kinds.len() {
        assert!(0 <= kinds[i] && kinds[i] < KIND_CELLS);
        i += 1;
    }
};

/// Largest frame length tracked by the length percentile domain.
pub(crate) const MAX_LEN: i64 = 2047;

/// Rows of a shard's destination sketch.
pub(crate) const SK_ROWS: usize = 4;
/// Width of each sketch row as a power of two (4 096 counters).
pub(crate) const SK_WIDTH_LOG2: u32 = 12;

/// Precision of the per-shard distinct-source HyperLogLog (1024
/// registers, ≈ 3.3% standard error — 1 KiB of register SRAM per
/// pipe, the in-switch budget the paper's scale implies).
pub(crate) const SRC_HLL_PRECISION: u32 = 10;

/// Everything the trackers need from one frame, parsed in a single
/// header pass. The hot path ([`ShardState::ingest`]) parses each frame
/// **once** into a `FrameMeta` and feeds every tracker from it
/// ([`ShardState::ingest_meta`]): one header walk per frame, not one
/// per tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameMeta {
    /// Packet kind cell ([`KIND_SYN`], `KIND_TCP`, ...).
    pub kind: i64,
    /// Frame length clamped to `MAX_LEN`.
    pub len: i64,
    /// IPv4 destination address as a sketch key (0 for non-IPv4).
    pub dst: u64,
    /// IPv4 source address as an HLL key (0 for non-IPv4).
    pub src: u64,
}

/// Parses one frame into its [`FrameMeta`] in a single pass.
/// Non-IPv4 and malformed frames classify as `KIND_OTHER` with zero
/// address keys, exactly as the old per-field extractors did.
#[must_use]
pub fn parse_frame(frame: &[u8]) -> FrameMeta {
    let len = (frame.len() as i64).min(MAX_LEN);
    let other = FrameMeta { kind: KIND_OTHER, len, dst: 0, src: 0 };
    let Ok(eth) = EthernetFrame::new_checked(frame) else {
        return other;
    };
    if eth.ethertype() != EtherType::Ipv4 {
        return other;
    }
    let Ok(ip) = Ipv4Packet::new_checked(eth.payload()) else {
        return other;
    };
    let kind = match ip.protocol() {
        IpProtocol::Tcp => match TcpSegment::new_checked(ip.payload()) {
            Ok(t) if t.syn() && !t.ack() => KIND_SYN,
            _ => KIND_TCP,
        },
        IpProtocol::Udp => match UdpDatagram::new_checked(ip.payload()) {
            Ok(u) if u.dst_port() == 443 => KIND_QUIC,
            _ => KIND_UDP,
        },
        _ => KIND_OTHER,
    };
    FrameMeta {
        kind,
        len,
        dst: u64::from(u32::from(ip.dst())),
        src: u64::from(u32::from(ip.src())),
    }
}

/// Classifies a frame into the kind cells above ([`KIND_SYN`] for pure
/// TCP SYNs).
#[must_use]
pub fn kind_of(frame: &[u8]) -> i64 {
    parse_frame(frame).kind
}

/// Replay-engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct ReplayConfig {
    /// Number of worker shards (≥ 1).
    pub shards: usize,
    /// `interval_ns` is the epoch length; the stalled and median-shift
    /// detectors take their interval from it too.
    pub detector: SynFloodConfig,
    /// The ensemble's drilldown trigger policy.
    pub ensemble: EnsembleConfig,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        Self {
            shards: 1,
            detector: SynFloodConfig::default(),
            ensemble: EnsembleConfig::default(),
        }
    }
}

/// Builds the detection ensemble a replay run drives on merged
/// interval state: the three Table 1 detectors (SYN flood, stalled
/// flows, median shift) plus the five `anomaly::engines`, in report
/// order.
///
/// [`ReplayOutcome::alerts`] / `detected_at` are the
/// [`anomaly::SynFloodDetector`]'s own alert stream.
#[must_use]
pub fn build_ensemble(cfg: &ReplayConfig) -> Ensemble {
    let interval_ns = cfg.detector.interval_ns;
    Ensemble::new(vec![
        Box::new(SynFloodDetector::new()),
        Box::new(StalledFlowDetector::new(StalledFlowConfig {
            interval_ns,
            ..StalledFlowConfig::default()
        })),
        Box::new(PercentileShiftDetector::new(ShiftConfig {
            domain: (0, MAX_LEN),
            interval_ns,
            ..ShiftConfig::default()
        })),
        Box::new(CusumEngine::new()),
        Box::new(HoltWintersEngine::new()),
        Box::new(CardinalityEngine::new()),
        Box::new(MultiScaleEngine::new()),
        Box::new(AdaptiveEngine::new()),
    ])
}

/// Shard-count-invariant ensemble results of one replay run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EnsembleReport {
    /// Per-engine fire counts and first-fire times, in report order.
    pub engines: Vec<EngineSummary>,
    /// Every fired [`DetectionResult`], in interval order then engine
    /// order — the byte-identical determinism regression surface.
    pub fired: Vec<DetectionResult>,
}

impl EnsembleReport {
    /// The summary for `engine`, if it exists.
    #[must_use]
    pub fn engine(&self, name: &str) -> Option<&EngineSummary> {
        self.engines.iter().find(|e| e.name == name)
    }
}

/// The full Stat4 state one shard maintains — one instance of every
/// tracker family the paper builds, so the merge rules of all of them
/// are exercised.
#[derive(Debug, Clone)]
pub struct ShardState {
    /// Packet-kind composition (merged by cellwise count addition).
    pub kinds: FrequencyDist,
    /// Frame-length moments (merged by summing `N`/`Xsum`/`Xsumsq`).
    pub len_stats: RunningStats,
    /// Per-destination volume sketch (merged cellwise; plain —
    /// non-conservative — updates so the merge is exact).
    pub dst_sketch: CountMinSketch,
    /// Frame-length counts, the median read off them exactly (counts
    /// merge by addition; no marker is walked).
    pub len_median: QuantileCounts,
    /// Distinct source addresses in the current (open) interval
    /// (registers merge across shards, wash at each epoch barrier).
    pub src_hll: HyperLogLog,
    /// Frames ingested by this shard.
    pub packets: u64,
    /// SYNs seen in the current (open) interval.
    pub syn_in_interval: i64,
    /// Frames seen in the current (open) interval.
    pub packets_in_interval: i64,
    /// Frame-length sum of the current (open) interval.
    pub len_sum_in_interval: i64,
    /// `packets` at the last delta window open — the baseline
    /// [`Self::take_delta`] ships `packets` against.
    taken_packets: u64,
}

/// Equality over the observable statistics only — the delta baseline
/// (`taken_packets`, plus each tracker's internal dirty journal) is
/// bookkeeping, invisible to the conformance surface exactly as it is
/// to the checkpoint codec.
impl PartialEq for ShardState {
    fn eq(&self, other: &Self) -> bool {
        self.kinds == other.kinds
            && self.len_stats == other.len_stats
            && self.dst_sketch == other.dst_sketch
            && self.len_median == other.len_median
            && self.src_hll == other.src_hll
            && self.packets == other.packets
            && self.syn_in_interval == other.syn_in_interval
            && self.packets_in_interval == other.packets_in_interval
            && self.len_sum_in_interval == other.len_sum_in_interval
    }
}

impl Eq for ShardState {}

/// Everything one shard mutated since its last delta window opened —
/// the sparse payload the epoch barrier ships instead of the full
/// tracker set. Built by [`ShardState::take_delta`], applied by
/// [`ShardState::apply_delta`]; `Default` is the empty delta.
#[derive(Debug, Clone, Default)]
pub struct ShardDelta {
    kinds: FreqDelta,
    len_stats: RunningDelta,
    dst_sketch: SketchDelta,
    len_median: PercentileDelta,
    src_hll: HllDelta,
    packets_delta: u64,
    syn_in_interval: i64,
    packets_in_interval: i64,
    len_sum_in_interval: i64,
}

impl ShardDelta {
    /// Approximate wire size of this delta in bytes — what a control
    /// channel would actually ship, the `merge_delta_bytes` telemetry.
    #[must_use]
    pub fn wire_bytes(&self) -> u64 {
        self.kinds.wire_bytes()
            + self.len_stats.wire_bytes()
            + self.dst_sketch.wire_bytes()
            + self.len_median.wire_bytes()
            + self.src_hll.wire_bytes()
            // packets_delta + the three interval scalars.
            + 32
    }

    /// Register cells / HLL registers carried by this delta.
    #[must_use]
    pub(crate) fn touched_registers(&self) -> u64 {
        (self.kinds.touched()
            + self.dst_sketch.touched()
            + self.len_median.touched()
            + self.src_hll.touched()) as u64
    }
}

impl ShardState {
    /// Creates an empty state. Every tracker's geometry is a constant
    /// of this crate, so no configuration changes it and every shard
    /// of every run can merge with every other; `_cfg` is not read.
    #[must_use]
    pub fn new(_cfg: &ReplayConfig) -> Self {
        Self {
            kinds: FrequencyDist::new(0, KIND_CELLS - 1).expect("valid kind domain"),
            len_stats: RunningStats::new(),
            dst_sketch: CountMinSketch::new(SK_ROWS, SK_WIDTH_LOG2),
            len_median: QuantileCounts::new(0, MAX_LEN, &[Quantile::median()])
                .expect("valid length domain"),
            src_hll: HyperLogLog::new(SRC_HLL_PRECISION).expect("valid HLL precision"),
            packets: 0,
            syn_in_interval: 0,
            packets_in_interval: 0,
            len_sum_in_interval: 0,
            taken_packets: 0,
        }
    }

    /// Ingests one frame: one header parse, then
    /// [`Self::ingest_meta`]. Both replay engines feed a shard by this
    /// call and no other.
    pub fn ingest(&mut self, frame: &[u8]) {
        self.ingest_meta(&parse_frame(frame));
    }

    /// Ingests one already-parsed frame: every tracker update, no
    /// frame bytes touched.
    ///
    /// A meta from [`parse_frame`] has its kind in `0..KIND_CELLS`
    /// (asserted at compile time) and its length in `0..=MAX_LEN`, so
    /// the two `observe` errors dropped here can only be a hand-built
    /// meta's, whose kind or length then goes uncounted.
    pub fn ingest_meta(&mut self, m: &FrameMeta) {
        let _ = self.kinds.observe(m.kind);
        self.len_stats.push(m.len);
        let _ = self.len_median.observe(m.len);
        self.dst_sketch.update(m.dst, 1);
        self.src_hll.observe(m.src);
        if m.kind == KIND_SYN {
            self.syn_in_interval += 1;
        }
        self.packets += 1;
        self.packets_in_interval += 1;
        self.len_sum_in_interval += m.len;
    }

    /// Takes everything mutated since the last take (or the last
    /// [`Self::discard_delta`]) and opens a fresh delta window. The
    /// interval-scoped scalars ship their **current** values — the
    /// barrier zeroes them in the accumulator before applying, so each
    /// epoch's delta carries exactly that epoch's contribution.
    #[must_use]
    pub fn take_delta(&mut self) -> ShardDelta {
        let mut delta = ShardDelta::default();
        self.take_delta_into(&mut delta);
        delta
    }

    /// [`Self::take_delta`] into a delta the caller keeps between
    /// windows: whatever `delta` held is replaced, and its buffers are
    /// reused, so a steady barrier allocates nothing for its deltas.
    pub(crate) fn take_delta_into(&mut self, delta: &mut ShardDelta) {
        self.kinds.take_delta_into(&mut delta.kinds);
        self.len_stats.take_delta_into(&mut delta.len_stats);
        self.dst_sketch.take_delta_into(&mut delta.dst_sketch);
        self.len_median.take_delta_into(&mut delta.len_median);
        self.src_hll.take_delta_into(&mut delta.src_hll);
        delta.packets_delta = self.packets - self.taken_packets;
        self.taken_packets = self.packets;
        delta.syn_in_interval = self.syn_in_interval;
        delta.packets_in_interval = self.packets_in_interval;
        delta.len_sum_in_interval = self.len_sum_in_interval;
    }

    /// Applies a delta taken from a merge-compatible shard. Absent
    /// counter saturation the result is bit-identical to a full
    /// [`Self::merge_from`] of the source shard into a state that
    /// already held everything up to the source's previous take.
    ///
    /// # Errors
    ///
    /// [`stat4_core::Stat4Error::MergeMismatch`] if the delta indexes
    /// cells outside this state's tracker geometries.
    pub fn apply_delta(&mut self, delta: &ShardDelta) -> Stat4Result<()> {
        self.kinds.apply_delta(&delta.kinds)?;
        self.len_stats.apply_delta(&delta.len_stats)?;
        self.dst_sketch.apply_delta(&delta.dst_sketch)?;
        self.len_median.apply_delta(&delta.len_median)?;
        self.src_hll.apply_delta(&delta.src_hll)?;
        self.packets += delta.packets_delta;
        self.syn_in_interval += delta.syn_in_interval;
        self.packets_in_interval += delta.packets_in_interval;
        self.len_sum_in_interval += delta.len_sum_in_interval;
        Ok(())
    }

    /// Drops any pending delta and re-bases the window at the current
    /// state — the coordinator calls this on every source right after
    /// a full rebuild merge, so the next [`Self::take_delta`] ships
    /// only post-rebuild mutations.
    pub fn discard_delta(&mut self) {
        self.taken_packets = self.packets;
        self.kinds.discard_delta();
        self.len_stats.discard_delta();
        self.dst_sketch.discard_delta();
        self.len_median.discard_delta();
        self.src_hll.discard_delta();
    }

    /// Total register cells this state holds across all trackers — the
    /// denominator for the `merge_skipped_registers` sparsity counter.
    #[must_use]
    pub(crate) fn register_cells(&self) -> u64 {
        let kinds = self.kinds.max_value() - self.kinds.min_value() + 1;
        let cms = (self.dst_sketch.rows() as u64) * (1u64 << self.dst_sketch.width_log2());
        let (lo, hi) = self.len_median.domain();
        let median = (hi - lo + 1) as u64;
        let hll = 1u64 << self.src_hll.precision();
        kinds as u64 + cms + median + hll
    }

    /// Folds `other` into `self` using each tracker's merge rule.
    ///
    /// # Errors
    ///
    /// [`stat4_core::Stat4Error::MergeMismatch`] if the two states were
    /// built with different domains or geometries.
    pub fn merge_from(&mut self, other: &Self) -> Stat4Result<()> {
        self.kinds.merge_from(&other.kinds)?;
        self.len_stats.merge_from(&other.len_stats)?;
        self.dst_sketch.merge_from(&other.dst_sketch)?;
        self.len_median.merge_from(&other.len_median)?;
        self.src_hll.merge_from(&other.src_hll)?;
        self.packets += other.packets;
        self.syn_in_interval += other.syn_in_interval;
        self.packets_in_interval += other.packets_in_interval;
        self.len_sum_in_interval += other.len_sum_in_interval;
        Ok(())
    }

    /// Resets the per-interval fields at an epoch barrier (counts fold
    /// into the closed interval's report; HLL registers wash).
    pub fn close_interval(&mut self) {
        self.syn_in_interval = 0;
        self.packets_in_interval = 0;
        self.len_sum_in_interval = 0;
        self.src_hll.reset();
    }

    /// Whether this is a state [`Self::new`] could have become at a
    /// drain point, where a run checkpoints: a fresh state's tracker
    /// geometry, checked by [`Self::merge_from`] into one, and the open
    /// interval washed by [`Self::close_interval`].
    ///
    /// # Errors
    ///
    /// The first field no drained state of a run holds.
    pub(crate) fn check_drained(&self, cfg: &ReplayConfig) -> Result<(), String> {
        Self::new(cfg).merge_from(self).map_err(|e| e.to_string())?;
        for (name, v) in [
            ("syn_in_interval", self.syn_in_interval),
            ("packets_in_interval", self.packets_in_interval),
            ("len_sum_in_interval", self.len_sum_in_interval),
        ] {
            if v != 0 {
                return Err(format!("{name} is {v} at a drain point, not 0"));
            }
        }
        match self.src_hll.registers().iter().position(|&r| r != 0) {
            Some(i) => Err(format!("source HLL register {i} is set at a drain point")),
            None => Ok(()),
        }
    }
}

/// Why the supervisor quarantined a shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IncidentKind {
    /// The shard thread panicked (injected or organic); the panic
    /// message is captured when it is a string.
    Panicked(String),
    /// A scheduled crash stopped the shard cleanly but permanently.
    Crashed,
}

/// One quarantine event: `shard` left the run at `epoch`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardIncident {
    /// Index of the quarantined shard.
    pub shard: usize,
    /// Epoch (detector-interval ordinal) at which it was quarantined.
    pub epoch: u64,
    /// What happened.
    pub kind: IncidentKind,
}

/// Degraded-mode summary of a (possibly faulted) replay run. A pure
/// function of the schedule and the fault schedule — no wall-clock
/// fields — so same-seed reruns compare equal.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReplayHealth {
    /// Shards the run was configured with.
    pub shards_configured: usize,
    /// Shards still alive at the end of the run.
    pub shards_alive: usize,
    /// Every quarantine event, in occurrence order.
    pub incidents: Vec<ShardIncident>,
    /// Frames in the schedule.
    pub packets_offered: u64,
    /// Frames reflected in the final merged view.
    pub packets_ingested: u64,
    /// Frames missing from the merged view: slices of shards that died
    /// mid-epoch plus the discarded history of quarantined shards.
    pub packets_lost: u64,
    /// Frames redirected from a quarantined shard to a survivor.
    pub packets_rerouted: u64,
    /// Epoch reports lost on the control channel (those intervals were
    /// never observed by the detector; their SYNs carried forward).
    pub reports_dropped: u64,
}

impl ReplayHealth {
    /// Fraction of offered frames present in the merged view (`1.0`
    /// for an empty schedule).
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.packets_offered == 0 {
            return 1.0;
        }
        self.packets_ingested as f64 / self.packets_offered as f64
    }

    /// True when the run survived any fault: lost data, a quarantine,
    /// or a dropped epoch report.
    #[must_use]
    pub fn degraded(&self) -> bool {
        !self.incidents.is_empty() || self.reports_dropped > 0 || self.packets_lost > 0
    }
}

/// What a replay run produced.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// The merged global state after the last epoch.
    pub merged: ShardState,
    /// Alerts raised by the central detector, in interval order.
    pub alerts: Vec<Alert>,
    /// First alert time, if any.
    pub detected_at: Option<u64>,
    /// Frames replayed.
    pub packets: u64,
    /// Closed epochs (detector intervals).
    pub epochs: u64,
    /// Wall-clock replay time.
    pub elapsed: std::time::Duration,
    /// Degraded-mode summary: surviving shards, quarantine incidents,
    /// coverage, rerouted frames, dropped reports.
    pub health: ReplayHealth,
    /// Per-engine ensemble results (fires, first-fire times, the full
    /// fired-result log).
    pub ensemble: EnsembleReport,
    /// One provenance record per drilldown trigger, in fire order:
    /// signals, per-engine scores, epoch lineage and rebind
    /// transactions. Deterministic — part of the pool-vs-reference
    /// bit-identity surface.
    pub provenance: Vec<AlertProvenanceRecord>,
    /// Everything the engine observed about itself: per-shard metric
    /// sets, epoch/merge timings, detector fires, trace events.
    pub telemetry: ReplayTelemetry,
}

impl ReplayOutcome {
    /// Replay throughput in packets per second. An instantaneous run
    /// (zero elapsed time — e.g. an empty schedule) reports `0.0`, not
    /// infinity or NaN, so downstream arithmetic and JSON stay finite.
    #[must_use]
    pub fn throughput_pps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.packets as f64 / secs
    }
}

/// Replays a time-sorted schedule through `cfg.shards` worker threads
/// and returns the merged state plus the central detector's alerts.
///
/// Equivalent to [`run_replay_with_faults`] with an empty
/// [`FaultSchedule`] — no faults, full coverage.
///
/// # Panics
///
/// Panics if `cfg.shards` is zero.
#[must_use]
pub fn run_replay(schedule: &Schedule, cfg: &ReplayConfig) -> ReplayOutcome {
    run_replay_with_faults(schedule, cfg, &FaultSchedule::none())
}

/// Where a frame whose flow hashes to `home` goes: its home shard if
/// alive, else the next survivor in ring order (the controller's
/// repartitioning), else nowhere: the frame is lost.
#[inline]
pub(crate) fn route_target(alive: &[bool], home: usize) -> Option<usize> {
    if alive[home] {
        return Some(home);
    }
    (1..alive.len())
        .map(|d| (home + d) % alive.len())
        .find(|&s| alive[s])
}

/// The routing step of both executors: hashes each of an epoch's
/// `frames` to its home shard ([`workloads::shard::shard_of`], which
/// reads nothing on one shard) and pushes it onto the list of that
/// home's [`route_target`] under `alive`, or nowhere if every shard is
/// dead. Whatever `lists` held is discarded. Returns how many frames
/// went to a survivor of their home.
///
/// `targets` is scratch the caller may keep between epochs: the alive
/// map is resolved once per home here, not once per frame, so a frame
/// whose home is dead costs an index and not a ring search.
pub(crate) fn route_epoch<'a>(
    frames: &'a [(u64, bytes::Bytes)],
    alive: &[bool],
    targets: &mut Vec<Option<usize>>,
    lists: &mut [Vec<&'a bytes::Bytes>],
) -> u64 {
    targets.clear();
    targets.extend((0..alive.len()).map(|home| route_target(alive, home)));
    for list in lists.iter_mut() {
        list.clear();
    }
    let mut rerouted = 0;
    for (_, frame) in frames {
        let home = workloads::shard::shard_of(frame, alive.len());
        if let Some(t) = targets[home] {
            rerouted += u64::from(t != home);
            lists[t].push(frame);
        }
    }
    rerouted
}

/// Renders a caught panic payload (best effort: `&str` and `String`
/// payloads, which covers every `panic!` with a message).
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("shard thread panicked (non-string payload)")
    }
}

/// The merged median frame length handed to the detectors, read off
/// the merged counts here, once per epoch. An empty merged state
/// (every shard quarantined) has no median; that used to
/// be silently flattened to 0 by `unwrap_or` — now the fallback is
/// still 0 (the detectors need *a* number) but the incident is counted
/// in `median_fallbacks` so a degraded signal is visible.
pub(crate) fn median_len_signal(
    len_median: &QuantileCounts,
    fallbacks: &mut telemetry::Counter,
) -> i64 {
    match len_median.estimate(0) {
        Some(v) => v,
        None => {
            fallbacks.inc();
            0
        }
    }
}

/// Folds every surviving shard of `states` (the coordinator's slots,
/// indexed by shard; `None` while a state is away or lost) into a fresh
/// merged view. Every state is [`ShardState::new`]'s or one a restore
/// admitted ([`ShardState::check_drained`]), so every merge is of one
/// geometry into the same.
pub(crate) fn merge_surviving(
    states: &[Option<ShardState>],
    alive: &[bool],
    cfg: &ReplayConfig,
) -> ShardState {
    let mut merged = ShardState::new(cfg);
    let surviving = states.iter().zip(alive).filter_map(|(s, &a)| s.as_ref().filter(|_| a));
    for state in surviving {
        merged.merge_from(state).expect("one geometry merges");
    }
    merged
}

/// [`run_replay`] under a seeded fault schedule, supervised.
///
/// Each detector interval is one *epoch*: the interval's frames are
/// split by flow hash, every surviving shard ingests its slice, what
/// each shard changed is folded into the merged view at the barrier
/// (rebuilt from every survivor after a quarantine), and the detector
/// consumes the merged aggregates. Per-shard state persists across
/// epochs.
///
/// The supervisor consults `faults` at two points:
///
/// - **Shard faults** ([`FaultSchedule::shard_fault`]). A `Stall`
///   sleeps the shard thread (state survives; only wall-clock timings
///   change). A `Panic` unwinds the shard thread; the supervisor
///   catches the failed join. A `Crash` stops the shard cleanly before
///   its thread spawns. Panicked and crashed shards are *quarantined*:
///   their slice of the fault epoch is lost, their accumulated state is
///   excluded from all future merges (a dead pipe's registers are
///   unreadable), and their traffic reroutes to the next survivor in
///   ring order from the following epoch on. Because an injected panic
///   fires before the shard touches any state, the quarantined state
///   is always a clean epoch boundary — the outcome does not depend on
///   where mid-epoch the unwind happened.
/// - **Report loss** ([`FaultSchedule::drop_epoch_report`]). A dropped
///   epoch report means the detector never observes that interval; its
///   SYN count carries forward, exactly as cumulative switch registers
///   would, and the next delivered report observes the per-interval
///   average of the span it covers — the controller's best rate
///   estimate from a multi-interval register delta, which keeps a run
///   of lost reports from masquerading as a spike.
///
/// A merge cannot fail: every shard state is a fresh one, or one a
/// resume checked ([`resume_from_checkpoint`]). The run always
/// completes: the returned [`ReplayHealth`] reports surviving shards,
/// coverage and every incident. With an empty schedule the behaviour
/// is bit-identical to [`run_replay`].
///
/// This runs on the persistent worker pool (`pool`);
/// [`reference::run_replay_with_faults`] is the same coordinator under
/// the serial executor, the conformance baseline — outcomes
/// (merged state, alerts, health, telemetry counter sums) are
/// bit-identical between the two.
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
    run_replay_lifecycle(schedule, cfg, faults, &LifecyclePlan::none()).0
}

/// [`run_replay_with_faults`] with the full lifecycle layer active:
/// `plan` schedules crash-consistent checkpoints, a cooperative kill,
/// and drain-point swap requests, and the run's lifecycle activity
/// comes back in the [`LifecycleReport`]. With an inert plan
/// ([`LifecyclePlan::none`]) the outcome is bit-identical to
/// [`run_replay_with_faults`].
///
/// # Panics
///
/// Panics if `cfg.shards` is zero.
#[must_use]
pub fn run_replay_lifecycle(
    schedule: &Schedule,
    cfg: &ReplayConfig,
    faults: &FaultSchedule,
    plan: &LifecyclePlan,
) -> (ReplayOutcome, LifecycleReport) {
    pool::run(
        schedule,
        faults,
        EpochCoordinator::fresh(cfg),
        RunLifecycle::fresh(plan),
    )
}

/// Continues a checkpointed replay to completion.
///
/// Loads the newest valid checkpoint from `plan.checkpoint_dir`
/// (falling back past torn or corrupted files, which the checksum
/// rejects, and past intact files whose state does not restore),
/// validates it against `cfg` and `schedule`, restores the
/// coordinator — shard trackers through their raw constructors, each
/// shard then checked to be one a fresh state could have become at a
/// drain point (`ShardState::check_drained`), the detection ensemble
/// and drilldown ladder by importing the state they exported,
/// provenance verbatim, the alive map and report-loss
/// carry after checking they describe a state a run could have been
/// in — and runs the remaining epochs. The fault schedule is reparsed
/// from the spec/seed stored in the checkpoint, so injected chaos
/// continues exactly where it left off; the completed run's [`RunSnapshot`] is
/// bit-identical to an uninterrupted run's (`tests/lifecycle.rs`).
///
/// # Errors
///
/// - the plan has no checkpoint directory, or no checkpoint in it
///   validates;
/// - the checkpoint disagrees with `cfg` (shards, interval) or
///   with the schedule's length;
/// - the stored fault spec no longer parses;
/// - the checkpoint carries data-plane register state but the plan
///   supplies no `initial_program` to restore it into.
///
/// A stored shard, detector or coordinator state that fails validation
/// is not an error by itself: that checkpoint joins the fallback trail
/// (`checkpoint_fallback` events) and its predecessor is tried.
pub fn resume_from_checkpoint(
    schedule: &Schedule,
    cfg: &ReplayConfig,
    plan: &LifecyclePlan,
) -> Result<(ReplayOutcome, LifecycleReport), String> {
    let dir = plan
        .checkpoint_dir
        .as_deref()
        .ok_or_else(|| String::from("resume requires a checkpoint directory in the plan"))?;
    // A checkpoint is input from disk. One taken by another run
    // (other shard count, interval or schedule) is the caller's
    // mistake and ends the resume; one of this run that the
    // coordinator cannot take back is a damaged file, and the scan
    // moves on to its predecessor.
    let (c, coord, fallbacks) = ckpt::load_latest_with(dir, |c| match same_run(c, cfg, schedule) {
        Err(other_run) => Ok(Err(other_run)),
        Ok(()) => EpochCoordinator::restore(c, cfg).map(Ok),
    })?;
    let coord = coord?;
    let faults = if c.faults_spec.is_empty() {
        FaultSchedule::none()
    } else {
        FaultSchedule::parse(&c.faults_spec, c.fault_seed)
            .map_err(|e| format!("stored fault spec {:?}: {e}", c.faults_spec))?
    };
    let life = RunLifecycle::resumed(plan, &c, fallbacks)?;
    Ok(pool::run(schedule, &faults, coord, life))
}

/// Whether checkpoint `c` was taken by a run of `schedule` under `cfg`.
fn same_run(c: &Checkpoint, cfg: &ReplayConfig, schedule: &Schedule) -> Result<(), String> {
    if c.cfg_shards != cfg.shards {
        return Err(format!(
            "checkpoint was taken with shards={}; run configured with shards={}",
            c.cfg_shards, cfg.shards
        ));
    }
    if c.cfg_interval_ns != cfg.detector.interval_ns {
        return Err(format!(
            "checkpoint interval {}ns does not match configured {}ns",
            c.cfg_interval_ns, cfg.detector.interval_ns
        ));
    }
    if c.schedule_packets != schedule.len() as u64 {
        return Err(format!(
            "checkpoint covers a {}-frame schedule; this schedule has {} frames",
            c.schedule_packets,
            schedule.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::SynFloodWorkload;

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

    /// [`route_target`] per frame is the definition of routing;
    /// [`route_epoch`] resolves it once per home instead. For every
    /// alive map of one to five shards, all dead included, the table
    /// is `route_target` home by home and every frame lies where the
    /// per-frame definition puts it, in input order.
    #[test]
    fn route_epoch_is_route_target_for_every_alive_map() {
        let frames = &small_flood()[..512];
        for shards in 1..=5usize {
            for map in 0..1u32 << shards {
                let alive: Vec<bool> = (0..shards).map(|s| (map >> s) & 1 == 1).collect();
                // Stale on purpose: what the buffers held is discarded.
                let mut targets = vec![Some(usize::MAX); 7];
                let mut lists = vec![vec![&frames[0].1]; shards];
                let rerouted = route_epoch(frames, &alive, &mut targets, &mut lists);

                let by_definition: Vec<_> =
                    (0..shards).map(|home| route_target(&alive, home)).collect();
                assert_eq!(targets, by_definition, "{alive:?}");
                let mut expect = vec![Vec::new(); shards];
                let mut expect_rerouted = 0;
                for (_, f) in frames {
                    let home = workloads::shard::shard_of(f, shards);
                    if let Some(t) = route_target(&alive, home) {
                        expect_rerouted += u64::from(t != home);
                        expect[t].push(f);
                    }
                }
                assert_eq!(lists, expect, "{alive:?}");
                assert_eq!(rerouted, expect_rerouted, "{alive:?}");
            }
        }
    }

    #[test]
    fn single_shard_counts_every_packet() {
        let s = small_flood();
        let out = run_replay(&s, &ReplayConfig::default());
        assert_eq!(out.packets, s.len() as u64);
        assert_eq!(out.merged.packets, s.len() as u64);
        assert_eq!(out.merged.len_stats.n(), s.len() as u64);
        assert!(out.epochs > 0);
    }

    #[test]
    fn merged_moments_match_direct_ingest() {
        // RunningStats / FrequencyDist / sketch are order-free, so the
        // replay's merged state must equal a plain sequential ingest.
        let s = small_flood();
        let cfg = ReplayConfig {
            shards: 4,
            ..ReplayConfig::default()
        };
        let out = run_replay(&s, &cfg);
        let mut direct = ShardState::new(&cfg);
        for (_, frame) in &s {
            direct.ingest(frame);
        }
        assert_eq!(out.merged.len_stats, direct.len_stats);
        assert_eq!(out.merged.kinds, direct.kinds);
        assert_eq!(out.merged.dst_sketch, direct.dst_sketch);
        assert_eq!(out.merged.len_median, direct.len_median);
    }

    /// The median the detectors read is the exact median of every
    /// ingested frame's clamped length, at any shard count.
    #[test]
    fn merged_median_is_the_exact_median() {
        let (mix, _) = workloads::PacketMixWorkload {
            packets: 20_000,
            ..workloads::PacketMixWorkload::default()
        }
        .generate();
        for (label, s) in [("small_flood", small_flood()), ("mix", mix)] {
            let lens: Vec<i64> = s.iter().map(|(_, f)| parse_frame(f).len).collect();
            let exact = stat4_core::oracle::median(&lens);
            assert!(exact.is_some(), "{label}");
            for shards in [1, 2, 4] {
                let out = run_replay(&s, &ReplayConfig { shards, ..ReplayConfig::default() });
                assert_eq!(out.merged.len_median.estimate(0), exact, "{label} at {shards} shard(s)");
            }
        }
    }

    #[test]
    fn flood_detected_on_merged_state() {
        let s = small_flood();
        let out = run_replay(
            &s,
            &ReplayConfig {
                shards: 2,
                ..ReplayConfig::default()
            },
        );
        let at = out.detected_at.expect("flood must be detected");
        assert!(at >= 150_000_000, "no false positive: {at}");
    }

    #[test]
    fn throughput_is_zero_not_nan_for_instant_runs() {
        // Regression: an instantaneous (or empty) run used to report
        // f64::INFINITY; NaN/∞ poisons downstream JSON and averages.
        let cfg = ReplayConfig::default();
        let out = ReplayOutcome {
            merged: ShardState::new(&cfg),
            alerts: Vec::new(),
            detected_at: None,
            packets: 0,
            epochs: 0,
            elapsed: std::time::Duration::ZERO,
            health: ReplayHealth::default(),
            ensemble: EnsembleReport::default(),
            provenance: Vec::new(),
            telemetry: ReplayTelemetry::new(1),
        };
        assert_eq!(out.throughput_pps(), 0.0);
        assert!(out.throughput_pps().is_finite());

        let busy = ReplayOutcome {
            packets: 1000,
            elapsed: std::time::Duration::ZERO,
            ..out
        };
        assert_eq!(busy.throughput_pps(), 0.0, "packets but zero elapsed");
    }

    #[test]
    fn empty_schedule_runs_clean() {
        let out = run_replay(&Schedule::new(), &ReplayConfig::default());
        assert_eq!(out.packets, 0);
        assert_eq!(out.epochs, 0);
        assert!(out.throughput_pps().is_finite());
        assert_eq!(out.telemetry.merged_shard().packets.get(), 0);
    }

    #[test]
    fn telemetry_shard_counters_sum_to_outcome() {
        let s = small_flood();
        let cfg = ReplayConfig {
            shards: 4,
            ..ReplayConfig::default()
        };
        let out = run_replay(&s, &cfg);
        assert_eq!(out.telemetry.shards.len(), 4);
        let merged = out.telemetry.merged_shard();
        assert_eq!(merged.packets.get(), out.packets);
        assert_eq!(
            merged.syn_packets.get(),
            out.merged.kinds.frequency(KIND_SYN),
            "per-shard SYN counters fold to the merged kind frequency"
        );
        assert_eq!(out.telemetry.epochs.get(), out.epochs);
        assert_eq!(out.telemetry.alerts.get(), out.alerts.len() as u64);
        assert_eq!(out.telemetry.epoch_ns.count(), out.epochs);
        // Every shard saw at least one barrier.
        for m in &out.telemetry.shards {
            assert_eq!(m.barrier_wait_ns.count(), out.epochs);
        }
        // Trace recorded the epoch lifecycle (bounded buffer).
        assert!(!out.telemetry.trace.events().is_empty());
    }

    #[test]
    fn faultless_run_reports_full_health() {
        let s = small_flood();
        let cfg = ReplayConfig {
            shards: 4,
            ..ReplayConfig::default()
        };
        let out = run_replay(&s, &cfg);
        let h = &out.health;
        assert!(!h.degraded());
        assert_eq!(h.shards_alive, 4);
        assert_eq!(h.shards_configured, 4);
        assert!(h.incidents.is_empty());
        assert_eq!(h.packets_offered, s.len() as u64);
        assert_eq!(h.packets_ingested, s.len() as u64);
        assert_eq!(h.packets_lost, 0);
        assert_eq!(h.packets_rerouted, 0);
        assert_eq!(h.reports_dropped, 0);
        assert!((h.coverage() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn coverage_is_finite_on_zero_interval_runs() {
        // Regression: coverage() used to divide packets_ingested by
        // packets_offered unguarded, so a zero-interval (empty) run
        // reported NaN — which poisons JSON exposition and any average
        // built on top. An empty run is full coverage by definition.
        let h = ReplayHealth::default();
        assert_eq!(h.packets_offered, 0);
        assert!(h.coverage().is_finite());
        assert_eq!(h.coverage(), 1.0);
        let out = run_replay(&Schedule::new(), &ReplayConfig::default());
        assert!(out.health.coverage().is_finite());
        assert_eq!(out.health.coverage(), 1.0);
    }

    #[test]
    fn parse_frame_matches_per_field_extraction() {
        // One parse must agree with the kind classifier on every frame
        // of a real mixed workload, and malformed frames must land in
        // the same KIND_OTHER / zero-key bucket the old per-field
        // extractors produced.
        let s = small_flood();
        for (_, frame) in &s {
            let m = parse_frame(frame);
            assert_eq!(m.kind, kind_of(frame));
            assert_eq!(m.len, (frame.len() as i64).min(MAX_LEN));
            if m.kind != KIND_OTHER {
                assert!(m.dst != 0 || m.src != 0, "IPv4 frames carry address keys");
            }
        }
        let garbage = [0u8; 9];
        let m = parse_frame(&garbage);
        assert_eq!((m.kind, m.dst, m.src, m.len), (KIND_OTHER, 0, 0, 9));
    }

    #[test]
    fn ingest_meta_equals_ingest() {
        let s = small_flood();
        let cfg = ReplayConfig::default();
        let mut by_frame = ShardState::new(&cfg);
        let mut by_meta = ShardState::new(&cfg);
        for (_, frame) in &s {
            by_frame.ingest(frame);
            by_meta.ingest_meta(&parse_frame(frame));
        }
        assert_eq!(by_frame, by_meta);
    }

    #[test]
    fn shard_delta_equals_full_merge() {
        // apply_delta(take_delta()) over several windows must land on
        // the same state as a fresh full merge of the sources — the
        // invariant the barrier merger's delta path rests on.
        let s = small_flood();
        let cfg = ReplayConfig {
            shards: 3,
            ..ReplayConfig::default()
        };
        let mut shards: Vec<ShardState> = (0..3).map(|_| ShardState::new(&cfg)).collect();
        let mut acc = ShardState::new(&cfg);
        let chunk = s.len() / 6;
        for (i, (_, frame)) in s.iter().enumerate() {
            shards[i % 3].ingest(frame);
            if i % chunk == chunk - 1 {
                // One "barrier": interval-scoped state restarts in the
                // accumulator, then each shard's delta folds in.
                acc.syn_in_interval = 0;
                acc.packets_in_interval = 0;
                acc.len_sum_in_interval = 0;
                acc.src_hll.reset();
                let mut delta_bytes = 0;
                for sh in &mut shards {
                    let d = sh.take_delta();
                    delta_bytes += d.wire_bytes();
                    assert!(d.touched_registers() <= sh.register_cells());
                    acc.apply_delta(&d).unwrap();
                }
                assert!(delta_bytes > 0);
                let mut full = ShardState::new(&cfg);
                for sh in &shards {
                    full.merge_from(sh).unwrap();
                }
                assert_eq!(acc, full, "delta accumulation diverged at frame {i}");
                // As in both engines: interval state washes on every
                // shard after the barrier (the HLL delta path relies
                // on this — a washed HLL journals every live register
                // of the next interval afresh).
                for sh in &mut shards {
                    sh.close_interval();
                }
            }
        }
    }

    #[test]
    fn median_fallback_is_counted() {
        let mut fallbacks = telemetry::Counter::new();
        let empty = QuantileCounts::new(0, MAX_LEN, &[Quantile::median()]).unwrap();
        assert_eq!(median_len_signal(&empty, &mut fallbacks), 0);
        assert_eq!(fallbacks.get(), 1, "empty estimate is a counted incident");
        let mut one = empty.clone();
        one.observe(42).unwrap();
        assert_eq!(median_len_signal(&one, &mut fallbacks), 42);
        assert_eq!(fallbacks.get(), 1, "a real estimate adds nothing");
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let s = Schedule::new();
        let _ = run_replay(
            &s,
            &ReplayConfig {
                shards: 0,
                ..ReplayConfig::default()
            },
        );
    }
}

// Malformed-input corpus for the replay ingest path.
//
// The packet crate's `tests/malformed.rs` proves the parsers
// themselves never panic; this suite extends that corpus one layer
// up, where the replay engine consumes frames: [`ShardState::ingest`]
// (classification, length moments, sketch update, percentile
// observe), [`kind_of`], and the flow-hash partitioner
// ([`workloads::shard::shard_of`]) must digest whatever arrives —
// noise, truncations, bit flips — without panicking, and truncated
// junk must land in `KIND_OTHER`, not crash classification.
#[cfg(test)]
mod malformed {
    use packet::builder::PacketBuilder;
    use proptest::prelude::*;
    use crate::{kind_of, ReplayConfig, ShardState, KIND_OTHER};
    use std::net::Ipv4Addr;

    const SRC: Ipv4Addr = Ipv4Addr::new(10, 1, 2, 3);
    const DST: Ipv4Addr = Ipv4Addr::new(10, 9, 8, 7);

    /// A well-formed frame to mutate, mirroring the packet-crate corpus.
    fn valid_frame(udp: bool, payload: &[u8]) -> Vec<u8> {
        if udp {
            PacketBuilder::udp(SRC, DST, 4321, 53).payload(payload).build()
        } else {
            PacketBuilder::tcp_syn(SRC, DST, 4321, 80).payload(payload).build()
        }
    }

    /// Feeds one frame through everything the engine does per packet.
    fn exercise(frame: &[u8], state: &mut ShardState) {
        let _ = kind_of(frame);
        let _ = workloads::shard::flow_key(frame);
        assert_eq!(workloads::shard::shard_of(frame, 1), 0, "one shard: nothing to decide");
        let _ = workloads::shard::shard_of(frame, 4);
        state.ingest(frame);
    }

    proptest! {
        /// Pure noise of any length ingests cleanly and counts exactly
        /// once.
        #[test]
        fn random_bytes_never_panic_ingest(
            frames in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..200), 1..20),
        ) {
            let cfg = ReplayConfig::default();
            let mut state = ShardState::new(&cfg);
            for f in &frames {
                exercise(f, &mut state);
            }
            prop_assert_eq!(state.packets, frames.len() as u64);
            prop_assert_eq!(state.len_stats.n(), frames.len() as u64);
        }

        /// Random truncation of a well-formed frame never panics the
        /// ingest path; cutting into or before the ethernet header must
        /// classify as KIND_OTHER.
        #[test]
        fn truncated_frames_ingest_cleanly(
            udp in any::<bool>(),
            payload in proptest::collection::vec(any::<u8>(), 0..64),
            cut in any::<u16>(),
        ) {
            let frame = valid_frame(udp, &payload);
            let cut = usize::from(cut) % (frame.len() + 1);
            let truncated = &frame[..cut];
            let cfg = ReplayConfig::default();
            let mut state = ShardState::new(&cfg);
            exercise(truncated, &mut state);
            prop_assert_eq!(state.packets, 1);
            if cut < 14 {
                prop_assert_eq!(kind_of(truncated), KIND_OTHER);
            }
        }

        /// Single-bit corruption anywhere in a well-formed frame never
        /// panics ingest (classification may change; that's fine).
        #[test]
        fn bit_flips_ingest_cleanly(
            udp in any::<bool>(),
            payload in proptest::collection::vec(any::<u8>(), 0..64),
            pos in any::<u16>(),
            bit in 0u8..8,
        ) {
            let mut frame = valid_frame(udp, &payload);
            let pos = usize::from(pos) % frame.len();
            frame[pos] ^= 1 << bit;
            let cfg = ReplayConfig::default();
            let mut state = ShardState::new(&cfg);
            exercise(&frame, &mut state);
            prop_assert_eq!(state.packets, 1);
        }

        /// A lying IPv4 total-length field never panics ingest or
        /// classification.
        #[test]
        fn bogus_ipv4_total_length_ingests_cleanly(
            udp in any::<bool>(),
            payload in proptest::collection::vec(any::<u8>(), 0..32),
            total in any::<u16>(),
        ) {
            let mut frame = valid_frame(udp, &payload);
            let [hi, lo] = total.to_be_bytes();
            frame[16] = hi;
            frame[17] = lo;
            let cfg = ReplayConfig::default();
            let mut state = ShardState::new(&cfg);
            exercise(&frame, &mut state);
            prop_assert_eq!(state.packets, 1);
        }

        /// Oversized frames clamp into the length-percentile domain
        /// instead of panicking the tracker (`MAX_LEN` clamp).
        #[test]
        fn oversized_frames_clamp_into_length_domain(
            len in 0usize..5000,
        ) {
            let frame = vec![0xAAu8; len];
            let cfg = ReplayConfig::default();
            let mut state = ShardState::new(&cfg);
            state.ingest(&frame);
            prop_assert_eq!(state.packets, 1);
            // One sample, so xsum is the clamped length itself.
            prop_assert!(state.len_stats.xsum() <= crate::MAX_LEN);
        }
    }
}
