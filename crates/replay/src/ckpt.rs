//! Crash-consistent epoch checkpoints for the replay pool.
//!
//! At a configurable epoch cadence the coordinator serializes its full
//! deterministic state — the per-shard tracker sets (via the raw
//! export/import constructors in `stat4-core`), the supervisor's
//! degraded-mode bookkeeping, the detection ensemble's and drilldown
//! ladder's exported state, alert provenance verbatim, and the
//! lifecycle generation plus the optional data-plane shadow registers —
//! into one versioned JSON document guarded by an FNV-1a 64 checksum.
//!
//! **Write discipline.** A checkpoint is written to a temp file in the
//! same directory, fsynced, then atomically renamed into place (and the
//! directory fsynced, best effort). A crash mid-write therefore leaves
//! either the previous checkpoint set intact or a stray temp file the
//! loader ignores — never a half-written `ckpt-*.json`. The
//! `ckpt_corrupt` fault domain injects torn writes / bit rot *after*
//! the checksum is computed, so the loader's validation path is
//! testable.
//!
//! **Read discipline.** [`load_latest`] scans the directory newest
//! ordinal first and returns the first checkpoint whose magic, version
//! and checksum all validate, reporting every rejected file — a torn
//! or rotted newest checkpoint falls back to its predecessor instead
//! of wedging recovery. [`load_latest_with`] adds a caller's own check
//! to that rule, which is how resume also falls back past a file whose
//! bytes are intact but whose state no detector could have exported.
//!
//! **Every detector owns its export.** A checkpoint does not know what
//! is inside an engine: [`anomaly::Ensemble::export_state`] and
//! [`anomaly::ScoreDrilldown::export_state`] hand over JSON values,
//! the payload carries them as the `ensemble` and `drill` members, and
//! [`Checkpoint::rebuild_detection`] hands them back to fresh
//! instances built from the run's config. The cost of a checkpoint is
//! therefore the size of the state, not the length of the run: every
//! member is bounded by configuration except `provenance`, the
//! ensemble's `fired_log` and the lifted detectors' `alerts`, which
//! are the run's output and grow with alerts raised, and `incidents`,
//! which grows with shards lost.
//!
//! **The checksum covers the payload bytes as written.** [`serialize`]
//! renders the payload once, hashes those bytes and splices them after
//! the header; [`parse`] hashes the byte span the `payload` member
//! occupies in the file before it interprets any field. Neither side
//! renders a second time, and a reader never trusts its own renderer
//! to reproduce what a writer wrote.

use crate::provenance::AlertProvenanceRecord;
use crate::snapshot::{parse_record, record_json};
use crate::{build_ensemble, IncidentKind, ReplayConfig, ShardIncident, ShardState};
use anomaly::{Ensemble, ScoreDrilldown};
use faultinject::{CkptCorruption, FaultSchedule};
use p4sim::PipelineState;
use stat4_core::freq::FrequencyDist;
use stat4_core::hll::HyperLogLog;
use stat4_core::percentile::{MarkerRaw, PercentileSet};
use stat4_core::running::RunningStats;
use stat4_core::sketch::CountMinSketch;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use telemetry::json::{
    ju, jus, obj, opt_u64, render, req, req_arr, req_i64, req_str, req_u64, req_usize,
};
use telemetry::Json;

/// First bytes of every checkpoint document.
pub const MAGIC: &str = "stat4-replay-ckpt";
/// Current checkpoint format version; parsers reject anything else.
/// Version 1 stored the log of every interval the detectors had seen
/// and replayed it on resume; version 2 stores the detectors' state.
pub const VERSION: u64 = 2;

/// FNV-1a 64 — the checksum guarding a checkpoint payload. Chosen for
/// the same reason the fault injector uses SplitMix64: dependency-free,
/// deterministic, and plenty to catch torn writes and bit rot (this is
/// an integrity check, not an adversarial MAC).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Raw serialized form of one shard's full tracker set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStateRaw {
    /// Kind-distribution domain minimum.
    pub kinds_min: i64,
    /// Kind-distribution cell counts.
    pub kinds_counts: Vec<u64>,
    /// Length-moment sample count.
    pub len_n: u64,
    /// Length-moment running sum.
    pub len_xsum: i64,
    /// Length-moment running sum of squares.
    pub len_xsumsq: i64,
    /// Sketch row count.
    pub sk_rows: usize,
    /// Sketch width as a power of two.
    pub sk_width_log2: u32,
    /// Sketch cells, row-major.
    pub sk_cells: Vec<u64>,
    /// Sketch total updates.
    pub sk_total: u64,
    /// Percentile domain minimum.
    pub pc_min: i64,
    /// Percentile domain maximum.
    pub pc_max: i64,
    /// Percentile cell counts.
    pub pc_counts: Vec<u64>,
    /// Percentile total observations.
    pub pc_total: u64,
    /// Percentile markers, path-dependent state included.
    pub pc_markers: Vec<MarkerRaw>,
    /// HLL precision.
    pub hll_precision: u32,
    /// HLL registers.
    pub hll_registers: Vec<u8>,
    /// Frames ingested by this shard.
    pub packets: u64,
    /// SYNs in the open interval.
    pub syn_in_interval: i64,
    /// Frames in the open interval.
    pub packets_in_interval: i64,
    /// Frame-length sum of the open interval.
    pub len_sum_in_interval: i64,
}

impl ShardStateRaw {
    /// Captures the raw form of `s`.
    #[must_use]
    pub fn of(s: &ShardState) -> Self {
        Self {
            kinds_min: s.kinds.min_value(),
            kinds_counts: s.kinds.counts().to_vec(),
            len_n: s.len_stats.n(),
            len_xsum: s.len_stats.xsum(),
            len_xsumsq: s.len_stats.xsumsq(),
            sk_rows: s.dst_sketch.rows(),
            sk_width_log2: s.dst_sketch.width_log2(),
            sk_cells: s.dst_sketch.cells().to_vec(),
            sk_total: s.dst_sketch.total(),
            pc_min: s.len_median.domain().0,
            pc_max: s.len_median.domain().1,
            pc_counts: s.len_median.counts().to_vec(),
            pc_total: s.len_median.total(),
            pc_markers: s.len_median.export_markers(),
            hll_precision: s.src_hll.precision(),
            hll_registers: s.src_hll.registers().to_vec(),
            packets: s.packets,
            syn_in_interval: s.syn_in_interval,
            packets_in_interval: s.packets_in_interval,
            len_sum_in_interval: s.len_sum_in_interval,
        }
    }

    /// Rebuilds the live state, validating every tracker's geometry.
    ///
    /// # Errors
    ///
    /// A description of the first tracker whose raw state is
    /// inconsistent (wrong cell-array length, out-of-range register,
    /// degenerate quantile weights).
    pub fn restore(&self) -> Result<ShardState, String> {
        if !(1..=64).contains(&self.sk_rows) || self.sk_width_log2 >= 28 {
            return Err(String::from("sketch geometry out of range"));
        }
        if self.sk_cells.len() != self.sk_rows << self.sk_width_log2 {
            return Err(String::from("sketch cell array length mismatch"));
        }
        Ok(ShardState {
            kinds: FrequencyDist::from_raw_counts(self.kinds_min, self.kinds_counts.clone())
                .map_err(|e| format!("kind distribution: {e}"))?,
            len_stats: RunningStats::from_raw(self.len_n, self.len_xsum, self.len_xsumsq),
            dst_sketch: CountMinSketch::from_raw(
                self.sk_rows,
                self.sk_width_log2,
                self.sk_cells.clone(),
                self.sk_total,
            ),
            len_median: PercentileSet::from_raw(
                self.pc_min,
                self.pc_max,
                self.pc_counts.clone(),
                self.pc_total,
                &self.pc_markers,
            )
            .map_err(|e| format!("length median: {e}"))?,
            src_hll: HyperLogLog::from_registers(self.hll_precision, self.hll_registers.clone())
                .map_err(|e| format!("source HLL: {e}"))?,
            packets: self.packets,
            syn_in_interval: self.syn_in_interval,
            packets_in_interval: self.packets_in_interval,
            len_sum_in_interval: self.len_sum_in_interval,
            // Restored trackers re-base their delta journals at the
            // restored values, so the delta baseline matches.
            taken_packets: self.packets,
        })
    }
}

/// Everything needed to continue a replay bit-identically from an
/// epoch boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Index into the run's epoch-range list where processing resumes.
    pub next_ordinal: usize,
    /// 0-based ordinal of this checkpoint within its run (file name,
    /// corruption-injection key).
    pub checkpoint_ordinal: u64,
    /// Shards the run was configured with.
    pub cfg_shards: usize,
    /// Batch size the run was configured with.
    pub cfg_batch: usize,
    /// Detector interval the run was configured with.
    pub cfg_interval_ns: u64,
    /// Frames in the schedule (resume sanity check).
    pub schedule_packets: u64,
    /// Fault spec string the run was started with.
    pub faults_spec: String,
    /// Chaos seed the run was started with.
    pub fault_seed: u64,
    /// Frames replayed so far.
    pub packets: u64,
    /// Epochs closed so far.
    pub epochs: u64,
    /// Frames rerouted so far.
    pub packets_rerouted: u64,
    /// Epoch reports dropped so far.
    pub reports_dropped: u64,
    /// Report-loss carry-forward: SYNs.
    pub carried_syns: i64,
    /// Report-loss carry-forward: frames.
    pub carried_packets: i64,
    /// Report-loss carry-forward: length sum.
    pub carried_len_sum: i64,
    /// Report-loss carry-forward: spanned intervals.
    pub carried_epochs: i64,
    /// Epoch ordinals of the carried (dropped) reports.
    pub carried_from: Vec<u64>,
    /// Per-shard liveness.
    pub alive: Vec<bool>,
    /// Per-shard state; `None` for shards whose state died with a
    /// panicked worker.
    pub shards: Vec<Option<ShardStateRaw>>,
    /// Every quarantine incident so far, in occurrence order.
    pub incidents: Vec<ShardIncident>,
    /// [`Ensemble::export_state`] at the drain point: engine states,
    /// metrics, fire counts, weight overrides, the fired log.
    pub ensemble: Json,
    /// [`ScoreDrilldown::export_state`] at the drain point.
    pub drill: Json,
    /// Alert provenance records, restored verbatim.
    pub provenance: Vec<AlertProvenanceRecord>,
    /// Reconfiguration generation at the checkpoint.
    pub generation: u64,
    /// Committed reconfiguration transactions so far (stale-duplicate
    /// rejection continues where it left off).
    pub swaps_committed: u64,
    /// Data-plane shadow register state, when a program is installed.
    pub pipeline: Option<PipelineState>,
}

impl Checkpoint {
    /// Rebuilds the detection ensemble and the drilldown ladder: fresh
    /// instances from `cfg`, loaded with the exported state. Constant
    /// in run length.
    ///
    /// # Errors
    ///
    /// What [`Ensemble::import_state`] or
    /// [`ScoreDrilldown::import_state`] rejects: state that no
    /// detector built from `cfg` could have exported.
    pub fn rebuild_detection(&self, cfg: &ReplayConfig) -> Result<(Ensemble, ScoreDrilldown), String> {
        let mut ensemble = build_ensemble(cfg);
        ensemble.import_state(&self.ensemble)?;
        let mut drill = ScoreDrilldown::new(cfg.ensemble.trigger);
        drill.import_state(&self.drill)?;
        Ok((ensemble, drill))
    }
}

// ---- render ---------------------------------------------------------

fn jb(v: bool) -> Json {
    Json::Bool(v)
}

fn u64_arr(v: &[u64]) -> Json {
    Json::Arr(v.iter().map(|&x| ju(x)).collect())
}

fn shard_json(s: &ShardStateRaw) -> Json {
    obj(vec![
        ("kinds_min", Json::Int(s.kinds_min)),
        ("kinds_counts", u64_arr(&s.kinds_counts)),
        ("len_n", ju(s.len_n)),
        ("len_xsum", Json::Int(s.len_xsum)),
        ("len_xsumsq", Json::Int(s.len_xsumsq)),
        ("sk_rows", jus(s.sk_rows)),
        ("sk_width_log2", ju(u64::from(s.sk_width_log2))),
        ("sk_cells", u64_arr(&s.sk_cells)),
        ("sk_total", ju(s.sk_total)),
        ("pc_min", Json::Int(s.pc_min)),
        ("pc_max", Json::Int(s.pc_max)),
        ("pc_counts", u64_arr(&s.pc_counts)),
        ("pc_total", ju(s.pc_total)),
        (
            "pc_markers",
            Json::Arr(
                s.pc_markers
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("low_weight", ju(u64::from(m.low_weight))),
                            ("high_weight", ju(u64::from(m.high_weight))),
                            (
                                "pos",
                                m.pos.map_or(Json::Null, jus),
                            ),
                            ("low", ju(m.low)),
                            ("high", ju(m.high)),
                            ("moves", ju(m.moves)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("hll_precision", ju(u64::from(s.hll_precision))),
        (
            "hll_registers",
            Json::Arr(s.hll_registers.iter().map(|&r| ju(u64::from(r))).collect()),
        ),
        ("packets", ju(s.packets)),
        ("syn_in_interval", Json::Int(s.syn_in_interval)),
        ("packets_in_interval", Json::Int(s.packets_in_interval)),
        ("len_sum_in_interval", Json::Int(s.len_sum_in_interval)),
    ])
}

fn incident_json(i: &ShardIncident) -> Json {
    let (kind, msg) = match &i.kind {
        IncidentKind::Crashed => ("crashed", String::new()),
        IncidentKind::Panicked(m) => ("panicked", m.clone()),
        IncidentKind::MergeFailed(m) => ("merge_failed", m.clone()),
    };
    obj(vec![
        ("shard", jus(i.shard)),
        ("epoch", ju(i.epoch)),
        ("kind", Json::Str(kind.to_string())),
        ("msg", Json::Str(msg)),
    ])
}

fn pipeline_json(p: &PipelineState) -> Json {
    obj(vec![
        (
            "registers",
            Json::Arr(
                p.registers
                    .iter()
                    .map(|(name, cells)| {
                        obj(vec![
                            ("name", Json::Str(name.clone())),
                            ("cells", u64_arr(cells)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("packets_processed", ju(p.packets_processed)),
    ])
}

fn payload_json(c: &Checkpoint) -> Json {
    obj(vec![
        ("next_ordinal", jus(c.next_ordinal)),
        ("checkpoint_ordinal", ju(c.checkpoint_ordinal)),
        ("cfg_shards", jus(c.cfg_shards)),
        ("cfg_batch", jus(c.cfg_batch)),
        ("cfg_interval_ns", ju(c.cfg_interval_ns)),
        ("schedule_packets", ju(c.schedule_packets)),
        ("faults_spec", Json::Str(c.faults_spec.clone())),
        ("fault_seed", ju(c.fault_seed)),
        ("packets", ju(c.packets)),
        ("epochs", ju(c.epochs)),
        ("packets_rerouted", ju(c.packets_rerouted)),
        ("reports_dropped", ju(c.reports_dropped)),
        ("carried_syns", Json::Int(c.carried_syns)),
        ("carried_packets", Json::Int(c.carried_packets)),
        ("carried_len_sum", Json::Int(c.carried_len_sum)),
        ("carried_epochs", Json::Int(c.carried_epochs)),
        ("carried_from", u64_arr(&c.carried_from)),
        ("alive", Json::Arr(c.alive.iter().map(|&a| jb(a)).collect())),
        (
            "shards",
            Json::Arr(
                c.shards
                    .iter()
                    .map(|s| s.as_ref().map_or(Json::Null, shard_json))
                    .collect(),
            ),
        ),
        (
            "incidents",
            Json::Arr(c.incidents.iter().map(incident_json).collect()),
        ),
        ("ensemble", c.ensemble.clone()),
        ("drill", c.drill.clone()),
        (
            "provenance",
            Json::Arr(c.provenance.iter().map(record_json).collect()),
        ),
        ("generation", ju(c.generation)),
        ("swaps_committed", ju(c.swaps_committed)),
        (
            "pipeline",
            c.pipeline.as_ref().map_or(Json::Null, pipeline_json),
        ),
    ])
}

/// Serializes a checkpoint into its on-disk document: magic, version,
/// checksum, then the payload. The payload is rendered once; the
/// checksum is taken over those bytes and they are spliced in as
/// written.
#[must_use]
pub fn serialize(c: &Checkpoint) -> String {
    let body = render(&payload_json(c));
    let sum = fnv1a64(body.as_bytes());
    format!(
        "{{\"magic\":\"{MAGIC}\",\"version\":{VERSION},\"checksum\":\"{sum:016x}\",\"payload\":{body}}}"
    )
}

// ---- parse ----------------------------------------------------------

fn req_u64_arr(v: &Json, key: &str, path: &str) -> Result<Vec<u64>, String> {
    req_arr(v, key, path)?
        .iter()
        .enumerate()
        .map(|(i, x)| {
            x.as_u64()
                .ok_or_else(|| format!("{path}: {key}[{i}] is not a non-negative integer"))
        })
        .collect()
}

fn parse_shard(v: &Json, path: &str) -> Result<ShardStateRaw, String> {
    let pc_markers = req_arr(v, "pc_markers", path)?
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let mp = format!("{path}.pc_markers[{i}]");
            Ok(MarkerRaw {
                low_weight: u32::try_from(req_u64(m, "low_weight", &mp)?)
                    .map_err(|_| format!("{mp}: \"low_weight\" overflows u32"))?,
                high_weight: u32::try_from(req_u64(m, "high_weight", &mp)?)
                    .map_err(|_| format!("{mp}: \"high_weight\" overflows u32"))?,
                pos: opt_u64(m, "pos", &mp)?
                    .map(|p| {
                        usize::try_from(p).map_err(|_| format!("{mp}: \"pos\" overflows usize"))
                    })
                    .transpose()?,
                low: req_u64(m, "low", &mp)?,
                high: req_u64(m, "high", &mp)?,
                moves: req_u64(m, "moves", &mp)?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let hll_registers = req_arr(v, "hll_registers", path)?
        .iter()
        .enumerate()
        .map(|(i, r)| {
            r.as_u64()
                .and_then(|x| u8::try_from(x).ok())
                .ok_or_else(|| format!("{path}: hll_registers[{i}] is not a register rank"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ShardStateRaw {
        kinds_min: req_i64(v, "kinds_min", path)?,
        kinds_counts: req_u64_arr(v, "kinds_counts", path)?,
        len_n: req_u64(v, "len_n", path)?,
        len_xsum: req_i64(v, "len_xsum", path)?,
        len_xsumsq: req_i64(v, "len_xsumsq", path)?,
        sk_rows: req_usize(v, "sk_rows", path)?,
        sk_width_log2: u32::try_from(req_u64(v, "sk_width_log2", path)?)
            .map_err(|_| format!("{path}: \"sk_width_log2\" overflows u32"))?,
        sk_cells: req_u64_arr(v, "sk_cells", path)?,
        sk_total: req_u64(v, "sk_total", path)?,
        pc_min: req_i64(v, "pc_min", path)?,
        pc_max: req_i64(v, "pc_max", path)?,
        pc_counts: req_u64_arr(v, "pc_counts", path)?,
        pc_total: req_u64(v, "pc_total", path)?,
        pc_markers,
        hll_precision: u32::try_from(req_u64(v, "hll_precision", path)?)
            .map_err(|_| format!("{path}: \"hll_precision\" overflows u32"))?,
        hll_registers,
        packets: req_u64(v, "packets", path)?,
        syn_in_interval: req_i64(v, "syn_in_interval", path)?,
        packets_in_interval: req_i64(v, "packets_in_interval", path)?,
        len_sum_in_interval: req_i64(v, "len_sum_in_interval", path)?,
    })
}

fn parse_incident(v: &Json, path: &str) -> Result<ShardIncident, String> {
    let msg = req_str(v, "msg", path)?;
    let kind = match req_str(v, "kind", path)?.as_str() {
        "crashed" => IncidentKind::Crashed,
        "panicked" => IncidentKind::Panicked(msg),
        "merge_failed" => IncidentKind::MergeFailed(msg),
        other => return Err(format!("{path}: unknown incident kind {other:?}")),
    };
    Ok(ShardIncident {
        shard: req_usize(v, "shard", path)?,
        epoch: req_u64(v, "epoch", path)?,
        kind,
    })
}

fn parse_pipeline(v: &Json, path: &str) -> Result<PipelineState, String> {
    let registers = req_arr(v, "registers", path)?
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let rp = format!("{path}.registers[{i}]");
            Ok((req_str(r, "name", &rp)?, req_u64_arr(r, "cells", &rp)?))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(PipelineState {
        registers,
        packets_processed: req_u64(v, "packets_processed", path)?,
    })
}

/// Parses a checkpoint document, validating magic, version and
/// checksum before any field is interpreted. The checksum is taken
/// over the bytes the `payload` member occupies in `text`.
///
/// # Errors
///
/// A description of the first structural problem: bad magic, a version
/// this build does not read (older or newer), a checksum mismatch (the
/// torn-write signal), or a missing/mistyped field with its path.
pub fn parse(text: &str) -> Result<Checkpoint, String> {
    let (doc, spans) = Json::parse_with_member_spans(text)?;
    let magic = req_str(&doc, "magic", "$")?;
    if magic != MAGIC {
        return Err(format!("not a checkpoint: magic {magic:?}"));
    }
    let version = req_u64(&doc, "version", "$")?;
    if version > VERSION {
        return Err(format!(
            "checkpoint version {version} is newer than supported {VERSION}"
        ));
    }
    if version < VERSION {
        return Err(format!(
            "checkpoint version {version} was written before detector-state checkpoints \
             (version {VERSION}); re-run from the start"
        ));
    }
    let want = req_str(&doc, "checksum", "$")?;
    let members = doc.as_obj().unwrap_or(&[]);
    let (payload, span) = members
        .iter()
        .zip(&spans)
        .find(|((key, _), _)| key == "payload")
        .map(|((_, value), span)| (value, span.clone()))
        .ok_or_else(|| String::from("$: missing \"payload\""))?;
    let got = format!("{:016x}", fnv1a64(&text.as_bytes()[span]));
    if got != want {
        return Err(format!(
            "checksum mismatch: payload hashes to {got}, header says {want}"
        ));
    }
    let p = payload;
    let pp = "$.payload";
    let alive = req_arr(p, "alive", pp)?
        .iter()
        .enumerate()
        .map(|(i, a)| {
            a.as_bool()
                .ok_or_else(|| format!("{pp}: alive[{i}] is not a boolean"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let shards = req_arr(p, "shards", pp)?
        .iter()
        .enumerate()
        .map(|(i, s)| {
            if s.is_null() {
                Ok(None)
            } else {
                parse_shard(s, &format!("{pp}.shards[{i}]")).map(Some)
            }
        })
        .collect::<Result<Vec<_>, String>>()?;
    let incidents = req_arr(p, "incidents", pp)?
        .iter()
        .enumerate()
        .map(|(i, v)| parse_incident(v, &format!("{pp}.incidents[{i}]")))
        .collect::<Result<Vec<_>, _>>()?;
    let provenance = req_arr(p, "provenance", pp)?
        .iter()
        .enumerate()
        .map(|(i, r)| parse_record(r, &format!("{pp}.provenance[{i}]")))
        .collect::<Result<Vec<_>, _>>()?;
    let pipe = req(p, "pipeline", pp)?;
    let pipeline = if pipe.is_null() {
        None
    } else {
        Some(parse_pipeline(pipe, &format!("{pp}.pipeline"))?)
    };
    Ok(Checkpoint {
        next_ordinal: req_usize(p, "next_ordinal", pp)?,
        checkpoint_ordinal: req_u64(p, "checkpoint_ordinal", pp)?,
        cfg_shards: req_usize(p, "cfg_shards", pp)?,
        cfg_batch: req_usize(p, "cfg_batch", pp)?,
        cfg_interval_ns: req_u64(p, "cfg_interval_ns", pp)?,
        schedule_packets: req_u64(p, "schedule_packets", pp)?,
        faults_spec: req_str(p, "faults_spec", pp)?,
        fault_seed: req_u64(p, "fault_seed", pp)?,
        packets: req_u64(p, "packets", pp)?,
        epochs: req_u64(p, "epochs", pp)?,
        packets_rerouted: req_u64(p, "packets_rerouted", pp)?,
        reports_dropped: req_u64(p, "reports_dropped", pp)?,
        carried_syns: req_i64(p, "carried_syns", pp)?,
        carried_packets: req_i64(p, "carried_packets", pp)?,
        carried_len_sum: req_i64(p, "carried_len_sum", pp)?,
        carried_epochs: req_i64(p, "carried_epochs", pp)?,
        carried_from: req_u64_arr(p, "carried_from", pp)?,
        alive,
        shards,
        incidents,
        ensemble: req(p, "ensemble", pp)?.clone(),
        drill: req(p, "drill", pp)?.clone(),
        provenance,
        generation: req_u64(p, "generation", pp)?,
        swaps_committed: req_u64(p, "swaps_committed", pp)?,
        pipeline,
    })
}

// ---- disk -----------------------------------------------------------

/// File name of checkpoint `ordinal`.
#[must_use]
pub fn file_name(ordinal: u64) -> String {
    format!("ckpt-{ordinal:06}.json")
}

/// Writes `c` to `dir` crash-consistently: temp file in the same
/// directory, fsync, atomic rename, directory fsync (best effort). If
/// `faults` schedules corruption for this checkpoint ordinal the bytes
/// are damaged *after* the checksum was computed — modelling a torn
/// write or bit rot between the engine and the platter.
///
/// # Errors
///
/// Any I/O failure, labelled with the path it hit.
pub fn write_checkpoint(
    dir: &Path,
    c: &Checkpoint,
    faults: &FaultSchedule,
) -> Result<PathBuf, String> {
    write_serialized(dir, c.checkpoint_ordinal, serialize(c), faults)
}

/// [`write_checkpoint`] from the [`serialize`]d `document` of
/// checkpoint `ordinal` on — for a caller that times or sizes the
/// serialization apart from the disk work.
///
/// # Errors
///
/// Any I/O failure, labelled with the path it hit.
pub fn write_serialized(
    dir: &Path,
    ordinal: u64,
    document: String,
    faults: &FaultSchedule,
) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("cannot create checkpoint dir {}: {e}", dir.display()))?;
    let mut bytes = document.into_bytes();
    match faults.ckpt_corruption(ordinal) {
        Some(CkptCorruption::Truncate { keep }) => {
            let keep = usize::try_from(keep).unwrap_or(usize::MAX).min(bytes.len());
            bytes.truncate(keep);
        }
        Some(CkptCorruption::FlipByte { offset, mask }) if !bytes.is_empty() => {
            let i = usize::try_from(offset % bytes.len() as u64).unwrap_or(0);
            bytes[i] ^= mask;
        }
        _ => {}
    }
    let final_path = dir.join(file_name(ordinal));
    let tmp_path = dir.join(format!(".tmp-{}", file_name(ordinal)));
    {
        let mut f = std::fs::File::create(&tmp_path)
            .map_err(|e| format!("cannot create {}: {e}", tmp_path.display()))?;
        f.write_all(&bytes)
            .map_err(|e| format!("cannot write {}: {e}", tmp_path.display()))?;
        f.sync_all()
            .map_err(|e| format!("cannot fsync {}: {e}", tmp_path.display()))?;
    }
    std::fs::rename(&tmp_path, &final_path).map_err(|e| {
        format!(
            "cannot rename {} to {}: {e}",
            tmp_path.display(),
            final_path.display()
        )
    })?;
    // Durability of the rename itself; failure here degrades the
    // guarantee, never correctness, so it is best effort.
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(final_path)
}

/// Scans `dir` for checkpoints and returns the newest (highest
/// ordinal) one that validates, plus a note for every newer file that
/// was rejected (the fallback trail).
///
/// # Errors
///
/// When the directory is unreadable or no checkpoint in it validates.
pub fn load_latest(dir: &Path) -> Result<(Checkpoint, Vec<String>), String> {
    load_latest_with(dir, |_| Ok(())).map(|(c, (), rejected)| (c, rejected))
}

/// [`load_latest`] with one more condition on "validates": `accept`
/// must also take the parsed checkpoint, and what it makes of it (the
/// restored state, typically) is returned alongside. A file that
/// parses but that `accept` refuses joins the rejected trail like a
/// torn one, and the scan moves on to its predecessor.
///
/// # Errors
///
/// When the directory is unreadable or no checkpoint in it validates.
pub fn load_latest_with<T>(
    dir: &Path,
    mut accept: impl FnMut(&Checkpoint) -> Result<T, String>,
) -> Result<(Checkpoint, T, Vec<String>), String> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read checkpoint dir {}: {e}", dir.display()))?;
    let mut candidates: Vec<(u64, PathBuf)> = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(ord) = name
            .strip_prefix("ckpt-")
            .and_then(|s| s.strip_suffix(".json"))
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        candidates.push((ord, entry.path()));
    }
    if candidates.is_empty() {
        return Err(format!("no checkpoints in {}", dir.display()));
    }
    candidates.sort_by_key(|c| std::cmp::Reverse(c.0));
    let mut rejected = Vec::new();
    for (_, path) in &candidates {
        let attempt = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| parse(&text))
            .and_then(|c| accept(&c).map(|made| (c, made)));
        match attempt {
            Ok((c, made)) => return Ok((c, made, rejected)),
            Err(e) => rejected.push(format!("{}: {e}", path.display())),
        }
    }
    Err(format!(
        "no valid checkpoint in {}:\n  {}",
        dir.display(),
        rejected.join("\n  ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> ShardState {
        let cfg = ReplayConfig::default();
        let mut s = ShardState::new(&cfg);
        // A real frame would do; raw bytes exercise the KIND_OTHER path
        // while still moving every tracker.
        for i in 0..200u64 {
            let frame = vec![(i % 251) as u8; 60 + (i as usize % 40)];
            s.ingest(&frame);
        }
        s
    }

    /// An ensemble a few intervals into a run, with a committed weight
    /// override.
    fn sample_ensemble() -> Ensemble {
        let cfg = ReplayConfig::default();
        let mut ensemble = build_ensemble(&cfg);
        ensemble.set_weight_override("cusum", Some(0)).unwrap();
        let s = sample_state();
        for epoch in 0..3u64 {
            ensemble.observe(&anomaly::SignalContext {
                at: (epoch + 1) * 10_000_000,
                epoch,
                interval_ns: 10_000_000,
                spanned: 1,
                packets: 200,
                syns: 10,
                len_sum: 12_000,
                distinct_sources: 40,
                median_len: 60,
                kinds: &s.kinds,
                len_stats: &s.len_stats,
            });
        }
        ensemble
    }

    fn sample_checkpoint() -> Checkpoint {
        let s = sample_state();
        Checkpoint {
            next_ordinal: 7,
            checkpoint_ordinal: 3,
            cfg_shards: 2,
            cfg_batch: 256,
            cfg_interval_ns: 10_000_000,
            schedule_packets: 400,
            faults_spec: String::from("ctrl_loss=0.30"),
            fault_seed: 9,
            packets: 400,
            epochs: 7,
            packets_rerouted: 12,
            reports_dropped: 1,
            carried_syns: 5,
            carried_packets: 40,
            carried_len_sum: 2_400,
            carried_epochs: 1,
            carried_from: vec![6],
            alive: vec![true, false],
            shards: vec![Some(ShardStateRaw::of(&s)), None],
            incidents: vec![ShardIncident {
                shard: 1,
                epoch: 4,
                kind: IncidentKind::Panicked(String::from("injected fault")),
            }],
            ensemble: sample_ensemble().export_state(),
            drill: ScoreDrilldown::new(ReplayConfig::default().ensemble.trigger).export_state(),
            provenance: Vec::new(),
            generation: 2,
            swaps_committed: 2,
            pipeline: Some(PipelineState {
                registers: vec![(String::from("rate_window"), vec![1, 2, 3])],
                packets_processed: 77,
            }),
        }
    }

    #[test]
    fn shard_state_raw_round_trips_exactly() {
        let s = sample_state();
        let raw = ShardStateRaw::of(&s);
        let restored = raw.restore().expect("captured state restores");
        assert_eq!(restored, s);
    }

    #[test]
    fn checkpoint_serialization_round_trips_byte_identically() {
        let c = sample_checkpoint();
        let text = serialize(&c);
        let parsed = parse(&text).expect("own rendering parses");
        assert_eq!(parsed, c);
        assert_eq!(serialize(&parsed), text, "re-render is byte-identical");
    }

    #[test]
    fn checksum_mismatch_is_detected() {
        let text = serialize(&sample_checkpoint());
        // Damage one payload byte without touching the header.
        let broken = text.replace("\"packets\":400", "\"packets\":401");
        assert_ne!(text, broken, "replacement must hit");
        let err = parse(&broken).expect_err("corrupted payload must fail");
        assert!(err.contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn truncated_document_is_rejected() {
        let text = serialize(&sample_checkpoint());
        assert!(parse(&text[..text.len() / 2]).is_err());
        assert!(parse("{}").unwrap_err().contains("magic"));
        assert!(parse("{\"magic\":\"other\"}").unwrap_err().contains("not a checkpoint"));
    }

    #[test]
    fn other_versions_are_refused_in_both_directions() {
        let text = serialize(&sample_checkpoint());
        let current = format!("\"version\":{VERSION}");
        assert!(text.contains(&current));
        let err = parse(&text.replace(&current, "\"version\":999")).unwrap_err();
        assert!(err.contains("newer than supported"), "{err}");
        for old in [0, 1] {
            let err = parse(&text.replace(&current, &format!("\"version\":{old}"))).unwrap_err();
            assert!(
                err.contains("before detector-state checkpoints") && err.contains("re-run"),
                "version {old}: {err}"
            );
        }
    }

    #[test]
    fn checksum_is_over_the_payload_bytes_as_written() {
        let text = serialize(&sample_checkpoint());
        // The same payload value spelled with other bytes (a space the
        // renderer never writes) is a different file: nothing on the
        // read side renders the payload back into canonical form.
        let spaced = text.replacen("\"payload\":{", "\"payload\":{ ", 1);
        assert!(parse(&spaced).unwrap_err().contains("checksum mismatch"));
        // Bytes outside the payload's span are not covered by it.
        let padded = text.replacen("\"payload\":{", "\"payload\": {", 1);
        assert_eq!(parse(&padded).unwrap(), sample_checkpoint());
    }

    #[test]
    fn rebuild_imports_the_exported_detection_state() {
        let cfg = ReplayConfig::default();
        let c = sample_checkpoint();
        let (ensemble, drill) = c.rebuild_detection(&cfg).expect("own export imports");
        assert_eq!(ensemble.export_state(), c.ensemble);
        assert_eq!(drill.export_state(), c.drill);
        assert_eq!(ensemble.summaries(), sample_ensemble().summaries());

        let mut bad = c.clone();
        bad.drill = Json::Null;
        assert!(bad.rebuild_detection(&cfg).unwrap_err().contains("drilldown"));
    }

    #[test]
    fn loader_falls_back_past_a_corrupt_newest_checkpoint() {
        let dir = std::env::temp_dir().join(format!("stat4-ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let good = sample_checkpoint();
        let mut newer = good.clone();
        newer.checkpoint_ordinal = 4;
        newer.next_ordinal = 9;
        let faults = FaultSchedule::none();
        write_checkpoint(&dir, &good, &faults).unwrap();
        write_checkpoint(&dir, &newer, &faults).unwrap();
        // Damage the newest file in place.
        let p = dir.join(file_name(4));
        let text = std::fs::read_to_string(&p).unwrap();
        std::fs::write(&p, &text[..text.len() / 3]).unwrap();
        let (loaded, rejected) = load_latest(&dir).expect("fallback must succeed");
        assert_eq!(loaded, good);
        assert_eq!(rejected.len(), 1);
        assert!(rejected[0].contains("ckpt-000004"), "{rejected:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn loader_falls_back_past_an_old_format_and_a_refused_checkpoint() {
        let dir = std::env::temp_dir().join(format!("stat4-ckpt-old-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let faults = FaultSchedule::none();
        let good = sample_checkpoint();
        write_checkpoint(&dir, &good, &faults).unwrap();
        // #4: intact, but the caller's own check refuses it.
        let mut refused = good.clone();
        refused.checkpoint_ordinal = 4;
        refused.drill = Json::Null;
        write_checkpoint(&dir, &refused, &faults).unwrap();
        // #5: a file a version-1 build left behind.
        let v1 = serialize(&good).replace(&format!("\"version\":{VERSION}"), "\"version\":1");
        std::fs::write(dir.join(file_name(5)), v1).unwrap();

        let (loaded, rejected) = load_latest(&dir).expect("plain load takes #4");
        assert_eq!(loaded, refused);
        assert_eq!(rejected.len(), 1);
        assert!(rejected[0].contains("ckpt-000005") && rejected[0].contains("re-run"), "{rejected:?}");

        let cfg = ReplayConfig::default();
        let (loaded, (ensemble, _), rejected) =
            load_latest_with(&dir, |c| c.rebuild_detection(&cfg)).expect("fallback to #3");
        assert_eq!(loaded, good);
        assert_eq!(ensemble.export_state(), good.ensemble);
        assert_eq!(rejected.len(), 2);
        assert!(rejected[1].contains("ckpt-000004") && rejected[1].contains("drilldown"), "{rejected:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_corruption_is_caught_by_the_checksum() {
        let dir = std::env::temp_dir().join(format!("stat4-ckpt-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let c = sample_checkpoint();
        let faults = FaultSchedule::parse("ckpt_corrupt=3", 5).unwrap();
        let path = write_checkpoint(&dir, &c, &faults).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(parse(&text).is_err(), "corrupted write must not validate");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
