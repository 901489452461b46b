//! Crash-consistent epoch checkpoints for the replay pool.
//!
//! At a configurable epoch cadence the coordinator serializes its full
//! deterministic state — the per-shard tracker sets (via the raw
//! export/import constructors in `stat4-core`; a shard's length
//! distribution is its counts alone, because counts are merged and the
//! quantile is read exactly, and the marker walk is the paper's
//! per-packet tracker, which no shard runs), the supervisor's
//! degraded-mode bookkeeping, the detection ensemble's and drilldown
//! ladder's exported state, alert provenance verbatim, and the
//! lifecycle generation plus the optional data-plane shadow registers —
//! into one versioned JSON document guarded by an FNV-1a 64 checksum.
//!
//! **Write discipline.** A checkpoint is written to a temp file in the
//! same directory, fsynced, then atomically renamed into place (and the
//! directory fsynced, best effort). A crash mid-write therefore leaves
//! either the previous checkpoint set intact or a stray temp file the
//! loader ignores — never a half-written `ckpt-*.json`. A write that
//! fails without a crash (a full disk, a rename refused) removes its
//! temp file before it reports the error. The
//! `ckpt_corrupt` fault domain injects torn writes / bit rot *after*
//! the checksum is computed, so the loader's validation path is
//! testable.
//!
//! **Read discipline.** [`load_latest`] scans the directory newest
//! ordinal first and returns the first checkpoint whose magic, version
//! and checksum all validate, reporting every rejected file — a torn
//! or rotted newest checkpoint falls back to its predecessor instead
//! of wedging recovery. `load_latest_with` adds a caller's own check
//! to that rule, which is how resume also falls back past a file whose
//! bytes are intact but whose state no detector could have exported,
//! or no shard could have held at a drain point.
//!
//! **A shard is its geometry, then its live cells.** A shard's four
//! register files (`kinds_counts`, `sk_cells`, `pc_counts`,
//! `hll_registers`) are sized for the worst case, and at a drain point
//! almost every cell is zero. A version-4 file writes each as its
//! non-zero cells, `[index, count]` pairs in increasing index order
//! (`telemetry::json::Sparse`, the form of a histogram's buckets).
//! [`ShardStateRaw`] stays dense in memory. The reader takes each
//! file's length from a fresh shard's geometry, which is this crate's
//! constants, and never from the document: the geometry members are
//! written first and each must hold its one value, so a file of
//! another geometry is refused by name before any register file is
//! allocated, and no file makes the reader allocate more than a fresh
//! shard's register files.
//!
//! **The payload is [`Checkpoint`]'s field list.** [`Checkpoint`] and
//! [`ShardStateRaw`] get both halves of their codec from one
//! `json_struct!` line beside the struct, and every type inside them
//! has its own pair beside its own definition (the provenance records
//! in [`crate::provenance`], an incident's checkpoint form below,
//! `PipelineState` in `p4sim`), so [`serialize`] and [`parse`] here are the
//! header, the checksum and one call each. A checkpoint does not know
//! what is inside an engine: [`anomaly::Ensemble::export_state`] and
//! [`anomaly::ScoreDrilldown::export_state`] write their state as text,
//! the payload carries each as one checked JSON value (a
//! `telemetry::json::Raw`) in the `ensemble` and `drill` members, and
//! [`Checkpoint::rebuild_detection`] lexes that text into fresh
//! instances built from the run's config. The cost of a checkpoint is
//! therefore the size of the state, not the length of the run: every
//! member is bounded by configuration except `provenance`, the run's
//! output (each fired result once; resume rebuilds the fired log from
//! it), which grows with alerts raised, and `incidents`, which grows
//! with shards lost.
//!
//! **The checksum covers the payload bytes as written, where they are
//! written, and neither side builds a tree.** [`serialize`] fills one
//! buffer in one pass: the header with a placeholder for the checksum,
//! the payload streamed behind it by `ToJson::write_json`, then the
//! hash of its span over the placeholder. [`parse`] reads a file in
//! [`serialize`]'s member order in one pass, the payload from the
//! lexer's tokens (`FromJson::read_json`), and hashes the span the
//! lexer reports before it trusts a field; any other file it checks in
//! the order of its verdicts: syntax (the whole document, building
//! nothing), magic, version, checksum, then fields. A reader never
//! trusts its own renderer to reproduce what a writer wrote.

use crate::provenance::AlertProvenanceRecord;
use crate::{
    build_ensemble, IncidentKind, ReplayConfig, ShardIncident, ShardState, KIND_CELLS, MAX_LEN,
    SK_ROWS, SK_WIDTH_LOG2, SRC_HLL_PRECISION,
};
use anomaly::{Ensemble, ScoreDrilldown};
use faultinject::{CkptCorruption, FaultSchedule};
use p4sim::PipelineState;
use stat4_core::freq::FrequencyDist;
use stat4_core::hll::HyperLogLog;
use stat4_core::percentile::{Quantile, QuantileCounts};
use stat4_core::running::RunningStats;
use stat4_core::sketch::CountMinSketch;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use telemetry::json::{self, read_obj, At, Fixed, FromJson, Lexer, Raw, Sparse, ToJson};
use telemetry::{json_struct, Json};

/// First bytes of every checkpoint document.
pub(crate) const MAGIC: &str = "stat4-replay-ckpt";
/// Current checkpoint format version; parsers reject anything else.
/// Version 1 stored the log of every interval the detectors had seen
/// and replayed it on resume; version 2 stores the detectors' state;
/// version 3 stores a shard's length distribution as counts alone, with
/// no walked marker and no total beside them; version 4 stores each
/// shard register file as its non-zero cells; version 5 writes no fired log;
/// version 6 writes no combined score, trigger cause or engine weight;
/// version 7 writes no detector's own record of its alerts.
pub(crate) const VERSION: u64 = 7;

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

/// A checksum as a document holds it, sixteen lower-case hex digits,
/// written into an array and not a `String`: [`serialize`] writes them
/// over the placeholder in its one buffer, [`parse`] compares them.
fn hex_digits(sum: u64) -> [u8; 16] {
    let mut digits = [0; 16];
    for (i, d) in digits.iter_mut().enumerate() {
        *d = b"0123456789abcdef"[((sum >> (60 - 4 * i)) & 0xf) as usize];
    }
    digits
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
    /// Frame-length cell counts; their sum is the total.
    pub pc_counts: Vec<u64>,
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

// The constants are the ones `ShardState::new` builds with. The
// geometry goes first, so that it is checked before any register file
// is allocated.
json_struct!(ShardStateRaw {
    kinds_min: Fixed(0),
    sk_rows: Fixed(SK_ROWS),
    sk_width_log2: Fixed(SK_WIDTH_LOG2),
    pc_min: Fixed(0),
    pc_max: Fixed(MAX_LEN),
    hll_precision: Fixed(SRC_HLL_PRECISION),
    kinds_counts: Sparse(KIND_CELLS as usize),
    len_n,
    len_xsum,
    len_xsumsq,
    sk_cells: Sparse(SK_ROWS << SK_WIDTH_LOG2),
    sk_total,
    pc_counts: Sparse(MAX_LEN as usize + 1),
    hll_registers: Sparse(1 << SRC_HLL_PRECISION),
    packets,
    syn_in_interval,
    packets_in_interval,
    len_sum_in_interval
});

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
            hll_precision: s.src_hll.precision(),
            hll_registers: s.src_hll.registers().to_vec(),
            packets: s.packets,
            syn_in_interval: s.syn_in_interval,
            packets_in_interval: s.packets_in_interval,
            len_sum_in_interval: s.len_sum_in_interval,
        }
    }

    /// Rebuilds the live state, validating every tracker's geometry and
    /// that the trackers agree on what the shard saw.
    ///
    /// # Errors
    ///
    /// A description of the first tracker whose raw state is
    /// inconsistent (wrong cell-array length, out-of-range register or
    /// geometry, length counts that sum past `u64::MAX`, a sketch row
    /// that does not sum to its total), or of the first disagreement
    /// between trackers on the frames the shard saw.
    pub fn restore(&self) -> Result<ShardState, String> {
        let state = ShardState {
            kinds: FrequencyDist::from_raw_counts(self.kinds_min, self.kinds_counts.clone())
                .map_err(|e| format!("kind distribution: {e}"))?,
            len_stats: RunningStats::from_raw(self.len_n, self.len_xsum, self.len_xsumsq),
            dst_sketch: CountMinSketch::from_raw(
                self.sk_rows,
                self.sk_width_log2,
                self.sk_cells.clone(),
                self.sk_total,
            )
            .map_err(|e| format!("destination sketch: {e}"))?,
            len_median: QuantileCounts::from_counts(
                self.pc_min,
                self.pc_max,
                &[Quantile::median()],
                self.pc_counts.clone(),
            )
            .map_err(|e| format!("length counts: {e}"))?,
            src_hll: HyperLogLog::from_registers(self.hll_precision, self.hll_registers.clone())
                .map_err(|e| format!("source HLL: {e}"))?,
            packets: self.packets,
            syn_in_interval: self.syn_in_interval,
            packets_in_interval: self.packets_in_interval,
            len_sum_in_interval: self.len_sum_in_interval,
            // Restored trackers re-base their delta journals at the
            // restored values, so the delta baseline matches.
            taken_packets: self.packets,
        };
        Self::check_agreement(&state)?;
        Ok(state)
    }

    /// A shard feeds every frame to every tracker, so its trackers agree
    /// on what it saw: the kind total, the length moments' `n`, the
    /// length-count total, the sketch total and `packets` are one count,
    /// and the length moments are those of the length counts.
    fn check_agreement(s: &ShardState) -> Result<(), String> {
        let seen = [
            ("kinds", s.kinds.xsum()),
            ("length moments", s.len_stats.n()),
            ("length counts", s.len_median.total()),
            ("destination sketch", s.dst_sketch.total()),
        ];
        if let Some((name, n)) = seen.iter().find(|&&(_, n)| n != s.packets) {
            return Err(format!(
                "trackers disagree on the frames seen: {name} counted {n}, packets is {}",
                s.packets
            ));
        }
        // `RunningStats::push` saturates at the `i64` bounds; on a
        // non-negative domain, the only one a shard holds, that is the
        // exact moment clamped. Neither `i128` sum can overflow on
        // counts that sum to a `u64`, bar a tampered domain minimum.
        let (min, _) = s.len_median.domain();
        let moments = s.len_median.counts().iter().zip(0i128..).try_fold(
            (0i128, 0i128),
            |(sum, sumsq), (&c, i)| {
                let (c, v) = (i128::from(c), i128::from(min) + i);
                let sum = sum.checked_add(c.checked_mul(v)?)?;
                Some((sum, sumsq.checked_add(c.checked_mul(v.checked_mul(v)?)?)?))
            },
        );
        let clamp = |m: i128| m.clamp(i64::MIN.into(), i64::MAX.into()) as i64;
        let (xsum, xsumsq) = (s.len_stats.xsum(), s.len_stats.xsumsq());
        match moments {
            Some((sum, sumsq)) if (clamp(sum), clamp(sumsq)) == (xsum, xsumsq) => Ok(()),
            _ => Err(format!(
                "length moments (xsum {xsum}, xsumsq {xsumsq}) are not those of the length counts"
            )),
        }
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
    /// [`Ensemble::export_state`]'s text at the drain point: engine
    /// states, metrics, fire counts, first fires.
    pub ensemble: Raw,
    /// [`ScoreDrilldown::export_state`]'s text at the drain point.
    pub drill: Raw,
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

json_struct!(Checkpoint {
    next_ordinal,
    checkpoint_ordinal,
    cfg_shards,
    cfg_interval_ns,
    schedule_packets,
    faults_spec,
    fault_seed,
    packets,
    epochs,
    packets_rerouted,
    reports_dropped,
    carried_syns,
    carried_packets,
    carried_len_sum,
    carried_epochs,
    carried_from,
    alive,
    shards,
    incidents,
    ensemble,
    drill,
    provenance,
    generation,
    swaps_committed,
    pipeline
});

impl Checkpoint {
    /// Rebuilds the detection ensemble and the drilldown ladder from `cfg`
    /// and the exported state, the fired log from [`Self::provenance`].
    ///
    /// # Errors
    ///
    /// What [`Ensemble::import_state`], [`Ensemble::log_fired`] or
    /// [`ScoreDrilldown::import_state`] rejects: state that no
    /// detector built from `cfg` could have exported.
    pub fn rebuild_detection(&self, cfg: &ReplayConfig) -> Result<(Ensemble, ScoreDrilldown), String> {
        let mut ensemble = build_ensemble(cfg);
        ensemble.import_state(&mut self.ensemble.lexer())?;
        let records = At::Key(&At::Key(&At::Root("$"), "payload"), "provenance");
        for (i, record) in self.provenance.iter().enumerate() {
            ensemble.log_fired(&record.provenance, At::Key(&At::Idx(&records, i), "provenance"))?;
        }
        let mut drill = ScoreDrilldown::new(cfg.ensemble.trigger);
        drill.import_state(&mut self.drill.lexer())?;
        Ok((ensemble, drill))
    }
}

/// An incident as a checkpoint holds it (a snapshot holds
/// [`crate::provenance::IncidentRef`]s): `kind` is the variant's tag,
/// `msg` its message (empty for a crash).
struct IncidentForm {
    shard: usize,
    epoch: u64,
    kind: String,
    msg: String,
}

json_struct!(IncidentForm { shard, epoch, kind, msg });

impl ToJson for ShardIncident {
    fn write_json(&self, out: &mut String) {
        let (kind, msg) = match &self.kind {
            IncidentKind::Crashed => ("crashed", String::new()),
            IncidentKind::Panicked(m) => ("panicked", m.clone()),
        };
        IncidentForm { shard: self.shard, epoch: self.epoch, kind: kind.to_string(), msg }.write_json(out);
    }
}

impl FromJson for ShardIncident {
    fn read_json(lx: &mut Lexer<'_>, at: At<'_>) -> Result<Self, String> {
        let IncidentForm { shard, epoch, kind, msg } = IncidentForm::read_json(lx, at)?;
        let kind = match kind.as_str() {
            "crashed" => IncidentKind::Crashed,
            "panicked" => IncidentKind::Panicked(msg),
            other => return Err(at.err(format_args!("unknown incident kind {other:?}"))),
        };
        Ok(Self { shard, epoch, kind })
    }
}

// ---- document ------------------------------------------------------

/// Serializes a checkpoint into its on-disk document: magic, version,
/// checksum, then the payload. One buffer, written once: the header
/// goes in with sixteen zeros where the checksum belongs, the payload
/// is streamed behind it, and the checksum of those bytes, taken where
/// they lie, is written over the zeros.
#[must_use]
pub fn serialize(c: &Checkpoint) -> String {
    let mut out = format!("{{\"magic\":\"{MAGIC}\",\"version\":{VERSION},\"checksum\":\"");
    let sum_at = out.len();
    out.push_str("0000000000000000\",\"payload\":");
    let payload_at = out.len();
    c.write_json(&mut out);
    let digits = hex_digits(fnv1a64(&out.as_bytes()[payload_at..]));
    let digits = std::str::from_utf8(&digits).expect("hex digits are ASCII");
    out.replace_range(sum_at..sum_at + 16, digits);
    out.push('}');
    out
}

/// Parses a checkpoint document, validating magic, version and the
/// payload bytes' checksum before any field is trusted. A file as
/// [`serialize`] writes it is read in one pass; any other is checked in
/// the order of the verdicts: syntax, magic, version, checksum, fields.
///
/// # Errors
///
/// A description of the first structural problem: bad magic, a version
/// this build does not read (older or newer), a checksum mismatch (the
/// torn-write signal), or a missing/mistyped field with its path.
pub fn parse(text: &str) -> Result<Checkpoint, String> {
    let root = At::Root("$");
    let at = At::Key(&root, "payload");
    if let Some(c) = sealed(text, at) {
        return Ok(c);
    }
    json::check(text)?;
    // The first member of each header name, as its text.
    const HEAD: [&str; 4] = ["magic", "version", "checksum", "payload"];
    let mut head = [None; 4];
    read_obj(&mut Lexer::new(text), root, |key, lx, _| {
        let Some(i) = HEAD.iter().position(|k| *k == key).filter(|&i| head[i].is_none()) else {
            return Ok(false);
        };
        let from = lx.pos();
        lx.skip()?;
        head[i] = Some(&text[from..lx.pos()]);
        Ok(true)
    })?;
    let member = |i: usize| json::need(head[i], root, HEAD[i]);
    let magic: String = json::read(member(0)?, At::Key(&root, HEAD[0]))?;
    if magic != MAGIC {
        return Err(format!("not a checkpoint: magic {magic:?}"));
    }
    let version: u64 = json::read(member(1)?, At::Key(&root, HEAD[1]))?;
    if version > VERSION {
        return Err(format!(
            "checkpoint version {version} is newer than supported {VERSION}"
        ));
    }
    if version < VERSION {
        let why = match version {
            6 => "was written before the detectors left the record of their alerts to the ensemble",
            5 => "was written before the ensemble dropped its combined score and weights",
            4 => "was written before the fired log was read from provenance",
            3 => "was written before shards stored their non-zero cells alone",
            2 => "was written before shards kept length counts alone",
            _ => "was written before detector-state checkpoints",
        };
        return Err(format!("checkpoint version {version} {why}; re-run from the start"));
    }
    let want: String = json::read(member(2)?, At::Key(&root, HEAD[2]))?;
    let payload = member(3)?;
    let got = hex_digits(fnv1a64(payload.as_bytes()));
    if got != want.as_bytes() {
        let got = String::from_utf8_lossy(&got);
        return Err(format!(
            "checksum mismatch: payload hashes to {got}, header says {want}"
        ));
    }
    json::read(payload, at)
}

/// A file in [`serialize`]'s member order, read in one pass with the
/// payload hashed where it was read; `None` for any other.
fn sealed(text: &str, at: At<'_>) -> Option<Checkpoint> {
    let mut lx = Lexer::new(text);
    let Ok(Json::Obj(_)) = lx.value() else { return None };
    let mut member = |key: &str| match lx.next_key() {
        Ok(Some(k)) if k == key => lx.value().ok(),
        _ => None,
    };
    let head = [member("magic")?, member("version")?, member("checksum")?];
    let [Json::Str(magic), Json::Int(version), Json::Str(want)] = head else { return None };
    (magic == MAGIC && version == VERSION as i64 && lx.next_key().ok()?? == "payload").then_some(())?;
    let from = lx.pos();
    let c = Checkpoint::read_json(&mut lx, at).ok()?;
    let sum = hex_digits(fnv1a64(&text.as_bytes()[from..lx.pos()]));
    (sum == want.as_bytes() && lx.next_key() == Ok(None) && lx.finish().is_ok()).then_some(c)
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
pub(crate) fn write_serialized(
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
    let place = || {
        let mut f = std::fs::File::create(&tmp_path)
            .map_err(|e| format!("cannot create {}: {e}", tmp_path.display()))?;
        f.write_all(&bytes)
            .map_err(|e| format!("cannot write {}: {e}", tmp_path.display()))?;
        f.sync_all()
            .map_err(|e| format!("cannot fsync {}: {e}", tmp_path.display()))?;
        drop(f);
        std::fs::rename(&tmp_path, &final_path).map_err(|e| {
            format!(
                "cannot rename {} to {}: {e}",
                tmp_path.display(),
                final_path.display()
            )
        })
    };
    if let Err(e) = place() {
        // A disk that is full must not gain one partial file per
        // attempt. Best effort: what is reported is what stopped the
        // write.
        let _ = std::fs::remove_file(&tmp_path);
        return Err(e);
    }
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
pub(crate) fn load_latest_with<T>(
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
            // `u64::from_str` takes `+1` and `1` too: only `file_name`'s form.
            .filter(|&ord| name == file_name(ord))
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
    use anomaly::{DetectionResult, EngineAtFire};
    use std::fmt::Debug;
    use telemetry::json::{read, render, write};

    /// The value `text` as a checkpoint member holds it.
    fn raw(text: &str) -> Raw {
        read(text, At::Root("raw")).unwrap()
    }

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

    /// An ensemble a few intervals into a run.
    fn sample_ensemble() -> Ensemble {
        let cfg = ReplayConfig::default();
        let mut ensemble = build_ensemble(&cfg);
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
            cfg_interval_ns: 10_000_000,
            schedule_packets: 400,
            faults_spec: String::from("ctrl_loss=0.30"),
            fault_seed: u64::MAX - 3,
            packets: 400,
            epochs: 7,
            packets_rerouted: 12,
            reports_dropped: 1,
            carried_syns: 5,
            carried_packets: 40,
            carried_len_sum: 2_400,
            carried_epochs: 1,
            carried_from: vec![6],
            alive: vec![false, true],
            shards: vec![None, Some(ShardStateRaw::of(&s))],
            incidents: vec![ShardIncident {
                shard: 0,
                epoch: 4,
                kind: IncidentKind::Panicked(String::from("injected fault")),
            }],
            ensemble: Raw::of(|out| sample_ensemble().export_state(out)),
            drill: Raw::of(|out| ScoreDrilldown::new(ReplayConfig::default().ensemble.trigger).export_state(out)),
            provenance: crate::snapshot::tests::sample_snapshot().provenance,
            generation: 2,
            swaps_committed: 2,
            pipeline: Some(PipelineState {
                registers: vec![(String::from("rate_window"), vec![1, 2, 3])],
                packets_processed: 77,
            }),
        }
    }

    /// The digits are `{:016x}`'s, a leading zero included.
    #[test]
    fn hex_digits_are_the_padded_lower_case_hex() {
        for sum in [0, 1, 0x0abc_def0_1234_5678, 0xfedc_ba98_7654_3210, u64::MAX] {
            assert_eq!(hex_digits(sum), format!("{sum:016x}").as_bytes(), "{sum}");
        }
    }

    #[test]
    fn shard_state_raw_round_trips_exactly() {
        let s = sample_state();
        let raw = ShardStateRaw::of(&s);
        let restored = raw.restore().expect("captured state restores");
        assert_eq!(restored, s);
    }

    /// What every codec owes: the value comes back equal from its own
    /// text, which is canonical JSON (the tree parsed from it renders
    /// back to it), and writes the same bytes again.
    fn round_trips<T: ToJson + FromJson + PartialEq + Debug>(x: &T) {
        let text = write(x);
        assert_eq!(render(&Json::parse(&text).expect("own text parses")), text, "canonical");
        let back = read::<T>(&text, At::Root("$")).expect("own form reads back");
        assert_eq!(&back, x);
        assert_eq!(write(&back), text, "re-written byte-identical");
    }

    /// One sample of every type that has the pair, from the three
    /// documents down to their leaves.
    #[test]
    fn every_codec_round_trips() {
        let c = sample_checkpoint();
        round_trips(&c);
        let shard = c.shards[1].as_ref().unwrap();
        round_trips(shard);
        round_trips(c.pipeline.as_ref().unwrap());
        for kind in [
            IncidentKind::Crashed,
            IncidentKind::Panicked(String::from("boom \"quoted\"")),
        ] {
            round_trips(&ShardIncident { shard: 3, epoch: 7, kind });
        }
        let ensemble = sample_ensemble();
        round_trips(&ensemble.metrics[0]);
        round_trips(&ensemble.metrics[0].detection_delay);
        round_trips(&ensemble.metrics[0].fires);
        round_trips(&c.ensemble);
        round_trips(&c.drill);

        let snap = crate::snapshot::tests::sample_snapshot();
        round_trips(&snap);
        round_trips(&snap.health);
        round_trips(&snap.health.incidents[0]);
        round_trips(&snap.ensemble);
        round_trips(&snap.ensemble.engines[0]);
        round_trips(&snap.merged);
        let record = &snap.provenance[0];
        round_trips(record);
        round_trips(&record.provenance);
        round_trips(&record.provenance.signals);
        round_trips(&record.provenance.engines[0]);
        round_trips(&record.lineage);
        round_trips(&record.drilldown[0]);

        let report = crate::lifecycle::tests::sample_report();
        round_trips(&report);
        round_trips(&report.events[0]);

        round_trips(&vec![Some(u64::MAX), None, Some(0), Some(1 << 63)]);
        round_trips(&vec![i64::MIN, i64::MAX]);
    }

    /// `v[path[0]][path[1]]...`, members by key and items by index.
    fn member<'a>(v: &'a mut Json, path: &[&str]) -> &'a mut Json {
        path.iter().fold(v, |v, step| match v {
            Json::Obj(members) => &mut members.iter_mut().find(|(k, _)| k == step).expect(step).1,
            Json::Arr(items) => &mut items[step.parse::<usize>().expect(step)],
            other => panic!("{step}: cannot index {other:?}"),
        })
    }

    /// The sample checkpoint's payload as a tree, to tamper with.
    fn sample_tree() -> Json {
        Json::parse(&write(&sample_checkpoint())).unwrap()
    }

    /// A tampered payload under a header that is right for it, spelled
    /// here on its own so the header's form is pinned too.
    fn framed(payload: &Json) -> String {
        sealed(&render(payload))
    }

    /// The payload text `body` under a header that is right for it.
    fn sealed(body: &str) -> String {
        let sum = fnv1a64(body.as_bytes());
        format!(
            r#"{{"magic":"stat4-replay-ckpt","version":7,"checksum":"{sum:016x}","payload":{body}}}"#
        )
    }

    #[test]
    fn a_deep_member_under_a_good_checksum_is_refused_by_the_nesting_guard() {
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        let unknown = write(&sample_checkpoint()).replacen('{', &format!("{{\"zzz\":{deep},"), 1);
        let mut c = sample_checkpoint();
        c.ensemble = raw("null");
        let ensemble = write(&c).replacen("\"ensemble\":null", &format!("\"ensemble\":{deep}"), 1);
        for body in [unknown, ensemble] {
            assert!(body.contains(&deep));
            let err = parse(&sealed(&body)).unwrap_err();
            assert!(err.contains("nesting deeper than 256"), "{err}");
        }
        // At the guard's edge: a member of the payload sits two deep in
        // the file, so 254 brackets around a value are the most it takes.
        for (brackets, taken) in [(254, true), (255, false)] {
            let nested = "[".repeat(brackets) + "0" + &"]".repeat(brackets);
            let body = write(&sample_checkpoint()).replacen('{', &format!("{{\"zzz\":{nested},"), 1);
            assert_eq!(parse(&sealed(&body)).is_ok(), taken, "{brackets} brackets");
        }
    }

    #[test]
    fn a_refused_payload_names_the_full_path_and_the_reason() {
        let good = sample_tree();
        assert_eq!(framed(&good), serialize(&sample_checkpoint()));
        type Tamper = fn(&mut Json);
        let cases: [(&[&str], Tamper, &str); 13] = [
            (
                &["shards", "1"],
                |m| match m {
                    Json::Obj(members) => members.retain(|(k, _)| k != "pc_counts"),
                    _ => unreachable!(),
                },
                "$.payload.shards[1].pc_counts: missing",
            ),
            (
                &["shards", "1", "pc_counts", "5", "1"],
                |v| *v = Json::Int(-1),
                "$.payload.shards[1].pc_counts[5]: not a non-negative integer",
            ),
            (
                &["shards", "1", "pc_counts", "5"],
                |v| *v = Json::Int(65),
                "$.payload.shards[1].pc_counts[5]: not an [index, count] pair",
            ),
            (
                &["shards", "1", "pc_counts", "5", "0"],
                |v| *v = Json::Int(2048),
                "$.payload.shards[1].pc_counts[5]: index 2048 is outside its 2048 cells",
            ),
            (
                &["shards", "1", "sk_cells", "1", "0"],
                |v| *v = Json::Int(0),
                "$.payload.shards[1].sk_cells[1]: index 0 does not increase on index 0",
            ),
            (
                &["shards", "1", "len_xsum"],
                |v| *v = Json::Str("x".into()),
                "$.payload.shards[1].len_xsum: not an integer",
            ),
            (
                &["shards", "1", "sk_width_log2"],
                |v| *v = Json::Int(1 << 32),
                "$.payload.shards[1].sk_width_log2: overflows u32",
            ),
            (
                &["shards", "1", "sk_width_log2"],
                |v| *v = Json::Int(27),
                "$.payload.shards[1].sk_width_log2: 27 is not the 12 this build reads",
            ),
            (
                &["shards", "1", "hll_registers", "0", "1"],
                |v| *v = Json::Int(256),
                "$.payload.shards[1].hll_registers[0]: overflows u8",
            ),
            (
                &["alive", "0"],
                |v| *v = Json::Int(0),
                "$.payload.alive[0]: not a boolean",
            ),
            (
                &["incidents", "0", "kind"],
                |v| *v = Json::Str("vanished".into()),
                "$.payload.incidents[0]: unknown incident kind \"vanished\"",
            ),
            (
                &["pipeline", "registers", "0", "cells", "1"],
                |v| *v = Json::Null,
                "$.payload.pipeline.registers[0].cells[1]: not a non-negative integer",
            ),
            (
                &["provenance", "0", "drilldown", "0", "binds"],
                |v| *v = Json::Int(-1),
                "$.payload.provenance[0].drilldown[0].binds: not a non-negative integer",
            ),
        ];
        for (path, tamper, want) in cases {
            let mut bad = good.clone();
            tamper(member(&mut bad, path));
            assert_ne!(bad, good, "{path:?}: the tamper must hit");
            assert_eq!(parse(&framed(&bad)).unwrap_err(), want);
        }
    }

    #[test]
    fn a_checkpoint_that_still_carries_cfg_batch_loads() {
        // Files written before the batch knob was deleted have one
        // member more; version 2 still reads them, to the same value.
        let mut payload = sample_tree();
        let Json::Obj(members) = &mut payload else {
            unreachable!("a checkpoint renders as an object")
        };
        let at = members.iter().position(|(k, _)| k == "cfg_shards").unwrap() + 1;
        members.insert(at, (String::from("cfg_batch"), Json::Int(256)));
        let text = framed(&payload);
        assert!(text.contains("\"cfg_shards\":2,\"cfg_batch\":256,"), "{text}");
        assert_eq!(parse(&text).unwrap(), sample_checkpoint());
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
        for (old, lacks) in [
            (0, "before detector-state checkpoints"),
            (1, "before detector-state checkpoints"),
            (2, "before shards kept length counts alone"),
            (3, "before shards stored their non-zero cells alone"),
            (4, "before the fired log was read from provenance"),
            (5, "before the ensemble dropped its combined score"),
            (6, "before the detectors left the record of their alerts to the ensemble"),
        ] {
            let err = parse(&text.replace(&current, &format!("\"version\":{old}"))).unwrap_err();
            assert!(err.contains(lacks) && err.contains("re-run"), "version {old}: {err}");
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
        let mut c = sample_checkpoint();
        // A quiet engine beside the one that fired: only the fired
        // result goes into the log.
        let engines = &mut c.provenance[0].provenance.engines;
        let quiet = EngineAtFire { engine: String::from("cusum"), fired: false, ..engines[0].clone() };
        engines.insert(0, quiet);
        let (ensemble, drill) = c.rebuild_detection(&cfg).expect("own export imports");
        assert_eq!(Raw::of(|out| ensemble.export_state(out)), c.ensemble);
        assert_eq!(Raw::of(|out| drill.export_state(out)), c.drill);
        assert_eq!(ensemble.summaries(), sample_ensemble().summaries());
        let (p, fired) = (&c.provenance[0].provenance, &c.provenance[0].provenance.engines[1]);
        let logged = DetectionResult {
            engine: "synflood",
            at: p.at,
            epoch: p.epoch,
            score: fired.score,
            confidence: fired.confidence,
            expected: fired.expected,
            observed: fired.observed,
            fired: true,
        };
        assert_eq!(ensemble.fired_log, [logged]);

        let mut bad = c.clone();
        bad.drill = raw("null");
        assert!(bad.rebuild_detection(&cfg).unwrap_err().contains("drilldown"));
        let mut bad = c.clone();
        bad.provenance[0].provenance.engines[1].engine = String::from("entropy");
        assert_eq!(
            bad.rebuild_detection(&cfg).unwrap_err(),
            "$.payload.provenance[0].provenance.engines[1].engine: unknown engine \"entropy\""
        );
    }

    /// A file in another member order takes the path that checks its
    /// verdicts one by one, with no tree: syntax, magic, version,
    /// checksum, then fields.
    #[test]
    fn verdicts_come_in_order_off_the_one_pass() {
        let c = sample_checkpoint();
        let body = write(&c);
        let sum = fnv1a64(body.as_bytes());
        let header = |magic: &str, version: u64, sum: u64| {
            format!(r#""magic":"{magic}","version":{version},"checksum":"{sum:016x}""#)
        };
        // The header written after the payload reads to the same value.
        let after = format!(r#"{{"payload":{body},{}}}"#, header(MAGIC, VERSION, sum));
        assert_eq!(parse(&after), Ok(c.clone()));
        // A version-3 header over a payload no reader takes: the version.
        let unreadable = r#"{"next_ordinal":"seven"}"#;
        let old = format!(r#"{{{},"payload":{unreadable}}}"#, header(MAGIC, 3, fnv1a64(unreadable.as_bytes())));
        let err = parse(&old).unwrap_err();
        assert!(err.starts_with("checkpoint version 3 was written before"), "{err}");
        // A torn payload under an intact header, in either order.
        let torn = body.replacen("\"packets\":400", "\"packets\":4", 1);
        assert_ne!(torn, body);
        for doc in [
            format!(r#"{{{},"payload":{torn}}}"#, header(MAGIC, VERSION, sum)),
            format!(r#"{{"payload":{torn},{}}}"#, header(MAGIC, VERSION, sum)),
        ] {
            assert!(parse(&doc).unwrap_err().starts_with("checksum mismatch"), "{doc}");
        }
        // A wrong magic comes before a version this build does not read.
        let other = format!(r#"{{{},"payload":{body}}}"#, header("other", 999, sum));
        assert_eq!(parse(&other).unwrap_err(), "not a checkpoint: magic \"other\"");
        // Syntax comes before everything, wherever it breaks.
        let broken = format!("{other} x");
        assert_eq!(parse(&broken), Err(Json::parse(&broken).unwrap_err()));
        // The fields come last, with their path.
        let fields = body.replacen("\"packets\":400", "\"packets\":-1", 1);
        let sealed = format!(r#"{{"payload":{fields},{}}}"#, header(MAGIC, VERSION, fnv1a64(fields.as_bytes())));
        assert_eq!(parse(&sealed).unwrap_err(), "$.payload.packets: not a non-negative integer");
        assert_eq!(parse("{}").unwrap_err(), "$.magic: missing");
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
        refused.drill = raw("null");
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
        assert_eq!(Raw::of(|out| ensemble.export_state(out)), good.ensemble);
        assert_eq!(rejected.len(), 2);
        assert!(rejected[1].contains("ckpt-000004") && rejected[1].contains("drilldown"), "{rejected:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A file an older build left behind, newest under a valid
    /// checksum: its version is refused before any member is read, with
    /// what it lacks, and the loader falls back to its predecessor.
    fn an_old_version_falls_back(version: u64, lacks: &str) {
        let dir = std::env::temp_dir().join(format!("stat4-ckpt-v{version}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let good = sample_checkpoint();
        write_checkpoint(&dir, &good, &FaultSchedule::none()).unwrap();
        let mut newer = good.clone();
        newer.checkpoint_ordinal = 4;
        let old = serialize(&newer).replacen(&format!("\"version\":{VERSION}"), &format!("\"version\":{version}"), 1);
        std::fs::write(dir.join(file_name(4)), old).unwrap();

        let (loaded, rejected) = load_latest(&dir).expect("fallback to #3");
        assert_eq!(loaded, good);
        let [refusal] = rejected.as_slice() else { panic!("{rejected:?}") };
        assert!(
            refusal.contains("ckpt-000004")
                && refusal.contains(&format!("checkpoint version {version} {lacks}"))
                && refusal.contains("re-run"),
            "{refusal}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_version_2_checkpoint_is_refused_with_its_reason_and_the_loader_falls_back() {
        an_old_version_falls_back(2, "was written before shards kept length counts alone");
    }

    #[test]
    fn a_version_3_checkpoint_is_refused_with_its_reason_and_the_loader_falls_back() {
        an_old_version_falls_back(3, "was written before shards stored their non-zero cells alone");
    }

    #[test]
    fn a_version_5_checkpoint_is_refused_with_its_reason_and_the_loader_falls_back() {
        an_old_version_falls_back(5, "was written before the ensemble dropped its combined score and weights");
    }

    #[test]
    fn the_loader_takes_only_the_names_it_writes() {
        let dir = std::env::temp_dir().join(format!("stat4-ckpt-names-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let good = sample_checkpoint();
        write_checkpoint(&dir, &good, &FaultSchedule::none()).unwrap();
        // Names `u64::from_str` reads as ordinal 4, newer than #3, each
        // holding a checkpoint that validates: no writer made them.
        let mut stray = good.clone();
        stray.checkpoint_ordinal = 4;
        stray.next_ordinal = 9;
        for name in ["ckpt-+4.json", "ckpt-4.json", "ckpt-0000004.json"] {
            std::fs::write(dir.join(name), serialize(&stray)).unwrap();
        }
        let (loaded, rejected) = load_latest(&dir).expect("#3 loads");
        assert_eq!(loaded, good);
        assert!(rejected.is_empty(), "{rejected:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_write_names_the_path_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("stat4-ckpt-fail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // A directory where checkpoint 0 belongs: the temp file is
        // written and synced, then the rename over it is refused.
        std::fs::create_dir_all(dir.join(file_name(0))).unwrap();
        let mut c = sample_checkpoint();
        c.checkpoint_ordinal = 0;
        let err = write_checkpoint(&dir, &c, &FaultSchedule::none()).unwrap_err();
        assert!(err.contains("cannot rename") && err.contains("ckpt-000000.json"), "{err}");
        let left: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(left, vec![file_name(0)], "only the obstacle remains");
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
