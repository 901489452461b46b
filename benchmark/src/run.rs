//! One workload in this process: the end-to-end run (tracing off) and
//! the traced run that prices each layer.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use faultinject::FaultSchedule;
use p4sim::phv::fields;
use p4sim::Pipeline;
use replay::{ckpt, render_outcome_json, run_replay, ReplayConfig, ShardState};
use stat4_p4::{EchoApp, MedianApp, MedianAppParams, SketchApp, SketchAppParams, Stat4Config};
use telemetry::{check_trace, LogLinearHistogram, Tracer};
use workloads::Schedule;

use crate::affinity::{self, CpuSet};
use crate::metrics::{Def, Values, END_TO_END, PER_LAYER};
use crate::staged::{self, Spans};
use crate::workload::{P4Workload, Rep, ReplayRun, ReplayWorkload, Workload};
use crate::{alloc, procfs, stats};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 5;

pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    /// The CPUs this process was allowed before it confined itself to
    /// one, if it did.
    pub free_cpus: Option<CpuSet>,
}

/// What one run reports: the driver's result line plus the lines a
/// person reads.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(Def, f64)>,
    pub notes: Vec<String>,
}

/// Where the harness may write: `benchmark/out/` of the checkout this
/// binary was built in.
#[must_use]
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A directory of this process's own under `out/tmp/`, removed again
/// when the guard drops.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Self {
        Self(out_dir().join("tmp").join(std::process::id().to_string()))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Best effort: a leftover directory is ignored by git and
        // harmless to the next run, which uses another pid.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Rep times and verdicts of one timed window.
struct Window {
    wall_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
    /// Worst detection over the passing reps, `(epochs, ns)`.
    delay: (u64, u64),
    /// CPU seconds (all threads) spent inside the reps.
    cpu_s: f64,
}

/// Calls `rep`, then `between`, again and again for `budget`, at least
/// once.
fn window(budget: Duration, mut rep: impl FnMut() -> Rep, mut between: impl FnMut()) -> Window {
    let mut w = Window {
        wall_s: Vec::new(),
        attempted: 0,
        failed: 0,
        first_error: None,
        delay: (0, 0),
        cpu_s: 0.0,
    };
    let started = Instant::now();
    loop {
        let cpu0 = procfs::cpu_seconds();
        let r = rep();
        if let (Some(a), Some(b)) = (cpu0, procfs::cpu_seconds()) {
            w.cpu_s += b - a;
        }
        w.attempted += 1;
        match r.verdict {
            Ok(d) => {
                w.wall_s.push(r.wall_s);
                w.delay = w.delay.max((d.epochs, d.delay_ns));
            }
            Err(e) => {
                w.failed += 1;
                w.first_error.get_or_insert(e);
            }
        }
        between();
        if started.elapsed() >= budget {
            return w;
        }
    }
}

impl Window {
    /// The window, unless no rep in it passed.
    fn or_all_failed(self) -> Result<Self, String> {
        if self.wall_s.is_empty() {
            return Err(format!(
                "all {} rep(s) failed: {}",
                self.attempted,
                self.first_error.unwrap_or_default()
            ));
        }
        Ok(self)
    }
}

/// The end-to-end run: set up, rep for `opts.seconds` with tracing
/// off, then set up again until there are [`SETUPS`] set-up times.
///
/// # Errors
///
/// A set-up that fails, or a window in which no rep passed.
pub fn end_to_end(opts: &Options) -> Result<Outcome, String> {
    let scratch = Scratch::new();
    let timed_setup = || {
        let t0 = Instant::now();
        Workload::setup(&opts.workload, opts.seed, &scratch.0)
            .map(|w| (w, t0.elapsed().as_secs_f64()))
    };
    let (w, first_setup_s) = timed_setup()?;
    let win = window(Duration::from_secs(opts.seconds), || w.rep(), || {}).or_all_failed()?;
    // Read before the repeat set-ups below, so the peak is that of a
    // process that set up once and ran its reps.
    let peak_rss_mb = procfs::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    let frames = w.frames();
    drop(w);
    let mut setup_s = vec![first_setup_s];
    for _ in 1..SETUPS {
        setup_s.push(timed_setup()?.1);
    }

    let times = stats::sorted(&win.wall_s);
    let (hi_pct, hi) = stats::highest_with_ten_beyond(&times);

    let mut v = Values::default();
    // The fast decile: on a shared machine the slow tail of a rep
    // measures the neighbours, the fast decile measures the program.
    v.set("pps", frames as f64 / stats::quantile(&times, 0.10));
    v.set("peak_rss_mb", peak_rss_mb);
    v.set("setup_s", stats::median(&setup_s));
    v.set("detect_delay_epochs", win.delay.0 as f64);

    let mut notes = vec![
        format!("frames per rep     {frames}"),
        format!(
            "rep time           p10 {:.3} ms, p50 {:.3} ms, p{hi_pct:.1} {:.3} ms over {} rep(s)",
            stats::quantile(&times, 0.10) * 1e3,
            stats::quantile(&times, 0.50) * 1e3,
            hi * 1e3,
            times.len()
        ),
        format!(
            "failed_share       {} ({} of {} rep(s))",
            win.failed as f64 / win.attempted as f64,
            win.failed,
            win.attempted
        ),
        format!("detect_delay_ms    {}", win.delay.1 as f64 / 1e6),
        format!("set-up times       {setup_s:.3?} s"),
    ];
    if let Some(e) = &win.first_error {
        notes.push(format!("first failure      {e}"));
    }
    Ok(Outcome {
        correct: win.failed == 0,
        attempted: win.attempted,
        failed: win.failed,
        metrics: v.in_order(&END_TO_END),
        notes,
    })
}

/// Median over the recorded passes of each span name's total, in ns.
struct StageTimes(Vec<std::collections::BTreeMap<&'static str, u64>>);

impl StageTimes {
    fn ns(&self, name: &str) -> f64 {
        let per_pass: Vec<f64> = self
            .0
            .iter()
            .map(|t| t.get(name).copied().unwrap_or(0) as f64)
            .collect();
        stats::median(&per_pass)
    }

    fn sum_ns(&self, names: &[&str]) -> f64 {
        names.iter().map(|n| self.ns(n)).sum()
    }
}

/// What the staged passes of one traced run found.
struct Staged<T> {
    stages: StageTimes,
    /// Staged pass with spans on against spans off, in percent.
    trace_overhead_pct: f64,
    /// The last traced pass and its spans.
    last: T,
    spans: Spans,
}

/// For `budget`, in turn: one ordinary rep, one staged pass with spans
/// off, one with spans on. Taking turns puts the three under the same
/// neighbours, so a slow minute on the host moves their ratios little.
fn interleaved<T>(
    budget: Duration,
    rep: impl FnMut() -> Rep,
    pass: impl Fn(&mut Spans) -> T,
    wall_s: impl Fn(&T) -> f64,
) -> Result<(Window, Staged<T>), String> {
    let (mut off_s, mut on_s, mut totals) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    let win = window(budget, rep, || {
        off_s.push(wall_s(&pass(&mut Spans::off())));
        let mut spans = Spans::recording();
        let result = pass(&mut spans);
        on_s.push(wall_s(&result));
        totals.push(spans.totals());
        last = Some((result, spans));
    })
    .or_all_failed()?;
    let (last, spans) = last.expect("a window runs at least once");
    let staged = Staged {
        stages: StageTimes(totals),
        trace_overhead_pct: (stats::median(&on_s) / stats::median(&off_s) - 1.0) * 100.0,
        last,
        spans,
    };
    Ok((win, staged))
}

/// Writes the trace document and holds it to `check_trace`.
fn write_trace(name: &str, spans: &Spans) -> Result<Vec<String>, String> {
    let path = out_dir().join(format!("{name}.trace.json"));
    let text = spans.chrome_json();
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, &text))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let summary =
        check_trace(&text).map_err(|errs| format!("trace fails check_trace: {errs:?}"))?;
    if summary.dropped > 0 {
        return Err(format!("trace dropped {} event(s)", summary.dropped));
    }
    Ok(vec![format!(
        "trace              {} ({} events, {} spans, check_trace ok)",
        path.display(),
        summary.events,
        summary.spans
    )])
}

/// Median wall time of `f` over `n` calls, in seconds.
fn time_median<T>(n: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&samples)
}

/// What the harness sees of the untraced reps: time, CPU, allocations.
fn harness_metrics(v: &mut Values, win: &Window, frames: f64, allocs: (u64, u64)) {
    let times = stats::sorted(&win.wall_s);
    let (hi_pct, hi) = stats::highest_with_ten_beyond(&times);
    let total_wall: f64 = win.wall_s.iter().sum();
    v.set("harness.run_ms_p50", stats::quantile(&times, 0.50) * 1e3);
    v.set("harness.run_ms_hi", hi * 1e3);
    v.set("harness.hi_pct", hi_pct);
    v.set("harness.reps", times.len() as f64);
    v.set(
        "harness.cpu_ns_per_pkt",
        win.cpu_s * 1e9 / (frames * win.attempted as f64),
    );
    v.set("harness.cores_busy", win.cpu_s / total_wall);
    v.set("harness.allocs_per_pkt", allocs.0 as f64 / frames);
    v.set("harness.alloc_bytes_per_pkt", allocs.1 as f64 / frames);
}

/// Costs of the telemetry crate's primitives, which every replay
/// epoch pays some number of.
fn telemetry_primitives(v: &mut Values) {
    const N: u64 = 1_000_000;
    let mut hist = LogLinearHistogram::default();
    let t0 = Instant::now();
    for i in 0..N {
        hist.record(black_box(i.wrapping_mul(2_654_435_761) % 1_000_000));
    }
    v.set(
        "telemetry.hist_record_ns",
        t0.elapsed().as_secs_f64() * 1e9 / N as f64,
    );
    black_box(hist.count());

    const SPANS: u64 = 100_000;
    let mut tracer = Tracer::new(2 * SPANS as usize);
    let t0 = Instant::now();
    for i in 0..SPANS {
        tracer.begin("span", i);
        tracer.end("span", i);
    }
    v.set(
        "telemetry.span_ns",
        t0.elapsed().as_secs_f64() * 1e9 / SPANS as f64,
    );
    black_box(tracer.events().len());
}

/// The traced run of one workload.
///
/// # Errors
///
/// A set-up that fails, a window in which no rep passed, or a trace
/// that cannot be written or does not validate.
pub fn traced(opts: &Options) -> Result<Outcome, String> {
    let scratch = Scratch::new();
    let w = Workload::setup(&opts.workload, opts.seed, &scratch.0)?;
    // The rest of the window goes to the one-off measurements.
    let budget = Duration::from_secs_f64(opts.seconds as f64 * 0.8);
    let mut v = Values::default();
    let mut problems = Vec::new();
    let (win, mut notes) = match &w {
        Workload::Replay(rw) => traced_replay(opts, rw, || w.rep(), budget, &mut v, &mut problems)?,
        Workload::P4(pw) => traced_p4(opts, pw, || w.rep(), budget, &mut v, &mut problems)?,
    };
    telemetry_primitives(&mut v);
    problems.extend(win.first_error.iter().cloned());
    notes.extend(problems.iter().map(|p| format!("PROBLEM            {p}")));
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: win.attempted,
        failed: win.failed,
        metrics: v.in_order(&PER_LAYER),
        notes,
    })
}

fn traced_replay(
    opts: &Options,
    w: &ReplayWorkload,
    rep: impl FnMut() -> Rep,
    budget: Duration,
    v: &mut Values,
    problems: &mut Vec<String>,
) -> Result<(Window, Vec<String>), String> {
    let frames = w.schedule.len() as f64;
    let (win, staged) = interleaved(budget, rep, |s| staged::replay_staged(w, s), |r| r.wall_s)?;
    let Staged { stages, last, .. } = &staged;
    let (run, allocs, alloc_bytes) = alloc::count(|| w.run());
    let run = run?;
    harness_metrics(v, &win, frames, (allocs, alloc_bytes));

    let mut notes = write_trace(&opts.workload, &staged.spans)?;
    if last.merged != run.out.merged {
        problems.push(String::from(
            "staged replay's final state differs from the run's merged state",
        ));
    }
    if last.twin != last.merged {
        problems.push(String::from(
            "tracker-by-tracker twin diverged from ingest_meta",
        ));
    }
    if last.fired != run.out.ensemble.fired {
        problems.push(String::from(
            "staged replay's engine fires differ from the run's",
        ));
    }

    let epochs = last.epochs as f64;
    // A stage's span is named after its metric, less the unit.
    for stage in staged::REPLAY_PER_PACKET.iter().chain(&staged::TRACKERS) {
        v.set(&format!("{stage}_ns"), stages.ns(stage) / frames);
    }
    for stage in staged::REPLAY_PER_EPOCH {
        v.set(&format!("{stage}_us"), stages.ns(stage) / epochs / 1e3);
    }
    v.set(
        "replay.delta_wire_bytes",
        last.delta_bytes as f64 / last.delta_epochs.max(1) as f64,
    );

    let rep_ns = stats::median(&win.wall_s) * 1e9;
    let staged_ns =
        stages.sum_ns(&staged::REPLAY_PER_PACKET) + stages.sum_ns(&staged::REPLAY_PER_EPOCH);
    v.set(
        "replay.pool_residual_us",
        (rep_ns - staged_ns) / epochs / 1e3,
    );
    v.set("harness.trace_overhead_pct", staged.trace_overhead_pct);
    v.set("harness.layers_sum_share", staged_ns / rep_ns);
    v.set(
        "harness.per_packet_share",
        stages.sum_ns(&staged::REPLAY_PER_PACKET) / rep_ns,
    );
    notes.push(format!(
        "staged replay      {} epochs, {:.3} ms of stages against a {:.3} ms rep",
        last.epochs,
        staged_ns / 1e6,
        rep_ns / 1e6
    ));

    engine_telemetry(v, w, &run);
    // With one CPU to give back there is nothing to compare.
    if let Some(free) = opts.free_cpus.filter(|f| f.count() >= 2) {
        free_cpus_metrics(v, w, &free, stats::median(&win.wall_s))?;
    }
    if let (Some(shape), Some((killed, resumed))) = (&w.lifecycle, &run.reports) {
        checkpoint_metrics(v, w, &shape.dir, &mut notes)?;
        v.set(
            "replay.ckpts_written",
            (killed.checkpoints_written + resumed.checkpoints_written) as f64,
        );
        let fallbacks = resumed
            .events
            .iter()
            .filter(|e| e.kind == "checkpoint_fallback");
        v.set("replay.ckpt_fallbacks", fallbacks.count() as f64);
    }
    Ok((win, notes))
}

/// What the scheduler makes of the pool when it may use every CPU:
/// a few reps on a thread that is allowed `free` again (the pool's
/// workers inherit that), against the confined rep time `confined_s`.
fn free_cpus_metrics(
    v: &mut Values,
    w: &ReplayWorkload,
    free: &CpuSet,
    confined_s: f64,
) -> Result<(), String> {
    const REPS: usize = 5;
    let (own, two_shards) = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                if !affinity::confine(free) {
                    return Err(String::from("cannot restore the CPU set"));
                }
                let own = (0..REPS)
                    .map(|_| w.run().map(|r| r.wall_s))
                    .collect::<Result<Vec<_>, _>>()?;
                // The dense input again on two shards: whether a second
                // worker helps is the question the old 27 400-packet
                // figure answered at the wrong scale.
                let two = ReplayConfig { shards: 2, ..w.cfg };
                let two_shards = (w.cfg.shards == 1)
                    .then(|| time_median(REPS, || run_replay(&w.schedule, &two)));
                Ok((stats::median(&own), two_shards))
            })
            .join()
            .expect("the unconfined reps do not panic")
    })?;
    v.set("harness.free_cpus_speedup", confined_s / own);
    if let Some(two) = two_shards {
        v.set("replay.pool_2shard_ratio", own / two);
    }
    Ok(())
}

/// What the engine recorded about its own last run, plus its
/// neighbours: the reference engine and the two renderers.
fn engine_telemetry(v: &mut Values, w: &ReplayWorkload, run: &ReplayRun) {
    let t = &run.out.telemetry;
    let shard = t.merged_shard();
    let p50 = |h: &LogLinearHistogram| h.quantile(50).unwrap_or(0) as f64;
    v.set("replay.epoch_ns_p50", p50(&t.epoch_ns));
    v.set("replay.merge_ns_p50", p50(&t.merge_ns));
    v.set("replay.barrier_wait_ns_p50", p50(&shard.barrier_wait_ns));
    v.set("replay.queue_wait_ns_p50", p50(&shard.queue_wait_ns));
    v.set("replay.merge_delta_bytes", t.merge_delta_bytes.get() as f64);
    v.set("replay.merge_rebuilds", t.merge_rebuilds.get() as f64);
    v.set(
        "replay.reference_pps",
        w.schedule.len() as f64 / w.reference_s,
    );
    v.set(
        "replay.snapshot_render_ms",
        time_median(5, || render_outcome_json(&run.out)) * 1e3,
    );
    v.set(
        "telemetry.render_ms",
        time_median(5, || telemetry::render_json(&t.snapshot())) * 1e3,
    );
}

/// Byte sizes of the checkpoint files in `dir`, oldest first.
fn checkpoint_sizes(dir: &Path) -> Result<Vec<u64>, String> {
    let mut files: Vec<(String, u64)> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .flatten()
        .filter_map(|e| Some((e.file_name().into_string().ok()?, e.metadata().ok()?.len())))
        .filter(|(name, _)| name.starts_with("ckpt-"))
        .collect();
    // `ckpt::file_name` zero-pads the ordinal, so names sort by age.
    files.sort();
    Ok(files.into_iter().map(|(_, size)| size).collect())
}

/// Sizes and codec costs of the checkpoints the last lifecycle rep
/// left in `dir`.
fn checkpoint_metrics(
    v: &mut Values,
    w: &ReplayWorkload,
    dir: &Path,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let sizes = checkpoint_sizes(dir)?;
    let (Some(first), Some(last)) = (sizes.first(), sizes.last()) else {
        return Err(format!("no checkpoint files in {}", dir.display()));
    };
    v.set("replay.ckpt_bytes_last", *last as f64);
    v.set("replay.ckpt_growth", *last as f64 / *first as f64);
    notes.push(format!(
        "checkpoints        {} file(s), first {first} B, last {last} B",
        sizes.len()
    ));

    let (latest, _) = ckpt::load_latest(dir)?;
    let text = ckpt::serialize(&latest);
    v.set(
        "replay.ckpt_serialize_ms",
        time_median(5, || ckpt::serialize(&latest)) * 1e3,
    );
    v.set(
        "replay.ckpt_parse_ms",
        time_median(5, || ckpt::parse(&text)) * 1e3,
    );
    v.set(
        "replay.ckpt_rebuild_ms",
        time_median(5, || latest.rebuild_detection(&w.cfg)) * 1e3,
    );
    let rewrite = dir.join("rewrite");
    let none = FaultSchedule::none();
    let write_s = time_median(5, || ckpt::write_checkpoint(&rewrite, &latest, &none));
    v.set("replay.ckpt_write_ms", write_s * 1e3);
    Ok(())
}

fn traced_p4(
    opts: &Options,
    w: &P4Workload,
    rep: impl FnMut() -> Rep,
    budget: Duration,
    v: &mut Values,
    problems: &mut Vec<String>,
) -> Result<(Window, Vec<String>), String> {
    let frames = w.schedule.len() as f64;
    let (win, staged) = interleaved(budget, rep, |s| staged::p4_staged(w, s), |r| r.wall_s)?;
    let Staged { stages, last, .. } = &staged;
    let (_, allocs, alloc_bytes) = alloc::count(|| w.run());
    harness_metrics(v, &win, frames, (allocs, alloc_bytes));

    let mut notes = write_trace(&opts.workload, &staged.spans)?;
    if last.observed != w.expected {
        problems.push(String::from(
            "staged P4 pass differs from the run's digests, registers or steps",
        ));
    }

    let process_ns = stages.ns(staged::P4_PROCESS) / frames;
    v.set("p4sim.parse_frame_ns", stages.ns(staged::P4_PARSE) / frames);
    v.set("p4sim.process_phv_ns", process_ns);
    v.set("p4sim.steps_per_pkt", last.observed.steps as f64 / frames);
    v.set(
        "p4sim.take_register_delta_us",
        stages.ns(staged::P4_TAKE_DELTA) / last.epochs as f64 / 1e3,
    );
    v.set(
        "p4sim.pipeline_clone_us",
        time_median(101, || w.pipeline.clone()) * 1e6,
    );
    v.set("stat4-p4.casestudy_build_ms", w.build_s * 1e3);

    let rep_ns = stats::median(&win.wall_s) * 1e9;
    let staged_ns = stages.sum_ns(&staged::P4_SUM);
    v.set("harness.trace_overhead_pct", staged.trace_overhead_pct);
    v.set("harness.layers_sum_share", staged_ns / rep_ns);
    v.set("harness.per_packet_share", staged_ns / rep_ns);
    notes.push(format!(
        "staged P4 pass     {} intervals, {:.3} ms of stages against a {:.3} ms rep",
        last.epochs,
        staged_ns / 1e6,
        rep_ns / 1e6
    ));

    // The price of P4 legality: the same frames through the native
    // trackers the replay engines run.
    let native_ns = native_ingest_ns(&w.schedule);
    v.set("replay.ingest_meta_ns", native_ns);
    v.set("stat4-p4.native_ratio", process_ns / native_ns);

    // The other built-in programs on the same interpreter and frames.
    let build = |what: &str, e: p4sim::P4Error| format!("{what} build: {e}");
    let echo = EchoApp::build(&Stat4Config::default()).map_err(|e| build("echo", e))?;
    let median = MedianApp::build(MedianAppParams::default()).map_err(|e| build("median", e))?;
    let sketch = SketchApp::build(SketchAppParams::default()).map_err(|e| build("sketch", e))?;
    v.set(
        "stat4-p4.echo_ns",
        app_ns_per_frame(&echo.pipeline, &w.schedule)?,
    );
    v.set(
        "stat4-p4.median_ns",
        app_ns_per_frame(&median.pipeline, &w.schedule)?,
    );
    v.set(
        "stat4-p4.sketch_ns",
        app_ns_per_frame(&sketch.pipeline, &w.schedule)?,
    );
    Ok((win, notes))
}

/// ns/frame of `ShardState::ingest_meta` over `schedule`, one shard.
fn native_ingest_ns(schedule: &Schedule) -> f64 {
    let metas: Vec<_> = schedule
        .iter()
        .map(|(_, f)| replay::parse_frame(f))
        .collect();
    let cfg = ReplayConfig::default();
    let secs = time_median(5, || {
        let mut state = ShardState::new(&cfg);
        for m in &metas {
            state.ingest_meta(m);
        }
        state
    });
    secs * 1e9 / metas.len() as f64
}

/// ns/frame of `process_phv` on a clone of `pipeline`. The echo and
/// median programs read a payload integer the case-study frames do not
/// carry, so each header gets one, cycling through their 512-cell
/// domain; parsing happens outside the timed stretches.
fn app_ns_per_frame(pipeline: &Pipeline, schedule: &Schedule) -> Result<f64, String> {
    let mut pipeline = pipeline.clone();
    let mut spent = Duration::ZERO;
    let mut i = 0u64;
    for chunk in schedule.chunks(4096) {
        let mut phvs: Vec<_> = chunk
            .iter()
            .map(|(t, f)| {
                let mut phv = p4sim::parse_frame(f, 1, *t);
                phv.set(fields::PAYLOAD_VALUE, i % 511);
                i += 1;
                phv
            })
            .collect();
        let t0 = Instant::now();
        for phv in &mut phvs {
            black_box(
                pipeline
                    .process_phv(phv)
                    .map_err(|e| format!("built-in program: {e}"))?,
            );
        }
        spent += t0.elapsed();
    }
    Ok(spent.as_secs_f64() * 1e9 / schedule.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two set-ups of `name` on one seed, each with a scratch
    /// directory of its own (tests run on parallel threads).
    fn twice(name: &str, seed: u64) -> (Scratch, Workload, Workload) {
        let scratch = Scratch(out_dir().join("tmp").join(format!("test-{name}-{seed}")));
        let a = Workload::setup(name, seed, &scratch.0.join("a")).unwrap();
        let b = Workload::setup(name, seed, &scratch.0.join("b")).unwrap();
        (scratch, a, b)
    }

    #[test]
    fn same_seed_same_replay_inputs_and_detection() {
        for name in ["dense_1shard", "sparse_2shard"] {
            let (_scratch, a, b) = twice(name, 7);
            let (Workload::Replay(a), Workload::Replay(b)) = (a, b) else {
                panic!("{name} is a replay workload")
            };
            assert_eq!(a.schedule, b.schedule, "{name}: inputs differ");
            assert_eq!(a.expected_snapshot, b.expected_snapshot);
            let (ra, rb) = (a.run().unwrap(), b.run().unwrap());
            assert_eq!(a.verify(&ra).unwrap(), b.verify(&rb).unwrap());
        }
    }

    #[test]
    fn seed_changes_the_inputs() {
        let scratch = Scratch(out_dir().join("tmp").join("test-seeds"));
        let Workload::P4(a) = Workload::setup("p4_casestudy", 7, &scratch.0).unwrap() else {
            panic!("p4_casestudy is the P4 workload")
        };
        let Workload::P4(b) = Workload::setup("p4_casestudy", 8, &scratch.0).unwrap() else {
            panic!("p4_casestudy is the P4 workload")
        };
        assert_ne!(a.schedule, b.schedule);
    }

    #[test]
    fn same_seed_same_p4_steps_and_detection() {
        let (_scratch, a, b) = twice("p4_casestudy", 7);
        let (Workload::P4(a), Workload::P4(b)) = (a, b) else {
            panic!("p4_casestudy is the P4 workload")
        };
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.expected.steps, b.expected.steps);
        assert_eq!(a.verify(&a.run()).unwrap(), b.verify(&b.run()).unwrap());
    }

    #[test]
    fn same_seed_same_checkpoint_bytes() {
        let (_scratch, a, b) = twice("lifecycle_2shard", 7);
        let (Workload::Replay(a), Workload::Replay(b)) = (a, b) else {
            panic!("lifecycle_2shard is a replay workload")
        };
        assert_eq!(a.schedule, b.schedule);
        // The warm-up rep of each set-up left its checkpoints behind.
        let dir = |w: &ReplayWorkload| w.lifecycle.as_ref().unwrap().dir.clone();
        let (sa, sb) = (
            checkpoint_sizes(&dir(&a)).unwrap(),
            checkpoint_sizes(&dir(&b)).unwrap(),
        );
        assert_eq!(sa.len(), 9, "checkpoints at epochs 100..=900");
        assert_eq!(sa, sb);
        let (ra, rb) = (a.run().unwrap(), b.run().unwrap());
        assert_eq!(a.verify(&ra).unwrap(), b.verify(&rb).unwrap());
    }

    #[test]
    fn unknown_workload_is_an_error() {
        let scratch = Scratch(out_dir().join("tmp").join("test-unknown"));
        assert!(Workload::setup("dense_2shard", 1, &scratch.0).is_err());
    }
}
