//! Replay-engine driver: replays a synthetic workload through the
//! sharded engine and prints the merged statistics, alerts, and
//! throughput. Optionally exports the run's full telemetry snapshot.
//!
//! ```text
//! replay [synflood|mix] [shards] [interval_ms]
//!        [--shards N] [--interval-ms M]
//!        [--faults SPEC] [--seed N]
//!        [--metrics-out PATH] [--metrics-format prom|json]
//!        [--trace-out PATH] [--snapshot-out PATH]
//! ```
//!
//! Flags win over the positional forms. `--metrics-out` writes the
//! telemetry snapshot to PATH — JSON by default, Prometheus text
//! exposition with `--metrics-format prom`. `--trace-out` writes the
//! merged epoch lifecycle trace (coordinator plus every shard) in
//! Chrome trace-event format — open it in `about:tracing`/Perfetto or
//! feed it to `stat4-trace`. `--snapshot-out` writes the deterministic
//! run snapshot (alerts, health, ensemble report, alert provenance) as
//! JSON for `stat4-trace explain`.
//!
//! `--faults` runs the replay under a seeded fault schedule (see
//! `faultinject` for the spec grammar, e.g.
//! `shard_crash=1@3,ctrl_loss=0.30`); `--seed` picks the chaos seed
//! (default 0). The run then prints a `chaos:` summary line with the
//! surviving shard count, coverage, and incident tally — and the same
//! `(spec, seed)` pair always replays bit-identically. `--faults @FILE`
//! loads the spec from FILE instead: one entry (or comma-joined group)
//! per line, `#` comments allowed, and a malformed line is rejected
//! with its file, line number and reason. Either way a spec the
//! replay engine cannot act on is refused: a shard fault aimed at a
//! shard the run does not have, or a `netsim` fault domain
//! (`link_flap`, `ctrl_dup`, `ctrl_delay_ns`).
//!
//! Lifecycle flags: `--checkpoint-dir D --checkpoint-every N` writes a
//! crash-consistent checkpoint into D every N epochs;
//! `--kill-at-epoch K` stops the run cooperatively at ordinal K's
//! drain point (the crash model); `--resume` continues the newest
//! valid checkpoint in D to completion — the resumed run's
//! `--snapshot-out` document is byte-identical to an uninterrupted
//! run's. `--swap-demo E` stages a hot-swap pair at epoch ordinal E:
//! an equivalent recompiled program that commits, then a poisoned
//! (behaviourally different) program that the shadow-model verifier
//! rejects. `--lifecycle-out PATH` writes the lifecycle event report
//! as JSON for `stat4-trace explain`. Flags that would do nothing are
//! refused with exit 2: `--checkpoint-every 0`, `--checkpoint-dir`
//! with neither `--checkpoint-every` nor `--resume`, and (after the
//! run) a `--kill-at-epoch` or `--swap-demo` ordinal it never reached.
//!
//! Zero is rejected for `--shards` and `--interval-ms` with a specific
//! message: a zero interval would spin the epoch cutter on one
//! timestamp forever, so it fails loudly at the door instead. So does
//! an interval whose nanosecond value does not fit a `u64`.

use anomaly::synflood::SynFloodConfig;
use anomaly::EnsembleConfig;
use faultinject::{FaultSchedule, FaultSpec};
use replay::{
    render_outcome_json, resume_from_checkpoint, run_replay_lifecycle, LifecyclePlan,
    LifecycleReport, ReplayConfig, ReplayOutcome, SwapRequest,
};
use stat4_p4::{CaseStudyApp, CaseStudyParams};
use std::path::PathBuf;
use workloads::{
    CardinalitySpikeWorkload, LowSlowScanWorkload, PacketMixWorkload, Schedule,
    SeasonalDriftWorkload, SynFloodWorkload,
};

const USAGE: &str = "usage: replay [synflood|mix|seasonal|scan|cardinality] [shards] [interval_ms]\n\
     \x20             [--shards N] [--interval-ms M]\n\
     \x20             [--faults SPEC|@FILE] [--seed N]\n\
     \x20             [--checkpoint-dir DIR] [--checkpoint-every N]\n\
     \x20             [--kill-at-epoch K] [--resume] [--swap-demo E]\n\
     \x20             [--lifecycle-out PATH]\n\
     \x20             [--metrics-out PATH] [--metrics-format prom|json]\n\
     \x20             [--trace-out PATH] [--snapshot-out PATH]";

/// The most shards a run accepts. A shard is one worker thread and
/// about 100 KB of tracker state, so 1024 shards take ~120 MB and 1024
/// threads: more than the cores of any host the replay runs on, past
/// which a shard only adds a thread to wait at the barrier. A larger
/// count is a typo, and past some size the run cannot have it at all:
/// `u64::MAX` shards overflow the shard array's allocation, and 100 000
/// threads exceed what a process may spawn.
const MAX_SHARDS: usize = 1024;

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// What the command line asked for.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Options {
    workload: String,
    shards: usize,
    interval_ms: u64,
    faults: Option<String>,
    seed: u64,
    checkpoint_dir: Option<String>,
    checkpoint_every: u64,
    kill_at_epoch: Option<u64>,
    resume: bool,
    swap_demo: Option<u64>,
    lifecycle_out: Option<String>,
    metrics_out: Option<String>,
    metrics_format: MetricsFormat,
    trace_out: Option<String>,
    snapshot_out: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            workload: String::from("synflood"),
            shards: 4,
            interval_ms: 10,
            faults: None,
            seed: 0,
            checkpoint_dir: None,
            checkpoint_every: 0,
            kill_at_epoch: None,
            resume: false,
            swap_demo: None,
            lifecycle_out: None,
            metrics_out: None,
            metrics_format: MetricsFormat::Json,
            trace_out: None,
            snapshot_out: None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricsFormat {
    Json,
    Prom,
}

/// Parses the argument list, or explains what is wrong with it. Pure
/// (no printing, no exiting) so the validation — notably the zero
/// rejections for `--shards` / `--interval-ms` and the [`MAX_SHARDS`]
/// bound — is unit testable; `main` turns `Err` into the usage exit.
fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut positional = 0;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut flag_value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let parse_num = |name: &str, v: &str| -> Result<u64, String> {
            v.parse()
                .map_err(|_| format!("{name} wants a number, got {v:?}"))
        };
        match arg.as_str() {
            "--shards" => {
                let v = flag_value("--shards")?;
                opts.shards = parse_num("--shards", &v)? as usize;
            }
            "--interval-ms" => {
                let v = flag_value("--interval-ms")?;
                opts.interval_ms = parse_num("--interval-ms", &v)?;
            }
            "--faults" => opts.faults = Some(flag_value("--faults")?),
            "--seed" => {
                let v = flag_value("--seed")?;
                opts.seed = parse_num("--seed", &v)?;
            }
            "--checkpoint-dir" => opts.checkpoint_dir = Some(flag_value("--checkpoint-dir")?),
            "--checkpoint-every" => {
                let v = flag_value("--checkpoint-every")?;
                opts.checkpoint_every = parse_num("--checkpoint-every", &v)?;
                if opts.checkpoint_every == 0 {
                    return Err(String::from(
                        "--checkpoint-every 0 would never write a checkpoint; \
                         leave the flag out for that, or give at least 1",
                    ));
                }
            }
            "--kill-at-epoch" => {
                let v = flag_value("--kill-at-epoch")?;
                opts.kill_at_epoch = Some(parse_num("--kill-at-epoch", &v)?);
            }
            "--resume" => opts.resume = true,
            "--swap-demo" => {
                let v = flag_value("--swap-demo")?;
                opts.swap_demo = Some(parse_num("--swap-demo", &v)?);
            }
            "--lifecycle-out" => opts.lifecycle_out = Some(flag_value("--lifecycle-out")?),
            "--metrics-out" => opts.metrics_out = Some(flag_value("--metrics-out")?),
            "--metrics-format" => {
                opts.metrics_format = match flag_value("--metrics-format")?.as_str() {
                    "json" => MetricsFormat::Json,
                    "prom" => MetricsFormat::Prom,
                    other => {
                        return Err(format!("unknown metrics format {other:?} (want prom|json)"))
                    }
                };
            }
            "--trace-out" => opts.trace_out = Some(flag_value("--trace-out")?),
            "--snapshot-out" => opts.snapshot_out = Some(flag_value("--snapshot-out")?),
            "--help" | "-h" => return Err(String::new()),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            positional_arg => {
                match positional {
                    0 => opts.workload = positional_arg.to_string(),
                    1 => opts.shards = parse_num("shards", positional_arg)? as usize,
                    2 => opts.interval_ms = parse_num("interval_ms", positional_arg)?,
                    _ => return Err(format!("too many positionals at {positional_arg:?}")),
                }
                positional += 1;
            }
        }
    }
    if opts.shards == 0 {
        return Err(String::from(
            "--shards 0 makes no sense: the engine needs at least one shard",
        ));
    }
    if opts.shards > MAX_SHARDS {
        return Err(format!(
            "--shards {} is more than the {MAX_SHARDS} a run accepts: \
             each shard is a worker thread and its own tracker state",
            opts.shards
        ));
    }
    if opts.interval_ms == 0 {
        return Err(String::from(
            "--interval-ms 0 would spin forever cutting zero-length epochs; \
             use an interval of at least 1 ms",
        ));
    }
    if opts.interval_ms.checked_mul(1_000_000).is_none() {
        return Err(format!(
            "--interval-ms {} does not fit 64 bits of nanoseconds; \
             the largest accepted interval is {} ms",
            opts.interval_ms,
            u64::MAX / 1_000_000
        ));
    }
    if opts.resume && opts.checkpoint_dir.is_none() {
        return Err(String::from(
            "--resume needs --checkpoint-dir to know where the checkpoints live",
        ));
    }
    if opts.checkpoint_every > 0 && opts.checkpoint_dir.is_none() {
        return Err(String::from(
            "--checkpoint-every needs --checkpoint-dir to have somewhere to write",
        ));
    }
    if opts.checkpoint_dir.is_some() && opts.checkpoint_every == 0 && !opts.resume {
        return Err(String::from(
            "--checkpoint-dir needs --checkpoint-every N to write there or --resume to read there",
        ));
    }
    Ok(opts)
}

/// Resolves a `--faults @FILE` body into an inline spec string. Each
/// non-comment line must parse as a fault spec on its own; a bad line
/// is reported with its file, line number, and the parser's reason so
/// a typo in a 40-line chaos suite names the exact entry at fault.
/// Pure (takes the already-read text) so every rejection is unit
/// testable without touching the filesystem.
fn faults_from_file(path: &str, text: &str) -> Result<String, String> {
    let mut entries = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // Validate each comma-separated entry on the line individually
        // so the error points at the entry, not the whole line.
        for entry in line.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                return Err(format!(
                    "{path}:{}: bad fault spec: empty entry (stray comma?)",
                    idx + 1
                ));
            }
            // `SpecError` already renders as "bad fault spec: ...".
            if let Err(e) = FaultSpec::parse(entry) {
                return Err(format!("{path}:{}: {e}", idx + 1));
            }
            entries.push(entry.to_string());
        }
    }
    if entries.is_empty() {
        return Err(format!(
            "{path}: no fault specs found (only blank lines and comments)"
        ));
    }
    Ok(entries.join(","))
}

/// Parses a `--faults` spec into the run's schedule, refusing the
/// well-formed entries the replay engine would silently ignore: a
/// shard fault aimed at a shard this run does not have, and the fault
/// domains only `netsim` consults. Pure, like
/// [`faults_from_file`], whose joined output goes through here too.
fn replay_faults(spec: &str, seed: u64, shards: usize) -> Result<FaultSchedule, String> {
    let schedule = FaultSchedule::parse(spec, seed).map_err(|e| e.to_string())?;
    for entry in spec.split(',').map(str::trim) {
        let key = entry.split_once('=').map_or(entry, |(key, _)| key);
        if matches!(key, "link_flap" | "ctrl_dup" | "ctrl_delay" | "ctrl_delay_ns") {
            return Err(format!(
                "bad fault spec: `{entry}`: `{key}` is a netsim fault domain; \
                 replay consumes shard_*, ctrl_loss, ckpt_corrupt, reconfig_storm"
            ));
        }
        let one = FaultSpec::parse(entry).map_err(|e| e.to_string())?;
        if let Some(f) = one.shard_faults.iter().find(|f| f.shard >= shards) {
            return Err(format!(
                "bad fault spec: `{entry}`: no shard {} in a run of {shards} shard(s) \
                 (shards are numbered from 0)",
                f.shard
            ));
        }
    }
    Ok(schedule)
}

/// Builds the `--swap-demo` request pair: an equivalent recompile that
/// should commit (generation 0 → 1), then a behaviourally different
/// "poisoned" build against generation 1 that the shadow-model
/// verifier must reject. Both land at the same drain point so one run
/// exercises both verdicts.
fn swap_demo_requests(at_epoch: u64) -> (p4sim::Pipeline, Vec<SwapRequest>) {
    let build = |params: CaseStudyParams| match CaseStudyApp::build(params) {
        Ok(app) => app,
        Err(e) => {
            eprintln!("replay: cannot build case-study program for --swap-demo: {e}");
            std::process::exit(1);
        }
    };
    let base = build(CaseStudyParams::default());
    let equivalent = build(CaseStudyParams::default());
    // Halving the rate window changes the ring-buffer modulus, so the
    // two builds provably diverge on a concrete witness — the verifier
    // must catch this one.
    let poisoned = build(CaseStudyParams {
        window_size: CaseStudyParams::default().window_size / 2,
        ..CaseStudyParams::default()
    });
    let swaps = vec![
        SwapRequest {
            at_epoch,
            expected_generation: 0,
            program: Some(equivalent.pipeline),
            bindings: Vec::new(),
            weights: Vec::new(),
        },
        SwapRequest {
            at_epoch,
            expected_generation: 1,
            program: Some(poisoned.pipeline),
            bindings: Vec::new(),
            weights: Vec::new(),
        },
    ];
    (base.pipeline, swaps)
}

/// Prints the lifecycle events a CI grep (or a human) cares about:
/// commits, rejections, the kill, the resume point, and any fallback
/// past a corrupt checkpoint.
fn print_lifecycle(report: &LifecycleReport) {
    for ev in &report.events {
        match ev.kind.as_str() {
            "swap_committed" => {
                println!("lifecycle: swap committed at epoch {} ({})", ev.epoch, ev.detail)
            }
            "swap_rejected" | "stale_swap_rejected" => {
                println!("lifecycle: swap rejected at epoch {}: {}", ev.epoch, ev.detail)
            }
            "killed" => println!("lifecycle: killed at epoch {} ({})", ev.epoch, ev.detail),
            "resumed" => println!("lifecycle: resumed at epoch {} ({})", ev.epoch, ev.detail),
            "checkpoint_fallback" => {
                println!("lifecycle: checkpoint fallback: {}", ev.detail)
            }
            "checkpoint_error" => {
                println!("lifecycle: checkpoint error at epoch {}: {}", ev.epoch, ev.detail)
            }
            "swap_error" => {
                println!("lifecycle: SWAP ERROR at epoch {}: {}", ev.epoch, ev.detail)
            }
            _ => {}
        }
    }
    if report.checkpoints_written > 0 || report.swaps_committed > 0 || report.swaps_rejected > 0 {
        println!(
            "lifecycle: {} checkpoint(s) written, {} swap(s) committed, {} rejected, generation {}",
            report.checkpoints_written,
            report.swaps_committed,
            report.swaps_rejected,
            report.generation,
        );
    }
}

fn generate(name: &str) -> Schedule {
    match name {
        "synflood" => {
            let (s, victim) = SynFloodWorkload {
                background_cps: 500,
                flood_pps: 50_000,
                flood_start: 400_000_000,
                duration: 900_000_000,
                seed: 4,
                ..SynFloodWorkload::default()
            }
            .generate();
            println!("workload: synflood (victim {victim}, onset 400 ms)");
            s
        }
        "mix" => {
            let (s, _) = PacketMixWorkload {
                packets: 100_000,
                ..PacketMixWorkload::default()
            }
            .generate();
            println!("workload: mix (100k packets, stable composition)");
            s
        }
        "seasonal" => {
            let w = SeasonalDriftWorkload::default();
            println!(
                "workload: seasonal (season {} intervals, phase drift at {} ms)",
                w.season_len,
                w.aligned_drift_start() / 1_000_000,
            );
            w.generate()
        }
        "scan" => {
            let w = LowSlowScanWorkload::default();
            let (s, victim) = w.generate();
            println!(
                "workload: scan (low-and-slow {} SYN/interval scan of {victim} from {} at {} ms)",
                w.scan_syns,
                w.scanner(),
                w.scan_start / 1_000_000,
            );
            s
        }
        "cardinality" => {
            let w = CardinalitySpikeWorkload::default();
            println!(
                "workload: cardinality (pool of {} sources, spoofed sweep at {} ms)",
                w.sources,
                w.spike_start / 1_000_000,
            );
            w.generate()
        }
        _ => usage(),
    }
}

fn write_or_die(path: &str, contents: &str, what: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("replay: cannot write {what} to {path}: {e}");
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("replay: {msg}");
            }
            usage()
        }
    };

    let schedule = generate(&opts.workload);
    let cfg = ReplayConfig {
        shards: opts.shards,
        detector: SynFloodConfig {
            interval_ns: opts.interval_ms * 1_000_000,
        },
        ensemble: EnsembleConfig::default(),
    };
    // `--faults @FILE` reads the spec from a file, validating each
    // line so a malformed entry is reported as file:line: reason.
    let faults_spec = match &opts.faults {
        Some(spec) if spec.starts_with('@') => {
            let path = &spec[1..];
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("replay: cannot read fault spec file {path}: {e}");
                    std::process::exit(2);
                }
            };
            match faults_from_file(path, &text) {
                Ok(joined) => Some(joined),
                Err(e) => {
                    eprintln!("replay: {e}");
                    std::process::exit(2);
                }
            }
        }
        other => other.clone(),
    };
    let faults = match &faults_spec {
        Some(spec) => match replay_faults(spec, opts.seed, opts.shards) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("replay: {e}");
                std::process::exit(2);
            }
        },
        None => FaultSchedule::none(),
    };

    let mut plan = LifecyclePlan {
        checkpoint_dir: opts.checkpoint_dir.as_ref().map(PathBuf::from),
        checkpoint_every: opts.checkpoint_every,
        kill_at_epoch: opts.kill_at_epoch,
        faults_spec: faults_spec.clone().unwrap_or_default(),
        ..LifecyclePlan::none()
    };
    if let Some(at) = opts.swap_demo {
        let (base, swaps) = swap_demo_requests(at);
        plan.initial_program = Some(base);
        plan.swaps = swaps;
    }

    let (out, lifecycle): (ReplayOutcome, LifecycleReport) = if opts.resume {
        match resume_from_checkpoint(&schedule, &cfg, &plan) {
            Ok(pair) => pair,
            Err(e) => {
                eprintln!("replay: cannot resume: {e}");
                std::process::exit(1);
            }
        }
    } else {
        run_replay_lifecycle(&schedule, &cfg, &faults, &plan)
    };

    println!(
        "replayed {} packets over {} epochs ({} inline) on {} shard(s) in {:.1} ms ({:.0} pkt/s)",
        out.packets,
        out.epochs,
        out.telemetry.epochs_inline.get(),
        opts.shards,
        out.elapsed.as_secs_f64() * 1e3,
        out.throughput_pps(),
    );
    println!(
        "merged: mean frame len = {} B (N·x domain /{}), median len = {:?} B, kinds seen = {}",
        if out.merged.len_stats.n() > 0 {
            out.merged.len_stats.xsum() / out.merged.len_stats.n() as i64
        } else {
            0
        },
        out.merged.len_stats.n(),
        out.merged.len_median.estimate(0),
        out.merged.kinds.n_distinct(),
    );
    match out.detected_at {
        Some(at) => println!(
            "alerts: {} (first at {:.1} ms)",
            out.alerts.len(),
            at as f64 / 1e6
        ),
        None => println!("alerts: none"),
    }
    for e in &out.ensemble.engines {
        match e.first_fired_at {
            Some(at) => println!(
                "engine {:>11}: {} fire(s), first at {:.1} ms",
                e.name,
                e.fires,
                at as f64 / 1e6
            ),
            None => println!("engine {:>11}: quiet", e.name),
        }
    }
    // Every record is in the snapshot; the console shows the first few
    // so a flood of alerts doesn't drown the summary.
    const PROVENANCE_SHOWN: usize = 5;
    for rec in out.provenance.iter().take(PROVENANCE_SHOWN) {
        println!(
            "provenance: alert {} at epoch {} — cause {:?}, {} shard(s) delivered, \
             {} carried epoch(s), {} rebind tx(s)",
            rec.id,
            rec.lineage.epoch,
            rec.provenance.cause,
            rec.lineage.delivered_shards.len(),
            rec.lineage.carried_epochs.len(),
            rec.drilldown.len(),
        );
    }
    if out.provenance.len() > PROVENANCE_SHOWN {
        println!(
            "provenance: … {} more record(s) (use --snapshot-out + `stat4-trace explain`)",
            out.provenance.len() - PROVENANCE_SHOWN,
        );
    }
    print_lifecycle(&lifecycle);
    if let Some(path) = &opts.lifecycle_out {
        write_or_die(path, &telemetry::json::write(&lifecycle), "lifecycle report");
        println!(
            "lifecycle: {} event(s) written to {path}",
            lifecycle.events.len()
        );
    }
    if faults_spec.is_some() {
        let h = &out.health;
        println!(
            "chaos: seed {} | shards alive {}/{}, coverage {:.1}%, incidents {}, \
             reports dropped {}, rerouted {} frames",
            opts.seed,
            h.shards_alive,
            h.shards_configured,
            h.coverage() * 100.0,
            h.incidents.len(),
            h.reports_dropped,
            h.packets_rerouted,
        );
        for inc in &h.incidents {
            println!(
                "chaos: shard {} quarantined at epoch {}: {:?}",
                inc.shard, inc.epoch, inc.kind
            );
        }
    }

    if let Some(path) = &opts.metrics_out {
        let snap = out.telemetry.snapshot();
        let rendered = match opts.metrics_format {
            MetricsFormat::Json => telemetry::render_json(&snap),
            MetricsFormat::Prom => telemetry::render_prometheus(&snap),
        };
        write_or_die(path, &rendered, "metrics");
        println!(
            "metrics: {} families / {} samples written to {path}",
            snap.metrics.len(),
            snap.sample_count(),
        );
    }
    if let Some(path) = &opts.trace_out {
        let merged = out.telemetry.merged_trace();
        write_or_die(path, &merged.to_chrome_json(), "trace");
        println!(
            "trace: {} events from {} thread(s) written to {path} ({} dropped at cap)",
            merged.events.len(),
            merged.threads,
            merged.dropped,
        );
    }
    if let Some(path) = &opts.snapshot_out {
        write_or_die(path, &render_outcome_json(&out), "run snapshot");
        println!(
            "snapshot: {} alert(s), {} provenance record(s) written to {path}",
            out.alerts.len(),
            out.provenance.len(),
        );
    }

    // A kill or swap aimed past the run's last drain point did nothing:
    // refuse it, as a fault aimed at a shard the run lacks is refused.
    let killed = lifecycle.events.iter().any(|e| e.kind == "killed");
    let swapped = lifecycle.swaps_committed + lifecycle.swaps_rejected + lifecycle.swap_errors > 0;
    let missed = [
        ("--kill-at-epoch", opts.kill_at_epoch.filter(|_| !killed)),
        ("--swap-demo", opts.swap_demo.filter(|_| !swapped)),
    ];
    let mut any_missed = false;
    for (flag, at) in missed {
        if let Some(at) = at {
            eprintln!("replay: {flag} {at} was never reached: the run has {} epoch(s)", out.epochs);
            any_missed = true;
        }
    }
    if any_missed {
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        let owned: Vec<String> = args.iter().map(ToString::to_string).collect();
        parse_args(&owned)
    }

    #[test]
    fn defaults_with_no_args() {
        let opts = parse(&[]).unwrap();
        assert_eq!(opts, Options::default());
    }

    #[test]
    fn flags_and_positionals_parse() {
        let opts = parse(&["mix", "2", "5"]).unwrap();
        assert_eq!(opts.workload, "mix");
        assert_eq!(opts.shards, 2);
        assert_eq!(opts.interval_ms, 5);

        let opts = parse(&[
            "--shards", "8", "--interval-ms", "20", "--faults", "shard_crash=1@3", "--seed", "9",
            "--metrics-out", "m.json", "--metrics-format", "prom", "--trace-out", "t.json",
            "--snapshot-out", "run.json",
        ])
        .unwrap();
        assert_eq!(opts.shards, 8);
        assert_eq!(opts.interval_ms, 20);
        assert_eq!(opts.faults.as_deref(), Some("shard_crash=1@3"));
        assert_eq!(opts.seed, 9);
        assert_eq!(opts.metrics_out.as_deref(), Some("m.json"));
        assert_eq!(opts.metrics_format, MetricsFormat::Prom);
        assert_eq!(opts.trace_out.as_deref(), Some("t.json"));
        assert_eq!(opts.snapshot_out.as_deref(), Some("run.json"));
    }

    #[test]
    fn flags_win_over_positionals() {
        let opts = parse(&["synflood", "2", "--shards", "8"]).unwrap();
        assert_eq!(opts.shards, 8);
    }

    #[test]
    fn zero_interval_rejected_with_specific_message() {
        // Regression: a zero interval used to be clamped deep in the
        // engine (`interval_ns.max(1)`), turning a typo'd flag into a
        // per-nanosecond epoch busy-loop instead of an error.
        let err = parse(&["--interval-ms", "0"]).unwrap_err();
        assert!(err.contains("--interval-ms 0"), "got: {err}");
        assert!(err.contains("at least 1 ms"), "actionable: {err}");
    }

    #[test]
    fn interval_beyond_u64_nanoseconds_rejected_in_both_spellings() {
        // Regression: the ms → ns multiply was unchecked, so 2^58 ms
        // wrapped to a zero-nanosecond interval in release (a division
        // by zero in the stalled-flow detector) and any value past the
        // largest accepted one panicked a debug build.
        let largest = u64::MAX / 1_000_000;
        let beyond = (largest + 1).to_string();
        for args in [
            &["--interval-ms", &beyond][..],
            &["synflood", "2", &beyond],
            &["--interval-ms", "288230376151711744"],
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains("--interval-ms"), "got: {err}");
            assert!(
                err.contains(&format!("largest accepted interval is {largest} ms")),
                "got: {err}"
            );
        }
        let fits = largest.to_string();
        for args in [&["--interval-ms", &fits][..], &["synflood", "2", &fits]] {
            assert_eq!(parse(args).unwrap().interval_ms, largest);
        }
    }

    #[test]
    fn zero_shards_rejected_with_specific_message() {
        let err = parse(&["--shards", "0"]).unwrap_err();
        assert!(err.contains("--shards 0"), "got: {err}");
        // Zero via the positional form is caught by the same gate.
        let err = parse(&["synflood", "0"]).unwrap_err();
        assert!(err.contains("at least one shard"), "got: {err}");
    }

    #[test]
    fn shards_beyond_the_limit_rejected_in_both_spellings() {
        // Regression: `u64::MAX` shards panicked allocating the shard
        // array and 100 000 aborted spawning their threads.
        let beyond = (MAX_SHARDS + 1).to_string();
        let huge = u64::MAX.to_string();
        for args in [
            &["--shards", &beyond][..],
            &["synflood", &beyond],
            &["--shards", &huge],
            &["synflood", &huge],
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains("--shards"), "got: {err}");
            assert!(err.contains(&format!("more than the {MAX_SHARDS} a run accepts")), "got: {err}");
        }
        let most = MAX_SHARDS.to_string();
        for args in [&["--shards", &most][..], &["synflood", &most]] {
            assert_eq!(parse(args).unwrap().shards, MAX_SHARDS);
        }
    }

    #[test]
    fn malformed_and_unknown_args_rejected() {
        assert!(parse(&["--shards"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--shards", "many"])
            .unwrap_err()
            .contains("wants a number"));
        assert!(parse(&["--frobnicate"])
            .unwrap_err()
            .contains("unknown flag"));
        assert!(parse(&["--metrics-format", "xml"])
            .unwrap_err()
            .contains("unknown metrics format"));
        assert!(parse(&["a", "1", "2", "3"])
            .unwrap_err()
            .contains("too many positionals"));
    }

    #[test]
    fn lifecycle_flags_parse() {
        let opts = parse(&[
            "--checkpoint-dir",
            "ckpts",
            "--checkpoint-every",
            "2",
            "--kill-at-epoch",
            "5",
            "--swap-demo",
            "3",
            "--lifecycle-out",
            "lc.json",
        ])
        .unwrap();
        assert_eq!(opts.checkpoint_dir.as_deref(), Some("ckpts"));
        assert_eq!(opts.checkpoint_every, 2);
        assert_eq!(opts.kill_at_epoch, Some(5));
        assert_eq!(opts.swap_demo, Some(3));
        assert_eq!(opts.lifecycle_out.as_deref(), Some("lc.json"));
        assert!(!opts.resume);

        let opts = parse(&["--resume", "--checkpoint-dir", "ckpts"]).unwrap();
        assert!(opts.resume);
    }

    #[test]
    fn resume_without_checkpoint_dir_rejected() {
        let err = parse(&["--resume"]).unwrap_err();
        assert!(err.contains("--resume needs --checkpoint-dir"), "got: {err}");
    }

    #[test]
    fn checkpoint_every_without_dir_rejected() {
        let err = parse(&["--checkpoint-every", "2"]).unwrap_err();
        assert!(
            err.contains("--checkpoint-every needs --checkpoint-dir"),
            "got: {err}"
        );
    }

    #[test]
    fn checkpoint_every_zero_rejected() {
        let err = parse(&["--checkpoint-dir", "ckpts", "--checkpoint-every", "0"]).unwrap_err();
        assert!(err.contains("--checkpoint-every 0 would never write"), "got: {err}");
    }

    #[test]
    fn checkpoint_dir_without_every_or_resume_rejected() {
        let err = parse(&["--checkpoint-dir", "ckpts"]).unwrap_err();
        assert!(
            err.contains("--checkpoint-dir needs --checkpoint-every N"),
            "got: {err}"
        );
    }

    #[test]
    fn fault_file_joins_valid_lines() {
        let text = "# chaos suite\nshard_crash=1@3\n\nctrl_loss=0.30, reconfig_storm=0.10\n";
        let spec = faults_from_file("suite.txt", text).unwrap();
        assert_eq!(spec, "shard_crash=1@3,ctrl_loss=0.30,reconfig_storm=0.10");
        // The joined form must itself parse as a schedule the replay
        // engine acts on in full.
        replay_faults(&spec, 7, 2).unwrap();
    }

    #[test]
    fn fault_file_reports_file_line_and_reason() {
        let text = "shard_crash=1@3\nno_such_fault=1\n";
        let err = faults_from_file("suite.txt", text).unwrap_err();
        assert!(err.starts_with("suite.txt:2: bad fault spec: "), "got: {err}");
        assert!(err.contains("no_such_fault"), "names the entry: {err}");
    }

    #[test]
    fn fault_file_rejects_malformed_value() {
        let text = "ctrl_loss=lots\n";
        let err = faults_from_file("suite.txt", text).unwrap_err();
        assert!(err.starts_with("suite.txt:1: bad fault spec: "), "got: {err}");
    }

    #[test]
    fn fault_file_rejects_stray_comma() {
        let err = faults_from_file("suite.txt", "shard_crash=1@3,,ctrl_loss=0.1\n").unwrap_err();
        assert!(err.contains("suite.txt:1"), "got: {err}");
        assert!(err.contains("stray comma"), "got: {err}");
    }

    #[test]
    fn fault_aimed_at_a_missing_shard_rejected() {
        // Regression: `shard_crash=7@3` on four shards ran faultless
        // and exited 0.
        for (spec, entry) in [
            ("shard_crash=7@3", "`shard_crash=7@3`"),
            ("ctrl_loss=0.1, shard_stall=4@2:1ms", "`shard_stall=4@2:1ms`"),
            ("shard_panic=4@0", "`shard_panic=4@0`"),
        ] {
            let err = replay_faults(spec, 0, 4).unwrap_err();
            assert!(err.contains("4 shard(s)"), "names the shard count: {err}");
            assert!(err.contains(entry), "names the entry: {err}");
        }
        // The same door for a file's joined lines.
        let joined = faults_from_file("suite.txt", "ctrl_loss=0.30\nshard_crash=7@3\n").unwrap();
        assert!(replay_faults(&joined, 0, 4).is_err());
        replay_faults(&joined, 0, 8).unwrap();
        replay_faults("shard_crash=3@3,shard_panic=0@1,shard_stall=2@4:250us", 0, 4).unwrap();
    }

    #[test]
    fn foreign_fault_domains_rejected_by_name() {
        // Regression: these parsed and did nothing (`FaultSchedule`
        // answers them to `netsim` only).
        for (entry, key) in [
            ("link_flap=@5ms..9ms", "link_flap"),
            ("ctrl_dup=0.5", "ctrl_dup"),
            ("ctrl_delay_ns=4ms", "ctrl_delay_ns"),
            ("ctrl_delay=4ms", "ctrl_delay"),
        ] {
            let spec = format!("ctrl_loss=0.30,{entry}");
            FaultSchedule::parse(&spec, 0).expect("the grammar knows the key");
            let err = replay_faults(&spec, 0, 4).unwrap_err();
            assert!(err.contains(&format!("`{entry}`")), "names the entry: {err}");
            assert!(
                err.contains(&format!("`{key}` is a netsim fault domain")),
                "names the domain: {err}"
            );
            assert!(err.contains("replay consumes shard_*, ctrl_loss"), "actionable: {err}");
        }
        // `seu` and `table_miss` are not in the grammar at all.
        for gone in ["seu=r:0:1@5", "table_miss=fwd@10..20"] {
            let err = FaultSchedule::parse(gone, 0).unwrap_err().to_string();
            assert!(err.contains("unknown fault key"), "{gone}: {err}");
            assert!(replay_faults(gone, 0, 4).is_err());
        }
        // Every key the engine does consult passes.
        replay_faults(
            "shard_crash=1@3,shard_panic=0@9,shard_stall=2@4:1ms,ctrl_loss=0.30,\
             ckpt_corrupt=1,reconfig_storm=0.5",
            0,
            4,
        )
        .unwrap();
        assert!(replay_faults("", 0, 4).unwrap().is_empty());
    }

    #[test]
    fn fault_file_rejects_empty_file() {
        let err = faults_from_file("suite.txt", "# nothing here\n\n").unwrap_err();
        assert!(err.contains("no fault specs found"), "got: {err}");
    }
}

