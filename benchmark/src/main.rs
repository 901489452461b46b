//! `stat4-benchmark`: the repository's benchmark.
//!
//! Two ways in. With `--trace 0|1` it is the driver's protocol: one
//! workload, in this process, and a JSON result as the last line of
//! standard output. Without it, it is the command a person runs: every
//! workload (or the one `--workload` names) in a child process each,
//! so peak memory is per workload, and a table at the end.

mod affinity;
mod alloc;
mod metrics;
mod procfs;
mod run;
mod staged;
mod stats;
mod suite;
mod workload;

use std::process::ExitCode;

use telemetry::Json;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str =
    "usage: stat4-benchmark [--workload W] [--seed N] [--seconds S] [--traced] [--check] [--agree]
       stat4-benchmark --workload W --seed N --seconds S --trace 0|1

  --workload W   dense_1shard | sparse_2shard | p4_casestudy | lifecycle_2shard (default: all)
  --seed N       input seed (default 1); the same seed gives the same inputs
  --seconds S    timed window per run (default 30)
  --traced       also make the traced run of each workload (per-layer metrics)
  --check        exit non-zero on any failed rep, bad trace, state mismatch,
                 or layer sum outside its stated range (implies --traced)
  --agree        run the end-to-end set twice and exit non-zero unless the
                 second agrees with the first within BENCHMARK.json's bounds
  --trace 0|1    driver protocol: run one workload in this process and end
                 with one JSON line; 0 = end-to-end metrics, 1 = per-layer";

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: Option<bool>,
    pub traced: bool,
    pub check: bool,
    pub agree: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: 30,
        trace: None,
        traced: false,
        check: false,
        agree: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |s: &String| {
            s.parse::<u64>()
                .map_err(|_| format!("{flag}: {s:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?.clone()),
            "--seed" => out.seed = number(value()?)?,
            "--seconds" => out.seconds = number(value()?)?,
            "--trace" => {
                out.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--traced" => out.traced = true,
            "--check" => (out.check, out.traced) = (true, true),
            "--agree" => out.agree = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if out.seconds == 0 {
        return Err(String::from("--seconds must be at least 1"));
    }
    if let Some(w) = &out.workload {
        if !workload::NAMES.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w:?} (have: {})",
                workload::NAMES.join(", ")
            ));
        }
    }
    Ok(out)
}

/// The driver's protocol: human-readable lines, then the result line.
fn single(args: &Args, traced: bool) -> Result<(), String> {
    // Before anything is timed or spawned: see `affinity`.
    let confined = affinity::confine_to_first();
    let opts = run::Options {
        workload: args.workload.clone().ok_or("--trace needs --workload")?,
        seed: args.seed,
        seconds: args.seconds,
        free_cpus: confined.map(|(_, before)| before),
    };
    let outcome = if traced {
        run::traced(&opts)
    } else {
        run::end_to_end(&opts)
    }?;
    println!(
        "{} seed {} {} s, {} run",
        opts.workload,
        opts.seed,
        opts.seconds,
        if traced { "traced" } else { "end-to-end" }
    );
    match confined {
        Some((cpu, before)) => println!(
            "  confined to        CPU {cpu} of {} allowed",
            before.count()
        ),
        None => println!("  confined to        nothing: CPU affinity is not available here"),
    }
    for note in &outcome.notes {
        println!("  {note}");
    }
    for (d, value) in &outcome.metrics {
        println!("  {:<34} {value} {}", d.name, d.unit);
    }
    let int = |n: u64| Json::Int(i64::try_from(n).unwrap_or(i64::MAX));
    println!(
        "{}",
        telemetry::json::render(&Json::Obj(vec![
            (String::from("correct"), Json::Bool(outcome.correct)),
            (String::from("attempted"), int(outcome.attempted)),
            (String::from("failed"), int(outcome.failed)),
            (String::from("metrics"), metrics::to_json(&outcome.metrics)),
        ]))
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stat4-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.trace {
        Some(traced) => single(&args, traced).map(|()| true),
        None => suite::run(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("stat4-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
