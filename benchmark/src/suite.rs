//! The command a person runs: every workload in a child process of
//! its own, the machine's fingerprint, a table, `--check` and
//! `--agree`, and `benchmark/out/results.json`.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};

use telemetry::Json;

use crate::{procfs, run, workload, Args};

/// The metrics that need a second CPU. Every run confines itself to
/// one CPU (see `affinity`), so everything else reads the same on a
/// one-core machine; these two would measure the scheduler there, and
/// the table says `unresolved` in place of a number.
const NEEDS_TWO_CPUS: [&str; 2] = ["harness.free_cpus_speedup", "replay.pool_2shard_ratio"];

/// `harness.layers_sum_share` must land here under `--check`. One
/// thread: the layers must add up to the run. Dense: the coordinator
/// parses and routes epoch k+1 while the worker ingests k, so the
/// serial sum may exceed the wall time. On the sparse workloads the
/// remainder is `replay.pool_residual_us`, reported and not asserted.
const SUM_RANGES: [(&str, f64, f64); 2] = [("p4_casestudy", 0.9, 1.1), ("dense_1shard", 0.5, 1.5)];

fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn text(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

/// The result line of one child run.
struct Child {
    doc: Json,
}

impl Child {
    fn metric(&self, name: &str) -> Option<f64> {
        self.doc.get("metrics")?.get(name)?.get("value")?.as_f64()
    }

    fn metrics(&self) -> Vec<(&str, f64, &str)> {
        let members = self
            .doc
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap_or(&[]);
        members
            .iter()
            .filter_map(|(name, m)| {
                Some((
                    name.as_str(),
                    m.get("value")?.as_f64()?,
                    m.get("unit")?.as_str()?,
                ))
            })
            .collect()
    }

    fn count(&self, key: &str) -> u64 {
        self.doc.get(key).and_then(Json::as_u64).unwrap_or(0)
    }

    fn correct(&self) -> bool {
        self.doc
            .get("correct")
            .and_then(Json::as_bool)
            .unwrap_or(false)
    }
}

/// Runs one workload in a child of this executable, echoes what it
/// prints, and parses its last line.
fn child(name: &str, args: &Args, traced: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut proc = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start the {name} run: {e}"))?;
    let stdout = proc.stdout.take().expect("stdout was piped");
    let mut last = String::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("reading the {name} run: {e}"))?;
        if !line.starts_with('{') {
            println!("{line}");
        }
        last = line;
    }
    let status = proc
        .wait()
        .map_err(|e| format!("waiting for the {name} run: {e}"))?;
    if !status.success() {
        return Err(format!("the {name} run ended with {status}"));
    }
    let doc = Json::parse(&last).map_err(|e| format!("the {name} run's result line: {e}"))?;
    Ok(Child { doc })
}

/// HEAD of the repository this binary was built in, read from `.git`
/// without running git; a checkout that is not a repository has none.
fn git_revision(repo: &Path) -> Option<String> {
    let head = std::fs::read_to_string(repo.join(".git/HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(repo.join(".git").join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(repo.join(".git/packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
}

fn fingerprint(args: &Args, nproc: usize) -> Vec<(&'static str, Json)> {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let or_unknown = |v: Option<String>| text(v.unwrap_or_else(|| String::from("unknown")));
    vec![
        ("nproc", Json::Int(nproc as i64)),
        ("cpu_model", or_unknown(procfs::cpu_model())),
        ("governor", or_unknown(procfs::governor())),
        ("git_revision", or_unknown(git_revision(&repo))),
        (
            "seed",
            Json::Int(i64::try_from(args.seed).unwrap_or(i64::MAX)),
        ),
        (
            "seconds",
            Json::Int(i64::try_from(args.seconds).unwrap_or(i64::MAX)),
        ),
    ]
}

/// One row per metric, one column per workload.
fn table(title: &str, names: &[&str], runs: &[Child], unresolved: impl Fn(&str) -> bool) {
    println!("\n{title}");
    print!("  {:<34}", "");
    for n in names {
        print!(" {n:>18}");
    }
    println!();
    let Some(first) = runs.first() else { return };
    for (metric, _, unit) in first.metrics() {
        print!("  {metric:<34}");
        for r in runs {
            match r.metric(metric) {
                Some(_) if unresolved(metric) => print!(" {:>18}", "unresolved"),
                Some(v) => print!(" {:>18}", format!("{v:.4}")),
                None => print!(" {:>18}", "-"),
            }
        }
        println!(" {unit}");
    }
    let row = |label: &str, f: &dyn Fn(&Child) -> String| {
        print!("  {label:<34}");
        for r in runs {
            print!(" {:>18}", f(r));
        }
        println!();
    };
    row("reps", &|r| r.count("attempted").to_string());
    row("failed_share", &|r| {
        format!(
            "{}",
            r.count("failed") as f64 / r.count("attempted").max(1) as f64
        )
    });
}

/// `(metric, better, bound)` of `BENCHMARK.json`'s end-to-end list.
fn bounds() -> Result<Vec<(String, bool, f64)>, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))
        .and_then(|t| Json::parse(&t).map_err(|e| format!("{}: {e}", path.display())))?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str)?;
            let higher = m.get("better").and_then(Json::as_str)? == "higher";
            Some((
                name.to_string(),
                higher,
                m.get("bound").and_then(Json::as_f64)?,
            ))
        })
        .collect::<Option<_>>()
        .ok_or_else(|| String::from("BENCHMARK.json: malformed end_to_end entry"))
}

/// Every pairing in which the second set is worse than the first by
/// more than the metric's bound; prints both sets side by side.
fn disagreements(names: &[&str], first: &[Child], second: &[Child]) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    println!("\nagreement of two back-to-back sets (second against first)");
    for (name, higher_is_better, bound) in bounds()? {
        for ((w, a), b) in names.iter().zip(first).zip(second) {
            let (Some(a), Some(b)) = (a.metric(&name), b.metric(&name)) else {
                out.push(format!("{w} {name}: missing from a set"));
                continue;
            };
            let worse = if higher_is_better {
                (a - b) / a
            } else {
                (b - a) / a
            };
            let verdict = if worse > bound { "DISAGREES" } else { "ok" };
            println!(
                "  {w:<18} {name:<22} {a:>16.4} {b:>16.4}  {:>+7.2}% worse (bound {:.0}%)  {verdict}",
                worse * 100.0,
                bound * 100.0
            );
            if worse > bound {
                out.push(format!("{w} {name}: {a} then {b}"));
            }
        }
    }
    Ok(out)
}

/// What `--check` objects to in the traced runs.
fn check(names: &[&str], e2e: &[Child], traced: &[Child]) -> Vec<String> {
    let mut out = Vec::new();
    for (w, r) in names.iter().zip(e2e).chain(names.iter().zip(traced)) {
        if r.count("failed") > 0 {
            out.push(format!("{w}: {} failed rep(s)", r.count("failed")));
        }
        if !r.correct() {
            out.push(format!(
                "{w}: run reported itself incorrect (see its PROBLEM lines)"
            ));
        }
    }
    for (w, r) in names.iter().zip(traced) {
        let Some(&(_, lo, hi)) = SUM_RANGES.iter().find(|(n, ..)| n == w) else {
            continue;
        };
        match r.metric("harness.layers_sum_share") {
            Some(share) if (lo..=hi).contains(&share) => {}
            share => out.push(format!(
                "{w}: layers sum to {share:?} of the rep, outside [{lo}, {hi}]"
            )),
        }
    }
    out
}

/// Runs the suite; `Ok(false)` when `--check` or `--agree` objected.
///
/// # Errors
///
/// A child run that cannot start, fails, or prints no result.
pub fn run(args: &Args) -> Result<bool, String> {
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => workload::NAMES.to_vec(),
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut print = fingerprint(args, nproc);
    println!("machine");
    for (k, v) in &print {
        println!("  {k:<14} {}", telemetry::json::render(v));
    }
    if nproc < 2 {
        println!(
            "  one core: {} are unresolved",
            NEEDS_TWO_CPUS.join(" and ")
        );
    }
    let steal0 = procfs::steal_ticks();

    let mut sets = Vec::new();
    for _ in 0..if args.agree { 2 } else { 1 } {
        let set: Vec<Child> = names
            .iter()
            .map(|n| child(n, args, false))
            .collect::<Result<_, _>>()?;
        sets.push(set);
    }
    let traced: Vec<Child> = if args.traced {
        names
            .iter()
            .map(|n| child(n, args, true))
            .collect::<Result<_, _>>()?
    } else {
        Vec::new()
    };

    let unresolved = |metric: &str| nproc < 2 && NEEDS_TWO_CPUS.contains(&metric);
    for (i, set) in sets.iter().enumerate() {
        table(
            &format!("end to end, set {}", i + 1),
            &names,
            set,
            unresolved,
        );
    }
    if args.traced {
        table("per layer (traced runs)", &names, &traced, unresolved);
    }

    let steal = match (steal0, procfs::steal_ticks()) {
        (Some((all0, st0)), Some((all1, st1))) if all1 > all0 => {
            (st1 - st0) as f64 / (all1 - all0) as f64
        }
        _ => 0.0,
    };
    println!("\nsteal share over the run: {:.2}%", steal * 100.0);
    print.push(("steal_share", Json::Float(steal)));

    let mut objections = Vec::new();
    if args.agree {
        objections.extend(disagreements(&names, &sets[0], &sets[1])?);
    }
    if args.check {
        objections.extend(check(&names, &sets[0], &traced));
    }
    for o in &objections {
        println!("OBJECTION: {o}");
    }

    let by_workload = |runs: &[Child]| {
        Json::Obj(
            names
                .iter()
                .zip(runs)
                .map(|(n, r)| (n.to_string(), r.doc.clone()))
                .collect(),
        )
    };
    let results = obj(vec![
        ("fingerprint", obj(print)),
        (
            "end_to_end",
            Json::Arr(sets.iter().map(|s| by_workload(s)).collect()),
        ),
        ("per_layer", by_workload(&traced)),
        (
            "objections",
            Json::Arr(objections.iter().map(text).collect()),
        ),
    ]);
    let path = run::out_dir().join("results.json");
    std::fs::create_dir_all(run::out_dir())
        .and_then(|()| std::fs::write(&path, telemetry::json::render(&results)))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    if (args.check || args.agree) && objections.is_empty() {
        println!("ok: no objections");
    }
    Ok(objections.is_empty())
}
