//! `stat4-trace` — inspect the artifacts a replay run writes.
//!
//! ```text
//! stat4-trace check     <trace.json>
//! stat4-trace timeline  <trace.json>
//! stat4-trace flame     <trace.json>
//! stat4-trace explain   <run.json> <alert-id> [lifecycle.json]
//! stat4-trace lifecycle <lifecycle.json>
//! ```
//!
//! `check` validates the merged Chrome-trace document (phase codes,
//! per-thread timestamp monotonicity, balanced span nesting) and
//! prints a one-line summary. `timeline` and `flame` render the same
//! document for humans. `explain` reads a `--snapshot-out` run
//! snapshot and tells the full story of one alert: the engines that
//! fired, their scores against their thresholds, the engines that
//! abstained, the signal values,
//! the epoch's lineage, and any drilldown rebind transactions — and
//! with an optional `--lifecycle-out` report appended, the run's
//! checkpoint/swap/recovery history around it. `lifecycle` renders
//! that history on its own.
//!
//! Exit status is non-zero on invalid input or failed validation.

use std::process::ExitCode;

use replay::LifecycleReport;
use stat4_trace::{explain, flame, lifecycle_story, timeline};
use telemetry::{check_trace, parse_trace};

const USAGE: &str = "usage: stat4-trace check     <trace.json>\n\
     \x20      stat4-trace timeline  <trace.json>\n\
     \x20      stat4-trace flame     <trace.json>\n\
     \x20      stat4-trace explain   <run.json> <alert-id> [lifecycle.json]\n\
     \x20      stat4-trace lifecycle <lifecycle.json>";

fn read_or_die(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn run(args: &[String]) -> Result<String, String> {
    match args {
        [cmd, path] if cmd == "check" => {
            let text = read_or_die(path)?;
            match check_trace(&text) {
                Ok(s) => Ok(format!(
                    "ok: {} event(s), {} thread(s), {} span(s), {} dropped",
                    s.events, s.threads, s.spans, s.dropped
                )),
                Err(errors) => Err(format!(
                    "trace {path} is invalid:\n  {}",
                    errors.join("\n  ")
                )),
            }
        }
        [cmd, path] if cmd == "timeline" || cmd == "flame" => {
            let text = read_or_die(path)?;
            let doc = parse_trace(&text)
                .map_err(|errors| format!("trace {path} is invalid:\n  {}", errors.join("\n  ")))?;
            Ok(if cmd == "timeline" {
                timeline(&doc)
            } else {
                flame(&doc)
            })
        }
        [cmd, path, id, rest @ ..] if cmd == "explain" && rest.len() <= 1 => {
            let id: u64 = id
                .parse()
                .map_err(|_| format!("alert id must be a number, got {id:?}"))?;
            let text = read_or_die(path)?;
            let snap = replay::parse_outcome_json(&text)
                .map_err(|e| format!("snapshot {path} is invalid: {e}"))?;
            let mut out = explain(&snap, id)?;
            if let Some(lc_path) = rest.first() {
                let lc_text = read_or_die(lc_path)?;
                let report = LifecycleReport::parse(&lc_text)
                    .map_err(|e| format!("lifecycle report {lc_path} is invalid: {e}"))?;
                out.push_str(&lifecycle_story(&report));
            }
            Ok(out)
        }
        [cmd, path] if cmd == "lifecycle" => {
            let text = read_or_die(path)?;
            let report = LifecycleReport::parse(&text)
                .map_err(|e| format!("lifecycle report {path} is invalid: {e}"))?;
            Ok(lifecycle_story(&report))
        }
        [help] if help == "--help" || help == "-h" => Ok(String::from(USAGE)),
        _ => Err(String::from(USAGE)),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(out) => {
            print!("{out}");
            if !out.ends_with('\n') {
                println!();
            }
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("stat4-trace: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(args: &[&str]) -> Result<String, String> {
        let owned: Vec<String> = args.iter().map(ToString::to_string).collect();
        run(&owned)
    }

    #[test]
    fn usage_on_bad_invocations() {
        assert!(call(&[]).unwrap_err().contains("usage"));
        assert!(call(&["frobnicate", "x.json"]).unwrap_err().contains("usage"));
        assert!(call(&["explain", "x.json"]).unwrap_err().contains("usage"));
        assert_eq!(call(&["--help"]).unwrap(), USAGE);
    }

    #[test]
    fn explain_rejects_non_numeric_id() {
        let err = call(&["explain", "run.json", "first"]).unwrap_err();
        assert!(err.contains("must be a number"), "{err}");
    }

    #[test]
    fn missing_file_is_a_readable_error() {
        let err = call(&["check", "/nonexistent/trace.json"]).unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
    }

    #[test]
    fn lifecycle_subcommand_renders_a_report() {
        let mut report = LifecycleReport::default();
        report.push(3, "swap_committed", String::from("generation 1: program verified equivalent"));
        report.push(5, "killed", String::from("stopped at drain point before epoch ordinal 5"));
        report.swaps_committed = 1;
        report.generation = 1;
        let path = std::env::temp_dir().join("stat4-trace-lifecycle-test.json");
        std::fs::write(&path, telemetry::json::write(&report)).unwrap();
        let out = call(&["lifecycle", path.to_str().unwrap()]).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(out.contains("swap committed"), "{out}");
        assert!(out.contains("killed"), "{out}");
        assert!(out.contains("generation 1"), "{out}");
    }

    #[test]
    fn lifecycle_subcommand_rejects_garbage() {
        let path = std::env::temp_dir().join("stat4-trace-lifecycle-garbage.json");
        std::fs::write(&path, "not json at all").unwrap();
        let err = call(&["lifecycle", path.to_str().unwrap()]).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.contains("is invalid"), "{err}");
    }
}
