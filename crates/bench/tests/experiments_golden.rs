//! `EXPERIMENTS.md`, checked against the binary that prints it.
//!
//! Every fenced output block in `EXPERIMENTS.md` sits directly under a
//! `cargo run -p bench --release -- <name>` command block. This test
//! runs `repro <name>` and compares its stdout with that block byte for
//! byte, so a published number cannot drift from the code that prints
//! it. `cost` is the one artefact that prints wall-clock times: in the
//! comparison only, the last column of its data rows (the time) is
//! masked, and every other byte, counts included, is compared.
//!
//! A change that means to alter an output re-records the blocks in
//! place with `GOLDEN_RECORD=1 cargo test --release -p bench --test
//! experiments_golden -- --include-ignored` and reviews the diff (and
//! the prose around it).

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::{Mutex, PoisonError};

const COMMAND: &str = "cargo run -p bench --release -- ";
const FENCE: &str = "```";
/// The one artefact that prints wall-clock times.
const TIMED: &str = "cost";

/// Held by each [`check`]: the tests that run artefacts run one at a
/// time, so [`TIMED`] never shares the machine with another artefact
/// and two recordings never rewrite `EXPERIMENTS.md` at once.
static RUNS: Mutex<()> = Mutex::new(());

fn doc_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md")
}

/// One artefact's published output: the byte range of the fenced
/// block's content (every line, newlines included) in the document.
struct Published {
    name: String,
    content: std::ops::Range<usize>,
}

/// Every command/output pair of `doc`, in order.
///
/// # Panics
///
/// Panics on a fenced block that is neither a `repro` command nor the
/// output directly under one, and on an unclosed fence.
fn published(doc: &str) -> Vec<Published> {
    // (opening fence line's start, content range, line number)
    let mut blocks = Vec::new();
    let mut open: Option<(usize, usize, usize)> = None;
    let mut at = 0;
    for (i, line) in doc.split_inclusive('\n').enumerate() {
        let next = at + line.len();
        if line.trim_end().starts_with(FENCE) {
            match open.take() {
                None => open = Some((at, next, i + 1)),
                Some((start, content, line_no)) => blocks.push((start, content..at, next, line_no)),
            }
        }
        at = next;
    }
    assert!(open.is_none(), "EXPERIMENTS.md ends inside a fenced block");

    let mut out = Vec::new();
    let mut rest = blocks.iter();
    while let Some((_, command, end, line_no)) = rest.next() {
        let name = doc[command.clone()]
            .strip_prefix(COMMAND)
            .and_then(|n| n.strip_suffix('\n'))
            .filter(|n| !n.contains(char::is_whitespace))
            .unwrap_or_else(|| {
                panic!("EXPERIMENTS.md:{line_no}: a fenced block that is not one `{COMMAND}<name>` command and follows none")
            });
        let Some((start, content, _, _)) = rest.next() else {
            panic!("EXPERIMENTS.md:{line_no}: `{name}` has no output block");
        };
        assert!(
            doc[*end..*start].trim().is_empty(),
            "EXPERIMENTS.md:{line_no}: `{name}`'s output block must directly follow its command"
        );
        out.push(Published {
            name: name.to_string(),
            content: content.clone(),
        });
    }
    out
}

/// [`TIMED`]'s output with each data row's last column, the time, cut
/// off.
fn mask_times(s: &str) -> String {
    s.lines()
        .map(|line| match line.rsplit_once(' ') {
            Some((row, time)) if time.parse::<f64>().is_ok() => row.trim_end(),
            _ => line,
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn repro(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(args);
    cmd
}

/// Runs `repro` for each of `names` at once (each is single-threaded)
/// and returns their outputs.
fn run_all(names: Vec<String>) -> Vec<(String, String)> {
    let running: Vec<_> = names
        .into_iter()
        .map(|name| {
            let child = repro(&[&name])
                .stdout(std::process::Stdio::piped())
                .spawn()
                .expect("repro runs");
            (name, child)
        })
        .collect();
    running
        .into_iter()
        .map(|(name, child)| {
            let out = child.wait_with_output().expect("repro runs");
            assert!(out.status.success(), "repro {name} failed: {out:?}");
            (
                name,
                String::from_utf8(out.stdout).expect("repro writes UTF-8"),
            )
        })
        .collect()
}

/// Runs every published artefact `wanted` selects and compares each
/// with its block, or rewrites the blocks under `GOLDEN_RECORD`.
/// [`TIMED`] runs alone, after the others, so the times it records are
/// its own.
fn check(wanted: impl Fn(&str) -> bool) {
    let _alone = RUNS.lock().unwrap_or_else(PoisonError::into_inner);
    let path = doc_path();
    let read = || {
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
    };
    let doc = read();
    let (timed, untimed): (Vec<String>, Vec<String>) = published(&doc)
        .into_iter()
        .map(|p| p.name)
        .filter(|name| wanted(name))
        .partition(|name| name == TIMED);
    assert!(
        !timed.is_empty() || !untimed.is_empty(),
        "no artefact selected"
    );
    let mut outputs = run_all(untimed);
    outputs.extend(run_all(timed));

    if std::env::var_os("GOLDEN_RECORD").is_some() {
        let mut doc = read();
        for p in published(&doc).into_iter().rev() {
            if let Some((_, got)) = outputs.iter().find(|(n, _)| *n == p.name) {
                doc.replace_range(p.content, got);
            }
        }
        std::fs::write(&path, doc).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        return;
    }

    let mut failures = Vec::new();
    for p in published(&doc) {
        let Some((_, got)) = outputs.iter().find(|(n, _)| *n == p.name) else {
            continue;
        };
        let want = &doc[p.content];
        let (got, want) = if p.name == TIMED {
            (mask_times(got), mask_times(want))
        } else {
            (got.clone(), want.to_string())
        };
        if got != want {
            let (line, g, w) = got
                .lines()
                .chain(std::iter::repeat("<end>"))
                .zip(want.lines().chain(std::iter::repeat("<end>")))
                .enumerate()
                .map(|(i, (g, w))| (i + 1, g, w))
                .find(|(_, g, w)| g != w)
                .unwrap_or((0, "<trailing newline>", "<trailing newline>"));
            failures.push(format!(
                "`repro {}` differs from its EXPERIMENTS.md block at line {line} of the block:\n  got:  {g}\n  want: {w}",
                p.name
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn experiments_match_repro() {
    check(|name| name != "casestudy");
}

#[test]
#[ignore = "casestudy simulates minutes of traffic per configuration: 94 s unoptimised, 8.4 s in release; CI runs it with --release --include-ignored"]
fn casestudy_matches_repro() {
    check(|name| name == "casestudy");
}

/// The usage line's artefact names.
fn usage_names(out: &Output) -> BTreeSet<String> {
    assert_eq!(out.status.code(), Some(2), "usage exits 2: {out:?}");
    assert!(out.stdout.is_empty(), "usage goes to stderr: {out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    let names = err
        .trim()
        .strip_prefix("usage: repro <")
        .and_then(|s| s.strip_suffix('>'))
        .unwrap_or_else(|| panic!("usage line: {err:?}"));
    names.split('|').map(str::to_string).collect()
}

#[test]
fn cli_and_doc_list_the_same_artefacts() {
    let bare = usage_names(&repro(&[]).output().expect("repro runs"));
    let unknown = usage_names(&repro(&["wat"]).output().expect("repro runs"));
    assert_eq!(bare, unknown);
    assert_eq!(bare.len(), 11);

    let doc = std::fs::read_to_string(doc_path()).expect("EXPERIMENTS.md");
    let names: Vec<String> = published(&doc).into_iter().map(|p| p.name).collect();
    let documented: BTreeSet<String> = names.iter().cloned().collect();
    assert_eq!(
        documented.len(),
        names.len(),
        "an artefact published twice: {names:?}"
    );
    assert_eq!(
        bare, documented,
        "the usage line and EXPERIMENTS.md list different artefacts"
    );
}
