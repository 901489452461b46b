//! The lint's output, pinned byte for byte.
//!
//! `stat4-lint` is the face of three analyses (the stage allocator, the
//! range analysis and the symbolic executor), and each renders its
//! findings into the same two documents: the `--json` one tools read and
//! the `--verbose` text people read. This test runs the binary over all
//! 22 checks (the 12 built-in programs, the 4 equivalence pairs and the
//! 6 merge-soundness programs) in both forms, and over the 12 programs
//! alone as JSON, and compares the bytes with `tests/golden/lint.golden`.
//! A refactor of any of the three analyses must leave them unmoved.
//!
//! A change that means to alter the output re-records the file with
//! `GOLDEN_RECORD=1 cargo test -p stat4-p4 --test lint_golden` and
//! reviews the diff.

use std::path::PathBuf;
use std::process::Command;

const RUNS: [&[&str]; 3] = [
    &["--json", "--equiv", "--merge-sound"],
    &["--verbose", "--equiv", "--merge-sound"],
    // The built-in programs alone: the same document, with `programs`
    // its only member.
    &["--json"],
];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/lint.golden")
}

#[test]
fn lint_output_matches_golden() {
    let mut got = String::new();
    for args in RUNS {
        let out = Command::new(env!("CARGO_BIN_EXE_stat4-lint"))
            .args(args)
            .output()
            .expect("stat4-lint runs");
        assert!(out.status.success(), "stat4-lint {args:?} failed: {out:?}");
        got.push_str(&format!("$ stat4-lint {}\n", args.join(" ")));
        got.push_str(&String::from_utf8(out.stdout).expect("stat4-lint writes UTF-8"));
    }

    let path = golden_path();
    if std::env::var_os("GOLDEN_RECORD").is_some() {
        std::fs::write(&path, &got).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    if got != want {
        let at = got
            .bytes()
            .zip(want.bytes())
            .position(|(g, w)| g != w)
            .unwrap_or(got.len().min(want.len()));
        let window = |s: &str| {
            s.get(at.saturating_sub(60)..(at + 60).min(s.len()))
                .unwrap_or("")
                .to_string()
        };
        panic!(
            "lint output differs from {} at byte {at} ({} vs {} bytes):\n  got:  …{}…\n  want: …{}…",
            path.display(),
            got.len(),
            want.len(),
            window(&got),
            window(&want),
        );
    }
}
