//! `stat4-lint` — compile-time verification of every built-in Stat4
//! data-plane program.
//!
//! For each shipped pipeline (echo on both targets, the case study,
//! both median variants, the sketch app, and the standalone algorithm
//! fragments) this runs the p4sim verifier — table-dependency stage
//! allocation plus value-range analysis — against the target the
//! program was built for, and reports the findings.
//!
//! ```text
//! stat4-lint [--deny warnings] [--equiv] [--merge-sound] [--json] [--verbose]
//! ```
//!
//! `--equiv` additionally runs the symbolic differential verifier over
//! every algorithm shipped in both a software and a hardware
//! formulation (`S4L013`/`S4L014`); `--merge-sound` runs the `S4L015`
//! merge-soundness check over every built-in app's registers.
//! `--json` prints one document: a `programs` member, then `equiv` and
//! `merge` members when those suites run.
//!
//! Exit status is non-zero when any program has an error-severity
//! finding, or any warning-severity finding under `--deny warnings`.
//! Info-severity notes (things the analysis could not *prove* but that
//! are not certain violations) never fail the lint; `--verbose` shows
//! them.

use std::process::ExitCode;

use p4sim::analysis::json::{self, obj, Json, ToJson};
use p4sim::Severity;
use stat4_p4::lint::{builtin_suite, equiv_suite, merge_suite};

struct Options {
    deny_warnings: bool,
    json: bool,
    verbose: bool,
    equiv: bool,
    merge_sound: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        deny_warnings: false,
        json: false,
        verbose: false,
        equiv: false,
        merge_sound: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => match args.next().as_deref() {
                Some("warnings") => opts.deny_warnings = true,
                other => {
                    return Err(format!(
                        "--deny takes `warnings`, got {}",
                        other.unwrap_or("nothing")
                    ))
                }
            },
            "--json" => opts.json = true,
            "--verbose" | "-v" => opts.verbose = true,
            "--equiv" => opts.equiv = true,
            "--merge-sound" => opts.merge_sound = true,
            "--help" | "-h" => {
                println!(
                    "stat4-lint: verify every built-in Stat4 data-plane program\n\n\
                     Usage: stat4-lint [--deny warnings] [--equiv] [--merge-sound] [--json] [--verbose]\n\n\
                     Options:\n  \
                     --deny warnings  treat warning-severity findings as fatal\n  \
                     --equiv          also run the symbolic cross-target equivalence suite (S4L013/S4L014)\n  \
                     --merge-sound    also run the register merge-soundness suite (S4L015)\n  \
                     --json           emit one JSON document: `programs`, and `equiv`/`merge` when run\n  \
                     --verbose, -v    also show info-severity notes"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn print_diags(diags: &[p4sim::Diagnostic], verbose: bool) {
    for d in diags {
        let show = match d.severity {
            Severity::Error | Severity::Warning => true,
            Severity::Info => verbose,
        };
        if show {
            println!("       {d}");
        }
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("stat4-lint: {e}");
            return ExitCode::FAILURE;
        }
    };

    let deny = opts.deny_warnings;
    let suite = builtin_suite();
    let equiv = opts.equiv.then(equiv_suite);
    let merge = opts.merge_sound.then(merge_suite);
    let failed = suite.iter().filter(|e| !e.report.passes(deny)).count()
        + equiv.iter().flatten().filter(|e| !e.passes(deny)).count()
        + merge.iter().flatten().filter(|e| !e.report.passes(deny)).count();

    if opts.json {
        let entry = |name: &str, pass: bool, report: Json| {
            obj(vec![("name", name.to_json()), ("pass", pass.to_json()), ("report", report)])
        };
        let programs = suite.iter().map(|e| entry(e.name, e.report.passes(deny), e.report.to_json()));
        let mut doc = vec![("programs", Json::Arr(programs.collect()))];
        if let Some(eq) = &equiv {
            let entries = eq.iter().map(|e| {
                obj(vec![
                    ("name", e.name.to_json()),
                    ("expect_divergence", e.expect_divergence.to_json()),
                    ("pass", e.passes(deny).to_json()),
                    ("report", e.report.to_json()),
                ])
            });
            doc.push(("equiv", Json::Arr(entries.collect())));
        }
        if let Some(ms) = &merge {
            let entries = ms.iter().map(|e| entry(e.name, e.report.passes(deny), e.report.to_json()));
            doc.push(("merge", Json::Arr(entries.collect())));
        }
        println!("{}", json::render(&obj(doc)));
    } else {
        for e in &suite {
            let verdict = if e.report.passes(deny) { "ok" } else { "FAIL" };
            println!(
                "{verdict:4} {:45} [{}] {} stage(s), {} error(s), {} warning(s), {} note(s)",
                e.name,
                e.report.target,
                e.report.allocation.depth,
                e.report.errors(),
                e.report.warnings(),
                e.report.infos()
            );
            print_diags(&e.report.diagnostics, opts.verbose);
        }
        if let Some(eq) = &equiv {
            println!("-- cross-target equivalence (symbolic) --");
            for e in eq {
                let verdict = if e.passes(deny) { "ok" } else { "FAIL" };
                let outcome = if e.report.equivalent() {
                    "equivalent"
                } else if e.expect_divergence {
                    "diverges (as asserted)"
                } else {
                    "DIVERGES"
                };
                println!(
                    "{verdict:4} {:60} {outcome}, {}+{} path(s), {} witness(es)",
                    e.name, e.report.paths_a, e.report.paths_b, e.report.witnesses
                );
                if !e.expect_divergence {
                    print_diags(&e.report.diagnostics, opts.verbose);
                }
            }
        }
        if let Some(ms) = &merge {
            println!("-- register merge soundness --");
            for e in ms {
                let verdict = if e.report.passes(deny) { "ok" } else { "FAIL" };
                println!(
                    "{verdict:4} {:45} {} register(s) checked, {} exempt, {} origin pair(s), {} witness(es)",
                    e.name,
                    e.report.checked,
                    e.report.exempt.len(),
                    e.report.origin_pairs,
                    e.report.witnesses
                );
                print_diags(&e.report.diagnostics, opts.verbose);
            }
        }
        let total =
            suite.len() + equiv.as_ref().map_or(0, Vec::len) + merge.as_ref().map_or(0, Vec::len);
        println!(
            "{total} check(s) run, {failed} failed{}",
            if deny {
                " (warnings denied)"
            } else {
                ""
            }
        );
    }

    if failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
