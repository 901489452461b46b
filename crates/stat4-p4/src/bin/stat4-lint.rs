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
//!
//! Exit status is non-zero when any program has an error-severity
//! finding, or any warning-severity finding under `--deny warnings`.
//! Info-severity notes (things the analysis could not *prove* but that
//! are not certain violations) never fail the lint; `--verbose` shows
//! them.

use std::process::ExitCode;

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
                     --json           emit machine-readable JSON\n  \
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

    let suite = builtin_suite();
    let equiv = opts.equiv.then(equiv_suite);
    let merge = opts.merge_sound.then(merge_suite);
    let mut failed = 0usize;

    if opts.json {
        let programs: Vec<String> = suite
            .iter()
            .map(|e| {
                format!(
                    "{{\"name\":{},\"pass\":{},\"report\":{}}}",
                    p4sim::analysis::json_string(e.name),
                    e.report.passes(opts.deny_warnings),
                    e.report.to_json()
                )
            })
            .collect();
        failed += suite
            .iter()
            .filter(|e| !e.report.passes(opts.deny_warnings))
            .count();
        let programs = format!("[{}]", programs.join(","));
        if equiv.is_none() && merge.is_none() {
            // Backwards-compatible shape: a bare per-program array.
            println!("{programs}");
        } else {
            let mut sections = vec![format!("\"programs\":{programs}")];
            if let Some(eq) = &equiv {
                let entries: Vec<String> = eq
                    .iter()
                    .map(|e| {
                        format!(
                            "{{\"name\":{},\"expect_divergence\":{},\"pass\":{},\"report\":{}}}",
                            p4sim::analysis::json_string(e.name),
                            e.expect_divergence,
                            e.passes(opts.deny_warnings),
                            e.report.to_json()
                        )
                    })
                    .collect();
                failed += eq.iter().filter(|e| !e.passes(opts.deny_warnings)).count();
                sections.push(format!("\"equiv\":[{}]", entries.join(",")));
            }
            if let Some(ms) = &merge {
                let entries: Vec<String> = ms
                    .iter()
                    .map(|e| {
                        format!(
                            "{{\"name\":{},\"pass\":{},\"report\":{}}}",
                            p4sim::analysis::json_string(e.name),
                            e.report.passes(opts.deny_warnings),
                            e.report.to_json()
                        )
                    })
                    .collect();
                failed += ms
                    .iter()
                    .filter(|e| !e.report.passes(opts.deny_warnings))
                    .count();
                sections.push(format!("\"merge\":[{}]", entries.join(",")));
            }
            println!("{{{}}}", sections.join(","));
        }
    } else {
        for e in &suite {
            let pass = e.report.passes(opts.deny_warnings);
            let verdict = if pass { "ok" } else { "FAIL" };
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
            if !pass {
                failed += 1;
            }
        }
        if let Some(eq) = &equiv {
            println!("-- cross-target equivalence (symbolic) --");
            for e in eq {
                let pass = e.passes(opts.deny_warnings);
                let verdict = if pass { "ok" } else { "FAIL" };
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
                if !pass {
                    failed += 1;
                }
            }
        }
        if let Some(ms) = &merge {
            println!("-- register merge soundness --");
            for e in ms {
                let pass = e.report.passes(opts.deny_warnings);
                let verdict = if pass { "ok" } else { "FAIL" };
                println!(
                    "{verdict:4} {:45} {} register(s) checked, {} exempt, {} origin pair(s), {} witness(es)",
                    e.name,
                    e.report.checked,
                    e.report.exempt.len(),
                    e.report.origin_pairs,
                    e.report.witnesses
                );
                print_diags(&e.report.diagnostics, opts.verbose);
                if !pass {
                    failed += 1;
                }
            }
        }
        let total =
            suite.len() + equiv.as_ref().map_or(0, Vec::len) + merge.as_ref().map_or(0, Vec::len);
        println!(
            "{total} check(s) run, {failed} failed{}",
            if opts.deny_warnings {
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
