//! `repro <artefact>`: prints one of the paper's tables or figures, or
//! one ablation, by name.
//!
//! ```text
//! cargo run -p bench --release -- table2
//! ```
//!
//! `EXPERIMENTS.md` holds each artefact's output under its command, and
//! `tests/experiments_golden.rs` checks the two against each other. No
//! argument, more than one, or an unknown name prints the usage line
//! and exits 2.

use bench::{ablation, paper};
use std::process::ExitCode;

/// Every artefact, by the name the command line takes.
const ARTEFACTS: [(&str, fn()); 11] = [
    ("table2", paper::table2),
    ("table3", paper::table3),
    ("validation", paper::validation),
    ("casestudy", paper::casestudy),
    ("resources", paper::resources),
    ("architecture", paper::architecture),
    ("margin", ablation::margin),
    ("cusum", ablation::cusum),
    ("scaling", ablation::scaling),
    ("sketch", ablation::sketch),
    ("cost", ablation::cost),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [name] = args.as_slice() {
        if let Some((_, run)) = ARTEFACTS.iter().find(|(n, _)| n == name) {
            run();
            return ExitCode::SUCCESS;
        }
    }
    let names: Vec<&str> = ARTEFACTS.iter().map(|(n, _)| *n).collect();
    eprintln!("usage: repro <{}>", names.join("|"));
    ExitCode::from(2)
}
