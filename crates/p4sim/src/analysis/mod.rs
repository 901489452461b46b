//! Compile-time verification of built pipelines.
//!
//! The paper's programs are written *for* a PISA target: no division,
//! no runtime multiplication, a handful of stages, one stateful-ALU
//! access per register per packet. The interpreter enforces some of
//! this dynamically; this module proves the rest **before a single
//! packet runs**:
//!
//! 1. [`tdg`] builds the table dependency graph — one node per control
//!    unit, one edge per reason two units cannot share a stage.
//! 2. [`stages`] allocates units to pipeline stages under the target's
//!    per-stage limits and checks the register discipline.
//! 3. [`range`] runs an abstract interpretation over every action and
//!    branch, proving that the statistics arithmetic (`N·x`, `Xsum`,
//!    `Xsumsq`, `2·σ`) cannot overflow the configured register and PHV
//!    widths — or reporting the offending primitive chain when it can.
//!
//! [`verify`] runs all of it against the pipeline's own target;
//! [`verify_against`] re-checks the same program against a *different*
//! target, which is how a bmv2-built prototype is vetted for hardware
//! (and how the known-bad fixtures in `tests/` are seeded: programs
//! that build fine on bmv2 and lint dirty on Tofino-like metal).
//!
//! The `stat4-lint` binary in the `stat4-p4` crate drives this module
//! over every built-in program.

pub mod diag;
pub mod range;
pub mod stages;
pub mod symbolic;
pub mod tdg;

pub use diag::{Diagnostic, LintCode, Severity};
pub use range::{analyze_ranges, Interval, RangeSummary};
pub use stages::{allocate, StageAllocation, StageUse};
pub use symbolic::{
    check_agreement, check_equivalence, check_merge_soundness, enumerate_paths, replay_divergence,
    run_witness, vet_rebind, Counterexample, EquivReport, InputDomain, MergeCounterexample,
    MergeReport, RebindReport, SymbolicOptions, Witness,
};
pub use tdg::{DepKind, NodeKind, TableDepGraph, TdgEdge, TdgNode};
/// The codec every report here is written with, for crates that do
/// not depend on `telemetry` (the `stat4-lint` binary).
pub use telemetry::json;

use crate::pipeline::Pipeline;
use crate::target::{TargetModel, TargetRule};
use json::{obj, Json, ToJson};
use std::fmt;

/// Everything the verifier found out about one program/target pair.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Name of the target the program was verified against.
    pub target: String,
    /// All findings, errors first.
    pub diagnostics: Vec<Diagnostic>,
    /// The stage allocation.
    pub allocation: StageAllocation,
    /// Control units in the dependency graph.
    pub node_count: usize,
    /// Dependency edges in the graph.
    pub edge_count: usize,
    /// What the range analysis could prove.
    pub range: RangeSummary,
    /// Longest sequential dependency chain over any execution path
    /// (`Msb` charged at the target's cost): the resource figure.
    pub worst_chain_steps: u64,
    /// The target's per-packet step budget. `S4L007` checks it against
    /// the steps the interpreter charges on the worst path, not the
    /// chain.
    pub step_budget: u64,
}

impl VerifyReport {
    /// Number of error-severity findings.
    #[must_use]
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity findings.
    #[must_use]
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Number of info-severity findings.
    #[must_use]
    pub fn infos(&self) -> usize {
        self.count(Severity::Info)
    }

    fn count(&self, s: Severity) -> usize {
        diag::count(&self.diagnostics, s)
    }

    /// Whether the program is clean: no errors, and no warnings either
    /// when `deny_warnings` is set. Info findings never fail a lint.
    #[must_use]
    pub fn passes(&self, deny_warnings: bool) -> bool {
        diag::passes(&self.diagnostics, deny_warnings)
    }
}

/// Graph sizes under short names, the allocation's depth and fit, and
/// the finding counts beside the findings.
impl ToJson for VerifyReport {
    fn to_json(&self) -> Json {
        obj(vec![
            ("target", self.target.to_json()),
            ("nodes", self.node_count.to_json()),
            ("edges", self.edge_count.to_json()),
            ("depth", self.allocation.depth.to_json()),
            ("fits", self.allocation.fits.to_json()),
            ("errors", self.errors().to_json()),
            ("warnings", self.warnings().to_json()),
            ("infos", self.infos().to_json()),
            ("worst_chain_steps", self.worst_chain_steps.to_json()),
            ("step_budget", self.step_budget.to_json()),
            ("range", self.range.to_json()),
            ("diagnostics", self.diagnostics.to_json()),
        ])
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "verify against `{}`: {} units, {} dependencies, {} stages ({})",
            self.target,
            self.node_count,
            self.edge_count,
            self.allocation.depth,
            if self.allocation.fits {
                "fits"
            } else {
                "DOES NOT FIT"
            }
        )?;
        writeln!(
            f,
            "  worst chain: {} steps (budget {})",
            self.worst_chain_steps, self.step_budget
        )?;
        writeln!(
            f,
            "  stores: {} proven / {} modular / {} unproven of {}",
            self.range.proven_fits,
            self.range.modular_accumulators,
            self.range.unproven,
            self.range.register_writes
        )?;
        write!(
            f,
            "  findings: {} error(s), {} warning(s), {} note(s)",
            self.errors(),
            self.warnings(),
            self.infos()
        )?;
        for d in &self.diagnostics {
            write!(f, "\n  {d}")?;
        }
        Ok(())
    }
}

/// Re-checks the build-time target gates (the same rules
/// `ProgramBuilder::build` enforces) so a program built for one target
/// can be linted against another.
fn target_legality(p: &Pipeline, target: &TargetModel, diags: &mut Vec<Diagnostic>) {
    for action in p.actions() {
        for (i, prim) in action.primitives.iter().enumerate() {
            let Some(rule) = target.forbids(prim) else {
                continue;
            };
            let (code, advice) = match rule {
                TargetRule::RuntimeMul => {
                    (LintCode::RuntimeMul, "; use the unrolled shift-add fragment")
                }
                TargetRule::AnyMul => (LintCode::RuntimeMul, ""),
                TargetRule::DynamicShift => (
                    LintCode::DynamicShift,
                    "; shifters take the distance at configuration time",
                ),
            };
            diags.push(Diagnostic::new(
                code,
                Severity::Error,
                format!("action `{}`, primitive #{i}", action.name),
                format!("{} is unsupported on `{}`{advice}", rule.what(), target.name),
            ));
        }
    }
}

/// Checks that every register leaves room for the target's SEU-recovery
/// guard bits: a saturating recovery path detects a bit flip by the
/// value exceeding the register's width mask, which is only possible when `width_bits + seu_headroom_bits` still
/// fits the 64-bit cell. Targets with `seu_headroom_bits == 0` demand
/// no hardening and are never flagged.
fn seu_headroom(p: &Pipeline, target: &TargetModel, diags: &mut Vec<Diagnostic>) {
    if target.seu_headroom_bits == 0 {
        return;
    }
    for reg in p.registers() {
        if reg.width_bits + target.seu_headroom_bits > 64 {
            diags.push(Diagnostic::new(
                LintCode::SeuHeadroom,
                Severity::Warning,
                format!("register `{}`", reg.name),
                format!(
                    "declared width {} bits leaves no room for the {} guard bit(s) `{}` reserves for SEU-recovery saturation; an out-of-width flip wraps silently (cap the width at {} bits or drop the hardening requirement)",
                    reg.width_bits,
                    target.seu_headroom_bits,
                    target.name,
                    64 - target.seu_headroom_bits
                ),
            ));
        }
    }
}

/// Verifies a built pipeline against its own target.
#[must_use]
pub fn verify(p: &Pipeline) -> VerifyReport {
    verify_against(p, &p.target().clone())
}

/// Verifies a built pipeline against an arbitrary target — the
/// porting question ("would this bmv2 prototype fit hardware?") and the
/// mechanism behind every known-bad lint fixture.
#[must_use]
pub fn verify_against(p: &Pipeline, target: &TargetModel) -> VerifyReport {
    let mut diags = Vec::new();
    target_legality(p, target, &mut diags);
    seu_headroom(p, target, &mut diags);

    let tdg = TableDepGraph::build(p);
    let allocation = allocate(p, &tdg, target, &mut diags);
    let range = analyze_ranges(p, &mut diags);

    let worst_steps = crate::resources::worst_packet_steps(p, target);
    if worst_steps > target.step_budget {
        diags.push(Diagnostic::new(
            LintCode::StepBudget,
            Severity::Warning,
            format!("target `{}`", target.name),
            format!(
                "the worst-case path executes {worst_steps} steps but the target budgets {} per packet",
                target.step_budget
            ),
        ));
    }

    // Errors first, then warnings, then notes; stable within a class.
    diags.sort_by_key(|d| std::cmp::Reverse(d.severity));

    VerifyReport {
        target: target.name.to_string(),
        diagnostics: diags,
        node_count: tdg.nodes.len(),
        edge_count: tdg.edges.len(),
        allocation,
        range,
        worst_chain_steps: crate::resources::worst_path_steps(p, target),
        step_budget: target.step_budget,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{ActionDef, Operand, Primitive};
    use crate::control::Control;
    use crate::phv::fields;
    use crate::program::ProgramBuilder;

    fn runtime_mul_pipeline() -> Pipeline {
        let mut b = ProgramBuilder::new();
        let a = b.add_action(ActionDef::new(
            "sq",
            vec![Primitive::Mul {
                dst: fields::M0,
                a: Operand::Field(fields::PKT_LEN),
                b: Operand::Field(fields::PKT_LEN),
            }],
        ));
        b.set_control(Control::ApplyAction(a));
        b.build(TargetModel::bmv2()).unwrap()
    }

    #[test]
    fn clean_program_passes_deny_warnings() {
        let mut b = ProgramBuilder::new();
        let r = b.add_register("ctr", 64, 4);
        let a = b.add_action(ActionDef::new(
            "bump",
            vec![
                Primitive::RegRead {
                    dst: fields::M0,
                    register: r,
                    index: Operand::Const(2),
                },
                Primitive::Add {
                    dst: fields::M0,
                    a: Operand::Field(fields::M0),
                    b: Operand::Const(1),
                },
                Primitive::RegWrite {
                    register: r,
                    index: Operand::Const(2),
                    src: Operand::Field(fields::M0),
                },
            ],
        ));
        b.set_control(Control::ApplyAction(a));
        let p = b.build(TargetModel::tofino_like()).unwrap();
        let report = verify(&p);
        assert!(report.passes(true), "{report}");
        assert_eq!(report.errors(), 0);
        assert_eq!(report.node_count, 1);
    }

    #[test]
    fn runtime_mul_flagged_against_hardware_only() {
        let p = runtime_mul_pipeline();
        let hw = verify_against(&p, &TargetModel::tofino_like());
        assert!(!hw.passes(false));
        assert!(hw
            .diagnostics
            .iter()
            .any(|d| d.code == LintCode::RuntimeMul && d.severity == Severity::Error));
        let sw = verify(&p);
        assert!(sw
            .diagnostics
            .iter()
            .all(|d| d.code != LintCode::RuntimeMul));
    }

    #[test]
    fn dynamic_shift_flagged_against_hardware() {
        let mut b = ProgramBuilder::new();
        let a = b.add_action(ActionDef::new(
            "sh",
            vec![Primitive::Shr {
                dst: fields::M0,
                src: Operand::Field(fields::PKT_LEN),
                amount: Operand::Field(fields::IPV4_TTL),
            }],
        ));
        b.set_control(Control::ApplyAction(a));
        let p = b.build(TargetModel::bmv2()).unwrap();
        let report = verify_against(&p, &TargetModel::tofino_like());
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == LintCode::DynamicShift && d.severity == Severity::Error));
    }

    #[test]
    fn step_budget_is_a_warning_not_an_error() {
        let mut b = ProgramBuilder::new();
        let a = b.add_action(ActionDef::new(
            "chain",
            vec![
                Primitive::Set {
                    dst: fields::M0,
                    src: Operand::Const(1),
                },
                Primitive::Add {
                    dst: fields::M0,
                    a: Operand::Field(fields::M0),
                    b: Operand::Const(1),
                },
                Primitive::Add {
                    dst: fields::M0,
                    a: Operand::Field(fields::M0),
                    b: Operand::Const(1),
                },
            ],
        ));
        b.set_control(Control::ApplyAction(a));
        let p = b.build(TargetModel::bmv2()).unwrap();
        let tight = TargetModel {
            step_budget: 2,
            ..TargetModel::bmv2()
        };
        let report = verify_against(&p, &tight);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == LintCode::StepBudget && d.severity == Severity::Warning));
        assert!(report.passes(false), "warnings alone do not fail");
        assert!(!report.passes(true), "but --deny warnings does");
    }

    #[test]
    fn diagnostics_sorted_errors_first() {
        // Runtime mul (error vs hardware) + unproven store (info).
        let mut b = ProgramBuilder::new();
        let r = b.add_register("narrow", 16, 1);
        let a = b.add_action(ActionDef::new(
            "mixed",
            vec![
                Primitive::Mul {
                    dst: fields::M0,
                    a: Operand::Field(fields::PKT_LEN),
                    b: Operand::Field(fields::PKT_LEN),
                },
                Primitive::RegWrite {
                    register: r,
                    index: Operand::Const(0),
                    src: Operand::Field(fields::PKT_LEN),
                },
            ],
        ));
        b.set_control(Control::ApplyAction(a));
        let p = b.build(TargetModel::bmv2()).unwrap();
        let report = verify_against(&p, &TargetModel::tofino_like());
        assert!(report.diagnostics.len() >= 2);
        for pair in report.diagnostics.windows(2) {
            assert!(pair[0].severity >= pair[1].severity);
        }
        assert_eq!(report.diagnostics[0].severity, Severity::Error);
    }

    #[test]
    fn report_renders_text_and_json() {
        let p = runtime_mul_pipeline();
        let report = verify_against(&p, &TargetModel::tofino_like());
        let text = report.to_string();
        assert!(text.contains("verify against `tofino-like`"));
        assert!(text.contains("S4L001"));
        let json = json::write(&report);
        assert!(json.contains("\"target\":\"tofino-like\""));
        assert!(json.contains("\"code\":\"S4L001\""));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }
}
