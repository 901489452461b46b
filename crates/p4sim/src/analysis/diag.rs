//! Diagnostics: stable lint codes, severities, human and JSON output
//! (each type's [`ToJson`] impl beside it).
//!
//! Every finding the static verifier can produce carries a [`LintCode`]
//! that is stable across releases (tests and CI pin against them), a
//! [`Severity`] chosen at emission time (the same code can be an error
//! when the violation is *certain* and a note when it is merely not
//! disproven), a human-readable message, and — for the value-range
//! analysis — the chain of primitives that produced the offending
//! value.
//!
//! Severity policy:
//!
//! - [`Severity::Error`] — the program cannot run correctly on the
//!   analysed target: target-illegal primitives, stage overflow, a
//!   register touched twice on one packet path of a single-access
//!   target, arithmetic that *provably* truncates or overflows.
//! - [`Severity::Warning`] — the program runs but a worst-case bound is
//!   violated (e.g. the worst-case path exceeds the step budget of a
//!   target it is vetted against; on the target it was built for, that
//!   is a build refusal). `--deny warnings` promotes these to failures.
//! - [`Severity::Info`] — the analysis could not *prove* a bound
//!   (action data installed by the controller at runtime, a possible
//!   but not certain wrap). Recorded and countable, never fatal.

use std::fmt;
use telemetry::json::ToJson;
use telemetry::json_struct;

/// How serious a finding is (see the module docs for the policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Not disproven, recorded for audit; never fatal.
    Info,
    /// Worst-case bound violated; fatal under `--deny warnings`.
    Warning,
    /// The program cannot run correctly on the analysed target.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Written as its name: `"info"`, `"warning"` or `"error"`.
impl ToJson for Severity {
    fn write_json(&self, out: &mut String) {
        self.to_string().write_json(out);
    }
}

/// Stable lint codes. The numeric part never changes meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintCode {
    /// `S4L001` — `Mul` of two runtime values on a target without a
    /// runtime multiplier (the paper's division/multiply discipline).
    RuntimeMul,
    /// `S4L002` — shift by a runtime distance on a target with
    /// constant-only shifters.
    DynamicShift,
    /// `S4L003` — the stage allocation needs more stages than the
    /// target provides.
    StageOverflow,
    /// `S4L004` — one register is touched at more than one point of a
    /// packet path (or twice inside one action beyond a single
    /// read-modify-write), which a PISA stateful ALU cannot do.
    RegisterMultiAccess,
    /// `S4L005` — a value provably wider than its destination register
    /// is stored (silent truncation), or a product provably exceeds
    /// the 64-bit PHV.
    WidthTruncation,
    /// `S4L006` — a register store could not be *proven* to fit the
    /// register width (emitted as info with the primitive chain).
    WidthUnproven,
    /// `S4L007` — the steps the interpreter charges a packet on the
    /// worst-case path exceed the per-packet step budget of the target
    /// the program is vetted against (on its own target, `build`
    /// refuses such a program).
    StepBudget,
    /// `S4L008` — a register index can (or provably does) fall outside
    /// the register's cell range.
    RegisterIndexRange,
    /// `S4L009` — a single table/action needs more per-stage resources
    /// (e.g. distinct registers) than any one stage offers, so no
    /// allocation exists.
    StageResourceUnallocatable,
    /// `S4L010` — a multiplication's result interval can exceed the
    /// 64-bit PHV word (possible wrap; certain wraps use `S4L005`).
    MulOverflow,
    /// `S4L011` — a left shift can push set bits past the 64-bit PHV
    /// word (possible wrap; certain wraps use `S4L005`).
    ShiftOverflow,
    /// `S4L012` — a register's declared width leaves no headroom for
    /// the SEU-recovery saturation path on a target that reserves
    /// guard bits (`TargetModel::seu_headroom_bits`): an out-of-width
    /// bit flip cannot be detected, so corruption wraps silently
    /// instead of saturating.
    SeuHeadroom,
    /// `S4L013` — two builds of the same statistic (e.g. bmv2 vs
    /// tofino-like) diverge on a concrete input: the symbolic
    /// differential check found a packet + initial register state on
    /// which the pipelines produce different observable outcomes
    /// (egress, drop, digests or final registers).
    TargetDivergence,
    /// `S4L014` — symbolic path enumeration hit the configured path
    /// budget and was truncated; the verdict only covers the explored
    /// paths (emitted as a warning with the bound, never a silent cap).
    PathBudget,
    /// `S4L015` — a register's per-packet update function does not
    /// commute with its declared merge policy (exact-sum, saturating
    /// sum or max), so sharded replay's cellwise merge is unsound for
    /// that register.
    MergeUnsound,
    /// `S4L016` — a runtime rebind transaction
    /// (`RuntimeRequest::Batch` over binding tables) would leave the
    /// program illegal: the batch fails to apply, the post-rebind
    /// program fails static verification, or a vetting input trips a
    /// runtime fault (e.g. a register index out of range).
    UnsafeRebind,
}

impl LintCode {
    /// The stable code string (`S4Lnnn`).
    #[must_use]
    pub const fn code(self) -> &'static str {
        match self {
            LintCode::RuntimeMul => "S4L001",
            LintCode::DynamicShift => "S4L002",
            LintCode::StageOverflow => "S4L003",
            LintCode::RegisterMultiAccess => "S4L004",
            LintCode::WidthTruncation => "S4L005",
            LintCode::WidthUnproven => "S4L006",
            LintCode::StepBudget => "S4L007",
            LintCode::RegisterIndexRange => "S4L008",
            LintCode::StageResourceUnallocatable => "S4L009",
            LintCode::MulOverflow => "S4L010",
            LintCode::ShiftOverflow => "S4L011",
            LintCode::SeuHeadroom => "S4L012",
            LintCode::TargetDivergence => "S4L013",
            LintCode::PathBudget => "S4L014",
            LintCode::MergeUnsound => "S4L015",
            LintCode::UnsafeRebind => "S4L016",
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// Written as its stable code string.
impl ToJson for LintCode {
    fn write_json(&self, out: &mut String) {
        self.code().write_json(out);
    }
}

/// One finding of the static verifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable lint code.
    pub code: LintCode,
    /// Severity chosen at emission (see module docs).
    pub severity: Severity,
    /// Where the finding is anchored, e.g.
    /// `` action `track_payload` (table `binding`), primitive #3 ``.
    pub context: String,
    /// What is wrong and why.
    pub message: String,
    /// For range findings: the primitives that produced the offending
    /// value, oldest first (bounded; long chains keep the tail).
    pub chain: Vec<String>,
}

json_struct!(@write Diagnostic { code, severity, context, message, chain });

impl Diagnostic {
    /// Builds a diagnostic without a primitive chain.
    #[must_use]
    pub fn new(
        code: LintCode,
        severity: Severity,
        context: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Self {
            code,
            severity,
            context: context.into(),
            message: message.into(),
            chain: Vec::new(),
        }
    }

    /// Attaches the producing primitive chain.
    #[must_use]
    pub(crate) fn with_chain(mut self, chain: Vec<String>) -> Self {
        self.chain = chain;
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}: {} [{}]",
            self.code, self.severity, self.message, self.context
        )?;
        if !self.chain.is_empty() {
            write!(f, "\n    via {}", self.chain.join(" -> "))?;
        }
        Ok(())
    }
}

/// How many of `diags` have severity `s`.
pub(crate) fn count(diags: &[Diagnostic], s: Severity) -> usize {
    diags.iter().filter(|d| d.severity == s).count()
}

/// The severity policy every report applies: no errors, and no warnings
/// either when `deny_warnings` is set. Info findings never fail.
pub(crate) fn passes(diags: &[Diagnostic], deny_warnings: bool) -> bool {
    count(diags, Severity::Error) == 0 && (!deny_warnings || count(diags, Severity::Warning) == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable() {
        assert_eq!(LintCode::RuntimeMul.code(), "S4L001");
        assert_eq!(LintCode::StageOverflow.code(), "S4L003");
        assert_eq!(LintCode::WidthTruncation.code(), "S4L005");
        assert_eq!(LintCode::ShiftOverflow.code(), "S4L011");
        assert_eq!(LintCode::TargetDivergence.code(), "S4L013");
        assert_eq!(LintCode::PathBudget.code(), "S4L014");
        assert_eq!(LintCode::MergeUnsound.code(), "S4L015");
        assert_eq!(LintCode::UnsafeRebind.code(), "S4L016");
    }

    #[test]
    fn severity_orders_info_warning_error() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn display_and_json_render() {
        let d = Diagnostic::new(
            LintCode::WidthTruncation,
            Severity::Error,
            "action `a`, primitive #1",
            "value in [1099511627776, 1099511627776] cannot fit 16 bits",
        )
        .with_chain(vec!["Shl -> s0".into(), "RegWrite r".into()]);
        let text = d.to_string();
        assert!(text.contains("S4L005 error"));
        assert!(text.contains("via Shl"));
        let json = telemetry::json::write(&d);
        assert!(json.contains("\"code\":\"S4L005\""));
        assert!(json.contains("\"severity\":\"error\""));
    }
}
