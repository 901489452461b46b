//! Target capability models.
//!
//! The paper develops its algorithms against two implicit targets: the
//! bmv2 behavioural model (which executes arbitrary arithmetic except
//! division) and Tofino-class hardware (which additionally cannot
//! multiply two runtime values or shift by a runtime distance, and
//! bounds the number of pipeline stages). Programs are validated against
//! a [`TargetModel`] at build time, so choosing the hardware preset
//! forces the same design decisions the paper describes.

use crate::action::{Operand, Primitive};

/// Capabilities and costs of a deployment target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TargetModel {
    /// Target name for error messages and reports.
    pub name: &'static str,
    /// Whether two runtime values may be multiplied (`Mul` with two
    /// non-constant operands, or any `Mul` at all when
    /// `allow_const_mul` is false).
    pub allow_runtime_mul: bool,
    /// Whether `Mul` by a compile-time constant is allowed (compilers
    /// lower it to shift-add trees).
    pub allow_const_mul: bool,
    /// Whether shift distances may be runtime values.
    pub allow_dynamic_shift: bool,
    /// Sequential-step cost charged for an `Msb` primitive (the paper's
    /// if-cascade; 1 when a TCAM assists).
    pub msb_cost: u32,
    /// Pipeline stages available (the paper cites >10 for commercial
    /// targets).
    pub max_stages: u32,
    /// Per-packet step budget: `ProgramBuilder::build` refuses a program
    /// whose most expensive path charges a packet more steps.
    pub step_budget: u64,
    /// Maximum times one packet may re-enter the pipeline
    /// (`Control::Recirculate`). Each pass costs a full pipeline
    /// traversal of throughput — the reason the paper avoids it.
    pub max_recirculations: u32,
    /// Register cell width in bits for the resource model.
    pub register_width_bits: u32,
    /// Match-action tables one stage can host (the stage allocator in
    /// [`crate::analysis`] bumps tables to later stages past this).
    pub tables_per_stage: u32,
    /// Distinct registers whose stateful ALUs one stage can host.
    pub registers_per_stage: u32,
    /// Whether a register may be touched by at most one read-modify-write
    /// point per packet path (true for PISA hardware, where a register
    /// lives in exactly one stage's stateful ALU; false for software
    /// targets like bmv2).
    pub single_register_access: bool,
    /// Guard bits an SEU-recovery saturation path reserves *above*
    /// each register's declared width: a flip that lands in the guard
    /// range is detected (value exceeds the width mask) and clamped
    /// to the mask. Registers declared so wide that
    /// `width_bits + seu_headroom_bits > 64` leave the recovery nothing
    /// to detect with — the `S4L012` lint. Both standard presets set 0
    /// (no SEU hardening demanded).
    pub seu_headroom_bits: u32,
}

impl TargetModel {
    /// The bmv2 behavioural model: everything except division.
    #[must_use]
    pub const fn bmv2() -> Self {
        Self {
            name: "bmv2",
            allow_runtime_mul: true,
            allow_const_mul: true,
            allow_dynamic_shift: true,
            // Software if-cascade over a 64-bit value.
            msb_cost: 7,
            max_stages: u32::MAX,
            step_budget: 100_000,
            max_recirculations: 16,
            register_width_bits: 64,
            tables_per_stage: u32::MAX,
            registers_per_stage: u32::MAX,
            single_register_access: false,
            seu_headroom_bits: 0,
        }
    }

    /// A Tofino-like hardware model: no runtime multiply, constant
    /// shifts only, TCAM-assisted MSB, bounded stages.
    #[must_use]
    pub const fn tofino_like() -> Self {
        Self {
            name: "tofino-like",
            allow_runtime_mul: false,
            allow_const_mul: true,
            allow_dynamic_shift: false,
            msb_cost: 1,
            max_stages: 12,
            step_budget: 10_000,
            max_recirculations: 1,
            register_width_bits: 32,
            tables_per_stage: 8,
            registers_per_stage: 8,
            single_register_access: true,
            seu_headroom_bits: 0,
        }
    }
}

/// Which of a target's arithmetic rules a primitive breaks. The builder
/// refuses such a program and the verifier lints it; both ask
/// [`TargetModel::forbids`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TargetRule {
    /// `Mul` of two runtime values without `allow_runtime_mul`.
    RuntimeMul,
    /// Any `Mul` with a runtime operand on a target that also lacks
    /// `allow_const_mul`.
    AnyMul,
    /// `Shl` / `Shr` by a runtime distance without
    /// `allow_dynamic_shift`.
    DynamicShift,
}

impl TargetRule {
    /// The forbidden operation, as error messages and lints name it.
    pub(crate) const fn what(self) -> &'static str {
        match self {
            Self::RuntimeMul => "multiplication of two runtime values",
            Self::AnyMul => "multiplication",
            Self::DynamicShift => "shift by a runtime distance",
        }
    }
}

impl TargetModel {
    /// The rule `p` breaks on this target, if any.
    pub(crate) fn forbids(&self, p: &Primitive) -> Option<TargetRule> {
        let runtime = |o: &Operand| !matches!(o, Operand::Const(_));
        match p {
            Primitive::Mul { a, b, .. } if !self.allow_runtime_mul => {
                if runtime(a) && runtime(b) {
                    Some(TargetRule::RuntimeMul)
                } else if (runtime(a) || runtime(b)) && !self.allow_const_mul {
                    Some(TargetRule::AnyMul)
                } else {
                    None
                }
            }
            Primitive::Shl { amount, .. } | Primitive::Shr { amount, .. }
                if runtime(amount) && !self.allow_dynamic_shift =>
            {
                Some(TargetRule::DynamicShift)
            }
            _ => None,
        }
    }
}

impl Default for TargetModel {
    fn default() -> Self {
        Self::bmv2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_where_expected() {
        let b = TargetModel::bmv2();
        let t = TargetModel::tofino_like();
        assert!(b.allow_runtime_mul && !t.allow_runtime_mul);
        assert!(b.allow_dynamic_shift && !t.allow_dynamic_shift);
        assert!(t.max_stages < b.max_stages);
        assert!(t.msb_cost < b.msb_cost, "TCAM-assisted MSB is cheap");
        assert!(t.tables_per_stage < b.tables_per_stage);
        assert!(t.registers_per_stage < b.registers_per_stage);
        assert!(t.single_register_access && !b.single_register_access);
    }

    #[test]
    fn default_is_bmv2() {
        assert_eq!(TargetModel::default().name, "bmv2");
    }
}
