//! Program assembly and validation.
//!
//! [`ProgramBuilder`] collects registers, actions, tables and the
//! control tree, then [`ProgramBuilder::build`] validates the program
//! against a [`TargetModel`] and produces a runnable
//! [`Pipeline`]. Validation is where the paper's target constraints
//! bite: a program using runtime multiplication builds fine for bmv2 and
//! is rejected for the Tofino-like target.

use crate::action::{ActionDef, Operand, Primitive};
use crate::control::Control;
use crate::error::{P4Error, P4Result};
use crate::pipeline::{Pipeline, RegMerge, Register};
use crate::table::{MatchKind, Table, TableDef};
use crate::target::TargetModel;

/// Incrementally assembles a pipeline program.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    registers: Vec<Register>,
    actions: Vec<ActionDef>,
    tables: Vec<TableDef>,
    control: Control,
}

impl ProgramBuilder {
    /// An empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self {
            registers: Vec::new(),
            actions: Vec::new(),
            tables: Vec::new(),
            control: Control::empty(),
        }
    }

    /// Declares a register array of `size` cells of `width_bits` each;
    /// returns its id. The merge policy defaults to [`RegMerge::Sum`];
    /// override with [`Self::set_register_merge`].
    pub fn add_register(&mut self, name: impl Into<String>, width_bits: u32, size: usize) -> usize {
        self.registers.push(Register {
            name: name.into(),
            width_bits: width_bits.min(64),
            cells: vec![0; size],
            merge: RegMerge::Sum,
            journal: stat4_core::delta::DirtyJournal::over(size),
        });
        self.registers.len() - 1
    }

    /// Declares how register `id`'s per-shard state merges into a
    /// whole-switch view (and, therefore, what algebra the `S4L015`
    /// merge-soundness check verifies its update function against).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not name a declared register.
    pub fn set_register_merge(&mut self, id: usize, merge: RegMerge) {
        self.registers[id].merge = merge;
    }

    /// Declares an action; returns its id.
    pub fn add_action(&mut self, action: ActionDef) -> usize {
        self.actions.push(action);
        self.actions.len() - 1
    }

    /// Declares a table; returns its id.
    pub fn add_table(&mut self, def: TableDef) -> usize {
        self.tables.push(def);
        self.tables.len() - 1
    }

    /// Sets the control tree.
    pub fn set_control(&mut self, control: Control) {
        self.control = control;
    }

    /// Validates against `target` and produces the runnable pipeline.
    ///
    /// # Errors
    ///
    /// - [`P4Error::UnknownId`] for dangling register/action/table
    ///   references;
    /// - [`P4Error::RegisterOutOfBounds`] for a constant register index
    ///   past its register;
    /// - [`P4Error::UnsupportedOnTarget`] for primitives the target
    ///   cannot execute;
    /// - [`P4Error::Invalid`] for structural problems (repeated table on
    ///   a path, default action data arity, action data read by a
    ///   direct action or a branch condition, an LPM key wider than 64
    ///   bits);
    /// - [`P4Error::StepBudget`] when the most expensive path charges a
    ///   packet more steps than `target.step_budget`.
    pub fn build(self, target: TargetModel) -> P4Result<Pipeline> {
        // --- reference checks ---------------------------------------
        for a in &self.actions {
            for p in &a.primitives {
                if let Some((id, _)) = p.register_access() {
                    let reg = self.registers.get(id).ok_or(P4Error::UnknownId { kind: "register", id })?;
                    // A constant index out of range would fault every
                    // packet that runs the action.
                    if let Primitive::RegRead { index: Operand::Const(i), .. }
                    | Primitive::RegWrite { index: Operand::Const(i), .. } = *p
                    {
                        reg.cell(id, i)?;
                    }
                }
                if let Some(rule) = target.forbids(p) {
                    return Err(P4Error::UnsupportedOnTarget {
                        what: rule.what(),
                        target: target.name,
                    });
                }
            }
        }
        for t in self.control.tables() {
            if t >= self.tables.len() {
                return Err(P4Error::UnknownId {
                    kind: "table",
                    id: t,
                });
            }
        }
        for a in self.control.direct_actions() {
            if a >= self.actions.len() {
                return Err(P4Error::UnknownId {
                    kind: "action",
                    id: a,
                });
            }
        }
        for (tid, t) in self.tables.iter().enumerate() {
            // A PHV field holds 64 bits: a wider prefix would shift past it.
            for (_, kind) in &t.keys {
                if let MatchKind::Lpm { width: width @ 65.. } = kind {
                    let what = format!("table {tid} ({}): a {width}-bit LPM key exceeds 64 bits", t.name);
                    return Err(P4Error::Invalid { what });
                }
            }
            for &a in &t.allowed_actions {
                if a >= self.actions.len() {
                    return Err(P4Error::UnknownId {
                        kind: "action",
                        id: a,
                    });
                }
            }
            if let Some((a, data)) = &t.default_action {
                if *a >= self.actions.len() {
                    return Err(P4Error::UnknownId {
                        kind: "action",
                        id: *a,
                    });
                }
                let need = self.actions[*a].data_slots_required();
                if data.len() < need {
                    return Err(P4Error::Invalid {
                        what: format!(
                            "table {tid} default action needs {need} data slots, has {}",
                            data.len()
                        ),
                    });
                }
            }
        }

        // --- structural checks ---------------------------------------
        if self.control.has_repeated_table_on_path() {
            return Err(P4Error::Invalid {
                what: "a table is applied more than once on some execution path".into(),
            });
        }

        // Direct actions must not read action data (there is no entry).
        for a in self.control.direct_actions() {
            if self.actions[a].data_slots_required() > 0 {
                return Err(P4Error::Invalid {
                    what: format!(
                        "action {a} ({}) reads action data but is applied without a table",
                        self.actions[a].name
                    ),
                });
            }
        }

        // Neither may a branch condition: it is evaluated between
        // actions, where no entry's data is in scope.
        for (i, cond) in self.control.conds().iter().enumerate() {
            if matches!(cond.a, Operand::Data(_)) || matches!(cond.b, Operand::Data(_)) {
                return Err(P4Error::Invalid {
                    what: format!(
                        "branch {i} of the control tree ({:?} {:?} {:?}) reads action data in its condition",
                        cond.a, cond.op, cond.b
                    ),
                });
            }
        }

        let p = Pipeline::from_parts(
            target,
            self.registers,
            self.actions,
            self.tables.into_iter().map(Table::new).collect(),
            self.control,
        );
        // P4 has no loops, so a packet's work is bounded before it runs:
        // a program that could overrun the budget is refused here, and
        // no packet path ever checks it.
        let worst = crate::resources::worst_packet_steps(&p, &target);
        if worst > target.step_budget {
            return Err(P4Error::StepBudget {
                worst,
                budget: target.step_budget,
            });
        }
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::{CmpOp, Cond};
    use crate::phv::fields;

    fn mul_action(a: Operand, b: Operand) -> ActionDef {
        ActionDef::new(
            "mul",
            vec![Primitive::Mul {
                dst: fields::M0,
                a,
                b,
            }],
        )
    }

    #[test]
    fn runtime_mul_rejected_on_hardware() {
        let mut b = ProgramBuilder::new();
        let a = b.add_action(mul_action(
            Operand::Field(fields::PKT_LEN),
            Operand::Field(fields::PKT_LEN),
        ));
        b.set_control(Control::ApplyAction(a));
        assert!(matches!(
            b.build(TargetModel::tofino_like()),
            Err(P4Error::UnsupportedOnTarget { .. })
        ));
    }

    #[test]
    fn runtime_mul_fine_on_bmv2() {
        let mut b = ProgramBuilder::new();
        let a = b.add_action(mul_action(
            Operand::Field(fields::PKT_LEN),
            Operand::Field(fields::PKT_LEN),
        ));
        b.set_control(Control::ApplyAction(a));
        assert!(b.build(TargetModel::bmv2()).is_ok());
    }

    #[test]
    fn const_mul_allowed_on_hardware() {
        let mut b = ProgramBuilder::new();
        let a = b.add_action(mul_action(
            Operand::Field(fields::PKT_LEN),
            Operand::Const(9),
        ));
        b.set_control(Control::ApplyAction(a));
        assert!(b.build(TargetModel::tofino_like()).is_ok());
    }

    #[test]
    fn dynamic_shift_gated() {
        let mk = || {
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
            b
        };
        assert!(mk().build(TargetModel::bmv2()).is_ok());
        assert!(matches!(
            mk().build(TargetModel::tofino_like()),
            Err(P4Error::UnsupportedOnTarget { .. })
        ));
    }

    #[test]
    fn dangling_register_rejected() {
        let mut b = ProgramBuilder::new();
        let a = b.add_action(ActionDef::new(
            "r",
            vec![Primitive::RegRead {
                dst: fields::M0,
                register: 3,
                index: Operand::Const(0),
            }],
        ));
        b.set_control(Control::ApplyAction(a));
        assert!(matches!(
            b.build(TargetModel::bmv2()),
            Err(P4Error::UnknownId {
                kind: "register",
                id: 3
            })
        ));
    }

    #[test]
    fn dangling_table_rejected() {
        let mut b = ProgramBuilder::new();
        b.set_control(Control::ApplyTable(0));
        assert!(matches!(
            b.build(TargetModel::bmv2()),
            Err(P4Error::UnknownId { kind: "table", .. })
        ));
    }

    #[test]
    fn repeated_table_rejected() {
        let mut b = ProgramBuilder::new();
        let noop = b.add_action(ActionDef::new("n", vec![]));
        let t = b.add_table(TableDef {
            name: "t".into(),
            keys: vec![(fields::PKT_LEN, MatchKind::Exact)],
            max_entries: 1,
            allowed_actions: vec![noop],
            default_action: None,
        });
        b.set_control(Control::Seq(vec![
            Control::ApplyTable(t),
            Control::ApplyTable(t),
        ]));
        assert!(matches!(
            b.build(TargetModel::bmv2()),
            Err(P4Error::Invalid { .. })
        ));
    }

    #[test]
    fn direct_action_with_data_rejected() {
        let mut b = ProgramBuilder::new();
        let a = b.add_action(ActionDef::new(
            "needs_data",
            vec![Primitive::Forward {
                port: Operand::Data(0),
            }],
        ));
        b.set_control(Control::ApplyAction(a));
        assert!(matches!(
            b.build(TargetModel::bmv2()),
            Err(P4Error::Invalid { .. })
        ));
    }

    #[test]
    fn branch_condition_reading_action_data_rejected() {
        let mut b = ProgramBuilder::new();
        let noop = b.add_action(ActionDef::new("n", vec![]));
        let on_len = Cond::new(Operand::Field(fields::PKT_LEN), CmpOp::Gt, Operand::Const(0));
        b.set_control(Control::If {
            cond: on_len,
            then_branch: Box::new(Control::If {
                cond: Cond::new(Operand::Const(1), CmpOp::Eq, Operand::Data(0)),
                then_branch: Box::new(Control::ApplyAction(noop)),
                else_branch: None,
            }),
            else_branch: None,
        });
        match b.build(TargetModel::bmv2()) {
            Err(P4Error::Invalid { what }) => {
                assert!(what.contains("branch 1") && what.contains("Data(0)"), "{what}");
            }
            other => panic!("expected the inner branch to be rejected, got {other:?}"),
        }
    }

    #[test]
    fn default_action_arity_checked() {
        let mut b = ProgramBuilder::new();
        let a = b.add_action(ActionDef::new(
            "fwd",
            vec![Primitive::Forward {
                port: Operand::Data(0),
            }],
        ));
        let t = b.add_table(TableDef {
            name: "t".into(),
            keys: vec![(fields::PKT_LEN, MatchKind::Exact)],
            max_entries: 1,
            allowed_actions: vec![a],
            default_action: Some((a, vec![])), // missing the slot
        });
        b.set_control(Control::ApplyTable(t));
        assert!(matches!(
            b.build(TargetModel::bmv2()),
            Err(P4Error::Invalid { .. })
        ));
    }

    /// An LPM key wider than the 64-bit field it matches is refused by
    /// name and width; a 64-bit one builds.
    #[test]
    fn lpm_key_wider_than_64_bits_refused() {
        let build = |width| {
            let mut b = ProgramBuilder::new();
            let t = b.add_table(TableDef {
                name: "routes".into(),
                keys: vec![(fields::IPV4_DST, MatchKind::Lpm { width })],
                max_entries: 1,
                allowed_actions: Vec::new(),
                default_action: None,
            });
            b.set_control(Control::ApplyTable(t));
            b.build(TargetModel::bmv2())
        };
        match build(100) {
            Err(P4Error::Invalid { what }) => {
                let named = what.contains("table 0 (routes)");
                assert!(named && what.contains("100-bit LPM key exceeds 64 bits"), "{what}");
            }
            other => panic!("expected a 100-bit LPM key to be refused, got {other:?}"),
        }
        assert!(build(65).is_err());
        assert!(build(64).is_ok());
    }
}
