//! Loop-free control flow: sequences, branches, table applications.
//!
//! A P4 control is a straight-line program over `apply` statements; the
//! simulator models it as a tree, so loops are unrepresentable. A table
//! can appear at most once on any root-to-leaf path (checked at build
//! time), mirroring the P4 rule that a table may be applied at most
//! once per packet.

use crate::action::Operand;

/// Comparison operator for branch conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// A branch condition `a op b` over operands (unsigned comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cond {
    /// Left operand.
    pub a: Operand,
    /// Operator.
    pub op: CmpOp,
    /// Right operand.
    pub b: Operand,
}

impl Cond {
    /// Builds a condition.
    #[must_use]
    pub fn new(a: Operand, op: CmpOp, b: Operand) -> Self {
        Self { a, op, b }
    }

    /// Evaluates with already-resolved operand values.
    #[must_use]
    pub(crate) fn eval(&self, a: u64, b: u64) -> bool {
        self.op.eval(a, b)
    }
}

impl CmpOp {
    /// `a op b`, unsigned.
    #[must_use]
    pub(crate) fn eval(self, a: u64, b: u64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }

    /// The operator of the negated comparison: `!(a op b)` is
    /// `a op.negate() b`.
    #[must_use]
    pub(crate) fn negate(self) -> Self {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// The operator with its operands swapped: `a op b` is
    /// `b op.mirror() a`.
    #[must_use]
    pub(crate) fn mirror(self) -> Self {
        match self {
            CmpOp::Eq | CmpOp::Ne => self,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

/// One node of the control tree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum Control {
    /// Do nothing (the default; also what `Seq(vec![])` means).
    #[default]
    Nop,
    /// Execute children in order.
    Seq(Vec<Control>),
    /// Apply a match-action table.
    ApplyTable(usize),
    /// Invoke an action directly (no table, no action data).
    ApplyAction(usize),
    /// Two-way branch.
    If {
        /// The condition.
        cond: Cond,
        /// Taken when the condition holds.
        then_branch: Box<Control>,
        /// Taken otherwise (optional).
        else_branch: Option<Box<Control>>,
    },
    /// Stop processing this packet (remaining control skipped).
    Exit,
    /// Request another pipeline pass for this packet once the current
    /// pass completes (bmv2's `recirculate()`): PHV state persists
    /// across passes. Bounded by the target's `max_recirculations` —
    /// the costly operation the paper's one-step-per-packet median rule
    /// exists to avoid.
    Recirculate,
}

impl Control {
    /// Convenience: an empty control.
    #[must_use]
    pub fn empty() -> Self {
        Control::Seq(Vec::new())
    }

    /// All table ids referenced anywhere in the tree.
    #[must_use]
    pub fn tables(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.visit(&mut |c| {
            if let Control::ApplyTable(t) = c {
                out.push(*t);
            }
        });
        out
    }

    /// All directly applied action ids anywhere in the tree.
    #[must_use]
    pub(crate) fn direct_actions(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.visit(&mut |c| {
            if let Control::ApplyAction(a) = c {
                out.push(*a);
            }
        });
        out
    }

    /// Every branch condition in the tree, in pre-order.
    pub(crate) fn conds(&self) -> Vec<Cond> {
        let mut out = Vec::new();
        self.visit(&mut |c| {
            if let Control::If { cond, .. } = c {
                out.push(*cond);
            }
        });
        out
    }

    /// True if some path requests another pipeline pass.
    pub(crate) fn recirculates(&self) -> bool {
        let mut found = false;
        self.visit(&mut |c| found |= matches!(c, Control::Recirculate));
        found
    }

    fn visit(&self, f: &mut impl FnMut(&Control)) {
        f(self);
        match self {
            Control::Seq(children) => {
                for c in children {
                    c.visit(f);
                }
            }
            Control::If {
                then_branch,
                else_branch,
                ..
            } => {
                then_branch.visit(f);
                if let Some(e) = else_branch {
                    e.visit(f);
                }
            }
            _ => {}
        }
    }

    /// True if some root-to-leaf execution path applies the same table
    /// twice (illegal in P4).
    #[must_use]
    pub(crate) fn has_repeated_table_on_path(&self) -> bool {
        fn walk(c: &Control, seen: &mut Vec<usize>) -> bool {
            match c {
                Control::ApplyTable(t) => {
                    if seen.contains(t) {
                        return true;
                    }
                    seen.push(*t);
                    false
                }
                Control::Seq(children) => children.iter().any(|ch| walk(ch, seen)),
                Control::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    // Branches are alternatives: each explores its own
                    // copy; afterwards, conservatively consider the union
                    // of both branches' applications as applied.
                    let mut then_seen = seen.clone();
                    if walk(then_branch, &mut then_seen) {
                        return true;
                    }
                    let mut else_seen = seen.clone();
                    if let Some(e) = else_branch {
                        if walk(e, &mut else_seen) {
                            return true;
                        }
                    }
                    for t in else_seen {
                        if !then_seen.contains(&t) {
                            then_seen.push(t);
                        }
                    }
                    *seen = then_seen;
                    false
                }
                _ => false,
            }
        }
        let mut seen = Vec::new();
        walk(self, &mut seen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phv::fields;

    #[test]
    fn cond_eval_all_ops() {
        let mk = |op| Cond::new(Operand::Const(0), op, Operand::Const(0));
        assert!(mk(CmpOp::Eq).eval(3, 3));
        assert!(!mk(CmpOp::Eq).eval(3, 4));
        assert!(mk(CmpOp::Ne).eval(3, 4));
        assert!(mk(CmpOp::Lt).eval(3, 4));
        assert!(!mk(CmpOp::Lt).eval(4, 4));
        assert!(mk(CmpOp::Le).eval(4, 4));
        assert!(mk(CmpOp::Gt).eval(5, 4));
        assert!(mk(CmpOp::Ge).eval(4, 4));
    }

    #[test]
    fn table_collection() {
        let c = Control::Seq(vec![
            Control::ApplyTable(0),
            Control::If {
                cond: Cond::new(
                    Operand::Field(fields::IPV4_VALID),
                    CmpOp::Eq,
                    Operand::Const(1),
                ),
                then_branch: Box::new(Control::ApplyTable(1)),
                else_branch: Some(Box::new(Control::ApplyTable(2))),
            },
            Control::ApplyAction(5),
        ]);
        assert_eq!(c.tables(), vec![0, 1, 2]);
        assert_eq!(c.direct_actions(), vec![5]);
        assert!(!c.has_repeated_table_on_path());
    }

    #[test]
    fn repeated_table_detected() {
        let c = Control::Seq(vec![Control::ApplyTable(0), Control::ApplyTable(0)]);
        assert!(c.has_repeated_table_on_path());
    }

    #[test]
    fn same_table_in_exclusive_branches_ok() {
        let c = Control::If {
            cond: Cond::new(Operand::Const(1), CmpOp::Eq, Operand::Const(1)),
            then_branch: Box::new(Control::ApplyTable(3)),
            else_branch: Some(Box::new(Control::ApplyTable(3))),
        };
        assert!(!c.has_repeated_table_on_path());
    }

    #[test]
    fn table_after_branch_that_applied_it_detected() {
        let c = Control::Seq(vec![
            Control::If {
                cond: Cond::new(Operand::Const(1), CmpOp::Eq, Operand::Const(1)),
                then_branch: Box::new(Control::ApplyTable(3)),
                else_branch: None,
            },
            Control::ApplyTable(3),
        ]);
        assert!(c.has_repeated_table_on_path());
    }

    #[test]
    fn empty_control() {
        let c = Control::empty();
        assert!(c.tables().is_empty());
        assert!(!c.has_repeated_table_on_path());
    }
}
