//! Abstract-interpretation value-range / bit-width analysis.
//!
//! Walks the control tree once (programs are loop-free by
//! construction), carrying a `[lo, hi]` interval per PHV field, and
//! checks the paper's arithmetic — `N·Xsumsq`, `Xsum²`, the `Xsumsq +=
//! 2f+1` moment update, `2·σ` thresholds — against the configured
//! register and PHV widths:
//!
//! - a **register store** whose value *provably* exceeds the register
//!   width is an error ([`LintCode::WidthTruncation`]); one that merely
//!   *cannot be proven* to fit is recorded as info
//!   ([`LintCode::WidthUnproven`]) together with the primitive chain
//!   that produced the value;
//! - a **multiplication or constant shift** whose result interval
//!   crosses the 64-bit PHV word is reported
//!   ([`LintCode::MulOverflow`] / [`LintCode::ShiftOverflow`]; error
//!   when certain, info when merely possible);
//! - a **register index** that can (or provably does) fall outside the
//!   register's cells is reported ([`LintCode::RegisterIndexRange`]).
//!
//! Two deliberate tolerances keep the analysis aligned with P4 idiom
//! rather than noisy:
//!
//! - **`Add`/`Sub` wraparound is never diagnosed.** Wrapping add is how
//!   P4 programs encode negative offsets (the echo app maps `[-255,
//!   255]` payloads with `payload + 255`) and `0 - t` builds all-ones
//!   masks in the unrolled multiplier; the interval simply widens.
//! - **Modular accumulators are accepted.** A value read from register
//!   `R` and written back to `R` after additive updates is a counter;
//!   every counter eventually wraps its width, and flagging that would
//!   flag every program in existence. Such stores count as
//!   `modular_accumulators` in the summary instead.
//!
//! Values read from registers are bounded by the register width (the
//! interpreter masks on write), table action data by the entries
//! installed at analysis time (unknown slots widen to the full word),
//! and parser-populated header fields by the full 64-bit word. Scratch
//! metadata starts at zero — unless the program recirculates, in which
//! case a second pass may observe leftovers and every field starts
//! unconstrained.

use super::diag::{Diagnostic, LintCode, Severity};
use crate::action::{exec_primitive, msb, Alu, Domain, Operand, Primitive};
use crate::control::{CmpOp, Cond, Control};
use crate::error::P4Result;
use crate::phv::{fields, FieldId};
use crate::pipeline::Pipeline;
use std::collections::HashMap;

const WORD: u128 = 1u128 << 64;
const U64M: u128 = WORD - 1;

/// How many producing primitives a value remembers (diagnostics show
/// the tail of longer chains).
const CHAIN_CAP: usize = 6;

/// A closed interval of possible `u64` values (`hi <= u64::MAX` after
/// normalisation; transient results use the full `u128`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Smallest possible value.
    pub lo: u128,
    /// Largest possible value.
    pub hi: u128,
}

impl Interval {
    /// The single value `v`.
    #[must_use]
    pub const fn exact(v: u64) -> Self {
        Self {
            lo: v as u128,
            hi: v as u128,
        }
    }

    /// The full 64-bit word.
    #[must_use]
    pub const fn full() -> Self {
        Self { lo: 0, hi: U64M }
    }

    /// `[lo, hi]`.
    #[must_use]
    pub const fn new(lo: u64, hi: u64) -> Self {
        Self {
            lo: lo as u128,
            hi: hi as u128,
        }
    }

    /// Smallest interval containing both.
    #[must_use]
    pub(crate) fn hull(self, other: Self) -> Self {
        Self {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Wraps a transient result back into the 64-bit word: exact when
    /// the whole interval wrapped once, the full word when it straddles
    /// the boundary.
    fn normalized(self) -> Self {
        if self.hi <= U64M {
            self
        } else if self.lo >= WORD && self.hi < 2 * WORD {
            Self {
                lo: self.lo - WORD,
                hi: self.hi - WORD,
            }
        } else {
            Self::full()
        }
    }

    /// Whether any value exceeds the 64-bit word before normalisation.
    fn overflows_word(self) -> bool {
        self.hi >= WORD
    }

    /// Whether every value exceeds the 64-bit word.
    fn certainly_overflows_word(self) -> bool {
        self.lo >= WORD
    }
}

/// Smallest all-ones value covering `x` (e.g. 5 -> 7).
fn ones_cover(x: u128) -> u128 {
    let x = x.min(U64M);
    if x == 0 {
        0
    } else {
        let bits = 128 - x.leading_zeros();
        (1u128 << bits) - 1
    }
}

/// An abstract value: interval, provenance chain, and — for the
/// modular-accumulator tolerance — the register whose (width-bounded)
/// read the value additively derives from.
#[derive(Debug, Clone)]
struct AbsVal {
    iv: Interval,
    acc: Option<usize>,
    chain: Vec<String>,
}

impl AbsVal {
    fn of(iv: Interval) -> Self {
        Self {
            iv,
            acc: None,
            chain: Vec::new(),
        }
    }

    fn join(&self, other: &Self) -> Self {
        Self {
            iv: self.iv.hull(other.iv),
            acc: if self.acc == other.acc { self.acc } else { None },
            chain: if self.chain.len() <= other.chain.len() {
                self.chain.clone()
            } else {
                other.chain.clone()
            },
        }
    }
}

fn push_chain(chain: &mut Vec<String>, entry: String) {
    chain.push(entry);
    if chain.len() > CHAIN_CAP {
        let drop = chain.len() - CHAIN_CAP;
        chain.drain(..drop);
    }
}

fn merged_chain(a: &AbsVal, b: &AbsVal, entry: String) -> Vec<String> {
    let mut chain = a.chain.clone();
    for c in &b.chain {
        if !chain.contains(c) {
            chain.push(c.clone());
        }
    }
    let mut out = chain;
    push_chain(&mut out, entry);
    out
}

/// Per-field abstract state.
type State = HashMap<FieldId, AbsVal>;

/// Counters summarising what the analysis could prove.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RangeSummary {
    /// Register stores examined.
    pub register_writes: usize,
    /// Stores proven to fit the register width.
    pub proven_fits: usize,
    /// Stores accepted as intentional modular counters (read-modify-
    /// write of the same register).
    pub modular_accumulators: usize,
    /// Stores neither proven nor accepted (info diagnostics).
    pub unproven: usize,
}

telemetry::json_struct!(@write RangeSummary {
    register_writes,
    proven_fits,
    modular_accumulators,
    unproven
});

/// Per-slot action-data bounds known at analysis time.
type DataBounds = Vec<Option<(u64, u64)>>;

struct Analyzer<'p> {
    p: &'p Pipeline,
    diags: Vec<Diagnostic>,
    stats: RangeSummary,
    recirculates: bool,
}

impl Analyzer<'_> {
    fn initial(&self, f: FieldId) -> AbsVal {
        if self.recirculates || f.0 < fields::M0.0 {
            // Parser-populated headers and metadata: anything the wire
            // can carry. (With recirculation, scratch survives passes.)
            AbsVal::of(Interval::full())
        } else {
            AbsVal::of(Interval::exact(0))
        }
    }

    fn field(&self, state: &State, f: FieldId) -> AbsVal {
        state.get(&f).cloned().unwrap_or_else(|| self.initial(f))
    }

    fn reg_mask(&self, r: usize) -> u128 {
        u128::from(self.p.registers()[r].mask())
    }

    fn check_index(&mut self, idx: &AbsVal, r: usize, ctx: &str) {
        let len = self.p.registers()[r].cells.len() as u128;
        let name = &self.p.registers()[r].name;
        if idx.iv.lo >= len {
            self.diags.push(
                Diagnostic::new(
                    LintCode::RegisterIndexRange,
                    Severity::Error,
                    ctx.to_string(),
                    format!(
                        "index into register `{name}` is provably out of bounds: [{}, {}] vs {len} cells",
                        idx.iv.lo, idx.iv.hi
                    ),
                )
                .with_chain(idx.chain.clone()),
            );
        } else if idx.iv.hi >= len {
            self.diags.push(
                Diagnostic::new(
                    LintCode::RegisterIndexRange,
                    Severity::Info,
                    ctx.to_string(),
                    format!(
                        "index into register `{name}` not proven in bounds: [{}, {}] vs {len} cells",
                        idx.iv.lo, idx.iv.hi
                    ),
                )
                .with_chain(idx.chain.clone()),
            );
        }
    }

    /// Reports possible/certain wrap of the 64-bit PHV word for an
    /// un-normalised result.
    fn check_word(&mut self, code: LintCode, raw: Interval, chain: &[String], ctx: &str, what: &str) {
        if raw.certainly_overflows_word() {
            self.diags.push(
                Diagnostic::new(
                    LintCode::WidthTruncation,
                    Severity::Error,
                    ctx.to_string(),
                    format!("{what} provably exceeds the 64-bit PHV word: [{}, {}]", raw.lo, raw.hi),
                )
                .with_chain(chain.to_vec()),
            );
        } else if raw.overflows_word() {
            self.diags.push(
                Diagnostic::new(
                    code,
                    Severity::Info,
                    ctx.to_string(),
                    format!("{what} can exceed the 64-bit PHV word: [{}, {}]", raw.lo, raw.hi),
                )
                .with_chain(chain.to_vec()),
            );
        }
    }

    /// Runs an action's primitives over `state`. `Forward` and `Drop`
    /// are skipped, which leaves the egress port unconstrained: sound,
    /// since it only over-approximates, and no check bounds the port.
    fn eval_action(&mut self, state: &mut State, action_id: usize, data: &DataBounds, ctx: &str) {
        let p = self.p;
        let Some(action) = p.actions().get(action_id) else {
            return;
        };
        for (i, prim) in action.primitives.iter().enumerate() {
            if matches!(prim, Primitive::Forward { .. } | Primitive::Drop) {
                continue;
            }
            let mut d = Abstract {
                an: self,
                state,
                data,
                ctx: format!("{ctx}, primitive #{i}"),
            };
            exec_primitive(&mut d, prim).expect("interval transfer functions cannot fail");
        }
    }

    /// Per-slot `[min, max]` over the action data this table can supply
    /// to `action` (installed entries plus the default).
    fn data_bounds(&self, t: usize, action: usize) -> DataBounds {
        let table = &self.p.tables()[t];
        let mut sources: Vec<&[u64]> = table
            .entries()
            .iter()
            .filter(|e| e.action == action)
            .map(|e| e.action_data.as_slice())
            .collect();
        if let Some((a, data)) = &table.def.default_action {
            if *a == action {
                sources.push(data.as_slice());
            }
        }
        // An empty table with no default cannot run the action at all,
        // but the controller may install entries later with any data:
        // unknown slots stay unbounded unless every source bounds them.
        let slots = self
            .p
            .actions()
            .get(action)
            .map(crate::action::ActionDef::data_slots_required)
            .unwrap_or(0);
        let mut out: DataBounds = vec![None; slots];
        if sources.is_empty() {
            return out;
        }
        for (slot, bound) in out.iter_mut().enumerate() {
            let mut lo = u64::MAX;
            let mut hi = 0u64;
            let mut all = true;
            for s in &sources {
                match s.get(slot) {
                    Some(v) => {
                        lo = lo.min(*v);
                        hi = hi.max(*v);
                    }
                    None => all = false,
                }
            }
            if all {
                *bound = Some((lo, hi));
            }
        }
        // Tables with spare capacity can still receive entries with
        // arbitrary data from the controller; only a full table (or a
        // keyless always-default table) pins the bounds.
        let runtime_extensible =
            !table.def.keys.is_empty() && table.entries().len() < table.def.max_entries;
        if runtime_extensible {
            out.fill(None);
        }
        out
    }

    fn constrain(iv: Interval, op: CmpOp, c: u128) -> Interval {
        let mut out = iv;
        match op {
            CmpOp::Eq => {
                out = Interval { lo: c, hi: c };
            }
            CmpOp::Ne => {}
            CmpOp::Lt => {
                if c > 0 {
                    out.hi = out.hi.min(c - 1);
                }
            }
            CmpOp::Le => out.hi = out.hi.min(c),
            CmpOp::Gt => out.lo = out.lo.max(c + 1),
            CmpOp::Ge => out.lo = out.lo.max(c),
        }
        if out.lo > out.hi {
            // Statically infeasible branch; keep the unrefined interval
            // (sound, just less precise).
            iv
        } else {
            out
        }
    }

    /// Applies `cond` (or its negation) to a branch-entry state.
    fn refine(&self, state: &mut State, cond: &Cond, taken: bool) {
        let (f, op, c) = match (&cond.a, &cond.b) {
            (Operand::Field(f), Operand::Const(c)) => (*f, cond.op, u128::from(*c)),
            (Operand::Const(c), Operand::Field(f)) => (*f, cond.op.mirror(), u128::from(*c)),
            _ => return,
        };
        let op = if taken { op } else { op.negate() };
        let mut v = self.field(state, f);
        v.iv = Self::constrain(v.iv, op, c);
        state.insert(f, v);
    }

    fn join_states(&self, a: &State, b: &State) -> State {
        let mut out = State::new();
        let keys: std::collections::BTreeSet<FieldId> =
            a.keys().chain(b.keys()).copied().collect();
        for k in keys {
            out.insert(k, self.field(a, k).join(&self.field(b, k)));
        }
        out
    }

    fn walk(&mut self, c: &Control, state: &mut State) {
        match c {
            Control::Nop | Control::Exit | Control::Recirculate => {}
            Control::Seq(children) => {
                for child in children {
                    self.walk(child, state);
                }
            }
            Control::ApplyAction(a) => {
                let name = self
                    .p
                    .actions()
                    .get(*a)
                    .map_or_else(|| format!("#{a}"), |x| x.name.clone());
                let ctx = format!("action `{name}`");
                self.eval_action(state, *a, &Vec::new(), &ctx);
            }
            Control::ApplyTable(t) => {
                let table_name = self.p.tables()[*t].def.name.clone();
                let actions = super::tdg::table_actions(self.p, *t);
                let mut results: Vec<State> = Vec::new();
                // A table with no default can miss without running any
                // action: the incoming state survives.
                if self.p.tables()[*t].def.default_action.is_none() {
                    results.push(state.clone());
                }
                let mut seen = std::collections::BTreeSet::new();
                for a in actions {
                    if !seen.insert(a) {
                        continue;
                    }
                    let data = self.data_bounds(*t, a);
                    let name = self
                        .p
                        .actions()
                        .get(a)
                        .map_or_else(|| format!("#{a}"), |x| x.name.clone());
                    let ctx = format!("action `{name}` (table `{table_name}`)");
                    let mut s = state.clone();
                    self.eval_action(&mut s, a, &data, &ctx);
                    results.push(s);
                }
                if let Some(first) = results.first() {
                    let mut joined = first.clone();
                    for s in &results[1..] {
                        joined = self.join_states(&joined, s);
                    }
                    *state = joined;
                }
            }
            Control::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let mut then_state = state.clone();
                self.refine(&mut then_state, cond, true);
                self.walk(then_branch, &mut then_state);
                let mut else_state = state.clone();
                self.refine(&mut else_state, cond, false);
                if let Some(e) = else_branch {
                    self.walk(e, &mut else_state);
                }
                *state = self.join_states(&then_state, &else_state);
            }
        }
    }
}

/// The range analysis's domain: one primitive of one action, over
/// intervals with provenance.
struct Abstract<'a, 'p> {
    an: &'a mut Analyzer<'p>,
    state: &'a mut State,
    data: &'a DataBounds,
    /// Where a finding is anchored: `action …, primitive #i`.
    ctx: String,
}

impl Abstract<'_, '_> {
    /// Writes `v` to `dst`, with `kind -> f<dst>` appended to its chain.
    fn put(&mut self, dst: FieldId, kind: &str, mut v: AbsVal) {
        push_chain(&mut v.chain, format!("{kind} -> f{}", dst.0));
        self.state.insert(dst, v);
    }
}

impl Domain for Abstract<'_, '_> {
    type V = AbsVal;

    fn operand(&mut self, o: &Operand) -> P4Result<AbsVal> {
        Ok(match o {
            Operand::Const(c) => AbsVal::of(Interval::exact(*c)),
            Operand::Field(f) => self.an.field(self.state, *f),
            Operand::Data(n) => match self.data.get(*n).copied().flatten() {
                Some((lo, hi)) => AbsVal {
                    iv: Interval::new(lo, hi),
                    acc: None,
                    chain: vec![format!("data[{n}]")],
                },
                None => AbsVal {
                    iv: Interval::full(),
                    acc: None,
                    chain: vec![format!("data[{n}] (controller-installed, unbounded)")],
                },
            },
        })
    }

    fn alu(&mut self, op: Alu, dst: FieldId, a: AbsVal, b: AbsVal) {
        let (x, y) = (a.iv, b.iv);
        let chain = merged_chain(&a, &b, format!("{op:?} -> f{}", dst.0));
        let iv = match op {
            // Wrapping add/sub is P4 idiom (negative encodings, `0 - t`
            // masks): never diagnosed, the interval just widens.
            Alu::Add => Interval {
                lo: x.lo + y.lo,
                hi: x.hi + y.hi,
            }
            .normalized(),
            Alu::Sub if x.lo >= y.hi => Interval {
                lo: x.lo - y.hi,
                hi: x.hi - y.lo,
            },
            Alu::Sub => Interval::full(),
            Alu::Mul => {
                let raw = Interval {
                    lo: x.lo.saturating_mul(y.lo),
                    hi: x.hi.saturating_mul(y.hi),
                };
                self.an.check_word(LintCode::MulOverflow, raw, &chain, &self.ctx, "product");
                raw.normalized()
            }
            Alu::And => Interval {
                lo: 0,
                hi: x.hi.min(y.hi),
            },
            Alu::Or => Interval {
                lo: x.lo.max(y.lo),
                hi: ones_cover(x.hi.max(y.hi)),
            },
            Alu::Xor => Interval {
                lo: 0,
                hi: ones_cover(x.hi.max(y.hi)),
            },
            // Every distance is out of range: the shift yields 0.
            Alu::Shl | Alu::Shr if y.lo >= 64 => Interval::exact(0),
            Alu::Shl => {
                // Distances past 63 yield 0; the rest shift by at most 63.
                let raw = if y.hi >= 64 {
                    Interval {
                        lo: 0,
                        hi: x.hi << 63,
                    }
                } else {
                    Interval {
                        lo: x.lo << y.lo,
                        hi: x.hi << y.hi,
                    }
                };
                self.an.check_word(LintCode::ShiftOverflow, raw, &chain, &self.ctx, "shifted value");
                raw.normalized()
            }
            Alu::Shr => Interval {
                lo: if y.hi >= 64 { 0 } else { x.lo >> y.hi },
                hi: x.hi >> y.lo,
            },
            Alu::Min => Interval {
                lo: x.lo.min(y.lo),
                hi: x.hi.min(y.hi),
            },
            Alu::Max => Interval {
                lo: x.lo.max(y.lo),
                hi: x.hi.max(y.hi),
            },
        };
        // A value additively derived from one register's read stays a
        // candidate modular accumulator for that register.
        let acc = match (op, a.acc, b.acc) {
            (Alu::Add, Some(r), None) | (Alu::Add, None, Some(r)) => Some(r),
            (Alu::Add, Some(r1), Some(r2)) if r1 == r2 => Some(r1),
            (Alu::Sub, acc, _) => acc,
            _ => None,
        };
        self.state.insert(dst, AbsVal { iv, acc, chain });
    }

    fn not(&mut self, dst: FieldId, v: AbsVal) {
        let iv = Interval {
            lo: U64M - v.iv.hi.min(U64M),
            hi: U64M - v.iv.lo.min(U64M),
        };
        self.put(dst, "Not", AbsVal { iv, acc: None, chain: v.chain });
    }

    fn msb(&mut self, dst: FieldId, v: AbsVal) {
        // `msb` is monotone, so the endpoints bound it.
        let at = |x: u128| u128::from(msb(u64::try_from(x).unwrap_or(u64::MAX)));
        let iv = Interval {
            lo: at(v.iv.lo),
            hi: at(v.iv.hi),
        };
        self.put(dst, "Msb", AbsVal { iv, acc: None, chain: v.chain });
    }

    fn hash(&mut self, dst: FieldId, _key: AbsVal, _salt: u64, width_log2: u32) {
        // `action::hash` clamps the width to [1, 63].
        let hi = (1u128 << width_log2.clamp(1, 63)) - 1;
        self.put(dst, "Hash", AbsVal::of(Interval { lo: 0, hi }));
    }

    fn set(&mut self, dst: FieldId, v: AbsVal) {
        self.put(dst, "Set", v);
    }

    fn reg_index(&mut self, register: usize, index: AbsVal) -> P4Result<AbsVal> {
        self.an.check_index(&index, register, &self.ctx);
        Ok(index)
    }

    fn reg_read(&mut self, dst: FieldId, register: usize, _index: AbsVal) {
        let v = AbsVal {
            iv: Interval {
                lo: 0,
                hi: self.an.reg_mask(register),
            },
            acc: Some(register),
            chain: Vec::new(),
        };
        let kind = format!("RegRead[{}]", self.an.p.registers()[register].name);
        self.put(dst, &kind, v);
    }

    fn reg_write(&mut self, register: usize, _index: AbsVal, v: AbsVal) {
        let mask = self.an.reg_mask(register);
        let reg = &self.an.p.registers()[register];
        let (name, width) = (&reg.name, reg.width_bits);
        let stats = &mut self.an.stats;
        stats.register_writes += 1;
        if v.iv.hi <= mask {
            stats.proven_fits += 1;
            return;
        }
        if v.acc == Some(register) {
            // Read-modify-write of the same register: an intentional
            // modular counter.
            stats.modular_accumulators += 1;
            return;
        }
        stats.unproven += 1;
        let (code, severity, verdict) = if v.iv.lo > mask {
            (LintCode::WidthTruncation, Severity::Error, "provably truncates")
        } else {
            (LintCode::WidthUnproven, Severity::Info, "not proven to fit")
        };
        self.an.diags.push(
            Diagnostic::new(
                code,
                severity,
                self.ctx.clone(),
                format!(
                    "store into `{name}` ({width} bits) {verdict}: value in [{}, {}]",
                    v.iv.lo, v.iv.hi
                ),
            )
            .with_chain(v.chain),
        );
    }

    /// Digests bound nothing the analysis checks.
    fn digest(&mut self, _id: u16, _values: Vec<AbsVal>) {}
}

/// Runs the range analysis, appending findings to `diags`.
#[must_use]
pub(crate) fn analyze_ranges(p: &Pipeline, diags: &mut Vec<Diagnostic>) -> RangeSummary {
    let mut a = Analyzer {
        p,
        diags: Vec::new(),
        stats: RangeSummary::default(),
        recirculates: p.control().recirculates(),
    };
    let mut state = State::new();
    let control = p.control().clone();
    a.walk(&control, &mut state);
    diags.append(&mut a.diags);
    a.stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActionDef;
    use crate::program::ProgramBuilder;
    use crate::target::TargetModel;

    fn run(build: impl FnOnce(&mut ProgramBuilder)) -> (Vec<Diagnostic>, RangeSummary) {
        let mut b = ProgramBuilder::new();
        build(&mut b);
        let p = b.build(TargetModel::bmv2()).unwrap();
        let mut diags = Vec::new();
        let stats = analyze_ranges(&p, &mut diags);
        (diags, stats)
    }

    #[test]
    fn certain_truncation_is_an_error_with_chain() {
        let (diags, stats) = run(|b| {
            let r = b.add_register("narrow", 16, 4);
            let a = b.add_action(ActionDef::new(
                "blow",
                vec![
                    Primitive::Shl {
                        dst: fields::M0,
                        src: Operand::Const(1),
                        amount: Operand::Const(40),
                    },
                    Primitive::RegWrite {
                        register: r,
                        index: Operand::Const(0),
                        src: Operand::Field(fields::M0),
                    },
                ],
            ));
            b.set_control(Control::ApplyAction(a));
        });
        let d = diags
            .iter()
            .find(|d| d.code == LintCode::WidthTruncation)
            .expect("truncation found");
        assert_eq!(d.severity, Severity::Error);
        assert!(d.chain.iter().any(|c| c.starts_with("Shl")), "{:?}", d.chain);
        assert_eq!(stats.unproven, 1);
    }

    #[test]
    fn modular_accumulator_is_tolerated() {
        // 32-bit register: the +1 can exceed the width, but the value
        // derives from this register's own read, so it is a counter.
        let (diags, stats) = run(|b| {
            let r = b.add_register("ctr", 32, 1);
            let a = b.add_action(ActionDef::new(
                "bump",
                vec![
                    Primitive::RegRead {
                        dst: fields::M0,
                        register: r,
                        index: Operand::Const(0),
                    },
                    Primitive::Add {
                        dst: fields::M0,
                        a: Operand::Field(fields::M0),
                        b: Operand::Const(1),
                    },
                    Primitive::RegWrite {
                        register: r,
                        index: Operand::Const(0),
                        src: Operand::Field(fields::M0),
                    },
                ],
            ));
            b.set_control(Control::ApplyAction(a));
        });
        assert!(
            diags.iter().all(|d| d.severity < Severity::Warning),
            "{diags:?}"
        );
        assert_eq!(stats.modular_accumulators, 1);
        assert_eq!(stats.register_writes, 1);
    }

    #[test]
    fn cross_register_store_with_wide_value_is_unproven_info() {
        let (diags, _) = run(|b| {
            let src = b.add_register("wide", 64, 1);
            let dst = b.add_register("narrow", 32, 1);
            let a = b.add_action(ActionDef::new(
                "mv",
                vec![
                    Primitive::RegRead {
                        dst: fields::M0,
                        register: src,
                        index: Operand::Const(0),
                    },
                    Primitive::RegWrite {
                        register: dst,
                        index: Operand::Const(0),
                        src: Operand::Field(fields::M0),
                    },
                ],
            ));
            b.set_control(Control::ApplyAction(a));
        });
        let d = diags
            .iter()
            .find(|d| d.code == LintCode::WidthUnproven)
            .expect("unproven store");
        assert_eq!(d.severity, Severity::Info);
    }

    #[test]
    fn narrow_source_store_is_proven() {
        let (diags, stats) = run(|b| {
            let src = b.add_register("narrow", 16, 1);
            let dst = b.add_register("wide", 32, 1);
            let a = b.add_action(ActionDef::new(
                "mv",
                vec![
                    Primitive::RegRead {
                        dst: fields::M0,
                        register: src,
                        index: Operand::Const(0),
                    },
                    Primitive::RegWrite {
                        register: dst,
                        index: Operand::Const(0),
                        src: Operand::Field(fields::M0),
                    },
                ],
            ));
            b.set_control(Control::ApplyAction(a));
        });
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(stats.proven_fits, 1);
    }

    #[test]
    fn branch_refinement_narrows_intervals() {
        // M0 = payload (full range); in the `<= 100` branch a 7-bit
        // store is provable... but only thanks to the refinement.
        let (diags, stats) = run(|b| {
            let r = b.add_register("small", 7, 1);
            let load = b.add_action(ActionDef::new(
                "load",
                vec![Primitive::Set {
                    dst: fields::M0,
                    src: Operand::Field(fields::PAYLOAD_VALUE),
                }],
            ));
            let store = b.add_action(ActionDef::new(
                "store",
                vec![Primitive::RegWrite {
                    register: r,
                    index: Operand::Const(0),
                    src: Operand::Field(fields::M0),
                }],
            ));
            b.set_control(Control::Seq(vec![
                Control::ApplyAction(load),
                Control::If {
                    cond: Cond::new(Operand::Field(fields::M0), CmpOp::Le, Operand::Const(100)),
                    then_branch: Box::new(Control::ApplyAction(store)),
                    else_branch: None,
                },
            ]));
        });
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(stats.proven_fits, 1);
    }

    #[test]
    fn certain_mul_overflow_is_error() {
        let (diags, _) = run(|b| {
            let a = b.add_action(ActionDef::new(
                "big",
                vec![Primitive::Mul {
                    dst: fields::M0,
                    a: Operand::Const(1 << 33),
                    b: Operand::Const(1 << 33),
                }],
            ));
            b.set_control(Control::ApplyAction(a));
        });
        assert!(diags
            .iter()
            .any(|d| d.code == LintCode::WidthTruncation && d.severity == Severity::Error));
    }

    #[test]
    fn possible_mul_overflow_is_info() {
        let (diags, _) = run(|b| {
            let a = b.add_action(ActionDef::new(
                "maybe",
                vec![Primitive::Mul {
                    dst: fields::M0,
                    a: Operand::Field(fields::PAYLOAD_VALUE),
                    b: Operand::Const(2),
                }],
            ));
            b.set_control(Control::ApplyAction(a));
        });
        let d = diags
            .iter()
            .find(|d| d.code == LintCode::MulOverflow)
            .expect("possible overflow recorded");
        assert_eq!(d.severity, Severity::Info);
    }

    #[test]
    fn certain_index_oob_is_error() {
        let (diags, _) = run(|b| {
            let r = b.add_register("tiny", 64, 2);
            let a = b.add_action(ActionDef::new(
                "oob",
                vec![Primitive::RegWrite {
                    register: r,
                    index: Operand::Const(5),
                    src: Operand::Const(0),
                }],
            ));
            b.set_control(Control::ApplyAction(a));
        });
        assert!(diags
            .iter()
            .any(|d| d.code == LintCode::RegisterIndexRange && d.severity == Severity::Error));
    }

    #[test]
    fn hash_proves_index_bounds() {
        let (diags, _) = run(|b| {
            let r = b.add_register("sketch", 32, 1 << 10);
            let a = b.add_action(ActionDef::new(
                "row",
                vec![
                    Primitive::Hash {
                        dst: fields::M0,
                        src: Operand::Field(fields::IPV4_DST),
                        salt: 7,
                        width_log2: 10,
                    },
                    Primitive::RegWrite {
                        register: r,
                        index: Operand::Field(fields::M0),
                        src: Operand::Const(1),
                    },
                ],
            ));
            b.set_control(Control::ApplyAction(a));
        });
        assert!(
            diags.iter().all(|d| d.code != LintCode::RegisterIndexRange),
            "{diags:?}"
        );
    }
}
