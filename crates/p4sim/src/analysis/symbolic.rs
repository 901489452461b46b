//! Path-sensitive symbolic execution over the action IR, and the three
//! verdicts built on top of it.
//!
//! The concrete interpreter ([`crate::pipeline`]) answers "what does
//! this program do to *this* packet"; this module answers "what does it
//! do to *every* packet", up to a path budget, by running the same
//! control tree over a bounded 64-bit bit-vector expression domain.
//! Every PHV field starts as an opaque `SymExpr::Input`, every
//! register cell as an opaque `SymExpr::RegInit`, and each primitive
//! builds expressions through `action::exec_primitive`, which the range
//! analysis runs too and the interpreter's tape is held to; constants
//! fold through the interpreter's own `Alu::apply`, `msb` and `hash`.
//!
//! Three checks consume the executor:
//!
//! - **`S4L013` target divergence** ([`check_equivalence`]): two builds
//!   of the same statistic (bmv2 vs Tofino-like) are differentially
//!   tested on a witness corpus assembled from both programs' path
//!   conditions plus boundary and pseudo-random inputs; the first
//!   diverging witness is reported as a concrete counterexample packet.
//! - **`S4L015` merge unsoundness** ([`check_merge_soundness`]): for
//!   each register, the per-packet update `U` must commute with the
//!   declared [`crate::RegMerge`] policy `⊕` — the inductive step of
//!   "sharded replay equals the reference switch" is
//!   `U(o1 ⊕ o2) == U(o1) ⊕ o2`, checked on concrete origin pairs.
//! - **`S4L016` unsafe rebind** ([`vet_rebind`]): a control-plane
//!   transaction is applied to a *shadow* clone, the post-rebind
//!   program is re-verified statically, and its paths are enumerated
//!   looking for newly reachable faults (a binding whose base address
//!   indexes past a register is found by constant folding alone).
//!
//! # Soundness caveats
//!
//! Path enumeration is exact for branch conditions but treats each
//! table entry as an independent "could match" branch, ignoring
//! priority shadowing between overlapping entries; derived witnesses
//! are therefore *candidates*, and every verdict is validated by
//! replaying the witness through the concrete interpreter before it is
//! reported. Divergence search is refutation-complete only over the
//! finite witness corpus (path-derived + boundary + sampled), not over
//! the full 2^64 input space. Exceeding the path budget is itself a
//! diagnostic (`S4L014`), never a silent cap.

use crate::action::{exec_primitive, hash, msb, Alu, Domain, Operand};
use crate::analysis::diag::{self, Diagnostic, LintCode, Severity};
use crate::analysis::verify_against;
use crate::control::{CmpOp, Control};
use crate::error::{P4Error, P4Result};
use crate::phv::{fields, FieldId, Phv};
use crate::pipeline::{DigestRecord, Named, Pipeline};
use crate::runtime::{RuntimeRequest, RuntimeResponse};
use crate::table::MatchValue;
use std::collections::{HashMap, HashSet};
use std::mem::discriminant;
use std::rc::Rc;
use telemetry::json::{self, ToJson};
use telemetry::json_struct;

// ---------------------------------------------------------------------
// Expression domain
// ---------------------------------------------------------------------

type E = Rc<SymExpr>;

/// A 64-bit symbolic value. Shared subterms are `Rc`-linked so the
/// expression graph stays a DAG even when paths fork.
#[derive(Debug)]
enum SymExpr {
    /// Compile-time constant.
    Const(u64),
    /// The initial value of a PHV field (the packet input).
    Input(FieldId),
    /// The pre-packet value of `register[index]`.
    RegInit { register: usize, index: E },
    /// A binary ALU operation with interpreter semantics.
    Bin { op: Alu, a: E, b: E },
    /// Bitwise not.
    Not(E),
    /// Most-significant-bit position (`msb(0) = 0`).
    Msb(E),
    /// The multiply-shift hash extern.
    Hash { src: E, salt: u64, width_log2: u32 },
    /// `if c { t } else { f }` — register read-after-write aliasing.
    Ite { c: SymCond, t: E, f: E },
}

/// A comparison between two symbolic values.
#[derive(Debug, Clone)]
struct SymCond {
    a: E,
    op: CmpOp,
    b: E,
}

fn c64(v: u64) -> E {
    Rc::new(SymExpr::Const(v))
}

fn as_const(e: &E) -> Option<u64> {
    if let SymExpr::Const(v) = &**e {
        Some(*v)
    } else {
        None
    }
}

fn bin(op: Alu, a: E, b: E) -> E {
    if let (Some(x), Some(y)) = (as_const(&a), as_const(&b)) {
        return c64(op.apply(x, y));
    }
    Rc::new(SymExpr::Bin { op, a, b })
}

/// `f(e)` folded when `e` is a constant, else the node `node(e)`.
fn unary(e: E, f: impl FnOnce(u64) -> u64, node: impl FnOnce(E) -> SymExpr) -> E {
    match as_const(&e) {
        Some(v) => c64(f(v)),
        None => Rc::new(node(e)),
    }
}

fn ite(c: SymCond, t: E, f: E) -> E {
    if let (Some(x), Some(y)) = (as_const(&c.a), as_const(&c.b)) {
        return if c.op.eval(x, y) { t } else { f };
    }
    if Rc::ptr_eq(&t, &f) {
        return t;
    }
    Rc::new(SymExpr::Ite { c, t, f })
}

// ---------------------------------------------------------------------
// Concrete evaluation of symbolic terms
// ---------------------------------------------------------------------

/// A concrete assignment to every input: PHV fields and initial
/// register cells.
struct SymEnv {
    fields: Vec<u64>,
    regs: Vec<Vec<u64>>,
}

impl SymEnv {
    fn new(p: &Pipeline, w: &Witness) -> Self {
        let phv = phv_from_witness(w);
        let applied = apply_witness(p, w);
        Self {
            fields: (0..fields::FIELD_COUNT)
                .map(|i| phv.get(FieldId(u16::try_from(i).unwrap_or(u16::MAX))))
                .collect(),
            regs: applied
                .registers()
                .iter()
                .map(|r| r.cells.clone())
                .collect(),
        }
    }
}

type Memo = HashMap<*const SymExpr, u64>;

fn eval_expr(e: &E, env: &SymEnv, memo: &mut Memo) -> Result<u64, P4Error> {
    let key = Rc::as_ptr(e);
    if let Some(v) = memo.get(&key) {
        return Ok(*v);
    }
    let v = match &**e {
        SymExpr::Const(v) => *v,
        SymExpr::Input(f) => env.fields.get(f.0 as usize).copied().unwrap_or(0),
        SymExpr::RegInit { register, index } => {
            let i = eval_expr(index, env, memo)?;
            let cells = env.regs.get(*register).ok_or(P4Error::UnknownId {
                kind: "register",
                id: *register,
            })?;
            usize::try_from(i)
                .ok()
                .and_then(|i| cells.get(i).copied())
                .ok_or(P4Error::RegisterOutOfBounds {
                    register: *register,
                    index: i,
                    size: cells.len() as u64,
                })?
        }
        SymExpr::Bin { op, a, b } => op.apply(eval_expr(a, env, memo)?, eval_expr(b, env, memo)?),
        SymExpr::Not(x) => !eval_expr(x, env, memo)?,
        SymExpr::Msb(x) => msb(eval_expr(x, env, memo)?),
        SymExpr::Hash {
            src,
            salt,
            width_log2,
        } => hash(eval_expr(src, env, memo)?, *salt, *width_log2),
        SymExpr::Ite { c, t, f } => {
            let ca = eval_expr(&c.a, env, memo)?;
            let cb = eval_expr(&c.b, env, memo)?;
            if c.op.eval(ca, cb) {
                eval_expr(t, env, memo)?
            } else {
                eval_expr(f, env, memo)?
            }
        }
    };
    memo.insert(key, v);
    Ok(v)
}

// ---------------------------------------------------------------------
// Witnesses and input domains
// ---------------------------------------------------------------------

/// A concrete input: PHV field assignments plus initial register state
/// (by register *name*, since ids differ between independent builds).
/// Unlisted fields are zero; unlisted registers keep all-zero cells.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Witness {
    /// `(field, value)` pairs, sorted by field for stable identity.
    pub fields: Vec<(FieldId, u64)>,
    /// `(register name, full cell contents)`, sorted by name.
    pub registers: Vec<(String, Vec<u64>)>,
}

impl Witness {
    fn normalize(&mut self) {
        self.fields.sort_unstable_by_key(|&(f, _)| f);
        self.fields.dedup_by_key(|&mut (f, _)| f);
        self.registers.sort_by(|a, b| a.0.cmp(&b.0));
    }
}

/// `{"fields":[[field, value], …],"registers":[{"name","cells"}, …]}`.
impl ToJson for Witness {
    fn write_json(&self, out: &mut String) {
        let fields: Vec<[u64; 2]> = self.fields.iter().map(|&(f, v)| [u64::from(f.0), v]).collect();
        let registers: Vec<Named<'_>> = self.registers.iter().map(Named).collect();
        json::write_obj(out, [("fields", &fields as &dyn ToJson), ("registers", &registers)]);
    }
}

/// Builds the PHV a witness describes.
#[must_use]
pub(crate) fn phv_from_witness(w: &Witness) -> Phv {
    let mut phv = Phv::new();
    for &(f, v) in &w.fields {
        phv.set(f, v);
    }
    phv
}

/// Clones `p` and installs the witness's register state (matched by
/// name; extra cells are ignored, and values are masked to the
/// register's declared width).
#[must_use]
pub(crate) fn apply_witness(p: &Pipeline, w: &Witness) -> Pipeline {
    let mut q = p.clone();
    for (name, cells) in &w.registers {
        if let Some(reg) = q.registers.iter_mut().find(|r| &r.name == name) {
            let mask = reg.mask();
            for (dst, src) in reg.cells.iter_mut().zip(cells) {
                *dst = src & mask;
            }
        }
    }
    q
}

/// The value ranges differential search draws witnesses from. Bounding
/// a field (e.g. `PAYLOAD_VALUE ≤ 255`) is how callers encode the
/// preconditions under which two builds are *supposed* to agree — a
/// 16-bit unrolled multiplier is only equivalent to the exact one while
/// its operands fit 16 bits.
#[derive(Debug, Clone, Default)]
pub struct InputDomain {
    /// `(field, max value)` — witnesses assign each listed field a
    /// value in `[0, max]`.
    pub fields: Vec<(FieldId, u64)>,
    /// When set, random witnesses also fill every register cell with a
    /// value in `[0, limit]` (otherwise registers start all-zero).
    pub register_limit: Option<u64>,
}

impl InputDomain {
    /// Collects every PHV field the given programs read — primitive
    /// sources, branch-condition operands, and table keys — each
    /// unbounded (`max = u64::MAX`).
    #[must_use]
    pub fn infer(pipes: &[&Pipeline]) -> Self {
        let mut seen = HashSet::new();
        for p in pipes {
            for a in p.actions() {
                for prim in &a.primitives {
                    for f in prim.src_fields() {
                        seen.insert(f);
                    }
                }
            }
            for t in p.tables() {
                for (f, _) in &t.def.keys {
                    seen.insert(*f);
                }
            }
            collect_cond_fields(p.control(), &mut seen);
        }
        let mut fields: Vec<(FieldId, u64)> =
            seen.into_iter().map(|f| (f, u64::MAX)).collect();
        fields.sort_unstable_by_key(|&(f, _)| f);
        Self {
            fields,
            register_limit: None,
        }
    }

    /// Caps every field's witness values at `max`.
    #[must_use]
    pub fn with_all_fields_max(mut self, max: u64) -> Self {
        for e in &mut self.fields {
            e.1 = e.1.min(max);
        }
        self
    }

    /// Enables randomized initial register state bounded by `limit`.
    #[must_use]
    pub fn with_register_limit(mut self, limit: u64) -> Self {
        self.register_limit = Some(limit);
        self
    }

    fn max_of(&self, f: FieldId) -> u64 {
        self.fields
            .iter()
            .find(|(g, _)| *g == f)
            .map_or(u64::MAX, |(_, m)| *m)
    }
}

fn collect_cond_fields(c: &Control, seen: &mut HashSet<FieldId>) {
    match c {
        Control::Seq(children) => {
            for ch in children {
                collect_cond_fields(ch, seen);
            }
        }
        Control::If {
            cond,
            then_branch,
            else_branch,
        } => {
            for o in [&cond.a, &cond.b] {
                if let Operand::Field(f) = o {
                    seen.insert(*f);
                }
            }
            collect_cond_fields(then_branch, seen);
            if let Some(e) = else_branch {
                collect_cond_fields(e, seen);
            }
        }
        _ => {}
    }
}

fn boundary_values(max: u64) -> Vec<u64> {
    let mut out = vec![0, 1, 2, 3, max, max >> 1, (max >> 1).saturating_add(1)];
    for k in [4u32, 7, 8, 15, 16, 31, 32, 63] {
        let p = 1u64 << k;
        for v in [p - 1, p, p + 1] {
            if v <= max {
                out.push(v);
            }
        }
    }
    out.retain(|v| *v <= max);
    out.sort_unstable();
    out.dedup();
    out
}

/// A tiny deterministic PRNG: a SplitMix64 stream over
/// [`stat4_core::splitmix64`].
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        let z = self.0;
        self.0 = z.wrapping_add(stat4_core::SPLITMIX64_GAMMA);
        stat4_core::splitmix64(z)
    }

    fn below(&mut self, max_inclusive: u64) -> u64 {
        if max_inclusive == u64::MAX {
            self.next()
        } else {
            self.next() % (max_inclusive + 1)
        }
    }
}

fn boundary_witnesses(domain: &InputDomain) -> Vec<Witness> {
    let mut out = vec![Witness::default()];
    for &(f, max) in &domain.fields {
        for v in boundary_values(max) {
            let mut w = Witness {
                fields: vec![(f, v)],
                registers: Vec::new(),
            };
            w.normalize();
            out.push(w);
        }
    }
    let mut all_max = Witness {
        fields: domain.fields.clone(),
        registers: Vec::new(),
    };
    all_max.normalize();
    out.push(all_max);
    out
}

/// `(name, cell count, width mask)` triples for random register fills.
fn register_shapes(p: &Pipeline) -> Vec<(String, usize, u64)> {
    p.registers()
        .iter()
        .map(|r| (r.name.clone(), r.cells.len(), r.mask()))
        .collect()
}

/// Seed of the pseudo-random witness corpus.
const WITNESS_SEED: u64 = 0x5744_7431_0151_0c4e;

fn random_witnesses(
    domain: &InputDomain,
    shapes: &[(String, usize, u64)],
    samples: usize,
) -> Vec<Witness> {
    let mut rng = SplitMix64(WITNESS_SEED ^ 0x5717_a7a1_ca5e_0bad);
    let mut out = Vec::with_capacity(samples);
    for _ in 0..samples {
        let mut w = Witness::default();
        for &(f, max) in &domain.fields {
            w.fields.push((f, rng.below(max)));
        }
        if let Some(limit) = domain.register_limit {
            for (name, cells, mask) in shapes {
                let vals = (0..*cells)
                    .map(|_| rng.below(limit.min(*mask)))
                    .collect();
                w.registers.push((name.clone(), vals));
            }
        }
        w.normalize();
        out.push(w);
    }
    out
}

// ---------------------------------------------------------------------
// Path conditions and symbolic state
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum PathCond {
    Branch { cond: SymCond, taken: bool },
    Table { keys: Vec<E>, chosen: Option<usize>, table: usize },
}

#[derive(Clone)]
struct SymState {
    fields: Vec<E>,
    /// Per register, the `(index, width-masked value)` writes in
    /// program order.
    writes: Vec<Vec<(E, E)>>,
    conds: Vec<PathCond>,
    digests: Vec<(u16, Vec<E>)>,
    tables_applied: Vec<(usize, bool)>,
    recirculations: u32,
    recirc_requested: bool,
    pass_done: bool,
    err: Option<P4Error>,
}

impl SymState {
    fn initial(p: &Pipeline) -> Self {
        Self {
            fields: (0..fields::FIELD_COUNT)
                .map(|i| Rc::new(SymExpr::Input(FieldId(u16::try_from(i).unwrap_or(u16::MAX)))))
                .collect(),
            writes: vec![Vec::new(); p.registers().len()],
            conds: Vec::new(),
            digests: Vec::new(),
            tables_applied: Vec::new(),
            recirculations: 0,
            recirc_requested: false,
            pass_done: false,
            err: None,
        }
    }

    fn live(&self) -> bool {
        self.err.is_none() && !self.pass_done
    }

    fn get_field(&self, f: FieldId) -> E {
        self.fields
            .get(f.0 as usize)
            .cloned()
            .unwrap_or_else(|| c64(0))
    }

    fn set_field(&mut self, f: FieldId, e: E) {
        if let Some(slot) = self.fields.get_mut(f.0 as usize) {
            *slot = e;
        }
    }

    fn operand_expr(&self, o: &Operand, data: &[u64], aid: usize) -> Result<E, P4Error> {
        match o {
            Operand::Const(v) => Ok(c64(*v)),
            Operand::Field(f) => Ok(self.get_field(*f)),
            Operand::Data(n) => data
                .get(*n)
                .map(|v| c64(*v))
                .ok_or(P4Error::ActionDataOutOfBounds {
                    action: aid,
                    slot: *n,
                }),
        }
    }

    /// The current symbolic value of `register[idx]`: the initial cell
    /// masked behind a select chain over every write so far.
    fn reg_select(&self, register: usize, idx: &E) -> E {
        let mut acc = Rc::new(SymExpr::RegInit {
            register,
            index: idx.clone(),
        });
        for (wi, wv) in &self.writes[register] {
            acc = ite(
                SymCond {
                    a: idx.clone(),
                    op: CmpOp::Eq,
                    b: wi.clone(),
                },
                wv.clone(),
                acc,
            );
        }
        acc
    }
}

// ---------------------------------------------------------------------
// The executor
// ---------------------------------------------------------------------

struct Exec<'a> {
    p: &'a Pipeline,
    /// `Some` = guided (concolic) mode: every branch and table lookup
    /// is resolved concretely against this environment, producing the
    /// single path the interpreter would take. `None` = enumerate.
    env: Option<&'a SymEnv>,
    budget: usize,
    path_count: usize,
    truncated: bool,
    memo: Memo,
}

impl<'a> Exec<'a> {
    fn new(p: &'a Pipeline, env: Option<&'a SymEnv>, budget: usize) -> Self {
        Self {
            p,
            env,
            budget: budget.max(1),
            path_count: 1,
            truncated: false,
            memo: Memo::new(),
        }
    }

    fn geval(&mut self, e: &E) -> Result<u64, P4Error> {
        let env = self.env.expect("geval requires guided mode");
        eval_expr(e, env, &mut self.memo)
    }

    /// Runs the full packet lifecycle (passes + recirculation, exactly
    /// mirroring `Pipeline::process_phv`) and returns every terminal
    /// path state.
    fn run(&mut self) -> Vec<SymState> {
        let control = self.p.control();
        let mut pending = vec![SymState::initial(self.p)];
        let mut done = Vec::new();
        while !pending.is_empty() {
            for s in &mut pending {
                s.pass_done = false;
            }
            let after = self.pass(control, pending);
            pending = Vec::new();
            for mut s in after {
                if s.err.is_none() && s.recirc_requested {
                    s.recirc_requested = false;
                    if s.recirculations >= self.p.target().max_recirculations {
                        // Bounded like hardware: the packet proceeds
                        // without the extra pass.
                        done.push(s);
                    } else {
                        s.recirculations += 1;
                        pending.push(s);
                    }
                } else {
                    done.push(s);
                }
            }
        }
        done
    }

    /// Can one more path be forked? Consumes budget on success.
    fn fork_allowed(&mut self) -> bool {
        if self.path_count < self.budget {
            self.path_count += 1;
            true
        } else {
            self.truncated = true;
            false
        }
    }

    #[allow(clippy::too_many_lines)]
    fn pass(&mut self, c: &Control, states: Vec<SymState>) -> Vec<SymState> {
        match c {
            Control::Nop => states,
            Control::Seq(children) => children
                .iter()
                .fold(states, |acc, child| self.pass(child, acc)),
            Control::Exit => states
                .into_iter()
                .map(|mut s| {
                    if s.live() {
                        s.pass_done = true;
                    }
                    s
                })
                .collect(),
            Control::Recirculate => states
                .into_iter()
                .map(|mut s| {
                    if s.live() {
                        s.recirc_requested = true;
                    }
                    s
                })
                .collect(),
            Control::ApplyAction(aid) => states
                .into_iter()
                .map(|s| self.apply_action(s, *aid, &[]))
                .collect(),
            Control::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let mut out = Vec::new();
                for mut s in states {
                    if !s.live() {
                        out.push(s);
                        continue;
                    }
                    // Branch-condition operands are evaluated with no
                    // action data, as in the interpreter.
                    let ea = s.operand_expr(&cond.a, &[], usize::MAX);
                    let eb = s.operand_expr(&cond.b, &[], usize::MAX);
                    let (ea, eb) = match (ea, eb) {
                        (Ok(a), Ok(b)) => (a, b),
                        (Err(e), _) | (_, Err(e)) => {
                            s.err = Some(e);
                            out.push(s);
                            continue;
                        }
                    };
                    let sym = SymCond {
                        a: ea.clone(),
                        op: cond.op,
                        b: eb.clone(),
                    };
                    let decided = if let (Some(x), Some(y)) = (as_const(&ea), as_const(&eb)) {
                        Some(cond.op.eval(x, y))
                    } else if self.env.is_some() {
                        match (self.geval(&ea), self.geval(&eb)) {
                            (Ok(x), Ok(y)) => Some(cond.op.eval(x, y)),
                            (Err(e), _) | (_, Err(e)) => {
                                s.err = Some(e);
                                out.push(s);
                                continue;
                            }
                        }
                    } else {
                        None
                    };
                    match decided {
                        Some(true) => {
                            s.conds.push(PathCond::Branch {
                                cond: sym,
                                taken: true,
                            });
                            out.extend(self.pass(then_branch, vec![s]));
                        }
                        Some(false) => {
                            s.conds.push(PathCond::Branch {
                                cond: sym,
                                taken: false,
                            });
                            match else_branch {
                                Some(e) => out.extend(self.pass(e, vec![s])),
                                None => out.push(s),
                            }
                        }
                        None => {
                            let take_else = self.fork_allowed();
                            let mut t = s.clone();
                            t.conds.push(PathCond::Branch {
                                cond: sym.clone(),
                                taken: true,
                            });
                            out.extend(self.pass(then_branch, vec![t]));
                            if take_else {
                                s.conds.push(PathCond::Branch {
                                    cond: sym,
                                    taken: false,
                                });
                                match else_branch {
                                    Some(e) => out.extend(self.pass(e, vec![s])),
                                    None => out.push(s),
                                }
                            }
                        }
                    }
                }
                out
            }
            Control::ApplyTable(tid) => {
                let mut out = Vec::new();
                for s in states {
                    out.extend(self.apply_table(s, *tid));
                }
                out
            }
        }
    }

    fn apply_table(&mut self, mut s: SymState, tid: usize) -> Vec<SymState> {
        if !s.live() {
            return vec![s];
        }
        let Some(table) = self.p.tables().get(tid) else {
            s.err = Some(P4Error::UnknownId {
                kind: "table",
                id: tid,
            });
            return vec![s];
        };
        let keys: Vec<E> = table
            .def
            .keys
            .iter()
            .map(|(f, _)| s.get_field(*f))
            .collect();

        // Resolve the lookup concretely when every key is known (all
        // constants, or guided mode).
        let concrete: Option<Result<Vec<u64>, P4Error>> = if keys.iter().all(|k| as_const(k).is_some())
        {
            Some(Ok(keys.iter().map(|k| as_const(k).unwrap_or(0)).collect()))
        } else if self.env.is_some() {
            let mut vals = Vec::with_capacity(keys.len());
            let mut err = None;
            for k in &keys {
                match self.geval(k) {
                    Ok(v) => vals.push(v),
                    Err(e) => {
                        err = Some(e);
                        break;
                    }
                }
            }
            Some(err.map_or(Ok(vals), Err))
        } else {
            None
        };

        if let Some(res) = concrete {
            let vals = match res {
                Ok(v) => v,
                Err(e) => {
                    s.err = Some(e);
                    return vec![s];
                }
            };
            let mut probe = Phv::new();
            for ((f, _), v) in table.def.keys.iter().zip(&vals) {
                probe.set(*f, *v);
            }
            let hit = table.lookup(&probe);
            let chosen = hit.and_then(|h| {
                table
                    .entries()
                    .iter()
                    .position(|e| std::ptr::eq(e, h))
            });
            let invocation = match hit {
                Some(e) => Some((e.action, e.action_data.clone())),
                None => table.def.default_action.clone(),
            };
            s.conds.push(PathCond::Table {
                keys,
                chosen,
                table: tid,
            });
            s.tables_applied.push((tid, hit.is_some()));
            return vec![match invocation {
                Some((aid, data)) => self.apply_action(s, aid, &data),
                None => s,
            }];
        }

        // Enumerate: one branch per entry ("this entry could match")
        // plus the miss branch. Priority shadowing between overlapping
        // entries is deliberately ignored — witnesses are re-validated
        // concretely before any verdict is derived from them.
        type Branch = (Option<usize>, Option<(usize, Vec<u64>)>);
        let mut branches: Vec<Branch> = Vec::new();
        for (i, e) in table.entries().iter().enumerate() {
            branches.push((Some(i), Some((e.action, e.action_data.clone()))));
        }
        branches.push((None, table.def.default_action.clone()));

        let mut out = Vec::new();
        let mut first = true;
        for (chosen, invocation) in branches {
            if !first && !self.fork_allowed() {
                break;
            }
            first = false;
            let mut b = s.clone();
            b.conds.push(PathCond::Table {
                keys: keys.clone(),
                chosen,
                table: tid,
            });
            b.tables_applied.push((tid, chosen.is_some()));
            out.push(match invocation {
                Some((aid, data)) => self.apply_action(b, aid, &data),
                None => b,
            });
        }
        out
    }

    fn apply_action(&mut self, mut s: SymState, aid: usize, data: &[u64]) -> SymState {
        if !s.live() {
            return s;
        }
        let p = self.p;
        let Some(action) = p.actions().get(aid) else {
            s.err = Some(P4Error::UnknownId {
                kind: "action",
                id: aid,
            });
            return s;
        };
        for prim in &action.primitives {
            if let Err(e) = exec_primitive(&mut Sym { ex: self, s: &mut s, aid, data }, prim) {
                s.err = Some(e);
                return s;
            }
        }
        s
    }
}

/// The symbolic executor's domain: one action invocation on one path,
/// over the expression DAG.
struct Sym<'e, 'a> {
    ex: &'e mut Exec<'a>,
    s: &'e mut SymState,
    aid: usize,
    data: &'e [u64],
}

impl Domain for Sym<'_, '_> {
    type V = E;

    fn operand(&mut self, o: &Operand) -> P4Result<E> {
        self.s.operand_expr(o, self.data, self.aid)
    }

    fn alu(&mut self, op: Alu, dst: FieldId, a: E, b: E) {
        self.s.set_field(dst, bin(op, a, b));
    }

    fn not(&mut self, dst: FieldId, v: E) {
        self.s.set_field(dst, unary(v, |x| !x, SymExpr::Not));
    }

    fn msb(&mut self, dst: FieldId, v: E) {
        self.s.set_field(dst, unary(v, msb, SymExpr::Msb));
    }

    fn hash(&mut self, dst: FieldId, key: E, salt: u64, width_log2: u32) {
        let node = |src| SymExpr::Hash {
            src,
            salt,
            width_log2,
        };
        self.s.set_field(dst, unary(key, |k| hash(k, salt, width_log2), node));
    }

    fn set(&mut self, dst: FieldId, v: E) {
        self.s.set_field(dst, v);
    }

    /// Checks the index where it is known: always in guided mode (as the
    /// interpreter does), and for a constant-folded index even while
    /// enumerating, which is what catches a rebind whose base address
    /// points past the register without needing any witness at all.
    fn reg_index(&mut self, register: usize, idx: E) -> P4Result<E> {
        let size = self.ex.p.registers()[register].cells.len() as u64;
        let known = match as_const(&idx) {
            Some(v) => Some(v),
            None if self.ex.env.is_some() => Some(self.ex.geval(&idx)?),
            None => None,
        };
        match known {
            Some(index) if index >= size => Err(P4Error::RegisterOutOfBounds {
                register,
                index,
                size,
            }),
            _ => Ok(idx),
        }
    }

    fn reg_read(&mut self, dst: FieldId, register: usize, idx: E) {
        let v = self.s.reg_select(register, &idx);
        self.s.set_field(dst, v);
    }

    fn reg_write(&mut self, register: usize, idx: E, v: E) {
        let mask = self.ex.p.registers()[register].mask();
        self.s.writes[register].push((idx, bin(Alu::And, v, c64(mask))));
    }

    fn digest(&mut self, id: u16, values: Vec<E>) {
        self.s.digests.push((id, values));
    }
}

// ---------------------------------------------------------------------
// Path-derived witnesses
// ---------------------------------------------------------------------

/// A value satisfying `v op c`, when one exists.
fn solve_target(op: CmpOp, c: u64) -> Option<u64> {
    match op {
        CmpOp::Eq | CmpOp::Le | CmpOp::Ge => Some(c),
        CmpOp::Ne => Some(c.wrapping_add(1)),
        CmpOp::Lt => c.checked_sub(1),
        CmpOp::Gt => c.checked_add(1),
    }
}

/// Greedily assembles a concrete input that steers execution toward one
/// enumerated path: solves `variable op constant` path conditions for
/// raw inputs (PHV fields, constant-indexed register cells) and copies
/// match values out of chosen table entries. First assignment wins;
/// unsolvable conditions are skipped — the result is a *candidate*
/// witness, always validated by concrete replay.
fn derive_witness(p: &Pipeline, s: &SymState, domain: &InputDomain) -> Witness {
    // Field assignments carry a specificity: exact/branch-derived values
    // are final, while LPM-derived values can be overridden by a later,
    // longer prefix on the same field. Two nested LPM constraints (a /8
    // route entry and a /24 drilldown binding keyed on the same address)
    // are both satisfied by the longer prefix's value; keeping the first
    // (shorter) one would make the replay miss the more specific entry.
    const EXACT: u32 = u32::MAX;
    let mut field_vals: HashMap<FieldId, (u64, u32)> = HashMap::new();
    let mut reg_vals: HashMap<(usize, u64), u64> = HashMap::new();
    for cond in &s.conds {
        match cond {
            PathCond::Branch { cond, taken } => {
                let (var, op, c) = if let Some(c) = as_const(&cond.b) {
                    (&cond.a, cond.op, c)
                } else if let Some(c) = as_const(&cond.a) {
                    (&cond.b, cond.op.mirror(), c)
                } else {
                    continue;
                };
                let eff = if *taken { op } else { op.negate() };
                let Some(v) = solve_target(eff, c) else {
                    continue;
                };
                match &**var {
                    SymExpr::Input(f) => {
                        field_vals
                            .entry(*f)
                            .or_insert_with(|| (v.min(domain.max_of(*f)), EXACT));
                    }
                    SymExpr::RegInit { register, index } => {
                        if let Some(i) = as_const(index) {
                            if let Some(reg) = p.registers().get(*register) {
                                reg_vals
                                    .entry((*register, i))
                                    .or_insert_with(|| v & reg.mask());
                            }
                        }
                    }
                    _ => {}
                }
            }
            PathCond::Table {
                keys,
                chosen: Some(i),
                table,
            } => {
                let Some(entry) = p
                    .tables()
                    .get(*table)
                    .and_then(|t| t.entries().get(*i))
                else {
                    continue;
                };
                for (key_expr, mv) in keys.iter().zip(&entry.key) {
                    let SymExpr::Input(f) = &**key_expr else {
                        continue;
                    };
                    let (v, spec) = match mv {
                        MatchValue::Exact(v) => (*v, EXACT),
                        MatchValue::Lpm { value, prefix_len } => (*value, u32::from(*prefix_len)),
                        MatchValue::Ternary { value, mask } => (value & mask, EXACT),
                        MatchValue::Range { lo, .. } => (*lo, EXACT),
                        MatchValue::Any => continue,
                    };
                    let slot = field_vals.entry(*f).or_insert((v, spec));
                    if spec > slot.1 {
                        *slot = (v, spec);
                    }
                }
            }
            PathCond::Table { .. } => {}
        }
    }
    let mut w = Witness {
        fields: field_vals.into_iter().map(|(f, (v, _))| (f, v)).collect(),
        registers: Vec::new(),
    };
    let mut per_reg: HashMap<usize, Vec<(u64, u64)>> = HashMap::new();
    for ((r, i), v) in reg_vals {
        per_reg.entry(r).or_default().push((i, v));
    }
    for (r, assigns) in per_reg {
        let reg = &p.registers()[r];
        let mut cells = vec![0u64; reg.cells.len()];
        for (i, v) in assigns {
            if let Some(c) = usize::try_from(i).ok().and_then(|i| cells.get_mut(i)) {
                *c = v;
            }
        }
        w.registers.push((reg.name.clone(), cells));
    }
    w.normalize();
    w
}

// ---------------------------------------------------------------------
// Concrete replay and comparison
// ---------------------------------------------------------------------

/// Everything externally observable about one packet: forwarding
/// outcome, digests, and post-packet register state (by name).
/// Recirculation counts and step totals are deliberately excluded —
/// targets may legitimately differ on those.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observed {
    /// Egress port, if forwarded.
    pub egress: Option<u64>,
    /// True if dropped.
    pub dropped: bool,
    /// Digests pushed to the controller.
    pub digests: Vec<DigestRecord>,
    /// `(register name, post-packet cells)`.
    pub registers: Vec<(String, Vec<u64>)>,
}

/// Replays a witness through a clone of `p` and returns what an external observer would see.
///
/// # Errors
///
/// Propagates the faults [`Pipeline::process_phv`] can return
/// ([`P4Error::RegisterOutOfBounds`], …); never a step budget, which
/// `ProgramBuilder::build` settled.
pub(crate) fn run_witness(p: &Pipeline, w: &Witness) -> Result<Observed, P4Error> {
    let mut q = apply_witness(p, w);
    let mut phv = phv_from_witness(w);
    let out = q.process_phv(&mut phv)?;
    Ok(Observed {
        egress: out.egress,
        dropped: out.dropped,
        digests: out.digests,
        registers: q
            .registers()
            .iter()
            .map(|r| (r.name.clone(), r.cells.clone()))
            .collect(),
    })
}

fn divergence_detail(
    ra: &Result<Observed, P4Error>,
    rb: &Result<Observed, P4Error>,
) -> Option<String> {
    match (ra, rb) {
        (Err(x), Err(y)) => (discriminant(x) != discriminant(y))
            .then(|| format!("error kinds differ: `{x}` vs `{y}`")),
        (Err(x), Ok(_)) => Some(format!("first build faults (`{x}`), second completes")),
        (Ok(_), Err(y)) => Some(format!("second build faults (`{y}`), first completes")),
        (Ok(x), Ok(y)) => {
            if x.dropped != y.dropped {
                return Some(format!("dropped differs: {} vs {}", x.dropped, y.dropped));
            }
            if x.egress != y.egress {
                return Some(format!("egress differs: {:?} vs {:?}", x.egress, y.egress));
            }
            if x.digests != y.digests {
                return Some(format!(
                    "digests differ: {:?} vs {:?}",
                    x.digests, y.digests
                ));
            }
            for (n, cx) in &x.registers {
                let Some((_, cy)) = y.registers.iter().find(|(m, _)| m == n) else {
                    continue; // compare common registers only
                };
                if cx != cy {
                    return Some(format!("register `{n}` differs: {cx:?} vs {cy:?}"));
                }
            }
            None
        }
    }
}

// ---------------------------------------------------------------------
// Options and reports
// ---------------------------------------------------------------------

/// Tuning knobs for the symbolic checks.
#[derive(Debug, Clone)]
pub struct SymbolicOptions {
    /// Maximum number of enumerated paths per program; exceeding it
    /// emits `S4L014`, never a silent cap.
    pub path_budget: usize,
    /// Pseudo-random witnesses added to the corpus (drawn from one
    /// fixed seed, so every run sees the same corpus).
    pub samples: usize,
    /// Input domain; inferred from the programs when `None`.
    pub domain: Option<InputDomain>,
    /// Origin values per register cell in the merge-soundness check.
    pub merge_origins: usize,
    /// Witness cap for the merge-soundness check (each witness costs
    /// `origins²` concrete replays per written cell).
    pub merge_witnesses: usize,
}

impl Default for SymbolicOptions {
    fn default() -> Self {
        Self {
            path_budget: 4096,
            samples: 64,
            domain: None,
            merge_origins: 6,
            merge_witnesses: 24,
        }
    }
}

impl SymbolicOptions {
    /// The reduced budgets a running control loop vets with (a
    /// drilldown rebind, a drain-point swap): big enough to cover every
    /// path of the case-study program, small enough to run at an epoch
    /// barrier. The gate's teeth are the constant-folded bounds check
    /// and the concrete witness replays, neither of which needs an
    /// exhaustive path sweep.
    #[must_use]
    pub fn reduced() -> Self {
        Self {
            path_budget: 512,
            samples: 16,
            ..Self::default()
        }
    }
}

/// A concrete input on which two builds disagree.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The diverging input.
    pub witness: Witness,
    /// What differed.
    pub detail: String,
}

json_struct!(@write Counterexample { witness, detail });

/// Result of a differential equivalence check.
#[derive(Debug, Clone)]
pub struct EquivReport {
    /// Paths enumerated in the first build.
    pub paths_a: usize,
    /// Paths enumerated in the second build.
    pub paths_b: usize,
    /// True when either enumeration hit the path budget.
    pub truncated: bool,
    /// Distinct witnesses replayed through both builds.
    pub witnesses: usize,
    /// The first diverging input, if any.
    pub counterexample: Option<Counterexample>,
    /// `S4L013` / `S4L014` findings.
    pub diagnostics: Vec<Diagnostic>,
}

impl EquivReport {
    /// True when no divergence was found.
    #[must_use]
    pub fn equivalent(&self) -> bool {
        self.counterexample.is_none()
    }

    /// Lint outcome under the standard severity policy.
    #[must_use]
    pub fn passes(&self, deny_warnings: bool) -> bool {
        diag::passes(&self.diagnostics, deny_warnings)
    }
}

/// The fields with the verdict, `equivalent`, before the counterexample.
impl ToJson for EquivReport {
    fn write_json(&self, out: &mut String) {
        json::write_obj(
            out,
            [
                ("paths_a", &self.paths_a as &dyn ToJson),
                ("paths_b", &self.paths_b),
                ("truncated", &self.truncated),
                ("witnesses", &self.witnesses),
                ("equivalent", &self.equivalent()),
                ("counterexample", &self.counterexample),
                ("diagnostics", &self.diagnostics),
            ],
        );
    }
}

/// Differentially verifies that two builds of the same program are
/// observably equivalent: enumerates both programs' paths, assembles a
/// witness corpus (path-derived + boundary + sampled, deduplicated),
/// and replays every witness through both concrete interpreters. The
/// first divergence becomes an `S4L013` error carrying a concrete
/// counterexample packet; budget truncation becomes `S4L014`.
#[must_use]
pub fn check_equivalence(a: &Pipeline, b: &Pipeline, opts: &SymbolicOptions) -> EquivReport {
    let mut ex_a = Exec::new(a, None, opts.path_budget);
    let states_a = ex_a.run();
    let mut ex_b = Exec::new(b, None, opts.path_budget);
    let states_b = ex_b.run();
    let truncated = ex_a.truncated || ex_b.truncated;

    let domain = opts
        .domain
        .clone()
        .unwrap_or_else(|| InputDomain::infer(&[a, b]));
    let b_names: HashSet<&str> = b.registers().iter().map(|r| r.name.as_str()).collect();
    let common_shapes: Vec<(String, usize, u64)> = register_shapes(a)
        .into_iter()
        .filter(|(n, _, _)| b_names.contains(n.as_str()))
        .collect();

    let mut seen: HashSet<Witness> = HashSet::new();
    let mut corpus: Vec<Witness> = Vec::new();
    {
        let mut add = |w: Witness| {
            if seen.insert(w.clone()) {
                corpus.push(w);
            }
        };
        for s in &states_a {
            add(derive_witness(a, s, &domain));
        }
        for s in &states_b {
            add(derive_witness(b, s, &domain));
        }
        for w in boundary_witnesses(&domain) {
            add(w);
        }
        if let Some(limit) = domain.register_limit {
            let mut w = Witness::default();
            for (n, cells, mask) in &common_shapes {
                w.registers
                    .push((n.clone(), vec![limit.min(*mask); *cells]));
            }
            w.normalize();
            add(w);
        }
        for w in random_witnesses(&domain, &common_shapes, opts.samples) {
            add(w);
        }
    }

    let mut diagnostics = Vec::new();
    let mut counterexample = None;
    for w in &corpus {
        let ra = run_witness(a, w);
        let rb = run_witness(b, w);
        if let Some(detail) = divergence_detail(&ra, &rb) {
            diagnostics.push(Diagnostic::new(
                LintCode::TargetDivergence,
                Severity::Error,
                format!(
                    "targets `{}` vs `{}`",
                    a.target().name,
                    b.target().name
                ),
                format!(
                    "the two builds diverge on a concrete packet: {detail} (witness {})",
                    json::write(w)
                ),
            ));
            counterexample = Some(Counterexample {
                witness: w.clone(),
                detail,
            });
            break;
        }
    }
    if truncated {
        diagnostics.push(Diagnostic::new(
            LintCode::PathBudget,
            Severity::Warning,
            format!(
                "targets `{}` vs `{}`",
                a.target().name,
                b.target().name
            ),
            format!(
                "path enumeration truncated at {} paths; the equivalence verdict covers the enumerated prefix plus the sampled corpus only",
                opts.path_budget
            ),
        ));
    }
    EquivReport {
        paths_a: states_a.len(),
        paths_b: states_b.len(),
        truncated,
        witnesses: corpus.len(),
        counterexample,
        diagnostics,
    }
}

/// One violation of `U(o1 ⊕ o2) == U(o1) ⊕ o2`.
#[derive(Debug, Clone)]
pub struct MergeCounterexample {
    /// Register name.
    pub register: String,
    /// Cell the violation was observed on.
    pub cell: usize,
    /// First shard's pre-packet cell value.
    pub origin_a: u64,
    /// Second shard's contribution.
    pub origin_b: u64,
    /// `U(o1 ⊕ o2)` — the reference switch's view.
    pub merged_then_processed: u64,
    /// `U(o1) ⊕ o2` — the sharded-replay view.
    pub processed_then_merged: u64,
    /// The packet driving the update.
    pub witness: Witness,
}

json_struct!(@write MergeCounterexample {
    register,
    cell,
    origin_a,
    origin_b,
    merged_then_processed,
    processed_then_merged,
    witness
});

/// Result of the merge-soundness check.
#[derive(Debug, Clone)]
pub struct MergeReport {
    /// Registers checked (mergeable policies only).
    pub checked: usize,
    /// Registers exempt under [`crate::RegMerge::None`].
    pub exempt: Vec<String>,
    /// Witnesses that drove updates.
    pub witnesses: usize,
    /// Concrete origin pairs evaluated.
    pub origin_pairs: usize,
    /// First violation per offending register.
    pub counterexamples: Vec<MergeCounterexample>,
    /// `S4L015` findings.
    pub diagnostics: Vec<Diagnostic>,
}

json_struct!(@write MergeReport {
    checked,
    exempt,
    witnesses,
    origin_pairs,
    counterexamples,
    diagnostics
});

impl MergeReport {
    /// Lint outcome under the standard severity policy.
    #[must_use]
    pub fn passes(&self, deny_warnings: bool) -> bool {
        diag::passes(&self.diagnostics, deny_warnings)
    }
}

fn merge_policy_name(m: crate::pipeline::RegMerge) -> &'static str {
    match m {
        crate::pipeline::RegMerge::Sum => "sum",
        crate::pipeline::RegMerge::SatSum => "saturating-sum",
        crate::pipeline::RegMerge::Max => "max",
        crate::pipeline::RegMerge::None => "none",
    }
}

/// Runs one packet against a clone whose `registers[reg].cells[cell]`
/// starts at `origin` (masked), returning the cell's post-packet value.
fn cell_after(
    p: &Pipeline,
    w: &Witness,
    reg: usize,
    cell: usize,
    origin: u64,
) -> Result<u64, P4Error> {
    let mut q = apply_witness(p, w);
    let mask = q.registers()[reg].mask();
    q.registers[reg].cells[cell] = origin & mask;
    let mut phv = phv_from_witness(w);
    q.process_phv(&mut phv)?;
    Ok(q.registers()[reg].cells[cell])
}

fn thin_witnesses(v: Vec<Witness>, cap: usize) -> Vec<Witness> {
    if v.len() <= cap {
        return v;
    }
    let n = v.len();
    let mut out = Vec::with_capacity(cap);
    let mut last = usize::MAX;
    for i in 0..cap {
        let idx = i * n / cap;
        if idx != last {
            out.push(v[idx].clone());
            last = idx;
        }
    }
    out
}

/// Statically checks each register's per-packet update function against
/// its declared merge policy: for every cell a witness writes,
/// `U(o1 ⊕ o2)` must equal `U(o1) ⊕ o2` over concrete origin pairs —
/// the inductive step that makes sharded replay bit-identical to the
/// reference switch. A violation is an `S4L015` error.
///
/// Caveat: origins vary one cell at a time; auxiliary registers are
/// held at the witness's values, so cross-register update coupling
/// (e.g. a seeded-once flag guarding an accumulator) is only exercised
/// as far as the witness corpus drives it.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn check_merge_soundness(p: &Pipeline, opts: &SymbolicOptions) -> MergeReport {
    let domain = opts
        .domain
        .clone()
        .unwrap_or_else(|| InputDomain::infer(&[p]));
    let cap = opts.merge_witnesses.max(1);
    // Path-derived witnesses come first: they are the ones that steer
    // execution into table hits and guarded branches, i.e. into the
    // actions that actually update registers. Boundary and random
    // witnesses fill the remaining budget. (Budget truncation here
    // only limits coverage; it is not an S4L014 finding — the
    // equivalence check owns that verdict.)
    let mut seen: HashSet<Witness> = HashSet::new();
    let mut path_ws: Vec<Witness> = Vec::new();
    let mut ex = Exec::new(p, None, opts.path_budget);
    for s in ex.run() {
        let w = derive_witness(p, &s, &domain);
        if seen.insert(w.clone()) {
            path_ws.push(w);
        }
    }
    let mut corpus = thin_witnesses(path_ws, cap);
    let mut rest = boundary_witnesses(&domain);
    rest.extend(random_witnesses(
        &domain,
        &register_shapes(p),
        opts.samples,
    ));
    rest.retain(|w| !seen.contains(w));
    let room = cap.saturating_sub(corpus.len()).max(4);
    corpus.extend(thin_witnesses(rest, room));

    // Guided runs discover which cells each witness actually writes.
    let mut touched: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
    for (wi, w) in corpus.iter().enumerate() {
        let env = SymEnv::new(p, w);
        let mut ex = Exec::new(p, Some(&env), 1);
        let states = ex.run();
        let Some(s) = states.first() else { continue };
        if s.err.is_some() {
            continue;
        }
        let mut memo = Memo::new();
        for (r, writes) in s.writes.iter().enumerate() {
            for (ie, _) in writes {
                let Ok(i) = eval_expr(ie, &env, &mut memo) else {
                    continue;
                };
                let Ok(cell) = usize::try_from(i) else {
                    continue;
                };
                let e = touched.entry((r, cell)).or_default();
                if e.len() < 3 {
                    e.push(wi);
                }
            }
        }
    }

    let mut checked = 0;
    let mut exempt = Vec::new();
    let mut origin_pairs = 0;
    let mut counterexamples = Vec::new();
    let mut diagnostics = Vec::new();
    for (r, reg) in p.registers().iter().enumerate() {
        let merge = reg.merge;
        if merge == crate::pipeline::RegMerge::None {
            exempt.push(reg.name.clone());
            continue;
        }
        checked += 1;
        let mask = reg.mask();
        let mut origins: Vec<u64> = vec![
            0,
            1,
            2,
            3,
            mask,
            mask >> 1,
            1u64 << (reg.width_bits / 2).min(63),
        ];
        for o in &mut origins {
            *o &= mask;
        }
        origins.sort_unstable();
        origins.dedup();
        origins.truncate(opts.merge_origins.max(2));
        let mut violated = false;
        for ((tr, cell), wits) in &touched {
            if *tr != r || violated {
                continue;
            }
            for &wi in wits {
                if violated {
                    break;
                }
                let w = &corpus[wi];
                for &o1 in &origins {
                    if violated {
                        break;
                    }
                    for &o2 in &origins {
                        let lhs = cell_after(p, w, r, *cell, merge.combine(o1, o2, mask));
                        let rhs = cell_after(p, w, r, *cell, o1)
                            .map(|u| merge.combine(u, o2, mask));
                        let (Ok(lhs), Ok(rhs)) = (lhs, rhs) else {
                            continue;
                        };
                        origin_pairs += 1;
                        if lhs != rhs {
                            diagnostics.push(Diagnostic::new(
                                LintCode::MergeUnsound,
                                Severity::Error,
                                format!("register `{}`", reg.name),
                                format!(
                                    "per-packet update does not commute with the declared `{}` merge: U(o1⊕o2)={lhs} but U(o1)⊕o2={rhs} for origins o1={o1}, o2={o2} on cell {cell} — sharded replay would drift from the reference switch; declare `RegMerge::None` (and reconcile at a higher level) or make the update merge-linear",
                                    merge_policy_name(merge)
                                ),
                            ));
                            counterexamples.push(MergeCounterexample {
                                register: reg.name.clone(),
                                cell: *cell,
                                origin_a: o1,
                                origin_b: o2,
                                merged_then_processed: lhs,
                                processed_then_merged: rhs,
                                witness: w.clone(),
                            });
                            violated = true;
                            break;
                        }
                    }
                }
            }
        }
    }
    exempt.sort();
    MergeReport {
        checked,
        exempt,
        witnesses: corpus.len(),
        origin_pairs,
        counterexamples,
        diagnostics,
    }
}

/// Result of vetting one rebind transaction.
#[derive(Debug, Clone)]
pub struct RebindReport {
    /// Paths enumerated in the post-rebind program.
    pub paths: usize,
    /// True when enumeration hit the path budget.
    pub truncated: bool,
    /// Concrete witnesses swept.
    pub witnesses: usize,
    /// `S4L016` / `S4L014` findings.
    pub diagnostics: Vec<Diagnostic>,
    /// The vetted post-rebind pipeline, present only when the
    /// transaction is safe (no error findings) — callers use it as the
    /// next shadow model.
    pub vetted: Option<Pipeline>,
}

impl RebindReport {
    /// True when the transaction may be applied.
    #[must_use]
    pub fn passes(&self) -> bool {
        diag::passes(&self.diagnostics, false)
    }
}

/// The fields with the verdict, `passes`; the vetted pipeline is left
/// out.
impl ToJson for RebindReport {
    fn write_json(&self, out: &mut String) {
        json::write_obj(
            out,
            [
                ("paths", &self.paths as &dyn ToJson),
                ("truncated", &self.truncated),
                ("witnesses", &self.witnesses),
                ("passes", &self.passes()),
                ("diagnostics", &self.diagnostics),
            ],
        );
    }
}

/// Statically vets a control-plane transaction before it reaches the
/// switch: applies `req` to a clone of `p`, re-runs the full static
/// verifier on the post-rebind program, enumerates its paths looking
/// for newly reachable faults, and sweeps a concrete witness corpus.
/// Faults reproduced by a concrete packet are `S4L016` errors;
/// symbolic-only faults (possibly shadowed by table priorities) are
/// warnings. On success, [`RebindReport::vetted`] carries the
/// post-rebind pipeline for use as the next shadow model.
#[must_use]
pub fn vet_rebind(p: &Pipeline, req: &RuntimeRequest, opts: &SymbolicOptions) -> RebindReport {
    let ctx = "rebind transaction".to_string();
    let mut diags = Vec::new();
    let mut cand = p.clone();
    if let RuntimeResponse::Error(msg) = cand.runtime(req) {
        diags.push(Diagnostic::new(
            LintCode::UnsafeRebind,
            Severity::Error,
            ctx,
            format!("rejected by the runtime before static analysis: {msg}"),
        ));
        return RebindReport {
            paths: 0,
            truncated: false,
            witnesses: 0,
            diagnostics: diags,
            vetted: None,
        };
    }

    let vr = verify_against(&cand, &cand.target().clone());
    for d in &vr.diagnostics {
        if d.severity == Severity::Error {
            diags.push(Diagnostic::new(
                LintCode::UnsafeRebind,
                Severity::Error,
                d.context.clone(),
                format!(
                    "post-rebind program fails static verification [{}]: {}",
                    d.code.code(),
                    d.message
                ),
            ));
        }
    }

    let mut ex = Exec::new(&cand, None, opts.path_budget);
    let states = ex.run();
    let paths = states.len();
    let domain = opts
        .domain
        .clone()
        .unwrap_or_else(|| InputDomain::infer(&[&cand]));
    let mut reported = HashSet::new();
    for s in &states {
        let Some(e) = &s.err else { continue };
        if !reported.insert(discriminant(e)) {
            continue;
        }
        let w = derive_witness(&cand, s, &domain);
        match run_witness(&cand, &w) {
            Err(ce) => diags.push(Diagnostic::new(
                LintCode::UnsafeRebind,
                Severity::Error,
                ctx.clone(),
                format!(
                    "post-rebind program faults on a concrete packet: {ce} (witness {})",
                    json::write(&w)
                ),
            )),
            Ok(_) => diags.push(Diagnostic::new(
                LintCode::UnsafeRebind,
                Severity::Warning,
                ctx.clone(),
                format!(
                    "a symbolic path reaches `{e}` but no concrete witness reproduced it (possibly shadowed by table priorities)"
                ),
            )),
        }
    }
    if ex.truncated {
        diags.push(Diagnostic::new(
            LintCode::PathBudget,
            Severity::Warning,
            ctx.clone(),
            format!(
                "path enumeration truncated at {} paths; the rebind gate vetted only the enumerated prefix",
                opts.path_budget
            ),
        ));
    }

    let mut corpus = boundary_witnesses(&domain);
    corpus.extend(random_witnesses(
        &domain,
        &register_shapes(&cand),
        opts.samples,
    ));
    let witnesses = corpus.len();
    for w in &corpus {
        if let Err(e) = run_witness(&cand, w) {
            if reported.insert(discriminant(&e)) {
                diags.push(Diagnostic::new(
                    LintCode::UnsafeRebind,
                    Severity::Error,
                    ctx.clone(),
                    format!(
                        "post-rebind program faults on a concrete packet: {e} (witness {})",
                        json::write(w)
                    ),
                ));
            }
        }
    }
    diags.sort_by_key(|d| std::cmp::Reverse(d.severity));
    let ok = diag::passes(&diags, false);
    RebindReport {
        paths,
        truncated: ex.truncated,
        witnesses,
        diagnostics: diags,
        vetted: ok.then_some(cand),
    }
}

/// Checks that guided symbolic execution agrees with the concrete
/// interpreter on one witness: same error kind (or none), same final
/// PHV fields, register state, digests, recirculation count, and
/// applied-table trace. Powers the differential property test.
///
/// # Errors
///
/// Returns a description of the first disagreement.
#[allow(clippy::missing_panics_doc)] // single-path invariant checked above the unwrap
pub fn check_agreement(p: &Pipeline, w: &Witness) -> Result<(), String> {
    let mut q = apply_witness(p, w);
    let mut phv = phv_from_witness(w);
    let concrete = q.process_phv(&mut phv);

    let env = SymEnv::new(p, w);
    let mut ex = Exec::new(p, Some(&env), 1);
    let mut states = ex.run();
    if states.len() != 1 {
        return Err(format!(
            "guided execution produced {} paths, expected exactly 1",
            states.len()
        ));
    }
    let s = states.pop().expect("length checked");

    match (&concrete, &s.err) {
        (Err(ce), Some(se)) => {
            return if discriminant(ce) == discriminant(se) {
                Ok(())
            } else {
                Err(format!(
                    "error kinds differ: concrete `{ce}` vs symbolic `{se}`"
                ))
            };
        }
        (Err(ce), None) => {
            return Err(format!("concrete run faults (`{ce}`) but symbolic completes"));
        }
        (Ok(_), Some(se)) => {
            return Err(format!("symbolic run faults (`{se}`) but concrete completes"));
        }
        (Ok(_), None) => {}
    }
    let out = concrete.as_ref().expect("checked above");

    let mut memo = Memo::new();
    for (i, fe) in s.fields.iter().enumerate() {
        let f = FieldId(u16::try_from(i).unwrap_or(u16::MAX));
        let sym = eval_expr(fe, &env, &mut memo).map_err(|e| format!("field {i} eval: {e}"))?;
        let conc = phv.get(f);
        if sym != conc {
            return Err(format!(
                "field {i} differs: symbolic {sym} vs concrete {conc}"
            ));
        }
    }

    let mut regs = env.regs.clone();
    for (r, writes) in s.writes.iter().enumerate() {
        for (ie, ve) in writes {
            let i = eval_expr(ie, &env, &mut memo).map_err(|e| format!("write idx eval: {e}"))?;
            let v = eval_expr(ve, &env, &mut memo).map_err(|e| format!("write val eval: {e}"))?;
            match usize::try_from(i).ok().and_then(|i| regs[r].get_mut(i)) {
                Some(cell) => *cell = v,
                None => return Err(format!("symbolic write out of bounds: reg {r} idx {i}")),
            }
        }
    }
    for (r, reg) in q.registers().iter().enumerate() {
        if regs[r] != reg.cells {
            return Err(format!(
                "register `{}` differs: symbolic {:?} vs concrete {:?}",
                reg.name, regs[r], reg.cells
            ));
        }
    }

    if s.digests.len() != out.digests.len() {
        return Err(format!(
            "digest count differs: symbolic {} vs concrete {}",
            s.digests.len(),
            out.digests.len()
        ));
    }
    for ((id, vals), d) in s.digests.iter().zip(&out.digests) {
        if *id != d.id {
            return Err(format!("digest id differs: {} vs {}", id, d.id));
        }
        let evs: Result<Vec<u64>, P4Error> =
            vals.iter().map(|e| eval_expr(e, &env, &mut memo)).collect();
        let evs = evs.map_err(|e| format!("digest eval: {e}"))?;
        if evs != d.values {
            return Err(format!(
                "digest values differ: {:?} vs {:?}",
                evs, d.values
            ));
        }
    }
    if s.recirculations != out.recirculations {
        return Err(format!(
            "recirculations differ: symbolic {} vs concrete {}",
            s.recirculations, out.recirculations
        ));
    }
    if s.tables_applied[..] != out.tables_applied[..] {
        return Err(format!(
            "applied-table trace differs: {:?} vs {:?}",
            s.tables_applied, out.tables_applied
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{ActionDef, Primitive};
    use crate::control::Cond;
    use crate::pipeline::RegMerge;
    use crate::program::ProgramBuilder;
    use crate::table::{Entry, MatchKind, TableDef};
    use crate::target::TargetModel;

    fn witness(fields: Vec<(FieldId, u64)>) -> Witness {
        let mut w = Witness {
            fields,
            registers: Vec::new(),
        };
        w.normalize();
        w
    }

    /// Identity vs low-8-bit truncation: observably equal only below
    /// 256.
    fn truncating_pair() -> (Pipeline, Pipeline) {
        let exact = {
            let mut b = ProgramBuilder::new();
            let a = b.add_action(ActionDef::new(
                "copy",
                vec![
                    Primitive::Set {
                        dst: fields::M0,
                        src: Operand::Field(fields::PKT_LEN),
                    },
                    Primitive::Digest {
                        id: 1,
                        values: vec![Operand::Field(fields::M0)],
                    },
                ],
            ));
            b.set_control(Control::ApplyAction(a));
            b.build(TargetModel::bmv2()).unwrap()
        };
        let truncating = {
            let mut b = ProgramBuilder::new();
            let a = b.add_action(ActionDef::new(
                "copy8",
                vec![
                    Primitive::And {
                        dst: fields::M0,
                        a: Operand::Field(fields::PKT_LEN),
                        b: Operand::Const(0xff),
                    },
                    Primitive::Digest {
                        id: 1,
                        values: vec![Operand::Field(fields::M0)],
                    },
                ],
            ));
            b.set_control(Control::ApplyAction(a));
            b.build(TargetModel::tofino_like()).unwrap()
        };
        (exact, truncating)
    }

    fn counting_pipeline() -> Pipeline {
        let mut b = ProgramBuilder::new();
        let reg = b.add_register("counters", 64, 16);
        let fwd = b.add_action(ActionDef::new(
            "forward",
            vec![Primitive::Forward {
                port: Operand::Const(1),
            }],
        ));
        let count = b.add_action(ActionDef::new(
            "count",
            vec![
                Primitive::RegRead {
                    dst: fields::M0,
                    register: reg,
                    index: Operand::Data(0),
                },
                Primitive::Add {
                    dst: fields::M0,
                    a: Operand::Field(fields::M0),
                    b: Operand::Field(fields::PKT_LEN),
                },
                Primitive::RegWrite {
                    register: reg,
                    index: Operand::Data(0),
                    src: Operand::Field(fields::M0),
                },
                Primitive::Forward {
                    port: Operand::Const(1),
                },
            ],
        ));
        let t = b.add_table(TableDef {
            name: "bind".into(),
            keys: vec![(fields::IPV4_DST, MatchKind::Lpm { width: 32 })],
            max_entries: 8,
            allowed_actions: vec![fwd, count],
            default_action: Some((fwd, vec![])),
        });
        b.set_control(Control::ApplyTable(t));
        let mut p = b.build(TargetModel::bmv2()).unwrap();
        let resp = p.runtime(&RuntimeRequest::InsertEntry {
            table: t,
            entry: Entry {
                key: vec![MatchValue::Lpm {
                    value: 0x0a00_0000,
                    prefix_len: 8,
                }],
                priority: 0,
                action: count,
                action_data: vec![3],
            },
        });
        assert!(resp.is_ok());
        p
    }

    #[test]
    fn identical_builds_are_equivalent() {
        let a = counting_pipeline();
        let b = counting_pipeline();
        let opts = SymbolicOptions {
            samples: 16,
            ..SymbolicOptions::default()
        };
        let report = check_equivalence(&a, &b, &opts);
        assert!(report.equivalent(), "{}", json::write(&report));
        assert!(report.passes(true));
        assert!(report.paths_a >= 2, "hit and miss paths at minimum");
        assert!(!report.truncated);
    }

    #[test]
    fn truncating_build_diverges_with_concrete_counterexample() {
        let (exact, truncating) = truncating_pair();
        let report = check_equivalence(&exact, &truncating, &SymbolicOptions::default());
        assert!(!report.equivalent());
        let ce = report.counterexample.as_ref().unwrap();
        // The counterexample must reproduce through the interpreter.
        let w = &ce.witness;
        let detail = divergence_detail(&run_witness(&exact, w), &run_witness(&truncating, w));
        assert!(detail.is_some(), "counterexample failed to reproduce");
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == LintCode::TargetDivergence && d.severity == Severity::Error));
    }

    #[test]
    fn bounded_domain_restores_equivalence() {
        let (exact, truncating) = truncating_pair();
        let domain = InputDomain::infer(&[&exact, &truncating]).with_all_fields_max(0xff);
        let opts = SymbolicOptions {
            domain: Some(domain),
            ..SymbolicOptions::default()
        };
        let report = check_equivalence(&exact, &truncating, &opts);
        assert!(report.equivalent(), "{}", json::write(&report));
    }

    #[test]
    fn path_budget_truncation_is_a_warning() {
        let mut b = ProgramBuilder::new();
        let mut seq = Vec::new();
        for i in 0..4u16 {
            seq.push(Control::If {
                cond: Cond::new(
                    Operand::Field(fields::scratch(i)),
                    CmpOp::Eq,
                    Operand::Const(0),
                ),
                then_branch: Box::new(Control::Nop),
                else_branch: None,
            });
        }
        b.set_control(Control::Seq(seq));
        let p = b.build(TargetModel::bmv2()).unwrap();
        let opts = SymbolicOptions {
            path_budget: 3,
            samples: 4,
            ..SymbolicOptions::default()
        };
        let mut ex = Exec::new(&p, None, opts.path_budget);
        assert!(ex.run().len() <= 3);
        assert!(ex.truncated);
        let report = check_equivalence(&p, &p, &opts);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == LintCode::PathBudget && d.severity == Severity::Warning));
        assert!(report.passes(false) && !report.passes(true));
    }

    #[test]
    fn counter_update_is_sum_merge_sound() {
        let p = counting_pipeline();
        let report = check_merge_soundness(&p, &SymbolicOptions::default());
        assert_eq!(report.checked, 1);
        assert!(report.counterexamples.is_empty(), "{}", json::write(&report));
        assert!(report.origin_pairs > 0, "the counter cell must be exercised");
    }

    /// EWMA-style update `acc = acc - (acc >> 2) + x`: not linear in
    /// the origin, so sum-merging shards drifts.
    fn ewma_pipeline(merge: RegMerge) -> Pipeline {
        let mut b = ProgramBuilder::new();
        let reg = b.add_register("acc", 64, 1);
        b.set_register_merge(reg, merge);
        let a = b.add_action(ActionDef::new(
            "ewma",
            vec![
                Primitive::RegRead {
                    dst: fields::M0,
                    register: reg,
                    index: Operand::Const(0),
                },
                Primitive::Shr {
                    dst: fields::scratch(1),
                    src: Operand::Field(fields::M0),
                    amount: Operand::Const(2),
                },
                Primitive::Sub {
                    dst: fields::M0,
                    a: Operand::Field(fields::M0),
                    b: Operand::Field(fields::scratch(1)),
                },
                Primitive::Add {
                    dst: fields::M0,
                    a: Operand::Field(fields::M0),
                    b: Operand::Field(fields::PKT_LEN),
                },
                Primitive::RegWrite {
                    register: reg,
                    index: Operand::Const(0),
                    src: Operand::Field(fields::M0),
                },
            ],
        ));
        b.set_control(Control::ApplyAction(a));
        b.build(TargetModel::bmv2()).unwrap()
    }

    #[test]
    fn ewma_under_sum_merge_is_unsound() {
        let report = check_merge_soundness(&ewma_pipeline(RegMerge::Sum), &SymbolicOptions::default());
        assert!(!report.counterexamples.is_empty());
        let ce = &report.counterexamples[0];
        assert_eq!(ce.register, "acc");
        assert_ne!(ce.merged_then_processed, ce.processed_then_merged);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == LintCode::MergeUnsound && d.severity == Severity::Error));
    }

    #[test]
    fn ewma_under_none_merge_is_exempt() {
        let report =
            check_merge_soundness(&ewma_pipeline(RegMerge::None), &SymbolicOptions::default());
        assert_eq!(report.checked, 0);
        assert_eq!(report.exempt, vec!["acc".to_string()]);
        assert!(report.passes(true));
    }

    #[test]
    fn safe_rebind_is_vetted() {
        let p = counting_pipeline();
        let req = RuntimeRequest::InsertEntry {
            table: 0,
            entry: Entry {
                key: vec![MatchValue::Lpm {
                    value: 0x0b00_0000,
                    prefix_len: 8,
                }],
                priority: 0,
                action: 1,
                action_data: vec![5],
            },
        };
        let report = vet_rebind(&p, &req, &SymbolicOptions::default());
        assert!(report.passes(), "{}", json::write(&report));
        let vetted = report.vetted.as_ref().unwrap();
        assert_eq!(vetted.tables()[0].entries().len(), 2);
    }

    #[test]
    fn out_of_bounds_rebind_is_rejected_statically() {
        let p = counting_pipeline();
        // Slot 999 indexes far past the 16-cell counter register: the
        // chosen-entry path const-folds the index and faults without
        // needing a witness, and the derived packet confirms it.
        let req = RuntimeRequest::InsertEntry {
            table: 0,
            entry: Entry {
                key: vec![MatchValue::Lpm {
                    value: 0x0c00_0000,
                    prefix_len: 8,
                }],
                priority: 0,
                action: 1,
                action_data: vec![999],
            },
        };
        let report = vet_rebind(&p, &req, &SymbolicOptions::default());
        assert!(!report.passes(), "{}", json::write(&report));
        assert!(report.vetted.is_none());
        assert!(report.diagnostics.iter().any(|d| {
            d.code == LintCode::UnsafeRebind
                && d.severity == Severity::Error
                && d.message.contains("out of bounds")
        }));
    }

    #[test]
    fn guided_execution_agrees_with_interpreter() {
        let p = counting_pipeline();
        let cases = vec![
            witness(vec![]),
            witness(vec![(fields::IPV4_DST, 0x0a01_0203), (fields::PKT_LEN, 100)]),
            witness(vec![(fields::IPV4_DST, 0x0b00_0001), (fields::PKT_LEN, 7)]),
            Witness {
                fields: vec![(fields::IPV4_DST, 0x0aff_ffff), (fields::PKT_LEN, u64::MAX)],
                registers: vec![("counters".into(), vec![9; 16])],
            },
        ];
        for w in cases {
            let mut w = w;
            w.normalize();
            check_agreement(&p, &w).unwrap();
        }
    }

    #[test]
    fn agreement_covers_faulting_paths() {
        // A pipeline that faults (register OOB) on TTL >= 4.
        let mut b = ProgramBuilder::new();
        let reg = b.add_register("r", 64, 4);
        let a = b.add_action(ActionDef::new(
            "idx",
            vec![Primitive::RegRead {
                dst: fields::M0,
                register: reg,
                index: Operand::Field(fields::IPV4_TTL),
            }],
        ));
        b.set_control(Control::ApplyAction(a));
        let p = b.build(TargetModel::bmv2()).unwrap();
        check_agreement(&p, &witness(vec![(fields::IPV4_TTL, 2)])).unwrap();
        check_agreement(&p, &witness(vec![(fields::IPV4_TTL, 64)])).unwrap();
    }

    #[test]
    fn recirculation_and_exit_agree() {
        let mut b = ProgramBuilder::new();
        let bump = b.add_action(ActionDef::new(
            "bump",
            vec![Primitive::Add {
                dst: fields::M0,
                a: Operand::Field(fields::M0),
                b: Operand::Const(1),
            }],
        ));
        // Recirculate until M0 == 3, then exit before the final bump.
        b.set_control(Control::Seq(vec![
            Control::If {
                cond: Cond::new(Operand::Field(fields::M0), CmpOp::Ge, Operand::Const(3)),
                then_branch: Box::new(Control::Exit),
                else_branch: None,
            },
            Control::ApplyAction(bump),
            Control::Recirculate,
        ]));
        let p = b.build(TargetModel::bmv2()).unwrap();
        check_agreement(&p, &witness(vec![])).unwrap();
        let mut ex = Exec::new(&p, None, SymbolicOptions::default().path_budget);
        assert!(ex.run().len() >= 2);
        assert!(!ex.truncated);
    }

    #[test]
    fn witness_json_is_stable() {
        let w = witness(vec![(fields::PKT_LEN, 3)]);
        assert_eq!(json::write(&w), "{\"fields\":[[1,3]],\"registers\":[]}");
    }

    /// A witness with register state, as S4L013/S4L016 messages quote it.
    fn pinned_witness() -> Witness {
        let mut w = witness(vec![(FieldId(7), u64::MAX), (fields::PKT_LEN, 3)]);
        w.registers = vec![("rate_window".into(), vec![0, 5, 1 << 40]), ("a\"b".into(), Vec::new())];
        w.normalize();
        w
    }

    #[test]
    fn witness_with_registers_is_pinned_byte_for_byte() {
        assert_eq!(
            json::write(&pinned_witness()),
            r#"{"fields":[[1,3],[7,18446744073709551615]],"registers":[{"name":"a\"b","cells":[]},{"name":"rate_window","cells":[0,5,1099511627776]}]}"#
        );
    }

    #[test]
    fn equiv_report_with_a_counterexample_is_pinned_byte_for_byte() {
        let report = EquivReport {
            paths_a: 3,
            paths_b: 4,
            truncated: true,
            witnesses: 17,
            counterexample: Some(Counterexample {
                witness: pinned_witness(),
                detail: "register `rate_window` differs".into(),
            }),
            diagnostics: vec![Diagnostic::new(
                LintCode::TargetDivergence,
                Severity::Error,
                "targets `bmv2` vs `tofino-like`",
                "diverge\non a packet",
            )
            .with_chain(vec!["Shl -> f1".into(), "RegWrite r".into()])],
        };
        assert_eq!(
            json::write(&report),
            concat!(
                r#"{"paths_a":3,"paths_b":4,"truncated":true,"witnesses":17,"equivalent":false,"#,
                r#""counterexample":{"witness":{"fields":[[1,3],[7,18446744073709551615]],"#,
                r#""registers":[{"name":"a\"b","cells":[]},{"name":"rate_window","cells":[0,5,1099511627776]}]},"#,
                r#""detail":"register `rate_window` differs"},"#,
                r#""diagnostics":[{"code":"S4L013","severity":"error","context":"targets `bmv2` vs `tofino-like`","#,
                r#""message":"diverge\non a packet","chain":["Shl -> f1","RegWrite r"]}]}"#
            )
        );
    }
}

