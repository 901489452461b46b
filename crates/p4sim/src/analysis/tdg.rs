//! Table dependency graph (TDG).
//!
//! The classical input of a PISA stage allocator: one node per control
//! unit (a match-action table application or a direct action
//! application), and one edge per reason two units cannot share a
//! stage. Dependencies are derived from the action IR via
//! `Primitive::dst_field`, `Primitive::src_fields` and
//! `Primitive::register_access` — the same helpers the resource
//! analyser uses, so the two stay in sync by construction.
//!
//! Edge kinds, strongest first:
//!
//! - **Match** — a later table *matches* on a field an earlier unit may
//!   write. The match must see the final value, so the consumer goes to
//!   a later stage.
//! - **Action** — a later unit's ALUs read (or re-write) a field an
//!   earlier unit may write (RAW/WAW).
//! - **Control** — a unit is guarded by a branch condition that reads a
//!   field an earlier unit may write; the gateway evaluates after the
//!   writer, and the guarded unit with it.
//! - **Register** — two units touch the same register and at least one
//!   writes. A register lives in one stage's stateful ALU, and this
//!   simulator executes units in program order, so shared state
//!   serialises.
//! - **Anti** — a later unit writes a field an earlier unit reads
//!   (WAR). Real PISA stages read their input PHV in parallel, so
//!   hardware permits same-stage anti-dependencies; this simulator
//!   executes sequentially, so the allocator keeps anti-dependent units
//!   in distinct stages too — which is exactly what makes within-stage
//!   reordering behaviour-preserving (see the equivalence proptest).

use crate::action::Operand;
use crate::control::{Cond, Control};
use crate::phv::FieldId;
use crate::pipeline::Pipeline;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;

/// Cap on enumerated execution paths (programs in this repo are tiny;
/// the cap only guards against pathological inputs).
pub(crate) const MAX_PATHS: usize = 4096;

/// One step of an execution path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Item {
    /// A match-action table application.
    Table(usize),
    /// A direct action application.
    Action(usize),
}

/// Enumerates execution paths (sequences of applied tables/actions).
pub(crate) fn paths(c: &Control) -> Vec<Vec<Item>> {
    match c {
        Control::Nop => vec![Vec::new()],
        Control::Seq(children) => {
            let mut acc: Vec<Vec<Item>> = vec![Vec::new()];
            for child in children {
                let child_paths = paths(child);
                let mut next = Vec::new();
                for a in &acc {
                    for b in &child_paths {
                        let mut p = a.clone();
                        p.extend_from_slice(b);
                        next.push(p);
                        if next.len() >= MAX_PATHS {
                            break;
                        }
                    }
                    if next.len() >= MAX_PATHS {
                        break;
                    }
                }
                acc = next;
            }
            acc
        }
        Control::ApplyTable(t) => vec![vec![Item::Table(*t)]],
        Control::ApplyAction(a) => vec![vec![Item::Action(*a)]],
        Control::If {
            then_branch,
            else_branch,
            ..
        } => {
            let mut out = paths(then_branch);
            match else_branch {
                Some(e) => out.extend(paths(e)),
                None => out.push(Vec::new()),
            }
            out.truncate(MAX_PATHS);
            out
        }
        // Recirculation multiplies whole-path costs by the pass count at
        // runtime; the static analyser reports single-pass quantities.
        Control::Exit | Control::Recirculate => vec![Vec::new()],
    }
}

/// Action ids a table may invoke (allowed actions plus the default).
pub(crate) fn table_actions(p: &Pipeline, t: usize) -> Vec<usize> {
    let table = &p.tables()[t];
    let mut actions: Vec<usize> = table.def.allowed_actions.clone();
    if let Some((a, _)) = &table.def.default_action {
        actions.push(*a);
    }
    actions
}

/// Fields any allowed action of table `t` may write.
pub(crate) fn table_writes(p: &Pipeline, t: usize) -> HashSet<FieldId> {
    let mut out = HashSet::new();
    for a in table_actions(p, t) {
        if let Some(action) = p.actions().get(a) {
            for prim in &action.primitives {
                if let Some(d) = prim.dst_field() {
                    out.insert(d);
                }
            }
        }
    }
    out
}

/// Fields table `t` reads: its match keys plus every operand of its
/// allowed actions.
pub(crate) fn table_reads(p: &Pipeline, t: usize) -> HashSet<FieldId> {
    let mut out = HashSet::new();
    for (f, _) in &p.tables()[t].def.keys {
        out.insert(*f);
    }
    for a in table_actions(p, t) {
        if let Some(action) = p.actions().get(a) {
            for prim in &action.primitives {
                for f in prim.src_fields() {
                    out.insert(f);
                }
            }
        }
    }
    out
}

/// Registers an action touches.
fn action_registers(p: &Pipeline, a: usize) -> BTreeSet<usize> {
    p.actions()
        .get(a)
        .map(|action| {
            action
                .primitives
                .iter()
                .filter_map(|prim| prim.register_access().map(|(r, _)| r))
                .collect()
        })
        .unwrap_or_default()
}

/// What a control unit is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// A match-action table application.
    Table {
        /// Table id in the pipeline.
        table: usize,
        /// Table name.
        name: String,
    },
    /// A direct (keyless) action application.
    Action {
        /// Action id in the pipeline.
        action: usize,
        /// Action name.
        name: String,
    },
}

impl NodeKind {
    /// Short label for reports.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            NodeKind::Table { name, .. } => format!("table `{name}`"),
            NodeKind::Action { name, .. } => format!("action `{name}`"),
        }
    }
}

/// One control unit of the program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TdgNode {
    /// Node id (pre-order position in the control tree).
    pub id: usize,
    /// What the unit is.
    pub kind: NodeKind,
    /// Fields the unit may read (match keys included).
    pub reads: BTreeSet<FieldId>,
    /// Fields the unit may write.
    pub writes: BTreeSet<FieldId>,
    /// Registers the unit touches.
    pub registers: BTreeSet<usize>,
}

/// Why two units cannot (or should not) share a stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DepKind {
    /// Later unit writes a field the earlier one reads (WAR).
    Anti,
    /// Shared register with at least one writer.
    Register,
    /// Guarded by a condition reading the earlier unit's output.
    Control,
    /// Later unit's ALUs consume the earlier unit's output (RAW/WAW).
    Action,
    /// Later table matches on the earlier unit's output.
    Match,
}

impl fmt::Display for DepKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DepKind::Anti => "anti",
            DepKind::Register => "register",
            DepKind::Control => "control",
            DepKind::Action => "action",
            DepKind::Match => "match",
        })
    }
}

/// A dependency edge between two units (`from` executes first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TdgEdge {
    /// Producer node id.
    pub from: usize,
    /// Consumer node id.
    pub to: usize,
    /// Strongest reason for the edge.
    pub kind: DepKind,
}

/// The table dependency graph of a built pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDepGraph {
    /// Control units in pre-order.
    pub nodes: Vec<TdgNode>,
    /// Dependency edges (`from < to` always; ids are pre-order).
    pub edges: Vec<TdgEdge>,
}

/// Walk state: which nodes may have written / read each field so far on
/// the current path prefix, and who touched each register.
#[derive(Debug, Clone, Default)]
struct WalkState {
    writers: HashMap<FieldId, BTreeSet<usize>>,
    readers: HashMap<FieldId, BTreeSet<usize>>,
    /// register -> (node, wrote)
    reg_users: HashMap<usize, BTreeSet<(usize, bool)>>,
}

impl WalkState {
    fn join(&mut self, other: WalkState) {
        for (f, s) in other.writers {
            self.writers.entry(f).or_default().extend(s);
        }
        for (f, s) in other.readers {
            self.readers.entry(f).or_default().extend(s);
        }
        for (r, s) in other.reg_users {
            self.reg_users.entry(r).or_default().extend(s);
        }
    }
}

/// The read/write/register footprint of one control unit.
#[derive(Debug, Default)]
struct UnitSets {
    reads: BTreeSet<FieldId>,
    match_keys: BTreeSet<FieldId>,
    writes: BTreeSet<FieldId>,
    registers: BTreeSet<usize>,
    writes_regs: bool,
}

fn cond_fields(c: &Cond) -> Vec<FieldId> {
    let mut out = Vec::new();
    for op in [&c.a, &c.b] {
        if let Operand::Field(f) = op {
            out.push(*f);
        }
    }
    out
}

struct Builder<'p> {
    p: &'p Pipeline,
    nodes: Vec<TdgNode>,
    /// (from, to) -> strongest kind seen.
    edges: BTreeMap<(usize, usize), DepKind>,
}

impl Builder<'_> {
    fn add_edge(&mut self, from: usize, to: usize, kind: DepKind) {
        let e = self.edges.entry((from, to)).or_insert(kind);
        if kind > *e {
            *e = kind;
        }
    }

    /// Registers and emits one unit. `guards` is the stack of condition
    /// read-sets enclosing the unit.
    fn place(&mut self, kind: NodeKind, sets: UnitSets, state: &mut WalkState, guards: &[Vec<FieldId>]) {
        let UnitSets {
            reads,
            match_keys,
            writes,
            registers,
            writes_regs,
        } = sets;
        let id = self.nodes.len();
        for f in &reads {
            if let Some(ws) = state.writers.get(f) {
                let dep = if match_keys.contains(f) {
                    DepKind::Match
                } else {
                    DepKind::Action
                };
                for &w in ws {
                    self.add_edge(w, id, dep);
                }
            }
        }
        for f in &writes {
            if let Some(ws) = state.writers.get(f) {
                for &w in ws {
                    self.add_edge(w, id, DepKind::Action);
                }
            }
            if let Some(rs) = state.readers.get(f) {
                for &r in rs {
                    self.add_edge(r, id, DepKind::Anti);
                }
            }
        }
        for r in &registers {
            if let Some(users) = state.reg_users.get(r) {
                for &(m, wrote) in users {
                    if wrote || writes_regs {
                        self.add_edge(m, id, DepKind::Register);
                    }
                }
            }
        }
        for guard in guards {
            for f in guard {
                if let Some(ws) = state.writers.get(f) {
                    for &w in ws {
                        self.add_edge(w, id, DepKind::Control);
                    }
                }
            }
        }
        for f in &reads {
            state.readers.entry(*f).or_default().insert(id);
        }
        for f in &writes {
            state.writers.entry(*f).or_default().insert(id);
        }
        for r in &registers {
            state
                .reg_users
                .entry(*r)
                .or_default()
                .insert((id, writes_regs));
        }
        self.nodes.push(TdgNode {
            id,
            kind,
            reads,
            writes,
            registers,
        });
    }

    fn action_sets(&self, a: usize) -> (BTreeSet<FieldId>, BTreeSet<FieldId>, BTreeSet<usize>, bool) {
        let mut reads = BTreeSet::new();
        let mut writes = BTreeSet::new();
        let mut writes_regs = false;
        if let Some(action) = self.p.actions().get(a) {
            for prim in &action.primitives {
                reads.extend(prim.src_fields());
                if let Some(d) = prim.dst_field() {
                    writes.insert(d);
                }
                if let Some((_, w)) = prim.register_access() {
                    writes_regs |= w;
                }
            }
        }
        (reads, writes, action_registers(self.p, a), writes_regs)
    }

    fn walk(&mut self, c: &Control, state: &mut WalkState, guards: &mut Vec<Vec<FieldId>>) {
        match c {
            Control::Nop | Control::Exit | Control::Recirculate => {}
            Control::Seq(children) => {
                for child in children {
                    self.walk(child, state, guards);
                }
            }
            Control::ApplyTable(t) => {
                let match_keys: BTreeSet<FieldId> =
                    self.p.tables()[*t].def.keys.iter().map(|(f, _)| *f).collect();
                let mut sets = UnitSets {
                    reads: match_keys.iter().copied().collect(),
                    match_keys,
                    ..UnitSets::default()
                };
                for a in table_actions(self.p, *t) {
                    let (r, w, g, wr) = self.action_sets(a);
                    sets.reads.extend(r);
                    sets.writes.extend(w);
                    sets.registers.extend(g);
                    sets.writes_regs |= wr;
                }
                let kind = NodeKind::Table {
                    table: *t,
                    name: self.p.tables()[*t].def.name.clone(),
                };
                self.place(kind, sets, state, guards);
            }
            Control::ApplyAction(a) => {
                let (reads, writes, registers, writes_regs) = self.action_sets(*a);
                let kind = NodeKind::Action {
                    action: *a,
                    name: self
                        .p
                        .actions()
                        .get(*a)
                        .map_or_else(|| format!("#{a}"), |x| x.name.clone()),
                };
                let sets = UnitSets {
                    reads,
                    match_keys: BTreeSet::new(),
                    writes,
                    registers,
                    writes_regs,
                };
                self.place(kind, sets, state, guards);
            }
            Control::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let fields = cond_fields(cond);
                // The gateway reads its fields where it evaluates.
                guards.push(fields);
                let mut then_state = state.clone();
                self.walk(then_branch, &mut then_state, guards);
                if let Some(e) = else_branch {
                    let mut else_state = state.clone();
                    self.walk(e, &mut else_state, guards);
                    state.join(else_state);
                }
                guards.pop();
                state.join(then_state);
            }
        }
    }
}

impl TableDepGraph {
    /// Builds the dependency graph of a built pipeline.
    #[must_use]
    pub fn build(p: &Pipeline) -> Self {
        let mut b = Builder {
            p,
            nodes: Vec::new(),
            edges: BTreeMap::new(),
        };
        let mut state = WalkState::default();
        let mut guards = Vec::new();
        b.walk(p.control(), &mut state, &mut guards);
        let edges = b
            .edges
            .into_iter()
            .map(|((from, to), kind)| TdgEdge { from, to, kind })
            .collect();
        Self {
            nodes: b.nodes,
            edges,
        }
    }

    /// Edges pointing into `node`.
    pub(crate) fn preds(&self, node: usize) -> impl Iterator<Item = &TdgEdge> {
        self.edges.iter().filter(move |e| e.to == node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{ActionDef, Operand, Primitive};
    use crate::control::{CmpOp, Cond, Control};
    use crate::phv::fields;
    use crate::program::ProgramBuilder;
    use crate::table::{MatchKind, TableDef};
    use crate::target::TargetModel;

    fn set(dst: FieldId, v: u64) -> Primitive {
        Primitive::Set {
            dst,
            src: Operand::Const(v),
        }
    }

    #[test]
    fn match_dependency_classified() {
        let mut b = ProgramBuilder::new();
        let w = b.add_action(ActionDef::new("w", vec![set(fields::M0, 1)]));
        let n = b.add_action(ActionDef::new("n", vec![]));
        let t1 = b.add_table(TableDef {
            name: "t1".into(),
            keys: vec![(fields::IPV4_DST, MatchKind::Exact)],
            max_entries: 1,
            allowed_actions: vec![w],
            default_action: None,
        });
        let t2 = b.add_table(TableDef {
            name: "t2".into(),
            keys: vec![(fields::M0, MatchKind::Exact)],
            max_entries: 1,
            allowed_actions: vec![n],
            default_action: None,
        });
        b.set_control(Control::Seq(vec![
            Control::ApplyTable(t1),
            Control::ApplyTable(t2),
        ]));
        let p = b.build(TargetModel::bmv2()).unwrap();
        let g = TableDepGraph::build(&p);
        assert_eq!(g.nodes.len(), 2);
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.edges[0].kind, DepKind::Match);
    }

    #[test]
    fn branch_nodes_are_independent_but_control_dependent() {
        // a writes M0; the If reads M0; both branches apply actions.
        let mut b = ProgramBuilder::new();
        // Note scratch(0) == M0, so the branch bodies use scratch(2)/(3)
        // to stay independent of the writer.
        let a = b.add_action(ActionDef::new("a", vec![set(fields::M0, 1)]));
        let t = b.add_action(ActionDef::new("t", vec![set(fields::scratch(2), 1)]));
        let e = b.add_action(ActionDef::new("e", vec![set(fields::scratch(3), 1)]));
        b.set_control(Control::Seq(vec![
            Control::ApplyAction(a),
            Control::If {
                cond: Cond::new(Operand::Field(fields::M0), CmpOp::Eq, Operand::Const(0)),
                then_branch: Box::new(Control::ApplyAction(t)),
                else_branch: Some(Box::new(Control::ApplyAction(e))),
            },
        ]));
        let p = b.build(TargetModel::bmv2()).unwrap();
        let g = TableDepGraph::build(&p);
        assert_eq!(g.nodes.len(), 3);
        // Both branch nodes depend (control) on the writer; no edge
        // between the mutually-exclusive branch nodes.
        let kinds: Vec<(usize, usize, DepKind)> =
            g.edges.iter().map(|e| (e.from, e.to, e.kind)).collect();
        assert!(kinds.contains(&(0, 1, DepKind::Control)));
        assert!(kinds.contains(&(0, 2, DepKind::Control)));
        assert!(!kinds.iter().any(|(f, t, _)| *f == 1 && *t == 2));
    }

    #[test]
    fn register_sharing_serialises() {
        let mut b = ProgramBuilder::new();
        let r = b.add_register("r", 64, 4);
        let mk = |name: &str| {
            ActionDef::new(
                name,
                vec![
                    Primitive::RegRead {
                        dst: fields::M0,
                        register: r,
                        index: Operand::Const(0),
                    },
                    Primitive::RegWrite {
                        register: r,
                        index: Operand::Const(0),
                        src: Operand::Field(fields::M0),
                    },
                ],
            )
        };
        let a1 = b.add_action(mk("a1"));
        let a2 = b.add_action(mk("a2"));
        b.set_control(Control::Seq(vec![
            Control::ApplyAction(a1),
            Control::ApplyAction(a2),
        ]));
        let p = b.build(TargetModel::bmv2()).unwrap();
        let g = TableDepGraph::build(&p);
        assert!(g
            .edges
            .iter()
            .any(|e| e.from == 0 && e.to == 1 && e.kind >= DepKind::Register));
    }
}
