//! Static resource and dependency analysis.
//!
//! Reproduces the quantities of the paper's Sec. 4 "Resource
//! Consumption" paragraph for any program:
//!
//! - **memory footprint** — bytes of register state plus match-action
//!   table capacity (the paper reports 3.1 KB for the case-study app);
//! - **match-action dependencies** — ordered pairs of tables on one
//!   execution path where the later table reads a field some action of
//!   the earlier table may write (the paper: "at most one dependency
//!   between match-action rules");
//! - **longest sequential dependency chain** — the critical path of
//!   primitive operations along the worst execution path (the paper: "12
//!   sequential steps, used to override the oldest counter");
//! - **pipeline stages** — the depth the [`crate::analysis`] stage
//!   allocator assigns under the target's per-stage limits, with the
//!   per-stage footprint.
//!
//! Path enumeration and the table read/write sets come from
//! [`crate::analysis::tdg`] — the same code the static verifier uses,
//! so the resource report and the lint can never disagree about
//! dependency structure.
//!
//! The byte model is intentionally simple and documented per match kind;
//! absolute numbers are compared against the paper's in
//! `EXPERIMENTS.md`, shape first.

use crate::action::ActionDef;
use crate::analysis::tdg::{paths, table_actions, table_reads, table_writes, Item};
use crate::analysis::{allocate, TableDepGraph};
use crate::control::Control;
use crate::phv::FieldId;
use crate::pipeline::Pipeline;
use crate::table::MatchKind;
use crate::target::TargetModel;
use std::collections::HashSet;
use std::fmt;

/// One pipeline stage's footprint in the allocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageFootprint {
    /// Match-action tables hosted: `(name, ...)`.
    pub tables: Vec<String>,
    /// Direct actions executed (VLIW-only, no table slot).
    pub actions: Vec<String>,
    /// Registers whose stateful ALU lives here.
    pub registers: Vec<String>,
}

/// The analyser's findings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceReport {
    /// Bytes of register state, per register: `(name, bytes)`.
    pub registers: Vec<(String, usize)>,
    /// Bytes of table capacity, per table: `(name, bytes)`.
    pub tables: Vec<(String, usize)>,
    /// Total register bytes.
    pub register_bytes: usize,
    /// Total table bytes.
    pub table_bytes: usize,
    /// Longest sequential dependency chain (interpreter steps, `Msb`
    /// charged at the target's cost) over any execution path.
    pub longest_chain_steps: u64,
    /// Most tables applied to a single packet.
    pub max_tables_per_packet: usize,
    /// Maximum number of match-action dependencies on one path.
    pub match_dependencies: usize,
    /// Pipeline stages the allocator assigned (depth of the placed
    /// table-dependency graph under the target's per-stage limits).
    pub stage_estimate: u32,
    /// Whether the allocation fits the analysed target (stage count and
    /// per-stage resource limits).
    pub fits_target: bool,
    /// What each allocated stage hosts (index 0 = stage 1).
    pub stage_footprint: Vec<StageFootprint>,
    /// Critical-path length of every action, `(name, steps)`, longest
    /// first — the per-fragment view of the dependency chains (the
    /// paper's "12 sequential steps to override the oldest counter"
    /// corresponds to one entry here).
    pub action_chains: Vec<(String, u64)>,
}

impl ResourceReport {
    /// Total memory footprint in bytes.
    #[must_use]
    pub(crate) fn total_bytes(&self) -> usize {
        self.register_bytes + self.table_bytes
    }

    /// Total memory footprint in kilobytes.
    #[must_use]
    pub fn total_kb(&self) -> f64 {
        self.total_bytes() as f64 / 1024.0
    }
}

impl fmt::Display for ResourceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "memory: {:.1} KB total", self.total_kb())?;
        writeln!(
            f,
            "  registers: {} B across {}",
            self.register_bytes,
            self.registers.len()
        )?;
        writeln!(
            f,
            "  tables:    {} B across {}",
            self.table_bytes,
            self.tables.len()
        )?;
        writeln!(f, "longest dependency chain: {} steps", self.longest_chain_steps)?;
        writeln!(f, "max tables per packet: {}", self.max_tables_per_packet)?;
        writeln!(f, "match-action dependencies: {}", self.match_dependencies)?;
        write!(
            f,
            "pipeline stages: {} ({})",
            self.stage_estimate,
            if self.fits_target {
                "fits target"
            } else {
                "EXCEEDS TARGET"
            }
        )?;
        for (i, s) in self.stage_footprint.iter().enumerate() {
            write!(
                f,
                "\n  stage {}: {} table(s), {} action(s), {} register(s)",
                i + 1,
                s.tables.len(),
                s.actions.len(),
                s.registers.len()
            )?;
        }
        Ok(())
    }
}

/// Bytes one entry of a key component costs.
fn key_bytes(kind: &MatchKind) -> usize {
    match kind {
        MatchKind::Exact => 4,
        MatchKind::Lpm { width } => usize::from(*width) / 8 + 1,
        // value + mask / lo + hi at 64-bit.
        MatchKind::Ternary | MatchKind::Range => 16,
    }
}

/// Critical-path cost of an action's primitive DAG.
#[allow(clippy::needless_range_loop)] // index loops mirror the DAG recurrence
fn action_chain_steps(a: &ActionDef, target: &TargetModel) -> u64 {
    let n = a.primitives.len();
    let mut cp = vec![0u64; n];
    for i in 0..n {
        let reads: HashSet<FieldId> = a.primitives[i].src_fields().into_iter().collect();
        let writes = a.primitives[i].dst_field();
        let reg = a.primitives[i].register_access();
        let mut best = 0u64;
        for j in 0..i {
            let j_writes = a.primitives[j].dst_field();
            let j_reads: HashSet<FieldId> = a.primitives[j].src_fields().into_iter().collect();
            let j_reg = a.primitives[j].register_access();
            // RAW: i reads what j wrote.
            let raw = j_writes.is_some_and(|w| reads.contains(&w));
            // WAW / WAR on the same field.
            let waw = writes.is_some() && writes == j_writes;
            let war = writes.is_some_and(|w| j_reads.contains(&w));
            // Same-register accesses serialise (stateful ALU semantics).
            let regdep = match (reg, j_reg) {
                (Some((r1, w1)), Some((r2, w2))) => r1 == r2 && (w1 || w2),
                _ => false,
            };
            if raw || waw || war || regdep {
                best = best.max(cp[j]);
            }
        }
        cp[i] = best + a.primitives[i].cost(target);
    }
    cp.into_iter().max().unwrap_or(0)
}

/// The most expensive execution path through `c`: a table apply costs
/// one step for the match plus its costliest action, an action costs
/// `action(a)`, and a branch or a recirculation request `control`.
fn worst_path(p: &Pipeline, c: &Control, control: u64, action: &dyn Fn(&ActionDef) -> u64) -> u64 {
    let act = |a: usize| p.actions().get(a).map_or(0, action);
    match c {
        Control::Nop | Control::Exit => 0,
        Control::Seq(children) => children.iter().map(|c| worst_path(p, c, control, action)).sum(),
        Control::ApplyTable(t) => 1 + table_actions(p, *t).into_iter().map(act).max().unwrap_or(0),
        Control::ApplyAction(a) => act(*a),
        Control::If {
            then_branch,
            else_branch,
            ..
        } => {
            let other = else_branch.as_ref().map_or(0, |e| worst_path(p, e, control, action));
            control + worst_path(p, then_branch, control, action).max(other)
        }
        Control::Recirculate => control,
    }
}

/// Longest sequential dependency chain (in interpreter steps, `Msb`
/// charged at the target's cost) over any execution path: the paper's
/// "12 sequential steps" figure.
pub(crate) fn worst_path_steps(p: &Pipeline, target: &TargetModel) -> u64 {
    worst_path(p, p.control(), 0, &|a| action_chain_steps(a, target))
}

/// Steps the interpreter charges a packet on the most expensive path:
/// every primitive at its [`Primitive::cost`](crate::action::Primitive::cost),
/// one per table apply, branch and recirculation, and every pass again
/// when the program recirculates. This sum, not the dependency chain,
/// is what a target's `step_budget` bounds: `ProgramBuilder::build`
/// refuses a program past it, so no packet can be charged more.
pub(crate) fn worst_packet_steps(p: &Pipeline, target: &TargetModel) -> u64 {
    let pass = worst_path(p, p.control(), 1, &|a| {
        a.primitives.iter().map(|q| q.cost(target)).sum()
    });
    let passes = if p.control().recirculates() {
        1 + u64::from(target.max_recirculations)
    } else {
        1
    };
    pass * passes
}

/// Analyses a built pipeline.
#[must_use]
pub fn analyze(p: &Pipeline) -> ResourceReport {
    let target = *p.target();

    let registers: Vec<(String, usize)> = p
        .registers()
        .iter()
        .map(|r| {
            let cell_bytes = (r.width_bits as usize).div_ceil(8);
            (r.name.clone(), r.cells.len() * cell_bytes)
        })
        .collect();
    let register_bytes = registers.iter().map(|(_, b)| b).sum();

    let tables: Vec<(String, usize)> = p
        .tables()
        .iter()
        .map(|t| {
            let key_cost: usize = t.def.keys.iter().map(|(_, k)| key_bytes(k)).sum();
            let data_cost = t
                .def
                .allowed_actions
                .iter()
                .filter_map(|a| p.actions().get(*a))
                .map(ActionDef::data_slots_required)
                .max()
                .unwrap_or(0)
                * 4;
            // +1 byte selecting the action.
            (t.def.name.clone(), t.def.max_entries * (key_cost + data_cost + 1))
        })
        .collect();
    let table_bytes = tables.iter().map(|(_, b)| b).sum();

    let mut action_chains: Vec<(String, u64)> = p
        .actions()
        .iter()
        .map(|a| (a.name.clone(), action_chain_steps(a, &target)))
        .collect();
    action_chains.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    let longest_chain_steps = worst_path_steps(p, &target);

    let mut max_tables_per_packet = 0usize;
    let mut match_dependencies = 0usize;
    for path in paths(p.control()) {
        let tables_on_path: Vec<usize> = path
            .iter()
            .filter_map(|i| match i {
                Item::Table(t) => Some(*t),
                Item::Action(_) => None,
            })
            .collect();
        max_tables_per_packet = max_tables_per_packet.max(tables_on_path.len());

        let n = tables_on_path.len();
        let mut deps = 0usize;
        for j in 0..n {
            for i in 0..j {
                let writes = table_writes(p, tables_on_path[i]);
                let reads = table_reads(p, tables_on_path[j]);
                if writes.iter().any(|f| reads.contains(f)) {
                    deps += 1;
                }
            }
        }
        match_dependencies = match_dependencies.max(deps);
    }

    // Stage placement comes from the real allocator; diagnostics are the
    // verifier's concern (`crate::analysis::verify`), only the shape is
    // reported here.
    let tdg = TableDepGraph::build(p);
    let mut diags = Vec::new();
    let allocation = allocate(p, &tdg, &target, &mut diags);
    let reg_name = |r: usize| {
        p.registers()
            .get(r)
            .map_or_else(|| format!("#{r}"), |reg| reg.name.clone())
    };
    let stage_footprint: Vec<StageFootprint> = allocation
        .stages
        .iter()
        .map(|s| StageFootprint {
            tables: s
                .tables
                .iter()
                .map(|t| p.tables()[*t].def.name.clone())
                .collect(),
            actions: s
                .actions
                .iter()
                .map(|a| {
                    p.actions()
                        .get(*a)
                        .map_or_else(|| format!("#{a}"), |x| x.name.clone())
                })
                .collect(),
            registers: s.registers.iter().map(|r| reg_name(*r)).collect(),
        })
        .collect();

    ResourceReport {
        registers,
        tables,
        register_bytes,
        table_bytes,
        longest_chain_steps,
        max_tables_per_packet,
        match_dependencies,
        stage_estimate: allocation.depth,
        fits_target: allocation.fits,
        stage_footprint,
        action_chains,
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

    #[test]
    fn register_bytes_model() {
        let mut b = ProgramBuilder::new();
        b.add_register("a", 64, 100); // 800 B
        b.add_register("b", 32, 10); // 40 B
        b.add_register("c", 8, 3); // 3 B
        let p = b.build(TargetModel::bmv2()).unwrap();
        let r = analyze(&p);
        assert_eq!(r.register_bytes, 843);
        assert_eq!(r.registers[0], ("a".into(), 800));
        assert_eq!(r.table_bytes, 0);
        assert_eq!(r.longest_chain_steps, 0);
        assert!(r.stage_footprint.is_empty());
    }

    #[test]
    fn chain_respects_data_dependencies() {
        // Three dependent ops: read -> add -> write (same register): all
        // serialise. Plus one independent op that does not extend the
        // chain.
        let mut b = ProgramBuilder::new();
        let reg = b.add_register("r", 64, 4);
        let a = b.add_action(ActionDef::new(
            "chain",
            vec![
                Primitive::RegRead {
                    dst: fields::M0,
                    register: reg,
                    index: Operand::Const(0),
                },
                Primitive::Add {
                    dst: fields::M0,
                    a: Operand::Field(fields::M0),
                    b: Operand::Const(1),
                },
                Primitive::RegWrite {
                    register: reg,
                    index: Operand::Const(0),
                    src: Operand::Field(fields::M0),
                },
                // Independent: writes a different field from constants.
                Primitive::Set {
                    dst: fields::scratch(5),
                    src: Operand::Const(9),
                },
            ],
        ));
        b.set_control(Control::ApplyAction(a));
        let p = b.build(TargetModel::bmv2()).unwrap();
        let r = analyze(&p);
        assert_eq!(r.longest_chain_steps, 3, "3 dependent, 1 parallel");
    }

    #[test]
    fn msb_charged_at_target_cost() {
        let mut b = ProgramBuilder::new();
        let a = b.add_action(ActionDef::new(
            "m",
            vec![
                Primitive::Msb {
                    dst: fields::M0,
                    src: Operand::Field(fields::PKT_LEN),
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
        let r = analyze(&p);
        assert_eq!(
            r.longest_chain_steps,
            u64::from(TargetModel::bmv2().msb_cost) + 1
        );
    }

    #[test]
    fn dependent_tables_counted() {
        let mut b = ProgramBuilder::new();
        // Table 1's action writes M0; table 2 matches on M0.
        let w = b.add_action(ActionDef::new(
            "w",
            vec![Primitive::Set {
                dst: fields::M0,
                src: Operand::Const(1),
            }],
        ));
        let n = b.add_action(ActionDef::new("n", vec![]));
        let t1 = b.add_table(TableDef {
            name: "t1".into(),
            keys: vec![(fields::IPV4_DST, MatchKind::Exact)],
            max_entries: 2,
            allowed_actions: vec![w],
            default_action: None,
        });
        let t2 = b.add_table(TableDef {
            name: "t2".into(),
            keys: vec![(fields::M0, MatchKind::Exact)],
            max_entries: 2,
            allowed_actions: vec![n],
            default_action: None,
        });
        b.set_control(Control::Seq(vec![
            Control::ApplyTable(t1),
            Control::ApplyTable(t2),
        ]));
        let p = b.build(TargetModel::bmv2()).unwrap();
        let r = analyze(&p);
        assert_eq!(r.max_tables_per_packet, 2);
        assert_eq!(r.match_dependencies, 1);
        assert_eq!(r.stage_estimate, 2);
        assert!(r.fits_target);
        assert_eq!(r.stage_footprint.len(), 2);
        assert_eq!(r.stage_footprint[0].tables, vec!["t1".to_string()]);
        assert_eq!(r.stage_footprint[1].tables, vec!["t2".to_string()]);
    }

    #[test]
    fn independent_tables_share_stage() {
        let mut b = ProgramBuilder::new();
        let n = b.add_action(ActionDef::new("n", vec![]));
        let t1 = b.add_table(TableDef {
            name: "t1".into(),
            keys: vec![(fields::IPV4_DST, MatchKind::Exact)],
            max_entries: 2,
            allowed_actions: vec![n],
            default_action: None,
        });
        let t2 = b.add_table(TableDef {
            name: "t2".into(),
            keys: vec![(fields::IPV4_SRC, MatchKind::Exact)],
            max_entries: 2,
            allowed_actions: vec![n],
            default_action: None,
        });
        b.set_control(Control::Seq(vec![
            Control::ApplyTable(t1),
            Control::ApplyTable(t2),
        ]));
        let p = b.build(TargetModel::bmv2()).unwrap();
        let r = analyze(&p);
        assert_eq!(r.match_dependencies, 0);
        assert_eq!(r.stage_estimate, 1, "independent tables pack together");
        assert_eq!(r.stage_footprint[0].tables.len(), 2);
    }

    #[test]
    fn branches_take_worst_path() {
        let mut b = ProgramBuilder::new();
        let long = b.add_action(ActionDef::new(
            "long",
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
        let short = b.add_action(ActionDef::new(
            "short",
            vec![Primitive::Set {
                dst: fields::M0,
                src: Operand::Const(0),
            }],
        ));
        b.set_control(Control::If {
            cond: Cond::new(Operand::Field(fields::PKT_LEN), CmpOp::Gt, Operand::Const(100)),
            then_branch: Box::new(Control::ApplyAction(long)),
            else_branch: Some(Box::new(Control::ApplyAction(short))),
        });
        let p = b.build(TargetModel::bmv2()).unwrap();
        let r = analyze(&p);
        assert_eq!(r.longest_chain_steps, 3);
    }

    #[test]
    fn table_bytes_model() {
        let mut b = ProgramBuilder::new();
        let fwd = b.add_action(ActionDef::new(
            "fwd",
            vec![Primitive::Forward {
                port: Operand::Data(0),
            }],
        ));
        b.add_table(TableDef {
            name: "routes".into(),
            keys: vec![(fields::IPV4_DST, MatchKind::Lpm { width: 32 })],
            max_entries: 100,
            allowed_actions: vec![fwd],
            default_action: None,
        });
        let p = b.build(TargetModel::bmv2()).unwrap();
        let r = analyze(&p);
        // (32/8 + 1) key + 4 data + 1 action byte = 10 per entry.
        assert_eq!(r.table_bytes, 1000);
        assert_eq!(r.total_bytes(), 1000);
        assert!((r.total_kb() - 1000.0 / 1024.0).abs() < 1e-9);
    }

    #[test]
    fn display_renders() {
        let b = ProgramBuilder::new();
        let p = b.build(TargetModel::bmv2()).unwrap();
        let r = analyze(&p);
        let s = r.to_string();
        assert!(s.contains("memory"));
        assert!(s.contains("fits target"));
    }

    /// Programs that together meet every term of `worst_path`: a table
    /// whose actions differ in cost, with a cheaper default action; an
    /// `If` with an `else` nested in a then-branch; an `Exit` inside a
    /// branch; an `Msb`; a recirculation; and a straight line, which
    /// every packet runs whole.
    fn bound_programs(target: TargetModel) -> [(&'static str, Pipeline); 3] {
        use crate::runtime::RuntimeRequest;
        use crate::table::{Entry, MatchValue};
        let set = |i| Primitive::Set { dst: fields::scratch(i), src: Operand::Const(1) };
        let msb = || Primitive::Msb { dst: fields::M0, src: Operand::Field(fields::PKT_LEN) };
        let cmp = |f, op, c| Cond::new(Operand::Field(f), op, Operand::Const(c));

        let mut b = ProgramBuilder::new();
        let cheap = b.add_action(ActionDef::new("cheap", vec![set(1)]));
        let dear = b.add_action(ActionDef::new("dear", vec![msb(), set(2), set(3)]));
        let miss = b.add_action(ActionDef::new("miss", vec![set(4), set(5)]));
        let wide = b.add_action(ActionDef::new("wide", vec![msb(), set(6)]));
        let tail = b.add_action(ActionDef::new("tail", vec![set(7)]));
        let t = b.add_table(TableDef {
            name: "t".into(),
            keys: vec![(fields::PAYLOAD_VALUE, MatchKind::Exact)],
            max_entries: 4,
            allowed_actions: vec![cheap, dear],
            default_action: Some((miss, vec![])),
        });
        b.set_control(Control::Seq(vec![
            Control::If {
                cond: cmp(fields::PKT_LEN, CmpOp::Ge, 64),
                then_branch: Box::new(Control::Seq(vec![
                    Control::ApplyTable(t),
                    Control::If {
                        cond: cmp(fields::INGRESS_PORT, CmpOp::Eq, 1),
                        then_branch: Box::new(Control::ApplyAction(wide)),
                        else_branch: Some(Box::new(Control::ApplyAction(cheap))),
                    },
                ])),
                else_branch: Some(Box::new(Control::Seq(vec![
                    Control::If {
                        cond: cmp(fields::INGRESS_PORT, CmpOp::Eq, 0),
                        then_branch: Box::new(Control::Exit),
                        else_branch: None,
                    },
                    Control::ApplyAction(dear),
                ]))),
            },
            Control::ApplyAction(tail),
        ]));
        let mut branchy = b.build(target).unwrap();
        for (key, action) in [(1, cheap), (2, dear), (3, dear)] {
            let entry = Entry { key: vec![MatchValue::Exact(key)], priority: 0, action, action_data: vec![] };
            assert!(branchy.runtime(&RuntimeRequest::InsertEntry { table: t, entry }).is_ok());
        }

        // Passes until a counter reaches the packet's timestamp, or the
        // target's recirculation limit does.
        let mut b = ProgramBuilder::new();
        let depth = fields::scratch(0);
        let bump = b.add_action(ActionDef::new(
            "bump",
            vec![Primitive::Add { dst: depth, a: Operand::Field(depth), b: Operand::Const(1) }],
        ));
        b.set_control(Control::Seq(vec![
            Control::ApplyAction(bump),
            Control::If {
                cond: Cond::new(Operand::Field(depth), CmpOp::Lt, Operand::Field(fields::TIMESTAMP_NS)),
                then_branch: Box::new(Control::Recirculate),
                else_branch: None,
            },
        ]));
        let recirculating = b.build(target).unwrap();

        let mut b = ProgramBuilder::new();
        let only = b.add_action(ActionDef::new("only", vec![set(1), msb()]));
        let s = b.add_table(TableDef {
            name: "s".into(),
            keys: vec![(fields::PAYLOAD_VALUE, MatchKind::Exact)],
            max_entries: 1,
            allowed_actions: vec![only],
            default_action: Some((only, vec![])),
        });
        let last = b.add_action(ActionDef::new("last", vec![msb(), set(2)]));
        b.set_control(Control::Seq(vec![Control::ApplyTable(s), Control::ApplyAction(last)]));
        let straight = b.build(target).unwrap();

        [("branchy", branchy), ("recirculating", recirculating), ("straight", straight)]
    }

    /// A packet as `(PKT_LEN, INGRESS_PORT, PAYLOAD_VALUE, TIMESTAMP_NS)`.
    fn packet_phv((len, port, key, depth): (u64, u64, u64, u64)) -> Phv {
        let mut phv = Phv::new();
        phv.set(fields::PKT_LEN, len);
        phv.set(fields::INGRESS_PORT, port);
        phv.set(fields::PAYLOAD_VALUE, key);
        phv.set(fields::TIMESTAMP_NS, depth);
        phv
    }

    /// The packet that takes every program's most expensive path: long,
    /// on port 1, hitting `dear`, and deeper than any recirculation limit.
    const WORST_PACKET: (u64, u64, u64, u64) = (100, 1, 2, 23);

    use crate::phv::Phv;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `worst_packet_steps` is what `build` holds a program to, so it
        /// must bound every packet's charge on both targets; a straight
        /// line, and the worst path of the others, reach it exactly.
        #[test]
        fn packet_steps_never_pass_the_worst_path_bound(
            packets in proptest::collection::vec((0u64..128, 0u64..3, 0u64..5, 0u64..24), 1..48),
        ) {
            for target in [TargetModel::bmv2(), TargetModel::tofino_like()] {
                for (name, mut p) in bound_programs(target) {
                    let bound = worst_packet_steps(&p, &target);
                    for &packet in &packets {
                        let steps = p.process_phv(&mut packet_phv(packet)).unwrap().steps;
                        prop_assert!(steps <= bound, "{} on {}: {:?} ran {} > {}", name, target.name, packet, steps, bound);
                        if name == "straight" {
                            prop_assert_eq!(steps, bound);
                        }
                    }
                    let worst = p.process_phv(&mut packet_phv(WORST_PACKET)).unwrap().steps;
                    prop_assert_eq!(worst, bound, "{} on {}", name, target.name);
                }
            }
        }
    }
}
