//! The pipeline interpreter: executes a validated program packet by
//! packet against register state.

use crate::action::{exec_primitive, hash, msb, ActionDef, Alu, Domain, Operand};
use crate::control::Control;
use crate::error::{P4Error, P4Result};
use crate::parser::parse_frame;
use crate::phv::{fields, FieldId, Phv};
use crate::table::Table;
use crate::target::TargetModel;
use stat4_core::delta::DirtyJournal;
use telemetry::json::{field, field_with, obj, At, FromJson, Json, ToJson};

/// How one register's per-shard state folds into a whole-switch view
/// during sharded replay (`crate::replay::merge_registers`), and the
/// algebra the merge-soundness check (`S4L015`) verifies the register's
/// update function against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum RegMerge {
    /// Cellwise wrapping addition masked to the register width — the
    /// arithmetic a fixed-width hardware register performs. Correct for
    /// counters and sum/sum-of-squares accumulators.
    #[default]
    Sum,
    /// Cellwise saturating addition clamped at the width mask.
    SatSum,
    /// Cellwise maximum (high-water marks).
    Max,
    /// Not mergeable cellwise: state encodes order (ring heads, marker
    /// positions, seeded-once flags). The merge keeps the destination
    /// shard's cells, and the register is exempt from the soundness
    /// check — a higher-level rebuild must reconcile it.
    None,
}

impl RegMerge {
    /// Folds one source cell into a destination cell under this policy
    /// (`mask` is the register's width mask). `None` keeps `dst`.
    #[must_use]
    pub(crate) fn combine(self, dst: u64, src: u64, mask: u64) -> u64 {
        match self {
            RegMerge::Sum => dst.wrapping_add(src) & mask,
            RegMerge::SatSum => dst.saturating_add(src).min(mask),
            RegMerge::Max => dst.max(src),
            RegMerge::None => dst,
        }
    }
}

/// A stateful register array.
#[derive(Debug, Clone)]
pub struct Register {
    /// Name for reports.
    pub name: String,
    /// Cell width in bits (writes are masked).
    pub width_bits: u32,
    /// Cell storage.
    pub cells: Vec<u64>,
    /// Declared cross-shard merge policy (see [`RegMerge`]).
    pub merge: RegMerge,
    /// Cells written since the last [`Pipeline::take_register_delta`]
    /// — the changed-register-span journal behind sparse cross-shard
    /// merges. Bookkeeping, not identity: excluded from eq.
    pub(crate) journal: DirtyJournal,
}

/// Equality is over the declared shape and cell contents only — the
/// dirty journal is bookkeeping, not identity.
impl PartialEq for Register {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.width_bits == other.width_bits
            && self.cells == other.cells
            && self.merge == other.merge
    }
}

impl Eq for Register {}

impl Register {
    pub(crate) fn mask(&self) -> u64 {
        if self.width_bits >= 64 {
            u64::MAX
        } else {
            (1u64 << self.width_bits) - 1
        }
    }

    /// The one journaled write path: records the cell's pre-write value
    /// on first touch, then writes `v` masked to the register width.
    /// Every interpreter/controller mutation funnels through here so
    /// register deltas stay complete.
    pub(crate) fn write_cell(&mut self, i: usize, v: u64) {
        self.journal.mark(i, self.cells[i]);
        self.cells[i] = v & self.mask();
    }
}

/// A digest pushed to the controller during packet processing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestRecord {
    /// Application-defined digest kind.
    pub id: u16,
    /// Evaluated payload values.
    pub values: Vec<u64>,
}

/// What happened to one packet.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PacketOutcome {
    /// Egress port, if forwarded.
    pub egress: Option<u64>,
    /// True if dropped.
    pub dropped: bool,
    /// Extra pipeline passes the packet consumed.
    pub recirculations: u32,
    /// Set while a pass is executing when the next pass was requested.
    recirculate_requested: bool,
    /// Digests emitted (push alerts to the controller).
    pub digests: Vec<DigestRecord>,
    /// Interpreter steps consumed (primitives + table lookups).
    pub steps: u64,
    /// `(table_id, hit)` for every table applied, in order.
    pub tables_applied: Vec<(usize, bool)>,
}

/// A snapshot of a pipeline's mutable state — every register cell plus
/// the packet counter — for crash-recovery checkpoints and hot-swap
/// shadow transfer. The static definition (tables, actions, control
/// tree) is deliberately not captured: a restore target is a fresh
/// build of the same program, and [`Pipeline::restore_state`] verifies
/// the register file lines up before touching anything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineState {
    /// `(register name, cells)` in declaration order.
    pub registers: Vec<(String, Vec<u64>)>,
    /// Packets processed when the state was captured.
    pub packets_processed: u64,
}

/// A named register's cells as a `{"name", "cells"}` object, which a
/// pair has no field names for: how a checkpoint and a witness list
/// register contents.
pub(crate) fn register_json((name, cells): &(String, Vec<u64>)) -> Json {
    obj(vec![("name", name.to_json()), ("cells", cells.to_json())])
}

/// A register is written as a `{"name", "cells"}` object, which a pair
/// has no field names for, so both halves are spelled out.
impl ToJson for PipelineState {
    fn to_json(&self) -> Json {
        obj(vec![
            ("registers", Json::Arr(self.registers.iter().map(register_json).collect())),
            ("packets_processed", self.packets_processed.to_json()),
        ])
    }
}

impl FromJson for PipelineState {
    fn from_json(v: &Json, at: At<'_>) -> Result<Self, String> {
        let registers = field_with(v, "registers", at, |list, at| {
            let list = list.as_arr().ok_or_else(|| at.err("not an array"))?;
            let register = |(i, r)| {
                let at = At::Idx(&at, i);
                Ok((field(r, "name", at)?, field(r, "cells", at)?))
            };
            list.iter().enumerate().map(register).collect::<Result<_, String>>()
        })?;
        Ok(Self { registers, packets_processed: field(v, "packets_processed", at)? })
    }
}

/// A complete program instance: static definition plus mutable state.
#[derive(Debug, Clone)]
pub struct Pipeline {
    pub(crate) target: TargetModel,
    pub(crate) registers: Vec<Register>,
    pub(crate) actions: Vec<ActionDef>,
    pub(crate) tables: Vec<Table>,
    pub(crate) control: Control,
    pub(crate) packets_processed: u64,
    /// `packets_processed` at the last [`Self::take_register_delta`].
    pub(crate) taken_packets: u64,
}

impl Pipeline {
    pub(crate) fn from_parts(
        target: TargetModel,
        registers: Vec<Register>,
        actions: Vec<ActionDef>,
        tables: Vec<Table>,
        control: Control,
    ) -> Self {
        Self {
            target,
            registers,
            actions,
            tables,
            control,
            packets_processed: 0,
            taken_packets: 0,
        }
    }

    /// The target this program was validated against.
    #[must_use]
    pub fn target(&self) -> &TargetModel {
        &self.target
    }

    /// Number of packets processed so far.
    #[must_use]
    pub fn packets_processed(&self) -> u64 {
        self.packets_processed
    }

    /// Read-only register access (tests, resource accounting; the
    /// controller path goes through [`crate::runtime`]).
    #[must_use]
    pub fn registers(&self) -> &[Register] {
        &self.registers
    }

    /// Captures the pipeline's mutable state (register cells + packet
    /// counter) for a checkpoint; see [`PipelineState`].
    #[must_use]
    pub fn export_state(&self) -> PipelineState {
        PipelineState {
            registers: self
                .registers
                .iter()
                .map(|r| (r.name.clone(), r.cells.clone()))
                .collect(),
            packets_processed: self.packets_processed,
        }
    }

    /// Restores state previously captured by [`Pipeline::export_state`]
    /// from a pipeline running the same program. All-or-nothing: the
    /// register file (names, order, cell counts) is validated in full
    /// before any cell is written, so a mismatched snapshot leaves the
    /// pipeline untouched. Restored cells are masked to the declared
    /// register width.
    ///
    /// # Errors
    ///
    /// [`P4Error::Invalid`] naming the first mismatched register.
    pub fn restore_state(&mut self, state: &PipelineState) -> P4Result<()> {
        if state.registers.len() != self.registers.len() {
            return Err(P4Error::Invalid {
                what: format!(
                    "state snapshot has {} register(s), program declares {}",
                    state.registers.len(),
                    self.registers.len()
                ),
            });
        }
        for (reg, (name, cells)) in self.registers.iter().zip(&state.registers) {
            if reg.name != *name {
                return Err(P4Error::Invalid {
                    what: format!("state register `{name}` where program declares `{}`", reg.name),
                });
            }
            if reg.cells.len() != cells.len() {
                return Err(P4Error::Invalid {
                    what: format!(
                        "register `{name}`: snapshot has {} cell(s), program declares {}",
                        cells.len(),
                        reg.cells.len()
                    ),
                });
            }
        }
        for (reg, (_, cells)) in self.registers.iter_mut().zip(&state.registers) {
            let mask = reg.mask();
            for (dst, src) in reg.cells.iter_mut().zip(cells) {
                *dst = src & mask;
            }
            // A restore replaces the whole file: re-base the journal so
            // the next delta is relative to the restored state (a
            // consumer must full-merge once before trusting deltas).
            reg.journal.clear();
        }
        self.packets_processed = state.packets_processed;
        self.taken_packets = state.packets_processed;
        Ok(())
    }

    /// Drains the per-register dirty journals into a
    /// [`crate::replay::PipelineDelta`] — the changed-register spans
    /// since the last take — and re-bases them.
    ///
    /// The delta holds every write a packet or the controller made since
    /// the last take: both write registers only through
    /// `Register::write_cell`, which journals. [`Self::restore_state`]
    /// re-bases the journals, so a consumer full-merges once after a
    /// restore.
    pub fn take_register_delta(&mut self) -> crate::replay::PipelineDelta {
        let packets_base = self.taken_packets;
        self.taken_packets = self.packets_processed;
        let mut regs = Vec::new();
        for (i, r) in self.registers.iter_mut().enumerate() {
            if !r.journal.is_empty() {
                let mut cells = Vec::new();
                r.journal.drain_cells_into(&r.cells, &mut cells);
                regs.push(crate::replay::RegisterDelta { register: i, cells });
            }
        }
        crate::replay::PipelineDelta {
            regs,
            packets_base,
            packets_cur: self.packets_processed,
        }
    }

    /// Read-only table access.
    #[must_use]
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// Actions (for reports).
    #[must_use]
    pub fn actions(&self) -> &[ActionDef] {
        &self.actions
    }

    /// Control tree (for analysis).
    #[must_use]
    pub fn control(&self) -> &Control {
        &self.control
    }

    /// Parses `frame` and runs it through the pipeline.
    ///
    /// # Errors
    ///
    /// Propagates interpreter errors ([`P4Error::RegisterOutOfBounds`],
    /// [`P4Error::StepBudgetExhausted`], …).
    pub fn process_frame(
        &mut self,
        frame: &[u8],
        ingress_port: u64,
        timestamp_ns: u64,
    ) -> P4Result<(Phv, PacketOutcome)> {
        let mut phv = parse_frame(frame, ingress_port, timestamp_ns);
        let outcome = self.process_phv(&mut phv)?;
        Ok((phv, outcome))
    }

    /// Runs an already-parsed PHV through the pipeline.
    ///
    /// # Errors
    ///
    /// Propagates interpreter errors.
    pub fn process_phv(&mut self, phv: &mut Phv) -> P4Result<PacketOutcome> {
        let mut outcome = PacketOutcome::default();
        let mut exec = Exec {
            target: &self.target,
            actions: &self.actions,
            tables: &self.tables,
            registers: &mut self.registers,
        };
        exec.exec_control(&self.control, phv, &mut outcome)?;
        while outcome.recirculate_requested {
            outcome.recirculate_requested = false;
            if outcome.recirculations >= self.target.max_recirculations {
                // Bounded like hardware: the packet proceeds without the
                // extra pass rather than looping forever.
                break;
            }
            outcome.recirculations += 1;
            exec.exec_control(&self.control, phv, &mut outcome)?;
        }
        if phv.dropped() {
            outcome.dropped = true;
            outcome.egress = None;
        } else {
            let e = phv.get(fields::EGRESS_PORT);
            outcome.egress = (e != 0 || !outcome.tables_applied.is_empty()).then_some(e);
        }
        self.packets_processed += 1;
        Ok(outcome)
    }
}

/// One packet's view of a [`Pipeline`]. The program is immutable after
/// `build`, so a packet borrows it — control tree, actions, matched
/// entries and their action data are all used in place, never copied —
/// and only the register file is `&mut`.
struct Exec<'a> {
    target: &'a TargetModel,
    actions: &'a [ActionDef],
    tables: &'a [Table],
    registers: &'a mut Vec<Register>,
}

impl Exec<'_> {
    fn exec_control(
        &mut self,
        c: &Control,
        phv: &mut Phv,
        outcome: &mut PacketOutcome,
    ) -> P4Result<bool> {
        // Returns false when an Exit was hit.
        match c {
            Control::Nop => Ok(true),
            Control::Seq(children) => {
                for child in children {
                    if !self.exec_control(child, phv, outcome)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Control::ApplyTable(tid) => {
                self.target.charge(&mut outcome.steps, 1)?;
                let table = self.tables.get(*tid).ok_or(P4Error::UnknownId {
                    kind: "table",
                    id: *tid,
                })?;
                let hit = table.lookup(phv);
                outcome.tables_applied.push((*tid, hit.is_some()));
                let invocation = match hit {
                    Some(e) => Some((e.action, e.action_data.as_slice())),
                    None => table.def.default_action.as_ref().map(|(a, d)| (*a, d.as_slice())),
                };
                if let Some((aid, data)) = invocation {
                    self.exec_action(aid, data, phv, outcome)?;
                }
                Ok(true)
            }
            Control::ApplyAction(aid) => {
                self.exec_action(*aid, &[], phv, outcome)?;
                Ok(true)
            }
            Control::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.target.charge(&mut outcome.steps, 1)?;
                if cond.eval(cond_operand(&cond.a, phv)?, cond_operand(&cond.b, phv)?) {
                    self.exec_control(then_branch, phv, outcome)
                } else if let Some(e) = else_branch {
                    self.exec_control(e, phv, outcome)
                } else {
                    Ok(true)
                }
            }
            Control::Exit => Ok(false),
            Control::Recirculate => {
                self.target.charge(&mut outcome.steps, 1)?;
                outcome.recirculate_requested = true;
                Ok(true)
            }
        }
    }

    fn exec_action(
        &mut self,
        aid: usize,
        data: &[u64],
        phv: &mut Phv,
        outcome: &mut PacketOutcome,
    ) -> P4Result<()> {
        let action = self.actions.get(aid).ok_or(P4Error::UnknownId {
            kind: "action",
            id: aid,
        })?;
        let mut d = Concrete {
            aid,
            data,
            phv,
            registers: self.registers,
            digests: &mut outcome.digests,
        };
        for p in &action.primitives {
            self.target.charge(&mut outcome.steps, p.cost(self.target))?;
            exec_primitive(&mut d, p)?;
        }
        Ok(())
    }
}

/// The interpreter's domain: one action invocation on one packet, over
/// `u64`.
struct Concrete<'a> {
    /// The running action, named in the error for a missing data slot.
    aid: usize,
    data: &'a [u64],
    phv: &'a mut Phv,
    /// A thin pointer, not a slice: with `exec_primitive` inlined into
    /// `exec_action`, a slice's extra register spills the target to the
    /// stack, and the step charge reloads it for every primitive.
    registers: &'a mut Vec<Register>,
    digests: &'a mut Vec<DigestRecord>,
}

impl Domain for Concrete<'_> {
    type V = u64;

    fn operand(&mut self, o: &Operand) -> P4Result<u64> {
        match o {
            Operand::Const(v) => Ok(*v),
            Operand::Field(f) => Ok(self.phv.get(*f)),
            Operand::Data(n) => self.data.get(*n).copied().ok_or(P4Error::ActionDataOutOfBounds {
                action: self.aid,
                slot: *n,
            }),
        }
    }

    fn alu(&mut self, op: Alu, dst: FieldId, a: u64, b: u64) {
        self.phv.set(dst, op.apply(a, b));
    }

    fn not(&mut self, dst: FieldId, v: u64) {
        self.phv.set(dst, !v);
    }

    fn msb(&mut self, dst: FieldId, v: u64) {
        self.phv.set(dst, msb(v));
    }

    fn hash(&mut self, dst: FieldId, key: u64, salt: u64, width_log2: u32) {
        self.phv.set(dst, hash(key, salt, width_log2));
    }

    fn set(&mut self, dst: FieldId, v: u64) {
        self.phv.set(dst, v);
    }

    fn reg_index(&mut self, register: usize, index: u64) -> P4Result<u64> {
        let reg = self.registers.get(register).ok_or(P4Error::UnknownId {
            kind: "register",
            id: register,
        })?;
        if (index as usize) < reg.cells.len() {
            Ok(index)
        } else {
            Err(P4Error::RegisterOutOfBounds {
                register,
                index,
                size: reg.cells.len() as u64,
            })
        }
    }

    fn reg_read(&mut self, dst: FieldId, register: usize, index: u64) {
        self.phv.set(dst, self.registers[register].cells[index as usize]);
    }

    fn reg_write(&mut self, register: usize, index: u64, v: u64) {
        self.registers[register].write_cell(index as usize, v);
    }

    fn digest(&mut self, id: u16, values: Vec<u64>) {
        self.digests.push(DigestRecord { id, values });
    }
}

/// A branch-condition operand. No action is running, so there is no
/// action data to read: `ProgramBuilder::build` rejects such programs.
fn cond_operand(o: &Operand, phv: &Phv) -> P4Result<u64> {
    match o {
        Operand::Const(v) => Ok(*v),
        Operand::Field(f) => Ok(phv.get(*f)),
        Operand::Data(_) => Err(P4Error::Invalid { what: "condition reads action data".into() }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Primitive;
    use crate::control::{CmpOp, Cond};
    use crate::program::ProgramBuilder;
    use crate::runtime::RuntimeRequest;
    use crate::table::{Entry, MatchKind, MatchValue, TableDef};

    const M1_TEST: FieldId = fields::scratch(1);
    const M2_TEST: FieldId = fields::scratch(2);

    /// A counting pipeline: one register, one table binding dst-IP /8 to
    /// a per-prefix counter cell, default action forwards.
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
                // counters[data0] += pkt_len
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
        let mut pipe = b.build(TargetModel::bmv2()).unwrap();
        pipe.tables[t]
            .insert(
                t,
                Entry {
                    key: vec![MatchValue::Lpm {
                        value: 0x0a00_0000,
                        prefix_len: 8,
                    }],
                    priority: 0,
                    action: count,
                    action_data: vec![3],
                },
            )
            .unwrap();
        pipe
    }

    fn phv_to(dst: u64, len: u64) -> Phv {
        let mut phv = Phv::new();
        phv.set(fields::IPV4_DST, dst);
        phv.set(fields::PKT_LEN, len);
        phv
    }

    #[test]
    fn counts_matching_traffic() {
        let mut p = counting_pipeline();
        let mut phv = phv_to(0x0a01_0203, 100);
        let out = p.process_phv(&mut phv).unwrap();
        assert_eq!(out.egress, Some(1));
        assert!(!out.dropped);
        assert_eq!(out.tables_applied, vec![(0, true)]);
        assert_eq!(p.registers()[0].cells[3], 100);

        let mut phv = phv_to(0x0a0f_ffff, 60);
        p.process_phv(&mut phv).unwrap();
        assert_eq!(p.registers()[0].cells[3], 160);
    }

    #[test]
    fn state_export_restore_round_trips() {
        let mut live = counting_pipeline();
        for i in 0..5u64 {
            let mut phv = phv_to(0x0a01_0203, 100 + i);
            live.process_phv(&mut phv).unwrap();
        }
        let state = live.export_state();

        // A fresh build of the same program picks the state up exactly.
        let mut fresh = counting_pipeline();
        fresh.restore_state(&state).unwrap();
        assert_eq!(fresh.registers(), live.registers());
        assert_eq!(fresh.packets_processed(), live.packets_processed());

        // A mismatched register file is rejected without mutation.
        let mut b = ProgramBuilder::new();
        b.add_register("other_reg", 64, 4);
        let noop = b.add_action(ActionDef::new("noop", vec![]));
        b.set_control(Control::ApplyAction(noop));
        let mut wrong = b.build(TargetModel::bmv2()).unwrap();
        let before = wrong.registers().to_vec();
        assert!(wrong.restore_state(&state).is_err());
        assert_eq!(wrong.registers(), &before[..], "rejected restore is a no-op");
    }

    /// A restored register's journal covers its whole file: writing its
    /// first and last cell ships what a fresh pipeline's does after a
    /// full merge of the same state.
    #[test]
    fn restored_journal_covers_the_whole_register() {
        let build = || {
            let mut b = ProgramBuilder::new();
            b.add_register("wide", 64, 71);
            let noop = b.add_action(ActionDef::new("noop", vec![]));
            b.set_control(Control::ApplyAction(noop));
            b.build(TargetModel::bmv2()).unwrap()
        };
        let write = |p: &mut Pipeline, index: u64, value: u64| {
            let req = RuntimeRequest::WriteRegister { register: 0, index, value };
            assert_eq!(p.runtime(&req), crate::runtime::RuntimeResponse::Ok);
        };
        let mut live = build();
        for i in 0..71 {
            write(&mut live, i, i * 3 + 1);
        }
        let mut restored = build();
        restored.restore_state(&live.export_state()).unwrap();
        let mut merged = build();
        crate::replay::merge_registers(&mut merged, &restored).unwrap();
        merged.take_register_delta();
        for p in [&mut restored, &mut merged] {
            write(p, 0, 9);
            write(p, 70, 11);
        }
        let d = restored.take_register_delta();
        assert_eq!(d.regs[0].cells, vec![(0, 1, 9), (70, 211, 11)]);
        assert_eq!(d, merged.take_register_delta());
    }

    #[test]
    fn miss_runs_default_action() {
        let mut p = counting_pipeline();
        let mut phv = phv_to(0x0b00_0001, 100);
        let out = p.process_phv(&mut phv).unwrap();
        assert_eq!(out.egress, Some(1));
        assert_eq!(out.tables_applied, vec![(0, false)]);
        assert_eq!(p.registers()[0].cells[3], 0, "no counting on miss");
    }

    #[test]
    fn drop_primitive() {
        let mut b = ProgramBuilder::new();
        let drop = b.add_action(ActionDef::new("drop", vec![Primitive::Drop]));
        b.set_control(Control::ApplyAction(drop));
        let mut p = b.build(TargetModel::bmv2()).unwrap();
        let mut phv = Phv::new();
        let out = p.process_phv(&mut phv).unwrap();
        assert!(out.dropped);
        assert_eq!(out.egress, None);
    }

    #[test]
    fn if_branches_on_field() {
        let mut b = ProgramBuilder::new();
        let syn = b.add_action(ActionDef::new(
            "mark_syn",
            vec![Primitive::Set {
                dst: M1_TEST,
                src: Operand::Const(77),
            }],
        ));
        b.set_control(Control::If {
            cond: Cond::new(
                Operand::Field(fields::TCP_IS_SYN),
                CmpOp::Eq,
                Operand::Const(1),
            ),
            then_branch: Box::new(Control::ApplyAction(syn)),
            else_branch: None,
        });
        let mut p = b.build(TargetModel::bmv2()).unwrap();
        let mut phv = Phv::new();
        phv.set(fields::TCP_IS_SYN, 1);
        p.process_phv(&mut phv).unwrap();
        assert_eq!(phv.get(M1_TEST), 77);

        let mut phv2 = Phv::new();
        p.process_phv(&mut phv2).unwrap();
        assert_eq!(phv2.get(M1_TEST), 0);
    }

    #[test]
    fn exit_stops_processing() {
        let mut b = ProgramBuilder::new();
        let set = b.add_action(ActionDef::new(
            "set",
            vec![Primitive::Set {
                dst: M1_TEST,
                src: Operand::Const(1),
            }],
        ));
        b.set_control(Control::Seq(vec![
            Control::Exit,
            Control::ApplyAction(set),
        ]));
        let mut p = b.build(TargetModel::bmv2()).unwrap();
        let mut phv = Phv::new();
        p.process_phv(&mut phv).unwrap();
        assert_eq!(phv.get(M1_TEST), 0, "statement after Exit skipped");
    }

    #[test]
    fn register_width_masks_writes() {
        let mut b = ProgramBuilder::new();
        let reg = b.add_register("narrow", 8, 4);
        let w = b.add_action(ActionDef::new(
            "w",
            vec![Primitive::RegWrite {
                register: reg,
                index: Operand::Const(0),
                src: Operand::Const(0x1ff),
            }],
        ));
        b.set_control(Control::ApplyAction(w));
        let mut p = b.build(TargetModel::bmv2()).unwrap();
        let mut phv = Phv::new();
        p.process_phv(&mut phv).unwrap();
        assert_eq!(p.registers()[0].cells[0], 0xff, "masked to 8 bits");
    }

    #[test]
    fn register_oob_is_error() {
        let mut b = ProgramBuilder::new();
        let reg = b.add_register("r", 64, 2);
        let w = b.add_action(ActionDef::new(
            "w",
            vec![Primitive::RegWrite {
                register: reg,
                index: Operand::Const(5),
                src: Operand::Const(1),
            }],
        ));
        b.set_control(Control::ApplyAction(w));
        let mut p = b.build(TargetModel::bmv2()).unwrap();
        let mut phv = Phv::new();
        assert!(matches!(
            p.process_phv(&mut phv),
            Err(P4Error::RegisterOutOfBounds {
                index: 5,
                size: 2,
                ..
            })
        ));
    }

    #[test]
    fn digest_reaches_outcome() {
        let mut b = ProgramBuilder::new();
        let d = b.add_action(ActionDef::new(
            "alert",
            vec![Primitive::Digest {
                id: 42,
                values: vec![Operand::Const(7), Operand::Field(fields::PKT_LEN)],
            }],
        ));
        b.set_control(Control::ApplyAction(d));
        let mut p = b.build(TargetModel::bmv2()).unwrap();
        let mut phv = Phv::new();
        phv.set(fields::PKT_LEN, 99);
        let out = p.process_phv(&mut phv).unwrap();
        assert_eq!(out.digests.len(), 1);
        assert_eq!(out.digests[0].id, 42);
        assert_eq!(out.digests[0].values, vec![7, 99]);
    }

    #[test]
    fn msb_primitive_and_cost() {
        let mut b = ProgramBuilder::new();
        let m = b.add_action(ActionDef::new(
            "msb",
            vec![Primitive::Msb {
                dst: M1_TEST,
                src: Operand::Field(fields::PKT_LEN),
            }],
        ));
        b.set_control(Control::ApplyAction(m));
        let mut p = b.build(TargetModel::bmv2()).unwrap();
        let mut phv = Phv::new();
        phv.set(fields::PKT_LEN, 106);
        let out = p.process_phv(&mut phv).unwrap();
        assert_eq!(phv.get(M1_TEST), 6);
        assert_eq!(out.steps, u64::from(TargetModel::bmv2().msb_cost));

        let mut phv0 = Phv::new();
        p.process_phv(&mut phv0).unwrap();
        assert_eq!(phv0.get(M1_TEST), 0, "msb(0) = 0");
    }

    #[test]
    fn shift_saturation_past_width() {
        let mut b = ProgramBuilder::new();
        let a = b.add_action(ActionDef::new(
            "s",
            vec![
                Primitive::Shl {
                    dst: M1_TEST,
                    src: Operand::Const(1),
                    amount: Operand::Const(70),
                },
                Primitive::Shr {
                    dst: M2_TEST,
                    src: Operand::Const(u64::MAX),
                    amount: Operand::Const(64),
                },
            ],
        ));
        b.set_control(Control::ApplyAction(a));
        let mut p = b.build(TargetModel::bmv2()).unwrap();
        let mut phv = Phv::new();
        p.process_phv(&mut phv).unwrap();
        assert_eq!(phv.get(M1_TEST), 0);
        assert_eq!(phv.get(M2_TEST), 0);
    }

}
