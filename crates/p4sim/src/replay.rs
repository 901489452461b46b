//! Reducing per-pipe register files into one view.
//!
//! Real switches process packets on multiple pipes whose register files
//! are physically separate; any whole-switch statistic is a *merge* of
//! per-pipe state. This module is that reduce step for the simulator,
//! over plain [`Pipeline`]s (who runs them, and on which threads, is
//! the caller's business):
//!
//! - [`merge_registers`] reduces one pipeline's register file into
//!   another's cell by cell under each register's **declared merge
//!   policy** ([`crate::pipeline::RegMerge`]): wrapping addition masked
//!   to the register width (the arithmetic a fixed-width hardware
//!   register performs), saturating addition, maximum, or, for
//!   registers declared [`RegMerge::None`], keep the destination;
//! - [`apply_register_delta`] is its sparse counterpart: it folds only
//!   the cells a pipeline touched since its last
//!   [`Pipeline::take_register_delta`] into a view that already holds
//!   the previous fold.
//!
//! A cellwise merge is the correct reduce exactly when register state
//! commutes with any traffic partition under its policy: counters,
//! `Xsum`/`Xsumsq` accumulators and count-min sketch rows do under
//! `Sum`, so the merged file is bit-identical to a single pipeline
//! having processed the whole trace (the conformance tests below
//! assert this, and `analysis::symbolic::check_merge_soundness` checks
//! it statically as lint `S4L015`). State that encodes *order* —
//! last-seen timestamps, percentile marker positions, window ring
//! heads — is not cellwise-mergeable; such registers are declared
//! `RegMerge::None` and must be merged at a higher level (see
//! `stat4_core::merge` for the per-tracker rules the replay driver
//! uses).

use crate::error::{P4Error, P4Result};
use crate::pipeline::{Pipeline, RegMerge};

/// The changed cells of one register since the last delta take:
/// `(cell index, value at the window open, value now)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterDelta {
    /// Register id in declaration order.
    pub register: usize,
    /// Touched cells as `(index, base, current)`.
    pub cells: Vec<(u32, u64, u64)>,
}

/// The changed-register spans of one pipeline window, produced by
/// [`Pipeline::take_register_delta`] and folded into a coordinator's
/// view by [`apply_register_delta`]. Registers with no touched cells
/// are absent entirely — the sparsity the epoch barrier exploits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineDelta {
    /// Per-register touched spans; registers untouched this window are
    /// omitted.
    pub regs: Vec<RegisterDelta>,
    /// `packets_processed` at the window open.
    pub packets_base: u64,
    /// `packets_processed` now.
    pub packets_cur: u64,
}

impl PipelineDelta {
    /// Distinct cells carried by this delta.
    #[must_use]
    pub(crate) fn touched_cells(&self) -> usize {
        self.regs.iter().map(|r| r.cells.len()).sum()
    }

    /// Modelled wire size: 4-byte index + two 8-byte values per cell,
    /// plus the packet-counter pair.
    #[must_use]
    pub fn wire_bytes(&self) -> u64 {
        16 + self.touched_cells() as u64 * 20
    }
}

/// Applies one shard's changed-register spans to `dst` under each
/// register's declared merge policy — the sparse counterpart of
/// [`merge_registers`], applied on top of a coordinator view that
/// already holds the previous fold.
///
/// Per policy (`cur − base` is the window's change):
///
/// - [`RegMerge::Sum`]: `dst += (cur − base)` wrapping, masked. Masked
///   wrapping addition is modular-group arithmetic, so this is exact
///   **even when the register wrapped** during the window.
/// - [`RegMerge::SatSum`]: saturating adjust clamped at the mask —
///   exact unless a cell pinned at its ceiling (the same caveat the
///   full merge carries).
/// - [`RegMerge::Max`]: `dst = max(dst, cur)` — exact always.
/// - [`RegMerge::None`]: destination kept, entry skipped (order-coded
///   state reconciles at a higher level, as in the full merge).
///
/// # Errors
///
/// [`P4Error::Invalid`] for a register id outside `dst`'s file;
/// [`P4Error::RegisterOutOfBounds`] for a cell index outside the
/// register.
// Kept `pub` with no outside caller yet: the P4-backed replay shard
// (ROADMAP item 4) applies its barrier deltas with it.
pub fn apply_register_delta(dst: &mut Pipeline, delta: &PipelineDelta) -> P4Result<()> {
    for rd in &delta.regs {
        let nregs = dst.registers.len();
        let reg = dst
            .registers
            .get_mut(rd.register)
            .ok_or_else(|| P4Error::Invalid {
                what: format!(
                    "delta register {} outside file of {nregs} register(s)",
                    rd.register
                ),
            })?;
        let mask = reg.mask();
        let merge = reg.merge;
        for &(idx, base, cur) in &rd.cells {
            let size = reg.cells.len() as u64;
            let cell = reg.cells.get_mut(idx as usize).ok_or(
                P4Error::RegisterOutOfBounds {
                    register: rd.register,
                    index: u64::from(idx),
                    size,
                },
            )?;
            *cell = match merge {
                RegMerge::Sum => cell.wrapping_add(cur.wrapping_sub(base)) & mask,
                RegMerge::SatSum => if cur >= base {
                    cell.saturating_add(cur - base)
                } else {
                    cell.saturating_sub(base - cur)
                }
                .min(mask),
                RegMerge::Max => (*cell).max(cur),
                RegMerge::None => *cell,
            };
        }
    }
    dst.packets_processed += delta.packets_cur - delta.packets_base;
    Ok(())
}

/// Folds `src`'s register file into `dst`, cell by cell, under each
/// register's declared merge policy — the reduce step of sharded
/// replay.
///
/// # Errors
///
/// [`P4Error::Invalid`] if the two pipelines' register files differ in
/// shape (count, name, width, size or merge policy) — merging register
/// files of different programs is always a bug.
// Kept `pub` with no outside caller yet: the P4-backed replay shard
// (ROADMAP item 4) merges its register files with it.
pub fn merge_registers(dst: &mut Pipeline, src: &Pipeline) -> P4Result<()> {
    if dst.registers.len() != src.registers.len() {
        return Err(P4Error::Invalid {
            what: format!(
                "register count mismatch: {} vs {}",
                dst.registers.len(),
                src.registers.len()
            ),
        });
    }
    for (d, s) in dst.registers.iter_mut().zip(&src.registers) {
        if d.name != s.name
            || d.width_bits != s.width_bits
            || d.cells.len() != s.cells.len()
            || d.merge != s.merge
        {
            return Err(P4Error::Invalid {
                what: format!("register shape mismatch: {} vs {}", d.name, s.name),
            });
        }
        let mask = d.mask();
        let merge = d.merge;
        for (dc, sc) in d.cells.iter_mut().zip(&s.cells) {
            *dc = merge.combine(*dc, *sc, mask);
        }
    }
    dst.packets_processed += src.packets_processed;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{ActionDef, Operand, Primitive};
    use crate::control::Control;
    use crate::phv::fields;
    use crate::program::ProgramBuilder;
    use crate::target::TargetModel;
    use packet::builder::PacketBuilder;
    use std::net::Ipv4Addr;

    /// A program with additive state: counts packets and bytes per
    /// dst-IP low byte in two registers (one narrow, to exercise width
    /// wrapping).
    fn counting_pipeline() -> Pipeline {
        let mut b = ProgramBuilder::new();
        let pkts = b.add_register("pkts", 16, 256);
        let bytes = b.add_register("bytes", 64, 256);
        let count = b.add_action(ActionDef::new(
            "count",
            vec![
                Primitive::And {
                    dst: fields::M0,
                    a: Operand::Field(fields::IPV4_DST),
                    b: Operand::Const(0xff),
                },
                Primitive::RegRead {
                    dst: fields::scratch(1),
                    register: pkts,
                    index: Operand::Field(fields::M0),
                },
                Primitive::Add {
                    dst: fields::scratch(1),
                    a: Operand::Field(fields::scratch(1)),
                    b: Operand::Const(1),
                },
                Primitive::RegWrite {
                    register: pkts,
                    index: Operand::Field(fields::M0),
                    src: Operand::Field(fields::scratch(1)),
                },
                Primitive::RegRead {
                    dst: fields::scratch(1),
                    register: bytes,
                    index: Operand::Field(fields::M0),
                },
                Primitive::Add {
                    dst: fields::scratch(1),
                    a: Operand::Field(fields::scratch(1)),
                    b: Operand::Field(fields::PKT_LEN),
                },
                Primitive::RegWrite {
                    register: bytes,
                    index: Operand::Field(fields::M0),
                    src: Operand::Field(fields::scratch(1)),
                },
                Primitive::Forward {
                    port: Operand::Const(1),
                },
            ],
        ));
        b.set_control(Control::ApplyAction(count));
        b.build(TargetModel::bmv2()).unwrap()
    }

    fn frames(n: usize) -> Vec<(u64, bytes::Bytes)> {
        (0..n)
            .map(|i| {
                let dst = Ipv4Addr::new(10, 0, 0, (i % 13) as u8 + 1);
                let src = Ipv4Addr::new(192, 0, 2, (i % 7) as u8 + 1);
                (
                    i as u64 * 1_000,
                    PacketBuilder::udp(src, dst, 4000 + (i % 5) as u16, 53)
                        .payload(&vec![0u8; i % 32])
                        .build_bytes(),
                )
            })
            .collect()
    }

    /// `shards` copies of the counting program, frame `i` of `trace`
    /// processed by copy `i % shards`, serially.
    fn sharded(trace: &[(u64, bytes::Bytes)], shards: usize) -> Vec<Pipeline> {
        let mut pipes = vec![counting_pipeline(); shards];
        run(&mut pipes, trace);
        pipes
    }

    fn run(pipes: &mut [Pipeline], trace: &[(u64, bytes::Bytes)]) {
        let shards = pipes.len();
        for (i, (ts, frame)) in trace.iter().enumerate() {
            pipes[i % shards].process_frame(frame, 0, *ts).unwrap();
        }
    }

    /// The first pipeline with every other one's register file folded
    /// in.
    fn merged(pipes: &[Pipeline]) -> Pipeline {
        let mut merged = pipes[0].clone();
        for p in &pipes[1..] {
            merge_registers(&mut merged, p).unwrap();
        }
        merged
    }

    #[test]
    fn sharded_registers_merge_to_sequential() {
        let trace = frames(500);
        let seq = merged(&sharded(&trace, 1));
        for shards in [2usize, 4, 8] {
            let merged = merged(&sharded(&trace, shards));
            assert_eq!(
                merged.registers(),
                seq.registers(),
                "{shards} shards: merged register file must equal sequential"
            );
            assert_eq!(merged.packets_processed(), trace.len() as u64);
        }
    }

    #[test]
    fn narrow_register_wraps_like_sequential() {
        // 16-bit pkts register: force a wrap by sending > 65536 packets
        // to one cell — merged modular sums must equal the sequential
        // modular sum. Use a tiny synthetic trace processed repeatedly.
        let trace = frames(64);
        let mut seq = vec![counting_pipeline(); 1];
        let mut four = vec![counting_pipeline(); 4];
        for _ in 0..40 {
            run(&mut seq, &trace);
            run(&mut four, &trace);
        }
        assert_eq!(merged(&four).registers(), merged(&seq).registers());
    }

    #[test]
    fn merge_rejects_mismatched_programs() {
        let mut a = counting_pipeline();
        let mut b = ProgramBuilder::new();
        b.add_register("other", 64, 8);
        b.set_control(Control::Nop);
        let b = b.build(TargetModel::bmv2()).unwrap();
        assert!(matches!(
            merge_registers(&mut a, &b),
            Err(P4Error::Invalid { .. })
        ));
    }

    /// Delta-applied coordinator state stays bit-identical to a full
    /// re-merge across several epochs, including a 16-bit register that
    /// wraps (Sum is modular, so the delta is exact even under wrap).
    #[test]
    fn register_delta_equals_full_merge() {
        let trace = frames(400);
        let mut pipes = vec![counting_pipeline(); 4];

        // Rebuild: full merge once, then re-base every shard's journal.
        run(&mut pipes, &trace);
        let mut acc = merged(&pipes);
        for p in &mut pipes {
            p.take_register_delta();
        }

        for _ in 0..3 {
            run(&mut pipes, &trace);
            for p in &mut pipes {
                let d = p.take_register_delta();
                assert!(d.touched_cells() > 0, "traffic touched cells");
                apply_register_delta(&mut acc, &d).unwrap();
            }
            let full = merged(&pipes);
            assert_eq!(acc.registers(), full.registers());
            assert_eq!(acc.packets_processed(), full.packets_processed());
        }
    }

    /// An idle epoch ships an empty delta — the sparsity the barrier
    /// exploits.
    #[test]
    fn idle_window_ships_empty_delta() {
        let trace = frames(50);
        let mut p = counting_pipeline();
        for (ts, f) in &trace {
            p.process_frame(f, 0, *ts).unwrap();
        }
        p.take_register_delta();
        let d = p.take_register_delta();
        assert_eq!(d.touched_cells(), 0);
        assert_eq!(d.packets_base, d.packets_cur);
        assert!(d.regs.is_empty());
    }
}
