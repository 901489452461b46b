//! # p4sim
//!
//! A P4-like match-action pipeline simulator — the substrate on which
//! the Stat4 reproduction runs its data-plane programs, standing in for
//! the paper's bmv2 behavioural model.
//!
//! The point of this crate is not to simulate a particular ASIC but to
//! *enforce the restrictions that shaped the paper's algorithms*:
//!
//! - **No division, no modulo, no square root.** These operations simply
//!   do not exist in the action instruction set ([`action::Primitive`]);
//!   programs that need them must build approximations from shifts, as
//!   the paper does.
//! - **No loops.** Control flow ([`control::Control`]) is a tree of
//!   table applications and branches; every packet traverses it once,
//!   so its work is bounded before it runs, and the builder refuses a
//!   program whose worst path overruns the target's per-packet step
//!   budget.
//! - **Runtime multiplication and variable-distance shifts are
//!   target-gated** ([`target::TargetModel`]): the bmv2 preset allows
//!   them, the Tofino-like preset rejects them at validation time, which
//!   is why `stat4-core`'s shift-approximated squaring exists.
//! - **State lives in registers** ([`pipeline::Pipeline`]) of fixed
//!   width and size, plus match-action tables whose entries only the
//!   control plane may change ([`runtime::RuntimeRequest`]) — exactly
//!   the paper's binding-table mechanism.
//!
//! A static analyser ([`resources`]) reports the quantities the paper's
//! Sec. 4 discusses: memory footprint, match dependencies between the
//! rules that can hit the same packet, and the longest sequential
//! dependency chain inside the program's actions. A full compile-time
//! verifier ([`analysis`]) goes further: it builds the table dependency
//! graph, allocates tables to PISA stages under the target's per-stage
//! limits, and runs a value-range analysis proving the statistics
//! arithmetic cannot overflow the configured widths — the machinery
//! behind the `stat4-lint` tool.
//!
//! ## Layering
//!
//! ```text
//! packet bytes ──parser──▶ PHV fields ──control──▶ tables ──actions──▶
//!      registers / digests / forward / drop
//! ```
//!
//! Programs are built with [`program::ProgramBuilder`], validated
//! against a target, and executed packet by packet. Digests (the P4
//! mechanism for pushing alerts to the controller) are collected in each
//! packet's [`pipeline::PacketOutcome`].

#![forbid(unsafe_code)]

pub mod analysis;
pub mod action;
pub mod control;
pub mod error;
pub mod parser;
pub mod phv;
pub mod pipeline;
pub mod program;
pub mod replay;
pub mod resources;
pub mod runtime;
pub mod table;
pub mod target;

pub use action::{ActionDef, Operand, Primitive};
pub use analysis::{
    check_agreement, check_equivalence, check_merge_soundness, vet_rebind, Diagnostic, EquivReport,
    InputDomain, LintCode, MergeReport, RebindReport, Severity, SymbolicOptions, VerifyReport,
    Witness, {verify, verify_against},
};
pub use control::{Cond, Control};
pub use error::{P4Error, P4Result};
pub use parser::parse_frame;
pub use phv::{FieldId, Phv};
pub use pipeline::{PacketOutcome, Pipeline, PipelineState, RegMerge};
pub use program::ProgramBuilder;
pub use replay::{apply_register_delta, merge_registers, PipelineDelta, RegisterDelta};
pub use resources::ResourceReport;
pub use runtime::{RuntimeRequest, RuntimeResponse};
pub use table::{Entry, MatchKind, MatchValue, TableDef};
pub use target::TargetModel;
