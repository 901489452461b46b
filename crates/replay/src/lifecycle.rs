//! Replay-pool lifecycle: drain-swap-resume reconfiguration and crash
//! recovery plumbing.
//!
//! The pool's epoch barrier is a natural *drain point*: at the top of
//! each loop iteration every shard state is home with the coordinator
//! and no epoch is in flight. This module defines what may happen
//! there (`RunLifecycle::drain_point`, which the pool calls before
//! every epoch) and holds the state only that needs: generation,
//! shadow program, checkpoint ordinals, the report.
//!
//! - **Hot swaps** ([`SwapRequest`]) — replace the compiled data-plane
//!   program and/or rewrite binding tables, atomically. Every component
//!   is vetted *before* anything mutates: the proposed program must be
//!   symbolically equivalent to the running shadow model
//!   ([`p4sim::check_equivalence`]), and binding rewrites must pass the
//!   rebind verifier ([`p4sim::vet_rebind`]). One failure rejects the
//!   whole request; the old configuration is untouched (verified down
//!   to the generation counter by `tests/lifecycle.rs`). A vetted
//!   request commits by moving the vetted model in, which cannot fail.
//!   A stale `expected_generation` — e.g. a duplicate delivery injected
//!   by the `reconfig_storm` fault domain — is rejected the same way,
//!   which makes commits idempotent under control-channel duplication.
//! - **Checkpoints** — at a configurable epoch cadence the coordinator
//!   writes a [`crate::ckpt::Checkpoint`]; see that module for the
//!   crash-consistency discipline.
//! - **Cooperative kill** — `kill_at_epoch` stops the run at a drain
//!   point with a clean worker teardown, modelling the crash the
//!   recovery test resumes from (the checkpoint directory then looks
//!   exactly as it would after a real mid-run death, because
//!   checkpoints are written *before* the kill check).
//!
//! Everything the lifecycle does is reported out of band in a
//! [`LifecycleReport`], never inside [`crate::ReplayOutcome`]'s
//! snapshot surface: recovery must be able to prove bit-identity of
//! the outcome, so lifecycle chatter gets its own document.

use crate::ckpt::{self, Checkpoint};
use crate::coordinator::{elapsed_ns, EpochCoordinator};
use faultinject::FaultSchedule;
use p4sim::{check_equivalence, vet_rebind, Pipeline, RuntimeRequest, SymbolicOptions};
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::time::Instant;
use telemetry::json::{read, At};
use telemetry::json_struct;
use workloads::Schedule;

// ---- swaps ----------------------------------------------------------

/// A drain-point reconfiguration request: a new compiled program,
/// binding-table rewrites, or both, applied atomically or not at all.
#[derive(Debug, Clone)]
pub struct SwapRequest {
    /// Epoch ordinal (index into the run's interval sequence) at whose
    /// drain point this request applies.
    pub at_epoch: u64,
    /// Generation the requester believes is running; a mismatch means
    /// the request is stale (duplicate delivery, lost race) and is
    /// rejected without vetting.
    pub expected_generation: u64,
    /// Replacement compiled program; must be symbolically equivalent
    /// to the running shadow model.
    pub program: Option<Pipeline>,
    /// Binding-table rewrites, vetted as one transaction.
    pub bindings: Vec<RuntimeRequest>,
}

/// The vetted effect of an accepted swap, computed without mutating
/// anything — commit is a plain move of these values.
pub(crate) struct VettedSwap {
    /// The next shadow model (program swap and/or binding rewrites
    /// applied), when the request touched the data plane.
    pub(crate) shadow: Option<Pipeline>,
    /// One-line human summary for the event log.
    pub(crate) detail: String,
}

/// Vets `req` against the current configuration without changing it.
///
/// # Errors
///
/// The rejection reason: stale generation, a non-equivalent program
/// (with the first counterexample noted), or a binding transaction the
/// rebind verifier refused.
pub(crate) fn vet_swap(
    req: &SwapRequest,
    generation: u64,
    shadow: Option<&Pipeline>,
) -> Result<VettedSwap, String> {
    if req.expected_generation != generation {
        return Err(format!(
            "stale request: expected generation {}, running generation {}",
            req.expected_generation, generation
        ));
    }
    let opts = SymbolicOptions::reduced();
    let mut parts: Vec<String> = Vec::new();
    let mut next: Option<Pipeline> = None;
    if let Some(proposed) = &req.program {
        let Some(current) = shadow else {
            return Err(String::from(
                "program swap without a running shadow model to verify against",
            ));
        };
        let equiv = check_equivalence(current, proposed, &opts);
        if let Some(ce) = &equiv.counterexample {
            return Err(format!(
                "proposed program diverges from the running one: {} ({} witnesses checked)",
                ce.detail, equiv.witnesses
            ));
        }
        parts.push(format!(
            "program verified equivalent ({} witnesses)",
            equiv.witnesses
        ));
        next = Some(proposed.clone());
    }
    if !req.bindings.is_empty() {
        let base = next.as_ref().or(shadow).ok_or_else(|| {
            String::from("binding rewrite without a running shadow model to verify against")
        })?;
        let report = vet_rebind(base, &RuntimeRequest::Batch(req.bindings.clone()), &opts);
        if !report.passes() {
            let first = report
                .diagnostics
                .iter()
                .find(|d| d.severity == p4sim::Severity::Error)
                .map_or_else(
                    || String::from("rebind verifier refused the transaction"),
                    |d| d.message.clone(),
                );
            return Err(format!("binding rewrite rejected: {first}"));
        }
        let vetted = report
            .vetted
            .ok_or_else(|| String::from("rebind verifier passed but returned no vetted model"))?;
        parts.push(format!(
            "{} binding request(s) vetted",
            req.bindings.len()
        ));
        next = Some(vetted);
    }
    if parts.is_empty() {
        parts.push(String::from("no-op reconfiguration"));
    }
    Ok(VettedSwap {
        shadow: next,
        detail: parts.join(", "),
    })
}

// ---- plan -----------------------------------------------------------

/// Everything the caller wants the lifecycle layer to do during one
/// `pool::run`. [`LifecyclePlan::none`] is the zero-cost default every
/// plain replay uses.
#[derive(Debug, Clone, Default)]
pub struct LifecyclePlan {
    /// Where to write checkpoints; `None` disables checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Write a checkpoint every this many epochs (0 = only where the
    /// cadence from a resumed run demands; effectively disabled).
    pub checkpoint_every: u64,
    /// Stop cooperatively at this epoch ordinal's drain point — the
    /// crash model the recovery test resumes from.
    pub kill_at_epoch: Option<u64>,
    /// Reconfiguration requests, matched by epoch ordinal.
    pub swaps: Vec<SwapRequest>,
    /// The compiled program whose shadow model seeds generation 0.
    /// Required for program/binding swaps and for resuming a
    /// checkpoint that carries data-plane state.
    pub initial_program: Option<Pipeline>,
    /// The fault spec string the run was started with, embedded in
    /// checkpoints so resume can rebuild the exact schedule.
    pub faults_spec: String,
}

impl LifecyclePlan {
    /// The inert plan: no checkpoints, no kill, no swaps.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }
}

// ---- drain point ----------------------------------------------------

/// The lifecycle layer's state for one run: what the drain point reads
/// and writes between epochs, beside the coordinator.
pub(crate) struct RunLifecycle<'p> {
    plan: &'p LifecyclePlan,
    /// The fault spec every checkpoint of this run embeds. A resumed
    /// run keeps the stored one, not whatever the caller's plan holds.
    faults_spec: String,
    /// Epoch ordinal the run starts (or resumes) at.
    pub(crate) start_ordinal: usize,
    next_ckpt_ordinal: u64,
    /// The data plane as the running generation programmed it. The
    /// generation itself is `report.generation`.
    shadow: Option<Pipeline>,
    /// Swaps committed since the run first started, across resumes.
    swaps_committed: u64,
    pub(crate) report: LifecycleReport,
}

impl<'p> RunLifecycle<'p> {
    /// Generation 0 of a run that starts at the first epoch.
    pub(crate) fn fresh(plan: &'p LifecyclePlan) -> Self {
        Self {
            plan,
            faults_spec: plan.faults_spec.clone(),
            start_ordinal: 0,
            next_ckpt_ordinal: 0,
            shadow: plan.initial_program.clone(),
            swaps_committed: 0,
            report: LifecycleReport::default(),
        }
    }

    /// Where checkpoint `c` left off. `fallbacks` are the loader's notes
    /// on newer files it had to pass over.
    ///
    /// # Errors
    ///
    /// The checkpoint carries data-plane registers and the plan has no
    /// `initial_program` to restore them into, or they do not fit it.
    pub(crate) fn resumed(
        plan: &'p LifecyclePlan,
        c: &Checkpoint,
        fallbacks: Vec<String>,
    ) -> Result<Self, String> {
        let shadow = match (&c.pipeline, &plan.initial_program) {
            (Some(state), Some(program)) => {
                let mut p = program.clone();
                p.restore_state(state)
                    .map_err(|e| format!("cannot restore data-plane state: {e}"))?;
                Some(p)
            }
            (Some(_), None) => {
                return Err(String::from(
                    "checkpoint carries data-plane state; supply the program via the plan's \
                     initial_program",
                ))
            }
            (None, p) => p.clone(),
        };
        let from = c.checkpoint_ordinal;
        let at = c.next_ordinal;
        let mut report = LifecycleReport {
            generation: c.generation,
            resumed_from: Some(from),
            ..LifecycleReport::default()
        };
        report.push(
            at as u64,
            "resumed",
            format!("from checkpoint {from} at epoch ordinal {at}"),
        );
        for note in fallbacks {
            report.push(at as u64, "checkpoint_fallback", note);
        }
        Ok(Self {
            plan,
            faults_spec: c.faults_spec.clone(),
            start_ordinal: at,
            next_ckpt_ordinal: from + 1,
            shadow,
            swaps_committed: c.swaps_committed,
            report,
        })
    }

    /// The drain point before epoch ordinal `k`: every surviving state
    /// is home and no epoch is in flight, the only place persistence or
    /// configuration may change. `Break` means the plan kills the run
    /// here.
    pub(crate) fn drain_point(
        &mut self,
        k: usize,
        coord: &mut EpochCoordinator,
        schedule: &Schedule,
        faults: &FaultSchedule,
    ) -> ControlFlow<()> {
        let k64 = k as u64;
        // Written *before* the kill check so a killed run's directory
        // looks exactly like a crashed run's. `k != start_ordinal`
        // skips the vacuous checkpoint of the state just loaded (or,
        // fresh, of an empty run).
        if let Some(dir) = self.plan.checkpoint_dir.as_deref() {
            if self.plan.checkpoint_every > 0
                && k64.is_multiple_of(self.plan.checkpoint_every)
                && k != self.start_ordinal
            {
                self.write_checkpoint(k, dir, coord, schedule, faults);
            }
        }
        // Cooperative kill: stop with a clean teardown, the crash model
        // recovery tests resume from.
        if self.plan.kill_at_epoch == Some(k64) {
            self.report.push(
                k64,
                "killed",
                format!("stopped at drain point before epoch ordinal {k}"),
            );
            return ControlFlow::Break(());
        }
        let plan = self.plan;
        for req in plan.swaps.iter().filter(|s| s.at_epoch == k64) {
            self.swap(k64, req, coord, faults);
        }
        ControlFlow::Continue(())
    }

    fn write_checkpoint(
        &mut self,
        k: usize,
        dir: &Path,
        coord: &mut EpochCoordinator,
        schedule: &Schedule,
        faults: &FaultSchedule,
    ) {
        let k64 = k as u64;
        let t0 = Instant::now();
        let c = Checkpoint {
            next_ordinal: k,
            checkpoint_ordinal: self.next_ckpt_ordinal,
            schedule_packets: schedule.len() as u64,
            faults_spec: self.faults_spec.clone(),
            fault_seed: faults.seed(),
            generation: self.report.generation,
            swaps_committed: self.swaps_committed,
            pipeline: self.shadow.as_ref().map(Pipeline::export_state),
            ..coord.checkpoint()
        };
        let document = ckpt::serialize(&c);
        let (bytes, serialize_ns) = (document.len() as u64, elapsed_ns(t0));
        let written = ckpt::write_serialized(dir, c.checkpoint_ordinal, document, faults);
        let write_ns = elapsed_ns(t0);
        match written {
            Ok(path) => {
                coord.telemetry.checkpoints_written.inc();
                self.report.checkpoints_written += 1;
                self.report.push(
                    k64,
                    "checkpoint_written",
                    format!(
                        "{} ({bytes} bytes, serialized in {} us, on disk after {} us; resumes \
                         at ordinal {k})",
                        path.display(),
                        serialize_ns / 1_000,
                        write_ns / 1_000,
                    ),
                );
            }
            Err(e) => self.report.push(k64, "checkpoint_error", e),
        }
        // One sample each per checkpoint: the codec's share (export,
        // write, checksum) apart from the total, which the two fsyncs
        // dominate on a slow disk.
        coord.telemetry.ckpt_serialize_ns.record(serialize_ns);
        coord.telemetry.ckpt_bytes.record(bytes);
        coord.telemetry.ckpt_write_ns.record(write_ns);
        self.next_ckpt_ordinal += 1;
    }

    /// Vets `req` against the running configuration, then commits it
    /// atomically or rejects it leaving everything untouched.
    fn swap(
        &mut self,
        k64: u64,
        req: &SwapRequest,
        coord: &mut EpochCoordinator,
        faults: &FaultSchedule,
    ) {
        let generation = self.report.generation;
        match vet_swap(req, generation, self.shadow.as_ref()) {
            Ok(vetted) => {
                if let Some(next) = vetted.shadow {
                    self.shadow = Some(next);
                }
                self.report.generation += 1;
                self.swaps_committed += 1;
                coord.telemetry.swaps_committed.inc();
                self.report.swaps_committed += 1;
                self.report.push(
                    k64,
                    "swap_committed",
                    format!("generation {}: {}", generation + 1, vetted.detail),
                );
                // Control-channel duplication: the storm fault
                // redelivers the request just committed. Its expected
                // generation is now stale, so the duplicate vets to
                // rejection: commits are idempotent.
                if faults.duplicate_reconfig(self.swaps_committed) {
                    if let Err(e) = vet_swap(req, generation + 1, self.shadow.as_ref()) {
                        coord.telemetry.swaps_rejected.inc();
                        self.report.swaps_rejected += 1;
                        self.report.push(k64, "stale_swap_rejected", e);
                    }
                }
            }
            Err(e) => {
                coord.telemetry.swaps_rejected.inc();
                self.report.swaps_rejected += 1;
                let kind = if req.expected_generation == generation {
                    "swap_rejected"
                } else {
                    "stale_swap_rejected"
                };
                self.report.push(k64, kind, e);
            }
        }
    }
}

// ---- report ---------------------------------------------------------

/// One lifecycle occurrence, stamped with the epoch ordinal at whose
/// drain point it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LifecycleEvent {
    /// Epoch ordinal (index into the run's interval sequence).
    pub epoch: u64,
    /// Stable machine tag: `checkpoint_written`, `checkpoint_error`,
    /// `checkpoint_fallback`, `killed`, `swap_committed`,
    /// `swap_rejected`, `stale_swap_rejected`, `resumed`.
    pub kind: String,
    /// Human-readable specifics.
    pub detail: String,
}

json_struct!(LifecycleEvent { epoch, kind, detail });

/// The out-of-band record of everything the lifecycle layer did during
/// one run. Deliberately not part of [`crate::ReplayOutcome`]: the
/// outcome's snapshot surface must stay bit-identical across
/// checkpoint/resume and accepted-vs-rejected swap schedules, and
/// lifecycle chatter (ordinals, fallback notes) legitimately differs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LifecycleReport {
    /// Everything that happened, in order.
    pub events: Vec<LifecycleEvent>,
    /// Final reconfiguration generation.
    pub generation: u64,
    /// Checkpoints written this run.
    pub checkpoints_written: u64,
    /// Swap requests committed this run.
    pub swaps_committed: u64,
    /// Swap requests rejected this run (vet failures + stale
    /// duplicates).
    pub swaps_rejected: u64,
    /// Checkpoint ordinal this run resumed from, if it did.
    pub resumed_from: Option<u64>,
}

json_struct!(LifecycleReport {
    events,
    generation,
    checkpoints_written,
    swaps_committed,
    swaps_rejected,
    resumed_from
});

impl LifecycleReport {
    pub fn push(&mut self, epoch: u64, kind: &str, detail: String) {
        self.events.push(LifecycleEvent {
            epoch,
            kind: kind.to_string(),
            detail,
        });
    }

    /// Parses a document `json::write` wrote (the `--lifecycle-out`
    /// format, consumed by `stat4-trace lifecycle`).
    ///
    /// # Errors
    ///
    /// A description of the first missing or mistyped field.
    pub fn parse(text: &str) -> Result<Self, String> {
        read(text, At::Root("$"))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Every member set; an input of `ckpt`'s generic round-trip test.
    pub(crate) fn sample_report() -> LifecycleReport {
        let mut r = LifecycleReport {
            generation: 2,
            checkpoints_written: 3,
            swaps_committed: 1,
            swaps_rejected: 2,
            resumed_from: Some(1),
            ..LifecycleReport::default()
        };
        r.push(4, "swap_committed", String::from("program verified equivalent"));
        r.push(5, "killed", String::from("stopped at drain point before epoch ordinal 5"));
        r
    }


    #[test]
    fn report_parse_reports_field_paths() {
        let err = LifecycleReport::parse("{\"events\":[{\"epoch\":1}]}").unwrap_err();
        assert!(err.contains("$.events[0]"), "{err}");
    }
}
