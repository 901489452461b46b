//! The drill-down controller of the paper's case study (Sec. 4).
//!
//! Reacts to in-switch alerts by progressively refining what the switch
//! monitors, purely through binding-table edits over the control
//! channel:
//!
//! 1. **WatchingPrefix** — the switch only tracks packets/interval for
//!    the whole /8. On a [`stat4_p4::DIGEST_SPIKE`] digest, the
//!    controller binds each /24 subnet to a group index and moves on.
//! 2. **WatchingSubnets** — the switch now also tracks the frequency
//!    distribution of subnet groups. On a
//!    [`stat4_p4::DIGEST_IMBALANCE`] digest naming a subnet, the
//!    controller rebinds to per-destination /32s within that subnet.
//! 3. **WatchingHosts** — the next imbalance digest names the
//!    destination: **Pinpointed**.
//!
//! Every transition costs one controller→switch round trip (plus the
//! time for fresh statistics to accumulate), which is what makes the
//! paper's end-to-end pinpoint latency "2–3 seconds" despite detection
//! happening within one interval.
//!
//! # Self-healing control loop
//!
//! The control channel is allowed to be lossy (see
//! `faultinject::FaultSchedule`): any rebind request may be dropped or
//! reordered in flight. The controller therefore treats each rebind as
//! an acknowledged *transaction*:
//!
//! - the whole transaction (clear bindings, reset the distribution,
//!   bump the generation register, install the new bindings) travels
//!   as ONE atomic [`p4sim::RuntimeRequest::Batch`] message — it is
//!   applied in full or lost in full, never half-applied;
//! - the batch carries a tag; the switch's [`ControlMsg::Response`]
//!   acks it;
//! - a timer re-sends the transaction while it is unacked, with capped
//!   exponential backoff and deterministic jitter
//!   (`crate::backoff::delay_ns`), and gives up after
//!   `MAX_RETRIES` re-sends;
//! - re-sends are idempotent: the batch starts from a table clear and
//!   stamps the binding *generation*, so applying it twice converges
//!   to the same switch state;
//! - imbalance digests carry the generation they were computed under;
//!   digests from an older generation (in flight across a rebind, or
//!   emitted from a partially-applied one) are rejected as stale.
//!
//! [`DrilldownStats`] counts every retry, ack, timeout and stale
//! digest, so chaos runs can assert the loop actually healed.

use crate::alerts::Alert;
use crate::backoff;
use crate::detector::TriggerCause;
use netsim::control::ControlMsg;
use netsim::node::{Node, NodeCtx, NodeId};
use p4sim::pipeline::DigestRecord;
use stat4_p4::binding;
use stat4_p4::{CaseStudyHandles, DIGEST_IMBALANCE, DIGEST_SPIKE};
use std::net::Ipv4Addr;
use telemetry::json::{At, FromJson, Lexer, ToJson};

/// Where the controller is in the drill-down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrilldownPhase {
    /// Waiting for a spike on the /8 rate.
    WatchingPrefix,
    /// Subnets bound; waiting for an imbalance digest.
    WatchingSubnets,
    /// Hosts of one subnet bound; waiting for the final imbalance.
    WatchingHosts {
        /// The subnet being drilled into.
        subnet: u8,
    },
    /// Destination identified.
    Done {
        /// The pinpointed destination.
        dest: Ipv4Addr,
    },
}

/// Timeline of one drill-down run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrilldownReport {
    /// When the spike digest arrived (ns).
    pub spike_alert_at: Option<u64>,
    /// When the subnet-level imbalance digest arrived.
    pub subnet_identified_at: Option<u64>,
    /// When the destination was pinpointed.
    pub pinpointed_at: Option<u64>,
    /// The pinpointed destination.
    pub dest: Option<Ipv4Addr>,
}

impl DrilldownReport {
    /// Spike-alert → pinpoint latency, if the run completed.
    #[must_use]
    pub fn pinpoint_latency(&self) -> Option<u64> {
        Some(self.pinpointed_at? - self.spike_alert_at?)
    }
}

/// Topology the controller drills into.
#[derive(Debug, Clone, Copy)]
pub struct DrilldownTopology {
    /// First octet of the monitored /8.
    pub net: u8,
    /// Number of /24 subnets.
    pub subnets: u8,
    /// Destinations per subnet.
    pub hosts_per_subnet: u8,
}

/// Reliability counters for the self-healing control loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrilldownStats {
    /// Rebind transactions started (one per phase transition).
    pub rebinds: u64,
    /// Control requests sent, including re-sends.
    pub requests_sent: u64,
    /// Responses matched to an outstanding request tag.
    pub acks: u64,
    /// Whole-transaction re-sends after an ack timeout.
    pub retries: u64,
    /// Ack timers that fired with requests still unacked.
    pub timeouts: u64,
    /// Transactions abandoned after exhausting the retry budget.
    pub gave_up: u64,
    /// Imbalance digests rejected for carrying an older generation.
    pub stale_digests: u64,
    /// Rebind transactions rejected by the static safety gate
    /// (`S4L016`) before ever reaching the control channel.
    pub rebinds_rejected: u64,
}

impl DrilldownStats {
    /// Exports the reliability counters into a telemetry snapshot.
    pub fn export(&self, snap: &mut telemetry::Snapshot) {
        snap.push_counter(
            "drilldown_rebinds_total",
            "rebind transactions started",
            &[],
            self.rebinds,
        );
        snap.push_counter(
            "drilldown_rebind_rejected_total",
            "rebind transactions rejected by the static safety gate",
            &[],
            self.rebinds_rejected,
        );
        snap.push_counter(
            "drilldown_retries_total",
            "whole-transaction re-sends after ack timeouts",
            &[],
            self.retries,
        );
        snap.push_counter(
            "drilldown_acks_total",
            "responses matched to an outstanding request tag",
            &[],
            self.acks,
        );
        snap.push_counter(
            "drilldown_gave_up_total",
            "transactions abandoned after exhausting the retry budget",
            &[],
            self.gave_up,
        );
        snap.push_counter(
            "drilldown_stale_digests_total",
            "imbalance digests rejected for carrying an older generation",
            &[],
            self.stale_digests,
        );
    }
}

/// One in-flight rebind transaction awaiting acks.
#[derive(Debug, Clone)]
struct PendingRebind {
    /// Binding generation the transaction installs (also the timer
    /// token, so late timers of superseded transactions are ignored).
    generation: u64,
    /// The full request list, kept for idempotent re-sends.
    reqs: Vec<p4sim::RuntimeRequest>,
    /// Tag of the unacked batch message, if one is in flight.
    outstanding: Option<u64>,
    /// Re-send attempts so far.
    attempt: u32,
}

/// Re-sends allowed per transaction before giving up. With the
/// backoff's 10 ms doubling to 640 ms, a never-acked transaction gives
/// up at its ninth timeout, 2.55 s after the first send (3.19 s with
/// all jitter at its 25% maximum).
pub(crate) const MAX_RETRIES: u32 = 8;

/// Retry jitter seed; each transaction jitters on `RETRY_SEED ^
/// generation`.
const RETRY_SEED: u64 = 0x0064_7269_6c6c;

/// The controller node.
pub struct DrilldownController {
    handles: CaseStudyHandles,
    switch: NodeId,
    topo: DrilldownTopology,
    /// Current phase.
    pub phase: DrilldownPhase,
    /// All alerts raised, in order.
    pub alerts: Vec<Alert>,
    /// The run's timeline.
    pub report: DrilldownReport,
    /// Reliability counters (retries, acks, stale digests).
    pub stats: DrilldownStats,
    next_tag: u64,
    /// Current binding generation; imbalance digests stamped with an
    /// older generation were in flight across a rebind and are ignored.
    generation: u64,
    pending: Option<PendingRebind>,
    /// Shadow copy of the switch pipeline every rebind transaction is
    /// statically vetted on before it is sent (see [`Self::new`]).
    shadow: p4sim::Pipeline,
}

impl DrilldownController {
    /// Creates a controller driving `switch`, whose pipeline is the
    /// case-study app described by `handles`; `shadow` is a copy of that
    /// pipeline as the switch starts.
    ///
    /// The shadow arms the static rebind-safety gate: every rebind
    /// transaction is first applied to it and symbolically vetted
    /// (`S4L016`). A transaction whose post-state can fault (e.g. a
    /// binding whose action data indexes a register out of bounds) is
    /// rejected and never sent. The shadow tracks binding-table
    /// structure, not per-packet register contents, which is all the
    /// static check reads.
    #[must_use]
    pub fn new(
        handles: CaseStudyHandles,
        shadow: p4sim::Pipeline,
        switch: NodeId,
        topo: DrilldownTopology,
    ) -> Self {
        Self {
            handles,
            switch,
            topo,
            phase: DrilldownPhase::WatchingPrefix,
            alerts: Vec::new(),
            report: DrilldownReport::default(),
            stats: DrilldownStats::default(),
            next_tag: 1,
            generation: 0,
            pending: None,
            shadow,
        }
    }

    /// Current binding generation.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Assembles and statically vets one rebind transaction: clear old
    /// bindings, reset the distribution, bump the generation register,
    /// install `binds`.
    ///
    /// The whole batch is vetted with [`p4sim::vet_rebind`] on the
    /// shadow model first; a rejected transaction increments
    /// [`DrilldownStats::rebinds_rejected`], leaves the generation
    /// untouched, and returns `None` — nothing reaches the control
    /// channel. On acceptance the shadow advances to the vetted
    /// post-rebind pipeline and the new generation is committed.
    pub(crate) fn prepare_rebind(
        &mut self,
        binds: Vec<p4sim::RuntimeRequest>,
    ) -> Option<Vec<p4sim::RuntimeRequest>> {
        let generation = self.generation + 1;
        let mut reqs = vec![binding::clear_bindings_h(&self.handles)];
        reqs.extend(binding::reset_distribution_h(&self.handles));
        reqs.push(p4sim::RuntimeRequest::WriteRegister {
            register: self.handles.generation_reg,
            index: 0,
            value: generation,
        });
        reqs.extend(binds);
        let report = p4sim::vet_rebind(
            &self.shadow,
            &p4sim::RuntimeRequest::Batch(reqs.clone()),
            &p4sim::SymbolicOptions::reduced(),
        );
        // A report carries its vetted pipeline exactly when it passes.
        let Some(vetted) = report.vetted else {
            self.stats.rebinds_rejected += 1;
            return None;
        };
        self.shadow = vetted;
        self.generation = generation;
        self.stats.rebinds += 1;
        Some(reqs)
    }

    /// Starts an acknowledged rebind transaction. The whole request
    /// list is kept for idempotent re-sends until every request is
    /// acked; a transaction the static gate rejects is dropped here.
    fn rebind(&mut self, ctx: &mut NodeCtx, binds: Vec<p4sim::RuntimeRequest>) {
        let Some(reqs) = self.prepare_rebind(binds) else {
            return;
        };
        // A still-unacked older transaction is superseded: its state is
        // about to be overwritten anyway, and its late timer is ignored
        // by the generation check.
        self.pending = Some(PendingRebind {
            generation: self.generation,
            reqs,
            outstanding: None,
            attempt: 0,
        });
        self.send_transaction(ctx);
    }

    /// (Re-)sends the pending transaction as ONE atomic
    /// [`p4sim::RuntimeRequest::Batch`] message and arms the ack timer
    /// with exponentially backed-off delay.
    ///
    /// Atomicity is what makes the loop safe on a faulty channel: the
    /// batch either reaches the switch whole (clear + generation bump +
    /// binds applied back-to-back, so no digest is ever computed on
    /// half-applied bindings) or is lost whole and re-sent on timeout.
    /// Duplicated deliveries reapply cleanly because the batch starts
    /// from a table clear.
    fn send_transaction(&mut self, ctx: &mut NodeCtx) {
        let Some(mut p) = self.pending.take() else {
            return;
        };
        let tag = self.next_tag;
        self.next_tag += 1;
        p.outstanding = Some(tag);
        ctx.send_control(
            self.switch,
            ControlMsg::Request {
                tag,
                req: p4sim::RuntimeRequest::Batch(p.reqs.clone()),
            },
        );
        self.stats.requests_sent += 1;
        // Each transaction jitters on its own stream so back-to-back
        // rebinds don't retry in lockstep.
        let delay = backoff::delay_ns(RETRY_SEED ^ p.generation, p.attempt);
        ctx.set_timer(delay, p.generation);
        self.pending = Some(p);
    }

    fn on_response(&mut self, tag: u64) {
        let Some(p) = self.pending.as_mut() else {
            return;
        };
        if p.outstanding == Some(tag) {
            self.stats.acks += 1;
            self.pending = None;
        }
    }

    /// True when an imbalance digest belongs to the current bindings.
    fn digest_is_current(&mut self, digest: &DigestRecord) -> bool {
        let current = digest.values.last().copied() == Some(self.generation);
        if !current {
            self.stats.stale_digests += 1;
        }
        current
    }

    fn on_digest(&mut self, ctx: &mut NodeCtx, digest: &DigestRecord) {
        match (digest.id, self.phase) {
            (DIGEST_SPIKE, DrilldownPhase::WatchingPrefix) => {
                self.report.spike_alert_at = Some(ctx.now);
                self.alerts.push(Alert::TrafficSpike {
                    at: ctx.now,
                    interval_count: digest.values.first().copied().unwrap_or(0),
                });
                let binds: Vec<_> = (0..self.topo.subnets)
                    .map(|s| {
                        binding::bind_prefix_h(
                            &self.handles,
                            Ipv4Addr::new(self.topo.net, 0, s, 0),
                            24,
                            0,
                            u64::from(s),
                        )
                    })
                    .collect();
                self.rebind(ctx, binds);
                self.phase = DrilldownPhase::WatchingSubnets;
            }
            (DIGEST_IMBALANCE, DrilldownPhase::WatchingSubnets) => {
                if !self.digest_is_current(digest) {
                    return;
                }
                let group = digest.values.first().copied().unwrap_or(0);
                let subnet = u8::try_from(group).unwrap_or(0);
                self.report.subnet_identified_at = Some(ctx.now);
                self.alerts.push(Alert::TrafficImbalance {
                    at: ctx.now,
                    group,
                });
                let binds: Vec<_> = (1..=self.topo.hosts_per_subnet)
                    .map(|h| {
                        binding::bind_prefix_h(
                            &self.handles,
                            Ipv4Addr::new(self.topo.net, 0, subnet, h),
                            32,
                            0,
                            u64::from(h),
                        )
                    })
                    .collect();
                self.rebind(ctx, binds);
                self.phase = DrilldownPhase::WatchingHosts { subnet };
            }
            (DIGEST_IMBALANCE, DrilldownPhase::WatchingHosts { subnet }) => {
                if !self.digest_is_current(digest) {
                    return;
                }
                let host = u8::try_from(digest.values.first().copied().unwrap_or(0)).unwrap_or(0);
                let dest = Ipv4Addr::new(self.topo.net, 0, subnet, host);
                self.report.pinpointed_at = Some(ctx.now);
                self.report.dest = Some(dest);
                self.alerts.push(Alert::Pinpointed { at: ctx.now, dest });
                self.phase = DrilldownPhase::Done { dest };
            }
            _ => {} // late or duplicate digests are ignored
        }
    }
}

impl Node for DrilldownController {
    fn on_frame(&mut self, _ctx: &mut NodeCtx, _port: usize, _frame: bytes::Bytes) {}

    fn on_control(&mut self, ctx: &mut NodeCtx, _from: NodeId, msg: ControlMsg) {
        match msg {
            ControlMsg::Digest { digest, .. } => self.on_digest(ctx, &digest),
            // Acks for the pending rebind transaction. A duplicated
            // response acks an already-cleared tag and is ignored, so
            // the loop is idempotent under control-channel duplication.
            ControlMsg::Response { tag, .. } => self.on_response(tag),
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx, token: u64) {
        // Only the pending transaction's own timer matters; timers of
        // superseded or fully-acked transactions arrive late and miss.
        let Some(p) = self.pending.as_mut() else {
            return;
        };
        if p.generation != token || p.outstanding.is_none() {
            return;
        }
        self.stats.timeouts += 1;
        if p.attempt >= MAX_RETRIES {
            self.stats.gave_up += 1;
            self.pending = None;
            return;
        }
        p.attempt += 1;
        self.stats.retries += 1;
        self.send_transaction(ctx);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Trigger policy for ensemble-driven drilldown.
///
/// Historically the drilldown only reacted to per-engine gated
/// `fired` verdicts. That misses coordinated sub-threshold episodes:
/// several engines at, say, 0.9 of their thresholds is collectively a
/// stronger signal than one engine barely past its own. This config
/// closes that gap — the ensemble's combined weighted score (see
/// [`crate::detector::EnsembleVerdict::combined_q16`]) triggers the
/// drilldown too, once it crosses `combined_threshold_q16`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnsembleTriggerConfig {
    /// Combined-score trigger threshold, Q16. The default of 0.75
    /// sits below any single engine's firing point (1.0) but well
    /// above quiet-traffic combined scores (engines near zero pull
    /// the weighted mean down hard).
    pub combined_threshold_q16: i64,
    /// Quiet intervals (no trigger) before the ladder resets to the
    /// prefix phase.
    pub reset_after_quiet: u32,
    /// Binding-table entries installed by a prefix → subnets rebind.
    pub subnet_binds: u32,
    /// Binding-table entries installed by a subnets → hosts rebind.
    pub host_binds: u32,
}

impl Default for EnsembleTriggerConfig {
    fn default() -> Self {
        Self {
            combined_threshold_q16: (3 * crate::detector::Q16) / 4,
            reset_after_quiet: 8,
            subnet_binds: 16,
            host_binds: 16,
        }
    }
}

/// One drilldown rebind, recorded as alert provenance. Mirrors the
/// acked batch transactions [`DrilldownController`] sends over the
/// control channel, as a deterministic structural record (what was
/// rebound, when, why) rather than the wire messages themselves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebindTransaction {
    /// Binding generation the transaction installs.
    pub generation: u64,
    /// Epoch that pulled the trigger.
    pub epoch: u64,
    /// Interval end (ns).
    pub at: u64,
    /// Phase before the rebind (`"prefix"`, `"subnets"`, `"hosts"`).
    pub from_phase: String,
    /// Phase after the rebind.
    pub to_phase: String,
    /// Binding-table entries installed.
    pub binds: u32,
    /// What pulled the trigger.
    pub cause: TriggerCause,
}

telemetry::json_struct!(RebindTransaction { generation, epoch, at, from_phase, to_phase, binds, cause });

/// What one triggering verdict did to the drilldown ladder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrillOutcome {
    /// Why the trigger pulled.
    pub cause: TriggerCause,
    /// Rebind transactions the trigger caused (empty once the ladder
    /// is already at host granularity).
    pub transactions: Vec<RebindTransaction>,
}

/// Ladder position for [`ScoreDrilldown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScorePhase {
    Prefix,
    Subnets,
    Hosts,
}

impl ScorePhase {
    fn name(self) -> &'static str {
        match self {
            ScorePhase::Prefix => "prefix",
            ScorePhase::Subnets => "subnets",
            ScorePhase::Hosts => "hosts",
        }
    }

    fn named(name: &str) -> Option<Self> {
        [ScorePhase::Prefix, ScorePhase::Subnets, ScorePhase::Hosts]
            .into_iter()
            .find(|p| p.name() == name)
    }
}

/// The replay-side drilldown ladder, driven by
/// [`crate::detector::EnsembleVerdict`]s instead of switch digests:
/// prefix → subnets → hosts, one rebind transaction per triggering
/// interval, resetting to the prefix after a configurable quiet
/// streak. Pure and deterministic — state is a
/// function of the verdict stream alone, so pool and reference replay
/// engines produce bit-identical transaction logs.
#[derive(Debug, Clone)]
pub struct ScoreDrilldown {
    config: EnsembleTriggerConfig,
    phase: ScorePhase,
    generation: u64,
    quiet: u32,
}

impl ScoreDrilldown {
    /// A ladder at the prefix phase under `config`.
    #[must_use]
    pub fn new(config: EnsembleTriggerConfig) -> Self {
        Self {
            config,
            phase: ScorePhase::Prefix,
            generation: 0,
            quiet: 0,
        }
    }

    /// `Some(cause)` when the verdict should pull the trigger: any
    /// engine's gated fire wins, else the combined weighted score
    /// crossing the configured threshold.
    fn decide(&self, v: &crate::detector::EnsembleVerdict) -> Option<TriggerCause> {
        if !v.fired.is_empty() {
            return Some(TriggerCause::EnginesFired(
                v.fired.iter().map(|r| r.engine.to_string()).collect(),
            ));
        }
        if v.combined_q16 >= self.config.combined_threshold_q16 {
            return Some(TriggerCause::CombinedScore {
                combined_q16: v.combined_q16,
                threshold_q16: self.config.combined_threshold_q16,
            });
        }
        None
    }

    /// Feeds one interval verdict. Returns the trigger cause and any
    /// rebind transaction it produced; `None` on quiet intervals.
    pub fn observe(&mut self, v: &crate::detector::EnsembleVerdict) -> Option<DrillOutcome> {
        let Some(cause) = self.decide(v) else {
            self.quiet += 1;
            if self.quiet >= self.config.reset_after_quiet {
                self.phase = ScorePhase::Prefix;
                self.quiet = 0;
            }
            return None;
        };
        self.quiet = 0;
        let (next, binds) = match self.phase {
            ScorePhase::Prefix => (ScorePhase::Subnets, self.config.subnet_binds),
            ScorePhase::Subnets => (ScorePhase::Hosts, self.config.host_binds),
            ScorePhase::Hosts => {
                // Already at host granularity: the alert is attributed
                // to the standing bindings, no rebind needed.
                return Some(DrillOutcome {
                    cause,
                    transactions: Vec::new(),
                });
            }
        };
        self.generation += 1;
        let tx = RebindTransaction {
            generation: self.generation,
            epoch: v.epoch,
            at: v.at,
            from_phase: self.phase.name().to_string(),
            to_phase: next.name().to_string(),
            binds,
            cause: cause.clone(),
        };
        self.phase = next;
        Some(DrillOutcome {
            cause,
            transactions: vec![tx],
        })
    }

    /// Appends the ladder's position to `out`: phase, binding
    /// generation, quiet streak.
    pub fn export_state(&self, out: &mut String) {
        LadderState {
            phase: self.phase.name().to_string(),
            generation: self.generation,
            quiet: self.quiet,
        }
        .write_json(out);
    }

    /// Reads [`Self::export_state`]'s form from the value `lx` is at
    /// into a ladder built from the same trigger config.
    ///
    /// # Errors
    ///
    /// A missing or mistyped member, an unknown phase name, or a quiet
    /// streak the reset rule would already have cleared; `self` is
    /// left untouched.
    pub fn import_state(&mut self, lx: &mut Lexer<'_>) -> Result<(), String> {
        let at = At::Root("drilldown");
        let LadderState { phase, generation, quiet } = LadderState::read_json(lx, at)?;
        let phase = ScorePhase::named(&phase)
            .ok_or_else(|| at.err(format_args!("unknown phase {phase:?}")))?;
        if quiet >= self.config.reset_after_quiet.max(1) {
            return Err(at.err("\"quiet\" is not below the reset threshold"));
        }
        self.phase = phase;
        self.generation = generation;
        self.quiet = quiet;
        Ok(())
    }
}

/// [`ScoreDrilldown::export_state`]'s form.
struct LadderState {
    phase: String,
    generation: u64,
    quiet: u32,
}

telemetry::json_struct!(LadderState { phase, generation, quiet });

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::host::{SinkHost, TraceGen, TrafficSource};
    use netsim::{P4SwitchNode, Simulation, MICROS, MILLIS};
    use stat4_p4::{CaseStudyApp, CaseStudyParams, Stat4Config};
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;
    use workloads::SpikeWorkload;

    /// Full closed loop: workload → switch → digests → controller →
    /// binding edits → pinpoint. A miniature of the paper's Fig. 6 run.
    #[test]
    fn end_to_end_drilldown_pinpoints_victim() {
        let params = CaseStudyParams {
            interval_log2: 20, // ~1 ms
            window_size: 32,
            min_intervals: 8,
            config: Stat4Config {
                counter_num: 2,
                counter_size: 256,
                width_bits: 64,
            },
            ..CaseStudyParams::default()
        };
        let workload = SpikeWorkload {
            background_pps: 20_000,
            spike_multiplier: 10,
            spike_start_range: (40_000_000, 60_000_000),
            duration: 400_000_000, // 0.4 s
            seed: 11,
            ..SpikeWorkload::default()
        };
        let (schedule, truth) = workload.generate();
        let app = CaseStudyApp::build(params).unwrap();
        let handles = app.handles;
        let shadow = app.pipeline.clone();

        let mut sim = Simulation::new();
        let source = sim.add_node(Box::new(TrafficSource::new(Box::new(TraceGen::new(
            schedule,
        )))));
        let sink_count = Arc::new(AtomicU64::new(0));
        let sink = sim.add_node(Box::new(SinkHost::new(sink_count.clone())));
        // Placeholder id for the controller; switch needs it first.
        let switch = sim.add_node(Box::new(P4SwitchNode::new(app.pipeline)));
        let controller = sim.add_node(Box::new(
            DrilldownController::new(
                handles,
                shadow,
                switch,
                DrilldownTopology {
                    net: 10,
                    subnets: 6,
                    hosts_per_subnet: 6,
                },
            ),
        ));
        sim.node_as_mut::<P4SwitchNode>(switch).unwrap().controller = Some(controller);

        sim.connect(source, 0, switch, 0, 20 * MICROS);
        sim.connect(switch, 1, sink, 0, 20 * MICROS);
        sim.connect_control(switch, controller, 2 * MILLIS);
        sim.run();

        let ctl = sim.node_as::<DrilldownController>(controller).unwrap();
        let report = ctl.report;
        assert!(
            matches!(ctl.phase, DrilldownPhase::Done { .. }),
            "phase = {:?}, alerts = {:?}",
            ctl.phase,
            ctl.alerts
        );
        assert_eq!(report.dest, Some(truth.spike_dest), "right victim");

        // Detection latency: the spike digest is emitted at the close of
        // the first spiky interval; with ~1 ms intervals + 2 ms channel
        // the alert must arrive within a few ms of the onset.
        let detect = report.spike_alert_at.unwrap();
        assert!(detect >= truth.spike_start);
        assert!(
            detect < truth.spike_start + 8_000_000,
            "detected {} ns after onset",
            detect - truth.spike_start
        );

        // The drill-down needed two more controller round trips.
        let pinpoint = report.pinpointed_at.unwrap();
        assert!(pinpoint > detect + 4 * MILLIS, "two RTTs at 2 ms each");
        assert!(report.subnet_identified_at.unwrap() > detect);
        assert!(report.subnet_identified_at.unwrap() < pinpoint);

        // Every rebind the drill-down sent passed the static gate.
        assert_eq!(ctl.stats.rebinds_rejected, 0, "{:?}", ctl.stats);
        assert!(ctl.stats.rebinds >= 2, "{:?}", ctl.stats);
    }

    /// The static `S4L016` gate: a rebind transaction whose binding
    /// would index the statistics registers out of bounds is rejected
    /// before it reaches the control channel — nothing is sent, the
    /// binding generation does not advance, and the
    /// `drilldown_rebind_rejected_total` counter increments.
    #[test]
    fn static_gate_rejects_poisoned_rebind() {
        let params = CaseStudyParams::default();
        let app = CaseStudyApp::build(params).unwrap();
        let handles = app.handles;
        let mut ctl = DrilldownController::new(
            handles,
            app.pipeline,
            0,
            DrilldownTopology {
                net: 10,
                subnets: 4,
                hosts_per_subnet: 4,
            },
        );

        // A sane rebind passes the gate and advances the generation.
        let good = binding::bind_prefix_h(&handles, Ipv4Addr::new(10, 0, 0, 0), 24, 0, 0);
        let reqs = ctl
            .prepare_rebind(vec![good])
            .expect("a sound rebind must be vetted through");
        // clear + 5 register resets + generation stamp + one bind
        assert_eq!(reqs.len(), 8);
        assert_eq!(ctl.generation(), 1);
        assert_eq!(ctl.stats.rebinds, 1);

        // A poisoned binding: its action data carries a base far past
        // the statistics registers, so the tracked path would fault
        // with a register-out-of-bounds on every matching packet. The
        // gate finds the constant-folded OOB statically.
        let bad = p4sim::RuntimeRequest::InsertEntry {
            table: handles.drill_table,
            entry: p4sim::Entry {
                key: binding::prefix_key(Ipv4Addr::new(10, 0, 1, 0), 24),
                priority: 24,
                action: handles.track_group_action,
                action_data: vec![1_000_000, 0, 0],
            },
        };
        assert!(
            ctl.prepare_rebind(vec![bad]).is_none(),
            "the poisoned rebind must be rejected"
        );
        assert_eq!(ctl.generation(), 1, "generation must not advance");
        assert_eq!(ctl.stats.rebinds, 1, "no rebind was started");
        assert_eq!(ctl.stats.rebinds_rejected, 1);
        assert_eq!(ctl.stats.requests_sent, 0, "nothing reached the channel");

        // The rejection is visible to telemetry.
        let mut snap = telemetry::Snapshot::new();
        ctl.stats.export(&mut snap);
        assert_eq!(snap.counter_sum("drilldown_rebind_rejected_total"), 1);

        // The gate does not wedge: the next sound rebind still passes.
        let again = binding::bind_prefix_h(&handles, Ipv4Addr::new(10, 0, 2, 0), 24, 0, 2);
        assert!(ctl.prepare_rebind(vec![again]).is_some());
        assert_eq!(ctl.generation(), 2);
    }

    #[test]
    fn no_spike_no_alerts() {
        let params = CaseStudyParams {
            interval_log2: 20,
            window_size: 32,
            min_intervals: 8,
            ..CaseStudyParams::default()
        };
        let workload = SpikeWorkload {
            background_pps: 20_000,
            // The spike is scheduled after the workload ends: pure
            // background traffic.
            spike_start_range: (300_000_000, 310_000_000),
            duration: 200_000_000,
            seed: 5,
            ..SpikeWorkload::default()
        };
        let (schedule, _) = workload.generate();
        let app = CaseStudyApp::build(params).unwrap();
        let handles = app.handles;
        let mut sim = Simulation::new();
        let source = sim.add_node(Box::new(TrafficSource::new(Box::new(TraceGen::new(
            schedule,
        )))));
        let sink = sim.add_node(Box::new(SinkHost::new(Arc::new(AtomicU64::new(0)))));
        let switch = sim.add_node(Box::new(P4SwitchNode::new(app.pipeline.clone())));
        let controller = sim.add_node(Box::new(DrilldownController::new(
            handles,
            app.pipeline,
            switch,
            DrilldownTopology {
                net: 10,
                subnets: 6,
                hosts_per_subnet: 6,
            },
        )));
        sim.node_as_mut::<P4SwitchNode>(switch).unwrap().controller = Some(controller);
        sim.connect(source, 0, switch, 0, 20 * MICROS);
        sim.connect(switch, 1, sink, 0, 20 * MICROS);
        sim.connect_control(switch, controller, 2 * MILLIS);
        sim.run();

        let ctl = sim.node_as::<DrilldownController>(controller).unwrap();
        assert_eq!(ctl.phase, DrilldownPhase::WatchingPrefix);
        assert!(ctl.alerts.is_empty(), "alerts: {:?}", ctl.alerts);
    }

    /// The self-healing loop under chaos: with 25% control-message
    /// loss plus jitter, rebind requests get dropped in flight — the
    /// ack timers must re-send them until the drill-down completes.
    #[test]
    fn drilldown_heals_over_lossy_control_channel() {
        let params = CaseStudyParams {
            interval_log2: 20,
            window_size: 32,
            min_intervals: 8,
            config: Stat4Config {
                counter_num: 2,
                counter_size: 256,
                width_bits: 64,
            },
            ..CaseStudyParams::default()
        };
        let workload = SpikeWorkload {
            background_pps: 20_000,
            spike_multiplier: 10,
            spike_start_range: (40_000_000, 60_000_000),
            duration: 600_000_000,
            seed: 11,
            ..SpikeWorkload::default()
        };
        let (schedule, truth) = workload.generate();
        let app = CaseStudyApp::build(params).unwrap();
        let handles = app.handles;

        let mut sim = Simulation::new();
        sim.set_fault_schedule(
            faultinject::FaultSchedule::parse("ctrl_loss=0.25,ctrl_delay_ns=300us", 2).unwrap(),
        );
        let source = sim.add_node(Box::new(TrafficSource::new(Box::new(TraceGen::new(
            schedule,
        )))));
        let sink = sim.add_node(Box::new(SinkHost::new(Arc::new(AtomicU64::new(0)))));
        let switch = sim.add_node(Box::new(P4SwitchNode::new(app.pipeline.clone())));
        let controller = sim.add_node(Box::new(DrilldownController::new(
            handles,
            app.pipeline,
            switch,
            DrilldownTopology {
                net: 10,
                subnets: 6,
                hosts_per_subnet: 6,
            },
        )));
        sim.node_as_mut::<P4SwitchNode>(switch).unwrap().controller = Some(controller);
        sim.connect(source, 0, switch, 0, 20 * MICROS);
        sim.connect(switch, 1, sink, 0, 20 * MICROS);
        sim.connect_control(switch, controller, 2 * MILLIS);
        sim.run();

        let ctl = sim.node_as::<DrilldownController>(controller).unwrap();
        assert!(
            matches!(ctl.phase, DrilldownPhase::Done { .. }),
            "drill-down must complete despite loss: phase = {:?}, stats = {:?}",
            ctl.phase,
            ctl.stats
        );
        assert_eq!(ctl.report.dest, Some(truth.spike_dest), "right victim");
        // The chaos actually bit and the loop actually healed.
        assert!(
            sim.fault_stats.control_dropped > 0,
            "schedule dropped nothing: {:?}",
            sim.fault_stats
        );
        assert!(ctl.stats.acks > 0, "{:?}", ctl.stats);
        assert!(
            ctl.stats.retries > 0,
            "lost rebind requests must trigger re-sends: {:?}",
            ctl.stats
        );
        assert_eq!(ctl.stats.gave_up, 0, "{:?}", ctl.stats);
    }

    /// A rebind the switch never acks is re-sent `MAX_RETRIES` times,
    /// then abandoned at the next timeout, and telemetry says so.
    #[test]
    fn unacked_rebind_gives_up_at_the_retry_limit() {
        let app = CaseStudyApp::build(CaseStudyParams::default()).unwrap();
        let mut sim = Simulation::new();
        // The "switch" swallows every request: no response ever comes.
        let switch = sim.add_node(Box::new(SinkHost::new(Arc::new(AtomicU64::new(0)))));
        let controller = sim.add_node(Box::new(DrilldownController::new(
            app.handles,
            app.pipeline,
            switch,
            DrilldownTopology {
                net: 10,
                subnets: 4,
                hosts_per_subnet: 4,
            },
        )));
        sim.connect_control(switch, controller, 2 * MILLIS);
        let digest = DigestRecord {
            id: DIGEST_SPIKE,
            values: vec![1],
        };
        let msg = ControlMsg::Digest {
            digest,
            emitted_at: 0,
        };
        sim.inject_control(0, controller, switch, msg);
        sim.run();

        let ctl = sim.node_as::<DrilldownController>(controller).unwrap();
        let s = ctl.stats;
        assert_eq!(s.rebinds, 1, "{s:?}");
        assert_eq!(s.requests_sent, 1 + u64::from(MAX_RETRIES), "{s:?}");
        assert_eq!(s.retries, u64::from(MAX_RETRIES), "{s:?}");
        assert_eq!(s.timeouts, u64::from(MAX_RETRIES) + 1, "{s:?}");
        assert_eq!((s.gave_up, s.acks), (1, 0), "{s:?}");
        // The give-up timeout is the run's last event. The nine delays
        // (10 ms doubling to 640 ms) sum to 2 550 ms before jitter, and
        // jitter adds at most 25%.
        let floor = 2_550 * MILLIS;
        assert!(
            (floor..=floor + floor / 4).contains(&sim.now()),
            "gave up at {} ns",
            sim.now()
        );
        let mut snap = telemetry::Snapshot::new();
        s.export(&mut snap);
        assert_eq!(snap.counter_sum("drilldown_gave_up_total"), 1);
    }

    /// Two chaos runs with one seed are bit-identical; the timeline is
    /// reproducible for debugging.
    #[test]
    fn lossy_drilldown_is_seed_deterministic() {
        let run = |seed: u64| {
            let params = CaseStudyParams {
                interval_log2: 20,
                window_size: 32,
                min_intervals: 8,
                ..CaseStudyParams::default()
            };
            let (schedule, _) = SpikeWorkload {
                background_pps: 20_000,
                spike_multiplier: 10,
                spike_start_range: (40_000_000, 60_000_000),
                duration: 300_000_000,
                seed: 11,
                ..SpikeWorkload::default()
            }
            .generate();
            let app = CaseStudyApp::build(params).unwrap();
            let handles = app.handles;
            let mut sim = Simulation::new();
            sim.set_fault_schedule(
                faultinject::FaultSchedule::parse("ctrl_loss=0.2,ctrl_delay_ns=200us", seed)
                    .unwrap(),
            );
            let source = sim.add_node(Box::new(TrafficSource::new(Box::new(TraceGen::new(
                schedule,
            )))));
            let sink = sim.add_node(Box::new(SinkHost::new(Arc::new(AtomicU64::new(0)))));
            let switch = sim.add_node(Box::new(P4SwitchNode::new(app.pipeline.clone())));
            let controller = sim.add_node(Box::new(DrilldownController::new(
                handles,
                app.pipeline,
                switch,
                DrilldownTopology {
                    net: 10,
                    subnets: 6,
                    hosts_per_subnet: 6,
                },
            )));
            sim.node_as_mut::<P4SwitchNode>(switch).unwrap().controller = Some(controller);
            sim.connect(source, 0, switch, 0, 20 * MICROS);
            sim.connect(switch, 1, sink, 0, 20 * MICROS);
            sim.connect_control(switch, controller, 2 * MILLIS);
            sim.run();
            let ctl = sim.node_as::<DrilldownController>(controller).unwrap();
            (ctl.report, ctl.stats, ctl.alerts.clone())
        };
        let a = run(3);
        let b = run(3);
        assert_eq!(a, b);
        let c = run(4);
        assert_ne!(a.1, c.1, "different seed, different chaos");
    }

    #[test]
    fn report_latency_helper() {
        let mut r = DrilldownReport::default();
        assert_eq!(r.pinpoint_latency(), None);
        r.spike_alert_at = Some(100);
        r.pinpointed_at = Some(350);
        assert_eq!(r.pinpoint_latency(), Some(250));
    }

    use crate::detector::{
        confidence_q16, DetectionResult, Detector, Ensemble, SignalContext, Q16,
    };
    use stat4_core::{FrequencyDist, RunningStats};

    /// An engine pinned at a fixed sub-threshold score; never fires.
    struct SimmeringEngine {
        name: &'static str,
        score: i64,
    }

    impl Detector for SimmeringEngine {
        fn name(&self) -> &'static str {
            self.name
        }
        fn update(&mut self, ctx: &SignalContext<'_>) -> Option<DetectionResult> {
            Some(DetectionResult {
                engine: self.name,
                at: ctx.at,
                epoch: ctx.epoch,
                score: self.score,
                weight: Q16,
                confidence: confidence_q16(self.score),
                expected: 100,
                observed: 90,
                fired: self.score >= Q16,
            })
        }
        fn export_state(&self, out: &mut String) {
            out.push_str("null");
        }
        fn import_state(&mut self, lx: &mut telemetry::json::Lexer<'_>) -> Result<(), String> {
            lx.skip()
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    fn quiet_ctx<'a>(
        at: u64,
        kinds: &'a FrequencyDist,
        stats: &'a RunningStats,
    ) -> SignalContext<'a> {
        SignalContext {
            at,
            epoch: at / 10,
            interval_ns: 10,
            spanned: 1,
            packets: 100,
            syns: 5,
            len_sum: 40_000,
            distinct_sources: 10,
            median_len: 400,
            kinds,
            len_stats: stats,
        }
    }

    /// Regression for the ROADMAP item-1 follow-on: three engines each
    /// simmering at 0.9 of threshold never fire individually, but the
    /// combined weighted score (0.9·Q16 ≥ 0.75·Q16) now pulls the
    /// drilldown trigger — the episode is no longer invisible.
    #[test]
    fn sub_threshold_multi_engine_episode_triggers_drilldown() {
        let kinds = FrequencyDist::new(0, 7).unwrap();
        let stats = RunningStats::new();
        let score = (9 * Q16) / 10;
        let mut ens = Ensemble::new(vec![
            Box::new(SimmeringEngine { name: "a", score }),
            Box::new(SimmeringEngine { name: "b", score }),
            Box::new(SimmeringEngine { name: "c", score }),
        ]);
        let mut drill = ScoreDrilldown::new(EnsembleTriggerConfig::default());
        let v = ens.observe(&quiet_ctx(10, &kinds, &stats));
        assert!(v.fired.is_empty(), "no single engine may fire");
        assert_eq!(v.combined_q16, score);
        let outcome = drill
            .observe(&v)
            .expect("combined sub-threshold scores must trigger");
        match &outcome.cause {
            TriggerCause::CombinedScore {
                combined_q16,
                threshold_q16,
            } => {
                assert_eq!(*combined_q16, score);
                assert_eq!(*threshold_q16, (3 * Q16) / 4);
            }
            other => panic!("expected CombinedScore cause, got {other:?}"),
        }
        assert_eq!(outcome.transactions.len(), 1);
        let tx = &outcome.transactions[0];
        assert_eq!((tx.from_phase.as_str(), tx.to_phase.as_str()), ("prefix", "subnets"));
        assert_eq!(tx.generation, 1);
    }

    /// A gated engine fire always wins over the combined score as the
    /// recorded cause, and the ladder climbs one phase per trigger
    /// until hosts, then attributes without rebinding.
    #[test]
    fn fired_engines_drive_the_ladder_to_hosts() {
        let kinds = FrequencyDist::new(0, 7).unwrap();
        let stats = RunningStats::new();
        let mut ens = Ensemble::new(vec![Box::new(SimmeringEngine {
            name: "hot",
            score: 2 * Q16,
        })]);
        let mut drill = ScoreDrilldown::new(EnsembleTriggerConfig::default());
        let mut txs = Vec::new();
        for at in [10u64, 20, 30] {
            let v = ens.observe(&quiet_ctx(at, &kinds, &stats));
            let outcome = drill.observe(&v).expect("fired engine must trigger");
            assert_eq!(
                outcome.cause,
                TriggerCause::EnginesFired(vec!["hot".to_string()])
            );
            txs.extend(outcome.transactions);
        }
        let phases: Vec<_> = txs
            .iter()
            .map(|t| (t.from_phase.as_str(), t.to_phase.as_str()))
            .collect();
        assert_eq!(phases, [("prefix", "subnets"), ("subnets", "hosts")]);
        assert_eq!(txs.iter().map(|t| t.generation).collect::<Vec<_>>(), [1, 2]);
    }

    /// Quiet streaks reset the ladder to the prefix phase.
    #[test]
    fn quiet_streak_resets_the_ladder() {
        let kinds = FrequencyDist::new(0, 7).unwrap();
        let stats = RunningStats::new();
        let config = EnsembleTriggerConfig {
            reset_after_quiet: 2,
            ..EnsembleTriggerConfig::default()
        };
        let mut drill = ScoreDrilldown::new(config);
        let fire = |at: u64| {
            let mut e = Ensemble::new(vec![Box::new(SimmeringEngine {
                name: "hot",
                score: 2 * Q16,
            })]);
            e.observe(&quiet_ctx(at, &kinds, &stats))
        };
        let calm = |at: u64| {
            let mut e = Ensemble::new(vec![Box::new(SimmeringEngine { name: "cold", score: 0 })]);
            e.observe(&quiet_ctx(at, &kinds, &stats))
        };
        let first = drill.observe(&fire(10)).unwrap();
        assert_eq!(first.transactions[0].to_phase, "subnets");
        assert!(drill.observe(&calm(20)).is_none());
        assert!(drill.observe(&calm(30)).is_none());
        // Reset happened: the next trigger starts from the prefix again.
        let again = drill.observe(&fire(40)).unwrap();
        assert_eq!(again.transactions[0].from_phase, "prefix");
    }
}
