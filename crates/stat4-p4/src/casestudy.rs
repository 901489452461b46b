//! The case-study application (paper Sec. 4, Figure 6).
//!
//! A P4 switch fronts a /8 of 36 destinations spread over six /24
//! subnets. It continuously:
//!
//! 1. **Tracks packets per time interval** for the whole /8 in a
//!    circular window of recent intervals (paper default: 100 × 8 ms),
//!    and on every interval close checks the just-finished interval
//!    against the stored distribution: `N·x > Xsum + k·σ(NX)` — the
//!    paper's "rate higher than the mean plus two standard deviations".
//!    A hit digests a [`DIGEST_SPIKE`] alert.
//! 2. **Applies the drill-down binding table**. Initially empty; after a
//!    spike alert the controller binds each /24 to a *group index*, so
//!    the switch starts tracking the frequency distribution of groups
//!    (one observation per packet). After every update it checks whether
//!    the updated group's frequency is an outlier among group
//!    frequencies — the traffic-imbalance test — and digests
//!    [`DIGEST_IMBALANCE`] (at most once per interval). The controller
//!    then narrows the binding to per-destination /32s inside the guilty
//!    /24, and the same mechanism pinpoints the destination.
//!
//! Everything per-packet is constant work; all state is registers; the
//! interval boundary uses a power-of-two interval length
//! (`2^interval_log2` ns) so "divide by interval" is a shift.

use crate::config::Stat4Config;
use crate::fragments::{freq_update_primitives, variance_sd_fragment};
use crate::scratch;
use p4sim::action::{ActionDef, Operand, Primitive};
use p4sim::control::{CmpOp, Cond, Control};
use p4sim::phv::fields;
use p4sim::program::ProgramBuilder;
use p4sim::{P4Result, Pipeline, RegMerge, TargetModel};

/// Digest id for traffic-spike alerts:
/// `[interval_count, xsum, n, sd, interval_id]`.
pub const DIGEST_SPIKE: u16 = 2;

/// Digest id for traffic-imbalance alerts:
/// `[group_index, group_freq, n, xsum, sd, interval_id, generation]`.
/// `generation` echoes the [`CaseStudyHandles::generation_reg`] value at
/// emission so the controller can discard digests that were in flight
/// across a rebind.
pub const DIGEST_IMBALANCE: u16 = 3;

/// Tunables of the case-study program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaseStudyParams {
    /// Interval length is `2^interval_log2` nanoseconds (23 ≈ 8.4 ms,
    /// the closest power of two to the paper's 8 ms default).
    pub interval_log2: u32,
    /// Window capacity in intervals (paper default 100; any value ≥ 2).
    pub window_size: u64,
    /// Outlier band width in σ units (paper: 2).
    pub k_sigma: u64,
    /// Minimum closed intervals before spike alerts fire.
    pub min_intervals: u64,
    /// Minimum distinct groups before imbalance alerts fire.
    pub min_groups: u64,
    /// Relative alarm margin, as a right-shift of `Xsum`: both checks
    /// become `N·x > Xsum + k·σ(NX) + (Xsum >> margin_shift)` — the
    /// outlier must beat the mean by `k·σ` *and* by a fixed fraction
    /// (default 1/8 = 12.5%). A bare k·σ band false-alarms on any
    /// realistic traffic: ~N(0,1)-distributed interval noise crosses 2σ
    /// in ≈2% of intervals, and near-uniform integer counts have σ < 1
    /// so whichever group is one count ahead gets flagged. The paper
    /// does not discuss this; see DESIGN.md "Known deviations". The
    /// margin is one shift and one add — P4-legal.
    pub margin_shift: u32,
    /// Floor of the relative margin (in `Xsum` units), so tiny early
    /// sums cannot produce a zero margin.
    pub min_margin: u64,
    /// Local mitigation (paper Fig. 1c: switches "locally react to
    /// anomalies (e.g., rate limiting some flows)"): when enabled,
    /// packets whose drill-down group currently fails the imbalance
    /// check are dropped in the data plane — no controller involvement,
    /// zero reaction latency. Alert digests still flow.
    pub local_mitigation: bool,
    /// Egress port for forwarded traffic.
    pub egress_port: u64,
    /// The monitored prefix as `(address, prefix_len)` — installed in
    /// the rate binding table at build time (the paper's /8).
    pub monitored_prefix: (u32, u8),
    /// Capacity of the drill-down binding table in entries.
    pub drill_capacity: usize,
    /// Stat4 register sizing for the drill-down distribution.
    pub config: Stat4Config,
}

impl Default for CaseStudyParams {
    fn default() -> Self {
        Self {
            interval_log2: 23,
            window_size: 100,
            k_sigma: 2,
            min_intervals: 10,
            min_groups: 2,
            margin_shift: 3,
            min_margin: 4,
            local_mitigation: false,
            egress_port: 1,
            monitored_prefix: (0x0a00_0000, 8),
            drill_capacity: 64,
            config: Stat4Config {
                counter_num: 2,
                counter_size: 256,
                width_bits: 64,
            },
        }
    }
}

/// Indices into the `rate_state` register.
mod rate_state {
    /// Currently open interval id (0 = uninitialised).
    pub(crate) const CUR_INTERVAL: u64 = 0;
    /// Packets seen in the open interval.
    pub(crate) const CUR_COUNT: u64 = 1;
    /// Next window slot to overwrite.
    pub(crate) const WIDX: u64 = 2;
    /// `N` over the stored window.
    pub const N: u64 = 3;
    /// `Xsum` over the stored window.
    pub(crate) const XSUM: u64 = 4;
    /// `Xsumsq` over the stored window.
    pub(crate) const XSUMSQ: u64 = 5;
    /// Cells in the register.
    pub(crate) const SIZE: usize = 6;
}

/// The outlier bound both checks compare against, into `MUL_B`:
/// `k·σ + Xsum + max(Xsum >> margin_shift, min_margin)`, the relative
/// margin with a floor. Reads `SD` and `XSUM`; clobbers `SQRT_T`.
fn outlier_bound_primitives(params: &CaseStudyParams) -> Vec<Primitive> {
    use scratch::{MUL_B, SD, SQRT_T, XSUM};
    vec![
        Primitive::Mul {
            dst: MUL_B,
            a: Operand::Field(SD),
            b: Operand::Const(params.k_sigma),
        },
        Primitive::Add {
            dst: MUL_B,
            a: Operand::Field(MUL_B),
            b: Operand::Field(XSUM),
        },
        Primitive::Shr {
            dst: SQRT_T,
            src: Operand::Field(XSUM),
            amount: Operand::Const(u64::from(params.margin_shift)),
        },
        Primitive::Max {
            dst: SQRT_T,
            a: Operand::Field(SQRT_T),
            b: Operand::Const(params.min_margin),
        },
        Primitive::Add {
            dst: MUL_B,
            a: Operand::Field(MUL_B),
            b: Operand::Field(SQRT_T),
        },
    ]
}

/// Copyable identifiers of the case-study program's tables and
/// registers — what a controller needs to drive the app after the
/// pipeline itself has been moved into a switch node.
#[derive(Debug, Clone, Copy)]
pub struct CaseStudyHandles {
    /// Parameters the app was built with.
    pub params: CaseStudyParams,
    /// Rate binding table id (decides which packets feed the rate
    /// distribution).
    pub rate_table: usize,
    /// Drill-down binding table id.
    pub drill_table: usize,
    /// Action id binding entries must use.
    pub track_group_action: usize,
    /// Window register id.
    pub win_reg: usize,
    /// Rate bookkeeping register id.
    pub rate_state_reg: usize,
    /// Group-frequency counters register id.
    pub counters_reg: usize,
    /// Per-slot `N` register id.
    pub n_reg: usize,
    /// Per-slot `Xsum` register id.
    pub xsum_reg: usize,
    /// Per-slot `Xsumsq` register id.
    pub xsumsq_reg: usize,
    /// Imbalance alert-suppression register id.
    pub suppress_reg: usize,
    /// Binding-generation register id (single cell, bumped by the
    /// controller on every rebind).
    pub generation_reg: usize,
}

/// The built case-study application.
#[derive(Debug)]
pub struct CaseStudyApp {
    /// The runnable pipeline.
    pub pipeline: Pipeline,
    /// Its tables' and registers' ids, and the parameters it was built
    /// with (they survive moving `pipeline` into a switch node).
    pub handles: CaseStudyHandles,
}

impl CaseStudyApp {
    /// Builds the application for bmv2.
    ///
    /// # Errors
    ///
    /// Propagates [`p4sim`] validation errors.
    #[allow(clippy::too_many_lines)]
    pub fn build(params: CaseStudyParams) -> P4Result<Self> {
        use scratch::{
            CNT, DRILL_HIT, F_OLD, IVL, MUL_A, MUL_B, N, OLD, RATE_HIT, SUPPRESS, TMP, VALUE_IDX,
            WIDX, XSUM, XSUMSQ,
        };
        let cfg = params.config;
        let mut b = ProgramBuilder::new();

        let win_reg = b.add_register("rate_window", 64, params.window_size as usize);
        let rate_state_reg = b.add_register("rate_state", 64, rate_state::SIZE);
        let counters_reg = b.add_register("stat_counters", cfg.width_bits, cfg.total_cells());
        let n_reg = b.add_register("stat_n", cfg.width_bits, cfg.counter_num);
        let xsum_reg = b.add_register("stat_xsum", cfg.width_bits, cfg.counter_num);
        let xsumsq_reg = b.add_register("stat_xsumsq", cfg.width_bits, cfg.counter_num);
        let suppress_reg = b.add_register("imbalance_suppress", 64, cfg.counter_num);
        let generation_reg = b.add_register("binding_generation", 64, 1);
        // Sliding-window slots, EWMA rate state, cooldown timers and the
        // controller-written generation stamp are last-writer state, not
        // additive counters — exempt them from the sum-merge algebra.
        b.set_register_merge(win_reg, RegMerge::None);
        b.set_register_merge(rate_state_reg, RegMerge::None);
        b.set_register_merge(suppress_reg, RegMerge::None);
        b.set_register_merge(generation_reg, RegMerge::None);

        // ---- 0. rate binding table -----------------------------------
        // Stat4's architecture: even "track the rate of the /8" is a
        // binding-table entry, so the controller can retarget it at
        // runtime. Action data: [0] = slot (reserved for multi-slot rate
        // tracking).
        let mark_rate = b.add_action(ActionDef::new(
            "mark_rate",
            vec![
                Primitive::Set {
                    dst: RATE_HIT,
                    src: Operand::Const(1),
                },
                Primitive::Set {
                    dst: scratch::AUX,
                    src: Operand::Data(0),
                },
            ],
        ));
        let rate_table = b.add_table(p4sim::TableDef {
            name: "rate_binding".into(),
            keys: vec![(fields::IPV4_DST, p4sim::MatchKind::Lpm { width: 32 })],
            max_entries: 8,
            allowed_actions: vec![mark_rate],
            default_action: None,
        });

        // ---- 1. interval bookkeeping --------------------------------
        // IVL = (ts >> log2) + 1, so 0 is reserved for "uninitialised".
        let prep = b.add_action(ActionDef::new(
            "interval_prep",
            vec![
                Primitive::Shr {
                    dst: IVL,
                    src: Operand::Field(fields::TIMESTAMP_NS),
                    amount: Operand::Const(u64::from(params.interval_log2)),
                },
                Primitive::Add {
                    dst: IVL,
                    a: Operand::Field(IVL),
                    b: Operand::Const(1),
                },
                Primitive::RegRead {
                    dst: TMP,
                    register: rate_state_reg,
                    index: Operand::Const(rate_state::CUR_INTERVAL),
                },
                Primitive::RegRead {
                    dst: CNT,
                    register: rate_state_reg,
                    index: Operand::Const(rate_state::CUR_COUNT),
                },
            ],
        ));

        let init = b.add_action(ActionDef::new(
            "interval_init",
            vec![
                Primitive::RegWrite {
                    register: rate_state_reg,
                    index: Operand::Const(rate_state::CUR_INTERVAL),
                    src: Operand::Field(IVL),
                },
                Primitive::RegWrite {
                    register: rate_state_reg,
                    index: Operand::Const(rate_state::CUR_COUNT),
                    src: Operand::Const(1),
                },
            ],
        ));

        let incr = b.add_action(ActionDef::new(
            "interval_incr",
            vec![
                Primitive::Add {
                    dst: TMP,
                    a: Operand::Field(CNT),
                    b: Operand::Const(1),
                },
                Primitive::RegWrite {
                    register: rate_state_reg,
                    index: Operand::Const(rate_state::CUR_COUNT),
                    src: Operand::Field(TMP),
                },
            ],
        ));

        // ---- 2. interval close: load, check, commit ------------------
        let load_close = b.add_action(ActionDef::new(
            "close_load",
            vec![
                Primitive::RegRead {
                    dst: WIDX,
                    register: rate_state_reg,
                    index: Operand::Const(rate_state::WIDX),
                },
                Primitive::RegRead {
                    dst: OLD,
                    register: win_reg,
                    index: Operand::Field(WIDX),
                },
                Primitive::RegRead {
                    dst: N,
                    register: rate_state_reg,
                    index: Operand::Const(rate_state::N),
                },
                Primitive::RegRead {
                    dst: XSUM,
                    register: rate_state_reg,
                    index: Operand::Const(rate_state::XSUM),
                },
                Primitive::RegRead {
                    dst: XSUMSQ,
                    register: rate_state_reg,
                    index: Operand::Const(rate_state::XSUMSQ),
                },
            ],
        ));

        // σ over the *stored* distribution (before the new value joins).
        let var_sd_rate = variance_sd_fragment(&mut b, "rate_variance");

        let mut spike_prims = vec![Primitive::Mul {
            dst: MUL_A,
            a: Operand::Field(N),
            b: Operand::Field(CNT),
        }];
        spike_prims.extend(outlier_bound_primitives(&params));
        let spike_prep = b.add_action(ActionDef::new("spike_prep", spike_prims));

        let spike_digest = b.add_action(ActionDef::new(
            "spike_digest",
            vec![Primitive::Digest {
                id: DIGEST_SPIKE,
                values: vec![
                    Operand::Field(CNT),
                    Operand::Field(XSUM),
                    Operand::Field(N),
                    Operand::Field(scratch::SD),
                    Operand::Field(IVL),
                ],
            }],
        ));

        let commit_close = b.add_action(ActionDef::new(
            "close_commit",
            vec![
                // Xsumsq += CNT² − OLD²
                Primitive::Mul {
                    dst: TMP,
                    a: Operand::Field(CNT),
                    b: Operand::Field(CNT),
                },
                Primitive::Add {
                    dst: XSUMSQ,
                    a: Operand::Field(XSUMSQ),
                    b: Operand::Field(TMP),
                },
                Primitive::Mul {
                    dst: TMP,
                    a: Operand::Field(OLD),
                    b: Operand::Field(OLD),
                },
                Primitive::Sub {
                    dst: XSUMSQ,
                    a: Operand::Field(XSUMSQ),
                    b: Operand::Field(TMP),
                },
                // Xsum += CNT − OLD
                Primitive::Add {
                    dst: XSUM,
                    a: Operand::Field(XSUM),
                    b: Operand::Field(CNT),
                },
                Primitive::Sub {
                    dst: XSUM,
                    a: Operand::Field(XSUM),
                    b: Operand::Field(OLD),
                },
                // N = min(N + 1, window_size)
                Primitive::Add {
                    dst: N,
                    a: Operand::Field(N),
                    b: Operand::Const(1),
                },
                Primitive::Min {
                    dst: N,
                    a: Operand::Field(N),
                    b: Operand::Const(params.window_size),
                },
                // Persist.
                Primitive::RegWrite {
                    register: win_reg,
                    index: Operand::Field(WIDX),
                    src: Operand::Field(CNT),
                },
                Primitive::RegWrite {
                    register: rate_state_reg,
                    index: Operand::Const(rate_state::N),
                    src: Operand::Field(N),
                },
                Primitive::RegWrite {
                    register: rate_state_reg,
                    index: Operand::Const(rate_state::XSUM),
                    src: Operand::Field(XSUM),
                },
                Primitive::RegWrite {
                    register: rate_state_reg,
                    index: Operand::Const(rate_state::XSUMSQ),
                    src: Operand::Field(XSUMSQ),
                },
                Primitive::RegWrite {
                    register: rate_state_reg,
                    index: Operand::Const(rate_state::CUR_INTERVAL),
                    src: Operand::Field(IVL),
                },
                Primitive::RegWrite {
                    register: rate_state_reg,
                    index: Operand::Const(rate_state::CUR_COUNT),
                    src: Operand::Const(1),
                },
                // Advance the window index (wrap handled in control).
                Primitive::Add {
                    dst: WIDX,
                    a: Operand::Field(WIDX),
                    b: Operand::Const(1),
                },
            ],
        ));

        let widx_wrap = b.add_action(ActionDef::new(
            "widx_wrap",
            vec![Primitive::RegWrite {
                register: rate_state_reg,
                index: Operand::Const(rate_state::WIDX),
                src: Operand::Const(0),
            }],
        ));
        let widx_store = b.add_action(ActionDef::new(
            "widx_store",
            vec![Primitive::RegWrite {
                register: rate_state_reg,
                index: Operand::Const(rate_state::WIDX),
                src: Operand::Field(WIDX),
            }],
        ));

        let close_seq = Control::Seq(vec![
            Control::ApplyAction(load_close),
            var_sd_rate,
            Control::ApplyAction(spike_prep),
            Control::If {
                cond: Cond::new(
                    Operand::Field(N),
                    CmpOp::Ge,
                    Operand::Const(params.min_intervals),
                ),
                then_branch: Box::new(Control::If {
                    cond: Cond::new(Operand::Field(MUL_A), CmpOp::Gt, Operand::Field(MUL_B)),
                    then_branch: Box::new(Control::ApplyAction(spike_digest)),
                    else_branch: None,
                }),
                else_branch: None,
            },
            Control::ApplyAction(commit_close),
            Control::If {
                cond: Cond::new(
                    Operand::Field(WIDX),
                    CmpOp::Ge,
                    Operand::Const(params.window_size),
                ),
                then_branch: Box::new(Control::ApplyAction(widx_wrap)),
                else_branch: Some(Box::new(Control::ApplyAction(widx_store))),
            },
        ]);

        let rate_fragment = Control::Seq(vec![
            Control::ApplyAction(prep),
            Control::If {
                cond: Cond::new(Operand::Field(IVL), CmpOp::Ne, Operand::Field(TMP)),
                then_branch: Box::new(Control::If {
                    cond: Cond::new(Operand::Field(TMP), CmpOp::Eq, Operand::Const(0)),
                    then_branch: Box::new(Control::ApplyAction(init)),
                    else_branch: Some(Box::new(close_seq)),
                }),
                else_branch: Some(Box::new(Control::ApplyAction(incr))),
            },
        ]);

        // ---- 3. drill-down binding table ------------------------------
        // Action data: [0] base cell, [1] slot, [2] group index.
        let mut track_prims = vec![
            Primitive::Set {
                dst: DRILL_HIT,
                src: Operand::Const(1),
            },
            Primitive::Set {
                dst: VALUE_IDX,
                src: Operand::Data(2),
            },
        ];
        track_prims.extend(freq_update_primitives(counters_reg, n_reg, xsum_reg, xsumsq_reg));
        let track_group_action = b.add_action(ActionDef::new("track_group", track_prims));

        let drill_table = b.add_table(p4sim::TableDef {
            name: "drill_binding".into(),
            keys: vec![(
                fields::IPV4_DST,
                p4sim::MatchKind::Lpm { width: 32 },
            )],
            max_entries: params.drill_capacity,
            allowed_actions: vec![track_group_action],
            default_action: None,
        });

        // ---- 4. imbalance check after a drill hit ---------------------
        let var_sd_groups = variance_sd_fragment(&mut b, "group_variance");

        let mut imb_prims = vec![
            // f_new = f_old + 1
            Primitive::Add {
                dst: TMP,
                a: Operand::Field(F_OLD),
                b: Operand::Const(1),
            },
            Primitive::Mul {
                dst: MUL_A,
                a: Operand::Field(N),
                b: Operand::Field(TMP),
            },
        ];
        imb_prims.extend(outlier_bound_primitives(&params));
        imb_prims.extend([
            Primitive::RegRead {
                dst: SUPPRESS,
                register: suppress_reg,
                index: Operand::Const(0),
            },
            Primitive::RegRead {
                dst: scratch::SQRT_M,
                register: generation_reg,
                index: Operand::Const(0),
            },
        ]);
        let imb_prep = b.add_action(ActionDef::new("imbalance_prep", imb_prims));

        let imb_digest = b.add_action(ActionDef::new(
            "imbalance_digest",
            vec![
                Primitive::Digest {
                    id: DIGEST_IMBALANCE,
                    values: vec![
                        Operand::Field(VALUE_IDX),
                        Operand::Field(TMP),
                        Operand::Field(N),
                        Operand::Field(XSUM),
                        Operand::Field(scratch::SD),
                        Operand::Field(IVL),
                        Operand::Field(scratch::SQRT_M),
                    ],
                },
                Primitive::RegWrite {
                    register: suppress_reg,
                    index: Operand::Const(0),
                    src: Operand::Field(IVL),
                },
            ],
        ));

        let mitigate = b.add_action(ActionDef::new("mitigate_drop", vec![Primitive::Drop]));
        let alert_and_react = {
            let mut steps = vec![Control::If {
                cond: Cond::new(Operand::Field(SUPPRESS), CmpOp::Ne, Operand::Field(IVL)),
                then_branch: Box::new(Control::ApplyAction(imb_digest)),
                else_branch: None,
            }];
            if params.local_mitigation {
                // Fig. 1c local reaction: drop packets of the guilty
                // group while the check holds. Counting happens at
                // ingress (before the drop), so the tracked statistics
                // still see the attack — the egress side is protected.
                steps.push(Control::ApplyAction(mitigate));
            }
            Control::Seq(steps)
        };
        let imbalance_fragment = Control::If {
            cond: Cond::new(Operand::Field(DRILL_HIT), CmpOp::Eq, Operand::Const(1)),
            then_branch: Box::new(Control::Seq(vec![
                var_sd_groups,
                Control::ApplyAction(imb_prep),
                Control::If {
                    cond: Cond::new(
                        Operand::Field(N),
                        CmpOp::Ge,
                        Operand::Const(params.min_groups),
                    ),
                    then_branch: Box::new(Control::If {
                        cond: Cond::new(Operand::Field(MUL_A), CmpOp::Gt, Operand::Field(MUL_B)),
                        then_branch: Box::new(alert_and_react),
                        else_branch: None,
                    }),
                    else_branch: None,
                },
            ])),
            else_branch: None,
        };

        // ---- 5. forwarding -------------------------------------------
        let route = b.add_action(ActionDef::new(
            "route",
            vec![Primitive::Forward {
                port: Operand::Const(params.egress_port),
            }],
        ));

        // Routing runs before the imbalance fragment so a mitigation
        // Drop is not overwritten by the egress assignment.
        b.set_control(Control::Seq(vec![
            Control::ApplyTable(rate_table),
            Control::If {
                cond: Cond::new(Operand::Field(RATE_HIT), CmpOp::Eq, Operand::Const(1)),
                then_branch: Box::new(rate_fragment),
                else_branch: None,
            },
            Control::ApplyAction(route),
            Control::ApplyTable(drill_table),
            imbalance_fragment,
        ]));

        let mut pipeline = b.build(TargetModel::bmv2())?;
        // Install the monitored-prefix entry, as the controller would at
        // startup.
        let (addr, plen) = params.monitored_prefix;
        let resp = pipeline.runtime(&p4sim::RuntimeRequest::InsertEntry {
            table: rate_table,
            entry: p4sim::Entry {
                key: vec![p4sim::MatchValue::Lpm {
                    value: u64::from(addr),
                    prefix_len: plen,
                }],
                priority: i32::from(plen),
                action: mark_rate,
                action_data: vec![0],
            },
        });
        if let p4sim::RuntimeResponse::Error(e) = resp {
            return Err(p4sim::P4Error::Invalid { what: e });
        }
        let handles = CaseStudyHandles {
            params,
            rate_table,
            drill_table,
            track_group_action,
            win_reg,
            rate_state_reg,
            counters_reg,
            n_reg,
            xsum_reg,
            xsumsq_reg,
            suppress_reg,
            generation_reg,
        };
        Ok(Self { pipeline, handles })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding;
    use p4sim::Phv;
    use std::net::Ipv4Addr;

    fn params_small() -> CaseStudyParams {
        CaseStudyParams {
            interval_log2: 20, // ~1 ms intervals
            window_size: 16,
            min_intervals: 4,
            ..CaseStudyParams::default()
        }
    }

    fn packet(app: &mut CaseStudyApp, ts: u64, dst: u32) -> p4sim::PacketOutcome {
        let mut phv = Phv::new();
        phv.set(fields::TIMESTAMP_NS, ts);
        phv.set(fields::IPV4_DST, u64::from(dst));
        phv.set(fields::IPV4_VALID, 1);
        app.pipeline.process_phv(&mut phv).unwrap()
    }

    /// Send `rate` packets in each of `n` intervals starting at
    /// `start_ivl`; returns any spike digests seen.
    fn run_intervals(
        app: &mut CaseStudyApp,
        start_ivl: u64,
        n: u64,
        rate: u64,
    ) -> Vec<p4sim::pipeline::DigestRecord> {
        let ivl_len = 1u64 << app.handles.params.interval_log2;
        let mut alerts = Vec::new();
        for i in 0..n {
            for p in 0..rate {
                let ts = (start_ivl + i) * ivl_len + p * (ivl_len / (rate + 1));
                let out = packet(app, ts, 0x0a00_0001);
                alerts.extend(
                    out.digests
                        .into_iter()
                        .filter(|d| d.id == DIGEST_SPIKE),
                );
            }
        }
        alerts
    }

    #[test]
    fn steady_traffic_never_alarms() {
        let mut app = CaseStudyApp::build(params_small()).unwrap();
        let alerts = run_intervals(&mut app, 1, 30, 20);
        assert!(alerts.is_empty(), "got {alerts:?}");
    }

    #[test]
    fn spike_detected_in_first_interval_after_onset() {
        let mut app = CaseStudyApp::build(params_small()).unwrap();
        // Warm-up: 20 intervals at ~20 pkts. Use slightly varying rates
        // so sigma is non-zero.
        let ivl_len = 1u64 << app.handles.params.interval_log2;
        for i in 0..20u64 {
            let rate = 20 + (i % 3); // 20, 21, 22
            for p in 0..rate {
                packet(&mut app, (1 + i) * ivl_len + p * 1000, 0x0a00_0001);
            }
        }
        // Spike: 10x the rate in interval 21.
        let mut spike_alerts = Vec::new();
        for p in 0..200u64 {
            let out = packet(&mut app, 21 * ivl_len + p * 100, 0x0a00_0001);
            spike_alerts.extend(out.digests.into_iter().filter(|d| d.id == DIGEST_SPIKE));
        }
        // The alert fires when interval 21 closes, i.e. on the first
        // packet of interval 22 — "the first interval after the start of
        // the spike".
        assert!(spike_alerts.is_empty(), "not yet closed");
        let out = packet(&mut app, 22 * ivl_len + 5, 0x0a00_0001);
        let alerts: Vec<_> = out
            .digests
            .iter()
            .filter(|d| d.id == DIGEST_SPIKE)
            .collect();
        assert_eq!(alerts.len(), 1, "spike flagged at first close");
        assert_eq!(alerts[0].values[0], 200, "the spiky interval count");
    }

    #[test]
    fn drill_down_identifies_group() {
        let mut app = CaseStudyApp::build(params_small()).unwrap();
        // Bind six /24s to groups 0..6, as the controller would after a
        // spike alert.
        for g in 0..6u32 {
            let req = binding::bind_prefix_h(&app.handles,
                Ipv4Addr::new(10, 0, g as u8, 0),
                24,
                0,
                u64::from(g),
            );
            assert!(app.pipeline.runtime(&req).is_ok());
        }
        // Balanced traffic across the six /24s: no imbalance alert.
        let ivl_len = 1u64 << app.handles.params.interval_log2;
        let mut ts = ivl_len;
        let mut imbalance = Vec::new();
        for round in 0..40u32 {
            for g in 0..6u32 {
                let dst = 0x0a00_0000 | (g << 8) | (round % 6 + 1);
                let out = packet(&mut app, ts, dst);
                ts += 10_000;
                imbalance.extend(out.digests.into_iter().filter(|d| d.id == DIGEST_IMBALANCE));
            }
        }
        assert!(imbalance.is_empty(), "balanced: {imbalance:?}");

        // Hammer group 3.
        let mut hits = Vec::new();
        for _ in 0..2_000u32 {
            let out = packet(&mut app, ts, 0x0a00_0305);
            ts += 997;
            hits.extend(out.digests.into_iter().filter(|d| d.id == DIGEST_IMBALANCE));
        }
        assert!(!hits.is_empty(), "imbalance must surface");
        assert_eq!(hits[0].values[0], 3, "guilty group identified");
    }

    #[test]
    fn imbalance_alert_rate_limited_per_interval() {
        // Note: with N groups the maximum achievable z-score of the
        // frequency-outlier test is (N-1)/sqrt(N), so a k = 2 band needs
        // at least 6 groups to be able to fire at all; we use 8.
        let mut app = CaseStudyApp::build(params_small()).unwrap();
        for g in 0..8u32 {
            let req = binding::bind_prefix_h(&app.handles,
                Ipv4Addr::new(10, 0, g as u8, 0),
                24,
                0,
                u64::from(g),
            );
            app.pipeline.runtime(&req);
        }
        let ivl_len = 1u64 << app.handles.params.interval_log2;
        // Balanced background then a flood, all inside ONE interval.
        let mut ts = ivl_len;
        for round in 0..30u32 {
            for g in 0..8u32 {
                packet(&mut app, ts + u64::from(round * 8 + g), 0x0a00_0001 | (g << 8));
            }
        }
        ts += 200;
        let mut alerts = 0;
        for i in 0..3_000u64 {
            let out = packet(&mut app, ts + i, 0x0a00_0005);
            alerts += out
                .digests
                .iter()
                .filter(|d| d.id == DIGEST_IMBALANCE)
                .count();
        }
        assert_eq!(alerts, 1, "one alert per interval");
    }

    /// Fig. 1c local reaction: with mitigation on, the switch drops the
    /// flooded group's packets in the data plane while forwarding the
    /// others untouched.
    #[test]
    fn local_mitigation_rate_limits_guilty_group() {
        let run = |mitigate: bool| -> (u64, u64) {
            let mut app = CaseStudyApp::build(CaseStudyParams {
                local_mitigation: mitigate,
                ..params_small()
            })
            .unwrap();
            for g in 0..8u32 {
                let req = crate::binding::bind_prefix_h(&app.handles,
                    std::net::Ipv4Addr::new(10, 0, g as u8, 0),
                    24,
                    0,
                    u64::from(g),
                );
                app.pipeline.runtime(&req);
            }
            // Balanced background, then a flood at group 2.
            let mut ts = 1u64 << app.handles.params.interval_log2;
            for round in 0..30u32 {
                for g in 0..8u32 {
                    packet(&mut app, ts + u64::from(round * 8 + g), 0x0a00_0001 | (g << 8));
                }
            }
            ts += 1000;
            let mut victim_forwarded = 0u64;
            let mut other_forwarded = 0u64;
            for i in 0..4_000u64 {
                // 3 flood packets to group 2 per background packet.
                let (dst, victim) = if i % 4 != 3 {
                    (0x0a00_0205, true)
                } else {
                    (0x0a00_0101, false)
                };
                let out = packet(&mut app, ts + i, dst);
                if !out.dropped {
                    if victim {
                        victim_forwarded += 1;
                    } else {
                        other_forwarded += 1;
                    }
                }
            }
            (victim_forwarded, other_forwarded)
        };
        let (v_off, o_off) = run(false);
        let (v_on, o_on) = run(true);
        assert_eq!(v_off, 3_000, "no mitigation: everything forwarded");
        assert_eq!(o_off, 1_000);
        assert_eq!(o_on, 1_000, "innocent groups untouched");
        assert!(
            v_on < v_off / 2,
            "flood rate-limited in the data plane: {v_on} of {v_off}"
        );
    }

    #[test]
    fn window_stats_match_core_windowed_dist() {
        use stat4_core::window::WindowedDist;
        let mut app = CaseStudyApp::build(params_small()).unwrap();
        let ivl_len = 1u64 << app.handles.params.interval_log2;
        let mut oracle = WindowedDist::new(16).unwrap();
        // 25 intervals with deterministic varying rates (wraps the ring).
        let rates: Vec<u64> = (0..25).map(|i| 10 + (i * 7) % 13).collect();
        for (i, &rate) in rates.iter().enumerate() {
            for p in 0..rate {
                packet(&mut app, (1 + i as u64) * ivl_len + p, 0x0a00_0001);
            }
        }
        // Close the last interval by sending one packet beyond it; then
        // compare the register state with the oracle fed the same rates
        // (the last interval is still open on the oracle side too).
        packet(&mut app, (26) * ivl_len + 1, 0x0a00_0001);
        for &rate in &rates {
            oracle.accumulate(rate as i64);
            oracle.close_interval();
        }
        let regs = app.pipeline.registers();
        assert_eq!(
            regs[app.handles.rate_state_reg].cells[rate_state::N as usize],
            oracle.stats().n()
        );
        assert_eq!(
            regs[app.handles.rate_state_reg].cells[rate_state::XSUM as usize] as i64,
            oracle.stats().xsum()
        );
        assert_eq!(
            regs[app.handles.rate_state_reg].cells[rate_state::XSUMSQ as usize] as i64,
            oracle.stats().xsumsq()
        );
    }
}
