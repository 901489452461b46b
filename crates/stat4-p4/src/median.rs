//! The online median / percentile tracker as a pipeline program
//! (paper Sec. 2, Figure 3).
//!
//! Register layout per tracked distribution: the frequency counters
//! plus four bookkeeping cells — marker position, combined mass strictly
//! below, combined mass strictly above, and a seeded flag. Per packet:
//!
//! 1. account the arriving value into `low`/`high`/its counter;
//! 2. move the marker **at most one cell** toward balance (P4 has no
//!    loops; an empty cell costs one packet to skip, as in Figure 3);
//! 3. write the bookkeeping back.
//!
//! Arbitrary quantiles reuse the machinery with integer weights
//! `low_weight : high_weight` (90th percentile = 9:1); the weighted
//! comparisons are products computed in actions (constant multipliers,
//! hardware-legal) and compared in control.

use crate::scratch;
use p4sim::action::{ActionDef, Operand, Primitive};
use p4sim::control::{CmpOp, Cond, Control};
use p4sim::phv::fields;
use p4sim::program::ProgramBuilder;
use p4sim::{P4Result, Pipeline, RegMerge, TargetModel};

/// Digest id reporting `(marker_value, low, high, total_seen)` per
/// packet (for validation; real deployments would read the registers).
pub(crate) const DIGEST_MEDIAN: u16 = 4;

/// Indices into the tracker's bookkeeping register.
mod state {
    /// Marker cell index.
    pub(crate) const POS: u64 = 0;
    /// Mass strictly below the marker.
    pub(crate) const LOW: u64 = 1;
    /// Mass strictly above the marker.
    pub(crate) const HIGH: u64 = 2;
    /// 0 until the first observation seeds the marker.
    pub(crate) const SEEDED: u64 = 3;
    /// Total observations (for the digest).
    pub(crate) const TOTAL: u64 = 4;
    /// Register size.
    pub(crate) const SIZE: usize = 5;
}

/// Configuration of the in-pipeline tracker.
#[derive(Debug, Clone, Copy)]
pub struct MedianAppParams {
    /// Domain size: values are cell indices `0..domain`.
    pub domain: usize,
    /// Balance weight of the low side (median: 1).
    pub low_weight: u64,
    /// Balance weight of the high side (median: 1).
    pub high_weight: u64,
    /// When true, the packet **recirculates** until the marker is fully
    /// balanced — the alternative the paper rejects ("we want to avoid
    /// packet recirculation, our current approach is to move the median
    /// by at most one unit per packet"). Exact marker placement, at the
    /// cost of extra pipeline passes counted in
    /// [`p4sim::PacketOutcome::recirculations`]; the
    /// `median_recirculation` test quantifies the trade.
    pub converge_with_recirculation: bool,
}

impl Default for MedianAppParams {
    fn default() -> Self {
        Self {
            domain: 512,
            low_weight: 1,
            high_weight: 1,
            converge_with_recirculation: false,
        }
    }
}

/// A pipeline program tracking one quantile of the payload values.
#[derive(Debug)]
pub struct MedianApp {
    /// The runnable pipeline.
    pub pipeline: Pipeline,
    /// Frequency counters register id.
    pub counters_reg: usize,
    /// Bookkeeping register id (cells: pos, low, high, seeded, total).
    pub state_reg: usize,
    /// Parameters.
    pub params: MedianAppParams,
}

impl MedianApp {
    /// Builds the tracker program for bmv2.
    ///
    /// # Errors
    ///
    /// Propagates [`p4sim`] validation errors.
    #[allow(clippy::too_many_lines)]
    pub fn build(params: MedianAppParams) -> P4Result<Self> {
        use scratch::{AUX, F_OLD, IS_NEW, MUL_A, MUL_B, SQRT_E, SQRT_M, SQRT_T, TMP, VALUE_IDX};
        // Scratch roles in this program:
        //   VALUE_IDX  arriving value (cell index)
        //   MUL_A      marker position
        //   MUL_B      low mass
        //   AUX        high mass
        //   TMP        f = counters[pos]
        //   SQRT_T     neighbour count during a step
        //   IS_NEW     seeded flag
        //   SQRT_E/M   weighted products for the balance tests
        //   F_OLD      scratch for counter bumps
        //   RECIRC     1 on recirculated passes (skip the accounting)
        //   MOVED      1 when the rebalance step moved the marker
        let recirc_flag = p4sim::phv::fields::scratch(16);
        let moved_flag = p4sim::phv::fields::scratch(17);
        let mut b = ProgramBuilder::new();
        let counters_reg = b.add_register("median_counters", 64, params.domain);
        let state_reg = b.add_register("median_state", 64, state::SIZE);
        // The marker position / mass split is a single walker's state,
        // not an additive quantity — summing two shards' markers would
        // produce an out-of-domain position.
        b.set_register_merge(state_reg, RegMerge::None);

        let extract = b.add_action(ActionDef::new(
            "m_extract",
            vec![
                Primitive::Set {
                    dst: VALUE_IDX,
                    src: Operand::Field(fields::PAYLOAD_VALUE),
                },
                Primitive::RegRead {
                    dst: MUL_A,
                    register: state_reg,
                    index: Operand::Const(state::POS),
                },
                Primitive::RegRead {
                    dst: MUL_B,
                    register: state_reg,
                    index: Operand::Const(state::LOW),
                },
                Primitive::RegRead {
                    dst: AUX,
                    register: state_reg,
                    index: Operand::Const(state::HIGH),
                },
                Primitive::RegRead {
                    dst: IS_NEW,
                    register: state_reg,
                    index: Operand::Const(state::SEEDED),
                },
            ],
        ));

        // First observation: marker lands on the value, whose counter
        // is bumped like any other observation.
        let seed = b.add_action(ActionDef::new(
            "m_seed",
            vec![
                Primitive::Set {
                    dst: MUL_A,
                    src: Operand::Field(VALUE_IDX),
                },
                Primitive::RegWrite {
                    register: state_reg,
                    index: Operand::Const(state::POS),
                    src: Operand::Field(VALUE_IDX),
                },
                Primitive::RegWrite {
                    register: state_reg,
                    index: Operand::Const(state::SEEDED),
                    src: Operand::Const(1),
                },
                Primitive::RegRead {
                    dst: F_OLD,
                    register: counters_reg,
                    index: Operand::Field(VALUE_IDX),
                },
                Primitive::Add {
                    dst: F_OLD,
                    a: Operand::Field(F_OLD),
                    b: Operand::Const(1),
                },
                Primitive::RegWrite {
                    register: counters_reg,
                    index: Operand::Field(VALUE_IDX),
                    src: Operand::Field(F_OLD),
                },
            ],
        ));

        // Side accounting.
        let inc_low = b.add_action(ActionDef::new(
            "m_inc_low",
            vec![Primitive::Add {
                dst: MUL_B,
                a: Operand::Field(MUL_B),
                b: Operand::Const(1),
            }],
        ));
        let inc_high = b.add_action(ActionDef::new(
            "m_inc_high",
            vec![Primitive::Add {
                dst: AUX,
                a: Operand::Field(AUX),
                b: Operand::Const(1),
            }],
        ));

        // Bump the value's counter, load f = counters[pos], and compute
        // the weighted balance products:
        //   SQRT_E = low_weight·high          (tests the up-move)
        //   SQRT_M = high_weight·(low + f)
        let bump = b.add_action(ActionDef::new(
            "m_bump_and_products",
            vec![
                Primitive::Set {
                    dst: moved_flag,
                    src: Operand::Const(0),
                },
                Primitive::RegRead {
                    dst: F_OLD,
                    register: counters_reg,
                    index: Operand::Field(VALUE_IDX),
                },
                Primitive::Add {
                    dst: F_OLD,
                    a: Operand::Field(F_OLD),
                    b: Operand::Const(1),
                },
                Primitive::RegWrite {
                    register: counters_reg,
                    index: Operand::Field(VALUE_IDX),
                    src: Operand::Field(F_OLD),
                },
                Primitive::RegRead {
                    dst: TMP,
                    register: counters_reg,
                    index: Operand::Field(MUL_A),
                },
                Primitive::Mul {
                    dst: SQRT_E,
                    a: Operand::Field(AUX),
                    b: Operand::Const(params.low_weight),
                },
                Primitive::Add {
                    dst: SQRT_M,
                    a: Operand::Field(MUL_B),
                    b: Operand::Field(TMP),
                },
                Primitive::Mul {
                    dst: SQRT_M,
                    a: Operand::Field(SQRT_M),
                    b: Operand::Const(params.high_weight),
                },
            ],
        ));

        // Products only (no counter bump): the rebalance preamble for a
        // recirculated pass, where the packet was already accounted.
        let products_only = b.add_action(ActionDef::new(
            "m_products_only",
            vec![
                Primitive::Set {
                    dst: moved_flag,
                    src: Operand::Const(0),
                },
                Primitive::RegRead {
                    dst: TMP,
                    register: counters_reg,
                    index: Operand::Field(MUL_A),
                },
                Primitive::Mul {
                    dst: SQRT_E,
                    a: Operand::Field(AUX),
                    b: Operand::Const(params.low_weight),
                },
                Primitive::Add {
                    dst: SQRT_M,
                    a: Operand::Field(MUL_B),
                    b: Operand::Field(TMP),
                },
                Primitive::Mul {
                    dst: SQRT_M,
                    a: Operand::Field(SQRT_M),
                    b: Operand::Const(params.high_weight),
                },
            ],
        ));

        // One marker step up: low += f; high -= counters[pos+1]; pos += 1.
        let step_up = b.add_action(ActionDef::new(
            "m_step_up",
            vec![
                Primitive::Add {
                    dst: MUL_B,
                    a: Operand::Field(MUL_B),
                    b: Operand::Field(TMP),
                },
                Primitive::Add {
                    dst: MUL_A,
                    a: Operand::Field(MUL_A),
                    b: Operand::Const(1),
                },
                Primitive::RegRead {
                    dst: SQRT_T,
                    register: counters_reg,
                    index: Operand::Field(MUL_A),
                },
                Primitive::Sub {
                    dst: AUX,
                    a: Operand::Field(AUX),
                    b: Operand::Field(SQRT_T),
                },
                Primitive::Set {
                    dst: moved_flag,
                    src: Operand::Const(1),
                },
            ],
        ));

        // Weighted products for the down-move test:
        //   SQRT_E = high_weight·low
        //   SQRT_M = low_weight·(high + f)
        let down_products = b.add_action(ActionDef::new(
            "m_down_products",
            vec![
                Primitive::Mul {
                    dst: SQRT_E,
                    a: Operand::Field(MUL_B),
                    b: Operand::Const(params.high_weight),
                },
                Primitive::Add {
                    dst: SQRT_M,
                    a: Operand::Field(AUX),
                    b: Operand::Field(TMP),
                },
                Primitive::Mul {
                    dst: SQRT_M,
                    a: Operand::Field(SQRT_M),
                    b: Operand::Const(params.low_weight),
                },
            ],
        ));

        // One marker step down: high += f; low -= counters[pos-1]; pos -= 1.
        let step_down = b.add_action(ActionDef::new(
            "m_step_down",
            vec![
                Primitive::Add {
                    dst: AUX,
                    a: Operand::Field(AUX),
                    b: Operand::Field(TMP),
                },
                Primitive::Sub {
                    dst: MUL_A,
                    a: Operand::Field(MUL_A),
                    b: Operand::Const(1),
                },
                Primitive::RegRead {
                    dst: SQRT_T,
                    register: counters_reg,
                    index: Operand::Field(MUL_A),
                },
                Primitive::Sub {
                    dst: MUL_B,
                    a: Operand::Field(MUL_B),
                    b: Operand::Field(SQRT_T),
                },
                Primitive::Set {
                    dst: moved_flag,
                    src: Operand::Const(1),
                },
            ],
        ));

        // Persist state + digest.
        let store = b.add_action(ActionDef::new(
            "m_store",
            vec![
                Primitive::RegWrite {
                    register: state_reg,
                    index: Operand::Const(state::POS),
                    src: Operand::Field(MUL_A),
                },
                Primitive::RegWrite {
                    register: state_reg,
                    index: Operand::Const(state::LOW),
                    src: Operand::Field(MUL_B),
                },
                Primitive::RegWrite {
                    register: state_reg,
                    index: Operand::Const(state::HIGH),
                    src: Operand::Field(AUX),
                },
                Primitive::RegRead {
                    dst: SQRT_T,
                    register: state_reg,
                    index: Operand::Const(state::TOTAL),
                },
                Primitive::Add {
                    dst: SQRT_T,
                    a: Operand::Field(SQRT_T),
                    b: Operand::Const(1),
                },
                Primitive::RegWrite {
                    register: state_reg,
                    index: Operand::Const(state::TOTAL),
                    src: Operand::Field(SQRT_T),
                },
                Primitive::Digest {
                    id: DIGEST_MEDIAN,
                    values: vec![
                        Operand::Field(MUL_A),
                        Operand::Field(MUL_B),
                        Operand::Field(AUX),
                        Operand::Field(SQRT_T),
                    ],
                },
            ],
        ));

        let max_pos = (params.domain - 1) as u64;
        let balance_tree =
            // Up-move: low_weight·high > high_weight·(low + f), marker
            // not at the top.
            Control::If {
                cond: Cond::new(
                    Operand::Field(SQRT_E),
                    CmpOp::Gt,
                    Operand::Field(SQRT_M),
                ),
                then_branch: Box::new(Control::If {
                    cond: Cond::new(Operand::Field(MUL_A), CmpOp::Lt, Operand::Const(max_pos)),
                    then_branch: Box::new(Control::ApplyAction(step_up)),
                    else_branch: None,
                }),
                // Otherwise, evaluate the down-move test.
                else_branch: Some(Box::new(Control::Seq(vec![
                    Control::ApplyAction(down_products),
                    Control::If {
                        cond: Cond::new(
                            Operand::Field(SQRT_E),
                            CmpOp::Gt,
                            Operand::Field(SQRT_M),
                        ),
                        then_branch: Box::new(Control::If {
                            cond: Cond::new(Operand::Field(MUL_A), CmpOp::Gt, Operand::Const(0)),
                            then_branch: Box::new(Control::ApplyAction(step_down)),
                            else_branch: None,
                        }),
                        else_branch: None,
                    },
                ]))),
            };
        let rebalance = Control::Seq(vec![Control::ApplyAction(bump), balance_tree.clone()]);

        let first_pass = Control::Seq(vec![
            Control::ApplyAction(extract),
            Control::If {
                cond: Cond::new(Operand::Field(IS_NEW), CmpOp::Eq, Operand::Const(0)),
                then_branch: Box::new(Control::ApplyAction(seed)),
                else_branch: Some(Box::new(Control::Seq(vec![
                    Control::If {
                        cond: Cond::new(
                            Operand::Field(VALUE_IDX),
                            CmpOp::Lt,
                            Operand::Field(MUL_A),
                        ),
                        then_branch: Box::new(Control::ApplyAction(inc_low)),
                        else_branch: Some(Box::new(Control::If {
                            cond: Cond::new(
                                Operand::Field(VALUE_IDX),
                                CmpOp::Gt,
                                Operand::Field(MUL_A),
                            ),
                            then_branch: Box::new(Control::ApplyAction(inc_high)),
                            else_branch: None,
                        })),
                    },
                    rebalance,
                ]))),
            },
        ]);

        let mut top = if params.converge_with_recirculation {
            // Recirculated passes skip the accounting (the packet is
            // already counted; RECIRC persists across passes) and only
            // take further marker steps.
            let mark_recirc = b.add_action(ActionDef::new(
                "m_mark_recirc",
                vec![Primitive::Set {
                    dst: recirc_flag,
                    src: Operand::Const(1),
                }],
            ));
            let later_pass = Control::Seq(vec![
                Control::ApplyAction(extract),
                Control::ApplyAction(products_only),
                balance_tree,
            ]);
            vec![
                Control::If {
                    cond: Cond::new(Operand::Field(recirc_flag), CmpOp::Eq, Operand::Const(0)),
                    then_branch: Box::new(first_pass),
                    else_branch: Some(Box::new(later_pass)),
                },
                Control::If {
                    cond: Cond::new(Operand::Field(moved_flag), CmpOp::Eq, Operand::Const(1)),
                    then_branch: Box::new(Control::Seq(vec![
                        Control::ApplyAction(mark_recirc),
                        Control::Recirculate,
                    ])),
                    else_branch: None,
                },
            ]
        } else {
            let _ = products_only;
            vec![first_pass]
        };
        top.push(Control::ApplyAction(store));
        b.set_control(Control::Seq(top));

        Ok(Self {
            pipeline: b.build(TargetModel::bmv2())?,
            counters_reg,
            state_reg,
            params,
        })
    }

    /// The current marker (estimate), read from the registers.
    #[must_use]
    pub fn estimate(&self) -> Option<u64> {
        let seeded = self.pipeline.registers()[self.state_reg].cells[state::SEEDED as usize];
        (seeded != 0)
            .then(|| self.pipeline.registers()[self.state_reg].cells[state::POS as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4sim::Phv;
    use stat4_core::percentile::{PercentileTracker, Quantile};

    fn feed(app: &mut MedianApp, v: u64) {
        let mut phv = Phv::new();
        phv.set(fields::PAYLOAD_VALUE, v);
        app.pipeline.process_phv(&mut phv).expect("ok");
    }

    /// The pipeline median must agree with the portable tracker on every
    /// packet — they implement the same register algorithm.
    #[test]
    fn tracks_portable_median_exactly() {
        let mut app = MedianApp::build(MedianAppParams {
            domain: 64,
            ..MedianAppParams::default()
        })
        .unwrap();
        let mut oracle = PercentileTracker::median(0, 63).unwrap();
        let values: Vec<u64> = (0..2000u64).map(|i| (i * 37 + i * i) % 64).collect();
        for &v in &values {
            feed(&mut app, v);
            oracle.observe(v as i64).unwrap();
            assert_eq!(
                app.estimate(),
                oracle.estimate().map(|e| e as u64),
                "diverged"
            );
        }
    }

    #[test]
    fn p90_variant_matches_portable() {
        let mut app = MedianApp::build(MedianAppParams {
            domain: 100,
            low_weight: 9,
            high_weight: 1,
            ..MedianAppParams::default()
        })
        .unwrap();
        let q = Quantile::percentile(90).unwrap();
        let mut oracle = PercentileTracker::new(0, 99, q).unwrap();
        let values: Vec<u64> = (0..3000u64).map(|i| (i * 17) % 100).collect();
        for &v in &values {
            feed(&mut app, v);
            oracle.observe(v as i64).unwrap();
            assert_eq!(app.estimate(), oracle.estimate().map(|e| e as u64));
        }
        let est = app.estimate().unwrap();
        assert!((85..=95).contains(&est), "p90 ≈ 90, got {est}");
    }

    #[test]
    fn figure3_walk_in_pipeline() {
        // The same register walk as the portable figure3 test.
        let mut app = MedianApp::build(MedianAppParams {
            domain: 11,
            ..MedianAppParams::default()
        })
        .unwrap();
        for _ in 0..10 {
            feed(&mut app, 2);
        }
        for _ in 0..2 {
            feed(&mut app, 3);
        }
        feed(&mut app, 6);
        for _ in 0..5 {
            feed(&mut app, 9);
        }
        for _ in 0..6 {
            feed(&mut app, 10);
        }
        assert_eq!(app.estimate(), Some(3), "pre-add resting point");
        feed(&mut app, 8);
        assert_eq!(app.estimate(), Some(4), "one packet, one step");
        // Two more packets' worth of rebalancing: re-observe the current
        // cell's... any packet triggers one step; feed value 4 (at the
        // marker, not changing the balance masses beyond its own count).
        feed(&mut app, 8);
        feed(&mut app, 8);
        let m = app.estimate().unwrap();
        assert!(m >= 6, "marker walked past the empty cells: {m}");
    }

    /// The recirculation ablation: the converging variant tracks the
    /// exact balance point every packet (zero lag) at the cost of extra
    /// pipeline passes, which the one-step variant never takes — the
    /// trade the paper resolves in favour of one step per packet.
    #[test]
    fn recirculation_converges_exactly_at_extra_passes() {
        let mut one_step = MedianApp::build(MedianAppParams {
            domain: 256,
            ..MedianAppParams::default()
        })
        .unwrap();
        let mut recirc = MedianApp::build(MedianAppParams {
            domain: 256,
            converge_with_recirculation: true,
            ..MedianAppParams::default()
        })
        .unwrap();
        let mut oracle =
            stat4_core::percentile::PercentileSet::new(0, 255, &[Quantile::median()]).unwrap();

        // An adversarial stream: blocks hop 12 cells at a time — within
        // the bmv2 recirculation cap (16 passes) but far beyond one
        // step per packet.
        let mut stream = Vec::new();
        for b in 0..20u64 {
            for _ in 0..5 {
                stream.push(10 + b * 12);
            }
        }
        let mut recirc_passes = 0u32;
        let mut one_step_max_lag = 0i64;
        for &v in &stream {
            let mut phv = Phv::new();
            phv.set(fields::PAYLOAD_VALUE, v);
            one_step.pipeline.process_phv(&mut phv).unwrap();

            let mut phv2 = Phv::new();
            phv2.set(fields::PAYLOAD_VALUE, v);
            let out = recirc.pipeline.process_phv(&mut phv2).unwrap();
            recirc_passes += out.recirculations;

            oracle.observe(v as i64).unwrap();
            oracle.rebalance_full();
            let exact = oracle.estimate(0).unwrap();
            // The recirculating variant is always at the exact balance
            // point.
            assert_eq!(recirc.estimate(), Some(exact as u64), "after {v}");
            let lag = (one_step.estimate().unwrap() as i64 - exact).abs();
            one_step_max_lag = one_step_max_lag.max(lag);
        }
        assert!(
            recirc_passes > 50,
            "the exactness cost: {recirc_passes} extra passes"
        );
        assert!(
            one_step_max_lag >= 8,
            "the one-step variant lags through the hops: {one_step_max_lag}"
        );
    }

    #[test]
    fn digest_reports_state() {
        let mut app = MedianApp::build(MedianAppParams::default()).unwrap();
        let mut phv = Phv::new();
        phv.set(fields::PAYLOAD_VALUE, 7);
        let out = app.pipeline.process_phv(&mut phv).unwrap();
        assert_eq!(out.digests.len(), 1);
        assert_eq!(out.digests[0].id, DIGEST_MEDIAN);
        assert_eq!(out.digests[0].values, vec![7, 0, 0, 1]);
    }
}
