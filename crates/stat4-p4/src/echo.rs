//! The echo validation application (paper Sec. 3, Figure 5).
//!
//! A host sends Ethernet frames whose payload carries an integer in
//! `[-255, 255]`; the switch tracks the frequency distribution of those
//! integers and, for every packet, reports the updated `N`, `Xsum`,
//! `Xsumsq`, `σ²(NX)` and `σ(NX)` back (here: as a digest; bmv2 used a
//! reply frame). The host recomputes everything in software and
//! compares — the integration test `validation_echo` and the
//! `repro validation` replicate the paper's 10 000-packet run.

use crate::config::Stat4Config;
use crate::fragments::{
    freq_update_primitives, isqrt_fragment_for, mul_unrolled_primitives, variance_nx_primitives,
};
use crate::scratch;
use p4sim::action::{ActionDef, Operand, Primitive};
use p4sim::control::Control;
use p4sim::phv::fields;
use p4sim::program::ProgramBuilder;
use p4sim::{P4Result, Pipeline, RegMerge, TargetModel};

/// Digest id carrying `(N, Xsum, Xsumsq, var, sd)` per packet.
pub const DIGEST_ECHO: u16 = 1;

/// Offset added to payload integers so `[-255, 255]` maps onto cell
/// indices `[0, 510]`.
pub(crate) const VALUE_OFFSET: u64 = 255;

/// How the program computes `N·Xsumsq` and `Xsum²`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarianceMode {
    /// Runtime multiplication (bmv2-class targets).
    ExactMul,
    /// Fully unrolled shift-add multiplication — exact for operands
    /// below `2^bits`, legal on multiply-less hardware.
    UnrolledShiftAdd {
        /// Bit width of the unrolled multiplier.
        bits: u32,
    },
}

/// The built echo application.
#[derive(Debug)]
pub struct EchoApp {
    /// The runnable pipeline.
    pub pipeline: Pipeline,
    /// Register id of the value counters.
    pub counters_reg: usize,
    /// Register id of `N` (per slot).
    pub n_reg: usize,
    /// Register id of `Xsum`.
    pub xsum_reg: usize,
    /// Register id of `Xsumsq`.
    pub xsumsq_reg: usize,
    /// Register id of `σ²(NX)` (stored lazily).
    pub var_reg: usize,
    /// Register id of `σ(NX)`.
    pub sd_reg: usize,
}

impl EchoApp {
    /// Builds the echo app with runtime multiplication on bmv2.
    ///
    /// # Errors
    ///
    /// Propagates [`p4sim`] validation errors.
    pub fn build(config: &Stat4Config) -> P4Result<Self> {
        Self::build_with(config, TargetModel::bmv2(), VarianceMode::ExactMul)
    }

    /// Builds with an explicit target and variance mode.
    ///
    /// # Errors
    ///
    /// Propagates [`p4sim`] validation errors — e.g. `ExactMul` on the
    /// Tofino-like target is rejected.
    pub fn build_with(
        config: &Stat4Config,
        target: TargetModel,
        mode: VarianceMode,
    ) -> P4Result<Self> {
        let mut b = ProgramBuilder::new();
        let counters_reg = b.add_register("stat_counters", config.width_bits, config.total_cells());
        let n_reg = b.add_register("stat_n", config.width_bits, config.counter_num);
        let xsum_reg = b.add_register("stat_xsum", config.width_bits, config.counter_num);
        let xsumsq_reg = b.add_register("stat_xsumsq", config.width_bits, config.counter_num);
        let var_reg = b.add_register("stat_var", config.width_bits, config.counter_num);
        let sd_reg = b.add_register("stat_sd", config.width_bits, config.counter_num);
        // Derived values (recomputed from the sums on every packet), not
        // additive state: merging shards by summing them would be wrong.
        b.set_register_merge(var_reg, RegMerge::None);
        b.set_register_merge(sd_reg, RegMerge::None);

        // Binding-table action: extract the payload integer, shift it
        // into the cell domain, then run the frequency update. Action
        // data: [0] base cell, [1] slot, [2] value offset.
        let mut prims = vec![Primitive::Add {
            dst: scratch::VALUE_IDX,
            a: Operand::Field(fields::PAYLOAD_VALUE),
            b: Operand::Data(2),
        }];
        prims.extend(freq_update_primitives(counters_reg, n_reg, xsum_reg, xsumsq_reg));
        let track = b.add_action(ActionDef::new("track_payload", prims));

        let bind = b.add_table(p4sim::TableDef {
            name: "binding".into(),
            keys: vec![],
            max_entries: config.counter_num,
            allowed_actions: vec![track],
            default_action: Some((track, vec![0, 0, VALUE_OFFSET])),
        });

        // Lazy statistics: variance then σ, then persist and echo.
        let var_control = match mode {
            VarianceMode::ExactMul => {
                let a = b.add_action(ActionDef::new("variance_nx", variance_nx_primitives()));
                Control::ApplyAction(a)
            }
            VarianceMode::UnrolledShiftAdd { bits } => {
                // N·Xsumsq via the unrolled multiplier (N is the small
                // operand), Xsum² likewise, then subtract.
                let mut prims =
                    mul_unrolled_primitives(scratch::XSUMSQ, scratch::N, scratch::SQRT_T, bits);
                prims.push(Primitive::Set {
                    dst: scratch::AUX,
                    src: Operand::Field(scratch::SQRT_T),
                });
                prims.extend(mul_unrolled_primitives(
                    scratch::XSUM,
                    scratch::XSUM,
                    scratch::SQRT_T,
                    bits,
                ));
                prims.push(Primitive::Sub {
                    dst: scratch::VAR,
                    a: Operand::Field(scratch::AUX),
                    b: Operand::Field(scratch::SQRT_T),
                });
                let a = b.add_action(ActionDef::new("variance_nx_unrolled", prims));
                Control::ApplyAction(a)
            }
        };
        let sqrt_control = isqrt_fragment_for(&mut b, &target, scratch::VAR, scratch::SD);

        let store_echo = b.add_action(ActionDef::new(
            "store_and_echo",
            vec![
                Primitive::RegWrite {
                    register: var_reg,
                    index: Operand::Const(0),
                    src: Operand::Field(scratch::VAR),
                },
                Primitive::RegWrite {
                    register: sd_reg,
                    index: Operand::Const(0),
                    src: Operand::Field(scratch::SD),
                },
                Primitive::Digest {
                    id: DIGEST_ECHO,
                    values: vec![
                        Operand::Field(scratch::N),
                        Operand::Field(scratch::XSUM),
                        Operand::Field(scratch::XSUMSQ),
                        Operand::Field(scratch::VAR),
                        Operand::Field(scratch::SD),
                    ],
                },
                // Echo the frame back where it came from.
                Primitive::Forward {
                    port: Operand::Field(fields::INGRESS_PORT),
                },
            ],
        ));

        b.set_control(Control::Seq(vec![
            Control::ApplyTable(bind),
            var_control,
            sqrt_control,
            Control::ApplyAction(store_echo),
        ]));

        Ok(Self {
            pipeline: b.build(target)?,
            counters_reg,
            n_reg,
            xsum_reg,
            xsumsq_reg,
            var_reg,
            sd_reg,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4sim::Phv;
    use stat4_core::freq::FrequencyDist;

    fn send(app: &mut EchoApp, value: i64) -> Vec<u64> {
        let mut phv = Phv::new();
        phv.set(fields::PAYLOAD_VALUE, value as u64);
        phv.set(fields::INGRESS_PORT, 1);
        let out = app.pipeline.process_phv(&mut phv).unwrap();
        assert_eq!(out.egress, Some(1), "echoed to sender");
        assert_eq!(out.digests.len(), 1);
        assert_eq!(out.digests[0].id, DIGEST_ECHO);
        out.digests[0].values.clone()
    }

    /// The paper's Fig. 5 caption: after one frame carrying "2",
    /// N=1, Xsum=2... — note the paper tracks the frequency distribution,
    /// so Xsum counts *observations*: after one frame N=1, Xsum=1,
    /// Xsumsq=1, var=0, sd=0. (The caption's Xsum=2/Xsumsq=4 corresponds
    /// to a value distribution; our digest matches the frequency
    /// semantics of Sec. 2, cross-checked against stat4_core.)
    #[test]
    fn first_packet_digest() {
        let mut app = EchoApp::build(&Stat4Config::default()).unwrap();
        let d = send(&mut app, 2);
        assert_eq!(d, vec![1, 1, 1, 0, 0]);
    }

    #[test]
    fn digest_matches_oracle_over_stream() {
        let mut app = EchoApp::build(&Stat4Config::default()).unwrap();
        let mut oracle = FrequencyDist::new(-255, 255).unwrap();
        let values = [-255i64, 255, 0, 0, -1, 1, -255, 17, 17, 17, -42];
        for &v in &values {
            let d = send(&mut app, v);
            oracle.observe(v).unwrap();
            assert_eq!(d[0], oracle.n_distinct(), "N after {v}");
            assert_eq!(d[1], oracle.xsum(), "Xsum after {v}");
            assert_eq!(u128::from(d[2]), oracle.xsumsq(), "Xsumsq after {v}");
            assert_eq!(u128::from(d[3]), oracle.variance_nx(), "var after {v}");
            assert_eq!(d[4], oracle.sd_nx(), "sd after {v}");
        }
    }

    #[test]
    fn var_sd_persisted_to_registers() {
        let mut app = EchoApp::build(&Stat4Config::default()).unwrap();
        let d = send(&mut app, 5);
        send(&mut app, 9);
        let d2 = send(&mut app, 9);
        assert_eq!(app.pipeline.registers()[app.var_reg].cells[0], d2[3]);
        assert_eq!(app.pipeline.registers()[app.sd_reg].cells[0], d2[4]);
        // First digest differs from last: state evolved.
        assert_ne!(d, d2);
    }

    #[test]
    fn unrolled_variance_builds_on_hardware_and_agrees() {
        let cfg = Stat4Config::default();
        let mut exact = EchoApp::build(&cfg).unwrap();
        let mut hw = EchoApp::build_with(
            &cfg,
            TargetModel::tofino_like(),
            VarianceMode::UnrolledShiftAdd { bits: 16 },
        )
        .unwrap();
        for v in [-3i64, 3, 3, 100, -100, 7, 7, 7, 0] {
            let a = send(&mut exact, v);
            let b = send(&mut hw, v);
            assert_eq!(a, b, "modes agree on {v}");
        }
    }

    #[test]
    fn exact_mul_rejected_on_hardware() {
        let cfg = Stat4Config::default();
        assert!(
            EchoApp::build_with(&cfg, TargetModel::tofino_like(), VarianceMode::ExactMul).is_err()
        );
    }

    #[test]
    fn negative_offsets_map_into_domain() {
        let mut app = EchoApp::build(&Stat4Config::default()).unwrap();
        send(&mut app, -255);
        assert_eq!(
            app.pipeline.registers()[app.counters_reg].cells[0],
            1,
            "-255 lands in cell 0"
        );
        send(&mut app, 255);
        assert_eq!(
            app.pipeline.registers()[app.counters_reg].cells[510],
            1,
            "255 lands in cell 510"
        );
    }
}
