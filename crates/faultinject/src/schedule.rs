//! Seeded, order-independent fault decisions over a [`FaultSpec`].

use crate::spec::{FaultSpec, ShardFaultKind};
use crate::splitmix64;

/// Decision domains: each kind of question hashes under its own domain
/// constant so e.g. "drop message #5?" and "duplicate message #5?" are
/// independent coin flips.
pub mod domains {
    /// Control-message drop decisions (ordinal = message sequence).
    pub(crate) const CTRL_DROP: u64 = 0x01;
    /// Control-message duplication decisions.
    pub(crate) const CTRL_DUP: u64 = 0x02;
    /// Control-message extra-delay magnitudes.
    pub(crate) const CTRL_DELAY: u64 = 0x03;
    /// Replay epoch-report drop decisions (ordinal = epoch).
    pub(crate) const REPORT_DROP: u64 = 0x04;
    /// Checkpoint-write corruption-mode decisions (ordinal = write).
    pub(crate) const CKPT_CORRUPT: u64 = 0x05;
    /// Reconfigure-transaction redelivery decisions (ordinal = swap).
    pub(crate) const RECONFIG_STORM: u64 = 0x06;
}

/// How a scheduled checkpoint corruption mangles the bytes on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptCorruption {
    /// The write is cut short after `keep` bytes — a torn write.
    Truncate {
        /// Bytes that survive (may exceed the payload, in which case
        /// the injector clamps; the decision is made before the payload
        /// size is known).
        keep: u64,
    },
    /// One byte is flipped in place — bit rot past the page cache.
    FlipByte {
        /// Byte offset to XOR, modulo the payload length.
        offset: u64,
        /// The XOR mask (never zero).
        mask: u8,
    },
}

/// A [`FaultSpec`] bound to a seed: the queryable object every layer
/// consults. All methods are `&self` and pure — the schedule keeps no
/// mutable state, which is what makes decisions independent of call
/// order and thread interleaving (see the crate docs).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    spec: FaultSpec,
    seed: u64,
}

impl FaultSchedule {
    /// Binds a spec to a seed.
    #[must_use]
    pub fn new(spec: FaultSpec, seed: u64) -> Self {
        Self { spec, seed }
    }

    /// Parses a spec string and binds it to a seed.
    pub fn parse(spec: &str, seed: u64) -> Result<Self, crate::SpecError> {
        Ok(Self::new(FaultSpec::parse(spec)?, seed))
    }

    /// A schedule that never injects anything.
    #[must_use]
    pub fn none() -> Self {
        Self::new(FaultSpec::default(), 0)
    }

    /// The underlying spec.
    #[must_use]
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// The seed this schedule was bound to.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True when the schedule can never fire a fault.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spec.is_empty()
    }

    /// The stateless decision hash: mixes `(seed, domain, ordinal)`
    /// through two SplitMix64 rounds.
    #[must_use]
    fn mix(&self, domain: u64, ordinal: u64) -> u64 {
        splitmix64(splitmix64(self.seed ^ domain.wrapping_mul(0xa076_1d64_78bd_642f)) ^ ordinal)
    }

    /// Maps the hash to a uniform value in `[0, 1)`.
    fn unit(&self, domain: u64, ordinal: u64) -> f64 {
        // 53 mantissa bits, the standard u64 -> f64 construction.
        (self.mix(domain, ordinal) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    // ---- control channel (netsim) -----------------------------------

    /// Should control message `seq` be dropped in flight?
    #[must_use]
    pub fn drop_control(&self, seq: u64) -> bool {
        self.spec.ctrl_loss > 0.0 && self.unit(domains::CTRL_DROP, seq) < self.spec.ctrl_loss
    }

    /// Should control message `seq` be delivered twice?
    #[must_use]
    pub fn duplicate_control(&self, seq: u64) -> bool {
        self.spec.ctrl_dup > 0.0 && self.unit(domains::CTRL_DUP, seq) < self.spec.ctrl_dup
    }

    /// Extra in-flight delay for control message `seq`, uniform in
    /// `[0, ctrl_delay_ns]`. Per-message variance is what reorders
    /// messages relative to their send order.
    #[must_use]
    pub fn control_extra_delay_ns(&self, seq: u64) -> u64 {
        if self.spec.ctrl_delay_ns == 0 {
            return 0;
        }
        let h = self.mix(domains::CTRL_DELAY, seq);
        // At `u64::MAX` the range is every value the hash takes.
        self.spec.ctrl_delay_ns.checked_add(1).map_or(h, |n| h % n)
    }

    /// Is the data-plane link down (flapping) at simulation time `now_ns`?
    #[must_use]
    pub fn link_down_at(&self, now_ns: u64) -> bool {
        self.spec
            .link_flaps
            .iter()
            .any(|w| (w.from_ns..w.to_ns).contains(&now_ns))
    }

    // ---- replay -----------------------------------------------------

    /// The fault (if any) scheduled for `shard` at `epoch`. If several
    /// entries match, the most severe wins (crash > panic > stall) so a
    /// schedule can't soften itself by entry order.
    #[must_use]
    pub fn shard_fault(&self, epoch: u64, shard: usize) -> Option<ShardFaultKind> {
        self.spec
            .shard_faults
            .iter()
            .filter(|f| f.shard == shard && f.epoch == epoch)
            .map(|f| f.kind)
            .max_by_key(|k| match k {
                ShardFaultKind::Stall { .. } => 0,
                ShardFaultKind::Panic => 1,
                ShardFaultKind::Crash => 2,
            })
    }

    /// Should the epoch report for `epoch` be lost on its way to the
    /// detector? Models the controller failing to read the switch that
    /// interval; counters are cumulative, so the next delivered report
    /// carries the missed traffic forward.
    #[must_use]
    pub fn drop_epoch_report(&self, epoch: u64) -> bool {
        self.spec.ctrl_loss > 0.0 && self.unit(domains::REPORT_DROP, epoch) < self.spec.ctrl_loss
    }

    /// The corruption (if any) scheduled for checkpoint write
    /// `ordinal`. The *whether* comes from the spec's explicit ordinal
    /// list; the *how* (torn write vs. flipped byte, and where) is a
    /// seeded decision so different seeds exercise different damage.
    #[must_use]
    pub fn ckpt_corruption(&self, ordinal: u64) -> Option<CkptCorruption> {
        if !self.spec.ckpt_corrupt.contains(&ordinal) {
            return None;
        }
        let h = self.mix(domains::CKPT_CORRUPT, ordinal);
        Some(if h & 1 == 0 {
            CkptCorruption::Truncate { keep: (h >> 1) % 4096 }
        } else {
            CkptCorruption::FlipByte {
                offset: h >> 9,
                mask: (((h >> 1) & 0xff) as u8) | 1,
            }
        })
    }

    /// Should reconfigure (drain-swap) transaction `ordinal` be
    /// redelivered after it commits? A correct swap path rejects the
    /// replayed request as stale (generation already advanced).
    #[must_use]
    pub fn duplicate_reconfig(&self, ordinal: u64) -> bool {
        self.spec.reconfig_storm > 0.0
            && self.unit(domains::RECONFIG_STORM, ordinal) < self.spec.reconfig_storm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ShardFault;

    fn sched(spec: &str, seed: u64) -> FaultSchedule {
        FaultSchedule::parse(spec, seed).unwrap()
    }

    #[test]
    fn decisions_are_pure_functions_of_seed_and_ordinal() {
        let a = sched("ctrl_loss=0.3,ctrl_dup=0.1,ctrl_delay_ns=1ms", 42);
        let b = sched("ctrl_loss=0.3,ctrl_dup=0.1,ctrl_delay_ns=1ms", 42);
        // Query b in reverse and interleaved order: answers must match a.
        let fwd: Vec<_> = (0..1000)
            .map(|i| (a.drop_control(i), a.duplicate_control(i), a.control_extra_delay_ns(i)))
            .collect();
        let rev: Vec<_> = (0..1000)
            .rev()
            .map(|i| (b.drop_control(i), b.duplicate_control(i), b.control_extra_delay_ns(i)))
            .collect();
        for (i, f) in fwd.iter().enumerate() {
            assert_eq!(*f, rev[999 - i], "ordinal {i}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = sched("ctrl_loss=0.5", 1);
        let b = sched("ctrl_loss=0.5", 2);
        let da: Vec<bool> = (0..256).map(|i| a.drop_control(i)).collect();
        let db: Vec<bool> = (0..256).map(|i| b.drop_control(i)).collect();
        assert_ne!(da, db);
    }

    #[test]
    fn loss_rate_is_roughly_the_requested_probability() {
        let s = sched("ctrl_loss=0.30", 7);
        let dropped = (0..10_000).filter(|&i| s.drop_control(i)).count();
        let rate = dropped as f64 / 10_000.0;
        assert!((rate - 0.30).abs() < 0.02, "observed rate {rate}");
    }

    #[test]
    fn domains_are_independent() {
        let s = sched("ctrl_loss=0.5,ctrl_dup=0.5", 3);
        let drops: Vec<bool> = (0..512).map(|i| s.drop_control(i)).collect();
        let dups: Vec<bool> = (0..512).map(|i| s.duplicate_control(i)).collect();
        assert_ne!(drops, dups);
    }

    #[test]
    fn delay_stays_within_bound_and_varies() {
        let s = sched("ctrl_delay_ns=200us", 9);
        let delays: Vec<u64> = (0..256).map(|i| s.control_extra_delay_ns(i)).collect();
        assert!(delays.iter().all(|&d| d <= 200_000));
        assert!(delays.iter().any(|&d| d != delays[0]), "no variance");
        assert_eq!(sched("", 9).control_extra_delay_ns(5), 0);
    }

    #[test]
    fn shard_fault_lookup_and_severity_order() {
        let s = sched("shard_stall=1@3:1ms,shard_crash=1@3,shard_panic=0@2", 0);
        assert_eq!(s.shard_fault(3, 1), Some(ShardFaultKind::Crash));
        assert_eq!(s.shard_fault(2, 0), Some(ShardFaultKind::Panic));
        assert_eq!(s.shard_fault(2, 1), None);
        assert_eq!(s.shard_fault(3, 0), None);
        // Severity ordering is entry-order independent.
        let s2 = FaultSchedule::new(
            FaultSpec {
                shard_faults: vec![
                    ShardFault { shard: 0, epoch: 0, kind: ShardFaultKind::Crash },
                    ShardFault { shard: 0, epoch: 0, kind: ShardFaultKind::Stall { ns: 1 } },
                ],
                ..FaultSpec::default()
            },
            0,
        );
        assert_eq!(s2.shard_fault(0, 0), Some(ShardFaultKind::Crash));
    }

    #[test]
    fn link_flap_windows_are_half_open() {
        let s = sched("link_flap=@5ms..9ms", 0);
        assert!(!s.link_down_at(4_999_999));
        assert!(s.link_down_at(5_000_000));
        assert!(s.link_down_at(8_999_999));
        assert!(!s.link_down_at(9_000_000));
    }

    #[test]
    fn ckpt_corruption_fires_only_on_listed_ordinals() {
        let s = sched("ckpt_corrupt=1,ckpt_corrupt=4", 42);
        assert!(s.ckpt_corruption(0).is_none());
        assert!(s.ckpt_corruption(1).is_some());
        assert!(s.ckpt_corruption(2).is_none());
        assert!(s.ckpt_corruption(4).is_some());
        // Same seed, same damage; different seed may choose differently
        // but still fires on the listed ordinal.
        assert_eq!(s.ckpt_corruption(1), sched("ckpt_corrupt=1", 42).ckpt_corruption(1));
        assert!(sched("ckpt_corrupt=1", 7).ckpt_corruption(1).is_some());
        if let Some(CkptCorruption::FlipByte { mask, .. }) = s.ckpt_corruption(1) {
            assert_ne!(mask, 0);
        }
    }

    #[test]
    fn reconfig_storm_is_a_seeded_bernoulli() {
        let s = sched("reconfig_storm=1.0", 11);
        assert!(s.duplicate_reconfig(0));
        let p = sched("reconfig_storm=0.5", 11);
        let hits = (0..1000).filter(|&i| p.duplicate_reconfig(i)).count();
        assert!((400..600).contains(&hits), "hits = {hits}");
        assert!(!sched("", 11).duplicate_reconfig(0));
    }

    #[test]
    fn none_schedule_never_fires() {
        let s = FaultSchedule::none();
        assert!(s.is_empty());
        for i in 0..64 {
            assert!(!s.drop_control(i));
            assert!(!s.duplicate_control(i));
            assert_eq!(s.control_extra_delay_ns(i), 0);
            assert!(!s.drop_epoch_report(i));
            assert_eq!(s.shard_fault(i, i as usize), None);
        }
    }

    /// Every decision method answers at the edges of its ordinal range
    /// under a spec whose values sit at the edges of theirs, without
    /// overflowing.
    #[test]
    fn every_decision_answers_at_edge_ordinals() {
        let max = u64::MAX;
        let s = sched(
            &format!(
                "ctrl_loss=1,ctrl_dup=1,ctrl_delay_ns={max},link_flap=@0..{max},\
                 shard_crash={max}@{max},ckpt_corrupt={max},reconfig_storm=1"
            ),
            max,
        );
        for ord in [0, 1, max] {
            assert!(s.drop_control(ord));
            assert!(s.duplicate_control(ord));
            assert_eq!(s.control_extra_delay_ns(ord), s.mix(domains::CTRL_DELAY, ord));
            assert_eq!(s.link_down_at(ord), ord < max);
            assert!(s.drop_epoch_report(ord));
            let crash = (ord == max).then_some(ShardFaultKind::Crash);
            assert_eq!(s.shard_fault(ord, ord as usize), crash);
            assert_eq!(s.ckpt_corruption(ord).is_some(), ord == max);
            assert!(s.duplicate_reconfig(ord));
        }
        let below = sched(&format!("ctrl_delay_ns={}", max - 1), 3);
        for ord in [0, 1, max] {
            assert!(below.control_extra_delay_ns(ord) < max);
        }
    }
}
