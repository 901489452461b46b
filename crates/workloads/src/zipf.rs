//! Zipf-distributed per-prefix traffic.
//!
//! The paper's future-work section notes that "the distribution of
//! traffic per prefix may be zipfian" — the classic heavy-tailed case
//! where mean ± k·σ checks behave differently than on normal data. This
//! workload feeds the ablation experiments on non-normal distributions.

use crate::trace::Trace;
use crate::{rng, Schedule};
use packet::builder::PacketBuilder;
use rand::Rng;
use std::net::Ipv4Addr;

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct ZipfPrefixWorkload {
    /// Number of /24 prefixes.
    pub prefixes: u16,
    /// Zipf exponent `s` (1.0 = classic).
    pub exponent: f64,
    /// Packets to generate.
    pub packets: usize,
    /// Gap between packets (ns).
    pub gap_ns: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ZipfPrefixWorkload {
    fn default() -> Self {
        Self {
            prefixes: 64,
            exponent: 1.0,
            packets: 100_000,
            gap_ns: 5_000,
            seed: 1,
        }
    }
}

impl ZipfPrefixWorkload {
    /// Inverse-CDF table for the Zipf distribution.
    fn cdf(&self) -> Vec<f64> {
        let mut weights: Vec<f64> = (1..=self.prefixes)
            .map(|k| 1.0 / f64::from(k).powf(self.exponent))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in &mut weights {
            acc += *w / total;
            *w = acc;
        }
        weights
    }

    /// The address of prefix `k`'s representative host.
    #[must_use]
    pub fn prefix_host(&self, k: u16) -> Ipv4Addr {
        Ipv4Addr::new(10, (k >> 8) as u8, (k & 0xff) as u8, 1)
    }

    /// Generates the schedule and the per-prefix packet counts (ground
    /// truth for popularity).
    #[must_use]
    pub fn generate(&self) -> (Schedule, Vec<u64>) {
        let mut r = rng(self.seed);
        let cdf = self.cdf();
        let src = Ipv4Addr::new(198, 51, 100, 9);
        let mut counts = vec![0u64; usize::from(self.prefixes)];
        let mut trace = Trace::default();
        for i in 0..self.packets {
            let u: f64 = r.random();
            let k = cdf.partition_point(|&c| c < u).min(cdf.len() - 1);
            counts[k] += 1;
            let frame = PacketBuilder::udp(src, self.prefix_host(k as u16), 4000, 80).payload(b"z");
            trace.push(i as u64 * self.gap_ns, &frame);
        }
        (trace.finish(), counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_dominates_tail() {
        let w = ZipfPrefixWorkload {
            packets: 20_000,
            ..ZipfPrefixWorkload::default()
        };
        let (_, counts) = w.generate();
        let total: u64 = counts.iter().sum();
        assert_eq!(total, 20_000);
        // Rank 1 should hold roughly 1/H(64) ≈ 21% of traffic; allow
        // slack but require clear dominance and monotone-ish decay.
        assert!(counts[0] as f64 / total as f64 > 0.15, "head {}", counts[0]);
        assert!(counts[0] > counts[10] && counts[10] > counts[60].saturating_sub(5));
    }

    #[test]
    fn higher_exponent_more_skew() {
        let base = ZipfPrefixWorkload {
            packets: 20_000,
            ..ZipfPrefixWorkload::default()
        };
        let steep = ZipfPrefixWorkload {
            exponent: 2.0,
            ..base
        };
        let (_, c1) = base.generate();
        let (_, c2) = steep.generate();
        assert!(c2[0] > c1[0], "steeper head {} vs {}", c2[0], c1[0]);
    }

    #[test]
    fn deterministic() {
        let w = ZipfPrefixWorkload {
            packets: 1_000,
            ..ZipfPrefixWorkload::default()
        };
        assert_eq!(w.generate().1, w.generate().1);
    }

    #[test]
    fn prefix_host_layout() {
        let w = ZipfPrefixWorkload::default();
        assert_eq!(w.prefix_host(0), Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(w.prefix_host(257), Ipv4Addr::new(10, 1, 1, 1));
    }
}
