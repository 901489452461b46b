//! The Packet Header Vector: per-packet fields the pipeline reads and
//! writes.
//!
//! Real PHVs are width-typed containers packed by the compiler; here a
//! fixed array of 64-bit slots suffices, with the well-known header and
//! metadata fields given stable ids so programs, the parser and tests
//! agree on the layout. Scratch metadata slots `M0..M15` hold
//! intermediate values inside action chains, mirroring P4 user metadata.

/// Index of a field in the PHV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FieldId(pub u16);

/// Well-known fields populated by the parser plus standard metadata.
pub mod fields {
    use super::FieldId;

    /// Ingress port (metadata).
    pub const INGRESS_PORT: FieldId = FieldId(0);
    /// Full frame length in bytes (metadata).
    pub const PKT_LEN: FieldId = FieldId(1);
    /// Simulation timestamp in nanoseconds (metadata).
    pub const TIMESTAMP_NS: FieldId = FieldId(2);

    /// Ethernet destination MAC (lower 48 bits).
    pub(crate) const ETH_DST: FieldId = FieldId(3);
    /// Ethernet source MAC (lower 48 bits).
    pub(crate) const ETH_SRC: FieldId = FieldId(4);
    /// EtherType.
    pub(crate) const ETH_TYPE: FieldId = FieldId(5);

    /// 1 if an IPv4 header was parsed.
    pub const IPV4_VALID: FieldId = FieldId(6);
    /// IPv4 source address.
    pub(crate) const IPV4_SRC: FieldId = FieldId(7);
    /// IPv4 destination address.
    pub const IPV4_DST: FieldId = FieldId(8);
    /// IPv4 protocol number.
    pub(crate) const IPV4_PROTO: FieldId = FieldId(9);
    /// IPv4 TTL.
    pub(crate) const IPV4_TTL: FieldId = FieldId(10);
    /// IPv4 total length.
    pub(crate) const IPV4_LEN: FieldId = FieldId(11);

    /// 1 if a TCP header was parsed.
    pub const TCP_VALID: FieldId = FieldId(12);
    /// TCP source port.
    pub(crate) const TCP_SPORT: FieldId = FieldId(13);
    /// TCP destination port.
    pub(crate) const TCP_DPORT: FieldId = FieldId(14);
    /// TCP flags byte.
    pub(crate) const TCP_FLAGS: FieldId = FieldId(15);
    /// 1 if the segment is a pure SYN (SYN set, ACK clear).
    pub const TCP_IS_SYN: FieldId = FieldId(16);

    /// 1 if a UDP header was parsed.
    pub(crate) const UDP_VALID: FieldId = FieldId(17);
    /// UDP source port.
    pub(crate) const UDP_SPORT: FieldId = FieldId(18);
    /// UDP destination port.
    pub const UDP_DPORT: FieldId = FieldId(19);

    /// First 8 payload bytes, big-endian (0 when absent) — the echo
    /// application's "value of interest" carried in the frame body.
    pub const PAYLOAD_VALUE: FieldId = FieldId(20);

    /// Egress port chosen by the pipeline (metadata; `DROP_PORT` =
    /// dropped).
    pub(crate) const EGRESS_PORT: FieldId = FieldId(21);

    /// First scratch metadata slot; `M0..M23` are `FieldId(22..46)`.
    pub const M0: FieldId = FieldId(22);

    /// Number of scratch slots.
    pub(crate) const SCRATCH_COUNT: u16 = 24;

    /// The `i`-th scratch metadata slot (`i < SCRATCH_COUNT`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= SCRATCH_COUNT`.
    #[must_use]
    pub const fn scratch(i: u16) -> FieldId {
        assert!(i < SCRATCH_COUNT);
        FieldId(M0.0 + i)
    }

    /// Total PHV slots.
    pub const FIELD_COUNT: usize = (M0.0 + SCRATCH_COUNT) as usize;
}

/// Sentinel egress value meaning "dropped".
pub(crate) const DROP_PORT: u64 = u64::MAX;

/// A packet's header vector: one 64-bit slot per field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phv {
    slots: [u64; fields::FIELD_COUNT],
}

impl Default for Phv {
    fn default() -> Self {
        Self::new()
    }
}

impl Phv {
    /// An all-zero PHV.
    #[must_use]
    pub fn new() -> Self {
        Self {
            slots: [0; fields::FIELD_COUNT],
        }
    }

    /// Reads a field (0 for ids beyond the layout, matching P4's
    /// invalid-header reads).
    #[must_use]
    pub fn get(&self, f: FieldId) -> u64 {
        self.slots.get(f.0 as usize).copied().unwrap_or(0)
    }

    /// Writes a field; writes to out-of-layout ids are ignored.
    pub fn set(&mut self, f: FieldId, v: u64) {
        if let Some(slot) = self.slots.get_mut(f.0 as usize) {
            *slot = v;
        }
    }

    /// True if the pipeline marked the packet dropped.
    #[must_use]
    pub fn dropped(&self) -> bool {
        self.get(fields::EGRESS_PORT) == DROP_PORT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_roundtrip() {
        let mut p = Phv::new();
        assert_eq!(p.get(fields::IPV4_DST), 0);
        p.set(fields::IPV4_DST, 0x0a000506);
        assert_eq!(p.get(fields::IPV4_DST), 0x0a000506);
    }

    #[test]
    fn out_of_layout_reads_zero() {
        let mut p = Phv::new();
        let bogus = FieldId(9999);
        assert_eq!(p.get(bogus), 0);
        p.set(bogus, 77); // ignored
        assert_eq!(p.get(bogus), 0);
    }

    #[test]
    fn scratch_slots_distinct() {
        let a = fields::scratch(0);
        let b = fields::scratch(23);
        assert_ne!(a, b);
        assert_eq!(a, fields::M0);
        let mut p = Phv::new();
        p.set(a, 1);
        p.set(b, 2);
        assert_eq!(p.get(a), 1);
        assert_eq!(p.get(b), 2);
    }

    #[test]
    fn drop_sentinel() {
        let mut p = Phv::new();
        assert!(!p.dropped());
        p.set(fields::EGRESS_PORT, DROP_PORT);
        assert!(p.dropped());
    }
}
