//! IPv4 packet view with real header checksums.

use crate::{checksum, ParseError};
use std::net::Ipv4Addr;

/// IP protocol numbers this stack understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpProtocol {
    /// ICMP (1).
    Icmp,
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// Anything else, raw.
    Other(u8),
}

impl From<u8> for IpProtocol {
    fn from(v: u8) -> Self {
        match v {
            1 => IpProtocol::Icmp,
            6 => IpProtocol::Tcp,
            17 => IpProtocol::Udp,
            other => IpProtocol::Other(other),
        }
    }
}

impl From<IpProtocol> for u8 {
    fn from(v: IpProtocol) -> u8 {
        match v {
            IpProtocol::Icmp => 1,
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
            IpProtocol::Other(other) => other,
        }
    }
}

/// Minimum (option-less) IPv4 header length in bytes.
pub const HEADER_LEN: usize = 20;

/// A view over a byte buffer interpreted as an IPv4 packet (options are
/// accepted but not interpreted).
#[derive(Debug, Clone, Copy)]
pub struct Ipv4Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Ipv4Packet<T> {
    /// Wraps `buffer` after validating version, header length and total
    /// length.
    ///
    /// # Errors
    ///
    /// [`ParseError::Truncated`], [`ParseError::BadVersion`] or
    /// [`ParseError::BadLength`].
    pub fn new_checked(buffer: T) -> Result<Self, ParseError> {
        let b = buffer.as_ref();
        if b.len() < HEADER_LEN {
            return Err(ParseError::Truncated {
                layer: "ipv4",
                have: b.len(),
                need: HEADER_LEN,
            });
        }
        let version = b[0] >> 4;
        if version != 4 {
            return Err(ParseError::BadVersion {
                layer: "ipv4",
                found: version,
            });
        }
        let ihl = usize::from(b[0] & 0x0f) * 4;
        let total = usize::from(u16::from_be_bytes([b[2], b[3]]));
        if ihl < HEADER_LEN || total < ihl || total > b.len() {
            return Err(ParseError::BadLength { layer: "ipv4" });
        }
        Ok(Self { buffer })
    }

    fn b(&self) -> &[u8] {
        self.buffer.as_ref()
    }

    /// Header length in bytes (IHL × 4).
    #[must_use]
    pub fn header_len(&self) -> usize {
        usize::from(self.b()[0] & 0x0f) * 4
    }

    /// Total packet length from the header.
    #[must_use]
    pub fn total_len(&self) -> usize {
        usize::from(u16::from_be_bytes([self.b()[2], self.b()[3]]))
    }

    /// Time-to-live.
    #[must_use]
    pub fn ttl(&self) -> u8 {
        self.b()[8]
    }

    /// Payload protocol.
    #[must_use]
    pub fn protocol(&self) -> IpProtocol {
        self.b()[9].into()
    }

    /// Header checksum field.
    #[must_use]
    pub fn header_checksum(&self) -> u16 {
        u16::from_be_bytes([self.b()[10], self.b()[11]])
    }

    /// Source address.
    #[must_use]
    pub fn src(&self) -> Ipv4Addr {
        let b = self.b();
        Ipv4Addr::new(b[12], b[13], b[14], b[15])
    }

    /// Destination address.
    #[must_use]
    pub fn dst(&self) -> Ipv4Addr {
        let b = self.b();
        Ipv4Addr::new(b[16], b[17], b[18], b[19])
    }

    /// True if the header checksum verifies.
    #[must_use]
    pub fn verify_checksum(&self) -> bool {
        checksum::verify(&self.b()[..self.header_len()])
    }

    /// The L4 payload (bytes between header and `total_len`).
    #[must_use]
    // Offered to every codegen unit: `replay::parse_frame` calls this
    // per frame, and where the instance landed in another unit it was
    // an out-of-line call (2.6 % of `dense_1shard`'s frame rate).
    #[inline]
    pub fn payload(&self) -> &[u8] {
        &self.b()[self.header_len()..self.total_len()]
    }

    /// Consumes the view, returning the buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Ipv4Packet<T> {
    /// Initialises version/IHL for an option-less header and the given
    /// total length. Callers then set the remaining fields and call
    /// [`Self::fill_checksum`].
    pub fn init(&mut self, total_len: u16) {
        let b = self.buffer.as_mut();
        b[0] = 0x45;
        b[1] = 0;
        b[2..4].copy_from_slice(&total_len.to_be_bytes());
        b[4..8].fill(0); // id / flags / fragment offset
        b[8] = 64; // default TTL
        b[10..12].fill(0);
    }

    /// Sets the TTL.
    pub fn set_ttl(&mut self, ttl: u8) {
        self.buffer.as_mut()[8] = ttl;
    }

    /// Sets the payload protocol.
    pub fn set_protocol(&mut self, p: IpProtocol) {
        self.buffer.as_mut()[9] = p.into();
    }

    /// Sets the source address.
    pub fn set_src(&mut self, a: Ipv4Addr) {
        self.buffer.as_mut()[12..16].copy_from_slice(&a.octets());
    }

    /// Sets the destination address.
    pub fn set_dst(&mut self, a: Ipv4Addr) {
        self.buffer.as_mut()[16..20].copy_from_slice(&a.octets());
    }

    /// Computes and writes the header checksum.
    pub fn fill_checksum(&mut self) {
        let hl = self.header_len();
        let b = self.buffer.as_mut();
        b[10..12].fill(0);
        let c = checksum::checksum(&b[..hl]);
        b[10..12].copy_from_slice(&c.to_be_bytes());
    }

    /// Mutable payload access.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let hl = self.header_len();
        let tl = self.total_len();
        &mut self.buffer.as_mut()[hl..tl]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(payload: &[u8]) -> Vec<u8> {
        let total = HEADER_LEN + payload.len();
        let mut buf = vec![0u8; total];
        buf[0] = 0x45;
        buf[2..4].copy_from_slice(&(total as u16).to_be_bytes());
        let mut p = Ipv4Packet::new_checked(&mut buf[..]).unwrap();
        p.init(total as u16);
        p.set_protocol(IpProtocol::Udp);
        p.set_src(Ipv4Addr::new(10, 0, 1, 1));
        p.set_dst(Ipv4Addr::new(10, 0, 5, 6));
        p.payload_mut().copy_from_slice(payload);
        p.fill_checksum();
        buf
    }

    #[test]
    fn roundtrip_fields() {
        let buf = sample(&[9, 8, 7]);
        let p = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(p.header_len(), 20);
        assert_eq!(p.total_len(), 23);
        assert_eq!(p.ttl(), 64);
        assert_eq!(p.protocol(), IpProtocol::Udp);
        assert_eq!(p.src(), Ipv4Addr::new(10, 0, 1, 1));
        assert_eq!(p.dst(), Ipv4Addr::new(10, 0, 5, 6));
        assert_eq!(p.payload(), &[9, 8, 7]);
        assert!(p.verify_checksum());
    }

    #[test]
    fn corrupted_checksum_detected() {
        let mut buf = sample(&[1]);
        buf[8] ^= 0x55; // flip TTL bits
        let p = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert!(!p.verify_checksum());
    }

    #[test]
    fn wrong_version_rejected() {
        let mut buf = sample(&[]);
        buf[0] = 0x65; // version 6
        assert!(matches!(
            Ipv4Packet::new_checked(&buf[..]),
            Err(ParseError::BadVersion { found: 6, .. })
        ));
    }

    #[test]
    fn truncated_rejected() {
        let buf = [0x45u8; 10];
        assert!(matches!(
            Ipv4Packet::new_checked(&buf[..]),
            Err(ParseError::Truncated { .. })
        ));
    }

    #[test]
    fn bad_total_len_rejected() {
        let mut buf = sample(&[1, 2, 3]);
        buf[2..4].copy_from_slice(&100u16.to_be_bytes()); // beyond buffer
        assert!(matches!(
            Ipv4Packet::new_checked(&buf[..]),
            Err(ParseError::BadLength { .. })
        ));
    }

    #[test]
    fn bad_ihl_rejected() {
        let mut buf = sample(&[]);
        buf[0] = 0x42; // IHL = 8 bytes < 20
        assert!(matches!(
            Ipv4Packet::new_checked(&buf[..]),
            Err(ParseError::BadLength { .. })
        ));
    }

    #[test]
    fn protocol_conversions() {
        assert_eq!(IpProtocol::from(6), IpProtocol::Tcp);
        assert_eq!(IpProtocol::from(17), IpProtocol::Udp);
        assert_eq!(IpProtocol::from(1), IpProtocol::Icmp);
        assert_eq!(IpProtocol::from(89), IpProtocol::Other(89));
        assert_eq!(u8::from(IpProtocol::Tcp), 6);
    }
}
