//! UDP datagram view with pseudo-header checksums.

use crate::{checksum, ParseError};
use std::net::Ipv4Addr;

/// UDP header length in bytes.
pub(crate) const HEADER_LEN: usize = 8;

/// A view over a byte buffer interpreted as a UDP datagram.
#[derive(Debug, Clone, Copy)]
pub struct UdpDatagram<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> UdpDatagram<T> {
    /// Wraps `buffer` after validating the header and length field.
    ///
    /// # Errors
    ///
    /// [`ParseError::Truncated`] or [`ParseError::BadLength`].
    pub fn new_checked(buffer: T) -> Result<Self, ParseError> {
        let b = buffer.as_ref();
        if b.len() < HEADER_LEN {
            return Err(ParseError::Truncated {
                layer: "udp",
                have: b.len(),
                need: HEADER_LEN,
            });
        }
        let len = usize::from(u16::from_be_bytes([b[4], b[5]]));
        if len < HEADER_LEN || len > b.len() {
            return Err(ParseError::BadLength { layer: "udp" });
        }
        Ok(Self { buffer })
    }

    fn b(&self) -> &[u8] {
        self.buffer.as_ref()
    }

    /// Source port.
    #[must_use]
    pub fn src_port(&self) -> u16 {
        u16::from_be_bytes([self.b()[0], self.b()[1]])
    }

    /// Destination port.
    #[must_use]
    // Always inlined: `replay::parse_frame` calls this per UDP frame,
    // and where LLVM's cost model left the call out of line, every
    // frame, UDP or not, paid for three saved registers and a stack
    // frame in `parse_frame`.
    #[inline(always)]
    pub fn dst_port(&self) -> u16 {
        u16::from_be_bytes([self.b()[2], self.b()[3]])
    }

    /// Datagram length from the header (header + payload).
    #[must_use]
    pub(crate) fn len_field(&self) -> usize {
        usize::from(u16::from_be_bytes([self.b()[4], self.b()[5]]))
    }

    /// Payload bytes.
    #[must_use]
    pub fn payload(&self) -> &[u8] {
        &self.b()[HEADER_LEN..self.len_field()]
    }

    /// Verifies the checksum (a zero field means "not computed", which
    /// RFC 768 permits; that verifies trivially).
    // Kept `pub`: the oracle tests/checksum_edge.rs checks builder checksums with.
    #[must_use]
    pub fn verify_checksum(&self, src: Ipv4Addr, dst: Ipv4Addr) -> bool {
        let b = &self.b()[..self.len_field()];
        let stored = u16::from_be_bytes([b[6], b[7]]);
        if stored == 0 {
            return true;
        }
        let len = u16::try_from(b.len()).unwrap_or(u16::MAX);
        let acc = checksum::pseudo_header(src, dst, 17, len) + checksum::sum(b);
        checksum::finish(acc) == 0
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> UdpDatagram<T> {
    /// Sets source/destination ports.
    pub(crate) fn set_ports(&mut self, src: u16, dst: u16) {
        let b = self.buffer.as_mut();
        b[0..2].copy_from_slice(&src.to_be_bytes());
        b[2..4].copy_from_slice(&dst.to_be_bytes());
    }

    /// Computes and writes the checksum for the pseudo-header, mapping
    /// an all-zero result to 0xffff per RFC 768.
    pub(crate) fn fill_checksum(&mut self, src: Ipv4Addr, dst: Ipv4Addr) {
        let len_field = {
            let b = self.buffer.as_ref();
            usize::from(u16::from_be_bytes([b[4], b[5]]))
        };
        let b = self.buffer.as_mut();
        b[6..8].fill(0);
        let region = &b[..len_field];
        let len = u16::try_from(region.len()).unwrap_or(u16::MAX);
        let acc = checksum::pseudo_header(src, dst, 17, len) + checksum::sum(region);
        let mut c = checksum::finish(acc);
        if c == 0 {
            c = 0xffff;
        }
        b[6..8].copy_from_slice(&c.to_be_bytes());
    }

    /// Mutable payload access.
    pub(crate) fn payload_mut(&mut self) -> &mut [u8] {
        let len = {
            let b = self.buffer.as_ref();
            usize::from(u16::from_be_bytes([b[4], b[5]]))
        };
        &mut self.buffer.as_mut()[HEADER_LEN..len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 9);
    const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 6);

    fn sample(payload: &[u8]) -> Vec<u8> {
        let total = HEADER_LEN + payload.len();
        let mut buf = vec![0u8; total];
        buf[4..6].copy_from_slice(&(total as u16).to_be_bytes());
        let mut u = UdpDatagram::new_checked(&mut buf[..]).unwrap();
        u.set_ports(5353, 53);
        u.payload_mut().copy_from_slice(payload);
        u.fill_checksum(SRC, DST);
        buf
    }

    #[test]
    fn roundtrip_fields() {
        let buf = sample(b"hello");
        let u = UdpDatagram::new_checked(&buf[..]).unwrap();
        assert_eq!(u.src_port(), 5353);
        assert_eq!(u.dst_port(), 53);
        assert_eq!(u.len_field(), 13);
        assert_eq!(u.payload(), b"hello");
        assert!(u.verify_checksum(SRC, DST));
    }

    #[test]
    fn corruption_detected() {
        let mut buf = sample(b"hello");
        buf[HEADER_LEN] ^= 0x01;
        let u = UdpDatagram::new_checked(&buf[..]).unwrap();
        assert!(!u.verify_checksum(SRC, DST));
    }

    #[test]
    fn zero_checksum_accepted() {
        let mut buf = sample(b"x");
        buf[6..8].fill(0);
        let u = UdpDatagram::new_checked(&buf[..]).unwrap();
        assert!(u.verify_checksum(SRC, DST), "zero = not computed");
    }

    #[test]
    fn truncated_and_bad_length() {
        assert!(matches!(
            UdpDatagram::new_checked(&[0u8; 7][..]),
            Err(ParseError::Truncated { .. })
        ));
        let mut buf = [0u8; 12];
        buf[4..6].copy_from_slice(&20u16.to_be_bytes()); // beyond buffer
        assert!(matches!(
            UdpDatagram::new_checked(&buf[..]),
            Err(ParseError::BadLength { .. })
        ));
        buf[4..6].copy_from_slice(&4u16.to_be_bytes()); // inside header
        assert!(matches!(
            UdpDatagram::new_checked(&buf[..]),
            Err(ParseError::BadLength { .. })
        ));
    }

    #[test]
    fn empty_payload() {
        let buf = sample(&[]);
        let u = UdpDatagram::new_checked(&buf[..]).unwrap();
        assert!(u.payload().is_empty());
        assert!(u.verify_checksum(SRC, DST));
    }
}
