//! TCP segment view with pseudo-header checksums.

use crate::{checksum, ParseError};
use std::net::Ipv4Addr;

/// TCP flag bits (low byte of the flags field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// FIN flag bit.
    pub const FIN: u8 = 0x01;
    /// SYN flag bit.
    pub const SYN: u8 = 0x02;
    /// ACK flag bit.
    pub const ACK: u8 = 0x10;

    /// A pure SYN.
    #[must_use]
    pub fn syn() -> Self {
        TcpFlags(Self::SYN)
    }

    /// SYN+ACK.
    #[must_use]
    pub fn syn_ack() -> Self {
        TcpFlags(Self::SYN | Self::ACK)
    }

    /// Plain ACK.
    #[must_use]
    pub fn ack() -> Self {
        TcpFlags(Self::ACK)
    }

    /// True if the given bit is set.
    #[must_use]
    pub fn contains(&self, bit: u8) -> bool {
        self.0 & bit != 0
    }
}

/// Minimum (option-less) TCP header length in bytes.
pub(crate) const HEADER_LEN: usize = 20;

/// A view over a byte buffer interpreted as a TCP segment.
#[derive(Debug, Clone, Copy)]
pub struct TcpSegment<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> TcpSegment<T> {
    /// Wraps `buffer` after validating the header length.
    ///
    /// # Errors
    ///
    /// [`ParseError::Truncated`] or [`ParseError::BadLength`] (data
    /// offset smaller than 20 bytes or beyond the buffer).
    pub fn new_checked(buffer: T) -> Result<Self, ParseError> {
        let b = buffer.as_ref();
        if b.len() < HEADER_LEN {
            return Err(ParseError::Truncated {
                layer: "tcp",
                have: b.len(),
                need: HEADER_LEN,
            });
        }
        let off = usize::from(b[12] >> 4) * 4;
        if off < HEADER_LEN || off > b.len() {
            return Err(ParseError::BadLength { layer: "tcp" });
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
    pub fn dst_port(&self) -> u16 {
        u16::from_be_bytes([self.b()[2], self.b()[3]])
    }

    /// Sequence number.
    #[must_use]
    pub fn seq(&self) -> u32 {
        u32::from_be_bytes(self.b()[4..8].try_into().expect("checked length"))
    }

    /// Header length in bytes (data offset × 4).
    #[must_use]
    pub(crate) fn header_len(&self) -> usize {
        usize::from(self.b()[12] >> 4) * 4
    }

    /// The flags byte.
    #[must_use]
    pub fn flags(&self) -> TcpFlags {
        TcpFlags(self.b()[13])
    }

    /// True if SYN is set.
    #[must_use]
    pub fn syn(&self) -> bool {
        self.flags().contains(TcpFlags::SYN)
    }

    /// True if ACK is set.
    #[must_use]
    pub fn ack(&self) -> bool {
        self.flags().contains(TcpFlags::ACK)
    }

    /// The payload after options.
    #[must_use]
    pub fn payload(&self) -> &[u8] {
        &self.b()[self.header_len()..]
    }

    /// Verifies the checksum against the pseudo-header for `src`/`dst`.
    // Kept `pub`: the oracle tests/checksum_edge.rs checks builder checksums with.
    #[must_use]
    pub fn verify_checksum(&self, src: Ipv4Addr, dst: Ipv4Addr) -> bool {
        let b = self.b();
        let len = u16::try_from(b.len()).unwrap_or(u16::MAX);
        let acc = checksum::pseudo_header(src, dst, 6, len) + checksum::sum(b);
        checksum::finish(acc) == 0
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> TcpSegment<T> {
    /// Initialises an option-less header (data offset 5).
    pub fn init(&mut self) {
        let b = self.buffer.as_mut();
        b[..HEADER_LEN].fill(0);
        b[12] = 5 << 4;
        // A plausible default receive window.
        b[14..16].copy_from_slice(&0xffffu16.to_be_bytes());
    }

    /// Sets source/destination ports.
    pub(crate) fn set_ports(&mut self, src: u16, dst: u16) {
        let b = self.buffer.as_mut();
        b[0..2].copy_from_slice(&src.to_be_bytes());
        b[2..4].copy_from_slice(&dst.to_be_bytes());
    }

    /// Sets the flags byte.
    pub(crate) fn set_flags(&mut self, flags: TcpFlags) {
        self.buffer.as_mut()[13] = flags.0;
    }

    /// Computes and writes the checksum for the pseudo-header.
    pub(crate) fn fill_checksum(&mut self, src: Ipv4Addr, dst: Ipv4Addr) {
        let b = self.buffer.as_mut();
        b[16..18].fill(0);
        let len = u16::try_from(b.len()).unwrap_or(u16::MAX);
        let acc = checksum::pseudo_header(src, dst, 6, len) + checksum::sum(b);
        let c = checksum::finish(acc);
        b[16..18].copy_from_slice(&c.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 5, 6);

    fn sample(flags: TcpFlags, payload: &[u8]) -> Vec<u8> {
        let mut buf = vec![0u8; HEADER_LEN + payload.len()];
        // A zeroed buffer has data offset 0 and would fail validation;
        // set it before wrapping.
        buf[12] = 5 << 4;
        let mut t = TcpSegment::new_checked(&mut buf[..]).unwrap();
        t.init();
        t.set_ports(44123, 80);
        t.set_flags(flags);
        buf[4..8].copy_from_slice(&0x01020304u32.to_be_bytes());
        buf[HEADER_LEN..].copy_from_slice(payload);
        let mut t = TcpSegment::new_checked(&mut buf[..]).unwrap();
        t.fill_checksum(SRC, DST);
        buf
    }

    #[test]
    fn roundtrip_fields() {
        let buf = sample(TcpFlags::syn_ack(), &[0xde, 0xad]);
        let t = TcpSegment::new_checked(&buf[..]).unwrap();
        assert_eq!(t.src_port(), 44123);
        assert_eq!(t.dst_port(), 80);
        assert_eq!(t.seq(), 0x01020304);
        assert!(t.syn() && t.ack());
        assert_eq!(t.payload(), &[0xde, 0xad]);
        assert!(t.verify_checksum(SRC, DST));
    }

    #[test]
    fn checksum_catches_corruption() {
        let mut buf = sample(TcpFlags::syn(), &[1, 2, 3]);
        buf[HEADER_LEN] ^= 0xff;
        let t = TcpSegment::new_checked(&buf[..]).unwrap();
        assert!(!t.verify_checksum(SRC, DST));
        // Also wrong pseudo-header (different dst) must fail.
        let buf2 = sample(TcpFlags::syn(), &[1, 2, 3]);
        let t2 = TcpSegment::new_checked(&buf2[..]).unwrap();
        assert!(!t2.verify_checksum(SRC, Ipv4Addr::new(10, 0, 5, 7)));
    }

    #[test]
    fn truncated_rejected() {
        let buf = [0u8; 19];
        assert!(matches!(
            TcpSegment::new_checked(&buf[..]),
            Err(ParseError::Truncated { .. })
        ));
    }

    #[test]
    fn bad_data_offset_rejected() {
        let mut buf = [0u8; HEADER_LEN];
        buf[12] = 4 << 4; // 16 bytes < minimum
        assert!(matches!(
            TcpSegment::new_checked(&buf[..]),
            Err(ParseError::BadLength { .. })
        ));
        buf[12] = 15 << 4; // 60 bytes > buffer
        assert!(matches!(
            TcpSegment::new_checked(&buf[..]),
            Err(ParseError::BadLength { .. })
        ));
    }

    #[test]
    fn flag_constructors() {
        assert!(TcpFlags::syn().contains(TcpFlags::SYN));
        assert!(!TcpFlags::syn().contains(TcpFlags::ACK));
        assert!(TcpFlags::syn_ack().contains(TcpFlags::ACK));
        assert!(TcpFlags::ack().contains(TcpFlags::ACK));
    }
}
