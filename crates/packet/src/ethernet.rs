//! Ethernet II frame view and builder.

use crate::ParseError;
use std::fmt;

/// A 48-bit MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {

    /// A deterministic locally-administered unicast address derived from
    /// an integer id — handy for simulated hosts.
    #[must_use]
    pub(crate) fn from_id(id: u32) -> Self {
        let b = id.to_be_bytes();
        // 0x02 = locally administered, unicast.
        MacAddr([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = &self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

/// EtherType of the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// IPv4 (0x0800).
    Ipv4,
    /// ARP (0x0806).
    Arp,
    /// Anything else, raw.
    Other(u16),
}

impl From<u16> for EtherType {
    fn from(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            other => EtherType::Other(other),
        }
    }
}

impl From<EtherType> for u16 {
    fn from(v: EtherType) -> u16 {
        match v {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Other(other) => other,
        }
    }
}

/// Byte length of the Ethernet II header.
pub(crate) const HEADER_LEN: usize = 14;

/// A view over a byte buffer interpreted as an Ethernet II frame.
#[derive(Debug, Clone, Copy)]
pub struct EthernetFrame<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> EthernetFrame<T> {
    /// Wraps `buffer` after checking it holds at least a full header.
    ///
    /// # Errors
    ///
    /// [`ParseError::Truncated`] if shorter than 14 bytes.
    pub fn new_checked(buffer: T) -> Result<Self, ParseError> {
        let have = buffer.as_ref().len();
        if have < HEADER_LEN {
            return Err(ParseError::Truncated {
                layer: "ethernet",
                have,
                need: HEADER_LEN,
            });
        }
        Ok(Self { buffer })
    }

    /// Destination MAC address.
    #[must_use]
    pub fn dst(&self) -> MacAddr {
        let b = self.buffer.as_ref();
        MacAddr(b[0..6].try_into().expect("checked length"))
    }

    /// Source MAC address.
    #[must_use]
    pub fn src(&self) -> MacAddr {
        let b = self.buffer.as_ref();
        MacAddr(b[6..12].try_into().expect("checked length"))
    }

    /// EtherType field.
    #[must_use]
    pub fn ethertype(&self) -> EtherType {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[12], b[13]]).into()
    }

    /// The bytes after the header.
    #[must_use]
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[HEADER_LEN..]
    }

    /// Consumes the view, returning the buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> EthernetFrame<T> {
    /// Sets the destination MAC.
    pub(crate) fn set_dst(&mut self, mac: MacAddr) {
        self.buffer.as_mut()[0..6].copy_from_slice(&mac.0);
    }

    /// Sets the source MAC.
    pub(crate) fn set_src(&mut self, mac: MacAddr) {
        self.buffer.as_mut()[6..12].copy_from_slice(&mac.0);
    }

    /// Sets the EtherType.
    pub(crate) fn set_ethertype(&mut self, ty: EtherType) {
        let v: u16 = ty.into();
        self.buffer.as_mut()[12..14].copy_from_slice(&v.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut buf = vec![0u8; HEADER_LEN + 4];
        let mut f = EthernetFrame::new_checked(&mut buf[..]).unwrap();
        f.set_dst(MacAddr([0xff; 6]));
        f.set_src(MacAddr::from_id(7));
        f.set_ethertype(EtherType::Ipv4);
        buf[HEADER_LEN..].copy_from_slice(&[1, 2, 3, 4]);
        buf
    }

    #[test]
    fn roundtrip_fields() {
        let buf = sample();
        let f = EthernetFrame::new_checked(&buf[..]).unwrap();
        assert_eq!(f.dst(), MacAddr([0xff; 6]));
        assert_eq!(f.src(), MacAddr::from_id(7));
        assert_eq!(f.ethertype(), EtherType::Ipv4);
        assert_eq!(f.payload(), &[1, 2, 3, 4]);
    }

    #[test]
    fn truncated_rejected() {
        let buf = [0u8; 13];
        assert!(matches!(
            EthernetFrame::new_checked(&buf[..]),
            Err(ParseError::Truncated { layer: "ethernet", .. })
        ));
    }

    #[test]
    fn ethertype_conversions() {
        assert_eq!(EtherType::from(0x0800), EtherType::Ipv4);
        assert_eq!(EtherType::from(0x0806), EtherType::Arp);
        assert_eq!(EtherType::from(0x86dd), EtherType::Other(0x86dd));
        assert_eq!(u16::from(EtherType::Ipv4), 0x0800);
        assert_eq!(u16::from(EtherType::Other(0x1234)), 0x1234);
    }

    #[test]
    fn mac_properties() {
        assert_eq!(MacAddr::from_id(1).to_string(), "02:00:00:00:00:01");
        assert_ne!(MacAddr::from_id(1), MacAddr::from_id(2));
    }

    #[test]
    fn exact_header_len_ok() {
        let buf = [0u8; HEADER_LEN];
        let f = EthernetFrame::new_checked(&buf[..]).unwrap();
        assert!(f.payload().is_empty());
    }
}
