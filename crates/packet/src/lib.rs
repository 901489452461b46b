//! # packet
//!
//! Zero-copy Ethernet / IPv4 / TCP / UDP header views and builders, in
//! the style of `smoltcp`: a wrapper type borrows a byte buffer, `new_checked`
//! validates lengths up front, field accessors read/write in place, and
//! `emit`-style builders construct frames without intermediate
//! allocations.
//!
//! The network simulator (`netsim`) moves these frames between hosts and
//! switches; the P4 pipeline (`p4sim`) parses them into header fields;
//! the workload generators synthesise them in bulk. Checksums are real
//! Internet checksums so a parsing bug anywhere in the stack surfaces as
//! a verification failure in tests.
//!
//! ## Example
//!
//! ```
//! use packet::{EthernetFrame, EtherType, Ipv4Packet, IpProtocol, TcpSegment};
//! use packet::builder::PacketBuilder;
//! use std::net::Ipv4Addr;
//!
//! let bytes = PacketBuilder::tcp_syn(
//!     Ipv4Addr::new(192, 0, 2, 1),
//!     Ipv4Addr::new(10, 0, 5, 6),
//!     44123,
//!     80,
//! )
//! .build();
//!
//! let eth = EthernetFrame::new_checked(&bytes[..]).unwrap();
//! assert_eq!(eth.ethertype(), EtherType::Ipv4);
//! let ip = Ipv4Packet::new_checked(eth.payload()).unwrap();
//! assert_eq!(ip.protocol(), IpProtocol::Tcp);
//! assert!(ip.verify_checksum());
//! let tcp = TcpSegment::new_checked(ip.payload()).unwrap();
//! assert!(tcp.syn() && !tcp.ack());
//! ```

pub mod builder;
pub mod checksum;
pub mod ethernet;
pub mod ipv4;
pub mod tcp;
pub mod udp;

pub use ethernet::{EtherType, EthernetFrame, MacAddr};
pub use ipv4::{IpProtocol, Ipv4Packet};
pub use tcp::{TcpFlags, TcpSegment};
pub use udp::UdpDatagram;

use std::fmt;

/// Errors from parsing a buffer as a protocol header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseError {
    /// Buffer shorter than the fixed header.
    Truncated {
        /// Protocol whose header did not fit.
        layer: &'static str,
        /// Bytes available.
        have: usize,
        /// Bytes needed.
        need: usize,
    },
    /// A length field points beyond the buffer or inside the header.
    BadLength {
        /// Protocol with the inconsistent length.
        layer: &'static str,
    },
    /// Unsupported version (e.g. not IPv4).
    BadVersion {
        /// Protocol with the unsupported version.
        layer: &'static str,
        /// The version found.
        found: u8,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Truncated { layer, have, need } => {
                write!(f, "{layer}: truncated ({have} bytes, need {need})")
            }
            ParseError::BadLength { layer } => write!(f, "{layer}: inconsistent length field"),
            ParseError::BadVersion { layer, found } => {
                write!(f, "{layer}: unsupported version {found}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_error_display() {
        let e = ParseError::Truncated {
            layer: "ipv4",
            have: 10,
            need: 20,
        };
        assert!(e.to_string().contains("ipv4"));
        assert!(e.to_string().contains("10"));
    }
}
