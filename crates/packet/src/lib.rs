//! Wire-format packet types for the PayloadPark reproduction.
//!
//! This crate provides zero-copy *view* types over byte buffers, in the style
//! of `smoltcp`: a view wraps a `&[u8]`/`&mut [u8]`, validates lengths once,
//! and then exposes typed accessors for individual fields. Views never copy
//! the underlying buffer and never allocate.
//!
//! Supported formats:
//!
//! * [`ethernet`] — Ethernet II frames;
//! * [`ipv4`] — IPv4 headers with internet checksum;
//! * [`udp`] / [`tcp`] — transport headers (checksums over the IPv4
//!   pseudo-header);
//! * [`ppark`] — the PayloadPark header from the paper (Fig. 2): a 7-byte
//!   shim carrying the Enable bit, the opcode (Merge / Explicit-Drop), and a
//!   48-bit tag = table index ⊕ generation clock ⊕ CRC.
//!
//! Higher layers:
//!
//! * [`builder`] — constructs complete Ethernet/IPv4/UDP packets;
//! * [`parse`] — extracts the 5-tuple and header boundaries in one pass;
//! * [`packet`] — an owned packet buffer with convenience accessors.
//!
//! # Example
//!
//! ```
//! use pp_packet::builder::UdpPacketBuilder;
//! use pp_packet::parse::ParsedPacket;
//!
//! let pkt = UdpPacketBuilder::new()
//!     .src_ip([10, 0, 0, 1].into())
//!     .dst_ip([10, 0, 0, 2].into())
//!     .src_port(1234)
//!     .dst_port(80)
//!     .payload(&[0xAB; 64])
//!     .build();
//! let parsed = ParsedPacket::parse(pkt.bytes()).unwrap();
//! assert_eq!(parsed.five_tuple().src_port, 1234);
//! assert_eq!(parsed.udp_payload_len(), 64);
//! ```

pub mod builder;
pub mod checksum;
pub mod crc;
pub mod ethernet;
pub mod ipv4;
pub mod packet;
pub mod parse;
pub mod ppark;
pub mod tcp;
pub mod udp;

pub use builder::{TcpFlags, TcpPacketBuilder, UdpPacketBuilder};
pub use ethernet::{EtherType, EthernetFrame, MacAddr, ETHERNET_HEADER_LEN};
pub use ipv4::{IpProtocol, Ipv4Header, IPV4_HEADER_LEN};
pub use packet::Packet;
pub use parse::{FiveTuple, ParsedPacket};
pub use ppark::{PayloadParkHeader, PpOpcode, PpTag, PAYLOADPARK_HEADER_LEN};
pub use tcp::{TcpHeader, TCP_HEADER_LEN};
pub use udp::{UdpHeader, UDP_HEADER_LEN};

/// Errors produced when interpreting a byte buffer as a protocol header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseError {
    /// The buffer is shorter than the fixed part of the header.
    Truncated {
        /// Header kind that failed to parse (for diagnostics).
        what: &'static str,
        /// Bytes required.
        need: usize,
        /// Bytes available.
        have: usize,
    },
    /// A version/length field contains a value the implementation rejects.
    Malformed {
        /// Header kind that failed to parse.
        what: &'static str,
        /// Human-readable description of the violated constraint.
        why: &'static str,
    },
    /// A checksum or CRC did not verify.
    BadChecksum {
        /// Header kind whose checksum failed.
        what: &'static str,
    },
    /// The packet is not of the expected protocol (e.g. non-IPv4 ethertype).
    WrongProtocol {
        /// Header kind being parsed.
        what: &'static str,
    },
}

impl core::fmt::Display for ParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ParseError::Truncated { what, need, have } => {
                write!(f, "{what}: truncated (need {need} bytes, have {have})")
            }
            ParseError::Malformed { what, why } => write!(f, "{what}: malformed ({why})"),
            ParseError::BadChecksum { what } => write!(f, "{what}: bad checksum"),
            ParseError::WrongProtocol { what } => write!(f, "{what}: wrong protocol"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Crate-wide result alias.
pub type Result<T> = core::result::Result<T, ParseError>;

/// Total bytes of Ethernet + IPv4 + UDP headers — the "42 bytes" the paper
/// uses as the unit of useful information for goodput (§1, §6.1).
pub const UDP_STACK_HEADER_LEN: usize = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN;

/// Total bytes of Ethernet + IPv4 + TCP (no options) headers — the header
/// stack of the enterprise mix's TCP segments.
pub const TCP_STACK_HEADER_LEN: usize = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + TCP_HEADER_LEN;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn udp_stack_header_is_42_bytes() {
        // The paper's goodput unit: Ethernet (14) + IPv4 (20) + UDP (8).
        assert_eq!(UDP_STACK_HEADER_LEN, 42);
    }

    #[test]
    fn tcp_stack_header_is_54_bytes() {
        // Ethernet (14) + IPv4 (20) + TCP without options (20).
        assert_eq!(TCP_STACK_HEADER_LEN, 54);
    }

    #[test]
    fn parse_error_display() {
        let e = ParseError::Truncated { what: "ipv4", need: 20, have: 3 };
        assert_eq!(e.to_string(), "ipv4: truncated (need 20 bytes, have 3)");
        let e = ParseError::Malformed { what: "ipv4", why: "ihl < 5" };
        assert_eq!(e.to_string(), "ipv4: malformed (ihl < 5)");
        let e = ParseError::BadChecksum { what: "udp" };
        assert_eq!(e.to_string(), "udp: bad checksum");
        let e = ParseError::WrongProtocol { what: "ethernet" };
        assert_eq!(e.to_string(), "ethernet: wrong protocol");
    }
}
