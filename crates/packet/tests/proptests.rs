//! Property-based tests for the wire-format crate.

use std::net::Ipv4Addr;

use pp_netsim::check::forall;
use pp_netsim::{prop_assert, prop_assert_eq};
use pp_packet::builder::{pattern, UdpPacketBuilder};
use pp_packet::checksum::{checksum, Checksum};
use pp_packet::crc::{crc16, tag_crc};
use pp_packet::ethernet::{EthernetFrame, MacAddr};
use pp_packet::ipv4::Ipv4Header;
use pp_packet::parse::ParsedPacket;
use pp_packet::ppark::{PayloadParkHeader, PpOpcode, PpTag, PAYLOADPARK_HEADER_LEN};
use pp_packet::udp::UdpHeader;

/// Cases per property.
const CASES: u32 = 256;

/// Feeding a buffer in arbitrary pieces yields the same checksum as one
/// contiguous pass.
#[test]
fn checksum_split_invariance() {
    forall(
        "checksum_split_invariance",
        CASES,
        |d| (d.vec(0..512, |d| d.any::<u8>()), d.range(0usize..512)),
        |(data, cut)| {
            let whole = checksum(&data);
            let cut = cut.min(data.len());
            let mut c = Checksum::new();
            c.add_bytes(&data[..cut]);
            c.add_bytes(&data[cut..]);
            prop_assert_eq!(c.finish(), whole);
            Ok(())
        },
    );
}

/// Appending the checksum makes verification succeed; flipping any single
/// bit afterwards makes it fail. Data must be 16-bit aligned (as in real
/// protocols, which pad to even length) for the trailing checksum to
/// occupy a whole word.
#[test]
fn checksum_detects_single_bit_flips() {
    forall(
        "checksum_detects_single_bit_flips",
        CASES,
        |d| {
            let mut data = d.vec(1..64, |d| d.any::<u8>());
            if data.len() % 2 == 1 {
                data.push(0);
            }
            (data, d.range(0usize..130), d.range(0u8..8))
        },
        |(data, byte_idx, bit)| {
            let mut framed = data.clone();
            let ck = checksum(&framed);
            framed.extend_from_slice(&ck.to_be_bytes());
            prop_assert_eq!(checksum(&framed), 0);
            let idx = byte_idx % framed.len();
            framed[idx] ^= 1 << bit;
            prop_assert!(checksum(&framed) != 0, "flipping bit {bit} of byte {idx} went unseen");
            Ok(())
        },
    );
}

/// CRC-16 detects any single-bit corruption of the tag fields.
#[test]
fn tag_crc_single_bit() {
    forall(
        "tag_crc_single_bit",
        CASES,
        |d| (d.any::<u16>(), d.any::<u16>(), d.range(0u8..32)),
        |(ti, gen, bit)| {
            let base = tag_crc(ti, gen);
            let (ti2, gen2) =
                if bit < 16 { (ti ^ (1 << bit), gen) } else { (ti, gen ^ (1 << (bit - 16))) };
            prop_assert!(
                base != tag_crc(ti2, gen2),
                "flipping bit {bit} leaves the CRC at {base:#06x}"
            );
            Ok(())
        },
    );
}

/// crc16 is a pure function of its input.
#[test]
fn crc16_deterministic() {
    forall(
        "crc16_deterministic",
        CASES,
        |d| d.vec(0..256, |d| d.any::<u8>()),
        |data| {
            prop_assert_eq!(crc16(&data), crc16(&data));
            Ok(())
        },
    );
}

/// Built packets always re-parse to the same 5-tuple, size and payload,
/// with valid IP and UDP checksums.
#[test]
fn builder_parse_roundtrip() {
    forall(
        "builder_parse_roundtrip",
        CASES,
        |d| {
            let (src, dst) = (d.any::<u32>(), d.any::<u32>());
            (src, dst, d.any::<u16>(), d.any::<u16>(), d.range(0usize..1454), d.any::<u64>())
        },
        |(src, dst, sport, dport, len, seed)| {
            let src_ip = Ipv4Addr::from(src);
            let dst_ip = Ipv4Addr::from(dst);
            let pkt = UdpPacketBuilder::new()
                .src_ip(src_ip)
                .dst_ip(dst_ip)
                .src_port(sport)
                .dst_port(dport)
                .patterned_payload(len, seed)
                .build();
            prop_assert_eq!(pkt.len(), 42 + len);
            let parsed = ParsedPacket::parse(pkt.bytes()).unwrap();
            let ft = parsed.five_tuple();
            prop_assert_eq!(ft.src_ip, src_ip);
            prop_assert_eq!(ft.dst_ip, dst_ip);
            prop_assert_eq!(ft.src_port, sport);
            prop_assert_eq!(ft.dst_port, dport);
            prop_assert_eq!(parsed.payload(), &pattern(len, seed)[..]);

            let eth = EthernetFrame::new_checked(pkt.bytes()).unwrap();
            let ip = Ipv4Header::new_checked(eth.payload()).unwrap();
            prop_assert!(ip.verify_checksum());
            let udp = UdpHeader::new_checked(ip.payload()).unwrap();
            prop_assert!(udp.verify_checksum(u32::from(ip.src()), u32::from(ip.dst())));
            Ok(())
        },
    );
}

/// The PayloadPark header round-trips any tag through write + verify.
#[test]
fn ppark_header_roundtrip() {
    forall(
        "ppark_header_roundtrip",
        CASES,
        |d| (d.any::<u16>(), d.any::<u16>(), d.bool()),
        |(ti, gen, drop)| {
            let tag = PpTag { table_index: ti, generation: gen };
            let op = if drop { PpOpcode::ExplicitDrop } else { PpOpcode::Merge };
            let mut buf = [0u8; PAYLOADPARK_HEADER_LEN];
            PayloadParkHeader::new_checked(&mut buf[..]).unwrap().write_enabled(op, tag);
            let h = PayloadParkHeader::new_checked(&buf[..]).unwrap();
            prop_assert!(h.enabled());
            prop_assert_eq!(h.opcode(), op);
            prop_assert_eq!(h.verify_tag().unwrap(), tag);
            Ok(())
        },
    );
}

/// Ethernet MAC swap is an involution.
#[test]
fn mac_swap_involution() {
    forall(
        "mac_swap_involution",
        CASES,
        |d| (d.range(60usize..200), d.any::<u64>()),
        |(size, seed)| {
            let pkt = UdpPacketBuilder::new()
                .src_mac(MacAddr::from_index(seed % 100))
                .dst_mac(MacAddr::from_index(seed % 100 + 1))
                .total_size(size, seed)
                .build();
            let mut bytes = pkt.into_bytes();
            let original = bytes.clone();
            let mut f = EthernetFrame::new_checked(&mut bytes[..]).unwrap();
            f.swap_macs();
            f.swap_macs();
            prop_assert_eq!(bytes, original);
            Ok(())
        },
    );
}

/// Arbitrary garbage never panics the parser — it returns an error or a
/// consistent parse.
#[test]
fn parser_never_panics() {
    forall(
        "parser_never_panics",
        CASES,
        |d| d.vec(0..200, |d| d.any::<u8>()),
        |data| {
            if let Ok(p) = ParsedPacket::parse(&data) {
                prop_assert!(p.wire_len() <= data.len());
                prop_assert!(p.offsets().payload <= p.wire_len());
            }
            Ok(())
        },
    );
}
