//! Property-based tests for the RMT emulator.

use pp_netsim::check::forall;
use pp_netsim::{prop_assert, prop_assert_eq};
use pp_packet::builder::{TcpPacketBuilder, UdpPacketBuilder};
use pp_packet::MacAddr;
use pp_rmt::chip::ChipProfile;
use pp_rmt::parser::{deparse_phv, parse_packet, BlockRule, ParserConfig};
use pp_rmt::pipeline::Pipeline;
use pp_rmt::switch::SwitchModel;
use pp_rmt::{Phv, PortId};

fn l2_switch() -> SwitchModel {
    let chip = ChipProfile::default();
    let pipes = (0..chip.pipes).map(|_| Pipeline::builder(chip).build().unwrap()).collect();
    SwitchModel::new(chip, pipes)
}

/// Every [`Span`](pp_rmt::phv::Span) the parser produced must reference
/// bytes inside the source frame — the zero-copy deparser splices them
/// back without further bounds checks.
fn assert_spans_in_bounds(phv: &Phv, frame: &[u8]) -> Result<(), String> {
    prop_assert!(phv.body.in_bounds(frame), "body span {:?} escapes frame", phv.body);
    if let Some(ip) = &phv.ipv4 {
        prop_assert!(ip.options.in_bounds(frame), "IP options span escapes frame");
    }
    if let Some(tcp) = &phv.tcp {
        prop_assert!(tcp.options.in_bounds(frame), "TCP options span escapes frame");
    }
    Ok(())
}

/// Cases per property.
const CASES: u32 = 128;

/// Parse + deparse is the identity on any well-formed UDP packet, on
/// any port and parser configuration (split-side, merge-side or plain),
/// as long as no MAT modifies the PHV.
#[test]
fn parser_roundtrip_identity() {
    forall(
        "parser_roundtrip_identity",
        CASES,
        |d| {
            let (size, seed) = (d.range(42usize..1492), d.any::<u64>());
            (size, seed, d.range(0u16..8), d.range(0usize..12), d.range(0usize..400))
        },
        |(size, seed, port, blocks, min_payload)| {
            let pkt = UdpPacketBuilder::new().total_size(size, seed).build();
            let mut cfg = ParserConfig { phv_block_capacity: blocks, ..Default::default() };
            if blocks > 0 {
                cfg.block_rules.insert(0, BlockRule { blocks, min_payload });
            }
            let phv = parse_packet(&cfg, pkt.bytes(), PortId(port), 0).unwrap();
            prop_assert_eq!(deparse_phv(&phv, pkt.bytes()), pkt.bytes());
            Ok(())
        },
    );
}

/// An L2 switch is byte-transparent for any routed packet and drops
/// (never corrupts) unrouted ones.
#[test]
fn l2_switch_is_transparent() {
    forall(
        "l2_switch_is_transparent",
        CASES,
        |d| {
            let (size, seed) = (d.range(42usize..1200), d.any::<u64>());
            (size, seed, d.range(0u16..64), d.range(0u64..4), d.bool())
        },
        |(size, seed, in_port, dst_idx, routed)| {
            let mut sw = l2_switch();
            let dst = MacAddr::from_index(dst_idx);
            if routed {
                sw.l2_add(dst, PortId(9));
            }
            let pkt = UdpPacketBuilder::new().dst_mac(dst).total_size(size, seed).build();
            let out = sw.process(pkt.bytes(), PortId(in_port), 1);
            if routed {
                prop_assert_eq!(out.len(), 1);
                prop_assert_eq!(&out[0].bytes[..], pkt.bytes());
                prop_assert_eq!(out[0].port, PortId(9));
            } else {
                prop_assert!(out.is_empty());
                prop_assert_eq!(sw.stats().dropped_no_route, 1);
            }
            Ok(())
        },
    );
}

/// Garbage bytes never panic the switch; they are counted as parse
/// errors or forwarded opaquely, and never duplicated.
#[test]
fn switch_never_panics_on_garbage() {
    forall(
        "switch_never_panics_on_garbage",
        CASES,
        |d| d.vec(0..200, |d| d.any::<u8>()),
        |data| {
            let mut sw = l2_switch();
            sw.l2_add(MacAddr::BROADCAST, PortId(1));
            let out = sw.process(&data, PortId(0), 0);
            prop_assert!(out.len() <= 1);
            let s = sw.stats();
            prop_assert_eq!(s.received, 1);
            prop_assert_eq!(s.emitted + s.parse_errors + s.dropped_no_route, 1);
            Ok(())
        },
    );
}

/// Truncating a well-formed packet (UDP or TCP) at any point never
/// panics the parser: it either rejects the prefix or yields a PHV
/// whose spans all stay inside the truncated frame, and deparsing
/// that PHV never reads out of bounds.
#[test]
fn parser_survives_truncation() {
    forall(
        "parser_survives_truncation",
        CASES,
        |d| {
            let (size, seed, cut) = (d.range(54usize..1492), d.any::<u64>(), d.range(0usize..1492));
            (size, seed, cut, d.bool(), d.range(0u16..8))
        },
        |(size, seed, cut, tcp, port)| {
            let pkt = if tcp {
                TcpPacketBuilder::new().total_size(size, seed).build()
            } else {
                UdpPacketBuilder::new().total_size(size, seed).build()
            };
            let frame = &pkt.bytes()[..cut.min(pkt.len())];
            let mut cfg = ParserConfig { phv_block_capacity: 10, ..Default::default() };
            cfg.pp_header_ports.insert(1);
            cfg.block_rules.insert(0, BlockRule { blocks: 10, min_payload: 160 });
            if let Ok(phv) = parse_packet(&cfg, frame, PortId(port), 0) {
                assert_spans_in_bounds(&phv, frame)?;
                let out = deparse_phv(&phv, frame);
                prop_assert!(out.len() <= frame.len() + 16, "deparse invented bytes");
            }
            Ok(())
        },
    );
}

/// Arbitrary garbage bytes — including mutated headers with lying
/// length fields — never panic the parser, and any spans it hands out
/// stay inside the frame.
#[test]
fn parser_survives_garbage() {
    forall(
        "parser_survives_garbage",
        CASES,
        |d| (d.vec(0..256, |d| d.any::<u8>()), d.range(0u16..8)),
        |(data, port)| {
            let mut cfg = ParserConfig { phv_block_capacity: 10, ..Default::default() };
            cfg.pp_header_ports.insert(1);
            cfg.block_rules.insert(0, BlockRule { blocks: 10, min_payload: 160 });
            if let Ok(phv) = parse_packet(&cfg, &data, PortId(port), 0) {
                assert_spans_in_bounds(&phv, &data)?;
                deparse_phv(&phv, &data); // must not panic
            }
            Ok(())
        },
    );
}

/// Flipping bytes of a well-formed packet (corrupting length fields,
/// IHL, data offset, ethertype...) never panics parse or deparse.
#[test]
fn parser_survives_byte_flips() {
    forall(
        "parser_survives_byte_flips",
        CASES,
        |d| {
            let (size, seed) = (d.range(54usize..600), d.any::<u64>());
            (size, seed, d.vec(1..8, |d| (d.range(0usize..600), d.any::<u8>())), d.bool())
        },
        |(size, seed, flips, tcp)| {
            let pkt = if tcp {
                TcpPacketBuilder::new().total_size(size, seed).build()
            } else {
                UdpPacketBuilder::new().total_size(size, seed).build()
            };
            let mut bytes = pkt.into_bytes();
            for (pos, val) in flips {
                let len = bytes.len();
                bytes[pos % len] = val;
            }
            let mut cfg = ParserConfig { phv_block_capacity: 10, ..Default::default() };
            cfg.block_rules.insert(0, BlockRule { blocks: 10, min_payload: 160 });
            if let Ok(phv) = parse_packet(&cfg, &bytes, PortId(0), 0) {
                assert_spans_in_bounds(&phv, &bytes)?;
                deparse_phv(&phv, &bytes); // must not panic
            }
            Ok(())
        },
    );
}

/// Block extraction conserves bytes: valid blocks + body always equal
/// the UDP payload.
#[test]
fn block_extraction_conserves_payload() {
    forall(
        "block_extraction_conserves_payload",
        CASES,
        |d| (d.range(42usize..1492), d.any::<u64>(), d.range(1usize..12)),
        |(size, seed, blocks)| {
            let pkt = UdpPacketBuilder::new().total_size(size, seed).build();
            let mut cfg = ParserConfig { phv_block_capacity: blocks, ..Default::default() };
            cfg.block_rules.insert(0, BlockRule { blocks, min_payload: 0 });
            let phv = parse_packet(&cfg, pkt.bytes(), PortId(0), 0).unwrap();
            prop_assert_eq!(phv.wire_payload_len(), size - 42);
            Ok(())
        },
    );
}
