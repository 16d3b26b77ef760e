//! Property-based tests for the NF implementations.
//!
//! The invariant that matters most under PayloadPark: shallow NFs may
//! rewrite headers however they like, but (a) checksums must stay valid
//! using *incremental* updates only, and (b) the payload bytes must never
//! change — because under PayloadPark most of the payload is not even
//! present on the server.

use std::net::Ipv4Addr;

use pp_netsim::check::forall;
use pp_netsim::{prop_assert, prop_assert_eq};
use pp_nf::chain::{Nf, NfChain, NfVerdict};
use pp_nf::nfs::maglev::{Backend, MaglevLb};
use pp_nf::nfs::{Firewall, MacSwap, Nat, Synthetic};
use pp_packet::builder::UdpPacketBuilder;
use pp_packet::ethernet::EthernetFrame;
use pp_packet::ipv4::Ipv4Header;
use pp_packet::udp::UdpHeader;
use pp_packet::Packet;

fn checksums_valid(pkt: &Packet) -> bool {
    let eth = EthernetFrame::new_checked(pkt.bytes()).unwrap();
    let ip = Ipv4Header::new_checked(eth.payload()).unwrap();
    if !ip.verify_checksum() {
        return false;
    }
    let udp = UdpHeader::new_checked(ip.payload()).unwrap();
    udp.verify_checksum(u32::from(ip.src()), u32::from(ip.dst()))
}

fn arbitrary_packet(src: u32, dst: u32, sport: u16, dport: u16, size: usize, seed: u64) -> Packet {
    UdpPacketBuilder::new()
        .src_ip(Ipv4Addr::from(src))
        .dst_ip(Ipv4Addr::from(dst))
        .src_port(sport)
        .dst_port(dport)
        .total_size(size.max(42), seed)
        .build()
}

/// Cases per property.
const CASES: u32 = 96;

/// NAT keeps IP and UDP checksums valid for arbitrary flows, and never
/// touches payload bytes.
#[test]
fn nat_preserves_checksums_and_payload() {
    forall(
        "nat_preserves_checksums_and_payload",
        CASES,
        |d| {
            let (src, dst) = (d.any::<u32>(), d.range(1u32..0xF0000000));
            (src, dst, d.any::<u16>(), d.any::<u16>(), d.range(42usize..1000), d.any::<u64>())
        },
        |(src, dst, sport, dport, size, seed)| {
            let mut nat = Nat::new(Ipv4Addr::new(198, 51, 100, 1));
            let mut pkt = arbitrary_packet(src, dst, sport, dport, size, seed);
            let payload_before = pkt.parse().unwrap().payload().to_vec();
            let r = nat.process(&mut pkt);
            prop_assert_eq!(r.verdict, NfVerdict::Forward);
            prop_assert!(checksums_valid(&pkt), "invalid checksums after NAT");
            prop_assert_eq!(pkt.parse().unwrap().payload(), &payload_before[..]);
            // Source was rewritten to the external address.
            prop_assert_eq!(
                pkt.parse().unwrap().five_tuple().src_ip,
                Ipv4Addr::new(198, 51, 100, 1)
            );
            Ok(())
        },
    );
}

/// NAT translation is a bijection per flow: the same flow always maps
/// to the same external port, different flows to different ports.
#[test]
fn nat_flow_mapping_is_consistent() {
    forall(
        "nat_flow_mapping_is_consistent",
        CASES,
        |d| (d.vec(2..30, |d| (d.any::<u32>(), d.range(1024u16..60000))), d.range(1usize..3)),
        |(flows, repeats)| {
            let mut nat = Nat::new(Ipv4Addr::new(198, 51, 100, 1));
            let mut mapping = std::collections::HashMap::new();
            for _ in 0..repeats {
                for &(src, sport) in &flows {
                    let mut pkt = arbitrary_packet(src, 0x5DB8D822, sport, 80, 300, 1);
                    nat.process(&mut pkt);
                    let ext = pkt.parse().unwrap().five_tuple().src_port;
                    let prev = mapping.insert((src, sport), ext);
                    if let Some(p) = prev {
                        prop_assert_eq!(p, ext, "flow remapped");
                    }
                }
            }
            // Distinct flows -> distinct external ports.
            let distinct: std::collections::HashSet<_> = mapping.values().collect();
            prop_assert_eq!(distinct.len(), mapping.len());
            Ok(())
        },
    );
}

/// Maglev keeps checksums valid and dispatches deterministically.
#[test]
fn maglev_is_deterministic_and_checksum_safe() {
    forall(
        "maglev_is_deterministic_and_checksum_safe",
        CASES,
        |d| (d.any::<u32>(), d.any::<u16>(), d.range(42usize..800), d.any::<u64>()),
        |(src, sport, size, seed)| {
            let backends: Vec<Backend> = (0..5)
                .map(|i| Backend { name: format!("b{i}"), ip: Ipv4Addr::new(10, 50, 0, i + 1) })
                .collect();
            let mut lb1 = MaglevLb::with_table_size(backends.clone(), 1009);
            let mut lb2 = MaglevLb::with_table_size(backends, 1009);
            let mut p1 = arbitrary_packet(src, 0x0A000002, sport, 80, size, seed);
            let mut p2 = p1.clone();
            lb1.process(&mut p1);
            lb2.process(&mut p2);
            prop_assert_eq!(p1.bytes(), p2.bytes());
            prop_assert!(checksums_valid(&p1));
            Ok(())
        },
    );
}

/// A whole chain (FW → NAT → LB → MacSwap → Synthetic) forwards
/// non-blacklisted traffic with valid checksums, untouched payload and
/// cycle costs equal to the sum of its parts.
#[test]
fn full_chain_preserves_invariants() {
    forall(
        "full_chain_preserves_invariants",
        CASES,
        |d| {
            let (src, sport) = (d.range(0x0B000000u32..0x0BFFFFFF), d.any::<u16>());
            (src, sport, d.range(42usize..1200), d.any::<u64>())
        },
        |(src, sport, size, seed)| {
            let mut chain = NfChain::new(vec![
                Box::new(Firewall::with_rule_count(20)),
                Box::new(Nat::new(Ipv4Addr::new(198, 51, 100, 1))),
                Box::new(MaglevLb::with_table_size(
                    vec![
                        Backend { name: "a".into(), ip: Ipv4Addr::new(10, 50, 0, 1) },
                        Backend { name: "b".into(), ip: Ipv4Addr::new(10, 50, 0, 2) },
                    ],
                    101,
                )),
                Box::new(MacSwap::new()),
                Box::new(Synthetic::light()),
            ]);
            let mut pkt = arbitrary_packet(src, 0x5DB8D822, sport, 80, size, seed);
            let payload_before = pkt.parse().unwrap().payload().to_vec();
            let r = chain.process(&mut pkt);
            prop_assert_eq!(r.verdict, NfVerdict::Forward);
            prop_assert!(r.cycles > 0);
            prop_assert!(checksums_valid(&pkt));
            prop_assert_eq!(pkt.parse().unwrap().payload(), &payload_before[..]);
            Ok(())
        },
    );
}

/// The firewall's verdict matches a reference implementation of
/// longest-prefix blacklisting for arbitrary rule sets.
#[test]
fn firewall_matches_reference() {
    forall(
        "firewall_matches_reference",
        CASES,
        |d| (d.vec(0..20, |d| (d.any::<u32>(), d.range(8u8..33))), d.any::<u32>()),
        |(rules, src)| {
            use pp_nf::nfs::firewall::FirewallRule;
            let fw_rules: Vec<FirewallRule> =
                rules.iter().map(|&(a, l)| FirewallRule::new(Ipv4Addr::from(a), l)).collect();
            let mut fw = Firewall::new(fw_rules);
            let mut pkt = arbitrary_packet(src, 0x0A000002, 1, 2, 300, 0);
            let got = fw.process(&mut pkt).verdict;
            let expect = rules.iter().any(|&(a, l)| {
                let mask = if l == 0 { 0 } else { u32::MAX << (32 - u32::from(l)) };
                (src & mask) == (a & mask)
            });
            prop_assert_eq!(got == NfVerdict::Drop, expect);
            Ok(())
        },
    );
}
