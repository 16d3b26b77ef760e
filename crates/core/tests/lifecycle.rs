//! End-to-end tests of the PayloadPark dataplane program: Split, Merge,
//! eviction, explicit drops, fallback paths and recirculation.
//!
//! These tests play the role of both the traffic generator and the NF
//! server: they inject packets on the split ports, take whatever the switch
//! emits toward the "server", optionally modify headers (as an NF would),
//! and send the packets back on the merge port.

use payloadpark::flowstore::shared;
use payloadpark::program::{build_baseline_switch, build_switch};
use payloadpark::{
    build_store_switch, CircularStore, CounterSnapshot, ParkConfig, PipeControl, SlabStore,
    SliceSpec, StoreControl,
};
use pp_packet::builder::{pattern, TcpPacketBuilder, UdpPacketBuilder};
use pp_packet::parse::ParsedPacket;
use pp_packet::ppark::{PayloadParkHeader, PpOpcode, PpTag};
use pp_packet::{MacAddr, UDP_STACK_HEADER_LEN};
use pp_rmt::chip::ChipProfile;
use pp_rmt::switch::{SwitchModel, SwitchOutput};
use pp_rmt::PortId;

const GEN_PORT: u16 = 0;
const GEN_PORT2: u16 = 1;
const SERVER_PORT: u16 = 2;
const SINK_PORT: u16 = 3;

fn server_mac() -> MacAddr {
    MacAddr::from_index(100)
}
fn sink_mac() -> MacAddr {
    MacAddr::from_index(200)
}

/// The park table a testbed's program runs over. Every case that does not
/// recirculate runs on all three: there is one Split/Merge program, and
/// nothing a packet or the control plane can observe may depend on what
/// backs its table.
#[derive(Debug, Clone, Copy)]
enum Park {
    Registers,
    Circular,
    Slab,
}

/// Expands each `fn case(park: Park)` into a module of three `#[test]`s.
macro_rules! on_every_park_table {
    ($($case:ident)*) => {$(
        mod $case {
            use super::Park;
            #[test]
            fn registers() {
                super::$case(Park::Registers);
            }
            #[test]
            fn circular_store() {
                super::$case(Park::Circular);
            }
            #[test]
            fn slab_store() {
                super::$case(Park::Slab);
            }
        }
    )*};
}

/// The control-plane view of either kind of build.
enum Control {
    Registers(PipeControl),
    Store(StoreControl),
}

impl Control {
    fn counters(&self, switch: &SwitchModel) -> CounterSnapshot {
        match self {
            Control::Registers(c) => c.counters(switch),
            Control::Store(c) => c.counters(switch),
        }
    }

    fn occupancy(&self, switch: &SwitchModel) -> usize {
        match self {
            Control::Registers(c) => c.occupancy(switch),
            Control::Store(c) => c.occupancy(),
        }
    }

    fn clear_tables(&self, switch: &mut SwitchModel) {
        match self {
            Control::Registers(c) => c.clear_tables(switch),
            Control::Store(c) => c.clear_tables(switch),
        }
    }
}

/// Builds `cfg` (one parked pipe) over the given park table.
fn build(park: Park, cfg: &ParkConfig) -> (SwitchModel, Control) {
    let (slots, blocks) = (cfg.pipes[0].total_slots(), cfg.primary_blocks);
    let store = match park {
        Park::Registers => {
            let (switch, handles) = build_switch(cfg).unwrap();
            return (switch, Control::Registers(PipeControl::new(handles[0].clone())));
        }
        Park::Circular => shared(CircularStore::new(slots, blocks)),
        Park::Slab => shared(SlabStore::new(slots, blocks)),
    };
    let (switch, control) = build_store_switch(cfg, store).unwrap();
    (switch, Control::Store(control))
}

/// A testbed with PayloadPark on pipe 0 and `slots` lookup-table entries.
fn testbed(park: Park, slots: usize, expiry: u16) -> (SwitchModel, Control) {
    let mut cfg = ParkConfig::single_server(
        ChipProfile::default(),
        vec![GEN_PORT, GEN_PORT2],
        SERVER_PORT,
        slots,
    );
    cfg.expiry_threshold = expiry;
    let (mut switch, control) = build(park, &cfg);
    switch.l2_add(server_mac(), PortId(SERVER_PORT));
    switch.l2_add(sink_mac(), PortId(SINK_PORT));
    (switch, control)
}

/// Same topology with recirculation through pipe 1 (384-byte parking).
fn testbed_recirc(slots: usize) -> (SwitchModel, PipeControl) {
    let mut cfg = ParkConfig::single_server(
        ChipProfile::default(),
        vec![GEN_PORT, GEN_PORT2],
        SERVER_PORT,
        slots,
    );
    cfg.pipes[0].annex_pipe = Some(1);
    let (mut switch, handles) = build_switch(&cfg).unwrap();
    switch.l2_add(server_mac(), PortId(SERVER_PORT));
    switch.l2_add(sink_mac(), PortId(SINK_PORT));
    (switch, PipeControl::new(handles[0].clone()))
}

/// Builds a generator packet of `size` total bytes addressed to the server.
fn gen_packet(size: usize, seed: u64) -> Vec<u8> {
    UdpPacketBuilder::new()
        .dst_mac(server_mac())
        .src_mac(MacAddr::from_index(1))
        .total_size(size, seed)
        .build()
        .into_bytes()
}

/// Emulates the NF server bouncing a packet back: dst MAC becomes the sink
/// (the NF chain's TX path), and the bytes return on the server port.
fn bounce(switch: &mut SwitchModel, out: &SwitchOutput) -> Vec<SwitchOutput> {
    let mut bytes = out.bytes.clone();
    bytes[0..6].copy_from_slice(&sink_mac().0); // dst <- sink
    switch.process(&bytes, PortId(SERVER_PORT), out.seq)
}

fn split_trims_wire_packet_and_tags_it(park: Park) {
    let (mut switch, control) = testbed(park, 1024, 1);
    let pkt = gen_packet(512, 7);
    let out = switch.process(&pkt, PortId(GEN_PORT), 1);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].port, PortId(SERVER_PORT));
    // 160 parked, 7-byte header added.
    assert_eq!(out[0].bytes.len(), 512 - 153);

    // The trimmed packet is well-formed: lengths updated, header present.
    let parsed = ParsedPacket::parse(&out[0].bytes).unwrap();
    assert_eq!(parsed.wire_len(), 512 - 153);
    let pp = PayloadParkHeader::new_checked(parsed.payload()).unwrap();
    assert!(pp.enabled());
    assert_eq!(pp.opcode(), PpOpcode::Merge);
    pp.verify_tag().unwrap();

    let c = control.counters(&switch);
    assert_eq!(c.splits, 1);
    assert_eq!(control.occupancy(&switch), 1);
}

fn merge_restores_exact_payload_bytes(park: Park) {
    let (mut switch, control) = testbed(park, 1024, 1);
    for (seed, size) in [(1u64, 202usize), (2, 512), (3, 882), (4, 1492)].into_iter() {
        let pkt = gen_packet(size, seed);
        let out = switch.process(&pkt, PortId(GEN_PORT), seed);
        let back = bounce(&mut switch, &out[0]);
        assert_eq!(back.len(), 1, "size {size}");
        assert_eq!(back[0].port, PortId(SINK_PORT));
        assert_eq!(back[0].bytes.len(), size);
        // Payload must be byte-identical to the original (§6.2.6).
        let parsed = ParsedPacket::parse(&back[0].bytes).unwrap();
        assert_eq!(parsed.payload(), &pattern(size - UDP_STACK_HEADER_LEN, seed)[..]);
    }
    let c = control.counters(&switch);
    assert_eq!(c.splits, 4);
    assert_eq!(c.merges, 4);
    assert!(c.functionally_equivalent());
    assert_eq!(control.occupancy(&switch), 0);
}

fn small_payload_bypasses_parking_but_gets_header(park: Park) {
    let (mut switch, control) = testbed(park, 1024, 1);
    // 160-byte minimum payload: a 201-byte packet (159 B payload) is small.
    let pkt = gen_packet(201, 9);
    let out = switch.process(&pkt, PortId(GEN_PORT), 0);
    // Whole payload rides along, plus the 7-byte disabled header.
    assert_eq!(out[0].bytes.len(), 201 + 7);
    let parsed = ParsedPacket::parse(&out[0].bytes).unwrap();
    let pp = PayloadParkHeader::new_checked(parsed.payload()).unwrap();
    assert!(!pp.enabled());

    // The merge side strips the header and restores the original bytes.
    let back = bounce(&mut switch, &out[0]);
    assert_eq!(back[0].bytes.len(), 201);
    let c = control.counters(&switch);
    assert_eq!(c.splits, 0);
    assert_eq!(c.disabled_small_payload, 1);
    assert_eq!(c.enb0_from_server, 1);
    assert_eq!(c.merges, 0);
}

fn nf_header_modifications_survive_merge(park: Park) {
    // A NAT-like NF rewrites addresses/ports; Merge must still find the
    // payload (the tag, not the 5-tuple, locates it — §3.3 packet tagger).
    let (mut switch, control) = testbed(park, 1024, 1);
    let pkt = gen_packet(800, 42);
    let out = switch.process(&pkt, PortId(GEN_PORT), 0);

    let mut modified = out[0].bytes.clone();
    modified[0..6].copy_from_slice(&sink_mac().0);
    // Rewrite src IP (bytes 26..30) and src port (34..36) like a NAT.
    modified[26..30].copy_from_slice(&[192, 168, 7, 7]);
    modified[34..36].copy_from_slice(&9999u16.to_be_bytes());
    {
        let mut ip = pp_packet::ipv4::Ipv4Header::new_checked(&mut modified[14..]).unwrap();
        ip.fill_checksum();
    }
    let back = switch.process(&modified, PortId(SERVER_PORT), 0);
    assert_eq!(back.len(), 1);
    assert_eq!(back[0].bytes.len(), 800);
    let parsed = ParsedPacket::parse(&back[0].bytes).unwrap();
    // NAT rewrite preserved...
    assert_eq!(parsed.five_tuple().src_port, 9999);
    // ...and the payload intact.
    assert_eq!(parsed.payload(), &pattern(800 - 42, 42)[..]);
    assert!(control.counters(&switch).functionally_equivalent());
}

fn table_exhaustion_falls_back_to_baseline_mode(park: Park) {
    // 4 slots, expiry 10: the fifth packet in flight finds its slot
    // occupied (EXP aged 10→9, still > 0) and is forwarded whole.
    let (mut switch, control) = testbed(park, 4, 10);
    let mut outs = Vec::new();
    for i in 0..5u64 {
        let pkt = gen_packet(512, i);
        let out = switch.process(&pkt, PortId(GEN_PORT), i);
        outs.push(out.into_iter().next().unwrap());
    }
    let c = control.counters(&switch);
    assert_eq!(c.splits, 4);
    assert_eq!(c.disabled_occupied, 1);
    // The disabled packet kept its full payload (+ header).
    assert_eq!(outs[4].bytes.len(), 512 + 7);
    // All five packets still round-trip correctly.
    for out in &outs {
        let back = bounce(&mut switch, out);
        assert_eq!(back[0].bytes.len(), 512);
    }
    assert!(control.counters(&switch).functionally_equivalent());
}

fn eviction_reclaims_and_premature_merge_drops(park: Park) {
    // One slot, expiry 1: the second split evicts the first payload; when
    // the first header finally returns, its generation mismatches and the
    // packet is dropped — the premature-eviction path of §3.3.
    let (mut switch, control) = testbed(park, 1, 1);
    let p0 = switch.process(&gen_packet(512, 0), PortId(GEN_PORT), 0);
    let p1 = switch.process(&gen_packet(512, 1), PortId(GEN_PORT), 1);
    let c = control.counters(&switch);
    assert_eq!(c.splits, 2);
    assert_eq!(c.evictions, 1);

    // First packet's payload is gone: merge drops it.
    let back0 = bounce(&mut switch, &p0[0]);
    assert!(back0.is_empty());
    let c = control.counters(&switch);
    assert_eq!(c.premature_evictions, 1);
    assert!(!c.functionally_equivalent());

    // Second packet is fine.
    let back1 = bounce(&mut switch, &p1[0]);
    assert_eq!(back1[0].bytes.len(), 512);
    assert_eq!(control.counters(&switch).merges, 1);
}

fn explicit_drop_reclaims_without_emitting(park: Park) {
    let (mut switch, control) = testbed(park, 8, 1);
    let out = switch.process(&gen_packet(512, 5), PortId(GEN_PORT), 0);
    assert_eq!(control.occupancy(&switch), 1);

    // The NF framework drops the packet and notifies the switch: truncate
    // to headers + PayloadPark header, flip the opcode (§6.2.4).
    let mut notify = out[0].bytes.clone();
    let parsed = ParsedPacket::parse(&notify).unwrap();
    let pp_start = parsed.offsets().payload;
    {
        let mut pp = PayloadParkHeader::new_checked(&mut notify[pp_start..]).unwrap();
        pp.set_opcode(PpOpcode::ExplicitDrop);
    }
    notify[0..6].copy_from_slice(&sink_mac().0);
    let back = switch.process(&notify, PortId(SERVER_PORT), 0);
    assert!(back.is_empty(), "explicit drop consumes the packet");
    let c = control.counters(&switch);
    assert_eq!(c.explicit_drops, 1);
    assert_eq!(c.merges, 0);
    assert_eq!(control.occupancy(&switch), 0, "slot reclaimed");
    assert!(c.functionally_equivalent());
}

fn corrupted_tag_is_rejected_by_crc(park: Park) {
    let (mut switch, control) = testbed(park, 8, 1);
    let out = switch.process(&gen_packet(512, 5), PortId(GEN_PORT), 0);
    let mut evil = out[0].bytes.clone();
    evil[0..6].copy_from_slice(&sink_mac().0);
    let parsed = ParsedPacket::parse(&evil).unwrap();
    let pp_start = parsed.offsets().payload;
    evil[pp_start + 2] ^= 0x01; // flip a tag bit
    let back = switch.process(&evil, PortId(SERVER_PORT), 0);
    assert!(back.is_empty());
    let c = control.counters(&switch);
    assert_eq!(c.crc_fail, 1);
    assert_eq!(c.merges, 0);
    // The slot was NOT reclaimed (memory untouched on CRC failure).
    assert_eq!(control.occupancy(&switch), 1);
}

/// A tag can pass its CRC and still point outside the table (forged, or
/// issued by a larger deployment). Merge must treat it like a corrupted
/// tag: count it, drop the packet, and never index the table with it.
fn out_of_range_tag_with_valid_crc_is_rejected(park: Park) {
    let (mut switch, control) = testbed(park, 8, 1);
    let out = switch.process(&gen_packet(512, 5), PortId(GEN_PORT), 0);
    let mut evil = out[0].bytes.clone();
    evil[0..6].copy_from_slice(&sink_mac().0);
    let pp_start = ParsedPacket::parse(&evil).unwrap().offsets().payload;
    let mut pp = PayloadParkHeader::new_checked(&mut evil[pp_start..]).unwrap();
    let generation = pp.verify_tag().unwrap().generation;
    pp.write_enabled(PpOpcode::Merge, PpTag { table_index: 8, generation });
    pp.verify_tag().expect("the forged tag carries a valid CRC");

    let back = switch.process(&evil, PortId(SERVER_PORT), 0);
    assert!(back.is_empty());
    let c = control.counters(&switch);
    assert_eq!(c.crc_fail, 1);
    assert_eq!(c.merges, 0);
    assert_eq!(control.occupancy(&switch), 1, "the parked slot is untouched");
}

fn non_transport_traffic_passes_through_untouched(park: Park) {
    let (mut switch, control) = testbed(park, 8, 1);
    let mut gre_pkt = gen_packet(512, 3);
    gre_pkt[23] = 47; // protocol = GRE: neither UDP nor TCP
    {
        let mut ip = pp_packet::ipv4::Ipv4Header::new_checked(&mut gre_pkt[14..]).unwrap();
        ip.fill_checksum();
    }
    let out = switch.process(&gre_pkt, PortId(GEN_PORT), 0);
    assert_eq!(out[0].bytes, gre_pkt);
    assert_eq!(control.counters(&switch).splits, 0);
}

fn tcp_split_merge_is_identity_with_valid_checksums(park: Park) {
    // TCP is a first-class parked workload: a 512-byte segment parks 160
    // payload bytes (only the IPv4 total-length moves — TCP has no length
    // field), the parked leg carries a zeroed transport checksum, and
    // Merge restores the original byte-for-byte.
    let (mut switch, control) = testbed(park, 64, 1);
    let pkt = TcpPacketBuilder::new()
        .dst_mac(server_mac())
        .src_mac(MacAddr::from_index(1))
        .tcp_seq(0x1000)
        .total_size(512, 9)
        .build()
        .into_bytes();

    let out = switch.process(&pkt, PortId(GEN_PORT), 0);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].bytes.len(), 512 - 160 + 7);
    let parsed = ParsedPacket::parse(&out[0].bytes).unwrap();
    assert_eq!(parsed.five_tuple().protocol, 6);
    // Parked leg: transport checksum zeroed (the original is parked).
    let tr = parsed.offsets().transport;
    assert_eq!(&out[0].bytes[tr + 16..tr + 18], &[0, 0]);

    let back = bounce(&mut switch, &out[0]);
    assert_eq!(back.len(), 1);
    assert_eq!(back[0].bytes.len(), 512);
    let mut restored = back[0].bytes.clone();
    restored[0..6].copy_from_slice(&server_mac().0); // undo the NF's MAC swap
    assert_eq!(restored, pkt, "Split ∘ Merge must be the identity for TCP");
    assert!(ParsedPacket::parse(&back[0].bytes).unwrap().verify_checksums());

    let c = control.counters(&switch);
    assert_eq!((c.splits, c.merges), (1, 1));
    assert!(c.functionally_equivalent());
}

/// An NF that rewrites the 5-tuple while the payload is parked (NAT): it
/// sees a zero transport checksum on the parked leg and leaves it alone
/// (RFC 768); Merge must repair the restored checksum for the rewritten
/// header, so the sink still receives a fully valid packet.
fn merge_repairs_checksum_after_nat_style_rewrite(park: Park) {
    for tcp in [false, true] {
        let (mut switch, control) = testbed(park, 64, 1);
        let pkt = if tcp {
            TcpPacketBuilder::new()
                .dst_mac(server_mac())
                .src_mac(MacAddr::from_index(1))
                .total_size(512, 21)
                .build()
                .into_bytes()
        } else {
            gen_packet(512, 21)
        };

        let out = switch.process(&pkt, PortId(GEN_PORT), 0);
        let mut at_server = out[0].bytes.clone();
        at_server[0..6].copy_from_slice(&sink_mac().0);
        // The NAT: rewrite source IP and port, fix the IP header checksum,
        // leave the zero ("not computed") transport checksum untouched.
        at_server[26..30].copy_from_slice(&[198, 51, 100, 1]);
        at_server[34..36].copy_from_slice(&40_000u16.to_be_bytes());
        {
            let mut ip = pp_packet::ipv4::Ipv4Header::new_checked(&mut at_server[14..]).unwrap();
            ip.fill_checksum();
        }
        let tr = 34;
        let ck_off = if tcp { tr + 16 } else { tr + 6 };
        assert_eq!(&at_server[ck_off..ck_off + 2], &[0, 0], "parked leg carries no checksum");

        let back = switch.process(&at_server, PortId(SERVER_PORT), 0);
        assert_eq!(back.len(), 1, "tcp={tcp}");
        assert_eq!(back[0].bytes.len(), 512);
        let merged = ParsedPacket::parse(&back[0].bytes).unwrap();
        assert_eq!(merged.five_tuple().src_port, 40_000);
        assert!(
            merged.verify_checksums(),
            "merged checksum must be valid for the NAT-rewritten header (tcp={tcp})"
        );
        assert!(control.counters(&switch).functionally_equivalent());
    }
}

fn udp_parked_leg_checksum_is_zeroed_and_restored(park: Park) {
    let (mut switch, control) = testbed(park, 64, 1);
    let pkt = gen_packet(512, 11);
    let original_ck = pkt[40..42].to_vec();
    assert_ne!(original_ck, [0, 0]);

    let out = switch.process(&pkt, PortId(GEN_PORT), 0);
    // Parked leg: RFC 768 "checksum not computed".
    assert_eq!(&out[0].bytes[40..42], &[0, 0]);

    let back = bounce(&mut switch, &out[0]);
    assert_eq!(&back[0].bytes[40..42], &original_ck[..], "Merge restores the original");
    assert!(ParsedPacket::parse(&back[0].bytes).unwrap().verify_checksums());
    assert!(control.counters(&switch).functionally_equivalent());
}

fn both_generator_ports_split_into_the_same_slice(park: Park) {
    let (mut switch, control) = testbed(park, 1024, 1);
    let a = switch.process(&gen_packet(512, 1), PortId(GEN_PORT), 0);
    let b = switch.process(&gen_packet(512, 2), PortId(GEN_PORT2), 1);
    assert_eq!(control.counters(&switch).splits, 2);
    assert_eq!(control.occupancy(&switch), 2);
    for out in [&a[0], &b[0]] {
        let back = bounce(&mut switch, out);
        assert_eq!(back[0].bytes.len(), 512);
    }
    assert_eq!(control.occupancy(&switch), 0);
}

fn tags_are_unique_across_consecutive_packets(park: Park) {
    let (mut switch, _) = testbed(park, 4096, 1);
    let mut tags = std::collections::HashSet::new();
    for i in 0..1000u64 {
        let out = switch.process(&gen_packet(512, i), PortId(GEN_PORT), i);
        let parsed = ParsedPacket::parse(&out[0].bytes).unwrap();
        let pp = PayloadParkHeader::new_checked(parsed.payload()).unwrap();
        let tag = pp.verify_tag().unwrap();
        assert!(tags.insert((tag.table_index, tag.generation)), "duplicate tag at {i}");
    }
}

#[test]
fn recirculation_parks_384_bytes() {
    let (mut switch, control) = testbed_recirc(1024);
    // 500-byte payload >= 384: split engages across both pipes.
    let pkt = gen_packet(542, 11);
    let out = switch.process(&pkt, PortId(GEN_PORT), 0);
    assert_eq!(out.len(), 1);
    // 384 parked, 7 added.
    assert_eq!(out[0].bytes.len(), 542 - 377);
    assert_eq!(switch.stats().recirculations, 1);

    let back = bounce(&mut switch, &out[0]);
    assert_eq!(back[0].bytes.len(), 542);
    let parsed = ParsedPacket::parse(&back[0].bytes).unwrap();
    assert_eq!(parsed.payload(), &pattern(500, 11)[..]);
    let c = control.counters(&switch);
    assert_eq!(c.splits, 1);
    assert_eq!(c.merges, 1);
    assert!(c.functionally_equivalent());
    assert_eq!(switch.stats().recirculations, 2);
}

#[test]
fn recirculation_raises_minimum_payload_to_384() {
    let (mut switch, control) = testbed_recirc(1024);
    // 380-byte payload < 384: no split, disabled header instead.
    let pkt = gen_packet(422, 3);
    let out = switch.process(&pkt, PortId(GEN_PORT), 0);
    assert_eq!(out[0].bytes.len(), 422 + 7);
    assert_eq!(control.counters(&switch).disabled_small_payload, 1);
    assert_eq!(switch.stats().recirculations, 0);
    let back = bounce(&mut switch, &out[0]);
    assert_eq!(back[0].bytes.len(), 422);
}

#[test]
fn recirculation_interleaved_flows_round_trip() {
    let (mut switch, control) = testbed_recirc(512);
    let mut outs = Vec::new();
    for i in 0..50u64 {
        let out = switch.process(&gen_packet(900, i), PortId(GEN_PORT), i);
        outs.push(out.into_iter().next().unwrap());
    }
    for (i, out) in outs.iter().enumerate() {
        let back = bounce(&mut switch, out);
        assert_eq!(back[0].bytes.len(), 900);
        let parsed = ParsedPacket::parse(&back[0].bytes).unwrap();
        assert_eq!(parsed.payload(), &pattern(900 - 42, i as u64)[..], "packet {i}");
    }
    assert!(control.counters(&switch).functionally_equivalent());
}

#[test]
fn baseline_switch_is_byte_transparent() {
    let mut switch = build_baseline_switch(ChipProfile::default()).unwrap();
    switch.l2_add(server_mac(), PortId(SERVER_PORT));
    for size in [64usize, 256, 882, 1492] {
        let pkt = gen_packet(size, size as u64);
        let out = switch.process(&pkt, PortId(GEN_PORT), 0);
        assert_eq!(out[0].bytes, pkt);
        assert_eq!(out[0].port, PortId(SERVER_PORT));
    }
}

fn multi_slice_isolation(park: Park) {
    // Two servers share pipe 0 with static slices; filling one slice must
    // not consume the other's slots (§6.2.3 performance isolation).
    let chip = ChipProfile::default();
    let mut cfg = ParkConfig::single_server(chip, vec![0], 2, 4);
    cfg.pipes[0].slices.push(SliceSpec {
        name: "server1".into(),
        split_ports: vec![4],
        merge_ports: vec![5],
        slots: 4,
    });
    let (mut switch, control) = build(park, &cfg);
    let mac_a = MacAddr::from_index(100);
    let mac_b = MacAddr::from_index(101);
    switch.l2_add(mac_a, PortId(2));
    switch.l2_add(mac_b, PortId(5));

    // Exhaust slice A (expiry 1 means its own slots recycle, so fill 4).
    for i in 0..4u64 {
        let pkt = UdpPacketBuilder::new().dst_mac(mac_a).total_size(512, i).build().into_bytes();
        switch.process(&pkt, PortId(0), i);
    }
    assert_eq!(control.occupancy(&switch), 4);

    // Slice B still splits happily.
    let pkt = UdpPacketBuilder::new().dst_mac(mac_b).total_size(512, 9).build().into_bytes();
    let out = switch.process(&pkt, PortId(4), 9);
    assert_eq!(out[0].bytes.len(), 512 - 153);
    let c = control.counters(&switch);
    assert_eq!(c.splits, 5);
    assert_eq!(c.disabled_occupied, 0);
    assert_eq!(control.occupancy(&switch), 5);
}

#[test]
fn resource_report_has_sensible_shape() {
    let chip = ChipProfile::default();
    let mut cfg = ParkConfig::single_server(chip, vec![0, 1], 2, 1024);
    // ~26% of pipe SRAM, as in the paper's macro-benchmarks.
    cfg.pipes[0].slices[0].slots = cfg.slots_for_sram_fraction(0.26);
    let (switch, handles) = build_switch(&cfg).unwrap();
    let control = PipeControl::new(handles[0].clone());
    let report = control.resource_report(&switch);

    // SRAM: the paper reports 25.94% average / 33.75% peak per stage.
    let avg = report.sram_avg_pct();
    let peak = report.sram_peak_pct();
    assert!((20.0..35.0).contains(&avg), "avg {avg}");
    assert!(peak >= avg && peak < 50.0, "peak {peak}");
    // TCAM is engineered to the paper's 0.69%.
    assert!((report.tcam_pct() - 0.69).abs() < 0.05, "tcam {}", report.tcam_pct());
    // The remaining resources stay under 20% / PHV under 50%.
    assert!(report.vliw_pct() < 20.0);
    assert!(report.exact_xbar_pct() < 20.0);
    assert!(report.phv_pct() < 50.0);
    let rendered = report.render();
    assert!(rendered.contains("SRAM"));
}

fn clear_tables_resets_occupancy(park: Park) {
    let (mut switch, control) = testbed(park, 64, 1);
    for i in 0..10u64 {
        switch.process(&gen_packet(512, i), PortId(GEN_PORT), i);
    }
    assert_eq!(control.occupancy(&switch), 10);
    control.clear_tables(&mut switch);
    assert_eq!(control.occupancy(&switch), 0);
}

#[test]
fn adaptive_policy_tunes_the_live_threshold() {
    use payloadpark::AdaptiveConfig;

    // One slot, aggressive expiry: the second split evicts the first
    // payload and its merge comes back premature.
    let (mut switch, Control::Registers(control)) = testbed(Park::Registers, 1, 1) else {
        unreachable!("register testbed");
    };
    let mut policy = control.adaptive_policy(AdaptiveConfig::default());
    assert_eq!(policy.current(), 1);

    let p0 = switch.process(&gen_packet(512, 0), PortId(GEN_PORT), 0);
    let _p1 = switch.process(&gen_packet(512, 1), PortId(GEN_PORT), 1);
    assert!(bounce(&mut switch, &p0[0]).is_empty(), "premature eviction");
    assert_eq!(control.counters(&switch).premature_evictions, 1);

    // The controller reacts by moving to a more conservative threshold.
    assert_eq!(policy.observe(control.counters(&switch)), 2);

    // From now on, an occupied slot is aged instead of evicted: the next
    // overlapping split falls back to baseline mode rather than killing
    // the in-flight payload.
    let p2 = switch.process(&gen_packet(512, 2), PortId(GEN_PORT), 2);
    let p3 = switch.process(&gen_packet(512, 3), PortId(GEN_PORT), 3);
    assert_eq!(p3[0].bytes.len(), 512 + 7, "fallback, not eviction");
    let before = control.counters(&switch).premature_evictions;
    assert_eq!(bounce(&mut switch, &p2[0])[0].bytes.len(), 512);
    assert_eq!(bounce(&mut switch, &p3[0])[0].bytes.len(), 512);
    assert_eq!(control.counters(&switch).premature_evictions, before);

    // Quiet traffic leaves the threshold alone.
    assert_eq!(policy.observe(control.counters(&switch)), 2);
    assert_eq!(policy.adjustments(), 1);
}

on_every_park_table! {
    split_trims_wire_packet_and_tags_it
    merge_restores_exact_payload_bytes
    small_payload_bypasses_parking_but_gets_header
    nf_header_modifications_survive_merge
    table_exhaustion_falls_back_to_baseline_mode
    eviction_reclaims_and_premature_merge_drops
    explicit_drop_reclaims_without_emitting
    corrupted_tag_is_rejected_by_crc
    out_of_range_tag_with_valid_crc_is_rejected
    non_transport_traffic_passes_through_untouched
    tcp_split_merge_is_identity_with_valid_checksums
    merge_repairs_checksum_after_nat_style_rewrite
    udp_parked_leg_checksum_is_zeroed_and_restored
    both_generator_ports_split_into_the_same_slice
    tags_are_unique_across_consecutive_packets
    multi_slice_isolation
    clear_tables_resets_occupancy
}
