//! Property-based tests for the PayloadPark dataplane program.
//!
//! The central invariant is the paper's functional-equivalence requirement
//! (§6.2.6): for any traffic pattern that suffers no premature evictions,
//! Split followed by Merge must restore every packet byte for byte.

use payloadpark::program::build_switch;
use payloadpark::{ParkConfig, PipeControl};
use pp_netsim::check::forall;
use pp_netsim::{prop_assert, prop_assert_eq};
use pp_packet::builder::UdpPacketBuilder;
use pp_packet::parse::ParsedPacket;
use pp_packet::MacAddr;
use pp_rmt::chip::ChipProfile;
use pp_rmt::switch::SwitchModel;
use pp_rmt::PortId;

const SERVER_PORT: u16 = 2;
const SINK_PORT: u16 = 3;

fn testbed(slots: usize, expiry: u16) -> (SwitchModel, PipeControl) {
    let mut cfg = ParkConfig::single_server(ChipProfile::default(), vec![0, 1], SERVER_PORT, slots);
    cfg.expiry_threshold = expiry;
    let (mut switch, handles) = build_switch(&cfg).unwrap();
    switch.l2_add(MacAddr::from_index(100), PortId(SERVER_PORT));
    switch.l2_add(MacAddr::from_index(200), PortId(SINK_PORT));
    (switch, PipeControl::new(handles[0].clone()))
}

fn packet(size: usize, seed: u64) -> Vec<u8> {
    UdpPacketBuilder::new()
        .dst_mac(MacAddr::from_index(100))
        .total_size(size, seed)
        .build()
        .into_bytes()
}

/// Cases per property.
const CASES: u32 = 64;

/// Any mix of packet sizes round-trips byte-identically when the table
/// is large enough that no eviction can occur.
#[test]
fn split_merge_is_identity_without_evictions() {
    forall(
        "split_merge_is_identity_without_evictions",
        CASES,
        |d| (d.vec(1..40, |d| d.range(43usize..1492)), d.any::<u64>()),
        |(sizes, seed)| {
            let (mut switch, control) = testbed(4096, 1);
            // Split all, then merge all (worst-case table pressure for the batch).
            let mut in_flight = Vec::new();
            for (i, &size) in sizes.iter().enumerate() {
                let pkt = packet(size, seed ^ i as u64);
                let out = switch.process(&pkt, PortId((i % 2) as u16), i as u64);
                prop_assert_eq!(out.len(), 1);
                in_flight.push((pkt, out.into_iter().next().unwrap()));
            }
            for (original, out) in in_flight {
                let mut back = out.bytes.clone();
                back[0..6].copy_from_slice(&MacAddr::from_index(200).0);
                let merged = switch.process(&back, PortId(SERVER_PORT), out.seq);
                prop_assert_eq!(merged.len(), 1);
                // Compare everything except the dst MAC we rewrote.
                prop_assert_eq!(&merged[0].bytes[6..], &original[6..]);
            }
            let c = control.counters(&switch);
            prop_assert!(c.functionally_equivalent());
            prop_assert_eq!(control.occupancy(&switch), 0);
            Ok(())
        },
    );
}

/// Wire length after Split is always original − 153 for parked packets
/// and original + 7 for bypassed ones; never anything else.
#[test]
fn split_changes_length_by_exactly_the_contract() {
    forall(
        "split_changes_length_by_exactly_the_contract",
        CASES,
        |d| (d.range(43usize..1492), d.any::<u64>()),
        |(size, seed)| {
            let (mut switch, control) = testbed(64, 1);
            let pkt = packet(size, seed);
            let out = switch.process(&pkt, PortId(0), 0);
            prop_assert_eq!(out.len(), 1);
            let payload = size - 42;
            if payload >= 160 {
                prop_assert_eq!(out[0].bytes.len(), size - 153);
                prop_assert_eq!(control.counters(&switch).splits, 1);
            } else {
                prop_assert_eq!(out[0].bytes.len(), size + 7);
                prop_assert_eq!(control.counters(&switch).disabled_small_payload, 1);
            }
            // The emitted packet always re-parses cleanly.
            let parsed = ParsedPacket::parse(&out[0].bytes).unwrap();
            prop_assert_eq!(parsed.wire_len(), out[0].bytes.len());
            Ok(())
        },
    );
}

/// Counters are conserved: every split-port packet lands in exactly one
/// of {split, disabled_small, disabled_occupied}, and outstanding slots
/// equal table occupancy.
#[test]
fn counter_conservation() {
    forall(
        "counter_conservation",
        CASES,
        |d| {
            let sizes = d.vec(1..60, |d| d.range(43usize..900));
            (sizes, d.range(1usize..32), d.range(1u16..4), d.any::<u64>())
        },
        |(sizes, slots, expiry, seed)| {
            let (mut switch, control) = testbed(slots, expiry);
            for (i, &size) in sizes.iter().enumerate() {
                switch.process(&packet(size, seed ^ i as u64), PortId(0), i as u64);
            }
            let c = control.counters(&switch);
            prop_assert_eq!(
                c.splits + c.disabled_small_payload + c.disabled_occupied,
                sizes.len() as u64
            );
            prop_assert_eq!(control.occupancy(&switch) as i64, c.outstanding());
            Ok(())
        },
    );
}

/// Under deliberate table starvation the switch never drops a forward-
/// path packet: splits that cannot park fall back to baseline mode.
#[test]
fn no_forward_path_loss_under_starvation() {
    forall(
        "no_forward_path_loss_under_starvation",
        CASES,
        |d| (d.range(1usize..80), d.range(2u16..16), d.any::<u64>()),
        |(n, expiry, seed)| {
            // 2 slots, conservative expiry: most packets find slots occupied.
            let (mut switch, control) = testbed(2, expiry);
            for i in 0..n {
                let out = switch.process(&packet(600, seed ^ i as u64), PortId(0), i as u64);
                prop_assert_eq!(out.len(), 1, "packet {} lost", i);
            }
            let c = control.counters(&switch);
            prop_assert!(c.splits + c.disabled_occupied == n as u64);
            Ok(())
        },
    );
}
