//! The paper's functional-equivalence validation (§6.2.6): run identical
//! traffic through the baseline and PayloadPark deployments, capture what
//! arrives back at the generator, and require byte-identical captures plus
//! zero premature evictions.

use payloadpark::program::{build_baseline_switch, build_switch};
use payloadpark::{ParkConfig, PipeControl};
use pp_fastpath::{Dataplane, EngineConfig, PathResult, SlicedTestbed};
use pp_netsim::adversity::{AdversityProfile, LegProfile};
use pp_netsim::time::SimDuration;
use pp_packet::pcap::{captures_identical, PcapReader, PcapRecord, PcapWriter};
use pp_packet::{MacAddr, Packet, ParsedPacket};
use pp_rmt::chip::ChipProfile;
use pp_rmt::switch::{BatchPacket, SwitchModel};
use pp_rmt::PortId;
use pp_trafficgen::gen::{GenConfig, SizeModel, TrafficGen, TrafficMix};
use proptest::prelude::*;

const SERVER_PORT: u16 = 2;
const SINK_PORT: u16 = 3;

fn server_mac() -> MacAddr {
    MacAddr::from_index(100)
}
fn sink_mac() -> MacAddr {
    MacAddr::from_index(200)
}

/// Plays `packets` through a deployment with a MAC-swapping "NF server"
/// and returns the pcap of what reaches the sink.
fn capture(switch: &mut SwitchModel, packets: &[(u64, Packet)]) -> Vec<PcapRecord> {
    let mut records = Vec::new();
    for (t, pkt) in packets {
        for out in switch.process(pkt.bytes(), PortId((pkt.seq() % 2) as u16), pkt.seq()) {
            assert_eq!(out.port, PortId(SERVER_PORT), "forward path goes to the server");
            // The MAC-swap NF: swap addresses, then the framework TX sets
            // the destination to the sink (as OpenNetVM's bridge would).
            let mut bytes = out.bytes;
            bytes[0..6].copy_from_slice(&sink_mac().0);
            for merged in switch.process(&bytes, PortId(SERVER_PORT), out.seq) {
                assert_eq!(merged.port, PortId(SINK_PORT));
                records
                    .push(PcapRecord::from_packet(&Packet::with_seq(merged.bytes, merged.seq), *t));
            }
        }
    }
    records
}

fn workload_with(mix: TrafficMix) -> Vec<(u64, Packet)> {
    let mut gen = TrafficGen::new(GenConfig {
        rate_gbps: 2.0,
        line_rate_gbps: 20.0,
        burst: 16,
        sizes: SizeModel::Enterprise,
        mix,
        flows: 32,
        dst_mac: server_mac(),
        seed: 99,
        ..Default::default()
    });
    gen.take_for(SimDuration::from_millis(2)).into_iter().map(|(t, p)| (t.nanos(), p)).collect()
}

fn workload() -> Vec<(u64, Packet)> {
    workload_with(TrafficMix::UdpOnly)
}

#[test]
fn payloadpark_is_functionally_equivalent_to_baseline() {
    let chip = ChipProfile::default();
    let packets = workload();
    assert!(packets.len() > 300, "workload too small: {}", packets.len());

    let mut baseline = build_baseline_switch(chip).unwrap();
    baseline.l2_add(server_mac(), PortId(SERVER_PORT));
    baseline.l2_add(sink_mac(), PortId(SINK_PORT));
    let base_records = capture(&mut baseline, &packets);

    let cfg = ParkConfig::single_server(chip, vec![0, 1], SERVER_PORT, 8192);
    let (mut park, handles) = build_switch(&cfg).unwrap();
    park.l2_add(server_mac(), PortId(SERVER_PORT));
    park.l2_add(sink_mac(), PortId(SINK_PORT));
    let park_records = capture(&mut park, &packets);

    // Same number of packets delivered, byte-identical contents.
    assert_eq!(base_records.len(), packets.len());
    assert!(captures_identical(&base_records, &park_records));

    // And the switch reports no premature payload evictions.
    let control = PipeControl::new(handles[0].clone());
    let counters = control.counters(&park);
    assert!(counters.functionally_equivalent(), "{counters:?}");
    assert!(counters.splits > 0, "the workload must exercise parking");
    assert!(counters.disabled_small_payload > 0, "and the small-payload path");
}

/// The tentpole workload: the enterprise traffic the paper's target
/// datacenters actually carry is TCP-dominated. Parking must be
/// transparent for the mixed wave too, and every packet the sink receives
/// must carry valid IPv4 *and* transport checksums (the parked leg zeroes
/// the transport checksum; Merge restores the original).
#[test]
fn mixed_tcp_udp_wave_is_functionally_equivalent_to_baseline() {
    let chip = ChipProfile::default();
    let packets = workload_with(TrafficMix::TcpUdp { tcp_fraction: 0.7 });
    let tcp = packets.iter().filter(|(_, p)| p.parse().unwrap().five_tuple().protocol == 6).count();
    assert!(tcp > 0 && tcp < packets.len(), "need a genuine mix: {tcp}/{}", packets.len());

    let mut baseline = build_baseline_switch(chip).unwrap();
    baseline.l2_add(server_mac(), PortId(SERVER_PORT));
    baseline.l2_add(sink_mac(), PortId(SINK_PORT));
    let base_records = capture(&mut baseline, &packets);

    let cfg = ParkConfig::single_server(chip, vec![0, 1], SERVER_PORT, 8192);
    let (mut park, handles) = build_switch(&cfg).unwrap();
    park.l2_add(server_mac(), PortId(SERVER_PORT));
    park.l2_add(sink_mac(), PortId(SINK_PORT));
    let park_records = capture(&mut park, &packets);

    assert_eq!(base_records.len(), packets.len());
    assert!(captures_identical(&base_records, &park_records));
    for rec in &park_records {
        let parsed = ParsedPacket::parse(&rec.bytes).unwrap();
        assert!(parsed.verify_checksums(), "bad checksum on {}", parsed.five_tuple());
    }

    let counters = PipeControl::new(handles[0].clone()).counters(&park);
    assert!(counters.functionally_equivalent(), "{counters:?}");
    assert!(counters.splits > 0, "the mixed workload must exercise parking");
    assert!(counters.disabled_small_payload > 0, "and the small/control-segment path");
}

#[test]
fn equivalence_holds_with_recirculation() {
    let chip = ChipProfile::default();
    let packets = workload();

    let mut baseline = build_baseline_switch(chip).unwrap();
    baseline.l2_add(server_mac(), PortId(SERVER_PORT));
    baseline.l2_add(sink_mac(), PortId(SINK_PORT));
    let base_records = capture(&mut baseline, &packets);

    let mut cfg = ParkConfig::single_server(chip, vec![0, 1], SERVER_PORT, 8192);
    cfg.pipes[0].annex_pipe = Some(1);
    let (mut park, handles) = build_switch(&cfg).unwrap();
    park.l2_add(server_mac(), PortId(SERVER_PORT));
    park.l2_add(sink_mac(), PortId(SINK_PORT));
    let park_records = capture(&mut park, &packets);

    assert!(captures_identical(&base_records, &park_records));
    let counters = PipeControl::new(handles[0].clone()).counters(&park);
    assert!(counters.functionally_equivalent(), "{counters:?}");
    assert!(counters.splits > 0);
    assert!(park.stats().recirculations >= 2 * counters.splits);
}

// ---------------------------------------------------------------------
// pp_fastpath equivalence oracle: for any seeded enterprise traffic mix,
// the sharded, batched engine must produce the same counter totals and
// identical merged outputs (bytes, egress port, latency) as the scalar
// pipeline.
// ---------------------------------------------------------------------

/// Drives `inputs` two-phase under `adv` through the scalar switch and
/// the sharded, batched engine at 2 and 4 workers: each engine must equal
/// the scalar path exactly — every delivered output, egress port
/// included — and every path must pass the conformance oracle with
/// checksum verification of every delivered packet.
fn engine_matches_scalar(
    tb: &SlicedTestbed,
    inputs: &[BatchPacket],
    adv: &AdversityProfile,
) -> Result<(), TestCaseError> {
    let drive = |path: &str, dp: &mut dyn Dataplane| {
        PathResult::run(path, dp, &[inputs], tb.sink_mac(), adv)
    };
    let scalar = drive("scalar", &mut tb.build_scalar());
    prop_assert!(scalar.counters.splits > 0, "workload must exercise parking");
    scalar.check_oracle(true).map_err(TestCaseError::fail)?;
    for workers in [2usize, 4] {
        let mut engine =
            tb.build_engine(EngineConfig { workers, batch: 32, ring_depth: 4 }).unwrap();
        let got = drive(&format!("engine ({workers} workers)"), &mut engine);
        got.diff(&scalar).and_then(|()| got.check_oracle(true)).map_err(TestCaseError::fail)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// §6.2.6, extended to the execution engine and the mixed TCP+UDP
    /// enterprise workload: sharded-batched output must match the scalar
    /// pipeline *exactly* — counter totals and identical merged outputs,
    /// egress port included — at 2 and 4 shards, including mixes that
    /// wrap the circular buffers (evictions and premature evictions of
    /// TCP-parked slots must then be identical too). Every merged packet
    /// must carry valid IPv4 and transport checksums.
    #[test]
    fn fastpath_matches_scalar_pipeline_on_mixed_traffic(
        seed in any::<u64>(),
        packets in 150usize..350,
        slots in 24usize..512,
    ) {
        let tb = SlicedTestbed::new(4, slots);
        let inputs = tb.counted_mixed_wave(seed, packets);
        let tcp = inputs
            .iter()
            .filter(|p| ParsedPacket::parse(&p.bytes).unwrap().five_tuple().protocol == 6)
            .count();
        prop_assert!(tcp > 0 && tcp < inputs.len(), "need a genuine mix: {}", tcp);
        engine_matches_scalar(&tb, &inputs, &AdversityProfile::disabled())?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The adversity equivalence oracle: for any seeded mix of loss,
    /// duplication, truncation and bounded reordering on the internal NF
    /// legs, the sharded engine at 2 and 4 workers must agree with the
    /// scalar pipeline *exactly* — identical counter totals, identical
    /// fault tallies, and identical delivered sets — because every
    /// fault decision is a pure function of `(seed, leg, seq)`. The
    /// conformance oracle (no slot leaks, counters balance, delivered
    /// packets verify) must hold on every path.
    #[test]
    fn fastpath_matches_scalar_under_identical_seeded_adversity(
        seed in any::<u64>(),
        packets in 150usize..300,
        slots in 24usize..256,
        loss_pm in 0u32..300,
        dup_pm in 0u32..300,
        trunc_pm in 0u32..250,
        reorder_pm in 0u32..500,
    ) {
        // Per-mille knobs: the vendored proptest has no float strategies.
        let (loss, dup, trunc, reorder) = (
            f64::from(loss_pm) / 1000.0,
            f64::from(dup_pm) / 1000.0,
            f64::from(trunc_pm) / 1000.0,
            f64::from(reorder_pm) / 1000.0,
        );
        let tb = SlicedTestbed::new(4, slots);
        let inputs = tb.counted_mixed_wave(seed, packets);
        let adv = AdversityProfile {
            seed,
            to_nf: LegProfile::loss(loss * 0.3),
            from_nf: LegProfile {
                drop: loss,
                duplicate: dup,
                truncate: trunc,
                reorder,
                max_displacement: 32,
                ..Default::default()
            },
        };
        engine_matches_scalar(&tb, &inputs, &adv)?;
    }
}

#[test]
fn captures_roundtrip_through_pcap_files() {
    // The capture/compare methodology itself must be faithful: write the
    // records to a pcap image and read them back.
    let chip = ChipProfile::default();
    let packets = workload();
    let mut baseline = build_baseline_switch(chip).unwrap();
    baseline.l2_add(server_mac(), PortId(SERVER_PORT));
    baseline.l2_add(sink_mac(), PortId(SINK_PORT));
    let records = capture(&mut baseline, &packets);

    let mut w = PcapWriter::new(Vec::new()).unwrap();
    for r in &records {
        w.write_record(r).unwrap();
    }
    let bytes = w.finish().unwrap();
    let reread = PcapReader::parse(&bytes).unwrap().into_records();
    assert!(captures_identical(&records, &reread));
}
