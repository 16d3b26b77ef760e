//! The shared sliced-deployment fixture.
//!
//! Every surface that exercises the engine against the scalar pipeline —
//! the `fastpath` bench, the `fastpath_throughput` example, the `pp-exp
//! throughput` experiment, and the equivalence suites — needs the same
//! rig: an N-server §6.2.4 slicing of pipe 0 (slice *k* splits on port
//! 2k, merges on port 2k+1 where its MAC-swap NF server lives), per-slice
//! server MACs, a sink, and the fused scalar Split → NF → Merge loop.
//! Defining it once keeps the bench, the example and the oracle measuring
//! the *same* deployment; if the slicing shape or the NF-reflection
//! convention ever changes, it changes everywhere at once. The two-phase
//! drive the equivalence suites compare paths with is
//! [`crate::conformance::two_phase_adverse`], over the switch and engine
//! this fixture builds.

use crate::engine::{Engine, EngineConfig};
use payloadpark::program::build_switch;
use payloadpark::{BuildError, ParkConfig, PipeControl, SliceSpec};
use pp_netsim::time::SimDuration;
use pp_packet::MacAddr;
use pp_rmt::chip::ChipProfile;
use pp_rmt::switch::{BatchOutput, BatchPacket, SwitchOutput};
use pp_rmt::{PortId, SwitchModel};
use pp_trafficgen::gen::{GenConfig, SizeModel, TrafficGen, TrafficMix};

/// An N-slice single-pipe deployment with one MAC-swap NF server per
/// slice and a sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlicedTestbed {
    /// Memory slices (= NF servers = maximum engine workers).
    pub slices: usize,
    /// Lookup-table slots per slice.
    pub slots: usize,
}

impl SlicedTestbed {
    /// A testbed with `slices` slices of `slots` slots each.
    pub fn new(slices: usize, slots: usize) -> Self {
        SlicedTestbed { slices, slots }
    }

    /// Slice `k`'s split port (generator side).
    pub fn split_port(&self, k: usize) -> PortId {
        PortId(2 * k as u16)
    }

    /// Slice `k`'s merge port (its NF server's port).
    pub fn merge_port(&self, k: usize) -> PortId {
        PortId(2 * k as u16 + 1)
    }

    /// The sink's port (the first port after the slices').
    pub fn sink_port(&self) -> PortId {
        PortId(2 * self.slices as u16)
    }

    /// Slice `k`'s NF server MAC.
    pub fn server_mac(&self, k: usize) -> MacAddr {
        MacAddr::from_index(100 + k as u64)
    }

    /// The sink's MAC.
    pub fn sink_mac(&self) -> MacAddr {
        MacAddr::from_index(200)
    }

    /// The deployment configuration.
    pub fn config(&self) -> ParkConfig {
        let mut cfg = ParkConfig::single_server(ChipProfile::default(), vec![0], 1, self.slots);
        cfg.pipes[0].slices = (0..self.slices)
            .map(|k| SliceSpec {
                name: format!("server{k}"),
                split_ports: vec![self.split_port(k).0],
                merge_ports: vec![self.merge_port(k).0],
                slots: self.slots,
            })
            .collect();
        cfg
    }

    /// Feeds the L2 view (server MACs on their merge ports, the sink on
    /// its port) to `add` — works for switches and engines alike.
    pub fn wire(&self, add: &mut dyn FnMut(MacAddr, PortId)) {
        for k in 0..self.slices {
            add(self.server_mac(k), self.merge_port(k));
        }
        add(self.sink_mac(), self.sink_port());
    }

    /// Builds the scalar reference switch, L2 wired.
    pub fn build_scalar(&self) -> (SwitchModel, PipeControl) {
        let (mut sw, handles) = build_switch(&self.config()).expect("valid testbed config");
        self.wire(&mut |mac, port| sw.l2_add(mac, port));
        (sw, PipeControl::new(handles[0].clone()))
    }

    /// Builds an engine over the same deployment, L2 wired.
    pub fn build_engine(&self, cfg: EngineConfig) -> Result<Engine, BuildError> {
        let mut engine = Engine::new(&self.config(), cfg)?;
        self.wire(&mut |mac, port| engine.l2_add(mac, port));
        Ok(engine)
    }

    /// Readdresses `pkt` to its ingress slice's NF server (the generator
    /// steers traffic per slice by destination MAC).
    pub fn stamp_server_mac(&self, pkt: &mut BatchPacket) {
        let slice = usize::from(pkt.port.0) / 2;
        pkt.bytes[0..6].copy_from_slice(&self.server_mac(slice).0);
    }

    /// A paced enterprise-mix wave across all split ports, server MACs
    /// stamped: the standard throughput workload.
    pub fn enterprise_wave(&self, seed: u64, window: SimDuration) -> Vec<BatchPacket> {
        let gen = TrafficGen::new(GenConfig {
            rate_gbps: 20.0,
            line_rate_gbps: 40.0,
            sizes: SizeModel::Enterprise,
            flows: 256,
            seed,
            ..Default::default()
        });
        let ports = (0..self.slices).map(|k| self.split_port(k).0).collect();
        let mut wave = crate::adapter::PacedIngest::new(gen, ports).wave(window);
        for pkt in &mut wave {
            self.stamp_server_mac(pkt);
        }
        wave
    }

    /// Exactly `packets` enterprise-mix packets, dealt round-robin across
    /// the slices by sequence number: the oracle's seeded workload.
    pub fn counted_enterprise_wave(&self, seed: u64, packets: usize) -> Vec<BatchPacket> {
        self.counted_wave(seed, packets, TrafficMix::UdpOnly)
    }

    /// Exactly `packets` of the mixed TCP+UDP enterprise workload (the
    /// traffic composition the paper's target datacenters actually carry):
    /// 70 % of flows run TCP connections with SYN/data/FIN phases, dealt
    /// round-robin across the slices like the UDP wave.
    pub fn counted_mixed_wave(&self, seed: u64, packets: usize) -> Vec<BatchPacket> {
        self.counted_wave(seed, packets, TrafficMix::TcpUdp { tcp_fraction: 0.7 })
    }

    fn counted_wave(&self, seed: u64, packets: usize, mix: TrafficMix) -> Vec<BatchPacket> {
        let mut gen = TrafficGen::new(GenConfig {
            rate_gbps: 4.0,
            sizes: SizeModel::Enterprise,
            mix,
            flows: 32,
            seed,
            ..Default::default()
        });
        gen.take_count(packets)
            .into_iter()
            .map(|(_, pkt)| {
                let seq = pkt.seq();
                let slice = (seq as usize) % self.slices;
                let mut pkt =
                    BatchPacket { bytes: pkt.into_bytes(), port: self.split_port(slice), seq };
                self.stamp_server_mac(&mut pkt);
                pkt
            })
            .collect()
    }

    /// The scalar Split → MAC-swap NF → Merge reference, one packet at a
    /// time: each switch output bounces off its slice's server
    /// (readdressed to the sink) and merges immediately. Returns the
    /// sink-side outputs in arrival order.
    pub fn scalar_roundtrip(
        &self,
        sw: &mut SwitchModel,
        inputs: &[BatchPacket],
    ) -> Vec<SwitchOutput> {
        let mut merged = BatchOutput::new();
        self.scalar_roundtrip_into(sw, inputs, &mut merged);
        merged.to_switch_outputs()
    }

    /// [`SlicedTestbed::scalar_roundtrip`] into a reusable [`BatchOutput`]
    /// (cleared first): the allocation-free form the throughput experiment
    /// times. All per-packet scratch (PHV, deparse arena, NF bounce frame)
    /// is pooled, so a warm switch runs the whole loop without touching
    /// the heap.
    pub fn scalar_roundtrip_into(
        &self,
        sw: &mut SwitchModel,
        inputs: &[BatchPacket],
        merged: &mut BatchOutput,
    ) {
        merged.clear();
        let mut split_out = BatchOutput::new();
        let mut back: Vec<u8> = Vec::new();
        for pkt in inputs {
            split_out.clear();
            sw.process_into(&pkt.bytes, pkt.port, pkt.seq, &mut split_out);
            for out in split_out.iter() {
                back.clear();
                back.extend_from_slice(out.bytes);
                back[0..6].copy_from_slice(&self.sink_mac().0);
                sw.process_into(&back, out.port, out.seq, merged);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_is_consistent() {
        let tb = SlicedTestbed::new(4, 64);
        assert_eq!(tb.split_port(3), PortId(6));
        assert_eq!(tb.merge_port(3), PortId(7));
        assert_eq!(tb.sink_port(), PortId(8));
        let cfg = tb.config();
        cfg.validate().unwrap();
        assert_eq!(cfg.pipes[0].slices.len(), 4);
        assert_eq!(cfg.pipes[0].total_slots(), 4 * 64);
    }

    #[test]
    fn waves_cover_every_slice_and_are_stamped() {
        let tb = SlicedTestbed::new(4, 64);
        let wave = tb.counted_enterprise_wave(9, 40);
        assert_eq!(wave.len(), 40);
        for k in 0..4 {
            let slice: Vec<_> = wave.iter().filter(|p| p.port == tb.split_port(k)).collect();
            assert_eq!(slice.len(), 10, "slice {k}");
            assert!(slice.iter().all(|p| p.bytes[0..6] == tb.server_mac(k).0));
        }
        let paced = tb.enterprise_wave(9, SimDuration::from_micros(200));
        assert!(!paced.is_empty());
    }

    #[test]
    fn mixed_wave_carries_both_transports() {
        let tb = SlicedTestbed::new(4, 64);
        let wave = tb.counted_mixed_wave(9, 400);
        assert_eq!(wave.len(), 400);
        let tcp = wave
            .iter()
            .filter(|p| {
                pp_packet::ParsedPacket::parse(&p.bytes).unwrap().five_tuple().protocol == 6
            })
            .count();
        assert!(tcp > 100 && tcp < 400, "tcp {tcp} of 400");
        // Dealt across all slices like the UDP wave.
        for k in 0..4 {
            assert_eq!(
                wave.iter().filter(|p| p.port == tb.split_port(k)).count(),
                100,
                "slice {k}"
            );
        }
    }

    #[test]
    fn scalar_reference_delivers_everything_to_the_sink() {
        let tb = SlicedTestbed::new(2, 256);
        let (mut sw, control) = tb.build_scalar();
        let wave = tb.counted_enterprise_wave(3, 50);
        let merged = tb.scalar_roundtrip(&mut sw, &wave);
        assert_eq!(merged.len(), 50);
        assert!(merged.iter().all(|o| o.port == tb.sink_port()));
        assert!(control.counters(&sw).functionally_equivalent());
    }
}
