//! The packet generator.

use crate::enterprise::EnterpriseDistribution;
use pp_netsim::rng::DetRng;
use pp_netsim::time::{Bandwidth, SimDuration, SimTime};
use pp_packet::builder::{TcpFlags, TcpPacketBuilder, UdpPacketBuilder};
use pp_packet::{MacAddr, Packet, TCP_STACK_HEADER_LEN, UDP_STACK_HEADER_LEN};
use std::net::Ipv4Addr;

/// How packet sizes are chosen.
#[derive(Debug, Clone)]
pub enum SizeModel {
    /// Every packet has this total wire size.
    Fixed(usize),
    /// Sizes follow the enterprise-datacenter distribution (Fig. 6).
    Enterprise,
    /// Replay an explicit size sequence, cycling when exhausted.
    Replay(Vec<usize>),
}

/// Transport-protocol composition of the generated stream.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum TrafficMix {
    #[default]
    /// Every packet is UDP (the paper's evaluation traffic).
    UdpOnly,
    /// An enterprise TCP/UDP mix: this fraction of the flow pool runs TCP
    /// connections with SYN/data/FIN phases (header-only control segments,
    /// data segments from the size model, cumulative sequence numbers);
    /// the remaining flows send UDP datagrams as before.
    TcpUdp {
        /// Fraction of flows that are TCP connections, in `[0, 1]`.
        tcp_fraction: f64,
    },
}

/// Per-flow TCP connection state.
#[derive(Debug, Clone, Copy, Default)]
struct TcpFlowState {
    /// Connection open (SYN already sent)?
    established: bool,
    /// Data segments left before the FIN.
    segs_left: u32,
    /// Next sequence number to send.
    next_seq: u32,
}

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Target offered rate in Gbps of wire bytes (the paper's "send rate").
    pub rate_gbps: f64,
    /// Aggregate line rate of the generator's ports; bursts serialize at
    /// this speed. The paper's generator uses two NIC ports (§6.1), so the
    /// testbed passes 2 × the per-port rate here and lets the per-port
    /// links enforce per-port serialization.
    pub line_rate_gbps: f64,
    /// Packets per burst (PktGen default-style bursting).
    pub burst: usize,
    /// Packet sizing.
    pub sizes: SizeModel,
    /// Transport-protocol mix.
    pub mix: TrafficMix,
    /// Number of distinct flows (distinct source IP/port pairs).
    pub flows: usize,
    /// Destination MAC (the NF server, for L2 forwarding).
    pub dst_mac: MacAddr,
    /// Destination IP.
    pub dst_ip: Ipv4Addr,
    /// First source IP; flows increment from here.
    pub src_ip_base: Ipv4Addr,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            rate_gbps: 1.0,
            line_rate_gbps: 40.0,
            burst: 32,
            sizes: SizeModel::Fixed(512),
            mix: TrafficMix::UdpOnly,
            flows: 64,
            dst_mac: MacAddr::from_index(100),
            dst_ip: Ipv4Addr::new(10, 10, 0, 1),
            src_ip_base: Ipv4Addr::new(10, 0, 0, 1),
            seed: 1,
        }
    }
}

/// A deterministic packet source.
///
/// `next_packet()` yields `(departure time, packet)` pairs forever; the
/// harness pulls as many as the experiment window needs. Departures are
/// paced in bursts: within a burst, packets leave back-to-back at line
/// rate; bursts are spaced so the long-run average hits `rate_gbps`.
pub struct TrafficGen {
    config: GenConfig,
    rng: DetRng,
    /// Time the next packet may leave.
    cursor_ns: f64,
    /// Packets emitted in the current burst so far.
    in_burst: usize,
    /// Wire bytes emitted so far (the running total pacing is set against).
    sent_bytes: u64,
    seq: u64,
    replay_idx: usize,
    /// Number of TCP flows (flow ids below this run TCP connections).
    tcp_flows: usize,
    /// Per-TCP-flow connection state, indexed by flow id.
    tcp_states: Vec<TcpFlowState>,
}

impl TrafficGen {
    /// Creates a generator.
    ///
    /// Panics on non-positive rates or rates beyond line rate — that is a
    /// mis-configured experiment.
    pub fn new(config: GenConfig) -> Self {
        assert!(config.rate_gbps > 0.0, "rate must be positive");
        assert!(
            config.rate_gbps <= config.line_rate_gbps + 1e-9,
            "rate {} beyond the generator ports' aggregate line rate {}",
            config.rate_gbps,
            config.line_rate_gbps
        );
        assert!(config.burst > 0, "burst must be positive");
        assert!(config.flows > 0, "need at least one flow");
        let tcp_flows = match config.mix {
            TrafficMix::UdpOnly => 0,
            TrafficMix::TcpUdp { tcp_fraction } => {
                assert!(
                    (0.0..=1.0).contains(&tcp_fraction),
                    "tcp_fraction {tcp_fraction} out of [0, 1]"
                );
                (config.flows as f64 * tcp_fraction).round() as usize
            }
        };
        let rng = DetRng::derive(config.seed, "trafficgen");
        TrafficGen {
            config,
            rng,
            cursor_ns: 0.0,
            in_burst: 0,
            sent_bytes: 0,
            seq: 0,
            replay_idx: 0,
            tcp_flows,
            tcp_states: vec![TcpFlowState::default(); tcp_flows],
        }
    }

    /// The configuration.
    pub fn config(&self) -> &GenConfig {
        &self.config
    }

    /// Total packets generated so far.
    pub fn generated(&self) -> u64 {
        self.seq
    }

    /// Total wire bytes generated so far.
    pub fn generated_bytes(&self) -> u64 {
        self.sent_bytes
    }

    fn next_size(&mut self) -> usize {
        match &self.config.sizes {
            SizeModel::Fixed(s) => *s,
            SizeModel::Enterprise => EnterpriseDistribution::sample(&mut self.rng),
            SizeModel::Replay(sizes) => {
                let s = sizes[self.replay_idx % sizes.len()];
                self.replay_idx += 1;
                s
            }
        }
    }

    /// Builds one UDP datagram for `flow` (the original, paper-faithful
    /// workload packet).
    fn build_udp(&mut self, flow: u32, seq: u64, size: usize) -> Packet {
        let src_ip = Ipv4Addr::from(u32::from(self.config.src_ip_base) + flow);
        UdpPacketBuilder::new()
            .src_mac(MacAddr::from_index(1))
            .dst_mac(self.config.dst_mac)
            .src_ip(src_ip)
            .dst_ip(self.config.dst_ip)
            .src_port(10_000 + (flow % 50_000) as u16)
            .dst_port(5001)
            .ident(seq as u16)
            .total_size(size, seq ^ self.config.seed)
            .build()
    }

    /// Advances `flow`'s TCP connection one segment: SYN on a fresh
    /// connection, then a run of data segments sized by the size model,
    /// then FIN — after which the flow opens a new connection. Returns the
    /// built segment and its wire size.
    fn build_tcp(&mut self, flow: u32, seq: u64) -> (Packet, usize) {
        let mut st = self.tcp_states[flow as usize];
        let (payload_len, flags) = if !st.established {
            st.established = true;
            // 2-15 data segments per connection: short enterprise
            // request/response exchanges with an occasional longer pull.
            st.segs_left = 2 + self.rng.gen_range(0, 14) as u32;
            st.next_seq = (self.config.seed as u32) ^ flow.wrapping_mul(0x9E37_79B9);
            (0, TcpFlags::SYN)
        } else if st.segs_left == 0 {
            st.established = false;
            (0, TcpFlags::FIN | TcpFlags::ACK)
        } else {
            st.segs_left -= 1;
            let size = self.next_size().max(TCP_STACK_HEADER_LEN);
            (size - TCP_STACK_HEADER_LEN, TcpFlags::ACK)
        };
        let tcp_seq = st.next_seq;
        // SYN and FIN each consume one sequence number; data consumes its
        // payload length.
        let seq_consumed =
            payload_len as u32 + u32::from(flags & (TcpFlags::SYN | TcpFlags::FIN) != 0);
        st.next_seq = st.next_seq.wrapping_add(seq_consumed);
        self.tcp_states[flow as usize] = st;

        let src_ip = Ipv4Addr::from(u32::from(self.config.src_ip_base) + flow);
        let pkt = TcpPacketBuilder::new()
            .src_mac(MacAddr::from_index(1))
            .dst_mac(self.config.dst_mac)
            .src_ip(src_ip)
            .dst_ip(self.config.dst_ip)
            .src_port(10_000 + (flow % 50_000) as u16)
            .dst_port(80)
            .ident(seq as u16)
            .tcp_seq(tcp_seq)
            .flags(flags)
            .patterned_payload(payload_len, seq ^ self.config.seed)
            .build();
        (pkt, payload_len + TCP_STACK_HEADER_LEN)
    }

    /// Produces the next `(departure, packet)`.
    pub fn next_packet(&mut self) -> (SimTime, Packet) {
        let seq = self.seq;
        self.seq += 1;

        let (mut pkt, size) = match self.config.mix {
            TrafficMix::UdpOnly => {
                // Draw order (size, then flow) matches the original
                // UDP-only generator, keeping seeded streams stable.
                let size = self.next_size().max(UDP_STACK_HEADER_LEN);
                let flow = self.rng.gen_range(0, self.config.flows as u64) as u32;
                (self.build_udp(flow, seq, size), size)
            }
            TrafficMix::TcpUdp { .. } => {
                // Flow selection first: a TCP flow's size depends on its
                // connection phase.
                let flow = self.rng.gen_range(0, self.config.flows as u64) as u32;
                if (flow as usize) < self.tcp_flows {
                    self.build_tcp(flow, seq)
                } else {
                    let size = self.next_size().max(UDP_STACK_HEADER_LEN);
                    (self.build_udp(flow, seq, size), size)
                }
            }
        };
        pkt.set_seq(seq);

        // Pacing: packets within a burst go back-to-back at line rate;
        // after a burst the cursor jumps so the average matches rate_gbps.
        let t = SimTime(self.cursor_ns.round() as u64);
        let line = Bandwidth::gbps(self.config.line_rate_gbps);
        self.cursor_ns += line.serialization_delay(size).nanos() as f64;
        self.sent_bytes += size as u64;
        self.in_burst += 1;
        if self.in_burst >= self.config.burst {
            self.in_burst = 0;
            // Advance the cursor to where the average rate says we should
            // be after `sent_bytes` bytes.
            let target_ns = self.sent_bytes as f64 * 8.0 / self.config.rate_gbps;
            self.cursor_ns = self.cursor_ns.max(target_ns);
        }
        (t, pkt)
    }

    /// Exactly `count` packets with their departure times — the counted
    /// sibling of [`TrafficGen::take_for`] for wave-based rigs (the
    /// sliced testbed, the adversity matrix) that need a fixed packet
    /// budget rather than a time window.
    pub fn take_count(&mut self, count: usize) -> Vec<(SimTime, Packet)> {
        (0..count).map(|_| self.next_packet()).collect()
    }

    /// Generates all departures within `[0, duration)`.
    pub fn take_for(&mut self, duration: SimDuration) -> Vec<(SimTime, Packet)> {
        let mut out = Vec::new();
        loop {
            let (t, pkt) = self.next_packet();
            if t.nanos() >= duration.nanos() {
                break;
            }
            out.push((t, pkt));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(rate: f64, sizes: SizeModel) -> GenConfig {
        GenConfig { rate_gbps: rate, sizes, ..Default::default() }
    }

    #[test]
    fn take_count_yields_exactly_n_and_matches_the_stream() {
        let mut a = TrafficGen::new(config(4.0, SizeModel::Enterprise));
        let mut b = TrafficGen::new(config(4.0, SizeModel::Enterprise));
        let counted = a.take_count(25);
        assert_eq!(counted.len(), 25);
        for (t, p) in counted {
            let (t2, p2) = b.next_packet();
            assert_eq!(t, t2);
            assert_eq!(p.bytes(), p2.bytes());
        }
        assert_eq!(a.generated(), 25);
    }

    #[test]
    fn average_rate_matches_target() {
        let mut g = TrafficGen::new(config(10.0, SizeModel::Fixed(512)));
        let pkts = g.take_for(SimDuration::from_millis(10));
        let bytes: u64 = pkts.iter().map(|(_, p)| p.len() as u64).sum();
        let gbps = bytes as f64 * 8.0 / 10_000_000.0;
        assert!((gbps - 10.0).abs() < 0.2, "offered {gbps}");
    }

    #[test]
    fn bursts_are_line_rate_spaced() {
        let mut g = TrafficGen::new(GenConfig {
            rate_gbps: 1.0,
            line_rate_gbps: 40.0,
            burst: 4,
            sizes: SizeModel::Fixed(1000),
            ..Default::default()
        });
        let pkts = g.take_for(SimDuration::from_millis(1));
        // Within the first burst: spacing = 1000B at 40G = 200 ns.
        let d01 = pkts[1].0.nanos() - pkts[0].0.nanos();
        assert_eq!(d01, 200);
        // Between bursts: a gap much larger than line-rate spacing.
        let gap = pkts[4].0.nanos() - pkts[3].0.nanos();
        assert!(gap > 5_000, "gap {gap}");
    }

    #[test]
    fn sequences_are_consecutive_and_sizes_fixed() {
        let mut g = TrafficGen::new(config(5.0, SizeModel::Fixed(384)));
        let pkts = g.take_for(SimDuration::from_micros(100));
        for (i, (_, p)) in pkts.iter().enumerate() {
            assert_eq!(p.seq(), i as u64);
            assert_eq!(p.len(), 384);
        }
        assert!(g.generated() > 0);
        assert_eq!(g.generated_bytes() % 384, 0);
    }

    #[test]
    fn enterprise_sizes_have_right_mean() {
        let mut g = TrafficGen::new(config(20.0, SizeModel::Enterprise));
        let pkts = g.take_for(SimDuration::from_millis(5));
        let mean = pkts.iter().map(|(_, p)| p.len() as f64).sum::<f64>() / pkts.len() as f64;
        assert!((mean - 882.0).abs() < 40.0, "mean {mean}");
    }

    #[test]
    fn replay_cycles_sizes() {
        let mut g = TrafficGen::new(config(5.0, SizeModel::Replay(vec![100, 200, 300])));
        let (_, a) = g.next_packet();
        let (_, b) = g.next_packet();
        let (_, c) = g.next_packet();
        let (_, d) = g.next_packet();
        assert_eq!((a.len(), b.len(), c.len(), d.len()), (100, 200, 300, 100));
    }

    #[test]
    fn flows_vary_but_deterministically() {
        let run = || {
            let mut g = TrafficGen::new(config(5.0, SizeModel::Fixed(256)));
            g.take_for(SimDuration::from_micros(200))
                .into_iter()
                .map(|(_, p)| p.parse().unwrap().five_tuple().src_ip)
                .collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run());
        let distinct: std::collections::HashSet<_> = a.iter().collect();
        assert!(distinct.len() > 1, "single flow only");
    }

    #[test]
    fn departures_are_monotone() {
        let mut g = TrafficGen::new(config(3.3, SizeModel::Enterprise));
        let pkts = g.take_for(SimDuration::from_millis(2));
        assert!(pkts.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    fn mixed_config(tcp_fraction: f64) -> GenConfig {
        GenConfig {
            rate_gbps: 5.0,
            sizes: SizeModel::Enterprise,
            mix: TrafficMix::TcpUdp { tcp_fraction },
            flows: 32,
            seed: 17,
            ..Default::default()
        }
    }

    #[test]
    fn mixed_wave_bytes_are_pinned() {
        // Every byte of a 0.7-TCP enterprise wave: headers, payload
        // patterns, sizes and flow choices. A change here reseeds every
        // wave-based benchmark and test that draws from the generator.
        let mut g = TrafficGen::new(GenConfig {
            sizes: SizeModel::Enterprise,
            mix: TrafficMix::TcpUdp { tcp_fraction: 0.7 },
            flows: 32,
            rate_gbps: 4.0,
            seed: 1,
            ..Default::default()
        });
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (_, p) in g.take_count(512) {
            for &b in p.bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        assert_eq!(h, 0x403b_d947_40eb_b99e, "wave hash {h:#x}");
    }

    #[test]
    fn mixed_wave_carries_both_transports_at_the_right_ratio() {
        let mut g = TrafficGen::new(mixed_config(0.75));
        let pkts = g.take_for(SimDuration::from_millis(4));
        assert!(pkts.len() > 500, "window too small: {}", pkts.len());
        let tcp =
            pkts.iter().filter(|(_, p)| p.parse().unwrap().five_tuple().protocol == 6).count();
        let frac = tcp as f64 / pkts.len() as f64;
        // Flows are drawn uniformly, so the packet ratio tracks the flow
        // ratio (control segments keep TCP slightly over-represented in
        // packet count relative to bytes, not count).
        assert!((frac - 0.75).abs() < 0.06, "tcp fraction {frac}");
    }

    #[test]
    fn mixed_wave_packets_all_verify_checksums() {
        let mut g = TrafficGen::new(mixed_config(0.5));
        for (_, p) in g.take_for(SimDuration::from_micros(500)) {
            assert!(p.parse().unwrap().verify_checksums(), "seq {}", p.seq());
        }
    }

    #[test]
    fn tcp_flows_cycle_syn_data_fin_with_cumulative_seq() {
        use pp_packet::{TcpFlags, TcpHeader};
        let mut g = TrafficGen::new(GenConfig {
            rate_gbps: 5.0,
            sizes: SizeModel::Enterprise,
            mix: TrafficMix::TcpUdp { tcp_fraction: 1.0 },
            flows: 1, // a single flow: its phases appear in emission order
            seed: 9,
            ..Default::default()
        });
        let pkts = g.take_for(SimDuration::from_millis(1));
        let segs: Vec<(u8, u32, usize)> = pkts
            .iter()
            .map(|(_, p)| {
                let parsed = p.parse().unwrap();
                let tcp = TcpHeader::new_checked(&p.bytes()[parsed.offsets().transport..]).unwrap();
                (tcp.flags(), tcp.seq(), parsed.udp_payload_len())
            })
            .collect();
        assert!(segs.len() > 20);
        // First segment of a connection is a bare SYN with no payload.
        assert_eq!(segs[0].0, TcpFlags::SYN);
        assert_eq!(segs[0].2, 0);
        let mut expected_seq = segs[0].1.wrapping_add(1); // SYN consumes one
        let mut fins = 0;
        let mut data_bytes = 0usize;
        for &(flags, seq, payload) in &segs[1..] {
            if flags == TcpFlags::SYN {
                // A new connection: fresh ISN.
                expected_seq = seq.wrapping_add(1);
                assert_eq!(payload, 0);
                continue;
            }
            assert_eq!(seq, expected_seq, "cumulative sequence numbers");
            expected_seq = expected_seq
                .wrapping_add(payload as u32)
                .wrapping_add(u32::from(flags & TcpFlags::FIN != 0));
            if flags & TcpFlags::FIN != 0 {
                fins += 1;
                assert_eq!(payload, 0);
            } else if payload > 0 {
                data_bytes += payload;
            }
            // Zero-payload ACK "data" segments model bare ACKs (the size
            // model sampled below the 54-byte header stack).
        }
        assert!(fins > 0, "the window must close at least one connection");
        assert!(data_bytes > 1000, "connections must move real payload");
    }

    #[test]
    fn udp_only_mix_is_default_and_pure() {
        let mut g = TrafficGen::new(config(5.0, SizeModel::Enterprise));
        assert_eq!(g.config().mix, TrafficMix::UdpOnly);
        for (_, p) in g.take_for(SimDuration::from_micros(300)) {
            assert_eq!(p.parse().unwrap().five_tuple().protocol, 17);
        }
    }

    #[test]
    #[should_panic(expected = "out of [0, 1]")]
    fn bad_tcp_fraction_panics() {
        TrafficGen::new(mixed_config(1.5));
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_panics() {
        TrafficGen::new(config(0.0, SizeModel::Fixed(100)));
    }

    #[test]
    #[should_panic(expected = "beyond the generator ports")]
    fn absurd_rate_panics() {
        TrafficGen::new(config(100.0, SizeModel::Fixed(100)));
    }
}
