//! The discrete-event testbed (paper Fig. 5, and §6.2.3's multi-server
//! pipe).
//!
//! ```text
//!            2 × NIC ports                1 × NIC port
//! PktGen ==================> RMT switch <============> NF server
//!    ^                          |   ^
//!    |        (sink path)       v   | (headers return)
//!    +--------------------------+---+
//! ```
//!
//! The generator's two ports feed the split side (so the split-side links
//! are never the bottleneck, §6.1); the server hangs off one port; packets
//! returning from the NF chain are merged and L2-forwarded to the sink,
//! where goodput and end-to-end latency are measured.
//!
//! With [`TestbedConfig::servers`] > 1, several copies of that rig share
//! one pipe through static memory slicing (§6.2.3, Figs. 10-11): each
//! server has its own generator, sink and slice of the lookup table, so a
//! heavy-hitting neighbour cannot evict another tenant's payloads. The
//! paper attaches two servers to each of the four pipes; pipes share
//! nothing, so the 8-server experiment is four independent two-server
//! runs. Server `s` has the generator on ports `4s` and `4s+1`, the NF
//! server on `4s+2` and the sink on `4s+3`, all on pipe 0, so a run has
//! one to four servers.

use payloadpark::program::{build_baseline_switch, build_switch};
use payloadpark::{CounterSnapshot, ParkConfig, PipeControl, SliceSpec};
use pp_metrics::{GoodputMeter, HealthTracker, LatencyStats};
use pp_netsim::adversity::{internal_leg_protected_prefix, AdversityProfile, FaultTally, Leg};
use pp_netsim::event::EventQueue;
use pp_netsim::link::Link;
use pp_netsim::rng::DetRng;
use pp_netsim::time::{Bandwidth, SimDuration, SimTime};
use pp_nf::chain::NfChain;
use pp_nf::framework::FrameworkProfile;
use pp_nf::nfs::firewall::{Firewall, FirewallRule};
use pp_nf::nfs::maglev::{Backend, MaglevLb};
use pp_nf::nfs::{MacSwap, Nat, Synthetic};
use pp_nf::server::{NfServer, RxOutcome, ServerProfile};
use pp_packet::{MacAddr, Packet};
use pp_rmt::chip::ChipProfile;
use pp_rmt::switch::BatchOutput;
use pp_rmt::PortId;
use pp_trafficgen::gen::{GenConfig, SizeModel, TrafficGen, TrafficMix};
use std::net::Ipv4Addr;

/// Generator split-side ports.
pub const GEN_PORTS: [u16; 2] = [0, 1];
/// NF-server port.
pub const SERVER_PORT: u16 = 2;
/// Sink port (measurement).
pub const SINK_PORT: u16 = 3;

/// Server `s`'s generator, NF-server and sink ports: server 0's plan
/// shifted by four ports per server.
fn ports(s: usize) -> ([u16; 2], u16, u16) {
    let base = 4 * s as u16;
    (GEN_PORTS.map(|p| p + base), SERVER_PORT + base, SINK_PORT + base)
}

/// Which NF chain runs on the server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChainSpec {
    /// No NFs (framework forwarding only).
    Empty,
    /// MAC swapper (multi-server and equivalence experiments).
    MacSwap,
    /// Firewall with `rules` non-matching rules.
    Firewall {
        /// Number of ACL rules (all probed).
        rules: usize,
    },
    /// NAT only.
    Nat,
    /// Firewall → NAT (the 2-NF chain; 1 firewall rule in the paper).
    FwNat {
        /// Firewall rule count.
        fw_rules: usize,
    },
    /// Firewall → NAT → Maglev LB (the 3-NF chain; 20 rules in the paper).
    FwNatLb {
        /// Firewall rule count.
        fw_rules: usize,
    },
    /// Synthetic busy-loop NF of the given per-packet cycles (§6.3.3).
    Synthetic {
        /// Cycles per packet.
        cycles: u64,
    },
    /// Firewall → NAT where the firewall blacklists a fraction of the
    /// generator's flows (the Fig. 12 drop-rate control).
    FwNatBlacklist {
        /// Fraction of flows blocked, in percent (0-100).
        blocked_pct: u8,
    },
}

impl ChainSpec {
    /// Instantiates the chain. `flows` is the generator flow count and
    /// `src_base` its first source address (used to build blacklists).
    pub fn build(&self, flows: usize, src_base: Ipv4Addr) -> NfChain {
        match *self {
            ChainSpec::Empty => NfChain::empty(),
            ChainSpec::MacSwap => NfChain::new(vec![Box::new(MacSwap::new())]),
            ChainSpec::Firewall { rules } => {
                NfChain::new(vec![Box::new(Firewall::with_rule_count(rules))])
            }
            ChainSpec::Nat => {
                NfChain::new(vec![Box::new(Nat::new(Ipv4Addr::new(198, 51, 100, 1)))])
            }
            ChainSpec::FwNat { fw_rules } => NfChain::new(vec![
                Box::new(Firewall::with_rule_count(fw_rules)),
                Box::new(Nat::new(Ipv4Addr::new(198, 51, 100, 1))),
            ]),
            ChainSpec::FwNatLb { fw_rules } => NfChain::new(vec![
                Box::new(Firewall::with_rule_count(fw_rules)),
                Box::new(Nat::new(Ipv4Addr::new(198, 51, 100, 1))),
                Box::new(MaglevLb::with_table_size(
                    (0..4)
                        .map(|i| Backend {
                            name: format!("backend-{i}"),
                            ip: Ipv4Addr::new(10, 99, 0, i as u8 + 1),
                        })
                        .collect(),
                    65_537,
                )),
            ]),
            ChainSpec::Synthetic { cycles } => {
                NfChain::new(vec![Box::new(Synthetic::with_cycles("Synthetic", cycles))])
            }
            ChainSpec::FwNatBlacklist { blocked_pct } => {
                let blocked = flows * usize::from(blocked_pct) / 100;
                let rules = (0..blocked)
                    .map(|i| FirewallRule::new(Ipv4Addr::from(u32::from(src_base) + i as u32), 32))
                    .collect();
                NfChain::new(vec![
                    Box::new(Firewall::new(rules)),
                    Box::new(Nat::new(Ipv4Addr::new(198, 51, 100, 1))),
                ])
            }
        }
    }
}

/// NF-framework selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameworkKind {
    /// OpenNetVM profile.
    OpenNetVm,
    /// NetBricks profile.
    NetBricks,
}

impl FrameworkKind {
    fn profile(self, explicit_drop: bool) -> FrameworkProfile {
        let p = match self {
            FrameworkKind::OpenNetVm => FrameworkProfile::open_netvm(),
            FrameworkKind::NetBricks => FrameworkProfile::netbricks(),
        };
        if explicit_drop {
            p.with_explicit_drop()
        } else {
            p
        }
    }
}

/// PayloadPark deployment parameters for a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParkParams {
    /// Fraction of one pipe's stage SRAM reserved for the lookup table
    /// (the paper's macro-benchmarks use ≈ 0.26).
    pub sram_fraction: f64,
    /// Expiry threshold (`MAX_EXP`).
    pub expiry: u16,
    /// Park 384 B via recirculation through pipe 1 (§6.2.5).
    pub recirculation: bool,
    /// NF framework sends Explicit-Drop notifications (§6.2.4).
    pub explicit_drop: bool,
}

impl Default for ParkParams {
    fn default() -> Self {
        ParkParams { sram_fraction: 0.26, expiry: 1, recirculation: false, explicit_drop: false }
    }
}

/// Baseline or PayloadPark deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeployMode {
    /// Plain L2 forwarding.
    Baseline,
    /// PayloadPark with the given parameters.
    PayloadPark(ParkParams),
}

/// Full testbed configuration.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// NIC/link rate in Gbps (10 or 40 in the paper).
    pub nic_gbps: f64,
    /// Offered send rate in Gbps (wire bytes).
    pub rate_gbps: f64,
    /// Packet sizing.
    pub sizes: SizeModel,
    /// Transport-protocol mix of the generated traffic.
    pub mix: TrafficMix,
    /// Traffic window; events drain after it closes.
    pub duration: SimDuration,
    /// NF chain on the server.
    pub chain: ChainSpec,
    /// Framework profile.
    pub framework: FrameworkKind,
    /// Server hardware/model parameters (framework field is overwritten
    /// from `framework`/`mode`).
    pub server: ServerProfile,
    /// Per-byte cycles of the server's memory subsystem; `None` keeps the
    /// framework's own value. The 8-server rig's weaker E5-2407v2-class
    /// machines (§6.1) use 1.2.
    pub per_byte_cycles: Option<f64>,
    /// NF servers sharing pipe 0 (1-4), each with its own generator, sink
    /// and equal slice of the lookup table (see the module doc).
    pub servers: usize,
    /// Distinct generator flows.
    pub flows: usize,
    /// Run seed.
    pub seed: u64,
    /// Deployment under test.
    pub mode: DeployMode,
    /// Adversity scenario on the internal switch ↔ NF-server legs
    /// (disabled by default). Loss and blackouts skip the delivery, delay
    /// and reordering add latency, duplication schedules the packet twice,
    /// truncation and corruption mangle the wire bytes in flight — all
    /// decisions keyed on `(seed, leg, seq)` so a run replays exactly.
    pub adversity: AdversityProfile,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            nic_gbps: 10.0,
            rate_gbps: 4.0,
            sizes: SizeModel::Enterprise,
            mix: TrafficMix::UdpOnly,
            duration: SimDuration::from_millis(50),
            chain: ChainSpec::FwNatLb { fw_rules: 20 },
            framework: FrameworkKind::NetBricks,
            server: ServerProfile::default(),
            per_byte_cycles: None,
            servers: 1,
            flows: 128,
            seed: 1,
            mode: DeployMode::Baseline,
            adversity: AdversityProfile::disabled(),
        }
    }
}

impl TestbedConfig {
    /// The PayloadPark deployment a run builds (`None` for the baseline):
    /// one pipe-0 slice per server, splitting its generator ports and
    /// merging its NF-server port, each with an equal share of the SRAM
    /// fraction.
    pub fn park_config(&self) -> Option<ParkConfig> {
        let DeployMode::PayloadPark(p) = self.mode else { return None };
        let mut park =
            ParkConfig::single_server(ChipProfile::default(), GEN_PORTS.to_vec(), SERVER_PORT, 1);
        park.expiry_threshold = p.expiry;
        if p.recirculation {
            park.pipes[0].annex_pipe = Some(1);
        }
        let slots = (park.slots_for_sram_fraction(p.sram_fraction) / self.servers).max(1);
        let slices = &mut park.pipes[0].slices;
        slices[0].slots = slots;
        slices.extend((1..self.servers).map(|s| {
            let (gen, server, _) = ports(s);
            SliceSpec {
                name: format!("server{s}"),
                split_ports: gen.to_vec(),
                merge_ports: vec![server],
                slots,
            }
        }));
        Some(park)
    }
}

/// Everything measured in one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Offered send rate (Gbps of wire bytes).
    pub send_gbps: f64,
    /// Goodput in Gbps (UDP-header units, §6.1).
    pub goodput_gbps: f64,
    /// Conventional delivered throughput in Gbps.
    pub throughput_gbps: f64,
    /// Delivered packet rate in Mpps.
    pub rate_mpps: f64,
    /// Average end-to-end latency (µs).
    pub avg_latency_us: f64,
    /// Jitter: peak − average latency (µs).
    pub jitter_us: f64,
    /// 99th-percentile latency (µs).
    pub p99_latency_us: f64,
    /// Achieved PCIe bandwidth on the server (Gbps, both directions).
    pub pcie_gbps: f64,
    /// Health accounting.
    pub health: HealthTracker,
    /// Packets still inside the system (queues, links) when the send window
    /// closed — the backlog that drained afterwards.
    pub backlog_pkts: u64,
    /// PayloadPark counters (None for baseline runs).
    pub counters: Option<CounterSnapshot>,
    /// Occupied lookup-table slots when the run ended (0 for baseline).
    pub occupancy: usize,
    /// Server-side statistics.
    pub server_stats: pp_nf::server::ServerStats,
    /// Switch-side statistics.
    pub switch_stats: pp_rmt::switch::SwitchStats,
    /// What the adversity injectors actually did on the internal legs.
    pub fault_tally: FaultTally,
    /// End-to-end latency distribution (sim time, so deterministic for a
    /// seed) — the telemetry exporter renders its percentile series.
    pub latency: LatencyStats,
    /// Conformance-oracle findings (empty when every invariant held;
    /// always empty for baseline runs, which have no parking state).
    pub oracle_violations: Vec<String>,
    /// The switch's flight recorder dumped as JSONL when the oracle found
    /// a violation: the recent sampled trace events (seq, port, stage,
    /// decision, reason), oldest first.
    pub flight_dump: Option<String>,
}

impl RunReport {
    /// The paper's health criterion (< 0.1 % unintended drops), extended
    /// with a steady-state requirement: a backlog still queued when the
    /// window closes means the offered rate exceeded the service rate even
    /// if the deep rings hid the loss (their testbed's 2-minute runs would
    /// have surfaced it as drops).
    pub fn healthy(&self) -> bool {
        let backlog_bound = (self.health.offered / 200).max(256);
        self.health.healthy() && self.backlog_pkts <= backlog_bound
    }
}

/// A packet's last bit arrives; `port` is the switch port it left or
/// enters, which names the server it belongs to (`port / 4`).
enum Ev {
    /// At a switch ingress port.
    Switch { port: u16, pkt: Packet },
    /// At the NF server's NIC.
    Server { port: u16, pkt: Packet },
    /// At the sink.
    Sink { port: u16, pkt: Packet },
}

/// One server's share of the topology, and what is measured on it.
struct Rig {
    gen: TrafficGen,
    /// The generator's next departure, while it is inside the window.
    next: Option<(SimTime, Packet)>,
    gen_links: [Link; 2],
    to_server: Link,
    from_server: Link,
    to_sink: Link,
    server: NfServer,
    departures: Vec<u64>,
    latency: LatencyStats,
    goodput: GoodputMeter,
    delivered: u64,
    fault_tally: FaultTally,
}

/// Applies one internal leg's adversity to a packet about to be
/// transmitted. `None` means the packet was lost (random drop or
/// blackout); otherwise the bytes may have been truncated/corrupted in
/// place and the result carries the extra latency to add and whether a
/// duplicate copy should be transmitted as well.
fn inject(
    adv: &AdversityProfile,
    leg: Leg,
    pkt: &mut Packet,
    tally: &mut FaultTally,
) -> Option<(SimDuration, bool)> {
    if adv.leg(leg).is_noop() {
        return Some((SimDuration::from_nanos(0), false));
    }
    tally.seen += 1;
    let plan = adv.plan(leg, pkt.seq());
    if plan.blackout {
        tally.blacked_out += 1;
        return None;
    }
    if plan.drop {
        tally.dropped += 1;
        return None;
    }
    if plan.truncate.is_some() || plan.corrupt.is_some() {
        let protected = internal_leg_protected_prefix(pkt.bytes());
        plan.mutate(pkt.bytes_mut(), protected, tally);
    }
    if plan.displacement > 0 {
        tally.displaced += 1;
    }
    if plan.duplicate {
        tally.duplicated += 1;
    }
    Some((SimDuration::from_nanos(plan.extra_delay_ns), plan.duplicate))
}

/// Runs one experiment and returns server 0's report.
pub fn run(config: &TestbedConfig) -> RunReport {
    run_servers(config).swap_remove(0)
}

/// Runs one experiment and returns one report per server, in server order.
/// The pipe-wide results (PayloadPark counters, occupancy, the oracle's
/// findings and the switch statistics) are on every report.
pub fn run_servers(config: &TestbedConfig) -> Vec<RunReport> {
    let n = config.servers;
    assert!((1..=4).contains(&n), "pipe 0's port plan fits 1-4 servers, not {n}");

    // --- switch ---
    let (mut switch, control) = match config.park_config() {
        None => (build_baseline_switch(ChipProfile::default()).expect("baseline builds"), None),
        Some(park) => {
            let (sw, handles) = build_switch(&park).expect("park config builds");
            (sw, Some(PipeControl::new(handles[0].clone())))
        }
    };

    // --- per server: server, links, generator, measurement state ---
    let explicit = matches!(config.mode, DeployMode::PayloadPark(p) if p.explicit_drop);
    let bw = Bandwidth::gbps(config.nic_gbps);
    let prop = SimDuration::from_nanos(500);
    let mut rigs: Vec<Rig> = (0..n)
        .map(|s| {
            let (_, server_port, sink_port) = ports(s);
            let server_mac = MacAddr::from_index(100 + s as u64);
            let sink_mac = MacAddr::from_index(200 + s as u64);
            // Server s's flows start 2^22 addresses (10.64.0.1 for s = 1)
            // above server 0's.
            let src_base =
                Ipv4Addr::from(u32::from(Ipv4Addr::new(10, 0, 0, 1)) + ((s as u32) << 22));
            switch.l2_add(server_mac, PortId(server_port));
            switch.l2_add(sink_mac, PortId(sink_port));

            let mut profile = config.server;
            profile.framework = config.framework.profile(explicit);
            if let Some(cycles) = config.per_byte_cycles {
                profile.framework.per_byte_cycles = cycles;
            }
            let chain = config.chain.build(config.flows, src_base);
            // A one-server run keeps the streams of the single-server rig;
            // with several, each server and generator gets its own.
            let rng = if n == 1 {
                DetRng::derive(config.seed, "server")
            } else {
                DetRng::derive(config.seed, &format!("server{s}"))
            };
            let mut server = NfServer::new(profile, chain, rng);
            server.set_tx_dst_mac(sink_mac);

            let mut gen = TrafficGen::new(GenConfig {
                rate_gbps: config.rate_gbps,
                // Two generator ports: aggregate pacing at 2x the per-port rate.
                line_rate_gbps: config.nic_gbps * 2.0,
                burst: 32,
                sizes: config.sizes.clone(),
                mix: config.mix,
                flows: config.flows,
                dst_mac: server_mac,
                dst_ip: Ipv4Addr::new(10, 10, 0, s as u8 + 1),
                src_ip_base: src_base,
                seed: if n == 1 { config.seed } else { config.seed ^ ((s as u64 + 1) * 0x9E37) },
            });
            Rig {
                next: Some(gen.next_packet()),
                gen,
                gen_links: [Link::new(bw, prop), Link::new(bw, prop)],
                to_server: Link::new(bw, prop),
                from_server: Link::new(bw, prop),
                // The sink path spreads over both generator ports in the
                // real rig.
                to_sink: Link::new(Bandwidth::gbps(config.nic_gbps * 2.0), prop),
                server,
                departures: Vec::with_capacity(1 << 16),
                latency: LatencyStats::new(),
                goodput: GoodputMeter::new(),
                delivered: 0,
                fault_tally: FaultTally::default(),
            }
        })
        .collect();

    let duration_ns = config.duration.nanos();
    let mut queue: EventQueue<Ev> = EventQueue::new();
    let adversity = &config.adversity;
    // The switch's egress arena, reused by every pass.
    let mut switched = BatchOutput::new();

    loop {
        // Interleave generation with event processing in time order: a
        // generator wins a tie with the queue, and among generators the
        // later server wins.
        let mut earliest = queue.peek_time();
        let mut departing = None;
        for (s, rig) in rigs.iter().enumerate() {
            if let Some((t, _)) = rig.next {
                if earliest.is_none_or(|e| t <= e) {
                    earliest = Some(t);
                    departing = Some(s);
                }
            }
        }

        if let Some(s) = departing {
            let rig = &mut rigs[s];
            let (t, pkt) = rig.next.take().expect("chosen above");
            let seq = pkt.seq() as usize;
            if rig.departures.len() <= seq {
                rig.departures.resize(seq + 1, 0);
            }
            rig.departures[seq] = t.nanos();
            // Alternate generator ports; each imposes its own serialization.
            let lane = seq % 2;
            let arrival = rig.gen_links[lane].transmit(t, pkt.len());
            queue.schedule(arrival, Ev::Switch { port: ports(s).0[lane], pkt });
            // Pull the next departure while it is inside the window.
            let (t_next, p_next) = rig.gen.next_packet();
            if t_next.nanos() < duration_ns {
                rig.next = Some((t_next, p_next));
            }
            continue;
        }

        let Some((now, ev)) = queue.pop() else { break };
        match ev {
            Ev::Switch { port, pkt } => {
                switched.clear();
                switch.process_into(pkt.bytes(), PortId(port), pkt.seq(), &mut switched);
                for out in switched.iter() {
                    let port = out.port.0;
                    // Mis-routed packets (no such server, or a generator
                    // port) go nowhere.
                    let Some(rig) = rigs.get_mut(usize::from(port / 4)) else { continue };
                    let t_out = now + SimDuration::from_nanos(out.latency_ns);
                    let mut fwd = Packet::with_seq(out.bytes.to_vec(), out.seq);
                    match port % 4 {
                        SERVER_PORT => {
                            // The switch → NF leg is where the adversity
                            // engine lives (§3.3's lossy links).
                            let Some((extra, dup)) =
                                inject(adversity, Leg::ToNf, &mut fwd, &mut rig.fault_tally)
                            else {
                                continue;
                            };
                            if dup {
                                let again = rig.to_server.transmit(t_out, fwd.len());
                                queue
                                    .schedule(again + extra, Ev::Server { port, pkt: fwd.clone() });
                            }
                            let arrival = rig.to_server.transmit(t_out, fwd.len());
                            queue.schedule(arrival + extra, Ev::Server { port, pkt: fwd });
                        }
                        SINK_PORT => {
                            let arrival = rig.to_sink.transmit(t_out, fwd.len());
                            queue.schedule(arrival, Ev::Sink { port, pkt: fwd });
                        }
                        _ => {}
                    }
                }
            }
            Ev::Server { port, pkt } => {
                let rig = &mut rigs[usize::from(port / 4)];
                if let RxOutcome::Done { time, packet: Some(mut out) } = rig.server.rx(now, pkt) {
                    // The NF → switch leg: losses here orphan parked
                    // payloads until the evictor reclaims their slots.
                    let Some((extra, dup)) =
                        inject(adversity, Leg::FromNf, &mut out, &mut rig.fault_tally)
                    else {
                        continue;
                    };
                    if dup {
                        let again = rig.from_server.transmit(time, out.len());
                        queue.schedule(again + extra, Ev::Switch { port, pkt: out.clone() });
                    }
                    let arrival = rig.from_server.transmit(time, out.len());
                    queue.schedule(arrival + extra, Ev::Switch { port, pkt: out });
                }
            }
            Ev::Sink { port, pkt } => {
                let rig = &mut rigs[usize::from(port / 4)];
                rig.delivered += 1;
                if now.nanos() <= duration_ns {
                    rig.goodput.record(now, pkt.len());
                    let dep = rig.departures.get(pkt.seq() as usize).copied().unwrap_or(0);
                    rig.latency.record(SimDuration::from_nanos(now.nanos() - dep));
                }
            }
        }
    }

    // --- health accounting ---
    let counters = control.as_ref().map(|c| c.counters(&switch));
    let swstats = switch.stats();
    let premature = counters.map(|c| c.premature_evictions + c.crc_fail).unwrap_or(0);
    let explicit_consumed = counters.map(|c| c.explicit_drops).unwrap_or(0);
    // Explicit-drop notifications and consumed duplicate merges are extra
    // packets the switch absorbs by design; exclude them from the
    // "program drops" that indicate real loss.
    let dup_consumed = counters.map(|c| c.dup_merge).unwrap_or(0);
    let program_drops_other =
        swstats.dropped_by_program.saturating_sub(premature + explicit_consumed + dup_consumed);
    // Switch-wide drops are counted on server 0.
    let switch_drops = swstats.parse_errors
        + swstats.dropped_no_route
        + swstats.dropped_recirc_limit
        + program_drops_other;
    // The conformance oracle: whatever the network did, the counters must
    // balance against the slots actually occupied (no leaks, no
    // double-frees). On a violation the flight recorder's recent events
    // are dumped as JSONL — the forensic trail for the offending packets.
    let occupancy = control.as_ref().map(|ctl| ctl.occupancy(&switch)).unwrap_or(0);
    let (oracle_violations, flight_dump) = match &counters {
        Some(c) => {
            let report = payloadpark::oracle::check_counters(c, occupancy);
            let dump = payloadpark::oracle::flight_dump(&report, switch.recorder());
            (report.violations().to_vec(), dump)
        }
        None => (Vec::new(), None),
    };

    let n = n as u64;
    (0..n)
        .zip(rigs)
        .map(|(s, rig)| {
            let sstats = rig.server.stats();
            let health = HealthTracker {
                offered: rig.gen.generated(),
                delivered: rig.delivered,
                intended_drops: sstats.nf_dropped,
                ring_drops: sstats.ring_drops,
                // Premature evictions are a pipe-wide counter: an equal
                // share per server, the remainder on the last.
                premature_eviction_drops: premature / n
                    + if s == n - 1 { premature % n } else { 0 },
                // Injected losses (drops + blackouts) count as unintended:
                // the sweep's whole point is to watch health degrade with
                // adversity. (With duplication, `in_flight` can go slightly
                // negative — baseline duplicates are delivered twice but
                // offered once.)
                other_drops: (if s == 0 { switch_drops } else { 0 }) + rig.fault_tally.lost(),
            };
            // Deliveries after the window closed were queued somewhere at
            // cutoff.
            let backlog_pkts = rig.delivered - rig.goodput.delivered();
            RunReport {
                send_gbps: config.rate_gbps,
                goodput_gbps: rig.goodput.goodput_gbps(duration_ns),
                throughput_gbps: rig.goodput.throughput_gbps(duration_ns),
                rate_mpps: rig.goodput.rate_mpps(duration_ns),
                avg_latency_us: rig.latency.avg_us(),
                jitter_us: rig.latency.jitter_us(),
                p99_latency_us: rig.latency.percentile_us(0.99),
                pcie_gbps: rig.server.pcie_achieved_gbps(SimTime(duration_ns)),
                health,
                backlog_pkts,
                counters,
                occupancy,
                server_stats: sstats,
                switch_stats: swstats,
                fault_tally: rig.fault_tally,
                latency: rig.latency,
                oracle_violations: oracle_violations.clone(),
                flight_dump: flight_dump.clone(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_nf::server::ServerStats;

    fn quiet_server() -> ServerProfile {
        ServerProfile { jitter_frac: 0.0, modulation_amplitude: 0.0, ..Default::default() }
    }

    fn quick(mode: DeployMode, rate: f64) -> RunReport {
        run(&TestbedConfig {
            nic_gbps: 10.0,
            rate_gbps: rate,
            sizes: SizeModel::Fixed(512),
            mix: TrafficMix::UdpOnly,
            duration: SimDuration::from_millis(2),
            chain: ChainSpec::MacSwap,
            framework: FrameworkKind::NetBricks,
            server: quiet_server(),
            flows: 16,
            seed: 3,
            mode,
            ..Default::default()
        })
    }

    #[test]
    fn baseline_delivers_everything_below_saturation() {
        let r = quick(DeployMode::Baseline, 2.0);
        assert!(r.healthy(), "{:?}", r.health);
        assert!(r.health.in_flight() < 50, "{:?}", r.health);
        assert!(r.goodput_gbps > 0.0);
        assert!(r.avg_latency_us > 0.0);
        assert!(r.counters.is_none());
    }

    #[test]
    fn payloadpark_splits_and_merges_cleanly() {
        let r = quick(DeployMode::PayloadPark(ParkParams::default()), 2.0);
        assert!(r.healthy(), "{:?}", r.health);
        let c = r.counters.expect("park counters");
        assert!(c.splits > 0);
        assert!(c.merges > 0);
        assert!(c.functionally_equivalent(), "{c:?}");
        // 512-byte packets all exceed the 160 B minimum.
        assert_eq!(c.disabled_small_payload, 0);
    }

    #[test]
    fn goodput_equal_below_saturation_latency_not_worse() {
        let base = quick(DeployMode::Baseline, 2.0);
        let park = quick(DeployMode::PayloadPark(ParkParams::default()), 2.0);
        // Below saturation both deliver the offered load.
        assert!(
            (base.goodput_gbps - park.goodput_gbps).abs() / base.goodput_gbps < 0.02,
            "base {} park {}",
            base.goodput_gbps,
            park.goodput_gbps
        );
        // PayloadPark must not add latency (paper: improves it slightly).
        assert!(
            park.avg_latency_us <= base.avg_latency_us * 1.02,
            "park {} base {}",
            park.avg_latency_us,
            base.avg_latency_us
        );
        // And it saves PCIe bandwidth.
        assert!(park.pcie_gbps < base.pcie_gbps, "pcie {} vs {}", park.pcie_gbps, base.pcie_gbps);
    }

    #[test]
    fn overload_is_detected_as_unhealthy() {
        // MacSwap on NetBricks at 512 B: saturate the server outright.
        let mut cfg = TestbedConfig {
            nic_gbps: 40.0,
            rate_gbps: 40.0,
            sizes: SizeModel::Fixed(512),
            mix: TrafficMix::UdpOnly,
            duration: SimDuration::from_millis(4),
            chain: ChainSpec::Synthetic { cycles: 5000 },
            framework: FrameworkKind::OpenNetVm,
            server: quiet_server(),
            flows: 16,
            seed: 3,
            mode: DeployMode::Baseline,
            ..Default::default()
        };
        cfg.server.ring_capacity = 512;
        let r = run(&cfg);
        assert!(!r.healthy(), "drop rate {}", r.health.drop_rate());
        assert!(r.health.ring_drops > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = quick(DeployMode::PayloadPark(ParkParams::default()), 3.0);
        let b = quick(DeployMode::PayloadPark(ParkParams::default()), 3.0);
        assert_eq!(a.health, b.health);
        assert_eq!(a.goodput_gbps, b.goodput_gbps);
        assert_eq!(a.avg_latency_us, b.avg_latency_us);
        assert_eq!(a.fault_tally, FaultTally::default(), "no adversity by default");
        assert!(a.oracle_violations.is_empty(), "{:?}", a.oracle_violations);
    }

    fn adverse(mode: DeployMode, adversity: AdversityProfile) -> RunReport {
        run(&TestbedConfig {
            nic_gbps: 10.0,
            rate_gbps: 2.0,
            sizes: SizeModel::Fixed(512),
            duration: SimDuration::from_millis(2),
            chain: ChainSpec::MacSwap,
            server: quiet_server(),
            flows: 16,
            seed: 3,
            mode,
            adversity,
            ..Default::default()
        })
    }

    #[test]
    fn nf_leg_loss_orphans_payloads_and_the_oracle_still_balances() {
        // 20% loss on the NF → switch leg: parked payloads are orphaned
        // and only the evictor can reclaim their slots. A small table
        // (few slots) guarantees wraps inside the window.
        let params = ParkParams { sram_fraction: 0.002, expiry: 2, ..Default::default() };
        let r = adverse(DeployMode::PayloadPark(params), AdversityProfile::nf_loss(3, 0.2));
        assert!(r.fault_tally.dropped > 50, "{:?}", r.fault_tally);
        let c = r.counters.unwrap();
        assert!(c.evictions > 0, "orphaned slots must be aged out: {c:?}");
        assert!(!r.healthy(), "20% loss cannot be healthy");
        // The conformance oracle holds regardless: every split is merged,
        // evicted or still occupying a slot.
        assert!(r.oracle_violations.is_empty(), "{:?}", r.oracle_violations);
        // Loss is fully accounted (tally vs HealthTracker).
        assert!(r.health.other_drops >= r.fault_tally.lost());
    }

    #[test]
    fn adverse_runs_replay_from_their_seed() {
        let adv = AdversityProfile {
            seed: 11,
            from_nf: pp_netsim::adversity::LegProfile {
                drop: 0.1,
                duplicate: 0.1,
                reorder: 0.3,
                max_displacement: 16,
                ..Default::default()
            },
            ..Default::default()
        };
        let a = adverse(DeployMode::PayloadPark(ParkParams::default()), adv.clone());
        let b = adverse(DeployMode::PayloadPark(ParkParams::default()), adv);
        assert_eq!(a.health, b.health);
        assert_eq!(a.fault_tally, b.fault_tally);
        assert_eq!(a.counters, b.counters);
        assert!(a.fault_tally.duplicated > 0 && a.fault_tally.displaced > 0, "{:?}", a.fault_tally);
        // Duplicate ENB=1 merges were consumed exactly once each.
        let c = a.counters.unwrap();
        assert!(c.dup_merge > 0, "{c:?}");
        assert!(a.oracle_violations.is_empty(), "{:?}", a.oracle_violations);
    }

    #[test]
    fn firewall_drops_are_intended_not_unhealthy() {
        let mut cfg = TestbedConfig {
            chain: ChainSpec::FwNatBlacklist { blocked_pct: 40 },
            rate_gbps: 1.0,
            duration: SimDuration::from_millis(2),
            server: quiet_server(),
            ..Default::default()
        };
        cfg.sizes = SizeModel::Fixed(512);
        let r = run(&cfg);
        assert!(r.health.intended_drops > 0);
        assert!(r.healthy(), "{:?}", r.health);
    }

    #[test]
    fn explicit_drop_reclaims_slots() {
        let params = ParkParams { explicit_drop: true, expiry: 10, ..Default::default() };
        let cfg = TestbedConfig {
            chain: ChainSpec::FwNatBlacklist { blocked_pct: 30 },
            rate_gbps: 1.0,
            sizes: SizeModel::Fixed(512),
            duration: SimDuration::from_millis(2),
            server: quiet_server(),
            mode: DeployMode::PayloadPark(params),
            ..Default::default()
        };
        let r = run(&cfg);
        let c = r.counters.unwrap();
        assert!(c.explicit_drops > 0, "{c:?}");
        assert!(r.healthy(), "{:?}", r.health);
        // Slots of dropped packets were reclaimed by notifications, not by
        // waiting out the conservative expiry threshold.
        assert_eq!(c.splits as i64 - c.merges as i64 - c.explicit_drops as i64, c.outstanding());
    }

    /// Figs. 10-11's two-server pipe at 3 Gbps per server for 3 ms, with
    /// quiet servers.
    fn two_servers(mode: DeployMode) -> TestbedConfig {
        TestbedConfig {
            rate_gbps: 3.0,
            duration: SimDuration::from_millis(3),
            server: ServerProfile { cpu_hz: 2.4e9, ..quiet_server() },
            seed: 11,
            mode,
            ..crate::experiments::fig10_11_pipe(false)
        }
    }

    /// One server's pinned results: goodput, average latency, p99 latency
    /// and PCIe as f64 bits, then health, counters and server stats.
    type Pinned = ([u64; 4], HealthTracker, Option<CounterSnapshot>, ServerStats);

    fn pinned(r: &RunReport) -> Pinned {
        let bits =
            [r.goodput_gbps, r.avg_latency_us, r.p99_latency_us, r.pcie_gbps].map(f64::to_bits);
        (bits, r.health, r.counters, r.server_stats)
    }

    #[test]
    fn two_server_pipe_reproduces_its_pinned_reports() {
        // Recorded from the two-server pipe's earlier, separate event loop:
        // the shared loop must reproduce them bit for bit.
        let health = HealthTracker { offered: 2945, delivered: 2944, ..Default::default() };
        let stats = |busy_ns| ServerStats {
            received: 2944,
            forwarded: 2944,
            busy_ns,
            ..Default::default()
        };
        let base = (
            [0x3fd51a437824d4cc, 0x401c0f5c28f5c28f, 0x40251916872b020c, 0x401c2304a0311bba],
            health,
            None,
            stats(786_048),
        );
        let park = (
            [0x3fd51a437824d4cc, 0x40168bc6a7ef9db2, 0x401fe872b020c49c, 0x4012870f0bc4e88b],
            health,
            Some(CounterSnapshot { splits: 5888, merges: 5888, ..Default::default() }),
            stats(559_360),
        );
        let params = ParkParams { sram_fraction: 0.40, ..Default::default() };
        for (mode, want) in [(DeployMode::Baseline, base), (DeployMode::PayloadPark(params), park)]
        {
            let reports = run_servers(&two_servers(mode));
            assert_eq!(reports.len(), 2);
            for r in &reports {
                assert_eq!(pinned(r), want, "{mode:?}");
            }
        }
    }

    #[test]
    fn both_servers_deliver_baseline() {
        let r = run_servers(&two_servers(DeployMode::Baseline));
        let [a, b] = &r[..] else { panic!("{} reports", r.len()) };
        assert!(a.healthy(), "{:?}", a.health);
        assert!(b.healthy(), "{:?}", b.health);
        assert!(a.goodput_gbps > 0.0 && b.goodput_gbps > 0.0);
        // Symmetric load → comparable goodput.
        assert!((a.goodput_gbps - b.goodput_gbps).abs() / a.goodput_gbps < 0.05);
    }

    #[test]
    fn both_servers_split_and_merge_with_park() {
        let params = ParkParams { sram_fraction: 0.40, ..Default::default() };
        let r = run_servers(&two_servers(DeployMode::PayloadPark(params)));
        let [a, b] = &r[..] else { panic!("{} reports", r.len()) };
        assert!(a.healthy(), "{:?}", a.health);
        assert!(b.healthy(), "{:?}", b.health);
        let c = a.counters.expect("park counters");
        assert!(c.splits > 0 && c.merges > 0);
        assert!(c.functionally_equivalent(), "{c:?}");
        // 384-byte packets: payload 342 >= 160, so every packet splits.
        assert_eq!(c.disabled_small_payload, 0);
    }

    #[test]
    fn park_saves_pcie_on_both_servers() {
        let base = run_servers(&two_servers(DeployMode::Baseline));
        let params = ParkParams { sram_fraction: 0.40, ..Default::default() };
        let park = run_servers(&two_servers(DeployMode::PayloadPark(params)));
        for s in 0..2 {
            assert!(
                park[s].pcie_gbps < base[s].pcie_gbps,
                "server {s}: {} !< {}",
                park[s].pcie_gbps,
                base[s].pcie_gbps
            );
        }
    }

    #[test]
    fn two_server_nf_leg_loss_keeps_the_pipe_oracle_clean() {
        // A tiny table shared by two slices, and 20% loss on the NF →
        // switch legs: orphaned payloads on both slices must be aged out,
        // and the pipe-wide counters must still balance.
        let params = ParkParams { sram_fraction: 0.002, expiry: 2, ..Default::default() };
        let cfg = TestbedConfig {
            adversity: AdversityProfile::nf_loss(3, 0.2),
            ..two_servers(DeployMode::PayloadPark(params))
        };
        let r = run_servers(&cfg);
        let [a, b] = &r[..] else { panic!("{} reports", r.len()) };
        let c = a.counters.expect("park counters");
        assert!(c.evictions > 0, "orphaned slots must be aged out: {c:?}");
        assert!(a.oracle_violations.is_empty(), "{:?}", a.oracle_violations);
        // Pipe-wide results repeat on every server's report.
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.occupancy, b.occupancy);
        assert_eq!(a.oracle_violations, b.oracle_violations);
        // Each server's legs lose packets, and its health counts them.
        for r in [a, b] {
            assert!(r.fault_tally.dropped > 50, "{:?}", r.fault_tally);
            assert!(r.health.other_drops >= r.fault_tally.lost());
            assert!(!r.healthy(), "20% loss cannot be healthy");
        }
    }

    #[test]
    fn default_park_config_is_the_single_server_deployment() {
        let params = ParkParams::default();
        let cfg = TestbedConfig { mode: DeployMode::PayloadPark(params), ..Default::default() };
        let mut want =
            ParkConfig::single_server(ChipProfile::default(), GEN_PORTS.to_vec(), SERVER_PORT, 1);
        want.expiry_threshold = params.expiry;
        want.pipes[0].slices[0].slots = want.slots_for_sram_fraction(params.sram_fraction).max(1);
        assert_eq!(cfg.park_config(), Some(want));
        assert_eq!(TestbedConfig::default().park_config(), None);
    }

    #[test]
    fn servers_get_disjoint_slices_with_equal_shares() {
        let params = ParkParams { sram_fraction: 0.40, ..Default::default() };
        let one = TestbedConfig { mode: DeployMode::PayloadPark(params), ..Default::default() };
        let total = one.park_config().unwrap().pipes[0].slices[0].slots;
        let park = TestbedConfig { servers: 2, ..one }.park_config().unwrap();
        let slices = &park.pipes[0].slices;
        assert_eq!(slices.len(), 2);
        assert_eq!(
            (slices[1].split_ports.clone(), slices[1].merge_ports.clone()),
            (vec![4, 5], vec![6])
        );
        assert!(slices.iter().all(|s| s.slots == total / 2));
        park.validate().unwrap();
    }

    #[test]
    fn enterprise_workload_mixes_split_and_small() {
        let cfg = TestbedConfig {
            rate_gbps: 3.0,
            sizes: SizeModel::Enterprise,
            duration: SimDuration::from_millis(3),
            chain: ChainSpec::FwNatLb { fw_rules: 20 },
            server: quiet_server(),
            mode: DeployMode::PayloadPark(ParkParams::default()),
            ..Default::default()
        };
        let r = run(&cfg);
        let c = r.counters.unwrap();
        assert!(c.splits > 0);
        assert!(c.disabled_small_payload > 0, "~30% of packets are small");
        let small_frac =
            c.disabled_small_payload as f64 / (c.splits + c.disabled_small_payload) as f64;
        assert!((small_frac - 0.30).abs() < 0.05, "small fraction {small_frac}");
    }
}
