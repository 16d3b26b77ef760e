//! The four workloads and the rigs that run them.
//!
//! A rig is one built deployment plus its seeded input. [`Rig::round`]
//! pushes one wave through the deployment's whole Split → NF → Merge
//! path between [`Recorder::start_round`] and [`Recorder::stop_round`];
//! everything the benchmark itself needs — cloning the wave, dropping
//! the previous round's output — happens outside that region. The rig
//! keeps the latest round's output so that [`Rig::verify`] can compare
//! it with what was sent.

use crate::trace::{Recorder, RoundSample};
use payloadpark::{oracle, CounterSnapshot, ParkConfig, PipeControl};
use pp_cluster::{Cluster, ClusterConfig, StoreKind};
use pp_fastpath::{adverse_return_wave, Engine, EngineConfig, EngineOutput, SlicedTestbed};
use pp_harness::testbed::{self, DeployMode, ParkParams, RunReport, TestbedConfig};
use pp_netsim::adversity::{AdversityProfile, FaultTally, LegProfile};
use pp_netsim::time::SimDuration;
use pp_rmt::switch::{BatchOutput, BatchPacket, SwitchOutput, SwitchStats};
use pp_rmt::{ChipProfile, PortId, SwitchModel};
use pp_verify::Severity;
use std::hint::black_box;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Scalar per-packet round trip on the register program.
    ScalarMixed,
    /// The same deployment and wave through the 2-worker engine.
    Engine2w,
    /// 2-switch cluster, spill store, wrapping table, adverse NF legs.
    ClusterPressure,
    /// The discrete-event testbed, FW → NAT → LB, baseline + PayloadPark.
    DesChain,
}

impl Workload {
    /// Every workload, in the order `repeat` runs them.
    pub const ALL: [Workload; 4] =
        [Workload::ScalarMixed, Workload::Engine2w, Workload::ClusterPressure, Workload::DesChain];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ScalarMixed => "scalar_mixed",
            Workload::Engine2w => "engine_2w",
            Workload::ClusterPressure => "cluster_pressure",
            Workload::DesChain => "des_chain",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Instances of the workload set up and measured in one untraced run:
    /// `setup_s`, `pps` and `cpu_ns_per_pkt` are medians over them, the
    /// two simulated metrics means. `des_chain` takes fewer, longer ones:
    /// its round costs ten times the others'.
    pub fn instances(self) -> usize {
        match self {
            Workload::DesChain => 6,
            _ => 20,
        }
    }

    /// Rounds measured per instance at the declared `run_seconds`. Fixed
    /// work: sized so that a run measures for about that long on the
    /// reference host, with at least ten rounds below every instance's
    /// quiet floor and at least 600 rounds per run.
    pub fn rounds_per_instance(self) -> usize {
        match self {
            Workload::ScalarMixed => 320,
            Workload::Engine2w => 220,
            Workload::ClusterPressure => 100,
            Workload::DesChain => 100,
        }
    }

    /// Untraced rounds of this workload's section of a traced run when it
    /// is the requested workload (about two seconds); twice as many traced
    /// rounds follow. The other three workloads' sections take a quarter.
    pub fn section_rounds(self) -> usize {
        match self {
            Workload::ScalarMixed => 800,
            Workload::Engine2w => 560,
            Workload::ClusterPressure => 260,
            Workload::DesChain => 60,
        }
    }

    /// Rounds run (and discarded) before measuring, part of set-up: they
    /// fill the PHV pools, arenas, rings and park tables.
    pub fn warmup_rounds(self) -> usize {
        match self {
            Workload::DesChain => 2,
            _ => 8,
        }
    }

    /// Builds the workload's rig from a seed (set-up, minus the warm-up).
    pub fn build(self, seed: u64) -> Result<Box<dyn Rig>, String> {
        Ok(match self {
            Workload::ScalarMixed => Box::new(ScalarRig::build(seed)?),
            Workload::Engine2w => Box::new(EngineRig::build(seed)?),
            Workload::ClusterPressure => Box::new(ClusterRig::build(seed)?),
            Workload::DesChain => Box::new(DesRig::build(seed)?),
        })
    }
}

/// Cumulative program and switch counters of a rig.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// PayloadPark program counters.
    pub park: CounterSnapshot,
    /// Switch statistics.
    pub stats: SwitchStats,
    /// Park-table slots occupied right now.
    pub occupancy: usize,
}

/// What checking a round's output found.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// Human-readable violations; empty when the round was correct.
    pub violations: Vec<String>,
    /// Input packets of the checked round that reached the sink
    /// byte-identical to what was sent, in percent.
    pub delivered_pct: f64,
    /// Order-independent hash of the delivered `(seq, bytes)` set.
    pub delivered_hash: u64,
}

/// What the two-phase accounting round saw.
#[derive(Debug, Clone, Copy, Default)]
pub struct LegAccount {
    /// Bytes PayloadPark kept off the switch ↔ NF leg, both directions,
    /// in percent of forwarding the same packets whole.
    pub saving_pct: f64,
    /// Park-table slots occupied once the wave was split (for
    /// `des_chain`: when the PayloadPark run ended).
    pub occupancy_peak: usize,
    /// Payloads in the spill tier at the same moment.
    pub spilled_peak: usize,
}

/// A built deployment and its input.
pub trait Rig {
    /// Packets offered per round.
    fn packets_per_round(&self) -> u64;

    /// The generated wave (empty for `des_chain`, whose generator runs
    /// inside the testbed).
    fn wave(&self) -> &[BatchPacket] {
        &[]
    }

    /// Runs one round; the timed region is exactly the deployment's work.
    fn round(&mut self, rec: &mut Recorder) -> RoundSample;

    /// Checks the latest round's output and the conformance oracles.
    fn verify(&mut self) -> Verdict;

    /// One extra, untimed round in two phases — every Split, then every
    /// Merge — that weighs the bytes on the switch ↔ NF leg and looks at
    /// the park table between the phases.
    fn leg_account(&mut self) -> LegAccount;

    /// Cumulative counters.
    fn counts(&mut self) -> Counts;
}

// ---------------------------------------------------------------------------
// Shared pieces of the three wave-driven rigs.
// ---------------------------------------------------------------------------

/// Slices of the shared §6.2.4 deployment.
pub const SLICES: usize = 8;
/// Packets per wave on the two calm workloads: 512 per slice, a quarter
/// of the slice's slots, so nothing is evicted. One wave and its outputs
/// (≈ 6 MB) stay within reach of the core's caches and TLB; at the 16 384
/// packets first planned the quiet floor rose by 10–40 % for minutes
/// after every build on the reference host, at 4 096 it does not move
/// (BENCHMARK.md).
pub const CALM_WAVE: usize = 4_096;
/// The calm deployment.
pub const CALM_TESTBED: SlicedTestbed = SlicedTestbed { slices: SLICES, slots: 2048 };
/// The pressure deployment: 512 packets per slice per wave against 256
/// slots, so every slice's table wraps twice per wave.
pub const PRESSURE_TESTBED: SlicedTestbed = SlicedTestbed { slices: SLICES, slots: 256 };
/// Packets per wave on `cluster_pressure`.
pub const PRESSURE_WAVE: usize = 4_096;

/// FNV-1a over a wave: pins "same seed, same bytes".
pub fn wave_hash(wave: &[BatchPacket]) -> u64 {
    wave.iter().fold(0, |acc, p| acc ^ packet_hash(p.seq, &p.bytes).rotate_left(p.port.0.into()))
}

fn packet_hash(seq: u64, bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in seq.to_le_bytes().iter().chain(bytes) {
        h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fails on any error-severity verifier finding for `cfg`.
fn lint(cfg: &ParkConfig) -> Result<(), String> {
    for report in pp_verify::check_deployment(cfg) {
        if report.worst() == Some(Severity::Error) {
            return Err(format!("pp_verify rejects the deployment:\n{}", report.render()));
        }
    }
    Ok(())
}

/// Compares what reached the sink with what was sent: a delivered packet
/// must sit on the sink port and equal its input except for the
/// destination MAC, which the NF readdressed to the sink.
fn check_delivery<'a>(
    tb: &SlicedTestbed,
    wave: &[BatchPacket],
    delivered: impl Iterator<Item = (PortId, u64, &'a [u8])>,
    verdict: &mut Verdict,
) {
    let sink_mac = tb.sink_mac().0;
    let mut seen = vec![false; wave.len()];
    let mut wrong = 0u64;
    for (port, seq, bytes) in delivered {
        let sent = wave.get(seq as usize).filter(|p| p.seq == seq);
        let whole = sent.is_some_and(|p| {
            port == tb.sink_port()
                && bytes.len() == p.bytes.len()
                && bytes[..6] == sink_mac
                && bytes[6..] == p.bytes[6..]
        });
        if !whole {
            wrong += 1;
        } else if !std::mem::replace(&mut seen[seq as usize], true) {
            verdict.delivered_hash = verdict.delivered_hash.wrapping_add(packet_hash(seq, bytes));
        }
    }
    if wrong > 0 {
        verdict.violations.push(format!("{wrong} delivered packets differ from what was sent"));
    }
    let identical = seen.iter().filter(|&&s| s).count();
    verdict.delivered_pct = 100.0 * identical as f64 / wave.len() as f64;
}

/// The calm workloads inject nothing, so every packet must arrive.
fn expect_full_delivery(verdict: &mut Verdict) {
    if verdict.delivered_pct != 100.0 {
        verdict
            .violations
            .push(format!("a calm workload delivered {} % of its packets", verdict.delivered_pct));
    }
}

fn saving_pct(leg_bytes: usize, whole_bytes: usize) -> f64 {
    100.0 * (1.0 - leg_bytes as f64 / whole_bytes as f64)
}

// ---------------------------------------------------------------------------
// scalar_mixed
// ---------------------------------------------------------------------------

/// Packets per span in the traced scalar round: large enough that two
/// timestamps cost nothing, small enough that a chunk's frames stay in L2
/// like the fused loop's do.
pub const TRACE_CHUNK: usize = 256;

pub struct ScalarRig {
    wave: Vec<BatchPacket>,
    sw: SwitchModel,
    control: PipeControl,
    merged: BatchOutput,
    split_out: BatchOutput,
    back: ReturnFrames,
}

impl ScalarRig {
    /// Generates the input, lints and builds the deployment.
    pub fn build(seed: u64) -> Result<ScalarRig, String> {
        let wave = CALM_TESTBED.counted_mixed_wave(seed, CALM_WAVE);
        lint(&CALM_TESTBED.config())?;
        let (sw, control) = CALM_TESTBED.build_scalar();
        Ok(ScalarRig {
            wave,
            sw,
            control,
            merged: BatchOutput::new(),
            split_out: BatchOutput::new(),
            back: ReturnFrames::default(),
        })
    }

    /// The round of the traced run: the fused loop's work in chunks, one
    /// span per leg per chunk.
    fn traced_roundtrip(&mut self, inputs: &[BatchPacket], rec: &mut Recorder) {
        let sink = CALM_TESTBED.sink_mac();
        self.merged.clear();
        for chunk in inputs.chunks(TRACE_CHUNK) {
            let id = rec.begin("switch.split_leg");
            self.split_out.clear();
            for pkt in chunk {
                self.sw.process_into(&pkt.bytes, pkt.port, pkt.seq, &mut self.split_out);
            }
            rec.end(id);
            let id = rec.begin("nf.reflect");
            self.back.reflect(&self.split_out, sink.0);
            rec.end(id);
            let id = rec.begin("switch.merge_leg");
            for (bytes, port, seq) in self.back.iter() {
                self.sw.process_into(bytes, port, seq, &mut self.merged);
            }
            rec.end(id);
        }
    }
}

/// Frames on their way back from the NF servers, in one arena (the
/// chunked counterpart of the fused loop's single bounce buffer).
#[derive(Default)]
pub struct ReturnFrames {
    bytes: Vec<u8>,
    frames: Vec<(usize, usize, PortId, u64)>,
}

impl ReturnFrames {
    /// The MAC-swap NF of the sliced testbed over a whole arena: every
    /// frame of `from` comes back on the port it left from, readdressed
    /// to `sink`.
    pub fn reflect(&mut self, from: &BatchOutput, sink: [u8; 6]) {
        self.bytes.clear();
        self.frames.clear();
        for out in from.iter() {
            let start = self.bytes.len();
            self.bytes.extend_from_slice(out.bytes);
            self.bytes[start..start + 6].copy_from_slice(&sink);
            self.frames.push((start, self.bytes.len(), out.port, out.seq));
        }
    }

    /// The frames as `(bytes, ingress port, seq)`.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], PortId, u64)> {
        self.frames.iter().map(|&(s, e, port, seq)| (&self.bytes[s..e], port, seq))
    }
}

impl Rig for ScalarRig {
    fn packets_per_round(&self) -> u64 {
        self.wave.len() as u64
    }

    fn wave(&self) -> &[BatchPacket] {
        &self.wave
    }

    fn round(&mut self, rec: &mut Recorder) -> RoundSample {
        let inputs = self.wave.clone();
        let open = rec.start_round();
        if rec.is_tracing() {
            self.traced_roundtrip(&inputs, rec);
        } else {
            CALM_TESTBED.scalar_roundtrip_into(&mut self.sw, &inputs, &mut self.merged);
        }
        black_box(self.merged.len());
        rec.stop_round(open)
    }

    fn verify(&mut self) -> Verdict {
        let mut verdict = Verdict::default();
        let delivered = self.merged.iter().map(|o| (o.port, o.seq, o.bytes));
        check_delivery(&CALM_TESTBED, &self.wave, delivered, &mut verdict);
        expect_full_delivery(&mut verdict);
        let counts = self.counts();
        let report = oracle::check_counters(&counts.park, counts.occupancy);
        verdict.violations.extend_from_slice(report.violations());
        verdict
    }

    fn leg_account(&mut self) -> LegAccount {
        let sink = CALM_TESTBED.sink_mac().0;
        self.split_out.clear();
        for pkt in &self.wave {
            self.sw.process_into(&pkt.bytes, pkt.port, pkt.seq, &mut self.split_out);
        }
        let occupancy_peak = self.control.occupancy(&self.sw);
        // The MAC-swap NF returns what it received: both legs carry the
        // same bytes.
        let leg = 2 * self.split_out.wire_bytes();
        let whole: usize =
            self.split_out.iter().map(|o| 2 * self.wave[o.seq as usize].bytes.len()).sum();
        self.back.reflect(&self.split_out, sink);
        self.merged.clear();
        for (bytes, port, seq) in self.back.iter() {
            self.sw.process_into(bytes, port, seq, &mut self.merged);
        }
        LegAccount { saving_pct: saving_pct(leg, whole), occupancy_peak, spilled_peak: 0 }
    }

    fn counts(&mut self) -> Counts {
        Counts {
            park: self.control.counters(&self.sw),
            stats: self.sw.stats(),
            occupancy: self.control.occupancy(&self.sw),
        }
    }
}

// ---------------------------------------------------------------------------
// engine_2w
// ---------------------------------------------------------------------------

/// Worker threads of the engine workload: one per vCPU of the reference
/// host, so the load never asks for more processors than exist.
pub const ENGINE_WORKERS: usize = 2;

pub struct EngineRig {
    wave: Vec<BatchPacket>,
    /// The engine under test.
    pub engine: Engine,
    last: Option<EngineOutput>,
}

impl EngineRig {
    /// Generates the input, lints and builds the deployment.
    pub fn build(seed: u64) -> Result<EngineRig, String> {
        let wave = CALM_TESTBED.counted_mixed_wave(seed, CALM_WAVE);
        lint(&CALM_TESTBED.config())?;
        let cfg = EngineConfig { workers: ENGINE_WORKERS, ..Default::default() };
        let engine = CALM_TESTBED.build_engine(cfg).map_err(|e| e.to_string())?;
        Ok(EngineRig { wave, engine, last: None })
    }
}

impl Rig for EngineRig {
    fn packets_per_round(&self) -> u64 {
        self.wave.len() as u64
    }

    fn wave(&self) -> &[BatchPacket] {
        &self.wave
    }

    fn round(&mut self, rec: &mut Recorder) -> RoundSample {
        if let Some(previous) = self.last.take() {
            rec.span("fastpath.output_drop", || drop(previous));
        }
        let inputs = self.wave.clone();
        let open = rec.start_round();
        let id = rec.begin("fastpath.process_roundtrip");
        let out = self.engine.process_roundtrip(inputs, CALM_TESTBED.sink_mac());
        rec.end(id);
        black_box(out.packets());
        let sample = rec.stop_round(open);
        self.last = Some(out);
        sample
    }

    fn verify(&mut self) -> Verdict {
        let mut verdict = Verdict::default();
        match &self.last {
            Some(out) => {
                let delivered = out.iter().map(|o| (o.port, o.seq, o.bytes));
                check_delivery(&CALM_TESTBED, &self.wave, delivered, &mut verdict);
            }
            None => verdict.violations.push("no round has run".into()),
        }
        expect_full_delivery(&mut verdict);
        let counts = self.counts();
        let report = oracle::check_counters(&counts.park, counts.occupancy);
        verdict.violations.extend_from_slice(report.violations());
        verdict
    }

    fn leg_account(&mut self) -> LegAccount {
        let to_servers = self.engine.process(self.wave.clone());
        let occupancy_peak = self.engine.occupancy();
        let leg: usize = 2 * to_servers.wire_bytes();
        let whole: usize =
            to_servers.iter().map(|o| 2 * self.wave[o.seq as usize].bytes.len()).sum();
        let back = pp_fastpath::reflect_outputs(to_servers.iter(), CALM_TESTBED.sink_mac());
        black_box(self.engine.process(back).packets());
        LegAccount { saving_pct: saving_pct(leg, whole), occupancy_peak, spilled_peak: 0 }
    }

    fn counts(&mut self) -> Counts {
        Counts {
            park: self.engine.counters(),
            stats: self.engine.switch_stats(),
            occupancy: self.engine.occupancy(),
        }
    }
}

// ---------------------------------------------------------------------------
// cluster_pressure
// ---------------------------------------------------------------------------

/// Hot-tier payloads per switch: a quarter of the slots a switch serves,
/// so most parked payloads demote to the spill tier and promote back.
const HOT_CAPACITY: usize = 256;

/// The cluster of `cluster_pressure`, wired, with stale routing on.
pub fn pressure_cluster() -> Result<Cluster, String> {
    let cfg = ClusterConfig {
        store: StoreKind::SlabSpill { hot_capacity: HOT_CAPACITY },
        ..ClusterConfig::slab(2)
    };
    let mut cluster = Cluster::new(&PRESSURE_TESTBED.config(), cfg).map_err(|e| e.to_string())?;
    PRESSURE_TESTBED.wire(&mut |mac, port| cluster.l2_add(mac, port));
    cluster.set_proxy_spray(200);
    Ok(cluster)
}

/// The misfortune of `cluster_pressure`: loss towards the NF, duplication
/// and bounded reordering on the way back. No truncation or corruption,
/// so every packet that does arrive must be byte-whole.
pub fn pressure_adversity(seed: u64) -> AdversityProfile {
    AdversityProfile {
        seed,
        to_nf: LegProfile::loss(0.02),
        from_nf: LegProfile {
            duplicate: 0.01,
            reorder: 0.2,
            max_displacement: 8,
            ..Default::default()
        },
    }
}

pub struct ClusterRig {
    wave: Vec<BatchPacket>,
    /// The cluster under test.
    pub cluster: Cluster,
    /// Waves pushed through the cluster so far, warm-up included; its own
    /// counters are cumulative over all of them.
    pub rounds_run: u64,
    adversity: AdversityProfile,
    tally: FaultTally,
    last: Vec<SwitchOutput>,
    /// Distinct packets delivered by the first verified round; the rounds
    /// are identical, so every later one must deliver as many.
    first_delivered_pct: Option<f64>,
}

impl ClusterRig {
    /// Generates the input, lints and builds the deployment.
    pub fn build(seed: u64) -> Result<ClusterRig, String> {
        let wave = PRESSURE_TESTBED.counted_mixed_wave(seed, PRESSURE_WAVE);
        lint(&PRESSURE_TESTBED.config())?;
        Ok(ClusterRig {
            wave,
            cluster: pressure_cluster()?,
            rounds_run: 0,
            adversity: pressure_adversity(seed),
            tally: FaultTally::default(),
            last: Vec::new(),
            first_delivered_pct: None,
        })
    }
}

impl Rig for ClusterRig {
    fn packets_per_round(&self) -> u64 {
        self.wave.len() as u64
    }

    fn wave(&self) -> &[BatchPacket] {
        &self.wave
    }

    /// The body of `Cluster::roundtrip_adverse`, one span per call.
    fn round(&mut self, rec: &mut Recorder) -> RoundSample {
        drop(std::mem::take(&mut self.last));
        let inputs = self.wave.clone();
        let sink = PRESSURE_TESTBED.sink_mac();
        let open = rec.start_round();
        let id = rec.begin("cluster.process_wave");
        let to_servers = self.cluster.process_wave(&inputs);
        rec.end(id);
        let id = rec.begin("cluster.adverse_return_wave");
        let back = adverse_return_wave(&self.adversity, to_servers, sink, &mut self.tally);
        rec.end(id);
        let id = rec.begin("cluster.process_return_wave");
        let merged = self.cluster.process_return_wave(back);
        rec.end(id);
        black_box(merged.len());
        let sample = rec.stop_round(open);
        self.last = merged;
        self.rounds_run += 1;
        sample
    }

    fn verify(&mut self) -> Verdict {
        let mut verdict = Verdict::default();
        let delivered = self.last.iter().map(|o| (o.port, o.seq, &o.bytes[..]));
        check_delivery(&PRESSURE_TESTBED, &self.wave, delivered, &mut verdict);
        let first = *self.first_delivered_pct.get_or_insert(verdict.delivered_pct);
        if first != verdict.delivered_pct {
            verdict.violations.push(format!(
                "identical rounds delivered {first} % and then {} %",
                verdict.delivered_pct
            ));
        }
        verdict.violations.extend_from_slice(self.cluster.check_oracle().violations());
        let whole = oracle::check_delivered(self.last.iter().map(|o| &o.bytes[..]));
        verdict.violations.extend_from_slice(whole.violations());
        verdict
    }

    fn leg_account(&mut self) -> LegAccount {
        let sent = |p: &BatchPacket| self.wave[p.seq as usize].bytes.len();
        let to_servers = self.cluster.process_wave(&self.wave);
        let (occupancy_peak, spilled_peak) = (self.cluster.occupancy(), self.cluster.spilled());
        let mut leg: usize = to_servers.iter().map(|p| p.bytes.len()).sum();
        let mut whole: usize = to_servers.iter().map(sent).sum();
        let sink = PRESSURE_TESTBED.sink_mac();
        let back = adverse_return_wave(&self.adversity, to_servers, sink, &mut self.tally);
        leg += back.iter().map(|p| p.bytes.len()).sum::<usize>();
        whole += back.iter().map(sent).sum::<usize>();
        black_box(self.cluster.process_return_wave(back).len());
        self.rounds_run += 1;
        LegAccount { saving_pct: saving_pct(leg, whole), occupancy_peak, spilled_peak }
    }

    fn counts(&mut self) -> Counts {
        Counts {
            park: self.cluster.cluster_counters(),
            stats: self.cluster.cluster_stats(),
            occupancy: self.cluster.occupancy(),
        }
    }
}

// ---------------------------------------------------------------------------
// des_chain
// ---------------------------------------------------------------------------

/// The paper's goodput gain for Firewall → NAT → LB on the 10 GE testbed,
/// in percent: the one reference result this repository holds.
pub const PAPER_GOODPUT_GAIN_PCT: f64 = 13.0;

/// What the simulator reported for one baseline + PayloadPark pair. A
/// change that only makes the simulator faster must leave all of it
/// identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimResults {
    /// Goodput gain of PayloadPark over the baseline, percent.
    pub goodput_gain_pct: f64,
    /// Baseline 99th-percentile latency, µs of simulated time.
    pub p99_latency_us_base: f64,
    /// PayloadPark 99th-percentile latency, µs of simulated time.
    pub p99_latency_us_park: f64,
    /// Server PCIe bytes per delivered packet saved by PayloadPark, percent.
    pub pcie_saving_pct: f64,
    /// Evictions in the PayloadPark run.
    pub evictions: u64,
}

/// The baseline configuration of `des_chain`; the PayloadPark run differs
/// in `mode` alone. 11 Gbit/s offered to a 10 GE server link: the baseline
/// saturates the link, PayloadPark does not — the regime of the paper's
/// goodput figures. A 3 ms window keeps one round (both runs) near 33 ms,
/// so that 600 rounds fit a run.
pub fn des_baseline(seed: u64) -> TestbedConfig {
    TestbedConfig {
        rate_gbps: 11.0,
        duration: SimDuration::from_millis(3),
        seed,
        ..Default::default()
    }
}

pub struct DesRig {
    base_cfg: TestbedConfig,
    park_cfg: TestbedConfig,
    last: Option<(RunReport, RunReport)>,
    first_sim: Option<SimResults>,
    totals: Counts,
}

impl DesRig {
    /// Generates the input, lints and builds the deployment.
    pub fn build(seed: u64) -> Result<DesRig, String> {
        let base_cfg = des_baseline(seed);
        let params = ParkParams::default();
        // The deployment `testbed::run` builds for these parameters.
        let mut park = ParkConfig::single_server(
            ChipProfile::default(),
            testbed::GEN_PORTS.to_vec(),
            testbed::SERVER_PORT,
            1,
        );
        park.expiry_threshold = params.expiry;
        park.pipes[0].slices[0].slots = park.slots_for_sram_fraction(params.sram_fraction).max(1);
        lint(&park)?;
        let park_cfg = TestbedConfig { mode: DeployMode::PayloadPark(params), ..base_cfg.clone() };
        Ok(DesRig { base_cfg, park_cfg, last: None, first_sim: None, totals: Counts::default() })
    }

    /// Simulated results of the latest round.
    pub fn sim(&self) -> Option<SimResults> {
        let (base, park) = self.last.as_ref()?;
        Some(SimResults {
            goodput_gain_pct: 100.0 * (park.goodput_gbps / base.goodput_gbps - 1.0),
            p99_latency_us_base: base.p99_latency_us,
            p99_latency_us_park: park.p99_latency_us,
            pcie_saving_pct: 100.0 * (1.0 - pcie_bytes_per_pkt(park) / pcie_bytes_per_pkt(base)),
            evictions: park.counters.map_or(0, |c| c.evictions),
        })
    }
}

/// Server PCIe bytes per packet delivered inside the window.
fn pcie_bytes_per_pkt(r: &RunReport) -> f64 {
    r.pcie_gbps * 1e3 / 8.0 / r.rate_mpps
}

impl Rig for DesRig {
    fn packets_per_round(&self) -> u64 {
        let (base, park) = self.last.as_ref().expect("set-up ran the warm-up rounds");
        base.health.offered + park.health.offered
    }

    fn round(&mut self, rec: &mut Recorder) -> RoundSample {
        drop(self.last.take());
        let open = rec.start_round();
        let id = rec.begin("harness.run_baseline");
        let base = testbed::run(&self.base_cfg);
        rec.end(id);
        let id = rec.begin("harness.run_park");
        let park = testbed::run(&self.park_cfg);
        rec.end(id);
        black_box(base.health.delivered + park.health.delivered);
        let sample = rec.stop_round(open);
        if let Some(c) = &park.counters {
            self.totals.park.add(c);
        }
        self.totals.stats.add(&park.switch_stats);
        self.totals.occupancy = park.occupancy;
        self.last = Some((base, park));
        sample
    }

    /// `testbed::run` keeps no delivered bytes, so the byte comparison of
    /// the wave rigs is replaced by the run's own accounting: the
    /// PayloadPark run must be healthy, oracle-clean and functionally
    /// equivalent, neither run may drop a packet it did not mean to, and
    /// every round must simulate the same results.
    fn verify(&mut self) -> Verdict {
        let mut verdict = Verdict::default();
        let Some((base, park)) = &self.last else {
            verdict.violations.push("no round has run".into());
            return verdict;
        };
        let v = &mut verdict.violations;
        v.extend_from_slice(&park.oracle_violations);
        if !park.healthy() {
            v.push(format!("PayloadPark run unhealthy: {:?}", park.health));
        }
        if !park.counters.is_some_and(|c| c.functionally_equivalent() && c.splits > 0) {
            v.push(format!("PayloadPark run not equivalent: {:?}", park.counters));
        }
        for (name, r) in [("baseline", base), ("PayloadPark", park)] {
            if r.health.unintended_drops() > 0 || r.health.in_flight() > 1 {
                v.push(format!("{name} run lost packets: {:?}", r.health));
            }
        }
        let sim = self.sim().expect("a round has run");
        if *self.first_sim.get_or_insert(sim) != sim {
            v.push(format!("rounds simulated {:?} and then {sim:?}", self.first_sim));
        }
        verdict.delivered_pct = 100.0 * park.health.delivered as f64 / park.health.offered as f64;
        verdict
    }

    fn leg_account(&mut self) -> LegAccount {
        LegAccount {
            saving_pct: self.sim().expect("set-up ran the warm-up rounds").pcie_saving_pct,
            occupancy_peak: self.totals.occupancy,
            spilled_peak: 0,
        }
    }

    fn counts(&mut self) -> Counts {
        self.totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_pins_the_wave_byte_for_byte() {
        let wave = CALM_TESTBED.counted_mixed_wave(1, CALM_WAVE);
        assert_eq!(wave.len(), CALM_WAVE);
        assert_eq!(wave_hash(&wave), wave_hash(&CALM_TESTBED.counted_mixed_wave(1, CALM_WAVE)));
        assert_eq!(
            wave_hash(&wave),
            0x9cc9_e619_5902_6d66,
            "seed 1 no longer generates the pinned wave"
        );
        assert_ne!(wave_hash(&wave), wave_hash(&CALM_TESTBED.counted_mixed_wave(2, CALM_WAVE)));
    }

    #[test]
    fn delivery_check_catches_loss_corruption_and_misrouting() {
        let tb = CALM_TESTBED;
        let wave = tb.counted_mixed_wave(5, 64);
        let sunk = |p: &BatchPacket| {
            let mut bytes = p.bytes.clone();
            bytes[..6].copy_from_slice(&tb.sink_mac().0);
            bytes
        };
        let delivered: Vec<Vec<u8>> = wave.iter().map(sunk).collect();
        let check = |outs: Vec<(PortId, u64, &[u8])>| {
            let mut verdict = Verdict::default();
            check_delivery(&tb, &wave, outs.into_iter(), &mut verdict);
            verdict
        };
        let all = || wave.iter().zip(&delivered).map(|(p, d)| (tb.sink_port(), p.seq, &d[..]));

        let clean = check(all().collect());
        assert!(clean.violations.is_empty() && clean.delivered_pct == 100.0, "{clean:?}");
        // Order does not matter to the set hash; a duplicate is delivered once.
        let mut shuffled: Vec<_> = all().rev().collect();
        shuffled.push(shuffled[0]);
        let again = check(shuffled);
        assert_eq!((again.delivered_hash, again.delivered_pct), (clean.delivered_hash, 100.0));

        let lossy = check(all().skip(16).collect());
        assert!(lossy.violations.is_empty() && lossy.delivered_pct == 75.0, "{lossy:?}");
        let mut flipped = delivered[3].clone();
        *flipped.last_mut().unwrap() ^= 1;
        let corrupt = check(vec![(tb.sink_port(), wave[3].seq, &flipped[..])]);
        assert_eq!(corrupt.violations.len(), 1, "{corrupt:?}");
        let misrouted = check(vec![(tb.merge_port(0), wave[0].seq, &delivered[0][..])]);
        assert_eq!(misrouted.violations.len(), 1, "{misrouted:?}");
    }
}
