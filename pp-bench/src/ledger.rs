//! The traced run: the layer ledger.
//!
//! Every number here is taken from outside the layers, through their
//! public functions. A traced run does three things:
//!
//! 1. For each of the four workloads it builds the rig, measures a short
//!    untraced reference, then measures traced rounds (spans around the
//!    workload's own layer boundaries, allocations counted). The
//!    requested workload gets four times the rounds of the others and
//!    supplies the metrics that belong to a workload rather than to a
//!    layer (`alloc.*`, `trace.overhead_pct`, the `core.*` counts,
//!    `host.*`).
//! 2. It runs the probes below: one small loop per layer function, on
//!    inputs generated from the seed.
//! 3. It checks closure on `scalar_mixed` — the layer times must add up
//!    to the untraced quiet floor within [`CLOSURE_TOLERANCE`] — writes
//!    the spans to `trace.json`, and reports.
//!
//! Every count of rounds or repetitions is fixed by the arguments
//! ([`RunArgs::count`]), as in the untraced run.
//!
//! Timings are quiet floors over the rounds or repetitions of a probe.
//! Counts repeat exactly for a seed.

use crate::run::{self, Measured, Metrics, Outcome, RunArgs};
use crate::stats::floor;
use crate::trace::{section_json, Recorder};
use crate::workload::{
    des_baseline, pressure_adversity, pressure_cluster, ClusterRig, Counts, DesRig, EngineRig,
    LegAccount, ReturnFrames, Rig, ScalarRig, Workload, CALM_TESTBED, CALM_WAVE, ENGINE_WORKERS,
    PAPER_GOODPUT_GAIN_PCT, PRESSURE_TESTBED, PRESSURE_WAVE, TRACE_CHUNK,
};
use payloadpark::flowstore::{shared, MergeOutcome, ParkTag};
use payloadpark::jsonio::Value;
use payloadpark::program::build_switch;
use payloadpark::{build_store_switch, oracle, CircularStore, FlowStore, ShardPlan, SlabStore};
use pp_fastpath::{reflect_outputs, spsc, EngineConfig};
use pp_harness::testbed::ChainSpec;
use pp_netsim::adversity::Leg;
use pp_netsim::event::EventQueue;
use pp_netsim::time::SimTime;
use pp_packet::{Packet, ParsedPacket};
use pp_rmt::parser::{deparse_phv_into, parse_packet_into};
use pp_rmt::switch::{BatchOutput, BatchPacket};
use pp_rmt::{Phv, SwitchModel, BLOCK_BYTES};
use pp_trafficgen::gen::{GenConfig, SizeModel, TrafficGen, TrafficMix};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Instant;

/// How far the layer times of `scalar_mixed` may be from its untraced
/// round trip before the traced run fails instead of reporting them.
const CLOSURE_TOLERANCE: f64 = 0.15;

/// Packets per chunk of the layered probe: few enough that a chunk's
/// frames and PHVs stay in the first-level cache between two layers, as a
/// packet does in the fused loop; enough that the fourteen timestamps a
/// chunk costs stay near 1 % of its time.
const CHUNK: usize = 64;

/// The quiet floor of what `once` returns over `reps` repetitions. One
/// more repetition runs first and is discarded: it warms pools and arenas.
fn floor_of(reps: usize, mut once: impl FnMut() -> f64) -> f64 {
    once();
    let samples: Vec<f64> = (0..reps).map(|_| once()).collect();
    floor(&samples)
}

/// Two arms measured in the same repetitions: the first arm's quiet floor
/// over the second's.
fn floor_ratio(reps: usize, mut once: impl FnMut() -> (f64, f64)) -> f64 {
    once();
    let (first, second): (Vec<f64>, Vec<f64>) = (0..reps).map(|_| once()).unzip();
    floor(&first) / floor(&second)
}

fn secs_to_ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn ns(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}

// ---------------------------------------------------------------------------
// Sections: a workload's rig, measured untraced and then traced.
// ---------------------------------------------------------------------------

struct Section {
    untraced: Measured,
    traced: Measured,
    rec: Recorder,
    /// Counters before and after the traced rounds.
    counts: (Counts, Counts),
    account: LegAccount,
}

impl Section {
    /// `untraced_rounds` untraced rounds, then twice as many traced ones.
    fn run(rig: &mut dyn Rig, workload: Workload, untraced_rounds: usize) -> Section {
        run::warm_up(rig, workload);
        let account = rig.leg_account();
        let untraced = run::measure(rig, &mut Recorder::off(), untraced_rounds);
        // scalar_mixed records the most spans: three per chunk.
        let per_round = 4 + 3 * CALM_WAVE.div_ceil(TRACE_CHUNK);
        let mut rec = Recorder::tracing(per_round * 2 * untraced_rounds);
        let before = rig.counts();
        let traced = run::measure(rig, &mut rec, 2 * untraced_rounds);
        let after = rig.counts();
        Section { untraced, traced, rec, counts: (before, after), account }
    }

    /// Quiet-floor ns per packet of the spans called `name`.
    fn span_ns_per_pkt(&self, name: &str) -> f64 {
        let rounds = self.rec.per_round_ns(name);
        if rounds.is_empty() {
            return 0.0;
        }
        floor(&rounds) / self.traced.packets as f64
    }

    /// Quiet-floor ms per round of the spans called `name`.
    fn span_ms(&self, name: &str) -> f64 {
        floor(&self.rec.per_round_ns(name)) / 1e6
    }

    fn untraced_ns_per_pkt(&self) -> f64 {
        floor(&self.untraced.wall_ns_per_pkt())
    }

    /// Every calibration pass of the section, ns.
    fn calib_ns(&self) -> Vec<f64> {
        [&self.untraced.calib_ns[..], &self.traced.calib_ns[..]].concat()
    }

    fn violations(&self) -> Vec<String> {
        let mut v = self.untraced.violations();
        v.extend(self.traced.violations());
        v
    }

    /// A counter's growth over the traced rounds, per thousand packets.
    fn per_kpkt(&self, pick: impl Fn(&Counts) -> u64) -> f64 {
        let grown = pick(&self.counts.1) - pick(&self.counts.0);
        let packets = self.traced.packets * self.traced.samples.len() as u64;
        1e3 * grown as f64 / packets as f64
    }

    /// The metrics that describe a workload, not a layer.
    fn workload_metrics(&self, m: &mut Metrics) {
        let t = &self.traced;
        let pkts = t.packets as f64;
        let mid = |f: fn(&crate::trace::RoundSample) -> u64| {
            let mut v: Vec<u64> = t.samples.iter().map(f).collect();
            v.sort_unstable();
            v[v.len() / 2] as f64
        };
        m.put("alloc.count_per_kpkt", 1e3 * mid(|s| s.allocs) / pkts);
        m.put("alloc.bytes_per_pkt", mid(|s| s.alloc_bytes) / pkts);
        let traced_floor = floor(&t.wall_ns_per_pkt());
        m.put("trace.overhead_pct", 100.0 * (traced_floor / self.untraced_ns_per_pkt() - 1.0));

        m.put("core.splits_per_kpkt", self.per_kpkt(|c| c.park.splits));
        m.put("core.merges_per_kpkt", self.per_kpkt(|c| c.park.merges));
        m.put("core.enb0_per_kpkt", self.per_kpkt(|c| c.park.enb0_from_server));
        m.put("core.evictions_per_kpkt", self.per_kpkt(|c| c.park.evictions));
        m.put("core.premature_per_kpkt", self.per_kpkt(|c| c.park.premature_evictions));
        m.put("core.dup_merge_per_kpkt", self.per_kpkt(|c| c.park.dup_merge));
        let (b, a) = (&self.counts.0.park, &self.counts.1.park);
        let parked = (a.splits - b.splits) as f64;
        let refused = (a.disabled_occupied - b.disabled_occupied) as f64;
        m.put("core.park_ratio", if parked > 0.0 { parked / (parked + refused) } else { 0.0 });
        m.put("core.occupancy_peak", self.account.occupancy_peak as f64);
        m.put("rmt.recirculations_per_kpkt", self.per_kpkt(|c| c.stats.recirculations));

        m.put("host.calib_ns", floor(&self.calib_ns()));
        m.put("host.steal_pct", t.steal_pct.max(self.untraced.steal_pct));
    }
}

// ---------------------------------------------------------------------------
// pp_rmt: the switch's layers, one chunk at a time.
// ---------------------------------------------------------------------------

/// Extra repetitions of the layered probe that execute stage by stage.
const STAGE_REPS: usize = 5;

/// The layers of one pass through the switch, split side then merge side.
const LAYERS: [&str; 6] =
    ["parse_split", "exec_split", "deparse_split", "parse_merge", "exec_merge", "deparse_merge"];

/// Deparsed frames of one chunk.
#[derive(Default)]
struct Frames {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Frames {
    fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
    }

    fn get(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }
}

/// What the layered probe hands to the traced run.
struct LayerProbe {
    rec: Recorder,
    /// Set when the layered path did not restore the wave.
    violation: Option<String>,
}

/// Runs the scalar round trip as its layers: parse, execute and deparse
/// a chunk on the split side, bounce it off the NF, parse, execute and
/// deparse it on the merge side — each a span. What `process_into` does
/// beyond these calls (verdict loop, L2 lookup, flight recorder, PHV
/// pool) is not reachable from outside and is reported as the residual.
fn rmt_layers(wave: &[BatchPacket], reps: usize, m: &mut Metrics) -> LayerProbe {
    let tb = CALM_TESTBED;
    let (mut sw, _control) = tb.build_scalar();
    let parser = sw.pipe(0).parser().clone();
    let sink = tb.sink_mac().0;
    let mut phvs: Vec<Phv> = (0..CHUNK).map(|_| Phv::default()).collect();
    let (mut split, mut back, mut merged) =
        (Frames::default(), Frames::default(), Frames::default());
    let mut rec = Recorder::tracing(reps * (1 + 7 * wave.len().div_ceil(CHUNK)));
    let mut unrestored = 0usize;

    for rep in 0..1 + reps + STAGE_REPS {
        // Repetition 0 warms the PHVs and arenas and is checked, not
        // timed. The last few run the stages batch-wise, as the engine's
        // workers do: only that path feeds `Pipeline::stage_profile()`.
        // Their spans are not kept; the timed repetitions execute packet
        // by packet, as `process_into` does.
        let stage_outer = rep > reps;
        let mut unrecorded = Recorder::off();
        let rec = if rep == 0 || stage_outer { &mut unrecorded } else { &mut rec };
        if rep == reps + 1 {
            sw.pipe_mut(0).reset_stage_profile();
        }
        let mut execute = |phvs: &mut [Phv]| {
            if stage_outer {
                sw.pipe_mut(0).execute_batch(phvs);
            } else {
                phvs.iter_mut().for_each(|phv| sw.pipe_mut(0).execute(phv));
            }
        };
        rec.set_round(rep as u32);
        let open = rec.start_round();
        for chunk in wave.chunks(CHUNK) {
            let n = chunk.len();
            let id = rec.begin("rmt.parse_split");
            for (pkt, phv) in chunk.iter().zip(&mut phvs) {
                parse_packet_into(&parser, &pkt.bytes, pkt.port, pkt.seq, phv)
                    .expect("generated packets parse");
            }
            rec.end(id);
            let id = rec.begin("rmt.exec_split");
            execute(&mut phvs[..n]);
            rec.end(id);
            let id = rec.begin("rmt.deparse_split");
            split.clear();
            for (pkt, phv) in chunk.iter().zip(&phvs) {
                deparse_phv_into(phv, &pkt.bytes, &mut split.bytes);
                split.ends.push(split.bytes.len());
            }
            rec.end(id);

            let id = rec.begin("nf.reflect");
            back.clear();
            for i in 0..n {
                let start = back.bytes.len();
                back.bytes.extend_from_slice(split.get(i));
                back.bytes[start..start + 6].copy_from_slice(&sink);
                back.ends.push(back.bytes.len());
            }
            rec.end(id);

            let id = rec.begin("rmt.parse_merge");
            for (i, (pkt, phv)) in chunk.iter().zip(&mut phvs).enumerate() {
                let port = tb.merge_port(usize::from(pkt.port.0) / 2);
                parse_packet_into(&parser, back.get(i), port, pkt.seq, phv)
                    .expect("split-side frames parse");
            }
            rec.end(id);
            let id = rec.begin("rmt.exec_merge");
            execute(&mut phvs[..n]);
            rec.end(id);
            let id = rec.begin("rmt.deparse_merge");
            merged.clear();
            for (i, phv) in phvs[..n].iter().enumerate() {
                deparse_phv_into(phv, back.get(i), &mut merged.bytes);
                merged.ends.push(merged.bytes.len());
            }
            rec.end(id);

            if rep == 0 {
                unrestored += chunk
                    .iter()
                    .enumerate()
                    .filter(|(i, pkt)| {
                        let out = merged.get(*i);
                        out.len() != pkt.bytes.len() || out[6..] != pkt.bytes[6..]
                    })
                    .count();
            }
        }
        rec.stop_round(open);
    }

    let pkts = wave.len() as f64;
    for layer in LAYERS {
        let rounds = rec.per_round_ns(&format!("rmt.{layer}"));
        m.put(format!("rmt.{layer}_ns_per_pkt"), floor(&rounds) / pkts);
    }
    let profile = sw.pipe(0).stage_profile();
    for stage in 0..sw.chip().stages_per_pipe {
        let p = profile.get(stage).copied().unwrap_or_default();
        let per_pkt = if p.packets == 0 { 0.0 } else { p.nanos as f64 / p.packets as f64 };
        m.put(format!("rmt.stage_ns_per_pkt.s{stage}"), per_pkt);
    }
    let violation = (unrestored > 0)
        .then(|| format!("the layered scalar path left {unrestored} packets unrestored"));
    LayerProbe { rec, violation }
}

/// `process_batch` against `process_into`, both in chunks and two phases
/// on one switch; only the switch calls are timed.
fn rmt_batch_vs_scalar(wave: &[BatchPacket], reps: usize, m: &mut Metrics) {
    let tb = CALM_TESTBED;
    let (mut sw, _control) = tb.build_scalar();
    let (mut split, mut merged) = (BatchOutput::new(), BatchOutput::new());
    let mut back = ReturnFrames::default();
    let ratio = floor_ratio(reps, || {
        let (mut batch, mut scalar) = (0.0, 0.0);
        for chunk in wave.chunks(CHUNK) {
            let t = Instant::now();
            sw.process_batch(chunk, &mut split);
            batch += ns(t);
            let returns = reflect_outputs(split.iter(), tb.sink_mac());
            let t = Instant::now();
            sw.process_batch(&returns, &mut merged);
            batch += ns(t);
        }
        for chunk in wave.chunks(CHUNK) {
            split.clear();
            merged.clear();
            let t = Instant::now();
            for pkt in chunk {
                sw.process_into(&pkt.bytes, pkt.port, pkt.seq, &mut split);
            }
            scalar += ns(t);
            back.reflect(&split, tb.sink_mac().0);
            let t = Instant::now();
            for (bytes, port, seq) in back.iter() {
                sw.process_into(bytes, port, seq, &mut merged);
            }
            scalar += ns(t);
        }
        (batch, scalar)
    });
    m.put("rmt.batch_vs_scalar_ratio", ratio);
}

// ---------------------------------------------------------------------------
// payloadpark: stores, the store-backed program, build and oracle.
// ---------------------------------------------------------------------------

/// Parks `PRESSURE_WAVE` payloads, then restores them all, through the
/// `FlowStore` trait. Returns ns per park + restore.
fn flowstore_cycle_ns(store: &mut dyn FlowStore, reps: usize) -> f64 {
    let blocks = store.blocks();
    let payload = [0xA5u8; BLOCK_BYTES];
    let mut out = [0u8; BLOCK_BYTES];
    let mut clk = 0;
    floor_of(reps, || {
        clk += 1;
        let t = Instant::now();
        for slot in 0..PRESSURE_WAVE {
            let outcome = store.probe(slot, ParkTag { clk, expiry: 1, xsum: 7, tsum: 9 });
            assert!(outcome.parked, "an empty slot parks");
            for j in 0..blocks {
                store.store_block(slot, j, &payload);
            }
        }
        for slot in 0..PRESSURE_WAVE {
            let restored = store.merge(slot, clk);
            assert!(matches!(restored, MergeOutcome::Restored { .. }), "{restored:?}");
            for j in 0..blocks {
                store.load_block(slot, j, &mut out);
            }
        }
        black_box(out);
        ns(t) / PRESSURE_WAVE as f64
    })
}

fn flowstores(reps: usize, m: &mut Metrics) {
    let blocks = CALM_TESTBED.config().primary_blocks;
    let mut circular = CircularStore::new(PRESSURE_WAVE, blocks);
    let mut slab = SlabStore::new(PRESSURE_WAVE, blocks);
    let mut spill = SlabStore::with_spill(PRESSURE_WAVE, blocks, PRESSURE_WAVE / 16);
    m.put("flowstore.circular_park_restore_ns", flowstore_cycle_ns(&mut circular, reps));
    m.put("flowstore.slab_park_restore_ns", flowstore_cycle_ns(&mut slab, reps));
    m.put("flowstore.spill_park_restore_ns", flowstore_cycle_ns(&mut spill, reps));
}

/// The store-backed program against the register program: the same wave
/// and fused round trip on both switches, interleaved.
fn core_probes(wave: &[BatchPacket], reps: usize, m: &mut Metrics) {
    let tb = CALM_TESTBED;
    let cfg = tb.config();
    let (mut register_sw, control) = tb.build_scalar();
    let store = shared(CircularStore::new(cfg.pipes[0].total_slots(), cfg.primary_blocks));
    let (mut store_sw, _store_control) =
        build_store_switch(&cfg, store).expect("the testbed deployment builds store-backed");
    tb.wire(&mut |mac, port| store_sw.l2_add(mac, port));
    let mut merged = BatchOutput::new();
    let ratio = floor_ratio(reps, || {
        let t = Instant::now();
        tb.scalar_roundtrip_into(&mut store_sw, wave, &mut merged);
        let on_store = ns(t);
        let t = Instant::now();
        tb.scalar_roundtrip_into(&mut register_sw, wave, &mut merged);
        (on_store, ns(t))
    });
    m.put("core.store_vs_register_ratio", ratio);

    let build_ms = floor_of(reps, || {
        let t = Instant::now();
        black_box(build_switch(&cfg).expect("the testbed deployment builds"));
        secs_to_ms(t)
    });
    m.put("core.build_switch_ms", build_ms);

    // What the benchmark's own end-of-run check costs: counter balance,
    // occupancy scan, and parse + checksum of one wave's deliveries.
    let check_ms = floor_of(reps, || {
        let t = Instant::now();
        let report = oracle::check_switch(&control, &register_sw, merged.iter().map(|o| o.bytes));
        assert!(report.ok(), "{:?}", report.violations());
        secs_to_ms(t)
    });
    m.put("core.oracle_check_ms", check_ms);
}

// ---------------------------------------------------------------------------
// pp_fastpath: shard work without threads, the split pass, the ring.
// ---------------------------------------------------------------------------

/// The engine's shards built standalone and run on the calling thread,
/// batch by batch exactly as a worker runs them. Returns ns per packet of
/// the wave, summed over the shards: the work two workers share.
fn shard_work_ns_per_pkt(wave: &[BatchPacket], reps: usize) -> f64 {
    let tb = CALM_TESTBED;
    let plan = ShardPlan::new(&tb.config(), ENGINE_WORKERS).expect("the testbed shards");
    let mut shards: Vec<(SwitchModel, Vec<BatchPacket>)> = plan
        .configs()
        .iter()
        .map(|cfg| {
            let (mut sw, _handles) = build_switch(cfg).expect("shard config builds");
            tb.wire(&mut |mac, port| sw.l2_add(mac, port));
            (sw, Vec::new())
        })
        .collect();
    for pkt in wave {
        let shard = plan.shard_of_port(pkt.port.0).expect("wave ports are planned");
        shards[shard].1.push(pkt.clone());
    }
    let batch = EngineConfig::default().batch;
    let (mut split, mut merged) = (BatchOutput::new(), BatchOutput::new());
    floor_of(reps, || {
        let t = Instant::now();
        for (sw, queue) in &mut shards {
            for chunk in queue.chunks(batch) {
                sw.process_batch(chunk, &mut split);
                let back = reflect_outputs(split.iter(), tb.sink_mac());
                sw.process_batch(&back, &mut merged);
                black_box(merged.len());
            }
        }
        ns(t) / wave.len() as f64
    })
}

/// `Engine::process` on the split side alone; the merge that empties the
/// table again is not timed.
fn split_only_ns_per_pkt(wave: &[BatchPacket], reps: usize) -> f64 {
    let tb = CALM_TESTBED;
    let cfg = EngineConfig { workers: ENGINE_WORKERS, ..Default::default() };
    let mut engine = tb.build_engine(cfg).expect("the testbed engine builds");
    floor_of(reps, || {
        let inputs = wave.to_vec();
        let t = Instant::now();
        let to_servers = engine.process(inputs);
        let split = ns(t);
        let back = reflect_outputs(to_servers.iter(), tb.sink_mac());
        black_box(engine.process(back).packets());
        split / wave.len() as f64
    })
}

/// One hop over `spsc::ring` between two threads: half a ping-pong.
fn ring_hop_ns(reps: usize) -> f64 {
    const PINGS: u64 = 2_000;
    let (mut ping_tx, mut ping_rx) = spsc::ring::<u64>(16);
    let (mut pong_tx, mut pong_rx) = spsc::ring::<u64>(16);
    let total = PINGS * (reps as u64 + 1);
    let mut batches = Vec::new();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for _ in 0..total {
                let v = loop {
                    if let Some(v) = ping_rx.try_pop() {
                        break v;
                    }
                    std::hint::spin_loop();
                };
                pong_tx.push(v);
            }
        });
        for rep in 0..reps + 1 {
            let t = Instant::now();
            for i in 0..PINGS {
                ping_tx.push(i);
                while pong_rx.try_pop().is_none() {
                    std::hint::spin_loop();
                }
            }
            if rep > 0 {
                batches.push(ns(t) / (2 * PINGS) as f64);
            }
        }
    });
    floor(&batches)
}

fn fastpath_metrics(
    wave: &[BatchPacket],
    engine: &Section,
    rig: &mut EngineRig,
    args: &RunArgs,
    m: &mut Metrics,
) {
    let shard_work = shard_work_ns_per_pkt(wave, args.count(20));
    m.put("fastpath.shard_work_ns_per_pkt", shard_work);
    let engine_wall = engine.untraced_ns_per_pkt();
    m.put("fastpath.parallel_efficiency", shard_work / (ENGINE_WORKERS as f64 * engine_wall));
    let dispatcher: Vec<f64> = engine.traced.samples.iter().map(|s| s.thread_cpu_ns).collect();
    m.put("fastpath.dispatcher_cpu_ns_per_pkt", floor(&dispatcher) / engine.traced.packets as f64);
    m.put("fastpath.split_only_ns_per_pkt", split_only_ns_per_pkt(wave, args.count(20)));
    m.put("fastpath.output_drop_ns_per_pkt", engine.span_ns_per_pkt("fastpath.output_drop"));
    m.put("fastpath.ring_hop_ns", ring_hop_ns(args.count(20)));

    let registry = rig.engine.telemetry_registry();
    let highwater = (0..ENGINE_WORKERS)
        .filter_map(|w| registry.get("pp_ring_depth_highwater", &[("shard", &w.to_string())]))
        .map(|metric| metric.value())
        .fold(0.0, f64::max);
    m.put("fastpath.ring_highwater", highwater);
    let render_ms = floor_of(args.count(20), || {
        let t = Instant::now();
        black_box(pp_metrics::textfmt::render(&registry));
        secs_to_ms(t)
    });
    m.put("metrics.registry_render_ms", render_ms);
}

// ---------------------------------------------------------------------------
// pp_cluster
// ---------------------------------------------------------------------------

fn cluster_metrics(
    section: &Section,
    rig: &ClusterRig,
    seed: u64,
    args: &RunArgs,
    m: &mut Metrics,
) -> Result<(), String> {
    m.put("cluster.split_wave_ns_per_pkt", section.span_ns_per_pkt("cluster.process_wave"));
    m.put("cluster.adverse_leg_ns_per_pkt", section.span_ns_per_pkt("cluster.adverse_return_wave"));
    m.put("cluster.return_wave_ns_per_pkt", section.span_ns_per_pkt("cluster.process_return_wave"));
    // The cluster's own counters are cumulative over every round the rig
    // ran; the rounds are identical, so per-packet rates are exact.
    let rounds = rig.rounds_run as f64;
    let pkts = rounds * PRESSURE_WAVE as f64;
    let c = rig.cluster.counters();
    m.put("cluster.proxy_merges_per_kpkt", 1e3 * c.proxy_merges as f64 / pkts);
    m.put("cluster.proxy_drops_per_kpkt", 1e3 * c.proxy_drops as f64 / pkts);
    m.put("cluster.link_bytes_per_pkt", c.link_bytes as f64 / pkts);
    m.put("cluster.mesh_utilization", rig.cluster.mesh_utilization());
    m.put("flowstore.spilled_peak", section.account.spilled_peak as f64);

    // Membership change with one wave parked: join a third switch, then
    // let it leave again.
    let wave = PRESSURE_TESTBED.counted_mixed_wave(seed, PRESSURE_WAVE);
    let (mut joins, mut leaves) = (Vec::new(), Vec::new());
    let mut moved = 0;
    for _ in 0..args.count(10) {
        let mut cluster = pressure_cluster()?;
        black_box(cluster.process_wave(&wave).len());
        let t = Instant::now();
        let id = cluster.join().map_err(|e| e.to_string())?;
        joins.push(secs_to_ms(t));
        let t = Instant::now();
        cluster.leave(id).map_err(|e| e.to_string())?;
        leaves.push(secs_to_ms(t));
        moved = cluster.counters().rebalance_moved_flows;
        let report = cluster.check_oracle();
        if !report.ok() {
            return Err(format!("join/leave broke the cluster oracle: {:?}", report.violations()));
        }
    }
    m.put("cluster.join_ms", floor(&joins));
    m.put("cluster.leave_ms", floor(&leaves));
    m.put("cluster.moved_flows", moved as f64);
    Ok(())
}

// ---------------------------------------------------------------------------
// pp_harness, pp_nf, pp_netsim, pp_trafficgen
// ---------------------------------------------------------------------------

fn harness_metrics(section: &Section, rig: &DesRig, m: &mut Metrics) {
    m.put("harness.run_baseline_ms", section.span_ms("harness.run_baseline"));
    m.put("harness.run_park_ms", section.span_ms("harness.run_park"));
    let sim = rig.sim().expect("the section ran rounds");
    m.put("harness.sim_goodput_gain_pct", sim.goodput_gain_pct);
    m.put("harness.sim_p99_latency_us_base", sim.p99_latency_us_base);
    m.put("harness.sim_p99_latency_us_park", sim.p99_latency_us_park);
    m.put("harness.sim_pcie_saving_pct", sim.pcie_saving_pct);
    m.put("harness.sim_evictions", sim.evictions as f64);
    m.put("harness.paper_gap_pct", (sim.goodput_gain_pct - PAPER_GOODPUT_GAIN_PCT).abs());
}

/// Packets a probe generates: half a calm wave.
const PROBE_PACKETS: usize = CALM_WAVE / 2;

fn sim_layer_probes(seed: u64, args: &RunArgs, m: &mut Metrics) {
    let n = args.count(10);
    let des = des_baseline(seed);
    let gen_cfg = GenConfig {
        rate_gbps: des.rate_gbps,
        line_rate_gbps: des.nic_gbps * 2.0,
        sizes: des.sizes.clone(),
        mix: des.mix,
        flows: des.flows,
        seed,
        ..Default::default()
    };

    // pp_trafficgen: the generator the wave rigs and the testbed share.
    let mixed = GenConfig {
        sizes: SizeModel::Enterprise,
        mix: TrafficMix::TcpUdp { tcp_fraction: 0.7 },
        flows: 32,
        rate_gbps: 4.0,
        seed,
        ..Default::default()
    };
    let gen_ns = floor_of(n, || {
        let t = Instant::now();
        black_box(TrafficGen::new(mixed.clone()).take_count(PROBE_PACKETS));
        ns(t) / PROBE_PACKETS as f64
    });
    m.put("trafficgen.gen_ns_per_pkt", gen_ns);

    // pp_nf: build the chain (Maglev table included), then run it.
    let spec = ChainSpec::FwNatLb { fw_rules: 20 };
    let src_base = Ipv4Addr::new(10, 0, 0, 1);
    let build_ms = floor_of(n.min(5), || {
        let t = Instant::now();
        black_box(spec.build(des.flows, src_base));
        secs_to_ms(t)
    });
    m.put("nf.chain_build_ms", build_ms);
    let mut chain = spec.build(des.flows, src_base);
    let packets: Vec<Packet> =
        TrafficGen::new(gen_cfg).take_count(PROBE_PACKETS).into_iter().map(|(_, p)| p).collect();
    let chain_ns = floor_of(n, || {
        let mut batch = packets.clone();
        let t = Instant::now();
        for pkt in &mut batch {
            black_box(chain.process(pkt));
        }
        ns(t) / PROBE_PACKETS as f64
    });
    m.put("nf.chain_ns_per_pkt", chain_ns);

    // pp_netsim: the event queue at the testbed's typical depth, and the
    // adversity engine's per-packet decision.
    let event_ns = floor_of(n, || {
        let mut queue: EventQueue<u64> = EventQueue::new();
        let mut x = seed | 1;
        let t = Instant::now();
        for i in 0..PROBE_PACKETS as u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            queue.schedule(SimTime(queue.now().nanos() + x % 4096), i);
            if i % 4 != 0 {
                black_box(queue.pop());
            }
        }
        while let Some(event) = queue.pop() {
            black_box(event);
        }
        ns(t) / PROBE_PACKETS as f64
    });
    m.put("netsim.eventq_ns_per_event", event_ns);
    let adversity = pressure_adversity(seed);
    let plan_ns = floor_of(n, || {
        let t = Instant::now();
        for seq in 0..PROBE_PACKETS as u64 {
            black_box(adversity.plan(Leg::FromNf, seq));
        }
        ns(t) / PROBE_PACKETS as f64
    });
    m.put("netsim.adversity_plan_ns_per_pkt", plan_ns);
}

// ---------------------------------------------------------------------------
// pp_metrics, pp_verify, pp_packet
// ---------------------------------------------------------------------------

fn support_layer_probes(wave: &[BatchPacket], args: &RunArgs, m: &mut Metrics) {
    let tb = CALM_TESTBED;
    let n = args.count(20);

    // One switch serves both arms: two builds differ by more than the
    // telemetry costs.
    let (mut sw, _control) = tb.build_scalar();
    let mut merged = BatchOutput::new();
    let ratio = floor_ratio(n, || {
        let mut arm = |telemetry| {
            sw.set_telemetry(telemetry);
            let t = Instant::now();
            tb.scalar_roundtrip_into(&mut sw, wave, &mut merged);
            ns(t)
        };
        (arm(true), arm(false))
    });
    m.put("metrics.telemetry_on_off_ratio", ratio);

    let cfg = tb.config();
    let lint_ms = floor_of(n.min(10), || {
        let t = Instant::now();
        black_box(pp_verify::check_deployment(&cfg));
        secs_to_ms(t)
    });
    m.put("verify.check_deployment_ms", lint_ms);

    let verify_ns = floor_of(n, || {
        let t = Instant::now();
        for pkt in wave {
            let parsed = ParsedPacket::parse(&pkt.bytes).expect("generated packets parse");
            black_box(parsed.verify_checksums());
        }
        ns(t) / wave.len() as f64
    });
    m.put("packet.verify_ns_per_pkt", verify_ns);
}

// ---------------------------------------------------------------------------
// The traced run.
// ---------------------------------------------------------------------------

/// Where `trace.json` goes: next to the build, so inside the checkout and
/// never inside the benchmark's source directory.
fn trace_path(workload: Workload) -> std::path::PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    let dir = exe.parent().and_then(|p| p.parent()).unwrap_or(std::path::Path::new("."));
    dir.join("pp-bench-trace").join(format!("{}.trace.json", workload.name()))
}

fn write_trace(workload: Workload, sections: &[(&str, &Recorder)]) -> Result<String, String> {
    let path = trace_path(workload);
    let doc = Value::Arr(sections.iter().map(|(n, r)| section_json(n, r.spans())).collect());
    let write = || {
        std::fs::create_dir_all(path.parent().expect("trace path has a parent"))?;
        std::fs::write(&path, doc.render())
    };
    write().map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

/// The traced run: every per-layer metric.
pub fn per_layer(args: RunArgs) -> Result<Outcome, String> {
    let seed = args.seed;
    let rounds = |w: Workload| {
        args.count(if w == args.workload { w.section_rounds() } else { w.section_rounds() / 4 })
    };
    let mut m = Metrics::default();

    // The layered probe runs straight after the section it is compared
    // with, so that as little as possible of the host's drift comes
    // between the two.
    let wave = CALM_TESTBED.counted_mixed_wave(seed, CALM_WAVE);
    let mut scalar_rig = ScalarRig::build(seed)?;
    let scalar =
        Section::run(&mut scalar_rig, Workload::ScalarMixed, rounds(Workload::ScalarMixed));
    let layers = rmt_layers(&wave, args.count(100), &mut m);
    let mut engine_rig = EngineRig::build(seed)?;
    let engine = Section::run(&mut engine_rig, Workload::Engine2w, rounds(Workload::Engine2w));
    let mut cluster_rig = ClusterRig::build(seed)?;
    let cluster = Section::run(
        &mut cluster_rig,
        Workload::ClusterPressure,
        rounds(Workload::ClusterPressure),
    );
    let mut des_rig = DesRig::build(seed)?;
    let des = Section::run(&mut des_rig, Workload::DesChain, rounds(Workload::DesChain));

    let own = match args.workload {
        Workload::ScalarMixed => &scalar,
        Workload::Engine2w => &engine,
        Workload::ClusterPressure => &cluster,
        Workload::DesChain => &des,
    };
    own.workload_metrics(&mut m);

    rmt_batch_vs_scalar(&wave, args.count(10), &mut m);
    flowstores(args.count(20), &mut m);
    core_probes(&wave, args.count(10), &mut m);
    fastpath_metrics(&wave, &engine, &mut engine_rig, &args, &mut m);
    cluster_metrics(&cluster, &cluster_rig, seed, &args, &mut m)?;
    harness_metrics(&des, &des_rig, &mut m);
    sim_layer_probes(seed, &args, &mut m);
    support_layer_probes(&wave, &args, &mut m);

    // Closure on scalar_mixed, against the untraced quiet floor of the
    // same rig. The residual is signed: what the `process_into` spans of
    // the traced rounds hold beyond the probe's layers, or, when negative,
    // by how much the layers overshoot the spans they decompose.
    let layer_sum: f64 = LAYERS
        .iter()
        .map(|l| m.get(&format!("rmt.{l}_ns_per_pkt")).expect("rmt_layers reported it"))
        .sum();
    let switch_total =
        scalar.span_ns_per_pkt("switch.split_leg") + scalar.span_ns_per_pkt("switch.merge_leg");
    let residual = switch_total - layer_sum;
    m.put("rmt.switch_residual_ns_per_pkt", residual);
    let reflect = scalar.span_ns_per_pkt("nf.reflect");
    let untraced = scalar.untraced_ns_per_pkt();
    let gap = (layer_sum + residual + reflect) / untraced - 1.0;

    let mut violations: Vec<String> =
        [&scalar, &engine, &cluster, &des].iter().flat_map(|s| s.violations()).collect();
    violations.extend(layers.violation.clone());
    if gap.abs() > CLOSURE_TOLERANCE {
        violations.push(format!(
            "closure: layers, residual and NF bounce come to {:+.1} % of scalar_mixed's \
             untraced quiet floor (tolerance {:.0} %)",
            100.0 * gap,
            100.0 * CLOSURE_TOLERANCE
        ));
    }
    if residual < -CLOSURE_TOLERANCE * untraced {
        violations.push(format!(
            "closure: the layers ({layer_sum:.1} ns/packet) overshoot the process_into spans \
             they decompose ({switch_total:.1}) by more than {:.0} % of the untraced quiet floor \
             ({untraced:.1}): the probe ran on a slower host than the reference",
            100.0 * CLOSURE_TOLERANCE
        ));
    }

    let trace_file = write_trace(
        args.workload,
        &[
            ("scalar_mixed", &scalar.rec),
            ("engine_2w", &engine.rec),
            ("cluster_pressure", &cluster.rec),
            ("des_chain", &des.rec),
            ("rmt_layers", &layers.rec),
        ],
    )?;

    let mut report = format!(
        "traced run for {}  seed {}  trace written to {trace_file}\n",
        args.workload.name(),
        seed
    );
    report += &format!(
        "closure on scalar_mixed: layers {layer_sum:.1} + switch residual {residual:+.1} + NF \
         bounce {reflect:.1} ns/packet against the untraced quiet floor {untraced:.1}: {:+.1} %\n",
        100.0 * gap
    );
    report += &run::host_block(own.traced.steal_pct, &own.calib_ns());
    let sections = [&scalar, &engine, &cluster, &des];
    Ok(Outcome {
        violations,
        attempted: sections.iter().map(|s| s.traced.samples.len() as u64).sum(),
        failed: sections.iter().map(|s| s.traced.failed_rounds()).sum(),
        metrics: m,
        report,
    })
}
