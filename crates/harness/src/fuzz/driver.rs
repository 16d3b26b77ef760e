//! The differential conformance driver: one fuzz case, every path.
//!
//! A case runs the same seeded traffic, under the same seeded
//! adversity, through every execution surface the repository claims is
//! equivalent:
//!
//! 1. the register-backed scalar reference (`build_switch`),
//! 2. the store program over the case's `FlowStore` choice,
//! 3. the sharded engine at 2 and at 4 workers,
//! 4. the cluster (when the case has one), oracle-checked every wave
//!    and across its join/leave/down schedule, and
//! 5. the discrete-event testbed with the case's NF chain.
//!
//! Paths 1-4 all run the one two-phase drive of
//! [`pp_fastpath::conformance`]. Paths 1-3 must agree *exactly* — the
//! [`PathResult`] comparison: delivered set, counters, switch
//! statistics, occupancy, fault tallies — and every path must satisfy
//! the conformance oracle. The scalar reference additionally
//! drives the adaptive-evictor implementation against the pure
//! [`PolicyModel`] each wave (on a detached threshold cell, so the
//! cross-check can never perturb the equivalence comparison).
//!
//! Before anything executes, the case is **statically pre-screened**:
//! `ParkConfig::validate`, `pp_verify::check_deployment`, the shard
//! plans the engine will use and the cluster plan all get a veto. A
//! rejected config is a [`CaseOutcome::Skipped`] — never executed, by
//! construction.

use super::config::{ClusterEvent, FuzzConfig, NfChoice, StoreChoice};
use super::model::PolicyModel;
use crate::testbed::{self, ChainSpec, DeployMode, ParkParams, TestbedConfig};
use payloadpark::flowstore::shared;
use payloadpark::program::build_switch;
use payloadpark::{
    build_store_switch, AdaptivePolicy, CircularStore, CounterSnapshot, ParkConfig, PipeControl,
    ShardPlan, SlabStore, StoreControl,
};
use pp_cluster::{Cluster, ClusterConfig, ClusterPlan, StoreKind};
use pp_fastpath::{two_phase_adverse, Dataplane, Engine, EngineConfig, PathResult, SlicedTestbed};
use pp_netsim::adversity::{AdversityProfile, FaultTally};
use pp_netsim::time::SimDuration;
use pp_rmt::switch::{BatchPacket, SwitchModel};
use pp_trafficgen::gen::{GenConfig, SizeModel, TrafficGen, TrafficMix};
use pp_verify::{check_cluster_plan, check_deployment, check_shard_plan, Severity};
use std::sync::atomic::AtomicU16;
use std::sync::Arc;

/// Deliberate defects the harness can inject to prove it still catches
/// bugs (CI shrinks one of these and diffs the repro for determinism).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bug {
    /// No injection: test the real code.
    None,
    /// Under-report the 4-worker engine's merge counter by one — a
    /// counter-equivalence defect that survives shrinking.
    EngineMergeSkew,
}

/// Aggregate facts about a passing case.
#[derive(Debug, Clone, Copy, Default)]
pub struct CaseStats {
    /// Split operations on the scalar reference.
    pub splits: u64,
    /// Merge operations on the scalar reference.
    pub merges: u64,
    /// Packets delivered to the sink on the scalar reference.
    pub delivered: usize,
    /// Whether the case exercised a cluster leg.
    pub cluster: bool,
}

/// What one case did.
#[derive(Debug, Clone)]
pub enum CaseOutcome {
    /// The static pre-screen vetoed the config; nothing executed.
    Skipped {
        /// Which gate rejected it.
        reason: String,
    },
    /// Every path agreed and every oracle held.
    Pass(CaseStats),
    /// A divergence or oracle violation.
    Fail {
        /// What diverged, on which path.
        reason: String,
    },
}

impl CaseOutcome {
    /// True for [`CaseOutcome::Fail`].
    pub fn is_fail(&self) -> bool {
        matches!(self, CaseOutcome::Fail { .. })
    }
}

/// Statically pre-screens a case. `Err` is the skip reason; configs the
/// verifier rejects are never executed.
pub fn prescreen(cfg: &FuzzConfig) -> Result<ParkConfig, String> {
    let park = cfg.deployment();
    park.validate().map_err(|e| format!("config rejected: {e}"))?;
    let mut errors: Vec<String> = Vec::new();
    for report in check_deployment(&park) {
        for d in &report.diagnostics {
            if d.severity == Severity::Error {
                errors.push(format!("{}: {d}", report.program));
            }
        }
    }
    if !errors.is_empty() {
        return Err(format!("static verifier rejected deployment: {}", errors.join("; ")));
    }
    for workers in [2usize, 4] {
        let plan = ShardPlan::new(&park, workers)
            .map_err(|e| format!("shard plan ({workers} workers) rejected: {e}"))?;
        for d in check_shard_plan(&park, &plan) {
            if d.severity == Severity::Error {
                return Err(format!("shard plan ({workers} workers) rejected: {d}"));
            }
        }
    }
    if let Some(cl) = &cfg.cluster {
        let plan = ClusterPlan::new(&park, cl.switches, cl.seed)
            .map_err(|e| format!("cluster plan ({} switches) rejected: {e}", cl.switches))?;
        for d in check_cluster_plan(&park, &plan) {
            if d.severity == Severity::Error {
                return Err(format!("cluster plan ({} switches) rejected: {d}", cl.switches));
            }
        }
    }
    Ok(park)
}

/// The case's waves: `waves × packets` of the seeded enterprise mix,
/// dealt round-robin across the slices with server MACs stamped —
/// the same construction as `SlicedTestbed::counted_mixed_wave`, with
/// the TCP share as a case axis.
pub fn build_waves(cfg: &FuzzConfig) -> Vec<Vec<BatchPacket>> {
    let tb = cfg.testbed();
    let mix = if cfg.tcp_permille == 0 {
        TrafficMix::UdpOnly
    } else {
        TrafficMix::TcpUdp { tcp_fraction: f64::from(cfg.tcp_permille) / 1000.0 }
    };
    let mut gen = TrafficGen::new(GenConfig {
        rate_gbps: 4.0,
        sizes: SizeModel::Enterprise,
        mix,
        flows: 32,
        seed: cfg.wave_seed,
        ..Default::default()
    });
    let all: Vec<BatchPacket> = gen
        .take_count(cfg.waves * cfg.packets)
        .into_iter()
        .map(|(_, pkt)| {
            let seq = pkt.seq();
            let slice = (seq as usize) % tb.slices;
            let mut pkt = BatchPacket { bytes: pkt.into_bytes(), port: tb.split_port(slice), seq };
            tb.stamp_server_mac(&mut pkt);
            pkt
        })
        .collect();
    all.chunks(cfg.packets).map(<[BatchPacket]>::to_vec).collect()
}

/// The store program over the case's `FlowStore` choice.
fn store_switch(
    cfg: &FuzzConfig,
    park: &ParkConfig,
    tb: &SlicedTestbed,
) -> Result<(SwitchModel, StoreControl), String> {
    let total_slots = park.pipes[0].total_slots();
    let blocks = park.primary_blocks;
    let store = match cfg.store {
        StoreChoice::Circular => shared(CircularStore::new(total_slots, blocks)),
        StoreChoice::Slab => shared(SlabStore::new(total_slots, blocks)),
        StoreChoice::SlabSpill { hot_capacity } => {
            shared(SlabStore::with_spill(total_slots, blocks, hot_capacity))
        }
    };
    let (mut sw, control) =
        build_store_switch(park, store).map_err(|e| format!("store build: {e}"))?;
    tb.wire(&mut |mac, port| sw.l2_add(mac, port));
    Ok((sw, control))
}

/// The sharded engine at `workers`.
fn engine(park: &ParkConfig, tb: &SlicedTestbed, workers: usize) -> Result<Engine, String> {
    let mut engine = Engine::new(park, EngineConfig { workers, batch: 32, ring_depth: 4 })
        .map_err(|e| format!("engine ({workers} workers) build: {e}"))?;
    tb.wire(&mut |mac, port| engine.l2_add(mac, port));
    Ok(engine)
}

/// Paths 1-3: the register-backed reference (oracle- and
/// policy-checked), then the store program and the 2- and 4-worker
/// engine, each required to equal it exactly. Returns the reference.
fn differential(
    cfg: &FuzzConfig,
    park: &ParkConfig,
    tb: &SlicedTestbed,
    waves: &[Vec<BatchPacket>],
    adv: &AdversityProfile,
    bug: Bug,
) -> Result<PathResult, String> {
    let sink = tb.sink_mac();
    // Corrupted payloads legitimately deliver broken checksums; every
    // other scenario must deliver parseable, checksum-clean packets.
    let verify_checksums = cfg.adversity.corrupt_permille == 0;

    let (mut sw, handles) = build_switch(park).map_err(|e| format!("reference build: {e}"))?;
    tb.wire(&mut |mac, port| sw.l2_add(mac, port));
    let mut register = (sw, PipeControl::new(handles[0].clone()));
    let mut tally = FaultTally::default();
    let (mut delivered, mut per_wave) = (Vec::new(), Vec::new());
    for wave in waves {
        delivered.extend(two_phase_adverse(&mut register, wave, sink, adv, &mut tally));
        per_wave.push(register.counters());
    }
    let reference = PathResult::capture("reference", &mut register, delivered, tally);
    reference.check_oracle(verify_checksums)?;
    policy_crosscheck(cfg, &per_wave)?;

    let paths: [(String, Box<dyn Dataplane>); 3] = [
        (format!("store ({:?})", cfg.store), Box::new(store_switch(cfg, park, tb)?)),
        ("engine (2 workers)".into(), Box::new(engine(park, tb, 2)?)),
        ("engine (4 workers)".into(), Box::new(engine(park, tb, 4)?)),
    ];
    for (kind, mut dp) in paths {
        let skew = bug == Bug::EngineMergeSkew && kind == "engine (4 workers)";
        let mut path = PathResult::run(kind, &mut *dp, waves, sink, adv);
        if skew {
            path.counters.merges = path.counters.merges.saturating_sub(1);
        }
        path.diff(&reference)?;
        path.check_oracle(verify_checksums)?;
    }
    Ok(reference)
}

/// Steps the adaptive-evictor implementation and the pure model over
/// the reference path's per-wave counter stream. The implementation
/// runs on a detached threshold cell so the cross-check never touches
/// the dataplane under comparison.
fn policy_crosscheck(cfg: &FuzzConfig, per_wave: &[CounterSnapshot]) -> Result<(), String> {
    let adaptive = cfg.adaptive_config();
    let mut model = PolicyModel::new(cfg.expiry.min(adaptive.max_expiry).max(1), adaptive);
    let cell = Arc::new(AtomicU16::new(model.current()));
    let mut real = AdaptivePolicy::new(cell, adaptive);
    for (i, counters) in per_wave.iter().enumerate() {
        let want = model.observe(*counters);
        let got = real.observe(*counters);
        if want != got || model.adjustments() != real.adjustments() {
            return Err(format!(
                "adaptive policy diverged from model at wave {i}: \
                 model threshold {want} ({} adjustments), \
                 implementation {got} ({} adjustments)",
                model.adjustments(),
                real.adjustments()
            ));
        }
    }
    Ok(())
}

/// The cluster leg: same waves and adversity through an N-switch
/// cluster, the membership schedule applied one event per wave
/// boundary, the cluster-wide oracle checked after every step.
fn cluster_run(
    cfg: &FuzzConfig,
    park: &ParkConfig,
    tb: &SlicedTestbed,
    waves: &[Vec<BatchPacket>],
    adv: &AdversityProfile,
) -> Result<(), String> {
    let cl = cfg.cluster.as_ref().expect("cluster leg needs a cluster config");
    let store = match cfg.store {
        StoreChoice::Circular => StoreKind::Circular,
        StoreChoice::Slab => StoreKind::Slab,
        StoreChoice::SlabSpill { hot_capacity } => StoreKind::SlabSpill { hot_capacity },
    };
    let ccfg = ClusterConfig {
        switches: cl.switches,
        seed: cl.seed,
        store,
        link_gbps: 100.0,
        link_propagation: SimDuration::from_micros(1),
    };
    let mut cluster =
        Cluster::new(park, ccfg).map_err(|e| format!("cluster ({} switches): {e}", cl.switches))?;
    tb.wire(&mut |mac, port| cluster.l2_add(mac, port));

    let check = |cluster: &Cluster, when: &str| -> Result<(), String> {
        let report = cluster.check_oracle();
        if report.ok() {
            Ok(())
        } else {
            Err(format!(
                "cluster ({} switches) oracle violated {when}: {}",
                cl.switches,
                report.violations().join("; ")
            ))
        }
    };

    let mut tally = FaultTally::default();
    let mut down: Vec<u32> = Vec::new();
    for (w, wave) in waves.iter().enumerate() {
        two_phase_adverse(&mut cluster, wave, tb.sink_mac(), adv, &mut tally);
        check(&cluster, &format!("after wave {w}"))?;
        if let Some(event) = cl.schedule.get(w) {
            apply_event(&mut cluster, *event, &mut down)
                .map_err(|e| format!("cluster event {event:?} after wave {w}: {e}"))?;
            check(&cluster, &format!("after {event:?} (wave {w})"))?;
        }
    }
    // Internal gauge sanity: the spill tier never exceeds what is parked,
    // and only the spill store ever reports spilled payloads.
    let spilled = cluster.spilled();
    match cfg.store {
        StoreChoice::SlabSpill { .. } => {
            if spilled > cluster.occupancy() {
                return Err(format!(
                    "cluster spill gauge ({spilled}) exceeds occupancy ({})",
                    cluster.occupancy()
                ));
            }
        }
        _ => {
            if spilled != 0 {
                return Err(format!("non-spill store reports {spilled} spilled payloads"));
            }
        }
    }
    Ok(())
}

fn apply_event(
    cluster: &mut Cluster,
    event: ClusterEvent,
    down: &mut Vec<u32>,
) -> Result<(), String> {
    match event {
        ClusterEvent::Join => {
            cluster.join().map_err(|e| e.to_string())?;
        }
        ClusterEvent::Leave => {
            let ids = cluster.switch_ids();
            let alive = ids.len();
            if alive > 1 {
                let id = *ids.iter().max().expect("non-empty cluster");
                cluster.leave(id).map_err(|e| e.to_string())?;
                down.retain(|d| *d != id);
            }
        }
        ClusterEvent::Down => {
            let ids = cluster.switch_ids();
            if let Some(id) = ids.iter().find(|id| !down.contains(id)) {
                cluster.set_down(*id, true);
                down.push(*id);
            }
        }
    }
    Ok(())
}

/// The discrete-event leg: the case's NF chain, traffic mix and
/// adversity through the full Fig. 5 testbed, requiring a clean oracle.
fn des_run(cfg: &FuzzConfig) -> Result<(), String> {
    let chain = match cfg.nf {
        NfChoice::MacSwap => ChainSpec::MacSwap,
        NfChoice::Firewall => ChainSpec::Firewall { rules: 8 },
        NfChoice::Nat => ChainSpec::Nat,
        NfChoice::FwNat => ChainSpec::FwNat { fw_rules: 1 },
        NfChoice::FwNatLb => ChainSpec::FwNatLb { fw_rules: 20 },
    };
    let mix = if cfg.tcp_permille == 0 {
        TrafficMix::UdpOnly
    } else {
        TrafficMix::TcpUdp { tcp_fraction: f64::from(cfg.tcp_permille) / 1000.0 }
    };
    let des = TestbedConfig {
        mix,
        duration: SimDuration::from_micros(cfg.des.duration_us),
        chain,
        flows: 32,
        seed: cfg.wave_seed,
        mode: DeployMode::PayloadPark(ParkParams {
            sram_fraction: f64::from(cfg.des.sram_permille) / 1000.0,
            expiry: cfg.expiry,
            recirculation: false,
            explicit_drop: cfg.des.explicit_drop,
        }),
        adversity: cfg.adversity_profile(),
        ..TestbedConfig::default()
    };
    let report = testbed::run(&des);
    if report.oracle_violations.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "discrete-event leg ({:?}) oracle violated: {}",
            cfg.nf,
            report.oracle_violations.join("; ")
        ))
    }
}

/// Runs one case end to end. See the module docs for what is compared.
pub fn run_case(cfg: &FuzzConfig, bug: Bug) -> CaseOutcome {
    let park = match prescreen(cfg) {
        Ok(park) => park,
        Err(reason) => return CaseOutcome::Skipped { reason },
    };
    let tb = cfg.testbed();
    let adv = cfg.adversity_profile();
    let waves = build_waves(cfg);
    let run = || -> Result<PathResult, String> {
        let reference = differential(cfg, &park, &tb, &waves, &adv, bug)?;
        if cfg.cluster.is_some() {
            cluster_run(cfg, &park, &tb, &waves, &adv)?;
        }
        des_run(cfg)?;
        Ok(reference)
    };
    match run() {
        Ok(reference) => CaseOutcome::Pass(CaseStats {
            splits: reference.counters.splits,
            merges: reference.counters.merges,
            delivered: reference.delivered.len(),
            cluster: cfg.cluster.is_some(),
        }),
        Err(reason) => CaseOutcome::Fail { reason },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An oversized table must be vetoed by the pre-screen, not run.
    #[test]
    fn oversized_tables_are_skipped() {
        let mut cfg = FuzzConfig::generate(0);
        cfg.slots = 8192;
        match run_case(&cfg, Bug::None) {
            CaseOutcome::Skipped { reason } => {
                assert!(reason.contains("rejected"), "unexpected reason: {reason}");
            }
            other => panic!("expected a skip, got {other:?}"),
        }
    }

    /// A small known-good case passes every path.
    #[test]
    fn small_case_is_conformant() {
        let mut cfg = FuzzConfig::generate(1);
        cfg.slices = 4;
        cfg.slots = 48;
        cfg.waves = 1;
        cfg.packets = 40;
        cfg.cluster = None;
        match run_case(&cfg, Bug::None) {
            CaseOutcome::Pass(stats) => assert!(stats.splits > 0, "workload must park"),
            other => panic!("expected a pass, got {other:?}"),
        }
    }

    /// The injected engine-counter bug is detected as a counter
    /// divergence on the 4-worker path.
    #[test]
    fn injected_bug_is_detected() {
        let mut cfg = FuzzConfig::generate(1);
        cfg.slices = 4;
        cfg.slots = 48;
        cfg.waves = 1;
        cfg.packets = 40;
        cfg.cluster = None;
        match run_case(&cfg, Bug::EngineMergeSkew) {
            CaseOutcome::Fail { reason } => {
                assert!(reason.contains("engine (4 workers)"), "wrong path: {reason}");
                assert!(reason.contains("counters diverged"), "wrong defect: {reason}");
            }
            other => panic!("expected a failure, got {other:?}"),
        }
    }
}
