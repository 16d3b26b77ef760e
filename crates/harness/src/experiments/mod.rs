//! One runner per figure/table of the paper's evaluation.
//!
//! Each function returns a [`Series`] whose rendered text table is this
//! repository's equivalent of the figure. [`Effort`] scales simulation
//! windows and sweep densities: `Quick` keeps integration tests fast,
//! `Full` is what the `pp-exp` binary and the Criterion benches run.
//!
//! The per-experiment parameters (NIC speed, framework, chain, memory
//! fraction, expiry threshold) follow §6.1 of the paper PAPER.md cites; each
//! runner's doc (`fig07`, `fig08_09`, …) names its figure and setting.

pub mod adversity;
pub mod cluster;
pub mod throughput;

pub use adversity::{adversity as adversity_sweep, adversity_report};
pub use cluster::{cluster_blackout, cluster_goodput, cluster_telemetry};
pub use throughput::{
    telemetry_overhead, throughput as emulator_throughput, throughput_telemetry, OverheadReport,
};

use crate::runner::find_peak_goodput;
use crate::testbed::{
    run, run_servers, ChainSpec, DeployMode, FrameworkKind, ParkParams, RunReport, TestbedConfig,
};
use payloadpark::program::build_switch;
use payloadpark::PipeControl;
use pp_metrics::Series;
use pp_netsim::time::SimDuration;
use pp_nf::nfs::{NF_HEAVY_CYCLES, NF_LIGHT_CYCLES, NF_MEDIUM_CYCLES};
use pp_nf::server::ServerProfile;
use pp_trafficgen::enterprise::EnterpriseDistribution;
use pp_trafficgen::gen::{SizeModel, TrafficMix};

/// Sweep density / simulation-window scaling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Small windows, sparse sweeps — for tests.
    Quick,
    /// The real experiment parameters — for the `pp-exp` binary and benches.
    Full,
}

impl Effort {
    fn duration(self) -> SimDuration {
        match self {
            Effort::Quick => SimDuration::from_millis(6),
            Effort::Full => SimDuration::from_millis(40),
        }
    }
    fn coarse(self) -> usize {
        match self {
            Effort::Quick => 4,
            Effort::Full => 7,
        }
    }
    fn refine(self) -> usize {
        match self {
            Effort::Quick => 2,
            Effort::Full => 4,
        }
    }
}

/// The main rig's server model (60-core 2.3 GHz Xeon E7-4870v2, §6.1).
fn main_rig() -> ServerProfile {
    ServerProfile {
        cpu_hz: 2.3e9,
        // Deep, slow service-rate dips (frequency scaling / interference):
        // near saturation these create the multi-millisecond queue
        // excursions that exhaust the lookup table (Figs. 14/15).
        modulation_amplitude: 0.12,
        modulation_period: SimDuration::from_millis(25),
        ..Default::default()
    }
}

fn base_config(effort: Effort) -> TestbedConfig {
    TestbedConfig {
        duration: effort.duration(),
        server: main_rig(),
        seed: 42,
        ..Default::default()
    }
}

fn peak(cfg: &TestbedConfig, effort: Effort, hi: f64) -> RunReport {
    find_peak_goodput(cfg, 0.5, hi, effort.coarse(), effort.refine()).report
}

// ---------------------------------------------------------------------
// Fig. 6 — workload packet-size CDF
// ---------------------------------------------------------------------

/// Fig. 6: the enterprise-datacenter packet-size CDF.
pub fn fig06() -> Series {
    let mut s = Series::new(
        "Fig 6: packet size CDF, enterprise datacenter workload",
        "size_bytes",
        vec!["cdf".into()],
    );
    for (size, cdf) in EnterpriseDistribution::figure_series() {
        s.push(size as f64, vec![cdf]);
    }
    s
}

// ---------------------------------------------------------------------
// Fig. 7 / Fig. 13 — FW→NAT→LB goodput & latency vs send rate
// ---------------------------------------------------------------------

/// A baseline-vs-PayloadPark send-rate sweep over one testbed
/// configuration: the Fig. 7-style shape (goodput, average latency and
/// PCIe bandwidth per deployment at each rate), shared by every sweep
/// that renders it.
fn rate_sweep(title: &str, rates: &[f64], mut cfg: TestbedConfig, park: ParkParams) -> Series {
    let mut series = Series::new(
        title,
        "send_gbps",
        vec![
            "goodput_base_gbps".into(),
            "goodput_pp_gbps".into(),
            "latency_base_us".into(),
            "latency_pp_us".into(),
            "pcie_base_gbps".into(),
            "pcie_pp_gbps".into(),
        ],
    );
    for &rate in rates {
        cfg.rate_gbps = rate;
        cfg.mode = DeployMode::Baseline;
        let base = run(&cfg);
        cfg.mode = DeployMode::PayloadPark(park);
        let park = run(&cfg);
        series.push(
            rate,
            vec![
                base.goodput_gbps,
                park.goodput_gbps,
                base.avg_latency_us,
                park.avg_latency_us,
                base.pcie_gbps,
                park.pcie_gbps,
            ],
        );
    }
    series
}

/// Fig. 7: FW→NAT→LB on NetBricks over 10 GE, goodput and average latency
/// vs send rate; `recirculation` turns it into Fig. 13 (384 B parked).
pub fn fig07(effort: Effort, recirculation: bool) -> Series {
    let rates: Vec<f64> = match effort {
        Effort::Quick => vec![2.0, 6.0, 10.0, 12.0],
        Effort::Full => vec![1.0, 2.0, 4.0, 6.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0],
    };
    let title = if recirculation {
        "Fig 13: FW->NAT->LB on NetBricks, 10GE, with recirculation (384B parked)"
    } else {
        "Fig 7: FW->NAT->LB on NetBricks, 10GE (160B parked)"
    };
    let mut cfg = base_config(effort);
    cfg.nic_gbps = 10.0;
    cfg.framework = FrameworkKind::NetBricks;
    cfg.chain = ChainSpec::FwNatLb { fw_rules: 20 };
    cfg.sizes = SizeModel::Enterprise;
    rate_sweep(title, &rates, cfg, ParkParams { recirculation, ..Default::default() })
}

/// The Fig. 7/8/9-style goodput sweep on the *mixed TCP+UDP* enterprise
/// wave — the traffic composition the paper's target datacenters actually
/// carry (70 % of flows are TCP connections with SYN/data/FIN phases).
/// FW→NAT on OpenNetVM over 40 GE: goodput, latency and PCIe bandwidth vs
/// send rate, baseline against PayloadPark parking both protocols.
pub fn mixed_goodput(effort: Effort) -> Series {
    let rates: Vec<f64> = match effort {
        Effort::Quick => vec![4.0, 12.0, 20.0],
        Effort::Full => vec![2.0, 6.0, 10.0, 14.0, 18.0, 22.0, 26.0, 30.0],
    };
    let mut cfg = base_config(effort);
    cfg.nic_gbps = 40.0;
    cfg.framework = FrameworkKind::OpenNetVm;
    cfg.chain = ChainSpec::FwNat { fw_rules: 1 };
    cfg.sizes = SizeModel::Enterprise;
    cfg.mix = TrafficMix::TcpUdp { tcp_fraction: 0.7 };
    rate_sweep(
        "Mixed TCP+UDP enterprise wave: FW->NAT on OpenNetVM, 40GE (70% TCP flows)",
        &rates,
        cfg,
        ParkParams::default(),
    )
}

/// One representative PayloadPark run of the mixed TCP+UDP sweep at a
/// mid-sweep send rate — the run `pp-exp mixed --telemetry FILE` exports.
pub fn mixed_report(effort: Effort) -> RunReport {
    let mut cfg = base_config(effort);
    cfg.nic_gbps = 40.0;
    cfg.framework = FrameworkKind::OpenNetVm;
    cfg.chain = ChainSpec::FwNat { fw_rules: 1 };
    cfg.sizes = SizeModel::Enterprise;
    cfg.mix = TrafficMix::TcpUdp { tcp_fraction: 0.7 };
    cfg.rate_gbps = 12.0;
    cfg.mode = DeployMode::PayloadPark(ParkParams::default());
    run(&cfg)
}

/// §6.2.1 headline: FW→NAT on OpenNetVM over 40 GE with the enterprise
/// workload — peak goodput baseline vs PayloadPark (+15.6 % in the paper)
/// and the PCIe saving (12 %).
pub fn headline_fw_nat_40g(effort: Effort) -> Series {
    let mut cfg = base_config(effort);
    cfg.nic_gbps = 40.0;
    cfg.framework = FrameworkKind::OpenNetVm;
    cfg.chain = ChainSpec::FwNat { fw_rules: 1 };
    cfg.sizes = SizeModel::Enterprise;
    cfg.mode = DeployMode::Baseline;
    let base = peak(&cfg, effort, 60.0);
    cfg.mode = DeployMode::PayloadPark(ParkParams::default());
    let park = peak(&cfg, effort, 60.0);
    let mut s = Series::new(
        "Sec 6.2.1: FW->NAT on OpenNetVM, 40GE, enterprise workload (peak)",
        "row",
        vec![
            "goodput_base_gbps".into(),
            "goodput_pp_gbps".into(),
            "gain_pct".into(),
            "pcie_base_gbps".into(),
            "pcie_pp_gbps".into(),
            "pcie_saving_pct".into(),
        ],
    );
    let gain = (park.goodput_gbps / base.goodput_gbps - 1.0) * 100.0;
    let pcie_saving = (1.0 - park.pcie_gbps / base.pcie_gbps) * 100.0;
    s.push(
        0.0,
        vec![
            base.goodput_gbps,
            park.goodput_gbps,
            gain,
            base.pcie_gbps,
            park.pcie_gbps,
            pcie_saving,
        ],
    );
    s
}

// ---------------------------------------------------------------------
// Figs. 8 & 9 — fixed packet sizes: peak goodput and PCIe utilization
// ---------------------------------------------------------------------

/// Figs. 8 and 9: peak goodput (higher is better) and PCIe bandwidth at
/// peak (lower is better) across fixed packet sizes for Firewall, NAT and
/// FW→NAT on OpenNetVM over 40 GE.
pub fn fig08_09(effort: Effort) -> (Series, Series) {
    let sizes: Vec<usize> = match effort {
        Effort::Quick => vec![256, 512, 1492],
        Effort::Full => vec![256, 384, 512, 1024, 1492],
    };
    let chains: [(&str, ChainSpec); 3] = [
        ("fw", ChainSpec::Firewall { rules: 1 }),
        ("nat", ChainSpec::Nat),
        ("fw_nat", ChainSpec::FwNat { fw_rules: 1 }),
    ];
    let mut cols = Vec::new();
    for (name, _) in &chains {
        cols.push(format!("{name}_base"));
        cols.push(format!("{name}_pp"));
    }
    let mut goodput = Series::new(
        "Fig 8: peak goodput (Gbps) vs packet size, 40GE OpenNetVM",
        "pkt_bytes",
        cols.clone(),
    );
    let mut pcie = Series::new(
        "Fig 9: PCIe bandwidth (Gbps) at peak vs packet size, 40GE OpenNetVM",
        "pkt_bytes",
        cols,
    );
    for &size in &sizes {
        let mut grow = Vec::new();
        let mut prow = Vec::new();
        for (_, chain) in &chains {
            let mut cfg = base_config(effort);
            cfg.nic_gbps = 40.0;
            cfg.framework = FrameworkKind::OpenNetVm;
            cfg.chain = *chain;
            cfg.sizes = SizeModel::Fixed(size);
            cfg.mode = DeployMode::Baseline;
            let base = peak(&cfg, effort, 50.0);
            cfg.mode = DeployMode::PayloadPark(ParkParams::default());
            let park = peak(&cfg, effort, 50.0);
            grow.push(base.goodput_gbps);
            grow.push(park.goodput_gbps);
            prow.push(base.pcie_gbps);
            prow.push(park.pcie_gbps);
        }
        goodput.push(size as f64, grow);
        pcie.push(size as f64, prow);
    }
    (goodput, pcie)
}

// ---------------------------------------------------------------------
// Figs. 10 & 11 — eight NF servers
// ---------------------------------------------------------------------

/// One pipe of Figs. 10-11: two NF servers, one per memory slice, running
/// the MAC swapper on 384 B packets over 40 GE, on the 8-server rig's
/// weaker machines (2.4 GHz Xeons with E5-2407v2-class memory, §6.1).
/// `park` deploys PayloadPark with ≈ 40 % of the pipe's SRAM, split
/// between the two slices; otherwise the baseline.
pub fn fig10_11_pipe(park: bool) -> TestbedConfig {
    TestbedConfig {
        servers: 2,
        nic_gbps: 40.0,
        sizes: SizeModel::Fixed(384),
        chain: ChainSpec::MacSwap,
        framework: FrameworkKind::OpenNetVm,
        server: ServerProfile {
            cpu_hz: 2.4e9,
            modulation_period: SimDuration::from_millis(10),
            ..Default::default()
        },
        per_byte_cycles: Some(1.2),
        mode: if park {
            DeployMode::PayloadPark(ParkParams { sram_fraction: 0.40, ..Default::default() })
        } else {
            DeployMode::Baseline
        },
        ..Default::default()
    }
}

/// Figs. 10 and 11: per-server goodput and latency for 8 NF servers
/// (4 pipes × 2 slices, MAC swapper, 384 B packets, ~40 % SRAM reserved).
///
/// The four pipes are independent (no shared stateful memory), so they run
/// as four parallel two-server testbeds with distinct seeds.
pub fn fig10_11(effort: Effort) -> (Series, Series) {
    let cfg = |seed: u64, park: bool, rate: f64| TestbedConfig {
        rate_gbps: rate,
        duration: effort.duration(),
        seed,
        ..fig10_11_pipe(park)
    };

    // Find a sustainable per-server rate for each mode on pipe 0, then run
    // every pipe at that rate (the paper drives all servers identically).
    let probe = |park: bool| -> f64 {
        let mut rate = 2.0;
        let mut best = rate;
        while rate <= 16.0 {
            let reports = run_servers(&cfg(1, park, rate));
            if reports.iter().all(|r| r.healthy()) {
                best = rate;
            } else {
                break;
            }
            rate += match effort {
                Effort::Quick => 3.0,
                Effort::Full => 1.0,
            };
        }
        best
    };
    let rate_base = probe(false);
    let rate_park = probe(true);

    // Per pipe: baseline at its peak, PayloadPark at its (higher) peak for
    // the goodput comparison, and PayloadPark at the *baseline's* rate for
    // the like-for-like latency comparison (the paper's latency win is the
    // PCIe saving at comparable load, §6.2.3).
    let mut per_server: Vec<(RunReport, RunReport, RunReport)> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4u64)
            .map(|pipe| {
                let cfg = &cfg;
                scope.spawn(move || {
                    let b = run_servers(&cfg(pipe + 1, false, rate_base));
                    let p = run_servers(&cfg(pipe + 1, true, rate_park));
                    let pl = run_servers(&cfg(pipe + 1, true, rate_base));
                    b.into_iter().zip(p).zip(pl).map(|((b, p), pl)| (b, p, pl)).collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            per_server.extend(h.join().expect("pipe thread"));
        }
    });

    let mut goodput = Series::new(
        "Fig 10: per-server peak goodput, 8 NF servers, 384B MAC-swap",
        "server",
        vec!["baseline_gbps".into(), "payloadpark_gbps".into()],
    );
    let mut latency = Series::new(
        "Fig 11: per-server avg latency at the baseline's peak rate, 8 NF servers",
        "server",
        vec!["baseline_us".into(), "payloadpark_us".into()],
    );
    for (i, (b, p, pl)) in per_server.iter().enumerate() {
        goodput.push((i + 1) as f64, vec![b.goodput_gbps, p.goodput_gbps]);
        latency.push((i + 1) as f64, vec![b.avg_latency_us, pl.avg_latency_us]);
    }
    (goodput, latency)
}

// ---------------------------------------------------------------------
// Fig. 12 — explicit drops vs eviction policy
// ---------------------------------------------------------------------

/// Fig. 12: peak goodput with/without Explicit Drops at expiry thresholds
/// 2 and 10, as the firewall's blacklist fraction varies (FW→NAT,
/// enterprise workload, 40 GE OpenNetVM).
pub fn fig12(effort: Effort) -> Series {
    let drop_pcts: Vec<u8> = match effort {
        Effort::Quick => vec![0, 40],
        Effort::Full => vec![0, 10, 20, 40],
    };
    let variants: [(&str, Option<(u16, bool)>); 4] = [
        ("baseline", None),
        ("noexp_exp2", Some((2, false))),
        ("noexp_exp10", Some((10, false))),
        ("exp_exp10", Some((10, true))),
    ];
    let mut series = Series::new(
        "Fig 12: peak goodput (Gbps) vs firewall drop rate, FW->NAT enterprise",
        "blocked_pct",
        variants.iter().map(|(n, _)| n.to_string()).collect(),
    );
    for &pct in &drop_pcts {
        let mut row = Vec::new();
        for (_, v) in &variants {
            let mut cfg = base_config(effort);
            cfg.nic_gbps = 40.0;
            cfg.framework = FrameworkKind::OpenNetVm;
            cfg.chain = ChainSpec::FwNatBlacklist { blocked_pct: pct };
            cfg.sizes = SizeModel::Enterprise;
            cfg.mode = match v {
                None => DeployMode::Baseline,
                Some((expiry, explicit)) => DeployMode::PayloadPark(ParkParams {
                    expiry: *expiry,
                    explicit_drop: *explicit,
                    ..Default::default()
                }),
            };
            row.push(peak(&cfg, effort, 60.0).goodput_gbps);
        }
        series.push(f64::from(pct), row);
    }
    series
}

// ---------------------------------------------------------------------
// Fig. 14 — reserved memory sweep
// ---------------------------------------------------------------------

/// Fig. 14: peak goodput with zero premature evictions vs the fraction of
/// pipe SRAM reserved (384 B packets, FW→NAT, EXP = 1).
pub fn fig14(effort: Effort) -> Series {
    // The paper's measured operating points: 17.81 / 21.56 / 25.94 %.
    let fractions = [0.1781, 0.2156, 0.2594];
    let mut series = Series::new(
        "Fig 14: peak goodput (Gbps) vs % of pipe SRAM reserved, 384B FW->NAT EXP=1",
        "sram_pct",
        vec!["payloadpark_gbps".into(), "baseline_gbps".into()],
    );
    let mut cfg = base_config(effort);
    // Long windows: the eviction-vs-memory tradeoff needs several
    // modulation cycles to surface.
    cfg.duration = SimDuration::from_nanos(effort.duration().nanos() * 3);
    cfg.nic_gbps = 40.0;
    cfg.framework = FrameworkKind::OpenNetVm;
    cfg.chain = ChainSpec::FwNat { fw_rules: 1 };
    cfg.sizes = SizeModel::Fixed(384);
    cfg.mode = DeployMode::Baseline;
    let baseline = peak(&cfg, effort, 50.0).goodput_gbps;
    for &f in &fractions {
        cfg.mode = DeployMode::PayloadPark(ParkParams {
            sram_fraction: f,
            expiry: 1,
            ..Default::default()
        });
        let park = peak(&cfg, effort, 50.0);
        series.push(f * 100.0, vec![park.goodput_gbps, baseline]);
    }
    series
}

// ---------------------------------------------------------------------
// Fig. 15 — NF computational cost
// ---------------------------------------------------------------------

/// Fig. 15: peak goodput for NF-Light/Medium/Heavy across packet sizes
/// (40 GE, OpenNetVM).
pub fn fig15(effort: Effort) -> Series {
    let sizes: Vec<usize> = match effort {
        Effort::Quick => vec![256, 1492],
        Effort::Full => vec![256, 384, 1024, 1492],
    };
    let nfs: [(&str, u64); 3] =
        [("light", NF_LIGHT_CYCLES), ("medium", NF_MEDIUM_CYCLES), ("heavy", NF_HEAVY_CYCLES)];
    let mut cols = Vec::new();
    for (n, _) in &nfs {
        cols.push(format!("{n}_base"));
        cols.push(format!("{n}_pp"));
    }
    let mut series = Series::new(
        "Fig 15: peak goodput (Gbps) for NF-Light/Medium/Heavy vs packet size",
        "pkt_bytes",
        cols,
    );
    for &size in &sizes {
        let mut row = Vec::new();
        for (_, cycles) in &nfs {
            let mut cfg = base_config(effort);
            cfg.nic_gbps = 40.0;
            cfg.framework = FrameworkKind::OpenNetVm;
            cfg.chain = ChainSpec::Synthetic { cycles: *cycles };
            cfg.sizes = SizeModel::Fixed(size);
            cfg.mode = DeployMode::Baseline;
            let base = peak(&cfg, effort, 50.0);
            cfg.mode = DeployMode::PayloadPark(ParkParams::default());
            let park = peak(&cfg, effort, 50.0);
            row.push(base.goodput_gbps);
            row.push(park.goodput_gbps);
        }
        series.push(size as f64, row);
    }
    series
}

// ---------------------------------------------------------------------
// Fig. 16 — small fixed packets past saturation
// ---------------------------------------------------------------------

/// Fig. 16: goodput and latency vs send rate for 512 B packets, FW→NAT on
/// OpenNetVM over 40 GE — the baseline caps while PayloadPark continues.
pub fn fig16(effort: Effort) -> Series {
    let rates: Vec<f64> = match effort {
        Effort::Quick => vec![4.0, 12.0, 20.0],
        Effort::Full => vec![4.0, 8.0, 12.0, 14.0, 16.0, 18.0, 20.0, 24.0],
    };
    let mut series = Series::new(
        "Fig 16: 512B FW->NAT on OpenNetVM, 40GE: goodput & latency vs send rate",
        "send_gbps",
        vec![
            "goodput_base_gbps".into(),
            "goodput_pp_gbps".into(),
            "latency_base_us".into(),
            "latency_pp_us".into(),
        ],
    );
    let mut cfg = base_config(effort);
    cfg.nic_gbps = 40.0;
    cfg.framework = FrameworkKind::OpenNetVm;
    cfg.chain = ChainSpec::FwNat { fw_rules: 1 };
    cfg.sizes = SizeModel::Fixed(512);
    for &rate in &rates {
        cfg.rate_gbps = rate;
        cfg.mode = DeployMode::Baseline;
        let base = run(&cfg);
        cfg.mode = DeployMode::PayloadPark(ParkParams::default());
        let park = run(&cfg);
        series.push(
            rate,
            vec![base.goodput_gbps, park.goodput_gbps, base.avg_latency_us, park.avg_latency_us],
        );
    }
    series
}

// ---------------------------------------------------------------------
// Table 1 — resource utilization
// ---------------------------------------------------------------------

/// Table 1: switch resource utilization for the 4-server deployment (one
/// slice per pipe at ≈26 % SRAM) and the 8-server deployment (two slices
/// per pipe at ≈40 % total). Returns the rendered text.
pub fn table1() -> String {
    let build = |cfg: TestbedConfig| -> String {
        let park = cfg.park_config().expect("a PayloadPark deployment");
        let (switch, handles) = build_switch(&park).expect("park builds");
        PipeControl::new(handles[0].clone()).resource_report(&switch).render()
    };
    let four_servers = TestbedConfig {
        mode: DeployMode::PayloadPark(ParkParams::default()),
        ..Default::default()
    };

    let mut out = String::new();
    out.push_str("# Table 1: resource utilization on the emulated chip\n\n");
    out.push_str("## 4 NF servers (1 per pipe, ~26% SRAM reserved per pipe)\n");
    out.push_str(&build(four_servers));
    out.push_str("\n## 8 NF servers (2 per pipe, ~40% SRAM reserved per pipe)\n");
    out.push_str(&build(fig10_11_pipe(true)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig06_series_shape() {
        let s = fig06();
        assert!(s.points().len() >= 5);
        assert_eq!(s.points().first().unwrap().values[0], 0.0);
        assert_eq!(s.points().last().unwrap().values[0], 1.0);
    }

    #[test]
    fn table1_mentions_all_resources() {
        let t = table1();
        for key in ["SRAM", "TCAM", "VLIW", "Crossbar", "Packet Header"] {
            assert!(t.contains(key), "missing {key} in:\n{t}");
        }
        assert!(t.contains("4 NF servers"));
        assert!(t.contains("8 NF servers"));
    }

    #[test]
    fn fig07_quick_shows_park_advantage_at_overload() {
        let s = fig07(Effort::Quick, false);
        let base = s.column("goodput_base_gbps").unwrap();
        let park = s.column("goodput_pp_gbps").unwrap();
        // At the highest send rate (12G > 10GE link), PayloadPark must beat
        // the baseline; below saturation they tie.
        let last = base.len() - 1;
        assert!(park[last] > base[last] * 1.02, "park {} base {}", park[last], base[last]);
        assert!((park[0] - base[0]).abs() / base[0] < 0.05);
        // And it saves PCIe bandwidth everywhere.
        let pcie_b = s.column("pcie_base_gbps").unwrap();
        let pcie_p = s.column("pcie_pp_gbps").unwrap();
        assert!(pcie_p.iter().zip(&pcie_b).all(|(p, b)| p < b));
    }

    #[test]
    fn mixed_goodput_quick_parks_the_tcp_wave() {
        let s = mixed_goodput(Effort::Quick);
        let base = s.column("goodput_base_gbps").unwrap();
        let park = s.column("goodput_pp_gbps").unwrap();
        // Below saturation they tie; at the top rate parking must win.
        assert!((park[0] - base[0]).abs() / base[0] < 0.05, "park {} base {}", park[0], base[0]);
        let last = base.len() - 1;
        assert!(park[last] > base[last] * 1.02, "park {} base {}", park[last], base[last]);
    }

    #[test]
    fn fig16_quick_baseline_caps_first() {
        let s = fig16(Effort::Quick);
        let base = s.column("goodput_base_gbps").unwrap();
        let park = s.column("goodput_pp_gbps").unwrap();
        let last = base.len() - 1;
        assert!(park[last] > base[last], "park {} base {}", park[last], base[last]);
    }
}
