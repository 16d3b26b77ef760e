//! One Criterion benchmark per paper figure/table.
//!
//! Each bench exercises the distinctive configuration of its figure — the
//! chain, workload, deployment and switch program — as a single
//! representative testbed run (the full sweeps that regenerate the series
//! live in `pp-exp`; running a whole sweep per Criterion sample would take
//! hours). `fig06` and `table1` are cheap enough to run whole.

use criterion::{criterion_group, criterion_main, Criterion};
use pp_harness::experiments::{fig06, fig10_11_pipe, table1};
use pp_harness::testbed::{
    run, run_servers, ChainSpec, DeployMode, FrameworkKind, ParkParams, TestbedConfig,
};
use pp_netsim::time::SimDuration;
use pp_nf::nfs::NF_MEDIUM_CYCLES;
use pp_nf::server::ServerProfile;
use pp_trafficgen::gen::SizeModel;
use std::hint::black_box;
use std::time::Duration;

fn server() -> ServerProfile {
    ServerProfile { cpu_hz: 2.3e9, ..Default::default() }
}

fn cfg(
    nic: f64,
    rate: f64,
    sizes: SizeModel,
    chain: ChainSpec,
    fw: FrameworkKind,
    mode: DeployMode,
) -> TestbedConfig {
    TestbedConfig {
        nic_gbps: nic,
        rate_gbps: rate,
        sizes,
        mix: pp_trafficgen::gen::TrafficMix::UdpOnly,
        duration: SimDuration::from_millis(3),
        chain,
        framework: fw,
        server: server(),
        flows: 64,
        seed: 5,
        mode,
        ..Default::default()
    }
}

fn park() -> DeployMode {
    DeployMode::PayloadPark(ParkParams::default())
}

fn bench_figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(5));

    g.bench_function("fig06_workload_cdf", |b| b.iter(|| black_box(fig06().points().len())));

    // Fig 7 / Fig 13: FW→NAT→LB on NetBricks, 10GE enterprise, at 11 Gbps.
    let fig07_cfg = |recirc| {
        let mode =
            DeployMode::PayloadPark(ParkParams { recirculation: recirc, ..Default::default() });
        cfg(
            10.0,
            11.0,
            SizeModel::Enterprise,
            ChainSpec::FwNatLb { fw_rules: 20 },
            FrameworkKind::NetBricks,
            mode,
        )
    };
    g.bench_function("fig07_chain_goodput", |b| {
        let c = fig07_cfg(false);
        b.iter(|| black_box(run(&c).goodput_gbps))
    });
    g.bench_function("fig13_recirculation", |b| {
        let c = fig07_cfg(true);
        b.iter(|| black_box(run(&c).goodput_gbps))
    });

    // Fig 8/9: fixed 384 B, FW→NAT on OpenNetVM at 40GE.
    g.bench_function("fig08_fig09_fixed_sizes", |b| {
        let c = cfg(
            40.0,
            14.0,
            SizeModel::Fixed(384),
            ChainSpec::FwNat { fw_rules: 1 },
            FrameworkKind::OpenNetVm,
            park(),
        );
        b.iter(|| {
            let r = run(&c);
            black_box((r.goodput_gbps, r.pcie_gbps))
        })
    });

    // Fig 10/11: the two-slice multi-server pipe.
    g.bench_function("fig10_fig11_multi_server", |b| {
        let c = TestbedConfig {
            rate_gbps: 4.0,
            duration: SimDuration::from_millis(3),
            ..fig10_11_pipe(true)
        };
        b.iter(|| black_box(run_servers(&c)[0].goodput_gbps))
    });

    // Fig 12: FW(40% drops)→NAT with explicit drops at EXP=10.
    g.bench_function("fig12_explicit_drop", |b| {
        let c = cfg(
            40.0,
            6.0,
            SizeModel::Enterprise,
            ChainSpec::FwNatBlacklist { blocked_pct: 40 },
            FrameworkKind::OpenNetVm,
            DeployMode::PayloadPark(ParkParams {
                expiry: 10,
                explicit_drop: true,
                ..Default::default()
            }),
        );
        b.iter(|| black_box(run(&c).goodput_gbps))
    });

    // Fig 14: the smallest memory fraction under load.
    g.bench_function("fig14_memory_sweep", |b| {
        let c = cfg(
            40.0,
            16.0,
            SizeModel::Fixed(384),
            ChainSpec::FwNat { fw_rules: 1 },
            FrameworkKind::OpenNetVm,
            DeployMode::PayloadPark(ParkParams {
                sram_fraction: 0.1781,
                expiry: 1,
                ..Default::default()
            }),
        );
        b.iter(|| black_box(run(&c).health.premature_eviction_drops))
    });

    // Fig 15: NF-Medium at 256 B.
    g.bench_function("fig15_nf_cycles", |b| {
        let c = cfg(
            40.0,
            10.0,
            SizeModel::Fixed(256),
            ChainSpec::Synthetic { cycles: NF_MEDIUM_CYCLES },
            FrameworkKind::OpenNetVm,
            park(),
        );
        b.iter(|| black_box(run(&c).goodput_gbps))
    });

    // Fig 16: 512 B past the baseline's saturation.
    g.bench_function("fig16_small_packets", |b| {
        let c = cfg(
            40.0,
            18.0,
            SizeModel::Fixed(512),
            ChainSpec::FwNat { fw_rules: 1 },
            FrameworkKind::OpenNetVm,
            park(),
        );
        b.iter(|| black_box(run(&c).avg_latency_us))
    });

    // §6.2.1 headline: enterprise FW→NAT at 40GE.
    g.bench_function("headline_sec621", |b| {
        let c = cfg(
            40.0,
            12.0,
            SizeModel::Enterprise,
            ChainSpec::FwNat { fw_rules: 1 },
            FrameworkKind::OpenNetVm,
            park(),
        );
        b.iter(|| black_box(run(&c).pcie_gbps))
    });

    g.bench_function("table1_resources", |b| b.iter(|| black_box(table1().len())));

    g.finish();
}

criterion_group!(figures, bench_figures);
criterion_main!(figures);
