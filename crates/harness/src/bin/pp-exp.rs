//! `pp-exp` — regenerate the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! pp-exp <experiment> [--quick] [--out FILE] [--tolerance T] [--telemetry FILE]
//!
//! experiments: fig06 fig07 fig08 fig09 fig10 fig11 fig12 fig13 fig14
//!              fig15 fig16 table1 headline mixed throughput adversity
//!              overhead cluster all
//! ```
//!
//! Each experiment prints a text table (the repository's rendering of the
//! corresponding figure). `--quick` uses the reduced test-effort sweep.
//! Unknown flags and experiments are rejected with this usage and exit
//! code 2 — see [`pp_harness::cli`].
//!
//! Three experiments measure the reproduction itself and emit JSON series
//! on stdout for dashboards and trend tracking: `throughput` (scalar
//! pipeline vs the `pp_fastpath` engine at 1/2/4/8 workers), `adversity`
//! (goodput/eviction curves vs injected NF-leg loss under a fixed scenario
//! seed — the same seed always produces byte-identical output, so the
//! series doubles as a replay/regression artifact), and `overhead` (the
//! scalar hot path with the always-on telemetry — flight recorder + stage
//! profiling — vs with it switched off; exits 1 when the slowdown exceeds
//! `--tolerance`, default 3 %).
//!
//! For `throughput` and `cluster`, `--out FILE` also writes the JSON
//! series to `FILE`. Neither is a performance gate: the repository's
//! benchmark is `pp-bench` (see `pp-bench/BENCHMARK.md`).
//!
//! `cluster` sweeps the distributed parking tier: round-trip goodput at
//! 1/2/4 switches plus the one-switch-blackout drill, asserted
//! oracle-clean with the survivors serving. Its `--telemetry FILE`
//! snapshot carries per-switch labelled dataplane families and the
//! `pp_cluster_*` aggregates.
//!
//! `--telemetry FILE` (on `throughput`, `mixed`, `adversity` and
//! `cluster`) writes a
//! Prometheus text-exposition snapshot of a representative run's dataplane
//! telemetry — the PayloadPark counters, switch statistics, park-table
//! occupancy, fault tally, and (for `throughput`) per-shard ring
//! high-water marks.

use pp_harness::cli;
use pp_harness::experiments::{
    adversity_report, adversity_sweep, cluster_blackout, cluster_goodput, cluster_telemetry,
    emulator_throughput, fig06, fig07, fig08_09, fig10_11, fig12, fig14, fig15, fig16,
    headline_fw_nat_40g, mixed_goodput, mixed_report, table1, telemetry_overhead,
    throughput_telemetry, Effort,
};
use pp_harness::telemetry::{registry_from_report, write_prom};
use pp_metrics::MetricsRegistry;

/// Default `overhead` gate: telemetry may cost at most 3 % of scalar pps.
const DEFAULT_OVERHEAD_TOLERANCE: f64 = 0.03;

fn write_telemetry(path: &str, registry: &MetricsRegistry) {
    if let Err(e) = write_prom(std::path::Path::new(path), registry) {
        eprintln!("failed to write telemetry {path}: {e}");
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match cli::parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("pp-exp: {e}");
            eprintln!("{}", cli::usage());
            std::process::exit(2);
        }
    };
    let effort = if cli.quick { Effort::Quick } else { Effort::Full };
    let want = |name: &str| cli.which == name || cli.which == "all";

    if want("fig06") {
        println!("{}", fig06().render());
    }
    if want("fig07") {
        println!("{}", fig07(effort, false).render());
    }
    if want("fig08") || want("fig09") {
        let (g, p) = fig08_09(effort);
        if want("fig08") {
            println!("{}", g.render());
        }
        if want("fig09") {
            println!("{}", p.render());
        }
    }
    if want("fig10") || want("fig11") {
        let (g, l) = fig10_11(effort);
        if want("fig10") {
            println!("{}", g.render());
        }
        if want("fig11") {
            println!("{}", l.render());
        }
    }
    if want("fig12") {
        println!("{}", fig12(effort).render());
    }
    if want("fig13") {
        println!("{}", fig07(effort, true).render());
    }
    if want("fig14") {
        println!("{}", fig14(effort).render());
    }
    if want("fig15") {
        println!("{}", fig15(effort).render());
    }
    if want("fig16") {
        println!("{}", fig16(effort).render());
    }
    if want("headline") {
        println!("{}", headline_fw_nat_40g(effort).render());
    }
    if want("mixed") {
        println!("{}", mixed_goodput(effort).render());
        if let Some(path) = &cli.telemetry {
            let reg = registry_from_report(&mixed_report(effort), &[("experiment", "mixed")]);
            write_telemetry(path, &reg);
        }
    }
    if want("table1") {
        println!("{}", table1());
    }
    if want("throughput") {
        // Machine-readable JSON series.
        let series = emulator_throughput(effort);
        let json = series.render_json();
        println!("{json}");
        if let Some(path) = &cli.out {
            if let Err(e) = std::fs::write(path, format!("{json}\n")) {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
        if let Some(path) = &cli.telemetry {
            write_telemetry(path, &throughput_telemetry(effort));
        }
    }
    if want("adversity") {
        // Machine-readable and byte-reproducible for a given seed: CI
        // uploads this series as an artifact on every push.
        println!("{}", adversity_sweep(effort).render_json());
        if let Some(path) = &cli.telemetry {
            let reg =
                registry_from_report(&adversity_report(effort), &[("experiment", "adversity")]);
            write_telemetry(path, &reg);
        }
    }
    if want("cluster") {
        // Machine-readable like `throughput`.
        let series = cluster_goodput(effort);
        let json = series.render_json();
        println!("{json}");
        println!("{}", cluster_blackout(effort).render());
        if let Some(path) = &cli.out {
            if let Err(e) = std::fs::write(path, format!("{json}\n")) {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
        if let Some(path) = &cli.telemetry {
            write_telemetry(path, &cluster_telemetry(effort));
        }
    }
    if want("overhead") {
        let report = telemetry_overhead(effort);
        let tolerance = cli.tolerance.unwrap_or(DEFAULT_OVERHEAD_TOLERANCE);
        println!(
            "{{\"on_pps\":{:.0},\"off_pps\":{:.0},\"overhead\":{:.4},\"tolerance\":{:.4}}}",
            report.on_pps,
            report.off_pps,
            report.overhead(),
            tolerance
        );
        if report.overhead() > tolerance {
            eprintln!(
                "telemetry overhead {:.2}% exceeds the {:.2}% gate",
                report.overhead() * 100.0,
                tolerance * 100.0
            );
            std::process::exit(1);
        }
    }
}
