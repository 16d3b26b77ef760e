//! `pp-lint`: static verification of every built-in dataplane program.
//!
//! The lint targets mirror the programs the harness actually deploys —
//! the baseline L2 switch, the testbed's single-server PayloadPark
//! deployment (with and without the recirculation annex), the two-slice
//! pipe of Figs. 10-11, sharded variants of the testbed's multi-server
//! deployment, and cluster plans placing an eight-slice deployment on 2
//! and 4 switches — and run [`pp_verify`] over each. The logic lives in the
//! library so the regression tests and the `pp-lint` binary share it; the
//! binary exits non-zero when any target produces an error-severity
//! finding, which is how CI gates pushes on the static verifier.

use payloadpark::shard::ShardPlan;
use payloadpark::ParkConfig;
use pp_cluster::ClusterPlan;
use pp_rmt::ChipProfile;
use pp_verify::{
    check_cluster_plan, check_deployment, check_shard_plan, check_store_deployment, Report,
    Severity,
};

use crate::experiments::fig10_11_pipe;
use crate::testbed::{DeployMode, ParkParams, TestbedConfig};

/// Every lint target, in `--list`/`--all` order.
pub const TARGETS: &[&str] = &[
    "baseline",
    "park",
    "park-annex",
    "park-multislice",
    "shard-2",
    "shard-4",
    "cluster-2",
    "cluster-4",
];

/// The deployment the testbed runs for `servers` servers with the default
/// PayloadPark parameters, optionally with the recirculation annex.
fn testbed_deployment(servers: usize, recirculation: bool) -> ParkConfig {
    let params = ParkParams { recirculation, ..Default::default() };
    TestbedConfig { servers, mode: DeployMode::PayloadPark(params), ..Default::default() }
        .park_config()
        .expect("a PayloadPark deployment")
}

fn sharded_reports(workers: usize) -> Vec<Report> {
    let parent = testbed_deployment(workers, false);
    let mut reports = Vec::new();
    match ShardPlan::new(&parent, workers) {
        Ok(plan) => {
            reports.push(Report::new(
                format!("shard plan ({workers} workers)"),
                check_shard_plan(&parent, &plan),
            ));
            for w in 0..plan.workers() {
                for r in check_deployment(plan.config(w)) {
                    reports.push(Report::new(format!("worker{w} {}", r.program), r.diagnostics));
                }
            }
        }
        Err(e) => reports.push(Report::new(
            format!("shard plan ({workers} workers)"),
            vec![pp_verify::Diagnostic::new(pp_verify::Code::PV002, None, e)],
        )),
    }
    reports
}

/// The cluster seed every deployment surface shares (`pp-exp cluster`,
/// the conformance tests, and these lint targets), so the lint verifies
/// the placements the experiments actually run.
const CLUSTER_SEED: u64 = 42;

fn cluster_reports(switches: usize) -> Vec<Report> {
    // The parent `pp-exp cluster` deploys: the shared 8-server slicing
    // (slice k splits port 2k, merges 2k+1 — dense enough to fit eight
    // slices on one pipe, and enough ring keys that every switch serves
    // at the shared seed).
    let parent = pp_fastpath::SlicedTestbed::new(8, 16).config();
    let mut reports = Vec::new();
    match ClusterPlan::new(&parent, switches, CLUSTER_SEED) {
        Ok(plan) => {
            reports.push(Report::new(
                format!("cluster plan ({switches} switches)"),
                check_cluster_plan(&parent, &plan),
            ));
            // Each member is verified as the cluster builds it: the
            // store-backed program at the plan's global slice bases.
            for &id in plan.switches() {
                let cfg = plan.config(id).expect("plan switches own slices");
                let bases = plan.bases(id).expect("config implies bases");
                let r = check_store_deployment(cfg, bases, plan.total_slots());
                reports.push(Report::new(format!("switch{id} {}", r.program), r.diagnostics));
            }
        }
        Err(e) => reports.push(Report::new(
            format!("cluster plan ({switches} switches)"),
            vec![pp_verify::Diagnostic::new(pp_verify::Code::PV002, None, e)],
        )),
    }
    reports
}

/// Runs one lint target. Returns `None` for an unknown target name.
pub fn lint_target(name: &str) -> Option<Vec<Report>> {
    match name {
        "baseline" => {
            // The baseline L2 switch programs no MATs, so a clean (empty)
            // report doubles as a self-check that extraction works on a
            // bare pipeline.
            let chip = ChipProfile::default();
            let switch = payloadpark::program::build_baseline_switch(chip).ok()?;
            Some(
                (0..chip.pipes)
                    .map(|i| {
                        let pipe = switch.pipe(i);
                        Report::new(
                            format!("baseline pipe {i}"),
                            pp_verify::check(pipe, pipe.parser()),
                        )
                    })
                    .collect(),
            )
        }
        "park" => Some(check_deployment(&testbed_deployment(1, false))),
        "park-annex" => Some(check_deployment(&testbed_deployment(1, true))),
        // The two-slice pipe exactly as Figs. 10-11 run it.
        "park-multislice" => {
            Some(check_deployment(&fig10_11_pipe(true).park_config().expect("PayloadPark mode")))
        }
        "shard-2" => Some(sharded_reports(2)),
        "shard-4" => Some(sharded_reports(4)),
        "cluster-2" => Some(cluster_reports(2)),
        "cluster-4" => Some(cluster_reports(4)),
        _ => None,
    }
}

/// The outcome of a full lint run.
#[derive(Debug)]
pub struct LintRun {
    /// Rendered text of every report, in target order.
    pub rendered: String,
    /// Total error-severity findings (non-zero fails the binary).
    pub errors: usize,
    /// Total warning-severity findings.
    pub warnings: usize,
}

/// Lints the given targets (use [`TARGETS`] for `--all`).
pub fn run_lint<S: AsRef<str>>(targets: &[S]) -> Result<LintRun, String> {
    let mut rendered = String::new();
    let mut errors = 0;
    let mut warnings = 0;
    for t in targets {
        let name = t.as_ref();
        let reports = lint_target(name).ok_or_else(|| format!("unknown target {name:?}"))?;
        rendered.push_str(&format!("# target: {name}\n"));
        for r in &reports {
            errors += r.count(Severity::Error);
            warnings += r.count(Severity::Warning);
            rendered.push_str(&r.render());
        }
        rendered.push('\n');
    }
    rendered.push_str(&format!(
        "pp-lint: {} target(s), {errors} error(s), {warnings} warning(s)\n",
        targets.len()
    ));
    Ok(LintRun { rendered, errors, warnings })
}

/// A parsed `pp-lint` invocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LintCli {
    /// Explicit targets, in command-line order.
    pub targets: Vec<String>,
    /// `--all`: lint every target.
    pub all: bool,
    /// `--list`: print the target names and exit.
    pub list: bool,
    /// `--out FILE`: also write the rendered report to `FILE`.
    pub out: Option<String>,
}

/// The usage string printed alongside any parse error (exit code 2).
pub fn usage() -> String {
    format!("usage: pp-lint [<{}> ...] [--all] [--list] [--out FILE]", TARGETS.join("|"))
}

/// Parses the arguments after the program name. Strict, like `pp-exp`:
/// unknown flags or targets are errors, not something to skip.
pub fn parse<S: AsRef<str>>(args: &[S]) -> Result<LintCli, String> {
    let mut cli = LintCli::default();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_ref();
        match arg {
            "--all" => cli.all = true,
            "--list" => cli.list = true,
            "--out" => {
                let value = args
                    .get(i + 1)
                    .map(|s| s.as_ref().to_string())
                    .ok_or_else(|| format!("{arg} requires a value"))?;
                i += 1;
                cli.out = Some(value);
            }
            _ if arg.starts_with('-') => return Err(format!("unknown flag {arg:?}")),
            _ => {
                if !TARGETS.contains(&arg) {
                    return Err(format!("unknown target {arg:?}"));
                }
                cli.targets.push(arg.to_string());
            }
        }
        i += 1;
    }
    if !cli.list && !cli.all && cli.targets.is_empty() {
        return Err("no targets (try --all or --list)".into());
    }
    if cli.all && !cli.targets.is_empty() {
        return Err("--all conflicts with explicit targets".into());
    }
    Ok(cli)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_grammar() {
        let cli = parse(&["park", "shard-2", "--out", "report.txt"]).unwrap();
        assert_eq!(cli.targets, vec!["park", "shard-2"]);
        assert_eq!(cli.out.as_deref(), Some("report.txt"));
        assert!(parse(&["--all"]).unwrap().all);
        assert!(parse(&["--list"]).unwrap().list);
        assert!(parse(&["--quikc"]).unwrap_err().contains("--quikc"));
        assert!(parse(&["parkk"]).unwrap_err().contains("unknown target"));
        assert!(parse::<&str>(&[]).unwrap_err().contains("no targets"));
        assert!(parse(&["--all", "park"]).unwrap_err().contains("conflicts"));
        assert!(parse(&["--out"]).unwrap_err().contains("requires a value"));
    }

    #[test]
    fn all_builtin_targets_are_error_free() {
        let run = run_lint(TARGETS).unwrap();
        assert_eq!(run.errors, 0, "{}", run.rendered);
        assert_eq!(run.warnings, 0, "{}", run.rendered);
        assert!(run.rendered.contains("# target: park-annex"));
        assert!(run.rendered.contains("shard plan (4 workers)"));
        assert!(run.rendered.contains("cluster plan (4 switches)"));
    }

    #[test]
    fn cluster_targets_cover_every_switch() {
        for (target, n) in [("cluster-2", 2usize), ("cluster-4", 4)] {
            let reports = lint_target(target).unwrap();
            // One plan report plus one report per serving switch, each from
            // the store-backed build the cluster actually runs.
            assert!(reports.len() > n, "{target}: {} reports", reports.len());
            for id in 0..n as u32 {
                assert!(
                    reports.iter().any(|r| r.program == format!("switch{id} store pipe 0")),
                    "{target}: switch{id} unverified"
                );
            }
        }
    }

    #[test]
    fn unknown_target_is_an_error() {
        assert!(run_lint(&["no-such-target"]).is_err());
        assert!(lint_target("no-such-target").is_none());
    }
}
