//! `pp-bench`: the repository's benchmark.
//!
//! ```text
//! pp-bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--rounds <n>]
//! pp-bench repeat [--sets 2] [--runs 10]
//! ```
//!
//! One invocation runs one workload in one process: a fixed amount of
//! work, the amount declared for `run_seconds` scaled by `--seconds`, or
//! exactly `--rounds` rounds of everything (smoke tests). `--trace 0` prints
//! every end-to-end metric, `--trace 1` every per-layer metric (and
//! writes the spans); either way the last line of standard output is one
//! JSON object. See `BENCHMARK.md` beside this crate.

mod counting_alloc;
mod host;
mod ledger;
mod repeat;
mod run;
mod spec;
mod stats;
mod trace;
mod workload;

use run::RunArgs;
use workload::Workload;

#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

const USAGE: &str =
    "usage: pp-bench --workload <scalar_mixed|engine_2w|cluster_pressure|des_chain> \
[--seed N] [--seconds S] [--trace 0|1] [--rounds N]\n       pp-bench repeat [--sets N] [--runs N]";

/// `--flag value` pairs, strictly: an unknown flag or a missing value is
/// an error, never a silent default.
fn flags(args: &[String], known: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag.strip_prefix("--").filter(|n| known.contains(n));
        let name = name.ok_or_else(|| format!("unknown argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        out.push((name.to_string(), value.clone()));
    }
    Ok(out)
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("--{flag}: {value} is not a valid number"))
}

fn run_args(args: &[String]) -> Result<RunArgs, String> {
    let spec = spec::Spec::load();
    let mut workload = None;
    let mut seed = 1u64;
    let (mut scale, mut rounds) = (1.0, None);
    let mut trace = false;
    for (flag, value) in flags(args, &["workload", "seed", "seconds", "trace", "rounds"])? {
        match flag.as_str() {
            "workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "seed" => seed = number(&flag, &value)?,
            "seconds" => {
                let secs: f64 = number(&flag, &value)?;
                if !(secs > 0.0 && secs <= 3600.0) {
                    return Err(format!("--seconds {value} out of range"));
                }
                scale = secs / spec.run_seconds as f64;
            }
            "rounds" => rounds = Some(number(&flag, &value)?),
            _ => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(RunArgs { workload, seed, scale, rounds, trace })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = if args.first().is_some_and(|a| a == "repeat") {
        flags(&args[1..], &["sets", "runs"]).and_then(|f| repeat::repeat(&f))
    } else {
        run_args(&args).map(run::run)
    };
    std::process::exit(code.unwrap_or_else(|e| {
        eprintln!("pp-bench: {e}\n{USAGE}");
        2
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use run::Outcome;
    use spec::{MetricSpec, Spec};
    use std::collections::BTreeSet;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn smoke(workload: Workload, trace: bool) -> Outcome {
        let run_args = RunArgs { workload, seed: 3, scale: 1.0, rounds: Some(3), trace };
        let outcome = if trace { ledger::per_layer(run_args) } else { run::end_to_end(run_args) };
        outcome.unwrap_or_else(|e| panic!("{} does not run: {e}", workload.name()))
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// The run measured exactly the declared metrics, all finite.
    fn assert_measures(outcome: &Outcome, declared: &[MetricSpec]) {
        let measured: BTreeSet<&str> = outcome.metrics.0.iter().map(|(n, _)| n.as_str()).collect();
        let declared_names: BTreeSet<&str> = declared.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(measured, declared_names);
        assert_eq!(outcome.metrics.0.len(), measured.len(), "a metric was measured twice");
        for (name, value) in &outcome.metrics.0 {
            assert!(well_formed(name), "{name}");
            assert!(value.is_finite(), "{name} = {value}");
        }
        // The result line parses and carries the four required keys.
        let line = payloadpark::jsonio::parse(&outcome.result_line(declared)).expect("valid JSON");
        let keys: Vec<&str> = line.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }

    #[test]
    fn every_workload_passes_its_checks_and_measures_what_is_declared() {
        let spec = Spec::load();
        for workload in Workload::ALL {
            let outcome = smoke(workload, false);
            assert_eq!(outcome.violations, Vec::<String>::new(), "{}", workload.name());
            // Three rounds on each of the run's instances.
            let attempted = 3 * workload.instances() as u64;
            assert_eq!((outcome.attempted, outcome.failed), (attempted, 0), "{}", workload.name());
            assert_measures(&outcome, &spec.end_to_end);
            assert!(outcome.metrics.0.iter().all(|(_, v)| *v > 0.0), "{}", outcome.report);
        }
    }

    #[test]
    fn calm_workloads_run_the_same_wave_and_deliver_the_same_bytes() {
        let hashes = |w: Workload| {
            let report = smoke(w, false).report;
            report.lines().find(|l| l.contains("wave hash")).expect("hash line").to_string()
        };
        assert_eq!(hashes(Workload::ScalarMixed), hashes(Workload::Engine2w));
    }

    #[test]
    fn the_traced_run_measures_every_declared_layer_metric() {
        let spec = Spec::load();
        let outcome = smoke(Workload::ClusterPressure, true);
        // Three rounds under a parallel test harness say nothing about
        // closure; everything else must hold.
        let others: Vec<_> =
            outcome.violations.iter().filter(|v| !v.starts_with("closure:")).collect();
        assert!(others.is_empty(), "{others:?}");
        assert_eq!(outcome.failed, 0);
        assert_measures(&outcome, &spec.per_layer);
        // The pressure workload really does press.
        for name in
            ["core.evictions_per_kpkt", "core.premature_per_kpkt", "core.dup_merge_per_kpkt"]
        {
            assert!(outcome.metrics.get(name).unwrap() > 0.0, "{name}");
        }
        assert!(outcome.metrics.get("flowstore.spilled_peak").unwrap() > 0.0);
        assert!(outcome.metrics.get("cluster.proxy_merges_per_kpkt").unwrap() > 0.0);
    }

    #[test]
    fn declared_names_are_well_formed_and_cover_the_workloads() {
        let spec = Spec::load();
        let declared: Vec<&str> = spec.workloads.iter().map(String::as_str).collect();
        let built: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(declared, built);
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(well_formed(&m.name), "{}", m.name);
        }
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = spec.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert!(!setup.higher_is_better && setup.unit == "s");
        // Set-up time carries the widest bound of all.
        assert!(spec.end_to_end.iter().all(|m| m.bound <= setup.bound));
    }

    // The package stands outside the workspace, so the workspace's gate
    // (`cargo test`, its lints, `scripts/unsafe_gate.sh`) never sees it.
    // The three tests below hold it to the same rules from the inside.

    fn repo_file(path: &str) -> String {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    /// The `key = value` lines of one table of a manifest, sorted.
    fn manifest_table(manifest: &str, header: &str) -> Vec<String> {
        let mut rows: Vec<String> = manifest
            .lines()
            .skip_while(|l| l.trim() != header)
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(str::to_string)
            .collect();
        rows.sort();
        assert!(!rows.is_empty(), "no {header} table");
        rows
    }

    #[test]
    fn release_profile_and_lints_are_the_workspaces() {
        let (own, root) = (repo_file("Cargo.toml"), repo_file("../Cargo.toml"));
        assert_eq!(
            manifest_table(&own, "[profile.release]"),
            manifest_table(&root, "[profile.release]"),
            "pp-bench would measure another build than the workspace ships"
        );
        assert_eq!(
            manifest_table(&own, "[lints.rust]"),
            manifest_table(&root, "[workspace.lints.rust]")
        );
    }

    #[test]
    fn the_lock_file_agrees_with_the_workspaces() {
        let packages = |lock: &str| -> BTreeSet<(String, String)> {
            let field = |block: &str, key: &str| {
                let line = block.lines().find(|l| l.starts_with(key)).expect("package field");
                line[key.len()..].trim_matches([' ', '=', '"']).to_string()
            };
            let blocks = lock.split("[[package]]").skip(1);
            blocks.map(|b| (field(b, "name"), field(b, "version"))).collect()
        };
        let mut own = packages(&repo_file("Cargo.lock"));
        assert!(own.remove(&("pp-bench".to_string(), "0.1.0".to_string())));
        let root = packages(&repo_file("../Cargo.lock"));
        let strangers: Vec<_> = own.difference(&root).collect();
        assert!(strangers.is_empty(), "not in the workspace's Cargo.lock: {strangers:?}");
    }

    /// The rule of `scripts/unsafe_gate.sh`, over this package: a line
    /// that uses the keyword outside a comment carries `// SAFETY:` itself
    /// or stands directly below a comment block that does.
    #[test]
    fn every_use_of_the_keyword_says_why_it_is_sound() {
        let keyword = concat!("un", "safe");
        let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let mut sites = 0;
        for entry in std::fs::read_dir(src).expect("src is readable") {
            let path = entry.expect("directory entry").path();
            let text = std::fs::read_to_string(&path).expect("source is readable");
            let lines: Vec<&str> = text.lines().collect();
            for (i, line) in lines.iter().enumerate() {
                let code = line.split("//").next().unwrap_or_default();
                if !code.split(|c: char| !c.is_alphanumeric() && c != '_').any(|w| w == keyword) {
                    continue;
                }
                sites += 1;
                let mut above =
                    lines[..i].iter().rev().take_while(|l| l.trim_start().starts_with("//"));
                let justified =
                    line.contains("// SAFETY:") || above.any(|l| l.contains("// SAFETY:"));
                assert!(justified, "{}:{}: no // SAFETY: comment", path.display(), i + 1);
            }
        }
        // The allocator's impl, its four methods and their four calls, and
        // the clock: the scan sees what it is meant to see.
        assert!(sites >= 10, "the scan found only {sites} sites");
    }

    #[test]
    fn the_command_line_is_strict() {
        let ok = run_args(&args(&[
            "--workload",
            "des_chain",
            "--seed",
            "9",
            "--seconds",
            "2.5",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!((ok.workload, ok.seed, ok.trace), (Workload::DesChain, 9, true));
        // An eighth of the declared 20 s: an eighth of every declared count.
        assert_eq!((ok.scale, ok.rounds, ok.count(800)), (0.125, None, 100));
        let smoke = run_args(&args(&["--workload", "engine_2w", "--rounds", "3"])).unwrap();
        assert_eq!((smoke.scale, smoke.count(800)), (1.0, 3));
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "nope"],
            &["--workload", "des_chain", "--trace", "2"],
            &["--workload", "des_chain", "--seconds", "0"],
            &["--workload", "des_chain", "--seed"],
            &["--workload", "des_chain", "--verbose", "1"],
            &["des_chain"],
        ] {
            assert!(run_args(&args(bad)).is_err(), "{bad:?}");
        }
    }
}
