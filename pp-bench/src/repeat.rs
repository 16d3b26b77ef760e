//! `pp-bench repeat`: do two sets of runs of this very binary agree?
//!
//! Runs every workload `--runs` times per set, the sets interleaved so
//! that slow drift of the host hits them alike, both sets on the same
//! seeds. For every workload × end-to-end metric it prints each set's
//! median and quartiles, the spread of the first set (quartile distance
//! over median), how much worse the second set's median is than the
//! first's, and the bound from `BENCHMARK.json`. It exits non-zero when a
//! difference or a spread exceeds its bound — `setup_s` is exempt from
//! the spread rule, as in the acceptance rule this mirrors. A set whose
//! median lies further from the first set's than that set's quartiles are
//! apart is marked `MOVED`, without failing: the bounds are wide enough
//! for this host's worst hour, the mark is the finer resolution. Every
//! run measures the declared amount of work (`run_seconds`), nothing else.
//!
//! The simulated metrics ([`EXACT`]) are gated harder than their bound:
//! run for run, seed for seed, every later set must print the very number
//! the first set printed. (Their bounds in `BENCHMARK.json` only cover
//! the difference between one seed and the next.)

use crate::spec::{MetricSpec, Spec};
use crate::stats::{median, quartiles};
use crate::workload::Workload;
use payloadpark::jsonio::{self, Value};
use std::process::Command;

/// Metrics computed from simulated bytes and packets, not from clocks:
/// the same seed must give the same value to the last digit.
const EXACT: [&str; 2] = ["nf_leg_saving_pct", "delivered_pct"];

/// One run's end-to-end metrics, by name.
type RunMetrics = Vec<(String, f64)>;

fn run_once(workload: Workload, seed: u64) -> Result<RunMetrics, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload.name(), "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let result = jsonio::parse(line).ok_or_else(|| {
        format!("{} seed {seed}: no result line (exit {:?})", workload.name(), output.status.code())
    })?;
    if !output.status.success() || result.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!("{} seed {seed} failed its checks:\n{stdout}", workload.name()));
    }
    let metrics = result.get("metrics").and_then(Value::as_obj).ok_or("result without metrics")?;
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64).ok_or("metric without value")?;
            Ok((name.clone(), value))
        })
        .collect()
}

/// By how much of `reference` the value `other` is worse, in the metric's
/// own direction (negative when it is better).
fn worse_by(metric: &MetricSpec, reference: f64, other: f64) -> f64 {
    let change = (other - reference) / reference;
    if metric.higher_is_better {
        -change
    } else {
        change
    }
}

fn option<T: std::str::FromStr>(
    flags: &[(String, String)],
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.iter().rev().find(|(flag, _)| flag == name) {
        Some((_, v)) => v.parse().map_err(|_| format!("--{name}: {v} is not a valid number")),
        None => Ok(default),
    }
}

/// Runs the sets and prints the comparison; returns the exit code.
pub fn repeat(flags: &[(String, String)]) -> Result<i32, String> {
    let spec = Spec::load();
    let sets: usize = option(flags, "sets", 2)?;
    let runs: usize = option(flags, "runs", 10)?;
    if sets < 2 || runs < 2 {
        return Err("repeat needs at least two sets of two runs".into());
    }

    let workloads: Vec<Workload> = spec
        .workloads
        .iter()
        .map(|name| Workload::parse(name).ok_or(format!("BENCHMARK.json names unknown {name}")))
        .collect::<Result<_, _>>()?;

    // values[set][workload][run]
    let mut values: Vec<Vec<Vec<RunMetrics>>> = vec![vec![Vec::new(); workloads.len()]; sets];
    for run in 0..runs {
        for (set, of_set) in values.iter_mut().enumerate() {
            for (&workload, of_workload) in workloads.iter().zip(of_set) {
                eprintln!(
                    "repeat: run {}/{runs}, set {}/{sets}, {}",
                    run + 1,
                    set + 1,
                    workload.name()
                );
                of_workload.push(run_once(workload, 1 + run as u64)?);
            }
        }
    }

    let mut exceeded = 0;
    println!(
        "{:<17} {:<18} {:>3} {:>14} {:>14} {:>14} {:>8} {:>8} {:>6}",
        "workload", "metric", "set", "q1", "median", "q3", "spread", "worse", "bound"
    );
    for (w, &workload) in workloads.iter().enumerate() {
        for metric in &spec.end_to_end {
            let bound = metric.bound.expect("end-to-end metrics declare a bound");
            let column = |set: usize| -> Vec<f64> {
                values[set][w]
                    .iter()
                    .map(|run| {
                        run.iter().find(|(n, _)| *n == metric.name).expect("declared metric").1
                    })
                    .collect()
            };
            let reference = median(&column(0));
            let (ref_q1, ref_q3) = quartiles(&column(0));
            for set in 0..sets {
                let v = column(set);
                let (q1, q3) = quartiles(&v);
                let mid = median(&v);
                let spread = (q3 - q1) / mid;
                let worse = worse_by(metric, reference, mid);
                let inexact = EXACT.contains(&metric.name.as_str()) && v != column(0);
                let over = worse > bound || (metric.name != "setup_s" && spread > bound) || inexact;
                exceeded += usize::from(over);
                // Within the bound, yet further from the first set's median
                // than that set's own quartiles are apart: the code is the
                // same, so the host moved between the sets. A warning to
                // whoever compares two commits this hour, not a failure.
                let moved = worse.abs() * reference > ref_q3 - ref_q1;
                println!(
                    "{:<17} {:<18} {:>3} {:>14.4} {:>14.4} {:>14.4} {:>7.2}% {:>+7.2}% {:>5.1}%{}",
                    workload.name(),
                    metric.name,
                    set + 1,
                    q1,
                    mid,
                    q3,
                    100.0 * spread,
                    100.0 * worse,
                    100.0 * bound,
                    match (inexact, over, moved) {
                        (true, ..) => "  NOT EXACT",
                        (_, true, _) => "  EXCEEDED",
                        (_, _, true) => "  MOVED",
                        _ => "",
                    }
                );
            }
        }
    }
    println!("{exceeded} of the comparisons exceeded their bound");
    Ok(if exceeded == 0 { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_metrics_direction() {
        let lower = MetricSpec {
            name: "t".into(),
            unit: "ns".into(),
            higher_is_better: false,
            bound: None,
        };
        let higher = MetricSpec { higher_is_better: true, ..lower.clone() };
        assert!((worse_by(&lower, 100.0, 108.0) - 0.08).abs() < 1e-12);
        assert!((worse_by(&lower, 100.0, 95.0) + 0.05).abs() < 1e-12);
        assert!((worse_by(&higher, 100.0, 92.0) - 0.08).abs() < 1e-12);
        assert!(worse_by(&higher, 100.0, 110.0) < 0.0);
    }
}
