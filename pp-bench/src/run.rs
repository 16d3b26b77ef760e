//! One run of one workload: set-up, measured rounds, checks, report.

use crate::host::{self, HostInfo, StealMeter};
use crate::spec::{MetricSpec, Spec};
use crate::stats::{self, Summary};
use crate::trace::{Recorder, RoundSample};
use crate::workload::{wave_hash, Rig, Verdict, Workload};
use payloadpark::jsonio::{obj, Value};
use std::time::Instant;

/// Rounds behind a time-scaled count never fall below this, so that the
/// quiet floor always has samples below it.
const MIN_ROUNDS: usize = 10;

/// What the command line asked for.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// `--seconds` over the declared `run_seconds`: every declared count
    /// of rounds or repetitions is multiplied by it. The work of a run is
    /// fixed by its arguments, never by how fast the code under test is.
    pub scale: f64,
    /// `--rounds`: every count becomes exactly this (smoke tests).
    pub rounds: Option<usize>,
    /// Untraced end-to-end run, or traced per-layer run.
    pub trace: bool,
}

impl RunArgs {
    /// How many rounds or repetitions to take where `declared` are taken
    /// at the declared `run_seconds`.
    pub fn count(&self, declared: usize) -> usize {
        match self.rounds {
            Some(n) => n.max(1),
            None => ((declared as f64 * self.scale).round() as usize).max(MIN_ROUNDS),
        }
    }
}

/// The second half of set-up: rounds run and discarded.
pub fn warm_up(rig: &mut dyn Rig, workload: Workload) {
    let mut rec = Recorder::off();
    for _ in 0..workload.warmup_rounds() {
        rig.round(&mut rec);
    }
}

/// Builds the rig and runs its warm-up rounds; returns it with the
/// seconds that took.
pub fn set_up(workload: Workload, seed: u64) -> Result<(Box<dyn Rig>, f64), String> {
    let start = Instant::now();
    let mut rig = workload.build(seed)?;
    warm_up(rig.as_mut(), workload);
    Ok((rig, start.elapsed().as_secs_f64()))
}

/// The rounds of one measurement.
pub struct Measured {
    /// One sample per round.
    pub samples: Vec<RoundSample>,
    /// One calibration pass per round, ns.
    pub calib_ns: Vec<f64>,
    /// Steal over the measurement, percent.
    pub steal_pct: f64,
    /// Packets offered per round.
    pub packets: u64,
    /// The first and the last round, checked.
    pub checked: [Verdict; 2],
}

impl Measured {
    /// Wall ns per packet, per round.
    pub fn wall_ns_per_pkt(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.wall_ns / self.packets as f64).collect()
    }

    /// Process CPU ns per packet, per round.
    pub fn cpu_ns_per_pkt(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.cpu_ns / self.packets as f64).collect()
    }

    /// Every violation found in the checked rounds.
    pub fn violations(&self) -> Vec<String> {
        self.checked.iter().flat_map(|v| v.violations.iter().cloned()).collect()
    }

    /// Checked rounds with at least one violation.
    pub fn failed_rounds(&self) -> u64 {
        self.checked.iter().filter(|v| !v.violations.is_empty()).count() as u64
    }
}

/// Runs `rig` for `rounds` rounds, one calibration pass after each, and
/// checks the first and the last round.
pub fn measure(rig: &mut dyn Rig, rec: &mut Recorder, rounds: usize) -> Measured {
    let steal = StealMeter::start();
    let mut samples = Vec::with_capacity(rounds);
    let mut calib_ns = Vec::with_capacity(rounds);
    let mut first = None;
    for round in 0..rounds {
        rec.set_round(round as u32);
        samples.push(rig.round(rec));
        calib_ns.push(host::calibration_pass());
        if round == 0 {
            first = Some(rig.verify());
        }
    }
    let last = rig.verify();
    Measured {
        samples,
        calib_ns,
        steal_pct: steal.steal_pct(),
        packets: rig.packets_per_round(),
        checked: [first.expect("at least one round ran"), last],
    }
}

/// Named values on their way to the result line.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64)>);

impl Metrics {
    /// Adds one value.
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }

    /// The value called `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// What a run hands back to `main`.
pub struct Outcome {
    /// What the checks found; empty when the run was correct.
    pub violations: Vec<String>,
    /// Rounds measured.
    pub attempted: u64,
    /// Checked rounds that violated something.
    pub failed: u64,
    /// The metrics of the requested mode.
    pub metrics: Metrics,
    /// Human-readable report (everything above the result line).
    pub report: String,
}

impl Outcome {
    /// The result line: one JSON object, the declared metrics in declared
    /// order with their declared units.
    pub fn result_line(&self, declared: &[MetricSpec]) -> String {
        let metrics = declared
            .iter()
            .map(|m| {
                let value = self.metrics.get(&m.name).unwrap_or_else(|| {
                    panic!("declared metric {} was not measured", m.name);
                });
                let entry = obj(vec![("value", Value::num(value)), ("unit", Value::str(&m.unit))]);
                (m.name.clone(), entry)
            })
            .collect();
        obj(vec![
            ("correct", Value::Bool(self.violations.is_empty())),
            ("attempted", Value::num(self.attempted)),
            ("failed", Value::num(self.failed)),
            ("metrics", Value::Obj(metrics)),
        ])
        .render()
    }
}

fn dispersion(s: &Summary) -> String {
    format!(
        "p10 {:.2}  p50 {:.2}  p90 {:.2}  p99 {:.2}  rounds {}",
        s.p10, s.p50, s.p90, s.p99, s.n
    )
}

/// The `host` block of a report.
pub fn host_block(steal_pct: f64, calib_ns: &[f64]) -> String {
    let h = HostInfo::probe();
    format!(
        "host: nproc {}  {}  commit {}  profile {}\nhost: steal {:.2} %  calibration loop ns: {}\n",
        h.nproc,
        h.rustc,
        h.commit,
        h.profile,
        steal_pct,
        dispersion(&Summary::of(calib_ns)),
    )
}

/// The seed of a run's `i`-th instance (splitmix64 of the two): every
/// instance gets its own wave, so a run covers the spread between waves
/// instead of inheriting one wave's luck.
pub fn instance_seed(seed: u64, i: usize) -> u64 {
    let mut z = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The untraced run: every end-to-end metric.
///
/// The workload is set up [`Workload::instances`] times from scratch,
/// each time on its own wave, and each instance is measured for
/// [`Workload::rounds_per_instance`] rounds. Whatever differs between
/// two instances of one deployment — heap layout, which vCPU a worker
/// thread settled on, the packet mix of the wave — lasts for the
/// instance's whole life, so no number of rounds averages it away; the
/// median over instances does.
pub fn end_to_end(args: RunArgs) -> Result<Outcome, String> {
    let instances = args.workload.instances();
    let rounds = args.count(args.workload.rounds_per_instance());
    let mut setup_secs = Vec::with_capacity(instances);
    let (mut wall_floors, mut cpu_floors) = (Vec::new(), Vec::new());
    let (mut wall_rounds, mut cpu_rounds, mut calib_ns) = (Vec::new(), Vec::new(), Vec::new());
    let (mut savings, mut delivered) = (Vec::new(), Vec::new());
    let mut violations = Vec::new();
    let (mut attempted, mut failed, mut steal_pct) = (0, 0, 0.0f64);
    let mut hashes = (0, 0);
    let mut packets = 0;
    let mut rss_mb = 0.0;
    for i in 0..instances {
        let (mut rig, secs) = set_up(args.workload, instance_seed(args.seed, i))?;
        setup_secs.push(secs);
        savings.push(rig.leg_account().saving_pct);
        let m = measure(rig.as_mut(), &mut Recorder::off(), rounds);
        let (wall, cpu) = (m.wall_ns_per_pkt(), m.cpu_ns_per_pkt());
        wall_floors.push(stats::floor(&wall));
        cpu_floors.push(stats::floor(&cpu));
        wall_rounds.extend(wall);
        cpu_rounds.extend(cpu);
        calib_ns.extend_from_slice(&m.calib_ns);
        delivered.push(m.checked[1].delivered_pct);
        violations.extend(m.violations());
        attempted += m.samples.len() as u64;
        failed += m.failed_rounds();
        steal_pct = steal_pct.max(m.steal_pct);
        hashes = (wave_hash(rig.wave()), m.checked[1].delivered_hash);
        packets = m.packets;
        if i == 0 {
            // One deployment and its measurement. Later instances only add
            // what the allocator could not reuse of the earlier ones, which
            // varies with the exact packet sizes (29-37 MiB on scalar_mixed).
            rss_mb = host::peak_rss_mib();
        }
        // The instance is dropped here: one deployment lives at a time.
    }

    let mut metrics = Metrics::default();
    metrics.put("pps", 1e9 / stats::median(&wall_floors));
    metrics.put("cpu_ns_per_pkt", stats::median(&cpu_floors));
    metrics.put("rss_mb", rss_mb);
    metrics.put("setup_s", stats::median(&setup_secs));
    metrics.put("nf_leg_saving_pct", stats::mean(&savings));
    metrics.put("delivered_pct", stats::mean(&delivered));

    let mut report = format!(
        "workload {}  seed {}  {packets} packets/round  {instances} instances of {rounds} rounds\n",
        args.workload.name(),
        args.seed,
    );
    report += &format!("wall ns/packet, all rounds: {}\n", dispersion(&Summary::of(&wall_rounds)));
    report += &format!("cpu  ns/packet, all rounds: {}\n", dispersion(&Summary::of(&cpu_rounds)));
    report += &format!("wall quiet floor per instance: {wall_floors:.1?}\n");
    report += &format!("cpu  quiet floor per instance: {cpu_floors:.1?}\n");
    report += &format!("set-up s per instance: {setup_secs:.3?}\n");
    report += &format!(
        "last instance: wave hash {:016x}  delivered set hash {:016x}\n",
        hashes.0, hashes.1
    );
    report += &host_block(steal_pct, &calib_ns);
    Ok(Outcome { violations, attempted, failed, metrics, report })
}

/// Runs the requested mode and prints its report and result line.
/// Returns the process exit code.
pub fn run(args: RunArgs) -> i32 {
    let spec = Spec::load();
    let (outcome, declared) = if args.trace {
        (crate::ledger::per_layer(args), &spec.per_layer)
    } else {
        (end_to_end(args), &spec.end_to_end)
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("pp-bench: {e}");
            return 1;
        }
    };
    print!("{}", outcome.report);
    for v in &outcome.violations {
        println!("VIOLATION: {v}");
    }
    for m in declared {
        if let Some(v) = outcome.metrics.get(&m.name) {
            println!("{:<40} {:>16.4} {}", m.name, v, m.unit);
        }
    }
    println!("{}", outcome.result_line(declared));
    if outcome.violations.is_empty() {
        0
    } else {
        1
    }
}
