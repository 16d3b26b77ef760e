//! What the run can see of its host: CPU clocks, steal, peak RSS, the
//! toolchain, and a calibration loop of the benchmark's own.
//!
//! The guest has no hardware counters, and whole-guest slow phases
//! (every floor 40–60 % slower for minutes) do happen. They cannot be
//! removed, so they are recorded: steal over the run from `/proc/stat`
//! and the quiet floor of a fixed compute-and-memory loop interleaved
//! with the rounds. A run whose calibration floor is far off the usual one was
//! taken on a slowed guest and should be repeated, not trusted.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

// No `libc` crate is vendored; this is the one foreign symbol needed.
extern "C" {
    fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target this benchmark builds for) and
    // `clock` is one of the two constant clock ids above.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by every thread of this process, in ns.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread, in ns.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Wall and process-CPU time of one timed region.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu: u64,
}

impl Stopwatch {
    /// Starts timing.
    pub fn start() -> Stopwatch {
        Stopwatch { cpu: process_cpu_ns(), wall: Instant::now() }
    }

    /// `(wall ns, process CPU ns)` since [`Stopwatch::start`].
    pub fn stop(self) -> (f64, f64) {
        let wall = self.wall.elapsed().as_nanos() as f64;
        (wall, (process_cpu_ns() - self.cpu) as f64)
    }
}

/// `(steal, total)` jiffies summed over all CPUs, from `/proc/stat`.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).map_while(|f| f.parse().ok()).collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Measures steal over an interval.
pub struct StealMeter {
    at_start: Option<(u64, u64)>,
}

impl StealMeter {
    /// Starts the interval.
    pub fn start() -> StealMeter {
        StealMeter { at_start: cpu_jiffies() }
    }

    /// Percent of all CPU time since the start that the hypervisor gave to
    /// someone else (0 when `/proc/stat` is unreadable).
    pub fn steal_pct(&self) -> f64 {
        match (self.at_start, cpu_jiffies()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                100.0 * (s1 - s0) as f64 / (t1 - t0) as f64
            }
            _ => 0.0,
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Words in the calibration loop's table: 4 MiB, past the private caches and
/// into the last-level cache a 2-vCPU guest shares with its neighbours.
const CALIBRATION_WORDS: usize = 1 << 19;

/// One pass of the calibration loop: a fixed xorshift chain (the core's
/// speed) followed by a fixed chain of dependent reads scattered over
/// 4 MiB (the memory system's speed — the slow phases seen on this host
/// slowed the cache-missing workloads by a third and left an arithmetic
/// loop untouched). Tens of µs: long enough to time with `Instant`, short
/// enough to run between all rounds. Returns its wall time in ns.
pub fn calibration_pass() -> f64 {
    static TABLE: OnceLock<Vec<u64>> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..CALIBRATION_WORDS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect()
    });
    let start = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..10_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    for _ in 0..1_000 {
        x = x.rotate_left(7) ^ table[x as usize % CALIBRATION_WORDS];
    }
    black_box(x);
    start.elapsed().as_nanos() as f64
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Where a run was taken.
#[derive(Debug, Clone)]
pub struct HostInfo {
    /// Usable hardware threads.
    pub nproc: usize,
    /// `rustc -V`.
    pub rustc: String,
    /// Short commit hash (`unknown` outside a git checkout).
    pub commit: String,
    /// Build profile of this binary.
    pub profile: &'static str,
}

impl HostInfo {
    /// Probes the host.
    pub fn probe() -> HostInfo {
        HostInfo {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: command_line("rustc", &["-V"]),
            commit: command_line("git", &["rev-parse", "--short", "HEAD"]),
            profile: if cfg!(debug_assertions) { "debug" } else { "release" },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_and_thread_time_is_within_process_time() {
        let (p0, t0) = (process_cpu_ns(), thread_cpu_ns());
        let mut spins = 0;
        while thread_cpu_ns() - t0 < 2_000_000 {
            black_box(calibration_pass());
            spins += 1;
        }
        assert!(spins > 0);
        assert!(process_cpu_ns() - p0 >= 2_000_000);
    }

    #[test]
    fn host_probes_return_something() {
        assert!(peak_rss_mib() > 0.0);
        assert!(calibration_pass() > 0.0);
        assert!(StealMeter::start().steal_pct() >= 0.0);
        assert!(HostInfo::probe().nproc >= 1);
    }
}
