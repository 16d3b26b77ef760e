//! Emulator throughput: scalar pipeline vs the `pp_fastpath` engine.
//!
//! This is not a figure from the paper — it measures the *reproduction
//! itself*: wall-clock packets per second of the full Split → NF → Merge
//! round trip, single-threaded versus the sharded run-to-completion
//! engine at 1/2/4/8 workers. The rig is the shared 8-server §6.2.4 slicing
//! ([`SlicedTestbed`], also used by the `fastpath` bench and the
//! equivalence oracle), so every engine width runs the identical
//! dataplane program on identical traffic.
//!
//! The row at `workers = 0` is the scalar
//! [`pp_rmt::SwitchModel::process`] baseline; `speedup` is each row's
//! packets/sec over that baseline. Both arms are timed warm: one untimed
//! pass first, nothing but the round trip inside the timer. Each worker
//! runs the scalar loop on its shard, so the engine gains only what the
//! host's spare cores give it — none on a single-core host.

use crate::experiments::Effort;
use pp_fastpath::{EgressMeter, EngineConfig, SlicedTestbed};
use pp_metrics::Series;
use pp_netsim::time::SimDuration;
use pp_rmt::switch::{BatchOutput, BatchPacket};
use std::time::Instant;

/// Slices sharing the pipe (and the maximum worker count measured).
const SLICES: usize = 8;

fn testbed() -> SlicedTestbed {
    SlicedTestbed::new(SLICES, 2048)
}

/// The enterprise-mix workload, round-robined over the split ports.
fn workload(effort: Effort) -> Vec<BatchPacket> {
    let window = match effort {
        Effort::Quick => SimDuration::from_millis(2),
        Effort::Full => SimDuration::from_millis(12),
    };
    testbed().enterprise_wave(20, window)
}

/// One timed scalar round trip; returns (packets/sec, egress Gbps).
fn run_scalar(inputs: &[BatchPacket]) -> (f64, f64) {
    let tb = testbed();
    let (mut sw, _) = tb.build_scalar();
    let mut merged = BatchOutput::new();
    // Warm the pooled scratch (PHV pool, deparse arena, bounce frame) so
    // the timed loop measures steady-state, allocation-free processing.
    tb.scalar_roundtrip_into(&mut sw, &inputs[..inputs.len().min(64)], &mut merged);
    let start = Instant::now();
    tb.scalar_roundtrip_into(&mut sw, inputs, &mut merged);
    let wall = start.elapsed();
    let mut meter = EgressMeter::new();
    meter.record(merged.len() as u64, merged.wire_bytes() as u64);
    (inputs.len() as f64 / wall.as_secs_f64(), meter.gbps(wall))
}

/// One timed engine round trip; returns (packets/sec, egress Gbps). The
/// fused [`pp_fastpath::Engine::process_roundtrip`] keeps each slice's NF
/// reflection on its worker, so the whole per-packet path runs
/// shard-locally.
fn run_engine(inputs: &[BatchPacket], workers: usize) -> (f64, f64) {
    let tb = testbed();
    let mut engine = tb.build_engine(EngineConfig { workers, ..Default::default() }).unwrap();
    // The scalar arm's warm-up, for the engine: one untimed wave fills the
    // workers' PHV pools and sizes the output arenas, and dropping its
    // output — here, outside the timer — hands those arenas back for the
    // timed wave to reuse.
    drop(engine.process_roundtrip(inputs.to_vec(), tb.sink_mac()));
    let wave = inputs.to_vec();
    let n = wave.len();
    let start = Instant::now();
    let merged = engine.process_roundtrip(wave, tb.sink_mac());
    let wall = start.elapsed();
    let mut meter = EgressMeter::new();
    meter.record(merged.packets() as u64, merged.wire_bytes() as u64);
    (n as f64 / wall.as_secs_f64(), meter.gbps(wall))
}

/// Best of three timed runs — wall-clock throughput on a shared host is
/// noisy, and the best run is the least-disturbed one.
fn best_of_3(mut run: impl FnMut() -> (f64, f64)) -> (f64, f64) {
    (0..3).map(|_| run()).fold((0.0, 0.0), |best, r| if r.0 > best.0 { r } else { best })
}

/// The emulator-throughput sweep: packets/sec for the full Split → NF →
/// Merge round trip. `workers = 0` is the scalar baseline.
pub fn throughput(effort: Effort) -> Series {
    let inputs = workload(effort);
    let mut series = Series::new(
        "Emulator throughput: scalar pipeline vs pp_fastpath workers (enterprise mix)",
        "workers",
        vec!["pps".into(), "egress_gbps".into(), "speedup".into()],
    );
    let (scalar_pps, scalar_gbps) = best_of_3(|| run_scalar(&inputs));
    series.push(0.0, vec![scalar_pps, scalar_gbps, 1.0]);
    for workers in [1usize, 2, 4, 8] {
        let (pps, gbps) = best_of_3(|| run_engine(&inputs, workers));
        series.push(workers as f64, vec![pps, gbps, pps / scalar_pps]);
    }
    series
}

/// The dataplane telemetry registry for one engine round trip over the
/// throughput workload — what `pp-exp throughput --telemetry FILE` writes:
/// per-shard and aggregate PayloadPark counters, switch statistics,
/// occupancy and ring high-water marks.
pub fn throughput_telemetry(effort: Effort) -> pp_metrics::MetricsRegistry {
    let tb = testbed();
    let mut engine = tb.build_engine(EngineConfig { workers: 2, ..Default::default() }).unwrap();
    let _ = engine.process_roundtrip(workload(effort), tb.sink_mac());
    engine.telemetry_registry()
}

/// Telemetry cost on the scalar hot path: packets/sec with the flight
/// recorder and stage profiling on (the default) vs off.
#[derive(Debug, Clone, Copy)]
pub struct OverheadReport {
    /// Best observed packets/sec with telemetry enabled.
    pub on_pps: f64,
    /// Best observed packets/sec with telemetry disabled.
    pub off_pps: f64,
}

impl OverheadReport {
    /// Fractional slowdown of the telemetry-on path (0.03 = 3 % slower),
    /// from the ratio of the per-arm bests. Negative differences
    /// (telemetry "faster" — measurement noise) clamp to zero.
    pub fn overhead(&self) -> f64 {
        if self.off_pps <= 0.0 {
            return 0.0;
        }
        ((self.off_pps - self.on_pps) / self.off_pps).max(0.0)
    }
}

/// Measures telemetry overhead on the scalar Split → NF → Merge round trip.
/// **One** switch instance runs both arms — `set_telemetry` is toggled
/// between timed runs — because two separately-built switches differ by a
/// few percent from heap/cache layout alone, which would drown the signal.
/// The arms alternate (on, off, on, off, …) so slow drift in the host's
/// load hits both equally, and the gate statistic is the ratio of the
/// per-arm **bests**: timing noise on a shared host is one-sided
/// (interference only slows a run down), so each arm's maximum over the
/// rounds converges on that arm's true capacity — empirically far stabler
/// than any per-round pairing on a single-core box.
pub fn telemetry_overhead(effort: Effort) -> OverheadReport {
    let tb = testbed();
    let (packets, rounds) = match effort {
        Effort::Quick => (8_192, 25),
        Effort::Full => (16_384, 41),
    };
    let inputs = tb.counted_enterprise_wave(20, packets);
    let (mut sw, _) = tb.build_scalar();
    let mut merged = BatchOutput::new();
    // Warm the pooled scratch (and the recorder ring) outside the timing.
    tb.scalar_roundtrip_into(&mut sw, &inputs[..64], &mut merged);
    let mut report = OverheadReport { on_pps: 0.0, off_pps: 0.0 };
    for _ in 0..rounds {
        sw.set_telemetry(true);
        let start = Instant::now();
        tb.scalar_roundtrip_into(&mut sw, &inputs, &mut merged);
        let on = packets as f64 / start.elapsed().as_secs_f64();
        sw.set_telemetry(false);
        let start = Instant::now();
        tb.scalar_roundtrip_into(&mut sw, &inputs, &mut merged);
        let off = packets as f64 / start.elapsed().as_secs_f64();
        report.on_pps = report.on_pps.max(on);
        report.off_pps = report.off_pps.max(off);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_series_shape_and_positivity() {
        let s = throughput(Effort::Quick);
        assert_eq!(s.points().len(), 5, "scalar + 4 worker widths");
        let pps = s.column("pps").unwrap();
        assert!(pps.iter().all(|&v| v > 0.0), "{pps:?}");
        let speedup = s.column("speedup").unwrap();
        assert_eq!(speedup[0], 1.0);
        let xs: Vec<f64> = s.points().iter().map(|p| p.x).collect();
        assert_eq!(xs, vec![0.0, 1.0, 2.0, 4.0, 8.0]);
    }

    #[test]
    fn overhead_report_measures_both_arms() {
        let r = telemetry_overhead(Effort::Quick);
        assert!(r.on_pps > 0.0 && r.off_pps > 0.0, "{r:?}");
        assert!(r.overhead() >= 0.0 && r.overhead() < 1.0, "{r:?}");
    }

    #[test]
    fn throughput_telemetry_exports_aggregate_counters() {
        let reg = throughput_telemetry(Effort::Quick);
        let splits = reg.get("pp_splits_total", &[]).expect("aggregate splits family");
        assert!(splits.value() > 0.0, "the enterprise wave must split packets");
        assert!(reg.get("pp_ring_depth_highwater", &[("shard", "0")]).is_some());
    }

    #[test]
    fn workload_targets_every_slice() {
        let tb = testbed();
        let wave = workload(Effort::Quick);
        assert!(wave.len() > 500, "window too small: {}", wave.len());
        for k in 0..SLICES {
            assert!(wave.iter().any(|p| p.port == tb.split_port(k)), "slice {k} unused");
        }
    }
}
