//! Emulator throughput with the `pp_fastpath` engine: a 4-worker sharded
//! run over the enterprise packet-size mix, against the scalar pipeline.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example fastpath_throughput
//! ```
//!
//! Each worker owns one §6.2.4 memory slice (its own circular buffers)
//! and runs its share of the wave to completion, packet by packet: Split →
//! MAC-swap NF → Merge, shard-locally. Speedup over the scalar baseline is
//! bounded by the host's spare cores (and this first wave is a cold one);
//! output counters prove the wide run did the same work.

use pp_fastpath::{EgressMeter, EngineConfig, SlicedTestbed};
use pp_netsim::time::SimDuration;
use std::time::Instant;

const WORKERS: usize = 4;

fn main() {
    let tb = SlicedTestbed::new(WORKERS, 4096);
    let wave = tb.enterprise_wave(7, SimDuration::from_millis(10));
    let offered: u64 = wave.iter().map(|p| p.bytes.len() as u64).sum();
    println!(
        "{} enterprise packets ({:.1} MB wire), {} slices, Split -> MAC-swap NF -> Merge",
        wave.len(),
        offered as f64 / 1e6,
        WORKERS,
    );
    println!();

    // Scalar reference: one packet at a time through one switch.
    let (mut scalar, _) = tb.build_scalar();
    let start = Instant::now();
    let merged = tb.scalar_roundtrip(&mut scalar, &wave);
    let scalar_wall = start.elapsed();
    let mut meter = EgressMeter::new();
    meter.record(merged.len() as u64, merged.iter().map(|o| o.bytes.len() as u64).sum());
    let scalar_pps = wave.len() as f64 / scalar_wall.as_secs_f64();
    println!(
        "scalar pipeline : {:>9.0} pkts/s   goodput {:>6.3} Gbit/s",
        scalar_pps,
        meter.gbps(scalar_wall),
    );

    // The engine: one worker per slice, each running its shard to completion.
    let mut engine = tb.build_engine(EngineConfig::default()).unwrap();
    let inputs = wave.clone();
    let start = Instant::now();
    let merged = engine.process_roundtrip(inputs, tb.sink_mac());
    let engine_wall = start.elapsed();
    let mut meter = EgressMeter::new();
    meter.record(merged.packets() as u64, merged.wire_bytes() as u64);
    let engine_pps = wave.len() as f64 / engine_wall.as_secs_f64();
    println!(
        "engine, {WORKERS} shards: {:>9.0} pkts/s   goodput {:>6.3} Gbit/s   ({:.2}x scalar)",
        engine_pps,
        meter.gbps(engine_wall),
        engine_pps / scalar_pps,
    );

    let counters = engine.counters();
    println!();
    println!(
        "engine counters : {} splits, {} merges, {} too-small, 0 premature required -> {}",
        counters.splits,
        counters.merges,
        counters.disabled_small_payload,
        if counters.functionally_equivalent() { "functionally equivalent" } else { "VIOLATION" },
    );
    assert_eq!(merged.packets(), wave.len(), "every packet must reach the sink");
}
