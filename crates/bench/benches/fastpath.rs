//! The `pp_fastpath` bench: packets/sec of the full Split → NF → Merge
//! round trip, scalar pipeline vs the sharded run-to-completion engine at
//! 1/2/4/8 workers over an 8-server §6.2.4 slicing
//! ([`pp_fastpath::SlicedTestbed`], the same rig the equivalence oracle
//! and `pp-exp throughput` use).
//!
//! Engines are built once per target, so the worker threads are warm and
//! iterations measure the steady state. Both sides clone the input wave
//! per iteration (the engine consumes its inputs), keeping the comparison
//! apples-to-apples. Each worker runs the scalar loop on its shard's share
//! of the wave into a recycled arena, so speedup over scalar is bounded by
//! the host's spare cores: N cores retire ~N shards concurrently, a
//! single-core host merely time-slices them. `PP_BENCH_FAST=1` shrinks the
//! measurement to a smoke pass, as for the other targets.
//!
//! `pp-bench`'s `scalar_mixed`/`engine_2w` workloads are the measurement
//! of record for this comparison. This target stays because it is the
//! only caller that issues waves back to back (no pause between waves,
//! the next `wave.clone()` racing the workers' frees) — a regime where
//! the engine still loses — until `pp-bench` grows that mode.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pp_fastpath::{EngineConfig, SlicedTestbed};
use pp_netsim::time::SimDuration;
use pp_rmt::switch::BatchOutput;
use std::hint::black_box;

fn bench_fastpath(c: &mut Criterion) {
    let tb = SlicedTestbed::new(8, 2048);
    let wave = tb.enterprise_wave(11, SimDuration::from_millis(2));
    let n = wave.len() as u64;

    let mut g = c.benchmark_group("fastpath");
    g.throughput(Throughput::Elements(n));

    let (mut scalar, _) = tb.build_scalar();
    let mut merged = BatchOutput::new();
    g.bench_function("scalar_roundtrip", |b| {
        b.iter(|| {
            let inputs = wave.clone();
            tb.scalar_roundtrip_into(&mut scalar, &inputs, &mut merged);
            black_box(merged.len())
        })
    });

    // Telemetry (flight recorder + stage profiling) is on by default; this
    // leg is the same roundtrip with it switched off, so the trajectory
    // tracks the observability overhead (`pp-exp overhead` gates it ≤3 %).
    let (mut dark, _) = tb.build_scalar();
    dark.set_telemetry(false);
    g.bench_function("scalar_roundtrip_no_telemetry", |b| {
        b.iter(|| {
            let inputs = wave.clone();
            tb.scalar_roundtrip_into(&mut dark, &inputs, &mut merged);
            black_box(merged.len())
        })
    });

    for workers in [1usize, 2, 4, 8] {
        let mut engine = tb.build_engine(EngineConfig { workers, ..Default::default() }).unwrap();
        g.bench_function(&format!("engine_{workers}_workers"), |b| {
            b.iter(|| black_box(engine.process_roundtrip(wave.clone(), tb.sink_mac()).packets()))
        });
    }
    g.finish();
}

criterion_group!(fastpath, bench_fastpath);
criterion_main!(fastpath);
