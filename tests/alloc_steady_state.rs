//! Steady-state allocation discipline of the hot paths.
//!
//! The zero-copy refactor pools every per-packet buffer the switch needs
//! (PHVs, origin/by-pipe scratch, the deparse arena, recirculation
//! ping-pong frames), so a warm [`SwitchModel::process_batch`] must not
//! touch the heap at all. This test wraps the system allocator in a
//! counting shim, runs two warm-up batches to size the pools, and then
//! asserts the third batch performs exactly zero allocations. The
//! engine's round trip recycles its output arenas the same way, so a warm
//! wave allocates per worker, never per packet or per batch.
//!
//! The counter is global, so the file holds one `#[test]` that runs the
//! checks in sequence: no other test's thread allocates while one counts.

use pp_fastpath::{EngineConfig, SlicedTestbed};
use pp_rmt::switch::BatchOutput;
use pp_rmt::SwitchModel;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation and reallocation routed through the global
/// allocator (deallocations are free to happen — returning pooled memory
/// is not the property under test).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: a pure pass-through to the system allocator plus a relaxed
// counter bump; every contract (layout validity, pointer provenance) is
// forwarded unchanged to `System`, whose caller-side obligations are
// exactly ours.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout contract as our own caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: ptr/layout/new_size are forwarded from our caller intact.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: ptr was allocated by `alloc`/`realloc` above, which
        // delegate to `System` with the same layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Runs `batches` identical waves through `process_batch` and returns the
/// allocation count of the last one.
fn allocs_in_last_batch(sw: &mut SwitchModel, tb: &SlicedTestbed, batches: usize) -> u64 {
    let wave = tb.counted_mixed_wave(17, 256);
    let mut out = BatchOutput::new();
    let mut last = 0;
    for _ in 0..batches {
        let before = allocs();
        sw.process_batch(&wave, &mut out);
        last = allocs() - before;
        assert!(!out.is_empty(), "the wave must produce egress packets");
    }
    last
}

fn warm_process_batch_never_allocates() {
    let tb = SlicedTestbed::new(8, 2048);

    // The full PayloadPark program: split-side block extraction, register
    // stores, metadata table writes, shim insertion.
    let (mut park, _) = tb.build_scalar();
    let park_allocs = allocs_in_last_batch(&mut park, &tb, 3);
    assert_eq!(
        park_allocs, 0,
        "3rd batch through the PayloadPark program allocated {park_allocs} times"
    );
}

/// A warm 4 096-packet round-trip wave through the 2-worker engine,
/// counted on every thread: the dispatcher's partition queues, message
/// deques and result vectors, a dozen allocations or so — nothing that
/// grows with the packet count (2 × 2 048) or the batch count (2 × 16).
fn warm_engine_roundtrip_allocates_per_worker() {
    let tb = SlicedTestbed::new(8, 2048);
    let mut engine = tb.build_engine(EngineConfig { workers: 2, ..Default::default() }).unwrap();
    let wave = tb.counted_mixed_wave(17, 4096);
    // Cloned up front: the engine consumes its input, and the clone's
    // 4 096 buffers are the caller's, not the engine's.
    let waves: Vec<_> = (0..3).map(|_| wave.clone()).collect();
    let mut last = 0;
    for inputs in waves {
        let before = allocs();
        let out = engine.process_roundtrip(inputs, tb.sink_mac());
        last = allocs() - before;
        assert_eq!(out.packets(), 4096);
        // Dropped here: the arenas are back in the pool for the next wave.
    }
    assert!(last < 100, "3rd round-trip wave allocated {last} times");
}

#[test]
fn steady_state_allocation_discipline() {
    warm_process_batch_never_allocates();
    warm_engine_roundtrip_allocates_per_worker();
}
