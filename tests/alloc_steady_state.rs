//! Steady-state allocation discipline of the hot paths.
//!
//! The zero-copy refactor pools every per-packet buffer the switch needs
//! (PHVs, origin/by-pipe scratch, the deparse arena, recirculation
//! ping-pong frames), so a warm [`SwitchModel::process_batch`] must not
//! touch the heap at all. This test wraps the system allocator in a
//! counting shim, runs two warm-up batches to size the pools, and then
//! asserts the third batch performs exactly zero allocations. The
//! engine's round trip recycles its output arenas the same way, so a warm
//! wave allocates per worker, never per packet or per batch. The sparse
//! park table ([`SlabStore`]) holds its index pages, both payload arenas
//! and its spill order at their high-water mark, so a warm park + restore
//! cycle is allocation-free too, and a warm cluster round allocates only the owned
//! byte vectors its public API hands out.
//!
//! The counter is global, so the file holds one `#[test]` that runs the
//! checks in sequence: no other test's thread allocates while one counts.

use payloadpark::flowstore::{MergeOutcome, ParkTag};
use payloadpark::{FlowStore, SlabStore};
use pp_cluster::{Cluster, ClusterConfig, StoreKind};
use pp_fastpath::{adverse_return_wave, EngineConfig, SlicedTestbed};
use pp_netsim::adversity::{AdversityProfile, FaultTally, LegProfile};
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

/// pp-bench's store probe (`flowstore.*_park_restore_ns`): park `slots`
/// payloads of 10 blocks, then merge and drain them all. Returns the
/// allocation count of each of `cycles` cycles.
fn allocs_per_store_cycle(store: &mut dyn FlowStore, slots: usize, cycles: u16) -> Vec<u64> {
    let payload = [0xA5u8; 16];
    let mut out = [0u8; 16];
    let mut counts = Vec::with_capacity(cycles.into());
    for clk in 1..=cycles {
        let before = allocs();
        for slot in 0..slots {
            assert!(store.probe(slot, ParkTag { clk, expiry: 1, xsum: 7, tsum: 9 }).parked);
            for j in 0..store.blocks() {
                store.store_block(slot, j, &payload);
            }
        }
        for slot in 0..slots {
            assert!(matches!(store.merge(slot, clk), MergeOutcome::Restored { .. }));
            for j in 0..store.blocks() {
                store.load_block(slot, j, &mut out);
            }
        }
        counts.push(allocs() - before);
        assert_eq!((out, store.occupancy()), (payload, 0));
    }
    counts
}

fn warm_slab_store_never_allocates() {
    const N: usize = 4096;
    let slab = allocs_per_store_cycle(&mut SlabStore::new(N, 10), N, 4)[3];
    assert_eq!(slab, 0, "4th park + restore cycle through SlabStore allocated {slab} times");
    let mut store = SlabStore::with_spill(N, 10, N / 16);
    let spill = allocs_per_store_cycle(&mut store, N, 4)[3];
    assert_eq!(spill, 0, "4th cycle through the spilling SlabStore allocated {spill} times");
    // A hot tier that never fills: nothing demotes, so nothing pops the
    // spill order, and it must still stop growing once warm.
    let mut store = SlabStore::with_spill(N, 10, 2 * N);
    let under = allocs_per_store_cycle(&mut store, N, 8);
    assert_eq!(under[3..], [0; 5], "under-capacity spill store, cycles 4-8: {under:?}");
}

/// A warm round of pp-bench's `cluster_pressure`: 8 × 256-slot slices on
/// two spill-store switches, a fifth of the returns sprayed, a 4 096-packet
/// wave that wraps every table twice, loss/dup/reorder on the NF legs. The
/// two wave calls return owned packets, and a duplicate is a clone; beyond
/// those byte vectors the round may allocate a few dozen times per wave
/// (the returned `Vec`s, the adversity's sort), never per packet. ROADMAP's
/// "< 100 allocations per wave" waits on wave calls that return arenas.
fn warm_cluster_round_allocates_only_what_it_returns() {
    let tb = SlicedTestbed::new(8, 256);
    let cfg = ClusterConfig {
        store: StoreKind::SlabSpill { hot_capacity: 256 },
        ..ClusterConfig::slab(2)
    };
    let mut cluster = Cluster::new(&tb.config(), cfg).expect("cluster builds");
    tb.wire(&mut |mac, port| cluster.l2_add(mac, port));
    cluster.set_proxy_spray(200);
    let wave = tb.counted_mixed_wave(17, 4096);
    let adversity = AdversityProfile {
        seed: 17,
        to_nf: LegProfile::loss(0.02),
        from_nf: LegProfile {
            duplicate: 0.01,
            reorder: 0.2,
            max_displacement: 8,
            ..Default::default()
        },
    };
    let (mut last, mut handed_out) = (0, 0);
    for _ in 0..3 {
        let mut tally = FaultTally::default();
        let before = allocs();
        let to_servers = cluster.process_wave(&wave);
        let split = to_servers.len() as u64;
        let back = adverse_return_wave(&adversity, to_servers, tb.sink_mac(), &mut tally);
        let merged = cluster.process_return_wave(back);
        last = allocs() - before;
        handed_out = split + merged.len() as u64 + tally.duplicated;
        assert!(merged.len() > 3000, "most of the wave is delivered: {}", merged.len());
    }
    assert!(cluster.check_oracle().ok());
    assert!(
        last <= handed_out + 64,
        "3rd cluster round allocated {last} times for {handed_out} packets handed out"
    );
}

#[test]
fn steady_state_allocation_discipline() {
    warm_process_batch_never_allocates();
    warm_engine_roundtrip_allocates_per_worker();
    warm_slab_store_never_allocates();
    warm_cluster_round_allocates_only_what_it_returns();
}
