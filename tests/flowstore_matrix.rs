//! FlowStore-swap equivalence over the adversity matrix.
//!
//! The park table is behind the [`payloadpark::FlowStore`] trait; the
//! dataplane program must not care which store implementation backs it.
//! Every scenario of the shared matrix (`tests/matrix/mod.rs`) is driven
//! through the store program over the circular-buffer store, the
//! generational slab store, and the slab store with a deliberately tiny
//! hot tier, so cold parked payloads demote to the spill tier mid-run.
//! Each must equal the register reference exactly and pass the
//! conformance oracle. A dedicated probe pins that the tiny hot tier
//! really does demote payloads mid-wave — otherwise the spill cells would
//! prove nothing.

mod matrix;

use matrix::{run_matrix, Cell, STORES, TB, WAVE_PACKETS, WAVE_SEED};
use payloadpark::flowstore::shared;
use payloadpark::{build_store_switch, CircularStore, SlabStore, StoreControl};
use pp_cluster::StoreKind;
use pp_rmt::switch::SwitchModel;

/// The store program over `kind`, L2 wired.
fn store_switch(kind: StoreKind) -> (SwitchModel, StoreControl) {
    let cfg = TB.config();
    let (slots, blocks) = (cfg.pipes[0].total_slots(), cfg.primary_blocks);
    let store = match kind {
        StoreKind::Circular => shared(CircularStore::new(slots, blocks)),
        StoreKind::Slab => shared(SlabStore::new(slots, blocks)),
        StoreKind::SlabSpill { hot_capacity } => {
            shared(SlabStore::with_spill(slots, blocks, hot_capacity))
        }
    };
    let mut dp = build_store_switch(&cfg, store).expect("store switch builds");
    TB.wire(&mut |mac, port| dp.0.l2_add(mac, port));
    dp
}

fn store_columns(cell: &Cell<'_>) {
    for kind in STORES {
        cell.assert_conforms(&format!("store ({kind:?})"), &mut store_switch(kind));
    }
}

/// The spill cells only prove something if the tiny hot tier actually
/// demotes. Park a full wave (split phase only, nothing merges back yet)
/// and watch the gauge: everything beyond the 8 hottest payloads must sit
/// in the spill tier.
#[test]
fn tiny_hot_tier_demotes_mid_wave() {
    let (mut sw, control) = store_switch(StoreKind::SlabSpill { hot_capacity: 8 });
    let wave = TB.counted_enterprise_wave(WAVE_SEED, WAVE_PACKETS);
    let mut outs = Vec::new();
    for pkt in &wave {
        outs.extend(sw.process(&pkt.bytes, pkt.port, pkt.seq));
    }
    let parked = control.occupancy();
    assert!(parked > 8, "wave too small to overflow the hot tier");
    assert_eq!(control.spilled(), parked - 8, "all but the hot tier must demote");

    // Merging restores spilled payloads byte-for-byte: drain the wave
    // and the gauge follows the occupancy down to zero.
    for out in outs {
        let mut back = out.bytes;
        back[0..6].copy_from_slice(&TB.sink_mac().0);
        sw.process(&back, out.port, out.seq);
    }
    assert_eq!(control.occupancy(), 0);
    assert_eq!(control.spilled(), 0);
}

#[test]
fn store_swap_is_invisible_on_udp_only_waves() {
    run_matrix(false, store_columns);
}

#[test]
fn store_swap_is_invisible_on_mixed_tcp_udp_waves() {
    run_matrix(true, store_columns);
}
