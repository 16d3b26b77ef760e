//! The adversity scenario matrix, shared by the conformance suites.
//!
//! One scenario list — loss, bounded reordering, duplication, truncation,
//! scripted blackouts, their combination, and payload corruption — over
//! UDP-only and mixed TCP+UDP enterprise waves, and one register-backed
//! reference (`build_switch`) per cell. Each suite adds its own path
//! columns: `adversity_matrix.rs` the sharded engine, `flowstore_matrix.rs`
//! the store program over each park table, `cluster_conformance.rs` the
//! one-switch cluster. Every column runs through the one conformance
//! drive (`pp_fastpath::conformance`) and suffers the *identical* seeded
//! misfortune (every fault decision is a pure function of
//! `(seed, leg, seq)`).
//!
//! For each cell the conformance oracle must hold — the counters balance
//! against the occupied slots (no leaks, no double-frees) and, for
//! non-corrupting scenarios, every delivered packet passes checksum
//! verification — and every column must equal the reference exactly:
//! identical counter totals, switch statistics, occupancy, fault tallies
//! and delivered sets (bytes, egress port and latency of every delivered
//! packet). Each scenario must visibly bite on the reference, or its
//! cells would prove nothing.

// Each suite compiles this module on its own and uses only part of it.
#![allow(dead_code)]

use pp_cluster::StoreKind;
use pp_fastpath::{Dataplane, PathResult, SlicedTestbed};
use pp_netsim::adversity::{AdversityProfile, LegProfile, SeqWindow};
use pp_rmt::switch::BatchPacket;

const SCENARIO_SEED: u64 = 77;
pub const WAVE_SEED: u64 = 9;
/// Two waves of 200: the second wave's splits wrap the 4 × 48-slot table
/// and age out whatever the first wave's adversity orphaned.
pub const WAVE_PACKETS: usize = 200;
pub const TB: SlicedTestbed = SlicedTestbed { slices: 4, slots: 48 };

/// The park tables of the store and cluster columns. A hot tier of 8
/// payloads against ~200 parked flows: the spilling slab demotes
/// constantly, and must still be byte-identical.
pub const STORES: [StoreKind; 3] =
    [StoreKind::Circular, StoreKind::Slab, StoreKind::SlabSpill { hot_capacity: 8 }];

/// One matrix scenario: a name, the profile, and whether delivered
/// packets must still verify their checksums (false only for corruption,
/// which mangles payload bytes the baseline would deliver mangled too).
fn scenarios() -> Vec<(&'static str, AdversityProfile, bool)> {
    let base = AdversityProfile { seed: SCENARIO_SEED, ..Default::default() };
    vec![
        ("loss", AdversityProfile { from_nf: LegProfile::loss(0.25), ..base.clone() }, true),
        (
            "reorder",
            AdversityProfile {
                from_nf: LegProfile { reorder: 0.5, max_displacement: 40, ..Default::default() },
                ..base.clone()
            },
            true,
        ),
        (
            "dup",
            AdversityProfile {
                from_nf: LegProfile { duplicate: 0.3, ..Default::default() },
                ..base.clone()
            },
            true,
        ),
        (
            "truncate",
            AdversityProfile {
                from_nf: LegProfile { truncate: 0.3, ..Default::default() },
                ..base.clone()
            },
            true,
        ),
        (
            "blackout",
            AdversityProfile {
                from_nf: LegProfile {
                    blackouts: vec![SeqWindow { from: 60, to: 140 }],
                    ..Default::default()
                },
                ..base.clone()
            },
            true,
        ),
        (
            "combined",
            AdversityProfile {
                to_nf: LegProfile::loss(0.05),
                from_nf: LegProfile {
                    drop: 0.15,
                    duplicate: 0.15,
                    truncate: 0.15,
                    reorder: 0.3,
                    max_displacement: 24,
                    ..Default::default()
                },
                ..base.clone()
            },
            true,
        ),
        (
            "corrupt",
            AdversityProfile { from_nf: LegProfile { corrupt: 0.4, ..Default::default() }, ..base },
            false,
        ),
    ]
}

/// One cell row of the matrix: a scenario on one traffic mix, with the
/// register reference every column must equal.
pub struct Cell<'a> {
    name: &'static str,
    mixed: bool,
    adv: AdversityProfile,
    verify_checksums: bool,
    waves: [&'a [BatchPacket]; 2],
    reference: PathResult,
}

/// A path's name in failure messages: the cell, then the column.
fn label(name: &str, mixed: bool, path: &str) -> String {
    format!("{name} (mixed={mixed}): {path}")
}

impl Cell<'_> {
    /// Drives `dp` through this cell's waves and adversity, and requires
    /// it to equal the reference exactly and pass the oracle.
    pub fn assert_conforms(&self, path: &str, dp: &mut dyn Dataplane) -> PathResult {
        let path = label(self.name, self.mixed, path);
        let got = PathResult::run(path, dp, &self.waves, TB.sink_mac(), &self.adv);
        if let Err(e) =
            got.diff(&self.reference).and_then(|()| got.check_oracle(self.verify_checksums))
        {
            panic!("{e}");
        }
        got
    }
}

/// Runs every scenario on one traffic mix: builds the register reference,
/// checks it against the oracle and that the scenario bites, then hands
/// the cell to `columns`.
pub fn run_matrix(mixed: bool, mut columns: impl FnMut(&Cell<'_>)) {
    let inputs = if mixed {
        TB.counted_mixed_wave(WAVE_SEED, 2 * WAVE_PACKETS)
    } else {
        TB.counted_enterprise_wave(WAVE_SEED, 2 * WAVE_PACKETS)
    };
    let waves = [&inputs[..WAVE_PACKETS], &inputs[WAVE_PACKETS..]];

    for (name, adv, verify_checksums) in scenarios() {
        let path = label(name, mixed, "register");
        let reference = PathResult::run(path, &mut TB.build_scalar(), &waves, TB.sink_mac(), &adv);
        assert!(reference.counters.splits > 0, "{name}: workload must park");
        if let Err(e) = reference.check_oracle(verify_checksums) {
            panic!("{e}");
        }

        // Scenario-specific signals: the adversity must actually bite.
        let (tally, counters) = (&reference.tally, &reference.counters);
        match name {
            "loss" | "blackout" | "combined" => {
                assert!(tally.lost() > 0, "{name}: {tally:?}");
                assert!(
                    counters.evictions > 0,
                    "{name}: orphaned slots must be aged out: {counters:?}"
                );
            }
            "dup" => {
                assert!(tally.duplicated > 0, "{name}: {tally:?}");
                assert!(counters.dup_merge > 0, "{name}: {counters:?}");
            }
            "truncate" => {
                assert!(tally.truncated > 0, "{name}: {tally:?}");
                assert!(reference.stats.parse_errors > 0, "{name}: {:?}", reference.stats);
            }
            "reorder" => {
                assert!(tally.displaced > 0, "{name}: {tally:?}");
                assert_eq!(reference.delivered.len(), inputs.len(), "reorder loses nothing");
            }
            "corrupt" => {
                assert!(tally.corrupted > 0, "{name}: {tally:?}");
            }
            _ => unreachable!(),
        }

        columns(&Cell { name, mixed, adv, verify_checksums, waves, reference });
    }
}
