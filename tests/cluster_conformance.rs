//! Cluster-tier conformance (acceptance oracle for the distributed tier).
//!
//! 1. **Anchor** — a one-switch cluster is *exactly* the register
//!    reference on every cell of the shared adversity matrix
//!    (`tests/matrix/mod.rs`), over each of the three stores. Everything
//!    the cluster adds (routing, attachment, the mesh) must vanish at
//!    N = 1.
//!
//! The other pins are the ones only a multi-switch cluster has, all on
//! the shared 8-server slicing under seeded adversity:
//!
//! 2. **Blackout** — at N ∈ {2, 4}, park a wave, kill one switch, and
//!    run the adverse merge wave: the cluster-wide oracle holds (zero
//!    leaked slots), the dead switch's share is charged at its front
//!    panel, and the survivors keep serving fresh traffic end to end.
//! 3. **Churn** — join and leave with flows in flight under adversity:
//!    migrations preserve occupancy, proxy-merges restore across the
//!    mesh, departed history stays on the books, and the oracle holds
//!    at every step.
//! 4. **Spill migration** — spilled payloads survive join and leave
//!    byte-identical to the scalar reference.

mod matrix;

use payloadpark::CounterSnapshot;
use pp_cluster::{Cluster, ClusterConfig, StoreKind};
use pp_fastpath::{adverse_return_wave, PathResult, SlicedTestbed};
use pp_netsim::adversity::{AdversityProfile, FaultTally, LegProfile};

const SLICES: usize = 8;
const SLOTS: usize = 48;
const PACKETS: usize = 200;
const TB: SlicedTestbed = SlicedTestbed { slices: SLICES, slots: SLOTS };

fn build(cfg: ClusterConfig) -> Cluster {
    let mut cluster = Cluster::new(&TB.config(), cfg).expect("cluster builds");
    TB.wire(&mut |mac, port| cluster.l2_add(mac, port));
    cluster
}

/// The seeded misfortune every path here suffers: light loss both ways
/// plus duplication on the return leg.
fn adversity() -> AdversityProfile {
    AdversityProfile {
        seed: 77,
        to_nf: LegProfile::loss(0.05),
        from_nf: LegProfile { drop: 0.1, duplicate: 0.1, ..Default::default() },
    }
}

/// Balance check shared by the blackout cells: occupied slots must equal
/// what the counters say is still parked.
fn assert_no_leak(cluster: &Cluster, ctx: &str) {
    let t: CounterSnapshot = cluster.cluster_counters();
    assert_eq!(cluster.occupancy() as i64, t.outstanding(), "{ctx}: leaked slots");
    cluster.check_oracle().assert_ok();
}

#[test]
fn one_switch_cluster_is_the_scalar_reference() {
    for mixed in [false, true] {
        matrix::run_matrix(mixed, |cell| {
            for kind in matrix::STORES {
                let cfg = ClusterConfig { store: kind, ..ClusterConfig::slab(1) };
                let mut cluster = Cluster::new(&matrix::TB.config(), cfg).expect("cluster builds");
                matrix::TB.wire(&mut |mac, port| cluster.l2_add(mac, port));
                let got =
                    cell.assert_conforms(&format!("1-switch cluster ({kind:?})"), &mut cluster);
                // And nothing clusterish happened: one switch needs no mesh.
                assert_eq!(cluster.counters().proxy_merges, 0, "{}", got.path);
                assert_eq!(cluster.counters().blackout_drops, 0, "{}", got.path);
                cluster.check_oracle().assert_ok();
            }
        });
    }
}

#[test]
fn blackout_leaks_nothing_and_survivors_keep_serving() {
    let adv = adversity();
    for switches in [2usize, 4] {
        let ctx = format!("N={switches}");
        let mut cluster = build(ClusterConfig::slab(switches));
        let mut tally = FaultTally::default();

        // Park a wave, then one switch goes dark before the merges.
        let inputs = TB.counted_enterprise_wave(32, PACKETS);
        let outs = cluster.process_wave(&inputs);
        let down = cluster.switch_ids()[0];
        cluster.set_down(down, true);
        let back = adverse_return_wave(&adv, outs, TB.sink_mac(), &mut tally);
        cluster.process_return_wave(back);

        let after_wave1 = cluster.cluster_counters();
        assert!(after_wave1.merges > 0, "{ctx}: survivors merged nothing");
        assert!(cluster.counters().blackout_drops > 0, "{ctx}: the dead switch absorbed nothing");
        assert_no_leak(&cluster, &ctx);

        // Survivors keep serving: a fresh wave parks and merges on the
        // live switches (the dead switch's ports drop at ingress).
        let wave2 = TB.counted_enterprise_wave(33, PACKETS);
        let outs2 = cluster.process_wave(&wave2);
        assert!(!outs2.is_empty(), "{ctx}: live switches split nothing");
        let back2 = adverse_return_wave(&adv, outs2, TB.sink_mac(), &mut tally);
        cluster.process_return_wave(back2);
        let after_wave2 = cluster.cluster_counters();
        assert!(after_wave2.merges > after_wave1.merges, "{ctx}: survivors stopped serving");
        assert_no_leak(&cluster, &ctx);

        // The dead switch never served the second wave.
        let dead_after = cluster.switch_counters(down).unwrap();
        cluster.set_down(down, false);
        assert_eq!(
            cluster.switch_counters(down).unwrap(),
            dead_after,
            "{ctx}: a downed switch processed traffic"
        );
    }
}

#[test]
fn churn_under_adversity_stays_oracle_clean() {
    let adv = adversity();
    let mut cluster = build(ClusterConfig::slab(2));
    let mut tally = FaultTally::default();

    // Wave 1 parks on two switches; a third joins with flows in flight.
    let inputs = TB.counted_enterprise_wave(34, PACKETS);
    let outs = cluster.process_wave(&inputs);
    let occupied = cluster.occupancy();
    cluster.join().expect("switch 2 joins");
    assert_eq!(cluster.occupancy(), occupied, "migration lost parked flows");
    assert!(cluster.counters().rebalance_moved_flows > 0, "nothing migrated");
    cluster.check_oracle().assert_ok();

    // The migrated slices' merges proxy over the mesh and restore.
    let back = adverse_return_wave(&adv, outs, TB.sink_mac(), &mut tally);
    cluster.process_return_wave(back);
    assert!(cluster.counters().proxy_merges > 0, "no merge crossed the mesh");
    cluster.check_oracle().assert_ok();

    // Wave 2 in flight while a switch leaves: its history retires, its
    // flows migrate to the survivors, and the books still balance.
    let wave2 = TB.counted_enterprise_wave(35, PACKETS);
    let outs2 = cluster.process_wave(&wave2);
    let gone = cluster.switch_ids()[0];
    cluster.leave(gone).expect("a three-switch cluster can lose one");
    assert!(!cluster.switch_ids().contains(&gone));
    cluster.check_oracle().assert_ok();
    let back2 = adverse_return_wave(&adv, outs2, TB.sink_mac(), &mut tally);
    cluster.process_return_wave(back2);
    cluster.check_oracle().assert_ok();

    // Every merge of both waves happened (minus what adversity ate):
    // the survivors' books carry the departed switch's splits forever.
    let totals = cluster.cluster_counters();
    assert!(totals.merges > 0);
    assert_eq!(cluster.occupancy() as i64, totals.outstanding(), "churn leaked slots");
}

/// Spill-tier payloads must survive rebalance migration byte-for-byte
/// (the pp-fuzz satellite regression): park a wave onto switches whose
/// hot tier is far too small — most payloads demote to the spill map —
/// then join and leave with everything still parked, and finally merge.
/// Every delivered packet must match the scalar reference exactly, the
/// spill gauge must track the demoted population across migrations, and
/// the books must balance at every step.
#[test]
fn spill_tier_payloads_survive_rebalance_byte_identical() {
    const HOT: usize = 8;
    let wave = TB.counted_enterprise_wave(36, PACKETS);

    // Scalar reference: the same wave, two-phase, no cluster, no churn.
    let calm = AdversityProfile::disabled();
    let scalar = PathResult::run("scalar", &mut TB.build_scalar(), &[&wave], TB.sink_mac(), &calm);
    assert!(scalar.counters.splits as usize > 2 * HOT, "wave must overflow the hot tier");

    let mut cluster = build(ClusterConfig {
        store: StoreKind::SlabSpill { hot_capacity: HOT },
        ..ClusterConfig::slab(2)
    });

    // Split phase: with two switches and an 8-payload hot tier each,
    // most parked payloads must demote before anything merges.
    let outs = cluster.process_wave(&wave);
    let parked = cluster.occupancy();
    let spilled_before = cluster.spilled();
    assert!(spilled_before > 0, "nothing demoted to the spill tier");
    assert!(parked > spilled_before, "hot tier unused");
    cluster.check_oracle().assert_ok();

    // Churn with every payload still parked: a third switch joins
    // (spilled payloads migrate store-to-store), then the lowest
    // original switch leaves (its spill tier migrates again).
    cluster.join().expect("switch 2 joins");
    assert_eq!(cluster.occupancy(), parked, "join lost parked flows");
    assert!(cluster.counters().rebalance_moved_flows > 0, "nothing migrated");
    assert!(cluster.spilled() <= parked, "spill gauge exceeds the parked population");
    cluster.check_oracle().assert_ok();

    let gone = cluster.switch_ids()[0];
    cluster.leave(gone).expect("a three-switch cluster can lose one");
    assert_eq!(cluster.occupancy(), parked, "leave lost parked flows");
    // Two survivors, 8 hot payloads each: the overflow is still demoted.
    assert!(cluster.spilled() >= parked.saturating_sub(2 * HOT), "demoted payloads vanished");
    cluster.check_oracle().assert_ok();

    // Merge phase: every payload — hot or spilled, migrated twice —
    // restores byte-identically to the scalar reference.
    let back: Vec<_> = outs
        .into_iter()
        .map(|mut pkt| {
            pkt.bytes[0..6].copy_from_slice(&TB.sink_mac().0);
            pkt
        })
        .collect();
    let merged = cluster.process_return_wave(back);
    let merged = PathResult::capture("cluster", &mut cluster, merged, FaultTally::default());
    assert_eq!(merged.delivered.len(), scalar.delivered.len(), "delivered count diverged");
    assert!(merged.delivered == scalar.delivered, "delivered set diverged");
    assert_eq!(cluster.occupancy(), 0, "merges left flows parked");
    assert_eq!(cluster.spilled(), 0, "spill gauge leaked after restore");
    cluster.check_oracle().assert_ok();
}
