//! The distributed parking tier: goodput and fault tolerance of a
//! [`pp_cluster::Cluster`] as the switch count grows.
//!
//! Not a figure from the paper — like `throughput`, it measures the
//! reproduction itself. The parent deployment is the shared 8-server
//! slicing; a cluster of N switches serves it behind the consistent-hash
//! plan, and the sweep times the full Split → NF → Merge round trip at
//! N ∈ {1, 2, 4} through the shared conformance drive
//! ([`pp_fastpath::two_phase_adverse`]). The one-switch row doubles as the
//! equivalence anchor: `tests/cluster_conformance.rs` pins a one-switch
//! cluster to the register reference on every scenario, so the sweep's
//! cost over `throughput`'s scalar row is the store indirection plus the
//! routing layer, nothing semantic.
//!
//! The second series is the availability drill: park a wave, black out
//! one switch, and let the survivors merge what they own. The drill
//! asserts the cluster-wide conformance oracle — the blacked-out
//! switch's slots stay accounted, nothing leaks — and that the
//! survivors actually serve (their merges are the goodput that remains).

use std::time::Instant;

use crate::experiments::Effort;
use pp_cluster::{Cluster, ClusterConfig};
use pp_fastpath::{two_phase_adverse, SlicedTestbed};
use pp_metrics::{MetricsRegistry, Series};
use pp_netsim::adversity::{AdversityProfile, FaultTally, LegProfile};
use pp_rmt::switch::BatchPacket;

/// Slices of the parent deployment (the shared 8-server shape).
const SLICES: usize = 8;
/// Per-slice park-table slots: 8 × 512 = 4096, enough for the full wave.
/// (`ClusterConfig::slab` pins the ring seed to 42, the seed the lint
/// targets and the conformance tests share.)
const SLOTS: usize = 512;

fn testbed() -> SlicedTestbed {
    SlicedTestbed::new(SLICES, SLOTS)
}

fn workload(effort: Effort) -> Vec<BatchPacket> {
    let packets = match effort {
        Effort::Quick => 600,
        Effort::Full => 4000,
    };
    testbed().counted_enterprise_wave(21, packets)
}

fn build(tb: &SlicedTestbed, switches: usize) -> Cluster {
    let mut cluster =
        Cluster::new(&tb.config(), ClusterConfig::slab(switches)).expect("cluster builds");
    tb.wire(&mut |mac, port| cluster.l2_add(mac, port));
    cluster
}

/// One timed fault-free sample of `reps` back-to-back round trips (each
/// fully merges, so the cluster re-enters every rep empty); returns
/// (packets/sec, parked-per-rep, merged-per-rep). Repeating inside the
/// timer widens the measurement window — a single 4k-packet round trip
/// is ~10 ms on this class of host, too short for a stable wall-clock
/// rate.
fn run_once(
    tb: &SlicedTestbed,
    inputs: &[BatchPacket],
    switches: usize,
    reps: u64,
) -> (f64, u64, u64) {
    let mut cluster = build(tb, switches);
    let calm = AdversityProfile::disabled();
    let mut tally = FaultTally::default();
    let start = Instant::now();
    let mut merged_total = 0u64;
    for _ in 0..reps {
        merged_total +=
            two_phase_adverse(&mut cluster, inputs, tb.sink_mac(), &calm, &mut tally).len() as u64;
    }
    let wall = start.elapsed();
    cluster.check_oracle().assert_ok();
    let totals = cluster.cluster_counters();
    assert_eq!(merged_total, totals.merges + totals.enb0_from_server);
    let pps = (inputs.len() as u64 * reps) as f64 / wall.as_secs_f64();
    (pps, totals.splits / reps, totals.merges / reps)
}

/// The goodput sweep: packets/sec of the cluster round trip at 1, 2 and
/// 4 switches, one row per switch count.
pub fn cluster_goodput(effort: Effort) -> Series {
    let tb = testbed();
    let inputs = workload(effort);
    let mut series = Series::new(
        "Cluster tier: Split -> NF -> Merge goodput vs switch count (slab store)",
        "switches",
        vec!["pps".into(), "parked".into(), "merged".into()],
    );
    // Wall-clock throughput on a shared host is noisy: take the best of
    // several samples, and at full effort widen each sample to five
    // round trips so one timing window covers ~50 ms of work.
    let (tries, reps) = match effort {
        Effort::Quick => (3, 1),
        Effort::Full => (5, 5),
    };
    for switches in [1usize, 2, 4] {
        let (mut pps, mut parked, mut merged) = (0.0, 0, 0);
        for _ in 0..tries {
            let r = run_once(&tb, &inputs, switches, reps);
            if r.0 > pps {
                (pps, parked, merged) = r;
            }
        }
        assert!(parked > 0, "cluster of {switches} parked nothing");
        assert_eq!(parked, merged, "a calm run restores every parked flow");
        series.push(switches as f64, vec![pps, parked as f64, merged as f64]);
    }
    series
}

/// The blackout drill at N ∈ {2, 4}: park a seeded-adversity wave, take
/// one switch down, and merge the survivors' share. Asserts the
/// cluster-wide oracle (zero leaked slots) and that survivors serve.
pub fn cluster_blackout(effort: Effort) -> Series {
    let tb = testbed();
    let inputs = workload(effort);
    let adv = AdversityProfile { seed: 77, from_nf: LegProfile::loss(0.05), ..Default::default() };
    let mut series = Series::new(
        "Cluster tier: one-switch blackout, survivors' goodput (oracle-clean)",
        "switches",
        vec![
            "survivor_merges".into(),
            "blackout_drops".into(),
            "proxy_drops".into(),
            "leaked_slots".into(),
        ],
    );
    for switches in [2usize, 4] {
        let mut cluster = build(&tb, switches);
        // Stale routing stays on during the outage: sprayed arrivals
        // whose owner is the dead switch die in the mesh (proxy_drops),
        // arrivals cabled to it die at its front panel (blackout_drops).
        cluster.set_proxy_spray(200);
        let mut tally = FaultTally::default();
        let outs = cluster.process_wave(&inputs);
        let down = cluster.switch_ids()[0];
        cluster.set_down(down, true);
        let back = pp_fastpath::adverse_return_wave(&adv, outs, tb.sink_mac(), &mut tally);
        cluster.process_return_wave(back);

        cluster.check_oracle().assert_ok();
        let totals = cluster.cluster_counters();
        let leaked = cluster.occupancy() as i64
            - (totals.splits - totals.merges - totals.explicit_drops - totals.evictions) as i64;
        assert_eq!(leaked, 0, "blackout at N={switches} leaked slots");
        assert!(totals.merges > 0, "survivors must keep serving at N={switches}");
        assert!(
            cluster.counters().blackout_drops > 0,
            "the dead switch's share must be charged at its front panel"
        );
        series.push(
            switches as f64,
            vec![
                totals.merges as f64,
                cluster.counters().blackout_drops as f64,
                cluster.counters().proxy_drops as f64,
                leaked as f64,
            ],
        );
    }
    series
}

/// The telemetry snapshot `pp-exp cluster --telemetry FILE` exports: a
/// two-switch cluster that parks a wave, grows to three switches
/// mid-flight (so the rebalance families are live), and merges the wave
/// under mild adversity — per-switch labelled dataplane families plus
/// the `pp_cluster_*` aggregates, `pp_cluster_rebalance_moved_flows`
/// included.
pub fn cluster_telemetry(effort: Effort) -> MetricsRegistry {
    let tb = testbed();
    let inputs = workload(effort);
    let mut cluster = build(&tb, 2);
    let mut tally = FaultTally::default();
    let outs = cluster.process_wave(&inputs);
    cluster.join().expect("a third switch joins");
    let adv = AdversityProfile::nf_loss(5, 0.02);
    let back = pp_fastpath::adverse_return_wave(&adv, outs, tb.sink_mac(), &mut tally);
    cluster.process_return_wave(back);
    cluster.check_oracle().assert_ok();
    cluster.telemetry_registry(&tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goodput_rows_park_and_restore_at_every_width() {
        let s = cluster_goodput(Effort::Quick);
        assert_eq!(s.points().len(), 3);
        let pps = s.column("pps").unwrap();
        assert!(pps.iter().all(|&p| p > 0.0), "{pps:?}");
        assert_eq!(s.points()[0].x, 1.0);
        assert_eq!(s.points()[2].x, 4.0);
    }

    #[test]
    fn blackout_drill_is_oracle_clean_with_survivors_serving() {
        let s = cluster_blackout(Effort::Quick);
        let merges = s.column("survivor_merges").unwrap();
        let leaked = s.column("leaked_slots").unwrap();
        assert!(merges.iter().all(|&m| m > 0.0), "{merges:?}");
        assert!(leaked.iter().all(|&l| l == 0.0), "{leaked:?}");
    }

    #[test]
    fn telemetry_snapshot_has_per_switch_labels_and_rebalance_counter() {
        let reg = cluster_telemetry(Effort::Quick);
        assert!(reg.get("pp_cluster_rebalance_moved_flows", &[]).is_some());
        assert!(reg.get("pp_cluster_rebalances", &[]).unwrap().value() >= 1.0);
        // At least one per-switch labelled dataplane family.
        assert!(reg.get("pp_splits_total", &[("switch", "0")]).is_some());
        assert!(reg.get("pp_splits_total", &[]).is_some(), "aggregate family");
    }
}
