//! Multiple NF servers sharing one pipe via static memory slicing
//! (paper §6.2.3): each server gets its own slice of the lookup table, so
//! a heavy-hitting neighbour cannot evict another tenant's payloads.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example multi_server
//! ```

use pp_harness::experiments::fig10_11_pipe;
use pp_harness::testbed::{run_servers, TestbedConfig};
use pp_netsim::time::SimDuration;

fn main() {
    // One pipe of the paper's 8-server rig; PayloadPark reserves 40% of
    // the pipe, split between the 2 slices.
    let cfg = |park: bool| TestbedConfig {
        rate_gbps: 5.0,
        duration: SimDuration::from_millis(15),
        ..fig10_11_pipe(park)
    };
    let base = run_servers(&cfg(false));
    let park = run_servers(&cfg(true));

    println!("Two NF servers (MAC swap, 384 B packets) sharing one pipe, 5 Gbps each:");
    println!();
    println!(
        "{:>8} {:>16} {:>16} {:>14} {:>14} {:>12}",
        "server", "base goodput", "park goodput", "base lat us", "park lat us", "pcie saved"
    );
    for s in 0..2 {
        let saved = (1.0 - park[s].pcie_gbps / base[s].pcie_gbps) * 100.0;
        println!(
            "{:>8} {:>16.4} {:>16.4} {:>14.2} {:>14.2} {:>11.1}%",
            s + 1,
            base[s].goodput_gbps,
            park[s].goodput_gbps,
            base[s].avg_latency_us,
            park[s].avg_latency_us,
            saved
        );
    }
    let c = park[0].counters.unwrap();
    println!();
    println!(
        "pipe counters: splits={} merges={} premature_evictions={}",
        c.splits, c.merges, c.premature_evictions
    );
    println!(
        "\nBoth tenants split and merge through disjoint slices of the same pipe's\n\
         lookup table — the isolation behind the paper's 8-server result (Figs. 10-11)."
    );
}
