//! The adversity scenario matrix (acceptance oracle): the sharded engine.
//!
//! Every scenario of the shared matrix (`tests/matrix/mod.rs`) — loss,
//! bounded reordering, duplication, truncation, scripted blackouts, their
//! combination, and payload corruption, on UDP-only and mixed TCP+UDP
//! waves — is driven through the sharded engine at 2 and 4 workers, which
//! must equal the register reference exactly and pass the conformance
//! oracle. The store and cluster columns of the same matrix run in
//! `flowstore_matrix.rs` and `cluster_conformance.rs`.

mod matrix;

use matrix::{run_matrix, Cell, TB};
use pp_fastpath::EngineConfig;

fn engine_columns(cell: &Cell<'_>) {
    for workers in [2usize, 4] {
        let mut engine =
            TB.build_engine(EngineConfig { workers, batch: 32, ring_depth: 4 }).unwrap();
        cell.assert_conforms(&format!("engine ({workers} workers)"), &mut engine);
    }
}

#[test]
fn matrix_holds_on_udp_only_waves() {
    run_matrix(false, engine_columns);
}

#[test]
fn matrix_holds_on_mixed_tcp_udp_waves() {
    run_matrix(true, engine_columns);
}
