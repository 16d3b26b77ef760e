//! `pp_verify`: a static dataplane verifier for the RMT IR.
//!
//! Four analysis passes over the in-memory program form, run at config
//! time (no packets flow, nothing touches the zero-alloc hot path):
//!
//! 1. **PHV def-use dataflow** — every header read is dominated by a
//!    parser extract or a prior-stage validation on every reachable
//!    (port, parse-outcome) path; metadata reads are definitely written
//!    first. Codes PV101–PV103.
//! 2. **Reachability and shadowing** — dead rules, tables whose
//!    precondition an earlier table always destroys, redundant gateway
//!    conjuncts, dead metadata writes. Codes PV201–PV204.
//! 3. **Stateful stage locality** — no register array bound from more
//!    than one stage (the precondition under which
//!    [`pp_rmt::Pipeline::execute_batch`] is scalar-equivalent), bindings
//!    match spec stages, same-stage double bindings are provably
//!    exclusive. Codes PV301–PV304.
//! 4. **Shard disjointness** — every lookup-table slot range and ingress
//!    port of a [`payloadpark::shard::ShardPlan`] is owned by exactly one
//!    worker. Codes PV401–PV404.
//! 5. **Cluster disjointness** — the distributed analogue of pass 4: a
//!    [`pp_cluster::ClusterPlan`]'s slot ranges, port claims, routing map
//!    and global slice bases are consistent and cover the parent. Codes
//!    PV401, PV405–PV406.
//!
//! The verifier never inspects closures: each MAT carries a declarative
//! [`pp_rmt::MatSummary`] describing its gateway and action effects, and
//! the passes walk those summaries (tables without one are reported as
//! PV001 and treated conservatively).
//!
//! Entry points: [`check`] for one built pipeline (the ISSUE-stable API),
//! [`check_deployment`] for a whole [`payloadpark::ParkConfig`] including
//! annex-pipe recirculation bridging, [`check_store_deployment`] for a
//! cluster member's store-backed build, [`check_shard_plan`] for pass 4,
//! [`check_cluster_plan`] for pass 5, and
//! [`check_ir`] for a hand-built [`ProgramIr`] (negative tests). The
//! `pp-lint` binary in `pp_harness` runs all of them over every built-in
//! program and exits non-zero on any [`Severity::Error`] finding.

pub mod cluster;
pub mod dataflow;
pub mod deploy;
pub mod diag;
pub mod ir;
pub mod locality;
pub mod shard;

use pp_rmt::{ParserConfig, Pipeline};

pub use cluster::{check_cluster, check_cluster_plan, ClusterIr, SwitchIr};
pub use deploy::{check_deployment, check_store_deployment};
pub use diag::{Code, Diagnostic, Report, Severity};
pub use ir::{MatIr, ParserIr, PortFacts, ProgramIr, RegIr};
pub use shard::{check_shard_plan, check_shards, ShardIr, SliceClaim, WorkerIr};

/// Verifies one built pipeline against a parser accept set: runs passes
/// 1–3 and returns the findings (most severe first). `parser` is normally
/// `pipeline.parser()`; passing a different accept set checks the program
/// against hypothetical traffic.
pub fn check(pipeline: &Pipeline, parser: &ParserConfig) -> Vec<Diagnostic> {
    check_ir(&ProgramIr::from_pipeline("pipeline", pipeline, parser))
}

/// Verifies a hand-built or extracted [`ProgramIr`] (passes 1–3).
/// Deployment-wide dead-metadata analysis (PV204) is included only when
/// the program does not recirculate — a recirculating program's metadata
/// readers live in another pipe, which [`check_deployment`] sees.
pub fn check_ir(ir: &ProgramIr) -> Vec<Diagnostic> {
    let walk = dataflow::analyze(ir);
    let mut diags = walk.diagnostics;
    diags.extend(locality::check_stage_locality(ir));
    if !ir.recirculates() {
        diags.extend(dataflow::meta_usage(&[ir]));
    }
    diags.sort_by(|a, b| b.severity.cmp(&a.severity).then_with(|| a.code.cmp(&b.code)));
    diags
}
