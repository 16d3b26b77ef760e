//! **`pp_fastpath`** — a sharded multi-worker execution engine for the
//! PayloadPark Split/Merge dataplane.
//!
//! The reproduction's reference pipeline ([`pp_rmt::Pipeline`]) is
//! deliberately scalar and deterministic: one packet at a time, one thread.
//! That is the right *oracle*, but it cannot exhibit the property the
//! paper is about — throughput. This crate runs the same dataplane wide:
//!
//! * [`payloadpark::ShardPlan`] partitions a deployment by the paper's
//!   §6.2.4 port→slice mapping, giving each worker a disjoint slice of the
//!   parking store's circular buffers;
//! * [`engine::Engine`] owns one switch per shard and drives N worker
//!   threads over lock-free SPSC rings ([`spsc`]). The round trip runs
//!   each shard to completion: a worker takes its share of the wave whole
//!   and runs the scalar per-packet loop (Split → NF bounce → Merge) into
//!   a recycled arena. Two-phase waves travel in *batches* through the
//!   batched dataplane ([`pp_rmt::SwitchModel::process_batch`]);
//! * [`adapter`] bridges [`pp_trafficgen`] streams in (paced ingest) and
//!   meters packets/sec and goodput out;
//! * [`adversity`] applies [`pp_netsim::adversity`] scenarios to waves:
//!   the internal NF legs suffer seeded loss/reorder/duplication/
//!   truncation, keyed per packet, so every path suffers identical
//!   misfortune;
//! * [`conformance`] is the one two-phase drive every path runs under
//!   that misfortune (the [`Dataplane`] trait, [`two_phase_adverse`]) and
//!   the one record paths are compared on ([`PathResult`]).
//!
//! Sharded execution is *observationally identical* to the scalar
//! pipeline: a slice's register cells are only ever touched by its own
//! shard, each shard preserves arrival order, and batch execution performs
//! register accesses in the same per-array order as scalar execution (see
//! [`pp_rmt::Pipeline::execute_batch`]). `tests/functional_equivalence.rs`
//! holds the repository's oracle: identical counter totals and
//! byte-identical merged captures at 2 and 4 shards, and
//! the shared matrix of `tests/matrix/mod.rs` runs every path through
//! every adversity scenario.

pub mod adapter;
pub mod adversity;
pub mod conformance;
pub mod engine;
pub mod spsc;
pub mod telemetry;
pub mod testbed;

pub use adapter::{reflect_outputs, EgressMeter, PacedIngest};
pub use adversity::{adverse_return_wave, apply_leg_wave, internal_leg_protected_prefix};
pub use conformance::{two_phase_adverse, Dataplane, PathResult};
pub use engine::{Engine, EngineConfig, EngineOutput};
pub use telemetry::dataplane_registry;
pub use testbed::SlicedTestbed;
// The batch I/O types engines speak, re-exported for callers' convenience.
pub use pp_rmt::switch::{BatchOutput, BatchPacket, OutputRef};
