//! Deterministic discrete-event network-simulation substrate.
//!
//! The PayloadPark paper evaluates on a hardware testbed (PktGen server,
//! Tofino switch, NF server over 10/40 GE NICs). This crate provides the
//! simulation primitives that stand in for that hardware:
//!
//! * [`time`] — nanosecond simulation clock and rate conversions;
//! * [`event`] — a stable-ordered event queue (the heart of the DES);
//! * [`link`] — point-to-point links with serialization + propagation delay
//!   and transmitter back-pressure;
//! * [`queue`] — finite drop-tail FIFOs (NIC rings, switch queues);
//! * [`pcie`] — a PCIe bus model with per-transaction overhead, matching the
//!   paper's PCIe-bandwidth measurements (§6.1, Fig. 9);
//! * [`rng`] — seeded RNG streams so every run is a pure function of
//!   (config, seed);
//! * [`check`] — the property harness every crate's property tests run
//!   on: generators draw from [`DetRng`], and a failure is shrunk;
//! * [`adversity`] — the deterministic adversity engine: seeded, replayable
//!   loss/reorder/duplication/truncation/blackout scenarios whose per-packet
//!   decisions are pure functions of `(seed, leg, seq)`, so every execution
//!   path sees identical misfortune.
//!
//! Design note: simulation is CPU-bound and must be reproducible, so the
//! substrate is fully synchronous — no async runtime, no threads. The
//! multi-server experiment parallelises *across* independent simulations.

pub mod adversity;
pub mod check;
pub mod event;
pub mod link;
pub mod pcie;
pub mod queue;
pub mod rng;
pub mod time;

pub use adversity::{
    internal_leg_protected_prefix, AdversityProfile, FaultPlan, FaultTally, Leg, LegProfile,
    SeqWindow,
};
pub use event::EventQueue;
pub use link::Link;
pub use pcie::PcieBus;
pub use queue::DropTailQueue;
pub use rng::DetRng;
pub use time::{Bandwidth, SimDuration, SimTime};
