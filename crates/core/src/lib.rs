//! **PayloadPark**: parking packet payloads in programmable-switch memory.
//!
//! A Rust reproduction of *"Parking Packet Payload with P4"* (Goswami,
//! Kodirov, Mustard, Beschastnikh, Seltzer — CoNEXT 2020). Shallow network
//! functions (firewalls, NATs, L4 load balancers) examine only packet
//! headers, yet whole packets — payload included — cross the link between
//! the top-of-rack switch and the NF server. PayloadPark *parks* up to 160
//! bytes of each payload (384 with recirculation) in the switch ASIC's
//! stateful SRAM, forwards only headers plus a 7-byte tag, and re-attaches
//! the payload when the processed header returns: 10-36 % more goodput and
//! 2-58 % less PCIe traffic without latency penalty, transparently to the
//! NF framework.
//!
//! The crate compiles the paper's Split (Alg. 1) and Merge (Alg. 2)
//! operations onto the [`pp_rmt`] dataplane emulator:
//!
//! * [`config`] — deployment description: which pipes/ports, how much
//!   memory (with slicing across NF servers), expiry threshold,
//!   recirculation;
//! * [`program`] — the one stage-by-stage Split/Merge MAT program (tagger,
//!   metadata-table probe, payload blocks striped across stages), written
//!   over the park table as its single extern, plus
//!   [`program::build_switch`] (the program on register arrays) and
//!   [`program::build_baseline_switch`];
//! * [`counters`] — the prototype's monitoring counters (§5);
//! * [`control`] — control-plane views: occupancy, counter snapshots,
//!   table clearing, the Table 1 resource report;
//! * [`oracle`] — the conformance oracle: slot-leak/counter-balance and
//!   delivered-integrity invariants that must hold after every wave, even
//!   under injected loss, reordering, duplication and truncation;
//! * [`shard`] — partitioning a deployment across parallel workers by the
//!   §6.2.4 port→slice mapping (the `pp_fastpath` engine consumes this);
//! * [`flowstore`] — the park table outside the register file: the
//!   Alg. 1/2 slot state machine (shared with the register cell), the
//!   dense [`flowstore::CircularStore`] and a sparse generational slab
//!   scaling to millions of concurrent flows ([`flowstore::SlabStore`]),
//!   with migration support for the cluster tier;
//! * [`storeprog`] — [`program`]'s program built over a
//!   [`flowstore::FlowStore`] instead of register arrays, and its control
//!   plane (`pp_cluster` builds its switches from this).
//!
//! # Quick start
//!
//! ```
//! use payloadpark::{ParkConfig, PipeControl};
//! use payloadpark::program::build_switch;
//! use pp_rmt::{ChipProfile, PortId};
//! use pp_packet::{MacAddr, UdpPacketBuilder};
//!
//! // PayloadPark on pipe 0: generator traffic on ports 0-1, NF server on 2.
//! let cfg = ParkConfig::single_server(ChipProfile::default(), vec![0, 1], 2, 4096);
//! let (mut switch, handles) = build_switch(&cfg).unwrap();
//! let control = PipeControl::new(handles[0].clone());
//!
//! // L2: the server's MAC lives on port 2.
//! let server_mac = MacAddr::from_index(100);
//! switch.l2_add(server_mac, PortId(2));
//!
//! // A 512-byte packet in: out comes a 359-byte packet (160 parked, +7 tag).
//! let pkt = UdpPacketBuilder::new().dst_mac(server_mac).total_size(512, 1).build();
//! let out = switch.process(pkt.bytes(), PortId(0), 0);
//! assert_eq!(out[0].bytes.len(), 512 - 153);
//! assert_eq!(control.counters(&switch).splits, 1);
//! ```

pub mod config;
pub mod control;
pub mod counters;
pub mod evictor;
pub mod flowstore;
pub mod jsonio;
pub mod oracle;
pub mod program;
pub mod shard;
pub mod storeprog;

pub use config::{ParkConfig, PipePark, SliceSpec, META_ENTRY_BYTES};
pub use control::PipeControl;
pub use counters::CounterSnapshot;
pub use evictor::{AdaptiveConfig, AdaptivePolicy};
pub use flowstore::{CircularStore, FlowStore, SharedStore, SlabStore};
pub use oracle::OracleReport;
pub use program::{build_baseline_switch, build_switch, BuildError, PipeHandles, MAX_CLK};
pub use shard::ShardPlan;
pub use storeprog::{build_store_switch, build_store_switch_with_bases, StoreControl};
