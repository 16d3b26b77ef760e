//! End-to-end testbed and experiment runners.
//!
//! [`testbed`] wires the full Fig. 5 topology into one deterministic
//! discrete-event simulation: traffic generator (two ports) → RMT switch
//! (baseline L2 or PayloadPark) → NF server → switch → sink, with link
//! serialization, switch pipeline latency, PCIe DMA and FIFO server
//! queueing. The same loop runs up to four such servers on one pipe, each
//! with its own memory slice, for the 8-server experiment (§6.2.3).
//!
//! [`runner`] provides the paper's peak-goodput methodology: raise the send
//! rate until the 0.1 % unintended-drop health criterion fails (§6.1), and
//! report the last healthy rate.
//!
//! [`experiments`] contains one runner per figure/table of the paper's
//! evaluation; each returns a [`pp_metrics::Series`] whose rendered table is
//! this repository's equivalent of the figure.

pub mod cli;
pub mod experiments;
pub mod fuzz;
pub mod lint;
pub mod runner;
pub mod telemetry;
pub mod testbed;

pub use runner::{find_peak_goodput, PeakResult};
pub use testbed::{ChainSpec, DeployMode, FrameworkKind, ParkParams, RunReport, TestbedConfig};
