//! The conformance drive: one body for every execution path.
//!
//! The paper's transparency claim (§6.2.6) is one check: replay identical
//! traffic through each deployment and require identical deliveries. This
//! module states it once. A [`Dataplane`] is anything that splits a wave
//! and merges a return wave — the register and store-backed switches (the
//! tuples their builders return), the sharded [`Engine`] in batch mode,
//! and, in `pp_cluster`, the cluster. [`two_phase_adverse`] drives one
//! wave through any of them: all Splits, the profile's two NF legs around
//! the MAC-swap NF, all Merges. Every fault decision is a pure function of
//! `(seed, leg, seq)`, so every path suffers the identical misfortune.
//! [`PathResult`] records what a path did, compares it field by field with
//! a reference path, and runs the conformance oracle over it. The fuzzer
//! and the equivalence suites are loops over these three.

use crate::adversity::adverse_return_wave;
use crate::engine::Engine;
use payloadpark::{oracle, CounterSnapshot, PipeControl, StoreControl};
use pp_netsim::adversity::{AdversityProfile, FaultTally};
use pp_packet::MacAddr;
use pp_rmt::switch::{BatchPacket, SwitchModel, SwitchOutput, SwitchStats};

/// An execution path the conformance drive can run.
pub trait Dataplane {
    /// Splits one ingress wave; returns what goes to the NF servers, in
    /// sequence order for a sequence-ordered wave.
    fn split(&mut self, wave: &[BatchPacket]) -> Vec<BatchPacket>;
    /// Merges one NF return wave; returns the sink-side outputs.
    fn merge(&mut self, wave: Vec<BatchPacket>) -> Vec<SwitchOutput>;
    /// PayloadPark counters, summed over the path's switches.
    fn counters(&mut self) -> CounterSnapshot;
    /// Switch statistics, summed over the path's switches.
    fn stats(&mut self) -> SwitchStats;
    /// Occupied park-table slots.
    fn occupancy(&mut self) -> usize;
}

/// One switch, one packet at a time, in wave order.
fn process_each(sw: &mut SwitchModel, wave: &[BatchPacket]) -> Vec<SwitchOutput> {
    wave.iter().flat_map(|pkt| sw.process(&pkt.bytes, pkt.port, pkt.seq)).collect()
}

/// One switch and its control handle, as a builder returns them; the two
/// controls differ only in how they count occupied slots.
macro_rules! switch_dataplane {
    ($(#[$doc:meta])* $control:ty, $occupancy:expr) => {
        $(#[$doc])*
        impl Dataplane for (SwitchModel, $control) {
            fn split(&mut self, wave: &[BatchPacket]) -> Vec<BatchPacket> {
                process_each(&mut self.0, wave).into_iter().map(BatchPacket::from).collect()
            }

            fn merge(&mut self, wave: Vec<BatchPacket>) -> Vec<SwitchOutput> {
                process_each(&mut self.0, &wave)
            }

            fn counters(&mut self) -> CounterSnapshot {
                self.1.counters(&self.0)
            }

            fn stats(&mut self) -> SwitchStats {
                self.0.stats()
            }

            fn occupancy(&mut self) -> usize {
                ($occupancy)(&self.0, &self.1)
            }
        }
    };
}

switch_dataplane!(
    /// The register-backed switch (`build_switch`).
    PipeControl,
    |sw: &SwitchModel, control: &PipeControl| control.occupancy(sw)
);
switch_dataplane!(
    /// The store-backed switch (`build_store_switch`).
    StoreControl,
    |_: &SwitchModel, control: &StoreControl| control.occupancy()
);

/// The sharded engine in batch mode: each phase is one
/// [`Engine::process`] wave, its outputs in sequence order.
impl Dataplane for Engine {
    fn split(&mut self, wave: &[BatchPacket]) -> Vec<BatchPacket> {
        self.process(wave.to_vec()).to_seq_sorted().into_iter().map(BatchPacket::from).collect()
    }

    fn merge(&mut self, wave: Vec<BatchPacket>) -> Vec<SwitchOutput> {
        self.process(wave).to_seq_sorted()
    }

    fn counters(&mut self) -> CounterSnapshot {
        Engine::counters(self)
    }

    fn stats(&mut self) -> SwitchStats {
        self.switch_stats()
    }

    fn occupancy(&mut self) -> usize {
        Engine::occupancy(self)
    }
}

/// The two-phase round trip of one wave under `adversity`: all Splits,
/// the switch → NF leg, the MAC-swap NF readdressing survivors to `sink`,
/// the NF → switch leg, then all Merges. Returns the sink-side outputs.
pub fn two_phase_adverse<D: Dataplane + ?Sized>(
    dp: &mut D,
    wave: &[BatchPacket],
    sink: MacAddr,
    adversity: &AdversityProfile,
    tally: &mut FaultTally,
) -> Vec<SwitchOutput> {
    let to_servers = dp.split(wave);
    dp.merge(adverse_return_wave(adversity, to_servers, sink, tally))
}

/// Canonical delivered set: reordering legitimately permutes arrival
/// order, so paths compare whole outputs — egress port and latency
/// included — sorted by sequence number.
fn canonical(mut outs: Vec<SwitchOutput>) -> Vec<SwitchOutput> {
    let key = |o: &SwitchOutput| (o.seq, o.port, o.latency_ns);
    outs.sort_by(|a, b| key(a).cmp(&key(b)).then_with(|| a.bytes.cmp(&b.bytes)));
    outs
}

/// What one path did over a run: everything two equivalent paths must
/// agree on.
#[derive(Debug, Clone)]
pub struct PathResult {
    /// The path's name, as failure messages give it.
    pub path: String,
    /// The canonical delivered set: the sink-side outputs in sequence
    /// order.
    pub delivered: Vec<SwitchOutput>,
    /// PayloadPark counters at the end of the run.
    pub counters: CounterSnapshot,
    /// Switch statistics at the end of the run.
    pub stats: SwitchStats,
    /// Occupied park-table slots at the end of the run.
    pub occupancy: usize,
    /// What the adversity legs injected.
    pub tally: FaultTally,
}

impl PathResult {
    /// Records `dp`'s state after a run that delivered `delivered` and
    /// injected `tally`.
    pub fn capture<D: Dataplane + ?Sized>(
        path: impl Into<String>,
        dp: &mut D,
        delivered: Vec<SwitchOutput>,
        tally: FaultTally,
    ) -> PathResult {
        PathResult {
            path: path.into(),
            delivered: canonical(delivered),
            counters: dp.counters(),
            stats: dp.stats(),
            occupancy: dp.occupancy(),
            tally,
        }
    }

    /// Drives `waves` through `dp`, one [`two_phase_adverse`] each, and
    /// captures the result.
    pub fn run<D: Dataplane + ?Sized, W: AsRef<[BatchPacket]>>(
        path: impl Into<String>,
        dp: &mut D,
        waves: &[W],
        sink: MacAddr,
        adversity: &AdversityProfile,
    ) -> PathResult {
        let mut tally = FaultTally::default();
        let mut delivered = Vec::new();
        for wave in waves {
            delivered.extend(two_phase_adverse(dp, wave.as_ref(), sink, adversity, &mut tally));
        }
        PathResult::capture(path, dp, delivered, tally)
    }

    /// Compares this path against `reference`; `Err` is the failure
    /// reason, naming this path and the first field that diverged.
    pub fn diff(&self, reference: &PathResult) -> Result<(), String> {
        let kind = &self.path;
        if self.tally != reference.tally {
            return Err(format!(
                "{kind}: fault tallies diverged (reference {:?}, got {:?})",
                reference.tally, self.tally
            ));
        }
        if self.counters != reference.counters {
            return Err(format!(
                "{kind}: counters diverged (reference {:?}, got {:?})",
                reference.counters, self.counters
            ));
        }
        if self.stats != reference.stats {
            return Err(format!("{kind}: switch statistics diverged"));
        }
        if self.occupancy != reference.occupancy {
            return Err(format!(
                "{kind}: occupancy diverged (reference {}, got {})",
                reference.occupancy, self.occupancy
            ));
        }
        if self.delivered.len() != reference.delivered.len() {
            return Err(format!(
                "{kind}: delivered count diverged (reference {}, got {})",
                reference.delivered.len(),
                self.delivered.len()
            ));
        }
        for (i, (g, r)) in self.delivered.iter().zip(&reference.delivered).enumerate() {
            if g.bytes != r.bytes || g.seq != r.seq {
                return Err(format!(
                    "{kind}: delivered byte set diverged at entry {i} (reference seq {}, got seq {})",
                    r.seq, g.seq
                ));
            }
            if g != r {
                return Err(format!(
                    "{kind}: delivered egress diverged at seq {} (reference {:?} after {} ns, \
                     got {:?} after {} ns)",
                    r.seq, r.port, r.latency_ns, g.port, g.latency_ns
                ));
            }
        }
        Ok(())
    }

    /// The conformance oracle over this path: counters balance against
    /// occupancy and, with `verify_checksums`, every delivered packet
    /// parses and carries valid checksums. Scenarios that corrupt
    /// payloads legitimately deliver broken checksums, so they pass false.
    pub fn check_oracle(&self, verify_checksums: bool) -> Result<(), String> {
        let mut report = oracle::check_counters(&self.counters, self.occupancy);
        if verify_checksums {
            report.merge(oracle::check_delivered(self.delivered.iter().map(|o| &o.bytes[..])));
        }
        if report.ok() {
            Ok(())
        } else {
            Err(format!("{}: oracle violated: {}", self.path, report.violations().join("; ")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::SlicedTestbed;

    /// Each field the comparator covers fails on its own, and the message
    /// names the path and the field.
    #[test]
    fn diff_names_the_path_and_each_diverging_field() {
        let tb = SlicedTestbed::new(2, 64);
        let wave = tb.counted_enterprise_wave(5, 60);
        let adv = AdversityProfile::nf_loss(3, 0.1);
        let reference =
            PathResult::run("reference", &mut tb.build_scalar(), &[wave], tb.sink_mac(), &adv);
        assert!(reference.counters.splits > 0 && reference.tally.dropped > 0, "{reference:?}");
        assert_eq!(reference.clone().diff(&reference), Ok(()));
        reference.check_oracle(true).unwrap();

        type Mutation = fn(&mut PathResult);
        let mutations: [(&str, Mutation); 8] = [
            ("fault tallies", |p| p.tally.dropped += 1),
            ("counters", |p| p.counters.merges += 1),
            ("switch statistics", |p| p.stats.emitted += 1),
            ("occupancy", |p| p.occupancy += 1),
            ("delivered count", |p| drop(p.delivered.pop())),
            ("delivered byte set", |p| p.delivered[0].bytes[40] ^= 1),
            ("delivered egress", |p| p.delivered[0].port.0 += 1),
            ("delivered egress", |p| p.delivered[0].latency_ns += 1),
        ];
        for (field, mutate) in mutations {
            let mut got = PathResult { path: "mutant".into(), ..reference.clone() };
            mutate(&mut got);
            let err = got.diff(&reference).expect_err(field);
            assert!(err.starts_with("mutant: ") && err.contains(field), "{field}: {err}");
        }
    }
}
