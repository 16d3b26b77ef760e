//! Control-plane helpers: occupancy inspection, table clearing, resource
//! reports.
//!
//! The paper's prototype reads its monitoring counters and register state
//! from the switch control plane (§5); this module provides the equivalent
//! views over a running [`SwitchModel`].

use crate::counters::CounterSnapshot;
use crate::flowstore::SlotMeta;
use crate::program::PipeHandles;
use pp_rmt::resources::ResourceReport;
use pp_rmt::switch::SwitchModel;

/// A control-plane view over one PayloadPark pipe.
#[derive(Debug, Clone)]
pub struct PipeControl {
    handles: PipeHandles,
}

impl PipeControl {
    /// Wraps the handles returned by the program builder.
    pub fn new(handles: PipeHandles) -> Self {
        PipeControl { handles }
    }

    /// The underlying handles.
    pub fn handles(&self) -> &PipeHandles {
        &self.handles
    }

    /// Creates the §7 adaptive eviction-policy controller for this pipe.
    pub fn adaptive_policy(
        &self,
        config: crate::evictor::AdaptiveConfig,
    ) -> crate::evictor::AdaptivePolicy {
        crate::evictor::AdaptivePolicy::new(self.handles.expiry.clone(), config)
    }

    /// Reads the deployment's monitoring counters. With recirculation the
    /// annex pipe keeps its own counter block (its length fix-ups can bump
    /// `len_underflow`); the snapshot aggregates both pipes so no count is
    /// invisible to the control plane.
    pub fn counters(&self, switch: &SwitchModel) -> CounterSnapshot {
        let mut snap = CounterSnapshot::read(switch.pipe(self.handles.pipe));
        if let Some(annex) = self.handles.annex_pipe {
            snap.add(&CounterSnapshot::read(switch.pipe(annex)));
        }
        snap
    }

    /// Number of lookup-table slots currently occupied (expiry > 0).
    pub fn occupancy(&self, switch: &SwitchModel) -> usize {
        let pipe = switch.pipe(self.handles.pipe);
        let regs = pipe.registers();
        (0..self.handles.total_slots)
            .filter(|&i| SlotMeta::decode(regs.cell(self.handles.meta_tbl, i)).exp > 0)
            .count()
    }

    /// Occupancy as a fraction of the table.
    pub fn occupancy_fraction(&self, switch: &SwitchModel) -> f64 {
        self.occupancy(switch) as f64 / self.handles.total_slots as f64
    }

    /// Clears the pipe's lookup table (all registers) — a control-plane
    /// table reset between experiment runs.
    pub fn clear_tables(&self, switch: &mut SwitchModel) {
        switch.pipe_mut(self.handles.pipe).registers_mut().clear_all();
        if let Some(annex) = self.handles.annex_pipe {
            switch.pipe_mut(annex).registers_mut().clear_all();
        }
    }

    /// Resource report for the primary pipe's program (Table 1). When an
    /// annex pipe is configured its usage is merged in, since the deployment
    /// consumes both pipes.
    pub fn resource_report(&self, switch: &SwitchModel) -> ResourceReport {
        let primary = switch.pipe(self.handles.pipe).resource_report();
        match self.handles.annex_pipe {
            Some(annex) => primary.merged_with(&switch.pipe(annex).resource_report()),
            None => primary,
        }
    }
}
