//! The Split/Merge program over a [`FlowStore`] park table.
//!
//! There is one primary program, `program::build_pipe`; this module is
//! its second park table. [`crate::program::build_switch`] runs the
//! program over per-stage register arrays — the faithful ASIC model.
//! Here `split_probe`, `merge_validate`, `split_store_j` and
//! `merge_load_j` reach their slot through a captured [`SharedStore`]
//! instead of a bound register cell; every gateway, counter, trace flag,
//! length fix-up and stage placement is the same code. (A unit test below
//! compares the two builds table by table; `tests/flowstore_matrix.rs`
//! compares what they do to packets.)
//!
//! What the swap buys:
//!
//! * capacity decoupled from the register file — a [`SlabStore`] scales
//!   the same semantics to millions of concurrent flows;
//! * slot space decoupled from the switch — a cluster switch addresses
//!   its slices at their *parent* (global) coordinates
//!   ([`build_store_switch_with_bases`]), so a flow's wire tag stays
//!   valid when its slice migrates to another switch;
//! * an external store handle — parked flows survive a pipeline rebuild
//!   (switch join/leave) and can be lifted out/in for migration.
//!
//! Taggers stay register-backed: their `ti`/`clk` sequences are the
//! per-slice state that makes two builds byte-identical, and the control
//! plane migrates them explicitly ([`StoreControl::tagger_state`]).
//! Recirculation (annex) is not supported in store mode.
//!
//! [`FlowStore`]: crate::flowstore::FlowStore
//! [`SlabStore`]: crate::flowstore::SlabStore

use crate::config::{ParkConfig, PipePark};
use crate::counters::CounterSnapshot;
use crate::flowstore::{lock, MergeOutcome, ParkTag, ProbeOutcome, SharedStore};
use crate::program::{build_pipe, cumulative_bases, BuildError, Cell, ParkTable};
use pp_rmt::mat::MatBuilder;
use pp_rmt::phv::Phv;
use pp_rmt::pipeline::Pipeline;
use pp_rmt::register::{cell, RegisterId};
use pp_rmt::switch::SwitchModel;
use std::sync::atomic::{AtomicU16, Ordering};
use std::sync::Arc;

/// Control-plane handles for a store-backed pipe.
#[derive(Clone)]
pub struct StoreHandles {
    /// The pipe index.
    pub pipe: usize,
    /// The store's slot space (parent/global coordinates).
    pub total_slots: usize,
    /// Live expiry threshold, same contract as the register program's.
    pub expiry: Arc<AtomicU16>,
    /// The park table.
    pub store: SharedStore,
    /// Tagger table-index register (one cell per slice, config order).
    pub ti_reg: RegisterId,
    /// Tagger generation-clock register (one cell per slice).
    pub clk_reg: RegisterId,
    /// Slice names in config (register-cell) order.
    pub slices: Vec<String>,
}

/// The park table as a [`FlowStore`](crate::FlowStore): no register
/// bindings, every access addressed by slot.
#[derive(Clone)]
struct StorePark(SharedStore);

impl ParkTable for StorePark {
    fn bind_meta(
        &self,
        mat: MatBuilder,
        _index: impl Fn(&Phv) -> Option<usize> + Send + 'static,
    ) -> MatBuilder {
        mat
    }

    fn bind_block(&self, mat: MatBuilder, _j: usize) -> MatBuilder {
        mat
    }

    fn probe(&self, _cell: Cell<'_>, slot: usize, tag: ParkTag) -> ProbeOutcome {
        lock(&self.0).probe(slot, tag)
    }

    fn merge(&self, _cell: Cell<'_>, slot: usize, clk: u16) -> MergeOutcome {
        lock(&self.0).merge(slot, clk)
    }

    fn store_block(&self, _cell: Cell<'_>, slot: usize, j: usize, data: &[u8]) {
        lock(&self.0).store_block(slot, j, data);
    }

    fn load_block(&self, _cell: Cell<'_>, slot: usize, j: usize, out: &mut [u8]) {
        lock(&self.0).load_block(slot, j, out);
    }
}

/// Checks that `store` can back `pipe_cfg` with slices at `bases`, and
/// returns the store's slot count.
fn check_store(
    cfg: &ParkConfig,
    pipe_cfg: &PipePark,
    bases: &[u32],
    store: &SharedStore,
) -> Result<usize, BuildError> {
    let n_slices = pipe_cfg.slices.len();
    if pipe_cfg.annex_pipe.is_some() {
        return Err(BuildError::Config(
            "store-backed deployments do not support recirculation (annex)".into(),
        ));
    }
    if bases.len() != n_slices {
        return Err(BuildError::Config(format!(
            "{} slice bases for {n_slices} slices",
            bases.len()
        )));
    }
    let store = lock(store);
    if store.blocks() != cfg.primary_blocks {
        return Err(BuildError::Config(format!(
            "store holds {} payload blocks per slot, deployment parks {}",
            store.blocks(),
            cfg.primary_blocks
        )));
    }
    let store_slots = store.slots();
    for (slice, &base) in pipe_cfg.slices.iter().zip(bases) {
        if base as usize + slice.slots > store_slots {
            return Err(BuildError::Config(format!(
                "slice '{}' spans slots {}..{} but the store holds {}",
                slice.name,
                base,
                base as usize + slice.slots,
                store_slots
            )));
        }
    }
    Ok(store_slots)
}

/// Assembles a store-backed switch for a single-pipe deployment, slices
/// laid out cumulatively (the register program's layout). The store's
/// slot space must cover `cfg`'s total slots.
pub fn build_store_switch(
    cfg: &ParkConfig,
    store: SharedStore,
) -> Result<(SwitchModel, StoreControl), BuildError> {
    build_store_switch_with_bases(cfg, &cumulative_bases(single_pipe(cfg)?), store)
}

/// Assembles a store-backed switch whose slices address the store at the
/// given global bases — the cluster form, where each switch's slices keep
/// their parent-deployment coordinates so wire tags survive migration.
pub fn build_store_switch_with_bases(
    cfg: &ParkConfig,
    bases: &[u32],
    store: SharedStore,
) -> Result<(SwitchModel, StoreControl), BuildError> {
    let pipe_cfg = single_pipe(cfg)?;
    cfg.validate().map_err(BuildError::Config)?;
    let chip = cfg.chip;
    let store_slots = check_store(cfg, pipe_cfg, bases, &store)?;
    let built = build_pipe(cfg, pipe_cfg, bases, store_slots, |_| StorePark(store.clone()))?;
    let handles = StoreHandles {
        pipe: pipe_cfg.pipe,
        total_slots: store_slots,
        expiry: built.expiry,
        store,
        ti_reg: built.ti_reg,
        clk_reg: built.clk_reg,
        slices: pipe_cfg.slices.iter().map(|s| s.name.clone()).collect(),
    };
    let mut primary = Some(built.pipeline);
    let mut pipes = Vec::with_capacity(chip.pipes);
    for idx in 0..chip.pipes {
        if idx == handles.pipe {
            pipes.push(primary.take().expect("one primary pipe"));
        } else {
            pipes.push(Pipeline::builder(chip).build()?);
        }
    }
    Ok((SwitchModel::new(chip, pipes), StoreControl { handles }))
}

fn single_pipe(cfg: &ParkConfig) -> Result<&PipePark, BuildError> {
    match cfg.pipes.as_slice() {
        [pipe_cfg] => Ok(pipe_cfg),
        other => Err(BuildError::Config(format!(
            "store-backed switches host exactly one parked pipe, config has {}",
            other.len()
        ))),
    }
}

/// Control-plane view of a store-backed switch: counters from the
/// pipeline, occupancy from the store, tagger state for migration.
#[derive(Clone)]
pub struct StoreControl {
    handles: StoreHandles,
}

impl StoreControl {
    /// The underlying handles.
    pub fn handles(&self) -> &StoreHandles {
        &self.handles
    }

    /// Reads the deployment's monitoring counters.
    pub fn counters(&self, switch: &SwitchModel) -> CounterSnapshot {
        CounterSnapshot::read(switch.pipe(self.handles.pipe))
    }

    /// Number of occupied slots (expiry > 0), straight from the store.
    pub fn occupancy(&self) -> usize {
        lock(&self.handles.store).occupancy()
    }

    /// Payloads currently demoted to the store's spill tier.
    pub fn spilled(&self) -> usize {
        lock(&self.handles.store).spilled()
    }

    /// A handle on the park table itself.
    pub fn store(&self) -> SharedStore {
        self.handles.store.clone()
    }

    /// Sets the live expiry threshold.
    pub fn set_expiry(&self, v: u16) {
        self.handles.expiry.store(v, Ordering::Relaxed);
    }

    /// Clears the park table and every register (taggers included).
    pub fn clear_tables(&self, switch: &mut SwitchModel) {
        lock(&self.handles.store).clear();
        switch.pipe_mut(self.handles.pipe).registers_mut().clear_all();
    }

    /// Reads the per-slice tagger state `(ti, clk)` in slice config order
    /// — the state that must travel with a slice on rebalance so the new
    /// owner continues the exact `ti`/`clk` sequences.
    pub fn tagger_state(&self, switch: &SwitchModel) -> Vec<(u32, u32)> {
        let regs = switch.pipe(self.handles.pipe).registers();
        (0..self.handles.slices.len())
            .map(|i| {
                (
                    cell::read_u32(regs.cell(self.handles.ti_reg, i)),
                    cell::read_u32(regs.cell(self.handles.clk_reg, i)),
                )
            })
            .collect()
    }

    /// Writes one slice's tagger state (by slice position in this
    /// switch's config order).
    pub fn set_tagger_state(&self, switch: &mut SwitchModel, slice: usize, ti: u32, clk: u32) {
        let regs = switch.pipe_mut(self.handles.pipe).registers_mut();
        cell::write_u32(regs.cell_mut(self.handles.ti_reg, slice), ti);
        cell::write_u32(regs.cell_mut(self.handles.clk_reg, slice), clk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SliceSpec;
    use crate::flowstore::{shared, CircularStore};
    use crate::program::build_switch;
    use pp_rmt::chip::ChipProfile;

    /// `n` slices of `slots` slots, slice `k` splitting port `2k` and
    /// merging port `2k + 1` (the `pp_fastpath::SlicedTestbed` layout).
    fn sliced(n: usize, slots: usize) -> ParkConfig {
        let mut cfg = ParkConfig::single_server(ChipProfile::default(), vec![0], 1, slots);
        cfg.pipes[0].slices = (0..n as u16)
            .map(|k| SliceSpec {
                name: format!("server{k}"),
                split_ports: vec![2 * k],
                merge_ports: vec![2 * k + 1],
                slots,
            })
            .collect();
        cfg
    }

    /// Every table of pipe 0: (stage, name, footprint + summary, bound?).
    fn tables(switch: &SwitchModel) -> Vec<(usize, String, String, bool)> {
        let stages = switch.pipe(0).stages().iter().enumerate();
        stages
            .flat_map(|(stage, s)| {
                s.mats().iter().map(move |mat| {
                    let body = format!("{:?} {:?}", mat.footprint(), mat.summary());
                    (stage, mat.name().to_string(), body, mat.stateful_array().is_some())
                })
            })
            .collect()
    }

    #[test]
    fn register_and_store_builds_are_the_same_program() {
        let cfg = sliced(8, 16);
        let (register, _) = build_switch(&cfg).unwrap();
        let store = shared(CircularStore::new(8 * 16, cfg.primary_blocks));
        let (stored, _) = build_store_switch(&cfg, store).unwrap();
        let (register, stored) = (tables(&register), tables(&stored));
        assert_eq!(register.len(), 7 + 2 * cfg.primary_blocks);
        assert_eq!(register.len(), stored.len());
        for (r, s) in register.iter().zip(&stored) {
            assert_eq!((r.0, &r.1, &r.2), (s.0, &s.1, &s.2));
            let name = r.1.as_str();
            let on_park_table = ["split_probe", "merge_validate"].contains(&name)
                || name.starts_with("split_store_")
                || name.starts_with("merge_load_");
            let on_tagger = name.starts_with("tagger_");
            assert_eq!(r.3, on_park_table || on_tagger, "{name}: register build binding");
            assert_eq!(s.3, on_tagger, "{name}: store build binding");
        }
    }

    #[test]
    fn store_builds_reject_what_they_cannot_back() {
        let cfg = sliced(2, 16);
        let store = |slots, blocks| shared(CircularStore::new(slots, blocks));
        let rejected = |cfg: &ParkConfig, bases: &[u32], store| match build_store_switch_with_bases(
            cfg, bases, store,
        ) {
            Err(BuildError::Config(msg)) => msg,
            Err(other) => panic!("expected a config error, got {other}"),
            Ok(_) => panic!("expected a config error, build succeeded"),
        };

        let mut annex = ParkConfig::single_server(ChipProfile::default(), vec![0], 1, 16);
        annex.pipes[0].annex_pipe = Some(1);
        assert!(rejected(&annex, &[0], store(16, 10)).contains("recirculation"));
        assert!(rejected(&cfg, &[0], store(32, 10)).contains("1 slice bases for 2 slices"));
        assert!(rejected(&cfg, &[0, 16], store(32, 4)).contains("4 payload blocks"));
        assert!(rejected(&cfg, &[0, 17], store(32, 10)).contains("spans slots 17..33"));
        assert!(build_store_switch_with_bases(&cfg, &[0, 16], store(32, 10)).is_ok());
    }
}
