//! The PayloadPark dataplane program.
//!
//! This module compiles the paper's Algorithms 1 (Split) and 2 (Merge) into
//! match-action tables on the `pp-rmt` emulator, stage for stage:
//!
//! ```text
//! stage 0   slice_select (port → memory slice)        [split side]
//!           tagger_ti, tagger_clk (Alg.1 stage 1, keyed on ingress port)
//!           merge_strip_disabled (ENB=0 → remove hdr) [merge, Alg.2 st.1]
//! stage 1   split_probe   (Alg.1 st.2: probe metadata table, evict/occupy)
//!           split_small   (payload < minimum → disabled header, §5)
//!           merge_validate (Alg.2 st.2: CRC + generation check, reclaim)
//! stage 2+  payload_block_j arrays with split_store_j / merge_load_j MATs
//!           (Alg.1/2 stages 3..N: one block per stage, Fig. 4)
//! ```
//!
//! (The paper numbers stages from 1; this implementation is 0-based, so its
//! stages 1..3 appear here as 0..2.)
//!
//! With recirculation (§6.2.5) the *annex* pipe parks 14 further blocks:
//! split packets recirculate on channel 0 (store), merge packets on channel
//! 1 (load), with direction-specific parsing.
//!
//! Every stateful access is a single read-modify-write of one register cell
//! per MAT per packet — the restriction that dictates the circular-buffer
//! design and the fall-back-to-baseline behaviour (§4).
//!
//! The primary program is written exactly once (`build_pipe`), over the
//! park table as its one extern (`ParkTable`): [`build_switch`] runs it on
//! the register arrays above, [`crate::storeprog`] on a
//! [`crate::FlowStore`]. Gateways, summaries, footprints, PHV edits,
//! counters, trace flags and stage placement do not depend on which; the
//! slot state machine both share is `flowstore::{probe_meta,
//! classify_merge}`.

use crate::config::{ParkConfig, PipePark, META_ENTRY_BYTES};
use crate::counters::{
    COUNTER_NAMES, C_CRC_FAIL, C_DISABLED_OCCUPIED, C_DISABLED_SMALL_PAYLOAD, C_DUP_MERGE,
    C_ENB0_FROM_SERVER, C_EVICTIONS, C_EXPLICIT_DROPS, C_LEN_UNDERFLOW, C_MERGES,
    C_PREMATURE_EVICTIONS, C_SPLITS,
};
use crate::flowstore::{classify_merge, probe_meta, MergeOutcome, ParkTag, ProbeOutcome, SlotMeta};
use pp_packet::checksum::Checksum;
use pp_packet::crc::tag_crc;
use pp_packet::ppark::PAYLOADPARK_HEADER_LEN;
use pp_packet::{IPV4_HEADER_LEN, UDP_HEADER_LEN};
use pp_rmt::chip::{ChipProfile, PortSet};
use pp_rmt::mat::{Mat, MatBuilder, MatFootprint, MatchKind};
use pp_rmt::parser::{BlockRule, ParserConfig};
use pp_rmt::phv::{Phv, RecircTarget, BLOCK_BYTES};
use pp_rmt::pipeline::{Pipeline, PipelineBuilder, ProgramError};
use pp_rmt::register::{cell, RegisterId, RegisterSpec};
use pp_rmt::summary::{BranchSummary, MatSummary, Req, Slot};
use pp_rmt::switch::SwitchModel;
use pp_rmt::trace::decision;
use std::sync::atomic::{AtomicU16, Ordering};
use std::sync::Arc;

/// Metadata word: global lookup-table index chosen by the tagger.
pub const META_TBL_IDX: usize = 0;
/// Metadata word: generation clock chosen by the tagger.
pub const META_CLK: usize = 1;
/// Metadata word: 1 when Split succeeded for this packet.
pub const META_SPLIT_OK: usize = 2;
/// Metadata word: 1 when Merge validated for this packet.
pub const META_MERGE_OK: usize = 3;
/// Metadata word: memory-slice id + 1 (0 = no slice).
pub const META_SLICE: usize = 4;
/// Metadata word: the original transport checksum read back from the
/// metadata table at Merge, bridged across the annex recirculation so the
/// annex pipe can restore it after re-attaching the annex blocks.
pub const META_XSUM: usize = 5;

/// Generation-clock modulus (the tag carries a 16-bit clock).
pub const MAX_CLK: u32 = 65_536;

const PP_LEN: i32 = PAYLOADPARK_HEADER_LEN as i32;

/// The summary [`Slot`] for one of the `META_*` metadata words.
const fn m(w: usize) -> Slot {
    Slot::Meta(w as u8)
}

/// Summary fragment shared by every action that calls [`apply_len_delta`]:
/// it reads and rewrites the IPv4/transport length fields and may drop on
/// a length-guard trip.
fn len_delta_effects(s: MatSummary) -> MatSummary {
    s.reads(Slot::Ipv4).reads(Slot::Transport).writes(Slot::Ipv4).writes(Slot::Transport).drops()
}

/// Errors from assembling a deployment.
#[derive(Debug)]
pub enum BuildError {
    /// The configuration failed validation.
    Config(String),
    /// The program did not fit the chip.
    Program(ProgramError),
}

impl core::fmt::Display for BuildError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BuildError::Config(s) => write!(f, "configuration error: {s}"),
            BuildError::Program(e) => write!(f, "program error: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<ProgramError> for BuildError {
    fn from(e: ProgramError) -> Self {
        BuildError::Program(e)
    }
}

/// Control-plane handles for one PayloadPark-enabled pipe.
#[derive(Debug, Clone)]
pub struct PipeHandles {
    /// The pipe index.
    pub pipe: usize,
    /// The metadata table's register id (for occupancy inspection).
    pub meta_tbl: RegisterId,
    /// Total lookup-table slots in this pipe.
    pub total_slots: usize,
    /// The annex pipe, when recirculation is enabled.
    pub annex_pipe: Option<usize>,
    /// The live expiry threshold. Split reads it per packet, so the control
    /// plane can retune the eviction policy at runtime — the adaptive
    /// policy of the paper's §7 builds on this.
    pub expiry: Arc<AtomicU16>,
}

/// Adds `delta` to the IPv4 total-length and (for UDP) the transport
/// length field — the VLIW arithmetic Split/Merge perform when bytes leave
/// or rejoin the wire. TCP carries no length field, so for TCP only the
/// IPv4 total-length moves (the segment length, and with it the checksum
/// pseudo-header, is implied by it).
///
/// The 16-bit length fields of a malformed or forged packet could be
/// driven past their bounds by the fix-up; instead of emitting a corrupted
/// length the guard drops the packet and bumps the `len_underflow`
/// counter. Neither field is modified on a guarded drop.
fn apply_len_delta(phv: &mut Phv, delta: i32, counters: &mut [u64]) {
    if let Some(ip) = phv.ipv4.as_ref() {
        let floor = (IPV4_HEADER_LEN + ip.options.len()) as i32;
        let new = i32::from(ip.total_len) + delta;
        if new < floor || new > i32::from(u16::MAX) {
            counters[C_LEN_UNDERFLOW] += 1;
            phv.trace_flags |= decision::LEN_UNDERFLOW;
            phv.verdict.drop = true;
            return;
        }
    }
    if let Some(udp) = phv.udp.as_ref() {
        let new = i32::from(udp.len) + delta;
        if new < UDP_HEADER_LEN as i32 || new > i32::from(u16::MAX) {
            counters[C_LEN_UNDERFLOW] += 1;
            phv.trace_flags |= decision::LEN_UNDERFLOW;
            phv.verdict.drop = true;
            return;
        }
    }
    if let Some(ip) = phv.ipv4.as_mut() {
        ip.total_len = (i32::from(ip.total_len) + delta) as u16;
    }
    if let Some(udp) = phv.udp.as_mut() {
        udp.len = (i32::from(udp.len) + delta) as u16;
    }
}

/// The folded one's-complement sum of the transport-checksum-covered
/// words an NF may rewrite in flight: source/destination IPv4 addresses
/// (pseudo-header) and transport ports. Split parks this next to the
/// original checksum; comparing it with the value recomputed at Merge
/// tells the dataplane whether — and by how much — to repair the
/// restored checksum (RFC 1624).
fn tuple_sum(phv: &Phv) -> u16 {
    let mut c = Checksum::new();
    if let Some(ip) = &phv.ipv4 {
        c.add_u32(ip.src);
        c.add_u32(ip.dst);
    }
    if let Some(udp) = &phv.udp {
        c.add_word(udp.src_port);
        c.add_word(udp.dst_port);
    } else if let Some(tcp) = &phv.tcp {
        c.add_word(tcp.src_port);
        c.add_word(tcp.dst_port);
    }
    // `finish` complements the folded sum; undo that to keep the raw sum.
    !c.finish()
}

/// The transport checksum Merge should restore: the parked original,
/// incrementally repaired (RFC 1624 Eqn. 3) when the NF rewrote any of
/// the 5-tuple words while the payload was parked. A parked zero means
/// the endpoint never computed a checksum (RFC 768) and stays zero.
fn restored_checksum(stored_xsum: u16, stored_tsum: u16, tsum_now: u16) -> u16 {
    if stored_xsum == 0 || tsum_now == stored_tsum {
        return stored_xsum;
    }
    let mut sum = u32::from(!stored_xsum) + u32::from(!stored_tsum) + u32::from(tsum_now);
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    let ck = !(sum as u16);
    // A computed checksum of zero is transmitted as 0xFFFF (RFC 768); the
    // NF-side incremental helpers normalize the same way.
    if ck == 0 {
        0xFFFF
    } else {
        ck
    }
}

/// Stage that hosts payload block `j` in the primary pipe: blocks are
/// striped from stage 2 onward (Fig. 4), wrapping onto extra MATs in the
/// same stage when there are more blocks than stages. With the default 12
/// stages and 10 blocks, each block gets its own stage.
fn primary_block_stage(chip: &ChipProfile, j: usize) -> usize {
    2 + (j % (chip.stages_per_pipe - 2))
}

/// Stage that hosts annex block `j`: the annex pipe has no tagger or
/// metadata table, so all stages are available.
fn annex_block_stage(chip: &ChipProfile, j: usize) -> usize {
    j % chip.stages_per_pipe
}

fn gateway_footprint(key_bits: u32, vliw: u32) -> MatFootprint {
    MatFootprint {
        match_kind: MatchKind::Gateway,
        key_bits,
        vliw_slots: vliw,
        table_sram_bits: 0,
        tcam_bits: 0,
    }
}

/// The register cell an action was handed ([`pp_rmt::mat::ActionCtx::cell`]).
pub(crate) type Cell<'a> = Option<&'a mut [u8]>;

/// The program's one extern: how its MATs reach a park-table slot. The
/// Split/Merge program below is written once over this method set; which
/// implementation it runs on is a type parameter fixed when the pipe is
/// built.
///
/// * [`RegisterPark`] — the ASIC model: `metadata_table` and
///   `payload_block_j` register arrays, one read-modify-write of the cell
///   the MAT's stateful binding selected.
/// * `StorePark` ([`crate::storeprog`]) — a [`FlowStore`](crate::FlowStore)
///   outside the register file, addressed by slot.
///
/// The `bind_*` hooks exist because the register MATs must carry their
/// `.stateful(array, index)` bindings: `pp_rmt::resources` prices SRAM
/// from them and `pp_verify`'s stage-locality and shard passes read
/// them. The data-path methods take both the bound cell and the slot
/// index; each implementation uses the one it needs. Callers pass only
/// in-range slots.
pub(crate) trait ParkTable: Clone + Send + 'static {
    /// Binds `mat` to the metadata table, if that is a register array.
    fn bind_meta(
        &self,
        mat: MatBuilder,
        index: impl Fn(&Phv) -> Option<usize> + Send + 'static,
    ) -> MatBuilder;

    /// Binds `mat` to payload block `j` at the tagger's slot.
    fn bind_block(&self, mat: MatBuilder, j: usize) -> MatBuilder;

    /// Alg. 1 stage 2: age the occupant, occupy the slot with `tag` if free.
    fn probe(&self, cell: Cell<'_>, slot: usize, tag: ParkTag) -> ProbeOutcome;

    /// Alg. 2 stage 2: classify a validated merge arrival of generation `clk`.
    fn merge(&self, cell: Cell<'_>, slot: usize, clk: u16) -> MergeOutcome;

    /// Parks payload block `j`.
    fn store_block(&self, cell: Cell<'_>, slot: usize, j: usize, data: &[u8]);

    /// Copies payload block `j` into `out` and zeroes it (Alg. 2 line 23).
    fn load_block(&self, cell: Cell<'_>, slot: usize, j: usize, out: &mut [u8]);
}

/// The slot the tagger chose for this packet.
fn tagged_slot(p: &Phv) -> Option<usize> {
    Some(p.meta[META_TBL_IDX] as usize)
}

/// The park table as per-stage register arrays. Every stateful access is
/// a single read-modify-write of one cell per MAT per packet.
#[derive(Clone)]
pub(crate) struct RegisterPark {
    meta_tbl: RegisterId,
    pload: Vec<RegisterId>,
}

impl RegisterPark {
    fn declare(b: &mut PipelineBuilder, cfg: &ParkConfig, slots: usize) -> RegisterPark {
        let meta_tbl = b.register(RegisterSpec {
            name: "metadata_table".into(),
            stage: 1,
            cell_bytes: META_ENTRY_BYTES,
            cells: slots,
        });
        let pload = (0..cfg.primary_blocks)
            .map(|j| {
                b.register(RegisterSpec {
                    name: format!("payload_block_{j}"),
                    stage: primary_block_stage(&cfg.chip, j),
                    cell_bytes: BLOCK_BYTES,
                    cells: slots,
                })
            })
            .collect();
        RegisterPark { meta_tbl, pload }
    }
}

impl ParkTable for RegisterPark {
    fn bind_meta(
        &self,
        mat: MatBuilder,
        index: impl Fn(&Phv) -> Option<usize> + Send + 'static,
    ) -> MatBuilder {
        mat.stateful(self.meta_tbl, index)
    }

    fn bind_block(&self, mat: MatBuilder, j: usize) -> MatBuilder {
        mat.stateful(self.pload[j], tagged_slot)
    }

    fn probe(&self, cell: Cell<'_>, _slot: usize, tag: ParkTag) -> ProbeOutcome {
        let cell = cell.expect("metadata_table bound");
        let mut meta = SlotMeta::decode(cell);
        let outcome = probe_meta(&mut meta, tag);
        meta.encode(cell);
        outcome
    }

    fn merge(&self, cell: Cell<'_>, _slot: usize, clk: u16) -> MergeOutcome {
        let cell = cell.expect("metadata_table bound");
        let mut meta = SlotMeta::decode(cell);
        let outcome = classify_merge(&mut meta, clk);
        if matches!(outcome, MergeOutcome::Restored { .. }) {
            meta.encode(cell);
        }
        outcome
    }

    fn store_block(&self, cell: Cell<'_>, _slot: usize, _j: usize, data: &[u8]) {
        cell.expect("payload block bound").copy_from_slice(data);
    }

    fn load_block(&self, cell: Cell<'_>, _slot: usize, _j: usize, out: &mut [u8]) {
        let cell = cell.expect("payload block bound");
        out.copy_from_slice(cell);
        cell.fill(0);
    }
}

/// What [`build_pipe`] hands back beside the pipeline: the table it was
/// built over and the control plane's handles on the program's state.
pub(crate) struct BuiltPipe<T> {
    pub(crate) pipeline: Pipeline,
    pub(crate) table: T,
    /// The live expiry threshold (see [`PipeHandles::expiry`]).
    pub(crate) expiry: Arc<AtomicU16>,
    /// Tagger table-index register, one cell per slice in config order.
    pub(crate) ti_reg: RegisterId,
    /// Tagger generation-clock register, one cell per slice.
    pub(crate) clk_reg: RegisterId,
}

/// Slice bases when a pipe's slices are laid out back to back from slot 0.
pub(crate) fn cumulative_bases(pipe_cfg: &PipePark) -> Vec<u32> {
    pipe_cfg
        .slices
        .iter()
        .scan(0u32, |next, slice| {
            let base = *next;
            *next += slice.slots as u32;
            Some(base)
        })
        .collect()
}

/// Builds the primary pipe's Split/Merge program over a park table of
/// `slots` slots. `bases[i]` is slice `i`'s first slot in the table's
/// coordinate space: [`cumulative_bases`] for a standalone switch, the
/// parent deployment's layout for a cluster member. `declare_table` runs
/// after the tagger registers are declared, so a register-backed table
/// keeps its place in the register file.
pub(crate) fn build_pipe<T: ParkTable>(
    cfg: &ParkConfig,
    pipe_cfg: &PipePark,
    bases: &[u32],
    slots: usize,
    declare_table: impl FnOnce(&mut PipelineBuilder) -> T,
) -> Result<BuiltPipe<T>, ProgramError> {
    let chip = cfg.chip;
    let n_slices = pipe_cfg.slices.len();

    // Parser: extract blocks on split ports, expect the PayloadPark header
    // on merge ports.
    let mut parser = ParserConfig { phv_block_capacity: cfg.primary_blocks, ..Default::default() };
    let min_payload = cfg.min_split_payload(pipe_cfg);
    for slice in &pipe_cfg.slices {
        for &p in &slice.split_ports {
            parser.block_rules.insert(p, BlockRule { blocks: cfg.primary_blocks, min_payload });
        }
        for &p in &slice.merge_ports {
            parser.pp_header_ports.insert(p);
        }
    }

    let mut b = Pipeline::builder(chip).parser(parser);
    for name in COUNTER_NAMES {
        let _ = b.counter(name);
    }

    // Shared lookup structures captured by the MAT closures. Gateways run
    // once per MAT per packet, so both the port sets and the per-port
    // geometry are flat port-indexed tables (one load each), not trees.
    let split_ports: Arc<PortSet> =
        Arc::new(pipe_cfg.slices.iter().flat_map(|s| s.split_ports.iter().copied()).collect());
    let merge_ports: Arc<PortSet> =
        Arc::new(pipe_cfg.slices.iter().flat_map(|s| s.merge_ports.iter().copied()).collect());
    // Per-port slice lookup: slice id + 1 (for META_SLICE) and the slice's
    // (base, size) geometry within the table's slot space.
    let max_port = pipe_cfg
        .slices
        .iter()
        .flat_map(|s| s.split_ports.iter().copied())
        .max()
        .map_or(0, usize::from);
    let mut slice_of_port = vec![0u32; max_port + 1];
    let mut geom_of_port: Vec<Option<(usize, u32, u32)>> = vec![None; max_port + 1];
    for (idx, slice) in pipe_cfg.slices.iter().enumerate() {
        for &p in &slice.split_ports {
            slice_of_port[usize::from(p)] = idx as u32 + 1;
            geom_of_port[usize::from(p)] = Some((idx, bases[idx], slice.slots as u32));
        }
    }
    let slice_of_port = Arc::new(slice_of_port);
    let geom_of_port = Arc::new(geom_of_port);

    // Registers. The taggers are register-backed under every park table:
    // their per-slice `ti`/`clk` sequences are what the cluster migrates
    // with a slice.
    let ti_reg = b.register(RegisterSpec {
        name: "tagger_ti".into(),
        stage: 0,
        cell_bytes: 4,
        cells: n_slices,
    });
    let clk_reg = b.register(RegisterSpec {
        name: "tagger_clk".into(),
        stage: 0,
        cell_bytes: 4,
        cells: n_slices,
    });
    let table = declare_table(&mut b);

    // --- Stage 0: slice selection (split) and disabled-header strip (merge).
    {
        let sp = split_ports.clone();
        let map = slice_of_port.clone();
        b.place(
            0,
            Mat::builder("slice_select")
                .gateway(move |p| sp.contains(p.ingress_port.0) && p.has_transport())
                .action(move |ctx| {
                    ctx.phv.meta[META_SLICE] =
                        map.get(usize::from(ctx.phv.ingress_port.0)).copied().unwrap_or(0);
                })
                .summary(
                    MatSummary::on_port_set((*split_ports).clone())
                        .require(Req::Valid(Slot::Transport))
                        .writes(m(META_SLICE)),
                )
                .footprint(MatFootprint {
                    match_kind: MatchKind::Ternary,
                    key_bits: 16,
                    vliw_slots: 1,
                    table_sram_bits: 0,
                    // One half-populated TCAM block, which reproduces the
                    // paper's 0.69 % TCAM utilization.
                    tcam_bits: 512 * 88,
                })
                .build(),
        );
    }
    {
        let mp = merge_ports.clone();
        b.place(
            0,
            Mat::builder("merge_strip_disabled")
                .gateway(move |p| p.pp.valid && !p.pp.enb && mp.contains(p.ingress_port.0))
                .action(|ctx| {
                    ctx.phv.pp.valid = false;
                    apply_len_delta(ctx.phv, -PP_LEN, ctx.counters);
                    ctx.counters[C_ENB0_FROM_SERVER] += 1;
                    ctx.phv.trace_flags |= decision::ENB0;
                })
                .summary(len_delta_effects(
                    MatSummary::on_port_set((*merge_ports).clone())
                        .require(Req::Valid(Slot::Pp))
                        .require(Req::PpEnb(false))
                        .sets_invalid(Slot::Pp),
                ))
                .footprint(gateway_footprint(18, 4))
                .build(),
        );
    }

    // --- Stage 0 (cont.): taggers (Alg. 1 lines 3-7). Keyed directly on
    // the ingress port (a compile-time constant in the paper's P4), so they
    // co-reside with slice_select without an intra-stage dependency.
    let splittable = {
        let sp = split_ports.clone();
        move |p: &Phv| sp.contains(p.ingress_port.0) && p.blocks.iter().any(|blk| blk.valid)
    };
    let slice_of = {
        let geom = geom_of_port.clone();
        move |p: &Phv| {
            geom.get(usize::from(p.ingress_port.0)).copied().flatten().map(|(slice, _, _)| slice)
        }
    };
    {
        let geom = geom_of_port.clone();
        b.place(
            0,
            Mat::builder("tagger_ti")
                .gateway(splittable.clone())
                .stateful(ti_reg, slice_of.clone())
                .action(move |ctx| {
                    let (_, slice_base, slice_size) = geom[usize::from(ctx.phv.ingress_port.0)]
                        .expect("splittable gateway implies a split port");
                    let cell_ref = ctx.cell.as_deref_mut().expect("ti bound");
                    let ti = (cell::read_u32(cell_ref) + 1) % slice_size;
                    cell::write_u32(cell_ref, ti);
                    ctx.phv.meta[META_TBL_IDX] = slice_base + ti;
                })
                .summary(
                    MatSummary::on_port_set((*split_ports).clone())
                        .require(Req::Valid(Slot::Blocks))
                        .writes(m(META_TBL_IDX)),
                )
                .footprint(gateway_footprint(20, 2))
                .build(),
        );
    }
    b.place(
        0,
        Mat::builder("tagger_clk")
            .gateway(splittable.clone())
            .stateful(clk_reg, slice_of)
            .action(|ctx| {
                let cell_ref = ctx.cell.as_deref_mut().expect("clk bound");
                let clk = (cell::read_u32(cell_ref) + 1) % MAX_CLK;
                cell::write_u32(cell_ref, clk);
                ctx.phv.meta[META_CLK] = clk;
            })
            .summary(
                MatSummary::on_port_set((*split_ports).clone())
                    .require(Req::Valid(Slot::Blocks))
                    .writes(m(META_CLK)),
            )
            .footprint(gateway_footprint(20, 2))
            .build(),
    );

    // --- Stage 1: split probe, small-payload fallback, merge validate.
    let expiry = Arc::new(AtomicU16::new(cfg.expiry_threshold));
    {
        let max_exp = expiry.clone();
        let savings = cfg.primary_blocks as i32 * BLOCK_BYTES as i32 - PP_LEN;
        let recirc_split = pipe_cfg.annex_pipe.map(|pipe| RecircTarget { pipe, channel: 0 });
        let tbl = table.clone();
        b.place(
            1,
            table
                .bind_meta(Mat::builder("split_probe").gateway(splittable), tagged_slot)
                .action(move |ctx| {
                    let phv = &mut *ctx.phv;
                    let idx = phv.meta[META_TBL_IDX];
                    let clk = phv.meta[META_CLK] as u16;
                    // The original transport checksum is parked with the
                    // payload — the wire copy is zeroed while the payload
                    // is off the wire.
                    let tag = ParkTag {
                        clk,
                        expiry: max_exp.load(Ordering::Relaxed),
                        xsum: phv.transport_checksum().unwrap_or(0),
                        tsum: tuple_sum(phv),
                    };
                    let outcome = tbl.probe(ctx.cell.as_deref_mut(), idx as usize, tag);
                    if outcome.evicted {
                        ctx.counters[C_EVICTIONS] += 1;
                        phv.trace_flags |= decision::EVICT;
                    }
                    if outcome.parked {
                        // Alg. 1 lines 14-20: the slot is ours — enable Split.
                        phv.pp.valid = true;
                        phv.pp.enb = true;
                        phv.pp.op_drop = false;
                        phv.pp.tbl_idx = idx as u16;
                        phv.pp.clk = clk;
                        phv.pp.crc = tag_crc(idx as u16, clk);
                        phv.meta[META_SPLIT_OK] = 1;
                        ctx.counters[C_SPLITS] += 1;
                        phv.trace_flags |= decision::SPLIT;
                        apply_len_delta(phv, -savings, ctx.counters);
                        if let Some(t) = recirc_split {
                            phv.verdict.recirculate = Some(t);
                        }
                    } else {
                        // Alg. 1 lines 21-23: occupied — disable Split for
                        // this packet.
                        phv.pp = Default::default();
                        phv.pp.valid = true;
                        ctx.counters[C_DISABLED_OCCUPIED] += 1;
                        phv.trace_flags |= decision::DISABLED_OCCUPIED;
                        apply_len_delta(phv, PP_LEN, ctx.counters);
                    }
                })
                .summary({
                    // Both outcomes attach a shim header and fix lengths;
                    // which enb they set (and whether the packet leaves for
                    // the annex) is per-branch.
                    let mut split_br =
                        BranchSummary::new("split").sets_enb(true).sets_flag(META_SPLIT_OK as u8);
                    if recirc_split.is_some() {
                        split_br = split_br.recirculates(0);
                    }
                    len_delta_effects(
                        MatSummary::on_port_set((*split_ports).clone())
                            .require(Req::Valid(Slot::Blocks))
                            .reads(m(META_TBL_IDX))
                            .reads(m(META_CLK))
                            .writes(Slot::Pp)
                            .sets_valid(Slot::Pp),
                    )
                    .branch(split_br)
                    .branch(BranchSummary::new("occupied").sets_enb(false))
                })
                .footprint(gateway_footprint(52, 6))
                .build(),
        );
    }
    {
        let sp = split_ports.clone();
        b.place(
            1,
            Mat::builder("split_small")
                .gateway(move |p| {
                    sp.contains(p.ingress_port.0)
                        && p.has_transport()
                        && !p.blocks.iter().any(|blk| blk.valid)
                })
                .action(|ctx| {
                    // Payload under the minimum: add a disabled header so the
                    // merge side can tell this apart from a parked packet
                    // whose remaining payload happens to be small (§5).
                    ctx.phv.pp = Default::default();
                    ctx.phv.pp.valid = true;
                    ctx.counters[C_DISABLED_SMALL_PAYLOAD] += 1;
                    ctx.phv.trace_flags |= decision::DISABLED_SMALL;
                    apply_len_delta(ctx.phv, PP_LEN, ctx.counters);
                })
                .summary(len_delta_effects(
                    MatSummary::on_port_set((*split_ports).clone())
                        .require(Req::Valid(Slot::Transport))
                        .require(Req::Invalid(Slot::Blocks))
                        .writes(Slot::Pp)
                        .sets_valid(Slot::Pp)
                        .sets_enb(false),
                ))
                .footprint(gateway_footprint(20, 4))
                .build(),
        );
    }
    {
        let mp = merge_ports.clone();
        let restore_primary = cfg.primary_blocks as i32 * BLOCK_BYTES as i32;
        let recirc_merge = pipe_cfg.annex_pipe.map(|pipe| RecircTarget { pipe, channel: 1 });
        let in_table = move |p: &Phv| {
            let i = usize::from(p.pp.tbl_idx);
            (i < slots).then_some(i)
        };
        let tbl = table.clone();
        b.place(
            1,
            table
                .bind_meta(
                    Mat::builder("merge_validate")
                        .gateway(move |p| p.pp.valid && p.pp.enb && mp.contains(p.ingress_port.0)),
                    in_table,
                )
                .action(move |ctx| {
                    let phv = &mut *ctx.phv;
                    let crc_ok = tag_crc(phv.pp.tbl_idx, phv.pp.clk) == phv.pp.crc;
                    let Some(slot) = in_table(phv).filter(|_| crc_ok) else {
                        // Corrupted or out-of-range tag: never touch the table.
                        ctx.counters[C_CRC_FAIL] += 1;
                        phv.trace_flags |= decision::CRC_FAIL;
                        phv.verdict.drop = true;
                        return;
                    };
                    match tbl.merge(ctx.cell.as_deref_mut(), slot, phv.pp.clk) {
                        MergeOutcome::Restored { xsum: stored_xsum, tsum: stored_tsum } => {
                            phv.meta[META_MERGE_OK] = 1;
                            phv.meta[META_TBL_IDX] = u32::from(phv.pp.tbl_idx);
                            if phv.pp.op_drop {
                                // Explicit Drop (§6.2.4): reclaim only.
                                ctx.counters[C_EXPLICIT_DROPS] += 1;
                                phv.trace_flags |= decision::EXPLICIT_DROP;
                                phv.pp.valid = false;
                                phv.verdict.drop = true;
                                return;
                            }
                            ctx.counters[C_MERGES] += 1;
                            phv.trace_flags |= decision::MERGE;
                            // Un-park the original transport checksum along
                            // with the payload, repaired for any 5-tuple
                            // rewrite the NF applied in flight; the annex
                            // path needs it bridged across recirculation.
                            let xsum = restored_checksum(stored_xsum, stored_tsum, tuple_sum(phv));
                            phv.set_transport_checksum(xsum);
                            phv.meta[META_XSUM] = u32::from(xsum);
                            match recirc_merge {
                                Some(t) => {
                                    // Annex blocks are restored in the annex
                                    // pipe; keep the header for its tag.
                                    apply_len_delta(phv, restore_primary, ctx.counters);
                                    phv.verdict.recirculate = Some(t);
                                }
                                None => {
                                    apply_len_delta(phv, restore_primary - PP_LEN, ctx.counters);
                                    phv.pp.valid = false;
                                }
                            }
                        }
                        MergeOutcome::Duplicate => {
                            // The payload was restored exactly once; drop
                            // the replay without touching memory.
                            ctx.counters[C_DUP_MERGE] += 1;
                            phv.trace_flags |= decision::DUP_MERGE;
                            phv.verdict.drop = true;
                        }
                        MergeOutcome::Premature => {
                            // The payload is gone: drop the packet and
                            // record it (§3.3).
                            ctx.counters[C_PREMATURE_EVICTIONS] += 1;
                            phv.trace_flags |= decision::PREMATURE_EVICT;
                            phv.verdict.drop = true;
                        }
                    }
                })
                .summary({
                    let mut merge_br = BranchSummary::new("merge")
                        .sets_flag(META_MERGE_OK as u8)
                        .writes(m(META_TBL_IDX))
                        .writes(m(META_XSUM))
                        .reads(Slot::Ipv4)
                        .reads(Slot::Transport)
                        .writes(Slot::Ipv4)
                        .writes(Slot::Transport)
                        .drops();
                    match recirc_merge {
                        Some(_) => merge_br = merge_br.recirculates(1),
                        None => merge_br = merge_br.sets_invalid(Slot::Pp),
                    }
                    MatSummary::on_port_set((*merge_ports).clone())
                        .require(Req::Valid(Slot::Pp))
                        .require(Req::PpEnb(true))
                        .reads(Slot::Pp)
                        .branch(BranchSummary::new("crc_fail").drops())
                        .branch(merge_br)
                        .branch(
                            BranchSummary::new("explicit_drop")
                                .sets_flag(META_MERGE_OK as u8)
                                .writes(m(META_TBL_IDX))
                                .sets_invalid(Slot::Pp)
                                .drops(),
                        )
                        .branch(BranchSummary::new("dup").drops())
                        .branch(BranchSummary::new("premature").drops())
                })
                .footprint(gateway_footprint(52, 6))
                .build(),
        );
    }

    // --- Stages 2..N: payload blocks (Alg. 1/2 stages 3..N, Fig. 4).
    for j in 0..cfg.primary_blocks {
        let st = primary_block_stage(&chip, j);
        {
            let sp = split_ports.clone();
            let tbl = table.clone();
            b.place(
                st,
                table
                    .bind_block(
                        Mat::builder(format!("split_store_{j}")).gateway(move |p| {
                            p.meta[META_SPLIT_OK] == 1 && sp.contains(p.ingress_port.0)
                        }),
                        j,
                    )
                    .action(move |ctx| {
                        let slot = ctx.phv.meta[META_TBL_IDX] as usize;
                        let block = &mut ctx.phv.blocks[j];
                        tbl.store_block(ctx.cell.as_deref_mut(), slot, j, &block.data);
                        block.valid = false;
                    })
                    .summary(
                        MatSummary::on_port_set((*split_ports).clone())
                            .require(Req::MetaFlag(META_SPLIT_OK as u8))
                            .reads(m(META_TBL_IDX))
                            .reads(Slot::Blocks),
                    )
                    .footprint(gateway_footprint(44, 1))
                    .build(),
            );
        }
        {
            let mp = merge_ports.clone();
            let tbl = table.clone();
            b.place(
                st,
                table
                    .bind_block(
                        Mat::builder(format!("merge_load_{j}")).gateway(move |p| {
                            p.meta[META_MERGE_OK] == 1 && mp.contains(p.ingress_port.0)
                        }),
                        j,
                    )
                    .action(move |ctx| {
                        let slot = ctx.phv.meta[META_TBL_IDX] as usize;
                        let block = &mut ctx.phv.blocks[j];
                        tbl.load_block(ctx.cell.as_deref_mut(), slot, j, &mut block.data);
                        block.valid = true;
                    })
                    .summary(
                        MatSummary::on_port_set((*merge_ports).clone())
                            .require(Req::MetaFlag(META_MERGE_OK as u8))
                            .reads(m(META_TBL_IDX))
                            .writes(Slot::Blocks)
                            .sets_valid(Slot::Blocks),
                    )
                    .footprint(gateway_footprint(44, 1))
                    .build(),
            );
        }
    }

    Ok(BuiltPipe { pipeline: b.build()?, table, expiry, ti_reg, clk_reg })
}

/// Builds the annex pipe's program (recirculation mode, §6.2.5).
fn build_annex(
    cfg: &ParkConfig,
    primary_cfg: &PipePark,
    annex_pipe: usize,
) -> Result<Pipeline, ProgramError> {
    let chip = cfg.chip;
    let total_slots = primary_cfg.total_slots();
    let rc_store = chip.recirc_port(annex_pipe, 0);
    let rc_load = chip.recirc_port(annex_pipe, 1);
    let annex_bytes = cfg.annex_blocks as i32 * BLOCK_BYTES as i32;
    let primary_blocks = cfg.primary_blocks;

    let mut parser = ParserConfig {
        phv_block_capacity: primary_blocks + cfg.annex_blocks,
        ..Default::default()
    };
    parser.pp_header_ports.insert(rc_store.0);
    parser.pp_header_ports.insert(rc_load.0);
    // Channel 0 carries split packets: the remaining payload starts with the
    // bytes to park in this pipe.
    parser.block_rules.insert(
        rc_store.0,
        BlockRule { blocks: cfg.annex_blocks, min_payload: cfg.annex_blocks * BLOCK_BYTES },
    );
    // Channel 1 carries merge packets: the wire already holds the primary
    // 160 bytes, which must stay in front of the annex blocks.
    parser.block_rules.insert(
        rc_load.0,
        BlockRule { blocks: primary_blocks, min_payload: primary_blocks * BLOCK_BYTES },
    );

    let mut b = Pipeline::builder(chip).parser(parser);
    for name in COUNTER_NAMES {
        let _ = b.counter(name);
    }

    let annex_regs: Vec<RegisterId> = (0..cfg.annex_blocks)
        .map(|j| {
            b.register(RegisterSpec {
                name: format!("annex_block_{j}"),
                stage: annex_block_stage(&chip, j),
                cell_bytes: BLOCK_BYTES,
                cells: total_slots,
            })
        })
        .collect();

    for (j, &reg) in annex_regs.iter().enumerate() {
        let st = annex_block_stage(&chip, j);
        {
            b.place(
                st,
                Mat::builder(format!("annex_store_{j}"))
                    // The block-validity conjunct closes a pp-verify PV101
                    // finding: a forged or truncated packet on the store
                    // channel can carry a valid enabled shim with *no*
                    // extracted blocks, and the unguarded store would park
                    // its zeroed block images. Recirculated split packets
                    // always carry blocks, so real traffic is unaffected.
                    .gateway(move |p| {
                        p.ingress_port == rc_store
                            && p.pp.valid
                            && p.pp.enb
                            && p.blocks.iter().any(|blk| blk.valid)
                    })
                    .stateful(reg, move |p| {
                        let i = usize::from(p.pp.tbl_idx);
                        (i < total_slots).then_some(i)
                    })
                    .action(move |ctx| {
                        let cell_ref = ctx.cell.as_deref_mut().expect("annex bound");
                        cell_ref.copy_from_slice(&ctx.phv.blocks[j].data);
                        ctx.phv.blocks[j].valid = false;
                    })
                    .summary(
                        MatSummary::on_ports([rc_store.0])
                            .require(Req::Valid(Slot::Pp))
                            .require(Req::PpEnb(true))
                            .require(Req::Valid(Slot::Blocks))
                            .reads(Slot::Pp)
                            .reads(Slot::Blocks),
                    )
                    .footprint(gateway_footprint(44, 1))
                    .build(),
            );
        }
        {
            b.place(
                st,
                Mat::builder(format!("annex_load_{j}"))
                    .gateway(move |p| p.ingress_port == rc_load && p.pp.valid && p.pp.enb)
                    .stateful(reg, move |p| {
                        let i = usize::from(p.pp.tbl_idx);
                        (i < total_slots).then_some(i)
                    })
                    .action(move |ctx| {
                        let cell_ref = ctx.cell.as_deref_mut().expect("annex bound");
                        let slot = primary_blocks + j;
                        ctx.phv.blocks[slot].data.copy_from_slice(cell_ref);
                        ctx.phv.blocks[slot].valid = true;
                        cell_ref.fill(0);
                    })
                    .summary(
                        MatSummary::on_ports([rc_load.0])
                            .require(Req::Valid(Slot::Pp))
                            .require(Req::PpEnb(true))
                            .reads(Slot::Pp)
                            .writes(Slot::Blocks)
                            .sets_valid(Slot::Blocks),
                    )
                    .footprint(gateway_footprint(44, 1))
                    .build(),
            );
        }
    }

    // Length fix-ups run in the last stage.
    let last = chip.stages_per_pipe - 1;
    b.place(
        last,
        Mat::builder("annex_finish_store")
            .gateway(move |p| p.ingress_port == rc_store && p.pp.valid && p.pp.enb)
            .action(move |ctx| apply_len_delta(ctx.phv, -annex_bytes, ctx.counters))
            .summary(len_delta_effects(
                MatSummary::on_ports([rc_store.0])
                    .require(Req::Valid(Slot::Pp))
                    .require(Req::PpEnb(true)),
            ))
            .footprint(gateway_footprint(18, 2))
            .build(),
    );
    b.place(
        last,
        Mat::builder("annex_finish_load")
            .gateway(move |p| p.ingress_port == rc_load && p.pp.valid && p.pp.enb)
            .action(move |ctx| {
                apply_len_delta(ctx.phv, annex_bytes - PP_LEN, ctx.counters);
                // The primary pipe bridged the un-parked transport checksum
                // across the recirculation (the wire copy was zeroed while
                // the shim was on); restore it now that the packet is whole.
                let xsum = ctx.phv.meta[META_XSUM] as u16;
                ctx.phv.set_transport_checksum(xsum);
                ctx.phv.pp.valid = false;
            })
            .summary(len_delta_effects(
                MatSummary::on_ports([rc_load.0])
                    .require(Req::Valid(Slot::Pp))
                    .require(Req::PpEnb(true))
                    .reads(m(META_XSUM))
                    .sets_invalid(Slot::Pp),
            ))
            .footprint(gateway_footprint(18, 3))
            .build(),
    );

    b.build()
}

/// Assembles a complete switch: PayloadPark programs on the configured
/// pipes, annex programs where recirculation is on, plain L2 pipes
/// elsewhere.
pub fn build_switch(cfg: &ParkConfig) -> Result<(SwitchModel, Vec<PipeHandles>), BuildError> {
    cfg.validate().map_err(BuildError::Config)?;
    let chip = cfg.chip;
    let mut pipelines: Vec<Option<Pipeline>> = (0..chip.pipes).map(|_| None).collect();
    let mut handles = Vec::new();
    for pipe_cfg in &cfg.pipes {
        let total_slots = pipe_cfg.total_slots();
        let built = build_pipe(cfg, pipe_cfg, &cumulative_bases(pipe_cfg), total_slots, |b| {
            RegisterPark::declare(b, cfg, total_slots)
        })?;
        pipelines[pipe_cfg.pipe] = Some(built.pipeline);
        handles.push(PipeHandles {
            pipe: pipe_cfg.pipe,
            meta_tbl: built.table.meta_tbl,
            total_slots,
            annex_pipe: pipe_cfg.annex_pipe,
            expiry: built.expiry,
        });
        if let Some(annex) = pipe_cfg.annex_pipe {
            pipelines[annex] = Some(build_annex(cfg, pipe_cfg, annex)?);
        }
    }
    let mut pipes = Vec::with_capacity(chip.pipes);
    for slot in pipelines {
        match slot {
            Some(p) => pipes.push(p),
            None => pipes.push(Pipeline::builder(chip).build()?),
        }
    }
    Ok((SwitchModel::new(chip, pipes), handles))
}

/// Builds the baseline switch: plain L2 forwarding on every pipe (the
/// non-PayloadPark deployment of §6.1).
pub fn build_baseline_switch(chip: ChipProfile) -> Result<SwitchModel, BuildError> {
    let mut pipes = Vec::with_capacity(chip.pipes);
    for _ in 0..chip.pipes {
        pipes.push(Pipeline::builder(chip).build()?);
    }
    Ok(SwitchModel::new(chip, pipes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_packet::MacAddr;
    use pp_rmt::chip::PortId;
    use pp_rmt::phv::{EthFields, Ipv4Fields, Span, TcpFields, UdpFields};

    fn udp_phv(total_len: u16, udp_len: u16) -> Phv {
        Phv {
            ingress_port: PortId(0),
            eth: EthFields { dst: MacAddr::default(), src: MacAddr::default(), ethertype: 0x0800 },
            ipv4: Some(Ipv4Fields {
                total_len,
                ident: 0,
                ttl: 64,
                protocol: 17,
                src: 1,
                dst: 2,
                options: Span::EMPTY,
            }),
            udp: Some(UdpFields { src_port: 1, dst_port: 2, len: udp_len, checksum: 0xBEEF }),
            ..Phv::default()
        }
    }

    fn tcp_phv(total_len: u16) -> Phv {
        let mut phv = udp_phv(total_len, 8);
        phv.udp = None;
        phv.ipv4.as_mut().unwrap().protocol = 6;
        phv.tcp = Some(TcpFields {
            src_port: 1,
            dst_port: 2,
            seq: 0,
            ack: 0,
            reserved: 0,
            flags: 0x10,
            window: 100,
            checksum: 0xBEEF,
            urgent: 0,
            options: Span::EMPTY,
        });
        phv
    }

    #[test]
    fn len_delta_applies_to_ip_and_udp() {
        let mut phv = udp_phv(500, 480);
        let mut counters = vec![0u64; COUNTER_NAMES.len()];
        apply_len_delta(&mut phv, -153, &mut counters);
        assert_eq!(phv.ipv4.as_ref().unwrap().total_len, 347);
        assert_eq!(phv.udp.as_ref().unwrap().len, 327);
        assert!(!phv.verdict.drop);
        assert_eq!(counters[C_LEN_UNDERFLOW], 0);
    }

    #[test]
    fn len_delta_on_tcp_moves_only_the_ip_length() {
        let mut phv = tcp_phv(500);
        let mut counters = vec![0u64; COUNTER_NAMES.len()];
        apply_len_delta(&mut phv, -153, &mut counters);
        assert_eq!(phv.ipv4.as_ref().unwrap().total_len, 347);
        assert!(!phv.verdict.drop);
    }

    #[test]
    fn len_underflow_drops_instead_of_wrapping() {
        // A forged/short packet: removing 153 bytes would wrap the u16.
        let mut phv = udp_phv(100, 80);
        let mut counters = vec![0u64; COUNTER_NAMES.len()];
        apply_len_delta(&mut phv, -153, &mut counters);
        assert!(phv.verdict.drop, "must drop, not wrap");
        assert_eq!(counters[C_LEN_UNDERFLOW], 1);
        // Neither field was modified.
        assert_eq!(phv.ipv4.as_ref().unwrap().total_len, 100);
        assert_eq!(phv.udp.as_ref().unwrap().len, 80);
    }

    #[test]
    fn udp_len_underflow_guards_even_when_ip_len_fits() {
        // Inconsistent headers: the IPv4 length survives the delta but the
        // (forged, too-small) UDP length would wrap below its 8-byte floor.
        let mut phv = udp_phv(500, 20);
        let mut counters = vec![0u64; COUNTER_NAMES.len()];
        apply_len_delta(&mut phv, -153, &mut counters);
        assert!(phv.verdict.drop);
        assert_eq!(counters[C_LEN_UNDERFLOW], 1);
        assert_eq!(phv.ipv4.as_ref().unwrap().total_len, 500);
        assert_eq!(phv.udp.as_ref().unwrap().len, 20);
    }

    #[test]
    fn restored_checksum_is_identity_when_header_unchanged() {
        // Same 5-tuple sum: the parked original comes back verbatim, even
        // for the ±0 edge representations.
        for ck in [0x1234u16, 0x0000, 0xFFFF] {
            assert_eq!(restored_checksum(ck, 0xABCD, 0xABCD), ck);
        }
        // A parked zero means "never computed" and stays zero regardless.
        assert_eq!(restored_checksum(0, 0x1111, 0x2222), 0);
    }

    #[test]
    fn restored_checksum_repair_matches_full_recompute() {
        use pp_packet::checksum::{Checksum, PseudoHeader};
        // A UDP segment checksummed under its original 5-tuple, then the
        // source address/port rewritten as a NAT would.
        let payload = [0x11u8, 0x22, 0x33, 0x44, 0x55];
        let seg_ck = |src: u32, dst: u32, sp: u16, dp: u16| {
            let mut c = Checksum::new();
            let length = 8 + payload.len() as u16;
            PseudoHeader { src, dst, protocol: 17, length }.add_to(&mut c);
            c.add_word(sp);
            c.add_word(dp);
            c.add_word(length);
            c.add_bytes(&payload);
            c.finish()
        };
        let (src, dst, sp, dp) = (0x0A00_0001, 0x0A00_0002, 1000, 2000);
        let (new_src, new_sp) = (0xC633_6401, 40_000);
        let original = seg_ck(src, dst, sp, dp);
        let expected = seg_ck(new_src, dst, new_sp, dp);

        let tsum = |s: u32, d: u32, a: u16, b: u16| {
            let mut c = Checksum::new();
            c.add_u32(s);
            c.add_u32(d);
            c.add_word(a);
            c.add_word(b);
            !c.finish()
        };
        let repaired =
            restored_checksum(original, tsum(src, dst, sp, dp), tsum(new_src, dst, new_sp, dp));
        assert_eq!(repaired, expected);
    }

    #[test]
    fn len_overflow_is_guarded_too() {
        let mut phv = udp_phv(u16::MAX - 10, u16::MAX - 30);
        let mut counters = vec![0u64; COUNTER_NAMES.len()];
        apply_len_delta(&mut phv, 160, &mut counters);
        assert!(phv.verdict.drop);
        assert_eq!(counters[C_LEN_UNDERFLOW], 1);
        assert_eq!(phv.ipv4.as_ref().unwrap().total_len, u16::MAX - 10);
    }
}
