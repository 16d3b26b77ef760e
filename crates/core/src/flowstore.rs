//! The park-table storage abstraction: [`FlowStore`].
//!
//! The Split/Merge program ([`crate::program`]) is written once over a
//! park table it reaches through a fixed method set — probe, store a
//! block, merge, load a block. On the ASIC model that table is the
//! per-stage register arrays: an 8-byte metadata cell and
//! `primary_blocks` 16-byte payload cells per slot, capacity fixed at
//! build time. The cluster tier needs the same *semantics* at a very
//! different scale — millions of concurrent flows, sparse occupancy,
//! slots migrating between switches — so the same program also runs over
//! a [`FlowStore`] ([`crate::storeprog`]), with two implementations:
//!
//! * [`CircularStore`] — the register file's dense layout verbatim: a
//!   flat metadata array plus a payload arena, full capacity allocated up
//!   front.
//! * [`SlabStore`] — the same table, sparse. The slot index is a page
//!   table (a directory of 64-slot pages, a page allocated on first
//!   touch), payloads live in two generational arenas — the hot slab and
//!   an optional spill slab, each one contiguous buffer of fixed strides
//!   with a free list — and every slot counts its non-zero payload
//!   blocks, so "drained" is a comparison, not a scan. A lookup is two
//!   indexed loads; park, restore, evict, demote and promote are O(1) and
//!   hash nothing. Memory is proportional to *occupancy*, not capacity:
//!   to the high-water mark of touched pages and of live payloads (pages
//!   and arena entries are kept for reuse until [`FlowStore::clear`], so
//!   a warm store never calls the allocator), with nothing proportional
//!   to `slots()` beyond the directory's 8 bytes per page. Freed payload
//!   handles bump a generation so a stale handle can never read a re-used
//!   arena entry — the in-memory analogue of the wire tag's
//!   `(idx, clk, crc)` validation. The spill tier demotes the oldest
//!   parked payloads out of the bounded hot slab (modeling off-ASIC
//!   memory for long-parked flows) and restores them transparently.
//!
//! The slot state machine exists once: Alg. 1's aging/occupy rules are
//! `probe_meta` and Alg. 2's reclaim/duplicate/premature classification
//! is `classify_merge`, both over a `SlotMeta` — which the stores hold
//! in-struct and the register file holds as an 8-byte cell
//! (`SlotMeta::decode`/`encode`). [`FlowStore::merge`]
//! clears only the slot's *metadata*; payload bytes stay in place until
//! [`FlowStore::load_block`] drains them, which is the register file's
//! aliasing behaviour under batched (stage-outer) execution.
//! `tests/flowstore_matrix.rs` checks the stores against the register
//! file over the full adversity matrix.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::config::{META_OFF_CLK, META_OFF_EXP, META_OFF_TSUM, META_OFF_XSUM};
use pp_rmt::phv::BLOCK_BYTES;
use pp_rmt::register::cell;

/// What `split_probe` writes into a slot when it occupies it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParkTag {
    /// Generation clock from the tagger.
    pub clk: u16,
    /// Expiry threshold at occupy time (the live `Arc<AtomicU16>` value).
    pub expiry: u16,
    /// The original transport checksum, parked with the payload.
    pub xsum: u16,
    /// The 5-tuple one's-complement sum, for RFC 1624 repair at merge.
    pub tsum: u16,
}

/// The outcome of a `split_probe` against one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeOutcome {
    /// The slot was free (or just aged out) and is now occupied by the
    /// probing flow — Split proceeds.
    pub parked: bool,
    /// Aging expired the previous occupant on this probe.
    pub evicted: bool,
}

/// The outcome of a `merge_validate` against one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeOutcome {
    /// Generations matched: the slot is reclaimed and Merge restores the
    /// payload. Carries the parked checksum state.
    Restored {
        /// The parked transport checksum.
        xsum: u16,
        /// The parked 5-tuple sum.
        tsum: u16,
    },
    /// The slot is already cleared: a duplicate (or replayed) merge.
    Duplicate,
    /// The slot was evicted (and possibly re-occupied by a newer flow).
    Premature,
}

/// One parked flow lifted out of a store, for migration between cluster
/// switches. `slot` is in the parent deployment's global coordinates, so
/// a flow's wire tag `(idx, clk, crc)` stays valid across the move.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParkedFlow {
    /// Global lookup-table slot.
    pub slot: usize,
    /// Stored generation clock.
    pub clk: u16,
    /// Remaining expiry budget (0 = residual payload of a drained slot).
    pub exp: u16,
    /// Parked transport checksum.
    pub xsum: u16,
    /// Parked 5-tuple sum.
    pub tsum: u16,
    /// Payload bytes (`blocks * BLOCK_BYTES`), when any are live.
    pub payload: Option<Vec<u8>>,
}

/// The park table behind the dataplane program: metadata + payload
/// storage for `slots()` logical slots of `blocks` 16-byte payload cells
/// each. The four data-path methods are the ones the program's MATs
/// call; see the module docs.
pub trait FlowStore: Send {
    /// Logical capacity in slots (parent-deployment coordinates).
    fn slots(&self) -> usize;

    /// Payload blocks per slot.
    fn blocks(&self) -> usize;

    /// Number of slots whose expiry budget is > 0 — the same definition
    /// [`crate::control::PipeControl::occupancy`] scans the register file
    /// for.
    fn occupancy(&self) -> usize;

    /// `split_probe`: age the occupant (evicting at zero), then occupy
    /// the slot with `tag` if it is free. Mirrors Alg. 1 lines 11-23.
    fn probe(&mut self, slot: usize, tag: ParkTag) -> ProbeOutcome;

    /// `split_store_j`: park payload block `j` (`data` is one
    /// [`BLOCK_BYTES`] cell).
    fn store_block(&mut self, slot: usize, j: usize, data: &[u8]);

    /// `merge_validate`: classify an enabled merge arrival carrying
    /// generation `clk`. Restoring clears the slot's metadata only;
    /// payload bytes stay until [`FlowStore::load_block`] drains them.
    fn merge(&mut self, slot: usize, clk: u16) -> MergeOutcome;

    /// `merge_load_j`: copy payload block `j` into `out` and zero it
    /// (Alg. 2 line 23).
    fn load_block(&mut self, slot: usize, j: usize, out: &mut [u8]);

    /// Clears every slot (the control plane's table wipe).
    fn clear(&mut self);

    /// Lifts every live slot in `range` out of the store (clearing it
    /// here), for migration to another switch's store.
    fn extract_range(&mut self, range: Range<usize>) -> Vec<ParkedFlow>;

    /// Installs migrated flows (the counterpart of
    /// [`FlowStore::extract_range`] on the receiving switch).
    fn inject(&mut self, flows: Vec<ParkedFlow>);

    /// Payloads currently demoted to the spill tier (0 for stores
    /// without one).
    fn spilled(&self) -> usize {
        0
    }
}

/// A store shared between the MAT closures that drive it and the control
/// plane that inspects it.
pub type SharedStore = Arc<Mutex<dyn FlowStore>>;

/// Wraps a concrete store for use by [`crate::storeprog::build_store_switch`].
pub fn shared(store: impl FlowStore + 'static) -> SharedStore {
    Arc::new(Mutex::new(store))
}

/// Locks a shared store. The lock is only ever poisoned by a panic inside
/// a store method, which is a bug in this crate.
pub fn lock(store: &SharedStore) -> MutexGuard<'_, dyn FlowStore + 'static> {
    store.lock().expect("flow store lock poisoned")
}

/// One slot's metadata. The stores hold it in-struct; the register file
/// holds it as an 8-byte cell, and this type is that cell's one codec.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SlotMeta {
    pub(crate) clk: u16,
    pub(crate) exp: u16,
    pub(crate) xsum: u16,
    pub(crate) tsum: u16,
}

impl SlotMeta {
    fn is_zero(&self) -> bool {
        *self == SlotMeta::default()
    }

    fn from_tag(tag: ParkTag) -> SlotMeta {
        SlotMeta { clk: tag.clk, exp: tag.expiry, xsum: tag.xsum, tsum: tag.tsum }
    }

    /// Reads a `metadata_table` register cell.
    pub(crate) fn decode(cell: &[u8]) -> SlotMeta {
        let word = |off: usize| cell::read_u16(&cell[off..off + 2]);
        SlotMeta {
            clk: word(META_OFF_CLK),
            exp: word(META_OFF_EXP),
            xsum: word(META_OFF_XSUM),
            tsum: word(META_OFF_TSUM),
        }
    }

    /// Writes a `metadata_table` register cell.
    pub(crate) fn encode(&self, cell: &mut [u8]) {
        let mut word = |off: usize, v: u16| cell::write_u16(&mut cell[off..off + 2], v);
        word(META_OFF_CLK, self.clk);
        word(META_OFF_EXP, self.exp);
        word(META_OFF_XSUM, self.xsum);
        word(META_OFF_TSUM, self.tsum);
    }
}

/// Alg. 1 over one slot: age, evict, occupy. Returns the outcome; `meta`
/// holds the post-probe state.
pub(crate) fn probe_meta(meta: &mut SlotMeta, tag: ParkTag) -> ProbeOutcome {
    let mut evicted = false;
    // Alg. 1 lines 11-13: age the occupant.
    if meta.exp >= 1 {
        meta.exp -= 1;
        if meta.exp == 0 {
            evicted = true;
        }
    }
    if meta.exp == 0 {
        // Alg. 1 lines 14-20: free (or just evicted) — occupy.
        *meta = SlotMeta::from_tag(tag);
        ProbeOutcome { parked: true, evicted }
    } else {
        // Alg. 1 lines 21-23: occupied — the aged budget stays written.
        ProbeOutcome { parked: false, evicted: false }
    }
}

/// Alg. 2 over one slot, for an arrival whose tag already validated. A
/// generation match reclaims: `meta` is zeroed and its parked checksum
/// state returned.
pub(crate) fn classify_merge(meta: &mut SlotMeta, clk: u16) -> MergeOutcome {
    if meta.exp > 0 && meta.clk == clk {
        // Alg. 2 lines 11-15: generations match — reclaim.
        let (xsum, tsum) = (meta.xsum, meta.tsum);
        *meta = SlotMeta::default();
        MergeOutcome::Restored { xsum, tsum }
    } else if meta.is_zero() {
        // A cleared slot: it was already reclaimed by an earlier Merge or
        // Explicit Drop, so this is a duplicate (or replayed) arrival. A
        // lossy link's duplicate must never double-free the slot or
        // splice a stale payload.
        MergeOutcome::Duplicate
    } else {
        // Premature eviction: the slot was aged out, and possibly
        // re-occupied by a newer Split (§3.3).
        MergeOutcome::Premature
    }
}

// ---------------------------------------------------------------------------
// CircularStore: the register file's dense layout.
// ---------------------------------------------------------------------------

/// The fixed circular-buffer park table: dense metadata array + payload
/// arena, full capacity allocated up front. Semantically identical to the
/// register program's `metadata_table` + `payload_block_j` arrays.
#[derive(Debug)]
pub struct CircularStore {
    blocks: usize,
    meta: Vec<SlotMeta>,
    payload: Vec<u8>,
    occupied: usize,
}

impl CircularStore {
    /// A dense store of `slots` slots × `blocks` payload blocks.
    pub fn new(slots: usize, blocks: usize) -> CircularStore {
        CircularStore {
            blocks,
            meta: vec![SlotMeta::default(); slots],
            payload: vec![0u8; slots * blocks * BLOCK_BYTES],
            occupied: 0,
        }
    }

    fn payload_region(&mut self, slot: usize) -> &mut [u8] {
        let bytes = self.blocks * BLOCK_BYTES;
        &mut self.payload[slot * bytes..(slot + 1) * bytes]
    }
}

impl FlowStore for CircularStore {
    fn slots(&self) -> usize {
        self.meta.len()
    }

    fn blocks(&self) -> usize {
        self.blocks
    }

    fn occupancy(&self) -> usize {
        self.occupied
    }

    fn probe(&mut self, slot: usize, tag: ParkTag) -> ProbeOutcome {
        let meta = &mut self.meta[slot];
        let was = meta.exp > 0;
        let outcome = probe_meta(meta, tag);
        let now = meta.exp > 0;
        self.occupied = self.occupied + usize::from(now) - usize::from(was);
        outcome
    }

    fn store_block(&mut self, slot: usize, j: usize, data: &[u8]) {
        let off = j * BLOCK_BYTES;
        self.payload_region(slot)[off..off + BLOCK_BYTES].copy_from_slice(data);
    }

    fn merge(&mut self, slot: usize, clk: u16) -> MergeOutcome {
        let outcome = classify_merge(&mut self.meta[slot], clk);
        if matches!(outcome, MergeOutcome::Restored { .. }) {
            self.occupied -= 1;
        }
        outcome
    }

    fn load_block(&mut self, slot: usize, j: usize, out: &mut [u8]) {
        let off = j * BLOCK_BYTES;
        let region = self.payload_region(slot);
        out.copy_from_slice(&region[off..off + BLOCK_BYTES]);
        region[off..off + BLOCK_BYTES].fill(0);
    }

    fn clear(&mut self) {
        self.meta.fill(SlotMeta::default());
        self.payload.fill(0);
        self.occupied = 0;
    }

    fn extract_range(&mut self, range: Range<usize>) -> Vec<ParkedFlow> {
        let mut out = Vec::new();
        for slot in range {
            let meta = self.meta[slot];
            let live_payload = {
                let region = self.payload_region(slot);
                region.iter().any(|b| *b != 0)
            };
            if meta.is_zero() && !live_payload {
                continue;
            }
            let payload = live_payload.then(|| self.payload_region(slot).to_vec());
            self.payload_region(slot).fill(0);
            self.meta[slot] = SlotMeta::default();
            if meta.exp > 0 {
                self.occupied -= 1;
            }
            out.push(ParkedFlow {
                slot,
                clk: meta.clk,
                exp: meta.exp,
                xsum: meta.xsum,
                tsum: meta.tsum,
                payload,
            });
        }
        out
    }

    fn inject(&mut self, flows: Vec<ParkedFlow>) {
        for f in flows {
            let was = self.meta[f.slot].exp > 0;
            self.meta[f.slot] = SlotMeta { clk: f.clk, exp: f.exp, xsum: f.xsum, tsum: f.tsum };
            self.occupied = self.occupied + usize::from(f.exp > 0) - usize::from(was);
            let region = self.payload_region(f.slot);
            match f.payload {
                Some(bytes) => region.copy_from_slice(&bytes),
                None => region.fill(0),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Generational slab.
// ---------------------------------------------------------------------------

/// A handle into a [`Slab`]: arena index plus the generation it was
/// allocated under. A freed-and-reused entry bumps its generation, so a
/// stale handle dereferences to `None` instead of another flow's payload
/// — the same protection the wire tag's `(idx, clk)` check gives merges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SlabHandle {
    index: u32,
    generation: u32,
}

/// A generational arena of fixed-size payload buffers in one contiguous
/// allocation (`entry_bytes` strides): O(1) alloc/free via a free list,
/// stale handles rejected by generation. It grows to its high-water mark
/// and stays there, so a warm slab never touches the heap.
#[derive(Debug)]
struct Slab {
    entry_bytes: usize,
    data: Vec<u8>,
    /// Per entry, the generation its next (or current) handle carries.
    /// Freeing bumps it, so a freed entry matches no handle ever issued.
    generation: Vec<u32>,
    free: Vec<u32>,
}

impl Slab {
    /// An empty slab of `entry_bytes`-sized buffers.
    fn new(entry_bytes: usize) -> Slab {
        Slab { entry_bytes, data: Vec::new(), generation: Vec::new(), free: Vec::new() }
    }

    fn stride(&self, i: usize) -> Range<usize> {
        i * self.entry_bytes..(i + 1) * self.entry_bytes
    }

    fn range(&self, h: SlabHandle) -> Option<Range<usize>> {
        let i = h.index as usize;
        (*self.generation.get(i)? == h.generation).then(|| self.stride(i))
    }

    /// Allocates a zeroed buffer.
    fn alloc(&mut self) -> SlabHandle {
        let index = match self.free.pop() {
            Some(index) => {
                let stride = self.stride(index as usize);
                self.data[stride].fill(0);
                index
            }
            None => {
                self.data.resize(self.data.len() + self.entry_bytes, 0);
                self.generation.push(0);
                (self.generation.len() - 1) as u32
            }
        };
        SlabHandle { index, generation: self.generation[index as usize] }
    }

    /// The buffer behind `h`, or `None` for a stale or freed handle.
    fn get_mut(&mut self, h: SlabHandle) -> Option<&mut [u8]> {
        self.range(h).map(|r| &mut self.data[r])
    }

    /// Read-only view of the buffer behind `h`.
    fn get(&self, h: SlabHandle) -> Option<&[u8]> {
        self.range(h).map(|r| &self.data[r])
    }

    /// Frees `h`, bumping the entry's generation so `h` (and any copy of
    /// it) is dead from here on. Returns false for an already-stale handle.
    fn free(&mut self, h: SlabHandle) -> bool {
        if self.range(h).is_none() {
            return false;
        }
        self.generation[h.index as usize] = h.generation.wrapping_add(1);
        self.free.push(h.index);
        true
    }

    /// Number of live entries.
    fn live(&self) -> usize {
        self.generation.len() - self.free.len()
    }

    /// Moves `h`'s buffer into a fresh entry of `to` — a demotion or a
    /// promotion, one copy either way.
    fn move_to(&mut self, h: SlabHandle, to: &mut Slab) -> SlabHandle {
        let moved = to.alloc();
        let bytes = self.get(h).expect("a tracked slot's payload handle is live");
        to.get_mut(moved).expect("fresh handle").copy_from_slice(bytes);
        self.free(h);
        moved
    }
}

// ---------------------------------------------------------------------------
// SlabStore: paged slot index over two generational slabs (hot, spill).
// ---------------------------------------------------------------------------

/// Where a slot's payload bytes live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PayloadRef {
    /// In the hot generational slab.
    Hot(SlabHandle),
    /// Demoted to the spill slab.
    Spilled(SlabHandle),
}

#[derive(Debug, Clone, Copy, Default)]
struct SlotState {
    meta: SlotMeta,
    payload: Option<PayloadRef>,
    /// Monotonic park generation: bumped each time a new occupant parks
    /// in this slot. Spill-order entries record the epoch they were
    /// enqueued under, so an entry left behind by a previous occupant
    /// (slot re-occupied, slab handle reused) prunes instead of demoting
    /// the fresh flow out of turn.
    epoch: u64,
    /// Payload blocks holding a non-zero byte, kept exact by every write
    /// to the buffer (`store_block`, `load_block`, `inject`): the slot is
    /// *drained* when this is 0, with no rescan of the payload.
    live_blocks: u32,
}

impl SlotState {
    /// Whether a park-order entry `(handle, epoch)` still names this
    /// slot's hot payload. Once false it stays false: a new occupant gets
    /// a fresh epoch, and a demoted payload only turns hot by re-parking.
    fn holds(&self, handle: SlabHandle, epoch: u64) -> bool {
        self.payload == Some(PayloadRef::Hot(handle)) && self.epoch == epoch
    }
}

fn is_live(block: &[u8]) -> bool {
    block.iter().fold(0, |acc, b| acc | b) != 0
}

/// Slots per index page.
const PAGE_SLOTS: usize = 64;

/// Park-order entries beyond twice the live hot payloads that trigger a
/// sweep of the stale ones.
const PARK_ORDER_SLACK: usize = 32;

#[derive(Debug)]
struct Page {
    slots: [Option<SlotState>; PAGE_SLOTS],
    /// How many of `slots` are `Some`.
    tracked: usize,
}

/// The slot index: a page table. A lookup is two indexed loads; a page is
/// allocated on first touch and kept until [`FlowStore::clear`] (the
/// slabs' high-water-mark rule), the directory grows to the highest slot
/// touched — memory follows the pages ever used, not `slots()`.
#[derive(Debug, Default)]
struct SlotIndex {
    dir: Vec<Option<Box<Page>>>,
}

impl SlotIndex {
    fn get(&self, slot: usize) -> Option<&SlotState> {
        self.dir.get(slot / PAGE_SLOTS)?.as_ref()?.slots[slot % PAGE_SLOTS].as_ref()
    }

    fn get_mut(&mut self, slot: usize) -> Option<&mut SlotState> {
        self.dir.get_mut(slot / PAGE_SLOTS)?.as_mut()?.slots[slot % PAGE_SLOTS].as_mut()
    }

    /// The slot's state, tracked from here on (all-zero when it was not).
    fn entry(&mut self, slot: usize) -> &mut SlotState {
        let p = slot / PAGE_SLOTS;
        if p >= self.dir.len() {
            self.dir.resize_with(p + 1, || None);
        }
        let page = self.dir[p]
            .get_or_insert_with(|| Box::new(Page { slots: [None; PAGE_SLOTS], tracked: 0 }));
        let state = &mut page.slots[slot % PAGE_SLOTS];
        page.tracked += usize::from(state.is_none());
        state.get_or_insert_with(SlotState::default)
    }

    fn remove(&mut self, slot: usize) -> Option<SlotState> {
        let page = self.dir.get_mut(slot / PAGE_SLOTS)?.as_mut()?;
        let state = page.slots[slot % PAGE_SLOTS].take()?;
        page.tracked -= 1;
        Some(state)
    }

    /// Tracked slots inside `range`, ascending; untouched and empty pages
    /// are skipped whole.
    fn slots_in(&self, range: Range<usize>) -> impl Iterator<Item = usize> + '_ {
        let pages = range.start / PAGE_SLOTS..range.end.div_ceil(PAGE_SLOTS).min(self.dir.len());
        pages
            .filter_map(|p| Some((p, self.dir[p].as_ref().filter(|page| page.tracked > 0)?)))
            .flat_map(|(p, page)| {
                (0..PAGE_SLOTS)
                    .filter(|i| page.slots[*i].is_some())
                    .map(move |i| p * PAGE_SLOTS + i)
            })
            .filter(move |slot| range.contains(slot))
    }

    #[cfg(test)]
    fn tracked(&self) -> usize {
        self.dir.iter().flatten().map(|page| page.tracked).sum()
    }
}

/// The sparse park table: tracked slots in a paged index, payload in a
/// generational slab, memory proportional to the high-water mark of
/// touched pages and live payloads. With [`SlabStore::with_spill`], the
/// oldest parked payloads demote to a second slab once the hot one exceeds
/// its capacity, modeling a secondary memory tier for long-parked flows.
#[derive(Debug)]
pub struct SlabStore {
    slots: usize,
    blocks: usize,
    index: SlotIndex,
    slab: Slab,
    spill: Slab,
    /// Hot-slab capacity that triggers spilling (None = unbounded).
    hot_capacity: Option<usize>,
    /// Park order for the spill policy, lazily pruned: entries whose
    /// handle or park epoch went stale (the flow merged, was evicted, or
    /// the slot was re-occupied) are skipped, and swept out in place once
    /// they crowd the queue (see [`SlabStore::prune_park_order`]).
    park_order: VecDeque<(usize, SlabHandle, u64)>,
    /// `enforce_spill`'s skipped entries, kept for its capacity.
    deferred: Vec<(usize, SlabHandle, u64)>,
    /// Next park epoch to hand out (see [`SlotState::epoch`]).
    park_epoch: u64,
    occupied: usize,
}

impl SlabStore {
    /// A sparse store of `slots` logical slots × `blocks` payload blocks.
    pub fn new(slots: usize, blocks: usize) -> SlabStore {
        SlabStore {
            slots,
            blocks,
            index: SlotIndex::default(),
            slab: Slab::new(blocks * BLOCK_BYTES),
            spill: Slab::new(blocks * BLOCK_BYTES),
            hot_capacity: None,
            park_order: VecDeque::new(),
            deferred: Vec::new(),
            park_epoch: 0,
            occupied: 0,
        }
    }

    /// Like [`SlabStore::new`], but the hot slab is bounded: beyond
    /// `hot_capacity` live payloads, the oldest parked ones demote to
    /// the spill tier.
    pub fn with_spill(slots: usize, blocks: usize, hot_capacity: usize) -> SlabStore {
        SlabStore { hot_capacity: Some(hot_capacity.max(1)), ..SlabStore::new(slots, blocks) }
    }

    /// Live hot-slab payloads (for tests and telemetry).
    pub fn hot(&self) -> usize {
        self.slab.live()
    }

    fn free_payload(&mut self, payload: Option<PayloadRef>) {
        match payload {
            Some(PayloadRef::Hot(h)) => self.slab.free(h),
            Some(PayloadRef::Spilled(h)) => self.spill.free(h),
            None => false,
        };
    }

    /// Block `j` of a tracked slot's payload buffer, in whichever tier
    /// holds it.
    fn block_mut<'a>(
        slab: &'a mut Slab,
        spill: &'a mut Slab,
        payload: PayloadRef,
        j: usize,
    ) -> &'a mut [u8; BLOCK_BYTES] {
        let buf = match payload {
            PayloadRef::Hot(h) => slab.get_mut(h),
            PayloadRef::Spilled(h) => spill.get_mut(h),
        };
        let buf = buf.expect("a tracked slot's payload handle is live");
        buf[j * BLOCK_BYTES..].first_chunk_mut().expect("block j is inside the payload")
    }

    /// Sweeps stale entries out of the park order, in place and keeping
    /// the live ones in order, once the queue outgrows twice the live hot
    /// payloads. Only `enforce_spill` pops the queue, and only above
    /// capacity, so below it every park used to leave an entry behind for
    /// good. Live entries never outnumber hot payloads, so a sweep removes
    /// at least half of what it scans: O(1) amortized per park. Demotion
    /// skips stale entries anyway, so no demotion choice changes.
    fn prune_park_order(&mut self) {
        if self.park_order.len() > 2 * self.slab.live() + PARK_ORDER_SLACK {
            let index = &self.index;
            self.park_order.retain(|&(slot, handle, epoch)| {
                index.get(slot).is_some_and(|s| s.holds(handle, epoch))
            });
        }
    }

    /// Demotes oldest *live* parked payloads until the slab is back under
    /// its capacity. Stale park-order entries (already merged/evicted/
    /// spilled, or superseded by a newer occupant of the slot) are pruned
    /// as encountered. Slots whose expiry clock already ran out never
    /// demote: a fully-drained residual is released (evicted) on the
    /// spot, and a merge residual still waiting for `load_block` stays
    /// hot — spilling either would bump the spill gauge for a flow that
    /// is no longer parked, then bump it right back down on drain.
    fn enforce_spill(&mut self) {
        let Some(cap) = self.hot_capacity else {
            return;
        };
        self.prune_park_order();
        while self.slab.live() > cap {
            let Some((slot, handle, epoch)) = self.park_order.pop_front() else {
                break;
            };
            let Some(state) = self.index.get_mut(slot).filter(|s| s.holds(handle, epoch)) else {
                continue; // lazily pruned: the flow is gone or moved.
            };
            if state.meta.exp == 0 {
                if state.live_blocks == 0 {
                    // Nothing left to restore: evict instead of demoting.
                    self.index.remove(slot);
                    self.slab.free(handle);
                } else {
                    // Hot, but not demotable: the metadata is already
                    // zero while payload bytes are still pending drain.
                    // Re-queued below so a later pass revisits it.
                    self.deferred.push((slot, handle, epoch));
                }
                continue;
            }
            state.payload = Some(PayloadRef::Spilled(self.slab.move_to(handle, &mut self.spill)));
        }
        for entry in self.deferred.drain(..).rev() {
            self.park_order.push_front(entry);
        }
    }

    /// Drops the whole slot entry once both its metadata and payload are
    /// fully drained.
    fn release_if_drained(&mut self, slot: usize) {
        if self.index.get(slot).is_some_and(|s| s.meta.is_zero() && s.live_blocks == 0) {
            let state = self.index.remove(slot).expect("present");
            self.free_payload(state.payload);
        }
    }
}

impl FlowStore for SlabStore {
    fn slots(&self) -> usize {
        self.slots
    }

    fn blocks(&self) -> usize {
        self.blocks
    }

    fn occupancy(&self) -> usize {
        self.occupied
    }

    fn probe(&mut self, slot: usize, tag: ParkTag) -> ProbeOutcome {
        let state = self.index.entry(slot);
        let was = state.meta.exp > 0;
        let outcome = probe_meta(&mut state.meta, tag);
        let now = state.meta.exp > 0;
        self.occupied = self.occupied + usize::from(now) - usize::from(was);
        if outcome.parked {
            // The register program leaves the previous occupant's payload
            // cells in place for split_store_j to overwrite; reusing (or
            // allocating) the buffer here reproduces that aliasing.
            let handle = match state.payload {
                Some(PayloadRef::Hot(h)) => h,
                // Promote back: the new occupant writes hot.
                Some(PayloadRef::Spilled(cold)) => self.spill.move_to(cold, &mut self.slab),
                None => self.slab.alloc(),
            };
            let epoch = self.park_epoch;
            self.park_epoch += 1;
            state.payload = Some(PayloadRef::Hot(handle));
            state.epoch = epoch;
            if self.hot_capacity.is_some() {
                self.park_order.push_back((slot, handle, epoch));
                self.enforce_spill();
            }
        }
        outcome
    }

    fn store_block(&mut self, slot: usize, j: usize, data: &[u8]) {
        let Some(state) = self.index.get_mut(slot) else {
            debug_assert!(false, "store_block on an unoccupied slot");
            return;
        };
        let Some(payload) = state.payload else {
            debug_assert!(false, "store_block on a slot without payload storage");
            return;
        };
        let data: &[u8; BLOCK_BYTES] = data.try_into().expect("data is one payload block");
        let cell = Self::block_mut(&mut self.slab, &mut self.spill, payload, j);
        state.live_blocks = state.live_blocks + u32::from(is_live(data)) - u32::from(is_live(cell));
        *cell = *data;
    }

    fn merge(&mut self, slot: usize, clk: u16) -> MergeOutcome {
        let Some(state) = self.index.get_mut(slot) else {
            // An absent entry is an all-zero cell: duplicate arrival.
            return MergeOutcome::Duplicate;
        };
        let outcome = classify_merge(&mut state.meta, clk);
        if matches!(outcome, MergeOutcome::Restored { .. }) {
            self.occupied -= 1;
            // Payload stays for load_block to drain (register cells
            // behave the same way); release if already empty.
            self.release_if_drained(slot);
        }
        outcome
    }

    fn load_block(&mut self, slot: usize, j: usize, out: &mut [u8]) {
        let tracked = self.index.get_mut(slot);
        let Some((state, payload)) = tracked.and_then(|s| s.payload.map(|p| (s, p))) else {
            // A fully-drained (released) slot reads as zeros, exactly like
            // the register file's cleared cells.
            return out.fill(0);
        };
        let cell = Self::block_mut(&mut self.slab, &mut self.spill, payload, j);
        state.live_blocks -= u32::from(is_live(cell));
        out.copy_from_slice(cell);
        cell.fill(0);
        // Only the load that empties the last block can release the slot.
        if state.live_blocks == 0 {
            self.release_if_drained(slot);
        }
    }

    fn clear(&mut self) {
        let hot_capacity = self.hot_capacity;
        *self = SlabStore { hot_capacity, ..SlabStore::new(self.slots, self.blocks) };
    }

    fn extract_range(&mut self, range: Range<usize>) -> Vec<ParkedFlow> {
        // Occupancy is sparse: walk the touched pages, not the range.
        let slots: Vec<usize> = self.index.slots_in(range).collect();
        let mut out = Vec::with_capacity(slots.len());
        for slot in slots {
            let state = self.index.remove(slot).expect("present");
            let payload = match state.payload.filter(|_| state.live_blocks > 0) {
                Some(PayloadRef::Hot(h)) => self.slab.get(h).map(<[u8]>::to_vec),
                Some(PayloadRef::Spilled(h)) => self.spill.get(h).map(<[u8]>::to_vec),
                None => None,
            };
            self.free_payload(state.payload);
            if state.meta.exp > 0 {
                self.occupied -= 1;
            }
            out.push(ParkedFlow {
                slot,
                clk: state.meta.clk,
                exp: state.meta.exp,
                xsum: state.meta.xsum,
                tsum: state.meta.tsum,
                payload,
            });
        }
        out
    }

    fn inject(&mut self, flows: Vec<ParkedFlow>) {
        for f in flows {
            // Clear any residual state first.
            if let Some(old) = self.index.remove(f.slot) {
                if old.meta.exp > 0 {
                    self.occupied -= 1;
                }
                self.free_payload(old.payload);
            }
            let meta = SlotMeta { clk: f.clk, exp: f.exp, xsum: f.xsum, tsum: f.tsum };
            if meta.is_zero() && f.payload.is_none() {
                continue;
            }
            let epoch = self.park_epoch;
            self.park_epoch += 1;
            let mut live_blocks = 0;
            let payload = f.payload.map(|bytes| {
                let h = self.slab.alloc();
                self.slab.get_mut(h).expect("fresh handle").copy_from_slice(&bytes);
                live_blocks = bytes.chunks(BLOCK_BYTES).filter(|b| is_live(b)).count() as u32;
                if self.hot_capacity.is_some() {
                    self.park_order.push_back((f.slot, h, epoch));
                }
                PayloadRef::Hot(h)
            });
            if meta.exp > 0 {
                self.occupied += 1;
            }
            *self.index.entry(f.slot) = SlotState { meta, payload, epoch, live_blocks };
        }
        self.enforce_spill();
    }

    fn spilled(&self) -> usize {
        self.spill.live()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag(clk: u16) -> ParkTag {
        ParkTag { clk, expiry: 4, xsum: 0xBEEF, tsum: 0x1234 }
    }

    fn block(fill: u8) -> [u8; BLOCK_BYTES] {
        [fill; BLOCK_BYTES]
    }

    #[derive(Debug, PartialEq)]
    enum Tier {
        Hot,
        Spill,
    }

    /// Which tier holds `slot`'s payload buffer, if it has one.
    fn tier(s: &SlabStore, slot: usize) -> Option<Tier> {
        s.index.get(slot)?.payload.map(|p| match p {
            PayloadRef::Hot(_) => Tier::Hot,
            PayloadRef::Spilled(_) => Tier::Spill,
        })
    }

    /// Both stores through the same scripted slot lifecycle must agree on
    /// every outcome and byte.
    fn lifecycle(store: &mut dyn FlowStore) {
        // Park flow A in slot 3.
        assert_eq!(store.probe(3, tag(7)), ProbeOutcome { parked: true, evicted: false });
        store.store_block(3, 0, &block(0xAA));
        store.store_block(3, 1, &block(0xBB));
        assert_eq!(store.occupancy(), 1);

        // A second probe ages A (4 → 3) and is refused.
        assert_eq!(store.probe(3, tag(8)), ProbeOutcome { parked: false, evicted: false });

        // Wrong generation: premature (slot occupied by another clk).
        assert_eq!(store.merge(3, 9), MergeOutcome::Premature);

        // Right generation: restored, payload drains block by block.
        assert_eq!(store.merge(3, 7), MergeOutcome::Restored { xsum: 0xBEEF, tsum: 0x1234 });
        assert_eq!(store.occupancy(), 0);
        let mut out = [0u8; BLOCK_BYTES];
        store.load_block(3, 0, &mut out);
        assert_eq!(out, block(0xAA));
        store.load_block(3, 1, &mut out);
        assert_eq!(out, block(0xBB));

        // The slot is now fully cleared: a replay is a duplicate.
        assert_eq!(store.merge(3, 7), MergeOutcome::Duplicate);

        // Aging to zero evicts, and the evicting probe occupies.
        assert!(store.probe(5, ParkTag { clk: 1, expiry: 2, xsum: 0, tsum: 0 }).parked);
        assert!(!store.probe(5, tag(2)).parked); // 2 → 1
        let o = store.probe(5, tag(3)); // 1 → 0: evict + occupy
        assert_eq!(o, ProbeOutcome { parked: true, evicted: true });
        // The evicted flow's merge is premature (slot re-occupied).
        assert_eq!(store.merge(5, 1), MergeOutcome::Premature);
        assert_eq!(store.occupancy(), 1);
    }

    #[test]
    fn circular_lifecycle() {
        lifecycle(&mut CircularStore::new(64, 2));
    }

    #[test]
    fn slab_lifecycle() {
        lifecycle(&mut SlabStore::new(64, 2));
    }

    #[test]
    fn slab_generations_reject_stale_handles() {
        let mut slab = Slab::new(BLOCK_BYTES);
        let a = slab.alloc();
        slab.get_mut(a).unwrap().copy_from_slice(&block(0x11));
        assert!(slab.free(a));
        // The arena entry is re-used by flow B...
        let b = slab.alloc();
        assert_eq!(b.index, a.index);
        slab.get_mut(b).unwrap().copy_from_slice(&block(0x22));
        // ...and the stale handle can neither read B's payload nor free it
        // out from under B — the same way a stale wire tag's clk mismatch
        // turns its merge into a premature drop instead of a double-free.
        assert!(slab.get(a).is_none());
        assert!(slab.get_mut(a).is_none());
        assert!(!slab.free(a));
        assert_eq!(slab.get(b).unwrap(), &block(0x22));
        assert_eq!(slab.live(), 1);
    }

    #[test]
    fn slab_store_memory_tracks_occupancy() {
        let mut s = SlabStore::new(1 << 20, 4);
        for slot in 0..100 {
            assert!(s.probe(slot * 1000, tag(1)).parked);
        }
        assert_eq!(s.occupancy(), 100);
        assert_eq!(s.hot(), 100);
        // One page per touched slot (they are 1 000 apart), out of the
        // 16 384 a dense index of 2^20 slots would hold.
        assert_eq!(s.index.dir.iter().flatten().count(), 100);
        for slot in 0..100 {
            assert!(matches!(s.merge(slot * 1000, 1), MergeOutcome::Restored { .. }));
        }
        assert_eq!(s.occupancy(), 0);
        // Nothing was stored, so reclaim released every buffer.
        assert_eq!(s.hot(), 0);
        assert_eq!(s.index.tracked(), 0);
    }

    #[test]
    fn spill_tier_demotes_oldest_and_restores_transparently() {
        let mut s = SlabStore::with_spill(1024, 1, 2);
        for slot in 0..5u16 {
            assert!(s.probe(usize::from(slot), tag(slot)).parked);
            s.store_block(usize::from(slot), 0, &block(slot as u8 + 1));
        }
        // Hot bounded at 2: the three oldest payloads live in the spill.
        assert_eq!(s.hot(), 2);
        assert_eq!(s.spilled(), 3);
        assert_eq!(s.occupancy(), 5);
        // Merging a spilled flow restores its exact payload.
        assert_eq!(s.merge(0, 0), MergeOutcome::Restored { xsum: 0xBEEF, tsum: 0x1234 });
        let mut out = [0u8; BLOCK_BYTES];
        s.load_block(0, 0, &mut out);
        assert_eq!(out, block(1));
        assert_eq!(s.spilled(), 2);
    }

    #[test]
    fn extract_inject_moves_live_flows() {
        let mut a = SlabStore::new(4096, 2);
        let mut b = SlabStore::new(4096, 2);
        assert!(a.probe(10, tag(3)).parked);
        a.store_block(10, 0, &block(0x10));
        a.store_block(10, 1, &block(0x11));
        assert!(a.probe(900, tag(4)).parked);
        a.store_block(900, 0, &block(0x90));
        a.store_block(900, 1, &block(0x91));

        let moved = a.extract_range(0..512);
        assert_eq!(moved.len(), 1);
        assert_eq!(moved[0].slot, 10);
        assert_eq!(a.occupancy(), 1);
        b.inject(moved);
        assert_eq!(b.occupancy(), 1);

        // The migrated flow merges on the new store with its original tag.
        assert_eq!(b.merge(10, 3), MergeOutcome::Restored { xsum: 0xBEEF, tsum: 0x1234 });
        let mut out = [0u8; BLOCK_BYTES];
        b.load_block(10, 0, &mut out);
        assert_eq!(out, block(0x10));
        b.load_block(10, 1, &mut out);
        assert_eq!(out, block(0x11));
        // It is gone from the old store: a late replay there is a duplicate.
        assert_eq!(a.merge(10, 3), MergeOutcome::Duplicate);
    }

    /// Regression (pp-fuzz find): the spill bound must never demote a
    /// slot whose expiry clock already ran out. A merge residual (meta
    /// cleared, payload waiting for `load_block`) used to be demoted as
    /// "oldest parked", bumping the spill gauge for a flow that is no
    /// longer parked and bumping it back down when the drain pulled the
    /// bytes out of the spill tier — the gauge double-touch.
    #[test]
    fn spill_bound_skips_merge_residuals() {
        let mut s = SlabStore::with_spill(1024, 1, 1);
        // Park A and merge it: its payload is now a residual pending drain.
        assert!(s.probe(0, tag(7)).parked);
        s.store_block(0, 0, &block(0xAA));
        assert_eq!(s.merge(0, 7), MergeOutcome::Restored { xsum: 0xBEEF, tsum: 0x1234 });
        // Parking B overflows the hot tier (cap 1, two hot payloads).
        assert!(s.probe(1, tag(8)).parked);
        s.store_block(1, 0, &block(0xBB));
        // The residual stays hot; the genuinely parked flow demotes.
        assert_eq!(s.spilled(), 1, "exactly one parked payload demotes");
        assert_eq!(tier(&s, 0), Some(Tier::Hot), "merge residual must not enter the spill tier");
        assert_eq!(tier(&s, 1), Some(Tier::Spill), "the live parked flow is the one demoted");
        // Draining A releases it from the hot slab without ever touching
        // the spill gauge; B stays spilled throughout.
        let mut out = [0u8; BLOCK_BYTES];
        s.load_block(0, 0, &mut out);
        assert_eq!(out, block(0xAA));
        assert_eq!(s.spilled(), 1);
        assert_eq!(s.hot(), 0);
        assert_eq!(s.occupancy(), 1);
    }

    /// Regression (pp-fuzz find): a slot that merges and is immediately
    /// re-occupied reuses the previous occupant's slab handle (register
    /// aliasing), so the *old* park-order entry used to pass the
    /// staleness check and demote the freshly parked flow ahead of a
    /// genuinely older one. Park epochs prune the stale entry.
    #[test]
    fn spill_order_survives_slot_reoccupancy() {
        let mut s = SlabStore::with_spill(1024, 1, 2);
        // A (slot 0) then B (slot 1) park; hot tier holds both.
        assert!(s.probe(0, tag(1)).parked);
        s.store_block(0, 0, &block(0xA1));
        assert!(s.probe(1, tag(2)).parked);
        s.store_block(1, 0, &block(0xB1));
        // A merges and slot 0 is re-occupied by C, reusing A's handle.
        assert_eq!(s.merge(0, 1), MergeOutcome::Restored { xsum: 0xBEEF, tsum: 0x1234 });
        assert!(s.probe(0, tag(3)).parked);
        s.store_block(0, 0, &block(0xC1));
        // D overflows the hot tier. Oldest live flow is B — not C, whose
        // slot merely inherited A's position in the queue.
        assert!(s.probe(2, tag(4)).parked);
        s.store_block(2, 0, &block(0xD1));
        assert_eq!(s.spilled(), 1);
        assert_eq!(tier(&s, 1), Some(Tier::Spill), "oldest live flow (B) demotes");
        assert_eq!(tier(&s, 0), Some(Tier::Hot), "freshly re-parked flow (C) stays hot");
        // All three restore byte-identical.
        let mut out = [0u8; BLOCK_BYTES];
        assert!(matches!(s.merge(1, 2), MergeOutcome::Restored { .. }));
        s.load_block(1, 0, &mut out);
        assert_eq!(out, block(0xB1));
        assert!(matches!(s.merge(0, 3), MergeOutcome::Restored { .. }));
        s.load_block(0, 0, &mut out);
        assert_eq!(out, block(0xC1));
        assert!(matches!(s.merge(2, 4), MergeOutcome::Restored { .. }));
        s.load_block(2, 0, &mut out);
        assert_eq!(out, block(0xD1));
        assert_eq!(s.spilled(), 0);
        assert_eq!(s.occupancy(), 0);
    }

    /// Regression: below the hot capacity nothing pops the park order, so
    /// it used to grow by one entry per park, without bound.
    #[test]
    fn park_order_stays_bounded_below_capacity() {
        let mut s = SlabStore::with_spill(64, 1, 1024);
        let mut out = [0u8; BLOCK_BYTES];
        for cycle in 0..10_000u32 {
            let clk = cycle as u16;
            let slots = (cycle as usize % 16)..(cycle as usize % 16 + 4);
            for slot in slots.clone() {
                assert!(s.probe(slot, tag(clk)).parked);
                s.store_block(slot, 0, &block(0x5A));
            }
            let (queued, hot) = (s.park_order.len(), s.hot());
            assert!(queued <= 2 * hot + PARK_ORDER_SLACK, "cycle {cycle}: {queued} for {hot}");
            for slot in slots {
                assert!(matches!(s.merge(slot, clk), MergeOutcome::Restored { .. }));
                s.load_block(slot, 0, &mut out);
                assert_eq!(out, block(0x5A));
            }
        }
        assert_eq!((s.occupancy(), s.hot(), s.spilled()), (0, 0, 0));
    }

    /// The acceptance-criteria soak: park and restore over a million
    /// concurrent flows through the sparse store.
    #[test]
    fn slab_store_soaks_a_million_concurrent_flows() {
        const FLOWS: usize = 1 << 20; // 1,048,576
        let mut s = SlabStore::new(2 * FLOWS, 1);
        let payload = block(0x5A);
        for slot in 0..FLOWS {
            let t = ParkTag { clk: slot as u16, expiry: u16::MAX, xsum: 1, tsum: 2 };
            assert!(s.probe(slot, t).parked);
            s.store_block(slot, 0, &payload);
        }
        assert_eq!(s.occupancy(), FLOWS);
        assert_eq!(s.hot(), FLOWS);

        let mut out = [0u8; BLOCK_BYTES];
        for slot in 0..FLOWS {
            assert!(matches!(s.merge(slot, slot as u16), MergeOutcome::Restored { .. }));
            s.load_block(slot, 0, &mut out);
            assert_eq!(out, payload);
        }
        assert_eq!(s.occupancy(), 0);
        assert_eq!(s.hot(), 0);
        assert_eq!(s.index.tracked(), 0);
    }

    /// The page directory grows on demand: a slot beyond `slots()` is
    /// tracked like any other.
    #[test]
    fn slab_store_accepts_a_slot_beyond_its_logical_capacity() {
        let mut s = SlabStore::new(64, 1);
        assert!(s.probe(5000, tag(1)).parked);
        s.store_block(5000, 0, &block(0x77));
        assert_eq!(s.merge(5000, 1), MergeOutcome::Restored { xsum: 0xBEEF, tsum: 0x1234 });
        let mut out = [0u8; BLOCK_BYTES];
        s.load_block(5000, 0, &mut out);
        assert_eq!(out, block(0x77));
        assert_eq!(s.merge(9999, 1), MergeOutcome::Duplicate);
        assert_eq!((s.hot(), s.index.tracked()), (0, 0));
    }

    /// splitmix64: the differential test's only source of randomness.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        /// An all-zero block, a block with one non-zero byte, or a full one.
        fn block(&mut self) -> [u8; BLOCK_BYTES] {
            let mut b = [0u8; BLOCK_BYTES];
            match self.below(3) {
                0 => {}
                1 => b[self.below(BLOCK_BYTES)] = 1 + self.below(255) as u8,
                _ => b.fill(1 + self.below(255) as u8),
            }
            b
        }
    }

    /// A `SlabStore` beside the `CircularStore` it must be
    /// indistinguishable from.
    struct Pair {
        reference: CircularStore,
        slab: SlabStore,
    }

    impl Pair {
        fn probe(&mut self, slot: usize, tag: ParkTag) -> ProbeOutcome {
            let outcome = self.reference.probe(slot, tag);
            assert_eq!(self.slab.probe(slot, tag), outcome, "probe {slot} {tag:?}");
            outcome
        }

        fn store_block(&mut self, slot: usize, j: usize, data: &[u8]) {
            self.reference.store_block(slot, j, data);
            self.slab.store_block(slot, j, data);
        }

        fn merge(&mut self, slot: usize, clk: u16) -> MergeOutcome {
            let outcome = self.reference.merge(slot, clk);
            assert_eq!(self.slab.merge(slot, clk), outcome, "merge {slot} clk {clk}");
            outcome
        }

        fn load_block(&mut self, slot: usize, j: usize) {
            let (mut want, mut got) = ([0u8; BLOCK_BYTES], [0xEEu8; BLOCK_BYTES]);
            self.reference.load_block(slot, j, &mut want);
            self.slab.load_block(slot, j, &mut got);
            assert_eq!(got, want, "load_block {slot}/{j}");
        }

        fn extract_range(&mut self, range: Range<usize>) -> Vec<ParkedFlow> {
            let flows = self.reference.extract_range(range.clone());
            assert_eq!(self.slab.extract_range(range.clone()), flows, "extract {range:?}");
            flows
        }

        fn inject(&mut self, flows: Vec<ParkedFlow>) {
            self.reference.inject(flows.clone());
            self.slab.inject(flows);
        }

        fn check(&self) {
            assert_eq!(self.slab.occupancy(), self.reference.occupancy());
            assert!(self.slab.spilled() <= self.slab.occupancy(), "a spilled payload is parked");
        }
    }

    /// One seeded op stream over two store pairs (flows migrate between
    /// them). Slots are few and revisited, expiry is 1..=3 and clocks come
    /// from 0..4, so aging, eviction, re-park over an unmerged occupant's
    /// bytes, premature and duplicate merges all happen by chance.
    fn differential(seed: u64, blocks: usize, make: &dyn Fn() -> SlabStore) {
        const SLOTS: usize = 80; // two index pages
        const CLOCKS: usize = 4;
        let mut rng = Rng(seed);
        let mut pairs =
            [(); 2].map(|_| Pair { reference: CircularStore::new(SLOTS, blocks), slab: make() });
        for _ in 0..4000 {
            let side = rng.below(2);
            let pair = &mut pairs[side];
            let slot = rng.below(SLOTS);
            match rng.below(100) {
                0..=44 => {
                    let tag = ParkTag {
                        clk: rng.below(CLOCKS) as u16,
                        expiry: 1 + rng.below(3) as u16,
                        xsum: rng.below(1 << 16) as u16,
                        tsum: rng.below(1 << 16) as u16,
                    };
                    if pair.probe(slot, tag).parked {
                        // Most blocks stored once, some skipped (the last
                        // occupant's bytes stay), some overwritten.
                        for _ in 0..blocks + rng.below(3) {
                            pair.store_block(slot, rng.below(blocks), &rng.block());
                        }
                    }
                }
                45..=84 => {
                    let restored = pair.merge(slot, rng.below(CLOCKS) as u16);
                    // A restored payload that spilled drains whole, as the
                    // program drains it; a hot one may keep a residual,
                    // which `enforce_spill` must then leave hot.
                    let whole = tier(&pair.slab, slot) == Some(Tier::Spill);
                    for j in 0..blocks {
                        if matches!(restored, MergeOutcome::Restored { .. })
                            && (whole || rng.below(8) > 0)
                        {
                            pair.load_block(slot, j);
                        }
                    }
                }
                85..=91 => pair.load_block(slot, rng.below(blocks)),
                92..=98 => {
                    let flows = pair.extract_range(slot..(slot + 1 + rng.below(24)).min(SLOTS));
                    pair.check();
                    pairs[1 - side].inject(flows);
                }
                _ => {
                    if rng.below(8) == 0 {
                        pair.reference.clear();
                        pair.slab.clear();
                    }
                }
            }
            pairs.iter().for_each(Pair::check);
        }
        // Merge and drain everything: the slab must end empty-handed.
        for pair in &mut pairs {
            for slot in 0..SLOTS {
                for clk in 0..CLOCKS {
                    pair.merge(slot, clk as u16);
                }
                for j in 0..blocks {
                    pair.load_block(slot, j);
                }
            }
            pair.check();
            let s = &pair.slab;
            assert_eq!((s.occupancy(), s.hot(), s.spilled(), s.index.tracked()), (0, 0, 0, 0));
        }
    }

    /// `SlabStore` — unbounded, and spilling at hot capacities 1, 8 and
    /// beyond the slot count — against `CircularStore` over random op
    /// streams: every outcome, occupancy, loaded byte and migrated flow
    /// equal. The check that a drained count which drifts from the byte
    /// scan it replaced cannot pass.
    #[test]
    fn slab_store_is_indistinguishable_from_the_circular_reference() {
        for blocks in [1, 2, 10] {
            for seed in 0..6 {
                differential(seed, blocks, &|| SlabStore::new(80, blocks));
                for hot in [1, 8, 128] {
                    differential(seed, blocks, &|| SlabStore::with_spill(80, blocks, hot));
                }
            }
        }
    }
}
