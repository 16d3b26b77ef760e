//! The sharded multi-worker engine: run-to-completion shards.
//!
//! An [`Engine`] partitions a PayloadPark deployment with
//! [`payloadpark::ShardPlan`] (the paper's §6.2.4 port→slice mapping) and
//! owns one long-lived worker thread per shard. Each worker owns its
//! shard's [`SwitchModel`] outright — register file included — and is fed
//! over a pair of lock-free SPSC rings ([`crate::spsc`]): packets and
//! control messages in, result arenas and snapshots out. The threads
//! persist across waves, so the steady state costs no spawns and no
//! locks on the packet path.
//!
//! **The round trip** ([`Engine::process_roundtrip`]) runs every shard to
//! completion. The dispatcher partitions the wave once, hands each shard
//! its whole queue in one ring message together with the output arena to
//! fill, and sleeps. The worker runs the fused per-packet loop of the
//! scalar reference ([`crate::SlicedTestbed::scalar_roundtrip_into`]):
//! Split, readdress the header packet into one reused bounce frame, Merge
//! — straight into the arena, no intermediate wave and no allocation. It
//! replies with the arena, wakes the dispatcher, and only then frees its
//! inputs. The dispatcher knows the wave is over when it has counted one
//! reply per message sent. Arenas return to an engine-owned pool when the
//! [`EngineOutput`] holding them drops, so a warm wave allocates
//! O(workers); the pool keeps at most two arenas per shard and lets the
//! rest go.
//!
//! **Two-phase waves** ([`Engine::process`]) keep batch semantics: a
//! shard's queue is cut into `batch`-packet messages, each run through
//! the batched dataplane ([`SwitchModel::process_batch`]) into an arena
//! of its own, `ring_depth` of them in flight per shard. This is the mode
//! the conformance drive ([`crate::conformance`]) runs the engine in,
//! with the adversity legs applied to the whole wave between the phases.
//!
//! Determinism is preserved: a shard processes its packets in arrival
//! order and a slice's register cells are only ever touched by its own
//! shard. The round trip is therefore step for step the scalar round trip
//! restricted to the shard's slices, for any slot count; batch execution
//! performs register accesses in the same per-array order as scalar
//! execution, so a two-phase drive matches the two-phase scalar
//! reference. The equivalence suites (`tests/functional_equivalence.rs`,
//! `tests/adversity_matrix.rs`) and this module's tests enforce both byte
//! for byte.

use crate::spsc::{self, Consumer, Producer};
use payloadpark::program::build_switch;
use payloadpark::{BuildError, CounterSnapshot, ParkConfig, PipeControl, ShardPlan};
use pp_netsim::adversity::FaultTally;
use pp_packet::MacAddr;
use pp_rmt::switch::{BatchOutput, BatchPacket, OutputRef, SwitchStats};
use pp_rmt::{PortId, SwitchModel, SwitchOutput};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::thread::{JoinHandle, Thread};

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads; the deployment needs at least this many slices.
    pub workers: usize,
    /// Packets per message of [`Engine::process`]: the unit of batched
    /// execution. The round trip ignores it — a shard's queue travels
    /// whole.
    pub batch: usize,
    /// Messages each SPSC ring can hold in flight: how far the dispatcher
    /// may run ahead of a worker in batch mode. The round trip puts one
    /// message per shard and wave on a ring.
    pub ring_depth: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { workers: 4, batch: 128, ring_depth: 16 }
    }
}

/// Round-trip arenas the pool retains per shard. One is what a caller
/// that drops a wave's output before the next wave reuses; the second
/// covers a caller that still holds the previous output while the next
/// wave runs. Anything beyond that is dropped, so held or abandoned
/// outputs cannot grow the engine's footprint.
const POOLED_ARENAS_PER_SHARD: usize = 2;

/// Recycled round-trip arenas, shared between the engine (which takes
/// one per shard and wave) and its outputs (which hand them back on
/// drop). Locked twice per wave, never per packet.
type ArenaPool = Arc<Mutex<Vec<BatchOutput>>>;

/// What the dispatcher sends a worker. The ring is FIFO and the worker
/// single-threaded, so control messages are ordered with the packet
/// messages around them. Every packet message is answered by exactly one
/// [`WorkerReply::Out`]; the dispatcher ends a wave by counting them.
enum WorkerMsg {
    /// Process one batch, reply with its outputs.
    Batch(Vec<BatchPacket>),
    /// Run every packet to completion, one at a time: Split, bounce the
    /// output off this shard's MAC-swap NF server (readdressing it to
    /// `sink`), Merge the return — all into `arena`; reply with it. Keeps
    /// the whole Split → NF → Merge round trip on the worker, as each
    /// slice's NF server is its own machine.
    Roundtrip { pkts: Vec<BatchPacket>, sink: MacAddr, arena: BatchOutput },
    /// Add an L2 forwarding entry (fire and forget).
    L2Add(MacAddr, PortId),
    /// Reply with a control-plane snapshot.
    Query,
    /// Exit the worker loop.
    Shutdown,
}

/// What a worker sends back.
enum WorkerReply {
    Out(BatchOutput),
    State { counters: CounterSnapshot, stats: SwitchStats, occupancy: usize },
}

struct WorkerHandle {
    tx: Producer<WorkerMsg>,
    rx: Consumer<WorkerReply>,
    join: Option<JoinHandle<()>>,
}

/// The thread currently driving the engine. Workers unpark it after every
/// reply; `Engine` re-captures it at the start of each driving call, so
/// moving the engine to another thread keeps wakeups working (the lock is
/// taken once per reply message, never per packet).
type DispatcherSlot = Arc<Mutex<Thread>>;

impl WorkerHandle {
    /// Wakes the worker to look at its ring.
    fn wake(&self) {
        if let Some(join) = &self.join {
            join.thread().unpark();
        }
    }

    /// True once the worker thread has exited (a panicked worker must not
    /// hang the dispatcher).
    fn is_dead(&self) -> bool {
        self.join.as_ref().is_none_or(|j| j.is_finished())
    }

    /// Pushes a message, parking while the ring is full but giving up if
    /// the worker died.
    fn send(&mut self, mut msg: WorkerMsg) -> bool {
        loop {
            match self.tx.try_push(msg) {
                Ok(()) => {
                    self.wake();
                    return true;
                }
                Err(back) => {
                    if self.is_dead() {
                        return false;
                    }
                    msg = back;
                    std::thread::park_timeout(IDLE_PARK);
                }
            }
        }
    }

    /// Pops the next reply, parking while the ring is empty.
    fn recv(&mut self) -> Option<WorkerReply> {
        loop {
            if let Some(reply) = self.rx.try_pop() {
                return Some(reply);
            }
            if self.is_dead() {
                return self.rx.try_pop();
            }
            std::thread::park_timeout(IDLE_PARK);
        }
    }

    /// Moves every output arena waiting on the reply ring into `into`;
    /// returns how many there were.
    fn drain_outputs(&mut self, into: &mut Vec<BatchOutput>) -> usize {
        let before = into.len();
        while let Some(reply) = self.rx.try_pop() {
            if let WorkerReply::Out(out) = reply {
                into.push(out);
            }
        }
        into.len() - before
    }
}

/// How long an idle thread sleeps before re-checking its rings — a
/// safety net against lost wakeups; real wakeups come from `unpark`.
const IDLE_PARK: std::time::Duration = std::time::Duration::from_millis(1);

/// The worker thread body: own the shard's switch, drain the ring. The
/// worker parks while idle and is unparked by the dispatcher when work
/// arrives; every reply unparks the dispatcher in turn, so neither side
/// burns the other's cycles busy-polling (which on a single core would
/// steal half the machine).
fn worker_main(
    mut switch: SwitchModel,
    control: PipeControl,
    mut rx: Consumer<WorkerMsg>,
    mut tx: Producer<WorkerReply>,
    dispatcher: DispatcherSlot,
) {
    let reply = |tx: &mut Producer<WorkerReply>, r: WorkerReply| {
        tx.push(r);
        dispatcher.lock().expect("dispatcher slot poisoned").unpark();
    };
    // Split-side scratch and the NF's bounce frame, reused across round
    // trips: only the merge-side arena crosses the ring, so their capacity
    // stays with the worker.
    let mut split_side = BatchOutput::new();
    let mut bounce: Vec<u8> = Vec::new();
    loop {
        let Some(msg) = rx.try_pop() else {
            std::thread::park_timeout(IDLE_PARK);
            continue;
        };
        match msg {
            WorkerMsg::Batch(pkts) => {
                let mut out = BatchOutput::new();
                switch.process_batch(&pkts, &mut out);
                reply(&mut tx, WorkerReply::Out(out));
            }
            WorkerMsg::Roundtrip { pkts, sink, mut arena } => {
                arena.clear();
                for pkt in &pkts {
                    split_side.clear();
                    switch.process_into(&pkt.bytes, pkt.port, pkt.seq, &mut split_side);
                    for out in split_side.iter() {
                        bounce.clear();
                        bounce.extend_from_slice(out.bytes);
                        bounce[0..6].copy_from_slice(&sink.0);
                        switch.process_into(&bounce, out.port, out.seq, &mut arena);
                    }
                }
                // Reply first: freeing a whole queue of foreign-thread
                // buffers must not sit between the last packet and the
                // dispatcher's wakeup.
                reply(&mut tx, WorkerReply::Out(arena));
                drop(pkts);
            }
            WorkerMsg::L2Add(mac, port) => switch.l2_add(mac, port),
            WorkerMsg::Query => {
                let state = WorkerReply::State {
                    counters: control.counters(&switch),
                    stats: switch.stats(),
                    occupancy: control.occupancy(&switch),
                };
                reply(&mut tx, state);
            }
            WorkerMsg::Shutdown => return,
        }
    }
}

/// The multi-worker Split/Merge execution engine.
pub struct Engine {
    plan: ShardPlan,
    cfg: EngineConfig,
    workers: Vec<WorkerHandle>,
    dispatcher: DispatcherSlot,
    pool: ArenaPool,
}

impl Engine {
    /// Points the workers' wakeups at the calling thread — every entry
    /// point that waits on replies does this first, so an `Engine` moved
    /// across threads keeps its unpark path alive.
    fn capture_dispatcher(&self) {
        let current = std::thread::current();
        let mut slot = self.dispatcher.lock().expect("dispatcher slot poisoned");
        if slot.id() != current.id() {
            *slot = current;
        }
    }
}

impl Engine {
    /// Builds an engine for `park`, sharded `cfg.workers` ways, and starts
    /// the worker threads. The threads live until the engine is dropped.
    pub fn new(park: &ParkConfig, cfg: EngineConfig) -> Result<Engine, BuildError> {
        if cfg.batch == 0 || cfg.ring_depth == 0 {
            return Err(BuildError::Config("batch and ring_depth must be positive".into()));
        }
        let plan = ShardPlan::new(park, cfg.workers).map_err(BuildError::Config)?;
        let dispatcher: DispatcherSlot = Arc::new(Mutex::new(std::thread::current()));
        let mut workers = Vec::with_capacity(plan.workers());
        for (w, shard_cfg) in plan.configs().iter().enumerate() {
            let (switch, handles) = build_switch(shard_cfg)?;
            let control = PipeControl::new(handles[0].clone());
            let (tx, in_rx) = spsc::ring::<WorkerMsg>(cfg.ring_depth);
            let (out_tx, rx) = spsc::ring::<WorkerReply>(cfg.ring_depth);
            let slot = Arc::clone(&dispatcher);
            let join = std::thread::Builder::new()
                .name(format!("pp-fastpath-{w}"))
                .spawn(move || worker_main(switch, control, in_rx, out_tx, slot))
                .expect("spawn fastpath worker");
            workers.push(WorkerHandle { tx, rx, join: Some(join) });
        }
        Ok(Engine { plan, cfg, workers, dispatcher, pool: ArenaPool::default() })
    }

    /// The shard plan in use.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Adds an L2 forwarding entry to every shard (all shards share the
    /// switch's forwarding view, as all slices of one pipe do).
    pub fn l2_add(&mut self, mac: MacAddr, port: PortId) {
        for w in &mut self.workers {
            w.send(WorkerMsg::L2Add(mac, port));
        }
    }

    /// Runs one wave of traffic through the engine.
    ///
    /// Packets are routed to shards by ingress port (packets on ports
    /// outside the plan take the pure L2 path and go to shard 0), cut into
    /// `batch`-sized messages, and processed concurrently. Within a shard,
    /// arrival order is preserved end to end.
    pub fn process(&mut self, inputs: Vec<BatchPacket>) -> EngineOutput {
        self.run(inputs, None)
    }

    /// Runs one wave through the full Split → NF → Merge round trip: each
    /// worker takes its shard's share of the wave whole and runs it to
    /// completion, packet by packet — Split, bounce off the slice's
    /// MAC-swap NF server (readdressed to `sink`), Merge — so the entire
    /// per-packet path executes shard-locally and in exactly the scalar
    /// round trip's order, whatever the table size. Returns the merge-side
    /// (sink-bound) outputs, one recycled arena per shard; dropping the
    /// output hands the arenas back for the next wave.
    pub fn process_roundtrip(&mut self, inputs: Vec<BatchPacket>, sink: MacAddr) -> EngineOutput {
        self.run(inputs, Some(sink))
    }

    fn run(&mut self, inputs: Vec<BatchPacket>, sink: Option<MacAddr>) -> EngineOutput {
        self.capture_dispatcher();

        // The round trip runs to completion: a shard's queue travels
        // whole, with a recycled arena to fill. Batch mode cuts it into
        // `batch`-packet messages, each answered in an arena of its own.
        let fused = sink.is_some();
        let size = if fused { usize::MAX } else { self.cfg.batch };
        let queues = partition(&self.plan, inputs, size);

        // Arenas go out in the order they came back (an output returns
        // them shard by shard), so in the steady state a worker refills
        // the arena it filled last wave — still in its own cache — not its
        // neighbour's.
        let busy = queues.iter().filter(|queue| !queue.is_empty()).count();
        let mut spare = if fused { self.take_arenas(busy) } else { Vec::new() }.into_iter();
        let mut pending: Vec<VecDeque<WorkerMsg>> = queues
            .into_iter()
            .map(|queue| {
                queue
                    .into_iter()
                    .map(|pkts| match sink {
                        None => WorkerMsg::Batch(pkts),
                        Some(sink) => {
                            let arena = spare.next().unwrap_or_default();
                            WorkerMsg::Roundtrip { pkts, sink, arena }
                        }
                    })
                    .collect()
            })
            .collect();

        // Dispatch and collect, interleaved so a full ring on either side
        // can always drain: work is offered with try_push and replies are
        // drained every round. Each message is owed exactly one reply;
        // the wave is over when none is owed.
        let mut owed: Vec<usize> = pending.iter().map(VecDeque::len).collect();
        let mut results: Vec<Vec<BatchOutput>> =
            owed.iter().map(|&replies| Vec::with_capacity(replies)).collect();
        while owed.iter().any(|&replies| replies > 0) {
            let mut progress = false;
            for (w, handle) in self.workers.iter_mut().enumerate() {
                if let Some(msg) = pending[w].pop_front() {
                    match handle.tx.try_push(msg) {
                        Ok(()) => {
                            handle.wake();
                            progress = true;
                        }
                        Err(back) => pending[w].push_front(back),
                    }
                }
                let replies = handle.drain_outputs(&mut results[w]);
                owed[w] -= replies;
                progress |= replies > 0;
            }
            if !progress {
                // A panicked worker can never reply; surface what it
                // managed to send instead of waiting forever (tests then
                // see the damage).
                for (w, handle) in self.workers.iter_mut().enumerate() {
                    if owed[w] > 0 && handle.is_dead() {
                        handle.drain_outputs(&mut results[w]);
                        owed[w] = 0;
                    }
                }
                // Sleep until a worker's reply unparks this thread: the
                // workers need the cores more than a polling dispatcher.
                std::thread::park_timeout(IDLE_PARK);
            }
        }

        EngineOutput { per_worker: results, pool: fused.then(|| Arc::clone(&self.pool)) }
    }

    /// Up to `n` recycled arenas for the wave about to run.
    fn take_arenas(&self, n: usize) -> Vec<BatchOutput> {
        let mut pool = self.pool.lock().expect("arena pool poisoned");
        let keep = pool.len().saturating_sub(n);
        pool.split_off(keep)
    }

    /// Arenas waiting in the pool.
    #[cfg(test)]
    fn pooled_arenas(&self) -> usize {
        self.pool.lock().expect("arena pool poisoned").len()
    }

    /// Control-plane snapshots from every worker, in worker order.
    fn query(&mut self) -> Vec<(CounterSnapshot, SwitchStats, usize)> {
        self.capture_dispatcher();
        let mut states = Vec::with_capacity(self.workers.len());
        for w in &mut self.workers {
            if !w.send(WorkerMsg::Query) {
                continue;
            }
            loop {
                match w.recv() {
                    Some(WorkerReply::State { counters, stats, occupancy }) => {
                        states.push((counters, stats, occupancy));
                        break;
                    }
                    Some(_) => continue, // stale wave replies cannot occur here, but be safe
                    None => break,
                }
            }
        }
        states
    }

    /// Aggregated PayloadPark counters across all shards.
    pub fn counters(&mut self) -> CounterSnapshot {
        let mut total = CounterSnapshot::default();
        for (c, _, _) in self.query() {
            total.add(&c);
        }
        total
    }

    /// Aggregated switch statistics across all shards.
    pub fn switch_stats(&mut self) -> SwitchStats {
        let mut total = SwitchStats::default();
        for (_, s, _) in self.query() {
            total.add(&s);
        }
        total
    }

    /// Occupied lookup-table slots across all shards.
    pub fn occupancy(&mut self) -> usize {
        self.query().iter().map(|(_, _, o)| o).sum()
    }

    /// One telemetry registry for the whole engine: each worker's state
    /// becomes a shard-labelled registry (plus that shard's inbound-ring
    /// depth high-water mark), merged with an unlabelled aggregate view —
    /// so the exposition carries both per-shard series and deployment
    /// totals. The engine injects no faults, so it exports no fault
    /// families.
    pub fn telemetry_registry(&mut self) -> pp_metrics::MetricsRegistry {
        let states = self.query();
        let quiet = FaultTally::default();
        let mut total = pp_metrics::MetricsRegistry::new();
        let mut agg_counters = CounterSnapshot::default();
        let mut agg_stats = SwitchStats::default();
        let mut agg_occupancy = 0;
        for (w, (counters, stats, occupancy)) in states.iter().enumerate() {
            let shard = w.to_string();
            let labels = [("shard", shard.as_str())];
            let mut reg =
                crate::telemetry::dataplane_registry(counters, stats, *occupancy, &quiet, &labels);
            let hw = reg.highwater(
                "pp_ring_depth_highwater",
                "Deepest observed in-flight depth of the shard's inbound SPSC ring.",
                &labels,
            );
            reg.observe_high(hw, self.workers[w].tx.high_water() as u64);
            total.merge_from(&reg);
            agg_counters.add(counters);
            agg_stats.add(stats);
            agg_occupancy += occupancy;
        }
        total.merge_from(&crate::telemetry::dataplane_registry(
            &agg_counters,
            &agg_stats,
            agg_occupancy,
            &quiet,
            &[],
        ));
        total
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        for w in &mut self.workers {
            w.send(WorkerMsg::Shutdown);
        }
        for w in &mut self.workers {
            if let Some(join) = w.join.take() {
                let _ = join.join();
            }
        }
    }
}

/// Shards `inputs` by the port→slice mapping (ports outside the plan go
/// to shard 0), straight into message-sized chunks: per shard, arrival
/// order kept and every chunk but the last exactly `size` packets. This
/// loop is the one part of a wave no worker can overlap.
fn partition(
    plan: &ShardPlan,
    inputs: Vec<BatchPacket>,
    size: usize,
) -> Vec<Vec<Vec<BatchPacket>>> {
    let share = inputs.len().div_ceil(plan.workers());
    let mut queues: Vec<Vec<Vec<BatchPacket>>> = vec![Vec::new(); plan.workers()];
    for pkt in inputs {
        let queue = &mut queues[plan.shard_of_port(pkt.port.0).unwrap_or(0)];
        match queue.last_mut() {
            Some(chunk) if chunk.len() < size => chunk.push(pkt),
            _ => {
                let mut chunk = Vec::with_capacity(size.min(share));
                chunk.push(pkt);
                queue.push(chunk);
            }
        }
    }
    queues
}

/// The egress side of one wave: each worker's arenas, kept as produced
/// (no merge copies on the hot path). A round-trip output holds one
/// recycled arena per shard and returns it to the engine's pool on drop —
/// storage is only ever reused once nothing can read it any more.
#[derive(Debug, Default)]
pub struct EngineOutput {
    per_worker: Vec<Vec<BatchOutput>>,
    /// Where the arenas go on drop; `None` for batched outputs, whose
    /// many small arenas no wave would reuse.
    pool: Option<ArenaPool>,
}

impl Drop for EngineOutput {
    fn drop(&mut self) {
        let Some(pool) = self.pool.take() else { return };
        // A poisoned pool just lets the arenas go.
        let Ok(mut pool) = pool.lock() else { return };
        let bound = POOLED_ARENAS_PER_SHARD * self.per_worker.len();
        for arena in self.per_worker.drain(..).flatten() {
            if pool.len() < bound {
                pool.push(arena);
            }
        }
    }
}

impl EngineOutput {
    /// Total packets egressed.
    pub fn packets(&self) -> usize {
        self.per_worker.iter().flatten().map(BatchOutput::len).sum()
    }

    /// Total wire bytes egressed.
    pub fn wire_bytes(&self) -> usize {
        self.per_worker.iter().flatten().map(BatchOutput::wire_bytes).sum()
    }

    /// Packets one worker egressed.
    pub fn worker_packets(&self, w: usize) -> usize {
        self.per_worker[w].iter().map(BatchOutput::len).sum()
    }

    /// Iterates one worker's outputs in that shard's arrival order.
    pub fn worker_iter(&self, w: usize) -> impl Iterator<Item = OutputRef<'_>> {
        self.per_worker[w].iter().flat_map(BatchOutput::iter)
    }

    /// Number of workers that contributed.
    pub fn workers(&self) -> usize {
        self.per_worker.len()
    }

    /// Iterates all outputs, worker by worker.
    pub fn iter(&self) -> impl Iterator<Item = OutputRef<'_>> {
        self.per_worker.iter().flatten().flat_map(BatchOutput::iter)
    }

    /// Borrowed views of all outputs, globally ordered by sequence number
    /// — the zero-copy way to walk a wave in deterministic order (the
    /// bytes stay in the workers' batch arenas).
    pub fn sorted_refs(&self) -> Vec<OutputRef<'_>> {
        let mut all: Vec<OutputRef<'_>> = self.iter().collect();
        all.sort_by_key(|o| o.seq);
        all
    }

    /// Copies all outputs out, globally ordered by sequence number — the
    /// deterministic order the equivalence oracle compares against the
    /// scalar pipeline's output. Clones every packet; hot paths should use
    /// [`EngineOutput::sorted_refs`].
    pub fn to_seq_sorted(&self) -> Vec<SwitchOutput> {
        self.sorted_refs().into_iter().map(|o| o.to_owned()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::reflect_outputs;
    use crate::conformance::{two_phase_adverse, PathResult};
    use crate::testbed::SlicedTestbed;
    use pp_netsim::adversity::AdversityProfile;
    use pp_packet::builder::UdpPacketBuilder;

    const TB: SlicedTestbed = SlicedTestbed { slices: 4, slots: 512 };

    /// Round-trips `inputs` (split, MAC-swap at the server, merge) through
    /// `tb`'s scalar switch, returning sink-side outputs and counters.
    fn scalar_roundtrip(
        tb: SlicedTestbed,
        inputs: &[BatchPacket],
    ) -> (Vec<SwitchOutput>, CounterSnapshot) {
        let (mut sw, control) = tb.build_scalar();
        let merged = tb.scalar_roundtrip(&mut sw, inputs);
        let counters = control.counters(&sw);
        (merged, counters)
    }

    fn engine_roundtrip(
        tb: SlicedTestbed,
        inputs: Vec<BatchPacket>,
        workers: usize,
        fused: bool,
    ) -> (Vec<SwitchOutput>, CounterSnapshot) {
        let mut engine =
            tb.build_engine(EngineConfig { workers, batch: 16, ring_depth: 4 }).unwrap();
        let merged = if fused {
            engine.process_roundtrip(inputs, tb.sink_mac())
        } else {
            let to_server = engine.process(inputs);
            let back = reflect_outputs(to_server.iter(), tb.sink_mac());
            engine.process(back)
        };
        (merged.to_seq_sorted(), engine.counters())
    }

    #[test]
    fn sharded_engine_matches_scalar_switch() {
        // 75 packets per slice, well below the 512 slots: no wrap, so the
        // interleaved scalar reference and both engine drive modes must
        // agree exactly.
        let inputs = TB.counted_enterprise_wave(42, 300);
        let (scalar_out, scalar_counters) = scalar_roundtrip(TB, &inputs);
        for workers in [1, 2, 4] {
            for fused in [false, true] {
                let (engine_out, engine_counters) =
                    engine_roundtrip(TB, inputs.clone(), workers, fused);
                assert_eq!(engine_out, scalar_out, "{workers} workers, fused={fused}");
                assert_eq!(engine_counters, scalar_counters, "{workers} workers, fused={fused}");
            }
        }
        assert!(scalar_counters.splits > 0, "workload must exercise parking");
    }

    #[test]
    fn roundtrip_matches_scalar_when_slices_are_smaller_than_a_batch() {
        // 75 packets per slice through 8 slots, and a 16-packet batch's
        // share of one slice exceeds the slice: a round trip that split a
        // whole batch before merging it would wrap onto live entries and
        // evict. Run to completion, every packet merges before the next
        // one splits, exactly as in the scalar loop.
        let tb = SlicedTestbed { slices: 4, slots: 8 };
        let inputs = tb.counted_enterprise_wave(42, 300);
        let (scalar_out, scalar_counters) = scalar_roundtrip(tb, &inputs);
        assert!(scalar_counters.splits > 32, "every table must wrap: {scalar_counters:?}");
        assert_eq!(scalar_counters.evictions, 0, "the scalar loop never overwrites");
        assert_eq!(scalar_out.len(), 300);
        for workers in [1, 2, 4] {
            let (engine_out, engine_counters) = engine_roundtrip(tb, inputs.clone(), workers, true);
            assert_eq!(engine_out, scalar_out, "{workers} workers");
            assert_eq!(engine_counters, scalar_counters, "{workers} workers");
        }
    }

    #[test]
    fn recycled_arenas_are_never_reachable_from_a_live_output() {
        let mut engine =
            TB.build_engine(EngineConfig { workers: 2, batch: 16, ring_depth: 4 }).unwrap();
        let bound = POOLED_ARENAS_PER_SHARD * 2;
        let wave_a = TB.counted_enterprise_wave(11, 300);
        let (expected_a, _) = scalar_roundtrip(TB, &wave_a);

        // Hold wave A's output while two more waves run.
        let a = engine.process_roundtrip(wave_a, TB.sink_mac());
        let b = engine.process_roundtrip(TB.counted_enterprise_wave(12, 300), TB.sink_mac());
        let c = engine.process_roundtrip(TB.counted_enterprise_wave(13, 300), TB.sink_mac());
        assert_eq!(engine.pooled_arenas(), 0, "all three outputs are live");
        assert_eq!(a.iter().count(), 300);
        assert_eq!(a.to_seq_sorted(), expected_a, "later waves must not touch a held output");

        // Dropping outputs fills the pool up to its bound and no further.
        drop(c);
        assert_eq!(engine.pooled_arenas(), 2);
        drop(a);
        drop(b);
        assert_eq!(engine.pooled_arenas(), bound, "the third pair of arenas is let go");

        // The next wave takes its arenas from the pool and hands them back.
        let d = engine.process_roundtrip(TB.counted_enterprise_wave(14, 300), TB.sink_mac());
        assert_eq!(engine.pooled_arenas(), bound - 2, "one arena per shard reused");
        assert_eq!(d.packets(), 300);
        drop(d);
        assert_eq!(engine.pooled_arenas(), bound);

        // Batched outputs are not pooled: their arenas are small and many.
        drop(engine.process(TB.counted_enterprise_wave(15, 300)));
        assert_eq!(engine.pooled_arenas(), bound);
    }

    #[test]
    fn engine_survives_many_waves() {
        let mut engine =
            TB.build_engine(EngineConfig { workers: 2, batch: 32, ring_depth: 2 }).unwrap();
        let mut emitted = 0;
        for wave in 0..10 {
            let out = engine.process_roundtrip(TB.counted_enterprise_wave(wave, 64), TB.sink_mac());
            emitted += out.packets();
            assert_eq!(out.workers(), 2, "wave {wave}");
        }
        assert_eq!(emitted, 640);
        assert_eq!(engine.switch_stats().emitted, 2 * 640, "split pass + merge pass");
    }

    #[test]
    fn telemetry_registry_aggregates_shards() {
        let mut engine =
            TB.build_engine(EngineConfig { workers: 2, batch: 16, ring_depth: 4 }).unwrap();
        let _ = engine.process_roundtrip(TB.counted_enterprise_wave(3, 120), TB.sink_mac());
        let counters = engine.counters();
        assert!(counters.splits > 0);
        let reg = engine.telemetry_registry();
        // The unlabelled aggregate equals the summed per-shard series.
        assert_eq!(reg.get("pp_splits_total", &[]).unwrap().value(), counters.splits as f64);
        let s0 = reg.get("pp_splits_total", &[("shard", "0")]).unwrap().value();
        let s1 = reg.get("pp_splits_total", &[("shard", "1")]).unwrap().value();
        assert_eq!(s0 + s1, counters.splits as f64);
        // Every shard pushed batches, so its ring saw at least one message.
        for shard in ["0", "1"] {
            let hw = reg.get("pp_ring_depth_highwater", &[("shard", shard)]).unwrap();
            assert!(hw.value() >= 1.0, "shard {shard}: {}", hw.value());
        }
    }

    #[test]
    fn unknown_port_takes_the_l2_path_on_shard_zero() {
        let mut engine =
            TB.build_engine(EngineConfig { workers: 2, ..Default::default() }).unwrap();
        let pkt = BatchPacket {
            bytes: UdpPacketBuilder::new()
                .dst_mac(TB.sink_mac())
                .total_size(400, 9)
                .build()
                .into_bytes(),
            port: PortId(12), // not in any slice
            seq: 0,
        };
        let out = engine.process(vec![pkt.clone()]);
        assert_eq!(out.packets(), 1);
        assert_eq!(out.worker_packets(0), 1, "routed to shard 0");
        assert_eq!(out.worker_iter(0).count(), 1);
        assert_eq!(out.iter().next().unwrap().bytes, &pkt.bytes[..], "L2 is byte-transparent");
        assert_eq!(engine.counters().splits, 0);
        assert_eq!(engine.switch_stats().emitted, 1);
        assert_eq!(engine.occupancy(), 0);
        assert_eq!(engine.workers(), 2);
        assert_eq!(engine.plan().workers(), 2);
    }

    #[test]
    fn engine_moved_across_threads_keeps_its_wakeups() {
        // The dispatcher slot must follow the driving thread, not the
        // thread that constructed the engine.
        let mut engine =
            TB.build_engine(EngineConfig { workers: 2, batch: 16, ring_depth: 4 }).unwrap();
        let (merged, counters) = std::thread::spawn(move || {
            let out = engine.process_roundtrip(TB.counted_enterprise_wave(5, 120), TB.sink_mac());
            (out.packets(), engine.counters())
        })
        .join()
        .unwrap();
        assert_eq!(merged, 120);
        assert!(counters.splits > 0);
    }

    /// The engine under the conformance drive: a seeded scenario replays
    /// byte-identically, and the seed selects the scenario.
    #[test]
    fn adverse_roundtrip_replays_byte_identically_from_its_seed() {
        use pp_netsim::adversity::LegProfile;
        let adv = AdversityProfile {
            seed: 42,
            to_nf: LegProfile::loss(0.05),
            from_nf: LegProfile {
                drop: 0.1,
                duplicate: 0.1,
                truncate: 0.1,
                reorder: 0.3,
                max_displacement: 8,
                ..Default::default()
            },
        };
        let run = |adv: &AdversityProfile| {
            let mut engine =
                TB.build_engine(EngineConfig { workers: 2, batch: 16, ring_depth: 4 }).unwrap();
            let wave = [TB.counted_enterprise_wave(7, 240)];
            PathResult::run("engine", &mut engine, &wave, TB.sink_mac(), adv)
        };
        let (a, b) = (run(&adv), run(&adv));
        assert_eq!(b.diff(&a), Ok(()), "same seed must replay byte-identically");
        assert!(a.tally.lost() > 0, "{:?}", a.tally);
        // The invariants hold even under loss + dup + truncation + reorder.
        a.check_oracle(false).unwrap();
        // A different seed is a different scenario.
        let c = run(&AdversityProfile { seed: 43, ..adv });
        assert_ne!(a.tally, c.tally, "seed must select the scenario");
    }

    #[test]
    fn disabled_adversity_is_the_plain_roundtrip() {
        let inputs = TB.counted_enterprise_wave(9, 120);
        let mut plain =
            TB.build_engine(EngineConfig { workers: 2, batch: 16, ring_depth: 4 }).unwrap();
        let expected = plain.process_roundtrip(inputs.clone(), TB.sink_mac()).to_seq_sorted();
        let mut two_phase =
            TB.build_engine(EngineConfig { workers: 2, batch: 16, ring_depth: 4 }).unwrap();
        let mut tally = FaultTally::default();
        let calm = AdversityProfile::disabled();
        let got = two_phase_adverse(&mut two_phase, &inputs, TB.sink_mac(), &calm, &mut tally);
        assert_eq!(got, expected);
        assert_eq!(tally, FaultTally::default());
    }

    #[test]
    fn partition_preserves_order_and_sizes() {
        let wave = TB.counted_enterprise_wave(1, 10);
        let one = ShardPlan::new(&TB.config(), 1).unwrap();
        let queues = partition(&one, wave.clone(), 4);
        let sizes: Vec<usize> = queues[0].iter().map(Vec::len).collect();
        assert_eq!(sizes, [4, 4, 2]);
        let flat: Vec<u64> = queues[0].iter().flatten().map(|p| p.seq).collect();
        assert_eq!(flat, (0..10).collect::<Vec<u64>>());

        // Sharded: each packet lands on its port's shard, in order, and a
        // whole-queue size yields one chunk per busy shard.
        let two = ShardPlan::new(&TB.config(), 2).unwrap();
        let queues = partition(&two, wave.clone(), usize::MAX);
        assert_eq!(queues.len(), 2);
        for (w, queue) in queues.iter().enumerate() {
            assert_eq!(queue.len(), 1, "shard {w}");
            assert!(queue[0].iter().all(|p| two.shard_of_port(p.port.0) == Some(w)));
            assert!(queue[0].windows(2).all(|p| p[0].seq < p[1].seq), "shard {w}");
        }
        assert_eq!(queues.iter().flatten().map(Vec::len).sum::<usize>(), wave.len());

        assert!(partition(&two, Vec::new(), 4).iter().all(Vec::is_empty));
    }

    #[test]
    fn batched_paths_cut_messages_to_the_configured_batch() {
        // `batch` is the unit of batched execution: one arena comes back
        // per message, so the arena count and sizes show what travelled.
        let mut engine =
            TB.build_engine(EngineConfig { workers: 1, batch: 16, ring_depth: 4 }).unwrap();
        let check = |out: &EngineOutput, what: &str| {
            let sizes: Vec<usize> = out.per_worker[0].iter().map(BatchOutput::len).collect();
            assert_eq!(sizes.len(), 100usize.div_ceil(16), "{what}: {sizes:?}");
            assert!(sizes.iter().all(|&s| s <= 16), "{what}: {sizes:?}");
        };
        let split = engine.process(TB.counted_enterprise_wave(2, 100));
        assert_eq!(split.packets(), 100);
        check(&split, "process");
        check(&engine.process(reflect_outputs(split.iter(), TB.sink_mac())), "merge phase");
        // The round trip ships the shard's queue whole.
        let whole = engine.process_roundtrip(TB.counted_enterprise_wave(4, 100), TB.sink_mac());
        assert_eq!(whole.per_worker[0].len(), 1);
        assert_eq!(whole.packets(), 100);
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(TB.build_engine(EngineConfig { workers: 5, ..Default::default() }).is_err());
        assert!(TB.build_engine(EngineConfig { batch: 0, ..Default::default() }).is_err());
        assert!(TB.build_engine(EngineConfig { ring_depth: 0, ..Default::default() }).is_err());
    }
}
