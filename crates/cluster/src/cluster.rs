//! The live cluster: store-backed switches, proxy-merge links,
//! blackouts and rebalancing.
//!
//! A [`Cluster`] instantiates one store-backed switch
//! ([`payloadpark::build_store_switch_with_bases`]) per plan owner. Each
//! switch's park table is a private [`FlowStore`] spanning the *full*
//! parent slot space, addressed at global coordinates — so a wire tag
//! issued by any switch is meaningful to every other switch, which is
//! what makes both proxy-merge and live migration possible.
//!
//! Three cluster-only behaviors sit on top of the per-switch dataplane:
//!
//! * **Proxy-merge.** NF servers are cabled to a switch
//!   ([`Cluster::attachment_of`]); after a rebalance the slice they
//!   serve may live elsewhere. A merge arrival at a non-owner switch is
//!   forwarded to the owner over a modeled inter-switch [`Link`]
//!   (serialization + propagation, utilization accounted), and dropped
//!   — flow left parked, oracle still balanced — when the owner is down
//!   or the link is blackened for that sequence window.
//! * **Blackout.** [`Cluster::set_down`] blackens a whole switch:
//!   packets addressed to it vanish at ingress, its parked flows stay
//!   occupied, and the cluster-wide oracle
//!   ([`payloadpark::oracle::check_cluster`]) must still balance while
//!   the surviving switches keep serving their slices.
//! * **Rebalance.** [`Cluster::join`] / [`Cluster::leave`] recompute the
//!   plan from the updated ring and migrate *only* the slices whose ring
//!   segment moved: parked flows are lifted out of the old owner's store
//!   ([`FlowStore::extract_range`]) and injected into the new owner's,
//!   tagger `ti`/`clk` sequences travel with their slice, and every
//!   rebuilt switch carries its counter and stats history forward so the
//!   global balance equation never tears.
//!
//! [`FlowStore`]: payloadpark::FlowStore
//! [`FlowStore::extract_range`]: payloadpark::FlowStore::extract_range

use crate::plan::ClusterPlan;
use crate::ring::{splitmix64, HashRing};
use payloadpark::counters::CounterSnapshot;
use payloadpark::flowstore::{lock, shared, CircularStore, SlabStore};
use payloadpark::oracle::{check_cluster, OracleReport};
use payloadpark::storeprog::{build_store_switch_with_bases, StoreControl};
use payloadpark::{BuildError, ParkConfig, SharedStore};
use pp_fastpath::conformance::Dataplane;
use pp_fastpath::telemetry::dataplane_registry;
use pp_metrics::registry::MetricsRegistry;
use pp_netsim::adversity::{FaultTally, SeqWindow};
use pp_netsim::link::Link;
use pp_netsim::time::{Bandwidth, SimDuration, SimTime};
use pp_packet::MacAddr;
use pp_rmt::switch::{BatchOutput, BatchPacket, SwitchModel, SwitchOutput, SwitchStats};
use pp_rmt::PortId;
use std::collections::BTreeMap;

/// Which park-table implementation backs each switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreKind {
    /// Dense register-file layout ([`CircularStore`]) — the faithful
    /// ASIC model, capacity bounded by the slot count.
    Circular,
    /// Sparse generational slab ([`SlabStore`]) — memory tracks live
    /// occupancy, scaling the same semantics to millions of flows.
    Slab,
    /// Slab with a spill tier: at most `hot_capacity` payloads stay in
    /// hot slab memory, older parked payloads demote to the spill slab
    /// and promote back transparently on re-park or restore.
    SlabSpill {
        /// Hot-tier payload capacity per switch.
        hot_capacity: usize,
    },
}

/// Cluster construction knobs.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Number of switches at build time (ids `0..switches`).
    pub switches: usize,
    /// Seed for the consistent-hash ring and proxy routing.
    pub seed: u64,
    /// Park-table implementation per switch.
    pub store: StoreKind,
    /// Inter-switch link bandwidth (Gbit/s).
    pub link_gbps: f64,
    /// Inter-switch link propagation delay.
    pub link_propagation: SimDuration,
}

impl ClusterConfig {
    /// Slab-backed cluster of `switches` switches on 100 Gbit/s,
    /// 1 µs inter-switch links.
    pub fn slab(switches: usize) -> ClusterConfig {
        ClusterConfig {
            switches,
            seed: 42,
            store: StoreKind::Slab,
            link_gbps: 100.0,
            link_propagation: SimDuration::from_micros(1),
        }
    }

    /// Same topology, circular-buffer stores — the configuration the
    /// equivalence tests compare against the register program.
    pub fn circular(switches: usize) -> ClusterConfig {
        ClusterConfig { store: StoreKind::Circular, ..ClusterConfig::slab(switches) }
    }
}

/// Cluster-level event counters (per-switch dataplane counters live in
/// each switch; these count what only the cluster can see).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterCounters {
    /// Merge arrivals forwarded to their owner over an inter-switch link.
    pub proxy_merges: u64,
    /// Proxied arrivals lost: owner down or link blackened.
    pub proxy_drops: u64,
    /// Packets addressed to a blacked-out switch, dropped at ingress.
    pub blackout_drops: u64,
    /// Rebalance operations (joins + leaves).
    pub rebalances: u64,
    /// Live parked flows migrated between stores by rebalances.
    pub rebalance_moved_flows: u64,
    /// Bytes carried by inter-switch links.
    pub link_bytes: u64,
}

struct Node {
    switch: SwitchModel,
    control: StoreControl,
    store: SharedStore,
    /// Counter/stats history from before the last pipeline rebuild —
    /// rebuilds reset the live pipeline, the bases keep totals monotonic.
    counter_base: CounterSnapshot,
    stats_base: SwitchStats,
    down: bool,
}

/// An undirected inter-switch link key.
fn link_key(a: u32, b: u32) -> (u32, u32) {
    (a.min(b), a.max(b))
}

/// A multi-switch PayloadPark deployment.
pub struct Cluster {
    parent: ParkConfig,
    plan: ClusterPlan,
    cfg: ClusterConfig,
    nodes: BTreeMap<u32, Node>,
    links: BTreeMap<(u32, u32), Link>,
    link_blackouts: BTreeMap<(u32, u32), Vec<SeqWindow>>,
    /// Merge port → switch its NF server is cabled to. Set to the owner
    /// at build time; rebalances do *not* move cables, which is what
    /// makes proxy-merge happen.
    attachment: BTreeMap<u16, u32>,
    l2: Vec<(MacAddr, PortId)>,
    counters: ClusterCounters,
    /// Counters/stats of switches that left the cluster — they stay in
    /// the global balance forever.
    retired_counters: CounterSnapshot,
    retired_stats: SwitchStats,
    now: SimTime,
    next_id: u32,
    /// Per-thousand of merge arrivals diverted to a pseudo-random live
    /// switch instead of their cable attachment (models stale routing).
    proxy_spray_permille: u16,
    /// Where every switch deparses, one packet at a time: the wave loops
    /// copy each egress out of it once, into the `Vec` they return.
    scratch: BatchOutput,
}

impl Cluster {
    /// Builds a cluster running `parent` across `cfg.switches` switches.
    pub fn new(parent: &ParkConfig, cfg: ClusterConfig) -> Result<Cluster, BuildError> {
        let plan = ClusterPlan::new(parent, cfg.switches, cfg.seed).map_err(BuildError::Config)?;
        let mut cluster = Cluster {
            parent: parent.clone(),
            plan: plan.clone(),
            cfg,
            nodes: BTreeMap::new(),
            links: BTreeMap::new(),
            link_blackouts: BTreeMap::new(),
            attachment: BTreeMap::new(),
            l2: Vec::new(),
            counters: ClusterCounters::default(),
            retired_counters: CounterSnapshot::default(),
            retired_stats: SwitchStats::default(),
            now: SimTime(0),
            next_id: cfg.switches as u32,
            proxy_spray_permille: 0,
            scratch: BatchOutput::new(),
        };
        for &id in plan.switches() {
            let node = cluster.build_node(&plan, id, cluster.make_store(), Default::default())?;
            cluster.nodes.insert(id, node);
        }
        for (port, owner) in plan.port_owners() {
            cluster.attachment.insert(port, owner);
        }
        cluster.rebuild_links();
        Ok(cluster)
    }

    fn make_store(&self) -> SharedStore {
        let slots = self.parent.pipes[0].total_slots();
        let blocks = self.parent.primary_blocks;
        match self.cfg.store {
            StoreKind::Circular => shared(CircularStore::new(slots, blocks)),
            StoreKind::Slab => shared(SlabStore::new(slots, blocks)),
            StoreKind::SlabSpill { hot_capacity } => {
                shared(SlabStore::with_spill(slots, blocks, hot_capacity))
            }
        }
    }

    fn build_node(
        &self,
        plan: &ClusterPlan,
        id: u32,
        store: SharedStore,
        history: (CounterSnapshot, SwitchStats),
    ) -> Result<Node, BuildError> {
        let cfg = plan
            .config(id)
            .ok_or_else(|| BuildError::Config(format!("switch {id} owns no slices")))?;
        let bases = plan.bases(id).expect("config implies bases");
        let (mut switch, control) = build_store_switch_with_bases(cfg, bases, store.clone())?;
        for &(mac, port) in &self.l2 {
            switch.l2_add(mac, port);
        }
        Ok(Node {
            switch,
            control,
            store,
            counter_base: history.0,
            stats_base: history.1,
            down: false,
        })
    }

    fn rebuild_links(&mut self) {
        let ids: Vec<u32> = self.nodes.keys().copied().collect();
        let mut links = BTreeMap::new();
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                let key = link_key(a, b);
                let link = self.links.remove(&key).unwrap_or_else(|| {
                    Link::new(Bandwidth::gbps(self.cfg.link_gbps), self.cfg.link_propagation)
                });
                links.insert(key, link);
            }
        }
        self.links = links;
        self.link_blackouts.retain(|key, _| self.links.contains_key(key));
    }

    /// The current placement.
    pub fn plan(&self) -> &ClusterPlan {
        &self.plan
    }

    /// Cluster-level event counters.
    pub fn counters(&self) -> &ClusterCounters {
        &self.counters
    }

    /// Live switch ids (owners with a running pipeline), ascending.
    pub fn switch_ids(&self) -> Vec<u32> {
        self.nodes.keys().copied().collect()
    }

    /// Installs an L2 route on every switch, present and future.
    pub fn l2_add(&mut self, mac: MacAddr, port: PortId) {
        self.l2.push((mac, port));
        for node in self.nodes.values_mut() {
            node.switch.l2_add(mac, port);
        }
    }

    /// Blackens or restores a whole switch. Unknown ids are ignored.
    pub fn set_down(&mut self, id: u32, down: bool) {
        if let Some(node) = self.nodes.get_mut(&id) {
            node.down = down;
        }
    }

    /// Whether switch `id` is currently blacked out.
    pub fn is_down(&self, id: u32) -> bool {
        self.nodes.get(&id).is_some_and(|n| n.down)
    }

    /// Blackens the `a`↔`b` link for a window of packet sequence numbers:
    /// proxied merges inside the window are lost in transit.
    pub fn blacken_link(&mut self, a: u32, b: u32, window: SeqWindow) {
        self.link_blackouts.entry(link_key(a, b)).or_default().push(window);
    }

    /// The switch a merge port's NF server is cabled to.
    pub fn attachment_of(&self, port: u16) -> Option<u32> {
        self.attachment.get(&port).copied()
    }

    /// Re-cables a port's NF server to another switch.
    pub fn reattach(&mut self, port: u16, switch: u32) {
        self.attachment.insert(port, switch);
    }

    /// Diverts `permille`/1000 of merge arrivals to a pseudo-random live
    /// switch instead of their cable attachment — a deterministic model
    /// of stale routing that exercises proxy-merge without a rebalance.
    pub fn set_proxy_spray(&mut self, permille: u16) {
        self.proxy_spray_permille = permille.min(1000);
    }

    /// Processes a wave of ingress packets (the split phase): each packet
    /// enters at the switch owning its port. Packets addressed to a
    /// blacked-out switch are dropped at ingress; packets on ports no
    /// switch owns are dropped silently (no route exists anywhere).
    pub fn process_wave(&mut self, inputs: &[BatchPacket]) -> Vec<BatchPacket> {
        let mut outs = Vec::with_capacity(inputs.len());
        for pkt in inputs {
            let Some(owner) = self.plan.switch_of_port(pkt.port.0) else {
                continue;
            };
            let Some(node) = self.nodes.get_mut(&owner) else {
                continue;
            };
            if node.down {
                self.counters.blackout_drops += 1;
                continue;
            }
            self.scratch.clear();
            node.switch.process_into(&pkt.bytes, pkt.port, pkt.seq, &mut self.scratch);
            outs.extend(self.scratch.iter().map(|o| BatchPacket::from(o.to_owned())));
        }
        outs
    }

    /// Processes a wave of NF-return packets (the merge phase). Each
    /// packet physically arrives at the switch its port's server is
    /// cabled to; if that switch no longer owns the slice, the packet is
    /// proxy-forwarded to the owner over the inter-switch link.
    pub fn process_return_wave(&mut self, wave: Vec<BatchPacket>) -> Vec<SwitchOutput> {
        let mut merged = Vec::with_capacity(wave.len());
        for pkt in wave {
            let Some(owner) = self.plan.switch_of_port(pkt.port.0) else {
                continue;
            };
            let via = self.arrival_switch(pkt.port.0, pkt.seq, owner);
            if self.nodes.get(&via).is_none_or(|n| n.down) {
                // The packet hit a dead (or departed) switch's front panel.
                self.counters.blackout_drops += 1;
                continue;
            }
            if via != owner && !self.proxy_forward(via, owner, &pkt) {
                continue;
            }
            let node = self.nodes.get_mut(&owner).expect("owner checked in proxy_forward");
            self.scratch.clear();
            node.switch.process_into(&pkt.bytes, pkt.port, pkt.seq, &mut self.scratch);
            merged.extend(self.scratch.iter().map(|o| o.to_owned()));
        }
        merged
    }

    /// Where a return packet lands: its cable attachment, unless the
    /// spray knob diverts it to a seeded pseudo-random live switch.
    fn arrival_switch(&self, port: u16, seq: u64, owner: u32) -> u32 {
        let via = self.attachment.get(&port).copied().unwrap_or(owner);
        if self.proxy_spray_permille == 0 {
            return via;
        }
        let roll = splitmix64(self.cfg.seed ^ splitmix64(seq).rotate_left(17));
        if roll % 1000 < u64::from(self.proxy_spray_permille) {
            let nth = (splitmix64(roll) % self.nodes.len() as u64) as usize;
            *self.nodes.keys().nth(nth).expect("nth < len")
        } else {
            via
        }
    }

    /// Carries one merge arrival from `via` to `owner`. Returns false
    /// when the packet is lost (owner down, or link blackened for this
    /// sequence); the flow stays parked and the books stay balanced.
    fn proxy_forward(&mut self, via: u32, owner: u32, pkt: &BatchPacket) -> bool {
        if self.nodes.get(&owner).is_none_or(|n| n.down) {
            self.counters.proxy_drops += 1;
            return false;
        }
        let key = link_key(via, owner);
        if self.link_blackouts.get(&key).is_some_and(|ws| ws.iter().any(|w| w.contains(pkt.seq))) {
            self.counters.proxy_drops += 1;
            return false;
        }
        let link = self.links.get_mut(&key).expect("live nodes are fully meshed");
        self.now = link.transmit(self.now, pkt.bytes.len());
        self.counters.proxy_merges += 1;
        self.counters.link_bytes += pkt.bytes.len() as u64;
        true
    }

    /// Adds a fresh switch to the ring and migrates the slices its
    /// arrival claims. Returns the new switch's id.
    pub fn join(&mut self) -> Result<u32, BuildError> {
        let id = self.next_id;
        let mut ring = self.plan.ring().clone();
        ring.insert(id);
        self.rebalance(ring)?;
        self.next_id += 1;
        Ok(id)
    }

    /// Removes a switch from the ring, migrating its slices (and their
    /// parked flows) to the survivors. Its counters are retired into the
    /// cluster-wide balance; its servers are re-cabled to the new owners.
    pub fn leave(&mut self, id: u32) -> Result<(), BuildError> {
        let mut ring = self.plan.ring().clone();
        if !ring.contains(id) {
            return Err(BuildError::Config(format!("switch {id} is not a cluster member")));
        }
        if ring.len() == 1 {
            return Err(BuildError::Config("cannot remove the last switch".into()));
        }
        ring.remove(id);
        self.rebalance(ring)
    }

    /// Recomputes the plan from `ring` and migrates exactly the slices
    /// whose owner changed: parked flows move store-to-store, tagger
    /// sequences travel with their slice, rebuilt switches keep their
    /// counter history, departed switches retire into the global books.
    fn rebalance(&mut self, ring: HashRing) -> Result<(), BuildError> {
        let new_plan = ClusterPlan::with_ring(&self.parent, ring).map_err(BuildError::Config)?;

        // 1. Tagger state per parent slice, from every live switch — a
        // rebuild wipes registers, so even unmoved slices need this.
        let mut tagger: BTreeMap<usize, (u32, u32)> = BTreeMap::new();
        for (&id, node) in &self.nodes {
            let state = node.control.tagger_state(&node.switch);
            for (pos, &i) in self.plan.slice_indices(id).unwrap_or(&[]).iter().enumerate() {
                tagger.insert(i, state[pos]);
            }
        }

        // 2. Lift live flows out of every slice that changed owner.
        let mut moved: Vec<(u32, Vec<payloadpark::flowstore::ParkedFlow>)> = Vec::new();
        let mut moved_flows = 0u64;
        for i in self.plan.moved_slices(&new_plan) {
            let Some(node) = self.nodes.get(&self.plan.slice_owner(i)) else {
                continue;
            };
            let base = self.plan.slice_base(i) as usize;
            let flows = lock(&node.store).extract_range(base..base + self.plan.slice_slots(i));
            moved_flows += flows.iter().filter(|f| f.exp > 0).count() as u64;
            if !flows.is_empty() {
                moved.push((new_plan.slice_owner(i), flows));
            }
        }

        // 3. Rebuild every owner of the new plan, reusing its store and
        // accumulating its counter/stats history across the rebuild.
        let mut old_nodes = std::mem::take(&mut self.nodes);
        for &id in new_plan.switches() {
            let (store, history, down) = match old_nodes.remove(&id) {
                Some(node) => {
                    let mut counters = node.counter_base;
                    counters.add(&node.control.counters(&node.switch));
                    let mut stats = node.stats_base;
                    stats.add(&node.switch.stats());
                    (node.store, (counters, stats), node.down)
                }
                None => (self.make_store(), Default::default(), false),
            };
            let mut node = self.build_node(&new_plan, id, store, history)?;
            node.down = down;
            self.nodes.insert(id, node);
        }

        // 4. Retire switches that no longer own anything: their history
        // stays in the global balance forever.
        for node in old_nodes.into_values() {
            self.retired_counters.add(&node.counter_base);
            self.retired_counters.add(&node.control.counters(&node.switch));
            self.retired_stats.add(&node.stats_base);
            self.retired_stats.add(&node.switch.stats());
        }

        // 5. Land the migrated flows in their new owners' stores.
        for (owner, flows) in moved {
            let node = self.nodes.get(&owner).expect("new owner was just built");
            lock(&node.store).inject(flows);
        }

        // 6. Restore tagger sequences wherever each slice ended up.
        for (&id, node) in &mut self.nodes {
            for (pos, &i) in new_plan.slice_indices(id).unwrap_or(&[]).iter().enumerate() {
                if let Some(&(ti, clk)) = tagger.get(&i) {
                    node.control.set_tagger_state(&mut node.switch, pos, ti, clk);
                }
            }
        }

        // 7. Re-cable servers whose switch departed; refresh the mesh.
        for (&port, via) in self.attachment.iter_mut() {
            if !self.nodes.contains_key(via) {
                if let Some(owner) = new_plan.switch_of_port(port) {
                    *via = owner;
                }
            }
        }
        self.rebuild_links();
        self.counters.rebalances += 1;
        self.counters.rebalance_moved_flows += moved_flows;
        self.plan = new_plan;
        Ok(())
    }

    /// Switch `id`'s dataplane counters, rebuilds included.
    pub fn switch_counters(&self, id: u32) -> Option<CounterSnapshot> {
        self.nodes.get(&id).map(|node| {
            let mut c = node.counter_base;
            c.add(&node.control.counters(&node.switch));
            c
        })
    }

    /// Switch `id`'s occupied park-table slots.
    pub fn switch_occupancy(&self, id: u32) -> Option<usize> {
        self.nodes.get(&id).map(|node| node.control.occupancy())
    }

    /// Dataplane counters summed across every switch that ever served,
    /// departed ones included.
    pub fn cluster_counters(&self) -> CounterSnapshot {
        let mut total = self.retired_counters;
        for id in self.nodes.keys() {
            total.add(&self.switch_counters(*id).expect("live node"));
        }
        total
    }

    /// Occupied slots across the cluster.
    pub fn occupancy(&self) -> usize {
        self.nodes.values().map(|n| n.control.occupancy()).sum()
    }

    /// Payloads demoted to spill tiers across the cluster.
    pub fn spilled(&self) -> usize {
        self.nodes.values().map(|n| n.control.spilled()).sum()
    }

    /// Switch statistics summed across the cluster, departed included.
    pub fn cluster_stats(&self) -> SwitchStats {
        let mut total = self.retired_stats;
        for node in self.nodes.values() {
            total.add(&node.stats_base);
            total.add(&node.switch.stats());
        }
        total
    }

    /// The cluster-wide conformance check: the global balance equation
    /// over every switch (departed ones carry their counters at zero
    /// occupancy). See [`payloadpark::oracle::check_cluster`].
    pub fn check_oracle(&self) -> OracleReport {
        let mut rows: Vec<(CounterSnapshot, usize)> = self
            .nodes
            .keys()
            .map(|&id| {
                (self.switch_counters(id).expect("live node"), self.switch_occupancy(id).unwrap())
            })
            .collect();
        rows.push((self.retired_counters, 0));
        check_cluster(rows.iter().map(|(c, occ)| (c, *occ)))
    }

    /// The cluster's metrics registry: every dataplane family once per
    /// switch under a `switch` label, once unlabelled as the cluster
    /// aggregate (departed history included), plus the cluster-only
    /// families (`pp_cluster_*`). `tally` is the adversity fault tally
    /// of the run, attributed to the aggregate (faults happen on the NF
    /// legs, not inside one switch).
    pub fn telemetry_registry(&self, tally: &FaultTally) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        let quiet = FaultTally::default();
        for (&id, node) in &self.nodes {
            let label = id.to_string();
            let mut stats = node.stats_base;
            stats.add(&node.switch.stats());
            reg.merge_from(&dataplane_registry(
                &self.switch_counters(id).expect("live node"),
                &stats,
                node.control.occupancy(),
                &quiet,
                &[("switch", label.as_str())],
            ));
        }
        reg.merge_from(&dataplane_registry(
            &self.cluster_counters(),
            &self.cluster_stats(),
            self.occupancy(),
            tally,
            &[],
        ));

        let live = self.nodes.values().filter(|n| !n.down).count();
        let g = reg.gauge("pp_cluster_switches", "Switches serving at least one slice.", &[]);
        reg.set(g, self.nodes.len() as f64);
        let g = reg.gauge("pp_cluster_switches_up", "Serving switches not blacked out.", &[]);
        reg.set(g, live as f64);
        for (name, help, value) in [
            (
                "pp_cluster_proxy_merges",
                "Merge arrivals forwarded to their owner over an inter-switch link.",
                self.counters.proxy_merges,
            ),
            (
                "pp_cluster_proxy_drops",
                "Proxied merge arrivals lost to a down owner or blackened link.",
                self.counters.proxy_drops,
            ),
            (
                "pp_cluster_blackout_drops",
                "Packets dropped at the ingress of a blacked-out switch.",
                self.counters.blackout_drops,
            ),
            ("pp_cluster_rebalances", "Rebalance operations performed.", self.counters.rebalances),
            (
                "pp_cluster_rebalance_moved_flows",
                "Live parked flows migrated between switches by rebalances.",
                self.counters.rebalance_moved_flows,
            ),
            (
                "pp_cluster_link_bytes",
                "Bytes carried by inter-switch proxy links.",
                self.counters.link_bytes,
            ),
        ] {
            let id = reg.counter(name, help, &[]);
            reg.set_counter(id, value);
        }
        reg
    }

    /// Aggregate utilization of the inter-switch mesh at the cluster's
    /// link clock, for the experiment report.
    pub fn mesh_utilization(&self) -> f64 {
        if self.links.is_empty() {
            return 0.0;
        }
        self.links.values().map(|l| l.utilization(self.now)).sum::<f64>() / self.links.len() as f64
    }
}

/// The cluster under the conformance drive: splits routed per the plan,
/// merges landing wherever their cables put them. On a one-switch
/// cluster this is step for step the scalar reference.
impl Dataplane for Cluster {
    fn split(&mut self, wave: &[BatchPacket]) -> Vec<BatchPacket> {
        self.process_wave(wave)
    }

    fn merge(&mut self, wave: Vec<BatchPacket>) -> Vec<SwitchOutput> {
        self.process_return_wave(wave)
    }

    fn counters(&mut self) -> CounterSnapshot {
        self.cluster_counters()
    }

    fn stats(&mut self) -> SwitchStats {
        self.cluster_stats()
    }

    fn occupancy(&mut self) -> usize {
        Cluster::occupancy(self)
    }
}
