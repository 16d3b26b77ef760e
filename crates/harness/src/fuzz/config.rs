//! Seed-derived fuzz cases: one `u64` describes a whole deployment.
//!
//! [`FuzzConfig::generate`] expands a case seed into every axis the
//! differential driver varies — deployment geometry (slices, slots,
//! expiry), the park-table implementation, an optional cluster with a
//! join/leave/down schedule, the DES-leg NF chain, a seeded adversity
//! profile and the traffic shape. The expansion is a pure function of
//! the seed (via [`DetRng::derive`]), so a failing case replays from its
//! seed alone; the shrinker then mutates the expanded config directly,
//! which is why the config also round-trips through JSON **exactly**
//! (integers only, [`payloadpark::jsonio`] raw tokens — a repro file is
//! byte-stable across parse → render).
//!
//! Some generated configs are deliberately invalid (oversized slot
//! counts that blow the pipe's SRAM budget): the driver's static
//! pre-screen must reject those without executing them, and the fuzzer
//! counts them as skips — that path is itself under test.

use payloadpark::jsonio::{self, obj, Value};
use payloadpark::{AdaptiveConfig, ParkConfig};
use pp_fastpath::SlicedTestbed;
use pp_netsim::adversity::{AdversityProfile, LegProfile, SeqWindow};
use pp_netsim::rng::DetRng;

/// Smallest per-wave packet count the generator (and shrinker) will go
/// to: enough traffic that a parking deployment actually parks.
pub const MIN_PACKETS: usize = 8;

/// Which `FlowStore` implementation backs the store-program path (and
/// the cluster switches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreChoice {
    /// Dense register-file circular buffers.
    Circular,
    /// Sparse generational slab.
    Slab,
    /// Slab with a bounded hot tier; older parked payloads demote to
    /// the spill slab.
    SlabSpill {
        /// Hot-tier payload capacity.
        hot_capacity: usize,
    },
}

/// NF chain selection for the discrete-event leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NfChoice {
    MacSwap,
    Firewall,
    Nat,
    FwNat,
    FwNatLb,
}

/// One membership/health event applied between waves on the cluster leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterEvent {
    /// A fresh switch joins the ring (slices migrate to it).
    Join,
    /// The highest-id switch leaves (its slices and parked flows migrate
    /// to the survivors). Skipped when only one switch remains.
    Leave,
    /// The lowest-id live switch goes dark (merge arrivals for it are
    /// charged at its front panel).
    Down,
}

/// Cluster-leg knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterFuzz {
    /// Switches at build time (ids `0..switches`).
    pub switches: usize,
    /// Consistent-hash ring seed.
    pub seed: u64,
    /// Events applied one per wave boundary, in order.
    pub schedule: Vec<ClusterEvent>,
}

/// Seeded adversity knobs, all integral so the config JSON-round-trips
/// exactly (the profile converts per-mille to probabilities).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdversityKnobs {
    /// Scenario seed for every per-packet fault decision.
    pub seed: u64,
    /// Loss on the switch → NF leg, per mille.
    pub to_nf_drop_permille: u16,
    /// Loss on the NF → switch leg, per mille.
    pub drop_permille: u16,
    /// Duplication on the return leg, per mille.
    pub duplicate_permille: u16,
    /// Tail truncation on the return leg, per mille.
    pub truncate_permille: u16,
    /// Single-bit corruption on the return leg, per mille.
    pub corrupt_permille: u16,
    /// Reordering on the return leg, per mille.
    pub reorder_permille: u16,
    /// Largest displacement `reorder` may apply.
    pub max_displacement: u64,
    /// Optional scripted blackout window `[from, to)` of generator
    /// sequence numbers, dropped on the return leg.
    pub blackout: Option<(u64, u64)>,
}

/// Adaptive-evictor knobs (the driver cross-checks the implementation
/// against a pure model under these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyKnobs {
    /// Upper clamp for the threshold walk.
    pub max_expiry: u16,
    /// Premature evictions tolerated per interval before raising.
    pub premature_tolerance: u64,
    /// Occupied-refusals tolerated per interval before lowering.
    pub occupied_tolerance: u64,
}

/// Discrete-event-leg knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DesKnobs {
    /// Traffic window in microseconds.
    pub duration_us: u64,
    /// Lookup-table SRAM fraction, per mille.
    pub sram_permille: u16,
    /// NF framework sends Explicit-Drop notifications.
    pub explicit_drop: bool,
}

/// Everything one fuzz case varies. See the module docs for how a case
/// is produced and consumed.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzConfig {
    /// The case seed this config was generated from (provenance only;
    /// the shrinker mutates the other fields and keeps the seed).
    pub seed: u64,
    /// Memory slices (= NF servers); engine workers must divide this.
    pub slices: usize,
    /// Lookup-table slots per slice.
    pub slots: usize,
    /// Expiry threshold (`MAX_EXP`).
    pub expiry: u16,
    /// Park-table implementation for the store-program path.
    pub store: StoreChoice,
    /// TCP share of the generated flows, per mille.
    pub tcp_permille: u16,
    /// Split → adverse legs → Merge waves per case.
    pub waves: usize,
    /// Packets per wave.
    pub packets: usize,
    /// Traffic generator seed.
    pub wave_seed: u64,
    /// Seeded misfortune on the internal legs.
    pub adversity: AdversityKnobs,
    /// Adaptive-evictor model parameters.
    pub policy: PolicyKnobs,
    /// Optional cluster leg.
    pub cluster: Option<ClusterFuzz>,
    /// NF chain on the discrete-event leg.
    pub nf: NfChoice,
    /// Discrete-event leg parameters.
    pub des: DesKnobs,
}

fn permille(p: u16) -> f64 {
    f64::from(p) / 1000.0
}

impl FuzzConfig {
    /// Expands `seed` into a full case (pure function of the seed).
    pub fn generate(seed: u64) -> FuzzConfig {
        let mut rng = DetRng::derive(seed, "pp-fuzz/config");
        let slices = if rng.chance(0.5) { 4 } else { 8 };
        // Mostly runnable table sizes; the last bucket blows the pipe's
        // SRAM budget so the static pre-screen must reject it.
        let slots = match rng.gen_range(0, 8) {
            0 => 8,
            1 => 16,
            2 => 24,
            3 => 48,
            4 => 96,
            5 => 256,
            6 => 512,
            _ => 8192,
        };
        let expiry = rng.gen_range(1, 11) as u16;
        let store = match rng.gen_range(0, 3) {
            0 => StoreChoice::Circular,
            1 => StoreChoice::Slab,
            _ => StoreChoice::SlabSpill { hot_capacity: 4 + rng.gen_range(0, 29) as usize },
        };
        let tcp_permille = rng.gen_range(0, 1001) as u16;
        let waves = 1 + rng.gen_range(0, 3) as usize;
        let packets = MIN_PACKETS + rng.gen_range(0, 193) as usize;
        let wave_seed = rng.next_u64();

        let adversity = AdversityKnobs {
            seed: rng.next_u64(),
            to_nf_drop_permille: if rng.chance(0.3) { rng.gen_range(1, 81) as u16 } else { 0 },
            drop_permille: if rng.chance(0.5) { rng.gen_range(1, 151) as u16 } else { 0 },
            duplicate_permille: if rng.chance(0.4) { rng.gen_range(1, 151) as u16 } else { 0 },
            truncate_permille: if rng.chance(0.3) { rng.gen_range(1, 151) as u16 } else { 0 },
            corrupt_permille: if rng.chance(0.25) { rng.gen_range(1, 201) as u16 } else { 0 },
            reorder_permille: if rng.chance(0.5) { rng.gen_range(1, 401) as u16 } else { 0 },
            max_displacement: 8 + rng.gen_range(0, 41),
            blackout: if rng.chance(0.25) {
                let total = (waves * packets) as u64;
                let from = rng.gen_range(0, total.max(2) - 1);
                let to = from + 1 + rng.gen_range(0, (total - from).max(2) - 1).min(80);
                Some((from, to))
            } else {
                None
            },
        };

        let policy = PolicyKnobs {
            max_expiry: rng.gen_range(2, 11) as u16,
            premature_tolerance: rng.gen_range(0, 5),
            occupied_tolerance: rng.gen_range(0, 129),
        };

        let cluster = if rng.chance(0.35) {
            let switches = 2 + rng.gen_range(0, 3) as usize;
            let cseed = rng.gen_range(0, 64);
            let events = if waves > 1 { rng.gen_range(0, 3) as usize } else { 0 };
            let schedule = (0..events)
                .map(|_| match rng.gen_range(0, 3) {
                    0 => ClusterEvent::Join,
                    1 => ClusterEvent::Leave,
                    _ => ClusterEvent::Down,
                })
                .collect();
            Some(ClusterFuzz { switches, seed: cseed, schedule })
        } else {
            None
        };

        let nf = match rng.gen_range(0, 5) {
            0 => NfChoice::MacSwap,
            1 => NfChoice::Firewall,
            2 => NfChoice::Nat,
            3 => NfChoice::FwNat,
            _ => NfChoice::FwNatLb,
        };

        let des = DesKnobs {
            duration_us: 400 + rng.gen_range(0, 1201),
            sram_permille: 40 + rng.gen_range(0, 261) as u16,
            explicit_drop: rng.chance(0.3),
        };

        FuzzConfig {
            seed,
            slices,
            slots,
            expiry,
            store,
            tcp_permille,
            waves,
            packets,
            wave_seed,
            adversity,
            policy,
            cluster,
            nf,
            des,
        }
    }

    /// The sliced testbed geometry this case deploys.
    pub fn testbed(&self) -> SlicedTestbed {
        SlicedTestbed::new(self.slices, self.slots)
    }

    /// The deployment configuration (testbed geometry + this case's
    /// expiry threshold) every execution path is built from.
    pub fn deployment(&self) -> ParkConfig {
        let mut cfg = self.testbed().config();
        cfg.expiry_threshold = self.expiry;
        cfg
    }

    /// The adversity profile, per-mille knobs converted to probabilities.
    pub fn adversity_profile(&self) -> AdversityProfile {
        let k = &self.adversity;
        AdversityProfile {
            seed: k.seed,
            to_nf: LegProfile { drop: permille(k.to_nf_drop_permille), ..Default::default() },
            from_nf: LegProfile {
                drop: permille(k.drop_permille),
                duplicate: permille(k.duplicate_permille),
                truncate: permille(k.truncate_permille),
                corrupt: permille(k.corrupt_permille),
                reorder: permille(k.reorder_permille),
                max_displacement: k.max_displacement,
                blackouts: k
                    .blackout
                    .map(|(from, to)| vec![SeqWindow { from, to }])
                    .unwrap_or_default(),
                ..Default::default()
            },
        }
    }

    /// The adaptive-evictor configuration under test.
    pub fn adaptive_config(&self) -> AdaptiveConfig {
        AdaptiveConfig {
            min_expiry: 1,
            max_expiry: self.policy.max_expiry,
            premature_tolerance: self.policy.premature_tolerance,
            occupied_tolerance: self.policy.occupied_tolerance,
        }
    }

    /// Serializes the config as a deterministic JSON value.
    pub fn to_json_value(&self) -> Value {
        let store = match self.store {
            StoreChoice::Circular => obj(vec![("kind", Value::str("circular"))]),
            StoreChoice::Slab => obj(vec![("kind", Value::str("slab"))]),
            StoreChoice::SlabSpill { hot_capacity } => obj(vec![
                ("kind", Value::str("slab_spill")),
                ("hot_capacity", Value::num(hot_capacity)),
            ]),
        };
        let a = &self.adversity;
        let adversity = obj(vec![
            ("seed", Value::num(a.seed)),
            ("to_nf_drop_permille", Value::num(a.to_nf_drop_permille)),
            ("drop_permille", Value::num(a.drop_permille)),
            ("duplicate_permille", Value::num(a.duplicate_permille)),
            ("truncate_permille", Value::num(a.truncate_permille)),
            ("corrupt_permille", Value::num(a.corrupt_permille)),
            ("reorder_permille", Value::num(a.reorder_permille)),
            ("max_displacement", Value::num(a.max_displacement)),
            ("blackout", a.blackout.map_or(Value::Null, |(from, to)| jsonio::num_arr([from, to]))),
        ]);
        let policy = obj(vec![
            ("max_expiry", Value::num(self.policy.max_expiry)),
            ("premature_tolerance", Value::num(self.policy.premature_tolerance)),
            ("occupied_tolerance", Value::num(self.policy.occupied_tolerance)),
        ]);
        let cluster = self.cluster.as_ref().map_or(Value::Null, |c| {
            obj(vec![
                ("switches", Value::num(c.switches)),
                ("seed", Value::num(c.seed)),
                (
                    "schedule",
                    Value::Arr(
                        c.schedule
                            .iter()
                            .map(|e| {
                                Value::str(match e {
                                    ClusterEvent::Join => "join",
                                    ClusterEvent::Leave => "leave",
                                    ClusterEvent::Down => "down",
                                })
                            })
                            .collect(),
                    ),
                ),
            ])
        });
        let nf = Value::str(match self.nf {
            NfChoice::MacSwap => "mac_swap",
            NfChoice::Firewall => "firewall",
            NfChoice::Nat => "nat",
            NfChoice::FwNat => "fw_nat",
            NfChoice::FwNatLb => "fw_nat_lb",
        });
        let des = obj(vec![
            ("duration_us", Value::num(self.des.duration_us)),
            ("sram_permille", Value::num(self.des.sram_permille)),
            ("explicit_drop", Value::Bool(self.des.explicit_drop)),
        ]);
        obj(vec![
            ("seed", Value::num(self.seed)),
            ("slices", Value::num(self.slices)),
            ("slots", Value::num(self.slots)),
            ("expiry", Value::num(self.expiry)),
            ("store", store),
            ("tcp_permille", Value::num(self.tcp_permille)),
            ("waves", Value::num(self.waves)),
            ("packets", Value::num(self.packets)),
            ("wave_seed", Value::num(self.wave_seed)),
            ("adversity", adversity),
            ("policy", policy),
            ("cluster", cluster),
            ("nf", nf),
            ("des", des),
        ])
    }

    /// Deserializes a config from a JSON value.
    pub fn from_json_value(v: &Value) -> Result<FuzzConfig, String> {
        fn need_u64(v: &Value, key: &str) -> Result<u64, String> {
            v.get(key).and_then(Value::as_u64).ok_or_else(|| format!("missing/invalid {key:?}"))
        }
        fn need_usize(v: &Value, key: &str) -> Result<usize, String> {
            v.get(key).and_then(Value::as_usize).ok_or_else(|| format!("missing/invalid {key:?}"))
        }
        fn need_u16(v: &Value, key: &str) -> Result<u16, String> {
            v.get(key).and_then(Value::as_u16).ok_or_else(|| format!("missing/invalid {key:?}"))
        }

        let store_v = v.get("store").ok_or("missing \"store\"")?;
        let store = match store_v.get("kind").and_then(Value::as_str) {
            Some("circular") => StoreChoice::Circular,
            Some("slab") => StoreChoice::Slab,
            Some("slab_spill") => {
                StoreChoice::SlabSpill { hot_capacity: need_usize(store_v, "hot_capacity")? }
            }
            other => return Err(format!("unknown store kind {other:?}")),
        };

        let a = v.get("adversity").ok_or("missing \"adversity\"")?;
        let blackout = match a.get("blackout") {
            None | Some(Value::Null) => None,
            Some(Value::Arr(items)) if items.len() == 2 => {
                let from = items[0].as_u64().ok_or("invalid blackout.from")?;
                let to = items[1].as_u64().ok_or("invalid blackout.to")?;
                Some((from, to))
            }
            Some(_) => return Err("blackout must be null or [from,to]".into()),
        };
        let adversity = AdversityKnobs {
            seed: need_u64(a, "seed")?,
            to_nf_drop_permille: need_u16(a, "to_nf_drop_permille")?,
            drop_permille: need_u16(a, "drop_permille")?,
            duplicate_permille: need_u16(a, "duplicate_permille")?,
            truncate_permille: need_u16(a, "truncate_permille")?,
            corrupt_permille: need_u16(a, "corrupt_permille")?,
            reorder_permille: need_u16(a, "reorder_permille")?,
            max_displacement: need_u64(a, "max_displacement")?,
            blackout,
        };

        let p = v.get("policy").ok_or("missing \"policy\"")?;
        let policy = PolicyKnobs {
            max_expiry: need_u16(p, "max_expiry")?,
            premature_tolerance: need_u64(p, "premature_tolerance")?,
            occupied_tolerance: need_u64(p, "occupied_tolerance")?,
        };

        let cluster = match v.get("cluster") {
            None | Some(Value::Null) => None,
            Some(c) => {
                let schedule = c
                    .get("schedule")
                    .and_then(Value::as_arr)
                    .ok_or("missing cluster.schedule")?
                    .iter()
                    .map(|e| match e.as_str() {
                        Some("join") => Ok(ClusterEvent::Join),
                        Some("leave") => Ok(ClusterEvent::Leave),
                        Some("down") => Ok(ClusterEvent::Down),
                        other => Err(format!("unknown cluster event {other:?}")),
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Some(ClusterFuzz {
                    switches: need_usize(c, "switches")?,
                    seed: need_u64(c, "seed")?,
                    schedule,
                })
            }
        };

        let nf = match v.get("nf").and_then(Value::as_str) {
            Some("mac_swap") => NfChoice::MacSwap,
            Some("firewall") => NfChoice::Firewall,
            Some("nat") => NfChoice::Nat,
            Some("fw_nat") => NfChoice::FwNat,
            Some("fw_nat_lb") => NfChoice::FwNatLb,
            other => return Err(format!("unknown nf {other:?}")),
        };

        let d = v.get("des").ok_or("missing \"des\"")?;
        let des = DesKnobs {
            duration_us: need_u64(d, "duration_us")?,
            sram_permille: need_u16(d, "sram_permille")?,
            explicit_drop: d
                .get("explicit_drop")
                .and_then(Value::as_bool)
                .ok_or("missing des.explicit_drop")?,
        };

        Ok(FuzzConfig {
            seed: need_u64(v, "seed")?,
            slices: need_usize(v, "slices")?,
            slots: need_usize(v, "slots")?,
            expiry: need_u16(v, "expiry")?,
            store,
            tcp_permille: need_u16(v, "tcp_permille")?,
            waves: need_usize(v, "waves")?,
            packets: need_usize(v, "packets")?,
            wave_seed: need_u64(v, "wave_seed")?,
            adversity,
            policy,
            cluster,
            nf,
            des,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_varied() {
        for seed in 0..64u64 {
            assert_eq!(FuzzConfig::generate(seed), FuzzConfig::generate(seed), "seed {seed}");
        }
        let stores: std::collections::HashSet<_> =
            (0..64u64).map(|s| format!("{:?}", FuzzConfig::generate(s).store)).collect();
        assert!(stores.len() >= 3, "store axis never varies: {stores:?}");
        assert!((0..64u64).any(|s| FuzzConfig::generate(s).cluster.is_some()));
        assert!((0..64u64).any(|s| FuzzConfig::generate(s).cluster.is_none()));
        assert!((0..64u64).any(|s| FuzzConfig::generate(s).slots > 4096), "no oversized configs");
    }

    #[test]
    fn json_round_trip_is_exact() {
        for seed in [0u64, 1, 7, 42, u64::MAX] {
            let cfg = FuzzConfig::generate(seed);
            let text = cfg.to_json_value().render();
            let back =
                FuzzConfig::from_json_value(&jsonio::parse(&text).expect("parses")).expect("loads");
            assert_eq!(back, cfg, "seed {seed}");
            // Deterministic rendering: a reload renders byte-identically.
            assert_eq!(back.to_json_value().render(), text, "seed {seed}");
        }
    }

    #[test]
    fn malformed_documents_are_rejected() {
        let cfg = FuzzConfig::generate(3);
        let mut v = cfg.to_json_value();
        if let Value::Obj(fields) = &mut v {
            fields.retain(|(k, _)| k != "policy");
        }
        assert!(FuzzConfig::from_json_value(&v).unwrap_err().contains("policy"));
        let garbage = jsonio::parse("{\"store\":{\"kind\":\"quantum\"}}").unwrap();
        assert!(FuzzConfig::from_json_value(&garbage).unwrap_err().contains("store"));
    }

    #[test]
    fn deployment_reflects_the_case_axes() {
        let mut cfg = FuzzConfig::generate(5);
        cfg.slices = 4;
        cfg.slots = 48;
        cfg.expiry = 7;
        let park = cfg.deployment();
        assert_eq!(park.expiry_threshold, 7);
        assert_eq!(park.pipes[0].slices.len(), 4);
        assert_eq!(park.pipes[0].total_slots(), 4 * 48);
        park.validate().expect("runnable geometry");
    }
}
