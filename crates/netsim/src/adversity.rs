//! The adversity engine: deterministic, replayable network misbehaviour.
//!
//! The paper's evictor exists because parked payloads are orphaned when
//! packets are "dropped by NFs … or lost by lossy links and other
//! components" (§3.3). This module makes that adversity a first-class,
//! scriptable subsystem: an [`AdversityProfile`] describes what the
//! internal switch ↔ NF-server legs do to packets — loss, bounded
//! reordering, duplication, truncation, bit corruption, delay bursts and
//! scripted blackout windows — and every per-packet decision is a **pure
//! function of `(seed, leg, packet sequence number)`**.
//!
//! That purity is the load-bearing property: the same profile applied to
//! the same traffic produces the same faults no matter *which* execution
//! path processes the packets — the scalar [`SwitchModel`] loop, the
//! sharded `pp_fastpath` engine at any worker count, or the
//! discrete-event harness — so a whole adversarial scenario replays from
//! a single `u64` seed, and the conformance oracle can compare execution
//! paths under identical misfortune.
//!
//! [`SwitchModel`]: ../../pp_rmt/switch/struct.SwitchModel.html

use crate::rng::DetRng;
use pp_packet::ppark::PAYLOADPARK_HEADER_LEN;
use pp_packet::ParsedPacket;

/// Nanoseconds of extra latency one displacement slot is worth on the
/// timed (discrete-event) paths; wave-based paths use the displacement
/// directly as a sort-key offset.
pub const DISPLACEMENT_DELAY_NS: u64 = 1_000;

/// Which internal leg a packet is traversing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Leg {
    /// Switch → NF server (post-Split header packets).
    ToNf,
    /// NF server → switch (pre-Merge header packets).
    FromNf,
}

/// A half-open window `[from, to)` of generator sequence numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqWindow {
    /// First sequence number inside the window.
    pub from: u64,
    /// First sequence number past the window.
    pub to: u64,
}

impl SeqWindow {
    /// Whether `seq` falls inside the window.
    pub fn contains(&self, seq: u64) -> bool {
        self.from <= seq && seq < self.to
    }
}

/// A periodic burst of delayed packets: in every cycle of `period`
/// sequence numbers, the first `len` are held back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelayBurst {
    /// Cycle length in sequence numbers.
    pub period: u64,
    /// Sequence numbers per cycle that are delayed.
    pub len: u64,
    /// How many stream positions a held packet is displaced on wave-based
    /// paths (it also earns `DISPLACEMENT_DELAY_NS` each on timed paths).
    pub hold: u64,
    /// Extra latency on timed paths, in nanoseconds.
    pub delay_ns: u64,
}

/// The scenario knobs for one leg. All probabilities are per packet.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LegProfile {
    /// Probability of silently dropping a packet.
    pub drop: f64,
    /// Probability of delivering a packet twice (the duplicate arrives
    /// immediately after the original, same sequence number).
    pub duplicate: f64,
    /// Probability of cutting a random number of tail bytes (never into
    /// the protected header + shim prefix).
    pub truncate: f64,
    /// Probability of flipping one random bit.
    pub corrupt: f64,
    /// Allow corruption to hit the protected prefix (stack headers and the
    /// PayloadPark shim). Off by default: a flipped tag bit aliases
    /// another slot, which is a *forgery* scenario, not a lossy link.
    pub corrupt_shim: bool,
    /// Probability of displacing a packet later in the stream.
    pub reorder: f64,
    /// Largest displacement (in sequence-number positions) `reorder` may
    /// apply; a displaced packet never overtakes one more than this far
    /// ahead of it.
    pub max_displacement: u64,
    /// Optional periodic delay bursts.
    pub delay: Option<DelayBurst>,
    /// Scripted blackout windows: every packet whose sequence number falls
    /// in a window is dropped on this leg.
    pub blackouts: Vec<SeqWindow>,
}

impl LegProfile {
    /// A leg that never interferes.
    pub fn none() -> Self {
        Self::default()
    }

    /// Pure loss at `rate`.
    pub fn loss(rate: f64) -> Self {
        LegProfile { drop: rate, ..Default::default() }
    }

    /// True when this leg can never touch a packet.
    pub fn is_noop(&self) -> bool {
        self.drop <= 0.0
            && self.duplicate <= 0.0
            && self.truncate <= 0.0
            && self.corrupt <= 0.0
            && self.reorder <= 0.0
            && self.delay.is_none()
            && self.blackouts.is_empty()
    }

    /// True when the leg can change packet order (wave appliers only sort
    /// when this holds).
    pub fn reorders(&self) -> bool {
        (self.reorder > 0.0 && self.max_displacement > 0) || self.delay.is_some_and(|b| b.hold > 0)
    }
}

/// A complete, replayable adversity scenario: what each internal leg does,
/// all derived from one seed.
///
/// Construct with struct-update syntax and replay by reusing the seed:
///
/// ```
/// use pp_netsim::adversity::{AdversityProfile, Leg, LegProfile};
///
/// let adv = AdversityProfile {
///     seed: 7,
///     from_nf: LegProfile { drop: 0.1, reorder: 0.2, max_displacement: 16, ..LegProfile::none() },
///     ..AdversityProfile::disabled()
/// };
/// // Per-packet decisions are a pure function of (seed, leg, seq):
/// assert_eq!(adv.plan(Leg::FromNf, 42), adv.plan(Leg::FromNf, 42));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdversityProfile {
    /// The scenario seed; every fault decision derives from it.
    pub seed: u64,
    /// Faults on the switch → NF-server leg.
    pub to_nf: LegProfile,
    /// Faults on the NF-server → switch leg.
    pub from_nf: LegProfile,
}

impl AdversityProfile {
    /// A profile that never interferes.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Pure loss at `rate` on the NF → switch leg — the scenario that
    /// orphans parked payloads (§3.3).
    pub fn nf_loss(seed: u64, rate: f64) -> Self {
        AdversityProfile { seed, from_nf: LegProfile::loss(rate), ..Default::default() }
    }

    /// True when neither leg can touch a packet.
    pub fn is_disabled(&self) -> bool {
        self.to_nf.is_noop() && self.from_nf.is_noop()
    }

    /// The profile of one leg.
    pub fn leg(&self, leg: Leg) -> &LegProfile {
        match leg {
            Leg::ToNf => &self.to_nf,
            Leg::FromNf => &self.from_nf,
        }
    }

    /// The fault plan for one packet on one leg — a pure function of
    /// `(self.seed, leg, seq)`, independent of processing order, shard
    /// assignment or batch boundaries.
    pub fn plan(&self, leg: Leg, seq: u64) -> FaultPlan {
        let prof = self.leg(leg);
        let mut plan = FaultPlan::default();
        if prof.blackouts.iter().any(|w| w.contains(seq)) {
            plan.blackout = true;
            return plan;
        }
        if prof.is_noop() {
            return plan;
        }
        let mut rng = DetRng::from_seed(scenario_seed(self.seed, leg, seq));
        if prof.drop > 0.0 && rng.chance(prof.drop) {
            plan.drop = true;
            return plan;
        }
        if prof.duplicate > 0.0 && rng.chance(prof.duplicate) {
            plan.duplicate = true;
        }
        if prof.truncate > 0.0 && rng.chance(prof.truncate) {
            plan.truncate = Some(rng.next_f64());
        }
        if prof.corrupt > 0.0 && rng.chance(prof.corrupt) {
            plan.corrupt = Some(CorruptSpec {
                at: rng.next_f64(),
                bit: rng.gen_range(0, 8) as u8,
                include_protected: prof.corrupt_shim,
            });
        }
        if prof.reorder > 0.0 && prof.max_displacement > 0 && rng.chance(prof.reorder) {
            plan.displacement = rng.gen_range(1, prof.max_displacement + 1);
        }
        if let Some(b) = prof.delay {
            if b.period > 0 && seq % b.period < b.len {
                plan.displacement = plan.displacement.saturating_add(b.hold);
                plan.extra_delay_ns += b.delay_ns;
            }
        }
        plan.extra_delay_ns += plan.displacement * DISPLACEMENT_DELAY_NS;
        plan
    }

    /// Applies one leg's scenario to a whole wave of packets, preserving
    /// the stream semantics the equivalence oracle relies on:
    ///
    /// * every per-packet fault comes from [`AdversityProfile::plan`], so
    ///   the same packets are hit no matter how the wave is sliced;
    /// * reordering sorts (stably) by `seq + displacement`, so restricting
    ///   the reordered wave to any subsequence — a shard, a batch — yields
    ///   exactly the order that subsequence would have been given alone;
    /// * duplicates are inserted right behind their originals with the
    ///   same sequence number.
    ///
    /// `seq_of` reads a packet's sequence number, `bytes_of` exposes its
    /// wire bytes, and `protected` maps wire bytes to the length of the
    /// prefix (stack headers + shim) that truncation must preserve and
    /// corruption must avoid unless [`LegProfile::corrupt_shim`] is set.
    pub fn apply_leg<T: Clone>(
        &self,
        leg: Leg,
        wave: Vec<T>,
        seq_of: impl Fn(&T) -> u64,
        mut bytes_of: impl FnMut(&mut T) -> &mut Vec<u8>,
        protected: impl Fn(&[u8]) -> usize,
        tally: &mut FaultTally,
    ) -> Vec<T> {
        let prof = self.leg(leg);
        if prof.is_noop() {
            return wave;
        }
        let mut keyed: Vec<(u64, T)> = Vec::with_capacity(wave.len());
        for mut pkt in wave {
            let seq = seq_of(&pkt);
            let plan = self.plan(leg, seq);
            tally.seen += 1;
            if plan.blackout {
                tally.blacked_out += 1;
                continue;
            }
            if plan.drop {
                tally.dropped += 1;
                continue;
            }
            if plan.truncate.is_some() || plan.corrupt.is_some() {
                let bytes = bytes_of(&mut pkt);
                let prot = protected(bytes);
                plan.mutate(bytes, prot, tally);
            }
            if plan.displacement > 0 {
                tally.displaced += 1;
            }
            let key = seq.saturating_add(plan.displacement);
            let dup = plan.duplicate.then(|| pkt.clone());
            keyed.push((key, pkt));
            if let Some(d) = dup {
                tally.duplicated += 1;
                keyed.push((key, d));
            }
        }
        if prof.reorders() {
            // Stable: equal keys keep arrival order (duplicates stay
            // behind their originals).
            keyed.sort_by_key(|(k, _)| *k);
        }
        keyed.into_iter().map(|(_, p)| p).collect()
    }
}

/// Where a corruption bit-flip lands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorruptSpec {
    /// Position within the corruptible span, as a fraction in `[0, 1)`.
    pub at: f64,
    /// Which bit to flip.
    pub bit: u8,
    /// Whether the protected prefix is corruptible too.
    pub include_protected: bool,
}

/// The faults one packet suffers on one leg.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultPlan {
    /// Dropped by a scripted blackout window.
    pub blackout: bool,
    /// Dropped by random loss.
    pub drop: bool,
    /// Delivered twice.
    pub duplicate: bool,
    /// Tail truncation: fraction of the cuttable tail to remove.
    pub truncate: Option<f64>,
    /// Bit corruption.
    pub corrupt: Option<CorruptSpec>,
    /// Stream displacement (reorder + delay-burst hold), in positions.
    pub displacement: u64,
    /// Extra latency on timed paths, in nanoseconds.
    pub extra_delay_ns: u64,
}

impl FaultPlan {
    /// True when the packet never arrives.
    pub fn lost(&self) -> bool {
        self.drop || self.blackout
    }

    /// Applies the byte-level faults (truncation, corruption) in place.
    /// `protected` is the length of the prefix truncation must preserve
    /// and corruption must avoid unless the plan says otherwise.
    pub fn mutate(&self, bytes: &mut Vec<u8>, protected: usize, tally: &mut FaultTally) {
        let protected = protected.min(bytes.len());
        if let Some(frac) = self.truncate {
            let tail = bytes.len() - protected;
            if tail > 0 {
                let cut = 1 + (frac * (tail - 1) as f64) as usize;
                bytes.truncate(bytes.len() - cut.min(tail));
                tally.truncated += 1;
            }
        }
        if let Some(c) = self.corrupt {
            let lo = if c.include_protected { 0 } else { protected };
            if bytes.len() > lo {
                let span = bytes.len() - lo;
                let idx = lo + ((c.at * span as f64) as usize).min(span - 1);
                bytes[idx] ^= 1 << (c.bit & 7);
                tally.corrupted += 1;
            }
        }
    }
}

/// The protected byte prefix of an internal-leg packet: stack headers plus
/// the 7-byte PayloadPark shim. Truncation never cuts into it and
/// corruption avoids it unless `corrupt_shim` is configured; unparseable
/// packets are fully protected (nothing sensible to corrupt). The same
/// span is protected on baseline legs (which carry no shim) so that a
/// given scenario seed flips the same bytes in both deployments.
pub fn internal_leg_protected_prefix(bytes: &[u8]) -> usize {
    match ParsedPacket::parse(bytes) {
        Ok(parsed) => (parsed.offsets().payload + PAYLOADPARK_HEADER_LEN).min(bytes.len()),
        Err(_) => bytes.len(),
    }
}

/// What an adversity application actually did, for reports and replays.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultTally {
    /// Packets offered to an *active* (non-noop) leg injector; a disabled
    /// leg observes nothing, on every execution path.
    pub seen: u64,
    /// Packets dropped by random loss.
    pub dropped: u64,
    /// Packets dropped by blackout windows.
    pub blacked_out: u64,
    /// Duplicates inserted.
    pub duplicated: u64,
    /// Packets with tail bytes cut.
    pub truncated: u64,
    /// Packets with a bit flipped.
    pub corrupted: u64,
    /// Packets displaced later in the stream.
    pub displaced: u64,
}

impl FaultTally {
    /// Packets that never arrived (loss + blackouts).
    pub fn lost(&self) -> u64 {
        self.dropped + self.blacked_out
    }

    /// Accumulates another tally (aggregating per-shard injectors).
    pub fn add(&mut self, other: &FaultTally) {
        self.seen += other.seen;
        self.dropped += other.dropped;
        self.blacked_out += other.blacked_out;
        self.duplicated += other.duplicated;
        self.truncated += other.truncated;
        self.corrupted += other.corrupted;
        self.displaced += other.displaced;
    }

    /// The tally fields paired with stable snake_case names, for telemetry
    /// exporters.
    pub fn named(&self) -> [(&'static str, u64); 7] {
        [
            ("seen", self.seen),
            ("dropped", self.dropped),
            ("blacked_out", self.blacked_out),
            ("duplicated", self.duplicated),
            ("truncated", self.truncated),
            ("corrupted", self.corrupted),
            ("displaced", self.displaced),
        ]
    }
}

/// Mixes `(seed, leg, seq)` into an independent per-packet RNG seed
/// (splitmix64 finalizer over a leg-salted product mix).
fn scenario_seed(seed: u64, leg: Leg, seq: u64) -> u64 {
    let salt: u64 = match leg {
        Leg::ToNf => 0x9E37_79B9_7F4A_7C15,
        Leg::FromNf => 0xC2B2_AE3D_27D4_EB4F,
    };
    let mut z = seed ^ salt ^ seq.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A test wave: (seq, bytes) pairs with a 4-byte "header".
    fn wave(n: u64) -> Vec<(u64, Vec<u8>)> {
        (0..n).map(|s| (s, vec![s as u8; 32])).collect()
    }

    fn apply(
        adv: &AdversityProfile,
        leg: Leg,
        w: Vec<(u64, Vec<u8>)>,
    ) -> (Vec<(u64, Vec<u8>)>, FaultTally) {
        let mut tally = FaultTally::default();
        let out = adv.apply_leg(leg, w, |p| p.0, |p| &mut p.1, |_| 4, &mut tally);
        (out, tally)
    }

    #[test]
    fn plans_are_pure_functions_of_seed_leg_seq() {
        let adv = AdversityProfile {
            seed: 9,
            from_nf: LegProfile {
                drop: 0.2,
                duplicate: 0.2,
                truncate: 0.2,
                corrupt: 0.2,
                reorder: 0.3,
                max_displacement: 10,
                ..Default::default()
            },
            ..Default::default()
        };
        for seq in 0..200 {
            assert_eq!(adv.plan(Leg::FromNf, seq), adv.plan(Leg::FromNf, seq));
        }
        // The two legs draw from independent streams.
        let adv2 = AdversityProfile { to_nf: adv.from_nf.clone(), ..adv.clone() };
        let differs = (0..200).any(|s| adv2.plan(Leg::ToNf, s) != adv2.plan(Leg::FromNf, s));
        assert!(differs, "legs must not mirror each other");
        // And a different seed gives a different scenario.
        let adv3 = AdversityProfile { seed: 10, ..adv.clone() };
        assert!((0..200).any(|s| adv3.plan(Leg::FromNf, s) != adv.plan(Leg::FromNf, s)));
    }

    #[test]
    fn disabled_profile_is_identity() {
        let adv = AdversityProfile::disabled();
        assert!(adv.is_disabled());
        let w = wave(50);
        let (out, tally) = apply(&adv, Leg::ToNf, w.clone());
        assert_eq!(out, w);
        assert_eq!(tally, FaultTally::default(), "a noop leg observes nothing");
    }

    #[test]
    fn loss_rate_is_plausible_and_replayable() {
        let adv = AdversityProfile::nf_loss(3, 0.2);
        let (out, tally) = apply(&adv, Leg::FromNf, wave(5_000));
        assert_eq!(tally.seen, 5_000);
        assert!((800..1_200).contains(&(tally.dropped as usize)), "{tally:?}");
        assert_eq!(out.len() as u64 + tally.dropped, 5_000);
        // Byte-identical replay from the same seed.
        let (out2, tally2) = apply(&adv, Leg::FromNf, wave(5_000));
        assert_eq!(out, out2);
        assert_eq!(tally, tally2);
    }

    #[test]
    fn blackout_windows_drop_exactly_their_seqs() {
        let adv = AdversityProfile {
            seed: 1,
            from_nf: LegProfile {
                blackouts: vec![SeqWindow { from: 10, to: 20 }, SeqWindow { from: 40, to: 45 }],
                ..Default::default()
            },
            ..Default::default()
        };
        let (out, tally) = apply(&adv, Leg::FromNf, wave(50));
        assert_eq!(tally.blacked_out, 15);
        assert_eq!(out.len(), 35);
        assert!(out.iter().all(|(s, _)| !(10..20).contains(s) && !(40..45).contains(s)));
    }

    #[test]
    fn duplicates_sit_behind_their_originals() {
        let adv = AdversityProfile {
            seed: 5,
            from_nf: LegProfile { duplicate: 0.5, ..Default::default() },
            ..Default::default()
        };
        let (out, tally) = apply(&adv, Leg::FromNf, wave(200));
        assert!(tally.duplicated > 50, "{tally:?}");
        assert_eq!(out.len() as u64, 200 + tally.duplicated);
        // Adjacent and byte-identical.
        let mut dups = 0;
        for pair in out.windows(2) {
            if pair[0].0 == pair[1].0 {
                assert_eq!(pair[0].1, pair[1].1);
                dups += 1;
            }
        }
        assert_eq!(dups, tally.duplicated);
    }

    #[test]
    fn reorder_displacement_is_bounded() {
        let max = 8;
        let adv = AdversityProfile {
            seed: 11,
            from_nf: LegProfile { reorder: 0.6, max_displacement: max, ..Default::default() },
            ..Default::default()
        };
        let (out, tally) = apply(&adv, Leg::FromNf, wave(500));
        assert!(tally.displaced > 100, "{tally:?}");
        let seqs: Vec<u64> = out.iter().map(|(s, _)| *s).collect();
        assert_ne!(seqs, (0..500).collect::<Vec<_>>(), "must actually reorder");
        // Bounded displacement: nothing overtakes a packet more than
        // `max` sequence numbers ahead of it.
        for i in 0..seqs.len() {
            for j in i + 1..seqs.len() {
                assert!(seqs[i] <= seqs[j] + max, "seq {} before {}", seqs[i], seqs[j]);
            }
        }
    }

    #[test]
    fn restriction_to_a_subsequence_preserves_relative_order() {
        // The property the sharded engine relies on: applying the profile
        // to the whole wave, then restricting to one shard's packets,
        // gives the same order as applying it to that shard's sub-wave.
        let adv = AdversityProfile {
            seed: 21,
            from_nf: LegProfile {
                drop: 0.1,
                duplicate: 0.15,
                reorder: 0.4,
                max_displacement: 12,
                ..Default::default()
            },
            ..Default::default()
        };
        let full = wave(400);
        let shard: Vec<_> = full.iter().filter(|(s, _)| s % 4 == 1).cloned().collect();
        let (global, _) = apply(&adv, Leg::FromNf, full);
        let global_shard: Vec<_> = global.into_iter().filter(|(s, _)| s % 4 == 1).collect();
        let (local, _) = apply(&adv, Leg::FromNf, shard);
        assert_eq!(global_shard, local);
    }

    #[test]
    fn truncation_never_cuts_the_protected_prefix() {
        let adv = AdversityProfile {
            seed: 2,
            from_nf: LegProfile { truncate: 1.0, ..Default::default() },
            ..Default::default()
        };
        let (out, tally) = apply(&adv, Leg::FromNf, wave(100));
        assert_eq!(tally.truncated, 100);
        for (s, bytes) in &out {
            assert!(bytes.len() >= 4, "seq {s} cut into the protected prefix");
            assert!(bytes.len() < 32, "seq {s} not truncated");
            assert_eq!(&bytes[..4], &vec![*s as u8; 4][..]);
        }
    }

    #[test]
    fn corruption_respects_the_protected_prefix() {
        let adv = AdversityProfile {
            seed: 3,
            from_nf: LegProfile { corrupt: 1.0, ..Default::default() },
            ..Default::default()
        };
        let (out, tally) = apply(&adv, Leg::FromNf, wave(100));
        assert_eq!(tally.corrupted, 100);
        for (s, bytes) in &out {
            assert_eq!(&bytes[..4], &vec![*s as u8; 4][..], "protected prefix altered");
            let flipped: u32 = bytes[4..].iter().map(|b| (b ^ (*s as u8)).count_ones()).sum();
            assert_eq!(flipped, 1, "seq {s}: exactly one bit must flip");
        }
        // With corrupt_shim, the protected prefix is fair game too.
        let chaos = AdversityProfile {
            seed: 3,
            from_nf: LegProfile { corrupt: 1.0, corrupt_shim: true, ..Default::default() },
            ..Default::default()
        };
        let (out, _) = apply(&chaos, Leg::FromNf, wave(300));
        assert!(
            out.iter().any(|(s, b)| b[..4] != vec![*s as u8; 4][..]),
            "corrupt_shim must eventually hit the prefix"
        );
    }

    #[test]
    fn delay_bursts_hold_their_windows_back() {
        let adv = AdversityProfile {
            seed: 4,
            from_nf: LegProfile {
                delay: Some(DelayBurst { period: 20, len: 4, hold: 10, delay_ns: 5_000 }),
                ..Default::default()
            },
            ..Default::default()
        };
        let plan = adv.plan(Leg::FromNf, 41); // 41 % 20 == 1 < 4: in burst
        assert_eq!(plan.displacement, 10);
        assert_eq!(plan.extra_delay_ns, 5_000 + 10 * DISPLACEMENT_DELAY_NS);
        let calm = adv.plan(Leg::FromNf, 47);
        assert_eq!(calm.displacement, 0);
        assert_eq!(calm.extra_delay_ns, 0);
        // Burst members really land after the packets they were holding
        // behind.
        let (out, tally) = apply(&adv, Leg::FromNf, wave(40));
        assert!(tally.displaced >= 4);
        let pos_of = |seq: u64| out.iter().position(|(s, _)| *s == seq).unwrap();
        assert!(pos_of(20) > pos_of(24), "seq 20 is held past the burst");
    }

    #[test]
    fn tallies_aggregate() {
        let mut a = FaultTally { seen: 10, dropped: 2, blacked_out: 1, ..Default::default() };
        let b = FaultTally { seen: 5, dropped: 1, duplicated: 3, ..Default::default() };
        a.add(&b);
        assert_eq!(a.seen, 15);
        assert_eq!(a.dropped, 3);
        assert_eq!(a.duplicated, 3);
        assert_eq!(a.lost(), 4);
    }
}
