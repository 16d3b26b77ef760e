//! Property-based tests for the consistent-hash ring — the properties
//! the cluster tier's correctness rests on: seeded determinism, bounded
//! key movement on membership change, and total single ownership.

use pp_cluster::HashRing;
use pp_netsim::check::forall;
use pp_netsim::{prop_assert, prop_assert_eq};

const KEYS: u64 = 2_000;

fn owners(ring: &HashRing) -> Vec<u32> {
    (0..KEYS).map(|k| ring.owner(k).expect("non-empty ring owns every key")).collect()
}

/// Cases per property.
const CASES: u32 = 64;

/// Placement is a pure function of (seed, membership): any
/// insert/remove history arriving at the same member set places
/// every key identically.
#[test]
fn seeded_determinism_is_history_free() {
    forall(
        "seeded_determinism_is_history_free",
        CASES,
        |d| {
            (
                d.any::<u64>(),
                d.vec(1..8, |d| d.range(0u32..64)),
                d.vec(0..4, |d| d.range(64u32..96)),
            )
        },
        |(seed, members, extras)| {
            let members: std::collections::BTreeSet<u32> = members.into_iter().collect();
            let direct = HashRing::with_members(seed, 16, members.iter().copied());

            // A detour: add spurious members, then remove them again.
            let mut detour = HashRing::new(seed, 16);
            for &e in &extras {
                detour.insert(e);
            }
            for &m in &members {
                detour.insert(m);
            }
            for &e in &extras {
                if !members.contains(&e) {
                    detour.remove(e);
                }
            }
            prop_assert_eq!(owners(&direct), owners(&detour));
            Ok(())
        },
    );
}

/// A single join moves at most a bounded fraction of keys — the
/// consistent-hashing contract (expected 1/(N+1); asserted with
/// slack for vnode variance) — and every key that moved, moved TO
/// the joiner; nothing shuffles between the incumbents.
#[test]
fn single_join_moves_a_bounded_fraction_to_the_joiner() {
    forall(
        "single_join_moves_a_bounded_fraction_to_the_joiner",
        CASES,
        |d| (d.any::<u64>(), d.range(1usize..9)),
        |(seed, n)| {
            let before = HashRing::with_members(seed, 16, 0..n as u32);
            let mut after = before.clone();
            after.insert(n as u32);

            let old = owners(&before);
            let new = owners(&after);
            let mut moved = 0u64;
            for (o, w) in old.iter().zip(&new) {
                if o != w {
                    prop_assert_eq!(*w, n as u32, "keys only move to the joiner");
                    moved += 1;
                }
            }
            // Expected movement is KEYS/(n+1); allow 3x for the variance of
            // 16 vnodes per member.
            let bound = 3 * KEYS / (n as u64 + 1);
            prop_assert!(moved <= bound, "{moved} keys moved, bound {bound} at n={n}");
            Ok(())
        },
    );
}

/// A single leave relocates exactly the departed member's keys (its
/// share, ~1/N), and only those.
#[test]
fn single_leave_moves_only_the_departed_share() {
    forall(
        "single_leave_moves_only_the_departed_share",
        CASES,
        |d| (d.any::<u64>(), d.range(2usize..9), d.range(0usize..9)),
        |(seed, n, gone)| {
            let gone = (gone % n) as u32;
            let before = HashRing::with_members(seed, 16, 0..n as u32);
            let mut after = before.clone();
            after.remove(gone);

            for (o, w) in owners(&before).iter().zip(&owners(&after)) {
                if o != w {
                    prop_assert_eq!(*o, gone, "only the departed member's keys move");
                }
                prop_assert!(*w != gone, "a key still maps to the departed member {gone}");
            }
            Ok(())
        },
    );
}

/// Every key always maps to exactly one live member, whatever the
/// membership churn was.
#[test]
fn every_key_has_exactly_one_live_owner() {
    forall(
        "every_key_has_exactly_one_live_owner",
        CASES,
        |d| (d.any::<u64>(), d.vec(1..40, |d| (d.bool(), d.range(0u32..32)))),
        |(seed, ops)| {
            let mut ring = HashRing::new(seed, 16);
            ring.insert(0); // never removed: the ring stays non-empty
            for &(add, id) in &ops {
                if add {
                    ring.insert(id + 1);
                } else {
                    ring.remove(id + 1);
                }
            }
            let members: Vec<u32> = ring.members().collect();
            for key in 0..KEYS {
                let owner = ring.owner(key).expect("non-empty ring");
                prop_assert!(members.contains(&owner), "key {} owned by dead {}", key, owner);
            }
            Ok(())
        },
    );
}
