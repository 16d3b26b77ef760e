//! A seeded consistent-hash ring with virtual nodes.
//!
//! The cluster plan needs a port→switch assignment that (a) is a pure
//! function of `(seed, member set)` — two control planes that agree on
//! the membership agree on every placement without talking to each
//! other — and (b) moves as little as possible when the membership
//! changes: a switch join or leave should relocate only the ~`1/N` of
//! the key space adjacent to the changed ring points, because every
//! relocated slice costs a live flow migration. Classic consistent
//! hashing with virtual nodes gives exactly that; [`HashRing`] is the
//! minimal deterministic form of it.
//!
//! Determinism is load-bearing: the point set is rebuilt from scratch
//! (sorted member set × vnode index, hashed with SplitMix64) on every
//! membership change, so insertion *order* can never leak into
//! placement — `{0,1,2}` reached via any insert/remove history owns the
//! same keys. The `ring_props` property tests pin this, the ≤`~1/N` movement
//! bound, and the every-key-has-exactly-one-live-owner invariant.

use std::collections::BTreeSet;

/// SplitMix64's output mixer — a cheap, statistically strong 64-bit
/// permutation (Steele et al., OOPSLA '14). Used for ring points and key
/// hashes; also reused by the cluster for deterministic proxy routing.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Domain tags keeping key hashes and ring-point hashes disjoint: a key
/// equal to a member's `(id << 32) | vnode` encoding must not hash onto
/// that member's point.
const KEY_DOMAIN: u64 = 0x6b65_795f_646f_6d31; // "key_dom1"
const POINT_DOMAIN: u64 = 0x706f_696e_745f_646d; // "point_dm"

/// A consistent-hash ring: each member owns `vnodes` pseudo-random
/// points on the 64-bit circle; a key belongs to the member whose point
/// is the first at or clockwise of the key's hash.
#[derive(Debug, Clone)]
pub struct HashRing {
    seed: u64,
    vnodes: u32,
    members: BTreeSet<u32>,
    /// `(point, member)`, sorted — rebuilt from `members` on change.
    points: Vec<(u64, u32)>,
}

impl HashRing {
    /// An empty ring. `vnodes` is the number of points per member; more
    /// points smooth the load split at the cost of a longer rebuild.
    pub fn new(seed: u64, vnodes: u32) -> HashRing {
        assert!(vnodes > 0, "a ring member needs at least one point");
        HashRing { seed, vnodes, members: BTreeSet::new(), points: Vec::new() }
    }

    /// A ring populated with `members`.
    pub fn with_members(
        seed: u64,
        vnodes: u32,
        members: impl IntoIterator<Item = u32>,
    ) -> HashRing {
        let mut ring = HashRing::new(seed, vnodes);
        ring.members = members.into_iter().collect();
        ring.rebuild();
        ring
    }

    /// Adds a member. Returns false (and changes nothing) if already present.
    pub fn insert(&mut self, id: u32) -> bool {
        let added = self.members.insert(id);
        if added {
            self.rebuild();
        }
        added
    }

    /// Removes a member. Returns false if it was not present.
    pub fn remove(&mut self, id: u32) -> bool {
        let removed = self.members.remove(&id);
        if removed {
            self.rebuild();
        }
        removed
    }

    /// The member ids, ascending.
    pub fn members(&self) -> impl Iterator<Item = u32> + '_ {
        self.members.iter().copied()
    }

    /// Whether `id` is a member.
    pub fn contains(&self, id: u32) -> bool {
        self.members.contains(&id)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The seed every placement derives from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The member owning `key`, or `None` on an empty ring.
    pub fn owner(&self, key: u64) -> Option<u32> {
        if self.points.is_empty() {
            return None;
        }
        let h = splitmix64(self.seed ^ splitmix64(KEY_DOMAIN ^ key));
        let i = self.points.partition_point(|&(p, _)| p < h);
        Some(self.points[i % self.points.len()].1)
    }

    fn rebuild(&mut self) {
        self.points.clear();
        for &id in &self.members {
            for v in 0..self.vnodes {
                let h = splitmix64(
                    self.seed ^ splitmix64(POINT_DOMAIN ^ ((u64::from(id) << 32) | u64::from(v))),
                );
                self.points.push((h, id));
            }
        }
        // Sorting by (point, member) makes even hash-point collisions
        // deterministic (the lower member id wins the segment).
        self.points.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ownership_is_a_function_of_seed_and_members() {
        let a = HashRing::with_members(7, 16, [0, 1, 2]);
        let mut b = HashRing::new(7, 16);
        // A different construction history: 2, 3, 0, 1, then drop 3.
        for id in [2, 3, 0, 1] {
            assert!(b.insert(id));
        }
        assert!(b.remove(3));
        for key in 0..500u64 {
            assert_eq!(a.owner(key), b.owner(key), "key {key}");
        }
        assert_ne!(
            HashRing::with_members(8, 16, [0, 1, 2]).owner(1),
            None,
            "different seed still owns every key"
        );
    }

    #[test]
    fn empty_ring_owns_nothing_and_duplicates_are_rejected() {
        let mut ring = HashRing::new(1, 4);
        assert!(ring.is_empty());
        assert_eq!(ring.owner(42), None);
        assert!(ring.insert(9));
        assert!(!ring.insert(9), "duplicate insert");
        assert!(!ring.remove(10), "absent remove");
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.owner(42), Some(9), "a 1-member ring owns everything");
        assert!(ring.contains(9));
        assert_eq!(ring.seed(), 1);
        assert_eq!(ring.members().collect::<Vec<_>>(), vec![9]);
    }
}
