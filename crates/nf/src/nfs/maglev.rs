//! The Maglev consistent-hashing load balancer (Eisenbud et al., NSDI'16),
//! which the paper's 3-NF chain uses as its L4 LB (§6.1).
//!
//! Implements the real lookup-table construction: each backend fills table
//! slots following its own permutation of `(offset, skip)` derived from two
//! hashes of its name, giving near-perfectly balanced slot ownership and
//! minimal disruption when backends change.

use crate::chain::{Nf, NfResult};
use crate::nfs::incremental_checksum_update32;
use pp_packet::parse::FiveTuple;
use pp_packet::Packet;
use std::net::Ipv4Addr;

/// Cycles per packet (hash + table lookup + rewrite).
pub const MAGLEV_CYCLES: u64 = 50;

/// Default lookup-table size; a prime, as Maglev requires (the paper's
/// Maglev uses 65537).
pub const DEFAULT_TABLE_SIZE: usize = 65_537;

/// A backend server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Backend {
    /// Backend name (hashed for the permutation).
    pub name: String,
    /// Virtual-IP traffic is rewritten to this address.
    pub ip: Ipv4Addr,
}

/// FNV-1a, used for both permutation hashes (with different seeds) and the
/// per-packet 5-tuple hash.
fn fnv1a(seed: u64, data: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64 ^ seed;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn hash_tuple(ft: &FiveTuple) -> u64 {
    let mut key = [0u8; 13];
    key[0..4].copy_from_slice(&ft.src_ip.octets());
    key[4..8].copy_from_slice(&ft.dst_ip.octets());
    key[8..10].copy_from_slice(&ft.src_port.to_be_bytes());
    key[10..12].copy_from_slice(&ft.dst_port.to_be_bytes());
    key[12] = ft.protocol;
    fnv1a(0, &key)
}

/// Statistics kept by the load balancer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaglevStats {
    /// Packets dispatched.
    pub dispatched: u64,
}

/// The Maglev LB NF.
#[derive(Debug)]
pub struct MaglevLb {
    backends: Vec<Backend>,
    table: Vec<u32>,
    stats: MaglevStats,
}

impl MaglevLb {
    /// Builds the LB with the default table size.
    pub fn new(backends: Vec<Backend>) -> Self {
        Self::with_table_size(backends, DEFAULT_TABLE_SIZE)
    }

    /// Builds the LB with an explicit (prime) table size.
    ///
    /// Panics on an empty backend list — an LB with nothing to balance to
    /// is a configuration bug.
    pub fn with_table_size(backends: Vec<Backend>, table_size: usize) -> Self {
        assert!(!backends.is_empty(), "maglev needs at least one backend");
        let table = Self::populate(&backends, table_size);
        MaglevLb { backends, table, stats: MaglevStats::default() }
    }

    /// The Maglev population algorithm (§3.4 of the Maglev paper).
    fn populate(backends: &[Backend], m: usize) -> Vec<u32> {
        // Backend i's permutation is `(offset + j·skip) mod m` for j = 0, 1,
        // …; `cursor[i]` holds its next term, advanced by one add and a
        // conditional subtract instead of a multiply and a division.
        let (mut cursor, skips): (Vec<usize>, Vec<usize>) = backends
            .iter()
            .map(|b| {
                let offset = fnv1a(0x5bd1e995, b.name.as_bytes()) as usize % m;
                let skip = fnv1a(0xc2b2ae35, b.name.as_bytes()) as usize % (m - 1) + 1;
                (offset, skip)
            })
            .unzip();
        let mut entry = vec![u32::MAX; m];
        let mut filled = 0usize;
        while filled < m {
            for (i, (c, &skip)) in cursor.iter_mut().zip(&skips).enumerate() {
                // Walk backend i's permutation to its next free slot.
                loop {
                    let slot = *c;
                    *c += skip;
                    if *c >= m {
                        *c -= m;
                    }
                    if entry[slot] == u32::MAX {
                        entry[slot] = i as u32;
                        filled += 1;
                        break;
                    }
                }
                if filled == m {
                    break;
                }
            }
        }
        entry
    }

    /// The backend a 5-tuple maps to.
    pub fn backend_for(&self, ft: &FiveTuple) -> &Backend {
        let idx = (hash_tuple(ft) % self.table.len() as u64) as usize;
        &self.backends[self.table[idx] as usize]
    }

    /// Slot counts per backend (for balance inspection).
    pub fn slot_distribution(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.backends.len()];
        for &e in &self.table {
            counts[e as usize] += 1;
        }
        counts
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> MaglevStats {
        self.stats
    }
}

impl Nf for MaglevLb {
    fn name(&self) -> &str {
        "MaglevLB"
    }

    fn process(&mut self, pkt: &mut Packet) -> NfResult {
        let Ok(parsed) = pkt.parse() else {
            return NfResult::forward(MAGLEV_CYCLES);
        };
        let ft = parsed.five_tuple();
        let ip_off = parsed.offsets().ip;
        let tr_off = parsed.offsets().transport;
        let proto = ft.protocol;
        let backend_ip = self.backend_for(&ft).ip;
        let old_dst = u32::from(ft.dst_ip);
        let new_dst = u32::from(backend_ip);

        let bytes = pkt.bytes_mut();
        bytes[ip_off + 16..ip_off + 20].copy_from_slice(&backend_ip.octets());
        // Patch the IP header checksum incrementally.
        let ip_ck = u16::from_be_bytes([bytes[ip_off + 10], bytes[ip_off + 11]]);
        let step = |ck: u16, o: u16, n: u16| {
            let mut sum = u32::from(!ck) + u32::from(!o) + u32::from(n);
            while sum >> 16 != 0 {
                sum = (sum & 0xFFFF) + (sum >> 16);
            }
            !(sum as u16)
        };
        let ip_ck = step(ip_ck, (old_dst >> 16) as u16, (new_dst >> 16) as u16);
        let ip_ck = step(ip_ck, old_dst as u16, new_dst as u16);
        bytes[ip_off + 10..ip_off + 12].copy_from_slice(&ip_ck.to_be_bytes());
        // And the transport checksum (pseudo-header includes dst address).
        let ck_off = if proto == 17 { tr_off + 6 } else { tr_off + 16 };
        let old_ck = u16::from_be_bytes([bytes[ck_off], bytes[ck_off + 1]]);
        let ck = incremental_checksum_update32(old_ck, old_dst, new_dst);
        bytes[ck_off..ck_off + 2].copy_from_slice(&ck.to_be_bytes());

        self.stats.dispatched += 1;
        NfResult::forward(MAGLEV_CYCLES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::NfVerdict;
    use pp_packet::builder::UdpPacketBuilder;
    use pp_packet::ethernet::EthernetFrame;
    use pp_packet::ipv4::Ipv4Header;
    use pp_packet::udp::UdpHeader;

    fn backends(n: usize) -> Vec<Backend> {
        (0..n)
            .map(|i| Backend {
                name: format!("backend-{i}"),
                ip: Ipv4Addr::new(10, 50, 0, i as u8 + 1),
            })
            .collect()
    }

    #[test]
    fn table_fully_populated_and_balanced() {
        let lb = MaglevLb::with_table_size(backends(5), 1009);
        let dist = lb.slot_distribution();
        assert_eq!(dist.iter().sum::<usize>(), 1009);
        let min = *dist.iter().min().unwrap();
        let max = *dist.iter().max().unwrap();
        // Maglev guarantees near-perfect balance (within a few percent).
        assert!(max - min <= 1009 / 50, "imbalance: {dist:?}");
    }

    #[test]
    fn same_flow_always_same_backend() {
        let mut lb = MaglevLb::with_table_size(backends(4), 503);
        let mk = || {
            UdpPacketBuilder::new()
                .src_ip(Ipv4Addr::new(1, 2, 3, 4))
                .src_port(777)
                .total_size(100, 1)
                .build()
        };
        let mut p1 = mk();
        lb.process(&mut p1);
        let dst1 = p1.parse().unwrap().five_tuple().dst_ip;
        let mut p2 = mk();
        lb.process(&mut p2);
        assert_eq!(dst1, p2.parse().unwrap().five_tuple().dst_ip);
        assert_eq!(lb.stats().dispatched, 2);
    }

    #[test]
    fn different_flows_spread_across_backends() {
        let mut lb = MaglevLb::with_table_size(backends(4), 503);
        let mut seen = std::collections::HashSet::new();
        for sp in 0..64u16 {
            let mut p = UdpPacketBuilder::new().src_port(sp).total_size(100, 1).build();
            lb.process(&mut p);
            seen.insert(p.parse().unwrap().five_tuple().dst_ip);
        }
        assert!(seen.len() >= 3, "only {seen:?}");
    }

    #[test]
    fn checksums_stay_valid_after_rewrite() {
        let mut lb = MaglevLb::with_table_size(backends(3), 101);
        let mut p = UdpPacketBuilder::new().total_size(300, 5).build();
        let r = lb.process(&mut p);
        assert_eq!(r.verdict, NfVerdict::Forward);
        let eth = EthernetFrame::new_checked(p.bytes()).unwrap();
        let ip = Ipv4Header::new_checked(eth.payload()).unwrap();
        assert!(ip.verify_checksum());
        let udp = UdpHeader::new_checked(ip.payload()).unwrap();
        assert!(udp.verify_checksum(u32::from(ip.src()), u32::from(ip.dst())));
    }

    #[test]
    fn removing_a_backend_mostly_preserves_mappings() {
        // Maglev's minimal-disruption property.
        let lb5 = MaglevLb::with_table_size(backends(5), 1009);
        let mut four = backends(5);
        four.remove(4);
        let lb4 = MaglevLb::with_table_size(four, 1009);
        let mut stable = 0usize;
        let mut total = 0usize;
        for sp in 0..500u16 {
            let ft = FiveTuple {
                src_ip: Ipv4Addr::new(9, 9, 9, 9),
                dst_ip: Ipv4Addr::new(10, 0, 0, 2),
                src_port: sp,
                dst_port: 80,
                protocol: 17,
            };
            let b5 = lb5.backend_for(&ft);
            if b5.name == "backend-4" {
                continue; // flows on the removed backend must move
            }
            total += 1;
            if lb5.backend_for(&ft).name == lb4.backend_for(&ft).name {
                stable += 1;
            }
        }
        // The vast majority of surviving flows keep their backend.
        assert!(stable as f64 / total as f64 > 0.75, "{stable}/{total}");
    }

    /// The population algorithm as the Maglev paper states it, `%` per probe.
    fn populate_spec(backends: &[Backend], m: usize) -> Vec<u32> {
        let perm: Vec<(usize, usize)> = backends
            .iter()
            .map(|b| {
                let offset = fnv1a(0x5bd1e995, b.name.as_bytes()) as usize % m;
                let skip = fnv1a(0xc2b2ae35, b.name.as_bytes()) as usize % (m - 1) + 1;
                (offset, skip)
            })
            .collect();
        let mut next = vec![0usize; backends.len()];
        let mut entry = vec![u32::MAX; m];
        let mut filled = 0;
        while filled < m {
            for (i, &(offset, skip)) in perm.iter().enumerate() {
                let mut c = (offset + next[i] * skip) % m;
                while entry[c] != u32::MAX {
                    next[i] += 1;
                    c = (offset + next[i] * skip) % m;
                }
                next[i] += 1;
                entry[c] = i as u32;
                filled += 1;
                if filled == m {
                    break;
                }
            }
        }
        entry
    }

    #[test]
    fn cursor_population_equals_the_modulo_spec() {
        for m in [7, 251, DEFAULT_TABLE_SIZE] {
            for n in 1..=5 {
                let b = backends(n);
                assert_eq!(MaglevLb::populate(&b, m), populate_spec(&b, m), "m {m} n {n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one backend")]
    fn empty_backends_panics() {
        MaglevLb::new(vec![]);
    }
}
