//! Packet construction.

use crate::ethernet::{EtherType, EthernetFrame, MacAddr, ETHERNET_HEADER_LEN};
use crate::ipv4::{IpProtocol, Ipv4Header, IPV4_HEADER_LEN};
use crate::packet::Packet;
use crate::tcp::{TcpHeader, TCP_HEADER_LEN};
use crate::udp::{UdpHeader, UDP_HEADER_LEN};
use crate::{TCP_STACK_HEADER_LEN, UDP_STACK_HEADER_LEN};
use std::net::Ipv4Addr;

/// Builds complete Ethernet/IPv4/UDP packets with valid checksums.
///
/// All fields have sensible defaults so tests can say only what they care
/// about. Sizes: the built packet is 42 bytes of headers plus the payload.
#[derive(Debug, Clone)]
pub struct UdpPacketBuilder {
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    ttl: u8,
    ident: u16,
    payload: Payload,
    fill_udp_checksum: bool,
}

impl Default for UdpPacketBuilder {
    fn default() -> Self {
        UdpPacketBuilder {
            src_mac: MacAddr::from_index(1),
            dst_mac: MacAddr::from_index(2),
            src_ip: Ipv4Addr::new(10, 0, 0, 1),
            dst_ip: Ipv4Addr::new(10, 0, 0, 2),
            src_port: 1000,
            dst_port: 2000,
            ttl: 64,
            ident: 0,
            payload: Payload::default(),
            fill_udp_checksum: true,
        }
    }
}

impl UdpPacketBuilder {
    /// Creates a builder with default addressing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the source MAC address.
    pub fn src_mac(mut self, mac: MacAddr) -> Self {
        self.src_mac = mac;
        self
    }

    /// Sets the destination MAC address.
    pub fn dst_mac(mut self, mac: MacAddr) -> Self {
        self.dst_mac = mac;
        self
    }

    /// Sets the source IPv4 address.
    pub fn src_ip(mut self, ip: Ipv4Addr) -> Self {
        self.src_ip = ip;
        self
    }

    /// Sets the destination IPv4 address.
    pub fn dst_ip(mut self, ip: Ipv4Addr) -> Self {
        self.dst_ip = ip;
        self
    }

    /// Sets the UDP source port.
    pub fn src_port(mut self, p: u16) -> Self {
        self.src_port = p;
        self
    }

    /// Sets the UDP destination port.
    pub fn dst_port(mut self, p: u16) -> Self {
        self.dst_port = p;
        self
    }

    /// Sets the IPv4 TTL.
    pub fn ttl(mut self, ttl: u8) -> Self {
        self.ttl = ttl;
        self
    }

    /// Sets the IPv4 identification field.
    pub fn ident(mut self, id: u16) -> Self {
        self.ident = id;
        self
    }

    /// Sets the UDP payload bytes.
    pub fn payload(mut self, bytes: &[u8]) -> Self {
        self.payload = Payload::Bytes(bytes.to_vec());
        self
    }

    /// Sets a payload of `len` bytes with a deterministic pattern derived
    /// from `seed` — cheap, reproducible and content-checkable. The bytes
    /// are [`pattern`]'s, written straight into the frame at build time.
    pub fn patterned_payload(mut self, len: usize, seed: u64) -> Self {
        self.payload = Payload::Pattern { len, seed };
        self
    }

    /// Sets the *total* on-wire packet size; the payload is patterned from
    /// `seed`. Panics if `size` is below the 42-byte header stack.
    ///
    /// This mirrors how the paper parameterises experiments ("384-byte
    /// packets" means total wire size, headers included).
    pub fn total_size(self, size: usize, seed: u64) -> Self {
        assert!(
            size >= UDP_STACK_HEADER_LEN,
            "packet size {size} below header stack {UDP_STACK_HEADER_LEN}"
        );
        self.patterned_payload(size - UDP_STACK_HEADER_LEN, seed)
    }

    /// Skips filling the UDP checksum (stores zero = "none").
    pub fn without_udp_checksum(mut self) -> Self {
        self.fill_udp_checksum = false;
        self
    }

    /// Builds the packet.
    pub fn build(self) -> Packet {
        let udp_len = UDP_HEADER_LEN + self.payload.len();
        let ip_len = IPV4_HEADER_LEN + udp_len;
        let total = ETHERNET_HEADER_LEN + ip_len;
        let mut bytes = vec![0u8; total];

        let mut eth = EthernetFrame::new_checked(&mut bytes[..]).expect("sized above");
        eth.set_dst(self.dst_mac);
        eth.set_src(self.src_mac);
        eth.set_ethertype(EtherType::Ipv4);

        {
            let ip_bytes = &mut bytes[ETHERNET_HEADER_LEN..];
            // Preset version/IHL and total length so the checked constructor
            // accepts the fresh buffer, then fill the remaining fields.
            ip_bytes[0] = 0x45;
            ip_bytes[2..4].copy_from_slice(&(ip_len as u16).to_be_bytes());
            let mut ip = Ipv4Header::new_checked(&mut *ip_bytes)
                .unwrap_or_else(|_| unreachable!("fresh buffer with version/ihl/len preset"));
            ip.init(self.ttl);
            ip.set_ident(self.ident);
            ip.set_protocol(IpProtocol::Udp);
            ip.set_src(self.src_ip);
            ip.set_dst(self.dst_ip);
            ip.fill_checksum();
        }

        {
            let udp_bytes = &mut bytes[ETHERNET_HEADER_LEN + IPV4_HEADER_LEN..];
            udp_bytes[4..6].copy_from_slice(&(udp_len as u16).to_be_bytes());
            let mut udp = UdpHeader::new_checked(&mut *udp_bytes).expect("length preset");
            udp.set_src_port(self.src_port);
            udp.set_dst_port(self.dst_port);
            self.payload.write(udp.payload_mut());
            if self.fill_udp_checksum {
                udp.fill_checksum(u32::from(self.src_ip), u32::from(self.dst_ip));
            }
        }

        Packet::new(bytes)
    }
}

/// Builds complete Ethernet/IPv4/TCP segments with valid checksums.
///
/// The TCP sibling of [`UdpPacketBuilder`]: 54 bytes of headers (no
/// options) plus the payload. Sequence/ack numbers and flags default to a
/// plain data segment; SYN/FIN control segments set the flags explicitly.
#[derive(Debug, Clone)]
pub struct TcpPacketBuilder {
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    ttl: u8,
    ident: u16,
    tcp_seq: u32,
    tcp_ack: u32,
    flags: u8,
    payload: Payload,
}

impl Default for TcpPacketBuilder {
    fn default() -> Self {
        TcpPacketBuilder {
            src_mac: MacAddr::from_index(1),
            dst_mac: MacAddr::from_index(2),
            src_ip: Ipv4Addr::new(10, 0, 0, 1),
            dst_ip: Ipv4Addr::new(10, 0, 0, 2),
            src_port: 1000,
            dst_port: 2000,
            ttl: 64,
            ident: 0,
            tcp_seq: 0,
            tcp_ack: 0,
            flags: TcpFlags::ACK,
            payload: Payload::default(),
        }
    }
}

/// TCP flag bit constants (byte 13 of the header).
pub struct TcpFlags;

impl TcpFlags {
    /// FIN flag.
    pub const FIN: u8 = 0x01;
    /// SYN flag.
    pub const SYN: u8 = 0x02;
    /// RST flag.
    pub const RST: u8 = 0x04;
    /// PSH flag.
    pub const PSH: u8 = 0x08;
    /// ACK flag.
    pub const ACK: u8 = 0x10;
}

impl TcpPacketBuilder {
    /// Creates a builder with default addressing (a plain ACK data segment).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the source MAC address.
    pub fn src_mac(mut self, mac: MacAddr) -> Self {
        self.src_mac = mac;
        self
    }

    /// Sets the destination MAC address.
    pub fn dst_mac(mut self, mac: MacAddr) -> Self {
        self.dst_mac = mac;
        self
    }

    /// Sets the source IPv4 address.
    pub fn src_ip(mut self, ip: Ipv4Addr) -> Self {
        self.src_ip = ip;
        self
    }

    /// Sets the destination IPv4 address.
    pub fn dst_ip(mut self, ip: Ipv4Addr) -> Self {
        self.dst_ip = ip;
        self
    }

    /// Sets the TCP source port.
    pub fn src_port(mut self, p: u16) -> Self {
        self.src_port = p;
        self
    }

    /// Sets the TCP destination port.
    pub fn dst_port(mut self, p: u16) -> Self {
        self.dst_port = p;
        self
    }

    /// Sets the IPv4 TTL.
    pub fn ttl(mut self, ttl: u8) -> Self {
        self.ttl = ttl;
        self
    }

    /// Sets the IPv4 identification field.
    pub fn ident(mut self, id: u16) -> Self {
        self.ident = id;
        self
    }

    /// Sets the TCP sequence number.
    pub fn tcp_seq(mut self, seq: u32) -> Self {
        self.tcp_seq = seq;
        self
    }

    /// Sets the TCP acknowledgement number.
    pub fn tcp_ack(mut self, ack: u32) -> Self {
        self.tcp_ack = ack;
        self
    }

    /// Sets the TCP flags byte (see [`TcpFlags`]).
    pub fn flags(mut self, flags: u8) -> Self {
        self.flags = flags;
        self
    }

    /// Sets the TCP payload bytes.
    pub fn payload(mut self, bytes: &[u8]) -> Self {
        self.payload = Payload::Bytes(bytes.to_vec());
        self
    }

    /// Sets a payload of `len` bytes patterned from `seed`.
    pub fn patterned_payload(mut self, len: usize, seed: u64) -> Self {
        self.payload = Payload::Pattern { len, seed };
        self
    }

    /// Sets the *total* on-wire packet size; the payload is patterned from
    /// `seed`. Panics if `size` is below the 54-byte header stack.
    pub fn total_size(self, size: usize, seed: u64) -> Self {
        assert!(
            size >= TCP_STACK_HEADER_LEN,
            "packet size {size} below header stack {TCP_STACK_HEADER_LEN}"
        );
        self.patterned_payload(size - TCP_STACK_HEADER_LEN, seed)
    }

    /// Builds the segment.
    pub fn build(self) -> Packet {
        let tcp_len = TCP_HEADER_LEN + self.payload.len();
        let ip_len = IPV4_HEADER_LEN + tcp_len;
        let total = ETHERNET_HEADER_LEN + ip_len;
        let mut bytes = vec![0u8; total];

        let mut eth = EthernetFrame::new_checked(&mut bytes[..]).expect("sized above");
        eth.set_dst(self.dst_mac);
        eth.set_src(self.src_mac);
        eth.set_ethertype(EtherType::Ipv4);

        {
            let ip_bytes = &mut bytes[ETHERNET_HEADER_LEN..];
            ip_bytes[0] = 0x45;
            ip_bytes[2..4].copy_from_slice(&(ip_len as u16).to_be_bytes());
            let mut ip = Ipv4Header::new_checked(&mut *ip_bytes)
                .unwrap_or_else(|_| unreachable!("fresh buffer with version/ihl/len preset"));
            ip.init(self.ttl);
            ip.set_ident(self.ident);
            ip.set_protocol(IpProtocol::Tcp);
            ip.set_src(self.src_ip);
            ip.set_dst(self.dst_ip);
            ip.fill_checksum();
        }

        {
            let tcp_bytes = &mut bytes[ETHERNET_HEADER_LEN + IPV4_HEADER_LEN..];
            tcp_bytes[12] = 5 << 4; // data offset preset for the checked view
            let mut tcp = TcpHeader::new_checked(&mut *tcp_bytes).expect("offset preset");
            tcp.init();
            tcp.set_src_port(self.src_port);
            tcp.set_dst_port(self.dst_port);
            tcp.set_seq(self.tcp_seq);
            tcp.set_ack(self.tcp_ack);
            tcp.set_flags(self.flags);
            let buf = tcp.into_inner();
            self.payload.write(&mut buf[TCP_HEADER_LEN..]);
            let mut tcp = TcpHeader::new_checked(&mut *buf).expect("offset preset");
            tcp.fill_checksum(u32::from(self.src_ip), u32::from(self.dst_ip));
        }

        Packet::new(bytes)
    }
}

/// What a builder puts after the headers: explicit bytes, or a pattern
/// recorded as `(len, seed)` and filled straight into the frame.
#[derive(Debug, Clone)]
enum Payload {
    Bytes(Vec<u8>),
    Pattern { len: usize, seed: u64 },
}

impl Default for Payload {
    fn default() -> Self {
        Payload::Bytes(Vec::new())
    }
}

impl Payload {
    fn len(&self) -> usize {
        match self {
            Payload::Bytes(b) => b.len(),
            Payload::Pattern { len, .. } => *len,
        }
    }

    /// Writes the payload into `out`, which is exactly [`Payload::len`] long.
    fn write(&self, out: &mut [u8]) {
        match self {
            Payload::Bytes(b) => out.copy_from_slice(b),
            Payload::Pattern { seed, .. } => fill_pattern(out, *seed),
        }
    }
}

/// Deterministic byte pattern used for payload content checks.
///
/// Each byte is a simple function of its index and the seed so the
/// functional-equivalence test (paper §6.2.6) can verify that Split + Merge
/// restores every payload byte. See [`fill_pattern`] for the contract.
pub fn pattern(len: usize, seed: u64) -> Vec<u8> {
    let mut out = vec![0u8; len];
    fill_pattern(&mut out, seed);
    out
}

/// Bytes per table-driven block of [`fill_pattern`].
const BLOCK: usize = 32;

/// One xorshift64 step.
const fn step(s: u64) -> u64 {
    let s = s ^ (s << 13);
    let s = s ^ (s >> 7);
    s ^ (s << 17)
}

/// The `BLOCK` pattern bytes (before the `+ i`) that follow state `s`,
/// byte `i` in byte `i % 8` of word `i / 8`, and the state after them.
const fn block(mut s: u64) -> ([u64; 4], u64) {
    let mut words = [0u64; 4];
    let mut i = 0;
    while i < BLOCK {
        s = step(s);
        words[i / 8] |= (s & 0xff) << (8 * (i % 8));
        i += 1;
    }
    (words, s)
}

/// The step is linear over GF(2), so both halves of [`block`] are fixed
/// bit matrices applied to the state. Each table holds its matrix applied
/// to byte `t` of the state holding `b`, at `[t][b]`; XORing the eight
/// byte slices a state picks applies the whole matrix. `OUT` gives a
/// block's bytes.
static OUT: [[[u64; 4]; 256]; 8] = {
    let mut table = [[[0u64; 4]; 256]; 8];
    let mut t = 0;
    while t < 8 {
        let mut b = 0;
        while b < 256 {
            table[t][b] = block((b as u64) << (8 * t)).0;
            b += 1;
        }
        t += 1;
    }
    table
};
/// The state `BLOCK` steps on, byte-sliced as [`OUT`] is.
static JUMP: [[u64; 256]; 8] = {
    let mut table = [[0u64; 256]; 8];
    let mut t = 0;
    while t < 8 {
        let mut b = 0;
        while b < 256 {
            table[t][b] = block((b as u64) << (8 * t)).1;
            b += 1;
        }
        t += 1;
    }
    table
};

fn jump(s: u64) -> u64 {
    let b = s.to_le_bytes();
    (0..8).fold(0, |acc, t| acc ^ JUMP[t][usize::from(b[t])])
}

/// Bytewise wrapping add of two packed `u64`s (no carry between bytes).
fn add_bytes(a: u64, b: u64) -> u64 {
    const HIGH: u64 = 0x8080_8080_8080_8080;
    ((a & !HIGH) + (b & !HIGH)) ^ ((a ^ b) & HIGH)
}

/// Fills `out` with the deterministic payload pattern of `seed`.
///
/// The contract: with `s₀ = max(seed · 0x9E3779B97F4A7C15, 1)` and `sᵢ₊₁`
/// one xorshift64 (13, 7, 17) step after `sᵢ`, byte `i` is the low byte of
/// `sᵢ₊₁` plus `i`, both mod 256. The state chain is linear, so the fill
/// runs it a `BLOCK` of bytes at a time by table lookup: a block's 32
/// bytes are the XOR of the eight `OUT` rows its state's bytes pick, plus
/// `i` added eight bytes at a time, and the next block's state is one
/// [`jump`] on. Under one block is left at the end; it runs serially.
pub fn fill_pattern(out: &mut [u8], seed: u64) {
    const SPLAT: u64 = 0x0101_0101_0101_0101;
    const RAMP: u64 = 0x0706_0504_0302_0100;
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    let whole = out.len() - out.len() % BLOCK;
    let (blocks, tail) = out.split_at_mut(whole);
    for (n, run) in blocks.chunks_exact_mut(BLOCK).enumerate() {
        let mut words = [0u64; 4];
        for (rows, b) in OUT.iter().zip(state.to_le_bytes()) {
            words.iter_mut().zip(&rows[usize::from(b)]).for_each(|(w, r)| *w ^= r);
        }
        for (k, (bytes, word)) in run.chunks_exact_mut(8).zip(words).enumerate() {
            // The offset is a multiple of 8, so its low byte plus 0..8
            // never carries: the `+ i` for eight bytes at once.
            let index = u64::from((n * BLOCK + 8 * k) as u8) * SPLAT + RAMP;
            bytes.copy_from_slice(&add_bytes(word, index).to_le_bytes());
        }
        state = jump(state);
    }
    for (i, byte) in tail.iter_mut().enumerate() {
        state = step(state);
        *byte = (state as u8).wrapping_add((whole + i) as u8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::ParsedPacket;

    #[test]
    fn build_and_reparse() {
        let pkt = UdpPacketBuilder::new()
            .src_mac(MacAddr::from_index(7))
            .dst_mac(MacAddr::from_index(8))
            .src_ip(Ipv4Addr::new(172, 16, 0, 1))
            .dst_ip(Ipv4Addr::new(172, 16, 0, 2))
            .src_port(999)
            .dst_port(443)
            .ttl(12)
            .ident(0x1001)
            .payload(b"payloadpark")
            .build();
        let eth = EthernetFrame::new_checked(pkt.bytes()).unwrap();
        assert_eq!(eth.src(), MacAddr::from_index(7));
        assert_eq!(eth.dst(), MacAddr::from_index(8));
        let ip = Ipv4Header::new_checked(eth.payload()).unwrap();
        assert!(ip.verify_checksum());
        assert_eq!(ip.ttl(), 12);
        assert_eq!(ip.ident(), 0x1001);
        let udp = UdpHeader::new_checked(ip.payload()).unwrap();
        assert_eq!(udp.payload(), b"payloadpark");
        assert!(udp.verify_checksum(u32::from(ip.src()), u32::from(ip.dst())));
    }

    #[test]
    fn total_size_yields_exact_wire_length() {
        for size in [42usize, 64, 256, 384, 512, 1024, 1492] {
            let pkt = UdpPacketBuilder::new().total_size(size, 3).build();
            assert_eq!(pkt.len(), size);
            let parsed = ParsedPacket::parse(pkt.bytes()).unwrap();
            assert_eq!(parsed.wire_len(), size);
            assert_eq!(parsed.udp_payload_len(), size - 42);
        }
    }

    #[test]
    #[should_panic(expected = "below header stack")]
    fn total_size_below_headers_panics() {
        let _ = UdpPacketBuilder::new().total_size(41, 0);
    }

    /// The pattern contract run as the serial state chain it defines.
    fn pattern_spec(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
        (0..len)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state as u8).wrapping_add(i as u8)
            })
            .collect()
    }

    #[test]
    fn fill_equals_the_serial_spec_at_every_length() {
        // Every payload length up to a whole frame: each count of whole
        // blocks with each serial tail, for five fixed seeds and 32 drawn
        // from splitmix64.
        let mut z = 0u64;
        let drawn = std::iter::repeat_with(move || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let x = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        });
        for seed in [0, 1, 7, 0x9E37_79B9_7F4A_7C15, u64::MAX].into_iter().chain(drawn.take(32)) {
            let spec = pattern_spec(1600, seed);
            for len in 0..=spec.len() {
                let mut out = vec![0xAA; len];
                fill_pattern(&mut out, seed);
                assert_eq!(out, spec[..len], "len {len} seed {seed:#x}");
            }
        }
    }

    #[test]
    fn every_table_row_equals_the_serial_spec() {
        // The seed multiplier is odd, so each state is some seed's first.
        // A state with one nonzero byte picks one nonzero `OUT` and `JUMP`
        // row, so two blocks from it check that row pair alone.
        const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
        let inverse =
            (0..5).fold(GOLDEN, |x, _| x.wrapping_mul(2u64.wrapping_sub(GOLDEN.wrapping_mul(x))));
        assert_eq!(GOLDEN.wrapping_mul(inverse), 1);
        for t in 0..8 {
            for b in 1..256u64 {
                let seed = (b << (8 * t)).wrapping_mul(inverse);
                assert_eq!(
                    pattern(2 * BLOCK, seed),
                    pattern_spec(2 * BLOCK, seed),
                    "row [{t}][{b}]"
                );
            }
        }
    }

    /// The payload of a built packet whose checksums verify.
    fn checked_payload(pkt: Packet) -> Vec<u8> {
        let parsed = ParsedPacket::parse(pkt.bytes()).unwrap();
        assert!(parsed.verify_checksums());
        parsed.payload().to_vec()
    }

    #[test]
    fn the_last_payload_call_wins_and_checksums_verify() {
        let bytes = [9u8; 100];
        let u = UdpPacketBuilder::new();
        assert_eq!(checked_payload(u.clone().total_size(300, 4).payload(&bytes).build()), bytes);
        assert_eq!(checked_payload(u.payload(&bytes).total_size(300, 4).build()), pattern(258, 4));
        let t = TcpPacketBuilder::new();
        assert_eq!(checked_payload(t.clone().total_size(300, 4).payload(&bytes).build()), bytes);
        assert_eq!(checked_payload(t.payload(&bytes).total_size(300, 4).build()), pattern(246, 4));
    }

    #[test]
    fn pattern_is_deterministic_and_seed_sensitive() {
        assert_eq!(pattern(64, 5), pattern(64, 5));
        assert_ne!(pattern(64, 5), pattern(64, 6));
        assert_eq!(pattern(0, 1).len(), 0);
    }

    #[test]
    fn tcp_build_and_reparse() {
        let pkt = TcpPacketBuilder::new()
            .src_ip(Ipv4Addr::new(172, 16, 0, 1))
            .dst_ip(Ipv4Addr::new(172, 16, 0, 2))
            .src_port(443)
            .dst_port(51000)
            .tcp_seq(0x01020304)
            .tcp_ack(0x0A0B0C0D)
            .flags(TcpFlags::SYN | TcpFlags::ACK)
            .payload(b"payloadpark")
            .build();
        let eth = EthernetFrame::new_checked(pkt.bytes()).unwrap();
        let ip = Ipv4Header::new_checked(eth.payload()).unwrap();
        assert!(ip.verify_checksum());
        assert_eq!(u8::from(ip.protocol()), 6);
        let tcp = TcpHeader::new_checked(ip.payload()).unwrap();
        assert_eq!(tcp.src_port(), 443);
        assert_eq!(tcp.seq(), 0x01020304);
        assert_eq!(tcp.ack(), 0x0A0B0C0D);
        assert!(tcp.is_syn());
        assert_eq!(tcp.payload(), b"payloadpark");
        assert!(tcp.verify_checksum(u32::from(ip.src()), u32::from(ip.dst())));
    }

    #[test]
    fn tcp_total_size_yields_exact_wire_length() {
        for size in [54usize, 64, 256, 384, 512, 1024, 1492] {
            let pkt = TcpPacketBuilder::new().total_size(size, 3).build();
            assert_eq!(pkt.len(), size);
            let parsed = ParsedPacket::parse(pkt.bytes()).unwrap();
            assert_eq!(parsed.wire_len(), size);
            assert_eq!(parsed.udp_payload_len(), size - 54);
            assert_eq!(parsed.five_tuple().protocol, 6);
        }
    }

    #[test]
    #[should_panic(expected = "below header stack")]
    fn tcp_total_size_below_headers_panics() {
        let _ = TcpPacketBuilder::new().total_size(53, 0);
    }

    #[test]
    fn without_udp_checksum_stores_zero() {
        let pkt = UdpPacketBuilder::new().payload(&[1, 2, 3]).without_udp_checksum().build();
        let parsed = ParsedPacket::parse(pkt.bytes()).unwrap();
        let off = parsed.offsets().transport;
        let udp = UdpHeader::new_checked(&pkt.bytes()[off..]).unwrap();
        assert_eq!(udp.checksum_field(), 0);
        assert!(udp.verify_checksum(0, 0)); // zero means "not computed"
    }
}
