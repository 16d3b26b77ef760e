//! Adversity appliers for engine waves.
//!
//! [`pp_netsim::adversity`] defines *what* happens to a packet (a pure
//! function of `(seed, leg, seq)`); this module applies those decisions to
//! [`BatchPacket`] waves — the currency of the conformance drive
//! ([`crate::conformance`]) over every path. Because every decision is
//! seq-keyed and reordering sorts by `seq + displacement`, applying a
//! profile to the whole wave and then sharding it is indistinguishable
//! from applying it per shard (or per batch): the same packets are lost,
//! duplicated, truncated and displaced either way, which is what lets the
//! equivalence oracle compare scalar and sharded runs under identical
//! misfortune.

use pp_netsim::adversity::{AdversityProfile, FaultTally, Leg};
use pp_packet::MacAddr;
use pp_rmt::switch::BatchPacket;

pub use pp_netsim::adversity::internal_leg_protected_prefix;

/// Applies one leg's scenario to a wave of [`BatchPacket`]s.
pub fn apply_leg_wave(
    adv: &AdversityProfile,
    leg: Leg,
    wave: Vec<BatchPacket>,
    tally: &mut FaultTally,
) -> Vec<BatchPacket> {
    adv.apply_leg(leg, wave, |p| p.seq, |p| &mut p.bytes, internal_leg_protected_prefix, tally)
}

/// The full adverse NF round trip for a split-side output wave: the
/// switch → NF leg misbehaves, the MAC-swap NF readdresses the survivors
/// to `sink`, and the NF → switch leg misbehaves again. Returns the wave
/// to feed back into the merge side.
pub fn adverse_return_wave(
    adv: &AdversityProfile,
    outs: Vec<BatchPacket>,
    sink: MacAddr,
    tally: &mut FaultTally,
) -> Vec<BatchPacket> {
    let mut back = apply_leg_wave(adv, Leg::ToNf, outs, tally);
    for pkt in &mut back {
        if pkt.bytes.len() >= 6 {
            pkt.bytes[0..6].copy_from_slice(&sink.0);
        }
    }
    apply_leg_wave(adv, Leg::FromNf, back, tally)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_netsim::adversity::LegProfile;
    use pp_packet::builder::UdpPacketBuilder;
    use pp_packet::ppark::PAYLOADPARK_HEADER_LEN;
    use pp_rmt::PortId;

    fn wave(n: u64) -> Vec<BatchPacket> {
        (0..n)
            .map(|seq| BatchPacket {
                bytes: UdpPacketBuilder::new().total_size(300, seq).build().into_bytes(),
                port: PortId((seq % 4) as u16),
                seq,
            })
            .collect()
    }

    #[test]
    fn protected_prefix_covers_headers_and_shim() {
        let pkt = UdpPacketBuilder::new().total_size(300, 1).build().into_bytes();
        assert_eq!(internal_leg_protected_prefix(&pkt), 42 + PAYLOADPARK_HEADER_LEN);
        assert_eq!(internal_leg_protected_prefix(&[0u8; 9]), 9, "garbage fully protected");
    }

    #[test]
    fn return_wave_readdresses_survivors_to_the_sink() {
        let adv = AdversityProfile {
            seed: 8,
            to_nf: LegProfile::loss(0.3),
            from_nf: LegProfile { duplicate: 0.2, ..Default::default() },
        };
        let sink = MacAddr::from_index(200);
        let mut tally = FaultTally::default();
        let back = adverse_return_wave(&adv, wave(300), sink, &mut tally);
        assert!(tally.dropped > 50, "{tally:?}");
        assert!(tally.duplicated > 20, "{tally:?}");
        assert_eq!(back.len() as u64, 300 - tally.dropped + tally.duplicated);
        assert!(back.iter().all(|p| p.bytes[0..6] == sink.0));
        // Replayable: the same seed produces the identical wave.
        let mut tally2 = FaultTally::default();
        let back2 = adverse_return_wave(&adv, wave(300), sink, &mut tally2);
        assert_eq!(back, back2);
        assert_eq!(tally, tally2);
    }
}
