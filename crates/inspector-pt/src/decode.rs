//! The packet decoder: the software half integrated into `perf` (the Intel
//! Processor Trace Decoder Library in the paper).

use std::fmt;

use crate::branch::BranchEvent;
use crate::packet::{
    Packet, TntBits, FUP_BASE, IP_BYTES_BY_CODE, OPC_ESCAPE, OPC_LONG_TNT, OPC_MODE, OPC_OVF,
    OPC_PAD, OPC_PSB, OPC_PSBEND, TIP_BASE, TIP_PGD_BASE, TIP_PGE_BASE,
};

/// A malformed or truncated packet stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The stream ended in the middle of a packet.
    Truncated {
        /// Offset at which the truncated packet started.
        offset: usize,
    },
    /// An unknown header byte was encountered.
    UnknownPacket {
        /// Offset of the bad byte.
        offset: usize,
        /// The byte value.
        byte: u8,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { offset } => {
                write!(f, "packet stream truncated at offset {offset}")
            }
            DecodeError::UnknownPacket { offset, byte } => {
                write!(f, "unknown packet header {byte:#04x} at offset {offset}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Decodes PT packet bytes back into packets and branch events.
#[derive(Debug)]
pub struct PacketDecoder<'a> {
    data: &'a [u8],
    pos: usize,
    last_ip: u64,
}

impl<'a> PacketDecoder<'a> {
    /// Creates a decoder over a captured byte stream.
    pub fn new(data: &'a [u8]) -> Self {
        Self::with_context(data, 0)
    }

    /// Creates a decoder over a byte stream that continues an earlier one:
    /// `last_ip` seeds the last-IP decompression context. This is how the
    /// streaming decoder ([`crate::stream::StreamingDecoder`]) carries the
    /// IP context across AUX chunk boundaries.
    pub fn with_context(data: &'a [u8], last_ip: u64) -> Self {
        PacketDecoder {
            data,
            pos: 0,
            last_ip,
        }
    }

    /// Current byte offset into the stream.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// The current last-IP decompression context (what the next IP packet
    /// will be decompressed against).
    pub fn last_ip(&self) -> u64 {
        self.last_ip
    }

    /// Decodes the next packet, or `None` at end of stream.
    ///
    /// The packet is read from a 16-byte window at the current position (a
    /// zero-padded copy when fewer bytes remain): the header, and for an
    /// escape the second byte, give the packet's length, one check against
    /// the bytes remaining reports truncation, and payloads are shifted out
    /// of the window. A failed call leaves the position and the IP context
    /// untouched.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncation or unknown headers.
    #[inline]
    pub fn next_packet(&mut self) -> Result<Option<Packet>, DecodeError> {
        let rest = &self.data[self.pos..];
        let Some(&header) = rest.first() else {
            return Ok(None);
        };
        let window = window(rest);
        let last_ip = self.last_ip;
        // The packet's length, the packet (or the byte that makes it
        // unknown) and the IP context after it.
        let (len, packet, last_ip) = match header {
            OPC_PAD => (1, Ok(Packet::Pad), last_ip),
            OPC_ESCAPE => match (window >> 8) as u8 {
                // PSB and OVF reset the IP context; a PSB takes as many of
                // its eight pairs as are present (at least this one).
                OPC_PSB => (2 * psb_pairs(window), Ok(Packet::Psb), 0),
                OPC_PSBEND => (2, Ok(Packet::PsbEnd), last_ip),
                OPC_OVF => (2, Ok(Packet::Overflow), 0),
                OPC_LONG_TNT => {
                    let payload = (window >> 16) as u64 & 0xFFFF_FFFF_FFFF;
                    let bits = TntBits::from_payload(payload);
                    (8, Ok(Packet::Tnt { bits }), last_ip)
                }
                second => (2, Err(second), last_ip),
            },
            OPC_MODE => {
                let payload = (window >> 8) as u8;
                (2, Ok(Packet::Mode { payload }), last_ip)
            }
            _ if header & 1 == 0 => {
                let bits = TntBits::from_payload(u64::from(header >> 1));
                (1, Ok(Packet::Tnt { bits }), last_ip)
            }
            _ => match IP_BYTES_BY_CODE.get(usize::from(header >> 5)) {
                None => (1, Err(header), last_ip),
                Some(&n) => {
                    // Last-IP compression: the payload's `n` bytes replace
                    // the low bytes of the previous IP.
                    let low = ((1u128 << (8 * n)) - 1) as u64;
                    let ip = (last_ip & !low) | ((window >> 8) as u64 & low);
                    let packet = match header & 0x1F {
                        TIP_BASE => Ok(Packet::Tip { ip }),
                        TIP_PGE_BASE => Ok(Packet::TipPge { ip }),
                        TIP_PGD_BASE => Ok(Packet::TipPgd { ip }),
                        FUP_BASE => Ok(Packet::Fup { ip }),
                        _ => Err(header),
                    };
                    (1 + n, packet, ip)
                }
            },
        };
        let offset = self.pos;
        if len > rest.len() {
            return Err(DecodeError::Truncated { offset });
        }
        let packet = packet.map_err(|byte| DecodeError::UnknownPacket { offset, byte })?;
        self.pos += len;
        self.last_ip = last_ip;
        Ok(Some(packet))
    }

    /// Decodes the remaining stream into branch events (the form consumed by
    /// the provenance recorder).
    ///
    /// TNT bits become [`BranchEvent::Conditional`]; TIP packets become
    /// [`BranchEvent::Indirect`] (returns are indistinguishable from other
    /// indirect transfers at this level, as with real PT without
    /// `ret`-compression disabled); TIP.PGE/PGD become trace start/stop
    /// markers and OVF becomes [`BranchEvent::Overflow`].
    ///
    /// # Errors
    ///
    /// Returns the first [`DecodeError`] encountered.
    pub fn decode_events(&mut self) -> Result<Vec<BranchEvent>, DecodeError> {
        let mut out = Vec::new();
        while let Some(p) = self.next_packet()? {
            packet_events(p, &mut |e| out.push(e));
        }
        Ok(out)
    }
}

/// The 16 bytes at the start of `rest` as one little-endian word (two
/// `u64` halves), zero-padded past the end of `rest`. Padding never
/// completes a packet: `next_packet` checks every length against
/// `rest.len()`, and zeros match no PSB pair.
#[inline(always)]
fn window(rest: &[u8]) -> u128 {
    match rest.first_chunk::<16>() {
        Some(bytes) => u128::from_le_bytes(*bytes),
        None => padded(rest),
    }
}

/// [`window`] of fewer than 16 bytes: shifted in one at a time, so the
/// bytes past the end read as zeros.
#[cold]
fn padded(rest: &[u8]) -> u128 {
    rest.iter()
        .rev()
        .fold(0, |window, &byte| window << 8 | u128::from(byte))
}

/// The number of `0x02 0x82` pairs the window starts with, at most eight.
#[inline(always)]
fn psb_pairs(window: u128) -> usize {
    const PAIRS: u128 = (u128::MAX / 0xFFFF) * ((OPC_PSB as u128) << 8 | OPC_ESCAPE as u128);
    ((window ^ PAIRS).trailing_zeros() / 16) as usize
}

/// Feeds the branch events `packet` contributes to a decoded event stream
/// into `sink` — the single packet→event mapping shared by
/// [`PacketDecoder::decode_events`] and the streaming decoder
/// ([`crate::stream::StreamingDecoder`]), so the two paths cannot diverge.
pub fn packet_events(packet: Packet, sink: &mut impl FnMut(BranchEvent)) {
    match packet {
        Packet::Tnt { bits } => {
            for taken in bits {
                sink(BranchEvent::Conditional { taken });
            }
        }
        Packet::Tip { ip } => sink(BranchEvent::Indirect { target: ip }),
        Packet::TipPge { ip } => sink(BranchEvent::TraceStart { ip }),
        Packet::TipPgd { ip } => sink(BranchEvent::TraceStop { ip }),
        Packet::Overflow => sink(BranchEvent::Overflow),
        Packet::Pad | Packet::Psb | Packet::PsbEnd | Packet::Fup { .. } | Packet::Mode { .. } => {}
    }
}

/// What one packet adds to a decoded stream's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PacketCounts {
    /// Events [`packet_events`] yields for the packet.
    pub events: u64,
    /// Those of them that are retired branches (conditional + indirect).
    pub branches: u64,
    /// Those of them that are trace gaps ([`BranchEvent::Overflow`]).
    pub gaps: u64,
}

/// The counters [`packet_events`] would produce for `packet`, computed per
/// packet rather than per event — how the streaming decoder accounts in
/// both of its modes, so counting mode keeps recording mode's counters by
/// construction.
pub(crate) fn packet_counts(packet: Packet) -> PacketCounts {
    let branches = match packet {
        Packet::Tnt { bits } => bits.len() as u64,
        Packet::Tip { .. } => 1,
        _ => 0,
    };
    let markers = matches!(
        packet,
        Packet::TipPge { .. } | Packet::TipPgd { .. } | Packet::Overflow
    );
    PacketCounts {
        events: branches + u64::from(markers),
        branches,
        gaps: u64::from(packet == Packet::Overflow),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::PacketEncoder;
    use crate::packet::{ip_decompress, LONG_TNT_CAPACITY};
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The byte-at-a-time grammar the word-window
    /// [`PacketDecoder::next_packet`] replaced: the reference it is
    /// compared with packet by packet.
    fn reference_next_packet(dec: &mut PacketDecoder<'_>) -> Result<Option<Packet>, DecodeError> {
        if dec.pos >= dec.data.len() {
            return Ok(None);
        }
        let start = dec.pos;
        let byte = dec.data[dec.pos];

        if byte == OPC_PAD {
            dec.pos += 1;
            return Ok(Some(Packet::Pad));
        }
        if byte == OPC_ESCAPE {
            let second = *dec
                .data
                .get(dec.pos + 1)
                .ok_or(DecodeError::Truncated { offset: start })?;
            match second {
                OPC_PSB => {
                    let mut consumed = 0;
                    while dec.pos + 1 < dec.data.len()
                        && dec.data[dec.pos] == OPC_ESCAPE
                        && dec.data[dec.pos + 1] == OPC_PSB
                        && consumed < 8
                    {
                        dec.pos += 2;
                        consumed += 1;
                    }
                    dec.last_ip = 0;
                    return Ok(Some(Packet::Psb));
                }
                OPC_PSBEND => {
                    dec.pos += 2;
                    return Ok(Some(Packet::PsbEnd));
                }
                OPC_OVF => {
                    dec.pos += 2;
                    dec.last_ip = 0;
                    return Ok(Some(Packet::Overflow));
                }
                OPC_LONG_TNT => {
                    if dec.pos + 8 > dec.data.len() {
                        return Err(DecodeError::Truncated { offset: start });
                    }
                    let mut payload = [0u8; 8];
                    payload[..6].copy_from_slice(&dec.data[dec.pos + 2..dec.pos + 8]);
                    dec.pos += 8;
                    return Ok(Some(Packet::Tnt {
                        bits: TntBits::from_payload(u64::from_le_bytes(payload)),
                    }));
                }
                _ => {
                    return Err(DecodeError::UnknownPacket {
                        offset: start,
                        byte: second,
                    })
                }
            }
        }
        if byte == OPC_MODE {
            let payload = *dec
                .data
                .get(dec.pos + 1)
                .ok_or(DecodeError::Truncated { offset: start })?;
            dec.pos += 2;
            return Ok(Some(Packet::Mode { payload }));
        }
        if byte & 1 == 0 {
            dec.pos += 1;
            return Ok(Some(Packet::Tnt {
                bits: TntBits::from_payload((byte >> 1) as u64),
            }));
        }
        let base = byte & 0x1F;
        let code = byte >> 5;
        let nbytes =
            IP_BYTES_BY_CODE
                .get(code as usize)
                .copied()
                .ok_or(DecodeError::UnknownPacket {
                    offset: start,
                    byte,
                })?;
        if dec.pos + 1 + nbytes > dec.data.len() {
            return Err(DecodeError::Truncated { offset: start });
        }
        let payload = &dec.data[dec.pos + 1..dec.pos + 1 + nbytes];
        let ip = ip_decompress(dec.last_ip, code, payload);
        let packet = match base {
            TIP_BASE => Packet::Tip { ip },
            TIP_PGE_BASE => Packet::TipPge { ip },
            TIP_PGD_BASE => Packet::TipPgd { ip },
            FUP_BASE => Packet::Fup { ip },
            _ => {
                return Err(DecodeError::UnknownPacket {
                    offset: start,
                    byte,
                })
            }
        };
        dec.pos += 1 + nbytes;
        dec.last_ip = ip;
        Ok(Some(packet))
    }

    /// Walks `bytes` with `next_packet` and the reference side by side from
    /// the IP context `last_ip`, asserting the same packet or error (offset
    /// included), position and context after every step. After an error
    /// both skip the bad byte, as a resynchronising reader would, so an
    /// arbitrary byte soup is compared to its end. Returns the steps taken.
    fn assert_matches_reference(bytes: &[u8], last_ip: u64) -> usize {
        let mut dec = PacketDecoder::with_context(bytes, last_ip);
        let mut reference = PacketDecoder::with_context(bytes, last_ip);
        let mut steps = 0;
        loop {
            let got = dec.next_packet();
            let want = reference_next_packet(&mut reference);
            assert_eq!(got, want, "at {} of {bytes:02x?}", reference.pos);
            assert_eq!(dec.position(), reference.pos, "{bytes:02x?}");
            assert_eq!(dec.last_ip(), reference.last_ip, "{bytes:02x?}");
            steps += 1;
            match got {
                Ok(Some(_)) => {}
                Ok(None) => return steps,
                Err(_) => {
                    dec.pos += 1;
                    reference.pos += 1;
                }
            }
        }
    }

    /// The start of a packet of every kind: each IP code 0–7 under the four
    /// IP bases and an unknown one, every escape second byte, MODE, PAD, a
    /// short TNT and a PSB run.
    fn packet_heads() -> Vec<Vec<u8>> {
        let mut heads = Vec::new();
        for code in 0..8u8 {
            for base in [TIP_BASE, TIP_PGE_BASE, TIP_PGD_BASE, FUP_BASE, 0x03] {
                heads.push(vec![code << 5 | base]);
            }
        }
        heads.extend((0..=u8::MAX).map(|second| vec![OPC_ESCAPE, second]));
        heads.extend([vec![OPC_MODE], vec![OPC_PAD], vec![0b0000_1010]]);
        // A PSB run longer than one PSB, cut at every pair and between.
        heads.push([OPC_ESCAPE, OPC_PSB].repeat(9));
        heads
    }

    proptest! {
        #[test]
        fn word_window_matches_the_reference_on_arbitrary_bytes(
            data in vec(any::<u8>(), 0..512),
            last_ip in any::<u64>(),
        ) {
            assert_matches_reference(&data, last_ip);
        }

        #[test]
        fn word_window_matches_the_reference_on_well_formed_streams(
            seeds in vec(any::<u64>(), 1..200),
            psb_interval in 0usize..128,
        ) {
            let mut enc = PacketEncoder::with_psb_interval(psb_interval);
            enc.begin(0x40_0000);
            for seed in seeds {
                enc.branch(&match seed % 4 {
                    0 => BranchEvent::Indirect { target: seed >> 2 },
                    1 => BranchEvent::Indirect { target: 0x40_0000 + (seed >> 2) % 0x1_0000 },
                    _ => BranchEvent::Conditional { taken: seed & 4 != 0 },
                });
            }
            let bytes = enc.finish();
            let steps = assert_matches_reference(&bytes, 0);
            // A clean stream ends in `None` without an error on the way.
            prop_assert!(PacketDecoder::new(&bytes).decode_events().is_ok());
            prop_assert!(steps > 1);
        }

        #[test]
        fn every_header_matches_the_reference_near_the_end(
            filler in vec(any::<u8>(), 32),
            last_ip in any::<u64>(),
        ) {
            // Each header starts 0–16 bytes before the end, so every
            // packet is cut at every length, and the zero-padded window
            // must report each cut as the reference does.
            for head in packet_heads() {
                for before_end in 0..=16 {
                    let mut bytes = vec![0x0A; 3];
                    bytes.extend_from_slice(&head);
                    bytes.extend_from_slice(&filler);
                    bytes.truncate(3 + before_end);
                    assert_matches_reference(&bytes, last_ip);
                }
            }
        }
    }

    fn roundtrip(events: &[BranchEvent]) -> Vec<BranchEvent> {
        let mut enc = PacketEncoder::new();
        for e in events {
            enc.branch(e);
        }
        let bytes = enc.drain();
        PacketDecoder::new(&bytes).decode_events().unwrap()
    }

    #[test]
    fn conditional_roundtrip_preserves_order_and_direction() {
        let events: Vec<BranchEvent> = (0..20)
            .map(|i| BranchEvent::Conditional { taken: i % 3 == 0 })
            .collect();
        assert_eq!(roundtrip(&events), events);
    }

    #[test]
    fn indirect_roundtrip_preserves_targets() {
        let events = vec![
            BranchEvent::Indirect { target: 0x40_1000 },
            BranchEvent::Indirect { target: 0x40_1040 },
            BranchEvent::Indirect {
                target: 0x7fff_ffff_1234,
            },
            BranchEvent::Indirect { target: 0x40_1040 },
        ];
        assert_eq!(roundtrip(&events), events);
    }

    #[test]
    fn mixed_stream_roundtrip() {
        let mut events = Vec::new();
        for i in 0..100u64 {
            if i % 7 == 0 {
                events.push(BranchEvent::Indirect {
                    target: 0x400000 + i * 16,
                });
            } else {
                events.push(BranchEvent::Conditional { taken: i % 2 == 0 });
            }
        }
        assert_eq!(roundtrip(&events), events);
    }

    #[test]
    fn returns_decode_as_indirect() {
        let decoded = roundtrip(&[BranchEvent::Return { target: 0x1234 }]);
        assert_eq!(decoded, vec![BranchEvent::Indirect { target: 0x1234 }]);
    }

    #[test]
    fn full_trace_with_begin_and_finish_decodes() {
        let mut enc = PacketEncoder::new();
        enc.begin(0x400000);
        for i in 0..10 {
            enc.branch(&BranchEvent::Conditional { taken: i % 2 == 0 });
        }
        let bytes = enc.finish();
        let mut dec = PacketDecoder::new(&bytes);
        let packets: Vec<Packet> = std::iter::from_fn(|| dec.next_packet().unwrap()).collect();
        assert_eq!(packets[0].mnemonic(), "PSB");
        assert!(packets.iter().any(|p| p.mnemonic() == "TIP.PGE"));
        assert!(packets.iter().any(|p| p.mnemonic() == "TNT"));
        assert!(packets.iter().any(|p| p.mnemonic() == "TIP.PGD"));
    }

    #[test]
    fn overflow_marker_survives_roundtrip() {
        let decoded = roundtrip(&[
            BranchEvent::Conditional { taken: true },
            BranchEvent::Overflow,
            BranchEvent::Conditional { taken: false },
        ]);
        assert_eq!(
            decoded,
            vec![
                BranchEvent::Conditional { taken: true },
                BranchEvent::Overflow,
                BranchEvent::Conditional { taken: false },
            ]
        );
    }

    #[test]
    fn truncated_tip_is_an_error() {
        let mut enc = PacketEncoder::new();
        enc.branch(&BranchEvent::Indirect {
            target: 0xdead_beef_f00d,
        });
        let mut bytes = enc.drain();
        bytes.truncate(bytes.len() - 2);
        let err = PacketDecoder::new(&bytes).decode_events().unwrap_err();
        assert!(matches!(err, DecodeError::Truncated { .. }));
        assert!(err.to_string().contains("truncated"));
    }

    #[test]
    fn unknown_escape_is_an_error() {
        let bytes = [OPC_ESCAPE, 0x55];
        let err = PacketDecoder::new(&bytes).decode_events().unwrap_err();
        assert!(matches!(err, DecodeError::UnknownPacket { .. }));
    }

    #[test]
    fn failed_packet_leaves_decoder_state_untouched() {
        // An IP-family header with a valid ipbytes code but an unknown
        // base (0x2F: code 1, base 0x0F) must error without advancing the
        // position or polluting the last-IP context.
        let mut enc = PacketEncoder::new();
        enc.branch(&BranchEvent::Indirect {
            target: 0x1234_5678,
        });
        let mut bytes = enc.drain();
        let good_len = bytes.len();
        bytes.extend_from_slice(&[0x2F, 0xAA, 0xBB]);
        let mut dec = PacketDecoder::new(&bytes);
        assert!(dec.next_packet().unwrap().is_some());
        let (pos, ip) = (dec.position(), dec.last_ip());
        assert_eq!(pos, good_len);
        assert_eq!(ip, 0x1234_5678);
        let err = dec.next_packet().unwrap_err();
        assert!(matches!(err, DecodeError::UnknownPacket { byte: 0x2F, .. }));
        assert_eq!(dec.position(), pos, "failed packet must not consume");
        assert_eq!(dec.last_ip(), ip, "failed packet must not touch context");
    }

    #[test]
    fn empty_stream_decodes_to_nothing() {
        assert!(PacketDecoder::new(&[]).decode_events().unwrap().is_empty());
    }

    /// The `Vec<bool>` TNT unpacker the packed [`TntBits`] replaced: the
    /// reference its bit order and length are checked against.
    fn unpack_tnt_vec(value: u64) -> Vec<bool> {
        if value == 0 {
            return Vec::new();
        }
        let stop = 63 - value.leading_zeros() as usize;
        (0..stop).map(|i| value & (1 << i) != 0).collect()
    }

    /// The bits of the single TNT packet `bytes` decodes to.
    fn decoded_tnt(bytes: &[u8]) -> Vec<bool> {
        let mut dec = PacketDecoder::new(bytes);
        let Some(Packet::Tnt { bits }) = dec.next_packet().unwrap() else {
            panic!("{bytes:02x?} is not a TNT packet");
        };
        assert_eq!(dec.position(), bytes.len());
        bits.into_iter().collect()
    }

    #[test]
    fn packed_tnt_bits_match_the_vec_bool_unpacker() {
        // Every short-TNT header byte: even, and neither PAD (0x00) nor the
        // escape (0x02, which would be a TNT of zero branches).
        for byte in (4..=u8::MAX).step_by(2) {
            assert_eq!(
                decoded_tnt(&[byte]),
                unpack_tnt_vec((byte >> 1) as u64),
                "short TNT {byte:#04x}"
            );
        }
        // Long TNT payloads of every length, random bits below the stop bit.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for len in 1..=LONG_TNT_CAPACITY {
            for _ in 0..64 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let payload = (state & ((1 << len) - 1)) | 1 << len;
                let mut bytes = vec![OPC_ESCAPE, OPC_LONG_TNT];
                bytes.extend_from_slice(&payload.to_le_bytes()[..6]);
                let bits = decoded_tnt(&bytes);
                assert_eq!(bits.len(), len);
                assert_eq!(bits, unpack_tnt_vec(payload), "payload {payload:#x}");
            }
        }
        // The all-zero payload carries no stop bit and no branches.
        let zero = [OPC_ESCAPE, OPC_LONG_TNT, 0, 0, 0, 0, 0, 0];
        assert_eq!(decoded_tnt(&zero), unpack_tnt_vec(0));
        assert!(TntBits::from_payload(0).is_empty());
    }

    #[test]
    fn packet_counts_match_the_events_of_every_packet_variant() {
        let mut packets = vec![
            Packet::Pad,
            Packet::Psb,
            Packet::PsbEnd,
            Packet::Overflow,
            Packet::Tip { ip: 0x40_1000 },
            Packet::TipPge { ip: 0x40_1000 },
            Packet::TipPgd { ip: 0x40_1000 },
            Packet::Fup { ip: 0x40_1000 },
            Packet::Mode { payload: 1 },
        ];
        for payload in [0, 1, 0b10, 0b1101, 0x7F, 1 << 47, (1 << 48) - 1] {
            packets.push(Packet::Tnt {
                bits: TntBits::from_payload(payload),
            });
        }
        for packet in packets {
            let mut expected = PacketCounts::default();
            packet_events(packet, &mut |event| {
                expected.events += 1;
                if matches!(
                    event,
                    BranchEvent::Conditional { .. } | BranchEvent::Indirect { .. }
                ) {
                    expected.branches += 1;
                }
                if event == BranchEvent::Overflow {
                    expected.gaps += 1;
                }
            });
            assert_eq!(packet_counts(packet), expected, "{packet:?}");
        }
    }

    #[test]
    fn pad_bytes_are_skipped() {
        let bytes = [OPC_PAD, OPC_PAD, 0b0000_0110u8]; // two pads + TNT(taken)
        let events = PacketDecoder::new(&bytes).decode_events().unwrap();
        assert_eq!(events, vec![BranchEvent::Conditional { taken: true }]);
    }
}
