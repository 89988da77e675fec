//! The packet encoder: what the tracing hardware does.

use crate::branch::BranchEvent;
use crate::packet::{
    ip_compression, LONG_TNT_CAPACITY, OPC_ESCAPE, OPC_LONG_TNT, OPC_MODE, OPC_OVF, OPC_PSB,
    OPC_PSBEND, SHORT_TNT_CAPACITY, TIP_BASE, TIP_PGD_BASE, TIP_PGE_BASE,
};

/// Payload bytes between two periodic PSBs unless a caller asks otherwise.
const PSB_INTERVAL_BYTES: usize = 4096;

/// Encodes a stream of branch events into PT packet bytes.
#[derive(Debug)]
pub struct PacketEncoder {
    /// Emit a PSB synchronisation point every this many payload bytes
    /// (mirrors the hardware's periodic PSB generation); `0` disables
    /// periodic PSBs.
    psb_interval_bytes: usize,
    /// Packet bytes produced since the last drain.
    out: Vec<u8>,
    /// Pending TNT bits, oldest in bit 0. Never more than
    /// [`LONG_TNT_CAPACITY`] (47) of them, so they fit one word.
    tnt_bits: u64,
    tnt_len: usize,
    last_ip: u64,
    bytes_since_psb: usize,
    started: bool,
}

impl Default for PacketEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl PacketEncoder {
    /// Creates an encoder that emits a PSB every 4 KiB of payload.
    pub fn new() -> Self {
        Self::with_psb_interval(PSB_INTERVAL_BYTES)
    }

    /// Creates an encoder that emits a PSB every `psb_interval_bytes`
    /// payload bytes; `0` disables periodic PSBs.
    pub fn with_psb_interval(psb_interval_bytes: usize) -> Self {
        PacketEncoder {
            psb_interval_bytes,
            out: Vec::new(),
            tnt_bits: 0,
            tnt_len: 0,
            last_ip: 0,
            bytes_since_psb: 0,
            started: false,
        }
    }

    /// Number of packet bytes produced since the last drain (excluding
    /// pending TNT bits).
    pub fn bytes(&self) -> usize {
        self.out.len()
    }

    /// Starts the trace: emits PSB, MODE and a TIP.PGE at `start_ip`
    /// (tracing enabled), mirroring what the hardware emits when the trace
    /// filter first matches.
    pub fn begin(&mut self, start_ip: u64) {
        self.emit_psb_group();
        self.emit_mode(0x01);
        self.emit_ip_packet(TIP_PGE_BASE, start_ip);
        self.started = true;
    }

    /// Encodes one branch event.
    pub fn branch(&mut self, event: &BranchEvent) {
        match *event {
            BranchEvent::Conditional { taken } => {
                self.tnt_bits |= u64::from(taken) << self.tnt_len;
                self.tnt_len += 1;
                if self.tnt_len >= LONG_TNT_CAPACITY {
                    self.flush_tnt();
                }
            }
            BranchEvent::Indirect { target } | BranchEvent::Return { target } => {
                self.flush_tnt();
                self.emit_ip_packet(TIP_BASE, target);
            }
            BranchEvent::TraceStart { ip } => {
                self.flush_tnt();
                self.emit_ip_packet(TIP_PGE_BASE, ip);
            }
            BranchEvent::TraceStop { ip } => {
                self.flush_tnt();
                self.emit_ip_packet(TIP_PGD_BASE, ip);
            }
            BranchEvent::Overflow => {
                self.flush_tnt();
                self.emit_two(OPC_ESCAPE, OPC_OVF);
                self.restart_ip_compression();
            }
        }
        self.maybe_psb();
    }

    /// Forgets the last-IP context, so the next IP packet compresses
    /// against zero. Real hardware re-establishes the IP context after a
    /// gap and the decoder resets it at OVF, so the encoder must too
    /// whenever the stream gains a gap, or the first IP packet after it
    /// would compress against a context the decoder never saw.
    pub(crate) fn restart_ip_compression(&mut self) {
        self.last_ip = 0;
    }

    /// Flushes pending TNT bits and a final TIP.PGD, returning the full
    /// packet stream.
    pub fn finish(mut self) -> Vec<u8> {
        self.flush_tnt();
        if self.started {
            let ip = self.last_ip;
            self.emit_ip_packet(TIP_PGD_BASE, ip);
        }
        self.out
    }

    /// Flushes pending TNT bits and drains the bytes produced so far,
    /// leaving the encoder usable (used for incremental AUX writes).
    pub fn drain(&mut self) -> Vec<u8> {
        self.flush_tnt();
        std::mem::take(&mut self.out)
    }

    /// [`drain`](Self::drain) that lends the bytes instead of handing over
    /// the buffer: flushes pending TNT bits, lends the bytes produced since
    /// the last drain to `consume`, then forgets them. The encoder keeps its
    /// buffer, so a caller that drains at every boundary allocates nothing
    /// once it has grown. The lent bytes always end on a packet boundary.
    pub fn drain_with<R>(&mut self, consume: impl FnOnce(&[u8]) -> R) -> R {
        self.flush_tnt();
        let result = consume(&self.out);
        self.out.clear();
        result
    }

    // ----- packet emission -------------------------------------------------

    fn emit_psb_group(&mut self) {
        for _ in 0..8 {
            self.out.push(OPC_ESCAPE);
            self.out.push(OPC_PSB);
        }
        self.emit_two(OPC_ESCAPE, OPC_PSBEND);
        self.bytes_since_psb = 0;
        // PSB resets last-IP context on real hardware.
        self.last_ip = 0;
    }

    fn emit_mode(&mut self, payload: u8) {
        self.out.push(OPC_MODE);
        self.out.push(payload);
        self.bytes_since_psb += 2;
    }

    fn emit_two(&mut self, a: u8, b: u8) {
        self.out.push(a);
        self.out.push(b);
        self.bytes_since_psb += 2;
    }

    fn emit_ip_packet(&mut self, base: u8, ip: u64) {
        let (code, nbytes) = ip_compression(self.last_ip, ip);
        let header = base | (code << 5);
        self.out.push(header);
        self.out.extend_from_slice(&ip.to_le_bytes()[..nbytes]);
        self.bytes_since_psb += 1 + nbytes;
        self.last_ip = ip;
    }

    fn flush_tnt(&mut self) {
        while self.tnt_len > 0 {
            if self.tnt_len > SHORT_TNT_CAPACITY {
                // Long TNT: escape + opcode + 6 payload bytes. Bits are
                // packed LSB-first with a stop bit above the last one.
                let take = self.tnt_len.min(LONG_TNT_CAPACITY);
                let payload = self.take_tnt(take) | 1 << take;
                self.out.push(OPC_ESCAPE);
                self.out.push(OPC_LONG_TNT);
                self.out.extend_from_slice(&payload.to_le_bytes()[..6]);
                self.bytes_since_psb += 8;
            } else {
                // Short TNT: single byte, bit0 = 0, bits start at bit 1,
                // stop bit above the last one.
                let take = self.tnt_len.min(SHORT_TNT_CAPACITY);
                let byte = (self.take_tnt(take) << 1 | 1 << (take + 1)) as u8;
                self.out.push(byte);
                self.bytes_since_psb += 1;
            }
        }
    }

    /// Removes and returns the `n` oldest pending TNT bits.
    fn take_tnt(&mut self, n: usize) -> u64 {
        let bits = self.tnt_bits & ((1 << n) - 1);
        self.tnt_bits >>= n;
        self.tnt_len -= n;
        bits
    }

    fn maybe_psb(&mut self) {
        if self.psb_interval_bytes > 0 && self.bytes_since_psb >= self.psb_interval_bytes {
            self.flush_tnt();
            self.emit_psb_group();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PSB_LEN;
    use proptest::prelude::*;

    /// The encoder as it was with a `Vec<bool>` TNT queue: conditionals are
    /// queued here and packed by the old drain-and-collect loop, everything
    /// else goes through the inner encoder — whose own accumulator therefore
    /// stays empty — so only the TNT representation differs.
    struct VecBoolEncoder {
        inner: PacketEncoder,
        pending_tnt: Vec<bool>,
    }

    impl VecBoolEncoder {
        fn branch(&mut self, event: &BranchEvent) {
            let BranchEvent::Conditional { taken } = *event else {
                self.flush_tnt();
                return self.inner.branch(event);
            };
            self.pending_tnt.push(taken);
            if self.pending_tnt.len() >= LONG_TNT_CAPACITY {
                self.flush_tnt();
            }
            let interval = self.inner.psb_interval_bytes;
            if interval > 0 && self.inner.bytes_since_psb >= interval {
                self.flush_tnt();
                self.inner.emit_psb_group();
            }
        }

        fn drain(&mut self) -> Vec<u8> {
            self.flush_tnt();
            self.inner.drain()
        }

        fn finish(mut self) -> Vec<u8> {
            self.flush_tnt();
            self.inner.finish()
        }

        fn flush_tnt(&mut self) {
            let PacketEncoder {
                out,
                bytes_since_psb,
                ..
            } = &mut self.inner;
            while !self.pending_tnt.is_empty() {
                if self.pending_tnt.len() > SHORT_TNT_CAPACITY {
                    let take = self.pending_tnt.len().min(LONG_TNT_CAPACITY);
                    let bits: Vec<bool> = self.pending_tnt.drain(..take).collect();
                    let mut payload: u64 = 0;
                    for (i, &b) in bits.iter().enumerate() {
                        if b {
                            payload |= 1 << i;
                        }
                    }
                    payload |= 1 << bits.len(); // stop bit
                    out.push(OPC_ESCAPE);
                    out.push(OPC_LONG_TNT);
                    out.extend_from_slice(&payload.to_le_bytes()[..6]);
                    *bytes_since_psb += 8;
                } else {
                    let take = self.pending_tnt.len().min(SHORT_TNT_CAPACITY);
                    let bits: Vec<bool> = self.pending_tnt.drain(..take).collect();
                    let mut byte: u8 = 0;
                    for (i, &b) in bits.iter().enumerate() {
                        if b {
                            byte |= 1 << (i + 1);
                        }
                    }
                    byte |= 1 << (bits.len() + 1); // stop bit
                    out.push(byte);
                    *bytes_since_psb += 1;
                }
            }
        }
    }

    proptest! {
        /// The word accumulator emits, byte for byte, what the `Vec<bool>`
        /// queue did: over random event mixes, drains at random points (each
        /// chunk compared) and streams that cross several periodic PSBs.
        #[test]
        fn prop_tnt_accumulator_matches_the_vec_bool_queue(
            words in proptest::collection::vec(any::<u64>(), 1..3000),
            psb_shift in 6u32..13,
        ) {
            let mut new = PacketEncoder::with_psb_interval(1 << psb_shift);
            let mut old = VecBoolEncoder {
                inner: PacketEncoder::with_psb_interval(1 << psb_shift),
                pending_tnt: Vec::new(),
            };
            new.begin(0x40_0000);
            old.inner.begin(0x40_0000);
            for w in words {
                let ip = (w >> 16) & [0xFFFF, 0xFFFF_FFFF, u64::MAX >> 16][(w >> 8) as usize % 3];
                let event = match w % 32 {
                    0 => BranchEvent::Indirect { target: ip },
                    1 => BranchEvent::Return { target: ip },
                    2 if w & 0x700 == 0 => BranchEvent::TraceStop { ip },
                    3 if w & 0x700 == 0 => BranchEvent::TraceStart { ip },
                    4 if w & 0x700 == 0 => BranchEvent::Overflow,
                    _ => BranchEvent::Conditional { taken: w & 0x80 != 0 },
                };
                new.branch(&event);
                old.branch(&event);
                match (w >> 40) % 97 {
                    0 => prop_assert_eq!(new.drain(), old.drain()),
                    1 => {
                        let expected = old.drain();
                        prop_assert!(new.drain_with(|lent| lent == expected.as_slice()));
                        prop_assert_eq!(new.bytes(), 0);
                    }
                    _ => {}
                }
            }
            prop_assert_eq!(new.finish(), old.finish());
        }
    }

    #[test]
    fn begin_emits_psb_header() {
        let mut enc = PacketEncoder::new();
        enc.begin(0x400000);
        let bytes = enc.finish();
        assert!(bytes.len() > PSB_LEN);
        assert_eq!(&bytes[..2], &[OPC_ESCAPE, OPC_PSB]);
    }

    #[test]
    fn conditional_branches_are_compressed_into_tnt_bits() {
        let mut enc = PacketEncoder::new();
        enc.begin(0);
        let header = enc.bytes();
        for _ in 0..6 {
            enc.branch(&BranchEvent::Conditional { taken: true });
        }
        let bytes = enc.drain();
        // 6 conditionals fit in a single short TNT byte.
        assert_eq!(bytes.len() - header, 1);
    }

    #[test]
    fn long_runs_use_long_tnt_packets() {
        let mut enc = PacketEncoder::new();
        for i in 0..47 {
            enc.branch(&BranchEvent::Conditional { taken: i % 2 == 0 });
        }
        let bytes = enc.drain();
        // One long TNT packet: 2-byte opcode + 6 payload bytes.
        assert_eq!(bytes.len(), 8);
    }

    #[test]
    fn repeated_nearby_targets_compress_well() {
        let mut far = PacketEncoder::new();
        let mut near = PacketEncoder::new();
        for i in 0..100u64 {
            far.branch(&BranchEvent::Indirect {
                target: i * 0x1_0000_0000_0000,
            });
            near.branch(&BranchEvent::Indirect {
                target: 0x40_0000 + i * 4,
            });
        }
        assert!(near.bytes() < far.bytes());
    }

    #[test]
    fn periodic_psb_is_emitted() {
        let mut enc = PacketEncoder::with_psb_interval(64);
        enc.begin(0);
        for i in 0..200u64 {
            enc.branch(&BranchEvent::Indirect {
                target: i * 0x9999_7777,
            });
        }
        let bytes = enc.finish();
        let psb_count = bytes
            .windows(4)
            .filter(|w| *w == [OPC_ESCAPE, OPC_PSB, OPC_ESCAPE, OPC_PSB])
            .count();
        assert!(psb_count >= 2, "expected periodic PSBs, saw {psb_count}");
    }
}
