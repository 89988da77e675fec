//! The PT packet format.
//!
//! The byte layout follows the real Intel PT encoding closely enough that
//! trace sizes and compressibility are realistic:
//!
//! | Packet   | Encoding                                   |
//! |----------|--------------------------------------------|
//! | PAD      | `0x00`                                     |
//! | TNT      | 1 byte, bit0 = 0, up to 6 T/NT bits + stop |
//! | TNT.LONG | `0x02 0xA3` + 6 payload bytes (≤ 47 bits)  |
//! | TIP      | header `0x0D \| ipbytes << 5` + IP bytes   |
//! | TIP.PGE  | header `0x11 \| ipbytes << 5` + IP bytes   |
//! | TIP.PGD  | header `0x01 \| ipbytes << 5` + IP bytes   |
//! | FUP      | header `0x1D \| ipbytes << 5` + IP bytes   |
//! | MODE     | `0x99` + 1 byte                            |
//! | PSB      | `0x02 0x82` ×8 (16 bytes)                  |
//! | PSBEND   | `0x02 0x23`                                |
//! | OVF      | `0x02 0xF3`                                |
//!
//! IP payloads use last-IP compression: the header's `ipbytes` field says how
//! many low-order bytes are present; the remaining high-order bytes are taken
//! from the previously emitted IP.

/// Number of TNT bits a short TNT packet can carry.
pub const SHORT_TNT_CAPACITY: usize = 6;
/// Number of TNT bits a long TNT packet can carry.
pub const LONG_TNT_CAPACITY: usize = 47;
/// Byte length of a PSB packet.
pub const PSB_LEN: usize = 16;

/// Escape byte introducing two-byte opcodes.
pub const OPC_ESCAPE: u8 = 0x02;
/// Second byte of PSB (repeated).
pub const OPC_PSB: u8 = 0x82;
/// Second byte of PSBEND.
pub const OPC_PSBEND: u8 = 0x23;
/// Second byte of OVF.
pub const OPC_OVF: u8 = 0xF3;
/// Second byte of a long TNT.
pub const OPC_LONG_TNT: u8 = 0xA3;
/// MODE packet opcode.
pub const OPC_MODE: u8 = 0x99;
/// PAD packet opcode.
pub const OPC_PAD: u8 = 0x00;

/// Low 5 bits of a TIP header.
pub const TIP_BASE: u8 = 0x0D;
/// Low 5 bits of a TIP.PGE header.
pub const TIP_PGE_BASE: u8 = 0x11;
/// Low 5 bits of a TIP.PGD header.
pub const TIP_PGD_BASE: u8 = 0x01;
/// Low 5 bits of a FUP header.
pub const FUP_BASE: u8 = 0x1D;

/// How many low-order IP bytes each `ipbytes` code carries.
pub const IP_BYTES_BY_CODE: [usize; 7] = [0, 2, 4, 6, 8, 0, 8];

/// The taken/not-taken bits of one TNT packet, packed into one word: bit `i`
/// is the `i`-th oldest branch (`1` = taken), and only the low
/// [`len`](Self::len) bits (at most [`LONG_TNT_CAPACITY`]) are meaningful.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TntBits {
    bits: u64,
    len: u32,
}

impl TntBits {
    /// Unpacks a TNT payload terminated by a stop bit: the highest set bit
    /// is the stop bit and every bit below it is a branch. A payload of `0`
    /// or `1` carries no branches.
    pub(crate) fn from_payload(payload: u64) -> Self {
        let len = payload.checked_ilog2().unwrap_or(0);
        TntBits {
            bits: payload & ((1 << len) - 1),
            len,
        }
    }

    /// Number of branches the packet carries.
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// `true` for a packet that carries no branches.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }
}

impl IntoIterator for TntBits {
    type Item = bool;
    type IntoIter = TntBitsIter;

    /// The bits, oldest branch first (`true` = taken).
    fn into_iter(self) -> TntBitsIter {
        TntBitsIter(self)
    }
}

/// Iterator over [`TntBits`], oldest branch first.
#[derive(Debug, Clone)]
pub struct TntBitsIter(TntBits);

impl Iterator for TntBitsIter {
    type Item = bool;

    #[inline]
    fn next(&mut self) -> Option<bool> {
        let TntBits { bits, len } = &mut self.0;
        if *len == 0 {
            return None;
        }
        let taken = *bits & 1 != 0;
        *bits >>= 1;
        *len -= 1;
        Some(taken)
    }
}

/// A decoded PT packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Packet {
    /// Padding (alignment filler).
    Pad,
    /// Stream synchronisation boundary.
    Psb,
    /// End of the PSB+ header group.
    PsbEnd,
    /// The hardware dropped packets here.
    Overflow,
    /// Taken/not-taken bits for consecutive conditional branches, oldest
    /// first.
    Tnt {
        /// The bits, oldest branch first.
        bits: TntBits,
    },
    /// Target of an indirect branch / return.
    Tip {
        /// Reconstructed full instruction pointer.
        ip: u64,
    },
    /// Tracing resumed (e.g. after a filtered region).
    TipPge {
        /// Instruction pointer where tracing resumed.
        ip: u64,
    },
    /// Tracing paused.
    TipPgd {
        /// Instruction pointer where tracing paused.
        ip: u64,
    },
    /// Flow-update packet (source IP for asynchronous events).
    Fup {
        /// The IP carried by the packet.
        ip: u64,
    },
    /// Execution-mode packet.
    Mode {
        /// Raw mode payload byte.
        payload: u8,
    },
}

impl Packet {
    /// A short human-readable mnemonic matching `perf script` output.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Packet::Pad => "PAD",
            Packet::Psb => "PSB",
            Packet::PsbEnd => "PSBEND",
            Packet::Overflow => "OVF",
            Packet::Tnt { .. } => "TNT",
            Packet::Tip { .. } => "TIP",
            Packet::TipPge { .. } => "TIP.PGE",
            Packet::TipPgd { .. } => "TIP.PGD",
            Packet::Fup { .. } => "FUP",
            Packet::Mode { .. } => "MODE",
        }
    }
}

/// Chooses the smallest last-IP compression code able to represent `ip`
/// relative to `last_ip`. Returns `(code, payload_byte_count)`.
pub fn ip_compression(last_ip: u64, ip: u64) -> (u8, usize) {
    if ip == last_ip {
        (0, 0)
    } else if ip >> 16 == last_ip >> 16 {
        (1, 2)
    } else if ip >> 32 == last_ip >> 32 {
        (2, 4)
    } else if ip >> 48 == last_ip >> 48 {
        (3, 6)
    } else {
        (6, 8)
    }
}

/// Reconstructs a full IP from `payload` low-order bytes and the previous IP.
pub fn ip_decompress(last_ip: u64, code: u8, payload: &[u8]) -> u64 {
    let n = payload.len();
    debug_assert_eq!(n, IP_BYTES_BY_CODE[code as usize]);
    if n == 0 {
        return last_ip;
    }
    let mut low = 0u64;
    for (i, &b) in payload.iter().enumerate() {
        low |= (b as u64) << (8 * i);
    }
    if n == 8 {
        low
    } else {
        let keep_mask = u64::MAX << (8 * n as u32);
        (last_ip & keep_mask) | low
    }
}

/// Byte length of the packet frame starting at `bytes[0]`, or `None` if the
/// slice ends before the frame does (a partial frame).
///
/// Packet framing is context-free: every packet's length is determined by
/// its header byte (plus the escape's second byte), never by the last-IP
/// decompression state — which is what lets AUX consumers cut a stream at
/// packet boundaries without decoding it. A PSB is framed as individual
/// `0x02 0x82` pairs (the decoder coalesces adjacent pairs); unknown
/// headers are framed at their minimum length so a scan over corrupt data
/// still makes progress.
pub fn frame_len(bytes: &[u8]) -> Option<usize> {
    let byte = *bytes.first()?;
    if byte == OPC_PAD {
        return Some(1);
    }
    if byte == OPC_ESCAPE {
        let second = *bytes.get(1)?;
        let len = if second == OPC_LONG_TNT { 8 } else { 2 };
        return (bytes.len() >= len).then_some(len);
    }
    if byte == OPC_MODE {
        return (bytes.len() >= 2).then_some(2);
    }
    if byte & 1 == 0 {
        // Short TNT.
        return Some(1);
    }
    // IP packet family; code 7 is unknown, framed as the header alone.
    let nbytes = IP_BYTES_BY_CODE
        .get((byte >> 5) as usize)
        .copied()
        .unwrap_or(0);
    (bytes.len() > nbytes).then_some(1 + nbytes)
}

/// Length of the longest prefix of `bytes` that ends on a packet-frame
/// boundary; the remainder is a partial frame a consumer must carry until
/// the missing bytes arrive.
pub fn complete_frame_prefix(bytes: &[u8]) -> usize {
    let mut pos = 0;
    while pos < bytes.len() {
        match frame_len(&bytes[pos..]) {
            Some(len) => pos += len,
            None => break,
        }
    }
    pos
}

/// The 4-byte prefix of a PSB run a decoder scans for when resynchronising.
pub const PSB_PATTERN: [u8; 4] = [OPC_ESCAPE, OPC_PSB, OPC_ESCAPE, OPC_PSB];

/// Broadcasts a byte into every lane of a `u64` word.
const fn broadcast(byte: u8) -> u64 {
    0x0101_0101_0101_0101u64.wrapping_mul(byte as u64)
}

/// Offset of the first PSB pattern (`0x02 0x82 0x02 0x82`) in `bytes`, the
/// point a decoder can (re-)synchronise at.
///
/// Word-at-a-time scan: each 8-byte word is tested for a `0x82` byte with
/// the swar zero-byte trick, so garbage between corruption and the next
/// PSB is skipped eight bytes per iteration instead of one. Keying the
/// filter on `0x82` rather than the `0x02` escape matters on real branch
/// streams: `0x02` is also a valid short-TNT byte (≈12% of stream bytes on
/// the bench workload) while `0x82` essentially only occurs inside PSB
/// runs (≈0.2%), so one marker trick per word is both necessary and
/// sufficient. A flagged byte is the pattern's offset-1 (or offset-3)
/// lane, so the candidate start is one before it; candidates are verified
/// against the full 4-byte pattern (the marker can flag false candidates;
/// it never misses one), so the result is byte-for-byte what the naive
/// scan returns.
pub fn find_psb(bytes: &[u8]) -> Option<usize> {
    find_psb_from(bytes, 0)
}

/// [`find_psb`] restricted to offsets `>= start` (still indexing into the
/// full slice), so a caller walking every PSB of a stream resumes after the
/// previous hit instead of re-slicing.
pub fn find_psb_from(bytes: &[u8], start: usize) -> Option<usize> {
    let n = bytes.len();
    if n < 4 || start + 4 > n {
        return None;
    }
    // Zero-byte trick: one 0x80 marker bit per lane of `word` that equals
    // `0x82`.
    #[inline(always)]
    fn psb_markers(word: u64) -> u64 {
        let xored = word ^ broadcast(OPC_PSB);
        xored.wrapping_sub(broadcast(0x01)) & !xored & broadcast(0x80)
    }
    // Verifies every flagged lane of `markers` (bit 7 of lane k set ⇒ byte
    // `base + k` is 0x82, i.e. a pattern's offset-1 or offset-3 lane)
    // against the full pattern one byte earlier. Ascending marker order
    // keeps the first match first: a pattern at `s` always flags `s + 1`.
    #[cold]
    fn confirm(bytes: &[u8], start: usize, base: usize, mut markers: u64) -> Option<usize> {
        while markers != 0 {
            let flagged = base + (markers.trailing_zeros() / 8) as usize;
            if let Some(candidate) = flagged.checked_sub(1) {
                if candidate >= start
                    && candidate + 4 <= bytes.len()
                    && bytes[candidate..candidate + 4] == PSB_PATTERN
                {
                    return Some(candidate);
                }
            }
            markers &= markers - 1;
        }
        None
    }
    let mut i = start;
    // Two words per iteration: candidate-free spans (the common case)
    // burn one branch per 16 bytes.
    while i + 16 <= n {
        let w0 = u64::from_le_bytes(bytes[i..i + 8].try_into().unwrap());
        let w1 = u64::from_le_bytes(bytes[i + 8..i + 16].try_into().unwrap());
        let m0 = psb_markers(w0);
        let m1 = psb_markers(w1);
        if m0 | m1 != 0 {
            if let Some(found) = confirm(bytes, start, i, m0) {
                return Some(found);
            }
            if let Some(found) = confirm(bytes, start, i + 8, m1) {
                return Some(found);
            }
        }
        i += 16;
    }
    if i + 8 <= n {
        let w = u64::from_le_bytes(bytes[i..i + 8].try_into().unwrap());
        if let Some(found) = confirm(bytes, start, i, psb_markers(w)) {
            return Some(found);
        }
        i += 8;
    }
    // The word loop proves patterns starting before `i - 1` absent (their
    // offset-1 lane was a scanned marker position); a pattern starting at
    // `i - 1` flags only at `i`, which no word covered, so the tail
    // re-checks from one byte back.
    let mut i = i.saturating_sub(1).max(start);
    while i + 4 <= n {
        if bytes[i..i + 4] == PSB_PATTERN {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// The byte-at-a-time reference scan [`find_psb`] replaced — kept for the
/// scan micro-bench and the differential tests.
pub fn find_psb_naive(bytes: &[u8]) -> Option<usize> {
    bytes.windows(4).position(|w| w == PSB_PATTERN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnemonics_are_distinct_for_tip_family() {
        assert_eq!(Packet::Tip { ip: 0 }.mnemonic(), "TIP");
        assert_eq!(Packet::TipPge { ip: 0 }.mnemonic(), "TIP.PGE");
        assert_eq!(Packet::TipPgd { ip: 0 }.mnemonic(), "TIP.PGD");
        assert_eq!(Packet::Fup { ip: 0 }.mnemonic(), "FUP");
    }

    #[test]
    fn ip_compression_prefers_short_forms() {
        assert_eq!(ip_compression(0x1234, 0x1234), (0, 0));
        assert_eq!(ip_compression(0x0040_1000, 0x0040_2000), (1, 2));
        assert_eq!(ip_compression(0x7f00_0040_1000, 0x7f00_0140_2000), (2, 4));
        assert_eq!(
            ip_compression(0xaaaa_7f00_0040_1000, 0xaaaa_0100_0040_1000),
            (3, 6)
        );
        assert_eq!(ip_compression(0, 0xffff_ffff_ffff_ffff), (6, 8));
    }

    #[test]
    fn frame_lengths_match_the_wire_format() {
        assert_eq!(frame_len(&[OPC_PAD]), Some(1));
        assert_eq!(frame_len(&[0b0000_0110]), Some(1)); // short TNT
        assert_eq!(frame_len(&[OPC_MODE, 0x01]), Some(2));
        assert_eq!(frame_len(&[OPC_ESCAPE, OPC_PSB]), Some(2)); // one PSB pair
        assert_eq!(frame_len(&[OPC_ESCAPE, OPC_PSBEND]), Some(2));
        assert_eq!(frame_len(&[OPC_ESCAPE, OPC_OVF]), Some(2));
        assert_eq!(
            frame_len(&[OPC_ESCAPE, OPC_LONG_TNT, 0, 0, 0, 0, 0, 1]),
            Some(8)
        );
        // TIP with 2 payload bytes: header code 1.
        assert_eq!(frame_len(&[TIP_BASE | (1 << 5), 0xAA, 0xBB]), Some(3));
    }

    #[test]
    fn partial_frames_are_detected() {
        assert_eq!(frame_len(&[]), None);
        assert_eq!(frame_len(&[OPC_ESCAPE]), None);
        assert_eq!(frame_len(&[OPC_MODE]), None);
        assert_eq!(frame_len(&[OPC_ESCAPE, OPC_LONG_TNT, 0, 0]), None);
        assert_eq!(frame_len(&[TIP_BASE | (1 << 5), 0xAA]), None);
    }

    #[test]
    fn complete_frame_prefix_stops_at_partial_tail() {
        // PAD, MODE, then a TIP missing its last payload byte.
        let bytes = [OPC_PAD, OPC_MODE, 0x01, TIP_BASE | (1 << 5), 0xAA];
        assert_eq!(complete_frame_prefix(&bytes), 3);
        // A fully framed stream consumes everything.
        assert_eq!(complete_frame_prefix(&bytes[..3]), 3);
        assert_eq!(complete_frame_prefix(&[]), 0);
    }

    #[test]
    fn find_psb_locates_the_sync_pattern() {
        let mut bytes = vec![0xAAu8, 0xBB, 0xCC];
        for _ in 0..2 {
            bytes.push(OPC_ESCAPE);
            bytes.push(OPC_PSB);
        }
        assert_eq!(find_psb(&bytes), Some(3));
        assert_eq!(find_psb(&bytes[..4]), None);
        assert_eq!(find_psb(&[]), None);
    }

    #[test]
    fn swar_scan_matches_naive_scan_at_every_alignment() {
        // The pattern placed at every offset of a buffer long enough to
        // exercise the word loop, the tail loop and the boundary between
        // them — swar and naive must agree exactly.
        for fill in [0x00u8, 0x02, 0x82, 0xAB] {
            for offset in 0..40 {
                let mut bytes = vec![fill; 48];
                bytes[offset..offset + 4].copy_from_slice(&PSB_PATTERN);
                assert_eq!(
                    find_psb(&bytes),
                    find_psb_naive(&bytes),
                    "fill {fill:#x} offset {offset}"
                );
                for cut in [offset + 1, offset + 3, bytes.len() - 1] {
                    assert_eq!(
                        find_psb(&bytes[..cut]),
                        find_psb_naive(&bytes[..cut]),
                        "fill {fill:#x} offset {offset} cut {cut}"
                    );
                }
            }
        }
    }

    #[test]
    fn swar_scan_matches_naive_scan_on_escape_dense_noise() {
        // A deterministic pseudo-random byte soup biased toward 0x02/0x82 so
        // the candidate-verification path (false markers, partial pairs) is
        // hit constantly.
        let mut state = 0x9E37_79B9u32;
        let mut bytes = Vec::with_capacity(4096);
        for _ in 0..4096 {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            bytes.push(match state >> 29 {
                0 | 1 => OPC_ESCAPE,
                2 | 3 => OPC_PSB,
                _ => (state >> 13) as u8,
            });
        }
        for start in 0..64 {
            assert_eq!(
                find_psb(&bytes[start..]),
                find_psb_naive(&bytes[start..]),
                "start {start}"
            );
        }
        assert_eq!(
            find_psb_from(&bytes, 9),
            find_psb_naive(&bytes[9..]).map(|i| i + 9)
        );
    }

    #[test]
    fn find_psb_from_skips_earlier_matches() {
        let mut bytes = vec![0u8; 64];
        bytes[8..12].copy_from_slice(&PSB_PATTERN);
        bytes[40..44].copy_from_slice(&PSB_PATTERN);
        assert_eq!(find_psb_from(&bytes, 0), Some(8));
        assert_eq!(find_psb_from(&bytes, 9), Some(40));
        assert_eq!(find_psb_from(&bytes, 41), None);
    }

    #[test]
    fn ip_roundtrip_through_compression() {
        let cases = [
            (0x0040_1000u64, 0x0040_2000u64),
            (0x7f00_0040_1000, 0x7f00_0140_2000),
            (0, 0xdead_beef_cafe_f00d),
            (0x5555, 0x5555),
        ];
        for (last, ip) in cases {
            let (code, n) = ip_compression(last, ip);
            let payload: Vec<u8> = ip.to_le_bytes()[..n].to_vec();
            assert_eq!(ip_decompress(last, code, &payload), ip);
        }
    }
}
