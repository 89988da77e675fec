//! The streaming packet decoder: decode-while-running.
//!
//! [`PacketDecoder`] needs the complete byte stream up front; a live
//! session only ever has a *prefix* — AUX chunks arrive at synchronization
//! boundaries, and a post-mortem reader may cut a log at arbitrary byte
//! offsets. [`StreamingDecoder`] closes that gap:
//!
//! * [`push`](StreamingDecoder::push) decodes every complete packet of the
//!   chunk in place, where the caller's bytes lie; a packet cut by the
//!   chunk's end is **deferred**, not an error — its prefix, fewer than
//!   [`PSB_LEN`] bytes, is all that is carried to the next push;
//! * counters are kept **per packet**, from one function
//!   (`decode::packet_counts`) that states what each packet's events add
//!   up to, so a push never expands a TNT packet into its events;
//! * a caller that wants the events passes a sink to
//!   [`push_with`](StreamingDecoder::push_with) /
//!   [`finish_with`](StreamingDecoder::finish_with): events and in-band
//!   errors go straight to it, in stream order, and nothing is queued —
//!   the counters are the same whether or not a sink is passed;
//! * corruption surfaces as a single in-band
//!   [`DecodeError::UnknownPacket`], after which the decoder discards
//!   garbage up to the next PSB and resumes (at most one PSB window of
//!   events is lost per corruption);
//! * over any chunking of any well-formed stream the sink receives
//!   exactly what the batch decoder produces on the concatenation of every
//!   chunk (`tests/streaming_decode.rs` enforces this by property test).
//!
//! The equivalence argument: the grammar's answer for a packet depends
//! only on the packet's own bytes, unless they run out, which it reports
//! as [`DecodeError::Truncated`] — the only way the carrier learns of a
//! cut. So a chunk decodes in place as those bytes of the whole stream
//! do, up to the cut packet. The next push appends its first [`PSB_LEN`]
//! bytes (all, if fewer) to that packet's prefix, which makes every
//! packet starting in the prefix whole (none is longer); decoding runs
//! to the end of those bytes and goes on in the chunk where it stopped,
//! `last_ip` carrying the IP context. The only framing divergence this
//! can introduce is a PSB run that a chunk's end, or the end of the
//! appended bytes, splits into two shorter PSB packets, which contribute
//! no events and reset the IP context identically.

use crate::branch::BranchEvent;
use crate::decode::{packet_counts, packet_events, DecodeError, PacketDecoder};
use crate::packet::{find_psb_from, PSB_LEN};

/// Counters of one streaming decode session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Bytes handed to [`StreamingDecoder::push`] so far.
    pub bytes_pushed: u64,
    /// Bytes fully consumed (decoded or discarded during resync); the
    /// difference to `bytes_pushed` is the carried partial packet.
    pub bytes_consumed: u64,
    /// Packets decoded.
    pub packets: u64,
    /// Branch events decoded (all kinds, trace markers included).
    pub events: u64,
    /// Branch events that correspond to retired branches (conditional +
    /// indirect) — the number comparable to a recorder's branch count.
    pub branches: u64,
    /// Decode errors reported in-band (unknown packets; a truncated tail
    /// at [`finish`](StreamingDecoder::finish)).
    pub errors: u64,
    /// Successful PSB re-synchronisations after corruption.
    pub resyncs: u64,
    /// Overflow (OVF) packets decoded — trace gaps where the producer lost
    /// data. Branches counted here cover only the surviving bytes; a
    /// nonzero value marks the stream as *degraded*, not corrupt.
    pub gaps: u64,
}

/// Where a decode pass sends events and in-band errors.
trait Sink: FnMut(Result<BranchEvent, DecodeError>) {}
impl<F: FnMut(Result<BranchEvent, DecodeError>)> Sink for F {}

/// Bytes a resync keeps when a chunk holds no PSB: a PSB may start in them.
const RESYNC_TAIL: usize = 3;

/// An incremental PT packet decoder fed by AUX chunks.
///
/// Feed bytes with [`push`](Self::push) (counters only) or
/// [`push_with`](Self::push_with) (events and in-band errors to a sink),
/// and call [`finish`](Self::finish) / [`finish_with`](Self::finish_with)
/// once the producer is done — only then is a trailing partial packet an
/// error.
#[derive(Debug)]
pub struct StreamingDecoder {
    /// `carry[..carried]` is the packet the last chunk's end cut (an IP
    /// packet, at most nine bytes, is the longest) or a resync tail.
    carry: [u8; PSB_LEN],
    carried: usize,
    /// Last-IP decompression context carried across chunk boundaries.
    last_ip: u64,
    /// Discarding garbage until the next PSB.
    resyncing: bool,
    /// `finish` was called; no more bytes will arrive.
    finished: bool,
    stats: StreamStats,
}

impl StreamingDecoder {
    /// Creates a decoder positioned at the start of a stream. It keeps
    /// [`StreamStats`] counters — one add per counter per packet, however
    /// many branches the packet carries — and allocates nothing; events
    /// reach a caller only through the sink of
    /// [`push_with`](Self::push_with) / [`finish_with`](Self::finish_with).
    pub fn counting_only() -> Self {
        StreamingDecoder {
            carry: [0; PSB_LEN],
            carried: 0,
            last_ip: 0,
            resyncing: false,
            finished: false,
            stats: StreamStats::default(),
        }
    }

    /// Decodes the packet the previous chunk's end cut and every complete
    /// packet of `chunk`, updating the counters only.
    ///
    /// # Panics
    ///
    /// Panics if called after [`finish`](Self::finish).
    pub fn push(&mut self, chunk: &[u8]) {
        assert!(!self.finished, "push after finish");
        self.feed(chunk, &mut |_| {});
    }

    /// [`push`](Self::push), handing every decoded event and in-band error
    /// to `sink` in stream order. An error carries its offset in the whole
    /// stream, not in `chunk`.
    ///
    /// # Panics
    ///
    /// Panics if called after [`finish`](Self::finish).
    pub fn push_with(
        &mut self,
        chunk: &[u8],
        mut sink: impl FnMut(Result<BranchEvent, DecodeError>),
    ) {
        assert!(!self.finished, "push after finish");
        self.feed(chunk, &mut sink);
    }

    /// Marks the end of the stream and flushes: a partial packet still
    /// carried becomes an in-band [`DecodeError::Truncated`], and garbage
    /// awaiting a PSB is dropped. Idempotent.
    pub fn finish(&mut self) {
        self.close(&mut |_| {});
    }

    /// [`finish`](Self::finish), handing a truncated tail's error to `sink`.
    pub fn finish_with(&mut self, mut sink: impl FnMut(Result<BranchEvent, DecodeError>)) {
        self.close(&mut sink);
    }

    /// Bytes carried: a partial packet or a resync tail, always fewer than
    /// [`PSB_LEN`].
    pub fn buffered(&self) -> usize {
        self.carried
    }

    /// Counters so far.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Decodes the carried packet, completed from `chunk`'s head, then the
    /// rest of `chunk` in place, and carries what `chunk`'s end cut.
    fn feed(&mut self, chunk: &[u8], sink: &mut impl Sink) {
        let base = self.stats.bytes_pushed; // stream offset of `chunk[0]`
        self.stats.bytes_pushed += chunk.len() as u64;
        let mut at = 0;
        if self.carried > 0 {
            // Complete the carried packet from the chunk's head.
            let (carried, head) = (self.carried, chunk.len().min(PSB_LEN));
            let mut stitch = [0; 3 * PSB_LEN];
            stitch[..PSB_LEN].copy_from_slice(&self.carry);
            stitch[carried..carried + head].copy_from_slice(&chunk[..head]);
            let len = carried + head;
            let stop = self.decode(&stitch[..len], 0, base - carried as u64, sink);
            if head == chunk.len() {
                // One fixed-size copy: `stitch` has room past its end.
                self.carry.copy_from_slice(&stitch[stop..stop + PSB_LEN]);
                return self.keep(len - stop);
            }
            // No packet starting in the carry is long enough for the
            // stitch's end to cut it, so decoding got past the carry.
            at = stop - carried;
        }
        let stop = self.decode(chunk, at, base, sink);
        let tail = &chunk[stop..];
        self.carry[..tail.len()].copy_from_slice(tail);
        self.keep(tail.len());
    }

    fn close(&mut self, sink: &mut impl Sink) {
        if !self.finished {
            self.finished = true;
            self.feed(&[], sink);
            debug_assert_eq!(self.carried, 0, "finish must drain the carry");
        }
    }

    /// Keeps `carry[..carried]`: the bytes of the stream not yet consumed.
    fn keep(&mut self, carried: usize) {
        self.carried = carried;
        self.stats.bytes_consumed = self.stats.bytes_pushed - carried as u64;
    }

    /// Decodes `bytes` from `at`, skipping corruption up to the next PSB;
    /// `base` is the stream offset of `bytes[0]`. Returns where it stopped:
    /// at the end, at a packet `bytes` cut, or (before `finish`) at a
    /// resync tail.
    fn decode(&mut self, bytes: &[u8], mut at: usize, base: u64, sink: &mut impl Sink) -> usize {
        // Events are branches plus markers (trace start/stop, gaps).
        let (mut packets, mut branches, mut markers, mut gaps) = (0, 0, 0, 0);
        loop {
            if self.resyncing {
                let Some(psb) = find_psb_from(bytes, at) else {
                    let keep = if self.finished { 0 } else { RESYNC_TAIL };
                    at = at.max(bytes.len().saturating_sub(keep));
                    break;
                };
                (at, self.resyncing) = (psb, false);
                self.stats.resyncs += 1;
            }
            let mut dec = PacketDecoder::with_context(&bytes[at..], self.last_ip);
            let stop = loop {
                match dec.next_packet() {
                    Ok(Some(packet)) => {
                        let add = packet_counts(packet);
                        packets += 1;
                        branches += add.branches;
                        markers += add.events - add.branches;
                        gaps += add.gaps;
                        packet_events(packet, &mut |event| sink(Ok(event)));
                    }
                    Ok(None) => break None,
                    Err(error) => break Some(error),
                }
            };
            // A failed next_packet advances neither the position nor the
            // context, so both are where the last good packet left them.
            at += dec.position();
            self.last_ip = dec.last_ip();
            let offset = (base + at as u64) as usize;
            match stop {
                None => break,
                Some(DecodeError::Truncated { .. }) => {
                    if self.finished {
                        self.report(DecodeError::Truncated { offset }, sink);
                        at = bytes.len();
                    }
                    break;
                }
                Some(DecodeError::UnknownPacket { byte, .. }) => {
                    self.report(DecodeError::UnknownPacket { offset, byte }, sink);
                    at += 1;
                    self.resyncing = true;
                }
            }
        }
        self.stats.packets += packets;
        self.stats.events += branches + markers;
        self.stats.branches += branches;
        self.stats.gaps += gaps;
        at
    }

    /// Counts an in-band error and hands it to the sink.
    fn report(&mut self, error: DecodeError, sink: &mut impl Sink) {
        self.stats.errors += 1;
        sink(Err(error));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::PacketEncoder;
    use crate::packet::{find_psb, OPC_ESCAPE, OPC_PSB};

    fn encode(events: &[BranchEvent]) -> Vec<u8> {
        let mut enc = PacketEncoder::new();
        enc.begin(0x40_0000);
        for e in events {
            enc.branch(e);
        }
        enc.finish()
    }

    fn mixed_events(n: u64) -> Vec<BranchEvent> {
        (0..n)
            .map(|i| {
                if i % 9 == 0 {
                    BranchEvent::Indirect {
                        target: 0x40_0000 + i * 24,
                    }
                } else {
                    BranchEvent::Conditional { taken: i % 2 == 0 }
                }
            })
            .collect()
    }

    /// Everything a sink receives from `chunks` pushed in order and a
    /// finish, plus the decoder.
    fn decode_items(chunks: &[&[u8]]) -> (Vec<Result<BranchEvent, DecodeError>>, StreamingDecoder) {
        let mut dec = StreamingDecoder::counting_only();
        let mut items = Vec::new();
        for chunk in chunks {
            dec.push_with(chunk, |item| items.push(item));
        }
        dec.finish_with(|item| items.push(item));
        (items, dec)
    }

    /// The events of a clean decode of `chunks`.
    fn decode_ok(chunks: &[&[u8]]) -> Vec<BranchEvent> {
        let (items, dec) = decode_items(chunks);
        assert_eq!(dec.stats().errors, 0);
        items
            .into_iter()
            .map(|item| item.expect("clean stream"))
            .collect()
    }

    #[test]
    fn whole_stream_matches_batch_decoder() {
        let bytes = encode(&mixed_events(500));
        let reference = PacketDecoder::new(&bytes).decode_events().unwrap();
        let (items, dec) = decode_items(&[&bytes]);
        assert_eq!(items, reference.into_iter().map(Ok).collect::<Vec<_>>());
        assert_eq!(dec.stats().errors, 0);
        assert_eq!(dec.buffered(), 0);
        assert_eq!(dec.stats().bytes_consumed, bytes.len() as u64);
    }

    #[test]
    fn byte_at_a_time_chunking_matches_batch_decoder() {
        let bytes = encode(&mixed_events(200));
        let reference = PacketDecoder::new(&bytes).decode_events().unwrap();
        let chunks: Vec<&[u8]> = bytes.chunks(1).collect();
        assert_eq!(decode_ok(&chunks), reference);
    }

    #[test]
    fn mid_psb_cut_is_carried_not_errored() {
        // Cut inside the initial PSB run: the prefix defers, the suffix
        // completes it, and no error is ever surfaced.
        let bytes = encode(&[BranchEvent::Conditional { taken: true }]);
        assert_eq!(&bytes[..2], &[OPC_ESCAPE, OPC_PSB]);
        let mut dec = StreamingDecoder::counting_only();
        let mut events = Vec::new();
        dec.push_with(&bytes[..3], |item| events.push(item.unwrap())); // one PSB pair + a lone escape byte
        assert!(events.is_empty());
        assert!(dec.buffered() > 0, "partial escape must be carried");
        dec.push_with(&bytes[3..], |item| events.push(item.unwrap()));
        dec.finish_with(|item| events.push(item.unwrap()));
        assert!(events.contains(&BranchEvent::Conditional { taken: true }));
        assert_eq!(dec.stats().errors, 0);
    }

    #[test]
    fn branch_counter_matches_encoder_side() {
        let events = mixed_events(300);
        let bytes = encode(&events);
        let mut dec = StreamingDecoder::counting_only();
        for chunk in bytes.chunks(7) {
            dec.push(chunk);
        }
        dec.finish();
        assert_eq!(dec.stats().branches, events.len() as u64);
        // Trace start/stop markers are events but not branches.
        assert_eq!(dec.stats().events, events.len() as u64 + 2);
    }

    #[test]
    fn truncated_tail_is_an_error_only_at_finish() {
        let mut enc = PacketEncoder::new();
        enc.branch(&BranchEvent::Indirect {
            target: 0xdead_beef_f00d,
        });
        let bytes = enc.drain();
        let mut dec = StreamingDecoder::counting_only();
        let mut items = Vec::new();
        dec.push_with(&bytes[..bytes.len() - 2], |item| items.push(item));
        assert!(items.is_empty(), "partial packet must defer");
        assert!(dec.buffered() > 0);
        dec.finish_with(|item| items.push(item));
        assert_eq!(items, [Err(DecodeError::Truncated { offset: 0 })]);
        assert_eq!(dec.stats().errors, 1);
        assert_eq!(dec.buffered(), 0);
        // Idempotent: a second finish reports nothing more.
        dec.finish_with(|item| items.push(item));
        assert_eq!(items.len(), 1);
    }

    #[test]
    fn unknown_packet_reports_once_and_resyncs_at_next_psb() {
        let mut enc = PacketEncoder::with_psb_interval(64);
        enc.begin(0x40_0000);
        for i in 0..400u64 {
            enc.branch(&BranchEvent::Indirect {
                target: i * 0x9999_7777,
            });
        }
        let bytes = enc.finish();
        // Corrupt the stream between the first two PSBs with an undecodable
        // escape sequence.
        let second_psb = 16 + find_psb(&bytes[16..]).expect("periodic PSB");
        let mut corrupt = bytes[..20].to_vec();
        corrupt.extend_from_slice(&[OPC_ESCAPE, 0x55]);
        corrupt.extend_from_slice(&bytes[20..]);
        let chunks: Vec<&[u8]> = corrupt.chunks(13).collect();
        let (items, dec) = decode_items(&chunks);
        let mut errors = 0;
        let mut events = Vec::new();
        for item in items {
            match item {
                Ok(e) => events.push(e),
                Err(e) => {
                    assert_eq!(
                        e,
                        DecodeError::UnknownPacket {
                            offset: 20,
                            byte: 0x55
                        }
                    );
                    errors += 1;
                }
            }
        }
        assert_eq!(errors, 1, "exactly one in-band error per corruption");
        assert_eq!(dec.stats().resyncs, 1);
        // Everything from the resync PSB onwards decodes as if standalone.
        let resumed = PacketDecoder::new(&bytes[second_psb..])
            .decode_events()
            .unwrap();
        assert!(events.ends_with(&resumed), "suffix after resync intact");
    }

    #[test]
    fn corruption_with_no_later_psb_drains_at_finish() {
        let bytes = encode(&mixed_events(20));
        let mut corrupt = bytes.clone();
        corrupt.push(0x03); // bad IP-family header
        corrupt.extend_from_slice(&[0xAB; 32]); // trailing garbage, no PSB
        let (items, dec) = decode_items(&[&corrupt]);
        assert_eq!(items.iter().filter(|i| i.is_err()).count(), 1);
        assert_eq!(dec.buffered(), 0, "finish drops the un-synced garbage");
        assert_eq!(dec.stats().resyncs, 0);
    }

    #[test]
    fn ip_context_is_carried_across_chunk_cuts() {
        // Nearby targets compress against last_ip; cutting between the two
        // TIPs only decodes correctly if the context survives the cut.
        let mut enc = PacketEncoder::new();
        enc.branch(&BranchEvent::Indirect {
            target: 0x7f00_1234_5678,
        });
        enc.branch(&BranchEvent::Indirect {
            target: 0x7f00_1234_9abc,
        });
        let bytes = enc.drain();
        let reference = PacketDecoder::new(&bytes).decode_events().unwrap();
        for cut in 1..bytes.len() {
            let (head, tail) = bytes.split_at(cut);
            assert_eq!(decode_ok(&[head, tail]), reference, "cut at {cut}");
        }
    }

    #[test]
    fn push_after_finish_panics() {
        let mut dec = StreamingDecoder::counting_only();
        dec.finish();
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dec.push(&[0]);
        }))
        .is_err());
    }

    #[test]
    fn counters_do_not_depend_on_the_sink() {
        let events = mixed_events(200);
        let bytes = encode(&events);
        let mut corrupt = bytes.clone();
        corrupt.push(0x03); // trailing corruption: counted either way
        let mut dec = StreamingDecoder::counting_only();
        for chunk in corrupt.chunks(9) {
            dec.push(chunk);
        }
        dec.finish();
        let stats = dec.stats();
        assert_eq!(stats.branches, events.len() as u64);
        assert_eq!(stats.errors, 1);
        // Identical counters to a decoder handing everything to a sink.
        let chunks: Vec<&[u8]> = corrupt.chunks(9).collect();
        let (items, with_sink) = decode_items(&chunks);
        assert_eq!(with_sink.stats(), stats);
        assert_eq!(items.len() as u64, stats.events + stats.errors);
    }

    #[test]
    fn stats_account_every_pushed_byte() {
        let bytes = encode(&mixed_events(50));
        let mut dec = StreamingDecoder::counting_only();
        for chunk in bytes.chunks(11) {
            dec.push(chunk);
        }
        assert_eq!(dec.stats().bytes_pushed, bytes.len() as u64);
        assert_eq!(
            dec.stats().bytes_consumed + dec.buffered() as u64,
            dec.stats().bytes_pushed
        );
        dec.finish();
        assert_eq!(dec.stats().bytes_consumed, bytes.len() as u64);
    }
}
