//! The streaming packet decoder: decode-while-running.
//!
//! [`PacketDecoder`] needs the complete byte
//! stream up front; a live session only ever has a *prefix* — AUX chunks
//! arrive at synchronization boundaries, and a post-mortem reader may cut
//! a log at arbitrary byte offsets. [`StreamingDecoder`] closes that gap
//! (the hwtracer-style incremental decoder the ROADMAP's "real decoder
//! path" item asks for):
//!
//! * [`push`](StreamingDecoder::push) accepts chunks incrementally and
//!   decodes every complete packet before returning; a packet cut by a
//!   chunk boundary is **deferred**, not an error — its prefix is carried
//!   until the missing bytes arrive;
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
//! The equivalence argument: the carry buffer always holds the
//! still-undecoded suffix, so each pass decodes the same byte sequence the
//! batch decoder would see, with [`StreamStats::bytes_consumed`] bytes
//! already committed and `last_ip` carrying the IP-decompression context
//! across the cut. The only framing divergence a cut can introduce is a
//! PSB run split into two shorter PSB packets — which contribute no events
//! and reset the IP context identically.

use crate::branch::BranchEvent;
use crate::decode::{packet_counts, packet_events, DecodeError, PacketDecoder};
use crate::packet::find_psb;

/// Counters of one streaming decode session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Bytes handed to [`StreamingDecoder::push`] so far.
    pub bytes_pushed: u64,
    /// Bytes fully consumed (decoded or discarded during resync); the
    /// difference to `bytes_pushed` is the buffered partial tail.
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

/// Where a decode pass sends events and in-band errors: the caller's sink,
/// or nowhere, in which case only the counters move.
type Sink<'a> = Option<&'a mut dyn FnMut(Result<BranchEvent, DecodeError>)>;

/// Compact the carry buffer only once at least this many consumed bytes
/// would be reclaimed (and the consumed prefix dominates the remainder), so
/// compaction cost stays amortised O(1) per byte.
const COMPACT_AT: usize = 4096;

/// An incremental PT packet decoder fed by AUX chunks.
///
/// Feed bytes with [`push`](Self::push) (counters only) or
/// [`push_with`](Self::push_with) (events and in-band errors to a sink),
/// and call [`finish`](Self::finish) / [`finish_with`](Self::finish_with)
/// once the producer is done — only then is a trailing partial packet an
/// error.
#[derive(Debug)]
pub struct StreamingDecoder {
    /// Carry buffer: the not-yet-consumed suffix of the stream lives at
    /// `buf[head..]`. Consuming advances the cursor instead of memmoving the
    /// tail; the prefix is reclaimed lazily (amortised O(1) per byte).
    buf: Vec<u8>,
    /// Start of the live region within `buf`.
    head: usize,
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
    /// many branches the packet carries — and allocates nothing beyond its
    /// carry buffer; events reach a caller only through the sink of
    /// [`push_with`](Self::push_with) / [`finish_with`](Self::finish_with).
    pub fn counting_only() -> Self {
        StreamingDecoder {
            buf: Vec::new(),
            head: 0,
            last_ip: 0,
            resyncing: false,
            finished: false,
            stats: StreamStats::default(),
        }
    }

    /// Appends one AUX chunk and decodes every complete packet buffered,
    /// updating the counters only.
    ///
    /// # Panics
    ///
    /// Panics if called after [`finish`](Self::finish).
    pub fn push(&mut self, chunk: &[u8]) {
        self.feed(chunk, None);
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
        self.feed(chunk, Some(&mut sink));
    }

    /// Marks the end of the stream and flushes: a partial packet still
    /// buffered becomes an in-band [`DecodeError::Truncated`], and garbage
    /// awaiting a PSB is dropped. Idempotent.
    pub fn finish(&mut self) {
        self.close(None);
    }

    /// [`finish`](Self::finish), handing a truncated tail's error to `sink`.
    pub fn finish_with(&mut self, mut sink: impl FnMut(Result<BranchEvent, DecodeError>)) {
        self.close(Some(&mut sink));
    }

    /// Bytes buffered: a partial packet or a resync tail.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Counters so far.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    fn feed(&mut self, chunk: &[u8], sink: Sink<'_>) {
        assert!(!self.finished, "push after finish");
        self.stats.bytes_pushed += chunk.len() as u64;
        if self.head == self.buf.len() {
            self.buf.clear();
            self.head = 0;
        } else if self.head >= COMPACT_AT && self.head >= self.buf.len() - self.head {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        self.buf.extend_from_slice(chunk);
        self.pump(sink);
    }

    fn close(&mut self, sink: Sink<'_>) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.pump(sink);
        debug_assert_eq!(
            self.head,
            self.buf.len(),
            "finish must drain the carry buffer"
        );
    }

    /// Decodes every complete packet in the carry buffer, resynchronising
    /// past corruption, until only a partial packet (or, before `finish`,
    /// a resync tail) is left.
    fn pump(&mut self, mut sink: Sink<'_>) {
        loop {
            if self.resyncing && !self.resync() {
                return;
            }
            let mut dec = PacketDecoder::with_context(&self.buf[self.head..], self.last_ip);
            let stop = loop {
                match dec.next_packet() {
                    Ok(Some(packet)) => {
                        let counts = packet_counts(packet);
                        self.stats.packets += 1;
                        self.stats.events += counts.events;
                        self.stats.branches += counts.branches;
                        self.stats.gaps += counts.gaps;
                        if let Some(sink) = sink.as_deref_mut() {
                            packet_events(packet, &mut |event| sink(Ok(event)));
                        }
                    }
                    Ok(None) => break None,
                    Err(error) => break Some(error),
                }
            };
            // A failed next_packet advances neither the position nor the
            // context, so both are exactly where the last good packet left
            // them, and a bad packet now starts the carry buffer.
            let (decoded, last_ip) = (dec.position(), dec.last_ip());
            self.last_ip = last_ip;
            self.consume(decoded);
            let offset = self.stats.bytes_consumed as usize;
            match stop {
                None => return,
                Some(DecodeError::Truncated { .. }) => {
                    if self.finished {
                        self.report(DecodeError::Truncated { offset }, &mut sink);
                        self.consume(self.buffered());
                    }
                    return;
                }
                Some(DecodeError::UnknownPacket { byte, .. }) => {
                    self.report(DecodeError::UnknownPacket { offset, byte }, &mut sink);
                    self.consume(1);
                    self.resyncing = true;
                }
            }
        }
    }

    /// Counts an in-band error and hands it to the sink, if any.
    fn report(&mut self, error: DecodeError, sink: &mut Sink<'_>) {
        self.stats.errors += 1;
        if let Some(sink) = sink {
            sink(Err(error));
        }
    }

    /// Discards garbage up to the next PSB. Returns `true` once
    /// synchronised; `false` when more bytes are needed (a 3-byte tail is
    /// kept in case a PSB pattern straddles the chunk boundary).
    fn resync(&mut self) -> bool {
        if let Some(i) = find_psb(&self.buf[self.head..]) {
            self.consume(i);
            self.resyncing = false;
            self.stats.resyncs += 1;
            return true;
        }
        let keep = if self.finished {
            0
        } else {
            self.buffered().min(3)
        };
        let drop = self.buffered() - keep;
        self.consume(drop);
        if self.finished {
            self.resyncing = false;
        }
        false
    }

    /// Drops `n` bytes from the head of the carry buffer (cursor advance
    /// only; the prefix is reclaimed on the next push).
    fn consume(&mut self, n: usize) {
        if n > 0 {
            self.head += n;
            self.stats.bytes_consumed += n as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::PacketEncoder;
    use crate::packet::{OPC_ESCAPE, OPC_PSB};

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
