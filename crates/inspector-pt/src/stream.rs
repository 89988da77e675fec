//! The streaming packet decoder: decode-while-running.
//!
//! [`PacketDecoder`](crate::decode::PacketDecoder) needs the complete byte
//! stream up front; a live session only ever has a *prefix* — AUX chunks
//! arrive at synchronization boundaries and can be cut at arbitrary byte
//! offsets. [`StreamingDecoder`] closes that gap (the hwtracer-style
//! incremental iterator the ROADMAP's "real decoder path" item asks for):
//!
//! * [`push`](StreamingDecoder::push) accepts chunks incrementally; a
//!   packet cut by a chunk boundary is **deferred**, not an error — its
//!   prefix is carried until the missing bytes arrive;
//! * decoding is **demand-paced** in recording mode: a push decodes one
//!   bounded quantum eagerly and [`next_event`](StreamingDecoder::next_event)
//!   pulls further quanta as the consumer drains, so the pending-event
//!   queue stays cache-resident no matter how large the pushed chunks are
//!   (counting mode decodes everything at push — it queues nothing);
//! * counters are kept **per packet** in both modes, from one function
//!   (`decode::packet_counts`) that states what each packet's
//!   events add up to: counting mode never expands a TNT packet into its
//!   events, and it keeps recording mode's counters by construction;
//! * corruption surfaces as a single in-band
//!   [`DecodeError::UnknownPacket`], after which the decoder discards
//!   garbage up to the next PSB and resumes (at most one PSB window of
//!   events is lost per corruption);
//! * over any chunking of any well-formed stream the yielded events are
//!   exactly what the batch decoder produces on the concatenation of every
//!   chunk (`tests/streaming_decode.rs` enforces this by property test).
//!
//! The equivalence argument: the carry buffer always holds the
//! still-undecoded suffix, so each pump decodes the same byte sequence the
//! batch decoder would see, with [`StreamStats::bytes_consumed`] bytes
//! already committed and `last_ip` carrying the IP-decompression context
//! across the cut. The only framing divergence a cut can introduce is a
//! PSB run split into two shorter PSB packets — which contribute no events
//! and reset the IP context identically.

use std::collections::VecDeque;

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
    /// Branch events yielded (all kinds, trace markers included).
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

/// What stopped a decode pass over the carry buffer.
enum Stop {
    /// Every buffered byte decoded.
    Drained,
    /// A partial packet at the tail; wait for more bytes.
    Truncated,
    /// An undecodable header with the offending byte.
    Unknown(u8),
    /// The per-pass byte quantum was reached; more complete packets remain
    /// buffered and the next pump continues where this one stopped.
    Quota,
}

/// Bytes decoded per pump pass in event-recording mode. Bounding the pass
/// keeps the pending-event queue cache-resident no matter how large a chunk
/// is pushed: a 64 KiB push used to queue the chunk's entire event stream
/// (megabytes) before the consumer could drain any of it, which made big
/// chunks *slower* than small ones. Consumers draining via
/// [`StreamingDecoder::next_event`] / [`StreamingDecoder::events`] pull the
/// remaining quanta on demand.
const PUMP_QUANTUM: usize = 4096;

/// Compact the carry buffer only once at least this many consumed bytes
/// would be reclaimed (and the consumed prefix dominates the remainder), so
/// compaction cost stays amortised O(1) per byte.
const COMPACT_AT: usize = 4096;

/// An incremental PT packet decoder fed by AUX chunks.
///
/// Feed bytes with [`push`](Self::push), consume decoded events (and
/// in-band errors) with [`next_event`](Self::next_event) /
/// [`events`](Self::events), and call [`finish`](Self::finish) once the
/// producer is done — only then is a trailing partial packet an error.
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
    /// Decoded events and in-band errors awaiting consumption.
    pending: VecDeque<Result<BranchEvent, DecodeError>>,
    /// Discarding garbage until the next PSB.
    resyncing: bool,
    /// `finish` was called; no more bytes will arrive.
    finished: bool,
    /// When `false`, nothing is queued in `pending`: only [`StreamStats`]
    /// counters are maintained (the ingest workers' mode — the cross-check
    /// needs counts, not the event stream).
    record_events: bool,
    stats: StreamStats,
}

impl Default for StreamingDecoder {
    fn default() -> Self {
        StreamingDecoder {
            buf: Vec::new(),
            head: 0,
            last_ip: 0,
            pending: VecDeque::new(),
            resyncing: false,
            finished: false,
            record_events: true,
            stats: StreamStats::default(),
        }
    }
}

impl StreamingDecoder {
    /// Creates a decoder positioned at the start of a stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a decoder that only maintains [`StreamStats`] counters and
    /// never queues events or in-band errors: each decoded packet costs
    /// one add per counter, however many branches it carries, and nothing
    /// is allocated beyond the carry buffer.
    /// [`next_event`](Self::next_event) always returns `None`; read the
    /// outcome from [`stats`](Self::stats).
    pub fn counting_only() -> Self {
        StreamingDecoder {
            record_events: false,
            ..Self::default()
        }
    }

    /// Appends one AUX chunk and decodes. In counting mode everything
    /// decodable is consumed before returning; in recording mode one
    /// [`PUMP_QUANTUM`] is decoded eagerly and the rest is pulled on demand
    /// as [`next_event`](Self::next_event) / [`events`](Self::events) drain
    /// the queue, so the pending-event queue stays small and cache-resident
    /// regardless of chunk size.
    ///
    /// # Panics
    ///
    /// Panics if called after [`finish`](Self::finish).
    pub fn push(&mut self, chunk: &[u8]) {
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
        self.pump(self.quantum());
    }

    /// Marks the end of the stream and flushes: remaining complete packets
    /// are decoded, a partial packet still buffered becomes an in-band
    /// [`DecodeError::Truncated`], and garbage awaiting a PSB is dropped.
    /// Idempotent.
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.pump(usize::MAX);
        debug_assert_eq!(
            self.head,
            self.buf.len(),
            "finish must drain the carry buffer"
        );
    }

    /// Removes and returns the next decoded event or in-band error, or
    /// `None` when everything currently decodable has been consumed. Pulls
    /// further decode quanta from the carry buffer on demand.
    #[inline]
    pub fn next_event(&mut self) -> Option<Result<BranchEvent, DecodeError>> {
        if let Some(item) = self.pending.pop_front() {
            return Some(item);
        }
        self.refill()
    }

    /// Cold path of [`next_event`](Self::next_event): the queue ran dry, so
    /// pull further decode quanta until an event appears or the buffered
    /// bytes are exhausted/awaiting more input.
    #[cold]
    fn refill(&mut self) -> Option<Result<BranchEvent, DecodeError>> {
        loop {
            if !self.record_events || self.buffered() == 0 {
                return None;
            }
            let before = (self.stats.bytes_consumed, self.resyncing);
            self.pump(self.quantum());
            if let Some(item) = self.pending.pop_front() {
                return Some(item);
            }
            if (self.stats.bytes_consumed, self.resyncing) == before {
                // No progress: a partial packet (or resync tail) is waiting
                // for more bytes.
                return None;
            }
        }
    }

    /// Iterator draining the currently decodable events (hwtracer-style).
    pub fn events(&mut self) -> impl Iterator<Item = Result<BranchEvent, DecodeError>> + '_ {
        std::iter::from_fn(move || self.next_event())
    }

    /// Bytes buffered: a partial packet or resync tail, plus — in recording
    /// mode — complete packets not yet pulled by the demand-driven pump.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.head
    }

    /// The per-pass pump bound for this decoder's mode.
    fn quantum(&self) -> usize {
        if self.record_events {
            PUMP_QUANTUM
        } else {
            usize::MAX
        }
    }

    /// `true` once [`finish`](Self::finish) has been called.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Counters so far.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Decodes the carry buffer, committing at most `limit` bytes of
    /// complete packets before returning with more work pending
    /// ([`Stop::Quota`]); resync discarding does not count toward the
    /// quota.
    fn pump(&mut self, limit: usize) {
        let mut decoded = 0usize;
        loop {
            if self.resyncing && !self.resync() {
                return;
            }
            let mut committed = 0usize;
            let (stop, context_ip) = {
                // Split borrows: the decoder reads `buf` while the event
                // sink appends to `pending`/`stats` — no intermediate
                // buffer on the per-event hot path.
                let StreamingDecoder {
                    buf,
                    head,
                    pending,
                    stats,
                    last_ip,
                    record_events,
                    ..
                } = &mut *self;
                let mut dec = PacketDecoder::with_context(&buf[*head..], *last_ip);
                let stop = loop {
                    if decoded + committed >= limit {
                        break Stop::Quota;
                    }
                    match dec.next_packet() {
                        Ok(Some(packet)) => {
                            committed = dec.position();
                            let counts = packet_counts(packet);
                            stats.packets += 1;
                            stats.events += counts.events;
                            stats.branches += counts.branches;
                            stats.gaps += counts.gaps;
                            if *record_events {
                                packet_events(packet, &mut |event| pending.push_back(Ok(event)));
                            }
                        }
                        Ok(None) => break Stop::Drained,
                        Err(DecodeError::Truncated { .. }) => break Stop::Truncated,
                        Err(DecodeError::UnknownPacket { byte, .. }) => break Stop::Unknown(byte),
                    }
                };
                // A failed next_packet never advances the context, so this
                // is exactly where the last good packet left it.
                (stop, dec.last_ip())
            };
            self.last_ip = context_ip;
            self.consume(committed);
            decoded += committed;
            match stop {
                Stop::Drained | Stop::Quota => return,
                Stop::Truncated => {
                    if self.finished {
                        self.stats.errors += 1;
                        if self.record_events {
                            self.pending.push_back(Err(DecodeError::Truncated {
                                offset: self.stats.bytes_consumed as usize,
                            }));
                        }
                        let rest = self.buffered();
                        self.consume(rest);
                    }
                    return;
                }
                Stop::Unknown(byte) => {
                    // `committed` stopped exactly at the bad packet, so it
                    // now sits at the head of the carry buffer.
                    self.stats.errors += 1;
                    if self.record_events {
                        self.pending.push_back(Err(DecodeError::UnknownPacket {
                            offset: self.stats.bytes_consumed as usize,
                            byte,
                        }));
                    }
                    self.consume(1);
                    self.resyncing = true;
                }
            }
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
    use crate::encode::{EncoderConfig, PacketEncoder};
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

    fn drain_ok(dec: &mut StreamingDecoder) -> Vec<BranchEvent> {
        dec.events()
            .map(|item| item.expect("clean stream"))
            .collect()
    }

    #[test]
    fn whole_stream_matches_batch_decoder() {
        let bytes = encode(&mixed_events(500));
        let reference = PacketDecoder::new(&bytes).decode_events().unwrap();
        let mut dec = StreamingDecoder::new();
        dec.push(&bytes);
        dec.finish();
        assert_eq!(drain_ok(&mut dec), reference);
        assert_eq!(dec.stats().errors, 0);
        assert_eq!(dec.buffered(), 0);
        assert_eq!(dec.stats().bytes_consumed, bytes.len() as u64);
    }

    #[test]
    fn byte_at_a_time_chunking_matches_batch_decoder() {
        let bytes = encode(&mixed_events(200));
        let reference = PacketDecoder::new(&bytes).decode_events().unwrap();
        let mut dec = StreamingDecoder::new();
        let mut out = Vec::new();
        for b in &bytes {
            dec.push(std::slice::from_ref(b));
            out.extend(drain_ok(&mut dec));
        }
        dec.finish();
        out.extend(drain_ok(&mut dec));
        assert_eq!(out, reference);
        assert_eq!(dec.stats().errors, 0);
    }

    #[test]
    fn mid_psb_cut_is_carried_not_errored() {
        // Cut inside the initial PSB run: the prefix defers, the suffix
        // completes it, and no error is ever surfaced.
        let bytes = encode(&[BranchEvent::Conditional { taken: true }]);
        assert_eq!(&bytes[..2], &[OPC_ESCAPE, OPC_PSB]);
        let mut dec = StreamingDecoder::new();
        dec.push(&bytes[..3]); // one PSB pair + a lone escape byte
        assert!(drain_ok(&mut dec).is_empty());
        assert!(dec.buffered() > 0, "partial escape must be carried");
        dec.push(&bytes[3..]);
        dec.finish();
        let events = drain_ok(&mut dec);
        assert!(events.contains(&BranchEvent::Conditional { taken: true }));
        assert_eq!(dec.stats().errors, 0);
    }

    #[test]
    fn branch_counter_matches_encoder_side() {
        let events = mixed_events(300);
        let bytes = encode(&events);
        let mut dec = StreamingDecoder::new();
        for chunk in bytes.chunks(7) {
            dec.push(chunk);
        }
        dec.finish();
        while dec.next_event().is_some() {}
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
        let mut dec = StreamingDecoder::new();
        dec.push(&bytes[..bytes.len() - 2]);
        assert!(dec.next_event().is_none(), "partial packet must defer");
        assert!(dec.buffered() > 0);
        dec.finish();
        let item = dec.next_event().expect("finish surfaces the truncation");
        assert!(matches!(item, Err(DecodeError::Truncated { .. })));
        assert_eq!(dec.stats().errors, 1);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn unknown_packet_reports_once_and_resyncs_at_next_psb() {
        let mut enc = PacketEncoder::with_config(EncoderConfig {
            psb_interval_bytes: 64,
            ..EncoderConfig::default()
        });
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
        let mut dec = StreamingDecoder::new();
        for chunk in corrupt.chunks(13) {
            dec.push(chunk);
        }
        dec.finish();
        let mut errors = 0;
        let mut events = Vec::new();
        while let Some(item) = dec.next_event() {
            match item {
                Ok(e) => events.push(e),
                Err(e) => {
                    assert!(matches!(e, DecodeError::UnknownPacket { byte: 0x55, .. }));
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
        let mut dec = StreamingDecoder::new();
        dec.push(&corrupt);
        dec.finish();
        let errors = dec.events().filter(|i| i.is_err()).count();
        assert_eq!(errors, 1);
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
            let mut dec = StreamingDecoder::new();
            dec.push(&bytes[..cut]);
            dec.push(&bytes[cut..]);
            dec.finish();
            assert_eq!(drain_ok(&mut dec), reference, "cut at {cut}");
        }
    }

    #[test]
    fn push_after_finish_panics() {
        let mut dec = StreamingDecoder::new();
        dec.finish();
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dec.push(&[0]);
        }))
        .is_err());
    }

    #[test]
    fn counting_only_keeps_stats_but_queues_nothing() {
        let events = mixed_events(200);
        let bytes = encode(&events);
        let mut corrupt = bytes.clone();
        corrupt.push(0x03); // trailing corruption: counted, not queued
        let mut dec = StreamingDecoder::counting_only();
        for chunk in corrupt.chunks(9) {
            dec.push(chunk);
        }
        dec.finish();
        assert!(dec.next_event().is_none(), "counting mode queues no items");
        let stats = dec.stats();
        assert_eq!(stats.branches, events.len() as u64);
        assert_eq!(stats.errors, 1);
        // Identical counters to a recording decoder over the same stream.
        let mut rec = StreamingDecoder::new();
        for chunk in corrupt.chunks(9) {
            rec.push(chunk);
        }
        rec.finish();
        while rec.next_event().is_some() {}
        assert_eq!(rec.stats(), stats);
    }

    #[test]
    fn stats_account_every_pushed_byte() {
        let bytes = encode(&mixed_events(50));
        let mut dec = StreamingDecoder::new();
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
