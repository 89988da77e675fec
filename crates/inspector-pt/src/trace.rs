//! Per-thread PT trace sessions: encoder + AUX buffer + statistics.
//!
//! The runtime gives every traced thread a [`ThreadTrace`]. Branch events are
//! encoded immediately (that cost is the "OS support for Intel PT" share of
//! the provenance overhead); the resulting packet bytes are pushed into the
//! thread's AUX buffer and collected either continuously (full-trace mode) or
//! on demand (snapshot mode).

use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::aux::{AuxBuffer, AuxMode};
use crate::branch::BranchEvent;
use crate::decode::{DecodeError, PacketDecoder};
use crate::encode::PacketEncoder;
use crate::packet::{complete_frame_prefix, find_psb};
use crate::stats::PtStats;

/// Configuration of a per-thread trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// AUX buffer mode.
    pub mode: AuxMode,
    /// AUX buffer capacity in bytes (perf uses 4 MiB slots by default;
    /// the paper's snapshot facility uses 4 MB slots as well).
    pub aux_capacity: usize,
    /// Flush the encoder into the AUX buffer every this many branches.
    pub flush_every: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            mode: AuxMode::FullTrace,
            aux_capacity: 4 << 20,
            flush_every: 4096,
        }
    }
}

/// One recorded event in this many is timed, and its time stands for all of
/// them: a clock read costs several times the encode work it would measure.
const SAMPLE_EVERY: u32 = 64;

/// Stopwatch for an event shorter than a clock read. Starting it reads the
/// clock twice back to back; the gap is what one read adds to an interval,
/// and [`Sample::scaled`] takes it off so the estimate is not mostly
/// stopwatch.
struct Sample {
    idle: Instant,
    start: Instant,
}

impl Sample {
    /// Starts the stopwatch if the event is due: `seen` of its kind came
    /// before it, and the first of every [`SAMPLE_EVERY`] is timed.
    fn due(seen: u64) -> Option<Sample> {
        seen.is_multiple_of(u64::from(SAMPLE_EVERY)).then(|| {
            let idle = Instant::now();
            Sample {
                idle,
                start: Instant::now(),
            }
        })
    }

    /// The time since the start, net of the clock, standing for
    /// [`SAMPLE_EVERY`] events — at least a nanosecond each, so sampled work
    /// never reads as none.
    fn scaled(self) -> Duration {
        let net = self.start.elapsed().saturating_sub(self.start - self.idle);
        net.max(Duration::from_nanos(1)) * SAMPLE_EVERY
    }
}

/// A per-thread Intel PT trace.
#[derive(Debug)]
pub struct ThreadTrace {
    encoder: PacketEncoder,
    /// Encoder output on its way into the AUX buffer; empty between flushes.
    staging: Vec<u8>,
    aux: AuxBuffer,
    collected: Vec<u8>,
    stats: PtStats,
    config: TraceConfig,
    since_flush: u64,
}

impl ThreadTrace {
    /// Creates a trace with the default configuration and enables tracing at
    /// `start_ip`.
    pub fn new(start_ip: u64) -> Self {
        Self::with_config(start_ip, TraceConfig::default())
    }

    /// Creates a trace with an explicit configuration.
    pub fn with_config(start_ip: u64, config: TraceConfig) -> Self {
        let mut encoder = PacketEncoder::new();
        encoder.begin(start_ip);
        ThreadTrace {
            encoder,
            staging: Vec::new(),
            aux: AuxBuffer::new(config.mode, config.aux_capacity),
            collected: Vec::new(),
            stats: PtStats::default(),
            config,
            since_flush: 0,
        }
    }

    /// Records one branch event.
    ///
    /// The clock is read for one event in 64 and the sample is added
    /// scaled (see [`PtStats::encode_time`]). TNT bits and IP packets are
    /// sampled separately, first of each included: they cost differently,
    /// and a loop recording them in a fixed pattern would always present
    /// the same one to a shared stride. The periodic flush is timed on its
    /// own, exactly, so no sample carries it.
    pub fn record(&mut self, event: BranchEvent) {
        let conditional = event.is_conditional();
        let seen = if conditional {
            self.stats.conditional_branches
        } else {
            self.stats.branches - self.stats.conditional_branches
        };
        let sample = Sample::due(seen);
        self.stats.branches += 1;
        self.stats.conditional_branches += u64::from(conditional);
        self.encoder.branch(&event);
        if let Some(sample) = sample {
            self.stats.encode_time += sample.scaled();
        }
        self.since_flush += 1;
        if self.since_flush >= self.config.flush_every {
            let start = Instant::now();
            self.flush();
            self.stats.encode_time += start.elapsed();
        }
    }

    /// Records a conditional branch (convenience).
    pub fn conditional(&mut self, taken: bool) {
        self.record(BranchEvent::Conditional { taken });
    }

    /// Records an indirect branch/call (convenience).
    pub fn indirect(&mut self, target: u64) {
        self.record(BranchEvent::Indirect { target });
    }

    /// Flushes pending encoder output into the AUX buffer and, in full-trace
    /// mode, collects the AUX contents into the trace log (what `perf
    /// record` would write to `/tmp`).
    pub fn flush(&mut self) {
        self.encoder.drain_into(&mut self.staging);
        if !self.staging.is_empty() {
            self.stats.trace_bytes += self.staging.len() as u64;
            self.aux.produce(&self.staging);
            self.staging.clear();
        }
        if self.config.mode == AuxMode::FullTrace {
            self.aux.collect_into(&mut self.collected);
        }
        let aux_stats = self.aux.stats();
        self.stats.bytes_lost = aux_stats.bytes_lost;
        self.stats.gaps = aux_stats.gaps;
        self.since_flush = 0;
    }

    /// Forces one overflow episode of `bytes` lost bytes on the underlying
    /// AUX ring (deterministic fault injection). The loss is accounted like
    /// a real slow-consumer drop — `gaps`/`bytes_lost` in [`PtStats`] — and
    /// the next flush emits a real OVF marker into the collected stream.
    pub fn inject_overflow(&mut self, bytes: u64) {
        self.aux.inject_overflow(bytes);
        let aux_stats = self.aux.stats();
        self.stats.bytes_lost = aux_stats.bytes_lost;
        self.stats.gaps = aux_stats.gaps;
    }

    /// Removes and returns the packet bytes collected since the last drain.
    ///
    /// This is the incremental consumption path of the streaming pipeline:
    /// the runtime drains the collected log at every synchronization
    /// boundary and submits it to the perf session right away, so AUX data
    /// flows while the thread runs instead of being handed over in one lump
    /// at [`finish`](Self::finish). Bytes are moved out; the concatenation
    /// of all drains plus the tail returned by `finish` decodes to exactly
    /// the same branch-event stream as an undrained run (packet framing may
    /// differ, since a drain forces pending TNT bits into a packet early).
    ///
    /// A drained chunk never ends mid-packet: if the collected log ends in
    /// a partial frame (possible when the AUX transport cuts at arbitrary
    /// byte offsets), the partial tail is carried into the next drain
    /// instead of being handed out truncated, so per-chunk consumers (the
    /// online decode stage) never see a spurious truncation.
    pub fn drain_collected(&mut self) -> Vec<u8> {
        // The chunk is copied out at its exact size and the log keeps its
        // buffer, so the flushes in between allocate nothing.
        self.drain_collected_with(<[u8]>::to_vec)
    }

    /// [`drain_collected`](Self::drain_collected) without the copy: lends
    /// the chunk — the same complete-frame prefix, possibly empty — to
    /// `consume` and removes it from the log afterwards. For consumers that
    /// append the bytes somewhere of their own (the perf session's per-process
    /// log) and would drop an owned chunk right after.
    pub fn drain_collected_with<R>(&mut self, consume: impl FnOnce(&[u8]) -> R) -> R {
        let boundary = complete_frame_prefix(&self.collected);
        let result = consume(&self.collected[..boundary]);
        self.collected.drain(..boundary);
        result
    }

    /// Grabs a snapshot of the most recent trace window (snapshot mode):
    /// emits a FUP marking the request point and returns the bytes currently
    /// retained in the AUX buffer.
    ///
    /// The window's head may start mid-packet (the ring overwrites oldest
    /// bytes first; consumers re-sync at the first PSB). For any window
    /// that contains a PSB — the only kind a consumer can decode at all —
    /// the tail is guaranteed to end on a packet boundary: the window is
    /// frame-scanned from that PSB and a partial trailing frame is trimmed
    /// off rather than returned truncated. A PSB-free window is returned
    /// as-is (there is no trustworthy framing to trim by).
    pub fn snapshot(&mut self, marker_ip: u64) -> Vec<u8> {
        self.encoder.fup(marker_ip);
        let bytes = self.encoder.drain();
        self.stats.trace_bytes += bytes.len() as u64;
        self.aux.produce(&bytes);
        let window = self.aux.peek();
        // Frame-scan from the first PSB — the only point at which framing
        // is trustworthy in a wrapped window.
        match find_psb(window) {
            Some(start) => window[..start + complete_frame_prefix(&window[start..])].to_vec(),
            None => window.to_vec(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> PtStats {
        self.stats
    }

    /// Finishes the trace and returns the full collected log.
    pub fn finish(mut self) -> (Vec<u8>, PtStats) {
        self.flush();
        // finish() on the encoder emits the final TIP.PGD.
        let encoder = std::mem::take(&mut self.encoder);
        let tail = encoder.finish();
        self.stats.trace_bytes += tail.len() as u64;
        self.aux.produce(&tail);
        self.aux.collect_into(&mut self.collected);
        let aux_stats = self.aux.stats();
        self.stats.bytes_lost = aux_stats.bytes_lost;
        self.stats.gaps = aux_stats.gaps;
        (self.collected, self.stats)
    }

    /// Decodes a collected log back into branch events.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] if the log is malformed.
    pub fn decode(log: &[u8]) -> Result<Vec<BranchEvent>, DecodeError> {
        PacketDecoder::new(log).decode_events()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_flush_finish_roundtrip() {
        let mut trace = ThreadTrace::new(0x400000);
        for i in 0..1000u64 {
            if i % 10 == 0 {
                trace.indirect(0x400000 + i);
            } else {
                trace.conditional(i % 3 == 0);
            }
        }
        let (log, stats) = trace.finish();
        assert_eq!(stats.branches, 1000);
        assert_eq!(stats.conditional_branches, 900);
        assert!(stats.trace_bytes > 0);
        assert!(!log.is_empty());

        let events = ThreadTrace::decode(&log).unwrap();
        let conditionals = events.iter().filter(|e| e.is_conditional()).count();
        assert_eq!(conditionals, 900);
    }

    #[test]
    fn compression_keeps_bytes_per_branch_small() {
        let mut trace = ThreadTrace::new(0);
        for i in 0..10_000u64 {
            trace.conditional(i % 2 == 0);
        }
        let (_, stats) = trace.finish();
        assert!(
            stats.bytes_per_branch() < 0.5,
            "TNT compression should be well below one byte per branch, got {}",
            stats.bytes_per_branch()
        );
    }

    #[test]
    fn full_trace_mode_with_tiny_aux_reports_loss_free_collection() {
        // The runtime collects at every flush, so even a small AUX buffer
        // does not lose data as long as flushes are frequent enough.
        let mut trace = ThreadTrace::with_config(
            0,
            TraceConfig {
                mode: AuxMode::FullTrace,
                aux_capacity: 512,
                flush_every: 16,
            },
        );
        for i in 0..5_000u64 {
            trace.indirect(i * 0x1111);
        }
        let (log, stats) = trace.finish();
        assert_eq!(stats.bytes_lost, 0);
        assert_eq!(stats.gaps, 0);
        assert!(log.len() as u64 >= stats.trace_bytes);
    }

    #[test]
    fn slow_consumer_loses_data_and_records_gaps() {
        // Flushing rarely with a tiny AUX buffer models a consumer that
        // cannot keep up: data must be lost and gaps recorded.
        let mut trace = ThreadTrace::with_config(
            0,
            TraceConfig {
                mode: AuxMode::FullTrace,
                aux_capacity: 64,
                flush_every: 1_000_000,
            },
        );
        for i in 0..10_000u64 {
            trace.indirect(i * 0x9999_7777);
        }
        trace.flush();
        let stats = trace.stats();
        assert!(stats.bytes_lost > 0);
        assert!(stats.gaps >= 1);
    }

    #[test]
    fn injected_overflow_flows_into_pt_stats_and_stream() {
        let mut trace = ThreadTrace::new(0x400000);
        trace.conditional(true);
        trace.flush();
        trace.inject_overflow(100);
        trace.conditional(false);
        let (log, stats) = trace.finish();
        assert_eq!(stats.gaps, 1);
        assert_eq!(stats.bytes_lost, 100);
        let events = ThreadTrace::decode(&log).unwrap();
        assert!(events.contains(&BranchEvent::Overflow));
    }

    #[test]
    fn snapshot_mode_retains_recent_window_only() {
        let mut trace = ThreadTrace::with_config(
            0,
            TraceConfig {
                mode: AuxMode::Snapshot,
                aux_capacity: 256,
                flush_every: 8,
            },
        );
        for i in 0..10_000u64 {
            trace.conditional(i % 2 == 0);
        }
        let window = trace.snapshot(0xdead);
        assert!(window.len() <= 256);
        // The window decodes after re-syncing to a PSB (or from the start if
        // it happens to begin on a packet boundary).
        let mut dec = PacketDecoder::new(&window);
        if dec.sync_to_psb() {
            assert!(dec.decode_events().is_ok());
        }
    }

    #[test]
    fn incremental_drains_reassemble_into_the_full_log() {
        // Draining mid-stream forces pending TNT bits into packets early, so
        // the bytes differ from an undrained run — but the concatenation of
        // all drained chunks plus the finish() tail must decode to exactly
        // the same branch events.
        let run = |drain_every: Option<u64>| -> Vec<u8> {
            let mut trace = ThreadTrace::new(0x400000);
            let mut out = Vec::new();
            for i in 0..5_000u64 {
                if i % 7 == 0 {
                    trace.indirect(0x400000 + i);
                } else {
                    trace.conditional(i % 2 == 0);
                }
                if let Some(n) = drain_every {
                    if i % n == n - 1 {
                        trace.flush();
                        out.extend_from_slice(&trace.drain_collected());
                    }
                }
            }
            let (tail, _) = trace.finish();
            out.extend_from_slice(&tail);
            out
        };
        let undrained = run(None);
        let drained = run(Some(64));
        let reference = ThreadTrace::decode(&undrained).unwrap();
        let incremental = ThreadTrace::decode(&drained).unwrap();
        assert_eq!(incremental, reference);
        assert!(!incremental.is_empty());
    }

    #[test]
    fn drain_collected_carries_a_partial_packet_into_the_next_drain() {
        // Regression: a byte-granular AUX transport can leave the collected
        // log ending mid-packet. The drain must stop at the last packet
        // boundary and hand the partial tail out with the *next* drain,
        // never as a truncated chunk.
        let mut trace = ThreadTrace::new(0x400000);
        trace.indirect(0xdead_beef);
        trace.flush();
        // A TIP packet whose last two bytes have not arrived yet.
        let mut enc = PacketEncoder::new();
        enc.branch(&BranchEvent::Indirect {
            target: 0x7777_1234_5678,
        });
        let tip = enc.drain();
        let (head, tail) = tip.split_at(tip.len() - 2);
        trace.collected.extend_from_slice(head);

        let first = trace.drain_collected();
        // The chunk decodes standalone — no spurious truncation error…
        PacketDecoder::new(&first)
            .decode_events()
            .expect("drained chunk must end on a packet boundary");
        // …because the partial frame stayed buffered.
        assert!(!trace.collected.is_empty(), "partial tail must be carried");

        trace.collected.extend_from_slice(tail);
        let second = trace.drain_collected();
        assert!(trace.collected.is_empty());
        let mut all = first;
        all.extend_from_slice(&second);
        let events = PacketDecoder::new(&all).decode_events().unwrap();
        assert!(events.contains(&BranchEvent::Indirect {
            target: 0x7777_1234_5678
        }));
    }

    #[test]
    fn lent_chunks_are_the_drained_chunks() {
        // Two traces in lockstep, one drained by value and one by loan:
        // same cuts, same bytes, and the loan leaves nothing behind.
        let mut owned = ThreadTrace::new(0x400000);
        let mut lent = ThreadTrace::new(0x400000);
        for round in 0..40u64 {
            for i in 0..round % 7 {
                for trace in [&mut owned, &mut lent] {
                    trace.conditional(i % 2 == 0);
                    trace.indirect(0x400000 + round * 64 + i);
                }
            }
            owned.flush();
            lent.flush();
            let chunk = owned.drain_collected();
            assert!(lent.drain_collected_with(|bytes| bytes == chunk.as_slice()));
            assert!(lent.collected.is_empty());
        }
        assert_eq!(owned.finish().0, lent.finish().0);
    }

    #[test]
    fn carried_partial_tail_is_flushed_by_finish() {
        let mut trace = ThreadTrace::new(0x400000);
        trace.conditional(true);
        // Leave a partial TIP in the collected log, as above.
        let mut enc = PacketEncoder::new();
        enc.branch(&BranchEvent::Indirect { target: 0x1111 });
        let tip = enc.drain();
        trace.flush();
        trace.collected.extend_from_slice(&tip[..tip.len() - 1]);
        let _ = trace.drain_collected();
        assert!(!trace.collected.is_empty());
        // finish() returns everything still buffered, carried tail included.
        let (log, _) = trace.finish();
        assert!(log.starts_with(&tip[..tip.len() - 1]));
    }

    #[test]
    fn snapshot_window_ends_on_a_packet_boundary() {
        let mut trace = ThreadTrace::with_config(
            0,
            TraceConfig {
                mode: AuxMode::Snapshot,
                aux_capacity: 256,
                flush_every: 8,
            },
        );
        for i in 0..10_000u64 {
            if i % 5 == 0 {
                trace.indirect(i * 0x1357);
            } else {
                trace.conditional(i % 2 == 0);
            }
        }
        let window = trace.snapshot(0xdead);
        let mut dec = PacketDecoder::new(&window);
        if dec.sync_to_psb() {
            // From the first PSB on, the window must decode without a
            // truncation at the tail.
            dec.decode_events()
                .expect("snapshot window must not end mid-packet");
        }
    }

    /// Records `branches` conditionals; the sampled estimate and the wall
    /// time of the loop that produced it.
    fn timed_trace(branches: u64) -> (Duration, Duration) {
        let mut trace = ThreadTrace::new(0x400000);
        let start = Instant::now();
        for i in 0..branches {
            trace.conditional(i % 3 == 0);
        }
        let wall = start.elapsed();
        (trace.stats().encode_time, wall)
    }

    #[test]
    fn sampled_encode_time_is_nonzero_for_any_trace_length() {
        for branches in [1, 63, 64, 10_000] {
            assert!(timed_trace(branches).0 > Duration::ZERO, "{branches}");
        }
    }

    #[test]
    fn encode_time_is_sampled_one_event_in_64_per_kind() {
        let mut trace = ThreadTrace::new(0x400000);
        trace.conditional(true);
        let one_bit = trace.stats().encode_time;
        trace.indirect(0x1234);
        let one_each = trace.stats().encode_time;
        assert!(one_each > one_bit);
        // Events 2..=64 of a kind never reach the clock; the 65th does.
        for i in 1..64u64 {
            trace.conditional(i % 2 == 0);
            trace.indirect(0x1234 + i);
        }
        assert_eq!(trace.stats().encode_time, one_each);
        trace.conditional(false);
        let second_sample = trace.stats().encode_time;
        assert!(second_sample > one_each);
        trace.indirect(0x9999);
        assert!(trace.stats().encode_time > second_sample);
    }

    #[test]
    fn sampled_encode_time_stays_below_the_loop_that_produced_it() {
        // An estimate that still carried the stopwatch would sit several
        // times above the loop on every attempt; a preempted sample (scaled
        // 64x where the loop pays it once) only spoils the odd one.
        let attempts: Vec<_> = (0..5).map(|_| timed_trace(10_000)).collect();
        assert!(
            attempts.iter().any(|(estimate, wall)| estimate < wall),
            "(estimate, loop) per attempt: {attempts:?}"
        );
    }

    #[test]
    fn stats_accumulate_across_flushes() {
        let mut trace = ThreadTrace::new(0);
        trace.conditional(true);
        trace.flush();
        trace.conditional(false);
        trace.flush();
        assert_eq!(trace.stats().branches, 2);
        assert!(trace.stats().trace_bytes > 0);
    }
}
