//! Per-thread PT trace sessions: encoder + AUX buffer + statistics.
//!
//! The runtime gives every traced thread a [`ThreadTrace`]. Branch events are
//! encoded immediately (that cost is the "OS support for Intel PT" share of
//! the provenance overhead); the resulting packet bytes are pushed into the
//! thread's AUX buffer and collected at every flush.
//!
//! The collected log only ever ends on a packet boundary, by construction:
//! the encoder flushes its pending TNT bits before it lends its output, the
//! ring accepts or drops each lent output whole and writes its OVF marker
//! as one unit, and collection moves the whole ring.

use std::time::{Duration, Instant};

use crate::aux::AuxBuffer;
use crate::branch::BranchEvent;
use crate::encode::PacketEncoder;
use crate::stats::PtStats;

/// AUX buffer capacity of [`ThreadTrace::new`], in bytes (perf uses 4 MiB
/// slots by default).
const AUX_CAPACITY: usize = 4 << 20;

/// The encoder is flushed into the AUX buffer every this many branches.
const FLUSH_EVERY: u64 = 4096;

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
    aux: AuxBuffer,
    collected: Vec<u8>,
    stats: PtStats,
    since_flush: u64,
}

impl ThreadTrace {
    /// Creates a trace with a 4 MiB AUX buffer and enables tracing at
    /// `start_ip`.
    pub fn new(start_ip: u64) -> Self {
        Self::with_aux_capacity(start_ip, AUX_CAPACITY)
    }

    /// Creates a trace whose AUX buffer holds `bytes` bytes and enables
    /// tracing at `start_ip`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn with_aux_capacity(start_ip: u64, bytes: usize) -> Self {
        let mut encoder = PacketEncoder::new();
        encoder.begin(start_ip);
        ThreadTrace {
            encoder,
            aux: AuxBuffer::new(bytes),
            collected: Vec::new(),
            stats: PtStats::default(),
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
        if self.since_flush >= FLUSH_EVERY {
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

    /// Flushes pending encoder output into the AUX buffer and collects the
    /// AUX contents into the trace log (what `perf record` would write to
    /// `/tmp`).
    ///
    /// If the ring drops the output, the encoder's IP compression restarts:
    /// the decoder resets its last-IP context at the OVF marker that will
    /// precede the next bytes, and they must not compress against the IP of
    /// packets it never sees.
    pub fn flush(&mut self) {
        let dropped = self.encoder.drain_with(|bytes| {
            self.stats.trace_bytes += bytes.len() as u64;
            !bytes.is_empty() && !self.aux.produce(bytes)
        });
        if dropped {
            self.encoder.restart_ip_compression();
        }
        self.aux.collect_into(&mut self.collected);
        self.sync_loss();
        self.since_flush = 0;
    }

    /// Forces one overflow episode of `bytes` lost bytes on the underlying
    /// AUX ring (deterministic fault injection). Everything recorded so far
    /// is flushed first, so the gap follows it. The loss is accounted like
    /// a real slow-consumer drop — `gaps`/`bytes_lost` in [`PtStats`] — the
    /// next flush emits a real OVF marker into the collected stream, and IP
    /// compression restarts as after a real drop.
    pub fn inject_overflow(&mut self, bytes: u64) {
        if bytes == 0 {
            return;
        }
        self.flush();
        self.aux.inject_overflow(bytes);
        self.encoder.restart_ip_compression();
        self.sync_loss();
    }

    /// Copies the ring's loss accounting into the trace statistics.
    fn sync_loss(&mut self) {
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
    /// A drained chunk never ends mid-packet (see the module docs), so a
    /// per-chunk consumer never carries a partial packet from one drain to
    /// the next.
    pub fn drain_collected(&mut self) -> Vec<u8> {
        // The chunk is copied out at its exact size and the log keeps its
        // buffer, so the flushes in between allocate nothing.
        self.drain_collected_with(<[u8]>::to_vec)
    }

    /// [`drain_collected`](Self::drain_collected) without the copy: lends
    /// the whole collected log, possibly empty, to `consume` and empties it
    /// afterwards. For consumers that append the bytes somewhere of their
    /// own (the perf session's per-process log) and would drop an owned
    /// chunk right after.
    pub fn drain_collected_with<R>(&mut self, consume: impl FnOnce(&[u8]) -> R) -> R {
        let result = consume(&self.collected);
        self.collected.clear();
        result
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
        self.sync_loss();
        (self.collected, self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::PacketDecoder;

    fn decode(log: &[u8]) -> Vec<BranchEvent> {
        PacketDecoder::new(log).decode_events().unwrap()
    }

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

        let events = decode(&log);
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
        let mut trace = ThreadTrace::with_aux_capacity(0, 512);
        for i in 0..5_000u64 {
            trace.indirect(i * 0x1111);
            if i % 16 == 15 {
                trace.flush();
            }
        }
        let (log, stats) = trace.finish();
        assert_eq!(stats.bytes_lost, 0);
        assert_eq!(stats.gaps, 0);
        assert!(log.len() as u64 >= stats.trace_bytes);
    }

    #[test]
    fn slow_consumer_loses_data_and_records_gaps() {
        // Flushing rarely with a tiny AUX buffer models a consumer that
        // cannot keep up: data must be lost and gaps recorded. The 1 000
        // branches stay below the periodic flush, so only the explicit
        // flush below moves bytes.
        let mut trace = ThreadTrace::with_aux_capacity(0, 64);
        for i in 0..1_000u64 {
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
        let events = decode(&log);
        assert!(events.contains(&BranchEvent::Overflow));
    }

    /// The indirect targets decoded after the last gap of `log`.
    fn targets_after_last_gap(log: &[u8]) -> Vec<u64> {
        let events = decode(log);
        let gap = events
            .iter()
            .rposition(|e| *e == BranchEvent::Overflow)
            .expect("the log has a gap");
        events[gap..]
            .iter()
            .filter_map(|e| match *e {
                BranchEvent::Indirect { target } => Some(target),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_dropped_flush_restarts_ip_compression() {
        // A 64-byte ring drops 200 indirect branches in one flush. The
        // targets recorded next share their upper bytes with the dropped
        // ones; they must not be compressed against them, since the decoder
        // restarts from a zero context at the OVF marker.
        let mut trace = ThreadTrace::with_aux_capacity(0x40_0000, 64);
        trace.indirect(0x40_1000);
        trace.flush();
        for i in 0..200u64 {
            trace.indirect(0x5500_0c7f_0000 + i * 8);
        }
        trace.flush();
        assert_eq!(trace.stats().gaps, 1);
        let after: Vec<u64> = (0..4).map(|i| 0x5500_0c80_0000 + i * 8).collect();
        for &target in &after {
            trace.indirect(target);
        }
        let (log, stats) = trace.finish();
        assert_eq!(stats.gaps, 1);
        assert_eq!(targets_after_last_gap(&log), after);
    }

    #[test]
    fn an_injected_gap_follows_the_pending_output() {
        // Nothing is flushed before the injection: the bytes already
        // encoded must land ahead of the OVF marker, or the context restart
        // would split a compressed pair across it.
        let mut trace = ThreadTrace::new(0x40_0000);
        trace.indirect(0x40_1000);
        trace.inject_overflow(100);
        let after = [0x40_1008, 0x40_1010];
        for target in after {
            trace.indirect(target);
        }
        let (log, _) = trace.finish();
        assert_eq!(targets_after_last_gap(&log), after);
        let events = decode(&log);
        assert!(events.contains(&BranchEvent::Indirect { target: 0x40_1000 }));
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
        let reference = decode(&undrained);
        let incremental = decode(&drained);
        assert_eq!(incremental, reference);
        assert!(!incremental.is_empty());
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
