//! Round-trip suite for the streaming PT decoder: over **any** chunking of
//! **any** encoded branch stream, [`StreamingDecoder`] must yield exactly
//! the events the batch [`PacketDecoder`] produces on the concatenated
//! bytes (property-tested); after corruption it must report exactly one
//! error, resynchronise at the next PSB, and lose at most one PSB window —
//! and a real [`InspectorSession`] run's post-run check must decode every
//! recorded branch.
//!
//! Chunking stays invisible on damaged input too: over corrupted streams
//! and arbitrary byte soups, chunk-fed decoding hands its sink the same
//! events, the same in-band errors at the same offsets and keeps the same
//! counters as one push of the whole stream — and decoding without a sink,
//! as a session's post-run check does, keeps exactly the counters of
//! decoding into one.

use std::sync::Arc;

use inspector::prelude::*;
use inspector::pt::branch::BranchEvent;
use inspector::pt::decode::{packet_events, DecodeError, PacketDecoder};
use inspector::pt::encode::PacketEncoder;
use inspector::pt::packet::PSB_LEN;
use inspector::pt::stream::{StreamStats, StreamingDecoder};
use inspector::pt::trace::ThreadTrace;
use proptest::collection::vec;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// Derives one branch event from a random seed: mostly conditionals (as in
/// real traces), with indirect branches and returns mixed in, including
/// far-apart targets that defeat last-IP compression.
fn event_from_seed(seed: u64) -> BranchEvent {
    match seed % 10 {
        0 => BranchEvent::Indirect {
            target: 0x40_0000 + (seed >> 4) % 0x10_0000,
        },
        1 => BranchEvent::Return {
            target: (seed >> 3).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        },
        2 => BranchEvent::Indirect {
            target: seed, // arbitrary 64-bit targets
        },
        _ => BranchEvent::Conditional {
            taken: seed & 1 == 0,
        },
    }
}

/// Encodes `seeds` as branch events with the given periodic-PSB interval
/// (0 disables periodic PSBs), begin/finish markers included.
fn encode_seeds(seeds: &[u64], psb_interval_bytes: usize) -> Vec<u8> {
    let mut enc = PacketEncoder::with_psb_interval(psb_interval_bytes);
    enc.begin(0x40_0000);
    for &s in seeds {
        enc.branch(&event_from_seed(s));
    }
    enc.finish()
}

/// What every push leaves behind: only a packet the chunk boundary cut (or
/// a resync tail), fewer than [`PSB_LEN`] bytes, and every pushed byte
/// either consumed or carried.
fn assert_carries_only_a_cut_packet(dec: &StreamingDecoder) {
    let stats = dec.stats();
    assert!(dec.buffered() < PSB_LEN, "{} bytes carried", dec.buffered());
    assert_eq!(
        stats.bytes_consumed + dec.buffered() as u64,
        stats.bytes_pushed
    );
}

/// Streams `bytes` through a fresh decoder cut at `cut_points`, asserting a
/// clean decode, and returns the yielded events.
fn stream_with_cuts(bytes: &[u8], cut_points: &[usize]) -> Vec<BranchEvent> {
    let mut cuts: Vec<usize> = cut_points.to_vec();
    cuts.push(bytes.len());
    cuts.sort_unstable();
    cuts.dedup();
    let mut dec = StreamingDecoder::counting_only();
    let mut out = Vec::new();
    let mut sink = |item: Result<BranchEvent, DecodeError>| {
        out.push(item.expect("well-formed stream must decode cleanly"));
    };
    let mut prev = 0;
    for &cut in &cuts {
        dec.push_with(&bytes[prev..cut], &mut sink);
        assert_carries_only_a_cut_packet(&dec);
        prev = cut;
    }
    dec.push_with(&bytes[prev..], &mut sink);
    assert_carries_only_a_cut_packet(&dec);
    dec.finish_with(&mut sink);
    assert_eq!(dec.stats().errors, 0);
    assert_eq!(dec.buffered(), 0, "finish must consume the whole stream");
    out
}

/// Everything a sink receives when `chunks` are pushed in order and the
/// stream is finished — events and in-band errors in order — plus the final
/// counters.
fn decode_chunks<'a>(
    chunks: impl IntoIterator<Item = &'a [u8]>,
) -> (Vec<Result<BranchEvent, DecodeError>>, StreamStats) {
    let mut dec = StreamingDecoder::counting_only();
    let mut items = Vec::new();
    for chunk in chunks {
        dec.push_with(chunk, |item| items.push(item));
        assert_carries_only_a_cut_packet(&dec);
    }
    dec.finish_with(|item| items.push(item));
    assert_eq!(dec.buffered(), 0, "finish must consume the whole stream");
    (items, dec.stats())
}

/// [`decode_chunks`] over `bytes` cut into `chunk`-byte pushes;
/// `chunk = usize::MAX` is the one-push reference.
fn decode_chunked(
    bytes: &[u8],
    chunk: usize,
) -> (Vec<Result<BranchEvent, DecodeError>>, StreamStats) {
    decode_chunks(bytes.chunks(chunk))
}

/// The counters of `bytes` pushed in `chunk`-byte pieces without a sink.
fn count_chunked(bytes: &[u8], chunk: usize) -> StreamStats {
    let mut dec = StreamingDecoder::counting_only();
    for c in bytes.chunks(chunk) {
        dec.push(c);
        assert_carries_only_a_cut_packet(&dec);
    }
    dec.finish();
    assert_eq!(dec.buffered(), 0, "finish must consume the whole stream");
    dec.stats()
}

/// What the batch decoder makes of `bytes`, in the streaming sink's terms:
/// every event, then the error that stopped it, if any.
fn batch_items(bytes: &[u8]) -> Vec<Result<BranchEvent, DecodeError>> {
    let mut dec = PacketDecoder::new(bytes);
    let mut items = Vec::new();
    loop {
        match dec.next_packet() {
            Ok(Some(packet)) => packet_events(packet, &mut |event| items.push(Ok(event))),
            Ok(None) => return items,
            Err(error) => {
                items.push(Err(error));
                return items;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Property: streaming ≡ batch for any chunking (the tentpole contract)
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn streaming_equals_batch_for_any_chunking(
        seeds in vec(any::<u64>(), 1..300),
        raw_cuts in vec(any::<u64>(), 0..24),
        psb_sel in 0u64..4,
    ) {
        // Sweep PSB density so cuts land inside PSB runs, TNT runs and TIP
        // payloads alike.
        let psb_interval = [0usize, 64, 256, 4096][psb_sel as usize];
        let bytes = encode_seeds(&seeds, psb_interval);
        let reference = PacketDecoder::new(&bytes).decode_events().unwrap();
        // Random cut offsets, explicitly including mid-packet positions.
        let cuts: Vec<usize> = raw_cuts
            .iter()
            .map(|&c| (c as usize) % (bytes.len() + 1))
            .collect();
        let streamed = stream_with_cuts(&bytes, &cuts);
        prop_assert_eq!(streamed, reference);
    }

    #[test]
    fn single_byte_chunks_equal_batch(seeds in vec(any::<u64>(), 1..80)) {
        // The worst chunking there is: every packet is cut at every offset.
        let bytes = encode_seeds(&seeds, 128);
        let reference = PacketDecoder::new(&bytes).decode_events().unwrap();
        let cuts: Vec<usize> = (0..bytes.len()).collect();
        let streamed = stream_with_cuts(&bytes, &cuts);
        prop_assert_eq!(streamed, reference);
    }

    #[test]
    fn thread_trace_drains_stream_decode(
        seeds in vec(any::<u64>(), 1..400),
        drain_every in 1u64..64,
        ring_sel in 0u64..3,
        overflow in any::<u64>(),
    ) {
        // The producer side of the pipeline: a ThreadTrace drained at
        // irregular boundaries, through a ring that may be too small for a
        // drain's worth of packets (64 B, 256 B or the 4 MiB default) and,
        // in half the cases, with one injected overflow. Whatever the ring
        // drops, it drops whole flushes and writes whole OVF markers, so
        // every drained chunk decodes on its own, and the chunk-fed
        // decode is the batch decode of the concatenation, errors included.
        let mut trace = match ring_sel {
            0 => ThreadTrace::with_aux_capacity(0x40_0000, 64),
            1 => ThreadTrace::with_aux_capacity(0x40_0000, 256),
            _ => ThreadTrace::new(0x40_0000),
        };
        let inject_at = (overflow & 1 == 0).then(|| (overflow >> 1) as usize % seeds.len());
        let mut chunks = Vec::new();
        for (i, &s) in seeds.iter().enumerate() {
            if inject_at == Some(i) {
                trace.inject_overflow(1 + (overflow >> 32) % 4096);
            }
            trace.record(event_from_seed(s));
            if i as u64 % drain_every == drain_every - 1 {
                trace.flush();
                chunks.push(trace.drain_collected());
            }
        }
        let (tail, stats) = trace.finish();
        chunks.push(tail);
        for chunk in &chunks {
            PacketDecoder::new(chunk)
                .decode_events()
                .expect("drained chunks end on packet boundaries");
        }
        let (streamed, decoded) = decode_chunks(chunks.iter().map(Vec::as_slice));
        prop_assert_eq!(&streamed, &batch_items(&chunks.concat()));
        prop_assert_eq!(decoded.errors, 0);
        // Every gap the ring counted is one OVF marker in the stream: the
        // final flush always fits an emptied ring and closes the last one.
        prop_assert_eq!(decoded.gaps, stats.gaps);
        prop_assert!(inject_at.is_none() || stats.gaps > 0);
        if stats.gaps == 0 {
            // Loss-free: conditionals and indirect transfers survive
            // byte-exactly; only the Return/Indirect distinction is lost
            // (both are TIPs), exactly as in the batch decoder.
            let expected: Vec<BranchEvent> = seeds
                .iter()
                .map(|&s| match event_from_seed(s) {
                    BranchEvent::Return { target } => BranchEvent::Indirect { target },
                    e => e,
                })
                .collect();
            let branches: Vec<BranchEvent> = streamed
                .iter()
                .map(|item| *item.as_ref().expect("clean stream"))
                .filter(|e| {
                    matches!(
                        e,
                        BranchEvent::Conditional { .. } | BranchEvent::Indirect { .. }
                    )
                })
                .collect();
            prop_assert_eq!(branches, expected);
        }
    }
}

// ---------------------------------------------------------------------------
// Property: chunking is invisible on corrupted and arbitrary bytes too, and
// the counters do not depend on whether a sink is passed
// ---------------------------------------------------------------------------

/// `stats` without the packet count — the one counter a chunk boundary may
/// move: a PSB run cut in two decodes as two PSB packets (see the
/// `inspector::pt::stream` module docs).
fn sans_packets(stats: StreamStats) -> StreamStats {
    StreamStats {
        packets: 0,
        ..stats
    }
}

/// An encoded stream at one of three PSB densities with, optionally, one
/// byte overwritten.
fn maybe_corrupted_stream(seeds: &[u64], psb_sel: u64, overwrite: Option<(u64, u8)>) -> Vec<u8> {
    let mut bytes = encode_seeds(seeds, [64usize, 256, 4096][psb_sel as usize]);
    if let Some((pos, byte)) = overwrite {
        let at = (pos as usize) % bytes.len();
        bytes[at] = byte;
    }
    bytes
}

/// Chunk-fed decoding of `bytes` must be indistinguishable from one push:
/// same events, same in-band errors at the same offsets, same counters
/// (packets aside), every byte consumed.
fn assert_chunking_invisible(bytes: &[u8], chunk: usize) {
    let (whole, whole_stats) = decode_chunked(bytes, usize::MAX);
    let (chunked, chunked_stats) = decode_chunked(bytes, chunk);
    assert_eq!(chunked, whole);
    assert_eq!(sans_packets(chunked_stats), sans_packets(whole_stats));
    assert_eq!(chunked_stats.bytes_consumed, bytes.len() as u64);
}

/// Pushes without a sink must keep exactly the counters that the same
/// pushes into a sink keep — packets included: both cut every PSB run at
/// the same offsets.
fn assert_counting_equals_recording(bytes: &[u8], chunk: usize) {
    let (items, recording) = decode_chunked(bytes, chunk);
    let counting = count_chunked(bytes, chunk);
    assert_eq!(counting, recording);
    // The counters also agree with what the sink received.
    assert_eq!(
        counting.events,
        items.iter().filter(|i| i.is_ok()).count() as u64
    );
    assert_eq!(
        counting.errors,
        items.iter().filter(|i| i.is_err()).count() as u64
    );
}

proptest! {
    #[test]
    fn chunking_is_invisible_under_corruption(
        seeds in vec(any::<u64>(), 1..200),
        psb_sel in 0u64..3,
        do_corrupt in any::<bool>(),
        corrupt_pos in any::<u64>(),
        corrupt_byte in any::<u8>(),
        chunk in 1usize..512,
    ) {
        // Any chunking of a stream with an arbitrary byte overwritten:
        // exactly the one-push in-band error, the same resync window lost,
        // the same counters.
        let overwrite = do_corrupt.then_some((corrupt_pos, corrupt_byte));
        let bytes = maybe_corrupted_stream(&seeds, psb_sel, overwrite);
        assert_chunking_invisible(&bytes, chunk);
    }

    #[test]
    fn chunking_is_invisible_on_arbitrary_bytes(
        data in vec(any::<u8>(), 0..2048),
        chunk in 1usize..512,
    ) {
        // Any byte soup — corrupted, truncated, PSB-free, or all three:
        // where the chunk cuts fall must not show, in-band errors and
        // resync accounting included.
        assert_chunking_invisible(&data, chunk);
    }

    #[test]
    fn counting_only_counters_equal_recording_counters(
        seeds in vec(any::<u64>(), 1..200),
        psb_sel in 0u64..3,
        do_corrupt in any::<bool>(),
        corrupt_pos in any::<u64>(),
        corrupt_byte in any::<u8>(),
        data in vec(any::<u8>(), 0..2048),
        chunk in 1usize..512,
    ) {
        // Pushes without a sink, as the ingest workers and post-mortem log
        // decoding run them, on both generators above.
        let overwrite = do_corrupt.then_some((corrupt_pos, corrupt_byte));
        let bytes = maybe_corrupted_stream(&seeds, psb_sel, overwrite);
        assert_counting_equals_recording(&bytes, chunk);
        assert_counting_equals_recording(&data, chunk);
    }
}

// ---------------------------------------------------------------------------
// Corruption recovery: one error, one resync, at most one PSB window lost
// ---------------------------------------------------------------------------

/// Decodes `bytes` packet-by-packet and returns each packet's start offset
/// together with whether it is a PSB.
fn packet_starts(bytes: &[u8]) -> Vec<(usize, bool)> {
    let mut dec = PacketDecoder::new(bytes);
    let mut out = Vec::new();
    loop {
        let pos = dec.position();
        match dec.next_packet() {
            Ok(Some(p)) => out.push((pos, p.mnemonic() == "PSB")),
            Ok(None) => break,
            Err(e) => panic!("clean stream failed to decode: {e}"),
        }
    }
    out
}

/// Builds a PSB-dense stream whose TIP payload bytes can never fake a PSB
/// pattern (no `0x82` bytes), so resync points are unambiguous.
fn psb_dense_stream() -> Vec<u8> {
    let mut enc = PacketEncoder::with_psb_interval(96);
    enc.begin(0x40_0000);
    for i in 0..600u64 {
        if i % 4 == 0 {
            enc.branch(&BranchEvent::Indirect {
                target: 0x40_0000 + (i % 64) * 8,
            });
        } else {
            enc.branch(&BranchEvent::Conditional { taken: i % 2 == 0 });
        }
    }
    enc.finish()
}

/// Runs a corrupted stream through the streaming decoder in small chunks
/// and splits the outcome into events and errors.
fn stream_corrupt(bytes: &[u8]) -> (Vec<BranchEvent>, Vec<DecodeError>, StreamStats) {
    let (items, stats) = decode_chunked(bytes, 17);
    let mut events = Vec::new();
    let mut errors = Vec::new();
    for item in items {
        match item {
            Ok(e) => events.push(e),
            Err(e) => errors.push(e),
        }
    }
    (events, errors, stats)
}

#[test]
fn inserted_garbage_costs_one_error_and_at_most_one_psb_window() {
    let clean = psb_dense_stream();
    let reference = PacketDecoder::new(&clean).decode_events().unwrap();
    let starts = packet_starts(&clean);
    let psbs: Vec<usize> = starts
        .iter()
        .filter(|(_, is_psb)| *is_psb)
        .map(|(pos, _)| *pos)
        .collect();
    assert!(psbs.len() >= 3, "need several PSB windows, got {psbs:?}");

    // Corrupt at a packet boundary strictly inside the second PSB window.
    let in_window = starts
        .iter()
        .map(|(pos, _)| *pos)
        .find(|&pos| pos > psbs[1] + 20 && pos < psbs[2])
        .expect("packet inside the second window");
    let mut corrupt = clean[..in_window].to_vec();
    corrupt.push(0x03); // undecodable IP-family header
    corrupt.extend_from_slice(&clean[in_window..]);

    let (events, errors, stats) = stream_corrupt(&corrupt);

    // Exactly one in-band error, and it names the bad byte.
    assert_eq!(errors.len(), 1, "errors: {errors:?}");
    assert!(matches!(
        errors[0],
        DecodeError::UnknownPacket { byte: 0x03, .. }
    ));
    assert_eq!(stats.resyncs, 1);

    // The decode is the clean prefix + everything from the resync PSB on.
    let mut expected = PacketDecoder::new(&clean[..in_window])
        .decode_events()
        .unwrap();
    expected.extend(
        PacketDecoder::new(&clean[psbs[2]..])
            .decode_events()
            .unwrap(),
    );
    assert_eq!(events, expected);

    // Lost events are bounded by one PSB window.
    let window_events = PacketDecoder::new(&clean[psbs[1]..psbs[2]])
        .decode_events()
        .unwrap()
        .len();
    let lost = reference.len() - events.len();
    assert!(
        lost <= window_events,
        "lost {lost} events, window holds {window_events}"
    );
}

#[test]
fn flipped_escape_costs_one_error_and_resyncs() {
    let clean = psb_dense_stream();
    let starts = packet_starts(&clean);
    let psbs: Vec<usize> = starts
        .iter()
        .filter(|(_, is_psb)| *is_psb)
        .map(|(pos, _)| *pos)
        .collect();
    let in_window = starts
        .iter()
        .map(|(pos, _)| *pos)
        .find(|&pos| pos > psbs[1] && pos < psbs[2])
        .unwrap();
    // Flip the packet header into an unknown escape sequence.
    let mut corrupt = clean[..in_window].to_vec();
    corrupt.extend_from_slice(&[0x02, 0x55]);
    corrupt.extend_from_slice(&clean[in_window..]);

    let (events, errors, stats) = stream_corrupt(&corrupt);
    assert_eq!(errors.len(), 1);
    assert!(matches!(
        errors[0],
        DecodeError::UnknownPacket { byte: 0x55, .. }
    ));
    assert_eq!(stats.resyncs, 1);
    // The stream resumes intact from the next PSB.
    let resumed = PacketDecoder::new(&clean[psbs[2]..])
        .decode_events()
        .unwrap();
    assert!(events.ends_with(&resumed));
}

// ---------------------------------------------------------------------------
// End-to-end: the post-run check inside a real session
// ---------------------------------------------------------------------------

#[test]
fn post_run_decode_recovers_every_branch() {
    let session = InspectorSession::new(SessionConfig::inspector());
    let region = session.map_region("data", 4 * 4096);
    let base = region.base();
    let report = session.run(move |ctx| {
        ctx.set_pc(0x40_1000);
        for i in 0..3_000u64 {
            ctx.branch(i % 3 == 0);
            if i % 32 == 0 {
                ctx.call(0x40_2000 + (i % 16) * 64);
            }
            ctx.write_u64(base.add((i % 4) * 4096), i);
        }
    });

    // The check observed the full control flow, cleanly.
    let s = &report.stats;
    assert!(s.decoded_branches > 0);
    assert_eq!(s.decoded_branches, s.pt.branches);
    assert_eq!(s.decode_errors, 0);
    assert_eq!(s.decode_mismatches, 0);
    assert_eq!(s.decode_bytes, report.space.log_bytes);
    assert!(s.decode_time > std::time::Duration::ZERO);
    report.cpg.validate().expect("CPG invariants");

    // The pt_decode phase shows up in the Figure 6 breakdown.
    let breakdown = inspector::runtime::report::PhaseBreakdown::split(2.0, s);
    assert!(
        breakdown.decode_overhead > 0.0,
        "nonzero pt_decode share expected, got {breakdown:?}"
    );
}

#[test]
fn post_run_decode_cross_check_holds_under_concurrency() {
    let session = InspectorSession::new(SessionConfig::inspector().with_ingest_threads(3));
    let counter = session.map_region("counter", 8).base();
    let lock = Arc::new(InspMutex::new());
    let report = session.run(move |ctx| {
        let mut handles = Vec::new();
        for _ in 0..4 {
            let lock = Arc::clone(&lock);
            handles.push(ctx.spawn(move |ctx| {
                for i in 0..200u64 {
                    ctx.branch(i % 2 == 0);
                    if i % 20 == 0 {
                        lock.lock(ctx);
                        let v = ctx.read_u64(counter);
                        ctx.write_u64(counter, v + 1);
                        lock.unlock(ctx);
                    }
                }
            }));
        }
        for h in handles {
            ctx.join(h);
        }
    });
    assert_eq!(report.stats.decode_errors, 0);
    assert_eq!(report.stats.decode_mismatches, 0);
    assert_eq!(report.stats.decoded_branches, report.stats.pt.branches);
    assert!(report.stats.pt.branches >= 4 * 200);
    report.cpg.validate().expect("CPG invariants");
    // Whatever the interleaving, the workload's semantics held too.
    assert_eq!(session.image().read_u64_direct(counter), 4 * 10);
}
