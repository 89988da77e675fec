//! `log_decode`: post-mortem decode of a recorded PT log — the only place a
//! user waits for the decoders (in-session decode sees a few hundred KiB
//! per app run). The tracked side is the streaming decoder the runtime
//! uses, fed 4 KiB AUX-sized chunks; the baseline side is the batch
//! `PacketDecoder`, the semantic reference. Neither materialises events.

use std::time::Instant;

use inspector_pt::branch::BranchEvent;
use inspector_pt::decode::{packet_events, PacketDecoder};
use inspector_pt::packet::find_psb_from;
use inspector_pt::stream::StreamingDecoder;
use inspector_pt::trace::ThreadTrace;

use crate::gen::{tracked_first, BranchStream};
use crate::json::Value;
use crate::metrics::{Checks, Layers, Outcome, Timings};
use crate::span::Tracer;
use crate::stats::{median, summarize};
use crate::sys::timed;
use crate::{in_order, measure_loop, Opts};

/// Threads in the recorded log.
const LOG_THREADS: u64 = 2;
/// Packet bytes per thread: 16 MiB in total.
const LOG_BYTES_PER_THREAD: u64 = 8 << 20;
const SMOKE_BYTES_PER_THREAD: u64 = 128 << 10;
/// Branches handed to the encoder between two looks at the log size.
const ENCODE_BLOCK: usize = 4096;

const MIB: f64 = 1024.0 * 1024.0;

/// One thread's encoded log and what went into it.
struct ThreadLog {
    bytes: Vec<u8>,
    conditional: u64,
    indirect: u64,
}

/// Conditional and indirect events a decoder produced.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Decoded {
    conditional: u64,
    indirect: u64,
    errors: u64,
}

/// Encodes the seeded branch stream of each thread until its log reaches
/// the target size. With a tracer, the `ThreadTrace` calls are accounted to
/// the `pt.encode` leaf.
fn build_logs(opts: &Opts, mut tracer: Option<&mut Tracer>) -> Vec<ThreadLog> {
    let target = if opts.smoke {
        SMOKE_BYTES_PER_THREAD
    } else {
        LOG_BYTES_PER_THREAD
    };
    (0..LOG_THREADS)
        .map(|thread| {
            let mut stream = BranchStream::new(opts.seed, thread);
            let mut trace = ThreadTrace::new(0x40_0000 + thread * 0x1000);
            let mut block = Vec::with_capacity(ENCODE_BLOCK);
            let (mut conditional, mut indirect) = (0, 0);
            while trace.stats().trace_bytes < target {
                block.clear();
                block.extend(stream.by_ref().take(ENCODE_BLOCK));
                let start = Instant::now();
                for event in &block {
                    match *event {
                        BranchEvent::Conditional { taken } => {
                            conditional += 1;
                            trace.conditional(taken);
                        }
                        BranchEvent::Indirect { target } => {
                            indirect += 1;
                            trace.indirect(target);
                        }
                        _ => unreachable!("the stream yields conditionals and indirects only"),
                    }
                }
                trace.flush();
                if let Some(tracer) = tracer.as_deref_mut() {
                    tracer.leaf("pt.encode", start);
                }
            }
            let (bytes, _) = trace.finish();
            ThreadLog {
                bytes,
                conditional,
                indirect,
            }
        })
        .collect()
}

fn count(decoded: &mut Decoded, event: BranchEvent) {
    match event {
        BranchEvent::Conditional { .. } => decoded.conditional += 1,
        BranchEvent::Indirect { .. } | BranchEvent::Return { .. } => decoded.indirect += 1,
        _ => {}
    }
}

/// One pass of the batch decoder over every thread's log, events fed to a
/// counting sink.
fn decode_batch(logs: &[ThreadLog]) -> Decoded {
    let mut decoded = Decoded::default();
    for log in logs {
        let mut decoder = PacketDecoder::new(&log.bytes);
        loop {
            match decoder.next_packet() {
                Ok(Some(packet)) => packet_events(packet, &mut |event| count(&mut decoded, event)),
                Ok(None) => break,
                Err(_) => {
                    decoded.errors += 1;
                    break;
                }
            }
        }
    }
    decoded
}

/// One pass of the counting streaming decoder, fed `chunk`-byte pieces.
/// It counts branches as one number, so the conditional/indirect split is
/// left at the total.
fn decode_stream(logs: &[ThreadLog], chunk: usize) -> Decoded {
    let mut decoded = Decoded::default();
    for log in logs {
        let mut decoder = StreamingDecoder::counting_only();
        for piece in log.bytes.chunks(chunk) {
            decoder.push(piece);
        }
        decoder.finish();
        let stats = decoder.stats();
        decoded.conditional += stats.branches;
        decoded.errors += stats.errors;
    }
    decoded
}

fn check_counts(checks: &mut Checks, logs: &[ThreadLog], batch: Decoded, stream: Decoded) {
    let conditional: u64 = logs.iter().map(|l| l.conditional).sum();
    let indirect: u64 = logs.iter().map(|l| l.indirect).sum();
    let expected = Decoded {
        conditional,
        indirect,
        errors: 0,
    };
    checks.check(batch == expected, || {
        format!("batch decoder produced {batch:?}, the log holds {expected:?}")
    });
    checks.check(
        stream.conditional == conditional + indirect && stream.errors == 0,
        || format!("streaming decoder produced {stream:?}, the log holds {expected:?}"),
    );
}

fn log_size(logs: &[ThreadLog]) -> (f64, f64) {
    let bytes: usize = logs.iter().map(|l| l.bytes.len()).sum();
    let branches: u64 = logs.iter().map(|l| l.conditional + l.indirect).sum();
    (bytes as f64, branches as f64)
}

/// The untraced run.
pub fn run(opts: &Opts) -> Outcome {
    let mut checks = Checks::default();
    let mut timings = Timings::default();
    let mut logs = Vec::new();
    for _ in 0..opts.setups() {
        let built = timed(|| {
            let logs = build_logs(opts, None);
            let (batch, stream) = (decode_batch(&logs), decode_stream(&logs, 4096));
            check_counts(&mut checks, &logs, batch, stream);
            logs
        });
        timings.setup.push(built.secs);
        logs = built.value;
    }

    let mut ratio = Vec::new();
    measure_loop(opts, |index| {
        let (stream, batch) = in_order(
            tracked_first(opts.seed, index),
            || timed(|| decode_stream(&logs, 4096)),
            || timed(|| decode_batch(&logs)),
        );
        check_counts(&mut checks, &logs, batch.value, stream.value);
        timings.wall.push(stream.secs);
        timings.cpu.push(stream.cpu);
        timings.native.push(batch.secs);
        ratio.push(stream.secs / batch.secs);
    });

    let (bytes, branches) = log_size(&logs);
    let detail = vec![
        ("log_bytes".into(), Value::Num(bytes)),
        ("branches".into(), Value::Num(branches)),
    ];
    timings.outcome(false, summarize(&ratio), bytes / branches, checks, detail)
}

/// The traced run: one span per decoder pass, three passes each.
pub fn trace(opts: &Opts, tracer: &mut Tracer) -> Outcome {
    const PASSES: usize = 3;
    let mut checks = Checks::default();
    let mut layers = Layers::default();

    let span = tracer.begin("pt.build_log");
    let logs = build_logs(opts, Some(tracer));
    tracer.end(span);
    let (bytes, branches) = log_size(&logs);
    layers.set("pt.branches", branches);
    layers.set("pt.trace_bytes", bytes);
    layers.set_ratio(
        "pt.encode_ns_per_branch",
        tracer.self_secs("pt.encode") * 1e9,
        branches,
    );

    // Warm-up, and the bare timings the spanned passes are compared with.
    let bare: Vec<f64> = (0..PASSES)
        .map(|_| timed(|| decode_stream(&logs, 4096)).secs)
        .collect();
    let mut spanned = Vec::new();
    let mut decoded_events = 0;
    for _ in 0..PASSES {
        let batch = tracer.span("pt.decode_batch", || decode_batch(&logs));
        let span = tracer.begin("pt.decode_stream.4k");
        let stream = decode_stream(&logs, 4096);
        spanned.push(tracer.end(span));
        let wide = tracer.span("pt.decode_stream.64k", || decode_stream(&logs, 64 << 10));
        check_counts(&mut checks, &logs, batch, stream);
        checks.check(wide == stream, || {
            format!("64 KiB chunks decoded {wide:?}, 4 KiB chunks {stream:?}")
        });
        decoded_events = batch.conditional + batch.indirect;
        tracer.span("pt.psb_scan", || {
            for log in &logs {
                let mut from = 0;
                while let Some(at) = find_psb_from(&log.bytes, from) {
                    from = std::hint::black_box(at) + 1;
                }
            }
        });
    }
    let mib = bytes / MIB * PASSES as f64;
    for (metric, span) in [
        ("pt.decode_batch_mib_per_s", "pt.decode_batch"),
        ("pt.decode_stream_mib_per_s.4k", "pt.decode_stream.4k"),
        ("pt.decode_stream_mib_per_s.64k", "pt.decode_stream.64k"),
    ] {
        layers.set_ratio(metric, mib, tracer.self_secs(span));
    }
    layers.set_ratio(
        "pt.psb_scan_gib_per_s",
        mib / 1024.0,
        tracer.self_secs("pt.psb_scan"),
    );
    layers.set_ratio("pt.decode_events_ratio", decoded_events as f64, branches);
    layers.set(
        "trace_overhead_frac",
        median(&spanned) / median(&bare) - 1.0,
    );

    let detail = vec![("passes".into(), Value::Num(PASSES as f64))];
    Outcome::per_layer(&layers, checks, detail)
}
