//! Micro-benchmarks (ablations) for the individual substrates: the cost of
//! the mechanisms the pipeline is built from — vector-clock maintenance, the
//! page-fault path, byte-level diff/commit, PT packet encoding/decoding, LZ
//! compression, and CPG construction.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use inspector_bench::ingest_bench::{encoded_branch_stream, ingest_with_pool};
use inspector_core::clock::VectorClock;
use inspector_core::event::BranchKind;
use inspector_core::graph::CpgBuilder;
use inspector_core::ids::{PageId, ThreadId};
use inspector_core::query::{EdgeFilter, ProvenanceQuery};
use inspector_core::recorder::ThreadRecorder;
use inspector_core::sharded::ShardedCpgBuilder;
use inspector_core::subcomputation::SubComputation;
use inspector_core::taint::{TaintLabel, TaintTracker};
use inspector_mem::commit::diff_page;
use inspector_mem::shared::SharedImage;
use inspector_mem::thread_mem::{ThreadMemory, TrackingMode};
use inspector_perf::compress::lz_compress;
use inspector_pt::branch::BranchEvent;
use inspector_pt::decode::PacketDecoder;
use inspector_pt::encode::PacketEncoder;
use inspector_pt::packet::{find_psb, find_psb_naive};
use inspector_pt::stream::StreamingDecoder;
use inspector_pt::trace::ThreadTrace;

fn bench_vector_clocks(c: &mut Criterion) {
    let mut group = c.benchmark_group("vector_clock");
    for threads in [4u32, 16, 64] {
        group.bench_with_input(BenchmarkId::new("join", threads), &threads, |b, &n| {
            let mut a = VectorClock::new();
            let mut other = VectorClock::new();
            for i in 0..n {
                a.set(ThreadId::new(i), i as u64);
                other.set(ThreadId::new(i), (i * 7) as u64);
            }
            b.iter(|| {
                let mut x = a.clone();
                x.join(&other);
                x
            });
        });
        group.bench_with_input(
            BenchmarkId::new("happens_before", threads),
            &threads,
            |b, &n| {
                let mut a = VectorClock::new();
                let mut z = VectorClock::new();
                for i in 0..n {
                    a.set(ThreadId::new(i), i as u64);
                    z.set(ThreadId::new(i), (i + 1) as u64);
                }
                b.iter(|| a.happens_before(&z));
            },
        );
    }
    group.finish();
}

fn bench_fault_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("mem");
    group.throughput(Throughput::Elements(1));
    group.bench_function("tracked_first_touch_write", |b| {
        let image = SharedImage::shared(4096);
        let region = image.map_region("bench", 1 << 30);
        let mut mem = ThreadMemory::new(Arc::clone(&image), TrackingMode::Tracked);
        let mut page = 0u64;
        b.iter(|| {
            // Always a fresh page: measures the full fault + page-snapshot path.
            mem.write_u64(region.base().add(page * 4096), page);
            page += 1;
            if page.is_multiple_of(1024) {
                mem.commit();
            }
        });
    });
    group.bench_function("tracked_warm_write", |b| {
        let image = SharedImage::shared(4096);
        let region = image.map_region("bench", 4096);
        let mut mem = ThreadMemory::new(Arc::clone(&image), TrackingMode::Tracked);
        mem.write_u64(region.base(), 0);
        b.iter(|| mem.write_u64(region.base(), 1));
    });
    group.bench_function("native_write", |b| {
        let image = SharedImage::shared(4096);
        let region = image.map_region("bench", 4096);
        let mut mem = ThreadMemory::new(Arc::clone(&image), TrackingMode::Native);
        b.iter(|| mem.write_u64(region.base(), 1));
    });
    group.bench_function("commit_dirty_page", |b| {
        let image = SharedImage::shared(4096);
        let region = image.map_region("bench", 4096 * 64);
        let mut mem = ThreadMemory::new(Arc::clone(&image), TrackingMode::Tracked);
        b.iter(|| {
            for p in 0..16u64 {
                mem.write_u64(region.base().add(p * 4096), p);
            }
            mem.commit()
        });
    });
    group.bench_function("commit_dense_page", |b| {
        // One page rewritten word by word, then committed: the written
        // range grows by 8 bytes per store and ends covering the page, the
        // worst case for the range next to the sparse `commit_dirty_page`.
        let image = SharedImage::shared(4096);
        let region = image.map_region("bench", 4096);
        let mut mem = ThreadMemory::new(Arc::clone(&image), TrackingMode::Tracked);
        let mut value = 0u64;
        b.iter(|| {
            value += 1;
            for word in 0..512u64 {
                mem.write_u64(region.base().add(word * 8), value);
            }
            mem.commit()
        });
    });
    group.bench_function("write_fault_on_kept_copy", |b| {
        // One write fault on a page whose copy the view kept at its own last
        // commit, then its commit: no copy (no other view committed in
        // between), an 8-byte twin fill, a one-run fused diff over the 8
        // written bytes and the version bump.
        let image = SharedImage::shared(4096);
        let region = image.map_region("bench", 4096);
        let mut mem = ThreadMemory::new(Arc::clone(&image), TrackingMode::Tracked);
        let mut value = 0u64;
        b.iter(|| {
            value += 1;
            mem.write_u64(region.base(), value);
            mem.commit()
        });
    });
    // The same fault and commit after `foreign` commits by another view
    // (8 bytes each, 1 KiB apart): one commit behind, the fault reads that
    // commit's recorded range; two behind, it snapshots the whole page.
    for (name, foreign) in [
        ("write_fault_after_foreign_commit", 1u64),
        ("write_fault_after_two_foreign_commits", 2),
    ] {
        group.bench_function(name, |b| {
            let image = SharedImage::shared(4096);
            let region = image.map_region("bench", 4096);
            let mut mem = ThreadMemory::new(Arc::clone(&image), TrackingMode::Tracked);
            let mut other = ThreadMemory::new(Arc::clone(&image), TrackingMode::Tracked);
            let mut value = 0u64;
            b.iter(|| {
                value += 1;
                for i in 1..=foreign {
                    other.write_u64(region.base().add(1024 * i), value);
                    other.commit();
                }
                mem.write_u64(region.base(), value);
                mem.commit()
            });
        });
    }
    group.bench_function("tracked_hit_read", |b| {
        // Repeat reads alternating between two already-faulted pages: one
        // takes the last-slot fast path, the other the index lookup.
        let image = SharedImage::shared(4096);
        let region = image.map_region("bench", 4096 * 2);
        let mut mem = ThreadMemory::new(Arc::clone(&image), TrackingMode::Tracked);
        b.iter(|| mem.read_u64(region.base()) + mem.read_u64(region.base().add(4096)));
    });
    group.bench_function("tracked_clean_read_u8", |b| {
        // Byte reads of an already-faulted page the view never wrote, so
        // each goes to the shared page: the path an app scanning its mapped
        // input (`branch_trace`'s apps) runs once per byte.
        let image = SharedImage::shared(4096);
        let region = image.map_input("bench", &[7; 4096]);
        let mut mem = ThreadMemory::new(Arc::clone(&image), TrackingMode::Tracked);
        mem.read_u8(region.base());
        let mut offset = 0u64;
        b.iter(|| {
            offset = (offset + 1) % 4096;
            mem.read_u8(region.base().add(offset))
        });
    });
    // The same page pairs the repo benchmark's `mem.diff_gib_per_s.*` rows
    // use: 16 changed bytes, and every byte changed.
    let twin = vec![0x5Au8; 4096];
    let mut sparse = twin.clone();
    sparse[1000..1016].fill(0xA5);
    let dense = vec![0xA5u8; 4096];
    group.throughput(Throughput::Bytes(4096));
    for (name, working) in [("diff_sparse", &sparse), ("diff_dense", &dense)] {
        group.bench_function(name, |b| {
            b.iter(|| diff_page(black_box(&twin), black_box(working)))
        });
    }
    group.finish();
}

fn bench_pt_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("pt");
    let events: Vec<BranchEvent> = (0..10_000u64)
        .map(|i| {
            if i % 16 == 0 {
                BranchEvent::Indirect {
                    target: 0x40_0000 + (i % 64) * 16,
                }
            } else {
                BranchEvent::Conditional { taken: i % 3 == 0 }
            }
        })
        .collect();
    group.throughput(Throughput::Elements(events.len() as u64));
    group.bench_function("encode_10k_branches", |b| {
        b.iter(|| {
            let mut enc = PacketEncoder::new();
            for e in &events {
                enc.branch(e);
            }
            enc.finish()
        });
    });
    // The same events as the app thread pays for them: through
    // `ThreadTrace::record`, i.e. with the timers and the periodic flush.
    group.bench_function("record_10k_branches", |b| {
        b.iter(|| {
            let mut trace = ThreadTrace::new(0x40_0000);
            for e in &events {
                trace.record(*e);
            }
            trace.finish()
        });
    });
    let mut enc = PacketEncoder::new();
    for e in &events {
        enc.branch(e);
    }
    let bytes = enc.finish();
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("decode_10k_branches", |b| {
        b.iter(|| PacketDecoder::new(&bytes).decode_events().unwrap());
    });
    group.bench_function("lz_compress_trace", |b| {
        b.iter(|| lz_compress(&bytes));
    });
    group.finish();
}

fn bench_recorder(c: &mut Criterion) {
    let mut group = c.benchmark_group("recorder");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("on_branch_10k", |b| {
        b.iter(|| {
            let mut rec = ThreadRecorder::new(ThreadId::new(0));
            for i in 0..10_000u64 {
                let kind = if i % 16 == 0 {
                    BranchKind::Indirect
                } else if i % 3 == 0 {
                    BranchKind::ConditionalTaken
                } else {
                    BranchKind::ConditionalNotTaken
                };
                rec.on_branch(kind, 0x40_0000 + (i % 64) * 16);
            }
            rec.finish()
        });
    });
    group.finish();
}

fn bench_pt_decode(c: &mut Criterion) {
    // Decode-while-running throughput: the batch decoder over the whole
    // stream is the reference; the streaming decoder is measured at the
    // chunk sizes AUX delivery actually produces, handing events to a sink
    // and without one, as the post-run check and post-mortem log decoding
    // run it. The delta is the price of incremental decoding (the per-push
    // pump and completing a packet the previous chunk cut). At 16- and
    // 1-byte chunks nearly every push completes a cut packet, so those
    // counting rows price `push`'s per-call cost.
    let mut group = c.benchmark_group("pt_decode");
    let bytes = encoded_branch_stream(50_000);
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("batch", |b| {
        b.iter(|| PacketDecoder::new(&bytes).decode_events().unwrap());
    });
    for chunk in [512usize, 4096, 65536] {
        group.bench_with_input(BenchmarkId::new("streaming", chunk), &chunk, |b, &chunk| {
            b.iter(|| {
                let mut dec = StreamingDecoder::counting_only();
                let mut events = 0u64;
                let mut sink = |item: Result<_, _>| {
                    item.unwrap();
                    events += 1;
                };
                for c in bytes.chunks(chunk) {
                    dec.push_with(c, &mut sink);
                }
                dec.finish_with(&mut sink);
                events
            });
        });
    }
    for chunk in [4096usize, 16, 1] {
        group.bench_with_input(BenchmarkId::new("counting", chunk), &chunk, |b, &chunk| {
            b.iter(|| {
                let mut dec = StreamingDecoder::counting_only();
                for c in bytes.chunks(chunk) {
                    dec.push(c);
                }
                dec.finish();
                dec.stats().events
            });
        });
    }
    // The PSB-boundary scan the streaming decoder resynchronises with: the
    // swar word-at-a-time scan against the byte-at-a-time reference.
    // Same walk shape for both — restart one past each hit, like a decoder
    // resynchronising repeatedly.
    for (name, scan) in [
        ("find_psb_swar", find_psb as fn(&[u8]) -> Option<usize>),
        (
            "find_psb_naive",
            find_psb_naive as fn(&[u8]) -> Option<usize>,
        ),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut pos = 0usize;
                let mut found = 0u64;
                while let Some(i) = scan(&bytes[pos..]) {
                    found += 1;
                    pos += i + 1;
                }
                found
            });
        });
    }
    group.finish();
}

/// Pre-records a lock-heavy execution for the graph-construction
/// benchmarks (shared generator, so the bench exercises the same shape as
/// the equivalence suite).
fn recorded_sequences(threads: usize) -> Vec<Vec<SubComputation>> {
    inspector_core::testing::lock_heavy_sequences(threads as u32, 200, 32, 16)
}

fn bench_cpg_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("cpg");
    for threads in [2usize, 8] {
        group.bench_with_input(
            BenchmarkId::new("build_lock_heavy", threads),
            &threads,
            |b, &n| {
                // Pre-record a lock-heavy execution, then measure graph
                // construction only.
                let sequences = recorded_sequences(n);
                b.iter(|| {
                    let mut builder = CpgBuilder::new();
                    for seq in &sequences {
                        builder.add_thread(seq.clone());
                    }
                    builder.build()
                });
            },
        );
    }

    // The read side, on one 8-thread lock-heavy graph of ~51k vertices and
    // ~127k edges. Each query returns the size of its answer, as the repo
    // benchmark's `graph_query` batch reads it; the page index is built in
    // the warm-up.
    let mut builder = CpgBuilder::new();
    for seq in inspector_core::testing::lock_heavy_sequences(8, 3200, 32, 16) {
        builder.add_thread(seq);
    }
    let cpg = builder.build();
    assert!(cpg.node_count() >= 50_000);
    group.bench_function("topo", |b| b.iter(|| cpg.topological_order()));
    group.bench_function("validate", |b| b.iter(|| cpg.validate()));
    group.bench_function("taint_4_labels_control_flow", |b| {
        let mut tracker = TaintTracker::new().with_control_flow(true);
        for label in 0..4 {
            tracker.taint_page(PageId::new(label * 5), TaintLabel(label as u32));
        }
        b.iter(|| tracker.propagate(&cpg).tainted_sub_count());
    });
    group.bench_function("slice_all_backward", |b| {
        let query = ProvenanceQuery::new(&cpg);
        let target = *cpg
            .thread_sequence(ThreadId::new(0))
            .last()
            .expect("thread 0 recorded");
        b.iter(|| query.backward_slice(target, EdgeFilter::ALL).len());
    });
    group.bench_function("page_summary", |b| {
        let query = ProvenanceQuery::new(&cpg);
        b.iter(|| query.page_summary().len());
    });
    group.bench_function("adjacency_build", |b| {
        // Nodes and edges move through each rebuild; only the index and
        // adjacency are built (and the previous ones dropped) inside the
        // timer.
        b.iter_custom(|iters| {
            let mut graph = cpg.clone();
            let start = std::time::Instant::now();
            for _ in 0..iters {
                graph = inspector_core::testing::reindex(graph);
            }
            start.elapsed()
        });
    });
    group.finish();
}

fn bench_cpg_ingest(c: &mut Criterion) {
    // Batch vs streaming construction over identical recorded sequences:
    // the perf baseline every optimisation round has to beat. All variants
    // pay the same per-iteration clone of the input, so the delta is
    // construction cost only.
    let mut group = c.benchmark_group("cpg_ingest");
    for threads in [2usize, 8] {
        let sequences = recorded_sequences(threads);
        let subs: usize = sequences.iter().map(|s| s.len()).sum();
        group.throughput(Throughput::Elements(subs as u64));
        group.bench_with_input(
            BenchmarkId::new("batch", threads),
            &sequences,
            |b, sequences| {
                b.iter(|| {
                    let mut builder = CpgBuilder::new();
                    for seq in sequences {
                        builder.add_thread(seq.clone());
                    }
                    builder.build()
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("streaming", threads),
            &sequences,
            |b, sequences| {
                b.iter(|| ingest_with_pool(sequences, 1, 8));
            },
        );
    }

    // Pool-size × shard-count matrix over the 8-thread lock-heavy
    // workload: the contention study behind the ROADMAP's multi-producer
    // item. `pool1/shards8` is the single-ingest-thread baseline.
    let sequences = recorded_sequences(8);
    let subs: usize = sequences.iter().map(|s| s.len()).sum();
    group.throughput(Throughput::Elements(subs as u64));
    for pool in [1usize, 2, 4] {
        for shards in [1usize, 4, 8] {
            group.bench_with_input(
                BenchmarkId::new(format!("pool{pool}"), format!("shards{shards}")),
                &sequences,
                |b, sequences| {
                    b.iter(|| ingest_with_pool(sequences, pool, shards));
                },
            );
        }
    }
    group.finish();
}

fn bench_seal_latency(c: &mut Criterion) {
    // Seal cost after complete delivery: the seal concatenates the stored
    // runs and derives every edge over them, so its per-sub cost is the
    // batch derivation's, at three run lengths.
    let mut group = c.benchmark_group("seal_latency");
    for iterations in [50u64, 200, 800] {
        let sequences = inspector_core::testing::lock_heavy_sequences(4, iterations, 32, 16);
        let subs: usize = sequences.iter().map(|s| s.len()).sum();
        group.throughput(Throughput::Elements(subs as u64));
        group.bench_with_input(
            BenchmarkId::new("complete_delivery", iterations),
            &sequences,
            |b, sequences| {
                b.iter_custom(|iters| {
                    let mut total = std::time::Duration::ZERO;
                    for _ in 0..iters {
                        let builder = ShardedCpgBuilder::with_shards(8);
                        for seq in sequences {
                            for sub in seq.clone() {
                                builder.ingest(sub);
                            }
                        }
                        let start = std::time::Instant::now();
                        let cpg = builder.seal();
                        total += start.elapsed();
                        criterion::black_box(cpg);
                    }
                    total
                });
            },
        );
    }
    group.finish();
}

fn bench_cpg_spill(c: &mut Criterion) {
    // Streaming construction with the spill stage bounding the resident
    // window, vs the keep-everything baseline (threshold 0) over the same
    // sequences: the throughput price of O(active window) memory.
    let mut group = c.benchmark_group("cpg_spill");
    let sequences = recorded_sequences(4);
    let subs: usize = sequences.iter().map(|s| s.len()).sum();
    group.throughput(Throughput::Elements(subs as u64));
    for threshold in [0usize, 8, 64] {
        group.bench_with_input(
            BenchmarkId::new("threshold", threshold),
            &sequences,
            |b, sequences| {
                b.iter(|| {
                    inspector_bench::ingest_bench::measure_build_with_spill(
                        sequences, 1, 8, threshold,
                    )
                    .cpg
                });
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = micro;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_vector_clocks, bench_fault_path, bench_pt_codec, bench_recorder, bench_pt_decode, bench_cpg_build, bench_cpg_ingest, bench_seal_latency, bench_cpg_spill
}
criterion_main!(micro);
