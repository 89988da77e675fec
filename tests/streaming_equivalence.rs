//! Equivalence suite for the streaming CPG pipeline: the sharded/streaming
//! builder must produce a graph that is node- and edge-identical to the
//! reference batch build, for every workload shape, thread count, delivery
//! interleaving, producer pool and shard count — and the graphs coming out
//! of real [`InspectorSession`] runs must satisfy the same property. Random
//! schedules under random delivery are in `incremental_data_edges.rs`
//! (interleavings, reversed threads, whole-thread batches) and `index_gc.rs`
//! (batch chunking, producer pools, spill thresholds).

use std::sync::Arc;

use inspector::core::event::{AccessKind, SyncKind};
use inspector::core::graph::Cpg;
use inspector::core::ids::{PageId, SyncObjectId, ThreadId};
use inspector::core::recorder::{SyncObject, ThreadRecorder};
use inspector::core::sharded::ShardedCpgBuilder;
use inspector::core::subcomputation::SubComputation;
use inspector::core::testing::{batch_build, edge_fingerprint, node_fingerprint, rebatch};
use inspector::prelude::*;

// ---------------------------------------------------------------------------
// Synthetic recorder-driven workloads (deterministic schedules)
// ---------------------------------------------------------------------------

/// Global-lock counter: every thread repeatedly acquires one lock, reads and
/// writes a small set of shared pages, and releases.
fn lock_heavy(threads: u32) -> Vec<Vec<SubComputation>> {
    inspector::core::testing::lock_heavy_sequences(threads, 25, 6, 6)
}

/// Barrier-phased pipeline: every thread writes its own page, joins a
/// release-acquire barrier, then reads its neighbour's page — repeated for
/// several phases.
fn barrier_phases(threads: u32) -> Vec<Vec<SubComputation>> {
    let mut recs: Vec<ThreadRecorder> = (0..threads)
        .map(|t| ThreadRecorder::new(ThreadId::new(t)))
        .collect();
    for phase in 0..8u64 {
        let barrier = SyncObject::new(SyncObjectId::new(100 + phase));
        for (t, rec) in recs.iter_mut().enumerate() {
            rec.on_memory_access(PageId::new(1000 + t as u64), AccessKind::Write);
        }
        // Barrier: everyone releases, then everyone acquires (the recorder
        // convention for a barrier is a combined release-acquire).
        for rec in recs.iter_mut() {
            rec.on_synchronization(&barrier, SyncKind::ReleaseAcquire);
        }
        for (t, rec) in recs.iter_mut().enumerate() {
            let neighbour = (t as u64 + 1) % threads as u64;
            rec.on_memory_access(PageId::new(1000 + neighbour), AccessKind::Read);
        }
    }
    recs.into_iter().map(|r| r.finish()).collect()
}

/// Producer/consumer chain: thread `t` hands a value page to thread `t+1`
/// through a dedicated release/acquire object, forming a chain of
/// cross-thread data dependencies.
fn producer_chain(threads: u32) -> Vec<Vec<SubComputation>> {
    let mut recs: Vec<ThreadRecorder> = (0..threads)
        .map(|t| ThreadRecorder::new(ThreadId::new(t)))
        .collect();
    for round in 0..10u64 {
        for t in 0..threads as usize {
            let page = PageId::new(2000 + round * 64 + t as u64);
            recs[t].on_memory_access(page, AccessKind::Write);
            let link = SyncObject::new(SyncObjectId::new(500 + round * 64 + t as u64));
            recs[t].on_synchronization(&link, SyncKind::Release);
            if t + 1 < threads as usize {
                recs[t + 1].on_synchronization(&link, SyncKind::Acquire);
                recs[t + 1].on_memory_access(page, AccessKind::Read);
            }
        }
    }
    recs.into_iter().map(|r| r.finish()).collect()
}

// ---------------------------------------------------------------------------
// Comparison helpers
// ---------------------------------------------------------------------------

fn assert_identical(streamed: &Cpg, reference: &Cpg, context: &str) {
    assert_eq!(
        streamed.node_count(),
        reference.node_count(),
        "{context}: node counts differ"
    );
    assert_eq!(
        node_fingerprint(streamed),
        node_fingerprint(reference),
        "{context}: node sets differ"
    );
    assert_eq!(
        streamed.edge_count(),
        reference.edge_count(),
        "{context}: edge counts differ"
    );
    assert_eq!(
        edge_fingerprint(streamed),
        edge_fingerprint(reference),
        "{context}: edge sets differ"
    );
    assert!(
        streamed.validate().is_ok(),
        "{context}: invalid streamed CPG"
    );
}

/// Streams the sequences round-robin across threads (FIFO per thread).
fn stream_round_robin(sequences: Vec<Vec<SubComputation>>, shards: usize) -> Cpg {
    let builder = ShardedCpgBuilder::with_shards(shards);
    let mut cursors: Vec<std::vec::IntoIter<SubComputation>> =
        sequences.into_iter().map(|s| s.into_iter()).collect();
    let mut progressed = true;
    while progressed {
        progressed = false;
        for cursor in &mut cursors {
            if let Some(sub) = cursor.next() {
                builder.ingest(sub);
                progressed = true;
            }
        }
    }
    builder.seal()
}

/// Streams whole threads one after another, in *reverse* thread order — the
/// most adversarial delivery the per-thread FIFO contract allows.
fn stream_thread_at_a_time_reversed(sequences: Vec<Vec<SubComputation>>, shards: usize) -> Cpg {
    let builder = ShardedCpgBuilder::with_shards(shards);
    for seq in sequences.into_iter().rev() {
        for sub in seq {
            builder.ingest(sub);
        }
    }
    builder.seal()
}

// ---------------------------------------------------------------------------
// Synthetic-workload equivalence across threads, shards and interleavings
// ---------------------------------------------------------------------------

#[test]
fn synthetic_workloads_stream_identically_across_threads_and_shards() {
    type Generator = fn(u32) -> Vec<Vec<SubComputation>>;
    let generators: [(&str, Generator); 3] = [
        ("lock_heavy", lock_heavy),
        ("barrier_phases", barrier_phases),
        ("producer_chain", producer_chain),
    ];
    for (name, generate) in generators {
        for threads in [1u32, 4, 8] {
            let sequences = generate(threads);
            let reference = batch_build(&sequences);
            for shards in [1usize, 3, 8] {
                let context = format!("{name}/threads={threads}/shards={shards}");
                let streamed = stream_round_robin(sequences.clone(), shards);
                assert_identical(&streamed, &reference, &format!("{context}/round-robin"));
                let adversarial = stream_thread_at_a_time_reversed(sequences.clone(), shards);
                assert_identical(&adversarial, &reference, &format!("{context}/reversed"));
            }
        }
    }
}

#[test]
fn empty_and_single_sub_streams_match_batch() {
    // Degenerate shapes: nothing ingested, and a single thread that never
    // synchronizes (one trailing sub-computation).
    let empty = ShardedCpgBuilder::new().seal();
    assert_eq!(empty.node_count(), 0);
    assert_eq!(empty.edge_count(), 0);

    let mut rec = ThreadRecorder::new(ThreadId::new(0));
    rec.on_memory_access(PageId::new(1), AccessKind::Write);
    rec.on_memory_access(PageId::new(1), AccessKind::Read);
    let sequences = vec![rec.finish()];
    let reference = batch_build(&sequences);
    let streamed = stream_round_robin(sequences, 4);
    assert_identical(&streamed, &reference, "single-sub");
}

// ---------------------------------------------------------------------------
// End-to-end: real sessions produce batch-identical graphs
// ---------------------------------------------------------------------------

/// Worker count × ingest-pool width × spill threshold: the graph must be
/// identical to its own batch rebuild whichever stages ran and however many
/// ingest workers drained the provenance lanes.
#[test]
fn real_session_graphs_match_batch_rebuild() {
    for workers in [1usize, 4, 8] {
        for pool in [1usize, 4] {
            for threshold in [0usize, 4] {
                let context = format!("workers={workers}/pool={pool}/spill={threshold}");
                let session = InspectorSession::new(
                    SessionConfig::inspector()
                        .with_ingest_threads(pool)
                        .with_spill_threshold(threshold),
                );
                let counter = session.map_region("counter", 8).base();
                let staging = session.map_region("staging", 4096 * 8).base();
                let lock = Arc::new(InspMutex::new());
                let report = session.run(move |ctx| {
                    let mut handles = Vec::new();
                    for w in 0..workers {
                        let lock = Arc::clone(&lock);
                        handles.push(ctx.spawn(move |ctx| {
                            for i in 0..6u64 {
                                ctx.branch(i % 2 == 0);
                                ctx.write_u64(staging.add(w as u64 * 4096), i);
                                lock.lock(ctx);
                                let v = ctx.read_u64(counter);
                                ctx.write_u64(counter, v + 1);
                                lock.unlock(ctx);
                            }
                        }));
                    }
                    for h in handles {
                        ctx.join(h);
                    }
                });
                let s = &report.stats;
                assert_identical(&report.cpg, &rebatch(&report.cpg), &context);
                assert_eq!(session.image().read_u64_direct(counter), 6 * workers as u64);
                // The configuration took effect, and nothing was lost.
                assert_eq!(s.ingest_workers, pool, "{context}");
                assert_eq!(s.spilled_subs > 0, threshold > 0, "{context}: {s:?}");
                assert!(!s.degraded, "{context}: {s:?}");
                assert_eq!(s.decoded_branches, s.pt.branches, "{context}: {s:?}");
                assert_eq!(s.decode_errors + s.decode_mismatches, 0, "{context}: {s:?}");
            }
        }
    }
}

#[test]
fn no_acquire_is_left_unresolved_after_a_session_run() {
    let session = InspectorSession::new(SessionConfig::inspector());
    let cell = session.map_region("cell", 8).base();
    let lock = Arc::new(InspMutex::new());
    let report = session.run(move |ctx| {
        let lock2 = Arc::clone(&lock);
        let worker = ctx.spawn(move |ctx| {
            for _ in 0..10 {
                lock2.lock(ctx);
                let v = ctx.read_u64(cell);
                ctx.write_u64(cell, v + 1);
                lock2.unlock(ctx);
            }
        });
        ctx.join(worker);
    });
    // The seal derived the lock hand-offs and the counter's data flow.
    assert!(report.cpg.stats().sync_edges > 0);
    assert!(report.cpg.stats().data_edges > 0);
}

#[test]
fn concurrent_pool_ingestion_matches_batch() {
    // Drive the builder directly from a 4-wide producer pool with the
    // runtime's lane routing (worker w owns threads with index % 4 == w):
    // the concurrent build must be identical to the batch oracle.
    let sequences = inspector::core::testing::lock_heavy_sequences(8, 30, 12, 12);
    let reference = batch_build(&sequences);

    for shards in [1usize, 4, 8] {
        let builder = ShardedCpgBuilder::with_shards(shards);
        std::thread::scope(|scope| {
            for worker in 0..4usize {
                let builder = &builder;
                let lanes: Vec<Vec<SubComputation>> = sequences
                    .iter()
                    .enumerate()
                    .filter(|(t, _)| t % 4 == worker)
                    .map(|(_, seq)| seq.clone())
                    .collect();
                scope.spawn(move || {
                    let mut cursors: Vec<std::vec::IntoIter<SubComputation>> =
                        lanes.into_iter().map(|s| s.into_iter()).collect();
                    let mut progressed = true;
                    while progressed {
                        progressed = false;
                        for cursor in &mut cursors {
                            if let Some(sub) = cursor.next() {
                                builder.ingest(sub);
                                progressed = true;
                            }
                        }
                    }
                });
            }
        });
        let sealed = builder.seal();
        assert_identical(&sealed, &reference, &format!("pool4/shards={shards}"));
    }
}
