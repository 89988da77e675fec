//! Fixed-shape and real-session cases of the equivalence harness
//! (`equivalence/mod.rs`): recorder-driven workload shapes across thread
//! counts, stripes, orders and pools, the degenerate streams, and the
//! graphs real [`InspectorSession`] runs seal against their own batch
//! rebuild.

mod equivalence;
#[path = "equivalence/session.rs"]
mod session;

use equivalence::{check, seal_random, Order, Plan, Sequences};
use inspector::core::event::{AccessKind, SyncKind};
use inspector::core::ids::{PageId, SyncObjectId, ThreadId};
use inspector::core::recorder::{SyncObject, ThreadRecorder};
use inspector::core::testing::{batch_build, lock_heavy_sequences};
use inspector::prelude::*;
use proptest::prelude::*;
use session::run_counter_session;

/// A plan with one fixed delivery and no randomness.
fn fixed(order: Order, pool: usize, stripes: usize, threshold: usize) -> Plan {
    Plan {
        order,
        pool,
        stripes,
        threshold,
        durability: SpillDurability::None,
        seed: 0,
    }
}

/// Barrier-phased pipeline: every thread writes its own page, joins a
/// release-acquire barrier, then reads its neighbour's page, for eight
/// phases.
fn barrier_phases(threads: u32) -> Sequences {
    let mut recs: Vec<ThreadRecorder> = (0..threads)
        .map(|t| ThreadRecorder::new(ThreadId::new(t)))
        .collect();
    for phase in 0..8u64 {
        let barrier = SyncObject::new(SyncObjectId::new(100 + phase));
        for (t, rec) in recs.iter_mut().enumerate() {
            rec.on_memory_access(PageId::new(1000 + t as u64), AccessKind::Write);
        }
        for rec in recs.iter_mut() {
            rec.on_synchronization(&barrier, SyncKind::ReleaseAcquire);
        }
        for (t, rec) in recs.iter_mut().enumerate() {
            let neighbour = (t as u64 + 1) % threads as u64;
            rec.on_memory_access(PageId::new(1000 + neighbour), AccessKind::Read);
        }
    }
    recs.into_iter().map(ThreadRecorder::finish).collect()
}

/// Producer/consumer chain: thread `t` hands a page to thread `t + 1`
/// through a release/acquire object of its own, ten rounds over.
fn producer_chain(threads: u32) -> Sequences {
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
    recs.into_iter().map(ThreadRecorder::finish).collect()
}

/// Three fixed shapes × threads {1, 4, 8} × stripes {1, 3, 8}, each
/// delivered round robin, in reversed threads, from a pool of 4, and from
/// a pool of 4 spilling at threshold 1.
#[test]
fn synthetic_workloads_stream_identically_across_threads_and_shards() {
    type Generator = fn(u32) -> Sequences;
    let generators: [(&str, Generator); 3] = [
        ("lock_heavy", |threads| {
            lock_heavy_sequences(threads, 25, 6, 6)
        }),
        ("barrier_phases", barrier_phases),
        ("producer_chain", producer_chain),
    ];
    let mut rolled = 0;
    for (name, generate) in generators {
        for threads in [1u32, 4, 8] {
            let sequences = generate(threads);
            let reference = batch_build(&sequences);
            let label = format!("{name}/threads={threads}");
            for stripes in [1usize, 3, 8] {
                let plans = [
                    fixed(Order::RoundRobin, 1, stripes, 0),
                    fixed(Order::ReversedThreads, 1, stripes, 0),
                    fixed(Order::RoundRobin, 4, stripes, 0),
                    fixed(Order::RoundRobin, 4, stripes, 1),
                ];
                for plan in plans {
                    let stats = check(&label, plan, &sequences, &reference);
                    if plan.threshold == 1 {
                        // Every `ingest` here is a round of one sub, so every
                        // write past one per sub opened a segment; more
                        // segments than used stripes means a store rolled.
                        let segments = stats.spill_writes - stats.spilled_subs;
                        rolled += usize::from(segments > stripes.min(threads as usize) as u64);
                    }
                }
            }
        }
    }
    assert!(rolled > 0, "no 256-byte segment ever rolled");
}

/// The degenerate streams: nothing at all, and one thread that never
/// synchronizes (one trailing sub-computation), with and without a spill
/// tier.
#[test]
fn empty_and_single_sub_streams_match_batch() {
    let mut rec = ThreadRecorder::new(ThreadId::new(0));
    rec.on_memory_access(PageId::new(1), AccessKind::Write);
    rec.on_memory_access(PageId::new(1), AccessKind::Read);
    for sequences in [Vec::new(), vec![rec.finish()]] {
        let reference = batch_build(&sequences);
        assert_eq!(reference.node_count(), sequences.len());
        for threshold in [0, 1] {
            let plan = fixed(Order::RoundRobin, 1, 4, threshold);
            check("degenerate", plan, &sequences, &reference);
        }
    }
}

proptest! {
    /// A producer pool of 4 OS threads over stripes {1, 4, 8}, in any order
    /// and with no spill tier.
    #[test]
    fn concurrent_pool_ingestion_matches_batch(seed in any::<u64>()) {
        seal_random(seed, 3, |i, rng| Plan {
            pool: 4,
            stripes: [1, 4, 8][i],
            threshold: 0,
            ..Plan::random(rng)
        });
    }
}

/// Real sessions: app workers {1, 4, 8} × ingest pool {1, 4} × spill
/// threshold {0, 4}.
#[test]
fn real_session_graphs_match_batch_rebuild() {
    for workers in [1u64, 4, 8] {
        for pool in [1usize, 4] {
            for threshold in [0usize, 4] {
                run_counter_session(workers, pool, threshold);
            }
        }
    }
}

/// With more than one worker the sealed graph must hold the lock hand-offs
/// and the counter's data flow. The rebuild cannot see their absence: a
/// runtime that recorded no lock boundary would seal nodes without
/// terminators, and a graph with no sync edges still equals its own
/// rebuild.
#[test]
fn no_acquire_is_left_unresolved_after_a_session_run() {
    for workers in [2u64, 8] {
        for pool in [1usize, 4] {
            let (report, context) = run_counter_session(workers, pool, 0);
            let graph = report.cpg.stats();
            assert!(graph.sync_edges > 0 && graph.data_edges > 0, "{context}");
        }
    }
}
