//! Tests of the CPG's dense read side (see the `graph` module docs): the
//! `SubId → position` index on awkward id shapes, malformed graphs that
//! must not turn into out-of-bounds positions, and equivalence of the
//! flat-array algorithms to the `*_reference` implementations they
//! replaced.
//!
//! CI also runs this module under the release profile
//! (`cargo test --release -p inspector-core --lib read_side`): the dense
//! paths count and index bits, and a miscompiled counter only shows with
//! the optimiser on.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use std::sync::Arc;

use crate::clock::VectorClock;
use crate::event::{AccessKind, SyncKind};
use crate::graph::{Cpg, CpgBuilder, CpgValidationError, DependenceEdge, EdgeKind};
use crate::ids::{PageId, SubId, SyncObjectId, ThreadId};
use crate::query::{Direction, EdgeFilter, ProvenanceQuery, SubSet};
use crate::recorder::{SyncClockRegistry, ThreadRecorder};
use crate::sharded::ShardedCpgBuilder;
use crate::subcomputation::SubComputation;
use crate::taint::{ReferenceReport, TaintLabel, TaintReport, TaintTracker};
use crate::testing::{ingest_round_robin, lock_heavy_sequences, ping_pong_sequences};

const FILTERS: [EdgeFilter; 3] = [
    EdgeFilter::ALL,
    EdgeFilter::DATA_ONLY,
    EdgeFilter::ORDER_ONLY,
];

fn id(thread: u32, alpha: u64) -> SubId {
    SubId::new(ThreadId::new(thread), alpha)
}

fn sub(id: SubId) -> SubComputation {
    SubComputation::new(id, VectorClock::new())
}

fn edge(src: SubId, dst: SubId, kind: EdgeKind) -> DependenceEdge {
    DependenceEdge {
        src,
        dst,
        kind,
        object: None,
        pages: Vec::new(),
    }
}

fn graph(nodes: Vec<SubComputation>, edges: Vec<DependenceEdge>) -> Cpg {
    Cpg::from_parts(nodes.into_iter().map(|n| (n.id, n)).collect(), edges)
}

/// Every vertex resolves to its own rank, and the per-thread helpers agree
/// with a scan of the node store.
fn assert_index_consistent(cpg: &Cpg) {
    let mut by_thread: BTreeMap<ThreadId, Vec<SubId>> = BTreeMap::new();
    for (p, node) in cpg.nodes().enumerate() {
        assert_eq!(cpg.position(node.id), Some(p as u32), "{}", node.id);
        assert_eq!(cpg.node(node.id).map(|n| n.id), Some(node.id));
        by_thread.entry(node.id.thread).or_default().push(node.id);
    }
    assert_eq!(cpg.threads(), by_thread.keys().copied().collect());
    assert_eq!(cpg.stats().threads, by_thread.len());
    for (&thread, sequence) in &by_thread {
        assert_eq!(&cpg.thread_sequence(thread), sequence);
    }
}

/// Slices in both directions under every filter, and taint under both
/// policies, from `start` — the calls a malformed graph must survive — each
/// equal to its reference.
fn query_everything_from(cpg: &Cpg, start: SubId) {
    let query = ProvenanceQuery::new(cpg);
    for filter in FILTERS {
        for dir in [Direction::Backward, Direction::Forward] {
            assert_slice_matches(cpg, start, filter, dir);
        }
    }
    for control_flow in [false, true] {
        let mut tracker = TaintTracker::new().with_control_flow(control_flow);
        tracker.taint_page(PageId::new(100), TaintLabel(1));
        assert_taint_matches(
            cpg,
            &tracker.propagate(cpg),
            &tracker.propagate_reference(cpg),
        );
    }
    assert_pages_match(cpg, [1, 2, 100].map(PageId::new));
    assert_eq!(query.page_summary(), query.page_summary_reference());
}

/// A set answers like the `BTreeSet` it replaced: the same members in the
/// same order, the same size, and `contains` true exactly for members —
/// every vertex of `cpg` and a few ids that are not vertices are probed.
fn assert_set_matches(cpg: &Cpg, dense: &SubSet, reference: &BTreeSet<SubId>, what: &str) {
    assert_eq!(
        dense.iter().collect::<Vec<_>>(),
        reference.iter().copied().collect::<Vec<_>>(),
        "{what}"
    );
    assert_eq!(dense.len(), reference.len(), "{what}");
    assert_eq!(dense.is_empty(), reference.is_empty(), "{what}");
    let strangers = [id(0, u64::MAX), id(u32::MAX, 0)];
    for probe in cpg.nodes().map(|n| n.id).chain(strangers) {
        assert_eq!(
            dense.contains(probe),
            reference.contains(&probe),
            "{what}: {probe}"
        );
    }
}

fn assert_slice_matches(cpg: &Cpg, start: SubId, filter: EdgeFilter, dir: Direction) {
    let query = ProvenanceQuery::new(cpg);
    let dense = match dir {
        Direction::Backward => query.backward_slice(start, filter),
        Direction::Forward => query.forward_slice(start, filter),
    };
    let what = format!("{dir:?} slice of {start} under {filter:?}");
    assert_set_matches(
        cpg,
        &dense,
        &query.traverse_reference(start, filter, dir),
        &what,
    );
}

/// The dense report answers every question the reference's two maps do.
fn assert_taint_matches(cpg: &Cpg, report: &TaintReport, reference: &ReferenceReport) {
    let (subs, pages) = reference;
    assert_eq!(&report.tainted_pages, pages);
    assert_eq!(report.tainted_sub_count(), subs.len());
    let stranger = id(u32::MAX, 0);
    for probe in cpg.nodes().map(|n| n.id).chain([stranger]) {
        let labels: Vec<TaintLabel> = report.labels_of_sub(probe).collect();
        let expected: Vec<TaintLabel> = subs
            .get(&probe)
            .map_or_else(Vec::new, |set| set.iter().copied().collect());
        assert_eq!(labels, expected, "labels of {probe}");
    }
}

/// The page-keyed queries against their node-scan references, on each of
/// `pages`.
fn assert_pages_match(cpg: &Cpg, pages: impl IntoIterator<Item = PageId>) {
    let query = ProvenanceQuery::new(cpg);
    assert_eq!(query.shared_pages(), query.shared_pages_reference());
    for page in pages {
        assert_eq!(
            query.writers_of(page).collect::<Vec<_>>(),
            query.writers_of_reference(page),
            "writers of {page}"
        );
        assert_eq!(
            query.readers_of(page).collect::<Vec<_>>(),
            query.readers_of_reference(page),
            "readers of {page}"
        );
        assert_set_matches(
            cpg,
            &query.explain_page(page),
            &query.explain_page_reference(page),
            &format!("explanation of {page}"),
        );
    }
}

#[test]
fn lookup_on_a_thread_starting_past_alpha_zero() {
    let cpg = graph((5..8).map(|alpha| sub(id(0, alpha))).collect(), Vec::new());
    assert_index_consistent(&cpg);
    assert_eq!(cpg.position(id(0, 5)), Some(0));
    assert_eq!(cpg.position(id(0, 7)), Some(2));
    for missing in [0, 4, 8, u64::MAX] {
        assert!(cpg.node(id(0, missing)).is_none(), "α {missing}");
    }
}

#[test]
fn lookup_on_a_thread_with_holes() {
    // The recovered-prefix shape: a contiguous thread, then one whose α
    // skips, then one starting late.
    let alphas = [0, 1, 3, 4, 9];
    let mut nodes: Vec<SubComputation> = (0..3).map(|alpha| sub(id(0, alpha))).collect();
    nodes.extend(alphas.iter().map(|&alpha| sub(id(1, alpha))));
    nodes.push(sub(id(2, 6)));
    let cpg = graph(nodes, Vec::new());
    assert_index_consistent(&cpg);
    assert_eq!(cpg.position(id(1, 3)), Some(5));
    assert_eq!(cpg.position(id(1, 9)), Some(7));
    for missing in [2, 5, 8, 10, u64::MAX] {
        assert!(cpg.node(id(1, missing)).is_none(), "α {missing}");
    }
    assert_eq!(
        cpg.thread_sequence(ThreadId::new(1)),
        alphas.map(|alpha| id(1, alpha))
    );
}

#[test]
fn lookup_across_many_and_sparse_threads() {
    // Twelve threads with even ids, so unknown threads fall between known
    // ones as well as past them.
    let threads: Vec<u32> = (0..12).map(|t| t * 2).collect();
    let nodes = threads
        .iter()
        .flat_map(|&t| (0..2).map(move |alpha| sub(id(t, alpha))))
        .collect();
    let cpg = graph(nodes, Vec::new());
    assert_index_consistent(&cpg);
    assert_eq!(cpg.threads().len(), 12);
    for unknown in [1, 11, 23, 24, 99, u32::MAX] {
        assert!(cpg.node(id(unknown, 0)).is_none(), "thread {unknown}");
        assert!(cpg.thread_sequence(ThreadId::new(unknown)).is_empty());
        assert_eq!(cpg.outgoing(id(unknown, 0)).count(), 0);
    }
}

#[test]
fn default_graph_answers_every_query_with_nothing() {
    let cpg = Cpg::default();
    let anyone = id(0, 0);
    assert!(cpg.node(anyone).is_none());
    assert_eq!((cpg.nodes().count(), cpg.edges().count()), (0, 0));
    assert_eq!(
        cpg.outgoing(anyone).count() + cpg.incoming(anyone).count(),
        0
    );
    assert!(cpg.threads().is_empty());
    assert!(cpg.thread_sequence(ThreadId::new(0)).is_empty());
    assert_eq!(cpg.stats(), crate::graph::CpgStats::default());
    assert_eq!(cpg.topological_order(), Some(Vec::new()));
    assert_eq!(cpg.validate(), Ok(()));
    let query = ProvenanceQuery::new(&cpg);
    assert!(query.backward_slice(anyone, EdgeFilter::ALL).is_empty());
    assert!(query.forward_slice(anyone, EdgeFilter::ALL).is_empty());
    assert!(query.page_summary().is_empty());
    assert!(query.shared_pages().is_empty());
    assert_eq!(query.writers_of(PageId::new(0)).len(), 0);
    assert_eq!(query.readers_of(PageId::new(0)).len(), 0);
    assert!(query.explain_page(PageId::new(0)).is_empty());
    let mut tracker = TaintTracker::new().with_control_flow(true);
    tracker.taint_page(PageId::new(100), TaintLabel(1));
    let report = tracker.propagate(&cpg);
    assert_eq!(report.tainted_sub_count(), 0);
    assert_eq!(report.labels_of_sub(anyone).count(), 0);
    assert_eq!(report.tainted_pages.len(), 1);
    query_everything_from(&cpg, anyone);
}

#[test]
fn a_source_page_nothing_touches_stays_tainted() {
    let (a, b) = (id(0, 0), id(0, 1));
    let mut reader = sub(a);
    reader.record_read(PageId::new(1));
    let mut writer = sub(b);
    writer.record_write(PageId::new(2));
    let cpg = graph(vec![reader, writer], vec![edge(a, b, EdgeKind::Control)]);
    let mut tracker = TaintTracker::new().with_control_flow(true);
    tracker.taint_page(PageId::new(1), TaintLabel(3));
    tracker.taint_page(PageId::new(50), TaintLabel(4));
    let report = tracker.propagate(&cpg);
    assert_taint_matches(&cpg, &report, &tracker.propagate_reference(&cpg));
    let labels = |page| report.labels_of_page(PageId::new(page)).cloned();
    assert_eq!(labels(50), Some([TaintLabel(4)].into()));
    assert_eq!(labels(1), Some([TaintLabel(3)].into()));
    assert_eq!(labels(2), Some([TaintLabel(3)].into()));
    assert_eq!(report.labels_of_sub(b).collect::<Vec<_>>(), [TaintLabel(3)]);
    for start in [a, b] {
        query_everything_from(&cpg, start);
    }
}

#[test]
fn a_page_that_is_only_read() {
    // Two threads read page 5; nothing writes it. Page 6 is written by one
    // of them only.
    let (a, b) = (id(0, 0), id(1, 0));
    let mut first = sub(a);
    first.record_read(PageId::new(5));
    first.record_write(PageId::new(6));
    let mut second = sub(b);
    second.record_read(PageId::new(5));
    let cpg = graph(vec![first, second], Vec::new());
    let query = ProvenanceQuery::new(&cpg);
    let summary = query.page_summary();
    assert_eq!(summary, query.page_summary_reference());
    let only_read = &summary[&PageId::new(5)];
    assert!(only_read.writers.is_empty());
    assert_eq!(only_read.readers.len(), 2);
    assert_eq!(query.shared_pages(), [PageId::new(5)]);
    assert!(query.explain_page(PageId::new(5)).is_empty());
    assert_eq!(query.readers_of(PageId::new(5)).collect::<Vec<_>>(), [a, b]);
    assert_pages_match(&cpg, (4..8).map(PageId::new));
    for start in [a, b] {
        query_everything_from(&cpg, start);
    }
}

#[test]
fn dangling_edges_are_reported_and_have_no_row() {
    let (a, b, missing) = (id(0, 0), id(0, 1), id(1, 5));
    let control = edge(a, b, EdgeKind::Control);
    for dangling in [
        edge(b, missing, EdgeKind::Data),
        edge(missing, b, EdgeKind::Data),
    ] {
        let mut reader = sub(a);
        reader.record_read(PageId::new(100));
        let cpg = graph(
            vec![reader, sub(b)],
            vec![control.clone(), dangling.clone()],
        );
        assert_eq!(
            cpg.validate(),
            Err(CpgValidationError::DanglingEdge {
                src: dangling.src,
                dst: dangling.dst
            })
        );
        assert_eq!(cpg.topological_order(), None);
        assert_eq!(cpg.edges().count(), 2);
        // The present endpoint sees only its real neighbour.
        assert_eq!(cpg.outgoing(b).count(), 0);
        assert_eq!(cpg.incoming(b).collect::<Vec<_>>(), [&control]);
        assert_eq!(cpg.outgoing(missing).count(), 0);
        assert_eq!(cpg.incoming(missing).count(), 0);
        for start in [a, b, missing] {
            query_everything_from(&cpg, start);
        }
        let query = ProvenanceQuery::new(&cpg);
        let slice = query.forward_slice(a, EdgeFilter::ALL);
        assert_eq!(slice.iter().collect::<Vec<_>>(), [a, b]);
    }
}

#[test]
fn two_cycle_is_rejected_and_taint_still_terminates() {
    let (a, b) = (id(0, 0), id(1, 0));
    let mut first = sub(a);
    first.record_read(PageId::new(100));
    first.record_write(PageId::new(1));
    // `a` happens-before `b`, so only the back edge contradicts the order.
    let mut clock = VectorClock::new();
    clock.set(a.thread, 1);
    clock.set(b.thread, 1);
    let mut second = SubComputation::new(b, clock);
    second.record_write(PageId::new(2));
    let cpg = graph(
        vec![first, second],
        vec![edge(a, b, EdgeKind::Data), edge(b, a, EdgeKind::Data)],
    );
    // The edge loop runs before the cycle check.
    assert_eq!(
        cpg.validate(),
        Err(CpgValidationError::EdgeAgainstOrder { src: b, dst: a })
    );
    assert_eq!(cpg.topological_order(), None);
    assert_eq!(cpg.topological_order_reference(), None);
    assert_eq!(cpg.outgoing(a).count() + cpg.incoming(a).count(), 2);
    for start in [a, b] {
        query_everything_from(&cpg, start);
    }
    let slice = ProvenanceQuery::new(&cpg).backward_slice(a, EdgeFilter::DATA_ONLY);
    assert_eq!(slice.iter().collect::<Vec<_>>(), [a, b]);
    let mut tracker = TaintTracker::new();
    tracker.taint_page(PageId::new(100), TaintLabel(7));
    let report = tracker.propagate(&cpg);
    assert_taint_matches(&cpg, &report, &tracker.propagate_reference(&cpg));
    assert_eq!(report.tainted_sub_count(), 2);
    assert!(report.page_is_tainted(PageId::new(2)));
}

/// `explain_page` on a page 10 000 sub-computations write: four workers
/// write it 2 500 times each. Without a joiner every worker's last write is
/// maximal — the shape the all-pairs comparison took seconds on — and the
/// answer is the union of their reference slices; with a joiner that writes
/// the page last it equals the all-pairs reference itself (cheap here: the
/// joiner's write is the first one that reference scans).
#[test]
fn explain_page_on_a_hot_page() {
    const WORKERS: u32 = 4;
    const WRITES: u64 = 2_500;
    let hot = PageId::new(7);
    let done = |t: u32| SyncObjectId::new(10 + t as u64);
    let registry = SyncClockRegistry::shared();
    let recorder = |t: u32| ThreadRecorder::new(ThreadId::new(t), Arc::clone(&registry));
    let spawn = SyncObjectId::new(1);
    let mut spawner = recorder(WORKERS + 1);
    spawner.on_synchronization(spawn, SyncKind::Release);
    let mut sequences = vec![spawner.finish()];
    for t in 1..=WORKERS {
        let mut worker = recorder(t);
        worker.on_synchronization(spawn, SyncKind::Acquire);
        for _ in 0..WRITES {
            worker.on_memory_access(hot, AccessKind::Read);
            worker.on_memory_access(hot, AccessKind::Write);
            worker.on_synchronization(done(t), SyncKind::Release);
        }
        sequences.push(worker.finish());
    }
    let last_writes: Vec<SubId> = sequences
        .iter()
        .filter_map(|seq| seq.iter().rev().find(|sub| sub.writes(hot)))
        .map(|sub| sub.id)
        .collect();
    assert_eq!(last_writes.len(), WORKERS as usize);
    let mut joiner = recorder(0);
    for t in 1..=WORKERS {
        joiner.on_synchronization(done(t), SyncKind::Acquire);
    }
    joiner.on_memory_access(hot, AccessKind::Read);
    joiner.on_memory_access(hot, AccessKind::Write);
    let joiner = joiner.finish();

    let cpg = crate::testing::batch_build(&sequences);
    let query = ProvenanceQuery::new(&cpg);
    assert_eq!(query.writers_of(hot).len() as u64, WORKERS as u64 * WRITES);
    let mut expected = BTreeSet::new();
    for &w in &last_writes {
        expected.extend(query.traverse_reference(w, EdgeFilter::DATA_ONLY, Direction::Backward));
    }
    assert_set_matches(&cpg, &query.explain_page(hot), &expected, "no joiner");

    sequences.push(joiner);
    let cpg = crate::testing::batch_build(&sequences);
    let query = ProvenanceQuery::new(&cpg);
    let explained = query.explain_page(hot);
    assert_eq!(explained.len() as u64, WORKERS as u64 * WRITES + 1);
    assert_set_matches(
        &cpg,
        &explained,
        &query.explain_page_reference(hot),
        "joiner",
    );
}

/// The same sequences built by the batch oracle and by a streaming seal
/// (round-robin delivery).
fn both_builds(sequences: Vec<Vec<SubComputation>>, shards: usize) -> [Cpg; 2] {
    let mut batch = CpgBuilder::new();
    for seq in &sequences {
        batch.add_thread(seq.clone());
    }
    let streaming = ShardedCpgBuilder::with_shards(shards);
    ingest_round_robin(&streaming, sequences, |_| {});
    [batch.build(), streaming.seal()]
}

fn assert_matches_references(cpg: &Cpg, pages: u64, picks: &[u64]) {
    assert_index_consistent(cpg);
    assert_eq!(cpg.topological_order(), cpg.topological_order_reference());

    let query = ProvenanceQuery::new(cpg);
    let ids: Vec<SubId> = cpg.nodes().map(|n| n.id).collect();
    let mut starts: Vec<SubId> = picks
        .iter()
        .map(|&pick| ids[pick as usize % ids.len()])
        .collect();
    let last = *ids.last().expect("generated graphs are non-empty");
    starts.extend([
        SubId::new(last.thread, last.alpha + 1),
        id(last.thread.index() as u32 + 1, 0),
    ]);
    for &start in &starts {
        for filter in FILTERS {
            for dir in [Direction::Backward, Direction::Forward] {
                assert_slice_matches(cpg, start, filter, dir);
            }
        }
    }
    assert_eq!(query.page_summary(), query.page_summary_reference());
    // One page past the touched ones.
    assert_pages_match(cpg, (0..=pages).map(PageId::new));

    // 70 labels cross a word boundary; label values are not dense; every
    // other label also lands on page 0, so sources overlap.
    for labels in [0u32, 1, 4, 70] {
        for control_flow in [false, true] {
            let mut tracker = TaintTracker::new().with_control_flow(control_flow);
            for label in 0..labels {
                let page = (picks[0] + label as u64 * 3) % pages;
                tracker.taint_page(PageId::new(page), TaintLabel(label * 5 + 2));
                if label % 2 == 0 {
                    tracker.taint_page(PageId::new(0), TaintLabel(label * 5 + 2));
                }
            }
            let report = tracker.propagate(cpg);
            assert_taint_matches(cpg, &report, &tracker.propagate_reference(cpg));
            let untainted = report.tainted_sub_count() == 0 && report.tainted_pages.is_empty();
            assert_eq!(labels == 0, untainted);
        }
    }
}

proptest! {
    /// Topological order element for element, slices, taint reports and
    /// the page-keyed queries: the dense read side answers what the
    /// reference implementations do, on batch-built and on sealed graphs.
    #[test]
    fn prop_dense_read_side_matches_references(
        ping_pong in any::<bool>(),
        threads in 1u32..13,
        iterations in 1u64..10,
        pages in 1u64..7,
        shards in 1usize..5,
        picks in proptest::collection::vec(any::<u64>(), 4),
    ) {
        let sequences = if ping_pong {
            ping_pong_sequences(threads, iterations)
        } else {
            lock_heavy_sequences(threads, iterations, pages, pages)
        };
        // Ping-pong threads read and write pages `0..threads`.
        let pages = if ping_pong { threads as u64 } else { pages };
        for cpg in both_builds(sequences, shards) {
            prop_assert_eq!(cpg.validate(), Ok(()));
            assert_matches_references(&cpg, pages, &picks);
        }
    }
}
