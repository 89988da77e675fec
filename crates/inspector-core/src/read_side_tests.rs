//! Tests of the CPG's dense read side (see the `graph` module docs): the
//! `SubId → position` index on awkward id shapes, malformed graphs that
//! must not turn into out-of-bounds positions, and equivalence of the
//! flat-array algorithms to the `*_reference` implementations they
//! replaced.

use std::collections::BTreeMap;

use proptest::prelude::*;

use crate::clock::VectorClock;
use crate::graph::{Cpg, CpgBuilder, CpgValidationError, DependenceEdge, EdgeKind};
use crate::ids::{PageId, SubId, ThreadId};
use crate::query::{Direction, EdgeFilter, ProvenanceQuery};
use crate::sharded::ShardedCpgBuilder;
use crate::subcomputation::SubComputation;
use crate::taint::{TaintLabel, TaintTracker};
use crate::testing::{announce_all, lock_heavy_sequences, ping_pong_sequences};

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
/// policies, from `start` — the calls a malformed graph must survive.
fn query_everything_from(cpg: &Cpg, start: SubId) {
    let query = ProvenanceQuery::new(cpg);
    for filter in FILTERS {
        query.backward_slice(start, filter);
        query.forward_slice(start, filter);
    }
    for control_flow in [false, true] {
        let mut tracker = TaintTracker::new().with_control_flow(control_flow);
        tracker.taint_page(PageId::new(100), TaintLabel(1));
        tracker.propagate(cpg);
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
    let mut tracker = TaintTracker::new().with_control_flow(true);
    tracker.taint_page(PageId::new(100), TaintLabel(1));
    let report = tracker.propagate(&cpg);
    assert!(report.tainted_subs.is_empty());
    assert_eq!(report.tainted_pages.len(), 1);
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
        assert_eq!(query.forward_slice(a, EdgeFilter::ALL), [a, b].into());
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
    assert_eq!(
        ProvenanceQuery::new(&cpg).backward_slice(a, EdgeFilter::DATA_ONLY),
        [a, b].into()
    );
    let mut tracker = TaintTracker::new();
    tracker.taint_page(PageId::new(100), TaintLabel(7));
    let report = tracker.propagate(&cpg);
    assert_eq!(report, tracker.propagate_reference(&cpg));
    assert_eq!(report.tainted_sub_count(), 2);
    assert!(report.page_is_tainted(PageId::new(2)));
}

/// The same sequences built by the batch oracle and by a streaming seal
/// (round-robin delivery).
fn both_builds(sequences: Vec<Vec<SubComputation>>, shards: usize) -> [Cpg; 2] {
    let mut batch = CpgBuilder::new();
    for seq in &sequences {
        batch.add_thread(seq.clone());
    }
    let streaming = ShardedCpgBuilder::with_shards(shards);
    announce_all(&streaming, &sequences);
    let mut cursors: Vec<_> = sequences.into_iter().map(Vec::into_iter).collect();
    while cursors.iter().any(|c| c.len() > 0) {
        for sub in cursors.iter_mut().filter_map(Iterator::next) {
            streaming.ingest(sub);
        }
    }
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
                let dense = match dir {
                    Direction::Backward => query.backward_slice(start, filter),
                    Direction::Forward => query.forward_slice(start, filter),
                };
                assert_eq!(
                    dense,
                    query.traverse_reference(start, filter, dir),
                    "{dir:?} slice of {start} under {filter:?}"
                );
            }
        }
    }

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
            assert_eq!(
                report,
                tracker.propagate_reference(cpg),
                "{labels} labels, control flow {control_flow}"
            );
            assert_eq!(labels == 0, report == Default::default());
        }
    }
}

proptest! {
    /// Topological order element for element, slices and taint reports:
    /// the dense read side answers what the reference implementations do,
    /// on batch-built and on sealed graphs.
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
