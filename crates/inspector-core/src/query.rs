//! Provenance queries over the CPG.
//!
//! These are the operations the paper's case studies (§VIII) rely on:
//! * *debugging* — backward slices explain **why** a memory page has the
//!   value it has by listing every sub-computation that contributed to it;
//! * *DIFT* — forward slices/taint propagation find everything influenced by
//!   a sensitive input page (see [`crate::taint`]);
//! * *NUMA memory management* — page access summaries expose which threads
//!   touch which pages and how often.
//!
//! ## Cost
//!
//! Every query costs what its answer costs, not a scan of the graph:
//! * slices run over the adjacency CSR and return the traversal's own
//!   bitset as a [`SubSet`] — O(reached vertices + their edges), plus one
//!   word per 64 vertices;
//! * the page-keyed queries read the graph's page index (one row of reader
//!   and one of writer positions per page; see the `graph` module docs),
//!   built once per graph on the first of them:
//!   [`writers_of`](ProvenanceQuery::writers_of) /
//!   [`readers_of`](ProvenanceQuery::readers_of) are one binary search plus
//!   the row; [`page_summary`](ProvenanceQuery::page_summary) and
//!   [`shared_pages`](ProvenanceQuery::shared_pages) split each row into
//!   per-thread runs by binary search, O(pages × threads × log);
//!   [`explain_page`](ProvenanceQuery::explain_page) compares one writer per
//!   thread, O(threads²), then runs one backward data slice.
//!
//! [`unordered_conflicts`](ProvenanceQuery::unordered_conflicts) is still
//! all-pairs.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::graph::{set_bits, Cpg, EdgeKind};
use crate::ids::{PageId, SubId, ThreadId};

/// Which edge kinds a traversal is allowed to follow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeFilter {
    /// Follow intra-thread control edges.
    pub control: bool,
    /// Follow inter-thread synchronization edges.
    pub synchronization: bool,
    /// Follow data-dependence edges.
    pub data: bool,
}

impl EdgeFilter {
    /// Follow every edge kind.
    pub const ALL: EdgeFilter = EdgeFilter {
        control: true,
        synchronization: true,
        data: true,
    };

    /// Follow only data-dependence edges (pure data flow).
    pub const DATA_ONLY: EdgeFilter = EdgeFilter {
        control: false,
        synchronization: false,
        data: true,
    };

    /// Follow only order edges (control + synchronization), ignoring data.
    pub const ORDER_ONLY: EdgeFilter = EdgeFilter {
        control: true,
        synchronization: true,
        data: false,
    };

    fn allows(&self, kind: EdgeKind) -> bool {
        match kind {
            EdgeKind::Control => self.control,
            EdgeKind::Synchronization => self.synchronization,
            EdgeKind::Data => self.data,
        }
    }
}

/// Summary of how one page was accessed, for the NUMA case study.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PageAccessSummary {
    /// Threads that read the page and how many sub-computations did so.
    pub readers: BTreeMap<ThreadId, usize>,
    /// Threads that wrote the page and how many sub-computations did so.
    pub writers: BTreeMap<ThreadId, usize>,
}

impl PageAccessSummary {
    /// Returns `true` if more than one thread touched the page (a candidate
    /// for false sharing / remote NUMA traffic).
    pub fn is_shared(&self) -> bool {
        more_than_one(self.readers.keys().chain(self.writers.keys()).copied())
    }
}

/// `true` if `threads` yields two different threads.
fn more_than_one(mut threads: impl Iterator<Item = ThreadId>) -> bool {
    threads
        .next()
        .is_some_and(|first| threads.any(|t| t != first))
}

/// A set of sub-computations of one graph, as a slice returns it: one bit
/// per vertex position, so the set is the traversal's own visited set and
/// [`contains`](Self::contains) is one position lookup.
#[derive(Clone)]
pub struct SubSet<'a> {
    cpg: &'a Cpg,
    bits: Vec<u64>,
    len: usize,
}

impl<'a> SubSet<'a> {
    fn new(cpg: &'a Cpg, bits: Vec<u64>) -> Self {
        let len = bits.iter().map(|word| word.count_ones() as usize).sum();
        SubSet { cpg, bits, len }
    }

    /// Number of sub-computations in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns `true` if `id` is in the set.
    pub fn contains(&self, id: SubId) -> bool {
        self.cpg.position(id).is_some_and(|p| {
            let p = p as usize;
            self.bits
                .get(p / 64)
                .is_some_and(|word| word >> (p % 64) & 1 == 1)
        })
    }

    /// The members in id order.
    pub fn iter(&self) -> impl Iterator<Item = SubId> + '_ {
        set_bits(&self.bits).map(|p| self.cpg.id_at(p as u32))
    }
}

impl fmt::Debug for SubSet<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Query interface over a built CPG.
#[derive(Debug)]
pub struct ProvenanceQuery<'a> {
    cpg: &'a Cpg,
}

impl<'a> ProvenanceQuery<'a> {
    /// Creates a query helper borrowing the graph.
    pub fn new(cpg: &'a Cpg) -> Self {
        ProvenanceQuery { cpg }
    }

    /// The graph being queried.
    pub fn cpg(&self) -> &Cpg {
        self.cpg
    }

    /// Sub-computations that wrote `page`, in id order.
    pub fn writers_of(&self, page: PageId) -> impl ExactSizeIterator<Item = SubId> + 'a {
        let cpg = self.cpg;
        let row = cpg.page_index().writers_of(page);
        row.iter().map(move |&p| cpg.id_at(p))
    }

    /// Sub-computations that read `page`, in id order.
    pub fn readers_of(&self, page: PageId) -> impl ExactSizeIterator<Item = SubId> + 'a {
        let cpg = self.cpg;
        let row = cpg.page_index().readers_of(page);
        row.iter().map(move |&p| cpg.id_at(p))
    }

    /// Backward slice: every sub-computation that (transitively) precedes
    /// `target` along the allowed edge kinds, including `target` itself.
    ///
    /// With [`EdgeFilter::DATA_ONLY`] this answers "which computations
    /// contributed data to this one" — the debugging case study.
    pub fn backward_slice(&self, target: SubId, filter: EdgeFilter) -> SubSet<'a> {
        self.traverse(self.cpg.position(target), filter, Direction::Backward)
    }

    /// Forward slice: every sub-computation (transitively) reachable from
    /// `source` along the allowed edge kinds, including `source` itself.
    pub fn forward_slice(&self, source: SubId, filter: EdgeFilter) -> SubSet<'a> {
        self.traverse(self.cpg.position(source), filter, Direction::Forward)
    }

    /// The set of sub-computations that influenced the final contents of
    /// `page`: the backward data slice rooted at the last writers of the
    /// page (the writers maximal under happens-before).
    ///
    /// Same-thread order is α order, so only a thread's last writer of the
    /// page can be maximal, and only those are compared. That is exact on
    /// every recorded graph, where clocks grow along a thread.
    pub fn explain_page(&self, page: PageId) -> SubSet<'a> {
        let cpg = self.cpg;
        let writers = cpg.page_index().writers_of(page);
        let last: Vec<u32> = cpg
            .thread_runs(writers)
            .filter_map(|(_, run)| run.last().copied())
            .collect();
        let maximal = last.iter().copied().filter(|&w| {
            !last
                .iter()
                .any(|&o| o != w && cpg.node_at(w).happens_before(cpg.node_at(o)))
        });
        self.traverse(maximal, EdgeFilter::DATA_ONLY, Direction::Backward)
    }

    /// Reconstructs the schedule: all sub-computations sorted by a
    /// linearisation consistent with the happens-before partial order
    /// (ties broken by `(thread, α)`).
    pub fn schedule(&self) -> Vec<SubId> {
        self.cpg.topological_order().unwrap_or_else(|| {
            let mut ids: Vec<SubId> = self.cpg.nodes().map(|n| n.id).collect();
            ids.sort();
            ids
        })
    }

    /// Per-page access summary across the whole execution.
    pub fn page_summary(&self) -> BTreeMap<PageId, PageAccessSummary> {
        let index = self.cpg.page_index();
        let per_thread = |row: &[u32]| -> BTreeMap<ThreadId, usize> {
            self.cpg
                .thread_runs(row)
                .map(|(thread, run)| (thread, run.len()))
                .collect()
        };
        // Both levels are bulk-built from runs sorted by key.
        index
            .pages()
            .iter()
            .enumerate()
            .map(|(i, &page)| {
                let summary = PageAccessSummary {
                    readers: per_thread(index.readers(i)),
                    writers: per_thread(index.writers(i)),
                };
                (page, summary)
            })
            .collect()
    }

    /// Pages touched by more than one thread (candidates for false sharing
    /// or remote NUMA traffic), ascending.
    pub fn shared_pages(&self) -> Vec<PageId> {
        let index = self.cpg.page_index();
        let threads = |row| self.cpg.thread_runs(row).map(|(thread, _)| thread);
        (0..index.pages().len())
            .filter(|&i| more_than_one(threads(index.readers(i)).chain(threads(index.writers(i)))))
            .map(|i| index.pages()[i])
            .collect()
    }

    /// Pairs of concurrent sub-computations whose write set intersects the
    /// other's read or write set — potential data races that the RC model
    /// could not order. Useful for the debugging case study.
    pub fn unordered_conflicts(&self) -> Vec<(SubId, SubId, Vec<PageId>)> {
        let nodes: Vec<_> = self.cpg.nodes().collect();
        let mut out = Vec::new();
        for (i, a) in nodes.iter().enumerate() {
            for b in nodes.iter().skip(i + 1) {
                if !a.concurrent_with(b) {
                    continue;
                }
                let mut pages: BTreeSet<PageId> = BTreeSet::new();
                for &p in &a.write_set {
                    if b.reads(p) || b.writes(p) {
                        pages.insert(p);
                    }
                }
                for &p in &b.write_set {
                    if a.reads(p) || a.writes(p) {
                        pages.insert(p);
                    }
                }
                if !pages.is_empty() {
                    out.push((a.id, b.id, pages.into_iter().collect()));
                }
            }
        }
        out
    }

    /// Everything reachable from the `starts` positions along `filter`'s
    /// edges in direction `dir`, the starts included.
    fn traverse(
        &self,
        starts: impl IntoIterator<Item = u32>,
        filter: EdgeFilter,
        dir: Direction,
    ) -> SubSet<'a> {
        let cpg = self.cpg;
        let adjacency = cpg.adjacency();
        let index = match dir {
            Direction::Forward => &adjacency.successors,
            Direction::Backward => &adjacency.predecessors,
        };
        // One bit per position. The reached set does not depend on visit
        // order, so the frontier is a plain stack. The set's size is counted
        // afterwards from the words, not here.
        let mut seen = vec![0u64; cpg.node_count().div_ceil(64)];
        let mut mark = |p: u32| {
            let (word, bit) = (&mut seen[p as usize / 64], 1u64 << (p % 64));
            let fresh = *word & bit == 0;
            *word |= bit;
            fresh
        };
        let mut frontier: Vec<u32> = starts.into_iter().filter(|&p| mark(p)).collect();
        while let Some(p) = frontier.pop() {
            for entry in index.row(p) {
                if filter.allows(entry.kind) && mark(entry.neighbour) {
                    frontier.push(entry.neighbour);
                }
            }
        }
        SubSet::new(cpg, seen)
    }
}

/// The pre-dense-index implementations, kept verbatim over the public API
/// as the references the dense ones are tested against.
#[cfg(test)]
impl ProvenanceQuery<'_> {
    pub(crate) fn traverse_reference(
        &self,
        start: SubId,
        filter: EdgeFilter,
        dir: Direction,
    ) -> BTreeSet<SubId> {
        let mut seen = BTreeSet::new();
        if self.cpg.node(start).is_none() {
            return seen;
        }
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(start);
        seen.insert(start);
        while let Some(id) = queue.pop_front() {
            let next: Vec<SubId> = match dir {
                Direction::Forward => self
                    .cpg
                    .outgoing(id)
                    .filter(|e| filter.allows(e.kind))
                    .map(|e| e.dst)
                    .collect(),
                Direction::Backward => self
                    .cpg
                    .incoming(id)
                    .filter(|e| filter.allows(e.kind))
                    .map(|e| e.src)
                    .collect(),
            };
            for n in next {
                if seen.insert(n) {
                    queue.push_back(n);
                }
            }
        }
        seen
    }

    pub(crate) fn writers_of_reference(&self, page: PageId) -> Vec<SubId> {
        self.cpg
            .nodes()
            .filter(|n| n.writes(page))
            .map(|n| n.id)
            .collect()
    }

    pub(crate) fn readers_of_reference(&self, page: PageId) -> Vec<SubId> {
        self.cpg
            .nodes()
            .filter(|n| n.reads(page))
            .map(|n| n.id)
            .collect()
    }

    pub(crate) fn explain_page_reference(&self, page: PageId) -> BTreeSet<SubId> {
        let writers = self.writers_of_reference(page);
        // Last writers = maximal under happens-before.
        let last: Vec<SubId> = writers
            .iter()
            .copied()
            .filter(|&w| {
                !writers
                    .iter()
                    .any(|&o| o != w && self.cpg.happens_before(w, o))
            })
            .collect();
        let mut out = BTreeSet::new();
        for w in last {
            out.extend(self.traverse_reference(w, EdgeFilter::DATA_ONLY, Direction::Backward));
        }
        out
    }

    pub(crate) fn page_summary_reference(&self) -> BTreeMap<PageId, PageAccessSummary> {
        let mut out: BTreeMap<PageId, PageAccessSummary> = BTreeMap::new();
        for n in self.cpg.nodes() {
            for &p in &n.read_set {
                *out.entry(p)
                    .or_default()
                    .readers
                    .entry(n.id.thread)
                    .or_default() += 1;
            }
            for &p in &n.write_set {
                *out.entry(p)
                    .or_default()
                    .writers
                    .entry(n.id.thread)
                    .or_default() += 1;
            }
        }
        out
    }

    pub(crate) fn shared_pages_reference(&self) -> Vec<PageId> {
        self.page_summary_reference()
            .into_iter()
            .filter(|(_, s)| s.is_shared())
            .map(|(p, _)| p)
            .collect()
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum Direction {
    Forward,
    Backward,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AccessKind, SyncKind};
    use crate::graph::CpgBuilder;
    use crate::ids::SyncObjectId;
    use crate::recorder::{SyncObject, ThreadRecorder};

    /// Pipeline: T0 writes page 1, releases; T1 acquires, reads page 1,
    /// writes page 2, releases; T2 acquires, reads page 2.
    fn pipeline_cpg() -> Cpg {
        let s01 = SyncObject::new(SyncObjectId::new(1));
        let s12 = SyncObject::new(SyncObjectId::new(2));

        let mut t0 = ThreadRecorder::new(ThreadId::new(0));
        t0.on_memory_access(PageId::new(1), AccessKind::Write);
        t0.on_synchronization(&s01, SyncKind::Release);

        let mut t1 = ThreadRecorder::new(ThreadId::new(1));
        t1.on_synchronization(&s01, SyncKind::Acquire);
        t1.on_memory_access(PageId::new(1), AccessKind::Read);
        t1.on_memory_access(PageId::new(2), AccessKind::Write);
        t1.on_synchronization(&s12, SyncKind::Release);

        let mut t2 = ThreadRecorder::new(ThreadId::new(2));
        t2.on_synchronization(&s12, SyncKind::Acquire);
        t2.on_memory_access(PageId::new(2), AccessKind::Read);

        let mut b = CpgBuilder::new();
        b.add_thread(t0.finish());
        b.add_thread(t1.finish());
        b.add_thread(t2.finish());
        b.build()
    }

    #[test]
    fn writers_and_readers() {
        let cpg = pipeline_cpg();
        let q = ProvenanceQuery::new(&cpg);
        assert_eq!(q.writers_of(PageId::new(1)).len(), 1);
        assert_eq!(q.readers_of(PageId::new(1)).len(), 1);
        assert_eq!(q.writers_of(PageId::new(2)).len(), 1);
        assert_eq!(q.writers_of(PageId::new(3)).len(), 0);
    }

    #[test]
    fn backward_slice_crosses_threads() {
        let cpg = pipeline_cpg();
        let q = ProvenanceQuery::new(&cpg);
        // The reader of page 2 is T2, α=1.
        let reader = SubId::new(ThreadId::new(2), 1);
        let slice = q.backward_slice(reader, EdgeFilter::DATA_ONLY);
        // Slice must include T1's middle sub-computation (writer of 2) and
        // T0's first sub-computation (writer of 1) transitively.
        assert!(slice.contains(SubId::new(ThreadId::new(1), 1)));
        assert!(slice.contains(SubId::new(ThreadId::new(0), 0)));
    }

    #[test]
    fn forward_slice_reaches_consumers() {
        let cpg = pipeline_cpg();
        let q = ProvenanceQuery::new(&cpg);
        let source = SubId::new(ThreadId::new(0), 0);
        let slice = q.forward_slice(source, EdgeFilter::DATA_ONLY);
        assert!(slice.contains(SubId::new(ThreadId::new(2), 1)));
    }

    #[test]
    fn explain_page_includes_transitive_producers() {
        let cpg = pipeline_cpg();
        let q = ProvenanceQuery::new(&cpg);
        let explanation = q.explain_page(PageId::new(2));
        assert!(explanation.contains(SubId::new(ThreadId::new(1), 1)));
        assert!(explanation.contains(SubId::new(ThreadId::new(0), 0)));
    }

    #[test]
    fn schedule_is_consistent_with_happens_before() {
        let cpg = pipeline_cpg();
        let q = ProvenanceQuery::new(&cpg);
        let sched = q.schedule();
        let pos: BTreeMap<SubId, usize> = sched.iter().enumerate().map(|(i, &s)| (s, i)).collect();
        for a in cpg.nodes() {
            for b in cpg.nodes() {
                if a.happens_before(b) {
                    assert!(pos[&a.id] < pos[&b.id], "{} !< {}", a.id, b.id);
                }
            }
        }
    }

    #[test]
    fn page_summary_marks_shared_pages() {
        let cpg = pipeline_cpg();
        let q = ProvenanceQuery::new(&cpg);
        let shared = q.shared_pages();
        assert!(shared.contains(&PageId::new(1)));
        assert!(shared.contains(&PageId::new(2)));
        let summary = q.page_summary();
        assert!(summary[&PageId::new(1)].is_shared());
    }

    #[test]
    fn is_shared_counts_distinct_threads_across_both_maps() {
        let summary = |readers: &[u32], writers: &[u32]| PageAccessSummary {
            readers: readers.iter().map(|&t| (ThreadId::new(t), 1)).collect(),
            writers: writers.iter().map(|&t| (ThreadId::new(t), 1)).collect(),
        };
        assert!(!summary(&[], &[]).is_shared());
        assert!(!summary(&[3], &[]).is_shared());
        assert!(!summary(&[3], &[3]).is_shared());
        assert!(summary(&[3], &[4]).is_shared());
        assert!(summary(&[1, 2], &[]).is_shared());
        assert!(summary(&[], &[1, 2]).is_shared());
    }

    #[test]
    fn no_conflicts_in_properly_synchronized_pipeline() {
        let cpg = pipeline_cpg();
        let q = ProvenanceQuery::new(&cpg);
        assert!(q.unordered_conflicts().is_empty());
    }

    #[test]
    fn racy_writes_show_up_as_conflicts() {
        // Two threads write the same page with no synchronization at all.
        let mut t0 = ThreadRecorder::new(ThreadId::new(0));
        t0.on_memory_access(PageId::new(7), AccessKind::Write);
        let mut t1 = ThreadRecorder::new(ThreadId::new(1));
        t1.on_memory_access(PageId::new(7), AccessKind::Write);
        let mut b = CpgBuilder::new();
        b.add_thread(t0.finish());
        b.add_thread(t1.finish());
        let cpg = b.build();
        let q = ProvenanceQuery::new(&cpg);
        let conflicts = q.unordered_conflicts();
        assert_eq!(conflicts.len(), 1);
        assert_eq!(conflicts[0].2, vec![PageId::new(7)]);
    }

    #[test]
    fn slice_of_unknown_node_is_empty() {
        let cpg = pipeline_cpg();
        let q = ProvenanceQuery::new(&cpg);
        let missing = SubId::new(ThreadId::new(9), 9);
        assert!(q.backward_slice(missing, EdgeFilter::ALL).is_empty());
        assert!(q.forward_slice(missing, EdgeFilter::ALL).is_empty());
    }
}
