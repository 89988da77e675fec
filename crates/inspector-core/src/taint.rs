//! Taint propagation over the CPG: the Dynamic Information Flow Tracking
//! (DIFT) case study from §VIII.
//!
//! A taint label is attached to input pages (for example the pages backing a
//! sensitive input file mapped through the `mmap` shim). Taint then flows
//! along data-dependence edges: a sub-computation that reads a tainted page
//! becomes tainted, and every page it writes becomes tainted for downstream
//! readers. A policy checker can query the final taint set before allowing an
//! output system call.
//!
//! ## Cost
//!
//! Label sets are interned as rows of bits, one row per vertex, so
//! [`TaintTracker::propagate`] allocates one table however many vertices end
//! up tainted, and the [`TaintReport`] *is* that table: a vertex's labels
//! ([`TaintReport::labels_of_sub`]) are decoded from its row on demand.
//! Propagation is seeded from the graph's page index (the readers of each
//! source page, not a scan of every vertex) and walks the region the seeds
//! reach once, in topological order: O(region vertices + followed edges ×
//! label words). The tainted pages are the union of each page's writers'
//! rows — O(page accesses × label words) plus one map entry per tainted
//! page.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::graph::{set_bits, Cpg, EdgeKind};
use crate::ids::{PageId, SubId};

/// A small integer taint label (for example "input file 3").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaintLabel(pub u32);

/// Result of propagating taint through a CPG.
#[derive(Clone)]
pub struct TaintReport<'a> {
    /// Labels attached to each tainted page after the execution.
    pub tainted_pages: BTreeMap<PageId, BTreeSet<TaintLabel>>,
    cpg: &'a Cpg,
    /// Every source label, ascending: bit `i` of a row stands for
    /// `labels[i]`.
    labels: Vec<TaintLabel>,
    /// One row of `labels.len().div_ceil(64)` words per vertex, by position.
    rows: Vec<u64>,
    /// Vertices whose row is not empty.
    tainted_subs: usize,
}

impl TaintReport<'_> {
    /// Returns `true` if the page carries any taint at the end of the run.
    pub fn page_is_tainted(&self, page: PageId) -> bool {
        self.tainted_pages.contains_key(&page)
    }

    /// The labels carried by a page, if any.
    pub fn labels_of_page(&self, page: PageId) -> Option<&BTreeSet<TaintLabel>> {
        self.tainted_pages.get(&page)
    }

    /// Number of tainted sub-computations.
    pub fn tainted_sub_count(&self) -> usize {
        self.tainted_subs
    }

    /// The labels a sub-computation carries, ascending (none when it is
    /// untainted or not in the graph).
    pub fn labels_of_sub(&self, id: SubId) -> impl Iterator<Item = TaintLabel> + '_ {
        let words = self.labels.len().div_ceil(64);
        let row = self.cpg.position(id).map_or(&[][..], |p| {
            let p = p as usize;
            &self.rows[p * words..(p + 1) * words]
        });
        set_bits(row).map(|bit| self.labels[bit])
    }
}

impl fmt::Debug for TaintReport<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaintReport")
            .field("tainted_subs", &self.tainted_subs)
            .field("tainted_pages", &self.tainted_pages)
            .finish_non_exhaustive()
    }
}

/// ORs row `from` of the label-bit table into row `into`; `true` if that
/// added a label.
fn merge_row(rows: &mut [u64], words: usize, from: usize, into: usize) -> bool {
    let mut grew = false;
    for w in 0..words {
        let bits = rows[from * words + w];
        let target = &mut rows[into * words + w];
        grew |= bits & !*target != 0;
        *target |= bits;
    }
    grew
}

/// Taint propagation engine.
#[derive(Debug, Default)]
pub struct TaintTracker {
    sources: BTreeMap<PageId, BTreeSet<TaintLabel>>,
    through_control_flow: bool,
}

impl TaintTracker {
    /// Creates a tracker with no taint sources.
    pub fn new() -> Self {
        TaintTracker::default()
    }

    /// Also propagates taint along intra-thread control edges: once a thread
    /// has read tainted data, all of its subsequent sub-computations (and
    /// the pages they write) are considered tainted.
    ///
    /// Page-granularity tracking cannot see values carried across
    /// synchronization points in registers or on the stack, so a *sound*
    /// DIFT policy needs this conservative over-approximation; the default
    /// (pure data-flow) is more precise but can miss such flows.
    pub fn with_control_flow(mut self, enabled: bool) -> Self {
        self.through_control_flow = enabled;
        self
    }

    /// Marks `page` as a taint source carrying `label` (e.g. a page of the
    /// mapped input file).
    pub fn taint_page(&mut self, page: PageId, label: TaintLabel) -> &mut Self {
        self.sources.entry(page).or_default().insert(label);
        self
    }

    /// Marks a contiguous range of pages as carrying `label`.
    pub fn taint_page_range(&mut self, first: PageId, count: u64, label: TaintLabel) -> &mut Self {
        for i in 0..count {
            self.taint_page(PageId::new(first.number() + i), label);
        }
        self
    }

    /// Propagates taint through the graph and returns the full report.
    ///
    /// A sub-computation inherits the labels of every tainted page it reads
    /// and of its tainted predecessors along the followed edges; every page
    /// it writes then carries the union of its labels, and a source page
    /// keeps its own labels whether or not anything touches it. The report
    /// is the least fixed point of those rules. On a DAG one pass in
    /// topological order reaches it; the vertices a cycle (a malformed
    /// graph) holds back are finished by a monotone worklist.
    pub fn propagate<'a>(&self, cpg: &'a Cpg) -> TaintReport<'a> {
        // Interned labels: a label set is a row of `words` 64-bit words, bit
        // i standing for the i-th label in label order. Rows `0..nodes`
        // belong to the vertices by position, the rest to the source pages
        // in page order.
        let labels: Vec<TaintLabel> = self
            .sources
            .values()
            .flatten()
            .copied()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let words = labels.len().div_ceil(64);
        let nodes = cpg.node_count();
        let mut rows = vec![0u64; (nodes + self.sources.len()) * words];
        for (i, page_labels) in self.sources.values().enumerate() {
            for label in page_labels {
                let bit = labels.binary_search(label).expect("interned above");
                rows[(nodes + i) * words + bit / 64] |= 1 << (bit % 64);
            }
        }

        // Seed: the readers of each source page.
        let index = cpg.page_index();
        let mut reached = vec![false; nodes];
        let mut region: Vec<u32> = Vec::new();
        for (i, &page) in self.sources.keys().enumerate() {
            for &p in index.readers_of(page) {
                merge_row(&mut rows, words, nodes + i, p as usize);
                if !std::mem::replace(&mut reached[p as usize], true) {
                    region.push(p);
                }
            }
        }

        // Downstream readers along data edges inherit the labels; with the
        // conservative policy, intra-thread successors do as well. The
        // region the seeds reach is walked in topological order, so a vertex
        // is merged into its successors once, when its own row is final:
        // `waiting[p]` counts p's followed in-edges not merged yet.
        let follows = |kind| match kind {
            EdgeKind::Data => true,
            EdgeKind::Control => self.through_control_flow,
            EdgeKind::Synchronization => false,
        };
        let successors = &cpg.adjacency().successors;
        let followed = |p: u32| {
            successors
                .row(p)
                .iter()
                .filter(move |entry| follows(entry.kind))
                .map(|entry| entry.neighbour)
        };
        let mut waiting = vec![0u32; nodes];
        let mut next_unvisited = 0;
        while let Some(&p) = region.get(next_unvisited) {
            next_unvisited += 1;
            for next in followed(p) {
                waiting[next as usize] += 1;
                if !std::mem::replace(&mut reached[next as usize], true) {
                    region.push(next);
                }
            }
        }
        let mut ready: Vec<u32> = region
            .iter()
            .copied()
            .filter(|&p| waiting[p as usize] == 0)
            .collect();
        while let Some(p) = ready.pop() {
            for next in followed(p) {
                merge_row(&mut rows, words, p as usize, next as usize);
                waiting[next as usize] -= 1;
                if waiting[next as usize] == 0 {
                    ready.push(next);
                }
            }
        }
        // What still waits sits on or behind a cycle (a malformed graph): a
        // monotone worklist finishes those, from any visit order.
        let mut worklist: Vec<u32> = region
            .into_iter()
            .filter(|&p| waiting[p as usize] > 0)
            .collect();
        let mut queued = waiting.iter().map(|&w| w > 0).collect::<Vec<_>>();
        while let Some(p) = worklist.pop() {
            queued[p as usize] = false;
            for next in followed(p) {
                if merge_row(&mut rows, words, p as usize, next as usize)
                    && !std::mem::replace(&mut queued[next as usize], true)
                {
                    worklist.push(next);
                }
            }
        }

        // A page carries its source labels and the union of its writers'.
        let row = |r: usize| &rows[r * words..(r + 1) * words];
        let mut union = vec![0u64; words];
        let mut page_labels = |source: Option<usize>, writers: &[u32]| {
            union.fill(0);
            for r in source
                .into_iter()
                .chain(writers.iter().map(|&p| p as usize))
            {
                union
                    .iter_mut()
                    .zip(row(r))
                    .for_each(|(u, &word)| *u |= word);
            }
            let set: BTreeSet<TaintLabel> = set_bits(&union).map(|bit| labels[bit]).collect();
            (!set.is_empty()).then_some(set)
        };
        let mut tainted_pages = BTreeMap::new();
        for (i, &page) in self.sources.keys().enumerate() {
            if let Some(set) = page_labels(Some(nodes + i), index.writers_of(page)) {
                tainted_pages.insert(page, set);
            }
        }
        for (i, page) in index.pages().iter().enumerate() {
            if self.sources.contains_key(page) {
                continue;
            }
            if let Some(set) = page_labels(None, index.writers(i)) {
                tainted_pages.insert(*page, set);
            }
        }

        let tainted_subs = (0..nodes)
            .filter(|&p| row(p).iter().any(|&word| word != 0))
            .count();
        rows.truncate(nodes * words);
        TaintReport {
            tainted_pages,
            cpg,
            labels,
            rows,
            tainted_subs,
        }
    }

    /// Convenience: propagate and decide whether an output operation reading
    /// from `pages` would leak any tainted data (the DIFT policy check).
    pub fn check_output(&self, cpg: &Cpg, pages: &[PageId]) -> Result<(), TaintViolation> {
        let report = self.propagate(cpg);
        for &p in pages {
            if let Some(labels) = report.labels_of_page(p) {
                return Err(TaintViolation {
                    page: p,
                    labels: labels.clone(),
                });
            }
        }
        Ok(())
    }
}

/// Labels per tainted sub-computation and per tainted page, as the
/// reference propagation reports them.
#[cfg(test)]
pub(crate) type ReferenceReport = (
    BTreeMap<SubId, BTreeSet<TaintLabel>>,
    BTreeMap<PageId, BTreeSet<TaintLabel>>,
);

/// The pre-dense-index propagation, kept over the public API as the
/// reference the dense one is tested against.
#[cfg(test)]
impl TaintTracker {
    pub(crate) fn propagate_reference(&self, cpg: &Cpg) -> ReferenceReport {
        let mut tainted_subs: BTreeMap<SubId, BTreeSet<TaintLabel>> = BTreeMap::new();
        let mut tainted_pages = self.sources.clone();

        let order = match cpg.topological_order_reference() {
            Some(o) => o,
            None => cpg.nodes().map(|n| n.id).collect(),
        };

        // Seed: sub-computations directly reading a source page.
        let mut worklist = std::collections::VecDeque::new();
        for &id in &order {
            let node = cpg.node(id).expect("node from topological order");
            let mut labels = BTreeSet::new();
            for (&page, page_labels) in &self.sources {
                if node.reads(page) {
                    labels.extend(page_labels.iter().copied());
                }
            }
            if !labels.is_empty() {
                tainted_subs.insert(id, labels);
                worklist.push_back(id);
            }
        }

        // Propagate along data edges until fixed point.
        while let Some(id) = worklist.pop_front() {
            let labels = tainted_subs.get(&id).cloned().unwrap_or_default();
            if labels.is_empty() {
                continue;
            }
            // Every page written by a tainted sub-computation becomes tainted.
            if let Some(node) = cpg.node(id) {
                for &page in &node.write_set {
                    let entry = tainted_pages.entry(page).or_default();
                    entry.extend(labels.iter().copied());
                }
            }
            // Downstream readers along data edges inherit the labels; with
            // the conservative policy, intra-thread successors do as well.
            for e in cpg.outgoing(id) {
                let follow = match e.kind {
                    EdgeKind::Data => true,
                    EdgeKind::Control => self.through_control_flow,
                    EdgeKind::Synchronization => false,
                };
                if !follow {
                    continue;
                }
                let entry = tainted_subs.entry(e.dst).or_default();
                let before = entry.len();
                entry.extend(labels.iter().copied());
                if entry.len() != before {
                    worklist.push_back(e.dst);
                }
            }
        }

        (tainted_subs, tainted_pages)
    }
}

/// A DIFT policy violation: an output would expose tainted data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaintViolation {
    /// The output page that carries taint.
    pub page: PageId,
    /// The labels it carries.
    pub labels: BTreeSet<TaintLabel>,
}

impl std::fmt::Display for TaintViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "output page {} carries taint labels {:?}",
            self.page, self.labels
        )
    }
}

impl std::error::Error for TaintViolation {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AccessKind, SyncKind};
    use crate::graph::CpgBuilder;
    use crate::ids::{SyncObjectId, ThreadId};
    use crate::recorder::{SyncObject, ThreadRecorder};

    /// T0 reads input page 100 and writes page 1; T1 (after sync) reads page
    /// 1 and writes page 2; page 3 is written by T1 without reading anything
    /// tainted.
    fn cpg_with_flow() -> Cpg {
        let s = SyncObject::new(SyncObjectId::new(1));

        let mut t0 = ThreadRecorder::new(ThreadId::new(0));
        t0.on_memory_access(PageId::new(100), AccessKind::Read);
        t0.on_memory_access(PageId::new(1), AccessKind::Write);
        t0.on_synchronization(&s, SyncKind::Release);

        let mut t1 = ThreadRecorder::new(ThreadId::new(1));
        t1.on_synchronization(&s, SyncKind::Acquire);
        t1.on_memory_access(PageId::new(1), AccessKind::Read);
        t1.on_memory_access(PageId::new(2), AccessKind::Write);
        t1.on_synchronization(&s, SyncKind::Release);
        t1.on_memory_access(PageId::new(3), AccessKind::Write);

        let mut b = CpgBuilder::new();
        b.add_thread(t0.finish());
        b.add_thread(t1.finish());
        b.build()
    }

    #[test]
    fn taint_flows_across_threads() {
        let cpg = cpg_with_flow();
        let mut tracker = TaintTracker::new();
        tracker.taint_page(PageId::new(100), TaintLabel(1));
        let report = tracker.propagate(&cpg);

        assert!(report.page_is_tainted(PageId::new(100)));
        assert!(report.page_is_tainted(PageId::new(1)));
        assert!(report.page_is_tainted(PageId::new(2)));
        assert!(!report.page_is_tainted(PageId::new(3)));
        assert!(report.tainted_sub_count() >= 2);
    }

    #[test]
    fn untainted_graph_produces_empty_report() {
        let cpg = cpg_with_flow();
        let tracker = TaintTracker::new();
        let report = tracker.propagate(&cpg);
        assert_eq!(report.tainted_sub_count(), 0);
        assert!(report.tainted_pages.is_empty());
    }

    #[test]
    fn policy_check_flags_leaky_output() {
        let cpg = cpg_with_flow();
        let mut tracker = TaintTracker::new();
        tracker.taint_page(PageId::new(100), TaintLabel(7));
        // Writing page 2 to the network would leak.
        let err = tracker
            .check_output(&cpg, &[PageId::new(2)])
            .expect_err("expected taint violation");
        assert_eq!(err.page, PageId::new(2));
        assert!(err.labels.contains(&TaintLabel(7)));
        // Writing page 3 is fine.
        assert!(tracker.check_output(&cpg, &[PageId::new(3)]).is_ok());
    }

    #[test]
    fn control_flow_policy_taints_thread_successors() {
        let cpg = cpg_with_flow();
        let mut tracker = TaintTracker::new().with_control_flow(true);
        tracker.taint_page(PageId::new(100), TaintLabel(1));
        let report = tracker.propagate(&cpg);
        // Page 3 is written by thread 1 *after* it touched tainted data; the
        // conservative policy marks it, the precise (default) one does not.
        assert!(report.page_is_tainted(PageId::new(3)));
    }

    #[test]
    fn taint_range_taints_every_page() {
        let mut tracker = TaintTracker::new();
        tracker.taint_page_range(PageId::new(10), 3, TaintLabel(1));
        assert_eq!(tracker.sources.len(), 3);
        assert!(tracker.sources.contains_key(&PageId::new(12)));
    }

    #[test]
    fn multiple_labels_accumulate() {
        let cpg = cpg_with_flow();
        let mut tracker = TaintTracker::new();
        tracker.taint_page(PageId::new(100), TaintLabel(1));
        tracker.taint_page(PageId::new(100), TaintLabel(2));
        let report = tracker.propagate(&cpg);
        let labels = report.labels_of_page(PageId::new(2)).unwrap();
        assert!(labels.contains(&TaintLabel(1)));
        assert!(labels.contains(&TaintLabel(2)));
    }
}
