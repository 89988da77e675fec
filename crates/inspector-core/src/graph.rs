//! The Concurrent Provenance Graph (CPG) and its builder.
//!
//! The CPG is a directed acyclic graph whose vertices are sub-computations
//! and whose edges are control, synchronization and data-dependence edges
//! (paper §IV-A). It is constructed offline from the per-thread execution
//! sequences produced by [`crate::recorder::ThreadRecorder`].
//!
//! ## Dense positions
//!
//! A built graph is immutable, so its read side is indexed by *position*:
//! the rank of a vertex in id order, which is also its index in the node
//! store. `SubId → position` is one `(thread, first position, len)` range
//! per thread; adjacency is CSR over positions, each row holding
//! `(neighbour position, edge position, kind)` in edge-vector order. An
//! edge with an endpoint that is not a vertex stays in [`Cpg::edges`] but
//! has no row. The whole-graph algorithms (topological order, slices,
//! taint, validation) run on these flat arrays; positions are crate-private
//! and every public signature speaks [`SubId`].
//!
//! ## Page index
//!
//! The page-keyed queries (writers and readers of a page, the page summary,
//! taint seeding and tainted pages) go through a page index: the distinct
//! pages any vertex reads or writes, ascending, and per page CSR rows of its
//! reader positions and its writer positions, each ascending. Positions
//! ascend in `(thread, α)` order, so one thread's accessors of a page are one
//! contiguous run of its row. The index is built on the first page-keyed
//! query, once per graph: sealing and recovery never pay for it, and neither
//! does a traced run that is never queried. On the 97 k-node `reverse_index`
//! Small graph (≈ 242 k page accesses over 286 pages) the build takes
//! 5.5–8 ms on a 2-vCPU guest.
//!
//! ## Batch derivation
//!
//! [`CpgBuilder`] derives the edges from the nodes alone, on every core the
//! host offers: control edges on the calling thread, synchronization edges
//! on one worker, data edges over contiguous reader chunks on the rest, the
//! parts concatenated in the order one sequential pass emits them. The
//! searches for a reader's latest preceding writer (or an acquire's latest
//! preceding release) start from a cursor the previous reader of the same
//! thread left, which is sound because clocks never go backwards along a
//! thread. Sequences that are not recorder output (ids out of order,
//! duplicate or foreign, or a clock that goes backwards) take the
//! sequential derivation the parallel one replaced, on the calling thread;
//! it is also the reference the parallel one is tested against, edge for
//! edge.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Range;
use std::sync::OnceLock;

use parking_lot::Mutex;

use crate::clock::VectorClock;
use crate::event::SyncKind;
use crate::ids::{PageId, SubId, SyncObjectId, ThreadId};
use crate::pool;
use crate::subcomputation::SubComputation;

/// Happens-before between two sub-computations identified by `(id, clock)`
/// pairs — the exact relation [`SubComputation::happens_before`] evaluates,
/// over the `(id, clock)` candidate pairs the data derivations collect.
fn ordered_before(a: SubId, a_clock: &VectorClock, b: SubId, b_clock: &VectorClock) -> bool {
    if a.thread == b.thread {
        a.alpha < b.alpha
    } else {
        a_clock.happens_before(b_clock)
    }
}

/// Last-writer dominance pruning over one page's candidate set.
///
/// `candidates` holds, per writing thread, the latest writer of the page
/// that happens-before the reader. A candidate is superseded when another
/// candidate happens-after it (its update was overwritten before the read),
/// so only the maximal candidates survive, in candidate order. The parallel
/// derivation and the sequential one share it, so they cannot diverge in
/// last-writer semantics.
fn prune_superseded_writers<'c>(
    candidates: &'c [(SubId, &'c VectorClock)],
) -> impl Iterator<Item = SubId> + 'c {
    candidates
        .iter()
        .filter(|(id, clock)| {
            !candidates
                .iter()
                .any(|(other, oc)| other != id && ordered_before(*id, clock, *other, oc))
        })
        .map(|(id, _)| *id)
}

/// The kind of a CPG edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EdgeKind {
    /// Intra-thread program order between consecutive sub-computations.
    Control,
    /// Inter-thread order induced by a release/acquire pair on a
    /// synchronization object.
    Synchronization,
    /// Read-after-write data flow between sub-computations.
    Data,
}

/// A directed edge of the CPG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DependenceEdge {
    /// Source sub-computation (the earlier one in the partial order).
    pub src: SubId,
    /// Destination sub-computation.
    pub dst: SubId,
    /// Edge kind.
    pub kind: EdgeKind,
    /// For synchronization edges, the object that was released/acquired.
    pub object: Option<SyncObjectId>,
    /// For data edges, the pages flowing from `src`'s write set into `dst`'s
    /// read set.
    pub pages: Vec<PageId>,
}

/// Aggregate statistics about a CPG, used by the evaluation harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpgStats {
    /// Number of vertices (sub-computations).
    pub nodes: usize,
    /// Number of threads contributing vertices.
    pub threads: usize,
    /// Control edges.
    pub control_edges: usize,
    /// Synchronization edges.
    pub sync_edges: usize,
    /// Data-dependence edges.
    pub data_edges: usize,
    /// Total branches recorded across all thunk lists.
    pub branches: u64,
    /// Total distinct page reads across all read sets.
    pub pages_read: u64,
    /// Total distinct page writes across all write sets.
    pub pages_written: u64,
}

/// One thread's vertices: a contiguous run of positions, since the node
/// store is sorted by `(thread, α)`.
#[derive(Debug, Clone, Copy)]
struct ThreadRange {
    thread: ThreadId,
    /// Position of the thread's first vertex.
    first: u32,
    len: u32,
}

impl ThreadRange {
    fn positions(&self) -> std::ops::Range<usize> {
        self.first as usize..(self.first + self.len) as usize
    }
}

/// One CSR adjacency entry: an edge seen from one of its endpoints.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Adjacent {
    /// Position of the vertex at the other end.
    pub(crate) neighbour: u32,
    /// Index of the edge in the edge vector.
    edge: u32,
    pub(crate) kind: EdgeKind,
}

/// CSR adjacency over node positions: row `p` is
/// `entries[offsets[p]..offsets[p + 1]]`, in edge-vector order. Two
/// allocations for the whole graph and no hashing — the streaming seal
/// builds this on the run's critical path.
#[derive(Debug, Clone, Default)]
pub(crate) struct AdjacencyIndex {
    /// Row starts, `nodes + 1` long (empty for [`Cpg::default`], which has
    /// no position to ask a row for).
    offsets: Vec<u32>,
    entries: Vec<Adjacent>,
}

impl AdjacencyIndex {
    /// Builds the successor and predecessor indexes over `edges`, whose
    /// endpoints `resolved` holds as positions (`None` for an edge with a
    /// missing endpoint, which gets no row): one counting pass, one
    /// prefix-sum pass, one fill pass — a stable counting sort, so each row
    /// keeps edge-vector order.
    fn build_pair(
        nodes: usize,
        edges: &[DependenceEdge],
        resolved: &[Option<(u32, u32)>],
    ) -> (Self, Self) {
        let mut successors = vec![0u32; nodes + 1];
        let mut predecessors = vec![0u32; nodes + 1];
        for &(src, dst) in resolved.iter().flatten() {
            successors[src as usize + 1] += 1;
            predecessors[dst as usize + 1] += 1;
        }
        for offsets in [&mut successors, &mut predecessors] {
            for p in 0..nodes {
                offsets[p + 1] += offsets[p];
            }
        }
        fn place(cursor: &mut [u32], entries: &mut [Adjacent], row: u32, entry: Adjacent) {
            let slot = &mut cursor[row as usize];
            entries[*slot as usize] = entry;
            *slot += 1;
        }
        let unfilled = Adjacent {
            neighbour: 0,
            edge: 0,
            kind: EdgeKind::Control,
        };
        let mut out = vec![unfilled; successors[nodes] as usize];
        let mut into = out.clone();
        let (mut out_cursor, mut in_cursor) = (successors.clone(), predecessors.clone());
        for (i, (e, ends)) in edges.iter().zip(resolved).enumerate() {
            let Some((src, dst)) = *ends else { continue };
            let (edge, kind) = (i as u32, e.kind);
            let towards = |neighbour| Adjacent {
                neighbour,
                edge,
                kind,
            };
            place(&mut out_cursor, &mut out, src, towards(dst));
            place(&mut in_cursor, &mut into, dst, towards(src));
        }
        (
            AdjacencyIndex {
                offsets: successors,
                entries: out,
            },
            AdjacencyIndex {
                offsets: predecessors,
                entries: into,
            },
        )
    }

    /// The entries of the vertex at `position`.
    pub(crate) fn row(&self, position: u32) -> &[Adjacent] {
        let p = position as usize;
        &self.entries[self.offsets[p] as usize..self.offsets[p + 1] as usize]
    }
}

/// CSR rows of positions: row `i` is `positions[offsets[i]..offsets[i + 1]]`.
#[derive(Debug, Clone, Default)]
struct PositionRows {
    offsets: Vec<u32>,
    positions: Vec<u32>,
}

impl PositionRows {
    /// Counting sort of `(row, position)` accesses by row; accesses arrive
    /// in ascending position order, so each row comes out ascending.
    fn build(rows: usize, accesses: &[(u32, u32)]) -> Self {
        let mut offsets = vec![0u32; rows + 1];
        for &(row, _) in accesses {
            offsets[row as usize + 1] += 1;
        }
        for r in 0..rows {
            offsets[r + 1] += offsets[r];
        }
        let mut cursor = offsets.clone();
        let mut positions = vec![0u32; accesses.len()];
        for &(row, position) in accesses {
            let slot = &mut cursor[row as usize];
            positions[*slot as usize] = position;
            *slot += 1;
        }
        PositionRows { offsets, positions }
    }

    fn row(&self, i: usize) -> &[u32] {
        &self.positions[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// Page → accessor index (see the module docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct PageIndex {
    /// Every page some vertex reads or writes, ascending.
    pages: Vec<PageId>,
    /// Row `i`: the positions of the readers of `pages[i]`, ascending.
    readers: PositionRows,
    /// Row `i`: the positions of the writers of `pages[i]`, ascending.
    writers: PositionRows,
}

impl PageIndex {
    fn build(nodes: &[SubComputation]) -> Self {
        // Pages are interned in first-seen order. A vertex often touches the
        // page its predecessor touched (and reads what it writes), so the
        // last page is checked before the map.
        let mut seen: Vec<PageId> = Vec::new();
        let mut slots: HashMap<PageId, u32> = HashMap::new();
        let mut last: Option<(PageId, u32)> = None;
        let mut intern = |page: PageId| match last {
            Some((known, slot)) if known == page => slot,
            _ => {
                let slot = *slots.entry(page).or_insert_with(|| {
                    seen.push(page);
                    seen.len() as u32 - 1
                });
                last = Some((page, slot));
                slot
            }
        };
        let (mut reads, mut writes) = (Vec::new(), Vec::new());
        for (p, node) in nodes.iter().enumerate() {
            let p = p as u32;
            reads.extend(node.read_set.iter().map(|&page| (intern(page), p)));
            writes.extend(node.write_set.iter().map(|&page| (intern(page), p)));
        }
        // Slot → rank in page order.
        let mut order: Vec<u32> = (0..seen.len() as u32).collect();
        order.sort_unstable_by_key(|&slot| seen[slot as usize]);
        let mut rank = vec![0u32; order.len()];
        for (r, &slot) in order.iter().enumerate() {
            rank[slot as usize] = r as u32;
        }
        for access in reads.iter_mut().chain(writes.iter_mut()) {
            access.0 = rank[access.0 as usize];
        }
        PageIndex {
            pages: order.iter().map(|&slot| seen[slot as usize]).collect(),
            readers: PositionRows::build(order.len(), &reads),
            writers: PositionRows::build(order.len(), &writes),
        }
    }

    /// Every page some vertex reads or writes, ascending.
    pub(crate) fn pages(&self) -> &[PageId] {
        &self.pages
    }

    /// The reader positions of the `i`-th page, ascending.
    pub(crate) fn readers(&self, i: usize) -> &[u32] {
        self.readers.row(i)
    }

    /// The writer positions of the `i`-th page, ascending.
    pub(crate) fn writers(&self, i: usize) -> &[u32] {
        self.writers.row(i)
    }

    /// The reader positions of `page`, ascending (none for a page no vertex
    /// touches).
    pub(crate) fn readers_of(&self, page: PageId) -> &[u32] {
        self.pages
            .binary_search(&page)
            .map_or(&[], |i| self.readers(i))
    }

    /// The writer positions of `page`, ascending.
    pub(crate) fn writers_of(&self, page: PageId) -> &[u32] {
        self.pages
            .binary_search(&page)
            .map_or(&[], |i| self.writers(i))
    }
}

/// Indexes of the set bits of a bitset, ascending.
pub(crate) fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        std::iter::successors((word != 0).then_some(word), |&rest| {
            let rest = rest & (rest - 1);
            (rest != 0).then_some(rest)
        })
        .map(move |rest| w * 64 + rest.trailing_zeros() as usize)
    })
}

/// The Concurrent Provenance Graph.
///
/// The node store is a flat vector sorted by [`SubId`]. The graph is built
/// once and never mutated, so the sorted-vector layout costs nothing over a
/// tree while letting the streaming seal hand its already-merged-in-order
/// nodes over without building one (the tree bulk build was the largest
/// remaining per-node cost on the seal's critical path), and it makes a
/// vertex's index its dense position (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct Cpg {
    /// Vertices, sorted by id and duplicate-free.
    pub(crate) nodes: Vec<SubComputation>,
    pub(crate) edges: Vec<DependenceEdge>,
    /// `ids[p] == nodes[p].id`, packed so lookups and orderings stay off
    /// the (much larger) vertices.
    ids: Vec<SubId>,
    /// Per-thread position ranges, sorted by thread.
    ranges: Vec<ThreadRange>,
    pub(crate) successors: AdjacencyIndex,
    pub(crate) predecessors: AdjacencyIndex,
    /// Built on the first page-keyed query (see the module docs).
    page_index: OnceLock<PageIndex>,
}

impl Cpg {
    /// Assembles a graph from a node map and edge set (hand-built graphs in
    /// the read-side tests).
    #[cfg(test)]
    pub(crate) fn from_parts(
        nodes: BTreeMap<SubId, SubComputation>,
        edges: Vec<DependenceEdge>,
    ) -> Self {
        Self::from_sorted_nodes(nodes.into_values().collect(), edges)
    }

    /// Assembles a graph from nodes already sorted by id (the streaming
    /// seal's k-way merge yields exactly that) and the edge set.
    pub(crate) fn from_sorted_nodes(
        nodes: Vec<SubComputation>,
        edges: Vec<DependenceEdge>,
    ) -> Self {
        debug_assert!(
            nodes.windows(2).all(|w| w[0].id < w[1].id),
            "node store must be sorted by id and duplicate-free"
        );
        assert!(
            u32::try_from(nodes.len()).is_ok() && u32::try_from(edges.len()).is_ok(),
            "positions are 32-bit: {} nodes, {} edges",
            nodes.len(),
            edges.len()
        );
        let ids: Vec<SubId> = nodes.iter().map(|n| n.id).collect();
        let mut ranges: Vec<ThreadRange> = Vec::new();
        for (p, id) in ids.iter().enumerate() {
            match ranges.last_mut() {
                Some(range) if range.thread == id.thread => range.len += 1,
                _ => ranges.push(ThreadRange {
                    thread: id.thread,
                    first: p as u32,
                    len: 1,
                }),
            }
        }
        let mut cpg = Cpg {
            nodes,
            edges,
            ids,
            ranges,
            ..Cpg::default()
        };
        let resolved: Vec<Option<(u32, u32)>> = cpg
            .edges
            .iter()
            .map(|e| Some((cpg.position(e.src)?, cpg.position(e.dst)?)))
            .collect();
        (cpg.successors, cpg.predecessors) =
            AdjacencyIndex::build_pair(cpg.nodes.len(), &cpg.edges, &resolved);
        cpg
    }

    /// The graph of an id-sorted, duplicate-free node store (what
    /// [`CpgBuilder::into_cpg`] concatenates, and what offline recovery
    /// keeps), with the edges derived over it: in parallel when its threads
    /// are recorder output, by the sequential derivation when a clock goes
    /// backwards along a thread.
    pub(crate) fn derived(nodes: Vec<SubComputation>) -> Self {
        let view = NodeView::of_sorted(&nodes);
        if !view.clocks_monotone() {
            drop(view);
            let mut builder = CpgBuilder::new();
            let mut nodes = nodes.into_iter().peekable();
            while let Some(first) = nodes.next() {
                let thread = first.id.thread;
                let mut seq = vec![first];
                seq.extend(std::iter::from_fn(|| {
                    nodes.next_if(|sub| sub.id.thread == thread)
                }));
                builder.add_thread(seq);
            }
            return builder.into_cpg_sequential();
        }
        let edges = derive(&view);
        drop(view);
        Cpg::from_sorted_nodes(nodes, edges)
    }

    /// Number of vertices.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges (all kinds).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    fn thread_range(&self, thread: ThreadId) -> Option<&ThreadRange> {
        self.ranges
            .binary_search_by_key(&thread, |r| r.thread)
            .ok()
            .map(|i| &self.ranges[i])
    }

    /// The dense position of a vertex: its rank in id order.
    pub(crate) fn position(&self, id: SubId) -> Option<u32> {
        let range = self.thread_range(id.thread)?;
        let ids = &self.ids[range.positions()];
        let offset = id.alpha.checked_sub(ids[0].alpha)?;
        // α is strictly increasing along a thread, so the vertex at rank r
        // has α ≥ first α + r: `id` sits at rank `offset` when the thread's
        // α are contiguous (every complete run) and before it otherwise.
        let before = offset.min(ids.len() as u64) as usize;
        let rank = match ids.get(before) {
            Some(at) if at.alpha == id.alpha => before,
            _ => ids[..before]
                .binary_search_by_key(&id.alpha, |i| i.alpha)
                .ok()?,
        };
        Some(range.first + rank as u32)
    }

    /// The id of the vertex at `position`.
    pub(crate) fn id_at(&self, position: u32) -> SubId {
        self.ids[position as usize]
    }

    /// The vertex at `position`.
    pub(crate) fn node_at(&self, position: u32) -> &SubComputation {
        &self.nodes[position as usize]
    }

    /// The page → accessor index, built on first use.
    pub(crate) fn page_index(&self) -> &PageIndex {
        self.page_index
            .get_or_init(|| PageIndex::build(&self.nodes))
    }

    /// Splits an ascending row of positions into one run per thread, in
    /// thread order: O(log) per run, whatever its length.
    pub(crate) fn thread_runs<'r>(
        &'r self,
        mut row: &'r [u32],
    ) -> impl Iterator<Item = (ThreadId, &'r [u32])> + 'r {
        std::iter::from_fn(move || {
            let &first = row.first()?;
            let range = &self.ranges[self.ranges.partition_point(|r| r.first <= first) - 1];
            let end = range.first + range.len;
            let (run, rest) = row.split_at(row.partition_point(|&p| p < end));
            row = rest;
            Some((range.thread, run))
        })
    }

    /// Looks up a vertex.
    pub fn node(&self, id: SubId) -> Option<&SubComputation> {
        self.position(id).map(|p| self.node_at(p))
    }

    /// Iterates over all vertices in `(thread, α)` order.
    pub fn nodes(&self) -> impl Iterator<Item = &SubComputation> {
        self.nodes.iter()
    }

    /// Iterates over all edges.
    pub fn edges(&self) -> impl Iterator<Item = &DependenceEdge> {
        self.edges.iter()
    }

    /// Iterates over the edges of one kind.
    pub fn edges_of_kind(&self, kind: EdgeKind) -> impl Iterator<Item = &DependenceEdge> {
        self.edges.iter().filter(move |e| e.kind == kind)
    }

    fn incident<'a>(
        &'a self,
        index: &'a AdjacencyIndex,
        id: SubId,
    ) -> impl Iterator<Item = &'a DependenceEdge> {
        let row = self.position(id).map_or(&[][..], |p| index.row(p));
        row.iter()
            .map(move |entry| &self.edges[entry.edge as usize])
    }

    /// Outgoing edges of a vertex, in edge-vector order (an edge whose other
    /// endpoint is not a vertex is not listed).
    pub fn outgoing(&self, id: SubId) -> impl Iterator<Item = &DependenceEdge> {
        self.incident(&self.successors, id)
    }

    /// Incoming edges of a vertex, under the same rules as
    /// [`outgoing`](Self::outgoing).
    pub fn incoming(&self, id: SubId) -> impl Iterator<Item = &DependenceEdge> {
        self.incident(&self.predecessors, id)
    }

    /// Returns `true` if `a` happens-before `b` according to the recorded
    /// vector clocks (falling back to program order within a thread).
    pub fn happens_before(&self, a: SubId, b: SubId) -> bool {
        match (self.node(a), self.node(b)) {
            (Some(x), Some(y)) => x.happens_before(y),
            _ => false,
        }
    }

    /// All threads that contributed at least one vertex.
    pub fn threads(&self) -> BTreeSet<ThreadId> {
        self.ranges.iter().map(|r| r.thread).collect()
    }

    /// The execution sequence `L_t` of one thread.
    pub fn thread_sequence(&self, thread: ThreadId) -> Vec<SubId> {
        self.thread_range(thread)
            .map_or_else(Vec::new, |r| self.ids[r.positions()].to_vec())
    }

    /// Aggregate statistics for the graph.
    pub fn stats(&self) -> CpgStats {
        let mut stats = CpgStats {
            nodes: self.nodes.len(),
            threads: self.ranges.len(),
            ..CpgStats::default()
        };
        for e in &self.edges {
            match e.kind {
                EdgeKind::Control => stats.control_edges += 1,
                EdgeKind::Synchronization => stats.sync_edges += 1,
                EdgeKind::Data => stats.data_edges += 1,
            }
        }
        for n in &self.nodes {
            stats.branches += n.thunks.branches() as u64;
            stats.pages_read += n.read_set.len() as u64;
            stats.pages_written += n.write_set.len() as u64;
        }
        stats
    }

    /// Returns a topological ordering of the vertices, or `None` if the graph
    /// contains a cycle (which would indicate a recording bug — the CPG must
    /// be a DAG).
    pub fn topological_order(&self) -> Option<Vec<SubId>> {
        // Every edge between two vertices has one successor entry; an edge
        // without one dangles, and no order can honour it.
        if self.successors.entries.len() != self.edges.len() {
            return None;
        }
        // FIFO Kahn; `order` doubles as the queue (`head` is its front).
        let nodes = self.nodes.len();
        let mut indegree: Vec<u32> = (0..nodes as u32)
            .map(|p| self.predecessors.row(p).len() as u32)
            .collect();
        let mut order: Vec<u32> = Vec::with_capacity(nodes);
        order.extend((0..nodes as u32).filter(|&p| indegree[p as usize] == 0));
        let mut head = 0;
        while let Some(&p) = order.get(head) {
            head += 1;
            for entry in self.successors.row(p) {
                let d = &mut indegree[entry.neighbour as usize];
                *d -= 1;
                if *d == 0 {
                    order.push(entry.neighbour);
                }
            }
        }
        (order.len() == nodes).then(|| order.into_iter().map(|p| self.id_at(p)).collect())
    }

    /// Checks structural invariants: the graph is a DAG, every edge endpoint
    /// exists, and every edge respects the happens-before order.
    pub fn validate(&self) -> Result<(), CpgValidationError> {
        for e in &self.edges {
            let (Some(src), Some(dst)) = (self.position(e.src), self.position(e.dst)) else {
                return Err(CpgValidationError::DanglingEdge {
                    src: e.src,
                    dst: e.dst,
                });
            };
            if !self.node_at(src).happens_before(self.node_at(dst)) {
                return Err(CpgValidationError::EdgeAgainstOrder {
                    src: e.src,
                    dst: e.dst,
                });
            }
        }
        if self.topological_order().is_none() {
            return Err(CpgValidationError::Cycle);
        }
        Ok(())
    }
}

/// The pre-dense-index implementation, kept verbatim over the public API
/// as the reference the dense one is tested against.
#[cfg(test)]
impl Cpg {
    pub(crate) fn topological_order_reference(&self) -> Option<Vec<SubId>> {
        let mut indegree: BTreeMap<SubId, usize> = self.nodes.iter().map(|n| (n.id, 0)).collect();
        for e in &self.edges {
            *indegree.get_mut(&e.dst)? += 1;
        }
        let mut queue: std::collections::VecDeque<SubId> = indegree
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&id, _)| id)
            .collect();
        let mut order = Vec::with_capacity(self.nodes.len());
        while let Some(id) = queue.pop_front() {
            order.push(id);
            for e in self.outgoing(id) {
                let d = indegree.get_mut(&e.dst).expect("edge to unknown node");
                *d -= 1;
                if *d == 0 {
                    queue.push_back(e.dst);
                }
            }
        }
        if order.len() == self.nodes.len() {
            Some(order)
        } else {
            None
        }
    }
}

/// Violation of a CPG structural invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CpgValidationError {
    /// An edge references a vertex that does not exist.
    DanglingEdge {
        /// Edge source.
        src: SubId,
        /// Edge destination.
        dst: SubId,
    },
    /// An edge does not respect the happens-before partial order.
    EdgeAgainstOrder {
        /// Edge source.
        src: SubId,
        /// Edge destination.
        dst: SubId,
    },
    /// The graph contains a cycle.
    Cycle,
}

impl std::fmt::Display for CpgValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CpgValidationError::DanglingEdge { src, dst } => {
                write!(f, "edge {src} -> {dst} references a missing vertex")
            }
            CpgValidationError::EdgeAgainstOrder { src, dst } => {
                write!(f, "edge {src} -> {dst} contradicts happens-before order")
            }
            CpgValidationError::Cycle => write!(f, "provenance graph contains a cycle"),
        }
    }
}

impl std::error::Error for CpgValidationError {}

/// Builds a [`Cpg`] from per-thread execution sequences.
#[derive(Debug, Default)]
pub struct CpgBuilder {
    sequences: BTreeMap<ThreadId, Vec<SubComputation>>,
}

/// Nodes below which one worker gets the whole batch derivation: under a
/// few thousand nodes, spawning costs more than the split saves.
const MIN_NODES_PER_WORKER: usize = 1 << 12;

/// Data-edge chunks per worker, so readers of uneven cost still balance.
const CHUNKS_PER_WORKER: usize = 4;

impl CpgBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        CpgBuilder::default()
    }

    /// Adds the execution sequence `L_t` of one thread (the output of
    /// [`crate::recorder::ThreadRecorder::finish`]).
    pub fn add_thread(&mut self, sequence: Vec<SubComputation>) -> &mut Self {
        if let Some(first) = sequence.first() {
            self.sequences.insert(first.id.thread, sequence);
        }
        self
    }

    /// Builds the graph: derives control, synchronization and data edges.
    ///
    /// This is the reference *batch* path: it clones every sub-computation
    /// and hands the copy to [`into_cpg`](Self::into_cpg), so the builder
    /// stays usable. The streaming [`crate::sharded::ShardedCpgBuilder`]
    /// ends in the same derivation over the nodes it stored, without the
    /// clone; this builder is kept as the equivalence oracle and for
    /// offline reconstruction from stored sequences.
    pub fn build(&self) -> Cpg {
        CpgBuilder {
            sequences: self.sequences.clone(),
        }
        .into_cpg()
    }

    /// Builds the graph out of the builder's own sequences: the
    /// sub-computations *move* into the node store, then the edges are
    /// derived over it. Offline recovery derives its graph the same way,
    /// over the node store it decoded.
    ///
    /// The derivation uses every core the host offers (none for small
    /// graphs): the calling thread derives the control edges, one worker
    /// the synchronization edges, and the others split the readers into
    /// contiguous chunks and derive their data edges. The parts are
    /// concatenated in the order a single pass emits them — control edges,
    /// then synchronization edges, then data edges reader by reader — so
    /// the graph is the same, edge for edge, on any number of cores. The
    /// writer index and every scratch buffer are gone before the adjacency
    /// index is built.
    ///
    /// Sequences that are not recorder output — ids out of α order,
    /// duplicate or foreign, or a clock that goes backwards along a thread
    /// — take the sequential derivation instead, which gives the nodes the
    /// id order a map would impose (the later of two equal ids winning).
    pub fn into_cpg(self) -> Cpg {
        if !self.ids_in_order() {
            return self.into_cpg_sequential();
        }
        Cpg::derived(concat(self.sequences))
    }

    /// The sequential derivation on the calling thread, for any sequences:
    /// the edges are derived from the per-thread slices, then the
    /// sub-computations *move* into the graph. [`into_cpg`](Self::into_cpg)
    /// and [`Cpg::derived`] take it for malformed sequences, and the
    /// parallel derivation is tested against it, edge for edge.
    fn into_cpg_sequential(self) -> Cpg {
        let mut edges = Vec::new();
        Self::derive_control_edges(&self.sequences, &mut edges);
        Self::derive_sync_edges(&self.sequences, &mut edges);

        let mut nodes = concat(self.sequences);
        // Recorder output is one ascending α-run per thread; anything else
        // gets the id order a map would have imposed, the later of two
        // equal ids winning.
        if !nodes.windows(2).all(|w| w[0].id < w[1].id) {
            nodes.sort_by_key(|sub| sub.id);
            nodes.dedup_by(|later, kept| {
                let same = later.id == kept.id;
                if same {
                    std::mem::swap(later, kept);
                }
                same
            });
        }
        Self::derive_data_edges(&nodes, &mut edges);
        Cpg::from_sorted_nodes(nodes, edges)
    }

    /// Every sequence holds one thread's nodes only, strictly ascending in
    /// α — what a recorder produces. Such sequences concatenate into the
    /// id-sorted node store as they are.
    fn ids_in_order(&self) -> bool {
        self.sequences.iter().all(|(&thread, seq)| {
            seq.iter().all(|sub| sub.id.thread == thread)
                && seq.windows(2).all(|w| w[0].id.alpha < w[1].id.alpha)
        })
    }
}

/// An id-sorted node store with one run per thread.
struct NodeView<'a> {
    nodes: &'a [SubComputation],
    /// Position ranges of the runs, in order.
    threads: Vec<Range<usize>>,
}

impl<'a> NodeView<'a> {
    /// One run per thread of an id-sorted node store.
    fn of_sorted(nodes: &'a [SubComputation]) -> Self {
        let mut threads: Vec<Range<usize>> = Vec::new();
        for (p, pair) in nodes.windows(2).enumerate() {
            if pair[0].id.thread != pair[1].id.thread {
                let start = threads.last().map_or(0, |run| run.end);
                threads.push(start..p + 1);
            }
        }
        if !nodes.is_empty() {
            let start = threads.last().map_or(0, |run| run.end);
            threads.push(start..nodes.len());
        }
        NodeView { nodes, threads }
    }

    fn sequences(&self) -> impl Iterator<Item = &'a [SubComputation]> + '_ {
        self.threads.iter().map(|run| &self.nodes[run.clone()])
    }

    /// No run's clock ever goes backwards, so happens-before against any
    /// fixed node is monotone along each run from any starting point — what
    /// the derivation's cursors rely on. Recorder output always qualifies.
    fn clocks_monotone(&self) -> bool {
        self.sequences().all(|seq| {
            seq.windows(2).all(|w| {
                matches!(
                    w[0].clock.partial_cmp_hb(&w[1].clock),
                    Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
                )
            })
        })
    }
}

/// How many of `run` — one thread's nodes in execution order — happen
/// before `target`, when the first `from` of them are already known to: a
/// cursor left by an earlier target that `target` succeeds on its own
/// thread.
///
/// Happens-before is monotone along a thread's execution sequence (if
/// `L_t[α]` happens-before `x` then so does every earlier sub-computation
/// of `t`), so the predecessors form a prefix, and the node before its end
/// is the latest preceding one (the prefix
/// [`CpgBuilder::latest_preceding`] binary-searches). Gallops forward from
/// the cursor, then binary-searches the last step, so a target that moved
/// the prefix by `d` costs `O(log d)` tests, nearly all of them on nodes
/// next to the cursor. Needs a run whose clocks never go backwards.
fn preceding_from<'n, T>(
    run: &[T],
    from: usize,
    node: impl Fn(&T) -> &'n SubComputation,
    target: &SubComputation,
) -> usize {
    let precedes = |entry: &T| node(entry).happens_before(target);
    let (mut known, mut step) = (from, 1);
    loop {
        let probe = known + step - 1;
        let Some(entry) = run.get(probe) else {
            return known + run[known..].partition_point(precedes);
        };
        if !precedes(entry) {
            return known + run[known..probe].partition_point(precedes);
        }
        known = probe + 1;
        step *= 2;
    }
}

/// Derives every edge of `view`, whose runs are recorder-output threads in
/// id order — control, then synchronization, then data edges reader by
/// reader.
///
/// The calling thread derives the control edges into the edge vector the
/// graph keeps, while up to [`pool::workers`] workers derive the
/// synchronization edges (unit 0) and split the readers into contiguous
/// chunks (the other units); their parts are appended in unit order.
fn derive(view: &NodeView<'_>) -> Vec<DependenceEdge> {
    let workers = pool::workers(view.nodes.len(), MIN_NODES_PER_WORKER);
    let chunks = if workers > 1 {
        workers * CHUNKS_PER_WORKER
    } else {
        1
    };
    let chunks = reader_chunks(view.nodes, chunks);
    // Every unit's output vector is made here, on the calling thread, so it
    // stays in this thread's allocator arena however a worker grows it (a
    // worker's own allocations go to an arena this thread never reuses).
    let outputs: Vec<Mutex<Vec<DependenceEdge>>> = (0..=chunks.len())
        .map(|_| Mutex::new(Vec::with_capacity(1)))
        .collect();
    // Built by the first data unit, while the synchronization unit runs.
    let writers = OnceLock::new();
    pool::fan_out(
        outputs.len(),
        workers,
        DataScratch::default,
        |scratch, unit| {
            let mut out = std::mem::take(&mut *outputs[unit].lock());
            match unit.checked_sub(1) {
                None => sync_edges(view, &mut out),
                Some(chunk) => {
                    let writers = writers.get_or_init(|| WriterIndex::build(view));
                    data_edges(view, writers, chunks[chunk].clone(), scratch, &mut out);
                }
            }
            out
        },
        |parts| {
            // Room for one synchronization or data edge per node beside the
            // control edges, which most graphs stay under: the parts are
            // appended without moving what is already there.
            let mut edges = Vec::with_capacity(2 * view.nodes.len());
            control_edges(view, &mut edges);
            for mut part in parts {
                edges.append(&mut part);
            }
            edges
        },
    )
}

/// The sequences concatenated, in order, into one node store.
fn concat(sequences: BTreeMap<ThreadId, Vec<SubComputation>>) -> Vec<SubComputation> {
    let total = sequences.values().map(Vec::len).sum();
    let mut nodes: Vec<SubComputation> = Vec::with_capacity(total);
    for seq in sequences.into_values() {
        nodes.extend(seq);
    }
    nodes
}

/// Contiguous reader ranges of about equal read-set weight, at most
/// `chunks` of them, covering every position.
fn reader_chunks(nodes: &[SubComputation], chunks: usize) -> Vec<Range<usize>> {
    let weight = |sub: &SubComputation| sub.read_set.len() + 1;
    let total: usize = nodes.iter().map(weight).sum();
    let per_chunk = total.div_ceil(chunks.max(1)).max(1);
    let mut out = Vec::with_capacity(chunks);
    let (mut start, mut filled) = (0, 0);
    for (p, sub) in nodes.iter().enumerate() {
        filled += weight(sub);
        if filled >= per_chunk {
            out.push(start..p + 1);
            (start, filled) = (p + 1, 0);
        }
    }
    if start < nodes.len() || out.is_empty() {
        out.push(start..nodes.len());
    }
    out
}

/// Appends the control edges: consecutive nodes of each run, in run
/// order.
fn control_edges(view: &NodeView<'_>, edges: &mut Vec<DependenceEdge>) {
    for seq in view.sequences() {
        edges.extend(seq.windows(2).map(|pair| DependenceEdge {
            src: pair[0].id,
            dst: pair[1].id,
            kind: EdgeKind::Control,
            object: None,
            pages: Vec::new(),
        }));
    }
}

/// Appends the synchronization edges of the view's runs, acquire by
/// acquire in run order.
///
/// A synchronization edge goes from `a` to `b` when `a` ended with a
/// release of object `S`, `b` started right after an acquire of `S` on
/// another thread, and `a` happens-before `b`. For every acquiring
/// sub-computation only the *latest* preceding release per releasing thread
/// is considered (earlier releases are transitively implied), and dominated
/// candidates are dropped so the edge set stays close to a transitive
/// reduction.
///
/// Each releasing thread's latest preceding release is found from a
/// cursor that only moves forward along the acquiring thread
/// ([`preceding_from`]): its clock never goes backwards, so neither does
/// the prefix of releases that precede it.
fn sync_edges(view: &NodeView<'_>, edges: &mut Vec<DependenceEdge>) {
    // Releases grouped by object, then releasing thread, each group in run
    // order: a stable sort of the releases as the runs list them.
    let mut releases: Vec<(SyncObjectId, &SubComputation)> = view
        .nodes
        .iter()
        .filter_map(|sub| {
            let sp = sub.terminator?;
            matches!(sp.kind, SyncKind::Release | SyncKind::ReleaseAcquire)
                .then_some((sp.object, sub))
        })
        .collect();
    releases.sort_by_key(|&(object, sub)| (object, sub.id.thread));
    // `groups[g]` is one (object, thread) group of `releases`; `objects`
    // maps each object to its groups, in thread order.
    let mut groups: Vec<Range<usize>> = Vec::new();
    let mut objects: Vec<(SyncObjectId, Range<usize>)> = Vec::new();
    for (i, &(object, sub)) in releases.iter().enumerate() {
        let (last_object, last) = releases[i.saturating_sub(1)];
        if i > 0 && last_object == object && last.id.thread == sub.id.thread {
            if let Some(group) = groups.last_mut() {
                group.end = i + 1;
            }
            continue;
        }
        match objects.last_mut() {
            Some((known, range)) if *known == object => range.end = groups.len() + 1,
            _ => objects.push((object, groups.len()..groups.len() + 1)),
        }
        groups.push(i..i + 1);
    }

    // Per group: the run whose acquires last moved its cursor, and the
    // cursor (how many of the group's releases precede that run's latest
    // acquire).
    let mut cursors: Vec<(usize, usize)> = vec![(usize::MAX, 0); groups.len()];
    let mut candidates: Vec<&SubComputation> = Vec::new();
    for (run, seq) in view.sequences().enumerate() {
        for pair in seq.windows(2) {
            let (prev, next) = (&pair[0], &pair[1]);
            let Some(sp) = prev.terminator else { continue };
            if !matches!(sp.kind, SyncKind::Acquire | SyncKind::ReleaseAcquire) {
                continue;
            }
            let Ok(o) = objects.binary_search_by_key(&sp.object, |(object, _)| *object) else {
                continue;
            };
            candidates.clear();
            for g in objects[o].1.clone() {
                let group = &releases[groups[g].clone()];
                if group[0].1.id.thread == next.id.thread {
                    continue;
                }
                let (owner, cursor) = &mut cursors[g];
                if *owner != run {
                    (*owner, *cursor) = (run, 0);
                }
                *cursor = preceding_from(group, *cursor, |r| r.1, next);
                let before = *cursor;
                if before > 0 {
                    candidates.push(group[before - 1].1);
                }
            }
            for r in &candidates {
                let dominated = candidates
                    .iter()
                    .any(|other| other.id != r.id && r.happens_before(other));
                if !dominated {
                    edges.push(DependenceEdge {
                        src: r.id,
                        dst: next.id,
                        kind: EdgeKind::Synchronization,
                        object: Some(sp.object),
                        pages: Vec::new(),
                    });
                }
            }
        }
    }
}

/// One multiply per page number (FxHash's step): the writer index is
/// built once per page write and probed once per page read, on the
/// derivation's critical path, where SipHash's cost shows.
#[derive(Default)]
struct PageHasher(u64);

impl std::hash::Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

/// Page → writer index of the batch derivation: per written page, the
/// positions of its writers, ascending, cut into one run per thread.
struct WriterIndex {
    slots: HashMap<PageId, u32, std::hash::BuildHasherDefault<PageHasher>>,
    writers: PositionRows,
    /// Page `i`'s runs end at `run_ends[run_rows[i]..run_rows[i + 1]]`,
    /// offsets into its writer row. A run's index in `run_ends` names it.
    run_rows: Vec<u32>,
    run_ends: Vec<u32>,
}

impl WriterIndex {
    fn build(view: &NodeView<'_>) -> Self {
        let mut slots: HashMap<PageId, u32, _> = HashMap::default();
        // A writer often writes the page its predecessor wrote.
        let mut last: Option<(PageId, u32)> = None;
        let mut writes: Vec<(u32, u32)> = Vec::new();
        for (p, sub) in view.nodes.iter().enumerate() {
            for &page in &sub.write_set {
                let slot = match last {
                    Some((known, slot)) if known == page => slot,
                    _ => {
                        let fresh = slots.len() as u32;
                        let slot = *slots.entry(page).or_insert(fresh);
                        last = Some((page, slot));
                        slot
                    }
                };
                writes.push((slot, p as u32));
            }
        }
        let writers = PositionRows::build(slots.len(), &writes);
        drop(writes);
        // Which run of the view a position is in, without touching the
        // (much larger) node it names.
        let run_of = |p: u32| view.threads.partition_point(|run| run.end <= p as usize);
        let mut run_rows = Vec::with_capacity(slots.len() + 1);
        let mut run_ends = Vec::new();
        run_rows.push(0);
        for i in 0..slots.len() {
            let row = writers.row(i);
            let mut runs = row.iter().map(|&p| run_of(p));
            let mut current = runs.next();
            for (k, run) in runs.enumerate() {
                if Some(run) != current {
                    run_ends.push(k as u32 + 1);
                    current = Some(run);
                }
            }
            run_ends.push(row.len() as u32);
            run_rows.push(run_ends.len() as u32);
        }
        WriterIndex {
            slots,
            writers,
            run_rows,
            run_ends,
        }
    }

    /// Every run of the index.
    fn runs_total(&self) -> usize {
        self.run_ends.len()
    }

    /// The writers of `page` as `(run, positions)`, one run per thread in
    /// thread order, each in execution order (none for a page nobody
    /// writes).
    fn runs(&self, page: PageId) -> impl Iterator<Item = (usize, &[u32])> + '_ {
        let (row, first, ends) = match self.slots.get(&page) {
            Some(&slot) => {
                let slot = slot as usize;
                let first = self.run_rows[slot] as usize;
                let ends = &self.run_ends[first..self.run_rows[slot + 1] as usize];
                (self.writers.row(slot), first, ends)
            }
            None => (&[][..], 0, &[][..]),
        };
        let mut start = 0;
        ends.iter().enumerate().map(move |(k, &end)| {
            let run = &row[start..end as usize];
            start = end as usize;
            (first + k, run)
        })
    }
}

/// A data worker's buffers, reused for every reader it resolves.
#[derive(Default)]
struct DataScratch<'a> {
    /// One page's candidate writers.
    candidates: Vec<(SubId, &'a VectorClock)>,
    /// `(writer, page)` for every page the reader takes from a writer.
    flows: Vec<(SubId, PageId)>,
    /// Per writer run: the reader thread that last moved its cursor (as
    /// `epoch`), and the cursor.
    cursors: Vec<(u64, usize)>,
    /// Names the reader thread being resolved; bumped for every new one.
    epoch: u64,
}

/// Data edges into the readers at positions `readers` of `view`, reader by
/// reader, writers of one reader in id order.
///
/// A data edge goes from writer `w` to reader `r` when `w` happens-before
/// `r`, `w`'s write set intersects `r`'s read set, and no intervening
/// writer of the same page sits between them (update-use relation). Per
/// page the latest preceding writer of each thread is a candidate and
/// superseded candidates are dropped (the shared
/// [`prune_superseded_writers`] kernel, which the sequential derivation
/// runs too). The latest preceding writer is searched from a per-run cursor
/// that a reader's successors on its thread only move forward
/// ([`preceding_from`]). Nothing is allocated per reader beyond the edges'
/// page lists.
fn data_edges<'a>(
    view: &NodeView<'a>,
    writers: &WriterIndex,
    readers: Range<usize>,
    scratch: &mut DataScratch<'a>,
    edges: &mut Vec<DependenceEdge>,
) {
    let nodes = view.nodes;
    scratch.cursors.resize(writers.runs_total(), (0, 0));
    let mut thread = None;
    for reader in &nodes[readers] {
        if thread != Some(reader.id.thread) {
            thread = Some(reader.id.thread);
            scratch.epoch += 1;
        }
        scratch.flows.clear();
        for &page in &reader.read_set {
            scratch.candidates.clear();
            for (r, run) in writers.runs(page) {
                let node = |&p: &u32| &nodes[p as usize];
                let (owner, cursor) = &mut scratch.cursors[r];
                if *owner != scratch.epoch {
                    (*owner, *cursor) = (scratch.epoch, 0);
                }
                *cursor = preceding_from(run, *cursor, node, reader);
                let before = *cursor;
                if before > 0 {
                    let w = &nodes[run[before - 1] as usize];
                    if w.id != reader.id {
                        scratch.candidates.push((w.id, &w.clock));
                    }
                }
            }
            for w in prune_superseded_writers(&scratch.candidates) {
                scratch.flows.push((w, page));
            }
        }
        // Each page is visited once per reader, so the pairs are distinct.
        scratch.flows.sort_unstable();
        for flow in scratch.flows.chunk_by(|a, b| a.0 == b.0) {
            edges.push(DependenceEdge {
                src: flow[0].0,
                dst: reader.id,
                kind: EdgeKind::Data,
                object: None,
                pages: flow.iter().map(|&(_, page)| page).collect(),
            });
        }
    }
}

// The kernels of the sequential derivation, `CpgBuilder::into_cpg_sequential`.
impl CpgBuilder {
    fn derive_control_edges(
        sequences: &BTreeMap<ThreadId, Vec<SubComputation>>,
        edges: &mut Vec<DependenceEdge>,
    ) {
        for seq in sequences.values() {
            for pair in seq.windows(2) {
                edges.push(DependenceEdge {
                    src: pair[0].id,
                    dst: pair[1].id,
                    kind: EdgeKind::Control,
                    object: None,
                    pages: Vec::new(),
                });
            }
        }
    }

    /// For a list of same-thread sub-computations sorted by execution order,
    /// returns the latest one that happens-before `target`, if any.
    ///
    /// Happens-before is monotone along a thread's execution sequence
    /// (if `L_t[α]` happens-before `x` then so does every earlier
    /// sub-computation of `t`), so the predecessors form a prefix and a
    /// binary search suffices.
    fn latest_preceding<'a>(
        sorted: &[&'a SubComputation],
        target: &SubComputation,
    ) -> Option<&'a SubComputation> {
        let prefix = sorted.partition_point(|s| s.happens_before(target));
        if prefix == 0 {
            None
        } else {
            Some(sorted[prefix - 1])
        }
    }

    /// Synchronization edge from `a` to `b` when `a` ended with a release of
    /// object `S`, `b` started right after an acquire of `S` on another
    /// thread, and `a` happens-before `b`.
    ///
    /// For every acquiring sub-computation only the *latest* preceding
    /// release per releasing thread is considered (earlier releases are
    /// transitively implied), and dominated candidates are dropped so the
    /// edge set stays close to a transitive reduction.
    fn derive_sync_edges(
        sequences: &BTreeMap<ThreadId, Vec<SubComputation>>,
        edges: &mut Vec<DependenceEdge>,
    ) {
        // Index releases by object, grouped by thread, in execution order.
        type ByThread<'a> = BTreeMap<ThreadId, Vec<&'a SubComputation>>;
        let mut releases: HashMap<SyncObjectId, ByThread<'_>> = HashMap::new();
        for seq in sequences.values() {
            for sub in seq {
                if let Some(sp) = sub.terminator {
                    if matches!(sp.kind, SyncKind::Release | SyncKind::ReleaseAcquire) {
                        releases
                            .entry(sp.object)
                            .or_default()
                            .entry(sub.id.thread)
                            .or_default()
                            .push(sub);
                    }
                }
            }
        }
        for seq in sequences.values() {
            for pair in seq.windows(2) {
                let (prev, next) = (&pair[0], &pair[1]);
                let Some(sp) = prev.terminator else { continue };
                if !matches!(sp.kind, SyncKind::Acquire | SyncKind::ReleaseAcquire) {
                    continue;
                }
                let Some(by_thread) = releases.get(&sp.object) else {
                    continue;
                };
                let candidates: Vec<&SubComputation> = by_thread
                    .iter()
                    .filter(|(&t, _)| t != next.id.thread)
                    .filter_map(|(_, subs)| Self::latest_preceding(subs, next))
                    .collect();
                for r in &candidates {
                    let dominated = candidates
                        .iter()
                        .any(|other| other.id != r.id && r.happens_before(other));
                    if !dominated {
                        edges.push(DependenceEdge {
                            src: r.id,
                            dst: next.id,
                            kind: EdgeKind::Synchronization,
                            object: Some(sp.object),
                            pages: Vec::new(),
                        });
                    }
                }
            }
        }
    }

    /// Data edge from writer `w` to reader `r` when `w` happens-before `r`,
    /// `w`'s write set intersects `r`'s read set, and no intervening writer
    /// of the same page sits between them (update-use relation).
    ///
    /// Writers of a page are grouped per thread; for each reader only the
    /// latest preceding writer of each thread is a candidate, and dominated
    /// candidates are discarded (last-writer semantics, the
    /// [`prune_superseded_writers`] kernel the parallel derivation shares).
    /// The page list is part of an edge's identity; pages are visited in
    /// read-set order, so each list comes out ascending.
    fn derive_data_edges(nodes: &[SubComputation], edges: &mut Vec<DependenceEdge>) {
        // Index writers by page and thread; `nodes` is in (thread, α)
        // order, so per-thread lists are already sorted.
        type ByThread<'a> = BTreeMap<ThreadId, Vec<&'a SubComputation>>;
        let mut writers: HashMap<PageId, ByThread<'_>> = HashMap::new();
        for sub in nodes {
            for &page in &sub.write_set {
                writers
                    .entry(page)
                    .or_default()
                    .entry(sub.id.thread)
                    .or_default()
                    .push(sub);
            }
        }
        for reader in nodes {
            let mut per_writer_pages: BTreeMap<SubId, Vec<PageId>> = BTreeMap::new();
            for &page in &reader.read_set {
                let Some(by_thread) = writers.get(&page) else {
                    continue;
                };
                let candidates: Vec<(SubId, &VectorClock)> = by_thread
                    .values()
                    .filter_map(|subs| Self::latest_preceding(subs, reader))
                    .filter(|w| w.id != reader.id)
                    .map(|w| (w.id, &w.clock))
                    .collect();
                for w in prune_superseded_writers(&candidates) {
                    per_writer_pages.entry(w).or_default().push(page);
                }
            }
            for (writer, pages) in per_writer_pages {
                edges.push(DependenceEdge {
                    src: writer,
                    dst: reader.id,
                    kind: EdgeKind::Data,
                    object: None,
                    pages,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AccessKind, SyncKind};
    use crate::ids::{PageId, SyncObjectId, ThreadId};
    use crate::recorder::{SyncClockRegistry, ThreadRecorder};
    use std::sync::Arc;

    /// Builds the CPG for the paper's running example (Figure 1): two threads
    /// updating `x` and `y` under a lock.
    fn example_cpg() -> Cpg {
        let reg = SyncClockRegistry::shared();
        let lock = SyncObjectId::new(1);
        let page_x = PageId::new(10);
        let page_y = PageId::new(11);

        // Thread 1: T1.a { read y, write x,y } unlock; ... lock; T1.b { y = y/2 }
        let mut t1 = ThreadRecorder::new(ThreadId::new(0), Arc::clone(&reg));
        // T1.a executes while holding the lock (acquire happened before the
        // recorded region; we model the initial acquire as sub 0 boundary).
        t1.on_synchronization(lock, SyncKind::Acquire);
        t1.on_memory_access(page_y, AccessKind::Read);
        t1.on_memory_access(page_x, AccessKind::Write);
        t1.on_memory_access(page_y, AccessKind::Write);
        t1.on_synchronization(lock, SyncKind::Release);

        // Thread 2: lock; T2.a { y = 2*x } unlock
        let mut t2 = ThreadRecorder::new(ThreadId::new(1), Arc::clone(&reg));
        t2.on_synchronization(lock, SyncKind::Acquire);
        t2.on_memory_access(page_x, AccessKind::Read);
        t2.on_memory_access(page_y, AccessKind::Write);
        t2.on_synchronization(lock, SyncKind::Release);

        // Thread 1 again: lock; T1.b { y = y/2 } unlock
        t1.on_synchronization(lock, SyncKind::Acquire);
        t1.on_memory_access(page_y, AccessKind::Read);
        t1.on_memory_access(page_y, AccessKind::Write);
        t1.on_synchronization(lock, SyncKind::Release);

        let mut b = CpgBuilder::new();
        b.add_thread(t1.finish());
        b.add_thread(t2.finish());
        b.build()
    }

    #[test]
    fn example_graph_is_valid_dag() {
        let cpg = example_cpg();
        assert!(cpg.validate().is_ok());
        assert!(cpg.topological_order().is_some());
        assert!(cpg.node_count() >= 5);
    }

    #[test]
    fn example_graph_has_all_edge_kinds() {
        let cpg = example_cpg();
        let stats = cpg.stats();
        assert!(stats.control_edges > 0, "control edges missing");
        assert!(stats.sync_edges > 0, "sync edges missing");
        assert!(stats.data_edges > 0, "data edges missing");
        assert_eq!(stats.threads, 2);
    }

    #[test]
    fn data_edge_tracks_x_from_t1a_to_t2a() {
        let cpg = example_cpg();
        // T1's writer of page_x is sub-computation (T0, α=1); T2's reader is
        // (T1, α=1). There must be a data edge between them carrying page 10.
        let writer = SubId::new(ThreadId::new(0), 1);
        let reader = SubId::new(ThreadId::new(1), 1);
        let found = cpg
            .edges_of_kind(EdgeKind::Data)
            .any(|e| e.src == writer && e.dst == reader && e.pages.contains(&PageId::new(10)));
        assert!(found, "expected data edge T1.a -> T2.a for page x");
    }

    #[test]
    fn last_writer_wins_for_data_edges() {
        let cpg = example_cpg();
        // T1.b reads y. Both T1.a and T2.a wrote y, but T2.a is the latest
        // writer that happens-before T1.b, so the data edge for y into T1.b
        // must come from T2.a, not T1.a. (T1.b is the sub-computation that
        // starts after thread 0 re-acquires the lock, i.e. α = 3: α 0 is the
        // prologue, α 1 is T1.a, α 2 is the gap between unlock and lock.)
        let t1b = SubId::new(ThreadId::new(0), 3);
        let from_t2a = cpg.edges_of_kind(EdgeKind::Data).any(|e| {
            e.src == SubId::new(ThreadId::new(1), 1)
                && e.dst == t1b
                && e.pages.contains(&PageId::new(11))
        });
        let from_t1a_y = cpg.edges_of_kind(EdgeKind::Data).any(|e| {
            e.src == SubId::new(ThreadId::new(0), 1)
                && e.dst == t1b
                && e.pages.contains(&PageId::new(11))
        });
        assert!(from_t2a, "expected y to flow from T2.a into T1.b");
        assert!(
            !from_t1a_y,
            "stale writer T1.a should be superseded by T2.a"
        );
    }

    #[test]
    fn incoming_outgoing_are_consistent() {
        let cpg = example_cpg();
        for e in cpg.edges() {
            assert!(cpg.outgoing(e.src).any(|o| o == e));
            assert!(cpg.incoming(e.dst).any(|i| i == e));
        }
    }

    #[test]
    fn empty_builder_gives_empty_graph() {
        let cpg = CpgBuilder::new().build();
        assert_eq!(cpg.node_count(), 0);
        assert_eq!(cpg.edge_count(), 0);
        assert!(cpg.validate().is_ok());
    }

    #[test]
    fn thread_sequence_is_ordered_by_alpha() {
        let cpg = example_cpg();
        let seq = cpg.thread_sequence(ThreadId::new(0));
        for pair in seq.windows(2) {
            assert!(pair[0].alpha < pair[1].alpha);
        }
    }

    proptest::proptest! {
        /// The oracle guard for the consuming build: `build(&self)` and
        /// `into_cpg(self)` return node- and edge-identical graphs (same
        /// nodes, same edges in the same order), and `build` leaves the
        /// builder reusable.
        #[test]
        fn prop_borrowing_and_consuming_builds_agree(
            ping_pong in proptest::prelude::any::<bool>(),
            threads in 1u32..13,
            iterations in 1u64..10,
            pages in 1u64..7,
        ) {
            let sequences = if ping_pong {
                crate::testing::ping_pong_sequences(threads, iterations)
            } else {
                crate::testing::lock_heavy_sequences(threads, iterations, pages, pages)
            };
            let mut builder = CpgBuilder::new();
            for seq in &sequences {
                builder.add_thread(seq.clone());
            }
            let borrowed = builder.build();
            let again = builder.build();
            let consumed = builder.into_cpg();
            for other in [&again, &consumed] {
                proptest::prop_assert_eq!(&borrowed.nodes, &other.nodes);
                proptest::prop_assert_eq!(&borrowed.edges, &other.edges);
            }
            proptest::prop_assert_eq!(borrowed.node_count(), sequences.iter().map(Vec::len).sum::<usize>());
            proptest::prop_assert_eq!(consumed.validate(), Ok(()));
        }
    }

    /// Recorder output broken the ways stored or hand-made sequences can
    /// be: two nodes of a thread swapped, a duplicate id, a node filed under
    /// another thread, a clock that goes backwards.
    fn malformed(mut sequences: Vec<Vec<SubComputation>>, seed: u64) -> Vec<Vec<SubComputation>> {
        let mut rng = crate::testing::Rng(seed);
        for _ in 0..1 + rng.below(4) {
            let s = rng.below(sequences.len() as u64) as usize;
            let len = sequences[s].len() as u64;
            let (i, j) = (rng.below(len) as usize, rng.below(len) as usize);
            match rng.below(4) {
                0 => sequences[s].swap(i, j),
                1 => {
                    let mut copy = sequences[s][i].clone();
                    copy.record_write(PageId::new(rng.below(8)));
                    sequences[s].insert(j, copy);
                }
                2 if len > 1 => {
                    let moved = sequences[s].remove(i);
                    let to = rng.below(sequences.len() as u64) as usize;
                    let at = rng.below(sequences[to].len() as u64 + 1) as usize;
                    sequences[to].insert(at, moved);
                }
                _ => sequences[s][i].clock = VectorClock::new(),
            }
        }
        sequences
    }

    proptest::proptest! {
        /// The parallel derivation is the sequential one it replaced, edge
        /// for edge in vector order, with one worker and with several; and
        /// malformed sequences (ids out of order, duplicate or foreign, a
        /// clock that goes backwards) reach the sequential one.
        #[test]
        fn prop_parallel_derivation_matches_the_reference(
            shape in 0u8..4,
            seed in proptest::prelude::any::<u64>(),
            threads in 1u32..9,
            iterations in 1u64..12,
            pages in 1u64..6,
            workers in 2usize..6,
        ) {
            let sequences = match shape {
                0 => crate::testing::random_sequences(seed, 1..160),
                1 => crate::testing::lock_heavy_sequences(threads, iterations, pages, pages + 1),
                2 => crate::testing::ping_pong_sequences(threads, iterations),
                _ => malformed(crate::testing::random_sequences(seed, 1..160), seed),
            };
            let mut builder = CpgBuilder::new();
            for seq in &sequences {
                builder.add_thread(seq.clone());
            }
            let reference = CpgBuilder { sequences: builder.sequences.clone() }.into_cpg_sequential();
            for workers in [1, workers] {
                let graph = crate::pool::with_workers(workers, || builder.build());
                proptest::prop_assert_eq!(&graph.nodes, &reference.nodes);
                proptest::prop_assert_eq!(&graph.edges, &reference.edges);
                for node in reference.nodes() {
                    let rows = |g: &Cpg| {
                        let out: Vec<_> = g.outgoing(node.id).cloned().collect();
                        (out, g.incoming(node.id).cloned().collect::<Vec<_>>())
                    };
                    proptest::prop_assert_eq!(rows(&graph), rows(&reference));
                }
            }
        }
    }

    #[test]
    fn malformed_sequences_get_the_id_order_a_map_would_impose() {
        // Out of α order, with a duplicate id: the later duplicate wins.
        let sub = |alpha: u64, page: u64| {
            let mut sub =
                SubComputation::new(SubId::new(ThreadId::new(0), alpha), VectorClock::new());
            sub.record_write(PageId::new(page));
            sub
        };
        let mut builder = CpgBuilder::new();
        builder.add_thread(vec![sub(2, 1), sub(0, 2), sub(1, 3), sub(0, 4)]);
        let cpg = builder.into_cpg();
        let alphas: Vec<u64> = cpg.nodes().map(|n| n.id.alpha).collect();
        assert_eq!(alphas, [0, 1, 2]);
        assert!(cpg.nodes().next().unwrap().writes(PageId::new(4)));
    }
}
