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

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::clock::VectorClock;
use crate::event::SyncKind;
use crate::ids::{PageId, SubId, SyncObjectId, ThreadId};
use crate::subcomputation::SubComputation;

/// Happens-before between two sub-computations identified by `(id, clock)`
/// pairs — the exact relation [`SubComputation::happens_before`] evaluates,
/// exposed over bare identifiers so edge-derivation code that indexes
/// `(α, clock)` entries (the streaming builder's page-write index) orders
/// candidates identically to code that holds whole nodes.
pub(crate) fn ordered_before(
    a: SubId,
    a_clock: &VectorClock,
    b: SubId,
    b_clock: &VectorClock,
) -> bool {
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
/// so only the maximal candidates survive. This is the single shared kernel
/// of data-dependence resolution: the batch
/// [`CpgBuilder::derive_data_edges_from_index`] pass, the streaming
/// builder's ingest-time resolution and its seal-time leftovers all feed it
/// the same shape and therefore cannot diverge in last-writer semantics.
pub(crate) fn prune_superseded_writers(candidates: &[(SubId, &VectorClock)]) -> Vec<SubId> {
    candidates
        .iter()
        .filter(|(id, clock)| {
            !candidates
                .iter()
                .any(|(other, oc)| other != id && ordered_before(*id, clock, *other, oc))
        })
        .map(|(id, _)| *id)
        .collect()
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
    /// produces an identical graph without the clone or the end-of-run
    /// scan; this builder is kept as the equivalence oracle and for offline
    /// reconstruction from stored sequences.
    pub fn build(&self) -> Cpg {
        CpgBuilder {
            sequences: self.sequences.clone(),
        }
        .into_cpg()
    }

    /// Builds the graph out of the builder's own sequences: the edges are
    /// derived from the per-thread slices, then the sub-computations *move*
    /// into the graph. What offline recovery calls — it owns what it
    /// decoded — and the one derivation path [`build`](Self::build) shares.
    pub fn into_cpg(self) -> Cpg {
        let mut edges = Vec::new();
        Self::derive_control_edges(&self.sequences, &mut edges);
        Self::derive_sync_edges(&self.sequences, &mut edges);

        let total = self.sequences.values().map(Vec::len).sum();
        let mut nodes: Vec<SubComputation> = Vec::with_capacity(total);
        for seq in self.sequences.into_values() {
            nodes.extend(seq);
        }
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
    pub(crate) fn latest_preceding<'a>(
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
    /// candidates are discarded (last-writer semantics).
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
        Self::derive_data_edges_from_index(nodes, &writers, edges);
    }

    /// The per-reader update-use resolution over a prebuilt writer index.
    ///
    /// Candidate selection ([`latest_preceding`](Self::latest_preceding) per
    /// writing thread) and dominance pruning
    /// ([`prune_superseded_writers`]) are shared with the streaming
    /// builder's incremental path, so the batch oracle and the streamed
    /// graph cannot diverge in last-writer semantics — only the index
    /// construction differs (full node scan here, maintained during
    /// ingestion there).
    pub(crate) fn derive_data_edges_from_index(
        nodes: &[SubComputation],
        writers: &HashMap<PageId, BTreeMap<ThreadId, Vec<&SubComputation>>>,
        edges: &mut Vec<DependenceEdge>,
    ) {
        for reader in nodes {
            // page -> latest writers (per writer sub-computation).
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
            Self::emit_reader_data_edges(reader.id, per_writer_pages, edges);
        }
    }

    /// Emits one data edge per surviving writer of `reader`. Shared tail of
    /// every data-resolution path; the page list is part of an edge's
    /// identity, so it is normalised to page order here regardless of the
    /// order the caller visited the read set in (the streaming path visits
    /// it stripe-major).
    pub(crate) fn emit_reader_data_edges(
        reader: SubId,
        per_writer_pages: BTreeMap<SubId, Vec<PageId>>,
        edges: &mut Vec<DependenceEdge>,
    ) {
        for (writer, mut pages) in per_writer_pages {
            pages.sort_unstable();
            edges.push(DependenceEdge {
                src: writer,
                dst: reader,
                kind: EdgeKind::Data,
                object: None,
                pages,
            });
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
