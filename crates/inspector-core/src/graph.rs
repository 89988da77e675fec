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
//! `(neighbour position, edge position, kind)` in edge-store order. The
//! whole-graph algorithms (topological order, slices, taint, validation)
//! run on these flat arrays; positions are crate-private and every public
//! signature speaks [`SubId`].
//!
//! ## Edge store
//!
//! Edges are stored as positions too: one 24-byte record per edge holding
//! its two endpoint positions and a payload — nothing for a control edge,
//! the object for a synchronization edge, and for a data edge a range of
//! one page vector all data edges share. The batch derivation writes these
//! records directly, so assembling a graph neither allocates per edge nor
//! looks an id up. [`Cpg::edges`] and the other edge iterators rebuild a
//! [`DependenceEdge`] per edge they yield. The derivation is the only
//! writer of a graph's store, so both endpoints of every record are
//! vertices: no graph holds a dangling edge.
//!
//! ## Indexes built on first use
//!
//! A graph is built to be queried, but the seal, recovery, a snapshot and
//! [`CpgBuilder::into_cpg`] do not query it, so a graph leaves them with its
//! nodes, its edge store and its position index only. The two traversal
//! indexes are built on first use, once per graph, and a clone made before
//! that builds its own:
//!
//! - **Adjacency**: the successor and predecessor CSR rows, each holding
//!   `(neighbour position, edge position, kind)` in edge-store order. The
//!   first traversal builds both — topological order and
//!   [`Cpg::validate`], slices, taint, [`Cpg::outgoing`] and
//!   [`Cpg::incoming`]. On the 97 k-node `reverse_index` Small graph the
//!   build takes 3.5–13 ms and ≈ 6 MB on a 2-vCPU guest.
//! - **Page index**: the page-keyed queries (writers and readers of a page,
//!   the page summary, taint seeding and tainted pages) go through the
//!   distinct pages any vertex reads or writes, ascending, and per page CSR
//!   rows of its reader positions and its writer positions, each ascending.
//!   Positions ascend in `(thread, α)` order, so one thread's accessors of a
//!   page are one contiguous run of its row. On the same graph (≈ 242 k page
//!   accesses over 286 pages) the build takes 5.5–8 ms.
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
//! thread.
//!
//! Its input is recorder shape: each thread's run strictly ascending in α,
//! its clocks never going backwards (paper §IV-A). That is checked where
//! input enters: [`CpgBuilder::add_thread`] refuses a sequence out of α
//! order, the streaming builder refuses an ingest that does not continue
//! its thread, and the consistent cut keeps only the prefixes of read-back
//! spill records that hold both rules. On a store whose clocks go backwards
//! anyway the derivation is still total — it panics on nothing and keeps
//! every node — but its edges are unspecified. The sequential derivation
//! the parallel one replaced is the tests' reference, edge for edge.

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
/// so only the maximal candidates survive: their indexes, in candidate
/// order. The parallel derivation and its sequential reference share it,
/// so they cannot diverge in last-writer semantics.
fn prune_superseded_writers<'c>(
    candidates: &'c [(SubId, &'c VectorClock)],
) -> impl Iterator<Item = usize> + 'c {
    candidates
        .iter()
        .enumerate()
        .filter(|(_, (id, clock))| {
            !candidates
                .iter()
                .any(|(other, oc)| other != id && ordered_before(*id, clock, *other, oc))
        })
        .map(|(i, _)| i)
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

/// What an edge record carries beside its endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Payload {
    Control,
    Synchronization(SyncObjectId),
    /// The edge's pages: `pages[first..first + len]` of its store (of its
    /// part, while the derivation is still running).
    Data {
        first: u32,
        len: u32,
    },
}

/// One stored edge (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EdgeRecord {
    /// Endpoint positions.
    src: u32,
    dst: u32,
    payload: Payload,
}

impl EdgeRecord {
    fn kind(&self) -> EdgeKind {
        match self.payload {
            Payload::Control => EdgeKind::Control,
            Payload::Synchronization(_) => EdgeKind::Synchronization,
            Payload::Data { .. } => EdgeKind::Data,
        }
    }
}

/// The edges of a graph, in edge order (see the module docs). The parts the
/// derivation's units write are stores too, whose data records index their
/// own page vector until [`append`](Self::append) rebases them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct EdgeStore {
    records: Vec<EdgeRecord>,
    /// Every data edge's pages, back to back in edge order.
    pages: Vec<PageId>,
}

impl EdgeStore {
    fn len(&self) -> usize {
        self.records.len()
    }

    fn push_data(&mut self, src: u32, dst: u32, pages: impl IntoIterator<Item = PageId>) {
        let first = self.pages.len();
        self.pages.extend(pages);
        assert!(
            u32::try_from(self.pages.len()).is_ok(),
            "edge pages are 32-bit: {} of them",
            self.pages.len()
        );
        self.records.push(EdgeRecord {
            src,
            dst,
            payload: Payload::Data {
                first: first as u32,
                len: (self.pages.len() - first) as u32,
            },
        });
    }

    /// Appends a part of the derivation, rebasing its page ranges.
    fn append(&mut self, mut part: EdgeStore) {
        let base = self.pages.len();
        assert!(
            u32::try_from(base + part.pages.len()).is_ok(),
            "edge pages are 32-bit: {} of them",
            base + part.pages.len()
        );
        let base = base as u32;
        self.records
            .extend(part.records.iter().map(|&record| match record.payload {
                Payload::Data { first, len } => EdgeRecord {
                    payload: Payload::Data {
                        first: first + base,
                        len,
                    },
                    ..record
                },
                _ => record,
            }));
        self.pages.append(&mut part.pages);
    }

    /// The edge `record` stores, its endpoints named by `ids`.
    fn edge(&self, record: &EdgeRecord, ids: &[SubId]) -> DependenceEdge {
        let edge = |kind, object, pages| DependenceEdge {
            src: ids[record.src as usize],
            dst: ids[record.dst as usize],
            kind,
            object,
            pages,
        };
        match record.payload {
            Payload::Control => edge(EdgeKind::Control, None, Vec::new()),
            Payload::Synchronization(object) => {
                edge(EdgeKind::Synchronization, Some(object), Vec::new())
            }
            Payload::Data { first, len } => {
                let pages = &self.pages[first as usize..(first + len) as usize];
                edge(EdgeKind::Data, None, pages.to_vec())
            }
        }
    }
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
    /// Index of the edge in the edge store.
    edge: u32,
    pub(crate) kind: EdgeKind,
}

/// CSR adjacency over node positions: row `p` is
/// `entries[offsets[p]..offsets[p + 1]]`, in edge-store order. Two
/// allocations for the whole graph and no hashing; built on a graph's first
/// traversal (see the module docs), never by the seal or recovery.
#[derive(Debug, Clone, Default)]
pub(crate) struct AdjacencyIndex {
    /// Row starts, `nodes + 1` long (empty for [`Cpg::default`], which has
    /// no position to ask a row for).
    offsets: Vec<u32>,
    entries: Vec<Adjacent>,
}

/// A graph's successor and predecessor indexes over the same edges.
#[derive(Debug, Clone, Default)]
pub(crate) struct Adjacency {
    pub(crate) successors: AdjacencyIndex,
    pub(crate) predecessors: AdjacencyIndex,
}

impl Adjacency {
    /// Builds both indexes over `edges`: one counting pass, one prefix-sum
    /// pass, one fill pass — a stable counting sort, so each row keeps
    /// edge-store order.
    fn build(nodes: usize, edges: &EdgeStore) -> Self {
        let mut successors = vec![0u32; nodes + 1];
        let mut predecessors = vec![0u32; nodes + 1];
        for record in &edges.records {
            successors[record.src as usize + 1] += 1;
            predecessors[record.dst as usize + 1] += 1;
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
        for (i, record) in edges.records.iter().enumerate() {
            let (edge, kind) = (i as u32, record.kind());
            let towards = |neighbour| Adjacent {
                neighbour,
                edge,
                kind,
            };
            place(&mut out_cursor, &mut out, record.src, towards(record.dst));
            place(&mut in_cursor, &mut into, record.dst, towards(record.src));
        }
        Adjacency {
            successors: AdjacencyIndex {
                offsets: successors,
                entries: out,
            },
            predecessors: AdjacencyIndex {
                offsets: predecessors,
                entries: into,
            },
        }
    }
}

impl AdjacencyIndex {
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
/// tree while letting every builder hand over its concatenated per-thread
/// runs without building one — the streaming seal, the batch builder and
/// offline recovery all end in the same derivation over such a store — and it
/// makes a vertex's index its dense position, which the edge store speaks
/// (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct Cpg {
    /// Vertices, sorted by id and duplicate-free.
    pub(crate) nodes: Vec<SubComputation>,
    pub(crate) edges: EdgeStore,
    /// `ids[p] == nodes[p].id`, packed so lookups and orderings stay off
    /// the (much larger) vertices.
    ids: Vec<SubId>,
    /// Per-thread position ranges, sorted by thread.
    ranges: Vec<ThreadRange>,
    /// Built on the first traversal (see the module docs).
    adjacency: OnceLock<Adjacency>,
    /// Built on the first page-keyed query (see the module docs).
    page_index: OnceLock<PageIndex>,
}

/// The position index of an id-sorted, duplicate-free node store: every
/// vertex's id by position, and one range per thread.
fn position_index(view: &NodeView<'_>) -> (Vec<SubId>, Vec<ThreadRange>) {
    let nodes = view.nodes;
    debug_assert!(
        nodes.windows(2).all(|w| w[0].id < w[1].id),
        "node store must be sorted by id and duplicate-free"
    );
    assert!(
        u32::try_from(nodes.len()).is_ok(),
        "positions are 32-bit: {} nodes",
        nodes.len()
    );
    let ids = nodes.iter().map(|n| n.id).collect();
    let ranges = view
        .threads
        .iter()
        .map(|run| ThreadRange {
            thread: nodes[run.start].id.thread,
            first: run.start as u32,
            len: run.len() as u32,
        })
        .collect();
    (ids, ranges)
}

impl Cpg {
    /// Assembles a graph from nodes already sorted by id and the edge store
    /// over their positions.
    pub(crate) fn from_store(nodes: Vec<SubComputation>, edges: EdgeStore) -> Self {
        let (ids, ranges) = position_index(&NodeView::of_sorted(&nodes));
        Cpg::of_parts(nodes, edges, ids, ranges)
    }

    /// The graph of an id-sorted node store, the edge store over its
    /// positions and its position index; no traversal index is built.
    fn of_parts(
        nodes: Vec<SubComputation>,
        edges: EdgeStore,
        ids: Vec<SubId>,
        ranges: Vec<ThreadRange>,
    ) -> Self {
        assert!(
            u32::try_from(edges.len()).is_ok(),
            "positions are 32-bit: {} edges",
            edges.len()
        );
        Cpg {
            nodes,
            edges,
            ids,
            ranges,
            ..Cpg::default()
        }
    }

    /// The graph of an id-sorted node store in recorder shape (see the
    /// module docs) — what [`CpgBuilder::into_cpg`] concatenates, what the
    /// seal reads back and what the consistent cut keeps — with the edges
    /// derived over it by the parallel derivation.
    pub(crate) fn derived(nodes: Vec<SubComputation>) -> Self {
        let (edges, (ids, ranges)) = derive(&NodeView::of_sorted(&nodes));
        Cpg::of_parts(nodes, edges, ids, ranges)
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

    /// The edge at `index` of the edge store.
    fn edge_at(&self, index: usize) -> DependenceEdge {
        self.edges.edge(&self.edges.records[index], &self.ids)
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

    /// The successor and predecessor indexes, built on first use.
    pub(crate) fn adjacency(&self) -> &Adjacency {
        self.adjacency
            .get_or_init(|| Adjacency::build(self.nodes.len(), &self.edges))
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

    /// Iterates over all edges, each rebuilt from the edge store.
    pub fn edges(&self) -> impl Iterator<Item = DependenceEdge> + '_ {
        (0..self.edges.len()).map(|i| self.edge_at(i))
    }

    /// Iterates over the edges of one kind.
    pub fn edges_of_kind(&self, kind: EdgeKind) -> impl Iterator<Item = DependenceEdge> + '_ {
        let records = self.edges.records.iter().enumerate();
        records
            .filter(move |(_, record)| record.kind() == kind)
            .map(|(i, _)| self.edge_at(i))
    }

    fn incident<'a>(
        &'a self,
        index: &'a AdjacencyIndex,
        id: SubId,
    ) -> impl Iterator<Item = DependenceEdge> + 'a {
        let row = self.position(id).map_or(&[][..], |p| index.row(p));
        row.iter().map(|entry| self.edge_at(entry.edge as usize))
    }

    /// Outgoing edges of a vertex, in edge-store order.
    pub fn outgoing(&self, id: SubId) -> impl Iterator<Item = DependenceEdge> + '_ {
        self.incident(&self.adjacency().successors, id)
    }

    /// Incoming edges of a vertex, in edge-store order.
    pub fn incoming(&self, id: SubId) -> impl Iterator<Item = DependenceEdge> + '_ {
        self.incident(&self.adjacency().predecessors, id)
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
        for record in &self.edges.records {
            match record.kind() {
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
        // FIFO Kahn; `order` doubles as the queue (`head` is its front).
        let nodes = self.nodes.len();
        let Adjacency {
            successors,
            predecessors,
        } = self.adjacency();
        let mut indegree: Vec<u32> = (0..nodes as u32)
            .map(|p| predecessors.row(p).len() as u32)
            .collect();
        let mut order: Vec<u32> = Vec::with_capacity(nodes);
        order.extend((0..nodes as u32).filter(|&p| indegree[p as usize] == 0));
        let mut head = 0;
        while let Some(&p) = order.get(head) {
            head += 1;
            for entry in successors.row(p) {
                let d = &mut indegree[entry.neighbour as usize];
                *d -= 1;
                if *d == 0 {
                    order.push(entry.neighbour);
                }
            }
        }
        (order.len() == nodes).then(|| order.into_iter().map(|p| self.id_at(p)).collect())
    }

    /// Checks structural invariants: the graph is a DAG, and every edge
    /// respects the happens-before order.
    pub fn validate(&self) -> Result<(), CpgValidationError> {
        for &EdgeRecord { src, dst, .. } in &self.edges.records {
            if !self.node_at(src).happens_before(self.node_at(dst)) {
                return Err(CpgValidationError::EdgeAgainstOrder {
                    src: self.id_at(src),
                    dst: self.id_at(dst),
                });
            }
        }
        if self.topological_order().is_none() {
            return Err(CpgValidationError::Cycle);
        }
        Ok(())
    }
}

/// Violation of a CPG structural invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CpgValidationError {
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
    /// [`crate::recorder::ThreadRecorder::finish`], or a prefix of it),
    /// replacing any sequence added for the same thread before.
    ///
    /// # Panics
    ///
    /// Panics unless the sequence is in recorder shape: every
    /// sub-computation of one thread, strictly ascending in α.
    pub fn add_thread(&mut self, sequence: Vec<SubComputation>) -> &mut Self {
        let Some(first) = sequence.first() else {
            return self;
        };
        let thread = first.id.thread;
        for pair in sequence.windows(2) {
            assert_eq!(
                pair[1].id.thread, thread,
                "a thread's sequence must carry that thread's sub-computations only"
            );
            assert!(
                pair[0].id.alpha < pair[1].id.alpha,
                "a thread's sequence must be strictly ascending in α: {} before {}",
                pair[0].id,
                pair[1].id
            );
        }
        self.sequences.insert(thread, sequence);
        self
    }

    /// Builds the graph: derives control, synchronization and data edges
    /// with the parallel derivation [`into_cpg`](Self::into_cpg) runs.
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
    /// graph's traversal indexes are built on its first query (see the
    /// module docs), not here.
    ///
    /// [`add_thread`](Self::add_thread) admitted each sequence in α order,
    /// so they concatenate into the id-sorted node store as they are. The
    /// derivation also assumes that no clock goes backwards along a thread,
    /// as none does in recorder output; where one does, it still keeps
    /// every node and panics on nothing, but the edges are unspecified.
    pub fn into_cpg(self) -> Cpg {
        Cpg::derived(concat(self.sequences))
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
}

/// How many of `run` — one thread's nodes in execution order — happen
/// before `target`, when the first `from` of them are already known to: a
/// cursor left by an earlier target that `target` succeeds on its own
/// thread.
///
/// Happens-before is monotone along a thread's execution sequence (if
/// `L_t[α]` happens-before `x` then so does every earlier sub-computation
/// of `t`), so the predecessors form a prefix, and the node before its end
/// is the latest preceding one. Gallops forward from the cursor, then
/// binary-searches the last step, so a target that moved the prefix by `d`
/// costs `O(log d)` tests, nearly all of them on nodes next to the cursor.
/// Needs a run whose clocks never go backwards to be right; on any run it
/// returns a count within the run.
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
/// reader — and the view's position index.
///
/// Up to [`pool::workers`] workers derive the synchronization edges (unit
/// 0) and split the readers into contiguous chunks (the other units), while
/// the calling thread builds the position index. Once every part is in, the
/// calling thread reserves the edge store exactly, derives the control
/// edges into it and appends the parts in unit order.
fn derive(view: &NodeView<'_>) -> (EdgeStore, (Vec<SubId>, Vec<ThreadRange>)) {
    let workers = pool::workers(view.nodes.len(), MIN_NODES_PER_WORKER);
    let chunks = if workers > 1 {
        workers * CHUNKS_PER_WORKER
    } else {
        1
    };
    let chunks = reader_chunks(view.nodes, chunks);
    // Every unit's output vectors, and every worker's scratch, are made
    // here, on the calling thread, so they stay in this thread's allocator
    // arena however a worker grows them (see `pool::caller_buffer`).
    let outputs: Vec<Mutex<EdgeStore>> = (0..=chunks.len())
        .map(|_| {
            Mutex::new(EdgeStore {
                records: pool::caller_buffer(1),
                pages: pool::caller_buffer(1),
            })
        })
        .collect();
    // Built by the first data unit, while the synchronization unit runs.
    let writers = OnceLock::new();
    pool::fan_out(
        outputs.len(),
        workers,
        DataScratch::new,
        |scratch, unit| {
            let mut out = std::mem::take(&mut *outputs[unit].lock());
            match unit.checked_sub(1) {
                None => sync_edges(view, &mut out.records),
                Some(chunk) => {
                    let writers = writers.get_or_init(|| WriterIndex::build(view));
                    data_edges(view, writers, chunks[chunk].clone(), scratch, &mut out);
                }
            }
            out
        },
        |parts| {
            let positions = position_index(view);
            let parts: Vec<EdgeStore> = parts.collect();
            let control = view.nodes.len() - view.threads.len();
            let records = control + parts.iter().map(EdgeStore::len).sum::<usize>();
            let pages = parts.iter().map(|part| part.pages.len()).sum();
            let mut edges = EdgeStore {
                records: Vec::with_capacity(records),
                pages: Vec::with_capacity(pages),
            };
            control_edges(view, &mut edges.records);
            for part in parts {
                edges.append(part);
            }
            (edges, positions)
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

/// Appends the control edges: consecutive positions of each run, in run
/// order.
fn control_edges(view: &NodeView<'_>, edges: &mut Vec<EdgeRecord>) {
    for run in &view.threads {
        edges.extend((run.start + 1..run.end).map(|p| EdgeRecord {
            src: p as u32 - 1,
            dst: p as u32,
            payload: Payload::Control,
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
fn sync_edges(view: &NodeView<'_>, edges: &mut Vec<EdgeRecord>) {
    let nodes = view.nodes;
    let node = |&(_, p): &(SyncObjectId, u32)| &nodes[p as usize];
    // Releases as `(object, position)`, grouped by object, then releasing
    // thread, each group in run order: positions ascend in `(thread, α)`
    // order, so sorting the pairs is the grouping.
    let mut releases: Vec<(SyncObjectId, u32)> = nodes
        .iter()
        .enumerate()
        .filter_map(|(p, sub)| {
            let sp = sub.terminator?;
            matches!(sp.kind, SyncKind::Release | SyncKind::ReleaseAcquire)
                .then_some((sp.object, p as u32))
        })
        .collect();
    releases.sort_unstable();
    // `groups[g]` is one (object, thread) group of `releases`; `objects`
    // maps each object to its groups, in thread order.
    let mut groups: Vec<Range<usize>> = Vec::new();
    let mut objects: Vec<(SyncObjectId, Range<usize>)> = Vec::new();
    for (i, release) in releases.iter().enumerate() {
        let last = &releases[i.saturating_sub(1)];
        if i > 0 && last.0 == release.0 && node(last).id.thread == node(release).id.thread {
            if let Some(group) = groups.last_mut() {
                group.end = i + 1;
            }
            continue;
        }
        match objects.last_mut() {
            Some((known, range)) if *known == release.0 => range.end = groups.len() + 1,
            _ => objects.push((release.0, groups.len()..groups.len() + 1)),
        }
        groups.push(i..i + 1);
    }

    // Per group: the run whose acquires last moved its cursor, and the
    // cursor (how many of the group's releases precede that run's latest
    // acquire).
    let mut cursors: Vec<(usize, usize)> = vec![(usize::MAX, 0); groups.len()];
    let mut candidates: Vec<u32> = Vec::new();
    for (run, positions) in view.threads.iter().enumerate() {
        for next in positions.start + 1..positions.end {
            let (prev, acquirer) = (&nodes[next - 1], &nodes[next]);
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
                if node(&group[0]).id.thread == acquirer.id.thread {
                    continue;
                }
                let (owner, cursor) = &mut cursors[g];
                if *owner != run {
                    (*owner, *cursor) = (run, 0);
                }
                *cursor = preceding_from(group, *cursor, node, acquirer);
                let before = *cursor;
                if before > 0 {
                    candidates.push(group[before - 1].1);
                }
            }
            for &r in &candidates {
                let dominated = candidates.iter().any(|&other| {
                    other != r && nodes[r as usize].happens_before(&nodes[other as usize])
                });
                if !dominated {
                    edges.push(EdgeRecord {
                        src: r,
                        dst: next as u32,
                        payload: Payload::Synchronization(sp.object),
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
struct DataScratch<'a> {
    /// One page's candidate writers, and their positions.
    candidates: Vec<(SubId, &'a VectorClock)>,
    candidate_positions: Vec<u32>,
    /// `(writer position, page)` for every page the reader takes from a
    /// writer.
    flows: Vec<(u32, PageId)>,
    /// Per writer run: the reader thread that last moved its cursor (as
    /// `epoch`), and the cursor.
    cursors: Vec<(u64, usize)>,
    /// Names the reader thread being resolved; bumped for every new one.
    epoch: u64,
}

impl DataScratch<'_> {
    /// Buffers allocated on the calling thread, in its arena, for a worker
    /// to grow.
    fn new() -> Self {
        DataScratch {
            candidates: pool::caller_buffer(1),
            candidate_positions: pool::caller_buffer(1),
            flows: pool::caller_buffer(1),
            cursors: pool::caller_buffer(1),
            epoch: 0,
        }
    }
}

/// Data edges into the readers at positions `readers` of `view`, reader by
/// reader, writers of one reader in id order.
///
/// A data edge goes from writer `w` to reader `r` when `w` happens-before
/// `r`, `w`'s write set intersects `r`'s read set, and no intervening
/// writer of the same page sits between them (update-use relation). Per
/// page the latest preceding writer of each thread is a candidate and
/// superseded candidates are dropped (the shared
/// [`prune_superseded_writers`] kernel, which the tests' sequential
/// reference runs too). The latest preceding writer is searched from a per-run cursor
/// that a reader's successors on its thread only move forward
/// ([`preceding_from`]). Nothing is allocated per reader: the edges are
/// records, their pages one run each of the part's page vector.
fn data_edges<'a>(
    view: &NodeView<'a>,
    writers: &WriterIndex,
    readers: Range<usize>,
    scratch: &mut DataScratch<'a>,
    edges: &mut EdgeStore,
) {
    let nodes = view.nodes;
    scratch.cursors.resize(writers.runs_total(), (0, 0));
    let mut thread = None;
    for position in readers {
        let reader = &nodes[position];
        if thread != Some(reader.id.thread) {
            thread = Some(reader.id.thread);
            scratch.epoch += 1;
        }
        scratch.flows.clear();
        for &page in &reader.read_set {
            scratch.candidates.clear();
            scratch.candidate_positions.clear();
            for (r, run) in writers.runs(page) {
                let node = |&p: &u32| &nodes[p as usize];
                let (owner, cursor) = &mut scratch.cursors[r];
                if *owner != scratch.epoch {
                    (*owner, *cursor) = (scratch.epoch, 0);
                }
                *cursor = preceding_from(run, *cursor, node, reader);
                let latest = run[..*cursor].last().copied();
                if let Some(writer) = latest.filter(|&w| w as usize != position) {
                    let w = &nodes[writer as usize];
                    scratch.candidates.push((w.id, &w.clock));
                    scratch.candidate_positions.push(writer);
                }
            }
            for i in prune_superseded_writers(&scratch.candidates) {
                scratch.flows.push((scratch.candidate_positions[i], page));
            }
        }
        // Each page is visited once per reader, so the pairs are distinct;
        // positions sort like ids, so the writers come out in id order.
        scratch.flows.sort_unstable();
        for flow in scratch.flows.chunk_by(|a, b| a.0 == b.0) {
            let pages = flow.iter().map(|&(_, page)| page);
            edges.push_data(flow[0].0, position as u32, pages);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AccessKind, SyncKind};
    use crate::ids::{PageId, SyncObjectId, ThreadId};
    use crate::recorder::{SyncObject, ThreadRecorder};

    /// Hand-built graphs (the read-side and edge-store tests') and
    /// reference algorithms.
    impl Cpg {
        /// Assembles a graph from a node map and edge set.
        pub(crate) fn from_parts(
            nodes: BTreeMap<SubId, SubComputation>,
            edges: Vec<DependenceEdge>,
        ) -> Self {
            Self::from_sorted_nodes(nodes.into_values().collect(), edges)
        }

        /// Assembles a graph from nodes already sorted by id and an edge list,
        /// which is converted into the edge store once.
        fn from_sorted_nodes(nodes: Vec<SubComputation>, edges: Vec<DependenceEdge>) -> Self {
            let cpg = Cpg::from_store(nodes, EdgeStore::default());
            let edges = EdgeStore::of_edges(edges, |id| cpg.position(id));
            Cpg::of_parts(cpg.nodes, edges, cpg.ids, cpg.ranges)
        }

        /// Whether the adjacency was built: a probe for the tests that pin
        /// when it is.
        pub(crate) fn adjacency_built(&self) -> bool {
            self.adjacency.get().is_some()
        }

        /// The pre-dense-index implementation, kept verbatim over the public
        /// API as the reference the dense one is tested against.
        pub(crate) fn topological_order_reference(&self) -> Option<Vec<SubId>> {
            let mut indegree: BTreeMap<SubId, usize> =
                self.nodes.iter().map(|n| (n.id, 0)).collect();
            for e in self.edges() {
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

    impl EdgeStore {
        /// Stores `edges`, whose endpoints `position` resolves.
        ///
        /// # Panics
        ///
        /// Panics on an edge no record holds: an endpoint that is not a
        /// vertex, or a field its kind does not use.
        fn of_edges(edges: Vec<DependenceEdge>, position: impl Fn(SubId) -> Option<u32>) -> Self {
            let mut store = EdgeStore::default();
            for edge in edges {
                let (Some(src), Some(dst)) = (position(edge.src), position(edge.dst)) else {
                    panic!(
                        "edge {} -> {} has an end that is not a vertex",
                        edge.src, edge.dst
                    );
                };
                let payload = match (edge.kind, edge.object, edge.pages.is_empty()) {
                    (EdgeKind::Control, None, true) => Payload::Control,
                    (EdgeKind::Synchronization, Some(object), true) => {
                        Payload::Synchronization(object)
                    }
                    (EdgeKind::Data, None, _) => {
                        store.push_data(src, dst, edge.pages);
                        continue;
                    }
                    _ => panic!("no edge record holds {edge:?}"),
                };
                store.records.push(EdgeRecord { src, dst, payload });
            }
            store
        }
    }

    /// The sequential derivation the parallel one replaced, on the calling
    /// thread: the reference the parallel derivation is tested against, edge
    /// for edge.
    impl CpgBuilder {
        fn into_cpg_sequential(self) -> Cpg {
            let (nodes, edges) = self.sequential_parts();
            Cpg::from_sorted_nodes(nodes, edges)
        }

        /// The sequential derivation's node store and edge list.
        fn sequential_parts(self) -> (Vec<SubComputation>, Vec<DependenceEdge>) {
            let mut edges = Vec::new();
            Self::derive_control_edges(&self.sequences, &mut edges);
            Self::derive_sync_edges(&self.sequences, &mut edges);
            let nodes = concat(self.sequences);
            Self::derive_data_edges(&nodes, &mut edges);
            (nodes, edges)
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
                    for i in prune_superseded_writers(&candidates) {
                        per_writer_pages
                            .entry(candidates[i].0)
                            .or_default()
                            .push(page);
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

    /// Builds the CPG for the paper's running example (Figure 1): two threads
    /// updating `x` and `y` under a lock.
    fn example_cpg() -> Cpg {
        let lock = SyncObject::new(SyncObjectId::new(1));
        let page_x = PageId::new(10);
        let page_y = PageId::new(11);

        // Thread 1: T1.a { read y, write x,y } unlock; ... lock; T1.b { y = y/2 }
        let mut t1 = ThreadRecorder::new(ThreadId::new(0));
        // T1.a executes while holding the lock (acquire happened before the
        // recorded region; we model the initial acquire as sub 0 boundary).
        t1.on_synchronization(&lock, SyncKind::Acquire);
        t1.on_memory_access(page_y, AccessKind::Read);
        t1.on_memory_access(page_x, AccessKind::Write);
        t1.on_memory_access(page_y, AccessKind::Write);
        t1.on_synchronization(&lock, SyncKind::Release);

        // Thread 2: lock; T2.a { y = 2*x } unlock
        let mut t2 = ThreadRecorder::new(ThreadId::new(1));
        t2.on_synchronization(&lock, SyncKind::Acquire);
        t2.on_memory_access(page_x, AccessKind::Read);
        t2.on_memory_access(page_y, AccessKind::Write);
        t2.on_synchronization(&lock, SyncKind::Release);

        // Thread 1 again: lock; T1.b { y = y/2 } unlock
        t1.on_synchronization(&lock, SyncKind::Acquire);
        t1.on_memory_access(page_y, AccessKind::Read);
        t1.on_memory_access(page_y, AccessKind::Write);
        t1.on_synchronization(&lock, SyncKind::Release);

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
    fn a_derived_graph_builds_its_adjacency_on_the_first_traversal() {
        let cpg = example_cpg();
        assert!(!cpg.adjacency_built());
        // Counting, listing and page queries build no adjacency either.
        assert!(cpg.edge_count() > 0 && cpg.edges().count() > 0);
        let query = crate::query::ProvenanceQuery::new(&cpg);
        assert!(!query.page_summary().is_empty());
        assert!(!cpg.adjacency_built());
        assert!(cpg.validate().is_ok());
        assert!(cpg.adjacency_built());
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

    /// Recorder output with one clock zeroed, which goes backwards unless
    /// it is its thread's first: the α-checked shape a seal can be handed.
    fn one_clock_zeroed(
        mut sequences: Vec<Vec<SubComputation>>,
        seed: u64,
    ) -> Vec<Vec<SubComputation>> {
        let mut rng = crate::testing::Rng(seed);
        let s = rng.below(sequences.len() as u64) as usize;
        let i = rng.below(sequences[s].len() as u64) as usize;
        sequences[s][i].clock = VectorClock::new();
        sequences
    }

    proptest::proptest! {
        /// The parallel derivation is the sequential one it replaced, edge
        /// for edge in vector order, with one worker and with several, on
        /// recorder output. On a store whose clock goes backwards it is
        /// total: it panics on nothing and keeps every node.
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
                _ => one_clock_zeroed(crate::testing::random_sequences(seed, 1..160), seed),
            };
            let mut builder = CpgBuilder::new();
            for seq in &sequences {
                builder.add_thread(seq.clone());
            }
            let reference = CpgBuilder { sequences: builder.sequences.clone() }.into_cpg_sequential();
            for workers in [1, workers] {
                let graph = crate::pool::with_workers(workers, || builder.build());
                proptest::prop_assert_eq!(&graph.nodes, &reference.nodes);
                if shape == 3 {
                    continue;
                }
                proptest::prop_assert_eq!(&graph.edges, &reference.edges);
                for node in reference.nodes() {
                    let rows = |g: &Cpg| {
                        let out: Vec<_> = g.outgoing(node.id).collect();
                        (out, g.incoming(node.id).collect::<Vec<_>>())
                    };
                    proptest::prop_assert_eq!(rows(&graph), rows(&reference));
                }
            }
        }
    }

    proptest::proptest! {
        /// The edge store gives back the edge list it was made from: in
        /// order, objects and page lists included.
        #[test]
        fn prop_the_edge_store_is_lossless(
            random in proptest::prelude::any::<bool>(),
            seed in proptest::prelude::any::<u64>(),
            threads in 1u32..9,
            iterations in 1u64..12,
            pages in 1u64..6,
        ) {
            let sequences = if random {
                crate::testing::random_sequences(seed, 1..160)
            } else {
                crate::testing::lock_heavy_sequences(threads, iterations, pages, pages + 1)
            };
            let mut builder = CpgBuilder::new();
            for seq in sequences {
                builder.add_thread(seq);
            }
            let (nodes, edges) = builder.sequential_parts();
            let cpg = Cpg::from_sorted_nodes(nodes, edges.clone());
            proptest::prop_assert_eq!(cpg.edge_count(), edges.len());
            proptest::prop_assert_eq!(cpg.edges().collect::<Vec<_>>(), edges.clone());
            for kind in [EdgeKind::Control, EdgeKind::Synchronization, EdgeKind::Data] {
                let of_kind: Vec<_> = edges.iter().filter(|e| e.kind == kind).cloned().collect();
                proptest::prop_assert_eq!(cpg.edges_of_kind(kind).collect::<Vec<_>>(), of_kind);
            }
            proptest::prop_assert_eq!(cpg.validate(), Ok(()));
        }
    }

    #[test]
    fn an_edge_record_is_24_bytes() {
        assert_eq!(std::mem::size_of::<EdgeRecord>(), 24);
    }

    /// Whether `f` panics.
    fn panics(f: impl FnOnce()) -> bool {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
    }

    #[test]
    fn edges_no_record_holds_are_refused() {
        let id = |thread: u32, alpha: u64| SubId::new(ThreadId::new(thread), alpha);
        let (a, b, missing) = (id(0, 0), id(0, 1), id(1, 7));
        let nodes: Vec<SubComputation> = [a, b]
            .into_iter()
            .map(|id| SubComputation::new(id, VectorClock::new()))
            .collect();
        let edge = |src, dst, kind, object: Option<u64>, pages: &[u64]| DependenceEdge {
            src,
            dst,
            kind,
            object: object.map(SyncObjectId::new),
            pages: pages.iter().copied().map(PageId::new).collect(),
        };
        let held = vec![
            edge(a, b, EdgeKind::Control, None, &[]),
            edge(a, b, EdgeKind::Data, None, &[5]),
            edge(a, b, EdgeKind::Synchronization, Some(2), &[]),
            edge(a, b, EdgeKind::Data, None, &[]),
        ];
        let cpg = Cpg::from_sorted_nodes(nodes.clone(), held.clone());
        assert_eq!(cpg.edges().collect::<Vec<_>>(), held);
        let refused = [
            edge(a, missing, EdgeKind::Data, None, &[3, 4]),
            edge(missing, b, EdgeKind::Synchronization, Some(2), &[]),
            edge(a, b, EdgeKind::Synchronization, None, &[]),
            edge(a, b, EdgeKind::Control, Some(9), &[6]),
            edge(a, b, EdgeKind::Data, Some(1), &[]),
        ];
        for odd in refused {
            let mut edges = held.clone();
            edges.push(odd.clone());
            let nodes = nodes.clone();
            assert!(
                panics(|| drop(Cpg::from_sorted_nodes(nodes, edges))),
                "{odd:?}"
            );
        }
    }

    #[test]
    fn add_thread_refuses_what_a_recorder_cannot_produce() {
        let sub = |thread: u32, alpha: u64| {
            SubComputation::new(SubId::new(ThreadId::new(thread), alpha), VectorClock::new())
        };
        let malformed = [
            ("swapped α", vec![sub(0, 0), sub(0, 2), sub(0, 1)]),
            ("duplicate id", vec![sub(0, 0), sub(0, 1), sub(0, 1)]),
            ("foreign id", vec![sub(0, 0), sub(1, 1), sub(0, 2)]),
        ];
        for (shape, sequence) in malformed {
            let refused = panics(|| {
                CpgBuilder::new().add_thread(sequence);
            });
            assert!(refused, "{shape}");
        }
        // A prefix with a hole in α is still in recorder order.
        let mut builder = CpgBuilder::new();
        builder.add_thread(vec![sub(0, 0), sub(0, 2)]);
        assert_eq!(builder.build().node_count(), 2);
    }
}
