//! Streaming, sharded construction of the Concurrent Provenance Graph.
//!
//! [`crate::graph::CpgBuilder`] is a *batch* builder: it holds every
//! thread's full execution sequence, clones all of it into the graph after
//! the run ends, and derives every edge in one offline pass. That is exactly
//! what INSPECTOR's parallel-provenance design avoids — so this module
//! provides the streaming alternative the runtime uses:
//!
//! * **Shards.** Sub-computations are ingested into `N` lock-striped shards
//!   keyed by [`ThreadId`] (`thread.index() % N`). A shard stores the
//!   per-thread sequences (moved in **by value** — no clone on the ingest
//!   path) and the control edges. The page-granularity write index lives in
//!   a second family of `N` stripes keyed by *page*, so concurrent
//!   producers touching disjoint data contend on neither family.
//! * **Partitioned synchronization state — no global lock.** The release
//!   index is striped by [`SyncObjectId`], parked acquires/readers are
//!   striped by the thread whose frontier they wait on, and per-thread
//!   ingest progress is published through a lock-free
//!   [`EpochFrontier`] array (one atomic epoch word plus a clock slot per
//!   thread). The common-case ingest therefore touches only its own node
//!   stripe, the page stripes its write set maps to, and at most one
//!   release stripe — there is no mutex every producer must take. Parking
//!   closes its race with the frontier publisher by re-checking the epoch
//!   under the wait-stripe lock; the publisher stores the epoch before
//!   taking the same stripe, so an entry is either parked while provably
//!   unmet or resolved by its own producer.
//! * **Ingest-time edges — all three kinds.** Control edges are emitted
//!   immediately (per-thread delivery is FIFO, so the predecessor is always
//!   there). Synchronization *and* data-dependence edges are resolved
//!   *eagerly* via the same clock-frontier argument: a sub-computation's
//!   vector clock pins exactly which releases (for an acquire) and which
//!   writers (for a reader) can precede it — a sub of thread `u` precedes
//!   it only if `α_u < clock[u]` — so once every thread `u` has delivered
//!   `clock[u]` sub-computations the candidate set is provably complete and
//!   the edges are emitted without ever being revoked. Readers/acquires
//!   whose frontier is still in flight are parked; parked entries resolve
//!   the moment a later ingest completes their frontier, off every lock on
//!   the ingesting producer's own thread.
//! * **Frontier-GC'd indexes.** A release or page-write entry is dead once
//!   it is *provably superseded* for every clock that can still query the
//!   index. The one-dimensional window argument: an entry of thread `u` at
//!   `α_e` with successor `α_{e'}` is selected by a destination `dst` only
//!   if `dst.clock[u]` lies in `(α_e + 1, α_{e'} + 1]` — anything larger
//!   prefers the successor, anything smaller does not see the entry at
//!   all. The GC therefore computes a **reference floor** (the
//!   componentwise minimum over every live thread's published clock and
//!   every parked entry's clock) and drops the prefix whose successors sit
//!   strictly below it. Index memory is O(objects × threads) and
//!   O(pages × threads) on unbounded runs, not O(events), and the
//!   end-of-run seal no longer tears down event-proportional indexes.
//! * **Batched ingest.** [`ShardedCpgBuilder::ingest_batch`] applies one
//!   thread's α-contiguous retirement batch while taking each stripe lock
//!   once per batch, so channel transport and lock traffic amortise across
//!   the batch ([`ingest`](ShardedCpgBuilder::ingest) is the batch of one).
//! * **O(edges-still-to-emit) seal.** [`ShardedCpgBuilder::seal`] only has
//!   to resolve whatever stayed parked (nothing, on complete runs — the
//!   last ingest already resolved it), fanning independent reader groups
//!   across a scoped thread pool, and then moves the nodes into the final
//!   [`Cpg`] via one sorted bulk build. End-of-run latency no longer
//!   scales with the number of sub-computations' dependences, only with
//!   the moves.
//! * **Bounded resident memory (spill).** With
//!   [`SpillSettings`] the builder keeps only an *active window* of
//!   sub-computations in memory: whenever a shard's resident count crosses
//!   the spill threshold, the consistent prefix of each of its threads —
//!   every sub whose causal frontier is fully delivered, i.e. exactly the
//!   region the frontier wait-index can never touch again — is encoded into
//!   the shard's append-only [`SpillStore`] together with the stripe-local
//!   (control + data) edges into it, and evicted. A cut is the unit of
//!   I/O: its records are staged back to back and committed with **one
//!   write**, and memory is touched only after that write succeeded, so a
//!   failed round leaves the shard as it was. The cut reads the epoch
//!   frontier lock-free (monotone, so a stale read only keeps a sub
//!   resident one extra round). The release and page-write indexes keep
//!   only `(α, clock)` entries, so spilled writers still resolve future
//!   readers; live snapshots replay the shard's segments to fault spilled
//!   prefixes back in; and [`seal`](ShardedCpgBuilder::seal) concatenates
//!   the segments back into the final graph instead of moving nodes,
//!   making peak resident memory O(active window) instead of O(trace
//!   length) (paper §VI).
//!
//! Lock order is `node stripe → page stripe → release stripe → wait
//! stripe`; no path takes any pair in the opposite order, no family is
//! taken twice at once, and no path ever holds two node stripes. The
//! streamed graph is node- and edge-identical to the batch result — the
//! same candidate-selection and dominance-pruning kernel
//! ([`crate::graph`]'s `prune_superseded_writers`) runs over the same
//! indexed data, only earlier — which `tests/streaming_equivalence.rs`, the
//! `incremental_data_edges` property suite, the `spill_equivalence` suite
//! and the `index_gc` suite enforce across workloads, thread counts,
//! delivery interleavings, spill thresholds and GC aggressiveness.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, MutexGuard};

use crate::clock::VectorClock;
use crate::event::SyncKind;
use crate::frontier::EpochFrontier;
use crate::graph::{
    ordered_before, prune_superseded_writers, Cpg, CpgBuilder, DependenceEdge, EdgeKind,
};
use crate::ids::{PageId, SubId, SyncObjectId, ThreadId};
use crate::pool;
use crate::spill::{ManifestWriter, Replay, SpillDurability, SpillSettings, SpillStore};
use crate::subcomputation::{PageSet, SubComputation, SyncPoint};

/// Default number of lock stripes.
const DEFAULT_SHARDS: usize = 8;

/// Default number of index appends a release/page stripe accumulates
/// between GC passes. Small enough to keep the indexes near their O(threads)
/// floor, large enough to amortise the reference-floor computation.
pub const DEFAULT_INDEX_GC_INTERVAL: usize = 64;

/// Counters describing how a streamed build progressed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Sub-computations ingested.
    pub ingested: u64,
    /// Synchronization edges resolved eagerly during ingestion.
    pub sync_resolved_at_ingest: u64,
    /// Synchronization edges resolved by the safety net in
    /// [`ShardedCpgBuilder::seal`]. Always zero for complete builds: once
    /// every producer has delivered everything (which callers must ensure
    /// before sealing), the final ingest resolves the last parked acquires.
    pub sync_resolved_at_seal: u64,
    /// Data-dependence edges resolved eagerly during ingestion (the
    /// reader's causal frontier was complete, pinning its last writers).
    pub data_resolved_at_ingest: u64,
    /// Data-dependence edges resolved by the seal-time safety net. Zero
    /// whenever every frontier was delivered before the seal — the claim
    /// the `incremental_data_edges` property suite asserts.
    pub data_resolved_at_seal: u64,
    /// Largest number of acquires ever parked while waiting for their causal
    /// frontier (a measure of how out-of-order delivery was).
    pub peak_parked_acquires: u64,
    /// Largest number of readers ever parked while waiting for their causal
    /// frontier.
    pub peak_parked_readers: u64,
    /// Release-index entries currently live (appended minus GC'd).
    pub release_entries_live: u64,
    /// Release-index entries the frontier GC dropped as provably
    /// superseded. `live + gcd` is the total ever appended.
    pub release_entries_gcd: u64,
    /// Page-write-index entries currently live.
    pub page_entries_live: u64,
    /// Page-write-index entries the frontier GC dropped.
    pub page_entries_gcd: u64,
    /// Sub-computations moved out of memory into the spill segments. Zero
    /// unless the builder was created with [`SpillSettings`].
    pub spilled_subs: u64,
    /// Bytes appended to the spill segments (record framing included).
    pub spill_bytes: u64,
    /// CPU time spent encoding and appending spill records.
    pub spill_time: Duration,
    /// Largest number of sub-computations ever resident in memory at once.
    /// With spilling enabled this is the measured active window — bounded by
    /// the threshold plus whatever the causal frontier kept pinned — rather
    /// than the trace length.
    pub peak_resident_subs: u64,
    /// Times the spill stage *degraded* instead of aborting: a spill write
    /// failed after bounded retries (ENOSPC, injected fault) and the shard
    /// fell back to in-memory retention, a store could not be created, or
    /// a seal-time replay hit unreadable/torn records. As long as the
    /// spilled data stayed readable, a fallback loses nothing — the shard
    /// replays its segments back into memory and the final graph is
    /// complete.
    pub spill_fallbacks: u64,
    /// `write` calls issued on spill segments: one per opened segment (its
    /// header) plus one per round commit attempt — never one per record.
    pub spill_writes: u64,
}

/// Debug-build profile of stripe-lock acquisitions, by family. All zeros in
/// release builds. There is no "global" family because the builder has no
/// global lock — the contention test in this module asserts the per-family
/// counts a pooled run is allowed to produce.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockCounts {
    /// Thread-keyed node stripe acquisitions.
    pub node: u64,
    /// Page-keyed write-index stripe acquisitions.
    pub page: u64,
    /// Object-keyed release stripe acquisitions.
    pub release: u64,
    /// Thread-keyed wait stripe acquisitions.
    pub wait: u64,
}

/// An acquire-terminated boundary whose successor sub-computation has been
/// ingested but whose causal frontier is not yet complete.
#[derive(Debug)]
struct PendingAcquire {
    /// The edge destination: the sub-computation that started right after
    /// the acquire returned.
    dst: SubId,
    /// The destination's vector clock (pins the candidate releases).
    clock: VectorClock,
    /// The acquired synchronization object.
    object: SyncObjectId,
}

/// A reading sub-computation whose data dependences cannot be pinned yet:
/// some thread in its causal frontier has not delivered far enough, so a
/// not-yet-ingested writer could still be one of its last writers.
#[derive(Debug)]
struct PendingReader {
    /// The edge destination: the reading sub-computation.
    dst: SubId,
    /// The reader's vector clock (pins the candidate writers).
    clock: VectorClock,
    /// The reader's read set in page order, so the pages inside each
    /// emitted edge match the batch builder's ordering exactly.
    read_set: PageSet,
}

/// One thread's stored execution sequence inside a shard: the live suffix
/// plus enough metadata about the spilled prefix to keep ingesting.
#[derive(Debug, Default)]
struct ThreadSeq {
    /// Number of sub-computations already spilled to disk; the live suffix
    /// starts at α = `base`.
    base: u64,
    /// Identity and terminator of the newest *spilled* sub-computation, so
    /// the next ingest can still emit its control edge and recognise an
    /// acquire-terminated predecessor after the prefix left memory.
    spilled_tail: Option<(SubId, Option<SyncPoint>)>,
    /// Resident sub-computations, in α order.
    live: Vec<SubComputation>,
    /// Length of the `live` prefix staged in the spill round in flight;
    /// zero outside [`ShardedCpgBuilder::spill_shard`].
    staged: usize,
}

/// Whether `id` is below its thread's spill cut: already on disk, or staged
/// to go there in the round in flight.
fn below_cut(sequences: &BTreeMap<ThreadId, ThreadSeq>, id: SubId) -> bool {
    sequences
        .get(&id.thread)
        .is_some_and(|seq| id.alpha < seq.base + seq.staged as u64)
}

impl ThreadSeq {
    /// Total sub-computations ingested for this thread (spilled + live).
    fn len(&self) -> u64 {
        self.base + self.live.len() as u64
    }

    /// Identity and terminator of the most recently ingested
    /// sub-computation, whether it is still resident or already spilled.
    fn last_info(&self) -> Option<(SubId, Option<SyncPoint>)> {
        self.live
            .last()
            .map(|sub| (sub.id, sub.terminator))
            .or(self.spilled_tail)
    }
}

/// One thread-keyed lock stripe: node storage plus the control and data
/// edges emitted on ingest.
#[derive(Debug, Default)]
struct Shard {
    /// Per-thread execution sequences in ingest (= α) order.
    sequences: BTreeMap<ThreadId, ThreadSeq>,
    /// Intra-thread program-order edges, emitted on ingest.
    control_edges: Vec<DependenceEdge>,
    /// Data-dependence edges into readers stored in this stripe, emitted
    /// when each reader's frontier completed. Kept stripe-local so the
    /// common resolve-at-own-ingest path appends under the lock it already
    /// holds instead of re-taking any shared stripe.
    data_edges: Vec<DependenceEdge>,
    /// Append-only on-disk store for sealed-off prefixes (`None` when
    /// spilling is disabled).
    spill: Option<SpillStore>,
    /// Ingests into this stripe since the last spill attempt. Attempts are
    /// amortised to one per `threshold` ingests so the cut computation is
    /// not paid per ingest — neither on the happy path (batch ~threshold
    /// nodes per attempt instead of one) nor when the stripe head is
    /// pinned by an incomplete frontier and every attempt would be a
    /// no-op.
    ingests_since_spill: usize,
    /// Set when a spill write failed *and* the already-spilled records
    /// could not be replayed back into memory: the store is kept so the
    /// seal can retry the read, but no further spill attempt is made.
    spill_disabled: bool,
}

/// One writing sub-computation in the page index: its α and its clock,
/// the latter `Arc`-shared across every page the sub wrote.
type WriterEntry = (u64, Arc<VectorClock>);

/// One page-keyed lock stripe of the write index.
#[derive(Debug, Default)]
struct PageShard {
    /// Write index: page → writing thread → [`WriterEntry`] per writing
    /// sub-computation, in execution order. Clocks are stored so a reader
    /// can be resolved without touching the node stripes (no cross-family
    /// lock nesting during resolution); one `Arc`'d clock is shared by all
    /// of a sub-computation's entries, so a wide write set costs one clone.
    writers: HashMap<PageId, BTreeMap<ThreadId, Vec<WriterEntry>>>,
    /// Entries appended since the last GC pass over this stripe.
    appended_since_gc: usize,
}

/// One object-keyed lock stripe of the release index, with the
/// synchronization edges resolved against it (appended under the same lock
/// the resolution already holds).
#[derive(Debug, Default)]
struct ReleaseShard {
    /// Release index: object → releasing thread → `(α, clock)` of each
    /// release-terminated sub-computation, in execution order.
    releases: HashMap<SyncObjectId, BTreeMap<ThreadId, Vec<(u64, VectorClock)>>>,
    /// Synchronization edges emitted so far against this stripe's objects.
    edges: Vec<DependenceEdge>,
    /// Entries appended since the last GC pass over this stripe.
    appended_since_gc: usize,
}

impl ReleaseShard {
    /// Emits the synchronization edges into `p.dst`, mirroring the batch
    /// builder's candidate selection exactly: per releasing thread, the
    /// latest release that happens-before the acquirer; dominated candidates
    /// dropped.
    fn resolve(&mut self, p: &PendingAcquire) -> u64 {
        let Some(by_thread) = self.releases.get(&p.object) else {
            return 0;
        };
        let candidates: Vec<(SubId, &VectorClock)> = by_thread
            .iter()
            .filter(|(&t, _)| t != p.dst.thread)
            .filter_map(|(&t, rels)| {
                // happens-before is monotone along a thread's sequence, so
                // the preceding releases form a prefix (same argument as
                // `CpgBuilder::latest_preceding`).
                let prefix = rels.partition_point(|(_, c)| c.happens_before(&p.clock));
                if prefix == 0 {
                    None
                } else {
                    let (alpha, clock) = &rels[prefix - 1];
                    Some((SubId::new(t, *alpha), clock))
                }
            })
            .collect();
        let mut emitted = 0;
        for (id, clock) in &candidates {
            let dominated = candidates
                .iter()
                .any(|(other, oc)| other != id && clock.happens_before(oc));
            if !dominated {
                self.edges.push(DependenceEdge {
                    src: *id,
                    dst: p.dst,
                    kind: EdgeKind::Synchronization,
                    object: Some(p.object),
                    pages: Vec::new(),
                });
                emitted += 1;
            }
        }
        emitted
    }
}

/// Parked entries indexed by the *one* unmet `(thread, frontier)`
/// requirement they are registered under.
///
/// An entry's causal frontier is a conjunction of per-thread thresholds;
/// instead of rescanning every parked entry on every ingest (quadratic as
/// soon as delivery skews — e.g. one pool worker running a full scheduler
/// quantum ahead of another), an entry is parked under its first unmet
/// threshold and re-examined only when that threshold is crossed, at which
/// point it either resolves or re-parks under its next unmet threshold.
/// Total re-examinations per entry are bounded by its clock width.
#[derive(Debug)]
struct WaitIndex<T> {
    /// thread → needed frontier value → entries waiting for exactly that.
    by_thread: HashMap<ThreadId, BTreeMap<u64, Vec<T>>>,
    len: usize,
}

impl<T> Default for WaitIndex<T> {
    fn default() -> Self {
        WaitIndex {
            by_thread: HashMap::new(),
            len: 0,
        }
    }
}

impl<T> WaitIndex<T> {
    /// Parks `entry` until `frontier[thread] >= needed`.
    fn park(&mut self, thread: ThreadId, needed: u64, entry: T) {
        self.by_thread
            .entry(thread)
            .or_default()
            .entry(needed)
            .or_default()
            .push(entry);
        self.len += 1;
    }

    /// Removes and returns every entry whose registered requirement is met
    /// by `frontier[thread] == reached`.
    fn take_met(&mut self, thread: ThreadId, reached: u64) -> Vec<T> {
        let Some(tree) = self.by_thread.get_mut(&thread) else {
            return Vec::new();
        };
        if tree.first_key_value().is_none_or(|(&k, _)| k > reached) {
            return Vec::new();
        }
        let rest = tree.split_off(&(reached + 1));
        let met: Vec<T> = std::mem::replace(tree, rest)
            .into_values()
            .flatten()
            .collect();
        self.len -= met.len();
        met
    }

    /// Removes and returns everything still parked (the seal-time path).
    fn drain_all(&mut self) -> Vec<T> {
        let drained: Vec<T> = std::mem::take(&mut self.by_thread)
            .into_values()
            .flat_map(|tree| tree.into_values())
            .flatten()
            .collect();
        self.len = 0;
        drained
    }

    /// Runs `f` over every parked entry (the GC reference-floor scan).
    fn for_each(&self, mut f: impl FnMut(&T)) {
        for tree in self.by_thread.values() {
            for entries in tree.values() {
                for entry in entries {
                    f(entry);
                }
            }
        }
    }
}

/// One thread-keyed wait stripe: the acquires and readers parked on the
/// frontiers of the threads this stripe covers.
#[derive(Debug, Default)]
struct WaitShard {
    acquires: WaitIndex<PendingAcquire>,
    readers: WaitIndex<PendingReader>,
}

/// The first `(thread, threshold)` requirement of `clock` that the epoch
/// frontier does not meet yet, ignoring the entry's own thread (its own
/// prefix is delivered by FIFO). `None` means the causal frontier is
/// complete: every sub-computation that can precede one carrying this clock
/// has been ingested — a sub of thread `u` precedes it iff its clock is
/// dominated, which forces its α below `clock[u]`, so frontier coverage of
/// the clock is completeness. Epoch reads are lock-free; monotonicity makes
/// a `None` answer stable forever.
fn first_unmet(
    frontier: &EpochFrontier,
    own: ThreadId,
    clock: &VectorClock,
) -> Option<(ThreadId, u64)> {
    clock
        .iter()
        .find(|&(u, k)| u != own && k != 0 && frontier.epoch(u) < k)
}

/// RAII registration of an in-flight `ingest()` call, backing the quiesce
/// guard in [`ShardedCpgBuilder::seal`].
struct ProducerGuard<'a>(&'a AtomicUsize);

impl<'a> ProducerGuard<'a> {
    fn enter(counter: &'a AtomicUsize) -> Self {
        counter.fetch_add(1, Ordering::AcqRel);
        ProducerGuard(counter)
    }
}

impl Drop for ProducerGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Lock families, for the debug-build acquisition profile.
#[cfg(debug_assertions)]
mod lock_family {
    pub const NODE: usize = 0;
    pub const PAGE: usize = 1;
    pub const RELEASE: usize = 2;
    pub const WAIT: usize = 3;
}

/// Streaming, lock-striped builder producing the same [`Cpg`] as
/// [`CpgBuilder`] without buffering the whole trace twice.
///
/// Ingestion is internally synchronized: any number of producer threads may
/// call [`ingest`](Self::ingest) / [`ingest_batch`](Self::ingest_batch)
/// concurrently, as long as each *thread's* sub-computations arrive in α
/// order (which a per-thread FIFO hand-off — e.g. the runtime's
/// lane-per-worker ingest pool routing by `ThreadId % pool` — guarantees).
///
/// With index GC enabled (the default), every thread must be made known to
/// the builder via [`announce_thread`](Self::announce_thread) before its
/// delivery can lag behind other threads': an unannounced thread that has
/// not delivered anything yet is invisible to the GC's reference floor, so
/// entries its late-delivered sub-computations still reference (through
/// inherited or joined clock components) could be dropped. The runtime
/// announces every context at creation — and spawned children additionally
/// from the parent, with the inherited clock, *before* the spawn release.
/// Workloads where no thread's clocks ever reference a later-delivered
/// thread (e.g. sequentially recorded generators) are safe without
/// announcements.
#[derive(Debug)]
pub struct ShardedCpgBuilder {
    /// Thread-keyed node stripes.
    shards: Vec<Mutex<Shard>>,
    /// Page-keyed write-index stripes (same stripe count as `shards`).
    pages: Vec<Mutex<PageShard>>,
    /// Object-keyed release stripes (same stripe count as `shards`).
    releases: Vec<Mutex<ReleaseShard>>,
    /// Thread-keyed wait stripes for parked acquires/readers.
    waits: Vec<Mutex<WaitShard>>,
    /// Lock-free per-thread frontier + published-clock array.
    frontier: EpochFrontier,
    /// Spill configuration; `None` (or threshold 0) keeps every node
    /// resident until the seal.
    spill: Option<SpillSettings>,
    /// Index appends per release/page stripe between GC passes
    /// (0 disables index GC).
    index_gc_interval: usize,
    /// Sub-computations ingested in the current build.
    ingested: AtomicU64,
    /// Synchronization edges resolved during ingestion.
    sync_at_ingest: AtomicU64,
    /// Synchronization edges the seal-time safety net resolved.
    sync_at_seal: AtomicU64,
    /// Data edges resolved during ingestion (updated lock-free from the
    /// resolution paths).
    data_at_ingest: AtomicU64,
    /// Data edges the seal-time safety net resolved.
    data_at_seal: AtomicU64,
    /// Currently parked acquires / readers, and their high-water marks.
    parked_acquires: AtomicU64,
    parked_readers: AtomicU64,
    peak_parked_acquires: AtomicU64,
    peak_parked_readers: AtomicU64,
    /// Entries popped off a wait stripe whose resolution has not finished:
    /// they are in no index, so a nonzero count vetoes the GC floor.
    resolving: AtomicU64,
    /// Monotone pop counter. A pop that starts *and* finishes (possibly
    /// re-parking its entries into already-scanned stripes) while the GC
    /// floor sweep is in progress would be invisible to both `resolving`
    /// checks; the generation comparison spanning the sweep vetoes such
    /// rounds.
    pop_generation: AtomicU64,
    /// Live / GC'd release-index entry counts.
    release_entries: AtomicU64,
    release_entries_gcd: AtomicU64,
    /// Live / GC'd page-write-index entry counts.
    page_entries: AtomicU64,
    page_entries_gcd: AtomicU64,
    /// Sub-computations spilled to disk in the current build.
    spilled_subs: AtomicU64,
    /// Bytes appended to the spill segments in the current build.
    spill_bytes: AtomicU64,
    /// Nanoseconds spent in the spill stage in the current build.
    spill_time_nanos: AtomicU64,
    /// Sub-computations currently resident in the shards.
    resident: AtomicU64,
    /// Largest `resident` value observed in the current build.
    peak_resident: AtomicU64,
    /// Times the spill stage degraded to in-memory retention in the
    /// current build (write failure after retries, store creation failure,
    /// unreadable or torn records at replay).
    spill_fallbacks: AtomicU64,
    /// Segment `write` calls issued in the current build.
    spill_writes: AtomicU64,
    /// Spill-write attempts since the injection counter was armed; only
    /// advanced while `fail_spill_write_at` is nonzero.
    spill_appends: AtomicU64,
    /// Fault injection: fail the Nth (1-based) spill-write attempt and
    /// every later one, like a disk that filled up and stayed full.
    /// `0` = disabled. Survives seals (it is configuration, not a counter).
    fail_spill_write_at: AtomicU64,
    /// Per-session manifest publisher (`None` when spilling is disabled).
    spill_manifest: Option<ManifestWriter>,
    /// Fault injection: simulate a whole-process crash after the Nth spill
    /// record — record N+1 reaches the disk as a torn frame, the manifest
    /// freezes, and every store detaches keeping its files, exactly the
    /// on-disk state a dead process leaves behind.
    /// `0` = disabled. Survives seals (it is configuration, not a counter).
    crash_spill_at: AtomicU64,
    /// Spill records staged so far; only advanced while
    /// `crash_spill_at` is armed.
    spill_record_count: AtomicU64,
    /// Set once the injected crash fired.
    spill_crashed: AtomicBool,
    /// Session-requested retention: keep spill artifacts (segments plus
    /// manifest) at seal even though the seal itself completes. Set by
    /// the session when the run degraded before the seal.
    seal_retain: AtomicBool,
    /// Final counters of the most recently sealed build.
    last_sealed: Mutex<Option<IngestStats>>,
    /// Number of `ingest()` calls currently in flight (quiesce guard).
    active_producers: AtomicUsize,
    /// Per-family lock-acquisition counters (debug builds only).
    #[cfg(debug_assertions)]
    lock_profile: [AtomicU64; 4],
}

impl Default for ShardedCpgBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedCpgBuilder {
    /// Creates a builder with the default stripe count.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// Creates a builder with `shards` lock stripes (at least one) in the
    /// thread-keyed node family, the page-keyed index family, the
    /// object-keyed release family and the thread-keyed wait family.
    pub fn with_shards(shards: usize) -> Self {
        Self::with_shards_and_spill(shards, None)
    }

    /// Creates a builder with `shards` lock stripes and, when `spill` names
    /// a positive threshold, an on-disk [`SpillStore`] per shard under
    /// `spill.dir`. The directory should be dedicated to this builder —
    /// segment file names only encode the shard index. A shard whose store
    /// cannot be created keeps its nodes in memory instead and the failure
    /// is counted in [`IngestStats::spill_fallbacks`].
    pub fn with_shards_and_spill(shards: usize, spill: Option<SpillSettings>) -> Self {
        let shards = shards.max(1);
        let spill = spill.filter(|s| s.threshold > 0);
        let mut create_fallbacks = 0u64;
        let shard_stripes: Vec<Mutex<Shard>> = (0..shards)
            .map(|i| {
                let store = spill.as_ref().and_then(|s| {
                    SpillStore::create(s, i)
                        .inspect_err(|_| create_fallbacks += 1)
                        .ok()
                });
                Mutex::new(Shard {
                    spill: store,
                    ..Shard::default()
                })
            })
            .collect();
        let spill_manifest = spill
            .as_ref()
            .map(|s| ManifestWriter::new(&s.dir, s.session_id, s.durability));
        if let Some(manifest) = spill_manifest.as_ref() {
            // The stores above created the session directory; stamp it with
            // the (empty) manifest immediately so even a crash during the
            // very first append leaves one behind for recovery.
            let _ = manifest.publish();
        }
        ShardedCpgBuilder {
            shards: shard_stripes,
            pages: (0..shards)
                .map(|_| Mutex::new(PageShard::default()))
                .collect(),
            releases: (0..shards)
                .map(|_| Mutex::new(ReleaseShard::default()))
                .collect(),
            waits: (0..shards)
                .map(|_| Mutex::new(WaitShard::default()))
                .collect(),
            frontier: EpochFrontier::new(),
            spill,
            index_gc_interval: DEFAULT_INDEX_GC_INTERVAL,
            ingested: AtomicU64::new(0),
            sync_at_ingest: AtomicU64::new(0),
            sync_at_seal: AtomicU64::new(0),
            data_at_ingest: AtomicU64::new(0),
            data_at_seal: AtomicU64::new(0),
            parked_acquires: AtomicU64::new(0),
            parked_readers: AtomicU64::new(0),
            peak_parked_acquires: AtomicU64::new(0),
            peak_parked_readers: AtomicU64::new(0),
            resolving: AtomicU64::new(0),
            pop_generation: AtomicU64::new(0),
            release_entries: AtomicU64::new(0),
            release_entries_gcd: AtomicU64::new(0),
            page_entries: AtomicU64::new(0),
            page_entries_gcd: AtomicU64::new(0),
            spilled_subs: AtomicU64::new(0),
            spill_bytes: AtomicU64::new(0),
            spill_time_nanos: AtomicU64::new(0),
            resident: AtomicU64::new(0),
            peak_resident: AtomicU64::new(0),
            spill_fallbacks: AtomicU64::new(create_fallbacks),
            spill_writes: AtomicU64::new(0),
            spill_appends: AtomicU64::new(0),
            fail_spill_write_at: AtomicU64::new(0),
            spill_manifest,
            crash_spill_at: AtomicU64::new(0),
            spill_record_count: AtomicU64::new(0),
            spill_crashed: AtomicBool::new(false),
            seal_retain: AtomicBool::new(false),
            last_sealed: Mutex::new(None),
            active_producers: AtomicUsize::new(0),
            #[cfg(debug_assertions)]
            lock_profile: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Sets how many index appends a release/page stripe accumulates
    /// between GC passes; `0` disables index GC entirely (the pre-GC
    /// behaviour: indexes grow with the event count). Exclusive access,
    /// so call it before the builder is shared with producers.
    pub fn set_index_gc_interval(&mut self, every: usize) {
        self.index_gc_interval = every;
    }

    /// The configured index-GC interval (0 = disabled).
    pub fn index_gc_interval(&self) -> usize {
        self.index_gc_interval
    }

    /// The spill threshold, when spilling is enabled.
    fn spill_threshold(&self) -> Option<usize> {
        self.spill.as_ref().map(|s| s.threshold)
    }

    /// The stripe a thread's sub-computations are stored in.
    pub fn shard_for(&self, thread: ThreadId) -> usize {
        thread.index() % self.shards.len()
    }

    /// The stripe a page's write index lives in.
    fn page_stripe(&self, page: PageId) -> usize {
        page.number() as usize % self.pages.len()
    }

    /// The stripe a synchronization object's releases live in.
    fn release_stripe(&self, object: SyncObjectId) -> usize {
        object.raw() as usize % self.releases.len()
    }

    /// The stripe entries waiting on `thread`'s frontier are parked in.
    fn wait_stripe(&self, thread: ThreadId) -> usize {
        thread.index() % self.waits.len()
    }

    #[cfg(debug_assertions)]
    fn note_lock(&self, family: usize) {
        self.lock_profile[family].fetch_add(1, Ordering::Relaxed);
    }

    fn lock_shard(&self, index: usize) -> MutexGuard<'_, Shard> {
        #[cfg(debug_assertions)]
        self.note_lock(lock_family::NODE);
        self.shards[index].lock()
    }

    fn lock_page(&self, index: usize) -> MutexGuard<'_, PageShard> {
        #[cfg(debug_assertions)]
        self.note_lock(lock_family::PAGE);
        self.pages[index].lock()
    }

    fn lock_release(&self, index: usize) -> MutexGuard<'_, ReleaseShard> {
        #[cfg(debug_assertions)]
        self.note_lock(lock_family::RELEASE);
        self.releases[index].lock()
    }

    fn lock_wait(&self, index: usize) -> MutexGuard<'_, WaitShard> {
        #[cfg(debug_assertions)]
        self.note_lock(lock_family::WAIT);
        self.waits[index].lock()
    }

    /// The debug-build per-family lock-acquisition counts (all zeros in
    /// release builds). Cumulative across builds; the contention test uses
    /// a fresh builder per scenario.
    pub fn lock_counts(&self) -> LockCounts {
        #[cfg(debug_assertions)]
        {
            LockCounts {
                node: self.lock_profile[lock_family::NODE].load(Ordering::Relaxed),
                page: self.lock_profile[lock_family::PAGE].load(Ordering::Relaxed),
                release: self.lock_profile[lock_family::RELEASE].load(Ordering::Relaxed),
                wait: self.lock_profile[lock_family::WAIT].load(Ordering::Relaxed),
            }
        }
        #[cfg(not(debug_assertions))]
        {
            LockCounts::default()
        }
    }

    /// Groups a page set by index stripe, so a wide set locks each touched
    /// stripe once instead of once per page. Shared by write publication
    /// and reader resolution.
    fn group_by_stripe<'a>(
        &self,
        pages: impl IntoIterator<Item = &'a PageId>,
    ) -> BTreeMap<usize, Vec<PageId>> {
        let mut by_stripe: BTreeMap<usize, Vec<PageId>> = BTreeMap::new();
        for &page in pages {
            by_stripe
                .entry(self.page_stripe(page))
                .or_default()
                .push(page);
        }
        by_stripe
    }

    /// Snapshot of every builder-level counter.
    fn counters_snapshot(&self) -> IngestStats {
        IngestStats {
            ingested: self.ingested.load(Ordering::Acquire),
            sync_resolved_at_ingest: self.sync_at_ingest.load(Ordering::Acquire),
            sync_resolved_at_seal: self.sync_at_seal.load(Ordering::Acquire),
            data_resolved_at_ingest: self.data_at_ingest.load(Ordering::Acquire),
            data_resolved_at_seal: self.data_at_seal.load(Ordering::Acquire),
            peak_parked_acquires: self.peak_parked_acquires.load(Ordering::Acquire),
            peak_parked_readers: self.peak_parked_readers.load(Ordering::Acquire),
            release_entries_live: self.release_entries.load(Ordering::Acquire),
            release_entries_gcd: self.release_entries_gcd.load(Ordering::Acquire),
            page_entries_live: self.page_entries.load(Ordering::Acquire),
            page_entries_gcd: self.page_entries_gcd.load(Ordering::Acquire),
            spilled_subs: self.spilled_subs.load(Ordering::Acquire),
            spill_bytes: self.spill_bytes.load(Ordering::Acquire),
            spill_time: Duration::from_nanos(self.spill_time_nanos.load(Ordering::Acquire)),
            peak_resident_subs: self.peak_resident.load(Ordering::Acquire),
            spill_fallbacks: self.spill_fallbacks.load(Ordering::Acquire),
            spill_writes: self.spill_writes.load(Ordering::Acquire),
        }
    }

    /// Arms deterministic spill fault injection: the `nth` (1-based)
    /// spill-write attempt — and every attempt after it — fails, modelling
    /// a disk that filled up and stayed full. A round is one write, so
    /// attempts count **rounds** (and their retries), not records. `0`
    /// disarms. Callable on the shared builder; writes already in flight
    /// may complete first.
    pub fn inject_spill_write_failure(&self, nth: u64) {
        self.fail_spill_write_at.store(nth, Ordering::Release);
    }

    /// Arms deterministic crash injection: the (`nth`+1)-th spill
    /// **record** (1-based, across all shards) is the one the process dies
    /// in — its round's write carries the whole frames staged before it
    /// and only a torn prefix of that one — and then the builder behaves
    /// as if the process died: the manifest freezes where it was, every
    /// store detaches keeping its files, and the seal retains all spill
    /// artifacts for offline recovery. `0` disarms. The build itself still
    /// completes, degraded: everything spilled is restored into memory
    /// first, so the sealed graph loses nothing in-process.
    pub fn inject_spill_crash(&self, nth: u64) {
        self.crash_spill_at.store(nth, Ordering::Release);
    }

    /// Whether the injected spill crash has fired in the current build.
    pub fn spill_crash_triggered(&self) -> bool {
        self.spill_crashed.load(Ordering::Acquire)
    }

    /// Asks the seal to keep all spill artifacts (segments + manifest) on
    /// disk even though it completes normally. The session sets this when
    /// the run degraded before the seal, so forensic material survives.
    pub fn set_seal_retain(&self, retain: bool) {
        self.seal_retain.store(retain, Ordering::Release);
    }

    /// The spill directory, when spilling is enabled.
    pub fn spill_directory(&self) -> Option<&Path> {
        self.spill.as_ref().map(|s| s.dir.as_path())
    }

    /// Counts one staged spill record against the armed crash point.
    /// Returns `true` when this record is the one that "kills" the
    /// process. Costs one atomic load while disarmed.
    fn spill_crash_due(&self) -> bool {
        let at = self.crash_spill_at.load(Ordering::Acquire);
        if at == 0 {
            return false;
        }
        self.spill_record_count.fetch_add(1, Ordering::AcqRel) + 1 > at
    }

    /// Runs one round's write with bounded retries. Injected failures
    /// consume the same attempt budget as real ones. Returns `false` when
    /// the write never succeeded — the caller falls back to in-memory
    /// retention.
    fn try_spill_append(&self, mut attempt: impl FnMut() -> std::io::Result<()>) -> bool {
        const BACKOFF_MICROS: [u64; 3] = [0, 50, 200];
        for backoff in BACKOFF_MICROS {
            if backoff > 0 {
                std::thread::sleep(Duration::from_micros(backoff));
            }
            let fail_at = self.fail_spill_write_at.load(Ordering::Acquire);
            if fail_at > 0 {
                let n = self.spill_appends.fetch_add(1, Ordering::AcqRel) + 1;
                if n >= fail_at {
                    continue;
                }
            }
            if attempt().is_ok() {
                return true;
            }
        }
        false
    }

    /// Counters of the build currently in progress (reset by
    /// [`seal`](Self::seal)).
    pub fn stats(&self) -> IngestStats {
        self.counters_snapshot()
    }

    /// Final counters of the most recently sealed build, if any. Unlike
    /// [`stats`](Self::stats) this includes the seal pass itself and is not
    /// affected by a subsequent build starting.
    pub fn last_sealed_stats(&self) -> Option<IngestStats> {
        *self.last_sealed.lock()
    }

    /// Number of sub-computations ingested so far.
    pub fn ingested_nodes(&self) -> u64 {
        self.ingested.load(Ordering::Acquire)
    }

    /// Makes a not-yet-ingesting thread visible to the index GC's reference
    /// floor, carrying the clock it inherits from its creator. The runtime
    /// calls this at thread creation, *before* the creating thread emits
    /// any post-spawn provenance: a spawned thread's sub-computations carry
    /// the creator's clock components, and until the newborn publishes its
    /// own clock only this announcement keeps the GC from dropping index
    /// entries it can still reference. Threads whose first sub-computation
    /// carries no foreign clock components need no announcement.
    pub fn announce_thread(&self, thread: ThreadId, inherited: &VectorClock) {
        self.frontier.announce(thread, inherited);
    }

    /// Ingests one retired sub-computation **by value** — the batch of one;
    /// see [`ingest_batch`](Self::ingest_batch). A reused thread-local
    /// buffer keeps this path allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if a thread's sub-computations are delivered out of α order.
    pub fn ingest(&self, sub: SubComputation) {
        thread_local! {
            static SINGLE: std::cell::RefCell<Vec<SubComputation>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        SINGLE.with(|buf| {
            let mut buf = buf.borrow_mut();
            // A panicking ingest (α-order violation) leaves its sub behind;
            // clear on entry so the next call from this thread cannot form
            // a phantom batch with it.
            buf.clear();
            buf.push(sub);
            self.ingest_run(&mut buf);
        });
    }

    /// Ingests one thread's α-contiguous batch of retired sub-computations
    /// **by value**: one node-stripe lock for the whole batch, each touched
    /// page stripe locked once per batch, one release-stripe lock per
    /// release. Control edges are applied immediately; the release and page
    /// write indexes are updated; any synchronization or data-dependence
    /// edge whose causal frontier became complete — a batch member's own,
    /// or one parked earlier — is emitted before the call returns.
    ///
    /// # Panics
    ///
    /// Panics if the batch mixes threads, is not contiguous in α, or is
    /// delivered out of α order with respect to earlier ingests.
    pub fn ingest_batch(&self, mut batch: Vec<SubComputation>) {
        self.ingest_run(&mut batch);
    }

    /// The ingest body: drains `batch` (leaving its capacity to the
    /// caller, which is what keeps [`ingest`](Self::ingest) reusing one
    /// buffer).
    fn ingest_run(&self, batch: &mut Vec<SubComputation>) {
        if batch.is_empty() {
            return;
        }
        let _quiesce = ProducerGuard::enter(&self.active_producers);
        let thread = batch[0].id.thread;
        let first_alpha = batch[0].id.alpha;
        let batch_len = batch.len();
        for (i, sub) in batch.iter().enumerate() {
            assert_eq!(
                sub.id.thread, thread,
                "an ingest batch must carry a single thread's sub-computations"
            );
            assert_eq!(
                sub.id.alpha,
                first_alpha + i as u64,
                "an ingest batch must be contiguous in α"
            );
        }
        let delivered = first_alpha + batch_len as u64;

        let mut popped_acquires: Vec<PendingAcquire> = Vec::new();
        let mut popped_readers: Vec<PendingReader> = Vec::new();
        {
            // Lock order: the node stripe is held across the whole batch
            // (two producers delivering the same thread's consecutive
            // sub-computations serialize here, so the frontier publication
            // below stays in α order); page, release and wait stripes are
            // taken transiently underneath it, never two of one family at
            // once and never in reverse order.
            let mut guard = self.lock_shard(self.shard_for(thread));
            let shard = &mut *guard;
            let (stored, mut prev_info) = {
                let seq = shard.sequences.entry(thread).or_default();
                (seq.len(), seq.last_info())
            };
            assert_eq!(
                stored, first_alpha,
                "sub-computations of {thread} must be ingested in α order"
            );

            // Control edges (per-thread delivery is FIFO, so the
            // predecessor is always known; it may already have been
            // spilled — its identity lives on in the sequence's tail
            // metadata).
            let first_prev_terminator = prev_info.and_then(|(_, terminator)| terminator);
            for sub in batch.iter() {
                if let Some((prev_id, _)) = prev_info {
                    shard.control_edges.push(DependenceEdge {
                        src: prev_id,
                        dst: sub.id,
                        kind: EdgeKind::Control,
                        object: None,
                        pages: Vec::new(),
                    });
                }
                prev_info = Some((sub.id, sub.terminator));
            }

            // Publish the batch's writes into the page-striped index
            // *before* the frontier advance below: the moment the epoch
            // covers an α, every write of that α is queryable by a
            // resolving reader. Publishing *early* (before the epoch
            // covers it) is equally safe — candidate selection compares
            // exact clocks/αs, so an entry can never be chosen by a reader
            // it does not happen-before. Each touched stripe is locked
            // once for the whole batch, and all of a sub's entries share
            // one Arc'd clock.
            let mut writes_by_stripe: BTreeMap<usize, Vec<(PageId, u64, Arc<VectorClock>)>> =
                BTreeMap::new();
            for sub in batch.iter() {
                if sub.write_set.is_empty() {
                    continue;
                }
                let clock = Arc::new(sub.clock.clone());
                for &page in &sub.write_set {
                    writes_by_stripe
                        .entry(self.page_stripe(page))
                        .or_default()
                        .push((page, sub.id.alpha, Arc::clone(&clock)));
                }
            }
            for (index, writes) in writes_by_stripe {
                let appended = writes.len();
                let mut stripe = self.lock_page(index);
                for (page, alpha, clock) in writes {
                    stripe
                        .writers
                        .entry(page)
                        .or_default()
                        .entry(thread)
                        .or_default()
                        .push((alpha, clock));
                }
                self.page_entries
                    .fetch_add(appended as u64, Ordering::AcqRel);
                stripe.appended_since_gc += appended;
                if self.index_gc_interval > 0 && stripe.appended_since_gc >= self.index_gc_interval
                {
                    stripe.appended_since_gc = 0;
                    self.gc_index_stripe(
                        &mut stripe.writers,
                        |e| e.0,
                        &self.page_entries,
                        &self.page_entries_gcd,
                    );
                }
            }

            // Release publication, likewise before the frontier covers the
            // releasing sub-computations.
            for sub in batch.iter() {
                let released = sub
                    .terminator
                    .filter(|sp| matches!(sp.kind, SyncKind::Release | SyncKind::ReleaseAcquire))
                    .map(|sp| sp.object);
                if let Some(object) = released {
                    let mut stripe = self.lock_release(self.release_stripe(object));
                    stripe
                        .releases
                        .entry(object)
                        .or_default()
                        .entry(thread)
                        .or_default()
                        .push((sub.id.alpha, sub.clock.clone()));
                    self.release_entries.fetch_add(1, Ordering::AcqRel);
                    stripe.appended_since_gc += 1;
                    if self.index_gc_interval > 0
                        && stripe.appended_since_gc >= self.index_gc_interval
                    {
                        stripe.appended_since_gc = 0;
                        self.gc_index_stripe(
                            &mut stripe.releases,
                            |e| e.0,
                            &self.release_entries,
                            &self.release_entries_gcd,
                        );
                    }
                }
            }

            // File each member: publish its clock first — the GC floor
            // must cover a sub-computation *before* it can resolve
            // anything — then resolve or park its acquire, and its reader
            // side. A reader whose frontier is complete resolves in place,
            // borrowing the sub (still holding our node stripe but no
            // shared stripe; its clock and read set are only cloned when
            // it actually has to park); candidates are exact, so resolving
            // member i before member j > i publishes nothing wrong — j's
            // entries can never precede i.
            self.ingested.fetch_add(batch_len as u64, Ordering::AcqRel);
            let mut prev_terminator = first_prev_terminator;
            for sub in batch.iter() {
                self.frontier.publish_clock(thread, &sub.clock);
                // The edge target of an acquire is the sub-computation
                // that *starts* after the acquire returns — i.e. this one,
                // whenever its predecessor ended in an acquire.
                let acquired = prev_terminator
                    .filter(|sp| matches!(sp.kind, SyncKind::Acquire | SyncKind::ReleaseAcquire))
                    .map(|sp| sp.object);
                prev_terminator = sub.terminator;
                if let Some(object) = acquired {
                    self.file_acquire(PendingAcquire {
                        dst: sub.id,
                        clock: sub.clock.clone(),
                        object,
                    });
                }
                if !sub.read_set.is_empty() {
                    let mut ready = false;
                    match first_unmet(&self.frontier, thread, &sub.clock) {
                        None => ready = true,
                        Some(_) => {
                            let pending = PendingReader {
                                dst: sub.id,
                                clock: sub.clock.clone(),
                                read_set: sub.read_set.clone(),
                            };
                            // The frontier may cross the threshold while
                            // the parking loop takes the wait stripe; the
                            // entry then comes straight back and resolves
                            // borrowed, like the fast path.
                            if self.try_park_reader(pending).is_some() {
                                ready = true;
                            }
                        }
                    }
                    if ready {
                        let emitted = self.resolve_reader_into(
                            sub.id,
                            &sub.clock,
                            &sub.read_set,
                            &mut shard.data_edges,
                        );
                        self.data_at_ingest.fetch_add(emitted, Ordering::AcqRel);
                    }
                }
            }

            // The epoch now covers the whole batch: its writes and
            // releases are published, so other producers' readers and
            // acquirers may pin candidates in them from here on.
            self.frontier.advance(thread, delivered);

            // Entries parked on this thread's frontier that the batch
            // completed. The resolving refcount rises before the stripe
            // unlocks so the GC floor never loses sight of a popped entry.
            {
                let mut ws = self.lock_wait(self.wait_stripe(thread));
                let acquires = ws.acquires.take_met(thread, delivered);
                let readers = ws.readers.take_met(thread, delivered);
                if !acquires.is_empty() || !readers.is_empty() {
                    self.resolving
                        .fetch_add((acquires.len() + readers.len()) as u64, Ordering::AcqRel);
                    self.pop_generation.fetch_add(1, Ordering::AcqRel);
                    self.parked_acquires
                        .fetch_sub(acquires.len() as u64, Ordering::AcqRel);
                    self.parked_readers
                        .fetch_sub(readers.len() as u64, Ordering::AcqRel);
                    popped_acquires = acquires;
                    popped_readers = readers;
                }
            }

            // Store the batch (draining the caller's buffer, keeping its
            // capacity) and run the spill stage.
            shard
                .sequences
                .entry(thread)
                .or_default()
                .live
                .append(batch);
            let resident =
                self.resident.fetch_add(batch_len as u64, Ordering::AcqRel) + batch_len as u64;
            self.peak_resident.fetch_max(resident, Ordering::AcqRel);

            // Spill stage: once a full window of ingests has landed in this
            // stripe since the last attempt, move the consistent prefix —
            // everything the wait-index can never touch again — out to
            // disk. Amortising attempts to one per `threshold` ingests
            // keeps the peak resident window at O(threshold + whatever the
            // frontier pins) while paying the cut computation a bounded
            // number of times per node.
            if shard.spill.is_some() && !shard.spill_disabled {
                if let Some(threshold) = self.spill_threshold() {
                    shard.ingests_since_spill += batch_len;
                    let stripe_resident: usize =
                        shard.sequences.values().map(|s| s.live.len()).sum();
                    if shard.ingests_since_spill >= threshold && stripe_resident >= threshold {
                        shard.ingests_since_spill = 0;
                        self.spill_shard(self.shard_for(thread), shard);
                    }
                }
            }
        }

        // Parked entries whose frontier this batch completed resolve with
        // no lock held: each popped entry is owned by exactly one producer,
        // and its candidate set is pinned — writers/releases ingested after
        // the frontier became covered cannot happen-before it, so they can
        // never join (or change) the prefix the stripe partition point
        // selects. An entry may re-park under its next unmet threshold.
        let in_flight = (popped_acquires.len() + popped_readers.len()) as u64;
        for p in popped_acquires {
            self.file_acquire(p);
        }
        for r in popped_readers {
            self.file_reader_owned(r);
        }
        if in_flight > 0 {
            self.resolving.fetch_sub(in_flight, Ordering::AcqRel);
        }
    }

    /// Resolves an acquire whose causal frontier is complete, or parks it
    /// under its first unmet threshold. Takes release and wait stripes
    /// only, so it is safe both under a node stripe (own ingest) and off
    /// every lock (popped entries, seal).
    fn file_acquire(&self, p: PendingAcquire) {
        loop {
            let Some((u, k)) = first_unmet(&self.frontier, p.dst.thread, &p.clock) else {
                self.resolve_acquire(&p, false);
                return;
            };
            let mut ws = self.lock_wait(self.wait_stripe(u));
            // Re-check under the stripe lock: the epoch publisher stores
            // the frontier *before* taking this stripe to pop, so an entry
            // parked while the requirement is provably unmet here is
            // guaranteed to be seen by the pop that crosses it.
            if self.frontier.epoch(u) >= k {
                continue;
            }
            ws.acquires.park(u, k, p);
            let now = self.parked_acquires.fetch_add(1, Ordering::AcqRel) + 1;
            self.peak_parked_acquires.fetch_max(now, Ordering::AcqRel);
            return;
        }
    }

    /// Emits the synchronization edges of a frontier-complete acquire,
    /// against (and into) the release stripe of its object.
    fn resolve_acquire(&self, p: &PendingAcquire, at_seal: bool) {
        let emitted = self.lock_release(self.release_stripe(p.object)).resolve(p);
        let counter = if at_seal {
            &self.sync_at_seal
        } else {
            &self.sync_at_ingest
        };
        counter.fetch_add(emitted, Ordering::AcqRel);
    }

    /// Parks `r` under its first unmet threshold, or hands it back
    /// (`Some`) when the frontier completed while parking — the caller
    /// then owns resolution.
    fn try_park_reader(&self, r: PendingReader) -> Option<PendingReader> {
        loop {
            let Some((u, k)) = first_unmet(&self.frontier, r.dst.thread, &r.clock) else {
                return Some(r);
            };
            let mut ws = self.lock_wait(self.wait_stripe(u));
            if self.frontier.epoch(u) >= k {
                continue;
            }
            ws.readers.park(u, k, r);
            let now = self.parked_readers.fetch_add(1, Ordering::AcqRel) + 1;
            self.peak_parked_readers.fetch_max(now, Ordering::AcqRel);
            return None;
        }
    }

    /// Files a popped (owned) reader: resolves it against the page stripes
    /// when its frontier is complete, re-parks it otherwise. Runs with no
    /// lock held.
    fn file_reader_owned(&self, r: PendingReader) {
        if let Some(r) = self.try_park_reader(r) {
            let mut edges = Vec::new();
            let emitted = self.resolve_reader_into(r.dst, &r.clock, &r.read_set, &mut edges);
            self.data_at_ingest.fetch_add(emitted, Ordering::AcqRel);
            if !edges.is_empty() {
                self.lock_shard(self.shard_for(r.dst.thread))
                    .data_edges
                    .append(&mut edges);
            }
        }
    }

    /// Emits the data-dependence edges into reader `dst`, mirroring the
    /// batch derivation's data pass (`graph.rs`) exactly: per page, the
    /// latest preceding writer of each thread is a candidate and superseded
    /// candidates are dropped (the shared `prune_superseded_writers`
    /// kernel); pages accumulate per surviving writer in read-set order.
    fn resolve_reader_into<'a>(
        &self,
        dst: SubId,
        clock: &VectorClock,
        read_set: impl IntoIterator<Item = &'a PageId>,
        edges: &mut Vec<DependenceEdge>,
    ) -> u64 {
        // Visit the read set stripe-major so a wide reader locks each
        // touched stripe once instead of once per page (the per-edge page
        // lists are re-sorted by `emit_reader_data_edges`, so visiting
        // pages out of page order cannot change the emitted edges).
        let mut per_writer_pages: BTreeMap<SubId, Vec<PageId>> = BTreeMap::new();
        for (index, pages) in self.group_by_stripe(read_set) {
            let stripe = self.lock_page(index);
            for page in pages {
                let Some(by_thread) = stripe.writers.get(&page) else {
                    continue;
                };
                let candidates: Vec<(SubId, &VectorClock)> = by_thread
                    .iter()
                    .filter_map(|(&t, entries)| {
                        // happens-before is monotone along a thread's
                        // writes, so the preceding writers form a prefix
                        // (same argument as `CpgBuilder::latest_preceding`).
                        let prefix = entries.partition_point(|(a, c)| {
                            ordered_before(SubId::new(t, *a), c, dst, clock)
                        });
                        if prefix == 0 {
                            None
                        } else {
                            let (a, c) = &entries[prefix - 1];
                            Some((SubId::new(t, *a), c.as_ref()))
                        }
                    })
                    .filter(|&(id, _)| id != dst)
                    .collect();
                for w in prune_superseded_writers(&candidates) {
                    per_writer_pages.entry(w).or_default().push(page);
                }
            }
        }
        let emitted = per_writer_pages.len() as u64;
        CpgBuilder::emit_reader_data_edges(dst, per_writer_pages, edges);
        emitted
    }

    /// The componentwise lower bound on every clock that can still query
    /// the release / page-write indexes, or `None` when it cannot be
    /// established this round.
    ///
    /// Three populations bound it:
    /// * every active or announced thread's published clock — clocks only
    ///   grow along a thread, and acquiring a synchronization object only
    ///   *joins* (raises) them, so any future sub-computation of thread
    ///   `v` dominates `v`'s published clock componentwise;
    /// * every parked entry's clock, via its **nonzero** components only —
    ///   a zero component can never select that thread's index entries;
    /// * entries popped off a wait stripe whose edges have not landed are
    ///   in no index and invisible to both scans, so a nonzero `resolving`
    ///   refcount vetoes the round (the refcount rises inside the stripe
    ///   lock, so a pop racing the scan is always caught by the re-check).
    ///   Own-ingest resolutions need no refcount: a sub-computation's
    ///   clock is published *before* it resolves anything, so the thread
    ///   scan already covers it.
    fn reference_floor(&self) -> Option<VectorClock> {
        if self.resolving.load(Ordering::Acquire) > 0 {
            return None;
        }
        let generation = self.pop_generation.load(Ordering::Acquire);
        let mut floor = self.frontier.published_clock_floor()?;
        for index in 0..self.waits.len() {
            let ws = self.lock_wait(index);
            ws.acquires.for_each(|p| floor.floor_nonzero(&p.clock));
            ws.readers.for_each(|r| floor.floor_nonzero(&r.clock));
        }
        // A pop that started *and* completed during the sweep may have
        // re-parked its entries into stripes already scanned; the
        // generation comparison vetoes such rounds even though the
        // refcount is back to zero.
        if self.resolving.load(Ordering::Acquire) > 0
            || self.pop_generation.load(Ordering::Acquire) != generation
        {
            return None;
        }
        Some(floor)
    }

    /// Prunes provably superseded entries of one index stripe (release or
    /// page-write — both store per-`(key, thread)` α-ordered entry lists)
    /// behind the reference floor, moving the dropped count from the live
    /// counter to the GC'd counter. Called amortised (once per
    /// [`Self::index_gc_interval`] appends per stripe) with the stripe
    /// lock held.
    fn gc_index_stripe<K, E>(
        &self,
        index: &mut HashMap<K, BTreeMap<ThreadId, Vec<E>>>,
        alpha_of: impl Fn(&E) -> u64,
        live: &AtomicU64,
        gcd: &AtomicU64,
    ) {
        let Some(floor) = self.reference_floor() else {
            return;
        };
        let mut dropped = 0u64;
        for by_thread in index.values_mut() {
            for (&u, entries) in by_thread.iter_mut() {
                dropped += prune_index_list(entries, floor.get(u), &alpha_of) as u64;
            }
        }
        if dropped > 0 {
            live.fetch_sub(dropped, Ordering::AcqRel);
            gcd.fetch_add(dropped, Ordering::AcqRel);
        }
    }

    /// Spills the consistent prefix of every thread stored in `shard`: each
    /// sub-computation whose causal frontier is fully delivered has had all
    /// of its sync and data edges emitted (the wait-index can never touch it
    /// again), so its node and the stripe-local edges into it move to the
    /// shard's append-only [`SpillStore`] and leave memory.
    ///
    /// The cut is one **round**: every spillable node of every thread of
    /// the stripe, then the stripe-local edges into them, are staged as
    /// back-to-back frames and committed with one write. Memory is touched
    /// only after that write succeeded — the prefixes are detached and the
    /// edge vectors retained in place — so a failed round leaves the shard
    /// exactly as it was.
    ///
    /// Coverage of a sub's clock by the frontier is monotone along a
    /// thread's sequence (clocks only grow), so the spillable region is
    /// always a prefix, and the epoch reads are lock-free — a stale read
    /// only keeps a sub resident one extra round. A reader popped off the
    /// wait-index but not yet appended by its owning producer may be
    /// spilled here before its edges land; those edges simply stay in the
    /// live stripe and join the same final graph at seal — nothing is
    /// emitted twice.
    fn spill_shard(&self, stripe: usize, shard: &mut Shard) {
        let started = Instant::now();
        self.spill_round(stripe, shard);
        self.spill_time_nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::AcqRel);
    }

    fn spill_round(&self, stripe: usize, shard: &mut Shard) {
        // After a simulated crash nothing spills any more: each store is
        // lazily restored into memory (the dead process's graph work was
        // already restored at the crash point; intact shards restore here
        // or at seal) and detached with its files kept for recovery.
        if self.spill_crashed.load(Ordering::Acquire) {
            self.restore_and_detach(shard);
            return;
        }
        let Shard {
            sequences,
            control_edges,
            data_edges,
            spill: Some(store),
            ..
        } = shard
        else {
            return;
        };

        // Stage the round. Every record counts against the armed crash
        // point; the one that "kills" the process ends the round there.
        let bytes_before = store.bytes_written();
        let writes_before = store.writes();
        store.begin_round();
        let mut crashed = false;
        let mut dies_here = || {
            crashed = self.spill_crash_due();
            crashed
        };
        let mut staged = 0usize;
        'stage: {
            for (&thread, seq) in sequences.iter_mut() {
                seq.staged = seq
                    .live
                    .iter()
                    .position(|sub| first_unmet(&self.frontier, thread, &sub.clock).is_some())
                    .unwrap_or(seq.live.len());
                staged += seq.staged;
                for sub in &seq.live[..seq.staged] {
                    store.stage_node(sub);
                    if dies_here() {
                        break 'stage;
                    }
                }
            }
            if staged == 0 {
                return;
            }
            // The stripe-local edges whose destination is below the cut:
            // no further edge into those readers can ever be emitted.
            for edge in control_edges.iter().chain(data_edges.iter()) {
                if below_cut(sequences, edge.dst) {
                    store.stage_edge(edge);
                    if dies_here() {
                        break 'stage;
                    }
                }
            }
        }

        let committed = if crashed {
            // Die inside the round's write, leaving a torn frame.
            let _ = store.commit_torn();
            None
        } else {
            let mut rolled = false;
            self.try_spill_append(|| store.commit_round().map(|r| rolled = r))
                .then_some(rolled)
        };
        self.spill_writes
            .fetch_add(store.writes() - writes_before, Ordering::AcqRel);

        let Some(rolled) = committed else {
            for seq in sequences.values_mut() {
                seq.staged = 0;
            }
            self.spill_fallbacks.fetch_add(1, Ordering::AcqRel);
            if crashed {
                // Freeze the manifest exactly where the "dead" process
                // left it, restore every committed round back into the
                // shard so the in-process graph stays complete, and detach
                // the store keeping every byte on disk for offline
                // recovery.
                self.spill_crashed.store(true, Ordering::Release);
                if let Some(manifest) = self.spill_manifest.as_ref() {
                    manifest.freeze();
                }
                self.restore_and_detach(shard);
            } else {
                // Bounded retries exhausted (ENOSPC, injected fault): fall
                // back to in-memory retention. The earlier rounds are
                // replayed back into the shard so nothing is lost, and the
                // store is dropped.
                match store.drain_all() {
                    Ok(replay) => {
                        self.restore_replay_into_shard(shard, replay);
                        shard.spill = None;
                    }
                    // The spilled prefix cannot be read back right now;
                    // keep the store so the seal can retry the replay, but
                    // make no further spill attempt.
                    Err(_) => shard.spill_disabled = true,
                }
            }
            return;
        };

        // The round is on disk: detach it from memory.
        for seq in sequences.values_mut() {
            let cut = std::mem::take(&mut seq.staged);
            if let Some(last) = seq.live[..cut].last() {
                seq.spilled_tail = Some((last.id, last.terminator));
                seq.live.drain(..cut);
                seq.base += cut as u64;
            }
        }
        control_edges.retain(|edge| !below_cut(sequences, edge.dst));
        data_edges.retain(|edge| !below_cut(sequences, edge.dst));
        let spilled = staged as u64;
        self.resident.fetch_sub(spilled, Ordering::AcqRel);
        self.spilled_subs.fetch_add(spilled, Ordering::AcqRel);
        self.spill_bytes
            .fetch_add(store.bytes_written() - bytes_before, Ordering::AcqRel);
        // Push the round to stable storage per the durability policy, then
        // let the manifest name it. With no durability promised only a
        // round that opened a segment publishes. A sync failure just leaves
        // the manifest at the previous cut — it must never name
        // non-durable bytes.
        let durable = self
            .spill
            .as_ref()
            .is_some_and(|s| s.durability != SpillDurability::None);
        if let Some(manifest) = self.spill_manifest.as_ref() {
            if (durable || rolled) && store.sync_for_cut().is_ok() {
                let _ = manifest.update_shard(stripe, store.manifest_snapshot());
            }
        }
    }

    /// Replays the shard's store back into memory (best effort) and
    /// detaches it with its files kept — what every shard does once the
    /// injected crash has fired.
    fn restore_and_detach(&self, shard: &mut Shard) {
        if let Some(mut store) = shard.spill.take() {
            if let Ok(replay) = store.replay() {
                self.restore_replay_into_shard(shard, replay);
            }
            store.detach_keeping_files();
        }
    }

    /// Merges a spill replay back into the shard's live state: nodes
    /// re-enter their sequences ahead of the current live suffix, edges
    /// rejoin the stripe-local buffers, and the residency counters are
    /// adjusted. A replay holds exactly the committed rounds, i.e. the
    /// nodes that had left the residency accounting.
    fn restore_replay_into_shard(&self, shard: &mut Shard, replay: Replay) {
        let restored: u64 = replay.nodes.values().map(|run| run.len() as u64).sum();
        for (t, mut live) in replay.nodes {
            let seq = shard.sequences.entry(t).or_default();
            live.append(&mut seq.live);
            seq.live = live;
            seq.base = 0;
            seq.spilled_tail = None;
        }
        for edge in replay.edges {
            match edge.kind {
                EdgeKind::Control => shard.control_edges.push(edge),
                _ => shard.data_edges.push(edge),
            }
        }
        if restored > 0 {
            let resident = self.resident.fetch_add(restored, Ordering::AcqRel) + restored;
            self.peak_resident.fetch_max(resident, Ordering::AcqRel);
            self.spilled_subs.fetch_sub(restored, Ordering::AcqRel);
        }
    }

    /// Runs `f` over the complete per-thread sequences ingested so far, with
    /// every stripe locked for the duration. Used by the live-snapshot
    /// facility to obtain a stable view; without spilling nothing is cloned.
    /// Threads with a spilled prefix are faulted back in from the spill
    /// segments first, so the view always starts at α = 0 — snapshots and
    /// taint queries see spilled history transparently.
    pub fn with_sequences<R>(
        &self,
        f: impl FnOnce(&BTreeMap<ThreadId, &[SubComputation]>) -> R,
    ) -> R {
        let guards: Vec<_> = (0..self.shards.len()).map(|i| self.lock_shard(i)).collect();
        // Fault spilled prefixes into owned storage: one sequential segment
        // replay per shard (not a seek per node — the stripe locks are held
        // for the duration, so the fault path must scale with segment
        // count, not trace length). Only shards that actually spilled pay.
        // A prefix that cannot be read back (segment damaged or gone) is a
        // counted degradation, never a panic with every stripe locked: the
        // thread is left out of the view, and the snapshot's consistent-cut
        // trim drops whatever then lacks its causal context.
        let mut faulted: Vec<(ThreadId, Vec<SubComputation>)> = Vec::new();
        for guard in &guards {
            let spilled_any = guard.sequences.values().any(|seq| seq.base > 0);
            if !spilled_any {
                continue;
            }
            let mut prefixes = match guard.spill.as_ref().map(SpillStore::replay) {
                Some(Ok(replay)) => replay.nodes,
                _ => BTreeMap::new(),
            };
            let mut complete = true;
            for (&t, seq) in &guard.sequences {
                if seq.base == 0 {
                    continue;
                }
                let mut full = prefixes.remove(&t).unwrap_or_default();
                if full.len() as u64 == seq.base {
                    full.extend(seq.live.iter().cloned());
                    faulted.push((t, full));
                } else {
                    complete = false;
                }
            }
            if !complete {
                self.spill_fallbacks.fetch_add(1, Ordering::AcqRel);
            }
        }
        let mut map: BTreeMap<ThreadId, &[SubComputation]> = BTreeMap::new();
        for guard in &guards {
            for (&t, seq) in &guard.sequences {
                if seq.base == 0 {
                    map.insert(t, seq.live.as_slice());
                }
            }
        }
        for (t, full) in &faulted {
            map.insert(*t, full.as_slice());
        }
        f(&map)
    }

    /// Finishes the graph: resolves whatever synchronization and
    /// data-dependence edges are still parked (nothing, on complete runs —
    /// the final ingest already resolved them), and moves every node into
    /// the final [`Cpg`] via one sorted bulk build (per-shard sequences are
    /// already sorted runs, so the collect is near-linear and the per-sub
    /// seal cost stays flat as runs grow). Parked readers are independent
    /// of each other, so they are fanned out per owning shard across a
    /// scoped thread pool. The builder is left completely empty — node
    /// store, indexes, frontier *and* counters — ready for another run;
    /// the finished build's counters remain available through
    /// [`last_sealed_stats`](Self::last_sealed_stats).
    ///
    /// # Quiescence
    ///
    /// Callers must quiesce every producer before sealing — the runtime
    /// joins its ingest pool first. Sealing while an `ingest` is still in
    /// flight would drain the stripes out from under it, landing the late
    /// sub-computation in the *next* build; in debug builds an explicit
    /// producer refcount turns that silent loss into a panic.
    pub fn seal(&self) -> Cpg {
        #[cfg(debug_assertions)]
        {
            let in_flight = self.active_producers.load(Ordering::Acquire);
            assert!(
                in_flight == 0,
                "seal() called with {in_flight} ingest call(s) still in flight — \
                 quiesce every producer before sealing"
            );
        }

        // Deferred synchronization edges, then the parked readers (drained
        // out of every wait stripe so resolution can run lock-free).
        let mut pending_acquires: Vec<PendingAcquire> = Vec::new();
        let mut pending_readers: Vec<PendingReader> = Vec::new();
        for index in 0..self.waits.len() {
            let mut ws = self.lock_wait(index);
            pending_acquires.extend(ws.acquires.drain_all());
            pending_readers.extend(ws.readers.drain_all());
        }
        self.parked_acquires.store(0, Ordering::Release);
        self.parked_readers.store(0, Ordering::Release);
        for p in &pending_acquires {
            self.resolve_acquire(p, true);
        }

        // Parked readers are pairwise independent: fan them out per owning
        // shard across the pool. On complete runs this is empty and the
        // seal is O(node moves).
        let mut seal_data_edges: Vec<DependenceEdge> = Vec::new();
        let mut seal_data_emitted = 0u64;
        if !pending_readers.is_empty() {
            let mut groups: Vec<Vec<PendingReader>> =
                (0..self.shards.len()).map(|_| Vec::new()).collect();
            for r in pending_readers {
                let shard = self.shard_for(r.dst.thread);
                groups[shard].push(r);
            }
            groups.retain(|g| !g.is_empty());
            let resolved = pool::map(
                groups.len(),
                pool::workers(groups.len(), 1),
                || (),
                |_, g| {
                    let mut edges = Vec::new();
                    let mut emitted = 0;
                    for r in &groups[g] {
                        emitted +=
                            self.resolve_reader_into(r.dst, &r.clock, &r.read_set, &mut edges);
                    }
                    (edges, emitted)
                },
            );
            for (mut edges, emitted) in resolved {
                seal_data_edges.append(&mut edges);
                seal_data_emitted += emitted;
            }
        }
        self.data_at_seal
            .fetch_add(seal_data_emitted, Ordering::AcqRel);

        // Per-thread node runs: a thread is stored in exactly one stripe,
        // its live sequence is in α order and a spill replay arrives
        // bucketed per thread in α order, so a thread's replayed prefix
        // followed by its live suffix is one contiguous run of the graph's
        // (thread, α)-sorted node store.
        let mut runs: BTreeMap<ThreadId, [Vec<SubComputation>; 2]> = BTreeMap::new();
        let mut edges: Vec<DependenceEdge> = Vec::new();
        let crashed = self.spill_crashed.load(Ordering::Acquire);
        let retain = self.seal_retain.load(Ordering::Acquire)
            || self.spill.as_ref().is_some_and(|s| s.retain_on_seal);
        // Set when any spill artifact must outlive the seal (crash,
        // retention, or an unreadable store kept for forensics): the
        // directory and manifest are then left in place.
        let mut artifacts_kept = crashed;
        // Cleared when the retained on-disk copy is incomplete (a replay,
        // commit or sync failed): the manifest then stays unclean.
        let mut retained_complete = true;
        // Spilled prefixes first: every shard's segments are replayed in one
        // fan-out, so the cores stay busy across shard boundaries. The
        // stores are lent out of their shards for it (producers are
        // quiesced) and put back below.
        let mut stores: Vec<Option<SpillStore>> = (0..self.shards.len())
            .map(|index| self.lock_shard(index).spill.take())
            .collect();
        let replays = SpillStore::replay_all(&stores.iter().flatten().collect::<Vec<_>>());
        let mut replays = replays.into_iter();
        for (index, lent) in stores.iter_mut().enumerate() {
            let mut guard = self.lock_shard(index);
            let shard = &mut *guard;
            shard.spill = lent.take();
            // The replayed segments are concatenated back into the final
            // graph. A simulated crash (a dead process drains and deletes
            // nothing) and a retaining seal leave every file in place;
            // otherwise the segments are deleted so the store is empty for
            // the next build.
            let mut detach_store = crashed || retain;
            if let Some(store) = shard.spill.as_mut() {
                let replayed = replays.next().unwrap_or_else(|| Ok(Replay::default()));
                if replayed.is_ok() && !detach_store {
                    store.forget_drained();
                }
                match replayed {
                    Ok(mut replay) => {
                        // Torn tails are skipped by the replay; each one is
                        // a degradation the caller can observe.
                        if replay.torn_tails > 0 {
                            self.spill_fallbacks
                                .fetch_add(replay.torn_tails, Ordering::AcqRel);
                            retained_complete = false;
                        }
                        edges.append(&mut replay.edges);
                        for (thread, prefix) in replay.nodes {
                            runs.entry(thread).or_default()[0] = prefix;
                        }
                    }
                    Err(_) => {
                        // The spilled prefix is unreadable: seal what is
                        // still in memory and account the degradation
                        // instead of aborting the whole build. The store is
                        // detached with its files kept — never delete
                        // material a forensic recovery might still read.
                        self.spill_fallbacks.fetch_add(1, Ordering::AcqRel);
                        retained_complete = false;
                        if let Some(manifest) = self.spill_manifest.as_ref() {
                            manifest.set_shard(index, store.manifest_snapshot());
                        }
                        detach_store = true;
                        artifacts_kept = true;
                    }
                }
                if retain && !crashed {
                    // Retained seal: complete the on-disk copy with one
                    // more round holding every still-live node, sync, and
                    // hand the manifest the final entry. The directory
                    // becomes a recoverable image of the full graph.
                    let writes_before = store.writes();
                    store.begin_round();
                    for seq in shard.sequences.values() {
                        for sub in &seq.live {
                            store.stage_node(sub);
                        }
                    }
                    let appended = self.try_spill_append(|| store.commit_round().map(drop));
                    self.spill_writes
                        .fetch_add(store.writes() - writes_before, Ordering::AcqRel);
                    let synced = store.sync_for_cut().is_ok();
                    if let Some(manifest) = self.spill_manifest.as_ref().filter(|_| synced) {
                        manifest.set_shard(index, store.manifest_snapshot());
                    }
                    if !appended || !synced {
                        self.spill_fallbacks.fetch_add(1, Ordering::AcqRel);
                        retained_complete = false;
                    }
                    artifacts_kept = true;
                }
                if detach_store {
                    store.detach_keeping_files();
                    shard.spill = None;
                }
            }
            for (thread, seq) in std::mem::take(&mut shard.sequences) {
                runs.entry(thread).or_default()[1] = seq.live;
            }
            shard.ingests_since_spill = 0;
            shard.spill_disabled = false;
            edges.append(&mut shard.control_edges);
            edges.append(&mut shard.data_edges);
        }
        // Spill-artifact epilogue. A retained seal that completed its
        // on-disk copy publishes the clean manifest (a frozen, crashed
        // manifest ignores this); a clean non-retaining seal removes the
        // manifest and the now-empty session directory so nothing
        // accumulates under the spill root across runs. Kept artifacts
        // (crash, retention, unreadable store) are never touched.
        if let Some(settings) = self.spill.as_ref() {
            if artifacts_kept {
                if let Some(manifest) = self.spill_manifest.as_ref() {
                    if retain && retained_complete && !crashed {
                        let _ = manifest.mark_clean();
                    } else if !crashed {
                        // Incomplete retention / unreadable store: publish
                        // the entries handed over above, but the manifest
                        // stays unclean.
                        let _ = manifest.publish();
                    }
                }
            } else {
                if let Some(manifest) = self.spill_manifest.as_ref() {
                    manifest.cleanup();
                }
                let _ = std::fs::remove_dir(&settings.dir);
            }
        }

        // Index teardown: dropping the release / page-write entries (one
        // heap clock each) is the one remaining event-proportional seal
        // cost, so when the indexes are large — long runs where the GC
        // could not prune (threads that never observed each other
        // legitimately pin entries) — the drained maps are handed to a
        // detached drop thread instead of being freed on the caller's
        // critical path. Small indexes drop inline; a thread spawn would
        // cost more than the frees.
        let mut drained_pages = Vec::with_capacity(self.pages.len());
        for index in 0..self.pages.len() {
            let mut stripe = self.lock_page(index);
            drained_pages.push(std::mem::take(&mut stripe.writers));
            stripe.appended_since_gc = 0;
        }
        let mut drained_releases = Vec::with_capacity(self.releases.len());
        for index in 0..self.releases.len() {
            let mut stripe = self.lock_release(index);
            drained_releases.push(std::mem::take(&mut stripe.releases));
            stripe.appended_since_gc = 0;
            edges.append(&mut stripe.edges);
        }
        let live_entries = self.release_entries.load(Ordering::Acquire)
            + self.page_entries.load(Ordering::Acquire);
        if live_entries >= 4096 {
            std::thread::spawn(move || drop((drained_pages, drained_releases)));
        } else {
            drop((drained_pages, drained_releases));
        }
        edges.append(&mut seal_data_edges);

        *self.last_sealed.lock() = Some(self.counters_snapshot());
        self.frontier.reset();
        for counter in [
            &self.ingested,
            &self.sync_at_ingest,
            &self.sync_at_seal,
            &self.data_at_ingest,
            &self.data_at_seal,
            &self.parked_acquires,
            &self.parked_readers,
            &self.peak_parked_acquires,
            &self.peak_parked_readers,
            &self.resolving,
            &self.release_entries,
            &self.release_entries_gcd,
            &self.page_entries,
            &self.page_entries_gcd,
            &self.spilled_subs,
            &self.spill_bytes,
            &self.spill_time_nanos,
            &self.resident,
            &self.peak_resident,
            &self.spill_fallbacks,
            &self.spill_writes,
            &self.spill_appends,
            &self.spill_record_count,
            // fail_spill_write_at and crash_spill_at are configuration,
            // not counters: they survive the seal like the spill settings
            // themselves.
        ] {
            counter.store(0, Ordering::Release);
        }
        self.spill_crashed.store(false, Ordering::Release);
        self.seal_retain.store(false, Ordering::Release);

        // The runs concatenate in thread order straight into the graph's
        // sorted node store: one bulk move per run, no merge, no sort — the
        // per-sub seal cost stays flat as runs grow.
        let total_nodes = runs.values().flatten().map(Vec::len).sum();
        let mut nodes: Vec<SubComputation> = Vec::with_capacity(total_nodes);
        for run in runs.into_values().flatten() {
            nodes.extend(run);
        }
        Cpg::from_sorted_nodes(nodes, edges)
    }
}

/// Drops the provably dead prefix of one `(object|page, thread)` index
/// list, given the reference floor's component for the writing thread.
///
/// An entry at α has own clock component `α + 1` (the recorder convention),
/// and a destination clock selects entry `e` over its successor `e'` only
/// while `dst.clock[u] ≤ α_{e'} + 1`; once every queryable clock sits
/// strictly above that window, `e` is dead. The droppable region is a
/// prefix because α grows along the list, and the *last* entry is never
/// dropped (a future destination may still pin it). Returns the number of
/// entries dropped.
fn prune_index_list<T>(entries: &mut Vec<T>, floor_u: u64, alpha_of: impl Fn(&T) -> u64) -> usize {
    let q = entries.partition_point(|e| alpha_of(e) + 1 < floor_u);
    let dead = q.saturating_sub(1);
    if dead > 0 {
        entries.drain(..dead);
    }
    dead
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::testing::{edge_fingerprint, TempDir};

    fn lock_heavy_sequences(threads: u32) -> Vec<Vec<SubComputation>> {
        crate::testing::lock_heavy_sequences(threads, 20, 8, 8)
    }

    #[test]
    fn shard_routing_wraps_on_thread_id_boundaries() {
        let builder = ShardedCpgBuilder::with_shards(4);
        assert_eq!(builder.shards.len(), 4);
        assert_eq!(builder.shard_for(ThreadId::new(0)), 0);
        assert_eq!(builder.shard_for(ThreadId::new(3)), 3);
        // Exactly at the stripe-count boundary the routing wraps...
        assert_eq!(builder.shard_for(ThreadId::new(4)), 0);
        assert_eq!(builder.shard_for(ThreadId::new(5)), 1);
        // ...and stays a plain modulus for arbitrarily large ids.
        assert_eq!(
            builder.shard_for(ThreadId::new(u32::MAX)),
            u32::MAX as usize % 4
        );
        // A single-stripe builder degenerates to one shard for everyone.
        let single = ShardedCpgBuilder::with_shards(1);
        assert_eq!(single.shard_for(ThreadId::new(7)), 0);
        // Zero stripes are clamped rather than dividing by zero.
        assert_eq!(ShardedCpgBuilder::with_shards(0).shards.len(), 1);
    }

    #[test]
    fn streamed_graph_matches_batch_graph() {
        let sequences = lock_heavy_sequences(4);

        let mut batch = CpgBuilder::new();
        for seq in &sequences {
            batch.add_thread(seq.clone());
        }
        let reference = batch.build();

        let streaming = ShardedCpgBuilder::with_shards(3);
        // Round-robin delivery across threads, FIFO within each thread.
        let mut cursors: Vec<std::vec::IntoIter<SubComputation>> =
            sequences.into_iter().map(|s| s.into_iter()).collect();
        let mut progressed = true;
        while progressed {
            progressed = false;
            for cursor in &mut cursors {
                if let Some(sub) = cursor.next() {
                    streaming.ingest(sub);
                    progressed = true;
                }
            }
        }
        let sealed = streaming.seal();

        assert_eq!(sealed.node_count(), reference.node_count());
        assert_eq!(edge_fingerprint(&sealed), edge_fingerprint(&reference));
        assert!(sealed.validate().is_ok());
    }

    #[test]
    fn batched_ingest_matches_per_sub_ingest() {
        // Chunking each thread's sequence into arbitrary α-contiguous
        // batches must produce the same graph as one sub per call.
        let sequences = lock_heavy_sequences(4);
        let mut batch = CpgBuilder::new();
        for seq in &sequences {
            batch.add_thread(seq.clone());
        }
        let reference = batch.build();

        for chunk in [1usize, 3, 7, 64] {
            let streaming = ShardedCpgBuilder::with_shards(3);
            for seq in sequences.clone() {
                let mut seq = seq.into_iter().peekable();
                while seq.peek().is_some() {
                    let batch: Vec<SubComputation> = seq.by_ref().take(chunk).collect();
                    streaming.ingest_batch(batch);
                }
            }
            let sealed = streaming.seal();
            assert_eq!(
                edge_fingerprint(&sealed),
                edge_fingerprint(&reference),
                "chunk={chunk}"
            );
            let stats = streaming.last_sealed_stats().expect("sealed");
            assert_eq!(stats.sync_resolved_at_seal, 0, "chunk={chunk}");
            assert_eq!(stats.data_resolved_at_seal, 0, "chunk={chunk}");
        }
    }

    #[test]
    #[should_panic(expected = "single thread")]
    fn mixed_thread_batches_are_rejected() {
        let sequences = lock_heavy_sequences(2);
        let builder = ShardedCpgBuilder::new();
        let mixed = vec![sequences[0][0].clone(), sequences[1][0].clone()];
        builder.ingest_batch(mixed);
    }

    #[test]
    #[should_panic(expected = "contiguous in α")]
    fn gapped_batches_are_rejected() {
        let sequences = lock_heavy_sequences(1);
        let builder = ShardedCpgBuilder::new();
        let gapped = vec![sequences[0][0].clone(), sequences[0][2].clone()];
        builder.ingest_batch(gapped);
    }

    #[test]
    fn adversarial_delivery_parks_acquires_until_frontier_completes() {
        // Deliver thread 1 (the acquirer side) completely before thread 0
        // (the releaser): the cross-thread acquires and readers must park
        // until thread 0's sub-computations catch up, and the result must
        // still match the batch graph exactly.
        let sequences = lock_heavy_sequences(2);
        let mut batch = CpgBuilder::new();
        for seq in &sequences {
            batch.add_thread(seq.clone());
        }
        let reference = batch.build();

        let streaming = ShardedCpgBuilder::with_shards(2);
        let mut iter = sequences.into_iter();
        let t0 = iter.next().unwrap();
        let t1 = iter.next().unwrap();
        for sub in t1 {
            streaming.ingest(sub);
        }
        for sub in t0 {
            streaming.ingest(sub);
        }
        let sealed = streaming.seal();
        let stats = streaming.last_sealed_stats().expect("sealed once");

        assert_eq!(edge_fingerprint(&sealed), edge_fingerprint(&reference));
        assert!(
            stats.peak_parked_acquires > 1,
            "expected parked acquires, got {stats:?}"
        );
        assert!(
            stats.peak_parked_readers > 1,
            "expected parked readers, got {stats:?}"
        );
        // Every producer delivered everything before seal, so the seal-time
        // safety nets had nothing left to do.
        assert_eq!(stats.sync_resolved_at_seal, 0);
        assert_eq!(stats.data_resolved_at_seal, 0);
        assert!(stats.data_resolved_at_ingest > 0);
        // The live counters were reset for the next build.
        assert_eq!(streaming.stats(), IngestStats::default());
    }

    #[test]
    fn in_order_delivery_resolves_sync_and_data_edges_eagerly() {
        // Interleave delivery in causal order: (almost) every acquire's and
        // reader's frontier is complete when it arrives.
        let sequences = lock_heavy_sequences(2);
        let mut batch = CpgBuilder::new();
        for seq in &sequences {
            batch.add_thread(seq.clone());
        }
        let reference = batch.build();

        let streaming = ShardedCpgBuilder::new();
        // Causal order: sort all subs by vector clock via a stable
        // topological pass — round-robin by α works here because both
        // threads alternate on one lock.
        let mut cursors: Vec<std::vec::IntoIter<SubComputation>> =
            sequences.into_iter().map(|s| s.into_iter()).collect();
        let mut progressed = true;
        while progressed {
            progressed = false;
            for cursor in &mut cursors {
                if let Some(sub) = cursor.next() {
                    streaming.ingest(sub);
                    progressed = true;
                }
            }
        }
        let stats = streaming.stats();
        assert!(
            stats.sync_resolved_at_ingest > 0,
            "expected eager sync resolution, got {stats:?}"
        );
        assert!(
            stats.data_resolved_at_ingest > 0,
            "expected eager data resolution, got {stats:?}"
        );
        assert_eq!(
            edge_fingerprint(&streaming.seal()),
            edge_fingerprint(&reference)
        );
        // Complete delivery: everything was resolved before the seal.
        let sealed = streaming.last_sealed_stats().expect("sealed");
        assert_eq!(sealed.data_resolved_at_seal, 0);
    }

    #[test]
    fn concurrent_producers_match_batch() {
        // Four producers ingesting four threads' sequences concurrently
        // (FIFO per thread by construction: one producer per thread).
        let sequences = lock_heavy_sequences(4);
        let mut batch = CpgBuilder::new();
        for seq in &sequences {
            batch.add_thread(seq.clone());
        }
        let reference = batch.build();

        let streaming = ShardedCpgBuilder::with_shards(4);
        std::thread::scope(|scope| {
            for seq in sequences {
                let streaming = &streaming;
                scope.spawn(move || {
                    for sub in seq {
                        streaming.ingest(sub);
                    }
                });
            }
        });
        let sealed = streaming.seal();
        assert_eq!(edge_fingerprint(&sealed), edge_fingerprint(&reference));
        let stats = streaming.last_sealed_stats().expect("sealed");
        assert_eq!(stats.sync_resolved_at_seal, 0);
        assert_eq!(stats.data_resolved_at_seal, 0);
    }

    #[test]
    fn pooled_ingest_takes_only_stripe_local_locks() {
        // The de-contention claim, asserted through the debug lock
        // profile: a pooled run over threads that never synchronize and
        // touch disjoint pages acquires node and page stripes only — no
        // release stripe, no wait stripe, and (structurally) there is no
        // global lock left to count.
        use crate::event::AccessKind;
        use crate::recorder::{SyncClockRegistry, ThreadRecorder};
        let registry = SyncClockRegistry::shared();
        let sequences: Vec<Vec<SubComputation>> = (0..4u32)
            .map(|t| {
                let mut rec = ThreadRecorder::new(ThreadId::new(t), Arc::clone(&registry));
                for i in 0..10u64 {
                    // Distinct per-thread object would count as a release;
                    // use none: single open sub per thread with writes only.
                    rec.on_memory_access(PageId::new(t as u64 * 64 + i), AccessKind::Write);
                }
                rec.finish()
            })
            .collect();
        let subs: u64 = sequences.iter().map(|s| s.len() as u64).sum();

        let streaming = ShardedCpgBuilder::with_shards(4);
        std::thread::scope(|scope| {
            for seq in sequences {
                let streaming = &streaming;
                scope.spawn(move || {
                    for sub in seq {
                        streaming.ingest(sub);
                    }
                });
            }
        });
        let counts = streaming.lock_counts();
        if cfg!(debug_assertions) {
            assert_eq!(counts.node, subs, "one node-stripe lock per ingest");
            assert!(counts.page > 0, "writes must hit the page stripes");
            assert_eq!(counts.release, 0, "no sync ops → no release stripe");
            // The pop probe takes the ingesting thread's *own* wait stripe
            // once per batch (the mutex is the park/pop handoff, so it
            // cannot be elided) — stripe-local, never a shared point.
            assert_eq!(counts.wait, subs, "one own-stripe pop probe per batch");
        } else {
            assert_eq!(counts, LockCounts::default());
        }
        let sealed = streaming.seal();
        assert_eq!(sealed.node_count() as u64, subs);
    }

    #[test]
    fn release_index_gc_keeps_ping_pong_entries_bounded() {
        // A long two-thread ping-pong on one lock: without GC the release
        // index grows with the event count; with it, the live entries stay
        // O(threads). The interleaved generator makes the threads observe
        // each other (a sequentially recorded pair legitimately pins the
        // unobserved thread's entries forever), and causal round-robin
        // delivery keeps frontiers complete.
        let iterations = 600u64;
        let sequences = crate::testing::ping_pong_sequences(2, iterations);
        let streaming = ShardedCpgBuilder::with_shards(2);
        let mut cursors: Vec<std::vec::IntoIter<SubComputation>> =
            sequences.into_iter().map(|s| s.into_iter()).collect();
        let mut progressed = true;
        while progressed {
            progressed = false;
            for cursor in &mut cursors {
                if let Some(sub) = cursor.next() {
                    streaming.ingest(sub);
                    progressed = true;
                }
            }
        }
        let stats = streaming.stats();
        assert!(
            stats.release_entries_gcd > 0,
            "GC must have dropped superseded releases: {stats:?}"
        );
        assert!(
            stats.page_entries_gcd > 0,
            "GC must have dropped superseded writers: {stats:?}"
        );
        // O(threads) with slack for the GC cadence (one pass per
        // DEFAULT_INDEX_GC_INTERVAL appends), not O(events).
        let bound = 2 * (2 * DEFAULT_INDEX_GC_INTERVAL as u64 + 8);
        assert!(
            stats.release_entries_live < bound,
            "release index {} should stay below {} (events: {})",
            stats.release_entries_live,
            bound,
            stats.ingested
        );
        assert!(
            stats.page_entries_live < bound + 16,
            "page index {} should stay bounded",
            stats.page_entries_live
        );
        assert!(streaming.seal().validate().is_ok());
    }

    #[test]
    fn gc_disabled_keeps_every_index_entry() {
        let sequences = crate::testing::lock_heavy_sequences(2, 100, 4, 4);
        let mut streaming = ShardedCpgBuilder::with_shards(2);
        streaming.set_index_gc_interval(0);
        for seq in sequences {
            for sub in seq {
                streaming.ingest(sub);
            }
        }
        let stats = streaming.stats();
        assert_eq!(stats.release_entries_gcd, 0);
        assert_eq!(stats.page_entries_gcd, 0);
        // Every release-terminated sub left an entry.
        assert!(stats.release_entries_live as usize >= 100);
    }

    #[test]
    fn aggressive_gc_preserves_batch_equivalence() {
        // GC after every single append (interval 1), across adversarial
        // delivery: the graph must still match the batch oracle exactly.
        let sequences = lock_heavy_sequences(4);
        let mut batch = CpgBuilder::new();
        for seq in &sequences {
            batch.add_thread(seq.clone());
        }
        let reference = batch.build();

        for order in [false, true] {
            let mut streaming = ShardedCpgBuilder::with_shards(3);
            streaming.set_index_gc_interval(1);
            let mut seqs = sequences.clone();
            if order {
                // Whole threads in reverse order: maximal parking.
                seqs.reverse();
                for seq in seqs {
                    for sub in seq {
                        streaming.ingest(sub);
                    }
                }
            } else {
                let mut cursors: Vec<std::vec::IntoIter<SubComputation>> =
                    seqs.into_iter().map(|s| s.into_iter()).collect();
                let mut progressed = true;
                while progressed {
                    progressed = false;
                    for cursor in &mut cursors {
                        if let Some(sub) = cursor.next() {
                            streaming.ingest(sub);
                            progressed = true;
                        }
                    }
                }
            }
            let sealed = streaming.seal();
            assert_eq!(
                edge_fingerprint(&sealed),
                edge_fingerprint(&reference),
                "order={order}"
            );
            let stats = streaming.last_sealed_stats().expect("sealed");
            assert_eq!(stats.sync_resolved_at_seal, 0);
            assert_eq!(stats.data_resolved_at_seal, 0);
        }
    }

    #[test]
    fn builder_is_reusable_after_seal() {
        let sequences = lock_heavy_sequences(2);
        let streaming = ShardedCpgBuilder::new();
        for seq in &sequences {
            for sub in seq.clone() {
                streaming.ingest(sub);
            }
        }
        let first = streaming.seal();
        assert!(first.node_count() > 0);
        let empty = streaming.seal();
        assert_eq!(empty.node_count(), 0);
        assert_eq!(empty.edge_count(), 0);

        for seq in sequences {
            for sub in seq {
                streaming.ingest(sub);
            }
        }
        let second = streaming.seal();
        assert_eq!(edge_fingerprint(&second), edge_fingerprint(&first));
        // Per-build counters: the second build's stats cover only the
        // second ingestion round.
        let stats = streaming.last_sealed_stats().expect("sealed");
        assert_eq!(stats.ingested as usize, second.node_count());
    }

    #[test]
    #[should_panic(expected = "α order")]
    fn out_of_order_delivery_panics() {
        let sequences = lock_heavy_sequences(1);
        let streaming = ShardedCpgBuilder::new();
        let mut subs = sequences.into_iter().next().unwrap().into_iter();
        let first = subs.next().unwrap();
        let second = subs.next().unwrap();
        streaming.ingest(second);
        streaming.ingest(first);
    }

    fn spill_settings(threshold: usize, dir: &Path) -> SpillSettings {
        SpillSettings {
            // Small segments so the tests exercise segment rolling too.
            segment_bytes: 512,
            ..SpillSettings::new(threshold, dir)
        }
    }

    #[test]
    fn spilled_build_matches_batch_graph() {
        let sequences = lock_heavy_sequences(4);
        let mut batch = CpgBuilder::new();
        for seq in &sequences {
            batch.add_thread(seq.clone());
        }
        let reference = batch.build();

        for threshold in [1usize, 2, 8] {
            let tmp = TempDir::new("sharded-spill");
            let streaming = ShardedCpgBuilder::with_shards_and_spill(
                3,
                Some(spill_settings(threshold, tmp.path())),
            );
            let mut cursors: Vec<std::vec::IntoIter<SubComputation>> = sequences
                .clone()
                .into_iter()
                .map(|s| s.into_iter())
                .collect();
            let mut progressed = true;
            while progressed {
                progressed = false;
                for cursor in &mut cursors {
                    if let Some(sub) = cursor.next() {
                        streaming.ingest(sub);
                        progressed = true;
                    }
                }
            }
            let sealed = streaming.seal();
            assert_eq!(
                sealed.node_count(),
                reference.node_count(),
                "threshold={threshold}"
            );
            assert_eq!(
                edge_fingerprint(&sealed),
                edge_fingerprint(&reference),
                "threshold={threshold}"
            );
            let stats = streaming.last_sealed_stats().expect("sealed");
            assert!(stats.spilled_subs > 0, "threshold={threshold}: {stats:?}");
            assert!(stats.spill_bytes > 0, "threshold={threshold}: {stats:?}");
            assert_eq!(stats.sync_resolved_at_seal, 0, "threshold={threshold}");
            assert_eq!(stats.data_resolved_at_seal, 0, "threshold={threshold}");
        }
    }

    #[test]
    fn spill_threshold_one_bounds_resident_window() {
        // Causal delivery with threshold 1: the lock-heavy generator records
        // its threads one after another (each thread's clocks cover all of
        // its predecessors'), so delivering whole threads in forward order
        // keeps every sub's frontier complete on arrival — it spills right
        // after ingestion and the peak resident count is a small active
        // window, not the trace length.
        let sequences = lock_heavy_sequences(4);
        let total: usize = sequences.iter().map(|s| s.len()).sum();
        let tmp = TempDir::new("sharded-spill");
        let streaming =
            ShardedCpgBuilder::with_shards_and_spill(2, Some(spill_settings(1, tmp.path())));
        for seq in sequences {
            for sub in seq {
                streaming.ingest(sub);
            }
        }
        let stats = streaming.stats();
        assert!(stats.spilled_subs > 0, "{stats:?}");
        assert!(
            stats.peak_resident_subs < total as u64 / 4,
            "peak resident {} should be far below the {} ingested",
            stats.peak_resident_subs,
            total
        );
        let sealed = streaming.seal();
        assert_eq!(sealed.node_count(), total);
        assert!(sealed.validate().is_ok());
    }

    #[test]
    fn with_sequences_faults_spilled_prefixes_back_in() {
        let sequences = lock_heavy_sequences(2);
        let expected: usize = sequences.iter().map(|s| s.len()).sum();
        let tmp = TempDir::new("sharded-spill");
        let streaming =
            ShardedCpgBuilder::with_shards_and_spill(2, Some(spill_settings(1, tmp.path())));
        let mut cursors: Vec<std::vec::IntoIter<SubComputation>> =
            sequences.into_iter().map(|s| s.into_iter()).collect();
        let mut progressed = true;
        while progressed {
            progressed = false;
            for cursor in &mut cursors {
                if let Some(sub) = cursor.next() {
                    streaming.ingest(sub);
                    progressed = true;
                }
            }
        }
        assert!(streaming.stats().spilled_subs > 0);
        // The live view still exposes every sub-computation from α = 0, in
        // order, with spilled nodes transparently faulted back in.
        streaming.with_sequences(|map| {
            let seen: usize = map.values().map(|s| s.len()).sum();
            assert_eq!(seen, expected);
            for (&t, seq) in map {
                for (i, sub) in seq.iter().enumerate() {
                    assert_eq!(sub.id, SubId::new(t, i as u64));
                }
            }
        });
    }

    #[test]
    fn with_sequences_survives_a_vanished_segment() {
        // A segment deleted between a spill and a snapshot must degrade the
        // view, not abort the caller with every stripe locked.
        let sequences = lock_heavy_sequences(2);
        let tmp = TempDir::new("sharded-spill");
        let streaming =
            ShardedCpgBuilder::with_shards_and_spill(2, Some(spill_settings(1, tmp.path())));
        for seq in sequences.clone() {
            for sub in seq {
                streaming.ingest(sub);
            }
        }
        assert!(streaming.stats().spilled_subs > 0);
        assert_eq!(streaming.stats().spill_fallbacks, 0);
        // Thread 0 spills through shard 0: take its first segment away.
        let dir = streaming.spill_directory().expect("spilling").to_path_buf();
        std::fs::remove_file(dir.join(crate::spill::segment_file_name(0, 0))).unwrap();
        streaming.with_sequences(|map| {
            // The thread whose prefix is gone is left out; the other
            // shard's thread is complete from α = 0.
            assert!(!map.contains_key(&ThreadId::new(0)));
            let other = map[&ThreadId::new(1)];
            assert_eq!(other.len(), sequences[1].len());
            assert_eq!(other[0].id.alpha, 0);
        });
        assert_eq!(streaming.stats().spill_fallbacks, 1);
        // The seal degrades the same way instead of panicking.
        let sealed = streaming.seal();
        assert!(sealed.node_count() < sequences.iter().map(Vec::len).sum());
    }

    #[test]
    fn a_failed_round_leaves_the_shard_untouched() {
        // All-or-nothing: a round whose write fails on every attempt (each
        // one part-way through) detaches nothing and retains every edge.
        let sequences = lock_heavy_sequences(2);
        // A threshold nothing reaches, so the only round is the one below.
        let tmp = TempDir::new("sharded-spill");
        let streaming =
            ShardedCpgBuilder::with_shards_and_spill(1, Some(spill_settings(10_000, tmp.path())));
        for seq in sequences {
            for sub in seq {
                streaming.ingest(sub);
            }
        }
        let snapshot = |shard: &Shard| {
            let sequences: Vec<_> = shard
                .sequences
                .iter()
                .map(|(&t, seq)| (t, seq.base, seq.spilled_tail, seq.staged, seq.live.clone()))
                .collect();
            (
                sequences,
                shard.control_edges.clone(),
                shard.data_edges.clone(),
            )
        };
        let mut guard = streaming.lock_shard(0);
        let before = snapshot(&guard);
        let resident = streaming.resident.load(Ordering::Acquire);
        guard
            .spill
            .as_mut()
            .expect("store")
            .fail_next_writes(&[9, 200, 1]);
        streaming.spill_shard(0, &mut guard);
        assert_eq!(snapshot(&guard), before);
        assert!(guard.spill.is_none(), "the shard fell back to memory");
        drop(guard);
        let stats = streaming.stats();
        assert_eq!(stats.spilled_subs, 0);
        assert_eq!(stats.spill_bytes, 0);
        assert_eq!(stats.spill_fallbacks, 1);
        // The segment header and three attempts.
        assert_eq!(stats.spill_writes, 4);
        assert_eq!(streaming.resident.load(Ordering::Acquire), resident);
    }

    #[test]
    fn spilling_builder_is_reusable_after_seal() {
        let sequences = lock_heavy_sequences(2);
        let tmp = TempDir::new("sharded-spill");
        let streaming =
            ShardedCpgBuilder::with_shards_and_spill(2, Some(spill_settings(2, tmp.path())));
        let mut first: Option<std::collections::BTreeSet<String>> = None;
        for _ in 0..2 {
            for seq in sequences.clone() {
                for sub in seq {
                    streaming.ingest(sub);
                }
            }
            let sealed = streaming.seal();
            let fingerprint = edge_fingerprint(&sealed);
            if let Some(prev) = &first {
                assert_eq!(&fingerprint, prev);
            }
            first = Some(fingerprint);
            let stats = streaming.last_sealed_stats().expect("sealed");
            assert!(stats.spilled_subs > 0);
            // Counters are per build.
            assert_eq!(streaming.stats().spilled_subs, 0);
        }
    }

    #[test]
    fn spill_write_failure_falls_back_to_memory_without_loss() {
        let sequences = lock_heavy_sequences(3);
        let mut batch = CpgBuilder::new();
        for seq in &sequences {
            batch.add_thread(seq.clone());
        }
        let reference = batch.build();

        // Fail from the very first spill write, and after letting a few
        // writes land first (so already-spilled records must be replayed
        // back): both degrade to in-memory retention and the final graph
        // is complete.
        for fail_at in [1u64, 10] {
            let tmp = TempDir::new("sharded-spill");
            let streaming =
                ShardedCpgBuilder::with_shards_and_spill(2, Some(spill_settings(1, tmp.path())));
            streaming.inject_spill_write_failure(fail_at);
            for seq in sequences.clone() {
                for sub in seq {
                    streaming.ingest(sub);
                }
            }
            let sealed = streaming.seal();
            assert_eq!(
                sealed.node_count(),
                reference.node_count(),
                "fail_at={fail_at}"
            );
            assert_eq!(
                edge_fingerprint(&sealed),
                edge_fingerprint(&reference),
                "fail_at={fail_at}"
            );
            let stats = streaming.last_sealed_stats().expect("sealed");
            assert!(stats.spill_fallbacks > 0, "fail_at={fail_at}: {stats:?}");
        }
    }

    #[test]
    fn unusable_spill_dir_degrades_to_in_memory() {
        // Occupy the spill directory path with a plain file so no store
        // can be created: the builder must run fully in memory and report
        // the degradation instead of panicking.
        let tmp = TempDir::new("sharded-spill");
        let settings = spill_settings(1, &tmp.path().join("file"));
        std::fs::create_dir_all(tmp.path()).unwrap();
        std::fs::write(&settings.dir, b"not a directory").expect("plant blocking file");
        let streaming = ShardedCpgBuilder::with_shards_and_spill(2, Some(settings));
        let sequences = lock_heavy_sequences(2);
        let total: usize = sequences.iter().map(|s| s.len()).sum();
        for seq in sequences {
            for sub in seq {
                streaming.ingest(sub);
            }
        }
        let sealed = streaming.seal();
        assert_eq!(sealed.node_count(), total);
        assert!(sealed.validate().is_ok());
        let stats = streaming.last_sealed_stats().expect("sealed");
        assert_eq!(stats.spill_fallbacks, 2, "{stats:?}");
        assert_eq!(stats.spilled_subs, 0, "{stats:?}");
    }

    #[test]
    fn with_sequences_exposes_live_view() {
        let sequences = lock_heavy_sequences(2);
        let streaming = ShardedCpgBuilder::with_shards(2);
        let mut expected = 0usize;
        for seq in sequences {
            for sub in seq {
                streaming.ingest(sub);
                expected += 1;
            }
        }
        let seen: usize = streaming.with_sequences(|map| map.values().map(|s| s.len()).sum());
        assert_eq!(seen, expected);
        assert_eq!(streaming.ingested_nodes(), expected as u64);
    }
}
