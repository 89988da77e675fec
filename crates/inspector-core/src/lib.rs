//! # inspector-core
//!
//! Core data model for INSPECTOR-style data provenance: the **Concurrent
//! Provenance Graph (CPG)** and the parallel provenance-recording algorithm
//! from *Thalheim, Bhatotia, Fetzer — "INSPECTOR: Data Provenance using Intel
//! Processor Trace (PT)", ICDCS 2016*.
//!
//! The CPG records three kinds of dependencies for a shared-memory
//! multithreaded execution:
//!
//! * **control edges** — the intra-thread order of sub-computations plus the
//!   control path (thunks) taken inside each sub-computation,
//! * **synchronization edges** — the inter-thread happens-before order derived
//!   from acquire/release operations on synchronization objects, and
//! * **data-dependence edges** — read-after-write relations between
//!   sub-computations derived from page-granularity read/write sets and the
//!   recorded partial order.
//!
//! The crate is deliberately independent of *how* the underlying trace is
//! obtained: the threading library (`inspector-runtime`) feeds events into a
//! [`recorder::ThreadRecorder`] per thread, and the per-thread logs become a
//! [`graph::Cpg`] through one of two builders:
//!
//! * [`sharded::ShardedCpgBuilder`] — the **streaming** path the runtime
//!   uses. Each recorder hands a sub-computation out as it retires
//!   ([`recorder::ThreadRecorder::retire_at_synchronization`]) and it is
//!   ingested **by value** — singly or as α-contiguous batches — into
//!   lock-striped shards keyed by thread id. Ingest only stores; the seal
//!   derives every edge over the stored nodes with the batch builder's
//!   parallel derivation, so the streamed graph equals the batch oracle by
//!   construction. Peak memory tracks the in-flight sub-computations, not a
//!   second copy of the whole trace — and with [`spill::SpillSettings`] it
//!   is bounded to an *active window*: a stripe's resident nodes are
//!   encoded into length-prefixed, append-only per-shard segment files
//!   (see [`spill`] for the on-disk format) — one write per round —,
//!   replayed on demand for live snapshots, and concatenated back into the
//!   final graph at seal.
//!
//!   The spill tier is **fault tolerant rather than fault free**: every
//!   I/O failure surfaces as a typed [`spill::SpillError`] instead of a
//!   panic. A failing round is retried with bounded backoff (each attempt
//!   from the last committed length, so a partial write never stays in
//!   front of the retry); if the device stays broken the round never
//!   happened — the nodes it was about to evict are still resident, earlier
//!   rounds are replayed back into memory and the store detaches, so
//!   the session degrades to unbounded-memory operation with a graph
//!   **identical** to the never-spilled one (callers see the episode as a
//!   `spill_fallbacks` count, never as data loss). On reload, a torn
//!   final record — a crash mid-append — is skipped and counted rather
//!   than poisoning the segment; every record that was fully written is
//!   still recovered. This is the crate-level half of the runtime's
//!   loss-accounting contract (see `inspector-runtime`'s crate docs):
//!   degraded runs are **sound but incomplete, accounted, never silent,
//!   never fatal**.
//! * [`graph::CpgBuilder`] — the **batch** reference. It buffers every
//!   thread's full sequence and derives all edges in one offline pass; it is
//!   the oracle the streaming path is tested against (the two produce
//!   node- and edge-identical graphs) and the tool for rebuilding a graph
//!   from stored sequences.
//!
//! ## Durability and crash recovery
//!
//! The spill tier is also the crate's **crash-consistency** story: a traced
//! process (or the tracer itself) dying mid-run must leave a trustworthy
//! partial record behind. Three pieces make that hold:
//!
//! * **Spill format v3** ([`spill`]) — every segment opens with a header
//!   (magic, format version, shard, session id) and every record carries a
//!   CRC32 trailer, so torn tails and bit rot are detectable, not fatal.
//! * **The manifest contract** — each session directory holds a `MANIFEST`
//!   (updated by atomic rename, with [`spill::SpillDurability`] controlling
//!   fdatasync/fsync at cut boundaries) that records segment ids, record
//!   counts, and the per-thread durable node counts. The manifest **never
//!   names bytes that are not on disk**: segments are synced *before* the
//!   manifest that references them is published, and torn appends never
//!   enter it. `SpillDurability::None` costs nothing and survives process
//!   crashes (the page cache persists); `Flush`/`Fsync` extend the
//!   guarantee to power loss.
//! * **Offline recovery** ([`recover`]) — [`recover::recover_session`]
//!   validates a (possibly crashed) directory against its manifest, skips
//!   torn/CRC-failing tails with **exact loss accounting**
//!   ([`recover::RecoveryReport`]), shrinks the decoded per-thread prefixes
//!   to the maximal *consistent* frontier (every kept node's vector clock
//!   covered by the kept prefixes), and rebuilds that prefix's CPG with the
//!   batch oracle. Recovering a cleanly sealed, retained directory
//!   reproduces the sealed graph exactly; recovering a crashed one yields
//!   the maximal consistent prefix — sound, incomplete, accounted.
//!
//! ```
//! use inspector_core::clock::VectorClock;
//! use inspector_core::ids::ThreadId;
//!
//! let mut a = VectorClock::new();
//! a.tick(ThreadId::new(0));
//! let mut b = VectorClock::new();
//! b.join(&a);
//! b.tick(ThreadId::new(1));
//! assert!(a.happens_before(&b));
//! ```

pub mod clock;
pub mod event;
pub mod graph;
pub mod ids;
mod pool;
pub mod query;
#[cfg(test)]
mod read_side_tests;
pub mod recorder;
pub mod recover;
pub mod sharded;
mod small;
pub mod snapshot;
pub mod spill;
pub mod subcomputation;
pub mod taint;
pub mod testing;
pub mod thunk;

pub use clock::VectorClock;
pub use event::{AccessKind, BranchKind, SyncKind};
pub use graph::{Cpg, CpgBuilder, DependenceEdge, EdgeKind};
pub use ids::{PageId, SubId, SyncObjectId, ThreadId, ThunkId};
pub use recorder::{SyncClockRegistry, ThreadRecorder};
pub use recover::{recover_session, Recovery, RecoveryReport};
pub use sharded::{IngestStats, ShardedCpgBuilder};
pub use spill::{SpillDurability, SpillError, SpillSettings, SpillStore};
pub use subcomputation::{PageSet, SubComputation};
pub use thunk::Thunk;
