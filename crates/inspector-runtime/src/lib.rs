//! # inspector-runtime
//!
//! The INSPECTOR threading library (paper §V): a pthreads-like API whose
//! synchronization primitives double as provenance recording points.
//!
//! An application is expressed as a closure receiving a [`ThreadCtx`]; it
//! spawns workers, synchronises with [`sync::InspMutex`] / [`sync::InspBarrier`]
//! / [`sync::InspSemaphore`] / [`sync::InspCondvar`], and accesses shared
//! data through the context's typed read/write helpers. Running the same
//! closure under [`ExecutionMode::Native`] gives the plain-pthreads baseline;
//! running it under [`ExecutionMode::Inspector`] additionally:
//!
//! * tracks page-granularity read/write sets via simulated protection faults
//!   ([`inspector_mem`]),
//! * buffers writes in private copy-on-write pages and commits byte-level
//!   diffs at synchronization points (Release Consistency),
//! * encodes every recorded branch into a per-thread Intel-PT packet
//!   stream ([`inspector_pt`]), which the session keeps by thread id and
//!   measures for Figure 9 ([`inspector_perf`]), and
//! * **streams** the Concurrent Provenance Graph ([`inspector_core`]) while
//!   the application runs.
//!
//! # Parallel streaming CPG pipeline
//!
//! Provenance never waits for the run to end. Each synchronization boundary
//! a thread crosses does three things: commit the write diff, take the
//! sub-computation that just retired out of the thread's recorder
//! (by value — no clone, no allocation), and publish it on the thread's
//! bounded lane (`lane.rs`: delivered at once, the worker's wake deferred
//! until a backlog is due) to the session's **ingest-thread pool**
//! ([`SessionConfig::ingest_threads`] workers; a thread always sends on
//! lane `ThreadId % pool`, so per-thread delivery stays FIFO while
//! different threads' provenance is ingested concurrently). The workers
//! feed the session-wide [`inspector_core::sharded::ShardedCpgBuilder`],
//! whose lock-striped shards store each thread's sub-computations in α
//! order and derive nothing yet. The PT
//! packet stream does not: a boundary flushes it into the thread's own
//! log, and the session takes that log over once, as the thread exits.
//!
//! When [`InspectorSession::run`] returns, the pool is joined and `seal()`
//! reads any spilled prefixes back, each thread's live suffix behind its
//! prefix, and derives control, synchronization and data-dependence edges over them on
//! every core — the derivation the batch builder runs — so peak provenance
//! memory tracks the in-flight sub-computations and the graph is a
//! function of the nodes. Construction cost is attributed both as critical path
//! ([`RunStats::graph_ingest_time`]: busiest worker + seal) and as CPU
//! ([`RunStats::graph_ingest_cpu_time`]: all workers + seal); their ratio
//! is the pool's overlap factor in the Figure 6 harness
//! ([`PhaseBreakdown`]). The streamed graph is node- and edge-identical to
//! what the batch [`inspector_core::graph::CpgBuilder`] produces, by
//! construction; the equivalence harness in `tests/equivalence/` checks
//! it.
//!
//! The PT stream is decoded after the run, as `perf record`'s log is
//! (§V-B): once the pool is joined and before the seal, every Inspector run
//! decodes each thread's kept log
//! ([`inspector_pt::stream::StreamingDecoder`]) and cross-checks its branch
//! count against the thread's recorder; the cost appears as the
//! `pt_decode` phase of the Figure 6 breakdown.
//!
//! # Degraded mode and loss accounting
//!
//! The pipeline degrades instead of aborting, and every degradation is
//! accounted. A run is **sound but possibly incomplete**: the provenance
//! graph never contains fabricated nodes or edges, and whatever was lost is
//! tallied in [`RunStats`] health fields — AUX ring overflows
//! ([`RunStats::gaps`] / [`RunStats::lost_bytes`], mirroring the per-thread
//! recorder's counters), decoder windows that crossed a gap and therefore
//! skipped the branch-count cross-check ([`RunStats::decode_degraded`]),
//! spill-stage write failures that stopped a shard's store, keeping its
//! written prefix on disk and the rest in memory
//! ([`RunStats::spill_fallbacks`]), and ingest workers that died
//! ([`RunStats::worker_failures`]). [`RunStats::degraded`] is the single
//! bit meaning "some health field is nonzero"; healthy runs still
//! hard-assert exact decode/recorder agreement. When a worker dies, its
//! channel lane closes so producers fail fast instead of deadlocking, the
//! surviving workers drain, and [`InspectorSession::try_run`] returns a
//! structured [`SessionError`] carrying the per-worker failures *and* the
//! partial [`RunReport`]. Faults are injected deterministically through
//! [`FaultPlan`] (config field [`SessionConfig::fault_plan`]);
//! `tests/fault_tolerance.rs` proves the contract over random schedules and
//! fault plans.
//!
//! ```
//! use inspector_runtime::{ExecutionMode, InspectorSession, SessionConfig};
//! use inspector_runtime::sync::InspMutex;
//! use std::sync::Arc;
//!
//! let session = InspectorSession::new(SessionConfig::inspector());
//! let counter = session.map_region("counter", 8).base();
//! let lock = Arc::new(InspMutex::new());
//!
//! let report = session.run(move |ctx| {
//!     let mut workers = Vec::new();
//!     for _ in 0..2 {
//!         let lock = Arc::clone(&lock);
//!         workers.push(ctx.spawn(move |ctx| {
//!             lock.lock(ctx);
//!             let v = ctx.read_u64(counter);
//!             ctx.write_u64(counter, v + 1);
//!             lock.unlock(ctx);
//!         }));
//!     }
//!     for w in workers {
//!         ctx.join(w);
//!     }
//! });
//! assert_eq!(report.cpg.stats().threads, 3); // main + 2 workers
//! ```

pub mod config;
pub mod ctx;
mod lane;
pub mod report;
pub mod session;
pub mod sync;

pub use config::{ExecutionMode, FaultPlan, SessionConfig};
pub use ctx::{JoinHandle, ThreadCtx};
pub use report::{PhaseBreakdown, RunReport, RunStats};
pub use session::{InspectorSession, SessionError, WorkerFailure};

// Re-export the substrate types that appear in the public API so downstream
// users only need this crate.
pub use inspector_core as core;
pub use inspector_mem as mem;
pub use inspector_perf as perf;
pub use inspector_pt as pt;
