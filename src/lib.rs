//! # inspector
//!
//! Facade crate for the INSPECTOR reproduction: data provenance for
//! shared-memory multithreaded programs using a software-simulated Intel
//! Processor Trace (PT) substrate.
//!
//! This crate simply re-exports the workspace's public surface so that
//! downstream users (and the examples under `examples/`) only need one
//! dependency:
//!
//! * [`runtime`] — the threading library and session API
//!   ([`InspectorSession`](runtime::InspectorSession),
//!   [`ThreadCtx`](runtime::ThreadCtx), the `sync` primitives, each of
//!   which owns its synchronization object's clock);
//! * [`core`] — the Concurrent Provenance Graph and its recorder
//!   ([`ThreadRecorder`](core::ThreadRecorder) per thread,
//!   [`SyncObject`](core::SyncObject) per synchronization object), queries,
//!   taint tracking and snapshots;
//! * [`mem`] — the paged shared-memory substrate;
//! * [`pt`] — the PT packet encoder/decoder;
//! * [`perf`] — the perf-style trace session, cgroup filter and LZ
//!   compressor;
//! * [`workloads`] — the twelve PARSEC/Phoenix benchmark applications.
//!
//! ## Quickstart
//!
//! ```
//! use inspector::prelude::*;
//! use std::sync::Arc;
//!
//! let session = InspectorSession::new(SessionConfig::inspector());
//! let counter = session.map_region("counter", 8).base();
//! let lock = Arc::new(InspMutex::new());
//!
//! let report = session.run(move |ctx| {
//!     let mut workers = Vec::new();
//!     for _ in 0..4 {
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
//!
//! assert_eq!(report.cpg.stats().threads, 5);
//! let query = ProvenanceQuery::new(&report.cpg);
//! let page = PageId::new(counter.raw() / 4096);
//! assert_eq!(query.writers_of(page).len(), 4);
//! // Every worker's write is in the backward data slice of the page.
//! assert_eq!(query.explain_page(page).len(), 4);
//! ```

pub use inspector_core as core;
pub use inspector_mem as mem;
pub use inspector_perf as perf;
pub use inspector_pt as pt;
pub use inspector_runtime as runtime;
pub use inspector_workloads as workloads;

/// Commonly used items, re-exported for `use inspector::prelude::*`.
pub mod prelude {
    pub use inspector_core::graph::{Cpg, EdgeKind};
    pub use inspector_core::ids::{PageId, SubId, SyncObjectId, ThreadId};
    pub use inspector_core::query::{EdgeFilter, ProvenanceQuery};
    pub use inspector_core::recover::{recover_session, Recovery, RecoveryReport};
    pub use inspector_core::spill::SpillDurability;
    pub use inspector_core::taint::{TaintLabel, TaintTracker};
    pub use inspector_mem::addr::VirtAddr;
    pub use inspector_runtime::sync::{
        InspBarrier, InspCondvar, InspMutex, InspRwLock, InspSemaphore,
    };
    pub use inspector_runtime::{
        ExecutionMode, FaultPlan, InspectorSession, JoinHandle, RunReport, SessionConfig,
        SessionError, ThreadCtx, WorkerFailure,
    };
    pub use inspector_workloads::{all_workloads, workload_by_name, InputSize, Workload};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_wired() {
        use crate::prelude::*;
        let session = InspectorSession::new(SessionConfig::inspector());
        let report = session.run(|ctx| ctx.branch(true));
        assert_eq!(report.mode, ExecutionMode::Inspector);
        assert_eq!(all_workloads().len(), 12);
    }
}
