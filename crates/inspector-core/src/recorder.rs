//! The parallel provenance-recording algorithm (paper Algorithms 1 and 2).
//!
//! Each application thread owns a [`ThreadRecorder`]; synchronization-object
//! clocks live in a shared [`SyncClockRegistry`]. The threading library
//! drives the recorder: memory accesses extend the read/write sets, branches
//! extend the thunk list, and synchronization operations terminate the
//! current sub-computation and exchange vector clocks through the registry.
//!
//! The design is completely decentralized: threads only interact through the
//! per-object synchronization clocks, exactly as in the paper, so recording
//! does not serialize the application.
//!
//! # What closing a sub-computation costs
//!
//! A thread closes one sub-computation per synchronization operation, so
//! this is the runtime's per-boundary path. The streaming runtime takes each
//! closed sub-computation **by value**
//! ([`retire_at_synchronization`](ThreadRecorder::retire_at_synchronization),
//! [`retire_at_exit`](ThreadRecorder::retire_at_exit)) — it never sits in a
//! list that has to be taken and regrown. Page sets and clocks are inline
//! while small (`small.rs`), so stamping the next sub-computation copies the
//! thread clock without allocating. Branches are staged in one compact log
//! the recorder keeps (`thunk.rs`: 2 bits per branch, a few bytes per IP
//! change) and copied out at their exact size on retirement. Up to 15
//! bytes of log — 40 conditionals under one label — the copy sits inside
//! the sub-computation, so one that branched a little costs no allocation
//! either; a longer one costs one.
//! [`on_synchronization`](ThreadRecorder::on_synchronization) and
//! [`finish`](ThreadRecorder::finish) keep the whole sequence `L_t` for
//! callers that replay a trace offline.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::clock::VectorClock;
use crate::event::{AccessKind, BranchKind, SyncKind};
use crate::ids::{PageId, SubId, SyncObjectId, ThreadId};
use crate::subcomputation::{SubComputation, SyncPoint};
use crate::thunk::StagedThunks;

/// Shared registry of synchronization-object vector clocks (`C_S`).
///
/// The registry is the only point of inter-thread communication during
/// recording. Each entry is touched exactly when the owning synchronization
/// object is acquired or released, so contention mirrors the application's
/// own synchronization pattern.
#[derive(Debug, Default)]
pub struct SyncClockRegistry {
    clocks: Mutex<HashMap<SyncObjectId, VectorClock>>,
}

impl SyncClockRegistry {
    /// Creates an empty registry (all synchronization clocks are zero).
    pub fn new() -> Self {
        SyncClockRegistry::default()
    }

    /// Creates a reference-counted registry, the form used by the runtime.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// `release(S)`: merge the releasing thread's clock into `C_S`.
    pub fn release(&self, object: SyncObjectId, thread_clock: &VectorClock) {
        let mut clocks = self.clocks.lock();
        clocks.entry(object).or_default().join(thread_clock);
    }

    /// `acquire(S)`: merge `C_S` into the acquiring thread's clock.
    pub fn acquire(&self, object: SyncObjectId, thread_clock: &mut VectorClock) {
        let clocks = self.clocks.lock();
        if let Some(c) = clocks.get(&object) {
            thread_clock.join(c);
        }
    }

    /// Number of synchronization objects seen so far.
    pub fn len(&self) -> usize {
        self.clocks.lock().len()
    }

    /// Returns `true` if no synchronization object has been touched.
    pub fn is_empty(&self) -> bool {
        self.clocks.lock().is_empty()
    }
}

/// Counters accumulated while recording one thread, used by the evaluation
/// harness (page-fault rates, branch counts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecorderStats {
    /// First-touch page read events recorded.
    pub page_reads: u64,
    /// First-touch page write events recorded.
    pub page_writes: u64,
    /// Branch events recorded (all kinds).
    pub branches: u64,
    /// Sub-computations completed.
    pub subcomputations: u64,
    /// Synchronization operations performed.
    pub sync_ops: u64,
}

/// Per-thread provenance recorder implementing Algorithm 1.
#[derive(Debug)]
pub struct ThreadRecorder {
    thread: ThreadId,
    /// Thread clock `C_t`.
    clock: VectorClock,
    /// Sub-computation counter `α`.
    alpha: u64,
    /// The sub-computation currently being executed (its branches are in
    /// `staged` until it closes).
    current: SubComputation,
    /// Branches of the current sub-computation. One log across
    /// sub-computations: a closing one copies its branches out at their
    /// exact size, so the slack a growing log needs never reaches the graph.
    /// The buffer stays as large as the longest log the thread recorded —
    /// 2 bits per branch, 256 KiB for a million.
    staged: StagedThunks,
    /// Sub-computations closed through [`on_synchronization`] /
    /// [`on_thread_exit`], in execution order (`L_t`). The `retire_*` calls
    /// bypass it.
    ///
    /// [`on_synchronization`]: Self::on_synchronization
    /// [`on_thread_exit`]: Self::on_thread_exit
    completed: Vec<SubComputation>,
    stats: RecorderStats,
    registry: Arc<SyncClockRegistry>,
    finished: bool,
}

impl ThreadRecorder {
    /// `initThread(t)`: creates the recorder for thread `t` with all clocks
    /// zero and an open first sub-computation `L_t[0]`.
    pub fn new(thread: ThreadId, registry: Arc<SyncClockRegistry>) -> Self {
        let mut clock = VectorClock::new();
        // The thread's own component counts *started* sub-computations
        // (α + 1) so that the very first sub-computation does not carry an
        // all-zero clock, which would make it spuriously ordered before
        // every other thread's work.
        clock.set(thread, 1);
        let current = SubComputation::new(SubId::new(thread, 0), clock.clone());
        ThreadRecorder {
            thread,
            clock,
            alpha: 0,
            current,
            staged: StagedThunks::new(),
            completed: Vec::new(),
            stats: RecorderStats::default(),
            registry,
            finished: false,
        }
    }

    /// The thread this recorder belongs to.
    pub fn thread(&self) -> ThreadId {
        self.thread
    }

    /// A copy of the thread clock `C_t`.
    pub fn clock(&self) -> VectorClock {
        self.clock.clone()
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> RecorderStats {
        self.stats
    }

    /// `onMemoryAccess`: records a first-touch page access.
    pub fn on_memory_access(&mut self, page: PageId, kind: AccessKind) {
        debug_assert!(!self.finished, "recorder used after thread exit");
        match kind {
            AccessKind::Read => {
                if self.current.record_read(page) {
                    self.stats.page_reads += 1;
                }
            }
            AccessKind::Write => {
                if self.current.record_write(page) {
                    self.stats.page_writes += 1;
                }
            }
        }
    }

    /// `onBranchAccess`: closes the current thunk with the branch and opens
    /// the next one.
    pub fn on_branch(&mut self, kind: BranchKind, ip: u64) {
        debug_assert!(!self.finished, "recorder used after thread exit");
        self.stats.branches += 1;
        self.staged.record(kind, ip);
    }

    /// `onSynchronization`: ends the current sub-computation, performs the
    /// vector-clock exchange for the acquire/release operation and starts the
    /// next sub-computation. The closed sub-computation joins the sequence
    /// [`finish`](Self::finish) returns.
    ///
    /// The caller performs the *actual* blocking synchronization; the
    /// convention (matching the paper) is:
    /// * for a **release**, call this *before* the real operation,
    /// * for an **acquire**, call this *after* the real operation has
    ///   returned, so that the releasing thread's clock is already stored in
    ///   the registry.
    pub fn on_synchronization(&mut self, object: SyncObjectId, kind: SyncKind) -> SubId {
        let closed = self.retire_at_synchronization(object, kind);
        self.completed.push(closed);
        self.current.id
    }

    /// [`on_synchronization`](Self::on_synchronization), handing the closed
    /// sub-computation to the caller **by value** instead of keeping it —
    /// the hand-off point of the streaming CPG pipeline. The runtime calls
    /// this at every synchronization boundary, so retired provenance flows
    /// into the graph while the thread keeps running and the recorder holds
    /// nothing but the sub-computation in progress.
    pub fn retire_at_synchronization(
        &mut self,
        object: SyncObjectId,
        kind: SyncKind,
    ) -> SubComputation {
        debug_assert!(!self.finished, "recorder used after thread exit");
        self.stats.sync_ops += 1;
        let closed = self.close_current(Some(SyncPoint { object, kind }));
        match kind {
            SyncKind::Release => {
                self.registry.release(object, &self.clock);
            }
            SyncKind::Acquire => {
                self.registry.acquire(object, &mut self.clock);
            }
            SyncKind::ReleaseAcquire => {
                self.registry.release(object, &self.clock);
                self.registry.acquire(object, &mut self.clock);
            }
        }
        self.start_next();
        closed
    }

    /// Marks the thread as terminated, closing the last sub-computation
    /// into the sequence [`finish`](Self::finish) returns.
    pub fn on_thread_exit(&mut self) {
        if let Some(last) = self.retire_at_exit() {
            self.completed.push(last);
        }
    }

    /// [`on_thread_exit`](Self::on_thread_exit), handing the last
    /// sub-computation to the caller by value. `None` if the thread already
    /// exited.
    pub fn retire_at_exit(&mut self) -> Option<SubComputation> {
        if self.finished {
            return None;
        }
        self.finished = true;
        Some(self.close_current(None))
    }

    /// Consumes the recorder and returns the thread's execution sequence
    /// `L_t` — the sub-computations closed through
    /// [`on_synchronization`](Self::on_synchronization) and the thread's
    /// exit, in order. Sub-computations handed out by the `retire_*` calls
    /// are the caller's and do not appear.
    pub fn finish(mut self) -> Vec<SubComputation> {
        self.on_thread_exit();
        self.completed
    }

    /// Sub-computations closed into the kept sequence so far (not including
    /// the one in progress).
    pub fn completed(&self) -> &[SubComputation] {
        &self.completed
    }

    /// Closes the current sub-computation and returns it, leaving an empty
    /// placeholder for α + 1 that [`start_next`](Self::start_next) stamps.
    fn close_current(&mut self, terminator: Option<SyncPoint>) -> SubComputation {
        self.stats.subcomputations += 1;
        let mut closed = std::mem::replace(
            &mut self.current,
            SubComputation::new(SubId::new(self.thread, self.alpha + 1), VectorClock::new()),
        );
        closed.terminator = terminator;
        closed.thunks = self.staged.take(closed.id);
        closed
    }

    /// `startSub-computation`: bumps α, refreshes `C_t[t]` and stamps the new
    /// sub-computation's clock.
    fn start_next(&mut self) {
        self.alpha += 1;
        self.clock.set(self.thread, self.alpha + 1);
        self.current = SubComputation::new(SubId::new(self.thread, self.alpha), self.clock.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }

    #[test]
    fn memory_accesses_build_read_write_sets() {
        let reg = SyncClockRegistry::shared();
        let mut r = ThreadRecorder::new(t(0), reg);
        r.on_memory_access(PageId::new(1), AccessKind::Read);
        r.on_memory_access(PageId::new(1), AccessKind::Read);
        r.on_memory_access(PageId::new(2), AccessKind::Write);
        let subs = r.finish();
        assert_eq!(subs.len(), 1);
        assert!(subs[0].reads(PageId::new(1)));
        assert!(subs[0].writes(PageId::new(2)));
    }

    #[test]
    fn stats_count_first_touch_only() {
        let reg = SyncClockRegistry::shared();
        let mut r = ThreadRecorder::new(t(0), reg);
        r.on_memory_access(PageId::new(1), AccessKind::Read);
        r.on_memory_access(PageId::new(1), AccessKind::Read);
        assert_eq!(r.stats().page_reads, 1);
    }

    #[test]
    fn synchronization_splits_subcomputations() {
        let reg = SyncClockRegistry::shared();
        let mut r = ThreadRecorder::new(t(0), reg);
        r.on_memory_access(PageId::new(1), AccessKind::Write);
        let s = SyncObjectId::new(1);
        let next = r.on_synchronization(s, SyncKind::Release);
        assert_eq!(next.alpha, 1);
        r.on_memory_access(PageId::new(2), AccessKind::Write);
        let subs = r.finish();
        assert_eq!(subs.len(), 2);
        assert!(subs[0].writes(PageId::new(1)));
        assert!(subs[1].writes(PageId::new(2)));
        assert_eq!(subs[0].terminator.unwrap().kind, SyncKind::Release);
        assert!(subs[1].terminator.is_none());
    }

    #[test]
    fn release_acquire_orders_cross_thread_subcomputations() {
        let reg = SyncClockRegistry::shared();
        let s = SyncObjectId::new(42);

        // Thread 0 writes page 1 and releases S.
        let mut r0 = ThreadRecorder::new(t(0), Arc::clone(&reg));
        r0.on_memory_access(PageId::new(1), AccessKind::Write);
        r0.on_synchronization(s, SyncKind::Release);
        let l0 = r0.finish();

        // Thread 1 acquires S and reads page 1.
        let mut r1 = ThreadRecorder::new(t(1), Arc::clone(&reg));
        r1.on_synchronization(s, SyncKind::Acquire);
        r1.on_memory_access(PageId::new(1), AccessKind::Read);
        let l1 = r1.finish();

        // T0.0 (the writer) must happen-before T1.1 (the reader after
        // acquire).
        assert!(l0[0].happens_before(&l1[1]));
        // ... but not before T1.0 (before the acquire).
        assert!(!l0[0].happens_before(&l1[0]));
    }

    #[test]
    fn branches_create_thunks() {
        let reg = SyncClockRegistry::shared();
        let mut r = ThreadRecorder::new(t(0), reg);
        r.on_branch(BranchKind::ConditionalTaken, 0x10);
        r.on_branch(BranchKind::ConditionalNotTaken, 0x20);
        r.on_branch(BranchKind::Return, 0x30);
        let subs = r.finish();
        // 3 closed thunks + 1 trailing open thunk.
        assert_eq!(subs[0].thunks.len(), 4);
        assert_eq!(subs[0].thunks.branches(), 3);
        assert_eq!(subs[0].thunks.conditional_branches(), 2);
    }

    #[test]
    fn thread_exit_is_idempotent() {
        let reg = SyncClockRegistry::shared();
        let mut r = ThreadRecorder::new(t(0), reg);
        r.on_thread_exit();
        r.on_thread_exit();
        assert_eq!(r.completed().len(), 1);
    }

    #[test]
    fn retired_subcomputations_are_handed_out_not_kept() {
        let reg = SyncClockRegistry::shared();
        let s = SyncObjectId::new(3);
        let mut streamed = ThreadRecorder::new(t(0), Arc::clone(&reg));
        let mut kept = ThreadRecorder::new(t(0), SyncClockRegistry::shared());
        let mut retired = Vec::new();
        for round in 0..3u64 {
            for r in [&mut streamed, &mut kept] {
                r.on_memory_access(PageId::new(round), AccessKind::Write);
                for b in 0..round {
                    r.on_branch(BranchKind::ConditionalTaken, 0x10 + b);
                }
            }
            retired.push(streamed.retire_at_synchronization(s, SyncKind::ReleaseAcquire));
            kept.on_synchronization(s, SyncKind::ReleaseAcquire);
        }
        assert!(streamed.completed().is_empty(), "nothing is kept");
        retired.extend(streamed.retire_at_exit());
        assert!(streamed.retire_at_exit().is_none(), "exit is idempotent");
        kept.on_thread_exit();
        assert_eq!(streamed.stats(), kept.stats());
        // Both routes close the same sub-computations.
        assert_eq!(retired, kept.finish());
        assert_eq!(retired[2].thunks.branches(), 2);
        assert!(retired[0].thunks.is_empty());
    }

    #[test]
    fn a_short_retire_leaves_staging_empty_and_allocates_nothing() {
        let reg = SyncClockRegistry::shared();
        let s = SyncObjectId::new(3);
        let mut r = ThreadRecorder::new(t(0), reg);
        // A new target per branch: a long log, grown on the heap.
        for b in 0..10_000u64 {
            r.on_branch(BranchKind::Indirect, b);
        }
        let long = r.retire_at_synchronization(s, SyncKind::Release);
        assert_eq!(long.thunks.branches(), 10_000);
        assert_eq!(long.thunks.iter().last().map(|t| t.entry_ip), Some(9_999));
        assert!(!long.thunks.is_inline());
        let buffer = r.staged.log_ptr();
        // 40 conditionals under one label are the most the list holds
        // inline: the copy needs no block, and staging keeps its buffer.
        for branches in [6, 40, 0] {
            for b in 0..branches {
                let kind = if b % 3 == 0 {
                    BranchKind::ConditionalTaken
                } else {
                    BranchKind::ConditionalNotTaken
                };
                r.on_branch(kind, 0x49_0000);
            }
            let closed = r.retire_at_synchronization(s, SyncKind::Release);
            assert_eq!(closed.thunks.branches(), branches);
            assert_eq!(closed.thunks.conditional_branches(), branches);
            assert!(closed.thunks.is_inline(), "{branches} branches");
            assert!(r.staged.is_empty());
            assert_eq!(r.staged.log_ptr(), buffer, "{branches} branches");
        }
    }

    #[test]
    fn new_registry_is_empty() {
        let reg = SyncClockRegistry::new();
        assert!(reg.is_empty());
        assert_eq!(reg.len(), 0);
    }
}
