//! The per-thread execution context.
//!
//! A [`ThreadCtx`] is the handle through which application code touches
//! shared memory, records branches and performs thread management. One
//! context exists per logical thread; in INSPECTOR mode it bundles the
//! thread's private memory view, provenance recorder and PT trace (the
//! "thread as a process" of the paper), in native mode it degrades to a thin
//! wrapper over direct shared-memory access.
//!
//! # What a synchronization boundary costs
//!
//! [`ThreadCtx::sync_boundary`] runs at every acquire and release — ~100 k
//! times in a `reverse_index` run — and the provenance work of one boundary
//! is a fraction of a microsecond, so a heap allocation, a copy or a futex
//! wake per boundary is what the overhead ratio would be made of. The path
//! has none of them by construction: the interval's first-touch records fold
//! into inline page sets, the recorder hands the closed sub-computation out
//! by value and it travels the lane as itself (no batch vector, no list to
//! take and regrow), the thread clock is copied inline, the PT flush appends
//! straight to the thread's own log (the session takes the log over once,
//! at thread exit), and the ingest worker is woken
//! once per backlog, not once per message (`lane.rs`). What a boundary
//! still pays is the commit, the object's clock join, a copy of the branch
//! log at 2 bits per branch — inline up to 40 conditionals under one label,
//! one exact-size block beyond — and two queue operations.
//! `tests/boundary_allocs.rs` pins the allocation count, so a new
//! per-boundary allocation fails CI rather than a benchmark.
//!
//! Where that work runs matters as much as what it costs: a lock's
//! boundaries would otherwise sit inside its critical section and serialize
//! the threads waiting for it. The shims in [`crate::sync`] therefore split
//! each boundary around the blocking operation. An **acquire** commits,
//! closes the sub-computation and hands it off (lane publish, PT flush)
//! *before* it blocks, and after it returns only joins the object's clock
//! and starts the next sub-computation. A **release** commits, closes and
//! publishes its clock *before* the real release — an acquirer that returns
//! must find both — and starts the next sub-computation and hands off
//! *after* it. What a lock holder still does under the lock is the join,
//! the app's own work, the commit and the close. Each closed
//! sub-computation is the one [`ThreadCtx::sync_boundary`] would close: its
//! clock was stamped when it started.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use inspector_core::event::{AccessKind, BranchKind, SyncKind};
use inspector_core::ids::{PageId as CorePageId, SyncObjectId, ThreadId};
use inspector_core::recorder::{SyncObject, ThreadRecorder};
use inspector_core::subcomputation::SubComputation;
use inspector_mem::addr::VirtAddr;
use inspector_mem::thread_mem::{ThreadMemory, TrackingMode};
use inspector_pt::branch::BranchEvent;
use inspector_pt::trace::ThreadTrace;

use crate::config::ExecutionMode;
use crate::lane::LaneSender;
use crate::session::{IngestMsg, Shared, ThreadDone};

/// Allocates process-wide unique synchronization-object identifiers.
static NEXT_SYNC_ID: AtomicU64 = AtomicU64::new(1);

/// A synchronization object with a fresh process-unique id and a zero
/// clock: what every primitive in [`crate::sync`] holds, and what a custom
/// primitive passes to [`ThreadCtx::sync_boundary`].
pub fn fresh_sync_object() -> SyncObject {
    let id = NEXT_SYNC_ID.fetch_add(1, Ordering::Relaxed);
    SyncObject::new(SyncObjectId::new(id))
}

/// Handle to a spawned worker thread, returned by [`ThreadCtx::spawn`] and
/// consumed by [`ThreadCtx::join`].
#[derive(Debug)]
pub struct JoinHandle {
    pub(crate) os_handle: std::thread::JoinHandle<()>,
    pub(crate) thread: ThreadId,
    /// Released by the worker as it exits and acquired by the join.
    pub(crate) exit_object: Arc<SyncObject>,
}

impl JoinHandle {
    /// The logical thread id of the spawned worker.
    pub fn thread(&self) -> ThreadId {
        self.thread
    }
}

/// The per-thread execution context.
#[derive(Debug)]
pub struct ThreadCtx {
    shared: Arc<Shared>,
    thread: ThreadId,
    mem: ThreadMemory,
    recorder: ThreadRecorder,
    trace: Option<ThreadTrace>,
    /// This thread's lane of the session's provenance ingest pool
    /// (`ThreadId % pool`); retired sub-computations and the exit
    /// statistics flow through it.
    ingest: Option<LaneSender<IngestMsg>>,
    /// Synthetic program counter used to label conditional branches.
    pc: u64,
    spawn_overhead: Duration,
}

impl ThreadCtx {
    pub(crate) fn new_root(shared: Arc<Shared>) -> Self {
        let thread = shared.allocate_thread_id();
        Self::build(shared, thread, Duration::ZERO)
    }

    pub(crate) fn new_child(
        shared: Arc<Shared>,
        thread: ThreadId,
        start_object: SyncObject,
    ) -> Self {
        // Threads-as-processes: creating the child means duplicating its
        // page-table/protection state for every mapped page, which is why
        // process creation is noticeably more expensive than thread creation
        // (the kmeans outlier in the paper).
        let spawn_overhead = if shared.config.mode == ExecutionMode::Inspector {
            let start = Instant::now();
            let mut checksum: u64 = 0;
            for region in shared.image.regions() {
                for page in region.pages() {
                    checksum = checksum.wrapping_mul(31).wrapping_add(page.number());
                }
            }
            std::hint::black_box(checksum);
            start.elapsed()
        } else {
            Duration::ZERO
        };
        let mut ctx = Self::build(shared, thread, spawn_overhead);
        // The implicit happens-before edge of pthread_create: the parent
        // released `start_object` just before forking; the child acquires it
        // as its first action.
        ctx.sync_boundary(&start_object, SyncKind::Acquire);
        ctx
    }

    fn build(shared: Arc<Shared>, thread: ThreadId, spawn_overhead: Duration) -> Self {
        let tracking = match shared.config.mode {
            ExecutionMode::Inspector => TrackingMode::Tracked,
            ExecutionMode::Native => TrackingMode::Native,
        };
        let mem = ThreadMemory::new(Arc::clone(&shared.image), tracking);
        let recorder = ThreadRecorder::new(thread);
        let trace = match shared.config.mode {
            ExecutionMode::Inspector => {
                let mut trace = ThreadTrace::with_aux_capacity(
                    0x40_0000 + thread.index() as u64 * 0x1000,
                    shared.config.aux_capacity,
                );
                let overflow = shared.config.fault_plan.overflow_bytes;
                if overflow > 0 {
                    // Deterministic fault injection: open every thread's
                    // trace with one overflow episode of the configured
                    // size, as if the consumer fell behind right away. The
                    // loss flows through the normal OVF accounting and the
                    // decoders' gap-aware paths.
                    trace.inject_overflow(overflow);
                }
                Some(trace)
            }
            ExecutionMode::Native => None,
        };
        // One lane of the ingest pool, fixed by thread id: every
        // sub-computation of this thread travels the same lane, so
        // per-thread FIFO delivery survives the fan-out.
        let ingest = shared.ingest_sender_for(thread);
        ThreadCtx {
            shared,
            thread,
            mem,
            recorder,
            trace,
            ingest,
            pc: 0x40_0000,
            spawn_overhead,
        }
    }

    /// The execution mode of the session.
    pub fn mode(&self) -> ExecutionMode {
        self.shared.config.mode
    }

    // ----- shared-memory access ---------------------------------------------

    /// Reads raw bytes from shared memory.
    pub fn read_bytes(&mut self, addr: VirtAddr, buf: &mut [u8]) {
        self.mem.read_bytes(addr, buf);
    }

    /// Writes raw bytes to shared memory.
    pub fn write_bytes(&mut self, addr: VirtAddr, data: &[u8]) {
        self.mem.write_bytes(addr, data);
    }

    /// Reads a `u64` from shared memory.
    pub fn read_u64(&mut self, addr: VirtAddr) -> u64 {
        self.mem.read_u64(addr)
    }

    /// Writes a `u64` to shared memory.
    pub fn write_u64(&mut self, addr: VirtAddr, value: u64) {
        self.mem.write_u64(addr, value);
    }

    /// Reads a `u32` from shared memory.
    pub fn read_u32(&mut self, addr: VirtAddr) -> u32 {
        self.mem.read_u32(addr)
    }

    /// Writes a `u32` to shared memory.
    pub fn write_u32(&mut self, addr: VirtAddr, value: u32) {
        self.mem.write_u32(addr, value);
    }

    /// Reads an `i64` from shared memory.
    pub fn read_i64(&mut self, addr: VirtAddr) -> i64 {
        self.mem.read_i64(addr)
    }

    /// Writes an `i64` to shared memory.
    pub fn write_i64(&mut self, addr: VirtAddr, value: i64) {
        self.mem.write_i64(addr, value);
    }

    /// Reads an `f64` from shared memory.
    pub fn read_f64(&mut self, addr: VirtAddr) -> f64 {
        self.mem.read_f64(addr)
    }

    /// Writes an `f64` to shared memory.
    pub fn write_f64(&mut self, addr: VirtAddr, value: f64) {
        self.mem.write_f64(addr, value);
    }

    /// Reads a byte from shared memory.
    pub fn read_u8(&mut self, addr: VirtAddr) -> u8 {
        self.mem.read_u8(addr)
    }

    /// Writes a byte to shared memory.
    pub fn write_u8(&mut self, addr: VirtAddr, value: u8) {
        self.mem.write_u8(addr, value);
    }

    // ----- heap ---------------------------------------------------------------

    /// Allocates `size` bytes from the shared heap (the `malloc` shim).
    ///
    /// # Panics
    ///
    /// Panics if the shared heap is exhausted.
    pub fn alloc(&mut self, size: u64) -> VirtAddr {
        // A `malloc` shim returns an address, so exhaustion ends the run.
        self.shared
            .allocator
            .alloc(size)
            .expect("shared heap exhausted")
    }

    /// Frees a block returned by [`alloc`](Self::alloc).
    pub fn free(&mut self, addr: VirtAddr) {
        self.shared.allocator.free(addr);
    }

    // ----- control flow --------------------------------------------------------

    /// Sets the synthetic program counter used to label subsequent
    /// conditional branches (typically once per loop or function).
    pub fn set_pc(&mut self, pc: u64) {
        self.pc = pc;
    }

    /// Records a conditional branch with the given direction.
    pub fn branch(&mut self, taken: bool) {
        if self.mode() == ExecutionMode::Native {
            return;
        }
        let kind = if taken {
            BranchKind::ConditionalTaken
        } else {
            BranchKind::ConditionalNotTaken
        };
        self.recorder.on_branch(kind, self.pc);
        if let Some(t) = self.trace.as_mut() {
            t.record(BranchEvent::Conditional { taken });
        }
    }

    /// Records an indirect branch / call to `target`.
    pub fn call(&mut self, target: u64) {
        if self.mode() == ExecutionMode::Native {
            return;
        }
        self.recorder.on_branch(BranchKind::Indirect, target);
        if let Some(t) = self.trace.as_mut() {
            t.record(BranchEvent::Indirect { target });
        }
    }

    /// Records a function return to `target`.
    pub fn ret(&mut self, target: u64) {
        if self.mode() == ExecutionMode::Native {
            return;
        }
        self.recorder.on_branch(BranchKind::Return, target);
        if let Some(t) = self.trace.as_mut() {
            t.record(BranchEvent::Return { target });
        }
    }

    // ----- synchronization boundary ---------------------------------------------

    /// Ends the current sub-computation at a synchronization operation on
    /// `object`: publishes buffered writes (shared-memory commit), feeds the
    /// interval's first-touch accesses into the provenance recorder, joins
    /// the thread clock with `object`'s (into it for a release, from it for
    /// an acquire), and hands on what just retired —
    /// the closed sub-computation into the streaming CPG pipeline and the
    /// pending PT packet bytes into the thread's log.
    ///
    /// The synchronization primitives in [`crate::sync`] run the same work
    /// split around their blocking operation (see the module docs); this
    /// composition of the two halves is public so that custom primitives
    /// can participate in provenance recording (anything more exotic than
    /// acquire/release — e.g. ad-hoc spin loops — is unsupported, as in the
    /// paper). A custom primitive passes the one [`SyncObject`] it holds
    /// ([`fresh_sync_object`]) to each of its boundaries.
    pub fn sync_boundary(&mut self, object: &SyncObject, kind: SyncKind) {
        if self.mode() == ExecutionMode::Native {
            return;
        }
        let closed = self.close_at(object, kind);
        self.recorder.open_after_synchronization(object);
        self.hand_off(closed);
    }

    /// An acquire of `object` — `kind` is [`SyncKind::Acquire`], or
    /// [`SyncKind::ReleaseAcquire`] for a barrier, which also publishes the
    /// clock at the close — around the real blocking operation `block`: the
    /// boundary's commit, close and hand-off run before `block`, and only
    /// the clock join and the start of the next sub-computation after it —
    /// so a thread that returns from `block` holding a lock does nothing
    /// more under it than the join.
    pub(crate) fn acquire_with<R>(
        &mut self,
        object: &SyncObject,
        kind: SyncKind,
        block: impl FnOnce() -> R,
    ) -> R {
        if self.mode() == ExecutionMode::Native {
            return block();
        }
        let closed = self.close_at(object, kind);
        self.hand_off(closed);
        let result = block();
        self.recorder.open_after_synchronization(object);
        result
    }

    /// A release of `object` around the real operation `release`: the
    /// commit, the close and the clock's publication run before `release`
    /// (an acquirer that returns from the real operation must find both),
    /// the start of the next sub-computation and the hand-off after it.
    pub(crate) fn release_with(&mut self, object: &SyncObject, release: impl FnOnce()) {
        if self.mode() == ExecutionMode::Native {
            return release();
        }
        let closed = self.close_at(object, SyncKind::Release);
        release();
        self.recorder.open_after_synchronization(object);
        self.hand_off(closed);
    }

    /// The close half of a boundary: ends the tracking interval and closes
    /// the sub-computation at `object`, publishing the clock for a release.
    fn close_at(&mut self, object: &SyncObject, kind: SyncKind) -> SubComputation {
        self.end_interval();
        self.recorder.close_at_synchronization(object, kind)
    }

    /// The hand-off of a closed sub-computation: onto the lane, and the PT
    /// bytes recorded until its close into the thread's log.
    fn hand_off(&mut self, closed: SubComputation) {
        self.stream_retired(closed);
        if let Some(trace) = self.trace.as_mut() {
            trace.flush();
        }
    }

    /// Closes the tracking interval: feeds its first-touch accesses into
    /// the provenance recorder as the read/write set of the current
    /// sub-computation, then publishes the buffered writes.
    fn end_interval(&mut self) {
        for rec in self.mem.drain_access_log() {
            let page = CorePageId::new(rec.page.number());
            let access = if rec.write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            self.recorder.on_memory_access(page, access);
        }
        self.mem.commit();
    }

    /// Publishes a retired sub-computation on this thread's lane of the
    /// session's CPG pipeline, by value. The ingest worker's wake is the
    /// lane's business (deferred until a backlog is due).
    ///
    /// A send can only fail after the lane's worker is gone (run already
    /// over, or the worker died); provenance is then discarded, matching
    /// the old post-run behaviour.
    fn stream_retired(&self, retired: SubComputation) {
        if let Some(tx) = &self.ingest {
            let _ = tx.send(IngestMsg::Sub(retired));
        }
    }

    // ----- thread management -------------------------------------------------

    /// Spawns a worker thread running `f` (the `pthread_create` shim).
    ///
    /// Under INSPECTOR the worker becomes its own process: it gets a private
    /// memory view and its own PT trace, whose log the session keeps under
    /// the worker's thread id once it exits.
    pub fn spawn<F>(&mut self, f: F) -> JoinHandle
    where
        F: FnOnce(&mut ThreadCtx) + Send + 'static,
    {
        let child_thread = self.shared.allocate_thread_id();
        // Both objects live as long as the thread and its handle, no longer.
        let start_object = fresh_sync_object();
        let exit_object = Arc::new(fresh_sync_object());

        if self.mode() == ExecutionMode::Inspector {
            // The parent's updates so far happen-before everything the child
            // does: release the start object before forking.
            self.sync_boundary(&start_object, SyncKind::Release);
        }

        let shared = Arc::clone(&self.shared);
        let child_exit = Arc::clone(&exit_object);
        let os_handle = std::thread::spawn(move || {
            let mut ctx = ThreadCtx::new_child(shared, child_thread, start_object);
            f(&mut ctx);
            ctx.finish(Some(&child_exit));
        });
        self.shared.note_spawn();

        JoinHandle {
            os_handle,
            thread: child_thread,
            exit_object,
        }
    }

    /// Joins a worker thread (the `pthread_join` shim).
    ///
    /// # Panics
    ///
    /// Panics if the worker panicked.
    pub fn join(&mut self, handle: JoinHandle) {
        // Everything the child did happens-before the join returning.
        let JoinHandle {
            os_handle,
            exit_object,
            ..
        } = handle;
        self.acquire_with(&exit_object, SyncKind::Acquire, || {
            // A join that returned would order an unfinished thread before it.
            os_handle.join().expect("INSPECTOR worker thread panicked")
        });
    }

    /// Finalises the thread: commits outstanding writes, closes the last
    /// sub-computation, streams it, moves the thread's whole PT log into
    /// the session's logs under its thread id and reports the thread's
    /// statistics to the session. The log goes in here, not with the
    /// statistics on the lane, so a thread whose lane's worker died still
    /// keeps it.
    /// Called automatically for workers and for the root thread.
    pub(crate) fn finish(mut self, exit_object: Option<&SyncObject>) {
        let mode = self.mode();
        if mode == ExecutionMode::Inspector {
            if let Some(object) = exit_object {
                self.sync_boundary(object, SyncKind::Release);
            } else {
                // Root thread: flush the final interval without a release.
                self.end_interval();
            }
        }

        let mem_stats = self.mem.stats();
        let (log, pt_stats) = match self.trace.take() {
            Some(trace) => trace.finish(),
            None => (Vec::new(), Default::default()),
        };
        if !log.is_empty() {
            self.shared.logs.lock().insert(self.thread, log);
        }
        let last = self.recorder.retire_at_exit();
        if mode == ExecutionMode::Inspector {
            if let Some(last) = last {
                self.stream_retired(last);
            }
        }
        let recorder_stats = self.recorder.stats();
        if let Some(tx) = &self.ingest {
            // Urgent: the thread publishes nothing after this, so no later
            // backlog would ever wake the worker for it.
            let _ = tx.send_urgent(IngestMsg::Done(ThreadDone {
                thread: self.thread,
                mem: mem_stats,
                pt: pt_stats,
                recorder: recorder_stats,
                spawn_overhead: self.spawn_overhead,
            }));
        }
    }
}
