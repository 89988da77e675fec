//! Where a thread's run is allocated: the ingest worker grows each run but
//! never makes one.
//!
//! glibc keeps a block in the arena it came from when `realloc` grows it,
//! and an arena keeps what is freed into it. The seal frees every run on
//! the session's calling thread, so a run must start there: grown from a
//! block the worker made, it stays in the worker's arena after the worker
//! exits, and a later run's worker, in another arena, leaves another run's
//! worth behind (on a 2-vCPU guest, `fault_commit`'s `peak_rss_mib`
//! climbed that way to ≈ 160 MiB, against ≈ 78 with the runs opened on
//! the caller). A first block of one node is not enough either: a request
//! that small can be served from the caller's cache of freed small blocks,
//! which any thread's arena can have filled, so a run's first block is
//! 4 KiB.
//!
//! Resident memory itself is a poor test: whether the worker lands in a
//! fresh arena depends on the allocator's history, and the caller's own
//! arena keeps or trims its free space from one session to the next. What
//! the ingest worker allocates is exact, so this test counts that.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use inspector::core::subcomputation::SubComputation;
use inspector::prelude::*;

/// Blocks laid out as `[SubComputation]` that an ingest worker allocated
/// fresh.
static WORKER_RUN_ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Reallocations of such blocks on an ingest worker.
static WORKER_RUN_REALLOCS: AtomicU64 = AtomicU64::new(0);
/// The smallest block of that layout an ingest worker reallocated.
static SMALLEST_GROWN: AtomicU64 = AtomicU64::new(u64::MAX);

thread_local! {
    /// Whether this thread is an ingest worker: `None` until its first
    /// block of the run layout, when the thread's name is read once.
    static INGEST_WORKER: Cell<Option<bool>> = const { Cell::new(None) };
    /// Set while the name is read, whose own allocations are not counted.
    static READING_NAME: Cell<bool> = const { Cell::new(false) };
}

/// Whether `layout` is that of a run's block, `[SubComputation]`.
fn is_run(layout: Layout) -> bool {
    let node = Layout::new::<SubComputation>();
    layout.align() == node.align() && layout.size() > 0 && layout.size().is_multiple_of(node.size())
}

/// Whether the calling thread is one of the session's ingest workers.
fn on_ingest_worker() -> bool {
    if READING_NAME.try_with(Cell::get).unwrap_or(true) {
        return false;
    }
    INGEST_WORKER
        .try_with(|known| {
            known.get().unwrap_or_else(|| {
                READING_NAME.set(true);
                let worker = std::thread::current()
                    .name()
                    .is_some_and(|name| name.starts_with("inspector-cpg-ingest-"));
                READING_NAME.set(false);
                known.set(Some(worker));
                worker
            })
        })
        .unwrap_or(false)
}

/// `System`, noting what ingest workers do with blocks of the run layout.
struct NotingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the noting in between touches only
// atomics and `const`-initialised, destructor-free thread-locals, and reads
// the thread's name once per thread outside the noting itself.
unsafe impl GlobalAlloc for NotingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if is_run(layout) && on_ingest_worker() {
            WORKER_RUN_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if is_run(layout) && on_ingest_worker() {
            WORKER_RUN_REALLOCS.fetch_add(1, Ordering::Relaxed);
            SMALLEST_GROWN.fetch_min(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: `ptr` and `layout` describe a live block of this
        // allocator, i.e. of `System`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: NotingAllocator = NotingAllocator;

#[test]
fn the_ingest_worker_grows_runs_it_never_allocates() {
    // `tests/boundary_allocs.rs`'s loop: two threads each link 20 000
    // nodes onto 64 buckets under one lock, so each run grows to 40 001
    // nodes on the worker.
    let session = InspectorSession::new(SessionConfig::inspector().with_ingest_threads(1));
    let heads = session.map_region("heads", 8 * 64).base();
    let lock = Arc::new(InspMutex::new());
    let report = session.run(|ctx| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let lock = Arc::clone(&lock);
                ctx.spawn(move |ctx| {
                    for i in 0..20_000u64 {
                        let node = ctx.alloc(16);
                        ctx.write_u64(node, i);
                        lock.lock(ctx);
                        let head_addr = heads.add((i % 64) * 8);
                        let head = ctx.read_u64(head_addr);
                        ctx.write_u64(node.add(8), head);
                        ctx.write_u64(head_addr, node.raw());
                        lock.unlock(ctx);
                    }
                })
            })
            .collect();
        for worker in workers {
            ctx.join(worker);
        }
    });
    assert!(!report.stats.degraded);
    assert!(report.cpg.node_count() > 80_000);

    let grown = WORKER_RUN_REALLOCS.load(Ordering::Relaxed);
    assert!(grown > 0, "the worker grew no run: the test saw nothing");
    assert_eq!(
        WORKER_RUN_ALLOCS.load(Ordering::Relaxed),
        0,
        "the ingest worker allocated a run's block itself"
    );
    let smallest = SMALLEST_GROWN.load(Ordering::Relaxed);
    assert!(
        smallest >= 4096,
        "the worker grew a {smallest}-byte run block: a first block under \
         4 KiB may come from another thread's arena"
    );
}
