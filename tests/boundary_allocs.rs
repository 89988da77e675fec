//! An exact work counter for the synchronization boundary: heap allocations
//! and bytes the *application thread* pays per `sync_boundary`, counted by a
//! wrapping global allocator around a `reverse_index`-shaped loop.
//!
//! The boundary path is supposed to be allocation-free apart from one
//! exact-size branch log per sub-computation that branched (see
//! `inspector-runtime/src/ctx.rs`). Timings on a shared box cannot pin that;
//! a count can: it is the same on every runner, so one extra allocation per
//! boundary fails here. Before PR 21 this loop read 5.09 allocations and
//! 880 bytes per boundary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use inspector::prelude::*;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set by an application thread for the span it wants counted. Ingest
    /// workers and the test harness never set it.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// `System`, counting what armed threads allocate.
struct CountingAllocator;

impl CountingAllocator {
    fn note(bytes: usize) {
        // `try_with`: the allocator also runs while a thread's locals are
        // being torn down.
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting in between touches only
// atomics and a `const`-initialised, destructor-free thread-local, neither
// of which allocates or unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: `ptr` and `layout` describe a live block of this allocator,
        // i.e. of `System`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const THREADS: u64 = 2;
const ITERATIONS: u64 = 20_000;

#[test]
fn a_boundary_costs_the_app_thread_at_most_one_allocation() {
    let session = InspectorSession::new(SessionConfig::inspector().with_ingest_threads(1));
    let heads = session.map_region("heads", 8 * 64).base();
    let lock = Arc::new(InspMutex::new());
    let report = session.run(|ctx| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                let lock = Arc::clone(&lock);
                ctx.spawn(move |ctx| {
                    ctx.set_pc(0x49_0000);
                    COUNTING.set(true);
                    // One `reverse_index` link per iteration: scan a word
                    // (branches), allocate and fill a 16-byte node, then
                    // push it onto a bucket under the lock.
                    for i in 0..ITERATIONS {
                        for bit in 0..6 {
                            ctx.branch((i >> bit) & 1 == 0);
                        }
                        let node = ctx.alloc(16);
                        ctx.write_u64(node, i);
                        lock.lock(ctx);
                        let head_addr = heads.add((i % 64) * 8);
                        let head = ctx.read_u64(head_addr);
                        ctx.write_u64(node.add(8), head);
                        ctx.write_u64(head_addr, node.raw());
                        lock.unlock(ctx);
                    }
                    COUNTING.set(false);
                })
            })
            .collect();
        for worker in workers {
            ctx.join(worker);
        }
    });
    assert!(!report.stats.degraded);
    assert!(report.cpg.validate().is_ok());

    // Two boundaries per iteration: the lock's acquire and its release.
    let boundaries = (THREADS * ITERATIONS * 2) as f64;
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) as f64 / boundaries;
    let bytes = BYTES.load(Ordering::Relaxed) as f64 / boundaries;
    println!("per boundary on the app thread: {allocations:.3} allocations, {bytes:.1} bytes");
    assert!(
        allocations <= 1.1,
        "{allocations:.3} allocations per boundary (limit 1.1)"
    );
    assert!(bytes <= 150.0, "{bytes:.1} bytes per boundary (limit 150)");
}
