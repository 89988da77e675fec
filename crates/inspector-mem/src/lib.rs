//! # inspector-mem
//!
//! The memory substrate that INSPECTOR's threading library is built on
//! (paper §V-A). The real system relies on three OS/hardware facilities:
//!
//! 1. **MMU-assisted memory tracking** — `mprotect(PROT_NONE)` at the start
//!    of every sub-computation plus a SIGSEGV handler derives page-granular
//!    read and write sets from the first access to each page;
//! 2. **threads as processes** — every thread runs in its own process so the
//!    page protections (and private copies) of different threads are
//!    independent;
//! 3. **shared-memory commit** — the globals and the heap are backed by a
//!    memory-mapped file; each thread writes to private copy-on-write pages
//!    and publishes a byte-level diff at synchronization points
//!    (last-writer-wins), which implements Release Consistency.
//!
//! None of those facilities are portable (or available to a pure-Rust
//! library), so this crate provides software equivalents with the same
//! observable behaviour: a [`shared::SharedImage`] plays the role of the
//! memory-mapped file, a [`thread_mem::ThreadMemory`] plays the role of one
//! thread's private address space (protection bits, fault accounting,
//! copy-on-write twins), and [`commit`] implements the byte-level diff and
//! last-writer-wins merge.
//!
//! The application thread's critical path is kept to the paper's work —
//! first touch faults, later accesses are free:
//!
//! * **one per-thread page table** ([`thread_mem`]): a slab of entries
//!   (page, cached `Arc<SharedPage>`, protection flags, private copy) behind
//!   one `PageId -> slot` index with a last-slot fast path, so a repeat
//!   access is a compare and an index and never re-resolves the shared page;
//! * **interval stamps**: an entry's protection flags count only while its
//!   stamp equals the view's current interval, so `commit`, `protect_all`
//!   and `discard` revoke every protection by bumping one counter;
//! * **pooled private copies, lazy twins**: a dirty page's twin and working
//!   copy share one buffer from a bounded per-view free list that commit and
//!   discard refill, so a write fault allocates nothing in steady state. The
//!   write fault snapshots the working copy only; each write copies into the
//!   twin just the bytes it adds to the page's written range `[lo, hi)`, so
//!   a page written in one place is never copied whole twice;
//! * **kept copies, commit versions**: a commit that no other thread's
//!   commit to the page overtook keeps the page's buffer, which then equals
//!   the shared page at the version its commit made. The next write fault on
//!   that page copies nothing if the version has not moved, reads only the
//!   last commit's recorded range if it moved by one, and snapshots the page
//!   otherwise;
//! * **one word-wide span kernel** ([`commit`]): equal regions and differing
//!   runs are both crossed 8 bytes at a time; `commit` runs it over each
//!   page's written range only, fused with the store into the cached shared
//!   page (no intermediate diff), and the public `diff_page` runs the same
//!   kernel over whole pages into a `PageDiff`;
//! * **word-wide shared pages** ([`shared`]): a `SharedPage` is relaxed
//!   atomic `u64` words, byte `i` in little-endian lane `i % 8` of word
//!   `i / 8`, so a page snapshot is 512 word loads, a clean-page read inside one word
//!   is one load and a shift, and a commit stores whole words outright and
//!   merges partial ones with one compare-and-swap that replaces only its
//!   own lanes — every byte still behaves as its own atomic.
//!
//! The native baseline (`TrackingMode::Native`, `SharedImage::read_direct` /
//! `write_direct`) deliberately stays as it was: it still resolves
//! `SharedImage::page` on every access, which the tracked path no longer
//! does, so on access-bound programs tracked execution can now measure
//! *below* native (`overhead_x` < 1). That is a property of this software
//! baseline, not of INSPECTOR; giving native the same per-thread page cache
//! is ROADMAP open item 1(a).
//!
//! ```
//! use std::sync::Arc;
//! use inspector_mem::shared::SharedImage;
//! use inspector_mem::thread_mem::{ThreadMemory, TrackingMode};
//!
//! let image = SharedImage::shared(4096);
//! let region = image.map_region("heap", 4096 * 4);
//! let mut mem = ThreadMemory::new(Arc::clone(&image), TrackingMode::Tracked);
//! mem.write_u64(region.base(), 42);
//! assert_eq!(mem.read_u64(region.base()), 42);
//! // Nothing is visible in the shared image until the thread commits.
//! assert_eq!(image.read_u64_direct(region.base()), 0);
//! mem.commit();
//! assert_eq!(image.read_u64_direct(region.base()), 42);
//! ```

pub mod addr;
pub mod alloc;
pub mod commit;
pub mod region;
pub mod shared;
pub mod stats;
pub mod thread_mem;

pub use addr::{PageId, VirtAddr, DEFAULT_PAGE_SIZE};
pub use alloc::HeapAllocator;
pub use region::Region;
pub use shared::SharedImage;
pub use stats::MemStats;
pub use thread_mem::{AccessRecord, ThreadMemory, TrackingMode};
