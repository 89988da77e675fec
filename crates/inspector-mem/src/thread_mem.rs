//! One thread's private view of the shared address space.
//!
//! This is the software analogue of what a thread-as-process sees in the real
//! INSPECTOR: a private page table whose protection bits are reset at the
//! start of every sub-computation, private copy-on-write copies of the pages
//! it writes, and a commit operation that publishes byte-level diffs to the
//! shared image at synchronization points.
//!
//! # The page table
//!
//! Every page the thread has ever touched owns one `PageEntry` in a slab,
//! found through one `PageId -> slot` index with a last-slot fast path: a
//! repeat access to the same page is a compare and an index. The entry caches
//! the `Arc<SharedPage>`, so the shared image's page map is consulted once
//! per page per thread, never per access.
//!
//! **Invariant: an entry's `readable`/`writable` flags are valid iff its
//! `stamp` equals the view's current `interval`.** Ending a tracking interval
//! ([`ThreadMemory::commit`], [`ThreadMemory::protect_all`],
//! [`ThreadMemory::discard`]) bumps `interval`, which revokes every
//! protection at once — the `mprotect(PROT_NONE)` over the whole mapping —
//! without visiting an entry.
//!
//! A written page additionally holds one pooled buffer (`twin | working`,
//! two pages long) and sits in the `dirty` list in first-write order, which
//! is the order `commit` publishes in. Commit and discard hand the buffers
//! back to a bounded free list, so a write fault allocates nothing in steady
//! state. Private copies are *not* interval-stamped: `protect_all` with
//! uncommitted writes makes the pages fault again but keeps their twins.
//!
//! The important behavioural properties preserved from the paper:
//!
//! * the **first** read or write of a page in a tracking interval "faults"
//!   (is recorded and counted); subsequent accesses are free;
//! * writes are invisible to other threads until [`ThreadMemory::commit`];
//! * reads return the thread's own uncommitted writes (read-your-writes) and
//!   otherwise the shared image;
//! * in [`TrackingMode::Native`] none of this happens — accesses go straight
//!   to the shared image, which is the pthreads baseline the evaluation
//!   compares against.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::addr::{split_by_page, PageId, VirtAddr};
use crate::commit::{commit_page, CommitOutcome};
use crate::shared::{SharedImage, SharedPage};
use crate::stats::MemStats;

/// Whether accesses are tracked (INSPECTOR mode) or direct (native pthreads
/// baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrackingMode {
    /// Full provenance tracking: protection faults, COW twins, commit diffs.
    #[default]
    Tracked,
    /// Native baseline: direct access to the shared image, no tracking.
    Native,
}

/// A first-touch access recorded during the current tracking interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessRecord {
    /// The page that was touched.
    pub page: PageId,
    /// `true` if the first touch was (or later became) a write.
    pub write: bool,
}

/// Private-copy buffers kept for reuse per view (two pages each).
const POOL_MAX_BUFFERS: usize = 64;

/// One fault of each kind — and one commit — in this many is timed, and its
/// time stands for all of them: a clock read costs as much as the
/// bookkeeping of a read fault, and two of them a third of a one-page commit.
const SAMPLE_EVERY: u32 = 64;

/// Stopwatch for an event shorter than a clock read. Starting it reads the
/// clock twice back to back; the gap is what one read adds to an interval,
/// and [`Sample::scaled`] takes it off so the estimate is not mostly
/// stopwatch.
struct Sample {
    idle: Instant,
    start: Instant,
}

impl Sample {
    /// Starts the stopwatch if the event is due: `seen` of its kind came
    /// before it, and the first of every [`SAMPLE_EVERY`] is timed.
    fn due(seen: u64) -> Option<Sample> {
        seen.is_multiple_of(u64::from(SAMPLE_EVERY)).then(|| {
            let idle = Instant::now();
            Sample {
                idle,
                start: Instant::now(),
            }
        })
    }

    /// The time since the start, net of the clock, standing for
    /// [`SAMPLE_EVERY`] events — at least a nanosecond each, so sampled work
    /// never reads as none.
    fn scaled(self) -> Duration {
        let net = self.start.elapsed().saturating_sub(self.start - self.idle);
        net.max(Duration::from_nanos(1)) * SAMPLE_EVERY
    }
}

/// One page-table entry; see the module docs for the stamp invariant.
#[derive(Debug)]
struct PageEntry {
    page: PageId,
    shared: Arc<SharedPage>,
    /// The interval `readable`/`writable` were last set in.
    stamp: u64,
    readable: bool,
    writable: bool,
    /// Empty while the page is clean. While dirty: the shared page as it was
    /// at the first write (twin) followed by the thread's working copy.
    private: Box<[u8]>,
}

/// A thread's private, protection-tracked view of the shared image.
#[derive(Debug)]
pub struct ThreadMemory {
    image: Arc<SharedImage>,
    mode: TrackingMode,
    page_size: usize,
    table: Vec<PageEntry>,
    index: HashMap<PageId, usize>,
    /// Slot of the most recently accessed page.
    last_slot: usize,
    /// Current tracking interval; starts above every fresh entry's stamp.
    interval: u64,
    /// Slots holding a private copy, in first-write order.
    dirty: Vec<usize>,
    /// Free private-copy buffers, at most [`POOL_MAX_BUFFERS`].
    pool: Vec<Box<[u8]>>,
    /// First-touch log of the current tracking interval, drained by the
    /// runtime at synchronization points.
    access_log: Vec<AccessRecord>,
    stats: MemStats,
}

impl ThreadMemory {
    /// Creates a thread view over `image`.
    pub fn new(image: Arc<SharedImage>, mode: TrackingMode) -> Self {
        let page_size = image.page_size();
        ThreadMemory {
            image,
            mode,
            page_size,
            table: Vec::new(),
            index: HashMap::new(),
            last_slot: 0,
            interval: 1,
            dirty: Vec::new(),
            pool: Vec::new(),
            access_log: Vec::new(),
            stats: MemStats::default(),
        }
    }

    /// The tracking mode this view was created with.
    pub fn mode(&self) -> TrackingMode {
        self.mode
    }

    /// The shared image backing this view.
    pub fn image(&self) -> &Arc<SharedImage> {
        &self.image
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Drains the first-touch access log of the current interval, keeping
    /// the log's buffer for the next one.
    ///
    /// The runtime calls this at every synchronization point and feeds the
    /// records into the provenance recorder as the read/write set of the
    /// finished sub-computation.
    pub fn drain_access_log(&mut self) -> std::vec::Drain<'_, AccessRecord> {
        self.access_log.drain(..)
    }

    /// Starts a new tracking interval: equivalent to `mprotect(PROT_NONE)`
    /// over the whole shared mapping — every page will fault again on first
    /// access.
    pub fn protect_all(&mut self) {
        self.interval += 1;
    }

    // ----- raw byte access -------------------------------------------------

    /// Reads `buf.len()` bytes starting at `addr`.
    pub fn read_bytes(&mut self, addr: VirtAddr, buf: &mut [u8]) {
        if self.mode == TrackingMode::Native {
            self.image.read_direct(addr, buf);
            return;
        }
        let mut cursor = 0;
        for (page, offset, len) in split_by_page(addr, buf.len(), self.page_size) {
            let slot = self.slot_of(page);
            self.fault_on_read(slot);
            let entry = &self.table[slot];
            let dst = &mut buf[cursor..cursor + len];
            if entry.private.is_empty() {
                entry.shared.read(offset, dst);
            } else {
                dst.copy_from_slice(&entry.private[self.page_size + offset..][..len]);
            }
            cursor += len;
        }
    }

    /// Writes `data` starting at `addr` (buffered until the next commit).
    pub fn write_bytes(&mut self, addr: VirtAddr, data: &[u8]) {
        if self.mode == TrackingMode::Native {
            self.image.write_direct(addr, data);
            return;
        }
        let mut cursor = 0;
        for (page, offset, len) in split_by_page(addr, data.len(), self.page_size) {
            let slot = self.slot_of(page);
            self.fault_on_write(slot);
            self.table[slot].private[self.page_size + offset..][..len]
                .copy_from_slice(&data[cursor..cursor + len]);
            cursor += len;
        }
    }

    // ----- typed helpers ---------------------------------------------------

    /// Reads a little-endian `u64`.
    pub fn read_u64(&mut self, addr: VirtAddr) -> u64 {
        let mut b = [0u8; 8];
        self.read_bytes(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: VirtAddr, value: u64) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&mut self, addr: VirtAddr) -> u32 {
        let mut b = [0u8; 4];
        self.read_bytes(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: VirtAddr, value: u32) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Reads an `i64`.
    pub fn read_i64(&mut self, addr: VirtAddr) -> i64 {
        self.read_u64(addr) as i64
    }

    /// Writes an `i64`.
    pub fn write_i64(&mut self, addr: VirtAddr, value: i64) {
        self.write_u64(addr, value as u64);
    }

    /// Reads an `f64`.
    pub fn read_f64(&mut self, addr: VirtAddr) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes an `f64`.
    pub fn write_f64(&mut self, addr: VirtAddr, value: f64) {
        self.write_u64(addr, value.to_bits());
    }

    /// Reads a single byte.
    pub fn read_u8(&mut self, addr: VirtAddr) -> u8 {
        let mut b = [0u8; 1];
        self.read_bytes(addr, &mut b);
        b[0]
    }

    /// Writes a single byte.
    pub fn write_u8(&mut self, addr: VirtAddr, value: u8) {
        self.write_bytes(addr, &[value]);
    }

    // ----- commit ----------------------------------------------------------

    /// Publishes the thread's buffered writes to the shared image
    /// (byte-level diff against the twin, last-writer-wins, pages in
    /// first-write order), drops the private copies and re-protects every
    /// page.
    ///
    /// In native mode this is a no-op (writes were already direct).
    pub fn commit(&mut self) -> CommitOutcome {
        if self.mode == TrackingMode::Native {
            return CommitOutcome::default();
        }
        // One commit in `SAMPLE_EVERY` is timed (see `MemStats::commit_time`):
        // a boundary that dirtied one page spends a third of an exact
        // commit timer inside the clock.
        let sample = Sample::due(self.stats.commits);
        let mut outcome = CommitOutcome::default();
        for slot in self.dirty.drain(..) {
            let entry = &mut self.table[slot];
            let buf = std::mem::take(&mut entry.private);
            let (twin, working) = buf.split_at(self.page_size);
            let written = commit_page(&entry.shared, twin, working);
            outcome.pages_examined += 1;
            if written > 0 {
                outcome.pages_changed += 1;
                outcome.bytes_written += written;
            }
            self.pool.push(buf);
        }
        self.pool.truncate(POOL_MAX_BUFFERS);
        self.interval += 1;
        self.stats.commits += 1;
        self.stats.pages_examined += outcome.pages_examined as u64;
        self.stats.pages_committed += outcome.pages_changed as u64;
        self.stats.bytes_committed += outcome.bytes_written as u64;
        if let Some(sample) = sample {
            self.stats.commit_time += sample.scaled();
        }
        outcome
    }

    /// Discards buffered writes without publishing them (used when a thread
    /// aborts). Private copies and protections are dropped.
    pub fn discard(&mut self) {
        for slot in self.dirty.drain(..) {
            self.pool
                .push(std::mem::take(&mut self.table[slot].private));
        }
        self.pool.truncate(POOL_MAX_BUFFERS);
        self.interval += 1;
        self.access_log.clear();
    }

    // ----- fault path ------------------------------------------------------

    /// The page-table slot of `page`, created (and the shared page resolved)
    /// on the thread's first ever touch.
    fn slot_of(&mut self, page: PageId) -> usize {
        if self.table.get(self.last_slot).map(|e| e.page) == Some(page) {
            return self.last_slot;
        }
        let slot = match self.index.get(&page) {
            Some(&slot) => slot,
            None => {
                let slot = self.table.len();
                self.table.push(PageEntry {
                    page,
                    shared: self.image.page(page),
                    stamp: 0,
                    readable: false,
                    writable: false,
                    private: Box::default(),
                });
                self.index.insert(page, slot);
                slot
            }
        };
        self.last_slot = slot;
        slot
    }

    // Both fault paths read the clock for one fault in `SAMPLE_EVERY` and
    // add the sample scaled (see `MemStats::fault_time`). Read and write
    // faults are sampled separately, first of each included: a twin copy
    // costs a hundred times a read fault's bookkeeping, and a loop faulting
    // in a fixed pattern would always present the same kind to a shared
    // stride.

    fn fault_on_read(&mut self, slot: usize) {
        let entry = &mut self.table[slot];
        if entry.stamp == self.interval && entry.readable {
            return;
        }
        let sample = Sample::due(self.stats.read_faults);
        if entry.stamp != self.interval {
            entry.stamp = self.interval;
            entry.writable = false;
        }
        entry.readable = true;
        self.stats.read_faults += 1;
        self.access_log.push(AccessRecord {
            page: entry.page,
            write: false,
        });
        if let Some(sample) = sample {
            self.stats.fault_time += sample.scaled();
        }
    }

    fn fault_on_write(&mut self, slot: usize) {
        let entry = &mut self.table[slot];
        if entry.stamp == self.interval && entry.writable {
            return;
        }
        let sample = Sample::due(self.stats.write_faults);
        entry.stamp = self.interval;
        entry.readable = true;
        entry.writable = true;
        self.stats.write_faults += 1;
        self.access_log.push(AccessRecord {
            page: entry.page,
            write: true,
        });
        if entry.private.is_empty() {
            let mut buf = self
                .pool
                .pop()
                .unwrap_or_else(|| vec![0; 2 * self.page_size].into_boxed_slice());
            let (twin, working) = buf.split_at_mut(self.page_size);
            entry.shared.snapshot_into(twin);
            working.copy_from_slice(twin);
            entry.private = buf;
            self.dirty.push(slot);
            self.stats.pages_copied += 1;
        }
        if let Some(sample) = sample {
            self.stats.fault_time += sample.scaled();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn setup(mode: TrackingMode) -> (Arc<SharedImage>, ThreadMemory, VirtAddr) {
        let image = SharedImage::shared(4096);
        let region = image.map_region("heap", 4096 * 8);
        let mem = ThreadMemory::new(Arc::clone(&image), mode);
        (image, mem, region.base())
    }

    #[test]
    fn tracked_writes_are_buffered_until_commit() {
        let (image, mut mem, base) = setup(TrackingMode::Tracked);
        mem.write_u64(base, 99);
        assert_eq!(mem.read_u64(base), 99, "read-your-writes");
        assert_eq!(image.read_u64_direct(base), 0, "not yet visible");
        mem.commit();
        assert_eq!(image.read_u64_direct(base), 99);
        assert_eq!(mem.dirty.len(), 0, "private copies dropped at commit");
    }

    #[test]
    fn native_writes_are_immediate() {
        let (image, mut mem, base) = setup(TrackingMode::Native);
        mem.write_u64(base, 7);
        assert_eq!(image.read_u64_direct(base), 7);
        assert_eq!(mem.stats().total_faults(), 0);
        assert!(mem.drain_access_log().collect::<Vec<_>>().is_empty());
    }

    #[test]
    fn first_touch_faults_once_per_interval() {
        let (_image, mut mem, base) = setup(TrackingMode::Tracked);
        mem.read_u64(base);
        mem.read_u64(base.add(8)); // same page
        assert_eq!(mem.stats().read_faults, 1);
        mem.write_u64(base, 1);
        mem.write_u64(base.add(16), 2);
        assert_eq!(mem.stats().write_faults, 1);

        // New interval: protections reset, faults happen again.
        mem.commit();
        mem.protect_all();
        mem.read_u64(base);
        assert_eq!(mem.stats().read_faults, 2);
    }

    #[test]
    fn fault_time_is_sampled_one_fault_in_64_per_kind() {
        let image = SharedImage::shared(4096);
        let base = image.map_region("heap", 4096 * 130).base();
        let mut mem = ThreadMemory::new(Arc::clone(&image), TrackingMode::Tracked);
        let page = |i: u64| base.add(4096 * i);

        // The first fault of each kind is timed, so one of either shows.
        mem.read_u64(page(0));
        let one_read = mem.stats().fault_time;
        assert!(one_read > Duration::ZERO);
        mem.write_u64(page(1), 1);
        let one_each = mem.stats().fault_time;
        assert!(one_each > one_read);

        // Faults 2..=64 of a kind never reach the clock; the 65th does.
        for i in 2..65 {
            mem.read_u64(page(i));
        }
        assert_eq!(mem.stats().read_faults, 64);
        assert_eq!(mem.stats().fault_time, one_each);
        mem.read_u64(page(65));
        let second_sample = mem.stats().fault_time;
        assert!(second_sample > one_each);
        for i in 66..129 {
            mem.write_u64(page(i), 1);
        }
        assert_eq!(mem.stats().write_faults, 64);
        assert_eq!(mem.stats().fault_time, second_sample);
        mem.write_u64(page(129), 1);
        assert!(mem.stats().fault_time > second_sample);
    }

    #[test]
    fn commit_time_is_sampled_one_commit_in_64() {
        let image = SharedImage::shared(4096);
        let base = image.map_region("heap", 4096).base();
        let mut mem = ThreadMemory::new(Arc::clone(&image), TrackingMode::Tracked);
        // The first commit is timed, so a single one shows.
        mem.write_u64(base, 1);
        mem.commit();
        let first = mem.stats().commit_time;
        assert!(first > Duration::ZERO);
        // Commits 2..=64 never reach the clock; the 65th does.
        for i in 2..=64 {
            mem.write_u64(base, i);
            mem.commit();
        }
        assert_eq!(mem.stats().commits, 64);
        assert_eq!(mem.stats().commit_time, first);
        mem.write_u64(base, 65);
        mem.commit();
        assert!(mem.stats().commit_time > first);
        assert_eq!(image.read_u64_direct(base), 65);
    }

    #[test]
    fn access_log_records_first_touches() {
        let (_image, mut mem, base) = setup(TrackingMode::Tracked);
        mem.read_u64(base);
        mem.write_u64(base.add(4096), 1);
        let log = mem.drain_access_log().collect::<Vec<_>>();
        assert_eq!(log.len(), 2);
        assert!(!log[0].write);
        assert!(log[1].write);
        assert!(
            mem.drain_access_log().collect::<Vec<_>>().is_empty(),
            "log is drained"
        );
    }

    #[test]
    fn clean_page_reads_see_other_threads_commits_at_once() {
        let (image, mut mem, base) = setup(TrackingMode::Tracked);
        assert_eq!(mem.read_u64(base), 0);
        // Another thread commits a new value directly.
        image.write_u64_direct(base, 123);
        // Still the same interval, but the page is clean (only read), so its
        // reads go straight to the shared image and see the commit at once.
        // RC allows this — it only promises visibility after a
        // synchronization point — and only a written page is isolated by its
        // twin (`private_copy_isolates_from_concurrent_commits`).
        assert_eq!(mem.read_u64(base), 123);
        assert_eq!(mem.stats().read_faults, 1, "no new fault");
        mem.protect_all();
        assert_eq!(mem.read_u64(base), 123);
        assert_eq!(mem.stats().read_faults, 2);
    }

    #[test]
    fn private_copy_isolates_from_concurrent_commits() {
        let (image, mut mem, base) = setup(TrackingMode::Tracked);
        mem.write_u64(base, 5); // creates twin + working copy
        image.write_u64_direct(base.add(8), 77); // concurrent write by other thread
                                                 // Our working copy was taken before the concurrent write, so we do
                                                 // not see it until the next interval.
        assert_eq!(mem.read_u64(base.add(8)), 0);
        mem.commit();
        mem.protect_all();
        assert_eq!(mem.read_u64(base.add(8)), 77);
    }

    #[test]
    fn commit_preserves_other_threads_disjoint_bytes() {
        let (image, mut mem, base) = setup(TrackingMode::Tracked);
        mem.write_u64(base, 1); // our write at offset 0
        image.write_u64_direct(base.add(8), 2); // concurrent write at offset 8
        mem.commit();
        // Both survive because the commit only writes changed bytes.
        assert_eq!(image.read_u64_direct(base), 1);
        assert_eq!(image.read_u64_direct(base.add(8)), 2);
    }

    #[test]
    fn commit_outcome_counts_changes() {
        let (_image, mut mem, base) = setup(TrackingMode::Tracked);
        mem.write_u64(base, 1);
        mem.write_u64(base.add(4096), 2);
        let outcome = mem.commit();
        assert_eq!(outcome.pages_examined, 2);
        assert_eq!(outcome.pages_changed, 2);
        assert_eq!(outcome.bytes_written, 2, "one non-zero byte per u64");
        assert_eq!(mem.stats().commits, 1);
    }

    #[test]
    fn discard_throws_away_buffered_writes() {
        let (image, mut mem, base) = setup(TrackingMode::Tracked);
        mem.write_u64(base, 42);
        mem.discard();
        mem.commit();
        assert_eq!(image.read_u64_direct(base), 0);
    }

    #[test]
    fn reads_crossing_page_boundary_fault_both_pages() {
        let (_image, mut mem, base) = setup(TrackingMode::Tracked);
        let boundary = base.add(4096 - 4);
        mem.read_u64(boundary);
        assert_eq!(mem.stats().read_faults, 2);
    }

    #[test]
    fn typed_helpers_roundtrip() {
        let (_image, mut mem, base) = setup(TrackingMode::Tracked);
        mem.write_u32(base, 0xaabb);
        assert_eq!(mem.read_u32(base), 0xaabb);
        mem.write_i64(base.add(8), -5);
        assert_eq!(mem.read_i64(base.add(8)), -5);
        mem.write_f64(base.add(16), 2.25);
        assert_eq!(mem.read_f64(base.add(16)), 2.25);
        mem.write_u8(base.add(24), 9);
        assert_eq!(mem.read_u8(base.add(24)), 9);
    }

    #[test]
    fn protect_all_with_private_pages_refaults_without_retwinning() {
        let (image, mut mem, base) = setup(TrackingMode::Tracked);
        mem.write_u64(base, 5);
        image.write_u64_direct(base.add(8), 77); // lands after the twin was taken
        mem.protect_all();
        assert_eq!(mem.dirty.len(), 1, "uncommitted copy survives");
        mem.write_u64(base.add(16), 6);
        assert_eq!(mem.read_u64(base), 5, "working copy kept");
        assert_eq!(mem.read_u64(base.add(8)), 0, "twin not retaken");
        let stats = mem.stats();
        assert_eq!((stats.write_faults, stats.read_faults), (2, 0));
        assert_eq!(stats.pages_copied, 1);
        let outcome = mem.commit();
        assert_eq!((outcome.pages_examined, outcome.bytes_written), (1, 2));
        assert_eq!(image.read_u64_direct(base.add(8)), 77, "not clobbered");
    }

    #[test]
    fn buffer_pool_stays_bounded_after_a_large_interval() {
        let image = SharedImage::shared(4096);
        let region = image.map_region("heap", 4096 * 1000);
        let mut mem = ThreadMemory::new(Arc::clone(&image), TrackingMode::Tracked);
        for round in 1..=2u64 {
            for page in 0..1000 {
                mem.write_u64(region.base().add(page * 4096), round);
            }
            assert_eq!(mem.dirty.len(), 1000);
            assert_eq!(mem.commit().pages_changed, 1000);
            assert_eq!(mem.pool.len(), POOL_MAX_BUFFERS);
        }
        for page in 0..1000 {
            mem.write_u64(region.base().add(page * 4096), 3);
        }
        mem.discard();
        assert_eq!(mem.pool.len(), POOL_MAX_BUFFERS);
        assert_eq!(image.read_u64_direct(region.base()), 2);
    }

    // ----- model-based equivalence ------------------------------------------

    const MODEL_PAGE: usize = 64;
    const MODEL_PAGES: u64 = 6;

    /// The naive map-based view the page table replaced: one protection map
    /// and one private-copy map per thread, cleared wholesale, over a shared
    /// image that is a plain map of byte vectors.
    #[derive(Default)]
    struct ModelView {
        protections: HashMap<PageId, (bool, bool)>,
        private: HashMap<PageId, (Vec<u8>, Vec<u8>)>,
        log: Vec<AccessRecord>,
        stats: MemStats,
    }

    type ModelImage = HashMap<PageId, Vec<u8>>;

    impl ModelView {
        fn read(&mut self, shared: &ModelImage, addr: VirtAddr, len: usize) -> Vec<u8> {
            let mut out = Vec::new();
            for (page, offset, len) in split_by_page(addr, len, MODEL_PAGE) {
                let prot = self.protections.entry(page).or_default();
                if !prot.0 {
                    prot.0 = true;
                    self.stats.read_faults += 1;
                    self.log.push(AccessRecord { page, write: false });
                }
                let zero = vec![0; MODEL_PAGE];
                let bytes = match self.private.get(&page) {
                    Some((_, working)) => working,
                    None => shared.get(&page).unwrap_or(&zero),
                };
                out.extend_from_slice(&bytes[offset..offset + len]);
            }
            out
        }

        fn write(&mut self, shared: &ModelImage, addr: VirtAddr, data: &[u8]) {
            let mut cursor = 0;
            for (page, offset, len) in split_by_page(addr, data.len(), MODEL_PAGE) {
                let prot = self.protections.entry(page).or_default();
                if !prot.1 {
                    *prot = (true, true);
                    self.stats.write_faults += 1;
                    self.log.push(AccessRecord { page, write: true });
                    self.private.entry(page).or_insert_with(|| {
                        self.stats.pages_copied += 1;
                        let twin = shared.get(&page).cloned().unwrap_or(vec![0; MODEL_PAGE]);
                        (twin.clone(), twin)
                    });
                }
                self.private.get_mut(&page).unwrap().1[offset..offset + len]
                    .copy_from_slice(&data[cursor..cursor + len]);
                cursor += len;
            }
        }

        fn commit(&mut self, shared: &mut ModelImage) -> CommitOutcome {
            let mut outcome = CommitOutcome::default();
            for (page, (twin, working)) in self.private.drain() {
                outcome.pages_examined += 1;
                let target = shared.entry(page).or_insert(vec![0; MODEL_PAGE]);
                let mut changed = 0;
                for i in (0..MODEL_PAGE).filter(|&i| twin[i] != working[i]) {
                    target[i] = working[i];
                    changed += 1;
                }
                outcome.pages_changed += usize::from(changed > 0);
                outcome.bytes_written += changed;
            }
            self.protections.clear();
            outcome
        }
    }

    proptest! {
        /// Two page-table views over one image behave exactly like two
        /// naive map-based views over a map image under any interleaving of
        /// reads, writes (page-crossing ones included), commits,
        /// `protect_all`s and discards: same bytes read, same fault and
        /// copy counts, same access logs, same commit outcomes, same final
        /// shared bytes.
        #[test]
        fn prop_page_table_matches_the_map_model(
            ops in proptest::collection::vec(any::<u64>(), 1..160),
        ) {
            let image = SharedImage::shared(MODEL_PAGE);
            let base = image.map_region("heap", MODEL_PAGES * MODEL_PAGE as u64).base();
            let mut views: Vec<ThreadMemory> = (0..2)
                .map(|_| ThreadMemory::new(Arc::clone(&image), TrackingMode::Tracked))
                .collect();
            let mut model_image = ModelImage::new();
            let mut models = [ModelView::default(), ModelView::default()];

            for op in ops {
                let (view, model) = (&mut views[op as usize & 1], &mut models[op as usize & 1]);
                let len = 1 + (op >> 8) as usize % 20;
                let span = MODEL_PAGES * MODEL_PAGE as u64 - len as u64;
                let addr = base.add((op >> 16) % (span + 1));
                match (op >> 1) % 16 {
                    0..=5 => {
                        let mut buf = vec![0; len];
                        view.read_bytes(addr, &mut buf);
                        prop_assert_eq!(buf, model.read(&model_image, addr, len));
                    }
                    6..=11 => {
                        let data: Vec<u8> = (0..len).map(|i| (op >> (i % 8 * 8)) as u8).collect();
                        view.write_bytes(addr, &data);
                        model.write(&model_image, addr, &data);
                    }
                    12..=13 => {
                        prop_assert_eq!(view.drain_access_log().collect::<Vec<_>>(), std::mem::take(&mut model.log));
                        prop_assert_eq!(view.commit(), model.commit(&mut model_image));
                    }
                    14 => {
                        view.protect_all();
                        model.protections.clear();
                    }
                    _ => {
                        view.discard();
                        model.private.clear();
                        model.protections.clear();
                        model.log.clear();
                    }
                }
                let stats = view.stats();
                prop_assert_eq!(
                    (stats.read_faults, stats.write_faults, stats.pages_copied),
                    (model.stats.read_faults, model.stats.write_faults, model.stats.pages_copied)
                );
                prop_assert_eq!(view.dirty.len(), model.private.len());
            }

            for (view, model) in views.iter_mut().zip(&mut models) {
                prop_assert_eq!(view.drain_access_log().collect::<Vec<_>>(), model.log.clone());
                prop_assert_eq!(view.commit(), model.commit(&mut model_image));
            }
            for page in 0..MODEL_PAGES {
                let page = base.add(page * MODEL_PAGE as u64).page(MODEL_PAGE);
                let expected = model_image.get(&page).cloned().unwrap_or(vec![0; MODEL_PAGE]);
                prop_assert_eq!(image.page(page).snapshot(), expected);
            }
        }
    }
}
