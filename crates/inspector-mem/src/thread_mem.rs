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
//! # Private copies and the written range
//!
//! A written page holds one pooled buffer, two pages long (twin, then
//! working copy), and sits in the `dirty` list in first-write order, which
//! is the order `commit` publishes in. The write fault snapshots the shared
//! page into the working half only, and the entry tracks the byte range
//! `[lo, hi)` the thread has written since the page went dirty.
//!
//! **Invariant: while a page is dirty, `twin[lo..hi]` is the page as it was
//! at the first write, and outside `[lo, hi)` the working copy still equals
//! that snapshot.** A write of `[a, b)` first copies into the twin the bytes
//! it adds to the range — `working[a..lo]` if `a < lo`, `working[hi..b]` if
//! `b > hi`, all of `working[a..b]` for the first write — and only then
//! stores. Each byte enters the twin at most once per dirty period, so a
//! page written at both ends costs what one whole-page twin copy would, and
//! one written in a single place costs that place. `commit` diffs
//! `twin[lo..hi]` against `working[lo..hi]` and nothing else, since nothing
//! else can differ; commit and discard then empty the range. Private copies
//! are *not* interval-stamped: `protect_all` with uncommitted writes makes
//! the pages fault again but keeps their snapshot and range.
//!
//! # Kept copies and the commit version
//!
//! A commit publishes each page it wrote with [`SharedPage`]'s commit version
//! (see [`crate::shared`]): the write fault loads the version its copy is
//! taken at, and the commit's own bump returns the version before it. If
//! that is the fault's version, no other thread committed to the page in
//! between, so after the commit the working copy *is* the shared page at the
//! bumped version: the page stays clean but keeps its buffer, marked with
//! that version. Otherwise the buffer goes back to the free list, and so do
//! discarded copies.
//!
//! **Invariant: a clean page's kept working copy equals the shared page at
//! its version.** A later write fault on it loads the version (Acquire) and
//!
//! * skips the copy if the version is unchanged;
//! * reads only the recorded range `[lo, hi)` of the last commit if the
//!   version is exactly one ahead and the page's record names that version;
//! * otherwise snapshots the whole page, as a page without a kept copy does.
//!
//! Why that is sound:
//!
//! * In a race-free program another thread's commit is ordered before this
//!   fault by the release and acquire that order its synchronization, which
//!   the commit precedes. The fault's Acquire load therefore sees that
//!   commit's bump and, through the record's Release, its bytes.
//! * A commit still in flight during the fault bumps after the fault's load.
//!   This thread's own later bump then returns a version other than the one
//!   its copy was taken at, and the buffer is dropped at that commit.
//! * A racy program could already read a torn snapshot, and gets no new
//!   behaviour.
//! * Direct stores ([`SharedImage::write_direct`]) are outside the protocol.
//!   That is sound because views exist only inside a tracked run, and the
//!   runtime makes no direct store during one.
//!
//! Kept and free buffers together stay within `POOL_MAX_BUFFERS`: a page
//! without a copy takes a free buffer or else the oldest kept one, through
//! a list threaded through the page table, so a write fault allocates
//! nothing in steady state. Reads of a clean page still go to the shared
//! page.
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

/// Private-copy buffers kept per view after commit, free or holding a kept
/// copy (two pages each).
const POOL_MAX_BUFFERS: usize = 64;

/// The end of the kept list.
const NO_SLOT: usize = usize::MAX;

/// One fault of each kind — and one commit — in this many is timed, and its
/// time stands for all of them: a clock read costs as much as the
/// bookkeeping of a read fault, and two of them as much as a one-page commit
/// (30–37 ns a read and ≈ 60 ns a one-page commit, 2-vCPU Xeon guest).
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
    /// Whether the page holds uncommitted writes in `private`.
    dirty: bool,
    /// Empty, or the twin, valid over `lo..hi` only, followed by the
    /// thread's working copy. A clean page's copy is a kept one.
    private: Box<[u8]>,
    /// The version of the shared page the working copy was taken at; for a
    /// kept copy, the version it equals.
    version: u64,
    /// Start of the range written since the page went dirty (`lo == hi`:
    /// nothing written yet).
    lo: usize,
    /// End (exclusive) of the written range.
    hi: usize,
    /// The next older and newer page of the kept list ([`NO_SLOT`] at its
    /// ends); meaningful only while the page keeps a copy.
    older: usize,
    newer: usize,
}

impl PageEntry {
    /// Stores `data` at `offset` in the working copy of a dirty page, first
    /// copying into the twin the working bytes the write adds to the written
    /// range (the module docs' invariant).
    fn store(&mut self, page_size: usize, offset: usize, data: &[u8]) {
        let (twin, working) = self.private.split_at_mut(page_size);
        let end = offset + data.len();
        if self.lo == self.hi {
            (self.lo, self.hi) = (offset, offset);
        }
        if offset < self.lo {
            twin[offset..self.lo].copy_from_slice(&working[offset..self.lo]);
            self.lo = offset;
        }
        if end > self.hi {
            twin[self.hi..end].copy_from_slice(&working[self.hi..end]);
            self.hi = end;
        }
        working[offset..end].copy_from_slice(data);
    }
}

/// The clean pages that keep a copy, oldest commit first: a doubly linked
/// list threaded through the page table, so a refault unlinks its page and a
/// page without a copy takes the oldest buffer, both in O(1).
#[derive(Debug)]
struct KeptList {
    oldest: usize,
    newest: usize,
    len: usize,
}

impl KeptList {
    const EMPTY: KeptList = KeptList {
        oldest: NO_SLOT,
        newest: NO_SLOT,
        len: 0,
    };

    /// Appends `slot` as the newest kept copy.
    fn push(&mut self, table: &mut [PageEntry], slot: usize) {
        (table[slot].older, table[slot].newer) = (self.newest, NO_SLOT);
        match self.newest {
            NO_SLOT => self.oldest = slot,
            newest => table[newest].newer = slot,
        }
        self.newest = slot;
        self.len += 1;
    }

    /// Removes `slot`, which must be on the list.
    fn unlink(&mut self, table: &mut [PageEntry], slot: usize) {
        let (older, newer) = (table[slot].older, table[slot].newer);
        match older {
            NO_SLOT => self.oldest = newer,
            older => table[older].newer = newer,
        }
        match newer {
            NO_SLOT => self.newest = older,
            newer => table[newer].older = older,
        }
        self.len -= 1;
    }

    /// Takes the buffer of the oldest kept copy, whose page is left without
    /// one.
    fn take_oldest(&mut self, table: &mut [PageEntry]) -> Option<Box<[u8]>> {
        let slot = self.oldest;
        if slot == NO_SLOT {
            return None;
        }
        self.unlink(table, slot);
        Some(std::mem::take(&mut table[slot].private))
    }
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
    /// Dirty slots, in first-write order.
    dirty: Vec<usize>,
    /// Free private-copy buffers; with the kept copies, at most
    /// [`POOL_MAX_BUFFERS`] after a commit or discard.
    pool: Vec<Box<[u8]>>,
    /// Clean pages that keep their copy (module docs).
    kept: KeptList,
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
            kept: KeptList::EMPTY,
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
            if entry.dirty {
                dst.copy_from_slice(&entry.private[self.page_size + offset..][..len]);
            } else {
                entry.shared.read(offset, dst);
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
            self.table[slot].store(self.page_size, offset, &data[cursor..cursor + len]);
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
    /// (byte-level diff of each page's written range against its twin,
    /// last-writer-wins, pages in first-write order), keeps the copies that
    /// are still current (module docs), frees the others and re-protects
    /// every page.
    ///
    /// In native mode this is a no-op (writes were already direct).
    pub fn commit(&mut self) -> CommitOutcome {
        if self.mode == TrackingMode::Native {
            return CommitOutcome::default();
        }
        // One commit in `SAMPLE_EVERY` is timed (see `MemStats::commit_time`):
        // a boundary that dirtied one page would spend half of an exact
        // commit timer inside the clock.
        let sample = Sample::due(self.stats.commits);
        let mut outcome = CommitOutcome::default();
        for slot in self.dirty.drain(..) {
            let entry = &mut self.table[slot];
            let (twin, working) = entry.private.split_at(self.page_size);
            let written = commit_page(&entry.shared, twin, working, entry.lo..entry.hi);
            let before = entry.shared.publish(entry.lo..entry.hi);
            (entry.lo, entry.hi) = (0, 0);
            entry.dirty = false;
            outcome.pages_examined += 1;
            if written > 0 {
                outcome.pages_changed += 1;
                outcome.bytes_written += written;
            }
            if before == entry.version {
                entry.version = before + 1;
                self.kept.push(&mut self.table, slot);
            } else {
                self.pool.push(std::mem::take(&mut entry.private));
            }
        }
        self.trim_buffers();
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
            let entry = &mut self.table[slot];
            (entry.lo, entry.hi) = (0, 0);
            entry.dirty = false;
            self.pool.push(std::mem::take(&mut entry.private));
        }
        self.trim_buffers();
        self.interval += 1;
        self.access_log.clear();
    }

    /// Drops free buffers, then the oldest kept copies, until the two
    /// together fit in [`POOL_MAX_BUFFERS`].
    fn trim_buffers(&mut self) {
        let excess = (self.pool.len() + self.kept.len).saturating_sub(POOL_MAX_BUFFERS);
        let free = excess.min(self.pool.len());
        self.pool.truncate(self.pool.len() - free);
        for _ in free..excess {
            self.kept.take_oldest(&mut self.table);
        }
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
                    dirty: false,
                    private: Box::default(),
                    version: 0,
                    lo: 0,
                    hi: 0,
                    older: NO_SLOT,
                    newer: NO_SLOT,
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
    // faults are sampled separately, first of each included: a page snapshot
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
        if !entry.dirty {
            entry.dirty = true;
            self.dirty.push(slot);
            self.fill_working_copy(slot);
        }
        if let Some(sample) = sample {
            self.stats.fault_time += sample.scaled();
        }
    }

    /// Makes the working copy of `slot`, which just went dirty, the shared
    /// page: a kept copy is brought up to date when one commit or none came
    /// since it (module docs); anything else is a whole-page snapshot.
    fn fill_working_copy(&mut self, slot: usize) {
        let ps = self.page_size;
        let version = self.table[slot].shared.version();
        if self.table[slot].private.is_empty() {
            let buf = self
                .pool
                .pop()
                .or_else(|| self.kept.take_oldest(&mut self.table))
                .unwrap_or_else(|| vec![0; 2 * ps].into_boxed_slice());
            self.table[slot].private = buf;
        } else {
            self.kept.unlink(&mut self.table, slot);
            let entry = &mut self.table[slot];
            if version == entry.version {
                return;
            }
            if version == entry.version + 1 {
                if let Some(range) = entry.shared.committed_range(version) {
                    entry.version = version;
                    let working = &mut entry.private[ps..];
                    entry.shared.read(range.start, &mut working[range]);
                    return;
                }
            }
        }
        let entry = &mut self.table[slot];
        entry.version = version;
        entry.shared.snapshot_into(&mut entry.private[ps..]);
        self.stats.pages_copied += 1;
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
        mem.write_u64(base, 5); // snapshots the page into the working copy
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
        image.write_u64_direct(base.add(8), 77); // lands after the snapshot was taken
        mem.protect_all();
        assert_eq!(mem.dirty.len(), 1, "uncommitted copy survives");
        mem.write_u64(base.add(16), 6);
        assert_eq!(mem.read_u64(base), 5, "working copy kept");
        assert_eq!(mem.read_u64(base.add(8)), 0, "snapshot not retaken");
        let stats = mem.stats();
        assert_eq!((stats.write_faults, stats.read_faults), (2, 0));
        assert_eq!(stats.pages_copied, 1);
        let outcome = mem.commit();
        assert_eq!((outcome.pages_examined, outcome.bytes_written), (1, 2));
        assert_eq!(image.read_u64_direct(base.add(8)), 77, "not clobbered");
    }

    /// The buffers a view holds outside an interval, free or kept, after
    /// checking that the kept list links exactly the clean pages that hold a
    /// copy, oldest first.
    fn held_buffers(mem: &ThreadMemory) -> usize {
        let mut linked = Vec::new();
        let (mut slot, mut older) = (mem.kept.oldest, NO_SLOT);
        while slot != NO_SLOT {
            assert_eq!(mem.table[slot].older, older, "broken back link");
            linked.push(slot);
            (older, slot) = (slot, mem.table[slot].newer);
        }
        assert_eq!(mem.kept.newest, older);
        assert_eq!(linked.len(), mem.kept.len);
        linked.sort_unstable();
        let keeping: Vec<usize> = (0..mem.table.len())
            .filter(|&s| !mem.table[s].dirty && !mem.table[s].private.is_empty())
            .collect();
        assert_eq!(linked, keeping);
        mem.pool.len() + mem.kept.len
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
            assert_eq!(held_buffers(&mem), POOL_MAX_BUFFERS);
        }
        for page in 0..1000 {
            mem.write_u64(region.base().add(page * 4096), 3);
        }
        mem.discard();
        assert_eq!(held_buffers(&mem), POOL_MAX_BUFFERS);
        assert_eq!(image.read_u64_direct(region.base()), 2);
    }

    // ----- kept copies ---------------------------------------------------------

    /// The working copy of the page holding `addr`.
    fn working_copy(mem: &ThreadMemory, addr: VirtAddr) -> &[u8] {
        &mem.table[mem.index[&addr.page(mem.page_size)]].private[mem.page_size..]
    }

    #[test]
    fn a_refault_after_the_threads_own_commit_copies_nothing() {
        let (image, mut mem, base) = setup(TrackingMode::Tracked);
        mem.write_u64(base, 1);
        mem.commit();
        assert_eq!((mem.kept.len, mem.pool.len()), (1, 0), "the copy is kept");
        mem.write_u64(base.add(8), 2);
        let stats = mem.stats();
        assert_eq!((stats.write_faults, stats.pages_copied), (2, 1));
        assert_eq!(mem.read_u64(base), 1, "the kept copy holds the commit");
        let mut expected = image.page(base.page(4096)).snapshot();
        expected[8] = 2;
        assert!(working_copy(&mem, base) == expected);
        assert_eq!(mem.commit().bytes_written, 1);
        assert_eq!(image.read_u64_direct(base.add(8)), 2);
    }

    #[test]
    fn one_foreign_commit_is_read_as_its_recorded_range() {
        let (image, mut mem, base) = setup(TrackingMode::Tracked);
        let mut other = ThreadMemory::new(Arc::clone(&image), TrackingMode::Tracked);
        mem.write_u64(base, 1);
        mem.commit();
        other.write_u64(base.add(512), 0x0102_0304_0506_0708);
        other.write_u64(base.add(1024), 9);
        other.commit();
        mem.write_u64(base.add(8), 2);
        assert_eq!(mem.stats().pages_copied, 1, "a range read, not a copy");
        assert_eq!(mem.read_u64(base.add(512)), 0x0102_0304_0506_0708);
        assert_eq!(mem.read_u64(base.add(1024)), 9);
        // The same bytes a whole-page snapshot would have taken, besides
        // the thread's own new store.
        let mut expected = image.page(base.page(4096)).snapshot();
        expected[8] = 2;
        assert!(
            working_copy(&mem, base) == expected,
            "not a snapshot's bytes"
        );
        mem.commit();
        assert_eq!(image.read_u64_direct(base.add(8)), 2);
        assert_eq!(image.read_u64_direct(base.add(1024)), 9, "not clobbered");
    }

    #[test]
    fn two_foreign_commits_mean_a_full_copy() {
        let (image, mut mem, base) = setup(TrackingMode::Tracked);
        let mut other = ThreadMemory::new(Arc::clone(&image), TrackingMode::Tracked);
        mem.write_u64(base, 1);
        mem.commit();
        for (offset, value) in [(64, 5), (2048, 6)] {
            other.write_u64(base.add(offset), value);
            other.commit();
        }
        mem.write_u64(base.add(8), 2);
        assert_eq!(mem.stats().pages_copied, 2);
        assert_eq!(
            (mem.read_u64(base.add(64)), mem.read_u64(base.add(2048))),
            (5, 6)
        );
        mem.commit();
        assert_eq!(image.read_u64_direct(base.add(8)), 2);
    }

    #[test]
    fn a_foreign_commit_between_snapshot_and_own_commit_drops_the_buffer() {
        let (image, mut mem, base) = setup(TrackingMode::Tracked);
        let mut other = ThreadMemory::new(Arc::clone(&image), TrackingMode::Tracked);
        mem.write_u64(base, 1); // snapshot at version 0
        other.write_u64(base.add(64), 7);
        other.commit(); // version 1, unseen by `mem`'s working copy
        mem.commit(); // returns version 1, not 0: the copy is stale
        assert_eq!((mem.kept.len, mem.pool.len()), (0, 1), "freed, not kept");
        mem.write_u64(base.add(8), 2);
        assert_eq!(mem.stats().pages_copied, 2, "a fresh snapshot");
        assert_eq!(mem.read_u64(base.add(64)), 7);
        assert_eq!(mem.read_u64(base), 1);
    }

    #[test]
    fn a_page_without_a_copy_takes_the_oldest_kept_buffer() {
        let image = SharedImage::shared(4096);
        let pages = POOL_MAX_BUFFERS as u64 + 1;
        let base = image.map_region("heap", 4096 * pages).base();
        let page = |i: u64| base.add(4096 * i);
        let mut mem = ThreadMemory::new(Arc::clone(&image), TrackingMode::Tracked);
        for i in 0..POOL_MAX_BUFFERS as u64 {
            mem.write_u64(page(i), i + 1);
        }
        mem.commit();
        assert_eq!((mem.kept.len, mem.pool.len()), (POOL_MAX_BUFFERS, 0));
        // Page 1 refaults: its copy leaves the list, so page 0 stays oldest.
        mem.write_u64(page(1), 100);
        mem.commit();
        mem.write_u64(page(POOL_MAX_BUFFERS as u64), 1); // takes page 0's buffer
        assert_eq!(mem.kept.len, POOL_MAX_BUFFERS - 1);
        assert!(mem.table[mem.index[&page(0).page(4096)]].private.is_empty());
        mem.commit();
        assert_eq!(held_buffers(&mem), POOL_MAX_BUFFERS);
        // Page 0 lost its copy (a snapshot); page 1 is the newest but one.
        let copied = mem.stats().pages_copied;
        mem.write_u64(page(0), 2);
        mem.write_u64(page(1), 3);
        assert_eq!(mem.stats().pages_copied, copied + 1);
        mem.commit();
        assert_eq!(image.read_u64_direct(page(0)), 2);
        assert_eq!(image.read_u64_direct(page(1)), 3);
    }

    // ----- the written range -------------------------------------------------

    /// The written range `[lo, hi)` of the page holding `addr`.
    fn range_of(mem: &ThreadMemory, addr: VirtAddr) -> (usize, usize) {
        let entry = &mem.table[mem.index[&addr.page(mem.page_size)]];
        (entry.lo, entry.hi)
    }

    #[test]
    fn a_commit_in_the_gap_survives_a_range_that_widens_across_it() {
        let (image, mut mem, base) = setup(TrackingMode::Tracked);
        let mut other = ThreadMemory::new(Arc::clone(&image), TrackingMode::Tracked);
        mem.write_u64(base, 1); // fault: snapshot taken, range [0, 8)
        other.write_u64(base.add(64), 2); // lands in the gap after the snapshot
        other.commit();
        mem.write_u64(base.add(128), 3);
        assert_eq!(range_of(&mem, base), (0, 136), "widened across the gap");
        assert_eq!(
            mem.read_u64(base.add(64)),
            0,
            "snapshot predates the commit"
        );
        let outcome = mem.commit();
        assert_eq!((outcome.pages_changed, outcome.bytes_written), (1, 2));
        assert_eq!(image.read_u64_direct(base), 1);
        assert_eq!(
            image.read_u64_direct(base.add(64)),
            2,
            "other view's bytes survive"
        );
        assert_eq!(image.read_u64_direct(base.add(128)), 3);
    }

    #[test]
    fn a_silent_store_commits_nothing() {
        let (image, mut mem, base) = setup(TrackingMode::Tracked);
        image.write_u64_direct(base.add(8), 7);
        mem.write_u64(base, 0); // the value already there
        mem.write_u64(base.add(8), 7);
        mem.write_u64(base.add(16), 5); // changed, then changed back
        mem.write_u64(base.add(16), 0);
        let outcome = mem.commit();
        assert_eq!(outcome.pages_examined, 1);
        assert_eq!((outcome.pages_changed, outcome.bytes_written), (0, 0));
        assert_eq!(mem.stats().bytes_committed, 0);
    }

    #[test]
    fn writes_at_both_ends_commit_exactly_those_bytes() {
        let (image, mut mem, base) = setup(TrackingMode::Tracked);
        mem.write_u8(base, 0xAA);
        image.write_u64_direct(base.add(2048), 9); // between the two ends
        mem.write_u8(base.add(4095), 0xBB);
        assert_eq!(range_of(&mem, base), (0, 4096));
        let outcome = mem.commit();
        assert_eq!((outcome.pages_changed, outcome.bytes_written), (1, 2));
        let byte = |addr| {
            let mut b = [0];
            image.read_direct(addr, &mut b);
            b[0]
        };
        assert_eq!((byte(base), byte(base.add(4095))), (0xAA, 0xBB));
        assert_eq!(image.read_u64_direct(base.add(2048)), 9, "not clobbered");
    }

    #[test]
    fn a_page_crossing_write_widens_both_pages_ranges() {
        let (image, mut mem, base) = setup(TrackingMode::Tracked);
        let boundary = base.add(4096 - 4);
        mem.write_u64(boundary, 0x0807_0605_0403_0201);
        assert_eq!(range_of(&mem, base), (4092, 4096));
        assert_eq!(range_of(&mem, base.add(4096)), (0, 4));
        let outcome = mem.commit();
        assert_eq!((outcome.pages_changed, outcome.bytes_written), (2, 8));
        assert_eq!(image.read_u64_direct(boundary), 0x0807_0605_0403_0201);
    }

    #[test]
    fn protect_all_keeps_the_range_and_discard_empties_it() {
        let (image, mut mem, base) = setup(TrackingMode::Tracked);
        mem.write_u64(base.add(8), 1);
        mem.protect_all();
        mem.write_u64(base.add(32), 2);
        assert_eq!(range_of(&mem, base), (8, 40), "kept across protect_all");
        assert_eq!(mem.commit().bytes_written, 2);
        assert_eq!(range_of(&mem, base), (0, 0), "emptied by commit");

        mem.write_u64(base.add(100), 3);
        mem.discard();
        assert_eq!(range_of(&mem, base), (0, 0), "emptied by discard");
        mem.write_u64(base.add(200), 4);
        assert_eq!(range_of(&mem, base), (200, 208), "a fresh dirty period");
        assert_eq!(mem.commit().bytes_written, 1);
        assert_eq!(image.read_u64_direct(base.add(100)), 0, "discarded");
        assert_eq!(image.read_u64_direct(base.add(200)), 4);
    }

    /// Two views on two threads pass a mutex back and forth, strictly in
    /// turn, over one page: view `me` writes only the bytes `i` with
    /// `i % 2 == me`, and commits before it releases. Thread 0 commits
    /// `round % 3` times in its turn and thread 1 `(round + 1) % 3` times, so
    /// a view's next write fault finds its kept copy current, one commit
    /// behind (a range read) or more (a full copy). After every acquire the
    /// view must see every byte committed before the hand-off, through its
    /// working copy once it has written; the test counts which path each
    /// fault had to take and checks the view's copy count against it.
    #[test]
    fn two_threads_taking_turns_see_every_committed_byte() {
        use std::sync::{Condvar, Mutex};

        const PAGE: usize = 4096;
        const ROUNDS: u64 = 3000;
        /// What the turns have committed (the page and its commit count) and
        /// whose turn is next.
        struct Turns {
            page: Vec<u8>,
            commits: u64,
            next: usize,
        }
        /// Wakes the other view when this one's thread ends, by a failed
        /// check too: the other then finds the lock poisoned and fails
        /// instead of waiting for a turn that never comes.
        struct WakeOnExit<'a>(&'a Condvar);
        impl Drop for WakeOnExit<'_> {
            fn drop(&mut self) {
                self.0.notify_all();
            }
        }
        let image = SharedImage::shared(PAGE);
        let base = image.map_region("heap", PAGE as u64).base();
        let turns = Mutex::new(Turns {
            page: vec![0; PAGE],
            commits: 0,
            next: 0,
        });
        let handed = Condvar::new();
        let paths: Vec<[u64; 3]> = std::thread::scope(|s| {
            let views: Vec<_> = (0..2)
                .map(|me| {
                    let (image, turns, handed) = (&image, &turns, &handed);
                    s.spawn(move || {
                        let _wake = WakeOnExit(handed);
                        let mut mem = ThreadMemory::new(Arc::clone(image), TrackingMode::Tracked);
                        // The commit count the view's kept copy equals, and
                        // its write faults by path: reuse, range read, full copy.
                        let mut kept_at: Option<u64> = None;
                        let mut paths = [0u64; 3];
                        let mut seen = vec![0; PAGE];
                        for round in 0..ROUNDS {
                            let guard = turns.lock().unwrap();
                            let mut turn = handed.wait_while(guard, |t| t.next != me).unwrap();
                            mem.read_bytes(base, &mut seen);
                            assert!(seen == turn.page, "view {me}, round {round}: clean read");
                            for c in 0..(round + me as u64) % 3 {
                                let path = match kept_at.map(|v| turn.commits - v) {
                                    Some(0) => 0,
                                    Some(1) => 1,
                                    _ => 2,
                                };
                                paths[path] += 1;
                                for j in 0..3 {
                                    let mix = (round * 3 + c) * 0x9E37_79B9 + j * 0x85EB_CA6B;
                                    let at = (mix >> 7) as usize % (PAGE / 2) * 2 + me;
                                    let value = (mix >> 3) as u8 | 1;
                                    mem.write_u8(base.add(at as u64), value);
                                    turn.page[at] = value;
                                }
                                mem.read_bytes(base, &mut seen);
                                assert!(
                                    seen == turn.page,
                                    "view {me}, round {round}: working copy after path {path}"
                                );
                                mem.commit();
                                turn.commits += 1;
                                kept_at = Some(turn.commits);
                            }
                            turn.next = 1 - me;
                            handed.notify_all();
                        }
                        assert_eq!(mem.stats().pages_copied, paths[2]);
                        paths
                    })
                })
                .collect();
            views.into_iter().map(|v| v.join().unwrap()).collect()
        });
        for (me, paths) in paths.iter().enumerate() {
            assert!(paths.iter().all(|&n| n > 0), "view {me} paths {paths:?}");
        }
        let mut shared = vec![0; PAGE];
        image.read_direct(base, &mut shared);
        assert!(shared == turns.into_inner().unwrap().page);
    }

    // ----- model-based equivalence ------------------------------------------

    const MODEL_PAGE: usize = 64;
    const MODEL_PAGES: u64 = 6;

    /// One page of the model image: its bytes, the commits published into
    /// it and the written range of the last one.
    #[derive(Clone)]
    struct ModelPage {
        bytes: Vec<u8>,
        version: u64,
        last: std::ops::Range<usize>,
    }

    impl Default for ModelPage {
        fn default() -> Self {
            ModelPage {
                bytes: vec![0; MODEL_PAGE],
                version: 0,
                last: 0..0,
            }
        }
    }

    type ModelImage = HashMap<PageId, ModelPage>;

    /// A model private copy: eager twin, working copy, the version it was
    /// taken at and the hull of the writes into it.
    struct ModelCopy {
        twin: Vec<u8>,
        working: Vec<u8>,
        version: u64,
        written: std::ops::Range<usize>,
    }

    /// The naive map-based view the page table replaced: one protection map
    /// and one list of private copies in first-write order per thread,
    /// cleared wholesale, over a shared image that is a plain map of pages.
    /// Beside them, what decides whether a write fault copies: the kept
    /// copies, oldest first, with the version each equals, and the number of
    /// free buffers.
    #[derive(Default)]
    struct ModelView {
        protections: HashMap<PageId, (bool, bool)>,
        private: Vec<(PageId, ModelCopy)>,
        kept: Vec<(PageId, u64)>,
        free: usize,
        log: Vec<AccessRecord>,
        stats: MemStats,
    }

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
                let zero = ModelPage::default().bytes;
                let bytes = match self.private.iter().find(|(p, _)| *p == page) {
                    Some((_, copy)) => &copy.working,
                    None => shared.get(&page).map_or(&zero, |p| &p.bytes),
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
                    if !self.private.iter().any(|(p, _)| *p == page) {
                        let current = shared.get(&page).cloned().unwrap_or_default();
                        // A kept copy no commit or one commit behind is
                        // brought up to date without a whole-page copy.
                        let kept = match self.kept.iter().position(|&(p, _)| p == page) {
                            Some(at) => Some(self.kept.remove(at).1),
                            None => {
                                // A free buffer, or else the oldest kept
                                // copy's.
                                if self.free > 0 {
                                    self.free -= 1;
                                } else if !self.kept.is_empty() {
                                    self.kept.remove(0);
                                }
                                None
                            }
                        };
                        if kept.is_none_or(|version| current.version - version > 1) {
                            self.stats.pages_copied += 1;
                        }
                        let copy = ModelCopy {
                            twin: current.bytes.clone(),
                            working: current.bytes,
                            version: current.version,
                            written: offset..offset + len,
                        };
                        self.private.push((page, copy));
                    }
                }
                let (_, copy) = self.private.iter_mut().find(|(p, _)| *p == page).unwrap();
                copy.working[offset..offset + len].copy_from_slice(&data[cursor..cursor + len]);
                copy.written = copy.written.start.min(offset)..copy.written.end.max(offset + len);
                cursor += len;
            }
        }

        fn commit(&mut self, shared: &mut ModelImage) -> CommitOutcome {
            let mut outcome = CommitOutcome::default();
            for (page, copy) in self.private.drain(..) {
                outcome.pages_examined += 1;
                let target = shared.entry(page).or_default();
                let mut changed = 0;
                for i in (0..MODEL_PAGE).filter(|&i| copy.twin[i] != copy.working[i]) {
                    target.bytes[i] = copy.working[i];
                    changed += 1;
                }
                outcome.pages_changed += usize::from(changed > 0);
                outcome.bytes_written += changed;
                if target.version == copy.version {
                    self.kept.push((page, target.version + 1));
                } else {
                    self.free += 1;
                }
                target.version += 1;
                target.last = copy.written;
            }
            self.protections.clear();
            outcome
        }
    }

    proptest! {
        /// Two page-table views over one image behave exactly like two
        /// naive map-based views (eager twin, whole-page diff) over a map
        /// image under any interleaving of reads, writes (page-crossing ones
        /// included), commits, `protect_all`s, discards and a third view's
        /// write-and-commit, which lands inside written ranges, in the gaps
        /// they have not yet covered and between a kept copy and its next
        /// fault: same bytes read, same fault and copy counts, same kept
        /// copies, same access logs, same commit outcomes, same page versions
        /// and commit records, same final shared bytes.
        #[test]
        fn prop_page_table_matches_the_map_model(
            ops in proptest::collection::vec(any::<u64>(), 1..160),
        ) {
            let image = SharedImage::shared(MODEL_PAGE);
            let base = image.map_region("heap", MODEL_PAGES * MODEL_PAGE as u64).base();
            let mut views: Vec<ThreadMemory> = (0..3)
                .map(|_| ThreadMemory::new(Arc::clone(&image), TrackingMode::Tracked))
                .collect();
            let mut model_image = ModelImage::new();
            let mut models: Vec<ModelView> = (0..3).map(|_| ModelView::default()).collect();
            let pages: Vec<PageId> = (0..MODEL_PAGES)
                .map(|page| base.add(page * MODEL_PAGE as u64).page(MODEL_PAGE))
                .collect();

            for op in ops {
                let kind = (op >> 1) % 18;
                let who = if kind >= 16 { 2 } else { op as usize & 1 };
                let (view, model) = (&mut views[who], &mut models[who]);
                let len = 1 + (op >> 8) as usize % 20;
                let span = MODEL_PAGES * MODEL_PAGE as u64 - len as u64;
                let addr = base.add((op >> 16) % (span + 1));
                let data: Vec<u8> = (0..len).map(|i| (op >> (i % 8 * 8)) as u8).collect();
                match kind {
                    0..=5 => {
                        let mut buf = vec![0; len];
                        view.read_bytes(addr, &mut buf);
                        prop_assert_eq!(buf, model.read(&model_image, addr, len));
                    }
                    6..=11 => {
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
                    15 => {
                        view.discard();
                        model.free += model.private.len();
                        model.private.clear();
                        model.protections.clear();
                        model.log.clear();
                    }
                    _ => {
                        view.write_bytes(addr, &data);
                        model.write(&model_image, addr, &data);
                        prop_assert_eq!(view.drain_access_log().collect::<Vec<_>>(), std::mem::take(&mut model.log));
                        prop_assert_eq!(view.commit(), model.commit(&mut model_image));
                    }
                }
                let stats = view.stats();
                prop_assert_eq!(
                    (stats.read_faults, stats.write_faults, stats.pages_copied),
                    (model.stats.read_faults, model.stats.write_faults, model.stats.pages_copied)
                );
                prop_assert_eq!(view.dirty.len(), model.private.len());
                prop_assert_eq!(held_buffers(view), model.kept.len() + model.free);
                prop_assert_eq!(view.kept.len, model.kept.len());
            }

            for (view, model) in views.iter_mut().zip(&mut models) {
                prop_assert_eq!(view.drain_access_log().collect::<Vec<_>>(), model.log.clone());
                prop_assert_eq!(view.commit(), model.commit(&mut model_image));
            }
            for page in pages {
                let expected = model_image.get(&page).cloned().unwrap_or_default();
                let shared = image.page(page);
                prop_assert_eq!(shared.snapshot(), expected.bytes);
                prop_assert_eq!(shared.version(), expected.version);
                if expected.version > 0 {
                    prop_assert_eq!(shared.committed_range(expected.version), Some(expected.last));
                }
            }
        }
    }
}
