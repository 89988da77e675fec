//! The shared memory image: the simulated equivalent of the memory-mapped
//! file that backs the globals and the heap in INSPECTOR's threads-as-
//! processes design.
//!
//! All threads hold an `Arc<SharedImage>`. In *native* mode they read and
//! write it directly (like ordinary pthreads sharing an address space); in
//! *tracked* mode they only read it on first touch and publish their writes
//! through [`crate::commit`] at synchronization points.
//!
//! Page contents are stored as relaxed atomic 64-bit words so that
//! concurrent direct access (native mode) and concurrent commits (tracked
//! mode) are well-defined in Rust without a lock on every access, and so
//! that whole-page copies (snapshots) and aligned reads and writes move eight
//! bytes per atomic operation. Byte `i` of a page lives in little-endian
//! lane `i % 8` of word `i / 8`; a page whose length is not a multiple of
//! eight keeps its tail in the low lanes of its last word.
//!
//! Every byte still behaves as its own relaxed atomic:
//!
//! * a write covering a whole word is one store;
//! * a write covering part of a word replaces only its own lanes with one
//!   compare-and-swap loop (`fetch_update`), so concurrent writes to
//!   different bytes of one word all survive — the false-sharing immunity
//!   the commit relies on — and no reader ever sees a byte value that no
//!   thread wrote. Clearing the lanes with `fetch_and` and then setting
//!   them with `fetch_or` would also keep the neighbours' bytes, but would
//!   show readers a transient zero in between, so it is not used.
//!
//! Atomicity across multi-byte values is the application's responsibility,
//! exactly as POSIX requires for pthreads programs.
//!
//! # The commit version
//!
//! Beside its bytes a page keeps two words that only the commit path writes
//! (`SharedPage::publish`, after a commit's stores into the page):
//!
//! * the **version**, the number of commits published into the page, bumped
//!   with one `fetch_add(1, AcqRel)`. Its Release half orders the commit's
//!   stores before the bump, its Acquire half orders every earlier commit's
//!   bump before this one, so a load of the version with Acquire sees the
//!   bytes of every commit it counts;
//! * the **record** of the last commit, `version << 32 | lo << 16 | hi`: the
//!   version that commit made and the byte range `[lo, hi)` it stored into,
//!   raised with one `fetch_max` (Release) after the bump. Versions are
//!   unique, so of two commits racing to record the later one wins, and a
//!   reader that finds the version it loaded in the record knows that commit
//!   changed nothing outside `[lo, hi)`. The record is written only while
//!   the version fits in 32 bits and the page is at most 32 KiB (so `hi`
//!   fits in 16), so a stale or wrapped record never matches.
//!
//! A thread's view uses the two to skip or shrink the copy a write fault
//! takes (see [`crate::thread_mem`]). Direct stores
//! ([`SharedImage::write_direct`]) are outside the protocol: they bump
//! nothing, and a view that already holds a copy of the page does not see
//! them.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::addr::{split_by_page, PageId, VirtAddr, DEFAULT_PAGE_SIZE};
use crate::region::{Region, RegionKind};

/// Bytes per storage word of a [`SharedPage`].
const WORD: usize = std::mem::size_of::<u64>();

/// Stores the low `out.len()` lanes of `word` into `out`, lowest first.
fn unpack(word: u64, out: &mut [u8]) {
    if out.len() == WORD {
        out.copy_from_slice(&word.to_le_bytes());
    } else {
        let mut word = word;
        for b in out {
            *b = word as u8;
            word >>= 8;
        }
    }
}

/// The panic of [`SharedPage::check_range`], kept out of line so the
/// one-word read and write paths need no stack frame for its message.
#[cold]
#[inline(never)]
fn out_of_range(offset: usize, len: usize, page: usize) -> ! {
    panic!("range {offset}+{len} outside a {page}-byte page")
}

/// The largest page whose commits are recorded: `hi` must fit in 16 bits.
const MAX_RECORDED_PAGE: usize = 1 << 15;

/// One shared page: relaxed atomic words, each byte an independent lane
/// (see the module docs for the write rule and the commit version).
#[derive(Debug)]
pub struct SharedPage {
    words: Box<[AtomicU64]>,
    len: usize,
    /// Commits published into the page.
    version: AtomicU64,
    /// The last commit: `version << 32 | lo << 16 | hi`.
    last_commit: AtomicU64,
}

impl SharedPage {
    /// Creates a zero-filled page of `page_size` bytes.
    pub fn zeroed(page_size: usize) -> Self {
        let words = (0..page_size.div_ceil(WORD))
            .map(|_| AtomicU64::new(0))
            .collect();
        SharedPage {
            words,
            len: page_size,
            version: AtomicU64::new(0),
            last_commit: AtomicU64::new(0),
        }
    }

    /// The number of commits published into the page (Acquire: their bytes
    /// are visible to the caller).
    pub(crate) fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Counts one commit whose stores into `range` are done, records it, and
    /// returns the version before it: the caller's copy of the page is
    /// current after the commit iff that is the version the copy was taken
    /// at.
    pub(crate) fn publish(&self, range: Range<usize>) -> u64 {
        let before = self.version.fetch_add(1, Ordering::AcqRel);
        let version = before + 1;
        if version <= u64::from(u32::MAX) && self.len <= MAX_RECORDED_PAGE {
            let record = version << 32 | (range.start as u64) << 16 | range.end as u64;
            self.last_commit.fetch_max(record, Ordering::Release);
        }
        before
    }

    /// The range the commit that made `version` stored into, if the record
    /// still holds that commit.
    pub(crate) fn committed_range(&self, version: u64) -> Option<Range<usize>> {
        let record = self.last_commit.load(Ordering::Acquire);
        (record >> 32 == version)
            .then(|| usize::from((record >> 16) as u16)..usize::from(record as u16))
    }

    /// Page size in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the page has zero size (never the case in practice).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Copies the page contents into a fresh buffer.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut buf = vec![0; self.len];
        self.snapshot_into(&mut buf);
        buf
    }

    /// Copies the whole page into `buf`, one word load per eight bytes (the
    /// working copy of a pooled private copy, at a page's first write).
    ///
    /// # Panics
    ///
    /// Panics if `buf` is not exactly one page long.
    pub fn snapshot_into(&self, buf: &mut [u8]) {
        assert_eq!(buf.len(), self.len, "snapshot buffer size mismatch");
        // Stores dominate a page snapshot, so words are gathered four at a time
        // and stored as one 32-byte block: a quarter of the stores of a
        // word-by-word copy such as `read`.
        const BLOCK: usize = 4 * WORD;
        let mut blocks = buf.chunks_exact_mut(BLOCK);
        for (out, words) in blocks.by_ref().zip(self.words.chunks_exact(BLOCK / WORD)) {
            let mut block = [0; BLOCK];
            for (bytes, word) in block.chunks_exact_mut(WORD).zip(words) {
                bytes.copy_from_slice(&word.load(Ordering::Relaxed).to_le_bytes());
            }
            out.copy_from_slice(&block);
        }
        let tail = blocks.into_remainder();
        self.read(self.len - tail.len(), tail);
    }

    /// Panics unless `offset..offset + len` lies inside the page: the lanes
    /// past the end of a short last word must never be read or written.
    fn check_range(&self, offset: usize, len: usize) {
        if offset > self.len || len > self.len - offset {
            out_of_range(offset, len, self.len);
        }
    }

    /// Reads `buf.len()` bytes starting at `offset`: one load and a shift
    /// per word the range touches, so a read inside one word is one load.
    pub fn read(&self, mut offset: usize, mut buf: &mut [u8]) {
        self.check_range(offset, buf.len());
        while !buf.is_empty() {
            let lane = offset % WORD;
            let n = (WORD - lane).min(buf.len());
            let (head, rest) = std::mem::take(&mut buf).split_at_mut(n);
            let word = self.words[offset / WORD].load(Ordering::Relaxed);
            unpack(word >> (8 * lane), head);
            (offset, buf) = (offset + n, rest);
        }
    }

    /// Writes `data` starting at `offset`: a whole word is one store, a
    /// partial word a merge of its own lanes (see the module docs). Like
    /// [`SharedImage::write_direct`], a store outside the commit protocol.
    pub fn write(&self, mut offset: usize, mut data: &[u8]) {
        self.check_range(offset, data.len());
        while !data.is_empty() {
            let lane = offset % WORD;
            let (head, rest) = data.split_at((WORD - lane).min(data.len()));
            self.write_lanes(offset / WORD, lane, head);
            (offset, data) = (offset + head.len(), rest);
        }
    }

    /// Replaces lanes `lane..lane + bytes.len()` of word `index` (1 to 8
    /// bytes, inside the word) and no others.
    fn write_lanes(&self, index: usize, lane: usize, bytes: &[u8]) {
        let word = &self.words[index];
        if let Ok(bytes) = <[u8; WORD]>::try_from(bytes) {
            word.store(u64::from_le_bytes(bytes), Ordering::Relaxed);
            return;
        }
        let packed = bytes.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b));
        let value = packed << (8 * lane);
        let mask = u64::MAX >> (8 * (WORD - bytes.len())) << (8 * lane);
        // One compare-and-swap loop, never a clear then a set: the closure
        // always returns `Some`, so the update cannot fail.
        let _ = word.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |old| {
            Some(old & !mask | value)
        });
    }

    /// Reads a single byte.
    pub fn read_byte(&self, offset: usize) -> u8 {
        let mut byte = [0];
        self.read(offset, &mut byte);
        byte[0]
    }
}

#[derive(Debug, Default)]
struct ImageState {
    regions: Vec<Region>,
    next_base: u64,
}

/// The shared address-space image (globals + heap + mapped inputs).
#[derive(Debug)]
pub struct SharedImage {
    page_size: usize,
    state: RwLock<ImageState>,
    pages: RwLock<HashMap<PageId, Arc<SharedPage>>>,
}

impl SharedImage {
    /// Base address of the first mapped region; chosen away from zero so
    /// address arithmetic bugs show up as obviously-invalid addresses.
    const MAP_BASE: u64 = 0x1000_0000;

    /// Creates an image with the given page size.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is zero or not a power of two.
    pub fn new(page_size: usize) -> Self {
        assert!(
            page_size.is_power_of_two() && page_size > 0,
            "page size must be a non-zero power of two"
        );
        SharedImage {
            page_size,
            state: RwLock::new(ImageState {
                regions: Vec::new(),
                next_base: Self::MAP_BASE,
            }),
            pages: RwLock::new(HashMap::new()),
        }
    }

    /// Creates a reference-counted image, the form used by the runtime.
    pub fn shared(page_size: usize) -> Arc<Self> {
        Arc::new(Self::new(page_size))
    }

    /// Creates a reference-counted image with the default 4 KiB pages.
    pub fn with_default_page_size() -> Arc<Self> {
        Self::shared(DEFAULT_PAGE_SIZE)
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Maps a new heap region of `len` bytes and returns it.
    pub fn map_region(&self, name: impl Into<String>, len: u64) -> Region {
        self.map_region_kind(name, RegionKind::Heap, len)
    }

    /// Maps a new region of the given kind.
    pub fn map_region_kind(&self, name: impl Into<String>, kind: RegionKind, len: u64) -> Region {
        let mut state = self.state.write();
        let base = VirtAddr::new(state.next_base);
        let span = len.div_ceil(self.page_size as u64).max(1) * self.page_size as u64;
        state.next_base += span + self.page_size as u64; // one guard page
        let region = Region::new(name, kind, base, len, self.page_size);
        state.regions.push(region.clone());
        region
    }

    /// Maps an input region and initialises it with `data` (the `mmap` shim
    /// for input files).
    pub fn map_input(&self, name: impl Into<String>, data: &[u8]) -> Region {
        let region = self.map_region_kind(name, RegionKind::Input, data.len() as u64);
        self.write_direct(region.base(), data);
        region
    }

    /// All currently mapped regions.
    pub fn regions(&self) -> Vec<Region> {
        self.state.read().regions.clone()
    }

    /// Returns the shared page object for `page`, creating it zero-filled on
    /// first use.
    pub fn page(&self, page: PageId) -> Arc<SharedPage> {
        if let Some(p) = self.pages.read().get(&page) {
            return Arc::clone(p);
        }
        let mut pages = self.pages.write();
        Arc::clone(
            pages
                .entry(page)
                .or_insert_with(|| Arc::new(SharedPage::zeroed(self.page_size))),
        )
    }

    /// Reads bytes directly from the shared image (native-mode access path
    /// and provenance-free inspection).
    pub fn read_direct(&self, addr: VirtAddr, buf: &mut [u8]) {
        let mut cursor = 0;
        for (page, offset, len) in split_by_page(addr, buf.len(), self.page_size) {
            self.page(page).read(offset, &mut buf[cursor..cursor + len]);
            cursor += len;
        }
    }

    /// Writes bytes directly to the shared image.
    ///
    /// A direct store is outside the commit protocol (see the module docs):
    /// it bumps no version, so a tracked view that keeps a copy of the page
    /// from an earlier commit would not see it. Call it before or after a
    /// tracked run, never while tracked views write the same pages.
    pub fn write_direct(&self, addr: VirtAddr, data: &[u8]) {
        let mut cursor = 0;
        for (page, offset, len) in split_by_page(addr, data.len(), self.page_size) {
            self.page(page).write(offset, &data[cursor..cursor + len]);
            cursor += len;
        }
    }

    /// Reads a little-endian `u64` directly.
    pub fn read_u64_direct(&self, addr: VirtAddr) -> u64 {
        let mut buf = [0u8; 8];
        self.read_direct(addr, &mut buf);
        u64::from_le_bytes(buf)
    }

    /// Writes a little-endian `u64` directly.
    pub fn write_u64_direct(&self, addr: VirtAddr, value: u64) {
        self.write_direct(addr, &value.to_le_bytes());
    }

    /// Reads an `f64` directly.
    pub fn read_f64_direct(&self, addr: VirtAddr) -> f64 {
        f64::from_bits(self.read_u64_direct(addr))
    }

    /// Writes an `f64` directly.
    pub fn write_f64_direct(&self, addr: VirtAddr, value: f64) {
        self.write_u64_direct(addr, value.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn regions_do_not_overlap() {
        let image = SharedImage::new(4096);
        let a = image.map_region("a", 10_000);
        let b = image.map_region("b", 1);
        assert!(a.end() <= b.base());
        assert_eq!(image.regions().len(), 2);
    }

    #[test]
    fn direct_read_write_roundtrip() {
        let image = SharedImage::new(4096);
        let r = image.map_region("r", 4096 * 3);
        // Cross a page boundary on purpose.
        let addr = r.base().add(4090);
        let data: Vec<u8> = (0..32).collect();
        image.write_direct(addr, &data);
        let mut out = vec![0u8; 32];
        image.read_direct(addr, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn u64_and_f64_helpers() {
        let image = SharedImage::new(4096);
        let r = image.map_region("r", 64);
        image.write_u64_direct(r.base(), 0xdead_beef);
        assert_eq!(image.read_u64_direct(r.base()), 0xdead_beef);
        image.write_f64_direct(r.at(8), 3.5);
        assert_eq!(image.read_f64_direct(r.at(8)), 3.5);
    }

    #[test]
    fn input_mapping_initialises_contents() {
        let image = SharedImage::new(4096);
        let data = b"hello world".to_vec();
        let r = image.map_input("input", &data);
        let mut out = vec![0u8; data.len()];
        image.read_direct(r.base(), &mut out);
        assert_eq!(out, data);
        assert_eq!(r.kind(), RegionKind::Input);
    }

    #[test]
    fn pages_are_materialised_lazily() {
        let image = SharedImage::new(4096);
        let _r = image.map_region("big", 4096 * 1000);
        assert_eq!(image.pages.read().len(), 0);
        image.write_u64_direct(_r.base(), 1);
        assert_eq!(image.pages.read().len(), 1);
    }

    #[test]
    fn snapshot_copies_page_contents() {
        let image = SharedImage::new(4096);
        let r = image.map_region("r", 4096);
        image.write_direct(r.base(), &[1, 2, 3]);
        let page = image.page(r.base().page(4096));
        let snap = page.snapshot();
        assert_eq!(&snap[..3], &[1, 2, 3]);
        assert_eq!(snap.len(), 4096);
        // Mutating the page afterwards does not affect the snapshot.
        image.write_direct(r.base(), &[9]);
        assert_eq!(snap[0], 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn page_size_must_be_power_of_two() {
        SharedImage::new(3000);
    }

    #[test]
    fn shared_page_byte_accessors() {
        let page = SharedPage::zeroed(64);
        assert_eq!(page.len(), 64);
        assert!(!page.is_empty());
        page.write(5, &[0xab]);
        assert_eq!(page.read_byte(5), 0xab);
    }

    #[test]
    fn the_record_names_only_the_last_commit_of_a_page_up_to_32_kib() {
        let page = SharedPage::zeroed(4096);
        assert_eq!(page.publish(8..16), 0);
        assert_eq!(page.publish(100..4096), 1);
        assert_eq!(page.version(), 2);
        assert_eq!(page.committed_range(2), Some(100..4096));
        assert_eq!(page.committed_range(1), None, "no longer the last");
        let largest = SharedPage::zeroed(1 << 15);
        largest.publish(0..1 << 15);
        assert_eq!(largest.committed_range(1), Some(0..1 << 15));
        let larger = SharedPage::zeroed(1 << 16);
        larger.publish(0..8);
        assert_eq!(larger.committed_range(1), None, "`hi` would not fit");
        // Past 32 bits nothing is recorded, so no record can match again.
        page.version
            .store(u64::from(u32::MAX) - 1, Ordering::Relaxed);
        page.publish(0..8);
        page.publish(0..16);
        assert_eq!(page.version(), 1 << 32);
        assert_eq!(page.committed_range(u64::from(u32::MAX)), Some(0..8));
        assert_eq!(page.committed_range(1 << 32), None);
    }

    #[test]
    #[should_panic(expected = "outside a 13-byte page")]
    fn the_short_last_word_is_not_writable_past_the_page() {
        // Lanes 5..8 of word 1 exist in storage but not in the page.
        SharedPage::zeroed(13).write(12, &[1, 2]);
    }

    /// Eight writers each own one lane of every word — thread `k` owns lane
    /// `(k + w) % 8` of word `w`, so the lane-7 byte of one word and the
    /// lane-0 byte of the next share an owner — and rewrite their bytes as
    /// one-byte runs and as two-byte runs across those word edges, while a
    /// reader snapshots the page. A value's low three bits name its owner
    /// and its high five bits are never zero, so a torn word or a transient
    /// zero shows as a byte its owner never wrote; and since only the owner
    /// writes a byte, each writer finds its bytes as it left them in the
    /// round before, or a neighbour's merge lost its write.
    #[test]
    fn concurrent_writers_of_one_word_never_tear_or_lose_bytes() {
        use std::ops::Range;
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;

        const WORDS: usize = 64;
        const ROUNDS: usize = 10_000;
        let owner = |i: usize| (i % WORD + WORD - i / WORD % WORD) % WORD;
        let value = |k: usize, round: usize| ((round % 31 + 1) << 3 | k) as u8;
        let page = SharedPage::zeroed(WORDS * WORD);
        for i in 0..page.len() {
            page.write(i, &[value(owner(i), 0)]);
        }
        let (start, done) = (Barrier::new(WORD + 1), AtomicBool::new(false));
        std::thread::scope(|s| {
            let writers: Vec<_> = (0..WORD)
                .map(|k| {
                    let (page, start) = (&page, &start);
                    s.spawn(move || {
                        let singles: Vec<Range<usize>> = (0..page.len())
                            .filter(|&i| owner(i) == k)
                            .map(|i| i..i + 1)
                            .collect();
                        // The same bytes with each word-edge pair as one run.
                        let mut pairs: Vec<Range<usize>> = Vec::new();
                        for run in singles.iter().cloned() {
                            match pairs.last_mut() {
                                Some(last) if last.end == run.start => last.end = run.end,
                                _ => pairs.push(run),
                            }
                        }
                        start.wait();
                        for round in 1..=ROUNDS {
                            let v = value(k, round);
                            for run in if round % 2 == 0 { &pairs } else { &singles } {
                                for i in run.clone() {
                                    assert_eq!(
                                        page.read_byte(i),
                                        value(k, round - 1),
                                        "byte {i} lost"
                                    );
                                }
                                page.write(run.start, &[v, v][..run.len()]);
                            }
                        }
                    })
                })
                .collect();
            let reader = s.spawn(|| {
                start.wait();
                loop {
                    let finished = done.load(Ordering::Acquire);
                    for (i, b) in page.snapshot().into_iter().enumerate() {
                        assert_eq!(
                            usize::from(b & 7),
                            owner(i),
                            "byte {i} = {b:#x}: not its owner's"
                        );
                        assert_ne!(b >> 3, 0, "byte {i} = {b:#x}: never written");
                    }
                    if finished {
                        break;
                    }
                }
            });
            // Stop the reader even when a writer failed, then report both.
            let writers: Vec<_> = writers.into_iter().map(|w| w.join()).collect();
            done.store(true, Ordering::Release);
            reader
                .join()
                .expect("reader saw a byte its owner never wrote");
            for writer in writers {
                writer.expect("a writer's byte was overwritten");
            }
        });
        for i in 0..page.len() {
            assert_eq!(page.read_byte(i), value(owner(i), ROUNDS), "byte {i}");
        }
    }

    proptest! {
        /// A page of any length, a multiple of eight or not, behaves as a
        /// plain byte vector under writes, reads and snapshots at any offset
        /// and length.
        #[test]
        fn prop_shared_page_matches_a_byte_vector(
            len in 0usize..97,
            ops in proptest::collection::vec(any::<u64>(), 1..48),
        ) {
            let page = SharedPage::zeroed(len);
            let mut model = vec![0u8; len];
            for op in ops {
                let offset = (op >> 8) as usize % (len + 1);
                let n = (op >> 24) as usize % (len - offset + 1);
                match op % 3 {
                    0 => {
                        let data: Vec<u8> =
                            (0..n).map(|i| (op >> (i % 8 * 8)) as u8 ^ i as u8).collect();
                        page.write(offset, &data);
                        model[offset..offset + n].copy_from_slice(&data);
                    }
                    1 => {
                        let mut buf = vec![0xEE; n];
                        page.read(offset, &mut buf);
                        prop_assert_eq!(&buf[..], &model[offset..offset + n]);
                    }
                    _ => {
                        let mut buf = vec![0xEE; len];
                        page.snapshot_into(&mut buf);
                        prop_assert_eq!(&buf, &model);
                    }
                }
            }
            prop_assert_eq!(page.snapshot(), model);
        }
    }
}
