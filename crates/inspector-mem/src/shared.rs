//! The shared memory image: the simulated equivalent of the memory-mapped
//! file that backs the globals and the heap in INSPECTOR's threads-as-
//! processes design.
//!
//! All threads hold an `Arc<SharedImage>`. In *native* mode they read and
//! write it directly (like ordinary pthreads sharing an address space); in
//! *tracked* mode they only read it on first touch and publish their writes
//! through [`crate::commit`] at synchronization points.
//!
//! Page contents are stored as relaxed atomic bytes so that concurrent
//! direct access (native mode) and concurrent commits (tracked mode) are
//! well-defined in Rust without imposing a lock on every access. Atomicity
//! across multi-byte values is the application's responsibility, exactly as
//! POSIX requires for pthreads programs.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::addr::{split_by_page, PageId, VirtAddr, DEFAULT_PAGE_SIZE};
use crate::region::{Region, RegionKind};

/// One shared page; bytes are individually atomic (relaxed).
#[derive(Debug)]
pub struct SharedPage {
    bytes: Box<[AtomicU8]>,
}

impl SharedPage {
    /// Creates a zero-filled page of `page_size` bytes.
    pub fn zeroed(page_size: usize) -> Self {
        let bytes = (0..page_size).map(|_| AtomicU8::new(0)).collect();
        SharedPage { bytes }
    }

    /// Page size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Returns `true` if the page has zero size (never the case in practice).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Copies the page contents into a fresh buffer (used to create twins).
    pub fn snapshot(&self) -> Vec<u8> {
        self.bytes
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Copies the whole page into `buf` (the twin of a pooled private
    /// copy); zipping the two slices leaves no per-byte bounds check.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is not exactly one page long.
    pub fn snapshot_into(&self, buf: &mut [u8]) {
        assert_eq!(buf.len(), self.bytes.len(), "snapshot buffer size mismatch");
        for (out, b) in buf.iter_mut().zip(self.bytes.iter()) {
            *out = b.load(Ordering::Relaxed);
        }
    }

    /// Reads `buf.len()` bytes starting at `offset`.
    pub fn read(&self, offset: usize, buf: &mut [u8]) {
        for (i, out) in buf.iter_mut().enumerate() {
            *out = self.bytes[offset + i].load(Ordering::Relaxed);
        }
    }

    /// Writes `data` starting at `offset`.
    pub fn write(&self, offset: usize, data: &[u8]) {
        for (i, &v) in data.iter().enumerate() {
            self.bytes[offset + i].store(v, Ordering::Relaxed);
        }
    }

    /// Writes a single byte.
    pub fn write_byte(&self, offset: usize, value: u8) {
        self.bytes[offset].store(value, Ordering::Relaxed);
    }

    /// Reads a single byte.
    pub fn read_byte(&self, offset: usize) -> u8 {
        self.bytes[offset].load(Ordering::Relaxed)
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

    /// The region containing `addr`, if any.
    pub fn region_containing(&self, addr: VirtAddr) -> Option<Region> {
        self.state
            .read()
            .regions
            .iter()
            .find(|r| r.contains(addr))
            .cloned()
    }

    /// Total bytes currently mapped.
    pub fn mapped_bytes(&self) -> u64 {
        self.state.read().regions.iter().map(|r| r.len()).sum()
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

    /// Number of pages that have been materialised.
    pub fn resident_pages(&self) -> usize {
        self.pages.read().len()
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

    #[test]
    fn regions_do_not_overlap() {
        let image = SharedImage::new(4096);
        let a = image.map_region("a", 10_000);
        let b = image.map_region("b", 1);
        assert!(a.end() <= b.base());
        assert_eq!(image.regions().len(), 2);
        assert_eq!(image.mapped_bytes(), 10_001);
    }

    #[test]
    fn region_lookup_by_address() {
        let image = SharedImage::new(4096);
        let a = image.map_region("a", 100);
        assert_eq!(image.region_containing(a.at(50)).unwrap().name(), "a");
        assert!(image.region_containing(VirtAddr::new(1)).is_none());
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
        assert_eq!(image.resident_pages(), 0);
        image.write_u64_direct(_r.base(), 1);
        assert_eq!(image.resident_pages(), 1);
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
        page.write_byte(5, 0xab);
        assert_eq!(page.read_byte(5), 0xab);
    }
}
