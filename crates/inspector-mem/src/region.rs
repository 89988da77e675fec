//! Mapped regions of the shared address space.
//!
//! A region corresponds to one `mmap` mapping managed by the INSPECTOR
//! library: the globals segment, the shared heap, or an input file mapped by
//! the `mmap` shim (paper §V-A, *Input support*).

use crate::addr::{PageId, VirtAddr};

/// Purpose of a mapped region, used by provenance consumers to tell input
/// pages apart from heap/global pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionKind {
    /// Global/static data of the traced program.
    Globals,
    /// The shared heap managed by the allocator shim.
    Heap,
    /// A read-only (from the application's perspective) input file mapping.
    Input,
}

/// A contiguous mapped range of the shared address space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    name: String,
    kind: RegionKind,
    base: VirtAddr,
    len: u64,
    page_size: usize,
}

impl Region {
    pub(crate) fn new(
        name: impl Into<String>,
        kind: RegionKind,
        base: VirtAddr,
        len: u64,
        page_size: usize,
    ) -> Self {
        Region {
            name: name.into(),
            kind,
            base,
            len,
            page_size,
        }
    }

    /// Human-readable name given at mapping time.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// What the region is used for.
    pub fn kind(&self) -> RegionKind {
        self.kind
    }

    /// First address of the region.
    pub fn base(&self) -> VirtAddr {
        self.base
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Returns `true` if the region has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// One-past-the-end address.
    pub fn end(&self) -> VirtAddr {
        self.base.add(self.len)
    }

    /// Returns `true` if `addr` falls inside the region.
    pub fn contains(&self, addr: VirtAddr) -> bool {
        addr >= self.base && addr < self.end()
    }

    /// Address of the `index`-th byte of the region.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn at(&self, index: u64) -> VirtAddr {
        assert!(index < self.len, "region offset {index} out of bounds");
        self.base.add(index)
    }

    /// All pages covered by the region.
    pub fn pages(&self) -> impl Iterator<Item = PageId> + '_ {
        let first = self.base.page(self.page_size).number();
        let last = if self.len == 0 {
            first
        } else {
            self.base.add(self.len - 1).page(self.page_size).number() + 1
        };
        (first..last).map(PageId::new)
    }

    /// Number of pages covered by the region.
    pub fn page_count(&self) -> usize {
        self.pages().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region() -> Region {
        Region::new(
            "input",
            RegionKind::Input,
            VirtAddr::new(4096 * 10),
            4096 * 2 + 100,
            4096,
        )
    }

    #[test]
    fn bounds_and_contains() {
        let r = region();
        assert!(r.contains(r.base()));
        assert!(r.contains(r.at(100)));
        assert!(!r.contains(r.end()));
        assert!(!r.is_empty());
        assert_eq!(r.len(), 4096 * 2 + 100);
    }

    #[test]
    fn pages_cover_partial_last_page() {
        let r = region();
        let pages: Vec<_> = r.pages().collect();
        assert_eq!(
            pages,
            vec![PageId::new(10), PageId::new(11), PageId::new(12)]
        );
        assert_eq!(r.page_count(), 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn at_out_of_bounds_panics() {
        region().at(4096 * 3);
    }

    #[test]
    fn empty_region_has_no_pages() {
        let r = Region::new("empty", RegionKind::Heap, VirtAddr::new(0), 0, 4096);
        assert!(r.is_empty());
        assert_eq!(r.page_count(), 0);
    }
}
