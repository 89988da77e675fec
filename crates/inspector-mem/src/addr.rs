//! Virtual addresses and page arithmetic.

use std::fmt;

/// Default page size used by the simulated MMU (matches x86-64).
pub const DEFAULT_PAGE_SIZE: usize = 4096;

/// A virtual address inside the simulated shared address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(u64);

impl VirtAddr {
    /// Creates an address from its raw value.
    pub const fn new(raw: u64) -> Self {
        VirtAddr(raw)
    }

    /// Returns the raw address value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The page containing this address, for the given page size.
    pub fn page(self, page_size: usize) -> PageId {
        PageId::new(self.0 / page_size as u64)
    }

    /// Byte offset of this address within its page.
    pub fn page_offset(self, page_size: usize) -> usize {
        (self.0 % page_size as u64) as usize
    }

    /// Address advanced by `bytes`.
    pub const fn add(self, bytes: u64) -> VirtAddr {
        VirtAddr(self.0 + bytes)
    }

    /// Distance in bytes from `other` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self`.
    pub fn offset_from(self, other: VirtAddr) -> u64 {
        self.0
            .checked_sub(other.0)
            .expect("offset_from: other is past self")
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for VirtAddr {
    fn from(value: u64) -> Self {
        VirtAddr(value)
    }
}

/// A page number (virtual address divided by the page size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageId(u64);

impl PageId {
    /// Creates a page identifier from its page number.
    pub const fn new(number: u64) -> Self {
        PageId(number)
    }

    /// Returns the page number.
    pub const fn number(self) -> u64 {
        self.0
    }

    /// The first address of this page.
    pub fn base(self, page_size: usize) -> VirtAddr {
        VirtAddr::new(self.0 * page_size as u64)
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page#{}", self.0)
    }
}

/// Splits the byte range `[addr, addr + len)` into per-page sub-ranges.
///
/// Each item is `(page, offset_in_page, length)`. Used by the access path so
/// that a read or write spanning a page boundary touches (and faults on)
/// every page it covers, exactly as the hardware would.
pub fn split_by_page(
    addr: VirtAddr,
    len: usize,
    page_size: usize,
) -> impl Iterator<Item = (PageId, usize, usize)> {
    let mut remaining = len;
    let mut cursor = addr;
    std::iter::from_fn(move || {
        if remaining == 0 {
            return None;
        }
        let page = cursor.page(page_size);
        let offset = cursor.page_offset(page_size);
        let chunk = remaining.min(page_size - offset);
        cursor = cursor.add(chunk as u64);
        remaining -= chunk;
        Some((page, offset, chunk))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_arithmetic() {
        let a = VirtAddr::new(4096 * 3 + 17);
        assert_eq!(a.page(4096), PageId::new(3));
        assert_eq!(a.page_offset(4096), 17);
        assert_eq!(PageId::new(3).base(4096), VirtAddr::new(4096 * 3));
    }

    #[test]
    fn add_and_offset_from() {
        let a = VirtAddr::new(100);
        let b = a.add(28);
        assert_eq!(b.raw(), 128);
        assert_eq!(b.offset_from(a), 28);
    }

    #[test]
    #[should_panic(expected = "offset_from")]
    fn offset_from_panics_when_reversed() {
        VirtAddr::new(1).offset_from(VirtAddr::new(2));
    }

    #[test]
    fn split_by_page_single_page() {
        let parts: Vec<_> = split_by_page(VirtAddr::new(10), 20, 4096).collect();
        assert_eq!(parts, vec![(PageId::new(0), 10, 20)]);
    }

    #[test]
    fn split_by_page_crosses_boundary() {
        let parts: Vec<_> = split_by_page(VirtAddr::new(4090), 16, 4096).collect();
        assert_eq!(
            parts,
            vec![(PageId::new(0), 4090, 6), (PageId::new(1), 0, 10)]
        );
    }

    #[test]
    fn split_by_page_spans_multiple_pages() {
        let parts: Vec<_> = split_by_page(VirtAddr::new(0), 4096 * 2 + 5, 4096).collect();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[2], (PageId::new(2), 0, 5));
    }

    #[test]
    fn split_by_page_empty_range() {
        assert_eq!(split_by_page(VirtAddr::new(0), 0, 4096).count(), 0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(VirtAddr::new(255).to_string(), "0xff");
        assert_eq!(PageId::new(9).to_string(), "page#9");
    }
}
