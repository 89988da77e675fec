//! A simple shared-heap allocator: the `malloc`/`free` shim.
//!
//! INSPECTOR interposes on the allocator so that heap objects live in the
//! shared memory-mapped region (and are therefore tracked). The allocator
//! here is intentionally simple — first-fit over a free list with a bump
//! fallback — because the evaluation only depends on allocation *behaviour*
//! (e.g. `reverse_index` performing very many small allocations from many
//! threads), not on allocator sophistication.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::addr::VirtAddr;
use crate::region::Region;

/// Alignment applied to every allocation.
const ALIGN: u64 = 16;

/// Allocator statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Number of `alloc` calls served.
    pub allocations: u64,
    /// Number of `free` calls served.
    pub frees: u64,
    /// Bytes currently allocated.
    pub live_bytes: u64,
    /// High-water mark of allocated bytes.
    pub peak_bytes: u64,
}

#[derive(Debug)]
struct HeapState {
    /// Next never-used address (bump pointer).
    bump: u64,
    /// Free blocks: base -> length.
    free: BTreeMap<u64, u64>,
    /// Live blocks: base -> length.
    live: BTreeMap<u64, u64>,
    stats: AllocStats,
}

/// Error returned when the heap region is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfMemory {
    /// The allocation size that could not be served.
    pub requested: u64,
}

impl std::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shared heap exhausted while allocating {} bytes",
            self.requested
        )
    }
}

impl std::error::Error for OutOfMemory {}

/// A thread-safe first-fit allocator over one heap [`Region`].
#[derive(Debug, Clone)]
pub struct HeapAllocator {
    region: Region,
    state: Arc<Mutex<HeapState>>,
}

impl HeapAllocator {
    /// Creates an allocator managing `region`.
    pub fn new(region: Region) -> Self {
        let bump = region.base().raw();
        HeapAllocator {
            region,
            state: Arc::new(Mutex::new(HeapState {
                bump,
                free: BTreeMap::new(),
                live: BTreeMap::new(),
                stats: AllocStats::default(),
            })),
        }
    }

    /// The region this allocator manages.
    pub fn region(&self) -> &Region {
        &self.region
    }

    /// Allocates `size` bytes (16-byte aligned).
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] when neither the free list nor the bump area
    /// can serve the request.
    pub fn alloc(&self, size: u64) -> Result<VirtAddr, OutOfMemory> {
        let size = size.max(1).div_ceil(ALIGN) * ALIGN;
        let mut st = self.state.lock();

        // First fit from the free list.
        let found = st
            .free
            .iter()
            .find(|(_, &len)| len >= size)
            .map(|(&base, &len)| (base, len));
        let base = if let Some((base, len)) = found {
            st.free.remove(&base);
            if len > size {
                st.free.insert(base + size, len - size);
            }
            base
        } else {
            // Bump allocation.
            let base = st.bump;
            let end = base + size;
            if end > self.region.end().raw() {
                return Err(OutOfMemory { requested: size });
            }
            st.bump = end;
            base
        };

        st.live.insert(base, size);
        st.stats.allocations += 1;
        st.stats.live_bytes += size;
        st.stats.peak_bytes = st.stats.peak_bytes.max(st.stats.live_bytes);
        Ok(VirtAddr::new(base))
    }

    /// Frees a block previously returned by [`alloc`](Self::alloc).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a live allocation (double free or wild free),
    /// mirroring how glibc aborts on heap corruption.
    pub fn free(&self, addr: VirtAddr) {
        let mut st = self.state.lock();
        let size = st
            .live
            .remove(&addr.raw())
            .unwrap_or_else(|| panic!("free of unallocated address {addr}"));
        st.stats.frees += 1;
        st.stats.live_bytes -= size;
        // Insert into the free list, coalescing with adjacent blocks.
        let mut base = addr.raw();
        let mut len = size;
        if let Some((&prev_base, &prev_len)) = st.free.range(..base).next_back() {
            if prev_base + prev_len == base {
                st.free.remove(&prev_base);
                base = prev_base;
                len += prev_len;
            }
        }
        if let Some(&next_len) = st.free.get(&(base + len)) {
            st.free.remove(&(base + len));
            len += next_len;
        }
        st.free.insert(base, len);
    }

    /// Current statistics.
    pub fn stats(&self) -> AllocStats {
        self.state.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::SharedImage;

    fn allocator(len: u64) -> HeapAllocator {
        let image = SharedImage::new(4096);
        HeapAllocator::new(image.map_region("heap", len))
    }

    #[test]
    fn alloc_returns_aligned_disjoint_blocks() {
        let a = allocator(4096 * 4);
        let x = a.alloc(10).unwrap();
        let y = a.alloc(100).unwrap();
        assert_eq!(x.raw() % ALIGN, 0);
        assert_eq!(y.raw() % ALIGN, 0);
        assert!(y.raw() >= x.raw() + 16);
        assert_eq!(a.state.lock().live.len(), 2);
    }

    #[test]
    fn free_allows_reuse() {
        let a = allocator(4096);
        let x = a.alloc(64).unwrap();
        a.free(x);
        let y = a.alloc(32).unwrap();
        assert_eq!(y, x, "freed block should be reused first-fit");
    }

    #[test]
    fn coalescing_merges_neighbours() {
        let a = allocator(4096);
        let x = a.alloc(64).unwrap();
        let y = a.alloc(64).unwrap();
        let _z = a.alloc(64).unwrap();
        a.free(x);
        a.free(y);
        // x and y coalesce into a 128-byte block that can serve this:
        let big = a.alloc(128).unwrap();
        assert_eq!(big, x);
    }

    #[test]
    fn out_of_memory_is_reported() {
        let a = allocator(64);
        assert!(a.alloc(32).is_ok());
        assert!(a.alloc(32).is_ok());
        let err = a.alloc(32).unwrap_err();
        assert_eq!(err.requested, 32);
        assert!(err.to_string().contains("exhausted"));
    }

    #[test]
    #[should_panic(expected = "free of unallocated address")]
    fn double_free_panics() {
        let a = allocator(4096);
        let x = a.alloc(8).unwrap();
        a.free(x);
        a.free(x);
    }

    #[test]
    fn stats_track_peak_and_live() {
        let a = allocator(4096);
        let x = a.alloc(100).unwrap();
        let _y = a.alloc(100).unwrap();
        a.free(x);
        let s = a.stats();
        assert_eq!(s.allocations, 2);
        assert_eq!(s.frees, 1);
        assert_eq!(s.live_bytes, 112); // 100 rounded up to 112
        assert_eq!(s.peak_bytes, 224);
    }

    #[test]
    fn allocator_is_shareable_across_clones() {
        let a = allocator(4096);
        let b = a.clone();
        let x = a.alloc(16).unwrap();
        b.free(x);
        assert_eq!(a.state.lock().live.len(), 0);
    }
}
