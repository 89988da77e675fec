//! Sub-computations: the vertices of the Concurrent Provenance Graph.
//!
//! One [`SubComputation`] is built, handed to an ingest worker, indexed and
//! stored per synchronization boundary, so its shape is the per-boundary
//! cost of everything downstream of the recorder. Its page sets are
//! [`PageSet`]s and its clock's components use the same storage
//! (`small.rs`): a sub-computation that touched a handful of pages on
//! a handful of threads — all but 45 of the 200 092 the 12 workloads produce
//! at Small — owns no heap block besides a branch log longer than 15 bytes
//! (`thunk.rs`), and is built, cloned and dropped without the allocator.

use std::fmt;

use crate::clock::VectorClock;
use crate::event::SyncKind;
use crate::ids::{PageId, SubId, SyncObjectId};
use crate::small::SmallVec;
use crate::thunk::ThunkList;

/// Pages a [`PageSet`] holds before it moves to the heap.
const INLINE_PAGES: usize = 4;

/// A set of pages, **sorted and deduplicated**, stored inline while small.
///
/// Iteration is ascending — exactly the order the `BTreeSet<PageId>` this
/// replaces gave — so spill records, the page lists inside data edges and
/// every fingerprint built from either come out byte-identical. Equality,
/// hashing and `Debug` see the contents only (see `small.rs`).
///
/// Insertion keeps the order by shifting, which is what a set of one to a
/// few pages wants; the large sets that occur are whole-input scans, which
/// touch pages in ascending order and so append.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct PageSet {
    pages: SmallVec<PageId, INLINE_PAGES>,
}

impl PageSet {
    /// Creates an empty set (no allocation).
    pub fn new() -> Self {
        PageSet::default()
    }

    /// Adds `page`. Returns `true` if it was not present.
    pub fn insert(&mut self, page: PageId) -> bool {
        if self.pages.last().is_none_or(|&last| last < page) {
            self.pages.push(page);
            return true;
        }
        match self.pages.binary_search(&page) {
            Ok(_) => false,
            Err(at) => {
                self.pages.insert(at, page);
                true
            }
        }
    }

    /// Returns `true` if the set holds `page`.
    pub fn contains(&self, page: &PageId) -> bool {
        self.pages.binary_search(page).is_ok()
    }

    /// Number of pages in the set.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Returns `true` if the set holds no page.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Iterates over the pages in ascending order.
    pub fn iter(&self) -> std::slice::Iter<'_, PageId> {
        self.pages.iter()
    }

    /// The pages present in both sets, ascending (one merge pass).
    pub fn intersection<'a>(&'a self, other: &'a PageSet) -> impl Iterator<Item = PageId> + 'a {
        let mut theirs = other.iter().copied().peekable();
        self.iter().copied().filter(move |&page| {
            while theirs.next_if(|&p| p < page).is_some() {}
            theirs.peek() == Some(&page)
        })
    }
}

impl<'a> IntoIterator for &'a PageSet {
    type Item = &'a PageId;
    type IntoIter = std::slice::Iter<'a, PageId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Debug for PageSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// The synchronization operation that *terminated* a sub-computation.
///
/// Recording it alongside the vertex lets the snapshot facility compute
/// consistent cuts (an acquire may only be in the cut if the matching release
/// is) and lets queries reconstruct the sync schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncPoint {
    /// The synchronization object involved.
    pub object: SyncObjectId,
    /// Whether the thread released or acquired the object.
    pub kind: SyncKind,
}

/// A sub-computation `L_t[α]`: everything one thread executed between two
/// successive synchronization operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubComputation {
    /// Identifier (thread, α).
    pub id: SubId,
    /// Vector clock assigned when the sub-computation started; defines its
    /// position in the happens-before partial order.
    pub clock: VectorClock,
    /// Pages read (first-touch, page granularity).
    pub read_set: PageSet,
    /// Pages written (first-touch, page granularity).
    pub write_set: PageSet,
    /// Control path taken within the sub-computation.
    pub thunks: ThunkList,
    /// The synchronization operation that ended the sub-computation
    /// (`None` if the thread exited instead).
    pub terminator: Option<SyncPoint>,
}

impl SubComputation {
    /// Creates an empty sub-computation with the given identity and clock.
    pub fn new(id: SubId, clock: VectorClock) -> Self {
        SubComputation {
            id,
            clock,
            read_set: PageSet::new(),
            write_set: PageSet::new(),
            thunks: ThunkList::new(id),
            terminator: None,
        }
    }

    /// Records a page in the read set. Returns `true` if it was not present.
    pub fn record_read(&mut self, page: PageId) -> bool {
        self.read_set.insert(page)
    }

    /// Records a page in the write set. Returns `true` if it was not present.
    pub fn record_write(&mut self, page: PageId) -> bool {
        self.write_set.insert(page)
    }

    /// Returns `true` if the sub-computation read `page` (possibly also wrote
    /// it).
    pub fn reads(&self, page: PageId) -> bool {
        self.read_set.contains(&page)
    }

    /// Returns `true` if the sub-computation wrote `page`.
    pub fn writes(&self, page: PageId) -> bool {
        self.write_set.contains(&page)
    }

    /// Pages that appear in both the read and the write set.
    pub fn read_write_intersection(&self) -> impl Iterator<Item = PageId> + '_ {
        self.read_set.intersection(&self.write_set)
    }

    /// Returns `true` if this sub-computation happens-before `other`
    /// according to their recorded vector clocks.
    pub fn happens_before(&self, other: &SubComputation) -> bool {
        if self.id.thread == other.id.thread {
            return self.id.alpha < other.id.alpha;
        }
        self.clock.happens_before(&other.clock)
    }

    /// Returns `true` if the two sub-computations are concurrent.
    pub fn concurrent_with(&self, other: &SubComputation) -> bool {
        !self.happens_before(other) && !other.happens_before(self) && self.id != other.id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ThreadId;
    use crate::small::hash_of;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    proptest! {
        /// `PageSet` is `BTreeSet<PageId>` — the type it replaced — over
        /// insert sequences that cross the inline → heap boundary, and a
        /// sub-computation's set algebra agrees with the model's.
        #[test]
        fn prop_page_set_matches_btreeset(
            reads in proptest::collection::vec(0u64..24, 0..30),
            writes in proptest::collection::vec(0u64..24, 0..30),
            probes in proptest::collection::vec(0u64..24, 8),
        ) {
            let mut s = sub(0, 0, &[]);
            let mut model_reads = BTreeSet::new();
            let mut model_writes = BTreeSet::new();
            for &page in &reads {
                let page = PageId::new(page);
                prop_assert_eq!(s.record_read(page), model_reads.insert(page));
                prop_assert_eq!(s.read_set.len(), model_reads.len());
            }
            for &page in &writes {
                let page = PageId::new(page);
                prop_assert_eq!(s.record_write(page), model_writes.insert(page));
            }
            for (set, model) in [(&s.read_set, &model_reads), (&s.write_set, &model_writes)] {
                prop_assert_eq!(set.len(), model.len());
                prop_assert_eq!(set.is_empty(), model.is_empty());
                // Ascending, exactly as the tree iterated.
                prop_assert_eq!(
                    set.iter().copied().collect::<Vec<_>>(),
                    model.iter().copied().collect::<Vec<_>>()
                );
                prop_assert_eq!(set.into_iter().count(), model.len());
                prop_assert_eq!(format!("{set:?}"), format!("{model:?}"));
                for &probe in &probes {
                    let probe = PageId::new(probe);
                    prop_assert_eq!(set.contains(&probe), model.contains(&probe));
                }
            }
            prop_assert_eq!(
                s.read_write_intersection().collect::<Vec<_>>(),
                model_reads.intersection(&model_writes).copied().collect::<Vec<_>>()
            );

            // The same contents built on the heap from the start compare,
            // hash and print as the (possibly inline) set does.
            let mut spilled = PageSet {
                pages: SmallVec::with_capacity(INLINE_PAGES + 1),
            };
            for &page in reads.iter().rev() {
                spilled.insert(PageId::new(page));
            }
            prop_assert!(!spilled.pages.is_inline());
            prop_assert_eq!(&spilled, &s.read_set);
            prop_assert_eq!(hash_of(&spilled), hash_of(&s.read_set));
            prop_assert_eq!(
                s.read_set.pages.is_inline(),
                model_reads.len() <= INLINE_PAGES
            );
        }
    }

    fn sub(thread: u32, alpha: u64, clock: &[(u32, u64)]) -> SubComputation {
        let mut c = VectorClock::new();
        for &(t, v) in clock {
            c.set(ThreadId::new(t), v);
        }
        SubComputation::new(SubId::new(ThreadId::new(thread), alpha), c)
    }

    #[test]
    fn read_write_sets_deduplicate() {
        let mut s = sub(0, 0, &[(0, 0)]);
        assert!(s.record_read(PageId::new(1)));
        assert!(!s.record_read(PageId::new(1)));
        assert!(s.record_write(PageId::new(1)));
        assert!(s.reads(PageId::new(1)));
        assert!(s.writes(PageId::new(1)));
        assert_eq!(s.read_write_intersection().count(), 1);
    }

    #[test]
    fn same_thread_ordering_uses_alpha() {
        let a = sub(0, 0, &[(0, 0)]);
        let b = sub(0, 1, &[(0, 1)]);
        assert!(a.happens_before(&b));
        assert!(!b.happens_before(&a));
        assert!(!a.concurrent_with(&b));
    }

    #[test]
    fn cross_thread_ordering_uses_clocks() {
        // T0.0 released a lock that T1.1 acquired: T1's clock dominates.
        let a = sub(0, 0, &[(0, 0)]);
        let b = sub(1, 1, &[(0, 0), (1, 1)]);
        assert!(a.happens_before(&b));

        // Independent sub-computations are concurrent.
        let c = sub(0, 0, &[(0, 0)]);
        let d = sub(1, 0, &[(1, 0)]);
        assert!(c.concurrent_with(&d));
    }
}
