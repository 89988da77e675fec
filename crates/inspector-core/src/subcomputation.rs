//! Sub-computations: the vertices of the Concurrent Provenance Graph.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use crate::clock::VectorClock;
use crate::event::SyncKind;
use crate::ids::{PageId, SubId, SyncObjectId};
use crate::thunk::ThunkList;

/// The synchronization operation that *terminated* a sub-computation.
///
/// Recording it alongside the vertex lets the snapshot facility compute
/// consistent cuts (an acquire may only be in the cut if the matching release
/// is) and lets queries reconstruct the sync schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SyncPoint {
    /// The synchronization object involved.
    pub object: SyncObjectId,
    /// Whether the thread released or acquired the object.
    pub kind: SyncKind,
}

/// A sub-computation `L_t[α]`: everything one thread executed between two
/// successive synchronization operations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubComputation {
    /// Identifier (thread, α).
    pub id: SubId,
    /// Vector clock assigned when the sub-computation started; defines its
    /// position in the happens-before partial order.
    pub clock: VectorClock,
    /// Pages read (first-touch, page granularity).
    pub read_set: BTreeSet<PageId>,
    /// Pages written (first-touch, page granularity).
    pub write_set: BTreeSet<PageId>,
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
            read_set: BTreeSet::new(),
            write_set: BTreeSet::new(),
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
        self.read_set.intersection(&self.write_set).copied()
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

    /// Total number of distinct pages touched.
    pub fn footprint_pages(&self) -> usize {
        self.read_set.union(&self.write_set).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ThreadId;

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
        assert_eq!(s.footprint_pages(), 1);
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

    #[test]
    fn footprint_counts_union() {
        let mut s = sub(0, 0, &[]);
        s.record_read(PageId::new(1));
        s.record_read(PageId::new(2));
        s.record_write(PageId::new(2));
        s.record_write(PageId::new(3));
        assert_eq!(s.footprint_pages(), 3);
    }
}
