//! Strongly-typed identifiers used throughout the provenance model.
//!
//! All identifiers are small `Copy` newtypes so they can be used as map keys
//! and stored in edge lists without allocation.

use std::fmt;

/// Identifier of a logical application thread.
///
/// INSPECTOR implements threads as separate processes, but at the provenance
/// level every worker is still identified by the dense index it was assigned
/// at `pthread_create` time (the main thread is thread `0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(u32);

impl ThreadId {
    /// Creates a thread identifier from its dense index.
    pub const fn new(index: u32) -> Self {
        ThreadId(index)
    }

    /// Returns the dense index of this thread.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl From<u32> for ThreadId {
    fn from(value: u32) -> Self {
        ThreadId(value)
    }
}

/// Identifier of a sub-computation: the sequence of instructions executed by
/// one thread between two successive synchronization operations.
///
/// A sub-computation is addressed by its owning thread and the value of the
/// thread-local sub-computation counter `α` at the time it started
/// (`L_t[α]` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubId {
    /// Thread that executed the sub-computation.
    pub thread: ThreadId,
    /// Position `α` in the thread's execution sequence `L_t`.
    pub alpha: u64,
}

impl SubId {
    /// Creates a sub-computation identifier.
    pub const fn new(thread: ThreadId, alpha: u64) -> Self {
        SubId { thread, alpha }
    }

    /// The sub-computation that follows this one on the same thread.
    pub const fn next(self) -> Self {
        SubId {
            thread: self.thread,
            alpha: self.alpha + 1,
        }
    }
}

impl fmt::Display for SubId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.thread, self.alpha)
    }
}

/// Identifier of a thunk: the sequence of instructions between two successive
/// branches inside a sub-computation (`L_t[α].Δ[β]` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThunkId {
    /// Sub-computation that contains the thunk.
    pub sub: SubId,
    /// Position `β` of the thunk inside the sub-computation.
    pub beta: u64,
}

impl ThunkId {
    /// Creates a thunk identifier.
    pub const fn new(sub: SubId, beta: u64) -> Self {
        ThunkId { sub, beta }
    }
}

impl fmt::Display for ThunkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.sub, self.beta)
    }
}

/// Identifier of a synchronization object (mutex, condition variable,
/// semaphore, barrier, thread join handle, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SyncObjectId(u64);

impl SyncObjectId {
    /// Creates a synchronization-object identifier from a raw value
    /// (typically the address of the object or a dense counter).
    pub const fn new(raw: u64) -> Self {
        SyncObjectId(raw)
    }

    /// Returns the raw value of the identifier.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for SyncObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{:#x}", self.0)
    }
}

/// Identifier of a virtual memory page.
///
/// INSPECTOR tracks read and write sets at page granularity: this is the page
/// *number*, i.e. the virtual address divided by the page size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
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
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{:#x}", self.0)
    }
}

impl From<u64> for PageId {
    fn from(value: u64) -> Self {
        PageId(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_id_roundtrip() {
        let t = ThreadId::new(7);
        assert_eq!(t.index(), 7);
        assert_eq!(t.to_string(), "T7");
        assert_eq!(ThreadId::from(7u32), t);
    }

    #[test]
    fn sub_id_ordering_follows_alpha_within_thread() {
        let t = ThreadId::new(1);
        let a = SubId::new(t, 0);
        let b = a.next();
        assert!(a < b);
        assert_eq!(b.alpha, 1);
        assert_eq!(b.thread, t);
    }

    #[test]
    fn sub_id_display_matches_paper_notation() {
        let s = SubId::new(ThreadId::new(2), 3);
        assert_eq!(s.to_string(), "T2.3");
        let th = ThunkId::new(s, 5);
        assert_eq!(th.to_string(), "T2.3#5");
    }

    #[test]
    fn sync_object_id_preserves_raw_value() {
        let s = SyncObjectId::new(0xdead_beef);
        assert_eq!(s.raw(), 0xdead_beef);
    }

    #[test]
    fn page_id_preserves_number() {
        let p = PageId::new(42);
        assert_eq!(p.number(), 42);
        assert_eq!(PageId::from(42u64), p);
    }
}
