//! Vector clocks and the happens-before partial order.
//!
//! INSPECTOR derives control and synchronization edges by happens-before
//! ordering of sub-computations (paper §IV-B). Each thread, each
//! synchronization object, and each sub-computation carries a vector clock;
//! the clock of a synchronization object acts as the propagation medium from
//! the releasing thread to the acquiring thread.
//!
//! A clock is copied at every synchronization boundary (the thread clock
//! stamps the next sub-computation) and several more times per ingest (the
//! release index, the page-write index, the published frontier), so its
//! components live in the crate's inline small vector (`small.rs`):
//! with up to four components — every clock of 10 of the 12
//! workloads — a copy is a 40-byte move and no clock operation allocates.

use std::cmp::Ordering;
use std::fmt;

use crate::ids::ThreadId;
use crate::small::SmallVec;

/// Components a [`VectorClock`] holds before it moves to the heap.
const INLINE_THREADS: usize = 4;

/// A grow-on-demand vector clock.
///
/// Entries are indexed by [`ThreadId`]; missing entries are implicitly zero,
/// which lets the clock work with programs that create threads dynamically
/// (e.g. the `kmeans` workload creates several hundred threads).
///
/// Equality and hashing compare the stored components (trailing zeros
/// included, as before), never whether they sit inline or on the heap.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct VectorClock {
    entries: SmallVec<u64, INLINE_THREADS>,
}

impl VectorClock {
    /// Creates an all-zero clock.
    pub fn new() -> Self {
        VectorClock::default()
    }

    /// Creates an all-zero clock with space reserved for `threads` entries.
    pub fn with_capacity(threads: usize) -> Self {
        VectorClock {
            entries: SmallVec::with_capacity(threads),
        }
    }

    /// Returns the component for `thread` (zero if never set).
    pub fn get(&self, thread: ThreadId) -> u64 {
        self.entries.get(thread.index()).copied().unwrap_or(0)
    }

    /// Sets the component for `thread` to `value`.
    pub fn set(&mut self, thread: ThreadId, value: u64) {
        let idx = thread.index();
        self.entries.grow_to(idx + 1, 0);
        self.entries[idx] = value;
    }

    /// Increments the component for `thread` by one and returns the new value.
    pub fn tick(&mut self, thread: ThreadId) -> u64 {
        let next = self.get(thread) + 1;
        self.set(thread, next);
        next
    }

    /// Merges `other` into `self`, taking the component-wise maximum.
    ///
    /// This is the `C[i] ← max(C[i], C'[i])` step used both on release (thread
    /// clock into synchronization clock) and on acquire (synchronization clock
    /// into thread clock).
    pub fn join(&mut self, other: &VectorClock) {
        self.entries.grow_to(other.entries.len(), 0);
        for (mine, &theirs) in self.entries.iter_mut().zip(other.entries.iter()) {
            if theirs > *mine {
                *mine = theirs;
            }
        }
    }

    /// Returns a new clock that is the component-wise maximum of `self` and
    /// `other` without mutating either.
    pub fn joined(&self, other: &VectorClock) -> VectorClock {
        let mut out = self.clone();
        out.join(other);
        out
    }

    /// Lowers `self` to the component-wise minimum of `self` and `other`
    /// (the lattice meet), treating missing entries as zero on both sides.
    ///
    /// Used by the streaming builder's index GC: the meet over every
    /// thread's published clock is a lower bound on the clock of any
    /// sub-computation that can still query the release / page-write
    /// indexes, so index entries superseded below the meet are dead.
    pub fn floor(&mut self, other: &VectorClock) {
        self.entries.truncate(other.entries.len());
        for (mine, &theirs) in self.entries.iter_mut().zip(other.entries.iter()) {
            if theirs < *mine {
                *mine = theirs;
            }
        }
    }

    /// Lowers `self` by the *nonzero* components of `other` only.
    ///
    /// A zero component of `other` means "this clock never observed that
    /// thread" — such a clock can never select one of that thread's index
    /// entries, so (unlike [`floor`](Self::floor)) it must not drag the
    /// bound for that thread to zero. Used for parked entries when the GC
    /// computes its reference floor.
    pub fn floor_nonzero(&mut self, other: &VectorClock) {
        for (t, k) in other.iter() {
            let idx = t.index();
            if idx < self.entries.len() && k < self.entries[idx] {
                self.entries[idx] = k;
            }
        }
    }

    /// Number of non-trailing-zero components stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if every stored component is zero.
    pub fn is_empty(&self) -> bool {
        self.entries.iter().all(|&v| v == 0)
    }

    /// Compares two clocks under the happens-before partial order.
    ///
    /// Returns `Some(Ordering::Less)` when `self` happens-before `other`,
    /// `Some(Ordering::Greater)` for the converse, `Some(Ordering::Equal)` for
    /// identical clocks and `None` when the clocks are concurrent.
    pub fn partial_cmp_hb(&self, other: &VectorClock) -> Option<Ordering> {
        let (mine, theirs) = (self.entries.as_slice(), other.entries.as_slice());
        let shared = mine.len().min(theirs.len());
        // Past the shorter clock, the other side's components meet zeros.
        let mut less = theirs[shared..].iter().any(|&v| v != 0);
        let mut greater = mine[shared..].iter().any(|&v| v != 0);
        for (&a, &b) in mine[..shared].iter().zip(&theirs[..shared]) {
            less |= a < b;
            greater |= a > b;
            if less && greater {
                return None;
            }
        }
        match (less, greater) {
            (false, false) => Some(Ordering::Equal),
            (true, false) => Some(Ordering::Less),
            (false, true) => Some(Ordering::Greater),
            (true, true) => None,
        }
    }

    /// Returns `true` if `self` strictly happens-before `other`.
    pub fn happens_before(&self, other: &VectorClock) -> bool {
        matches!(self.partial_cmp_hb(other), Some(Ordering::Less))
    }

    /// Returns `true` if the two clocks are concurrent (neither ordered).
    pub fn concurrent_with(&self, other: &VectorClock) -> bool {
        self.partial_cmp_hb(other).is_none()
    }

    /// Iterates over `(ThreadId, value)` pairs with non-zero values.
    pub fn iter(&self) -> impl Iterator<Item = (ThreadId, u64)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != 0)
            .map(|(i, &v)| (ThreadId::new(i as u32), v))
    }
}

impl fmt::Debug for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VectorClock")
            .field("entries", &self.entries)
            .finish()
    }
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, v) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "⟩")
    }
}

impl FromIterator<(ThreadId, u64)> for VectorClock {
    fn from_iter<I: IntoIterator<Item = (ThreadId, u64)>>(iter: I) -> Self {
        let mut clock = VectorClock::new();
        for (t, v) in iter {
            clock.set(t, v);
        }
        clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::small::hash_of;
    use proptest::prelude::*;

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }

    /// The clock as it was before its components moved into the small
    /// vector: a plain `Vec<u64>` and the operations written against it.
    #[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
    struct ModelClock(Vec<u64>);

    impl ModelClock {
        fn get(&self, i: usize) -> u64 {
            self.0.get(i).copied().unwrap_or(0)
        }

        fn set(&mut self, i: usize, value: u64) {
            if i >= self.0.len() {
                self.0.resize(i + 1, 0);
            }
            self.0[i] = value;
        }

        fn join(&mut self, other: &ModelClock) {
            for (i, &v) in other.0.iter().enumerate() {
                if v > self.get(i) {
                    self.set(i, v);
                }
            }
            if other.0.len() > self.0.len() {
                self.0.resize(other.0.len(), 0);
            }
        }

        fn floor(&mut self, other: &ModelClock) {
            self.0.truncate(other.0.len());
            for (i, v) in self.0.iter_mut().enumerate() {
                *v = (*v).min(other.0[i]);
            }
        }

        fn floor_nonzero(&mut self, other: &ModelClock) {
            for (i, &k) in other.0.iter().enumerate() {
                if k != 0 && i < self.0.len() && k < self.0[i] {
                    self.0[i] = k;
                }
            }
        }

        fn partial_cmp_hb(&self, other: &ModelClock) -> Option<Ordering> {
            let n = self.0.len().max(other.0.len());
            let less = (0..n).any(|i| self.get(i) < other.get(i));
            let greater = (0..n).any(|i| self.get(i) > other.get(i));
            match (less, greater) {
                (false, false) => Some(Ordering::Equal),
                (true, false) => Some(Ordering::Less),
                (false, true) => Some(Ordering::Greater),
                (true, true) => None,
            }
        }
    }

    proptest! {
        /// Two clocks driven through random `set` / `tick` / `join` /
        /// `floor` / `floor_nonzero` sequences, with thread ids up to
        /// `kmeans` size so components cross the inline → heap boundary and
        /// `floor` shrinks spilled clocks back below it, stay equal to the
        /// `Vec<u64>` model component for component.
        #[test]
        fn prop_clock_matches_vec_model(
            ops in proptest::collection::vec(0u8..6, 0..48),
            threads in proptest::collection::vec(0u32..24, 48),
            values in proptest::collection::vec(0u64..6, 48),
        ) {
            let mut clocks = [VectorClock::new(), VectorClock::new()];
            let mut models = [ModelClock::default(), ModelClock::default()];
            for (step, ((op, thread), value)) in
                ops.into_iter().zip(threads).zip(values).enumerate()
            {
                let (a, b) = (step % 2, 1 - step % 2);
                let other = clocks[b].clone();
                match op {
                    0 | 1 => {
                        clocks[a].set(t(thread), value);
                        models[a].set(thread as usize, value);
                    }
                    2 => {
                        let next = clocks[a].tick(t(thread));
                        let expected = models[a].get(thread as usize) + 1;
                        models[a].set(thread as usize, expected);
                        prop_assert_eq!(next, expected);
                    }
                    3 => {
                        prop_assert_eq!(clocks[a].joined(&other).entries.to_vec(), {
                            let mut joined = models[a].clone();
                            joined.join(&models[b]);
                            joined.0
                        });
                        clocks[a].join(&other);
                        let theirs = models[b].clone();
                        models[a].join(&theirs);
                    }
                    4 => {
                        clocks[a].floor(&other);
                        let theirs = models[b].clone();
                        models[a].floor(&theirs);
                    }
                    _ => {
                        clocks[a].floor_nonzero(&other);
                        let theirs = models[b].clone();
                        models[a].floor_nonzero(&theirs);
                    }
                }
                for (clock, model) in clocks.iter().zip(&models) {
                    prop_assert_eq!(clock.entries.to_vec(), model.0.clone());
                    prop_assert_eq!(clock.len(), model.0.len());
                    prop_assert_eq!(clock.is_empty(), model.0.iter().all(|&v| v == 0));
                    prop_assert_eq!(clock.get(t(thread)), model.get(thread as usize));
                    prop_assert_eq!(
                        clock.iter().collect::<Vec<_>>(),
                        model.0.iter().enumerate().filter(|(_, &v)| v != 0)
                            .map(|(i, &v)| (t(i as u32), v)).collect::<Vec<_>>()
                    );
                }
                prop_assert_eq!(
                    clocks[0].partial_cmp_hb(&clocks[1]),
                    models[0].partial_cmp_hb(&models[1])
                );
                prop_assert_eq!(
                    clocks[0].happens_before(&clocks[1]),
                    models[0].partial_cmp_hb(&models[1]) == Some(Ordering::Less)
                );
                // `==` and `Hash` follow the stored components whatever the
                // two clocks' storage: equal exactly when the models are,
                // and equal clocks hash alike.
                prop_assert_eq!(clocks[0] == clocks[1], models[0] == models[1]);
                let rebuilt: VectorClock = {
                    let mut c = VectorClock::with_capacity(models[a].0.len());
                    for (i, &v) in models[a].0.iter().enumerate() {
                        c.set(t(i as u32), v);
                    }
                    c
                };
                prop_assert_eq!(&rebuilt, &clocks[a]);
                prop_assert_eq!(hash_of(&rebuilt), hash_of(&clocks[a]));
                prop_assert_eq!(format!("{rebuilt:?}"), format!("{:?}", clocks[a]));
            }
        }
    }

    #[test]
    fn small_clocks_stay_inline_and_wide_ones_spill() {
        let mut c = VectorClock::new();
        c.set(t(3), 1);
        assert!(c.entries.is_inline());
        assert!(c.clone().entries.is_inline());
        c.set(t(4), 1);
        assert!(!c.entries.is_inline());
        assert!(VectorClock::with_capacity(4).entries.is_inline());
        assert!(!VectorClock::with_capacity(21).entries.is_inline());
        assert_eq!(
            format!("{:?}", VectorClock::new()),
            "VectorClock { entries: [] }"
        );
    }

    #[test]
    fn new_clock_is_zero() {
        let c = VectorClock::new();
        assert!(c.is_empty());
        assert_eq!(c.get(t(5)), 0);
    }

    #[test]
    fn tick_and_get() {
        let mut c = VectorClock::new();
        assert_eq!(c.tick(t(2)), 1);
        assert_eq!(c.tick(t(2)), 2);
        assert_eq!(c.get(t(2)), 2);
        assert_eq!(c.get(t(0)), 0);
    }

    #[test]
    fn join_takes_componentwise_maximum() {
        let mut a = VectorClock::new();
        a.set(t(0), 3);
        a.set(t(1), 1);
        let mut b = VectorClock::new();
        b.set(t(1), 5);
        b.set(t(2), 2);
        a.join(&b);
        assert_eq!(a.get(t(0)), 3);
        assert_eq!(a.get(t(1)), 5);
        assert_eq!(a.get(t(2)), 2);
    }

    #[test]
    fn happens_before_is_strict() {
        let mut a = VectorClock::new();
        a.set(t(0), 1);
        let mut b = a.clone();
        b.set(t(1), 1);
        assert!(a.happens_before(&b));
        assert!(!b.happens_before(&a));
        assert!(!a.happens_before(&a));
        assert_eq!(a.partial_cmp_hb(&a), Some(Ordering::Equal));
    }

    #[test]
    fn concurrent_clocks_are_unordered() {
        let mut a = VectorClock::new();
        a.set(t(0), 1);
        let mut b = VectorClock::new();
        b.set(t(1), 1);
        assert!(a.concurrent_with(&b));
        assert!(b.concurrent_with(&a));
        assert_eq!(a.partial_cmp_hb(&b), None);
    }

    #[test]
    fn release_acquire_transfers_causality() {
        // Thread 0 releases S, thread 1 acquires S: afterwards thread 0's
        // pre-release sub-computations happen-before thread 1's post-acquire
        // sub-computations (paper Algorithm 2, onSynchronization).
        let mut c0 = VectorClock::new();
        c0.set(t(0), 4);
        let sub_before_release = c0.clone();

        let mut s = VectorClock::new();
        s.join(&c0); // release(S)

        let mut c1 = VectorClock::new();
        c1.set(t(1), 7);
        c1.join(&s); // acquire(S)
        c1.set(t(1), 8); // next sub-computation on thread 1

        assert!(sub_before_release.happens_before(&c1));
    }

    #[test]
    fn display_and_iter() {
        let mut c = VectorClock::new();
        c.set(t(0), 1);
        c.set(t(2), 3);
        assert_eq!(c.to_string(), "⟨1,0,3⟩");
        let pairs: Vec<_> = c.iter().collect();
        assert_eq!(pairs, vec![(t(0), 1), (t(2), 3)]);
    }

    #[test]
    fn from_iterator_builds_clock() {
        let c: VectorClock = vec![(t(1), 2), (t(3), 4)].into_iter().collect();
        assert_eq!(c.get(t(1)), 2);
        assert_eq!(c.get(t(3)), 4);
        assert_eq!(c.get(t(0)), 0);
    }

    #[test]
    fn floor_takes_componentwise_minimum_with_implicit_zeros() {
        let mut a: VectorClock = vec![(t(0), 3), (t(1), 5), (t(2), 2)].into_iter().collect();
        let b: VectorClock = vec![(t(0), 4), (t(1), 1)].into_iter().collect();
        a.floor(&b);
        assert_eq!(a.get(t(0)), 3);
        assert_eq!(a.get(t(1)), 1);
        // b's missing component is implicitly zero and wins the minimum.
        assert_eq!(a.get(t(2)), 0);
    }

    #[test]
    fn floor_nonzero_ignores_unobserved_components() {
        let mut a: VectorClock = vec![(t(0), 3), (t(1), 5)].into_iter().collect();
        let b: VectorClock = vec![(t(1), 2)].into_iter().collect();
        a.floor_nonzero(&b);
        // t(0) untouched: b never observed thread 0.
        assert_eq!(a.get(t(0)), 3);
        assert_eq!(a.get(t(1)), 2);
        // Components beyond a's width stay implicitly zero.
        let c: VectorClock = vec![(t(7), 9)].into_iter().collect();
        a.floor_nonzero(&c);
        assert_eq!(a.get(t(7)), 0);
    }

    #[test]
    fn joined_does_not_mutate_inputs() {
        let mut a = VectorClock::new();
        a.set(t(0), 1);
        let mut b = VectorClock::new();
        b.set(t(1), 2);
        let j = a.joined(&b);
        assert_eq!(j.get(t(0)), 1);
        assert_eq!(j.get(t(1)), 2);
        assert_eq!(a.get(t(1)), 0);
        assert_eq!(b.get(t(0)), 0);
    }
}
