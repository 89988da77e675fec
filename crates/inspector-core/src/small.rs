//! The one small-vector type behind page sets and vector clocks.
//!
//! A sub-computation closes at every synchronization operation, so the
//! runtime builds, ships, indexes and stores one per boundary — ~100 k of
//! them in a `reverse_index` run. Counted over the 12 workloads, 200 047 of
//! 200 092 page sets hold at most two pages and every clock but `kmeans`'s
//! (21 threads) and a few of `pca`'s has at most four components. Keeping
//! up to `N` elements inside the value itself takes the allocator off that
//! path: building, cloning and dropping a small set or clock touches no
//! heap, and a node drags no separately allocated blocks behind it for a
//! worker on another core to read and free.
//!
//! `SmallVec` holds elements **in order, as pushed**; whatever condition a
//! user keeps among them (sorted and deduplicated for `PageSet`, dense by
//! thread index for `VectorClock`) is the user's. Two things are the type's
//! own:
//!
//! * **Contents, never representation.** A vector that outgrew `N` moves to
//!   the heap and stays there even if it shrinks again, so equal contents
//!   can sit in either form. Equality, hashing and `Debug` all go through
//!   `as_slice` and cannot tell the forms apart.
//! * **Safe code only.** The inline form is a full `[T; N]` plus a length;
//!   the slots past the length hold stale copies nobody can reach. That
//!   costs `T: Copy + Default` and buys a type with no `unsafe`.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// A vector that stores up to `N` elements inline and moves to the heap
/// beyond that. See the module docs.
#[derive(Clone)]
pub(crate) struct SmallVec<T, const N: usize>(Repr<T, N>);

#[derive(Clone)]
enum Repr<T, const N: usize> {
    /// `items[..len]` are the elements. `len` is a `u8` so that it shares
    /// a word with the enum's tag: 40 bytes for four 8-byte elements, where
    /// a `usize` would make it 48.
    Inline {
        len: u8,
        items: [T; N],
    },
    Heap(Vec<T>),
}

impl<T: Copy + Default, const N: usize> SmallVec<T, N> {
    /// `len` is a `u8`.
    const FITS: () = assert!(N <= u8::MAX as usize);

    /// Creates an empty vector (inline, no allocation).
    pub(crate) fn new() -> Self {
        let () = Self::FITS;
        SmallVec(Repr::Inline {
            len: 0,
            items: [T::default(); N],
        })
    }

    /// Creates an empty vector with room for `capacity` elements: inline
    /// when they fit, one exact heap allocation otherwise.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        if capacity <= N {
            Self::new()
        } else {
            SmallVec(Repr::Heap(Vec::with_capacity(capacity)))
        }
    }

    /// The elements, in order.
    pub(crate) fn as_slice(&self) -> &[T] {
        match &self.0 {
            Repr::Inline { len, items } => &items[..usize::from(*len)],
            Repr::Heap(items) => items,
        }
    }

    /// The elements, in order, mutably.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Inline { len, items } => &mut items[..usize::from(*len)],
            Repr::Heap(items) => items,
        }
    }

    /// Appends `value`.
    pub(crate) fn push(&mut self, value: T) {
        let at = self.len();
        self.insert(at, value);
    }

    /// Inserts `value` at `index`, shifting everything after it up.
    ///
    /// # Panics
    ///
    /// Panics if `index > len`.
    pub(crate) fn insert(&mut self, index: usize, value: T) {
        match &mut self.0 {
            Repr::Inline { len, items } if usize::from(*len) < N => {
                let old = usize::from(*len);
                assert!(index <= old, "insertion index {index} out of {old}");
                items.copy_within(index..old, index + 1);
                items[index] = value;
                *len += 1;
            }
            Repr::Inline { items, .. } => {
                let mut spilled = Vec::with_capacity(2 * N);
                spilled.extend_from_slice(items);
                spilled.insert(index, value);
                self.0 = Repr::Heap(spilled);
            }
            Repr::Heap(items) => items.insert(index, value),
        }
    }

    /// Shortens the vector to `len` elements; no effect if it is shorter.
    pub(crate) fn truncate(&mut self, len: usize) {
        match &mut self.0 {
            Repr::Inline { len: old, .. } => *old = (*old).min(len.min(N) as u8),
            Repr::Heap(items) => items.truncate(len),
        }
    }

    /// Grows the vector to `len` elements by appending copies of `value`;
    /// no effect if it is already that long.
    pub(crate) fn grow_to(&mut self, len: usize, value: T) {
        let old = self.len();
        if len <= old {
            return;
        }
        match &mut self.0 {
            Repr::Inline { len: inline, items } if len <= N => {
                items[old..len].fill(value);
                *inline = len as u8;
            }
            Repr::Inline { items, .. } => {
                let mut spilled = Vec::with_capacity(len);
                spilled.extend_from_slice(&items[..old]);
                spilled.resize(len, value);
                self.0 = Repr::Heap(spilled);
            }
            Repr::Heap(items) => items.resize(len, value),
        }
    }

    /// `true` while the elements live inside the value.
    #[cfg(test)]
    pub(crate) fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }
}

impl<T: Copy + Default, const N: usize> Default for SmallVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default, const N: usize> Deref for SmallVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default, const N: usize> DerefMut for SmallVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for SmallVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for SmallVec<T, N> {}

impl<T: Copy + Default + Hash, const N: usize> Hash for SmallVec<T, N> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for SmallVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// The `DefaultHasher` digest of `value`, for the "equal contents hash
/// alike" checks of this module's users.
#[cfg(test)]
pub(crate) fn hash_of(value: &impl Hash) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    type Small = SmallVec<u64, 4>;

    #[test]
    fn stays_inline_up_to_n_and_spills_beyond() {
        let mut v = Small::new();
        for i in 0..4 {
            v.push(i);
            assert!(v.is_inline());
        }
        v.push(4);
        assert!(!v.is_inline());
        assert_eq!(v.as_slice(), &[0, 1, 2, 3, 4]);
        // A spilled vector never moves back.
        v.truncate(2);
        assert!(!v.is_inline());
        assert_eq!(v.as_slice(), &[0, 1]);
    }

    #[test]
    fn the_inline_length_costs_no_extra_word() {
        assert_eq!(std::mem::size_of::<Small>(), 8 + 4 * 8);
    }

    #[test]
    fn with_capacity_picks_the_form_by_size() {
        assert!(Small::with_capacity(4).is_inline());
        assert!(!Small::with_capacity(5).is_inline());
        assert!(Small::with_capacity(5).is_empty());
    }

    #[test]
    fn equal_contents_are_equal_in_either_form() {
        let mut inline = Small::new();
        let mut spilled = Small::with_capacity(9);
        for i in [7, 1, 7] {
            inline.push(i);
            spilled.push(i);
        }
        assert!(inline.is_inline() && !spilled.is_inline());
        assert_eq!(inline, spilled);
        assert_eq!(hash_of(&inline), hash_of(&spilled));
        assert_eq!(format!("{inline:?}"), format!("{spilled:?}"));
        spilled.push(0);
        assert_ne!(inline, spilled);
    }

    #[test]
    #[should_panic(expected = "insertion index")]
    fn inline_insert_past_the_end_panics_like_vec() {
        let mut v = Small::new();
        v.push(1);
        v.insert(2, 9);
    }

    proptest! {
        /// Every operation leaves the same contents a `Vec` would hold,
        /// across the inline → heap move.
        #[test]
        fn prop_matches_vec_model(
            ops in proptest::collection::vec(0u8..4, 0..40),
            values in proptest::collection::vec(any::<u64>(), 40),
            positions in proptest::collection::vec(0usize..12, 40),
        ) {
            let mut small = Small::new();
            let mut model: Vec<u64> = Vec::new();
            for ((op, value), at) in ops.into_iter().zip(values).zip(positions) {
                match op {
                    0 => {
                        small.push(value);
                        model.push(value);
                    }
                    1 => {
                        let at = at % (model.len() + 1);
                        small.insert(at, value);
                        model.insert(at, value);
                    }
                    2 => {
                        small.truncate(at);
                        model.truncate(at);
                    }
                    _ => {
                        small.grow_to(at, value);
                        if at > model.len() {
                            model.resize(at, value);
                        }
                    }
                }
                prop_assert_eq!(small.as_slice(), model.as_slice());
                prop_assert_eq!(small.len(), model.len());
            }
            if let Some(first) = small.as_mut_slice().first_mut() {
                *first = 42;
                prop_assert_eq!(small[0], 42);
            }
        }
    }
}
