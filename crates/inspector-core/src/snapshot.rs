//! Consistent-cut snapshots of the CPG (paper §VI).
//!
//! For long-running programs the provenance log grows without bound, so
//! INSPECTOR lets the user analyse provenance *while the program runs*: the
//! library periodically takes a consistent cut of the CPG and stores it in a
//! bounded ring of snapshot slots, mirroring the perf snapshot mode built on
//! `SIGUSR2`.
//!
//! A cut is consistent if, for every synchronization object `S`, whenever an
//! *acquire(S)* is included in the cut the matching *release(S)* is included
//! as well (Chandy–Lamport). We obtain this by cutting each thread at its
//! latest recorded synchronization event and then shrinking the cut until the
//! closure property holds.

use std::collections::BTreeMap;

use crate::graph::{Cpg, CpgBuilder};
use crate::ids::ThreadId;
use crate::subcomputation::SubComputation;

/// A consistent prefix of every thread's execution sequence.
#[derive(Debug, Clone, Default)]
pub struct ConsistentCut {
    /// For each thread, how many completed sub-computations are included.
    pub frontier: BTreeMap<ThreadId, usize>,
}

impl ConsistentCut {
    /// Total number of sub-computations included in the cut.
    pub fn len(&self) -> usize {
        self.frontier.values().sum()
    }

    /// Returns `true` if the cut contains no sub-computation.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Computes a consistent cut from the per-thread sequences of *completed*
/// sub-computations.
///
/// The initial frontier takes every completed sub-computation of every
/// thread (i.e. each thread is cut at its latest synchronization event).
/// The frontier is then shrunk to the largest downward-closed set under
/// happens-before: a sub-computation may stay in the cut only if every
/// sub-computation it causally depends on (as witnessed by its vector clock)
/// is in the cut as well. Because acquires are the only way causality enters
/// a thread, this is exactly the "acquire implies matching release" property
/// from the paper.
pub fn consistent_cut(sequences: &BTreeMap<ThreadId, &[SubComputation]>) -> ConsistentCut {
    let mut frontier: BTreeMap<ThreadId, usize> =
        sequences.iter().map(|(&t, seq)| (t, seq.len())).collect();

    // A sub-computation of thread `t` whose clock component for thread `u`
    // is `k > 0` causally depends on `u`'s sub-computations with α < k
    // (the recorder stores α + 1 in the owner component), so the cut must
    // include at least `k` of `u`'s sub-computations. Shrink the violating
    // thread's frontier until a fixed point is reached.
    loop {
        let mut changed = false;
        for (&thread, seq) in sequences {
            let limit = frontier[&thread];
            for idx in 0..limit {
                let sub = &seq[idx];
                let violated = sub.clock.iter().any(|(u, k)| {
                    u != thread && frontier.get(&u).copied().unwrap_or(0) < k as usize
                });
                if violated {
                    frontier.insert(thread, idx);
                    changed = true;
                    break;
                }
            }
        }
        if !changed {
            break;
        }
    }

    ConsistentCut { frontier }
}

/// A snapshot: the CPG restricted to a consistent cut, plus the cut itself.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Monotonically increasing snapshot sequence number.
    pub sequence: u64,
    /// The cut this snapshot corresponds to.
    pub cut: ConsistentCut,
    /// The provenance graph over the cut.
    pub cpg: Cpg,
}

/// A bounded ring of snapshots, mirroring the perf snapshot-mode ring buffer
/// with a configurable number of slots (paper §VI: 4 MB slots; here the unit
/// is "one snapshot").
#[derive(Debug)]
pub struct SnapshotRing {
    slots: Vec<Option<Snapshot>>,
    next_sequence: u64,
    taken: u64,
    overwritten: u64,
}

impl SnapshotRing {
    /// Creates a ring with `slots` snapshot slots.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    pub fn new(slots: usize) -> Self {
        assert!(slots > 0, "snapshot ring needs at least one slot");
        SnapshotRing {
            slots: vec![None; slots],
            next_sequence: 0,
            taken: 0,
            overwritten: 0,
        }
    }

    /// Number of slots in the ring.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of snapshots currently stored.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Returns `true` if no snapshot is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of snapshots that were overwritten before being consumed.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Takes a snapshot from the threads' completed sub-computation
    /// sequences and stores it in the ring, overwriting the oldest slot if
    /// the ring is full (the "reuse slots" behaviour from §VI).
    pub fn take_snapshot(
        &mut self,
        sequences: &BTreeMap<ThreadId, &[SubComputation]>,
    ) -> &Snapshot {
        let cut = consistent_cut(sequences);
        let mut builder = CpgBuilder::new();
        for (&thread, seq) in sequences {
            let limit = cut.frontier.get(&thread).copied().unwrap_or(0);
            builder.add_thread(seq[..limit].to_vec());
        }
        let snapshot = Snapshot {
            sequence: self.next_sequence,
            cut,
            cpg: builder.build(),
        };
        let slot = (self.next_sequence as usize) % self.slots.len();
        if self.slots[slot].is_some() {
            self.overwritten += 1;
        }
        self.slots[slot] = Some(snapshot);
        self.next_sequence += 1;
        self.taken += 1;
        self.slots[slot].as_ref().expect("just stored")
    }

    /// The most recent snapshot, if any.
    pub fn latest(&self) -> Option<&Snapshot> {
        self.slots.iter().flatten().max_by_key(|s| s.sequence)
    }

    /// Removes and returns the oldest stored snapshot (the "user consumed the
    /// slot" operation that frees it for reuse).
    pub fn consume_oldest(&mut self) -> Option<Snapshot> {
        let idx = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|s| (i, s.sequence)))
            .min_by_key(|&(_, seq)| seq)
            .map(|(i, _)| i)?;
        self.slots[idx].take()
    }

    /// Iterates over stored snapshots in sequence order.
    pub fn iter(&self) -> impl Iterator<Item = &Snapshot> {
        let mut v: Vec<&Snapshot> = self.slots.iter().flatten().collect();
        v.sort_by_key(|s| s.sequence);
        v.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AccessKind, SyncKind};
    use crate::ids::{PageId, SyncObjectId};
    use crate::recorder::{SyncClockRegistry, ThreadRecorder};
    use std::sync::Arc;

    fn sequences_for_test() -> (Vec<SubComputation>, Vec<SubComputation>) {
        let reg = SyncClockRegistry::shared();
        let s = SyncObjectId::new(1);

        let mut t0 = ThreadRecorder::new(ThreadId::new(0), Arc::clone(&reg));
        t0.on_memory_access(PageId::new(1), AccessKind::Write);
        t0.on_synchronization(s, SyncKind::Release);
        t0.on_memory_access(PageId::new(2), AccessKind::Write);

        let mut t1 = ThreadRecorder::new(ThreadId::new(1), Arc::clone(&reg));
        t1.on_synchronization(s, SyncKind::Acquire);
        t1.on_memory_access(PageId::new(1), AccessKind::Read);

        (t0.finish(), t1.finish())
    }

    #[test]
    fn full_sequences_form_consistent_cut() {
        let (l0, l1) = sequences_for_test();
        let mut map: BTreeMap<ThreadId, &[SubComputation]> = BTreeMap::new();
        map.insert(ThreadId::new(0), &l0);
        map.insert(ThreadId::new(1), &l1);
        let cut = consistent_cut(&map);
        assert_eq!(cut.frontier[&ThreadId::new(0)], l0.len());
        assert_eq!(cut.frontier[&ThreadId::new(1)], l1.len());
        assert!(!cut.is_empty());
    }

    #[test]
    fn acquire_without_included_release_is_cut_away() {
        let (l0, l1) = sequences_for_test();
        // Only expose thread 1's sequence (which starts with an acquire whose
        // matching release lives on thread 0): the cut must truncate thread 1
        // to before the post-acquire sub-computation.
        let empty: Vec<SubComputation> = Vec::new();
        let mut map: BTreeMap<ThreadId, &[SubComputation]> = BTreeMap::new();
        map.insert(ThreadId::new(0), &empty[..]);
        map.insert(ThreadId::new(1), &l1);
        let cut = consistent_cut(&map);
        assert!(cut.frontier[&ThreadId::new(1)] <= 1);
        let _ = l0;
    }

    #[test]
    fn snapshot_ring_overwrites_oldest() {
        let (l0, l1) = sequences_for_test();
        let mut map: BTreeMap<ThreadId, &[SubComputation]> = BTreeMap::new();
        map.insert(ThreadId::new(0), &l0);
        map.insert(ThreadId::new(1), &l1);

        let mut ring = SnapshotRing::new(2);
        ring.take_snapshot(&map);
        ring.take_snapshot(&map);
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.overwritten(), 0);
        ring.take_snapshot(&map);
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.overwritten(), 1);
        assert_eq!(ring.latest().unwrap().sequence, 2);
    }

    #[test]
    fn consume_oldest_frees_slot() {
        let (l0, l1) = sequences_for_test();
        let mut map: BTreeMap<ThreadId, &[SubComputation]> = BTreeMap::new();
        map.insert(ThreadId::new(0), &l0);
        map.insert(ThreadId::new(1), &l1);

        let mut ring = SnapshotRing::new(2);
        ring.take_snapshot(&map);
        ring.take_snapshot(&map);
        let oldest = ring.consume_oldest().unwrap();
        assert_eq!(oldest.sequence, 0);
        assert_eq!(ring.len(), 1);
        ring.take_snapshot(&map);
        assert_eq!(ring.overwritten(), 0, "freed slot should be reused");
    }

    #[test]
    fn snapshot_cpg_is_valid() {
        let (l0, l1) = sequences_for_test();
        let mut map: BTreeMap<ThreadId, &[SubComputation]> = BTreeMap::new();
        map.insert(ThreadId::new(0), &l0);
        map.insert(ThreadId::new(1), &l1);
        let mut ring = SnapshotRing::new(1);
        let snap = ring.take_snapshot(&map);
        assert!(snap.cpg.validate().is_ok());
        assert_eq!(snap.cut.len(), snap.cpg.node_count());
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slot_ring_panics() {
        let _ = SnapshotRing::new(0);
    }

    #[test]
    fn iter_returns_snapshots_in_sequence_order() {
        let (l0, l1) = sequences_for_test();
        let mut map: BTreeMap<ThreadId, &[SubComputation]> = BTreeMap::new();
        map.insert(ThreadId::new(0), &l0);
        map.insert(ThreadId::new(1), &l1);
        let mut ring = SnapshotRing::new(3);
        ring.take_snapshot(&map);
        ring.take_snapshot(&map);
        ring.take_snapshot(&map);
        let seqs: Vec<u64> = ring.iter().map(|s| s.sequence).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }
}
