//! Consistent-cut snapshots of the CPG (paper §VI).
//!
//! For long-running programs the provenance log grows without bound, so
//! INSPECTOR lets the user analyse provenance *while the program runs*: a
//! [`Snapshot`] is the CPG restricted to a consistent cut of everything
//! recorded so far, taken on demand.
//!
//! A cut is consistent if, for every synchronization object `S`, whenever an
//! *acquire(S)* is included in the cut the matching *release(S)* is included
//! as well (Chandy–Lamport). We obtain this by cutting each thread at its
//! latest recorded synchronization event and then shrinking the cut until the
//! closure property holds.
//!
//! The crate computes that cut in one place, over an id-sorted node store,
//! and both of its consumers end in it: a live snapshot cuts what the
//! streaming builder has gathered
//! ([`ShardedCpgBuilder::snapshot`](crate::sharded::ShardedCpgBuilder::snapshot)),
//! and offline recovery ([`crate::recover`]) cuts what a crashed session's
//! segments decode to, bounded by the frontier its manifest vouched for.
//! Both then derive the edges over the survivors with the batch
//! derivation, so a snapshot equals the batch oracle over its cut.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Range;

use crate::clock::VectorClock;
use crate::graph::Cpg;
use crate::ids::ThreadId;
use crate::subcomputation::SubComputation;

/// A consistent prefix of every thread's execution sequence.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConsistentCut {
    /// For each thread with anything in the cut, how many of its
    /// sub-computations (from α = 0) are included. Threads with nothing in
    /// the cut are absent.
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

/// Shrinks an id-sorted node store, in place, to its maximal consistent
/// cut within `bound`, and returns that cut.
///
/// Each thread starts at its usable prefix (see [`usable_prefix`]), lowered
/// to `bound(thread)`. The frontier `F` is then shrunk until every kept
/// node's vector clock is covered by `F`: a sub-computation of thread `t`
/// whose clock component for thread `u ≠ t` is `k > 0` causally depends
/// on `u`'s sub-computations with α < k (the recorder stores α + 1 in the
/// owner component), so `F[u] ≥ k` must hold. Because acquires are the
/// only way causality enters a thread, this is exactly the "acquire
/// implies matching release" property. Coverage is
/// monotone along a usable prefix (its clocks only grow), so each pass is a
/// partition point, and `F` only ever shrinks — the fixpoint terminates.
/// Last, every thread's run is truncated to `F` without moving the
/// survivors. What survives is in recorder shape, the derivation's input.
pub(crate) fn cut_in_place(
    nodes: &mut Vec<SubComputation>,
    bound: impl Fn(ThreadId) -> usize,
) -> ConsistentCut {
    let mut threads: Vec<(ThreadId, Range<usize>)> = Vec::new();
    for (p, sub) in nodes.iter().enumerate() {
        match threads.last_mut() {
            Some((t, run)) if *t == sub.id.thread => run.end = p + 1,
            _ => threads.push((sub.id.thread, p..p + 1)),
        }
    }
    // `kept[i]` is the frontier of `threads[i]`. `by_thread` mirrors it by
    // thread index for the clock lookups, over the indexes some clock
    // names: a clock is dense, so it never names a thread past its length,
    // and a thread no clock names needs no entry (its own frontier is
    // never looked up).
    let mut kept: Vec<usize> = threads
        .iter()
        .map(|(thread, run)| usable_prefix(&nodes[run.clone()]).min(bound(*thread)))
        .collect();
    let named = nodes.iter().map(|sub| sub.clock.len()).max().unwrap_or(0);
    let mut by_thread = vec![0usize; named];
    for ((thread, _), &k) in threads.iter().zip(&kept) {
        if let Some(slot) = by_thread.get_mut(thread.index()) {
            *slot = k;
        }
    }

    loop {
        let mut changed = false;
        for (i, (thread, run)) in threads.iter().enumerate() {
            let current = kept[i];
            let covered = |sub: &SubComputation| {
                sub.clock
                    .iter()
                    .all(|(u, k)| u == *thread || k as usize <= by_thread[u.index()])
            };
            let now = nodes[run.start..run.start + current].partition_point(covered);
            if now < current {
                kept[i] = now;
                if let Some(slot) = by_thread.get_mut(thread.index()) {
                    *slot = now;
                }
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut position = 0;
    let mut run = threads.iter().zip(&kept).peekable();
    nodes.retain(|_| {
        while run.next_if(|((_, r), _)| r.end <= position).is_some() {}
        let keep = run
            .peek()
            .is_some_and(|((_, r), &k)| position < r.start + k);
        position += 1;
        keep
    });
    let frontier = threads
        .iter()
        .zip(kept)
        .filter(|&(_, k)| k > 0)
        .map(|((thread, _), k)| (*thread, k))
        .collect();
    ConsistentCut { frontier }
}

/// How many of `run` — one thread's nodes in id order — can start a cut:
/// the longest prefix that is α-contiguous from 0 (a hole makes the records
/// beyond it unusable) and whose clocks never go backwards (a CRC-valid
/// record can still carry a clock its recorder never wrote).
fn usable_prefix(run: &[SubComputation]) -> usize {
    run.iter()
        .enumerate()
        .take_while(|&(i, sub)| {
            sub.id.alpha == i as u64 && (i == 0 || clock_follows(&run[i - 1].clock, &sub.clock))
        })
        .count()
}

/// Whether `next`, the clock of a thread's sub-computation, can follow
/// `previous`, the clock of the thread's one before it: a recorder's clocks
/// only grow, so `previous` must happen before or equal `next`.
pub(crate) fn clock_follows(previous: &VectorClock, next: &VectorClock) -> bool {
    previous.partial_cmp_hb(next).is_some_and(Ordering::is_le)
}

/// A snapshot: the CPG restricted to a consistent cut, plus the cut itself.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// The cut this snapshot corresponds to.
    pub cut: ConsistentCut,
    /// The provenance graph over the cut.
    pub cpg: Cpg,
}

impl Snapshot {
    /// The snapshot of an id-sorted node store whose threads each start at
    /// α = 0: the store cut to its maximal consistent cut, and the graph
    /// derived over what remains.
    pub(crate) fn of(mut nodes: Vec<SubComputation>) -> Snapshot {
        let cut = cut_in_place(&mut nodes, |_| usize::MAX);
        Snapshot {
            cut,
            cpg: Cpg::derived(nodes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AccessKind, SyncKind};
    use crate::ids::{PageId, SyncObjectId};
    use crate::recorder::{SyncObject, ThreadRecorder};
    use crate::testing::{batch_build, edge_fingerprint, Rng};

    /// The reference cut: every thread starts whole, and each pass rescans
    /// every prefix from index 0 and lowers a thread to its first node whose
    /// clock the frontier does not cover, until nothing changes.
    fn consistent_cut(sequences: &BTreeMap<ThreadId, &[SubComputation]>) -> ConsistentCut {
        let mut frontier: BTreeMap<ThreadId, usize> =
            sequences.iter().map(|(&t, seq)| (t, seq.len())).collect();
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

    fn sequences_for_test() -> (Vec<SubComputation>, Vec<SubComputation>) {
        let s = SyncObject::new(SyncObjectId::new(1));

        let mut t0 = ThreadRecorder::new(ThreadId::new(0));
        t0.on_memory_access(PageId::new(1), AccessKind::Write);
        t0.on_synchronization(&s, SyncKind::Release);
        t0.on_memory_access(PageId::new(2), AccessKind::Write);

        let mut t1 = ThreadRecorder::new(ThreadId::new(1));
        t1.on_synchronization(&s, SyncKind::Acquire);
        t1.on_memory_access(PageId::new(1), AccessKind::Read);

        (t0.finish(), t1.finish())
    }

    #[test]
    fn full_sequences_form_consistent_cut() {
        let (l0, l1) = sequences_for_test();
        let (n0, n1) = (l0.len(), l1.len());
        let snapshot = Snapshot::of(l0.into_iter().chain(l1).collect());
        assert_eq!(snapshot.cut.frontier[&ThreadId::new(0)], n0);
        assert_eq!(snapshot.cut.frontier[&ThreadId::new(1)], n1);
        assert_eq!(snapshot.cut.len(), snapshot.cpg.node_count());
        assert!(snapshot.cpg.validate().is_ok());
    }

    #[test]
    fn acquire_without_included_release_is_cut_away() {
        // Only thread 1's sequence (which starts with an acquire whose
        // matching release lives on thread 0) is present: the cut must
        // truncate thread 1 to before the post-acquire sub-computation.
        let (_, l1) = sequences_for_test();
        let snapshot = Snapshot::of(l1);
        assert!(snapshot.cut.len() <= 1);
        assert_eq!(snapshot.cut.len(), snapshot.cpg.node_count());
        assert!(snapshot.cpg.validate().is_ok());
    }

    #[test]
    fn an_empty_store_is_an_empty_valid_snapshot() {
        let snapshot = Snapshot::of(Vec::new());
        assert!(snapshot.cut.is_empty());
        assert_eq!(snapshot.cpg.node_count(), 0);
        assert!(snapshot.cpg.validate().is_ok());
    }

    /// `sequences` damaged the ways a live view or a crashed directory can
    /// be: random per-thread truncations, whole threads dropped, one thread
    /// with an α hole (a node missing from its middle), and one node whose
    /// clock is zeroed, as a CRC-valid record's can be.
    fn damaged(mut sequences: Vec<Vec<SubComputation>>, seed: u64) -> Vec<Vec<SubComputation>> {
        let mut rng = Rng(seed);
        for seq in &mut sequences {
            match rng.below(4) {
                0 => seq.clear(),
                1 => {}
                _ => seq.truncate(rng.below(seq.len() as u64 + 1) as usize),
            }
        }
        let holed = rng.below(sequences.len() as u64) as usize;
        if sequences[holed].len() > 1 {
            let hole = rng.below(sequences[holed].len() as u64 - 1) as usize;
            sequences[holed].remove(hole);
        }
        let lowered = rng.below(sequences.len() as u64) as usize;
        if !sequences[lowered].is_empty() {
            let at = rng.below(sequences[lowered].len() as u64) as usize;
            sequences[lowered][at].clock = VectorClock::new();
        }
        sequences
    }

    proptest::proptest! {
        /// Random, one-after-another and round-robin executions, damaged.
        /// The shared cut equals the reference over the same input (the
        /// reference told each thread's usable prefix — α-contiguous, no
        /// clock below an earlier one — which the shared cut finds itself),
        /// keeps exactly each thread's frontier prefix, and its result is
        /// downward-closed and maximal; the snapshot over it is the batch
        /// oracle over the cut.
        #[test]
        fn prop_shared_cut_is_the_reference_cut(
            kind in 0u8..3,
            seed in proptest::prelude::any::<u64>(),
            threads in 2u32..6,
            iterations in 1u64..8,
        ) {
            let whole = match kind {
                0 => crate::testing::lock_heavy_sequences(threads, iterations, 3, 3),
                1 => crate::testing::random_sequences(seed, 20..120),
                // Every thread tracks every other: a cut cascades around
                // the ring, back into threads a pass has already lowered.
                _ => crate::testing::ping_pong_sequences(threads, iterations),
            };
            let sequences = damaged(whole, seed);
            let usable: Vec<&[SubComputation]> = sequences
                .iter()
                .map(|seq| {
                    let n = seq
                        .iter()
                        .enumerate()
                        .take_while(|(i, s)| {
                            s.id.alpha == *i as u64
                                && seq[..*i].iter().all(|earlier| {
                                    earlier.clock.partial_cmp_hb(&s.clock).is_some_and(Ordering::is_le)
                                })
                        })
                        .count();
                    &seq[..n]
                })
                .collect();
            let map: BTreeMap<ThreadId, &[SubComputation]> = usable
                .iter()
                .filter(|seq| !seq.is_empty())
                .map(|seq| (seq[0].id.thread, *seq))
                .collect();
            let mut reference = consistent_cut(&map);
            reference.frontier.retain(|_, kept| *kept > 0);

            let mut nodes: Vec<SubComputation> = sequences.iter().flatten().cloned().collect();
            let cut = cut_in_place(&mut nodes, |_| usize::MAX);
            proptest::prop_assert_eq!(&cut, &reference);

            // The survivors are each thread's frontier prefix, in place.
            let expected: Vec<SubComputation> = map
                .iter()
                .flat_map(|(t, seq)| seq[..cut.frontier.get(t).copied().unwrap_or(0)].iter().cloned())
                .collect();
            proptest::prop_assert_eq!(&nodes, &expected);

            let kept = |u: ThreadId| cut.frontier.get(&u).copied().unwrap_or(0);
            let covered = |sub: &SubComputation| {
                sub.clock.iter().all(|(u, k)| u == sub.id.thread || k as usize <= kept(u))
            };
            // Downward-closed: every kept node's causal past is kept.
            proptest::prop_assert!(nodes.iter().all(covered));
            // Maximal: no thread's next usable node could join.
            for (t, seq) in &map {
                if let Some(next) = seq.get(kept(*t)) {
                    proptest::prop_assert!(!covered(next), "{next:?} could join the cut");
                }
            }

            let snapshot = Snapshot::of(sequences.iter().flatten().cloned().collect());
            proptest::prop_assert_eq!(&snapshot.cut, &cut);
            proptest::prop_assert_eq!(snapshot.cpg.validate(), Ok(()));
            let prefixes: Vec<Vec<SubComputation>> = map
                .iter()
                .map(|(t, seq)| seq[..kept(*t)].to_vec())
                .collect();
            proptest::prop_assert_eq!(
                edge_fingerprint(&snapshot.cpg),
                edge_fingerprint(&batch_build(&prefixes))
            );
        }

        /// A per-thread bound caps the starting frontier, and the cut
        /// under it is the reference cut over the bounded prefixes.
        #[test]
        fn prop_a_bound_is_a_truncation(
            seed in proptest::prelude::any::<u64>(),
            threads in 2u32..6,
            iterations in 1u64..8,
        ) {
            let sequences = crate::testing::lock_heavy_sequences(threads, iterations, 3, 3);
            let mut rng = Rng(seed);
            let bounds: BTreeMap<ThreadId, usize> = sequences
                .iter()
                .map(|seq| (seq[0].id.thread, rng.below(seq.len() as u64 + 2) as usize))
                .collect();
            let map: BTreeMap<ThreadId, &[SubComputation]> = sequences
                .iter()
                .map(|seq| (seq[0].id.thread, &seq[..bounds[&seq[0].id.thread].min(seq.len())]))
                .collect();
            let mut reference = consistent_cut(&map);
            reference.frontier.retain(|_, kept| *kept > 0);
            let mut nodes: Vec<SubComputation> = sequences.into_iter().flatten().collect();
            let cut = cut_in_place(&mut nodes, |t| bounds[&t]);
            proptest::prop_assert_eq!(&cut, &reference);
            proptest::prop_assert_eq!(nodes.len(), cut.len());
        }
    }
}
