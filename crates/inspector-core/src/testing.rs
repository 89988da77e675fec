//! Deterministic workload generators shared by the unit tests, the
//! streaming-equivalence suite and the benchmarks, so they all exercise the
//! same recorded shapes.

use std::sync::Arc;

use crate::event::{AccessKind, SyncKind};
use crate::graph::Cpg;
use crate::ids::{PageId, SyncObjectId, ThreadId};
use crate::recorder::{SyncClockRegistry, ThreadRecorder};
use crate::subcomputation::SubComputation;

/// Records a lock-heavy execution: every thread repeatedly acquires one
/// global lock, reads page `i % read_pages`, writes page
/// `(i + t) % write_pages`, and releases. Returns each thread's execution
/// sequence `L_t`.
pub fn lock_heavy_sequences(
    threads: u32,
    iterations: u64,
    read_pages: u64,
    write_pages: u64,
) -> Vec<Vec<SubComputation>> {
    let registry = SyncClockRegistry::shared();
    let lock = SyncObjectId::new(1);
    (0..threads)
        .map(|t| {
            let mut rec = ThreadRecorder::new(ThreadId::new(t), Arc::clone(&registry));
            for i in 0..iterations {
                rec.on_synchronization(lock, SyncKind::Acquire);
                rec.on_memory_access(PageId::new(i % read_pages), AccessKind::Read);
                rec.on_memory_access(PageId::new((i + t as u64) % write_pages), AccessKind::Write);
                rec.on_synchronization(lock, SyncKind::Release);
            }
            rec.finish()
        })
        .collect()
}

/// Records a genuinely *interleaved* ping-pong execution: the threads take
/// turns acquiring one global lock in a global round-robin schedule, each
/// reading the previous holder's page and writing its own, so every
/// thread's vector clock continuously tracks every other thread's progress.
///
/// This is the adversarial shape for the release / page-write index GC:
/// unlike [`lock_heavy_sequences`] (which records the threads one after
/// another, so earlier threads never observe later ones and legitimately
/// pin their index entries forever), mutual observation lets the reference
/// floor advance and the live index entries stay O(threads) instead of
/// O(events).
pub fn ping_pong_sequences(threads: u32, rounds: u64) -> Vec<Vec<SubComputation>> {
    let registry = SyncClockRegistry::shared();
    let lock = SyncObjectId::new(1);
    let mut recs: Vec<ThreadRecorder> = (0..threads)
        .map(|t| ThreadRecorder::new(ThreadId::new(t), Arc::clone(&registry)))
        .collect();
    for _ in 0..rounds {
        for (t, rec) in recs.iter_mut().enumerate() {
            rec.on_synchronization(lock, SyncKind::Acquire);
            let prev = (t + threads as usize - 1) % threads as usize;
            rec.on_memory_access(PageId::new(prev as u64), AccessKind::Read);
            rec.on_memory_access(PageId::new(t as u64), AccessKind::Write);
            rec.on_synchronization(lock, SyncKind::Release);
        }
    }
    recs.into_iter().map(|r| r.finish()).collect()
}

/// Announces every thread of `sequences` to `builder` (first-sub clocks)
/// before delivery starts — the index-GC contract shared by every harness
/// that drives the builder directly with skewed or pooled interleavings: a
/// thread the builder has never heard of is invisible to the GC's
/// reference floor, so entries its late-delivered sub-computations still
/// reference could be dropped. The runtime announces every context at
/// creation; direct drivers call this instead.
pub fn announce_all(
    builder: &crate::sharded::ShardedCpgBuilder,
    sequences: &[Vec<SubComputation>],
) {
    for seq in sequences {
        if let Some(first) = seq.first() {
            builder.announce_thread(first.id.thread, &first.clock);
        }
    }
}

/// Announces the threads of `sequences`, then delivers them from one
/// producer round-robin over the threads (FIFO within each), calling
/// `after_each` once per ingested sub-computation — the deterministic
/// delivery the spill-tier tests count rounds and writes against.
pub fn ingest_round_robin(
    builder: &crate::sharded::ShardedCpgBuilder,
    sequences: Vec<Vec<SubComputation>>,
    mut after_each: impl FnMut(&crate::sharded::ShardedCpgBuilder),
) {
    announce_all(builder, &sequences);
    let mut cursors: Vec<_> = sequences.into_iter().map(Vec::into_iter).collect();
    while cursors.iter().any(|c| c.len() > 0) {
        for sub in cursors.iter_mut().filter_map(Iterator::next) {
            builder.ingest(sub);
            after_each(builder);
        }
    }
}

/// Rebuilds `cpg`'s position index and adjacency from its own nodes and
/// edges: the step every builder ends with (the streaming seal pays it on
/// the run's critical path), isolated for the micro-benchmarks.
pub fn reindex(cpg: Cpg) -> Cpg {
    Cpg::from_sorted_nodes(cpg.nodes, cpg.edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_and_shaped() {
        let a = lock_heavy_sequences(3, 5, 4, 2);
        let b = lock_heavy_sequences(3, 5, 4, 2);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        // Per thread: one prologue sub + 2 per iteration (acquire + release
        // boundaries), plus the trailing sub closed at thread exit.
        assert_eq!(a[0].len(), 1 + 2 * 5);
    }

    #[test]
    fn ping_pong_threads_observe_each_other() {
        let seqs = ping_pong_sequences(2, 3);
        assert_eq!(seqs.len(), 2);
        // The interleaving entangles the clocks in *both* directions —
        // thread 0's later sub-computations have observed thread 1's
        // earlier ones, unlike the sequentially recorded lock_heavy shape.
        let late0 = seqs[0].last().unwrap();
        assert!(late0.clock.get(crate::ids::ThreadId::new(1)) > 0);
        let late1 = seqs[1].last().unwrap();
        assert!(late1.clock.get(crate::ids::ThreadId::new(0)) > 0);
    }
}
