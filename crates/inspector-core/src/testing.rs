//! Deterministic workload generators shared by the unit tests, the
//! integration suites and the benchmarks, so they all exercise the same
//! recorded shapes — plus the oracle harness the suites check against (the
//! batch rebuild and the node / edge fingerprints) and a self-removing
//! temporary directory for the spill tier.

use std::collections::BTreeSet;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::event::{AccessKind, SyncKind};
use crate::graph::{Cpg, CpgBuilder};
use crate::ids::{PageId, SyncObjectId, ThreadId};
use crate::recorder::{SyncClockRegistry, ThreadRecorder};
use crate::subcomputation::SubComputation;

/// splitmix64, so each property-test case expands one seed into a full
/// random schedule deterministically.
#[derive(Debug)]
pub struct Rng(pub u64);

impl Rng {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-ish in `0..n` (`0` when `n` is 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Records a random multithreaded execution: 2–4 threads run a random
/// *global* schedule of reads, writes and release/acquire operations over
/// 1–8 pages and 1–3 locks, so their vector clocks entangle in random ways.
/// The operation count is drawn from `ops`.
pub fn random_sequences(seed: u64, ops: Range<u64>) -> Vec<Vec<SubComputation>> {
    let mut rng = Rng(seed);
    let threads = 2 + rng.below(3) as u32;
    let pages = 1 + rng.below(8);
    let locks = 1 + rng.below(3);
    let ops = ops.start + rng.below(ops.end - ops.start);

    let registry = SyncClockRegistry::shared();
    let mut recs: Vec<ThreadRecorder> = (0..threads)
        .map(|t| ThreadRecorder::new(ThreadId::new(t), Arc::clone(&registry)))
        .collect();
    for _ in 0..ops {
        let t = rng.below(threads as u64) as usize;
        match rng.below(5) {
            0 => recs[t].on_memory_access(PageId::new(rng.below(pages)), AccessKind::Read),
            1 | 2 => recs[t].on_memory_access(PageId::new(rng.below(pages)), AccessKind::Write),
            3 => {
                recs[t]
                    .on_synchronization(SyncObjectId::new(1 + rng.below(locks)), SyncKind::Release);
            }
            _ => {
                recs[t]
                    .on_synchronization(SyncObjectId::new(1 + rng.below(locks)), SyncKind::Acquire);
            }
        }
    }
    recs.into_iter().map(|r| r.finish()).collect()
}

/// The batch oracle: every thread's full sequence through
/// [`CpgBuilder::build`].
pub fn batch_build(sequences: &[Vec<SubComputation>]) -> Cpg {
    let mut builder = CpgBuilder::new();
    for seq in sequences {
        builder.add_thread(seq.clone());
    }
    builder.build()
}

/// The batch oracle over the per-thread sequences stored in `cpg`'s own
/// node set: whatever subset of each thread a streamed (or lossy) run kept,
/// the edges derived from it must be exactly what the offline builder
/// derives from that subset.
pub fn rebatch(cpg: &Cpg) -> Cpg {
    let mut builder = CpgBuilder::new();
    for thread in cpg.threads() {
        let seq: Vec<SubComputation> = cpg
            .thread_sequence(thread)
            .into_iter()
            .map(|id| cpg.node(id).expect("listed node exists").clone())
            .collect();
        builder.add_thread(seq);
    }
    builder.build()
}

/// Every edge of `cpg`, rendered, as a set.
pub fn edge_fingerprint(cpg: &Cpg) -> BTreeSet<String> {
    cpg.edges().map(|e| format!("{e:?}")).collect()
}

/// Every node of `cpg`, rendered, in node-store order.
pub fn node_fingerprint(cpg: &Cpg) -> Vec<String> {
    cpg.nodes().map(|n| format!("{n:?}")).collect()
}

/// A process-unique path `inspector-<label>-<pid>-<n>` under the system
/// temp dir whose whole tree is removed when the guard drops.
///
/// The path is not created: the spill tier creates what it writes into, and
/// a clean seal removes it again. Crashed and degraded runs keep their spill
/// directories on purpose (they are what recovery reads), so pointing a
/// session's [`spill dir`](crate::spill::SpillSettings::dir) here is what
/// cleans up after them.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// Reserves a fresh path; `label` names the suite that owns it.
    pub fn new(label: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        TempDir(std::env::temp_dir().join(format!(
            "inspector-{label}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        )))
    }

    /// The guarded path.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Absent is fine: a clean seal already removed it.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

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
/// thread's vector clock continuously tracks every other thread's progress
/// — unlike [`lock_heavy_sequences`], which records the threads one after
/// another, so earlier threads never observe later ones.
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

/// Does nothing: the builder no longer needs to hear of a thread before its
/// delivery starts. Kept only because the repository benchmark
/// (`benchmark/`) still calls it; the next change to the benchmark deletes
/// it.
pub fn announce_all(
    _builder: &crate::sharded::ShardedCpgBuilder,
    _sequences: &[Vec<SubComputation>],
) {
}

/// Delivers `sequences` from one producer round-robin over the threads
/// (FIFO within each), calling
/// `after_each` once per ingested sub-computation — the deterministic
/// delivery the spill-tier tests count rounds and writes against.
pub fn ingest_round_robin(
    builder: &crate::sharded::ShardedCpgBuilder,
    sequences: Vec<Vec<SubComputation>>,
    mut after_each: impl FnMut(&crate::sharded::ShardedCpgBuilder),
) {
    let mut cursors: Vec<_> = sequences.into_iter().map(Vec::into_iter).collect();
    while cursors.iter().any(|c| c.len() > 0) {
        for sub in cursors.iter_mut().filter_map(Iterator::next) {
            builder.ingest(sub);
            after_each(builder);
        }
    }
}

/// Delivers `sequences` in a random interleaving drawn from `seed` that is
/// FIFO per thread (repeatedly picking a random non-empty thread cursor).
pub fn ingest_random_interleaving(
    builder: &crate::sharded::ShardedCpgBuilder,
    sequences: Vec<Vec<SubComputation>>,
    seed: u64,
) {
    let mut rng = Rng(seed ^ 0xDEAD_BEEF);
    let mut cursors: Vec<_> = sequences.into_iter().map(Vec::into_iter).collect();
    let mut remaining: usize = cursors.iter().map(|c| c.len()).sum();
    while remaining > 0 {
        let pick = rng.below(cursors.len() as u64) as usize;
        if let Some(sub) = cursors[pick].next() {
            builder.ingest(sub);
            remaining -= 1;
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
