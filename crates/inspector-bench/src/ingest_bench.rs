//! Streaming-ingest plumbing shared by the `cpg_ingest` /
//! `sync_contention` / `pt_decode` / `cpg_spill` micro-benchmarks in
//! `benches/micro.rs`.
//!
//! The CPG half drives one object: [`ShardedCpgBuilder`] fed by a producer
//! pool whose worker `w` owns the application threads with
//! `index % pool == w` — the exact lane routing the runtime's ingest pool
//! uses, so per-thread delivery stays FIFO while different threads'
//! provenance lands concurrently. The decode half builds the deterministic
//! packet stream the `pt_decode` group decodes.

use inspector_core::graph::Cpg;
use inspector_core::sharded::{IngestStats, ShardedCpgBuilder};
use inspector_core::spill::SpillSettings;
use inspector_core::subcomputation::SubComputation;
use inspector_core::testing::announce_all;
use inspector_pt::branch::BranchEvent;
use inspector_pt::encode::PacketEncoder;

/// Streams `sequences` into a fresh builder from a `pool`-wide producer
/// pool and seals. `pool == 1` reproduces the single-ingest-thread
/// baseline shape.
pub fn ingest_with_pool(sequences: &[Vec<SubComputation>], pool: usize, shards: usize) -> Cpg {
    measure_build_with_spill(sequences, pool, shards, 0).cpg
}

/// [`ingest_with_pool`] through [`ShardedCpgBuilder::ingest_batch`]: each
/// producer hands the builder α-contiguous batches of up to `batch`
/// sub-computations per call, so stripe locking amortises across the batch
/// (a shape for replay and offline rebuilds; the runtime's lanes carry one
/// sub-computation per message).
pub fn ingest_with_pool_batched(
    sequences: &[Vec<SubComputation>],
    pool: usize,
    shards: usize,
    batch: usize,
) -> Cpg {
    let builder = ShardedCpgBuilder::with_shards(shards);
    announce_all(&builder, sequences);
    let batch = batch.max(1);
    std::thread::scope(|scope| {
        for worker in 0..pool.max(1) {
            let builder = &builder;
            let lanes: Vec<Vec<SubComputation>> = sequences
                .iter()
                .enumerate()
                .filter(|(t, _)| t % pool.max(1) == worker)
                .map(|(_, seq)| seq.clone())
                .collect();
            scope.spawn(move || {
                let mut cursors: Vec<std::iter::Peekable<std::vec::IntoIter<SubComputation>>> =
                    lanes
                        .into_iter()
                        .map(|s| s.into_iter().peekable())
                        .collect();
                let mut progressed = true;
                while progressed {
                    progressed = false;
                    for cursor in &mut cursors {
                        let chunk: Vec<SubComputation> = cursor.by_ref().take(batch).collect();
                        if !chunk.is_empty() {
                            builder.ingest_batch(chunk);
                            progressed = true;
                        }
                    }
                }
            });
        }
    });
    builder.seal()
}

/// A bench-unique spill directory under the system temp dir.
fn bench_spill_dir() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "inspector-bench-spill-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// One pooled build.
pub struct PooledBuild {
    /// The sealed graph.
    pub cpg: Cpg,
    /// The build's final counters.
    pub stats: IngestStats,
}

/// Streams `sequences` from a `pool`-wide producer pool into a builder with
/// `shards` stripes and the spill stage enabled at `spill_threshold` (0
/// keeps everything resident — the plain pooled build), then seals.
pub fn measure_build_with_spill(
    sequences: &[Vec<SubComputation>],
    pool: usize,
    shards: usize,
    spill_threshold: usize,
) -> PooledBuild {
    let spill =
        (spill_threshold > 0).then(|| SpillSettings::new(spill_threshold, bench_spill_dir()));
    let builder = ShardedCpgBuilder::with_shards_and_spill(shards, spill);
    announce_all(&builder, sequences);
    if pool <= 1 {
        for seq in sequences {
            for sub in seq.clone() {
                builder.ingest(sub);
            }
        }
    } else {
        std::thread::scope(|scope| {
            for worker in 0..pool {
                let builder = &builder;
                let lanes: Vec<Vec<SubComputation>> = sequences
                    .iter()
                    .enumerate()
                    .filter(|(t, _)| t % pool == worker)
                    .map(|(_, seq)| seq.clone())
                    .collect();
                scope.spawn(move || {
                    // Round-robin across this worker's threads, FIFO within
                    // each thread — the shape a live run produces.
                    let mut cursors: Vec<std::vec::IntoIter<SubComputation>> =
                        lanes.into_iter().map(|s| s.into_iter()).collect();
                    let mut progressed = true;
                    while progressed {
                        progressed = false;
                        for cursor in &mut cursors {
                            if let Some(sub) = cursor.next() {
                                builder.ingest(sub);
                                progressed = true;
                            }
                        }
                    }
                });
            }
        });
    }
    let cpg = builder.seal();
    let stats = builder.last_sealed_stats().expect("sealed exactly once");
    PooledBuild { cpg, stats }
}

/// Deterministic mixed branch stream of `branches` events (the `pt_decode`
/// bench input): conditional-heavy with periodic indirect branches, the
/// shape the workloads produce. Returns the encoded bytes.
pub fn encoded_branch_stream(branches: u64) -> Vec<u8> {
    let mut enc = PacketEncoder::new();
    enc.begin(0x40_0000);
    for i in 0..branches {
        if i % 16 == 0 {
            enc.branch(&BranchEvent::Indirect {
                target: 0x40_0000 + (i % 64) * 16,
            });
        } else {
            enc.branch(&BranchEvent::Conditional { taken: i % 3 == 0 });
        }
    }
    enc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use inspector_core::graph::CpgBuilder;
    use std::collections::BTreeSet;

    #[test]
    fn pooled_build_matches_batch_for_every_pool_width() {
        let sequences = inspector_core::testing::lock_heavy_sequences(4, 15, 8, 8);
        let mut batch = CpgBuilder::new();
        for seq in &sequences {
            batch.add_thread(seq.clone());
        }
        let reference = batch.build();
        let fingerprint =
            |cpg: &Cpg| -> BTreeSet<String> { cpg.edges().map(|e| format!("{e:?}")).collect() };
        for pool in [1usize, 2, 4] {
            let cpg = ingest_with_pool(&sequences, pool, 4);
            assert_eq!(cpg.node_count(), reference.node_count(), "pool={pool}");
            assert_eq!(fingerprint(&cpg), fingerprint(&reference), "pool={pool}");
        }
    }

    #[test]
    fn batched_pooled_build_matches_batch() {
        let sequences = inspector_core::testing::lock_heavy_sequences(4, 15, 8, 8);
        let mut batch = CpgBuilder::new();
        for seq in &sequences {
            batch.add_thread(seq.clone());
        }
        let reference = batch.build();
        let fingerprint =
            |cpg: &Cpg| -> BTreeSet<String> { cpg.edges().map(|e| format!("{e:?}")).collect() };
        for (pool, chunk) in [(1usize, 8usize), (2, 1), (4, 16)] {
            let cpg = ingest_with_pool_batched(&sequences, pool, 4, chunk);
            assert_eq!(
                fingerprint(&cpg),
                fingerprint(&reference),
                "pool={pool} chunk={chunk}"
            );
        }
    }

    #[test]
    fn spilled_pooled_build_matches_plain_build() {
        let sequences = inspector_core::testing::lock_heavy_sequences(4, 15, 8, 8);
        let plain = measure_build_with_spill(&sequences, 2, 4, 0);
        let spilled = measure_build_with_spill(&sequences, 2, 4, 1);
        let fingerprint =
            |cpg: &Cpg| -> BTreeSet<String> { cpg.edges().map(|e| format!("{e:?}")).collect() };
        assert_eq!(spilled.cpg.node_count(), plain.cpg.node_count());
        assert_eq!(fingerprint(&spilled.cpg), fingerprint(&plain.cpg));
        assert!(spilled.stats.spilled_subs > 0);
        assert_eq!(plain.stats.spilled_subs, 0);
    }
}
