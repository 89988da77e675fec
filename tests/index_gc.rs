//! Property suite for batched, pooled and spilling delivery. The streaming
//! builder keeps no release or page-write index (so there is no index to
//! collect): ingest appends each α-contiguous batch to its thread's run and
//! the seal derives every edge. For any schedule, batch chunking, producer
//! pool width, shard count and spill threshold (including threshold 1, a
//! spill round after every ingest, with tiny rolling segments), the sealed
//! graph must be node- and edge-identical to the batch
//! `CpgBuilder::build()` oracle.

use inspector::core::sharded::ShardedCpgBuilder;
use inspector::core::spill::SpillSettings;
use inspector::core::subcomputation::SubComputation;
use inspector::core::testing::{
    batch_build, edge_fingerprint, node_fingerprint, random_sequences, Rng, TempDir,
};
use proptest::prelude::*;

/// Streams the sequences from `pool` producer threads with the runtime's
/// lane routing (worker `w` owns the threads with index % pool == w), each
/// repeatedly handing the builder an α-contiguous batch of
/// 1..=`max_batch` sub-computations from a random one of its threads — the
/// `ingest_batch` delivery shape, FIFO per thread.
fn stream_random_batches(
    builder: &ShardedCpgBuilder,
    sequences: &[Vec<SubComputation>],
    pool: usize,
    max_batch: usize,
    seed: u64,
) {
    std::thread::scope(|scope| {
        for worker in 0..pool {
            let mut cursors: Vec<std::vec::IntoIter<SubComputation>> = sequences
                .iter()
                .skip(worker)
                .step_by(pool)
                .map(|seq| seq.clone().into_iter())
                .collect();
            let mut rng = Rng(seed ^ 0x0BA7_C4ED ^ worker as u64);
            scope.spawn(move || {
                let mut remaining: usize = cursors.iter().map(|c| c.len()).sum();
                while remaining > 0 {
                    let pick = rng.below(cursors.len() as u64) as usize;
                    let take = 1 + rng.below(max_batch as u64) as usize;
                    let batch: Vec<SubComputation> = cursors[pick].by_ref().take(take).collect();
                    remaining -= batch.len();
                    builder.ingest_batch(batch);
                }
            });
        }
    });
}

/// Spill settings with tiny segments, so segment rolling is exercised
/// constantly.
fn spill_settings(threshold: usize, dir: &TempDir) -> SpillSettings {
    SpillSettings {
        segment_bytes: 256,
        ..SpillSettings::new(threshold, dir.path())
    }
}

proptest! {
    #[test]
    fn gcd_build_matches_batch_over_random_everything(seed in any::<u64>()) {
        // Random schedule × random batched FIFO interleaving × random shard
        // count × random spill threshold (off, 1 or 4).
        let sequences = random_sequences(seed, 40..120);
        let reference = batch_build(&sequences);

        let mut rng = Rng(seed ^ 0x006C_0A11);
        let shards = 1 + rng.below(8) as usize;
        let threshold = [0usize, 0, 1, 4][rng.below(4) as usize];
        let max_batch = 1 + rng.below(7) as usize;

        let dir = TempDir::new("index-gc");
        let streaming = ShardedCpgBuilder::with_shards_and_spill(
            shards,
            (threshold > 0).then(|| spill_settings(threshold, &dir)),
        );
        stream_random_batches(&streaming, &sequences, 1, max_batch, seed);
        let sealed = streaming.seal();

        prop_assert_eq!(sealed.node_count(), reference.node_count());
        prop_assert_eq!(node_fingerprint(&sealed), node_fingerprint(&reference));
        prop_assert_eq!(edge_fingerprint(&sealed), edge_fingerprint(&reference));
        prop_assert!(sealed.validate().is_ok());

        let stats = streaming.last_sealed_stats().expect("sealed once");
        prop_assert_eq!(stats.ingested as usize, reference.node_count());
        prop_assert_eq!(stats.spill_fallbacks, 0);
        // Threshold 1 makes every ingest a round.
        match threshold {
            0 => prop_assert_eq!(stats.spilled_subs, 0),
            1 => prop_assert!(stats.spilled_subs > 0, "{:?}", stats),
            _ => {}
        }
    }

    #[test]
    fn concurrent_pools_with_aggressive_gc_match_batch(seed in any::<u64>()) {
        // Real OS-thread producer pools handing over random batches, with a
        // spill round after every ingest: races between appends, spill
        // rounds and segment rolls must never cost a node or an edge.
        let sequences = random_sequences(seed, 40..120);
        let reference = batch_build(&sequences);
        for pool in [2usize, 4] {
            let dir = TempDir::new("index-gc");
            let streaming =
                ShardedCpgBuilder::with_shards_and_spill(4, Some(spill_settings(1, &dir)));
            stream_random_batches(&streaming, &sequences, pool, 4, seed);
            let sealed = streaming.seal();
            prop_assert_eq!(node_fingerprint(&sealed), node_fingerprint(&reference));
            prop_assert_eq!(edge_fingerprint(&sealed), edge_fingerprint(&reference));
            let stats = streaming.last_sealed_stats().expect("sealed");
            prop_assert_eq!(stats.ingested as usize, reference.node_count());
            prop_assert_eq!(stats.spill_fallbacks, 0);
        }
    }
}
