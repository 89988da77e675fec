//! Property suite for the spill stage: for any schedule, delivery
//! interleaving, pool width, shard count and spill threshold (including the
//! pathological threshold 1), the spilled-then-reloaded graph must be node-
//! and edge-identical to the batch `CpgBuilder::build()` oracle, and a
//! session run with spilling on must bound its peak resident window while
//! reporting the work (`RunStats::{spilled_subs, spill_bytes,
//! peak_resident_subs}`).

use std::sync::Arc;

use inspector::core::sharded::ShardedCpgBuilder;
use inspector::core::spill::SpillSettings;
use inspector::core::subcomputation::SubComputation;
use inspector::core::testing::{
    batch_build, edge_fingerprint, ingest_random_interleaving, node_fingerprint, random_sequences,
    rebatch, Rng, TempDir,
};
use inspector::prelude::*;
use proptest::prelude::*;

/// Spill settings with tiny segments, so segment rolling and multi-segment
/// fault-in are exercised constantly.
fn spill_settings(threshold: usize, dir: &TempDir) -> SpillSettings {
    SpillSettings {
        segment_bytes: 256,
        ..SpillSettings::new(threshold, dir.path())
    }
}

proptest! {
    #[test]
    fn spilled_build_matches_batch_over_random_everything(seed in any::<u64>()) {
        // Random schedule × random FIFO interleaving × random shard count ×
        // random spill threshold (biased to include 1, the most aggressive
        // cut): the reloaded graph must be identical to the batch oracle.
        let sequences = random_sequences(seed, 30..90);
        let reference = batch_build(&sequences);

        let mut rng = Rng(seed ^ 0x5EED);
        let shards = 1 + rng.below(8) as usize;
        let threshold = [1, 1, 2, 4, 16][rng.below(5) as usize];
        let dir = TempDir::new("spill-eq");
        let streaming =
            ShardedCpgBuilder::with_shards_and_spill(shards, Some(spill_settings(threshold, &dir)));
        ingest_random_interleaving(&streaming, sequences, seed);
        let sealed = streaming.seal();

        prop_assert_eq!(sealed.node_count(), reference.node_count());
        prop_assert_eq!(node_fingerprint(&sealed), node_fingerprint(&reference));
        prop_assert_eq!(edge_fingerprint(&sealed), edge_fingerprint(&reference));
        prop_assert!(sealed.validate().is_ok());

        // Threshold 1 makes every ingest a round.
        let stats = streaming.last_sealed_stats().expect("sealed once");
        if threshold == 1 {
            prop_assert!(stats.spilled_subs > 0, "threshold 1 must spill: {:?}", stats);
            prop_assert!(stats.spill_bytes > 0);
            prop_assert!(stats.peak_resident_subs >= 1);
        }
    }

    #[test]
    fn concurrent_producer_pools_spill_and_still_match_batch(seed in any::<u64>()) {
        // The runtime's lane routing (worker w owns threads with index %
        // pool == w) driving a spilling builder from real OS threads: the
        // graph must stay identical to the oracle for every pool width.
        let sequences = random_sequences(seed, 30..90);
        let reference = batch_build(&sequences);
        for pool in [1usize, 2, 4] {
            let dir = TempDir::new("spill-eq");
            let streaming =
                ShardedCpgBuilder::with_shards_and_spill(4, Some(spill_settings(1, &dir)));
            std::thread::scope(|scope| {
                for worker in 0..pool {
                    let streaming = &streaming;
                    let lanes: Vec<Vec<SubComputation>> = sequences
                        .iter()
                        .enumerate()
                        .filter(|(t, _)| t % pool == worker)
                        .map(|(_, seq)| seq.clone())
                        .collect();
                    scope.spawn(move || {
                        let mut cursors: Vec<std::vec::IntoIter<SubComputation>> =
                            lanes.into_iter().map(|s| s.into_iter()).collect();
                        let mut progressed = true;
                        while progressed {
                            progressed = false;
                            for cursor in &mut cursors {
                                if let Some(sub) = cursor.next() {
                                    streaming.ingest(sub);
                                    progressed = true;
                                }
                            }
                        }
                    });
                }
            });
            let sealed = streaming.seal();
            prop_assert_eq!(edge_fingerprint(&sealed), edge_fingerprint(&reference));
            let stats = streaming.last_sealed_stats().expect("sealed");
            prop_assert!(stats.spilled_subs > 0);
        }
    }

    #[test]
    fn each_spilled_delivery_seals_the_oracle_on_a_fresh_builder(seed in any::<u64>()) {
        // One spilling builder per delivery, each in its own directory and
        // sealed once: two random interleavings and whole-thread batches
        // each seal the oracle's graph, and each build counts exactly its
        // own ingests.
        let sequences = random_sequences(seed, 30..90);
        let reference = batch_build(&sequences);
        let deliveries: [&dyn Fn(&ShardedCpgBuilder); 3] = [
            &|b| ingest_random_interleaving(b, sequences.clone(), seed),
            &|b| ingest_random_interleaving(b, sequences.clone(), seed.wrapping_add(1)),
            &|b| sequences.iter().cloned().for_each(|seq| b.ingest_batch(seq)),
        ];
        for deliver in deliveries {
            let dir = TempDir::new("spill-eq");
            let streaming =
                ShardedCpgBuilder::with_shards_and_spill(3, Some(spill_settings(2, &dir)));
            deliver(&streaming);
            let sealed = streaming.seal();
            prop_assert_eq!(node_fingerprint(&sealed), node_fingerprint(&reference));
            prop_assert_eq!(edge_fingerprint(&sealed), edge_fingerprint(&reference));
            let stats = streaming.last_sealed_stats().expect("sealed once");
            prop_assert_eq!(stats.ingested as usize, reference.node_count());
            prop_assert!(stats.spilled_subs > 0, "threshold 2 must spill: {:?}", stats);
        }
    }
}

// ---------------------------------------------------------------------------
// Session-level: the pipeline with spilling on
// ---------------------------------------------------------------------------

#[test]
fn session_with_spill_threshold_one_bounds_the_window() {
    // The most aggressive cut, under every ingest-pool width.
    for pool in [1usize, 4] {
        let context = format!("pool={pool}");
        let session = InspectorSession::new(
            SessionConfig::inspector()
                .with_ingest_threads(pool)
                .with_spill_threshold(1),
        );
        let counter = session.map_region("counter", 8).base();
        let lock = Arc::new(InspMutex::new());
        let report = session.run(move |ctx| {
            let mut handles = Vec::new();
            for _ in 0..3 {
                let lock = Arc::clone(&lock);
                handles.push(ctx.spawn(move |ctx| {
                    for i in 0..12u64 {
                        ctx.branch(i % 2 == 0);
                        lock.lock(ctx);
                        let v = ctx.read_u64(counter);
                        ctx.write_u64(counter, v + 1);
                        lock.unlock(ctx);
                    }
                }));
            }
            for h in handles {
                ctx.join(h);
            }
        });
        let s = &report.stats;

        // The configuration took effect.
        assert_eq!(s.ingest_workers, pool, "{context}");
        // The post-run PT check agreed with the recorder.
        assert_eq!(s.decoded_branches, s.pt.branches, "{context}: {s:?}");
        // Spilling happened and is reported.
        assert!(s.spilled_subs > 0, "{context}: {s:?}");
        assert!(s.spill_bytes > 0, "{context}");
        // Peak resident memory is the active window, not the trace length.
        assert!(
            s.peak_resident_subs < s.recorder.subcomputations,
            "{context}: peak resident {} vs {} recorded",
            s.peak_resident_subs,
            s.recorder.subcomputations
        );
        // Equivalence is preserved: the sealed graph matches its own
        // batch rebuild exactly.
        let reference = rebatch(&report.cpg);
        assert_eq!(report.cpg.node_count(), reference.node_count(), "{context}");
        assert_eq!(
            edge_fingerprint(&report.cpg),
            edge_fingerprint(&reference),
            "{context}"
        );
        assert!(report.cpg.validate().is_ok(), "{context}");
        assert!(!s.degraded, "{context}: {s:?}");
    }
}
