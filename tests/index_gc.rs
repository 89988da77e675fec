//! Property suite for the frontier-based index GC: for any schedule, FIFO
//! delivery interleaving, batch chunking, shard count, GC aggressiveness
//! (including a GC pass after *every* index append) and spill threshold,
//! the GC'd incremental build must stay node- and edge-identical to the
//! batch `CpgBuilder::build()` oracle — the GC may only drop index entries
//! no present or future resolution can select. A long interleaved
//! ping-pong run additionally pins the residency claim: live release-index
//! entries stay O(threads), not O(events).

use inspector::core::event::SyncKind;
use inspector::core::sharded::ShardedCpgBuilder;
use inspector::core::spill::SpillSettings;
use inspector::core::subcomputation::SubComputation;
use inspector::core::testing::{
    announce_all, batch_build, edge_fingerprint, node_fingerprint, ping_pong_sequences,
    random_sequences, Rng, TempDir,
};
use proptest::prelude::*;

/// Streams the sequences in a random delivery interleaving that is FIFO per
/// thread, delivering a random-length α-contiguous *batch* from a random
/// thread each step — the `ingest_batch` delivery shape.
fn stream_random_batches(
    builder: &ShardedCpgBuilder,
    sequences: Vec<Vec<SubComputation>>,
    seed: u64,
    max_batch: usize,
) {
    announce_all(builder, &sequences);
    let mut rng = Rng(seed ^ 0x0BA7_C4ED);
    let mut cursors: Vec<std::vec::IntoIter<SubComputation>> =
        sequences.into_iter().map(|s| s.into_iter()).collect();
    let mut remaining: usize = cursors.iter().map(|c| c.len()).sum();
    while remaining > 0 {
        let pick = rng.below(cursors.len() as u64) as usize;
        let take = 1 + rng.below(max_batch as u64) as usize;
        let batch: Vec<SubComputation> = cursors[pick].by_ref().take(take).collect();
        if batch.is_empty() {
            continue;
        }
        remaining -= batch.len();
        builder.ingest_batch(batch);
    }
}

/// Spill settings with tiny segments, so the GC × spill interaction is
/// exercised with constant segment rolling.
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
        // count × random GC aggressiveness (biased toward interval 1, a GC
        // pass after every single index append) × random spill threshold:
        // the graph must be identical to the batch oracle and the seal-time
        // safety nets must stay idle.
        let sequences = random_sequences(seed, 40..120);
        let reference = batch_build(&sequences);

        let mut rng = Rng(seed ^ 0x006C_0A11);
        let shards = 1 + rng.below(8) as usize;
        let gc_interval = [1, 1, 1, 2, 8, 64][rng.below(6) as usize];
        let spill = [0usize, 0, 1, 4][rng.below(4) as usize];
        let max_batch = 1 + rng.below(7) as usize;

        let dir = TempDir::new("index-gc");
        let mut streaming = ShardedCpgBuilder::with_shards_and_spill(
            shards,
            (spill > 0).then(|| spill_settings(spill, &dir)),
        );
        streaming.set_index_gc_interval(gc_interval);
        stream_random_batches(&streaming, sequences, seed, max_batch);
        let sealed = streaming.seal();

        prop_assert_eq!(sealed.node_count(), reference.node_count());
        prop_assert_eq!(node_fingerprint(&sealed), node_fingerprint(&reference));
        prop_assert_eq!(edge_fingerprint(&sealed), edge_fingerprint(&reference));
        prop_assert!(sealed.validate().is_ok());

        let stats = streaming.last_sealed_stats().expect("sealed once");
        prop_assert_eq!(stats.sync_resolved_at_seal, 0);
        prop_assert_eq!(stats.data_resolved_at_seal, 0);
        // Entry accounting never leaks: live + GC'd covers exactly what
        // was appended (one release entry per release-terminated sub, one
        // page entry per written page per sub).
        let releases: u64 = reference
            .nodes()
            .filter(|n| {
                n.terminator.is_some_and(|sp| {
                    matches!(sp.kind, SyncKind::Release | SyncKind::ReleaseAcquire)
                })
            })
            .count() as u64;
        prop_assert_eq!(stats.release_entries_live + stats.release_entries_gcd, releases);
        let writes: u64 = reference.nodes().map(|n| n.write_set.len() as u64).sum();
        prop_assert_eq!(stats.page_entries_live + stats.page_entries_gcd, writes);
    }

    #[test]
    fn concurrent_pools_with_aggressive_gc_match_batch(seed in any::<u64>()) {
        // Real OS-thread producer pools (the runtime's lane routing) with a
        // GC pass after every append: races between parking, popping,
        // resolution and the GC floor must never cost an edge.
        let sequences = random_sequences(seed, 40..120);
        let reference = batch_build(&sequences);
        for pool in [2usize, 4] {
            let mut streaming = ShardedCpgBuilder::with_shards(4);
            streaming.set_index_gc_interval(1);
            announce_all(&streaming, &sequences);
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
            prop_assert_eq!(stats.sync_resolved_at_seal, 0);
            prop_assert_eq!(stats.data_resolved_at_seal, 0);
        }
    }
}

#[test]
fn ping_pong_release_index_is_o_threads_not_o_events() {
    // The headline residency claim: a long two-thread ping-pong run on one
    // lock keeps the live release index O(threads) — with slack for the GC
    // cadence — while the GC'd counter absorbs the O(events) bulk. The
    // graph still matches the oracle exactly.
    let rounds = 1000u64;
    let sequences = ping_pong_sequences(2, rounds);
    let reference = batch_build(&sequences);
    let total_releases: u64 = 2 * rounds; // one release per round per thread

    let streaming = ShardedCpgBuilder::with_shards(2);
    announce_all(&streaming, &sequences);
    let mut cursors: Vec<std::vec::IntoIter<SubComputation>> =
        sequences.into_iter().map(|s| s.into_iter()).collect();
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
    let stats = streaming.stats();
    assert_eq!(
        stats.release_entries_live + stats.release_entries_gcd,
        total_releases
    );
    // O(threads) with GC-cadence slack — crucially, independent of the
    // round count: doubling `rounds` leaves this bound unchanged.
    let interval = inspector::core::sharded::DEFAULT_INDEX_GC_INTERVAL as u64;
    let bound = 2 * (2 * interval + 8);
    assert!(
        stats.release_entries_live < bound,
        "live release entries {} should stay below {bound} over {} events",
        stats.release_entries_live,
        stats.ingested
    );
    assert!(
        stats.page_entries_live < bound + 16,
        "live page entries {} should stay bounded",
        stats.page_entries_live
    );
    assert!(stats.release_entries_gcd > total_releases / 2);

    let sealed = streaming.seal();
    assert_eq!(edge_fingerprint(&sealed), edge_fingerprint(&reference));
    assert!(sealed.validate().is_ok());
}

#[test]
fn gc_disabled_reproduces_o_events_growth() {
    // The counterfactual for the test above: with the GC off, the same
    // run's live release index grows with the event count — which is
    // exactly the superlinear-seal regime the GC exists to remove.
    let rounds = 300u64;
    let sequences = ping_pong_sequences(2, rounds);
    let mut streaming = ShardedCpgBuilder::with_shards(2);
    streaming.set_index_gc_interval(0);
    let mut cursors: Vec<std::vec::IntoIter<SubComputation>> =
        sequences.into_iter().map(|s| s.into_iter()).collect();
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
    let stats = streaming.stats();
    assert_eq!(stats.release_entries_gcd, 0);
    assert_eq!(stats.release_entries_live, 2 * rounds);
    assert!(streaming.seal().validate().is_ok());
}
