//! Property suite for the frontier-based index GC: for any schedule, FIFO
//! delivery interleaving, batch chunking, shard count, GC aggressiveness
//! (including a GC pass after *every* index append) and spill threshold,
//! the GC'd incremental build must stay node- and edge-identical to the
//! batch `CpgBuilder::build()` oracle — the GC may only drop index entries
//! no present or future resolution can select. A long interleaved
//! ping-pong run additionally pins the residency claim: live release-index
//! entries stay O(threads), not O(events).

use std::collections::BTreeSet;
use std::sync::Arc;

use inspector::core::event::{AccessKind, SyncKind};
use inspector::core::graph::{Cpg, CpgBuilder};
use inspector::core::ids::{PageId, SyncObjectId, ThreadId};
use inspector::core::recorder::{SyncClockRegistry, ThreadRecorder};
use inspector::core::sharded::ShardedCpgBuilder;
use inspector::core::spill::SpillSettings;
use inspector::core::subcomputation::SubComputation;
use inspector::core::testing::announce_all;
use inspector::core::testing::ping_pong_sequences;
use proptest::prelude::*;

/// splitmix64, so each proptest case expands one seed into a full random
/// schedule deterministically.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Records a random multithreaded execution: a random *global* schedule of
/// reads, writes and release/acquire operations over small page and lock
/// pools, so the threads' vector clocks entangle in random ways (the same
/// shape as the `incremental_data_edges` and `spill_equivalence` suites).
fn random_sequences(seed: u64) -> Vec<Vec<SubComputation>> {
    let mut rng = Rng(seed);
    let threads = 2 + rng.below(3) as u32; // 2..=4
    let pages = 1 + rng.below(8); // 1..=8
    let locks = 1 + rng.below(3); // 1..=3
    let ops = 40 + rng.below(80); // 40..=119 operations, globally scheduled

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

fn batch_build(sequences: &[Vec<SubComputation>]) -> Cpg {
    let mut builder = CpgBuilder::new();
    for seq in sequences {
        builder.add_thread(seq.clone());
    }
    builder.build()
}

fn edge_fingerprint(cpg: &Cpg) -> BTreeSet<String> {
    cpg.edges().map(|e| format!("{e:?}")).collect()
}

fn node_fingerprint(cpg: &Cpg) -> Vec<String> {
    cpg.nodes().map(|n| format!("{n:?}")).collect()
}

/// A test-unique spill directory with tiny segments, so the GC × spill
/// interaction is exercised with constant segment rolling.
fn spill_settings(threshold: usize) -> SpillSettings {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "inspector-index-gc-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    SpillSettings {
        segment_bytes: 256,
        ..SpillSettings::new(threshold, dir)
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
        let sequences = random_sequences(seed);
        let reference = batch_build(&sequences);

        let mut rng = Rng(seed ^ 0x006C_0A11);
        let shards = 1 + rng.below(8) as usize;
        let gc_interval = [1, 1, 1, 2, 8, 64][rng.below(6) as usize];
        let spill = [0usize, 0, 1, 4][rng.below(4) as usize];
        let max_batch = 1 + rng.below(7) as usize;

        let mut streaming = ShardedCpgBuilder::with_shards_and_spill(
            shards,
            (spill > 0).then(|| spill_settings(spill)),
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
        let sequences = random_sequences(seed);
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
