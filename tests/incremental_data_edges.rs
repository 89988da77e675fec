//! Property suite for incremental data-dependence resolution: over random
//! write/read/clock interleavings, the streaming builder's ingest-time
//! (clock-frontier-gated) last-writer resolution must produce exactly the
//! edges the batch `CpgBuilder` derives offline — and whenever every
//! frontier was delivered before the seal, the seal-time safety net must
//! have had nothing to do (`data_resolved_at_seal == 0`,
//! `sync_resolved_at_seal == 0`).

use inspector::core::sharded::ShardedCpgBuilder;
use inspector::core::testing::{
    announce_all, batch_build, edge_fingerprint, ingest_random_interleaving, random_sequences, Rng,
};
use proptest::prelude::*;

proptest! {
    #[test]
    fn incremental_resolution_matches_batch_over_random_interleavings(seed in any::<u64>()) {
        let sequences = random_sequences(seed, 30..90);
        let reference = batch_build(&sequences);

        let mut rng = Rng(seed ^ 0x5EED);
        let shards = 1 + rng.below(8) as usize;
        let streaming = ShardedCpgBuilder::with_shards(shards);
        ingest_random_interleaving(&streaming, sequences, seed);
        let sealed = streaming.seal();

        prop_assert_eq!(sealed.node_count(), reference.node_count());
        prop_assert_eq!(edge_fingerprint(&sealed), edge_fingerprint(&reference));
        prop_assert!(sealed.validate().is_ok());

        // Everything was delivered before the seal, so both seal-time
        // safety nets must have stayed idle: every synchronization and
        // data edge was pinned and emitted during ingestion.
        let stats = streaming.last_sealed_stats().expect("sealed once");
        prop_assert_eq!(stats.sync_resolved_at_seal, 0);
        prop_assert_eq!(stats.data_resolved_at_seal, 0);
    }

    #[test]
    fn adversarial_whole_thread_delivery_still_matches_batch(seed in any::<u64>()) {
        // Whole threads delivered back to back in reverse thread order —
        // the most skewed delivery the per-thread FIFO contract allows, so
        // readers and acquires park in bulk and resolve via the frontier
        // wait-index, never via a seal-time pass.
        let sequences = random_sequences(seed, 30..90);
        let reference = batch_build(&sequences);

        let streaming = ShardedCpgBuilder::with_shards(4);
        announce_all(&streaming, &sequences);
        for seq in sequences.into_iter().rev() {
            for sub in seq {
                streaming.ingest(sub);
            }
        }
        let sealed = streaming.seal();

        prop_assert_eq!(edge_fingerprint(&sealed), edge_fingerprint(&reference));
        let stats = streaming.last_sealed_stats().expect("sealed once");
        prop_assert_eq!(stats.sync_resolved_at_seal, 0);
        prop_assert_eq!(stats.data_resolved_at_seal, 0);
    }

    #[test]
    fn data_edges_survive_builder_reuse(seed in any::<u64>()) {
        // Sealing must fully reset the write index, the wait indexes and
        // the counters: a second identical build on the same builder
        // produces identical edges and fresh counters.
        let sequences = random_sequences(seed, 30..90);
        let streaming = ShardedCpgBuilder::with_shards(3);
        ingest_random_interleaving(&streaming, sequences.clone(), seed);
        let first = streaming.seal();
        ingest_random_interleaving(&streaming, sequences, seed.wrapping_add(1));
        let second = streaming.seal();

        prop_assert_eq!(edge_fingerprint(&first), edge_fingerprint(&second));
        let stats = streaming.last_sealed_stats().expect("sealed twice");
        prop_assert_eq!(stats.ingested as usize, second.node_count());
        prop_assert_eq!(stats.data_resolved_at_seal, 0);
    }
}
