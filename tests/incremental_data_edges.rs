//! Property suite for data-dependence derivation under streamed delivery:
//! the streaming builder stores each sub-computation's read/write sets at
//! ingest and derives the last-writer data edges (with the control and
//! synchronization edges) at seal. Over random write/read/clock schedules
//! and any delivery that is FIFO per thread, the sealed graph must be node-
//! and edge-identical to the batch `CpgBuilder` oracle, whichever delivery
//! fills the builder.

use inspector::core::sharded::ShardedCpgBuilder;
use inspector::core::testing::{
    batch_build, edge_fingerprint, ingest_random_interleaving, node_fingerprint, random_sequences,
    Rng,
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
        prop_assert_eq!(node_fingerprint(&sealed), node_fingerprint(&reference));
        prop_assert_eq!(edge_fingerprint(&sealed), edge_fingerprint(&reference));
        prop_assert!(sealed.validate().is_ok());
        let stats = streaming.last_sealed_stats().expect("sealed once");
        prop_assert_eq!(stats.ingested as usize, reference.node_count());
    }

    #[test]
    fn adversarial_whole_thread_delivery_still_matches_batch(seed in any::<u64>()) {
        // Whole threads delivered back to back in reverse thread order —
        // the most skewed delivery the per-thread FIFO contract allows:
        // every reader arrives before the writers it depends on.
        let sequences = random_sequences(seed, 30..90);
        let reference = batch_build(&sequences);

        let streaming = ShardedCpgBuilder::with_shards(4);
        for seq in sequences.into_iter().rev() {
            for sub in seq {
                streaming.ingest(sub);
            }
        }
        let sealed = streaming.seal();

        prop_assert_eq!(node_fingerprint(&sealed), node_fingerprint(&reference));
        prop_assert_eq!(edge_fingerprint(&sealed), edge_fingerprint(&reference));
        prop_assert!(sealed.validate().is_ok());
    }

    #[test]
    fn each_delivery_seals_the_oracle_on_a_fresh_builder(seed in any::<u64>()) {
        // One builder per delivery, sealed once: two random interleavings
        // and whole-thread batches each seal the oracle's graph, and each
        // build counts exactly its own ingests.
        let sequences = random_sequences(seed, 30..90);
        let reference = batch_build(&sequences);
        let deliveries: [&dyn Fn(&ShardedCpgBuilder); 3] = [
            &|b| ingest_random_interleaving(b, sequences.clone(), seed),
            &|b| ingest_random_interleaving(b, sequences.clone(), seed.wrapping_add(1)),
            &|b| sequences.iter().cloned().for_each(|seq| b.ingest_batch(seq)),
        ];
        for deliver in deliveries {
            let streaming = ShardedCpgBuilder::with_shards(3);
            deliver(&streaming);
            let sealed = streaming.seal();
            prop_assert_eq!(node_fingerprint(&sealed), node_fingerprint(&reference));
            prop_assert_eq!(edge_fingerprint(&sealed), edge_fingerprint(&reference));
            let stats = streaming.last_sealed_stats().expect("sealed once");
            prop_assert_eq!(stats.ingested as usize, reference.node_count());
        }
    }
}
