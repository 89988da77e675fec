//! Random schedules delivered with no spill tier, in the orders the
//! per-thread FIFO contract allows, each sealed against the batch oracle by
//! the equivalence harness (`equivalence/mod.rs`).

mod equivalence;

use equivalence::{seal_random, Order, Plan};
use proptest::prelude::*;

proptest! {
    /// One sub per `ingest`, each from a random thread.
    #[test]
    fn incremental_resolution_matches_batch_over_random_interleavings(seed in any::<u64>()) {
        seal_random(seed, 1, |_, rng| Plan {
            order: Order::Interleaved,
            threshold: 0,
            ..Plan::random(rng)
        });
    }

    /// Whole threads back to back in reverse thread order, the most skewed
    /// delivery the per-thread FIFO contract allows.
    #[test]
    fn adversarial_whole_thread_delivery_still_matches_batch(seed in any::<u64>()) {
        seal_random(seed, 1, |_, rng| Plan {
            order: Order::ReversedThreads,
            threshold: 0,
            ..Plan::random(rng)
        });
    }

    /// Three deliveries of one schedule, each into a fresh builder that
    /// must count exactly its own ingests.
    #[test]
    fn each_delivery_seals_the_oracle_on_a_fresh_builder(seed in any::<u64>()) {
        seal_random(seed, 3, |_, rng| Plan { threshold: 0, ..Plan::random(rng) });
    }
}
