//! Random schedules under batched and pooled delivery, with and without a
//! spill tier, each sealed against the batch oracle by the equivalence
//! harness (`equivalence/mod.rs`). The builder keeps no release or
//! page-write index, so there is no index to collect: ingest appends each
//! α-contiguous batch to its thread's run and the seal derives every edge.

mod equivalence;

use equivalence::{seal_random, Order, Plan};
use proptest::prelude::*;

proptest! {
    /// Random batches of 1..=7 subs over the rest of the space: any pool,
    /// stripe count, spill threshold and durability tier.
    #[test]
    fn gcd_build_matches_batch_over_random_everything(seed in any::<u64>()) {
        seal_random(seed, 1, |_, rng| Plan {
            order: Order::Batches(1 + rng.below(7) as usize),
            ..Plan::random(rng)
        });
    }

    /// Producer pools of 2 and 4 OS threads with a spill round after every
    /// ingest: races between appends, spill rounds and segment rolls must
    /// never cost a node or an edge.
    #[test]
    fn concurrent_pools_with_aggressive_gc_match_batch(seed in any::<u64>()) {
        seal_random(seed, 2, |i, rng| Plan {
            pool: [2, 4][i],
            threshold: 1,
            ..Plan::random(rng)
        });
    }
}
