//! The spill tier under the equivalence harness (`equivalence/mod.rs`):
//! over random schedules and deliveries, every spilling threshold and
//! durability tier seals the batch oracle's graph, and a real session at
//! threshold 1 keeps its resident window below its trace.

mod equivalence;
#[path = "equivalence/session.rs"]
mod session;

use equivalence::{seal_random, Plan};
use proptest::prelude::*;
use session::run_counter_session;

proptest! {
    /// Any spilling threshold {1, 2, 4, 16} and durability tier, over the
    /// rest of the space.
    #[test]
    fn spilled_build_matches_batch_over_random_everything(seed in any::<u64>()) {
        seal_random(seed, 1, |_, rng| Plan {
            threshold: [1, 2, 4, 16][rng.below(4) as usize],
            ..Plan::random(rng)
        });
    }

    /// Producer pools of 1, 2 and 4 OS threads, each spilling after every
    /// ingest.
    #[test]
    fn concurrent_producer_pools_spill_and_still_match_batch(seed in any::<u64>()) {
        seal_random(seed, 3, |i, rng| Plan {
            pool: [1, 2, 4][i],
            threshold: 1,
            ..Plan::random(rng)
        });
    }

    /// Three deliveries of one schedule, each into a fresh builder spilling
    /// at threshold 2 in its own directory.
    #[test]
    fn each_spilled_delivery_seals_the_oracle_on_a_fresh_builder(seed in any::<u64>()) {
        seal_random(seed, 3, |_, rng| Plan { threshold: 2, ..Plan::random(rng) });
    }
}

/// Real sessions spilling after every ingest, app workers {1, 4, 8} × ingest
/// pool {1, 4}.
#[test]
fn session_with_spill_threshold_one_bounds_the_window() {
    for workers in [1u64, 4, 8] {
        for pool in [1usize, 4] {
            let (report, context) = run_counter_session(workers, pool, 1);
            let s = &report.stats;
            // At threshold 1 a batch, one thread's, is resident only until
            // its own round, so at most `pool` threads' batches are: the
            // window is below the trace once the run has more threads (the
            // workers and the main thread) than that.
            if workers as usize + 1 > pool {
                assert!(
                    s.peak_resident_subs < s.recorder.subcomputations,
                    "{context}: peak resident {} of {} recorded",
                    s.peak_resident_subs,
                    s.recorder.subcomputations
                );
            }
        }
    }
}
