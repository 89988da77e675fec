//! The equivalence harness. The CPG is a function of its sub-computations
//! (paper §IV): the streaming builder's ingest only stores them, and its
//! seal runs the derivation the batch builder runs. So however a schedule is
//! delivered — any order that is FIFO per thread, any α-contiguous batching,
//! any pool of producer threads, any stripe count, any spill threshold and
//! durability tier — the sealed graph must be node- and edge-identical to
//! the batch `CpgBuilder::build()` oracle, and valid. A [`Plan`] is one such
//! delivery into a fresh builder, and [`check`] is the one comparison.
//!
//! The suites that include this module are its cases, each a named fixed
//! schedule or a restriction of [`Plan::random`]'s space:
//! `incremental_data_edges.rs` (in-memory orders), `index_gc.rs` (batches
//! and pools over the whole space), `spill_equivalence.rs` (spilling plans
//! and the threshold-1 session window) and `streaming_equivalence.rs` (fixed
//! shapes, degenerate streams and real sessions, `session.rs`).

use inspector::core::graph::Cpg;
use inspector::core::sharded::{IngestStats, ShardedCpgBuilder};
use inspector::core::spill::SpillSettings;
use inspector::core::subcomputation::SubComputation;
use inspector::core::testing::{
    batch_build, edge_fingerprint, ingest_round_robin, node_fingerprint, random_sequences, Rng,
    TempDir,
};
use inspector::prelude::*;

pub type Sequences = Vec<Vec<SubComputation>>;

/// How one producer hands its threads' sub-computations to the builder.
/// Every order is FIFO per thread.
#[derive(Debug, Clone, Copy)]
pub enum Order {
    /// One sub per `ingest`, each from a random thread.
    Interleaved,
    /// One `ingest_batch` of 1..=`max` α-contiguous subs at a time, each
    /// from a random thread.
    Batches(usize),
    /// One sub per `ingest`, cycling over the threads.
    RoundRobin,
    /// Whole threads back to back in reverse thread order, one sub per
    /// `ingest`: every reader arrives before the writers it depends on.
    ReversedThreads,
    /// Each whole thread as one `ingest_batch`.
    WholeThreads,
}

/// One delivery of a schedule into a fresh builder, sealed once.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub order: Order,
    /// Producer OS threads. Producer `w` delivers the threads with
    /// `index % pool == w`, as the runtime routes its lanes.
    pub pool: usize,
    pub stripes: usize,
    /// Spill threshold (0: no spill tier), with 256-byte segments so that
    /// segments roll constantly.
    pub threshold: usize,
    /// The spill tier's durability; ignored without a spill tier.
    pub durability: SpillDurability,
    /// Seeds the random orders.
    pub seed: u64,
}

impl Plan {
    /// A random plan: any order (batches of 1..=7), pool {1, 2, 4},
    /// 1..=8 stripes, threshold {0, 1, 2, 4, 16} and any durability tier.
    /// A case narrows the space by overriding fields.
    pub fn random(rng: &mut Rng) -> Self {
        let order = match rng.below(5) {
            0 => Order::Interleaved,
            1 => Order::Batches(1 + rng.below(7) as usize),
            2 => Order::RoundRobin,
            3 => Order::ReversedThreads,
            _ => Order::WholeThreads,
        };
        Plan {
            order,
            pool: [1, 2, 4][rng.below(3) as usize],
            stripes: 1 + rng.below(8) as usize,
            threshold: [0, 1, 2, 4, 16][rng.below(5) as usize],
            durability: [
                SpillDurability::None,
                SpillDurability::Flush,
                SpillDurability::Fsync,
            ][rng.below(3) as usize],
            seed: rng.next_u64(),
        }
    }
}

/// One producer's delivery of `lanes` in `order`.
fn produce(builder: &ShardedCpgBuilder, order: Order, lanes: Sequences, rng: &mut Rng) {
    let ingest = |sub| builder.ingest(sub);
    match order {
        Order::Interleaved => random_batches(lanes, 1, rng, |b| b.into_iter().for_each(ingest)),
        Order::Batches(max) => random_batches(lanes, max, rng, |b| builder.ingest_batch(b)),
        Order::RoundRobin => ingest_round_robin(builder, lanes, |_| {}),
        Order::ReversedThreads => lanes.into_iter().rev().flatten().for_each(ingest),
        Order::WholeThreads => lanes.into_iter().for_each(|seq| builder.ingest_batch(seq)),
    }
}

/// Hands `deliver` batches of 1..=`max` α-contiguous subs, each from a
/// random lane, until every lane is empty.
fn random_batches(
    lanes: Sequences,
    max: usize,
    rng: &mut Rng,
    mut deliver: impl FnMut(Vec<SubComputation>),
) {
    let mut cursors: Vec<_> = lanes.into_iter().map(Vec::into_iter).collect();
    let mut remaining: usize = cursors.iter().map(ExactSizeIterator::len).sum();
    while remaining > 0 {
        let pick = rng.below(cursors.len() as u64) as usize;
        let take = 1 + rng.below(max as u64) as usize;
        let batch: Vec<_> = cursors[pick].by_ref().take(take).collect();
        remaining -= batch.len();
        deliver(batch);
    }
}

/// Delivers `sequences` into a fresh builder as `plan` says and seals it.
fn deliver(plan: Plan, sequences: &[Vec<SubComputation>]) -> (Cpg, IngestStats) {
    let dir = TempDir::new("equivalence");
    let spill = (plan.threshold > 0).then(|| SpillSettings {
        segment_bytes: 256,
        ..SpillSettings::new(plan.threshold, dir.path()).with_durability(plan.durability)
    });
    let builder = ShardedCpgBuilder::with_shards_and_spill(plan.stripes, spill);
    std::thread::scope(|scope| {
        for producer in 0..plan.pool {
            let lanes = sequences.iter().skip(producer).step_by(plan.pool);
            let lanes: Sequences = lanes.cloned().collect();
            let mut rng = Rng(plan.seed ^ producer as u64);
            let builder = &builder;
            scope.spawn(move || produce(builder, plan.order, lanes, &mut rng));
        }
    });
    let sealed = builder.seal();
    (sealed, builder.last_sealed_stats().expect("sealed once"))
}

/// The one comparison: same nodes, same edges, and a valid graph.
pub fn assert_identical(streamed: &Cpg, reference: &Cpg, context: &str) {
    assert_eq!(streamed.node_count(), reference.node_count(), "{context}");
    assert!(
        node_fingerprint(streamed) == node_fingerprint(reference),
        "{context}: node sets differ"
    );
    assert_eq!(streamed.edge_count(), reference.edge_count(), "{context}");
    assert!(
        edge_fingerprint(streamed) == edge_fingerprint(reference),
        "{context}: edge sets differ"
    );
    assert_eq!(streamed.validate(), Ok(()), "{context}");
}

/// Runs `plan` over `sequences`, the schedule `label` names, and checks
/// the sealed graph against `reference`, their batch build, and the build's
/// counters against the plan. Returns the counters.
pub fn check(
    label: &str,
    plan: Plan,
    sequences: &[Vec<SubComputation>],
    reference: &Cpg,
) -> IngestStats {
    let (sealed, stats) = deliver(plan, sequences);
    let context = format!("{label}/{plan:?}: {stats:?}");
    assert_identical(&sealed, reference, &context);
    // The builder is fresh: it counts exactly its own ingests.
    assert_eq!(stats.ingested as usize, reference.node_count(), "{context}");
    assert_eq!(stats.spill_fallbacks, 0, "{context}: a clean plan degraded");
    // A stripe spills once it holds `threshold` subs, and with more than
    // `(threshold - 1) * stripes` nodes some stripe does.
    let must_spill =
        plan.threshold > 0 && reference.node_count() > (plan.threshold - 1) * plan.stripes;
    if plan.threshold == 0 || must_spill {
        assert_eq!(stats.spilled_subs > 0, must_spill, "{context}");
        assert_eq!(stats.spill_bytes > 0, must_spill, "{context}");
    }
    let resident = stats.peak_resident_subs > 0;
    assert_eq!(resident, reference.node_count() > 0, "{context}");
    stats
}

/// The random schedule `seed` makes, delivered by `plans` plans, each into
/// a fresh builder. `draw` makes plan `i` from a generator seeded by
/// `seed`, usually by narrowing [`Plan::random`].
pub fn seal_random(seed: u64, plans: usize, mut draw: impl FnMut(usize, &mut Rng) -> Plan) {
    let sequences = random_sequences(seed, 30..120);
    let reference = batch_build(&sequences);
    let label = format!("seed={seed}");
    let mut rng = Rng(seed ^ 0x5EED);
    for i in 0..plans {
        check(&label, draw(i, &mut rng), &sequences, &reference);
    }
}
