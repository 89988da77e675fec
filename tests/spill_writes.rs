//! An exact work counter for the spill tier's unit of I/O: `write` calls on
//! segment files, counted by the store beside each `write_all`
//! (`IngestStats::spill_writes`).
//!
//! A round — every resident node of the stripe, framed back to back — is
//! committed with one `write`. Wall
//! time on a shared box cannot pin that; a count can: it is the same on
//! every runner, so one `write` per record (what the tier did before: ≈ 240 k
//! calls for `reverse_index` Small, ≈ 12 k now) fails here.

use inspector::core::sharded::ShardedCpgBuilder;
use inspector::core::spill::{read_manifest, SpillDurability, SpillSettings};
use inspector::core::testing::{ingest_round_robin, ping_pong_sequences, TempDir};

#[test]
fn a_spill_round_costs_one_write_and_a_segment_one_more() {
    // 3 threads × 401 sub-computations, one producer, threshold 8, segments
    // small enough to roll a few times per shard.
    let sequences = ping_pong_sequences(3, 200);
    let tmp = TempDir::new("spill-writes");
    let dir = tmp.path();
    let settings = SpillSettings {
        segment_bytes: 16 << 10,
        ..SpillSettings::new(8, dir)
    };
    let builder = ShardedCpgBuilder::with_shards_and_spill(2, Some(settings));

    // An ingest runs at most one round, and a round that spilled anything
    // moves `spilled_subs`: count the rounds from outside.
    let mut rounds = 0u64;
    let mut spilled = 0u64;
    ingest_round_robin(&builder, sequences, |builder| {
        let now = builder.stats().spilled_subs;
        rounds += u64::from(now > spilled);
        spilled = now;
    });
    let segments = std::fs::read_dir(dir)
        .expect("spill directory")
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().ends_with(".spill"))
        .count() as u64;
    let stats = builder.stats();
    assert!(
        rounds > 50 && segments > 2,
        "{rounds} rounds, {segments} segments"
    );
    assert_eq!(stats.spill_fallbacks, 0, "{stats:?}");
    assert_eq!(
        stats.spill_writes,
        rounds + segments,
        "one write per round plus one header per segment: {stats:?}"
    );
    assert!(
        stats.spill_writes < stats.spilled_subs / 4,
        "{} writes for {} spilled sub-computations",
        stats.spill_writes,
        stats.spilled_subs
    );

    // A clean seal replays and deletes; it writes nothing.
    builder.seal();
    let sealed = builder.last_sealed_stats().expect("sealed");
    assert_eq!(sealed.spill_writes, stats.spill_writes);
    assert!(!dir.exists());
}

/// When a round republishes `MANIFEST` is the durability policy, and it is
/// what keeps the durability hooks free for a tier that promises nothing:
/// under `None` only a round that opened a segment publishes, under `Flush`
/// every committed round does (the manifest is its durable frontier). A
/// retaining seal completes both to the whole graph.
#[test]
fn only_a_durable_tier_republishes_the_manifest_every_round() {
    let sequences = ping_pong_sequences(3, 200);
    let subs: u64 = sequences.iter().map(|s| s.len() as u64).sum();
    for durability in [SpillDurability::None, SpillDurability::Flush] {
        // One shard and one segment that never rolls, so exactly one round
        // (the first) opens a segment.
        let tmp = TempDir::new("spill-manifest");
        let dir = tmp.path();
        let settings = SpillSettings {
            segment_bytes: 1 << 30,
            ..SpillSettings::new(8, dir)
                .with_durability(durability)
                .with_retain_on_seal(true)
        };
        let builder = ShardedCpgBuilder::with_shards_and_spill(1, Some(settings));
        let mut rounds = 0u64;
        let mut first_round = 0u64;
        let mut spilled = 0u64;
        ingest_round_robin(&builder, sequences.clone(), |builder| {
            let now = builder.stats().spilled_subs;
            if now > spilled {
                rounds += 1;
                if first_round == 0 {
                    first_round = now;
                }
            }
            spilled = now;
        });
        let named = || -> u64 {
            let manifest = read_manifest(dir).expect("readable").expect("published");
            manifest.thread_counts.values().sum()
        };
        let stats = builder.stats();
        assert_eq!(stats.spill_fallbacks, 0, "{durability:?}: {stats:?}");
        assert_eq!(
            stats.spill_writes,
            rounds + 1,
            "{durability:?}: {rounds} rounds in one segment"
        );
        assert!(rounds > 50, "{durability:?}: {rounds} rounds");
        let expected = match durability {
            SpillDurability::None => first_round,
            _ => stats.spilled_subs,
        };
        assert_eq!(named(), expected, "{durability:?}: {stats:?}");
        assert!(first_round < stats.spilled_subs);

        builder.seal();
        assert_eq!(named(), subs, "{durability:?}: retained seal");
    }
}
