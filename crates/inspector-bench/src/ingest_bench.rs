//! Streaming-ingest measurement plumbing shared by the `cpg_ingest` /
//! `seal_latency` / `pt_decode` micro-benchmarks and the `bench_ingest`
//! binary that records the numbers into `BENCH_ingest.json`.
//!
//! The CPG half measures one object: [`ShardedCpgBuilder`] fed by a
//! producer pool whose worker `w` owns the application threads with
//! `index % pool == w` — the exact lane routing the runtime's ingest pool
//! uses, so per-thread delivery stays FIFO while different threads'
//! provenance lands concurrently. The decode half measures the other hot
//! consumer on those lanes: the [`StreamingDecoder`] the decode-online
//! stage runs per thread, against the batch [`PacketDecoder`] reference.

use std::time::{Duration, Instant};

use inspector_core::graph::{Cpg, CpgBuilder};
use inspector_core::sharded::{IngestStats, ShardedCpgBuilder};
use inspector_core::spill::{SpillDurability, SpillSettings};
use inspector_core::subcomputation::SubComputation;
use inspector_core::testing::announce_all;
use inspector_pt::branch::BranchEvent;
use inspector_pt::decode::PacketDecoder;
use inspector_pt::encode::PacketEncoder;
use inspector_pt::stream::StreamingDecoder;

/// Streams `sequences` into a fresh builder from a `pool`-wide producer
/// pool and seals. `pool == 1` reproduces the single-ingest-thread
/// baseline shape (PR 1's pipeline).
pub fn ingest_with_pool(sequences: &[Vec<SubComputation>], pool: usize, shards: usize) -> Cpg {
    measure_pooled_build(sequences, pool, shards).cpg
}

/// [`ingest_with_pool`] through [`ShardedCpgBuilder::ingest_batch`]: each
/// producer hands the builder α-contiguous batches of up to `batch`
/// sub-computations per call, so stripe locking amortises across the batch
/// (a shape for replay and offline rebuilds; the runtime's lanes carry one
/// sub-computation per message).
pub fn ingest_with_pool_batched(
    sequences: &[Vec<SubComputation>],
    pool: usize,
    shards: usize,
    batch: usize,
) -> Cpg {
    let builder = ShardedCpgBuilder::with_shards(shards);
    announce_all(&builder, sequences);
    let batch = batch.max(1);
    std::thread::scope(|scope| {
        for worker in 0..pool.max(1) {
            let builder = &builder;
            let lanes: Vec<Vec<SubComputation>> = sequences
                .iter()
                .enumerate()
                .filter(|(t, _)| t % pool.max(1) == worker)
                .map(|(_, seq)| seq.clone())
                .collect();
            scope.spawn(move || {
                let mut cursors: Vec<std::iter::Peekable<std::vec::IntoIter<SubComputation>>> =
                    lanes
                        .into_iter()
                        .map(|s| s.into_iter().peekable())
                        .collect();
                let mut progressed = true;
                while progressed {
                    progressed = false;
                    for cursor in &mut cursors {
                        let chunk: Vec<SubComputation> = cursor.by_ref().take(batch).collect();
                        if !chunk.is_empty() {
                            builder.ingest_batch(chunk);
                            progressed = true;
                        }
                    }
                }
            });
        }
    });
    builder.seal()
}

/// A bench-unique spill directory under the system temp dir.
fn bench_spill_dir() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "inspector-bench-spill-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// One timed pooled build, with the phases split out.
pub struct PooledBuild {
    /// The sealed graph.
    pub cpg: Cpg,
    /// Wall time of ingestion (pool start to last producer done).
    pub ingest_time: Duration,
    /// Wall time of the seal alone.
    pub seal_time: Duration,
    /// The build's final counters.
    pub stats: IngestStats,
}

/// Streams `sequences` from a `pool`-wide producer pool into a builder with
/// `shards` stripes, seals, and reports the timing split.
pub fn measure_pooled_build(
    sequences: &[Vec<SubComputation>],
    pool: usize,
    shards: usize,
) -> PooledBuild {
    measure_build_with_spill(sequences, pool, shards, 0)
}

/// [`measure_pooled_build`] with the spill stage enabled at `threshold`
/// (0 keeps everything resident — the plain pooled build).
pub fn measure_build_with_spill(
    sequences: &[Vec<SubComputation>],
    pool: usize,
    shards: usize,
    spill_threshold: usize,
) -> PooledBuild {
    measure_build_with_durability(
        sequences,
        pool,
        shards,
        spill_threshold,
        SpillDurability::None,
    )
}

/// [`measure_build_with_spill`] with the spill tier's durability policy
/// selected, so the artefact can price what `flush`/`fsync` cost over the
/// page-cache default.
pub fn measure_build_with_durability(
    sequences: &[Vec<SubComputation>],
    pool: usize,
    shards: usize,
    spill_threshold: usize,
    durability: SpillDurability,
) -> PooledBuild {
    let spill = (spill_threshold > 0).then(|| {
        SpillSettings::new(spill_threshold, bench_spill_dir()).with_durability(durability)
    });
    let builder = ShardedCpgBuilder::with_shards_and_spill(shards, spill);
    announce_all(&builder, sequences);
    let ingest_start = Instant::now();
    if pool <= 1 {
        for seq in sequences {
            for sub in seq.clone() {
                builder.ingest(sub);
            }
        }
    } else {
        std::thread::scope(|scope| {
            for worker in 0..pool {
                let builder = &builder;
                let lanes: Vec<Vec<SubComputation>> = sequences
                    .iter()
                    .enumerate()
                    .filter(|(t, _)| t % pool == worker)
                    .map(|(_, seq)| seq.clone())
                    .collect();
                scope.spawn(move || {
                    // Round-robin across this worker's threads, FIFO within
                    // each thread — the shape a live run produces.
                    let mut cursors: Vec<std::vec::IntoIter<SubComputation>> =
                        lanes.into_iter().map(|s| s.into_iter()).collect();
                    let mut progressed = true;
                    while progressed {
                        progressed = false;
                        for cursor in &mut cursors {
                            if let Some(sub) = cursor.next() {
                                builder.ingest(sub);
                                progressed = true;
                            }
                        }
                    }
                });
            }
        });
    }
    let ingest_time = ingest_start.elapsed();
    let seal_start = Instant::now();
    let cpg = builder.seal();
    let seal_time = seal_start.elapsed();
    let stats = builder.last_sealed_stats().expect("sealed exactly once");
    PooledBuild {
        cpg,
        ingest_time,
        seal_time,
        stats,
    }
}

/// One cell of the pool-size × shard-count grid recorded in
/// `BENCH_ingest.json`.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// Producer-pool width.
    pub pool: usize,
    /// Builder stripe count.
    pub shards: usize,
    /// Best-of-N total construction time (ingest + seal) per
    /// sub-computation, in nanoseconds.
    pub total_ns_per_sub: f64,
    /// Best-of-N seal time per sub-computation, in nanoseconds.
    pub seal_ns_per_sub: f64,
    /// Data edges the seal still had to resolve, worst repeat. Must be 0 —
    /// the pooled delivery is complete before sealing — and
    /// [`measure_grid_cell`] asserts it, so a recorded nonzero can only
    /// come from a hand-edited artefact.
    pub data_resolved_at_seal: u64,
}

/// Measures one grid cell: `repeats` pooled builds, keeping the best total
/// and best seal time (standard minimum-of-N noise rejection) and the
/// *worst* `data_resolved_at_seal`.
pub fn measure_grid_cell(
    sequences: &[Vec<SubComputation>],
    pool: usize,
    shards: usize,
    repeats: usize,
) -> GridCell {
    let subs: usize = sequences.iter().map(|s| s.len()).sum();
    let mut best_total = Duration::MAX;
    let mut best_seal = Duration::MAX;
    let mut data_resolved_at_seal = 0;
    for _ in 0..repeats.max(1) {
        let build = measure_pooled_build(sequences, pool, shards);
        assert_eq!(build.cpg.node_count(), subs, "pooled build lost nodes");
        best_total = best_total.min(build.ingest_time + build.seal_time);
        best_seal = best_seal.min(build.seal_time);
        data_resolved_at_seal = data_resolved_at_seal.max(build.stats.data_resolved_at_seal);
    }
    assert_eq!(
        data_resolved_at_seal, 0,
        "complete pooled delivery must leave nothing for the seal \
         (pool={pool}, shards={shards})"
    );
    GridCell {
        pool,
        shards,
        total_ns_per_sub: best_total.as_nanos() as f64 / subs as f64,
        seal_ns_per_sub: best_seal.as_nanos() as f64 / subs as f64,
        data_resolved_at_seal,
    }
}

/// One row of the `spill` section in `BENCH_ingest.json`: a pooled build
/// with the spill stage enabled, so the artefact tracks what bounding
/// resident memory costs (throughput) and buys (peak resident window).
#[derive(Debug, Clone)]
pub struct SpillCell {
    /// Spill threshold the build ran with (0 = spilling off).
    pub threshold: usize,
    /// Best-of-N total construction time (ingest + seal) per
    /// sub-computation, nanoseconds.
    pub total_ns_per_sub: f64,
    /// Spill-stage write bandwidth, MiB of encoded records per second of
    /// spill time (best repeat). Zero when nothing spilled.
    pub spill_mib_per_sec: f64,
    /// Sub-computations spilled (worst repeat — they should all match).
    pub spilled_subs: u64,
    /// Bytes appended to the spill segments.
    pub spill_bytes: u64,
    /// Largest resident sub-computation count observed.
    pub peak_resident_subs: u64,
    /// Total sub-computations streamed.
    pub subcomputations: usize,
}

/// Measures one spill cell: `repeats` pooled builds with the spill stage at
/// `threshold`, keeping the best total time and the best spill bandwidth.
pub fn measure_spill_cell(
    sequences: &[Vec<SubComputation>],
    pool: usize,
    shards: usize,
    threshold: usize,
    repeats: usize,
) -> SpillCell {
    let subs: usize = sequences.iter().map(|s| s.len()).sum();
    let mut best_total = Duration::MAX;
    let mut best_mib_per_sec = 0.0f64;
    let mut spilled_subs = 0;
    let mut spill_bytes = 0;
    let mut peak_resident = 0;
    for _ in 0..repeats.max(1) {
        let build = measure_build_with_spill(sequences, pool, shards, threshold);
        assert_eq!(build.cpg.node_count(), subs, "spilled build lost nodes");
        best_total = best_total.min(build.ingest_time + build.seal_time);
        let spill_secs = build.stats.spill_time.as_secs_f64();
        if build.stats.spill_bytes > 0 && spill_secs > 0.0 {
            let mib = build.stats.spill_bytes as f64 / (1024.0 * 1024.0);
            best_mib_per_sec = best_mib_per_sec.max(mib / spill_secs);
        }
        spilled_subs = spilled_subs.max(build.stats.spilled_subs);
        spill_bytes = spill_bytes.max(build.stats.spill_bytes);
        peak_resident = peak_resident.max(build.stats.peak_resident_subs);
    }
    SpillCell {
        threshold,
        total_ns_per_sub: best_total.as_nanos() as f64 / subs as f64,
        spill_mib_per_sec: best_mib_per_sec,
        spilled_subs,
        spill_bytes,
        peak_resident_subs: peak_resident,
        subcomputations: subs,
    }
}

/// One row of the `spill_durability` section in `BENCH_ingest.json`: the
/// same spilling build measured under each [`SpillDurability`] policy, so
/// the artefact prices what crash-durable spill segments cost over the
/// page-cache default.
#[derive(Debug, Clone)]
pub struct DurabilityCell {
    /// Durability policy the build ran with (`none` / `flush` / `fsync`).
    pub durability: &'static str,
    /// Spill threshold the cell ran at (part of the comparison key: a
    /// quick-shape row must never be gated against a full-shape row).
    pub threshold: usize,
    /// Best-of-N total construction time (ingest + seal) per
    /// sub-computation, nanoseconds.
    pub total_ns_per_sub: f64,
    /// Sub-computations spilled (worst repeat — they should all match).
    pub spilled_subs: u64,
    /// Total sub-computations streamed.
    pub subcomputations: usize,
}

/// Measures one durability cell: `repeats` pooled builds spilling at
/// `threshold` under the given durability policy, keeping the best total.
pub fn measure_durability_cell(
    sequences: &[Vec<SubComputation>],
    pool: usize,
    shards: usize,
    threshold: usize,
    durability: SpillDurability,
    repeats: usize,
) -> DurabilityCell {
    let subs: usize = sequences.iter().map(|s| s.len()).sum();
    let mut best_total = Duration::MAX;
    let mut spilled_subs = 0;
    for _ in 0..repeats.max(1) {
        let build = measure_build_with_durability(sequences, pool, shards, threshold, durability);
        assert_eq!(
            build.cpg.node_count(),
            subs,
            "durable spilled build lost nodes"
        );
        best_total = best_total.min(build.ingest_time + build.seal_time);
        spilled_subs = spilled_subs.max(build.stats.spilled_subs);
    }
    DurabilityCell {
        durability: durability.as_str(),
        threshold,
        total_ns_per_sub: best_total.as_nanos() as f64 / subs as f64,
        spilled_subs,
        subcomputations: subs,
    }
}

/// One `index_residency` row in `BENCH_ingest.json`: live vs GC'd release
/// and page-write index entries after fully ingesting an interleaved
/// ping-pong run of the given length, measured right before the seal. With
/// the frontier GC the live counts stay flat as `iterations` grows while
/// the GC'd counts absorb the O(events) bulk — the memory-bound claim for
/// unbounded runs.
#[derive(Debug, Clone)]
pub struct ResidencyCell {
    /// Ping-pong rounds per thread.
    pub iterations: u64,
    /// Total sub-computations streamed.
    pub subcomputations: usize,
    /// Release-index entries still live at the end of ingestion.
    pub release_entries_live: u64,
    /// Release-index entries the frontier GC dropped.
    pub release_entries_gcd: u64,
    /// Page-write-index entries still live at the end of ingestion.
    pub page_entries_live: u64,
    /// Page-write-index entries the frontier GC dropped.
    pub page_entries_gcd: u64,
}

/// Ingests a `threads`-way interleaved ping-pong run of `rounds` rounds
/// (causal round-robin delivery) and reports the index residency.
pub fn measure_index_residency(threads: u32, rounds: u64) -> ResidencyCell {
    let sequences = inspector_core::testing::ping_pong_sequences(threads, rounds);
    let subs: usize = sequences.iter().map(|s| s.len()).sum();
    let builder = ShardedCpgBuilder::with_shards(8);
    announce_all(&builder, &sequences);
    let mut cursors: Vec<std::vec::IntoIter<SubComputation>> =
        sequences.into_iter().map(|s| s.into_iter()).collect();
    let mut progressed = true;
    while progressed {
        progressed = false;
        for cursor in &mut cursors {
            if let Some(sub) = cursor.next() {
                builder.ingest(sub);
                progressed = true;
            }
        }
    }
    let stats = builder.stats();
    let cpg = builder.seal();
    assert_eq!(cpg.node_count(), subs, "residency build lost nodes");
    ResidencyCell {
        iterations: rounds,
        subcomputations: subs,
        release_entries_live: stats.release_entries_live,
        release_entries_gcd: stats.release_entries_gcd,
        page_entries_live: stats.page_entries_live,
        page_entries_gcd: stats.page_entries_gcd,
    }
}

/// Peak resident-set size of this process in KiB (`VmHWM` from
/// `/proc/self/status`), `None` where the file is unavailable (non-Linux).
/// Recorded alongside the spill section so the artefact pairs the builder's
/// logical window with the process-level high-water mark.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        line.strip_prefix("VmHWM:")?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()
    })
}

/// Best-of-N batch (`CpgBuilder::build`) construction time per
/// sub-computation, the offline reference.
pub fn measure_batch_ns_per_sub(sequences: &[Vec<SubComputation>], repeats: usize) -> f64 {
    let subs: usize = sequences.iter().map(|s| s.len()).sum();
    let mut best = Duration::MAX;
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        let mut builder = CpgBuilder::new();
        for seq in sequences {
            builder.add_thread(seq.clone());
        }
        std::hint::black_box(builder.build());
        best = best.min(start.elapsed());
    }
    best.as_nanos() as f64 / subs as f64
}

/// Deterministic mixed branch stream (the `pt_decode` bench input):
/// conditional-heavy with periodic indirect branches, the shape the
/// workloads produce. Returns the encoded bytes and the branch count.
pub fn encoded_branch_stream(branches: u64) -> (Vec<u8>, u64) {
    let mut enc = PacketEncoder::new();
    enc.begin(0x40_0000);
    for i in 0..branches {
        if i % 16 == 0 {
            enc.branch(&BranchEvent::Indirect {
                target: 0x40_0000 + (i % 64) * 16,
            });
        } else {
            enc.branch(&BranchEvent::Conditional { taken: i % 3 == 0 });
        }
    }
    (enc.finish(), branches)
}

/// One `pt_decode` measurement: batch vs streaming decode of the same byte
/// stream, the streaming side fed in `chunk_bytes`-sized chunks (the shape
/// AUX delivery produces).
#[derive(Debug, Clone)]
pub struct DecodeThroughput {
    /// Stream length in bytes.
    pub bytes: usize,
    /// Branch events the stream encodes.
    pub branches: u64,
    /// Chunk size the streaming decoder was fed with.
    pub chunk_bytes: usize,
    /// Best-of-N batch decode time for the whole stream, nanoseconds.
    pub batch_ns: f64,
    /// Best-of-N streaming decode time for the whole stream, nanoseconds.
    pub streaming_ns: f64,
}

impl DecodeThroughput {
    fn mib_per_sec(bytes: usize, ns: f64) -> f64 {
        (bytes as f64 / (1024.0 * 1024.0)) / (ns * 1e-9)
    }

    /// Batch decode bandwidth in MiB/s.
    pub fn batch_mib_per_sec(&self) -> f64 {
        Self::mib_per_sec(self.bytes, self.batch_ns)
    }

    /// Streaming decode bandwidth in MiB/s.
    pub fn streaming_mib_per_sec(&self) -> f64 {
        Self::mib_per_sec(self.bytes, self.streaming_ns)
    }

    /// Streaming decode rate in branch events per second.
    pub fn streaming_branches_per_sec(&self) -> f64 {
        self.branches as f64 / (self.streaming_ns * 1e-9)
    }
}

/// Measures batch vs streaming decode throughput over a deterministic
/// stream of `branches` branch events, best of `repeats`.
pub fn measure_decode_throughput(
    branches: u64,
    chunk_bytes: usize,
    repeats: usize,
) -> DecodeThroughput {
    let (bytes, branches) = encoded_branch_stream(branches);
    let mut batch_best = Duration::MAX;
    let mut streaming_best = Duration::MAX;
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        let events = PacketDecoder::new(&bytes).decode_events().expect("clean");
        batch_best = batch_best.min(start.elapsed());
        std::hint::black_box(events);

        let start = Instant::now();
        let mut dec = StreamingDecoder::new();
        let mut decoded = 0u64;
        for chunk in bytes.chunks(chunk_bytes.max(1)) {
            dec.push(chunk);
            while let Some(item) = dec.next_event() {
                item.expect("clean stream");
                decoded += 1;
            }
        }
        dec.finish();
        while let Some(item) = dec.next_event() {
            item.expect("clean stream");
            decoded += 1;
        }
        streaming_best = streaming_best.min(start.elapsed());
        assert_eq!(dec.stats().errors, 0);
        assert_eq!(
            dec.stats().branches,
            branches,
            "streaming decode must recover every encoded branch"
        );
        std::hint::black_box(decoded);
    }
    DecodeThroughput {
        bytes: bytes.len(),
        branches,
        chunk_bytes,
        batch_ns: batch_best.as_nanos() as f64,
        streaming_ns: streaming_best.as_nanos() as f64,
    }
}

/// One PSB-scan measurement: the swar word-at-a-time scan against the
/// byte-at-a-time reference over the same deterministic stream.
#[derive(Debug, Clone)]
pub struct PsbScanThroughput {
    /// Stream length in bytes.
    pub bytes: usize,
    /// Best-of-N full-stream walk with the swar scan, nanoseconds.
    pub swar_ns: f64,
    /// Best-of-N full-stream walk with the naive scan, nanoseconds.
    pub naive_ns: f64,
}

impl PsbScanThroughput {
    /// Swar scan bandwidth in MiB/s.
    pub fn swar_mib_per_sec(&self) -> f64 {
        (self.bytes as f64 / (1024.0 * 1024.0)) / (self.swar_ns * 1e-9)
    }

    /// Naive scan bandwidth in MiB/s.
    pub fn naive_mib_per_sec(&self) -> f64 {
        (self.bytes as f64 / (1024.0 * 1024.0)) / (self.naive_ns * 1e-9)
    }

    /// Swar-over-naive scan speedup factor.
    pub fn speedup(&self) -> f64 {
        self.naive_ns / self.swar_ns.max(f64::MIN_POSITIVE)
    }
}

/// Measures PSB-scan throughput over the deterministic stream, best of
/// `repeats` per scan. Both scans make the identical walk — restart one
/// past each hit, the way a decoder resynchronises repeatedly — and must
/// count the same number of hits.
pub fn measure_psb_scan_throughput(branches: u64, repeats: usize) -> PsbScanThroughput {
    use inspector_pt::packet::{find_psb, find_psb_naive};
    let (bytes, _) = encoded_branch_stream(branches);
    let walk = |scan: fn(&[u8]) -> Option<usize>| {
        let mut best = Duration::MAX;
        let mut hits = 0u64;
        for _ in 0..repeats.max(1) {
            let start = Instant::now();
            let mut pos = 0usize;
            hits = 0;
            while let Some(i) = scan(&bytes[pos..]) {
                hits += 1;
                pos += i + 1;
            }
            best = best.min(start.elapsed());
            std::hint::black_box(pos);
        }
        (best.as_nanos() as f64, hits)
    };
    let (swar_ns, swar_hits) = walk(find_psb);
    let (naive_ns, naive_hits) = walk(find_psb_naive);
    assert_eq!(swar_hits, naive_hits, "the scans must agree byte-for-byte");
    PsbScanThroughput {
        bytes: bytes.len(),
        swar_ns,
        naive_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn pooled_build_matches_batch_for_every_pool_width() {
        let sequences = inspector_core::testing::lock_heavy_sequences(4, 15, 8, 8);
        let mut batch = CpgBuilder::new();
        for seq in &sequences {
            batch.add_thread(seq.clone());
        }
        let reference = batch.build();
        let fingerprint =
            |cpg: &Cpg| -> BTreeSet<String> { cpg.edges().map(|e| format!("{e:?}")).collect() };
        for pool in [1usize, 2, 4] {
            let cpg = ingest_with_pool(&sequences, pool, 4);
            assert_eq!(cpg.node_count(), reference.node_count(), "pool={pool}");
            assert_eq!(fingerprint(&cpg), fingerprint(&reference), "pool={pool}");
        }
    }

    #[test]
    fn batched_pooled_build_matches_batch() {
        let sequences = inspector_core::testing::lock_heavy_sequences(4, 15, 8, 8);
        let mut batch = CpgBuilder::new();
        for seq in &sequences {
            batch.add_thread(seq.clone());
        }
        let reference = batch.build();
        let fingerprint =
            |cpg: &Cpg| -> BTreeSet<String> { cpg.edges().map(|e| format!("{e:?}")).collect() };
        for (pool, chunk) in [(1usize, 8usize), (2, 1), (4, 16)] {
            let cpg = ingest_with_pool_batched(&sequences, pool, 4, chunk);
            assert_eq!(
                fingerprint(&cpg),
                fingerprint(&reference),
                "pool={pool} chunk={chunk}"
            );
        }
    }

    #[test]
    fn index_residency_stays_flat_across_run_lengths() {
        let short = measure_index_residency(2, 50);
        let long = measure_index_residency(2, 400);
        assert!(long.subcomputations > 4 * short.subcomputations);
        assert!(long.release_entries_gcd > short.release_entries_gcd);
        // The live index does not grow with the run length (8x the events,
        // same O(threads) residual — slack for GC cadence only).
        assert!(
            long.release_entries_live <= short.release_entries_live * 2 + 256,
            "live release entries grew with run length: {} vs {}",
            long.release_entries_live,
            short.release_entries_live
        );
    }

    #[test]
    fn decode_throughput_measures_both_decoders() {
        let t = measure_decode_throughput(5_000, 4096, 1);
        assert!(t.bytes > 0);
        assert_eq!(t.branches, 5_000);
        assert!(t.batch_ns > 0.0 && t.streaming_ns > 0.0);
        assert!(t.batch_mib_per_sec() > 0.0);
        assert!(t.streaming_mib_per_sec() > 0.0);
        assert!(t.streaming_branches_per_sec() > 0.0);
    }

    #[test]
    fn psb_scan_measures_both_scans() {
        let t = measure_psb_scan_throughput(5_000, 1);
        assert!(t.bytes > 0);
        assert!(t.swar_mib_per_sec() > 0.0);
        assert!(t.naive_mib_per_sec() > 0.0);
        assert!(t.speedup() > 0.0);
    }

    #[test]
    fn spilled_pooled_build_matches_plain_build() {
        let sequences = inspector_core::testing::lock_heavy_sequences(4, 15, 8, 8);
        let plain = measure_pooled_build(&sequences, 2, 4);
        let spilled = measure_build_with_spill(&sequences, 2, 4, 1);
        let fingerprint =
            |cpg: &Cpg| -> BTreeSet<String> { cpg.edges().map(|e| format!("{e:?}")).collect() };
        assert_eq!(spilled.cpg.node_count(), plain.cpg.node_count());
        assert_eq!(fingerprint(&spilled.cpg), fingerprint(&plain.cpg));
        assert!(spilled.stats.spilled_subs > 0);
        assert_eq!(plain.stats.spilled_subs, 0);
    }

    #[test]
    fn spill_cell_reports_bounded_window() {
        let sequences = inspector_core::testing::lock_heavy_sequences(4, 20, 8, 8);
        let cell = measure_spill_cell(&sequences, 1, 4, 1, 1);
        assert!(cell.total_ns_per_sub > 0.0);
        assert!(cell.spilled_subs > 0);
        assert!(cell.spill_bytes > 0);
        assert!(cell.spill_mib_per_sec > 0.0);
        assert!(
            cell.peak_resident_subs < cell.subcomputations as u64,
            "spilling must keep the window below the trace length"
        );
    }

    #[test]
    fn durability_cell_is_lossless_under_every_policy() {
        let sequences = inspector_core::testing::lock_heavy_sequences(2, 12, 8, 8);
        for durability in [
            SpillDurability::None,
            SpillDurability::Flush,
            SpillDurability::Fsync,
        ] {
            let cell = measure_durability_cell(&sequences, 1, 4, 1, durability, 1);
            assert_eq!(cell.durability, durability.as_str());
            assert!(cell.total_ns_per_sub > 0.0);
            assert!(cell.spilled_subs > 0);
        }
    }

    #[test]
    fn peak_rss_is_reported_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_kib().unwrap_or(0) > 0);
        }
    }

    #[test]
    fn grid_cell_reports_complete_delivery() {
        let sequences = inspector_core::testing::lock_heavy_sequences(4, 10, 8, 8);
        let cell = measure_grid_cell(&sequences, 2, 4, 1);
        assert_eq!(cell.data_resolved_at_seal, 0);
        assert!(cell.total_ns_per_sub > 0.0);
        assert!(cell.seal_ns_per_sub > 0.0);
        assert!(cell.seal_ns_per_sub <= cell.total_ns_per_sub);
    }
}
