//! Crash-consistency property suite: for any schedule × spill threshold ×
//! injected crash point, offline recovery of the surviving spill directory
//!
//! 1. **terminates** and never panics on damaged input,
//! 2. rebuilds a CPG **node- and edge-identical to the batch oracle** over
//!    the recovered consistent prefix (which is a true prefix of the
//!    sealed graph — the in-process session lost nothing, so the sealed
//!    graph doubles as ground truth),
//! 3. **accounts every byte**: `total = headers + recovered + lost`, with
//!    `total` equal to what is actually on disk,
//!
//! and recovering a cleanly sealed, retained directory reproduces the
//! sealed graph *exactly*. Torn tails (truncation at a random offset) and
//! bit rot (a flipped byte, caught by the per-record CRC) degrade the
//! recovered graph to a smaller consistent prefix, never to an error.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use inspector::core::graph::{Cpg, CpgBuilder};
use inspector::core::sharded::ShardedCpgBuilder;
use inspector::core::spill::{
    segment_file_name, SpillSettings, RECORD_OVERHEAD_BYTES, SEGMENT_HEADER_BYTES,
};
use inspector::core::subcomputation::SubComputation;
use inspector::core::testing::{
    edge_fingerprint, ingest_round_robin, ping_pong_sequences, Rng, TempDir,
};
use inspector::prelude::*;
use proptest::prelude::*;

/// The batch oracle over a frontier-truncated slice of a sealed graph:
/// each thread's sequence cut at the recovered consistent frontier, re-fed
/// to the offline builder. Whatever recovery reconstructed from disk must
/// be node- and edge-identical to this.
fn oracle_prefix(sealed: &Cpg, frontier: &BTreeMap<u32, u64>) -> Cpg {
    let mut builder = CpgBuilder::new();
    for thread in sealed.threads() {
        let keep = *frontier.get(&(thread.index() as u32)).unwrap_or(&0) as usize;
        if keep == 0 {
            continue;
        }
        let seq: Vec<SubComputation> = sealed
            .thread_sequence(thread)
            .into_iter()
            .take(keep)
            .map(|id| sealed.node(id).expect("listed node exists").clone())
            .collect();
        builder.add_thread(seq);
    }
    builder.build()
}

/// Sum of the `*.spill` segment files in a directory — what "on disk"
/// means for the byte-accounting equation.
fn disk_spill_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().ends_with(".spill"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

fn spill_files(dir: &Path) -> Vec<std::path::PathBuf> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("spill dir readable")
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().ends_with(".spill"))
        .map(|e| e.path())
        .collect();
    files.sort();
    files
}

/// Runs a mutex-contended multithreaded workload sized by the rng and
/// returns the report; every lock/unlock closes a sub-computation, so the
/// shards fill and spill.
fn run_shaped(session: &InspectorSession, rng: &mut Rng) -> RunReport {
    let workers = 1 + rng.below(3);
    let iterations = 5 + rng.below(16);
    let region = session.map_region("counter", 8);
    let base = region.base();
    let lock = Arc::new(InspMutex::new());
    session.run(move |ctx| {
        let mut handles = Vec::new();
        for w in 0..workers {
            let lock = Arc::clone(&lock);
            handles.push(ctx.spawn(move |ctx| {
                for i in 0..iterations {
                    ctx.branch((i + w) % 2 == 0);
                    lock.lock(ctx);
                    let v = ctx.read_u64(base);
                    ctx.write_u64(base, v + 1);
                    lock.unlock(ctx);
                }
            }));
        }
        for h in handles {
            ctx.join(h);
        }
    })
}

/// The full recovery contract against a sealed ground truth: consistent
/// frontier within the durable one, graph ≡ oracle prefix, every byte
/// accounted, and `degraded()` exactly when something was left behind.
fn assert_recovery_contract(dir: &Path, sealed: &Cpg) -> Recovery {
    let on_disk = disk_spill_bytes(dir);
    let recovery = inspector::core::recover::recover_session(dir).expect("recovery I/O");
    let r = &recovery.report;

    // Byte accounting is exact, and "total" means the actual disk image.
    assert_eq!(r.total_bytes, on_disk, "{r:?}");
    assert_eq!(
        r.total_bytes,
        r.header_bytes + r.recovered_bytes + r.lost_bytes,
        "{r:?}"
    );

    // The consistent cut never exceeds what the manifest promised durable.
    for (thread, &kept) in &r.consistent_frontier {
        let durable = r.durable_frontier.get(thread).copied().unwrap_or(0);
        assert!(kept <= durable, "thread {thread}: {kept} > {durable}");
    }

    // The recovered per-thread sequences are literal prefixes of the
    // sealed graph's, and the edges re-derived over them equal the batch
    // oracle over the same prefix.
    for thread in recovery.cpg.threads() {
        let recovered_seq = recovery.cpg.thread_sequence(thread);
        let sealed_seq = sealed.thread_sequence(thread);
        assert!(recovered_seq.len() <= sealed_seq.len());
        assert_eq!(recovered_seq[..], sealed_seq[..recovered_seq.len()]);
    }
    let reference = oracle_prefix(sealed, &r.consistent_frontier);
    assert_eq!(recovery.cpg.node_count(), reference.node_count());
    assert_eq!(
        edge_fingerprint(&recovery.cpg),
        edge_fingerprint(&reference)
    );
    assert_eq!(recovery.cpg.node_count() as u64, r.recovered_nodes);
    recovery
}

proptest! {
    /// Tentpole property: schedule × threshold × crash point. The armed
    /// crash tears a record mid-append and freezes the manifest; the
    /// session itself survives (in-memory fallback, `spill_fallbacks`) so
    /// its sealed graph is the ground truth the recovered prefix is
    /// checked against. When the crash point lies past the run, the
    /// retained directory must instead recover *exactly*.
    #[test]
    fn any_crash_point_recovers_the_maximal_consistent_prefix(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let threshold = 1 + rng.below(6) as usize;
        let crash_at = 1 + rng.below(120);
        let durability = match rng.below(3) {
            0 => SpillDurability::None,
            1 => SpillDurability::Flush,
            _ => SpillDurability::Fsync,
        };
        let tmp = TempDir::new("crash-rec");
        let config = SessionConfig::inspector()
            .with_spill_threshold(threshold)
            .with_spill_dir(tmp.path())
            .with_spill_durability(durability)
            .with_spill_retain(true) // keep the image even if the crash never fires
            .with_fault_plan(FaultPlan { crash_at_spill: crash_at, ..FaultPlan::default() });
        let session = InspectorSession::new(config);
        let report = run_shaped(&session, &mut rng);
        let dir = session.spill_directory().expect("spilling session has a directory");
        prop_assert!(dir.is_dir(), "artifacts must outlive the seal");

        let crashed = report.stats.spill_fallbacks > 0;
        prop_assert_eq!(report.stats.degraded, crashed, "{:?}", report.stats);
        let recovery = assert_recovery_contract(&dir, &report.cpg);
        if crashed {
            prop_assert!(!recovery.report.manifest_clean);
            prop_assert!(recovery.report.degraded(), "{:?}", recovery.report);
        } else {
            // Crash point past the run: a clean retained image must
            // reproduce the sealed graph exactly, with zero loss.
            prop_assert!(recovery.report.manifest_clean);
            prop_assert!(!recovery.report.degraded(), "{:?}", recovery.report);
            prop_assert_eq!(recovery.cpg.node_count(), report.cpg.node_count());
            prop_assert_eq!(edge_fingerprint(&recovery.cpg), edge_fingerprint(&report.cpg));
        }
    }

    /// Satellite property: truncate a cleanly sealed image at a random
    /// byte offset — a torn tail. Recovery must degrade to a (possibly
    /// empty) consistent prefix with the chopped bytes accounted, never
    /// error or over-recover.
    #[test]
    fn truncation_at_any_offset_recovers_an_accounted_prefix(seed in any::<u64>()) {
        let mut rng = Rng(seed ^ 0x7A93);
        let tmp = TempDir::new("crash-rec");
        let config = SessionConfig::inspector()
            .with_spill_threshold(1 + rng.below(4) as usize)
            .with_spill_dir(tmp.path())
            .with_spill_retain(true);
        let session = InspectorSession::new(config);
        let report = run_shaped(&session, &mut rng);
        let dir = session.spill_directory().expect("spill directory");

        let files = spill_files(&dir);
        prop_assert!(!files.is_empty(), "retained seal leaves segments behind");
        let victim = &files[rng.below(files.len() as u64) as usize];
        let len = std::fs::metadata(victim).unwrap().len();
        let cut = rng.below(len + 1);
        let mut bytes = std::fs::read(victim).unwrap();
        bytes.truncate(cut as usize);
        std::fs::write(victim, &bytes).unwrap();

        let recovery = assert_recovery_contract(&dir, &report.cpg);
        if cut < len {
            // Something was chopped: the manifest names bytes that are no
            // longer on disk, so the report must say so.
            let r = &recovery.report;
            prop_assert!(r.missing_bytes > 0 || r.lost_bytes > 0, "{:?}", r);
            prop_assert!(r.degraded(), "{:?}", r);
        }
    }

    /// Satellite property: flip one byte anywhere in a cleanly sealed
    /// image — bit rot. The segment header check or the per-record CRC
    /// must catch it; recovery degrades to a consistent prefix with the
    /// poisoned bytes accounted.
    #[test]
    fn a_flipped_byte_is_caught_and_accounted(seed in any::<u64>()) {
        let mut rng = Rng(seed ^ 0xC4C1);
        let tmp = TempDir::new("crash-rec");
        let config = SessionConfig::inspector()
            .with_spill_threshold(1 + rng.below(4) as usize)
            .with_spill_dir(tmp.path())
            .with_spill_retain(true);
        let session = InspectorSession::new(config);
        let report = run_shaped(&session, &mut rng);
        let dir = session.spill_directory().expect("spill directory");

        let files = spill_files(&dir);
        prop_assert!(!files.is_empty());
        let victim = &files[rng.below(files.len() as u64) as usize];
        let mut bytes = std::fs::read(victim).unwrap();
        let at = rng.below(bytes.len() as u64) as usize;
        bytes[at] ^= 0xFF;
        std::fs::write(victim, &bytes).unwrap();

        let recovery = assert_recovery_contract(&dir, &report.cpg);
        let r = &recovery.report;
        prop_assert!(r.degraded(), "a flipped byte must be observable: {:?}", r);
        prop_assert!(
            r.bad_headers + r.crc_failures + r.torn_records + r.decode_failures > 0,
            "{:?}",
            r
        );
    }
}

/// One deterministic single-producer, single-shard build under the spill
/// settings of the end-to-end crash configuration (threshold 2, `flush`;
/// `tests/end_to_end.rs`), crashing after
/// `crash_at` records (0: never). `observe` runs after every ingest. Returns
/// the sealed graph and whether the crash fired.
fn build_crashing_at(
    dir: &Path,
    crash_at: u64,
    mut observe: impl FnMut(&ShardedCpgBuilder),
) -> (Cpg, bool) {
    let sequences = ping_pong_sequences(2, 6);
    let settings = SpillSettings {
        crash_after_records: crash_at,
        ..SpillSettings::new(2, dir).with_durability(SpillDurability::Flush)
    };
    let builder = ShardedCpgBuilder::with_shards_and_spill(1, Some(settings));
    ingest_round_robin(&builder, sequences, &mut observe);
    let crashed = builder.spill_crash_triggered();
    (builder.seal(), crashed)
}

/// The unit of I/O is a round, but the crash point still counts *records*:
/// for every `n`, a crash after `n` records leaves exactly the first `n`
/// frames of the uncrashed run, then frame `n + 1` cut to its length word
/// plus half its payload, and the manifest of the last cut before that —
/// the directory a per-record writer dying at the same point left behind.
#[test]
fn every_crash_point_leaves_the_frames_before_it_and_one_torn_frame() {
    // The uncrashed run: its segment image, and the manifest as published
    // at each cut (`flush` republishes at every one).
    let golden_tmp = TempDir::new("crash-rec");
    let golden_dir = golden_tmp.path();
    let segment = segment_file_name(0, 0);
    let mut golden = Vec::new();
    let mut cuts: Vec<(u64, u64, String)> = Vec::new(); // (records, bytes, manifest text)
    let (sealed, crashed) = build_crashing_at(golden_dir, 0, |_| {
        let text = std::fs::read_to_string(golden_dir.join("MANIFEST")).expect("manifest");
        if cuts.last().is_none_or(|(_, _, last)| *last != text) {
            let named = inspector::core::spill::parse_manifest(&text).expect("parsable");
            let (records, bytes) = named
                .segments
                .first()
                .map_or((0, 0), |s| (s.records, s.bytes));
            cuts.push((records, bytes, text));
            golden = std::fs::read(golden_dir.join(&segment)).unwrap_or_default();
        }
    });
    assert!(!crashed);
    assert!(!golden_dir.exists(), "a clean seal removes the directory");
    // Frame boundaries of the golden image.
    let mut frames = vec![SEGMENT_HEADER_BYTES as usize];
    while *frames.last().unwrap() < golden.len() {
        let at = *frames.last().unwrap();
        let len = u32::from_le_bytes(golden[at..at + 4].try_into().unwrap()) as usize;
        frames.push(at + len + RECORD_OVERHEAD_BYTES as usize);
    }
    let records = frames.len() as u64 - 1;
    assert_eq!(
        records,
        cuts.last().unwrap().0,
        "every spilled record is manifested"
    );
    assert!(cuts.len() > 3, "several rounds: {cuts:?}");
    // The end-to-end crash configuration arms `crash_at_spill: 5` at these
    // settings: the record it tears must sit inside a round, behind whole
    // frames of the same buffer, so that the torn-mid-buffer path is what
    // every test run exercises.
    assert!(
        cuts.iter().all(|&(at, _, _)| at != 5) && records > 5,
        "record 6 opens a round: {cuts:?}"
    );

    for n in 1..records {
        let tmp = TempDir::new("crash-rec");
        let dir = tmp.path();
        let (sealed_n, crashed) = build_crashing_at(dir, n, |_| {});
        assert!(crashed, "crash_at {n} of {records}");
        assert_eq!(
            edge_fingerprint(&sealed_n),
            edge_fingerprint(&sealed),
            "crash_at {n}"
        );
        // On disk: frames[..n], then the torn prefix of frame n + 1.
        let (whole, next) = (frames[n as usize], frames[n as usize + 1]);
        let payload = next - whole - RECORD_OVERHEAD_BYTES as usize;
        let expected = &golden[..whole + 4 + payload / 2];
        assert_eq!(
            std::fs::read(dir.join(&segment)).unwrap(),
            expected,
            "crash_at {n}"
        );
        // The manifest froze at the last cut the crash round did not reach.
        let (_, durable_bytes, manifest) = cuts.iter().rev().find(|(at, _, _)| *at <= n).unwrap();
        let frozen = std::fs::read_to_string(dir.join("MANIFEST")).unwrap();
        assert_eq!(&frozen, manifest, "crash_at {n}");

        let recovery = assert_recovery_contract(dir, &sealed_n);
        let r = &recovery.report;
        assert!(r.manifest_found && !r.manifest_clean, "crash_at {n}: {r:?}");
        assert_eq!(r.total_bytes, expected.len() as u64);
        assert_eq!(r.header_bytes, SEGMENT_HEADER_BYTES.min(*durable_bytes));
        assert_eq!(
            r.recovered_bytes,
            durable_bytes.saturating_sub(SEGMENT_HEADER_BYTES)
        );
        assert_eq!(
            r.unmanifested_bytes,
            r.total_bytes - durable_bytes,
            "crash_at {n}"
        );
        assert_eq!(r.lost_bytes, r.unmanifested_bytes);
        assert_eq!(
            r.torn_records + r.crc_failures + r.decode_failures,
            0,
            "{r:?}"
        );
    }

    // A crash point at or past the last record never fires.
    let tmp = TempDir::new("crash-rec");
    let (_, crashed) = build_crashing_at(tmp.path(), records, |_| {});
    assert!(!crashed && !tmp.path().exists());
}

/// A cleanly sealed, retained directory reproduces the sealed graph
/// exactly — nodes, edges, zero loss, `degraded()` false.
#[test]
fn clean_retained_directory_recovers_the_sealed_graph_exactly() {
    let tmp = TempDir::new("crash-rec");
    let config = SessionConfig::inspector()
        .with_spill_threshold(2)
        .with_spill_dir(tmp.path())
        .with_spill_retain(true);
    let session = InspectorSession::new(config);
    let report = run_shaped(&session, &mut Rng(42));
    assert!(!report.stats.degraded, "{:?}", report.stats);
    let dir = session.spill_directory().expect("spill directory");

    let recovery = assert_recovery_contract(&dir, &report.cpg);
    let r = &recovery.report;
    assert!(r.manifest_found && r.manifest_clean, "{r:?}");
    assert!(!r.degraded(), "{r:?}");
    assert_eq!(r.lost_bytes, 0);
    assert_eq!(r.excluded_nodes, 0);
    assert_eq!(recovery.cpg.node_count(), report.cpg.node_count());
    assert_eq!(
        edge_fingerprint(&recovery.cpg),
        edge_fingerprint(&report.cpg)
    );
}

/// A session's runs never share an image: each run spills into a
/// directory of its own, so the second run of a retaining session spills
/// again, and each directory recovers exactly the graph its run sealed.
#[test]
fn each_run_of_a_retaining_session_keeps_its_own_image() {
    let tmp = TempDir::new("crash-rec");
    let session = InspectorSession::new(
        SessionConfig::inspector()
            .with_spill_threshold(1)
            .with_spill_dir(tmp.path())
            .with_spill_retain(true),
    );
    let mut runs = Vec::new();
    for seed in [5, 6] {
        let report = run_shaped(&session, &mut Rng(seed));
        assert!(
            report.stats.spilled_subs > 0,
            "seed {seed}: {:?}",
            report.stats
        );
        assert!(!report.stats.degraded, "seed {seed}: {:?}", report.stats);
        let dir = session.spill_directory().expect("spill directory");
        runs.push((dir, report.cpg));
    }
    assert_ne!(runs[0].0, runs[1].0, "each run has its own directory");
    for (dir, sealed) in &runs {
        let recovery = inspector::core::recover::recover_session(dir).expect("recovery I/O");
        let r = &recovery.report;
        assert!(
            r.manifest_clean && !r.degraded(),
            "{}: {r:?}",
            dir.display()
        );
        assert!(recovery.cpg.nodes().eq(sealed.nodes()), "{}", dir.display());
        assert_eq!(edge_fingerprint(&recovery.cpg), edge_fingerprint(sealed));
    }
}

/// A stale `MANIFEST.tmp` left by an interrupted atomic rename is ignored:
/// recovery reads the last published manifest and still reproduces the
/// sealed graph exactly.
#[test]
fn stale_tmp_manifest_does_not_perturb_recovery() {
    let tmp = TempDir::new("crash-rec");
    let config = SessionConfig::inspector()
        .with_spill_threshold(2)
        .with_spill_dir(tmp.path())
        .with_spill_retain(true);
    let session = InspectorSession::new(config);
    let report = run_shaped(&session, &mut Rng(7));
    let dir = session.spill_directory().expect("spill directory");
    std::fs::write(dir.join("MANIFEST.tmp"), b"garbage from a dying writer").unwrap();

    let recovery = assert_recovery_contract(&dir, &report.cpg);
    assert!(!recovery.report.degraded(), "{:?}", recovery.report);
    assert_eq!(recovery.cpg.node_count(), report.cpg.node_count());
}

/// Satellite contract: a clean, non-retained seal removes its
/// session-unique spill directory; a crashed run keeps it — with the
/// manifest — for forensics.
#[test]
fn clean_seal_removes_the_directory_and_a_crash_keeps_it() {
    let tmp = TempDir::new("crash-rec");
    // Clean run, no retain: the directory is gone after the seal.
    let clean = InspectorSession::new(
        SessionConfig::inspector()
            .with_spill_threshold(1)
            .with_spill_dir(tmp.path()),
    );
    let report = run_shaped(&clean, &mut Rng(3));
    assert!(report.stats.spilled_subs > 0, "{:?}", report.stats);
    let dir = clean.spill_directory().expect("spill directory");
    assert!(!dir.exists(), "clean seal must not leak {}", dir.display());

    // Crashed run: directory, segments, and manifest survive.
    let crashed = InspectorSession::new(
        SessionConfig::inspector()
            .with_spill_threshold(1)
            .with_spill_dir(tmp.path())
            .with_fault_plan(FaultPlan {
                crash_at_spill: 3,
                ..FaultPlan::default()
            }),
    );
    let report = run_shaped(&crashed, &mut Rng(4));
    assert!(report.stats.spill_fallbacks > 0, "{:?}", report.stats);
    assert!(report.stats.degraded);
    let dir = crashed.spill_directory().expect("spill directory");
    assert!(dir.is_dir(), "forensics material must never be deleted");
    assert!(dir.join("MANIFEST").is_file(), "manifest kept for recovery");
    let recovery = inspector::core::recover::recover_session(&dir).expect("recovery I/O");
    assert!(recovery.report.manifest_found);
}

/// A crashed session keeps its spill directory for recovery on purpose;
/// the [`TempDir`] it was pointed at is what removes it.
#[test]
fn a_crashed_session_directory_is_gone_once_the_guard_drops() {
    let tmp = TempDir::new("crash-rec");
    let session = InspectorSession::new(
        SessionConfig::inspector()
            .with_spill_threshold(1)
            .with_spill_durability(SpillDurability::Flush)
            .with_spill_dir(tmp.path())
            .with_fault_plan(FaultPlan {
                crash_at_spill: 2,
                ..FaultPlan::default()
            }),
    );
    let report = run_shaped(&session, &mut Rng(11));
    assert!(report.stats.spill_fallbacks > 0, "{:?}", report.stats);
    assert!(report.stats.degraded);
    let dir = session.spill_directory().expect("spill directory");
    assert!(dir.starts_with(tmp.path()) && dir.is_dir());
    let recovery = inspector::core::recover::recover_session(&dir).expect("recovery I/O");
    assert!(recovery.report.degraded());
    drop(tmp);
    assert!(!dir.exists(), "{} outlived its guard", dir.display());
}

/// A thread's sub-computations with no synchronization shared with any
/// other thread: nothing it does depends on another thread's work.
fn independent_sequence(thread: u32, subs: u64) -> Vec<SubComputation> {
    use inspector::core::recorder::{SyncObject, ThreadRecorder};
    use inspector::core::{AccessKind, PageId, SyncKind, SyncObjectId, ThreadId};
    let object = SyncObject::new(SyncObjectId::new(u64::from(thread)));
    let mut rec = ThreadRecorder::new(ThreadId::new(thread));
    for i in 0..subs {
        let page = PageId::new(u64::from(thread) * 1_000 + i);
        rec.on_memory_access(page, AccessKind::Write);
        rec.on_synchronization(&object, SyncKind::Release);
    }
    rec.finish()
}

/// Cuts record `index` of the segment at `path` in the middle of its
/// payload (a negative index counts from the end).
fn tear_record(path: &Path, index: isize) {
    let bytes = std::fs::read(path).unwrap();
    let mut starts = vec![SEGMENT_HEADER_BYTES as usize];
    while let Some(&at) = starts.last().filter(|&&at| at < bytes.len()) {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        starts.push(at + len + RECORD_OVERHEAD_BYTES as usize);
    }
    starts.pop();
    let at = starts[index.rem_euclid(starts.len() as isize) as usize];
    let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    std::fs::write(path, &bytes[..at + 4 + len / 2]).unwrap();
}

/// The seal reads the spill tier as recovery does: a retained session
/// whose segment is torn mid-record under it seals to exactly the graph
/// `recover_session` rebuilds from the directory it leaves — the maximal
/// consistent cut over what both could read — and says so in its health
/// counters. Two cases, each with two threads sharing shard 0:
///
/// * three ping-pong threads over two shards, shard 0's first segment torn
///   in its second record: the tear costs both of the shard's threads;
/// * two independent threads, the tear in the other thread's last record,
///   behind the whole spilled prefix of thread 2 but ahead of where the
///   seal's retained round puts thread 2's live suffix — the suffix is lost
///   with the rest of the shard, in the seal as in recovery.
#[test]
fn a_seal_over_a_torn_segment_is_the_recovery_of_its_directory() {
    for case in ["ping-pong", "independent suffix"] {
        let tmp = TempDir::new("crash-rec");
        let dir = tmp.path();
        let settings = SpillSettings {
            segment_bytes: 1 << 10,
            ..SpillSettings::new(4, dir).with_retain_on_seal(true)
        };
        let builder = ShardedCpgBuilder::with_shards_and_spill(2, Some(settings));
        let total = if case == "ping-pong" {
            let sequences = ping_pong_sequences(3, 40);
            let total = sequences.iter().map(Vec::len).sum();
            ingest_round_robin(&builder, sequences, |_| {});
            // Shard 0's first segment, a full one.
            assert!(dir.join(segment_file_name(0, 1)).exists());
            tear_record(&dir.join(segment_file_name(0, 0)), 1);
            total
        } else {
            let (zero, two) = (independent_sequence(0, 4), independent_sequence(2, 6));
            // A round of thread 2's first four, a round of thread 0's four,
            // and thread 2's next two left live.
            builder.ingest_batch(two[..4].to_vec());
            builder.ingest_batch(zero[..4].to_vec());
            builder.ingest_batch(two[4..6].to_vec());
            assert_eq!(builder.stats().spilled_subs, 8);
            // The newest record is thread 0's α 3.
            tear_record(&dir.join(segment_file_name(0, 0)), -1);
            10
        };

        let sealed = builder.seal();
        let stats = builder.last_sealed_stats().expect("sealed");
        assert!(stats.spill_fallbacks > 0, "{case}: {stats:?}");
        assert!(sealed.node_count() < total, "{case}");
        assert!(sealed.validate().is_ok(), "{case}");

        let recovery = inspector::core::recover::recover_session(dir).expect("recovery I/O");
        let r = &recovery.report;
        assert!(r.degraded(), "{case}: {r:?}");
        assert_eq!(r.torn_records + r.crc_failures, 1, "{case}: {r:?}");
        assert!(recovery.cpg.nodes().eq(sealed.nodes()), "{case}");
        assert_eq!(
            edge_fingerprint(&recovery.cpg),
            edge_fingerprint(&sealed),
            "{case}"
        );
    }
}
