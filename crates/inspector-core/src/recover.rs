//! Reading the spill tier back: the one reader, and offline crash recovery
//! on top of it.
//!
//! Everything that reads spilled nodes goes through one crate-private
//! function, `read_segments`: offline recovery of a (possibly crashed)
//! session's directory, the seal, a live snapshot's gather, and the
//! crash and write-failure fallbacks. Its input is a **plan** — the
//! segments vouched for, each named by shard, index and trusted byte length
//! — and the callers differ only in where the plan comes from:
//! [`recover_session`] parses it from the `MANIFEST`, the streaming builder
//! takes it from its stores (the manifest each store would publish now,
//! with the committed lengths). Its policy, stated once:
//!
//! 1. **Only vouched bytes are decoded.** A segment is scanned up to its
//!    trusted length; bytes past it (a round that never committed, appends
//!    after the last published cut) are counted as
//!    [`RecoveryReport::unmanifested_bytes`] and never decoded.
//! 2. **Validate, never panic.** Each segment's header (magic, version,
//!    shard, session id) is checked, then every record frame is CRC-checked
//!    and decoded. A missing segment, a bad header, a torn or CRC-failing
//!    frame, or a record that does not decode **poisons the rest of its
//!    shard** — without sync markers nothing after a bad frame can be
//!    trusted — and every skipped byte lands in a typed counter
//!    ([`RecoveryReport::torn_records`], [`RecoveryReport::crc_failures`],
//!    …) plus the [`RecoveryReport::lost_bytes`] total; vouched bytes that
//!    are not on disk at all are [`RecoveryReport::missing_bytes`].
//!    Segments are read, checked and decoded on every core the host offers,
//!    one segment per unit of work (`pool.rs`); the policy is then
//!    applied to the outcomes **in segment order**, so the report is the
//!    one a sequential pass produces, field for field. The workers do not
//!    know the policy, so a damaged shard's segments past the poison are
//!    still read and decoded before their outcome is discarded.
//! 3. **A shard's in-memory tail continues it.** The builder's live
//!    suffixes — nodes no store has written — follow their shard's records,
//!    and a poisoned shard's tail is poisoned with it, exactly as a final
//!    round written behind the damage would be.
//! 4. **(thread, α) order.** The nodes come back as an id-sorted store,
//!    each thread's records followed by its tail. Nothing else about a
//!    record's shape is checked here: a CRC-valid record can still leave a
//!    hole in α or carry a clock that goes backwards. The cut
//!    (`snapshot::cut_in_place`) ends each thread before the first such
//!    record, so the derivation only ever sees recorder shape.
//!
//! What a caller does with a lossy read is the same everywhere: it keeps
//! each thread's maximal consistent prefix with the crate's one cut
//! (`snapshot::cut_in_place`) and derives the edges with the batch
//! derivation (`Cpg::derived`). Recovery bounds the cut by
//! the manifest's durable frontier; the seal and a snapshot leave it
//! unbounded, and the seal cuts only when the read lost something — a clean
//! read needs no cut. So the sealed graph is the graph recovery rebuilds
//! from the same bytes, and nodes decoded fine but above the cut are
//! [`RecoveryReport::excluded_nodes`]: not lost, just unable to join a
//! causally closed graph. A consistent prefix is causally closed, which
//! makes the oracle over the prefix identical to the full graph restricted
//! to it.
//!
//! Recovery itself trusts nothing but the manifest: whole files it never
//! named are counted as unmanifested, and a missing or unparsable manifest
//! recovers an empty graph with every byte accounted as unmanifested.
//! Recovering the directory of a cleanly sealed, retained session yields a
//! graph node- and edge-identical to the sealed one, with zero loss.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::path::Path;

use crate::graph::Cpg;
use crate::ids::ThreadId;
use crate::pool;
use crate::snapshot::cut_in_place;
use crate::spill::codec::{scan_segment_file, RecordBuffers, ScanEnd, SegmentScan};
use crate::spill::codec::{MIN_NODE_FRAME_BYTES, SEGMENT_HEADER_BYTES};
use crate::spill::{read_manifest, segment_file_name, ManifestSegment, SpillError, SpillResult};
use crate::subcomputation::SubComputation;

/// Exact accounting of what a [`recover_session`] pass found, kept, and
/// skipped — the offline mirror of `RunStats`' health fields.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// A parsable `MANIFEST` was present.
    pub manifest_found: bool,
    /// The manifest's clean flag: the session sealed (and completed its
    /// retained on-disk copy) before dying.
    pub manifest_clean: bool,
    /// Session id recorded in the manifest.
    pub session_id: u64,
    /// Nodes in the recovered graph (below the consistent frontier).
    pub recovered_nodes: u64,
    /// Edges in the recovered graph (re-derived by the batch oracle).
    pub recovered_edges: u64,
    /// Nodes that decoded fine but sit above the maximal consistent
    /// frontier (their clocks reference lost work), so they were excluded.
    pub excluded_nodes: u64,
    /// Per-thread durable node counts the manifest recorded (raw thread
    /// index) — the frontier durability promised.
    pub durable_frontier: BTreeMap<u32, u64>,
    /// Per-thread prefix lengths actually recovered after validation and
    /// the consistency fixpoint. Never exceeds the durable frontier.
    pub consistent_frontier: BTreeMap<u32, u64>,
    /// Total bytes of every `*.spill` file in the directory.
    pub total_bytes: u64,
    /// Bytes of validated segment headers in scanned segments.
    pub header_bytes: u64,
    /// Bytes of record frames that were CRC-valid and decoded (including
    /// frames of excluded nodes).
    pub recovered_bytes: u64,
    /// Every on-disk byte that was neither a validated header nor a
    /// decoded frame: `total_bytes = header_bytes + recovered_bytes +
    /// lost_bytes` always holds.
    pub lost_bytes: u64,
    /// Record frames cut short on disk (crash mid-append).
    pub torn_records: u64,
    /// Fully framed records whose CRC32 trailer did not match.
    pub crc_failures: u64,
    /// CRC-valid records whose payload failed to decode.
    pub decode_failures: u64,
    /// Segments with a missing/invalid header or the wrong session id.
    pub bad_headers: u64,
    /// On-disk bytes the manifest never vouched for (post-crash appends,
    /// whole unmanifested files).
    pub unmanifested_bytes: u64,
    /// Manifest-named segments absent from the directory.
    pub missing_segments: u64,
    /// Manifest-named bytes not present on disk (missing or truncated
    /// segments). Not part of `lost_bytes`, which counts on-disk bytes.
    pub missing_bytes: u64,
}

impl RecoveryReport {
    /// `true` when anything at all was lost, skipped, excluded, or the
    /// manifest was absent/unclean — the recovered graph is then a proper
    /// prefix, not the full run.
    pub fn degraded(&self) -> bool {
        !self.manifest_found
            || !self.manifest_clean
            || self.lost_bytes > 0
            || self.missing_bytes > 0
            || self.missing_segments > 0
            || self.excluded_nodes > 0
            || self.torn_records > 0
            || self.crc_failures > 0
            || self.decode_failures > 0
            || self.bad_headers > 0
            || self.unmanifested_bytes > 0
    }

    /// `true` when a read lost bytes its plan vouched for: a segment
    /// missing, short or refused at its header, or a bad record. Bytes past
    /// the vouched length are not a loss — no vouched node is in them.
    pub(crate) fn lost_vouched(&self) -> bool {
        self.missing_segments > 0
            || self.missing_bytes > 0
            || self.bad_headers > 0
            || self.torn_records > 0
            || self.crc_failures > 0
            || self.decode_failures > 0
    }
}

/// A recovered session: the maximal consistent-prefix CPG, ready for
/// snapshot/taint queries, plus the exact loss accounting.
#[derive(Debug)]
pub struct Recovery {
    /// The rebuilt graph.
    pub cpg: Cpg,
    /// What was kept and what was skipped.
    pub report: RecoveryReport,
}

/// One thread's live suffix, the in-memory tail of shard `.1`'s records:
/// `(thread, shard, nodes)`.
pub(crate) type Tail = (ThreadId, usize, Vec<SubComputation>);

/// The one reader of the spill tier (policy in the module docs): reads the
/// segments `plan` vouches for — in `(shard, index)` order, stamped with
/// `session_id`, under `dir` — in one fan-out, appends the `tails` (one per
/// thread, sorted by thread; debug builds check it) behind their shards'
/// records, and returns every node in (thread, α) order, with `report`'s
/// byte and damage counters filled.
///
/// A segment that cannot be read counts as missing; the first such failure
/// other than a missing file is returned beside the nodes. An empty plan
/// starts no fan-out.
pub(crate) fn read_segments(
    dir: &Path,
    session_id: u64,
    plan: &[ManifestSegment],
    tails: Vec<Tail>,
    report: &mut RecoveryReport,
) -> (Vec<SubComputation>, Option<std::io::Error>) {
    debug_assert!(
        tails.windows(2).all(|w| w[0].0 < w[1].0),
        "read_segments takes one tail per thread, sorted by thread"
    );
    // One store for records and tails, sized for what the plan vouches for
    // — which its bytes bound, so a damaged manifest cannot make this
    // abort — plus the tails.
    let (records, bytes) = plan.iter().fold((0u64, 0u64), |(r, b), seg| {
        (r.saturating_add(seg.records), b.saturating_add(seg.bytes))
    });
    let room = usize::try_from(records.min(bytes / MIN_NODE_FRAME_BYTES))
        .unwrap_or(0)
        .saturating_add(tails.iter().map(|tail| tail.2.len()).sum());
    let mut nodes: Vec<SubComputation> = Vec::new();
    let _ = nodes.try_reserve_exact(room);
    let mut tails = tails.into_iter().peekable();
    // A tail goes in once its shard has been read, and only if nothing of
    // the shard was lost.
    let mut damaged: BTreeSet<usize> = BTreeSet::new();
    // Whether the store ascends by id so far. A live tail ascends by the
    // ingest check, so only its seam is checked.
    let mut ordered = true;
    let mut flush = |nodes: &mut Vec<SubComputation>,
                     damaged: &BTreeSet<usize>,
                     due: &dyn Fn(&Tail) -> bool| {
        let mut ascending = true;
        while let Some((_, shard, mut run)) = tails.next_if(due) {
            if !damaged.contains(&shard) {
                ascending &= append_ascending(nodes, &mut run);
            }
        }
        ascending
    };
    let mut unreadable = None;
    if !plan.is_empty() {
        let in_plan = |shard| plan.binary_search_by_key(&shard, |seg| seg.shard).is_ok();
        let workers = pool::workers(plan.len(), 1);
        // Every buffer has room for the largest segment: its bytes, and its
        // records bounded by its bytes as the store's room is above, so a
        // damaged plan cannot size them.
        let largest = plan.iter().map(|seg| seg.bytes).max().unwrap_or(0);
        let most_records = plan
            .iter()
            .map(|seg| seg.records.min(seg.bytes / MIN_NODE_FRAME_BYTES))
            .max()
            .unwrap_or(0);
        let buffers = RecordBuffers::new(pool::in_flight(workers), most_records);
        pool::fan_out(
            plan.len(),
            workers,
            || pool::caller_buffer::<u8>(largest),
            |image, i| {
                let seg = &plan[i];
                let path = dir.join(segment_file_name(seg.shard, seg.index));
                scan_segment_file(&path, seg.bytes, image, &buffers)
            },
            |scans| {
                let mut shard = usize::MAX;
                let (mut next_index, mut poisoned, mut lost) = (0, false, false);
                for (seg, scan) in plan.iter().zip(scans) {
                    if seg.shard != shard {
                        if lost {
                            damaged.insert(shard);
                        }
                        (shard, next_index, poisoned, lost) = (seg.shard, 0, false, false);
                    }
                    let expected_index = next_index;
                    next_index += 1;
                    if seg.index != expected_index {
                        report.missing_segments += 1;
                        report.missing_bytes += seg.bytes;
                        poisoned = true;
                    }
                    if poisoned {
                        // Later files are counted wholesale and their scans
                        // discarded.
                        lost = true;
                        buffers.recycle(scan);
                        let path = dir.join(segment_file_name(seg.shard, seg.index));
                        match std::fs::metadata(&path) {
                            Ok(meta) => {
                                report.total_bytes += meta.len();
                                report.lost_bytes += meta.len();
                            }
                            Err(_) => {
                                report.missing_segments += 1;
                                report.missing_bytes += seg.bytes;
                            }
                        }
                        continue;
                    }
                    let (file_len, scanned) = match scan {
                        SegmentScan::Unreadable(e) => {
                            report.missing_segments += 1;
                            report.missing_bytes += seg.bytes;
                            if e.kind() != std::io::ErrorKind::NotFound {
                                unreadable.get_or_insert(e);
                            }
                            (poisoned, lost) = (true, true);
                            continue;
                        }
                        SegmentScan::BadHeader { file_len } => (file_len, None),
                        SegmentScan::Scanned {
                            file_len,
                            header,
                            nodes: decoded,
                            ascending,
                            end,
                        } => {
                            if header.shard as usize == seg.shard && header.session_id == session_id
                            {
                                (file_len, Some((decoded, ascending, end)))
                            } else {
                                buffers.give_back(decoded);
                                (file_len, None)
                            }
                        }
                    };
                    report.total_bytes += file_len;
                    // A file shorter than its plan entry was externally
                    // truncated, whether or not its header survived.
                    let short = seg.bytes.saturating_sub(file_len);
                    report.missing_bytes += short;
                    lost |= short > 0;
                    let Some((mut decoded, ascending, end)) = scanned else {
                        report.bad_headers += 1;
                        report.lost_bytes += file_len;
                        (poisoned, lost) = (true, true);
                        continue;
                    };
                    report.header_bytes += SEGMENT_HEADER_BYTES;
                    // Only the vouched prefix is trusted.
                    let avail = file_len.min(seg.bytes) as usize;
                    let valid_end = match end {
                        ScanEnd::Clean => avail,
                        ScanEnd::Torn(at) => {
                            report.torn_records += 1;
                            at
                        }
                        ScanEnd::Crc(at) => {
                            report.crc_failures += 1;
                            at
                        }
                        ScanEnd::Decode(at) => {
                            report.decode_failures += 1;
                            at
                        }
                    };
                    report.recovered_bytes +=
                        (valid_end as u64).saturating_sub(SEGMENT_HEADER_BYTES);
                    if valid_end < avail {
                        report.lost_bytes += (avail - valid_end) as u64;
                        (poisoned, lost) = (true, true);
                    }
                    if file_len > seg.bytes {
                        // Bytes appended after the last vouched cut: durable
                        // but never promised. The crash round's appends land
                        // here.
                        let tail = file_len - seg.bytes;
                        report.unmanifested_bytes += tail;
                        report.lost_bytes += tail;
                    }
                    // The tails of shards read already go in ahead of the
                    // first thread that follows them.
                    if let Some(first) = decoded.first().map(|sub| sub.id.thread) {
                        let due = |tail: &Tail| {
                            tail.0 < first && (tail.1 < seg.shard || !in_plan(tail.1))
                        };
                        ordered &= flush(&mut nodes, &damaged, &due);
                    }
                    let seam = append_ascending(&mut nodes, &mut decoded);
                    ordered &= ascending && seam;
                    buffers.give_back(decoded);
                }
                if lost {
                    damaged.insert(shard);
                }
            },
        );
    }
    ordered &= flush(&mut nodes, &damaged, &|_| true);
    if ordered {
        debug_assert!(nodes.windows(2).all(|w| w[0].id < w[1].id));
        (nodes, unreadable)
    } else {
        (into_thread_order(nodes), unreadable)
    }
}

/// Appends `run` to `nodes`; returns whether the seam between them
/// ascends by id.
fn append_ascending(nodes: &mut Vec<SubComputation>, run: &mut Vec<SubComputation>) -> bool {
    let seam = match (nodes.last(), run.first()) {
        (Some(last), Some(first)) => last.id < first.id,
        _ => true,
    };
    nodes.append(run);
    seam
}

/// `nodes`, which do not ascend by id, in (thread, α) order. Each thread's
/// records arrive in α order, shard after shard — with one thread per
/// shard the reader finds them ascending and never calls this. The store
/// is bucketed per thread, arrival order kept, and a bucket that arrived
/// out of α order is sorted: a stable sort by id.
fn into_thread_order(nodes: Vec<SubComputation>) -> Vec<SubComputation> {
    let mut counts: BTreeMap<ThreadId, usize> = BTreeMap::new();
    for sub in &nodes {
        *counts.entry(sub.id.thread).or_default() += 1;
    }
    let mut runs: BTreeMap<ThreadId, Vec<SubComputation>> = counts
        .into_iter()
        .map(|(thread, count)| (thread, Vec::with_capacity(count)))
        .collect();
    let total = nodes.len();
    for sub in nodes {
        runs.entry(sub.id.thread).or_default().push(sub);
    }
    let mut sorted = Vec::with_capacity(total);
    for mut run in runs.into_values() {
        if !run.windows(2).all(|w| w[0].id.alpha < w[1].id.alpha) {
            run.sort_by_key(|sub| sub.id.alpha);
        }
        sorted.append(&mut run);
    }
    sorted
}

/// Rebuilds the maximal consistent-prefix CPG from a spill directory.
///
/// Never panics on damaged input: torn tails, CRC failures, bad headers,
/// missing segments, and unmanifested bytes all degrade into counters on
/// the returned [`RecoveryReport`].
///
/// # Errors
///
/// Only unexpected I/O surfaces as an error (unreadable directory, read
/// failures other than not-found). Damage is data, not an error.
pub fn recover_session(dir: &Path) -> SpillResult<Recovery> {
    let mut report = RecoveryReport::default();
    let manifest = match read_manifest(dir) {
        Ok(found) => found,
        // An unparsable manifest is treated exactly like a missing one:
        // nothing on disk can be trusted, everything is unmanifested.
        Err(SpillError::Corrupt(_)) => None,
        Err(e) => return Err(e),
    };
    report.manifest_found = manifest.is_some();
    let manifest = manifest.unwrap_or_default();
    report.manifest_clean = manifest.clean;
    report.session_id = manifest.session_id;
    report.durable_frontier = manifest.thread_counts.clone();

    // Exactly the manifest-named byte ranges, shard by shard.
    let mut plan = manifest.segments;
    plan.sort_by_key(|seg| (seg.shard, seg.index));
    let (mut nodes, unreadable) =
        read_segments(dir, manifest.session_id, &plan, Vec::new(), &mut report);
    if let Some(e) = unreadable {
        return Err(e.into());
    }

    // Whole files the manifest never named (including everything when the
    // manifest itself is missing).
    let named: HashSet<String> = plan
        .iter()
        .map(|seg| segment_file_name(seg.shard, seg.index))
        .collect();
    match std::fs::read_dir(dir) {
        Ok(entries) => {
            for entry in entries {
                let entry = entry?;
                let name = entry.file_name().to_string_lossy().into_owned();
                if !name.ends_with(".spill") || named.contains(&name) {
                    continue;
                }
                let len = entry.metadata()?.len();
                report.total_bytes += len;
                report.unmanifested_bytes += len;
                report.lost_bytes += len;
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e.into()),
    }

    // Keep each thread's maximal consistent prefix — α-contiguous (a hole
    // means the records beyond it are unusable) with no clock going
    // backwards, within what the manifest vouched for (a record the durable
    // frontier does not cover may lack its causal context), and causally
    // closed — in place, with the cut a live snapshot takes; then derive the
    // edges as the batch oracle does.
    let decoded_nodes = nodes.len() as u64;
    let cut = cut_in_place(&mut nodes, |thread| {
        let durable = report.durable_frontier.get(&(thread.index() as u32));
        durable.map_or(0, |&n| n as usize)
    });
    report.recovered_nodes = nodes.len() as u64;
    report.excluded_nodes = decoded_nodes - report.recovered_nodes;
    report.consistent_frontier = cut
        .frontier
        .into_iter()
        .map(|(thread, kept)| (thread.index() as u32, kept as u64))
        .collect();
    let cpg = Cpg::derived(nodes);
    report.recovered_edges = cpg.edge_count() as u64;
    debug_assert_eq!(
        report.total_bytes,
        report.header_bytes + report.recovered_bytes + report.lost_bytes,
        "recovery byte accounting must be exact"
    );
    Ok(Recovery { cpg, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::ShardedCpgBuilder;
    use crate::spill::{ManifestWriter, SpillSettings, SpillStore};
    use crate::testing::TempDir;

    /// A cleanly sealed, retained session over three shards with tiny
    /// segments, so every shard spans several segment files.
    fn retained_session(dir: &Path) -> Cpg {
        let sequences = crate::testing::lock_heavy_sequences(6, 60, 3, 4);
        let settings = SpillSettings {
            segment_bytes: 512,
            ..SpillSettings::new(2, dir).with_retain_on_seal(true)
        };
        let builder = ShardedCpgBuilder::with_shards_and_spill(3, Some(settings));
        let mut cursors: Vec<_> = sequences.into_iter().map(Vec::into_iter).collect();
        while cursors
            .iter_mut()
            .filter_map(Iterator::next)
            .map(|sub| builder.ingest(sub))
            .count()
            > 0
        {}
        builder.seal()
    }

    /// The seal, a live snapshot and recovery derive their graphs without a
    /// traversal index; the first traversal builds it.
    #[test]
    fn sealed_snapshot_and_recovered_graphs_build_no_adjacency() {
        let tmp = TempDir::new("recover-test");
        let sealed = retained_session(tmp.path());
        let recovered = recover_session(tmp.path()).expect("recovery I/O").cpg;
        let builder = ShardedCpgBuilder::with_shards(2);
        for seq in crate::testing::lock_heavy_sequences(3, 20, 2, 3) {
            for sub in seq {
                builder.ingest(sub);
            }
        }
        let snapshot = builder.snapshot().cpg;
        let in_memory = builder.seal();
        for (what, cpg) in [
            ("spilled seal", &sealed),
            ("recovery", &recovered),
            ("snapshot", &snapshot),
            ("in-memory seal", &in_memory),
        ] {
            assert!(cpg.node_count() > 0, "{what}");
            assert!(!cpg.adjacency_built(), "{what}");
            assert!(cpg.topological_order().is_some(), "{what}");
            assert!(cpg.adjacency_built(), "{what}");
        }
    }

    /// A named way to damage one segment file.
    type Damage = (&'static str, fn(&Path));

    /// Damage to a middle segment of one shard: recovery on several workers
    /// reports exactly what the sequential pass reports, field for field,
    /// recovers the same graph, and loses only that segment and the ones
    /// after it in the same shard.
    #[test]
    fn parallel_scan_is_the_sequential_scan() {
        let damages: [Damage; 8] = [
            ("clean", |_| {}),
            ("flipped crc", |path| {
                let mut bytes = std::fs::read(path).unwrap();
                bytes[SEGMENT_HEADER_BYTES as usize + 6] ^= 0x40;
                std::fs::write(path, bytes).unwrap();
            }),
            ("torn frame", |path| {
                let bytes = std::fs::read(path).unwrap();
                std::fs::write(path, &bytes[..SEGMENT_HEADER_BYTES as usize + 10]).unwrap();
            }),
            ("bad header", |path| {
                let mut bytes = std::fs::read(path).unwrap();
                bytes[0] ^= 0xFF;
                std::fs::write(path, bytes).unwrap();
            }),
            // A v2 segment, whose records could be edges: refused whole at
            // its header, never half-decoded.
            ("v2 segment", |path| {
                let mut bytes = std::fs::read(path).unwrap();
                bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
                std::fs::write(path, bytes).unwrap();
            }),
            // A v3 segment, whose records expanded every thunk: refused at
            // its header too.
            ("v3 segment", |path| {
                let mut bytes = std::fs::read(path).unwrap();
                bytes[8..12].copy_from_slice(&3u32.to_le_bytes());
                std::fs::write(path, bytes).unwrap();
            }),
            ("emptied file", |path| std::fs::write(path, []).unwrap()),
            ("missing file", |path| std::fs::remove_file(path).unwrap()),
        ];
        for (what, damage) in damages {
            let tmp = TempDir::new("recover-test");
            let dir = tmp.path();
            let sealed = retained_session(dir);
            let manifest = read_manifest(dir).unwrap().unwrap();
            // The shard with the most segments, damaged in the middle.
            let segments = |shard| manifest.segments.iter().filter(move |s| s.shard == shard);
            let shard = (0..3).max_by_key(|&k| segments(k).count()).unwrap();
            let count = segments(shard).count();
            assert!(count >= 4, "{count} segments");
            let hit = count / 2;
            let file_len = |index| {
                std::fs::metadata(dir.join(segment_file_name(shard, index))).map_or(0, |m| m.len())
            };
            let behind: u64 = (hit + 1..count).map(file_len).sum();
            let hit_len = file_len(hit);
            damage(&dir.join(segment_file_name(shard, hit)));

            let recover = |workers| crate::pool::with_workers(workers, || recover_session(dir));
            let sequential = recover(1).unwrap();
            for workers in [2, 3, 8] {
                let parallel = recover(workers).unwrap();
                assert_eq!(
                    parallel.report, sequential.report,
                    "{what}, {workers} workers"
                );
                assert_eq!(parallel.cpg.nodes, sequential.cpg.nodes, "{what}");
                assert_eq!(parallel.cpg.edges, sequential.cpg.edges, "{what}");
            }
            let report = &sequential.report;
            let header = SEGMENT_HEADER_BYTES;
            match what {
                "clean" => {
                    assert!(!report.degraded(), "{report:?}");
                    assert_eq!(sequential.cpg.nodes, sealed.nodes);
                    assert_eq!(sequential.cpg.edge_count(), sealed.edge_count());
                }
                "flipped crc" => {
                    assert_eq!(report.crc_failures, 1);
                    assert_eq!(report.lost_bytes, hit_len - header + behind);
                }
                "torn frame" => {
                    assert_eq!(report.torn_records, 1);
                    assert_eq!(report.lost_bytes, 10 + behind);
                }
                "bad header" | "v2 segment" | "v3 segment" => {
                    assert_eq!(report.bad_headers, 1);
                    assert_eq!(report.lost_bytes, hit_len + behind);
                }
                // Cut below its header: refused, and every byte the
                // manifest named for it is missing.
                "emptied file" => {
                    assert_eq!(report.bad_headers, 1);
                    assert_eq!(report.missing_bytes, hit_len);
                    assert_eq!(report.lost_bytes, behind);
                }
                _ => {
                    assert_eq!(report.missing_segments, 1);
                    assert_eq!(report.lost_bytes, behind);
                }
            }
            if what != "clean" {
                assert!(report.excluded_nodes > 0 || report.recovered_nodes > 0);
                assert!(report.recovered_nodes < sealed.node_count() as u64);
            }
        }
    }

    /// Writes `sequences` into `dir` as a cleanly sealed, retained image
    /// holds them, straight through the spill store and the manifest writer:
    /// thread `t` in shard `t % shards`, in rounds of two records. No builder
    /// checks what is written.
    fn write_image(dir: &Path, sequences: &[Vec<SubComputation>], shards: usize) {
        let settings = SpillSettings::new(2, dir);
        let manifest = ManifestWriter::new(dir, settings.session_id, settings.durability);
        for shard in 0..shards {
            let mut store = SpillStore::create(&settings, shard).unwrap();
            for sequence in sequences {
                if sequence[0].id.thread.index() % shards != shard {
                    continue;
                }
                for round in sequence.chunks(2) {
                    store.begin_round();
                    round.iter().for_each(|sub| store.stage_node(sub));
                    store.commit_round().unwrap();
                }
            }
            store.sync_for_cut().unwrap();
            manifest.set_shard(shard, store.manifest_snapshot());
        }
        manifest.mark_clean().unwrap();
    }

    /// The streaming builder refuses a clock that goes backwards, but a
    /// retained image can still hold a CRC-valid record with one. Recovery
    /// keeps its thread's prefix before it, excludes the rest and whatever
    /// depends on it, and derives a valid graph: the oracle over the cut.
    #[test]
    fn a_clock_that_goes_backwards_ends_its_threads_prefix() {
        let tmp = TempDir::new("recover-test");
        let dir = tmp.path();
        let mut sequences = crate::testing::ping_pong_sequences(3, 5);
        let (thread, at) = (1, 4);
        sequences[thread][at].clock = crate::clock::VectorClock::new();
        let total: usize = sequences.iter().map(Vec::len).sum();
        write_image(dir, &sequences, 2);

        let Recovery { cpg, report } = recover_session(dir).unwrap();
        assert!(
            report.manifest_clean && report.lost_bytes == 0,
            "{report:?}"
        );
        assert_eq!(report.consistent_frontier[&(thread as u32)], at as u64);
        assert_eq!(report.recovered_nodes + report.excluded_nodes, total as u64);
        assert!(report.excluded_nodes >= (sequences[thread].len() - at) as u64);
        assert_eq!(cpg.validate(), Ok(()));
        let prefixes: Vec<Vec<SubComputation>> = sequences
            .iter()
            .map(|seq| {
                let kept = report.consistent_frontier[&(seq[0].id.thread.index() as u32)];
                seq[..kept as usize].to_vec()
            })
            .collect();
        let oracle = crate::testing::batch_build(&prefixes);
        assert_eq!(cpg.nodes, oracle.nodes);
        assert_eq!(cpg.edges, oracle.edges);
    }

    #[test]
    fn missing_directory_is_an_io_error() {
        let tmp = TempDir::new("recover-test");
        let dir = tmp.path();
        // read_manifest is fine with a missing dir (NotFound → no
        // manifest) and the dir walk tolerates it too: an absent
        // directory simply recovers empty.
        let recovery = recover_session(dir).unwrap();
        assert_eq!(recovery.cpg.node_count(), 0);
        assert!(!recovery.report.manifest_found);
        assert!(recovery.report.degraded());
    }

    #[test]
    fn empty_directory_recovers_an_empty_degraded_graph() {
        let tmp = TempDir::new("recover-test");
        let dir = tmp.path();
        std::fs::create_dir_all(dir).unwrap();
        let recovery = recover_session(dir).unwrap();
        assert_eq!(recovery.cpg.node_count(), 0);
        assert_eq!(recovery.report.recovered_nodes, 0);
        assert!(!recovery.report.manifest_found);
        assert!(recovery.report.degraded());
    }

    #[test]
    fn unmanifested_files_are_counted_never_decoded() {
        let tmp = TempDir::new("recover-test");
        let dir = tmp.path();
        std::fs::create_dir_all(dir).unwrap();
        std::fs::write(dir.join("shard-0-seg-0.spill"), vec![0xAB; 57]).unwrap();
        let recovery = recover_session(dir).unwrap();
        assert_eq!(recovery.cpg.node_count(), 0);
        assert_eq!(recovery.report.total_bytes, 57);
        assert_eq!(recovery.report.unmanifested_bytes, 57);
        assert_eq!(recovery.report.lost_bytes, 57);
    }
}
