//! Offline crash recovery: rebuild the **maximal consistent-prefix CPG**
//! from a (possibly crashed) session's spill directory.
//!
//! The spill tier ([`crate::spill`]) leaves behind per-shard segment files
//! and a per-session `MANIFEST` naming exactly the byte ranges that were
//! durable when it was last published. Recovery trusts nothing else:
//!
//! 1. **Manifest first.** Only segments (and byte prefixes of segments)
//!    named by the manifest are scanned; anything beyond — bytes appended
//!    after the last published cut, whole unmanifested files — is counted
//!    as [`RecoveryReport::unmanifested_bytes`] and never decoded. A
//!    missing or unparsable manifest recovers an empty graph with every
//!    byte accounted as unmanifested.
//! 2. **Validate, never panic.** Each scanned segment's header (magic,
//!    version, shard, session id) is checked, then every record frame is
//!    CRC-checked and decoded. The first invalid record poisons the rest
//!    of its shard — without sync markers nothing after a bad frame can be
//!    trusted — and every skipped byte lands in a typed counter
//!    ([`RecoveryReport::torn_records`], [`RecoveryReport::crc_failures`],
//!    …) plus the [`RecoveryReport::lost_bytes`] total. Segments are read,
//!    checked and decoded on every core the host offers, one segment per
//!    unit of work; the torn / CRC / poison policy is then applied to the
//!    outcomes **in segment order**, so the report is the one a sequential
//!    pass produces, field for field. The workers do not know the policy,
//!    so a damaged session's segments past the poison are still read and
//!    decoded before their outcome is discarded.
//! 3. **Shrink to a consistent cut.** The decoded per-thread prefixes are
//!    lowered to the largest frontier `F` such that every kept node's
//!    vector clock is covered by `F` (a fixpoint that terminates because
//!    `F` only shrinks). Nodes decoded fine but above the cut are counted
//!    as [`RecoveryReport::excluded_nodes`] — they are not *lost*, they
//!    just cannot join a causally closed graph.
//! 4. **Re-derive the graph.** The decoded nodes land in one store, which
//!    arrives in `(thread, α)` order whenever every shard holds one
//!    thread; the cut is applied to it in place, and the survivors become
//!    the graph's node store as they are. Their edges are derived by the
//!    batch [`CpgBuilder`](crate::graph::CpgBuilder)'s parallel derivation
//!    — the one the streaming builder's seal ends in too — so the
//!    recovered CPG carries complete control, sync, and data edges for its
//!    prefix. A consistent prefix is causally closed, which makes the
//!    oracle over the prefix identical to the full graph restricted to it.
//!
//! Recovering the directory of a cleanly sealed, retained session yields a
//! graph node- and edge-identical to the sealed one, with zero loss.

use std::collections::{BTreeMap, HashSet};
use std::ops::Range;
use std::path::Path;

use crate::graph::Cpg;
use crate::pool;
use crate::spill::{
    image_buffer, read_manifest, scan_segment_file, segment_file_name, ManifestSegment,
    RecordBuffers, ScanEnd, SegmentScan, SpillError, SpillResult, MIN_NODE_FRAME_BYTES,
    SEGMENT_HEADER_BYTES,
};
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
        Err(SpillError::Corrupt(_)) | Err(SpillError::CorruptAt { .. }) => None,
        Err(e) => return Err(e),
    };
    report.manifest_found = manifest.is_some();
    let manifest = manifest.unwrap_or_default();
    report.manifest_clean = manifest.clean;
    report.session_id = manifest.session_id;
    report.durable_frontier = manifest.thread_counts.clone();

    // Scan exactly the manifest-named byte ranges, shard by shard.
    let mut by_shard: BTreeMap<usize, Vec<ManifestSegment>> = BTreeMap::new();
    for seg in &manifest.segments {
        by_shard.entry(seg.shard).or_default().push(*seg);
    }
    let plan: Vec<(usize, ManifestSegment)> = by_shard
        .into_values()
        .flat_map(|mut segs| {
            segs.sort_by_key(|s| s.index);
            segs.into_iter().enumerate()
        })
        .collect();
    // Every decoded node, in arrival order, in what becomes the recovered
    // graph's node store. Sized for the durable frontier, which the named
    // bytes bound (a damaged manifest cannot make this abort).
    let named_bytes = plan
        .iter()
        .fold(0u64, |sum, (_, seg)| sum.saturating_add(seg.bytes));
    let durable = manifest
        .thread_counts
        .values()
        .fold(0u64, |sum, &n| sum.saturating_add(n));
    let mut nodes: Vec<SubComputation> = Vec::new();
    let room = durable.min(named_bytes / MIN_NODE_FRAME_BYTES);
    let _ = nodes.try_reserve_exact(usize::try_from(room).unwrap_or(0));
    let mut consumed: HashSet<String> = HashSet::new();
    // Every segment is read and scanned on the pool, one per unit; the
    // policy below takes the outcomes in segment order, exactly as one
    // sequential pass would meet them.
    let workers = pool::workers(plan.len(), 1);
    let largest = plan.iter().map(|(_, seg)| seg.bytes).max();
    let buffers = RecordBuffers::new(pool::in_flight(workers));
    pool::fan_out(
        plan.len(),
        workers,
        || image_buffer(largest.unwrap_or(0)),
        |image, i| {
            let seg = &plan[i].1;
            let path = dir.join(segment_file_name(seg.shard, seg.index));
            scan_segment_file(&path, seg.bytes, image, &buffers)
        },
        |scans| -> SpillResult<()> {
            let mut shard = None;
            // Once a shard hits its first invalid record (or a hole in the
            // segment list), nothing after it can be trusted: later files
            // are counted wholesale and their scans discarded.
            let mut poisoned = false;
            for (&(expected_index, seg), scan) in plan.iter().zip(scans) {
                if shard != Some(seg.shard) {
                    shard = Some(seg.shard);
                    poisoned = false;
                }
                let name = segment_file_name(seg.shard, seg.index);
                let path = dir.join(&name);
                consumed.insert(name);
                if seg.index != expected_index {
                    report.missing_segments += 1;
                    report.missing_bytes += seg.bytes;
                    poisoned = true;
                }
                if poisoned {
                    buffers.recycle(scan);
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
                    SegmentScan::Unreadable(e) if e.kind() == std::io::ErrorKind::NotFound => {
                        report.missing_segments += 1;
                        report.missing_bytes += seg.bytes;
                        poisoned = true;
                        continue;
                    }
                    SegmentScan::Unreadable(e) => return Err(e.into()),
                    SegmentScan::BadHeader { file_len, .. } => (file_len, None),
                    SegmentScan::Scanned {
                        file_len,
                        header,
                        nodes: decoded,
                        end,
                    } => {
                        if header.shard as usize == seg.shard
                            && header.session_id == manifest.session_id
                        {
                            (file_len, Some((decoded, end)))
                        } else {
                            buffers.give_back(decoded);
                            (file_len, None)
                        }
                    }
                };
                report.total_bytes += file_len;
                // A file shorter than its manifest entry was externally
                // truncated, whether or not its header survived.
                report.missing_bytes += seg.bytes.saturating_sub(file_len);
                let Some((mut decoded, end)) = scanned else {
                    report.bad_headers += 1;
                    report.lost_bytes += file_len;
                    poisoned = true;
                    continue;
                };
                report.header_bytes += SEGMENT_HEADER_BYTES;
                // Only the manifest-named prefix is trusted.
                let avail = file_len.min(seg.bytes) as usize;
                nodes.append(&mut decoded);
                buffers.give_back(decoded);
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
                    ScanEnd::Decode(at, _) => {
                        report.decode_failures += 1;
                        at
                    }
                };
                report.recovered_bytes += (valid_end as u64).saturating_sub(SEGMENT_HEADER_BYTES);
                if valid_end < avail {
                    report.lost_bytes += (avail - valid_end) as u64;
                    poisoned = true;
                }
                if file_len > seg.bytes {
                    // Bytes appended after the last published cut: durable
                    // but never promised. The crash round's appends land
                    // here.
                    let tail = file_len - seg.bytes;
                    report.unmanifested_bytes += tail;
                    report.lost_bytes += tail;
                }
            }
            Ok(())
        },
    )?;

    // Whole files the manifest never named (including everything when the
    // manifest itself is missing).
    match std::fs::read_dir(dir) {
        Ok(entries) => {
            for entry in entries {
                let entry = entry?;
                let name = entry.file_name().to_string_lossy().into_owned();
                if !name.ends_with(".spill") || consumed.contains(&name) {
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

    // Into (thread, α) order. The scan delivers each thread's records in
    // α order, and shards in index order, so with one thread per shard the
    // store arrives sorted. Otherwise a stable sort by id gives the order
    // per-thread buckets would have, equal ids in arrival order.
    if !nodes.windows(2).all(|w| w[0].id < w[1].id) {
        let mut order: Vec<usize> = (0..nodes.len()).collect();
        order.sort_by_key(|&i| nodes[i].id);
        let mut slots: Vec<Option<SubComputation>> = nodes.into_iter().map(Some).collect();
        nodes = order.into_iter().filter_map(|i| slots[i].take()).collect();
    }
    let decoded_nodes = nodes.len() as u64;

    // Per thread, the positions of its run, and the contiguous α-prefix
    // of it (a hole means the records beyond it are unusable) that the
    // manifest vouched for — a record the durable frontier does not cover
    // may lack its causal context.
    let mut threads: Vec<(u32, Range<usize>)> = Vec::new();
    for (p, sub) in nodes.iter().enumerate() {
        let thread = sub.id.thread.index() as u32;
        match threads.last_mut() {
            Some((t, run)) if *t == thread => run.end = p + 1,
            _ => threads.push((thread, p..p + 1)),
        }
    }
    let mut frontier: BTreeMap<u32, u64> = BTreeMap::new();
    for (thread, run) in &threads {
        let contiguous = nodes[run.clone()]
            .iter()
            .enumerate()
            .take_while(|(i, sub)| sub.id.alpha == *i as u64)
            .count();
        let durable = *report.durable_frontier.get(thread).unwrap_or(&0) as usize;
        frontier.insert(*thread, contiguous.min(durable) as u64);
    }

    // Shrink to the maximal consistent frontier: every kept node's clock
    // must be covered by the kept prefixes themselves. Coverage is
    // monotone along a thread (clocks only grow), so each pass is a
    // partition point, and the frontier only ever shrinks — the fixpoint
    // terminates.
    loop {
        let mut changed = false;
        for (thread, run) in &threads {
            let current = frontier[thread] as usize;
            let covered = |sub: &SubComputation| {
                sub.clock.iter().all(|(u, k)| {
                    u.index() as u32 == *thread
                        || k == 0
                        || k <= *frontier.get(&(u.index() as u32)).unwrap_or(&0)
                })
            };
            let kept = nodes[run.start..run.start + current].partition_point(covered);
            if kept < current {
                frontier.insert(*thread, kept as u64);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Keep each thread's consistent prefix, in place, and derive the edges
    // as the batch oracle does.
    let mut position = 0;
    let mut run = threads.iter().peekable();
    nodes.retain(|_| {
        while run.next_if(|(_, r)| r.end <= position).is_some() {}
        let keep = run
            .peek()
            .is_some_and(|(t, r)| position < r.start + frontier[t] as usize);
        position += 1;
        keep
    });
    report.recovered_nodes = nodes.len() as u64;
    report.excluded_nodes = decoded_nodes - report.recovered_nodes;
    report.consistent_frontier = frontier.into_iter().filter(|&(_, f)| f > 0).collect();
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
    use crate::spill::SpillSettings;
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

    /// A named way to damage one segment file.
    type Damage = (&'static str, fn(&Path));

    /// Damage to a middle segment of one shard: recovery on several workers
    /// reports exactly what the sequential pass reports, field for field,
    /// recovers the same graph, and loses only that segment and the ones
    /// after it in the same shard.
    #[test]
    fn parallel_scan_is_the_sequential_scan() {
        let damages: [Damage; 7] = [
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
                "bad header" | "v2 segment" => {
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
