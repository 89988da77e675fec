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
//!    …) plus the [`RecoveryReport::lost_bytes`] total.
//! 3. **Shrink to a consistent cut.** The decoded per-thread prefixes are
//!    lowered to the largest frontier `F` such that every kept node's
//!    vector clock is covered by `F` (a fixpoint that terminates because
//!    `F` only shrinks). Nodes decoded fine but above the cut are counted
//!    as [`RecoveryReport::excluded_nodes`] — they are not *lost*, they
//!    just cannot join a causally closed graph.
//! 4. **Re-derive the graph.** The surviving sequences feed the batch
//!    [`CpgBuilder`] — the same oracle the streaming builder is proven
//!    against — so the recovered CPG carries complete control, sync, and
//!    data edges for its prefix. A consistent prefix is causally closed,
//!    which makes the oracle over the prefix identical to the full graph
//!    restricted to it; spilled edge *records* are therefore only needed
//!    for byte accounting, never for graph reconstruction.
//!
//! Recovering the directory of a cleanly sealed, retained session yields a
//! graph node- and edge-identical to the sealed one, with zero loss.

use std::collections::{BTreeMap, HashSet};
use std::fs::File;
use std::io::Read;
use std::path::Path;

use crate::graph::{Cpg, CpgBuilder};
use crate::spill::{
    check_edge, parse_segment_header, read_manifest, scan_segment, segment_file_name,
    ManifestSegment, ScanEnd, SpillError, SpillResult, ThreadRuns, SEGMENT_HEADER_BYTES,
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
    /// Spilled edge records that decoded fine. They only corroborate the
    /// byte accounting — edges are re-derived from the node payloads.
    pub recovered_edge_records: u64,
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
    /// frames of excluded nodes and edge records).
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
    let mut consumed: HashSet<String> = HashSet::new();
    let mut runs = ThreadRuns::default();
    // One image buffer for every scanned segment.
    let mut bytes = Vec::new();
    for (shard, mut segs) in by_shard {
        segs.sort_by_key(|s| s.index);
        // Once a shard hits its first invalid record (or a hole in the
        // segment list), nothing after it can be trusted: later files are
        // counted wholesale, never decoded.
        let mut poisoned = false;
        for (expected_index, seg) in segs.iter().enumerate() {
            let name = segment_file_name(seg.shard, seg.index);
            let path = dir.join(&name);
            consumed.insert(name);
            if seg.index != expected_index {
                report.missing_segments += 1;
                report.missing_bytes += seg.bytes;
                poisoned = true;
            }
            if poisoned {
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
            bytes.clear();
            match File::open(&path).and_then(|mut file| file.read_to_end(&mut bytes)) {
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    report.missing_segments += 1;
                    report.missing_bytes += seg.bytes;
                    poisoned = true;
                    continue;
                }
                Err(e) => return Err(e.into()),
            }
            report.total_bytes += bytes.len() as u64;
            let header_ok = match parse_segment_header(&bytes, &path) {
                Ok(header) => {
                    header.shard as usize == shard && header.session_id == manifest.session_id
                }
                Err(_) => false,
            };
            if !header_ok {
                report.bad_headers += 1;
                report.lost_bytes += bytes.len() as u64;
                poisoned = true;
                continue;
            }
            report.header_bytes += SEGMENT_HEADER_BYTES;
            let file_len = bytes.len() as u64;
            // Only the manifest-named prefix is trusted; a file shorter
            // than its manifest entry was externally truncated.
            let avail = file_len.min(seg.bytes) as usize;
            if file_len < seg.bytes {
                report.missing_bytes += seg.bytes - file_len;
            }
            // Edge records are only grammar-checked and counted: the graph
            // re-derives its edges from the node payloads.
            let edge_records = &mut report.recovered_edge_records;
            let end = scan_segment(
                &bytes,
                avail,
                |sub| runs.push(sub),
                |cursor| {
                    check_edge(cursor)?;
                    cursor.expect_exhausted()?;
                    *edge_records += 1;
                    Ok(())
                },
            );
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
                // Bytes appended after the last published cut: durable but
                // never promised. The crash round's appends land here.
                let tail = file_len - seg.bytes;
                report.unmanifested_bytes += tail;
                report.lost_bytes += tail;
            }
        }
    }

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

    // Per-thread contiguous α-prefixes (the scan delivers each thread's
    // records in α order); a hole means the records beyond it are unusable.
    let mut nodes_by_thread: BTreeMap<u32, Vec<SubComputation>> = runs
        .into_sorted()
        .into_iter()
        .map(|(thread, nodes)| (thread.index() as u32, nodes))
        .collect();
    let mut decoded_nodes = 0u64;
    for (&thread, nodes) in nodes_by_thread.iter_mut() {
        decoded_nodes += nodes.len() as u64;
        let contiguous = nodes
            .iter()
            .enumerate()
            .take_while(|(i, sub)| sub.id.alpha == *i as u64)
            .count();
        nodes.truncate(contiguous);
        // Never trust more than the manifest vouched for — a record the
        // durable frontier does not cover may lack its causal context.
        let durable = *report.durable_frontier.get(&thread).unwrap_or(&0) as usize;
        nodes.truncate(durable.min(nodes.len()));
    }

    // Shrink to the maximal consistent frontier: every kept node's clock
    // must be covered by the kept prefixes themselves. Coverage is
    // monotone along a thread (clocks only grow), so each pass is a
    // partition point, and the frontier only ever shrinks — the fixpoint
    // terminates.
    let mut frontier: BTreeMap<u32, u64> = nodes_by_thread
        .iter()
        .map(|(&t, nodes)| (t, nodes.len() as u64))
        .collect();
    loop {
        let mut changed = false;
        for (&thread, nodes) in &nodes_by_thread {
            let current = frontier[&thread] as usize;
            let covered = |sub: &SubComputation| {
                sub.clock.iter().all(|(u, k)| {
                    u.index() as u32 == thread
                        || k == 0
                        || k <= *frontier.get(&(u.index() as u32)).unwrap_or(&0)
                })
            };
            let kept = nodes[..current].partition_point(covered);
            if kept < current {
                frontier.insert(thread, kept as u64);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Build the graph from the surviving prefixes with the batch oracle.
    let mut builder = CpgBuilder::new();
    for (&thread, nodes) in nodes_by_thread.iter_mut() {
        let keep = frontier[&thread] as usize;
        nodes.truncate(keep);
        report.recovered_nodes += keep as u64;
        if keep > 0 {
            builder.add_thread(std::mem::take(nodes));
        }
    }
    report.excluded_nodes = decoded_nodes - report.recovered_nodes;
    report.consistent_frontier = frontier.into_iter().filter(|&(_, f)| f > 0).collect();
    let cpg = builder.into_cpg();
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
    use crate::testing::TempDir;

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
