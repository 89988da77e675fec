//! Spill-to-disk storage for the streaming CPG build's nodes (§VI:
//! bounding resident memory for long runs).
//!
//! Without spilling, every ingested [`SubComputation`] stays resident in its
//! shard until [`seal`](crate::sharded::ShardedCpgBuilder::seal), so peak
//! memory grows linearly with execution length. This module gives each shard
//! an **append-only spill store**: a shard's resident sub-computations are
//! encoded into **length-prefixed records** appended to per-shard **segment
//! files** (the format is `codec.rs`'s), and evicted from memory. Only nodes
//! are stored — the graph's edges are a function of the nodes, derived at
//! seal and at recovery — so any per-thread prefix may go to disk at any time.
//!
//! # One write per round
//!
//! The unit of I/O is the **round**: every node resident in the shard when
//! the round starts, staged back to back in one reusable buffer
//! ([`SpillStore::stage_node`]) and committed by [`SpillStore::commit_round`]
//! with a single `write`. Counters and the
//! manifest snapshot move only after it succeeded; a failed attempt cuts
//! the segment back to the last committed length, so a retry never lands
//! behind a partial frame. Segments roll at round boundaries.
//!
//! The store writes; it does not read, and it deletes only when told to.
//! During a run it appends or stops: a round that still fails after the
//! builder's retries, or the injected crash, leaves the store with what it
//! committed, and the builder sends it no further round. Only a seal that
//! chose not to keep the image deletes its files (`SpillStore::clear`);
//! a store that is dropped leaves them, so a builder that is never sealed
//! leaves a recoverable image, as a crashed process does.
//!
//! Reading is one frame walker, `scan_segment`, run one segment at a time
//! by `scan_segment_file`, the unit the read side fans out across the
//! host's cores, under one reader and one policy: [`crate::recover`]'s.
//! The seal and live snapshots hand it what a store vouches for
//! (`SpillStore::plan`, the manifest the store would publish now, with the
//! committed lengths); offline recovery hands it the parsed manifest.
//!
//! # Crash consistency
//!
//! A per-session `MANIFEST` file in the spill directory (rewritten by
//! atomic rename from `MANIFEST.tmp`, see [`ManifestWriter`]) records, per
//! shard, the segment list with record counts and byte lengths, plus the
//! per-thread durable node counts — a durable prefix of each thread, not
//! necessarily a consistent cut across threads. The builder updates the
//! manifest only **after** the corresponding bytes were synced according to
//! the configured [`SpillDurability`] policy, so the manifest never names
//! bytes that are not on disk. Offline recovery ([`crate::recover`]) trusts
//! exactly the manifest-named byte ranges, CRC-checks every record inside
//! them, computes the maximal consistent cut of the durable prefixes and
//! rebuilds the run's graph up to it.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use parking_lot::Mutex;

use crate::subcomputation::SubComputation;

pub(crate) mod codec;

use codec::{encode_node, put_frame, segment_header, TAG_NODE};
pub use codec::{
    segment_file_name, RECORD_OVERHEAD_BYTES, SEGMENT_HEADER_BYTES, SEGMENT_MAGIC,
    SPILL_FORMAT_VERSION,
};

/// Default segment-roll size. A segment is the read side's unit of work,
/// and one scan buffer holds its nodes at ≈ 192 B each, so records per
/// segment, not bytes, set the read side's transient memory. Measured on
/// `fault_commit_spill` (`--seconds 10`, 2 vCPUs, order-alternated pairs
/// against format v3 at 1 MiB, ≈ 5 200 records per segment):
///
/// | v4 roll | records/segment | `peak_rss_mib` vs v3 | `wall_s` vs v3 |
/// |---------|-----------------|----------------------|----------------|
/// | 256 KiB | ≈ 7 300 | 90.7 → 93.7, lower in 1/10 | −14 %, lower in 9/10 |
/// | 128 KiB | ≈ 3 600 | 90.7 → 81.3, lower in 20/20 | −18 %, lower in 20/20 |
///
/// Head to head the two rolls read the same `wall_s` (4/8 pairs). The
/// memory is allocator placement, not format: with glibc's mmap threshold
/// pinned at 128 KiB, v3, 256 KiB and 128 KiB read 69.5, 67.3 and 67.7 MiB.
pub const DEFAULT_SEGMENT_BYTES: u64 = 128 << 10;

/// Name of the per-session manifest file inside the spill directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// Scratch name the manifest is written to before the atomic rename.
pub const MANIFEST_TMP_FILE: &str = "MANIFEST.tmp";

/// First line of the manifest text format.
const MANIFEST_HEADER: &str = "inspector-spill-manifest v2";

/// How hard the spill tier pushes bytes toward stable storage before the
/// manifest is allowed to name them.
///
/// | policy  | segment data      | manifest + directory | survives          |
/// |---------|-------------------|----------------------|-------------------|
/// | `None`  | `write(2)` only   | atomic rename only   | process crash     |
/// | `Flush` | `fdatasync` at cut| atomic rename only   | process crash + most kernel-buffered loss |
/// | `Fsync` | `fdatasync` at cut| `fsync` file and dir | power loss        |
///
/// `None` is free (the page cache already survives a killed process);
/// `Flush` adds one `fdatasync` per shard per spill round; `Fsync`
/// additionally syncs the manifest and its directory on every update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpillDurability {
    /// Write into the page cache only; no explicit sync.
    #[default]
    None,
    /// `fdatasync` segment data at round boundaries.
    Flush,
    /// `Flush` plus fsync of the manifest file and spill directory.
    Fsync,
}

impl SpillDurability {
    /// Canonical lower-case policy name.
    pub fn as_str(self) -> &'static str {
        match self {
            SpillDurability::None => "none",
            SpillDurability::Flush => "flush",
            SpillDurability::Fsync => "fsync",
        }
    }
}

/// Configuration of the spill stage, carried by the builder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpillSettings {
    /// Spill a shard once it holds at least this many resident
    /// sub-computations (0 disables spilling; enforced by the builder).
    pub threshold: usize,
    /// Directory the per-shard segment files are created in.
    pub dir: PathBuf,
    /// Roll to a new segment file once the current one exceeds this size.
    pub segment_bytes: u64,
    /// Sync policy applied at round boundaries before the manifest names
    /// the freshly spilled bytes.
    pub durability: SpillDurability,
    /// Session id stamped into segment headers and the manifest, so
    /// recovery can reject segments from a different run.
    pub session_id: u64,
    /// Keep the spill directory (segments + final manifest) after a clean
    /// seal instead of deleting it. Degraded runs always retain.
    pub retain_on_seal: bool,
    /// Fault point: the `fail_write_at`-th (1-based) round-write attempt
    /// across all shards, and every attempt after it, fails, like a disk
    /// that filled up and stayed full. A round is one write, so attempts
    /// count rounds and their retries, not records. `0` (the default)
    /// disarms.
    pub fail_write_at: u64,
    /// Fault point: the process "dies" in the spill record that follows
    /// the first `crash_after_records` (across all shards). That round's
    /// write carries the whole frames staged before it and a torn prefix
    /// of that one; then the manifest freezes where it was, every store
    /// stops, and the seal keeps the image for offline recovery. The build
    /// still completes: the seal reads the committed prefixes back, so the
    /// sealed graph loses nothing in-process. `0` (the default) disarms.
    pub crash_after_records: u64,
}

impl SpillSettings {
    /// Settings with the default segment size and durability policy.
    pub fn new(threshold: usize, dir: impl Into<PathBuf>) -> Self {
        SpillSettings {
            threshold,
            dir: dir.into(),
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            durability: SpillDurability::default(),
            session_id: 0,
            retain_on_seal: false,
            fail_write_at: 0,
            crash_after_records: 0,
        }
    }

    /// Sets the durability policy.
    pub fn with_durability(mut self, durability: SpillDurability) -> Self {
        self.durability = durability;
        self
    }

    /// Sets the session id stamped into headers and the manifest.
    pub fn with_session_id(mut self, session_id: u64) -> Self {
        self.session_id = session_id;
        self
    }

    /// Keeps spill artifacts on disk after a clean seal.
    pub fn with_retain_on_seal(mut self, retain: bool) -> Self {
        self.retain_on_seal = retain;
        self
    }
}

/// A spill-stage failure. The spill store never panics on bad input: I/O
/// failures, malformed payloads, and crash-torn tails each surface as a
/// typed error the builder can degrade around (stop the store, or cut the
/// read to what is intact) instead of aborting the session.
#[derive(Debug)]
pub enum SpillError {
    /// Underlying file I/O failed (the injected-ENOSPC path included).
    Io(std::io::Error),
    /// A fully-framed record's payload is malformed — a bad tag or kind
    /// code, or trailing bytes. This indicates a writer bug or on-disk
    /// corruption, not an interrupted append.
    Corrupt(String),
    /// A segment file whose fixed header is missing or wrong (bad magic,
    /// unsupported version, shard/session mismatch).
    BadHeader {
        /// Segment file with the bad header.
        path: PathBuf,
        /// What was wrong with it.
        what: String,
    },
}

impl std::fmt::Display for SpillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpillError::Io(e) => write!(f, "spill I/O failed: {e}"),
            SpillError::Corrupt(what) => write!(f, "corrupt spill record: {what}"),
            SpillError::BadHeader { path, what } => {
                write!(f, "bad spill segment header in {}: {what}", path.display())
            }
        }
    }
}

impl std::error::Error for SpillError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpillError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SpillError {
    fn from(e: std::io::Error) -> Self {
        SpillError::Io(e)
    }
}

/// Result alias for spill operations.
pub type SpillResult<T> = Result<T, SpillError>;

// ---------------------------------------------------------------------------
// The per-session manifest
// ---------------------------------------------------------------------------

/// What one shard contributes to the manifest: its segment list and the
/// per-thread durable node counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardManifest {
    /// `(records, bytes)` per segment, in segment-index order. `bytes`
    /// includes the fixed header and covers exactly the synced prefix of
    /// the file at snapshot time.
    pub segments: Vec<(u64, u64)>,
    /// Durable node-record count per thread (raw thread index): the length
    /// of the thread's prefix on disk.
    pub thread_counts: BTreeMap<u32, u64>,
}

/// One segment named by a parsed manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ManifestSegment {
    /// Shard the segment belongs to.
    pub shard: usize,
    /// Segment index within the shard.
    pub index: usize,
    /// Records the manifest vouches for.
    pub records: u64,
    /// Durable byte length (header included) the manifest vouches for.
    pub bytes: u64,
}

/// A parsed `MANIFEST` file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParsedManifest {
    /// Session id the manifest belongs to.
    pub session_id: u64,
    /// `true` once the session sealed cleanly (final update).
    pub clean: bool,
    /// Durable node counts per thread (raw thread index): the durable
    /// per-thread prefixes recovery computes the consistent cut over.
    pub thread_counts: BTreeMap<u32, u64>,
    /// Every segment the manifest vouches for.
    pub segments: Vec<ManifestSegment>,
}

/// Parses the text manifest format. Any malformed line is a
/// [`SpillError::Corrupt`] — recovery treats that as "no manifest".
pub fn parse_manifest(text: &str) -> SpillResult<ParsedManifest> {
    let corrupt = |what: String| SpillError::Corrupt(format!("manifest: {what}"));
    let mut lines = text.lines();
    match lines.next() {
        Some(MANIFEST_HEADER) => {}
        other => {
            return Err(corrupt(format!("bad header line {other:?}")));
        }
    }
    let mut manifest = ParsedManifest::default();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let parse_u64 = |s: &str| {
            s.parse::<u64>()
                .map_err(|_| corrupt(format!("bad number {s:?} in line {line:?}")))
        };
        match fields.as_slice() {
            ["session", id] => manifest.session_id = parse_u64(id)?,
            ["clean", flag] => manifest.clean = parse_u64(flag)? != 0,
            ["thread", tid, count] => {
                manifest
                    .thread_counts
                    .insert(parse_u64(tid)? as u32, parse_u64(count)?);
            }
            ["segment", shard, index, records, bytes] => {
                manifest.segments.push(ManifestSegment {
                    shard: parse_u64(shard)? as usize,
                    index: parse_u64(index)? as usize,
                    records: parse_u64(records)?,
                    bytes: parse_u64(bytes)?,
                });
            }
            _ => return Err(corrupt(format!("unrecognised line {line:?}"))),
        }
    }
    Ok(manifest)
}

/// Reads and parses `dir/MANIFEST`. `Ok(None)` when the file does not
/// exist; a stale `MANIFEST.tmp` is deliberately ignored (an interrupted
/// atomic-rename update must not shadow the last published manifest).
pub fn read_manifest(dir: &Path) -> SpillResult<Option<ParsedManifest>> {
    match std::fs::read_to_string(dir.join(MANIFEST_FILE)) {
        Ok(text) => parse_manifest(&text).map(Some),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(SpillError::Io(e)),
    }
}

/// Serialises and atomically publishes the per-session manifest.
///
/// All shards of one builder share one writer; a spill round replaces that
/// shard's entry in memory, and the file is republished via
/// `MANIFEST.tmp` + rename so readers only ever observe a complete
/// manifest. *When* a round publishes is the builder's call and follows
/// the durability policy: under [`SpillDurability::None`] (no durability
/// promise) only a round that opened a segment does — the rewrite-per-cut
/// cost would otherwise dominate the spill hot path for a tier that
/// promises nothing — while `Flush` and `Fsync` publish at every durable
/// cut: the manifest *is* their durable frontier. Under `Fsync` the tmp
/// file is additionally fsynced before the rename and the directory after
/// it.
#[derive(Debug)]
pub struct ManifestWriter {
    dir: PathBuf,
    session_id: u64,
    durability: SpillDurability,
    state: Mutex<ManifestState>,
}

#[derive(Debug, Default)]
struct ManifestState {
    shards: BTreeMap<usize, ShardManifest>,
    clean: bool,
    frozen: bool,
}

impl ManifestWriter {
    /// A writer for `dir`; nothing is written until the first update.
    pub fn new(dir: impl Into<PathBuf>, session_id: u64, durability: SpillDurability) -> Self {
        ManifestWriter {
            dir: dir.into(),
            session_id,
            durability,
            state: Mutex::new(ManifestState::default()),
        }
    }

    /// Replaces `shard`'s manifest entry without touching the file; the
    /// next publication carries it. A frozen writer (post-crash) ignores
    /// the update: after a simulated crash the manifest must stay exactly
    /// as the dying process left it.
    pub fn set_shard(&self, shard: usize, snapshot: ShardManifest) {
        let mut state = self.state.lock();
        if !state.frozen {
            state.shards.insert(shard, snapshot);
        }
    }

    /// Replaces `shard`'s manifest entry and republishes the file.
    pub fn update_shard(&self, shard: usize, snapshot: ShardManifest) -> std::io::Result<()> {
        self.set_shard(shard, snapshot);
        self.publish()
    }

    /// Publishes the current state. A spill directory carries its
    /// session's manifest from the moment it can receive records (the
    /// builder publishes the empty one at creation), so even a crash during
    /// the very first round leaves one behind for recovery.
    pub fn publish(&self) -> std::io::Result<()> {
        let state = self.state.lock();
        if state.frozen {
            return Ok(());
        }
        self.write_locked(&state)
    }

    /// Marks the manifest clean (final seal-time update) and republishes
    /// with every shard's latest (possibly deferred) entry.
    pub fn mark_clean(&self) -> std::io::Result<()> {
        let mut state = self.state.lock();
        if state.frozen {
            return Ok(());
        }
        state.clean = true;
        self.write_locked(&state)
    }

    /// Freezes the writer: all further updates become no-ops. Used by
    /// crash injection — a dead process updates nothing.
    pub fn freeze(&self) {
        self.state.lock().frozen = true;
    }

    /// Deletes the manifest (and any stale tmp): what a seal that does
    /// not keep the image does last. Nothing publishes after it.
    pub fn cleanup(&self) {
        let _ = std::fs::remove_file(self.dir.join(MANIFEST_FILE));
        let _ = std::fs::remove_file(self.dir.join(MANIFEST_TMP_FILE));
    }

    fn write_locked(&self, state: &ManifestState) -> std::io::Result<()> {
        let mut text = String::new();
        text.push_str(MANIFEST_HEADER);
        text.push('\n');
        text.push_str(&format!("session {}\n", self.session_id));
        text.push_str(&format!("clean {}\n", u64::from(state.clean)));
        let mut threads: BTreeMap<u32, u64> = BTreeMap::new();
        for shard in state.shards.values() {
            for (&tid, &count) in &shard.thread_counts {
                *threads.entry(tid).or_insert(0) += count;
            }
        }
        for (tid, count) in &threads {
            text.push_str(&format!("thread {tid} {count}\n"));
        }
        for (&shard, entry) in &state.shards {
            for (index, &(records, bytes)) in entry.segments.iter().enumerate() {
                text.push_str(&format!("segment {shard} {index} {records} {bytes}\n"));
            }
        }
        let tmp = self.dir.join(MANIFEST_TMP_FILE);
        let mut file = File::create(&tmp)?;
        file.write_all(text.as_bytes())?;
        if self.durability == SpillDurability::Fsync {
            file.sync_all()?;
        }
        drop(file);
        std::fs::rename(&tmp, self.dir.join(MANIFEST_FILE))?;
        if self.durability == SpillDurability::Fsync {
            File::open(&self.dir)?.sync_all()?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The per-shard store
// ---------------------------------------------------------------------------

/// Metadata of one written segment file.
#[derive(Debug, Clone)]
struct SegmentMeta {
    path: PathBuf,
    /// Complete records committed so far.
    records: u64,
    /// Byte length of the committed, fully-framed prefix (header included).
    bytes: u64,
}

/// One spill round being staged: its frames back to back, and what
/// committing them adds to the store's counters.
#[derive(Debug, Default)]
struct Round {
    /// Whole frames (`len | tag | payload | crc`), in staging order.
    frames: Vec<u8>,
    /// Offset in `frames` of the newest frame.
    last_frame: usize,
    records: u64,
    /// Node frames staged per thread (raw index), one entry per run.
    nodes: Vec<(u32, u64)>,
    /// A commit attempt of this round opened a new segment.
    rolled: bool,
}

/// Append-only spill store of one shard: the open segment writer, the
/// segment file list, and the round being staged.
#[derive(Debug)]
pub struct SpillStore {
    dir: PathBuf,
    shard: usize,
    segment_bytes: u64,
    durability: SpillDurability,
    session_id: u64,
    /// All segments written so far (index = segment number).
    segments: Vec<SegmentMeta>,
    /// Writer for the last segment in `segments`.
    current: Option<File>,
    /// Committed length of the current segment (fixed header included).
    current_len: u64,
    /// A write attempt failed: the file may hold part of a round past
    /// `current_len`, and the next attempt must cut it back first.
    rewind_due: bool,
    /// Total payload + framing bytes committed.
    bytes_written: u64,
    /// Segment `write_all` calls issued since creation: one per opened
    /// segment (its header) plus one per round commit attempt.
    writes: u64,
    /// Complete node records committed per thread (raw index) — the
    /// per-thread durable frontier published through the manifest.
    thread_counts: BTreeMap<u32, u64>,
    round: Round,
    /// Test hook: each entry makes one commit attempt write only that many
    /// bytes of its round and then fail, like a device filling up mid-write.
    #[cfg(test)]
    partial_writes: Vec<usize>,
}

impl SpillStore {
    /// Creates the store for shard `shard` under `settings.dir` (created
    /// here if needed, and only here), with the settings' segment size, durability policy and
    /// session id.
    pub fn create(settings: &SpillSettings, shard: usize) -> std::io::Result<Self> {
        std::fs::create_dir_all(&settings.dir)?;
        Ok(SpillStore {
            dir: settings.dir.clone(),
            shard,
            segment_bytes: settings.segment_bytes.max(1),
            durability: settings.durability,
            session_id: settings.session_id,
            segments: Vec::new(),
            current: None,
            current_len: 0,
            rewind_due: false,
            bytes_written: 0,
            writes: 0,
            thread_counts: BTreeMap::new(),
            round: Round::default(),
            #[cfg(test)]
            partial_writes: Vec::new(),
        })
    }

    /// Bytes committed (framing included).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Segment `write_all` calls issued since the store was created.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Test hook: the next commit attempts write only `partial[i]` bytes of
    /// their round and fail, first entry first.
    #[cfg(test)]
    pub(crate) fn fail_next_writes(&mut self, partial: &[usize]) {
        self.partial_writes = partial.iter().rev().copied().collect();
    }

    /// Starts staging a round, dropping whatever an abandoned one left.
    pub fn begin_round(&mut self) {
        self.round.frames.clear();
        self.round.nodes.clear();
        self.round.last_frame = 0;
        self.round.records = 0;
        self.round.rolled = false;
    }

    /// Appends one whole frame to the round: length word, tag, the payload
    /// `encode` writes, CRC32 trailer.
    fn stage(&mut self, tag: u8, encode: impl FnOnce(&mut Vec<u8>)) {
        self.round.last_frame = self.round.frames.len();
        put_frame(&mut self.round.frames, tag, encode);
        self.round.records += 1;
    }

    /// Stages one finished sub-computation.
    pub fn stage_node(&mut self, sub: &SubComputation) {
        self.stage(TAG_NODE, |buf| encode_node(buf, sub));
        let thread = sub.id.thread.index() as u32;
        match self.round.nodes.last_mut() {
            Some((t, n)) if *t == thread => *n += 1,
            _ => self.round.nodes.push((thread, 1)),
        }
    }

    /// Ensures a writable segment with room is open, rolling (and syncing
    /// the finished segment per the durability policy) if needed.
    fn open_segment(&mut self) -> std::io::Result<()> {
        if self.current.is_some() && self.current_len < self.segment_bytes {
            return Ok(());
        }
        if let Some(finished) = self.current.take() {
            if self.durability != SpillDurability::None {
                finished.sync_data()?;
            }
        }
        let path = self
            .dir
            .join(segment_file_name(self.shard, self.segments.len()));
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(&path)?;
        self.writes += 1;
        file.write_all(&segment_header(self.shard as u32, self.session_id))?;
        self.segments.push(SegmentMeta {
            path,
            records: 0,
            bytes: SEGMENT_HEADER_BYTES,
        });
        self.current = Some(file);
        self.current_len = SEGMENT_HEADER_BYTES;
        self.rewind_due = false;
        self.round.rolled = true;
        Ok(())
    }

    /// Cuts the current segment back to its committed length after a
    /// failed write, so the next attempt cannot land behind a partial one.
    fn rewind(&mut self) -> std::io::Result<()> {
        if !self.rewind_due {
            return Ok(());
        }
        if let Some(file) = self.current.as_mut() {
            file.set_len(self.current_len)?;
            file.seek(SeekFrom::Start(self.current_len))?;
        }
        self.rewind_due = false;
        Ok(())
    }

    /// The round's one `write`.
    fn write_frames(&mut self) -> std::io::Result<()> {
        self.open_segment()?;
        self.rewind()?;
        let file = self.current.as_mut().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotConnected, "spill writer not open")
        })?;
        self.writes += 1;
        #[cfg(test)]
        if let Some(k) = self.partial_writes.pop() {
            file.write_all(&self.round.frames[..k.min(self.round.frames.len())])?;
            return Err(std::io::Error::other("injected partial write"));
        }
        file.write_all(&self.round.frames)
    }

    /// Commits the staged round with a single write (after rolling to a
    /// new segment if the current one is full) and only then moves the
    /// counters the manifest snapshot is built from. Returns whether the
    /// round opened a segment. An empty round is a no-op.
    ///
    /// # Errors
    ///
    /// On failure nothing is committed: the segment is cut back to the
    /// previous round's end (at once, or before the next attempt writes if
    /// that failed too), the round stays staged, and the call can be
    /// retried.
    pub fn commit_round(&mut self) -> std::io::Result<bool> {
        if self.round.frames.is_empty() {
            return Ok(false);
        }
        if let Err(e) = self.write_frames() {
            self.rewind_due = self.current.is_some();
            let _ = self.rewind();
            return Err(e);
        }
        let total = self.round.frames.len() as u64;
        self.current_len += total;
        self.bytes_written += total;
        if let Some(meta) = self.segments.last_mut() {
            meta.records += self.round.records;
            meta.bytes = self.current_len;
        }
        for (thread, nodes) in self.round.nodes.drain(..) {
            *self.thread_counts.entry(thread).or_insert(0) += nodes;
        }
        self.round.frames.clear();
        self.round.records = 0;
        Ok(self.round.rolled)
    }

    /// Deterministically simulates dying inside the round's write: the
    /// newest staged frame is cut to its length word plus half its payload
    /// (never the CRC trailer), the buffer is written once, and nothing is
    /// committed — exactly the on-disk state a crash between `write` and
    /// bookkeeping leaves behind. The writer is closed: a dead process
    /// appends nothing further.
    pub fn commit_torn(&mut self) -> std::io::Result<()> {
        // `len | payload | crc`: keep the length word and half the payload.
        let start = self.round.last_frame;
        let Some(payload_len) = (self.round.frames.len() - start).checked_sub(8) else {
            return Ok(());
        };
        self.round.frames.truncate(start + 4 + payload_len / 2);
        let written = self.write_frames();
        self.current = None;
        self.begin_round();
        written
    }

    /// Pushes everything committed so far toward stable storage according
    /// to the durability policy, so the manifest may name it. A no-op
    /// under [`SpillDurability::None`].
    pub fn sync_for_cut(&mut self) -> std::io::Result<()> {
        match self.current.as_mut() {
            Some(file) if self.durability != SpillDurability::None => file.sync_data(),
            _ => Ok(()),
        }
    }

    /// Snapshot of this shard's durable state for the manifest: segment
    /// record/byte counts and the per-thread node counts. Only call after
    /// [`SpillStore::sync_for_cut`] so the snapshot never names
    /// non-durable bytes.
    pub fn manifest_snapshot(&self) -> ShardManifest {
        ShardManifest {
            segments: self
                .segments
                .iter()
                .map(|meta| (meta.records, meta.bytes))
                .collect(),
            thread_counts: self.thread_counts.clone(),
        }
    }

    /// What the store vouches for, as a read plan: every segment it opened,
    /// with its committed record count and byte length — the segment list
    /// of the manifest it would publish now. Bytes past a committed length
    /// (a round that failed or never committed) are not in it.
    pub(crate) fn plan(&self) -> Vec<ManifestSegment> {
        let shard = self.shard;
        self.segments
            .iter()
            .enumerate()
            .map(|(index, meta)| ManifestSegment {
                shard,
                index,
                records: meta.records,
                bytes: meta.bytes,
            })
            .collect()
    }

    /// Closes the open segment and deletes every segment file (best
    /// effort), so the store vouches for none: what a seal that does not
    /// keep the image does once it has read them — the only deletion of a
    /// spill file. It resets nothing else; the store takes no round after
    /// it.
    pub(crate) fn clear(&mut self) {
        self.current = None;
        for meta in self.segments.drain(..) {
            let _ = std::fs::remove_file(meta.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::codec::{
        crc32, decode_node, parse_segment_header, scan_segment, ScanEnd, MIN_NODE_FRAME_BYTES,
    };
    use super::*;
    use crate::event::{AccessKind, SyncKind};
    use crate::ids::{PageId, SubId, SyncObjectId, ThreadId};
    use crate::recorder::{SyncObject, ThreadRecorder};
    use crate::recover::{read_segments, RecoveryReport};
    use crate::testing::TempDir;

    /// A store under `dir` with the given segment size.
    fn store_in(dir: &Path, shard: usize, segment_bytes: u64) -> SpillStore {
        let settings = SpillSettings {
            segment_bytes,
            ..SpillSettings::new(1, dir)
        };
        SpillStore::create(&settings, shard).unwrap()
    }

    /// The node records `store` committed: its per-thread counts' total.
    fn spilled(store: &SpillStore) -> u64 {
        store.thread_counts.values().sum()
    }

    fn recorded_subs() -> Vec<SubComputation> {
        recorded_subs_of(2)
    }

    /// Six lock-protected sub-computations of thread `thread`, and the
    /// seventh its recorder finishes with.
    fn recorded_subs_of(thread: u32) -> Vec<SubComputation> {
        let lock = SyncObject::new(SyncObjectId::new(7));
        let mut rec = ThreadRecorder::new(ThreadId::new(thread));
        for i in 0..6u64 {
            rec.on_synchronization(&lock, SyncKind::Acquire);
            rec.on_memory_access(PageId::new(i % 3), AccessKind::Read);
            rec.on_memory_access(PageId::new(10 + i), AccessKind::Write);
            rec.on_branch(crate::event::BranchKind::ConditionalTaken, 0x40_0000 + i);
            rec.on_synchronization(&lock, SyncKind::Release);
        }
        rec.finish()
    }

    /// Commits `subs` as one round.
    fn commit_nodes(store: &mut SpillStore, subs: &[SubComputation]) {
        store.begin_round();
        for sub in subs {
            store.stage_node(sub);
        }
        store.commit_round().unwrap();
    }

    /// What the seal reads of `stores` (one directory, one session): what
    /// each vouches for, through recovery's core, with no live tail.
    fn read(stores: &[&SpillStore]) -> (Vec<SubComputation>, RecoveryReport) {
        let plan: Vec<ManifestSegment> = stores.iter().flat_map(|store| store.plan()).collect();
        let mut report = RecoveryReport::default();
        let (nodes, unreadable) = read_segments(
            &stores[0].dir,
            stores[0].session_id,
            &plan,
            Vec::new(),
            &mut report,
        );
        assert!(unreadable.is_none(), "{unreadable:?}");
        (nodes, report)
    }

    /// The bytes of the store's newest segment file.
    fn segment_bytes(store: &SpillStore) -> Vec<u8> {
        std::fs::read(&store.segments.last().unwrap().path).unwrap()
    }

    #[test]
    fn node_codec_roundtrip_is_exact() {
        for sub in recorded_subs() {
            let mut buf = Vec::new();
            encode_node(&mut buf, &sub);
            let decoded = decode_node(&buf).unwrap();
            assert_eq!(decoded, sub);
            // Representation-exact, not just Eq: the equivalence suites
            // fingerprint through Debug.
            assert_eq!(format!("{decoded:?}"), format!("{sub:?}"));
        }
    }

    /// `L_2[0]` with two page touches and one branch of every kind, and the
    /// branch-free `L_2[1]` behind it.
    fn golden_subs() -> Vec<SubComputation> {
        use crate::event::BranchKind;
        let mut rec = ThreadRecorder::new(ThreadId::new(2));
        rec.on_memory_access(PageId::new(3), AccessKind::Read);
        rec.on_memory_access(PageId::new(17), AccessKind::Write);
        rec.on_branch(BranchKind::ConditionalTaken, 0x40_0000);
        rec.on_branch(BranchKind::ConditionalNotTaken, 0x40_0010);
        rec.on_branch(BranchKind::Indirect, 0x7fff_1234_5678);
        rec.on_branch(BranchKind::Return, 0x40_0020);
        rec.on_synchronization(&SyncObject::new(SyncObjectId::new(7)), SyncKind::Release);
        rec.finish()
    }

    /// `encode_node(golden_subs()[0])` in format v4: id, clock ⟨0,0,1⟩,
    /// read page 3, written page 17, the 27-byte branch log (four runs of
    /// one branch: header, IP at its width, kind byte), release of object 7.
    const GOLDEN_NODE_HEX: &str = "\
        0200 03000001 0103 0111 1b \
        130000004000 130010004001 160078563412ff7f02 130020004003 \
        0107";
    /// Byte offset of the branch log's length in the golden payload, and
    /// that length.
    const GOLDEN_LOG_AT: usize = 10;
    const GOLDEN_LOG_BYTES: usize = 27;

    fn unhex(hex: &str) -> Vec<u8> {
        let hex: String = hex.split_whitespace().collect();
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn node_encoding_is_byte_identical_to_the_materialised_form() {
        let subs = golden_subs();
        let mut buf = Vec::new();
        encode_node(&mut buf, &subs[0]);
        assert_eq!(buf, unhex(GOLDEN_NODE_HEX));
        assert_eq!(decode_node(&buf).unwrap(), subs[0]);
        // No branches, an empty log.
        let mut buf = Vec::new();
        encode_node(&mut buf, &subs[1]);
        assert_eq!(buf, unhex("0201 03000002 00 00 00 00"));
    }

    /// The read side sizes its store by the shortest frame: the empty
    /// node's.
    #[test]
    fn the_empty_node_has_the_shortest_frame() {
        let empty = SubComputation::new(SubId::new(ThreadId::new(0), 0), Default::default());
        let frame = lone_frame(TAG_NODE, |buf| encode_node(buf, &empty));
        assert_eq!(frame.len() as u64, MIN_NODE_FRAME_BYTES);
    }

    /// The golden payload with its branch log replaced by `log`.
    fn with_log(log: &[u8]) -> Vec<u8> {
        let golden = unhex(GOLDEN_NODE_HEX);
        let mut payload = golden[..GOLDEN_LOG_AT].to_vec();
        payload.push(log.len() as u8);
        payload.extend_from_slice(log);
        payload.extend_from_slice(&golden[GOLDEN_LOG_AT + 1 + GOLDEN_LOG_BYTES..]);
        payload
    }

    /// CRC-valid payloads that are not the encoding of any node: what the
    /// decoder must call corrupt, and a fragment of its message. The first
    /// group breaks the branch log's canonical form, the second a varint
    /// or another field.
    fn broken_chains() -> Vec<(&'static str, &'static str, Vec<u8>)> {
        let logs = [
            ("empty run", "no branches", "0300 200040"),
            ("wide IP", "minimal width", "1900 000000400000000000 00"),
            ("zero top IP byte", "minimal width", "1400 00004000 00"),
            ("IP 0 in a byte", "minimal width", "1100 00 00"),
            ("stray kind bits", "past a run's last", "1300 000040 04"),
            (
                "repeated IP",
                "repeats the IP",
                "1300 000040 00 1300 000040 01",
            ),
        ];
        let golden = unhex(GOLDEN_NODE_HEX);
        // Golden byte `at` replaced by the bytes of `hex`.
        let fields = [
            ("overlong thread", "overlong varint", 0, "8200"),
            ("overlong page", "overlong varint", 7, "8300"),
            ("varint past u64", "past u64", 1, "ffffffffffffffffff02"),
            ("thread past u32", "thread 4294967296", 0, "8080808010"),
            ("repeated page", "page step 0", 6, "020300"),
            ("log past the payload", "elements in", GOLDEN_LOG_AT, "7f"),
            ("sync kind 4", "sync kind 4", golden.len() - 2, "04"),
        ];
        let log = &golden[GOLDEN_LOG_AT + 1..][..GOLDEN_LOG_BYTES];
        let mut cases: Vec<_> = logs
            .iter()
            .map(|&(what, expected, hex)| (what, expected, with_log(&unhex(hex))))
            .collect();
        cases.push(("cut in a run", "inside a run", with_log(&log[..26])));
        cases.push((
            "cut in a header",
            "run header",
            with_log(&[log, &[0x13]].concat()),
        ));
        for (what, expected, at, hex) in fields {
            let mut payload = golden.clone();
            payload.splice(at..at + 1, unhex(hex));
            cases.push((what, expected, payload));
        }
        cases.push(("trailing byte", "trailing", [&golden[..], &[0]].concat()));
        cases
    }

    #[test]
    fn broken_thunk_chains_are_corrupt_not_a_different_list() {
        for (what, expected, payload) in broken_chains() {
            match decode_node(&payload) {
                Err(SpillError::Corrupt(msg)) => assert!(msg.contains(expected), "{what}: {msg}"),
                other => panic!("{what}: expected Corrupt, got {other:?}"),
            }
        }
    }

    /// Two good node records, then a framed record whose CRC is right but
    /// whose `payload` does not decode, then a record that is fine again:
    /// recovery keeps the prefix, counts one decode failure and accounts
    /// every byte from the bad frame on as lost.
    fn assert_recovery_skips_the_record(what: &str, payload: &[u8]) {
        let tmp = TempDir::new("spill-test");
        let dir = tmp.path();
        let subs = recorded_subs();
        let mut store = store_in(dir, 0, DEFAULT_SEGMENT_BYTES);
        commit_nodes(&mut store, &subs[..2]);
        let good_bytes = store.bytes_written();
        store.begin_round();
        store.stage(TAG_NODE, |buf| buf.extend_from_slice(payload));
        store.stage_node(&subs[2]);
        store.commit_round().unwrap();
        let manifest = ManifestWriter::new(dir, 0, SpillDurability::None);
        manifest.update_shard(0, store.manifest_snapshot()).unwrap();
        let lost = store.bytes_written() - good_bytes;
        drop(store);

        let recovery = crate::recover::recover_session(dir).unwrap();
        let report = &recovery.report;
        assert_eq!(report.decode_failures, 1, "{what}");
        assert_eq!(report.crc_failures + report.torn_records, 0, "{what}");
        assert_eq!(report.lost_bytes, lost, "{what}");
        assert_eq!(report.recovered_nodes, 2, "{what}");
        assert!(recovery.cpg.nodes().eq(subs[..2].iter()), "{what}");
    }

    #[test]
    fn recovery_counts_a_crc_valid_broken_chain_as_a_skipped_record() {
        for (what, _, payload) in broken_chains() {
            assert_recovery_skips_the_record(what, &payload);
        }
    }

    /// The golden payload claiming a clock of `u32::MAX` components, as a
    /// varint: the record is rejected before any clock is sized to it.
    fn huge_clock_payload() -> Vec<u8> {
        let mut payload = unhex(GOLDEN_NODE_HEX);
        // The clock length follows the two-byte id.
        payload.splice(2..3, [0xFF, 0xFF, 0xFF, 0xFF, 0x0F]);
        payload
    }

    #[test]
    fn a_huge_clock_length_is_a_decode_error_in_the_scan() {
        let mut image = segment_header(0, 0).to_vec();
        let good = recorded_subs();
        image.extend(lone_frame(TAG_NODE, |buf| encode_node(buf, &good[0])));
        let bad_at = image.len();
        image.extend(lone_frame(TAG_NODE, |buf| {
            buf.extend_from_slice(&huge_clock_payload())
        }));
        let mut delivered = Vec::new();
        match scan_segment(&image, image.len(), |sub| delivered.push(sub)) {
            ScanEnd::Decode(at) => assert_eq!(at, bad_at),
            other => panic!("expected a decode error, got {other:?}"),
        }
        assert_eq!(delivered, good[..1]);
        // The record is refused by the length check, before a clock is sized.
        match decode_node(&huge_clock_payload()) {
            Err(SpillError::Corrupt(msg)) => {
                assert!(
                    msg.contains("4294967295 elements in 37 payload bytes"),
                    "{msg}"
                )
            }
            other => panic!("expected a corrupt record, got {other:?}"),
        }
    }

    #[test]
    fn recovery_counts_a_huge_clock_length_as_a_skipped_record() {
        assert_recovery_skips_the_record("huge clock", &huge_clock_payload());
    }

    #[test]
    fn store_commits_rounds_and_clears() {
        let tmp = TempDir::new("spill-test");
        let dir = tmp.path();
        let subs = recorded_subs();
        let mut store = store_in(dir, 0, DEFAULT_SEGMENT_BYTES);
        // Two rounds: four nodes, then the remaining ones.
        store.begin_round();
        for sub in &subs[..4] {
            store.stage_node(sub);
        }
        assert_eq!(spilled(&store), 0, "staging commits nothing");
        assert!(
            store.commit_round().unwrap(),
            "the first round opens segment 0"
        );
        commit_nodes(&mut store, &subs[4..]);
        assert_eq!(spilled(&store), subs.len() as u64);
        assert!(store.bytes_written() > 0);
        // One write for the header, one per round — none per record.
        assert_eq!(store.writes(), 3);
        // An empty round is a no-op.
        store.begin_round();
        assert!(!store.commit_round().unwrap());
        assert_eq!(store.writes(), 3);

        // The read returns everything in append order, every byte decoded.
        let (nodes, report) = read(&[&store]);
        assert_eq!(nodes, subs);
        assert!(!report.lost_vouched(), "{report:?}");
        assert_eq!(report.header_bytes, SEGMENT_HEADER_BYTES);
        assert_eq!(report.recovered_bytes, store.bytes_written());
        assert_eq!(report.lost_bytes, 0);
        // A clean seal's clear deletes the segment, which leaves the store
        // nothing to vouch for.
        store.clear();
        assert_eq!(store.segments.len(), 0);
        assert_eq!(std::fs::read_dir(dir).unwrap().count(), 0);
        let (nodes, report) = read(&[&store]);
        assert!(nodes.is_empty());
        assert_eq!(report, RecoveryReport::default());
    }

    #[test]
    fn segments_roll_at_round_boundaries() {
        let tmp = TempDir::new("spill-test");
        let dir = tmp.path();
        let subs = recorded_subs();
        // Rounds of two nodes against a segment size a few rounds wide.
        let round: usize = subs[..2]
            .iter()
            .map(|sub| lone_frame(TAG_NODE, |buf| encode_node(buf, sub)).len())
            .sum();
        let limit = SEGMENT_HEADER_BYTES + 2 * round as u64;
        let mut store = store_in(dir, 3, limit);
        let mut largest_round = 0;
        for round in subs.chunks(2) {
            let before = store.bytes_written();
            commit_nodes(&mut store, round);
            largest_round = largest_round.max(store.bytes_written() - before);
        }
        assert!(store.segments.len() > 1, "{}", store.segments.len());
        let (last, full) = store.segments.split_last().unwrap();
        // A segment is left only once it is full, and exceeds the limit by
        // less than one round: the roll happens before a round, never
        // inside it.
        for meta in full {
            assert!(meta.bytes >= limit, "{meta:?}");
        }
        for meta in full.iter().chain([last]) {
            assert!(meta.bytes < limit + largest_round, "{meta:?}");
            assert_eq!(std::fs::metadata(&meta.path).unwrap().len(), meta.bytes);
        }
        // One write per segment header and one per round.
        assert_eq!(
            store.writes(),
            (store.segments.len() + subs.chunks(2).len()) as u64
        );
        // The read crosses the segment boundaries.
        let (nodes, report) = read(&[&store]);
        assert_eq!(nodes, subs);
        assert_eq!(
            report.header_bytes,
            store.segments.len() as u64 * SEGMENT_HEADER_BYTES
        );
        assert_eq!(report.recovered_bytes, store.bytes_written());
        assert_eq!(report.lost_bytes, 0);
    }

    /// A named way to damage one segment file.
    type Damage = (&'static str, fn(&Path));

    /// A segment in the middle of a multi-segment store is damaged: the read
    /// stops at the same place, with the same report, on one worker and on
    /// several, and an undamaged store reads identically.
    #[test]
    fn parallel_read_is_the_sequential_read() {
        let damages: [Damage; 4] = [
            ("clean", |_| {}),
            ("flipped crc", |path| {
                let mut bytes = std::fs::read(path).unwrap();
                bytes[SEGMENT_HEADER_BYTES as usize + 6] ^= 0x40;
                std::fs::write(path, bytes).unwrap();
            }),
            ("bad header", |path| {
                let mut bytes = std::fs::read(path).unwrap();
                bytes[0] ^= 0xFF;
                std::fs::write(path, bytes).unwrap();
            }),
            ("missing file", |path| std::fs::remove_file(path).unwrap()),
        ];
        let subs: Vec<SubComputation> = (0..8).flat_map(|_| recorded_subs()).collect();
        // The eight copies of one run come back in (thread, α) order, equal
        // ids in append order.
        let in_order = |subs: &[SubComputation]| {
            let mut subs = subs.to_vec();
            subs.sort_by_key(|sub| sub.id);
            subs
        };
        for (what, damage) in damages {
            let tmp = TempDir::new("spill-test");
            let mut store = store_in(tmp.path(), 1, 400);
            for round in subs.chunks(2) {
                commit_nodes(&mut store, round);
            }
            let count = store.segments.len();
            assert!(count >= 5, "{count}");
            let hit = count / 2;
            let before: u64 = store.segments[..hit].iter().map(|m| m.records).sum();
            let hit_bytes = store.segments[hit].bytes;
            let behind: u64 = store.segments[hit + 1..].iter().map(|m| m.bytes).sum();
            damage(&store.segments[hit].path);
            let outcome = |workers| crate::pool::with_workers(workers, || read(&[&store]));
            let sequential = outcome(1);
            for workers in [2, 4] {
                assert_eq!(outcome(workers), sequential, "{what}, {workers} workers");
            }
            // Read together with a clean store of another shard and thread,
            // the damage stays in the damaged shard: the nodes are the two
            // reads' in thread order, and the damage counters are the
            // damaged one's.
            let others = recorded_subs_of(3);
            let mut clean = store_in(tmp.path(), 2, 400);
            for round in others.chunks(3) {
                commit_nodes(&mut clean, round);
            }
            let (together, report) = crate::pool::with_workers(4, || read(&[&store, &clean]));
            let (alone, clean_report) = read(&[&clean]);
            assert_eq!(alone, others);
            assert_eq!(together, [sequential.0.clone(), alone].concat(), "{what}");
            let seq = &sequential.1;
            let sum = |f: fn(&RecoveryReport) -> u64| f(seq) + f(&clean_report);
            assert_eq!(report.total_bytes, sum(|r| r.total_bytes), "{what}");
            assert_eq!(report.header_bytes, sum(|r| r.header_bytes), "{what}");
            assert_eq!(report.recovered_bytes, sum(|r| r.recovered_bytes));
            assert_eq!(report.lost_bytes, seq.lost_bytes, "{what}");
            assert_eq!(
                (
                    report.crc_failures,
                    report.bad_headers,
                    report.missing_segments
                ),
                (seq.crc_failures, seq.bad_headers, seq.missing_segments),
                "{what}"
            );
            // The damage is located: every record before the damaged
            // segment is read, and its bytes and every later segment's are
            // accounted.
            let (nodes, report) = sequential;
            let header = SEGMENT_HEADER_BYTES;
            match what {
                "clean" => {
                    assert_eq!(nodes, in_order(&subs));
                    assert!(!report.lost_vouched(), "{report:?}");
                }
                "flipped crc" => {
                    assert_eq!(nodes, in_order(&subs[..before as usize]));
                    assert_eq!(report.crc_failures, 1);
                    assert_eq!(report.lost_bytes, hit_bytes - header + behind);
                }
                "bad header" => {
                    assert_eq!(nodes, in_order(&subs[..before as usize]));
                    assert_eq!(report.bad_headers, 1);
                    assert_eq!(report.lost_bytes, hit_bytes + behind);
                }
                _ => {
                    assert_eq!(nodes, in_order(&subs[..before as usize]));
                    assert_eq!(report.missing_segments, 1);
                    assert_eq!(report.missing_bytes, hit_bytes);
                    assert_eq!(report.lost_bytes, behind);
                }
            }
            assert_eq!(
                report.recovered_bytes + report.header_bytes + report.lost_bytes,
                report.total_bytes,
                "{what}"
            );
        }
    }

    #[test]
    fn torn_final_record_is_skipped_and_counted() {
        // Crash-mid-append round trip: commit, truncate the segment inside
        // the final record, read. The surviving prefix comes back intact
        // and the torn record is counted, never a panic.
        let tmp = TempDir::new("spill-test");
        let dir = tmp.path();
        let subs = recorded_subs();
        let mut store = store_in(dir, 0, DEFAULT_SEGMENT_BYTES);
        commit_nodes(&mut store, &subs);
        // Close, then chop the file inside the last record's CRC trailer
        // (and separately mid-payload).
        store.current = None;
        let path = store.segments.last().unwrap().path.clone();
        let full = std::fs::read(&path).unwrap();
        for chop in [3u64, 9] {
            let file = OpenOptions::new().write(true).open(&path).unwrap();
            file.set_len(full.len() as u64 - chop).unwrap();
            drop(file);
            let (nodes, report) = read(&[&store]);
            assert_eq!(nodes, &subs[..subs.len() - 1]);
            assert_eq!(report.torn_records, 1, "chop {chop}");
            assert_eq!(report.missing_bytes, chop, "chop {chop}");
            // What is left of the torn frame on disk is lost, and nothing
            // else.
            let frame_start = SEGMENT_HEADER_BYTES + report.recovered_bytes;
            assert_eq!(
                report.lost_bytes,
                full.len() as u64 - chop - frame_start,
                "chop {chop}"
            );
            assert!(report.lost_bytes > 0);
        }
    }

    #[test]
    fn corrupt_payload_is_a_counted_crc_failure_not_a_panic() {
        let tmp = TempDir::new("spill-test");
        let dir = tmp.path();
        let subs = recorded_subs();
        let mut store = store_in(dir, 0, DEFAULT_SEGMENT_BYTES);
        commit_nodes(&mut store, &subs[..1]);
        store.current = None;
        let path = store.segments.last().unwrap().path.clone();
        let mut bytes = std::fs::read(&path).unwrap();
        // Clobber the record tag (first payload byte after the segment
        // header and length prefix): the CRC trailer catches the flip, at
        // the record's offset — nothing before it is decoded, everything
        // from it on is lost.
        let tag_at = SEGMENT_HEADER_BYTES as usize + 4;
        bytes[tag_at] = 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (nodes, report) = read(&[&store]);
        assert!(nodes.is_empty());
        assert_eq!(report.crc_failures, 1, "{report:?}");
        assert_eq!(report.decode_failures + report.torn_records, 0);
        assert_eq!(report.header_bytes, SEGMENT_HEADER_BYTES);
        assert_eq!(report.recovered_bytes, 0);
        assert_eq!(report.lost_bytes, bytes.len() as u64 - SEGMENT_HEADER_BYTES);
    }

    #[test]
    fn bad_tag_with_valid_crc_is_a_located_decode_failure() {
        let tmp = TempDir::new("spill-test");
        let dir = tmp.path();
        let subs = recorded_subs();
        let mut store = store_in(dir, 0, DEFAULT_SEGMENT_BYTES);
        commit_nodes(&mut store, &subs[..1]);
        // A framed record with an unknown tag but a *valid* CRC, so the
        // decode (not the checksum) rejects it.
        let offset = store.current_len;
        store.begin_round();
        store.stage(9, |_| ());
        store.commit_round().unwrap();
        let (nodes, report) = read(&[&store]);
        assert_eq!(nodes, subs[..1]);
        assert_eq!(report.decode_failures, 1, "{report:?}");
        assert_eq!(report.crc_failures + report.torn_records, 0);
        // Located: decoding stopped at the bad record's offset.
        assert_eq!(SEGMENT_HEADER_BYTES + report.recovered_bytes, offset);
        assert_eq!(report.lost_bytes, store.current_len - offset);
    }

    #[test]
    fn crc32_matches_the_reference_vector() {
        // The canonical IEEE 802.3 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn segment_header_is_stamped_and_validated() {
        let tmp = TempDir::new("spill-test");
        let dir = tmp.path();
        let subs = recorded_subs();
        let settings = SpillSettings::new(1, dir).with_session_id(0xDEAD_BEEF);
        let mut store = SpillStore::create(&settings, 5).unwrap();
        commit_nodes(&mut store, &subs[..1]);
        store.current = None;
        let path = store.segments.last().unwrap().path.clone();
        let bytes = std::fs::read(&path).unwrap();
        let header = parse_segment_header(&bytes, &path).unwrap();
        assert_eq!(header.shard, 5);
        assert_eq!(header.session_id, 0xDEAD_BEEF);
        // A clobbered magic is a typed BadHeader naming the file.
        let mut clobbered = bytes.clone();
        clobbered[0] = b'X';
        let err = parse_segment_header(&clobbered, &path).unwrap_err();
        assert!(matches!(err, SpillError::BadHeader { .. }), "{err}");
        assert!(err.to_string().contains("bad magic"), "{err}");
        // An unsupported version is rejected too: a newer one, v3, whose
        // records expanded every thunk, and v2, which also held edges.
        for version in [99u32, 3, 2] {
            let mut other = bytes.clone();
            other[8..12].copy_from_slice(&version.to_le_bytes());
            let err = parse_segment_header(&other, &path).unwrap_err();
            assert!(matches!(err, SpillError::BadHeader { .. }), "{err}");
            assert!(
                err.to_string().contains(&format!("version {version}")),
                "{err}"
            );
        }
    }

    #[test]
    fn torn_commit_simulates_a_mid_write_crash() {
        let tmp = TempDir::new("spill-test");
        let dir = tmp.path();
        let subs = recorded_subs();
        let mut store = store_in(dir, 0, DEFAULT_SEGMENT_BYTES);
        commit_nodes(&mut store, &subs[..2]);
        let before = store.manifest_snapshot();
        let committed = segment_bytes(&store);
        // The crash round: one whole record, then the one the process
        // dies in.
        store.begin_round();
        store.stage_node(&subs[2]);
        let whole = store.round.frames.clone();
        store.stage_node(&subs[3]);
        let torn_frame = store.round.frames[whole.len()..].to_vec();
        store.commit_torn().unwrap();
        // On disk: the committed rounds, the whole frame, and the torn
        // one's length word plus half its payload.
        let payload_len = torn_frame.len() - RECORD_OVERHEAD_BYTES as usize;
        let expected = [
            &committed[..],
            &whole[..],
            &torn_frame[..4 + payload_len / 2],
        ]
        .concat();
        assert_eq!(segment_bytes(&store), expected);
        // The round never becomes durable state: counters and the manifest
        // snapshot are unchanged.
        assert_eq!(spilled(&store), 2);
        assert_eq!(store.manifest_snapshot(), before);
        // The read stops at the committed length: the crash round's bytes
        // are past what the store vouches for, counted and never decoded,
        // and nothing vouched for is lost.
        let (nodes, report) = read(&[&store]);
        assert_eq!(nodes, &subs[..2]);
        assert!(!report.lost_vouched(), "{report:?}");
        assert_eq!(
            report.unmanifested_bytes,
            (whole.len() + 4 + payload_len / 2) as u64
        );
        assert_eq!(report.lost_bytes, report.unmanifested_bytes);
    }

    /// The satellite bugfix: segments are not opened in append mode, so a
    /// retry after a partial write used to land *behind* the partial bytes.
    #[test]
    fn a_retried_round_never_lands_behind_a_partial_write() {
        let subs = recorded_subs();
        // The no-failure run.
        let clean_tmp = TempDir::new("spill-test");
        let clean_dir = clean_tmp.path();
        let mut clean = store_in(clean_dir, 0, DEFAULT_SEGMENT_BYTES);
        commit_nodes(&mut clean, &subs[..2]);
        let first_round = segment_bytes(&clean);
        commit_nodes(&mut clean, &subs[2..]);
        let both_rounds = segment_bytes(&clean);

        let tmp = TempDir::new("spill-test");

        let dir = tmp.path();
        let mut store = store_in(dir, 0, DEFAULT_SEGMENT_BYTES);
        commit_nodes(&mut store, &subs[..2]);
        let counters = (
            spilled(&store),
            store.bytes_written(),
            store.manifest_snapshot(),
        );
        // Two attempts die part-way (mid-frame, and after a whole frame
        // plus a bit), the third succeeds.
        store.begin_round();
        for sub in &subs[2..] {
            store.stage_node(sub);
        }
        store.fail_next_writes(&[7, 150]);
        assert!(store.commit_round().is_err());
        assert_eq!(segment_bytes(&store), first_round, "cut back at once");
        assert!(store.commit_round().is_err());
        assert_eq!(
            (
                spilled(&store),
                store.bytes_written(),
                store.manifest_snapshot()
            ),
            counters,
            "a failed round commits nothing"
        );
        store.commit_round().unwrap();
        assert_eq!(segment_bytes(&store), both_rounds);
        assert_eq!(store.manifest_snapshot(), clean.manifest_snapshot());
        assert_eq!(read(&[&store]).0, subs);

        // Retries exhausted: the segment ends exactly at the previous
        // round and the store replays what it committed.
        let tmp = TempDir::new("spill-test");
        let dir = tmp.path();
        let mut store = store_in(dir, 0, DEFAULT_SEGMENT_BYTES);
        commit_nodes(&mut store, &subs[..2]);
        store.begin_round();
        for sub in &subs[2..] {
            store.stage_node(sub);
        }
        store.fail_next_writes(&[1, 40, 300]);
        for _ in 0..3 {
            assert!(store.commit_round().is_err());
        }
        assert_eq!(segment_bytes(&store), first_round);
        assert_eq!(spilled(&store), 2);
        let (nodes, report) = read(&[&store]);
        assert_eq!(nodes, &subs[..2]);
        assert!(!report.lost_vouched(), "{report:?}");
        assert_eq!(report.unmanifested_bytes, 0);
    }

    /// One record framed on its own, as the per-record writer framed it:
    /// length word, tag, payload, CRC32 over tag and payload.
    fn lone_frame(tag: u8, encode: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut payload = vec![tag];
        encode(&mut payload);
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&payload);
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame
    }

    /// Golden byte identity of the unit of I/O: whatever the round sizes,
    /// a segment is its header followed by exactly the frames a per-record
    /// writer would have appended one at a time, and the records are the
    /// run's nodes.
    #[test]
    fn rounds_are_the_concatenation_of_per_record_frames() {
        use crate::sharded::ShardedCpgBuilder;
        use crate::testing::{ingest_round_robin, lock_heavy_sequences, ping_pong_sequences};

        let shapes = [
            lock_heavy_sequences(4, 40, 4, 4),
            ping_pong_sequences(3, 60),
        ];
        for sequences in &shapes {
            for threshold in [1usize, 2, 8, 64] {
                let tmp = TempDir::new("spill-test");
                let dir = tmp.path();
                let settings = SpillSettings {
                    // A few segments per shard at the small thresholds.
                    segment_bytes: 8 << 10,
                    ..SpillSettings::new(threshold, dir).with_retain_on_seal(true)
                };
                let builder = ShardedCpgBuilder::with_shards_and_spill(2, Some(settings));
                ingest_round_robin(&builder, sequences.clone(), |_| {});
                let spilled = builder.stats().spilled_subs;
                assert!(spilled > 0 || threshold == 64, "threshold {threshold}");
                builder.seal();

                let mut runs: BTreeMap<ThreadId, Vec<SubComputation>> = BTreeMap::new();
                for shard in 0..2 {
                    for index in 0.. {
                        let path = dir.join(segment_file_name(shard, index));
                        let Ok(bytes) = std::fs::read(&path) else {
                            break;
                        };
                        let mut expected = segment_header(shard as u32, 0).to_vec();
                        let end = scan_segment(&bytes, bytes.len(), |sub| {
                            expected.extend(lone_frame(TAG_NODE, |buf| encode_node(buf, &sub)));
                            runs.entry(sub.id.thread).or_default().push(sub);
                        });
                        assert!(matches!(end, ScanEnd::Clean), "{end:?}");
                        assert_eq!(bytes, expected, "{}", path.display());
                    }
                }
                // The retained image holds every node, per thread in α
                // order, each once.
                let runs: Vec<_> = runs.into_values().collect();
                assert_eq!(&runs, sequences, "threshold {threshold}");
            }
        }
    }

    /// One shard holding two threads: a round stages one thread's run,
    /// then the other's, so their records arrive interleaved — and one run
    /// even out of α order. They come out in (thread, α) order.
    #[test]
    fn interleaved_threads_come_out_in_thread_order() {
        let tmp = TempDir::new("spill-test");
        let (two, three) = (recorded_subs(), recorded_subs_of(3));
        let mut store = store_in(tmp.path(), 0, DEFAULT_SEGMENT_BYTES);
        for (i, round) in [1, 0, 3, 2, 5, 4].chunks(2).enumerate() {
            store.begin_round();
            for &k in round {
                store.stage_node(&three[k]);
            }
            for sub in &two[2 * i..2 * i + 2] {
                store.stage_node(sub);
            }
            store.commit_round().unwrap();
        }
        let (nodes, report) = read(&[&store]);
        assert!(!report.lost_vouched(), "{report:?}");
        assert_eq!(nodes, [&two[..6], &three[..6]].concat());
    }

    #[test]
    fn a_dropped_store_keeps_its_files() {
        // Only `clear` deletes: a store dropped without it — an unsealed
        // builder's — leaves every committed byte where it was.
        let tmp = TempDir::new("spill-test");
        let dir = tmp.path();
        let subs = recorded_subs();
        let mut store = store_in(dir, 0, DEFAULT_SEGMENT_BYTES);
        commit_nodes(&mut store, &subs[..1]);
        let path = store.segments.last().unwrap().path.clone();
        let committed = segment_bytes(&store);
        drop(store);
        assert_eq!(std::fs::read(&path).unwrap(), committed);
    }

    #[test]
    fn flush_durability_syncs_without_changing_contents() {
        let tmp = TempDir::new("spill-test");
        let dir = tmp.path();
        let subs = recorded_subs();
        let settings = SpillSettings {
            segment_bytes: 64,
            ..SpillSettings::new(1, dir).with_durability(SpillDurability::Flush)
        };
        let mut store = SpillStore::create(&settings, 0).unwrap();
        for round in subs.chunks(2) {
            commit_nodes(&mut store, round);
        }
        store.sync_for_cut().unwrap();
        assert_eq!(read(&[&store]).0, subs);
        let snapshot = store.manifest_snapshot();
        assert_eq!(
            snapshot.segments.iter().map(|(r, _)| r).sum::<u64>(),
            subs.len() as u64
        );
        assert_eq!(
            snapshot.thread_counts,
            BTreeMap::from([(2u32, subs.len() as u64)])
        );
    }

    #[test]
    fn manifest_roundtrips_and_renames_atomically() {
        let tmp = TempDir::new("spill-test");
        let dir = tmp.path();
        std::fs::create_dir_all(dir).unwrap();
        let writer = ManifestWriter::new(dir, 77, SpillDurability::None);
        let mut shard0 = ShardManifest::default();
        shard0.segments.push((3, 120));
        shard0.segments.push((1, 60));
        shard0.thread_counts.insert(0, 4);
        writer.update_shard(0, shard0.clone()).unwrap();
        let mut shard1 = ShardManifest::default();
        shard1.segments.push((2, 90));
        shard1.thread_counts.insert(1, 2);
        writer.update_shard(1, shard1).unwrap();
        // No tmp file lingers after a successful publish.
        assert!(dir.join(MANIFEST_FILE).exists());
        assert!(!dir.join(MANIFEST_TMP_FILE).exists());
        let parsed = read_manifest(dir).unwrap().unwrap();
        assert_eq!(parsed.session_id, 77);
        assert!(!parsed.clean);
        assert_eq!(parsed.thread_counts, BTreeMap::from([(0, 4), (1, 2)]));
        assert_eq!(
            parsed.segments,
            vec![
                ManifestSegment {
                    shard: 0,
                    index: 0,
                    records: 3,
                    bytes: 120
                },
                ManifestSegment {
                    shard: 0,
                    index: 1,
                    records: 1,
                    bytes: 60
                },
                ManifestSegment {
                    shard: 1,
                    index: 0,
                    records: 2,
                    bytes: 90
                },
            ]
        );
        writer.mark_clean().unwrap();
        assert!(read_manifest(dir).unwrap().unwrap().clean);
        // A frozen writer (simulated crash) publishes nothing further.
        writer.freeze();
        writer.update_shard(0, ShardManifest::default()).unwrap();
        let after_freeze = read_manifest(dir).unwrap().unwrap();
        assert_eq!(after_freeze.segments.len(), 3);
        writer.cleanup();
        // cleanup() deletes the manifest, frozen or not.
        assert!(read_manifest(dir).unwrap().is_none());
    }

    #[test]
    fn stale_tmp_manifest_is_ignored_by_readers() {
        let tmp = TempDir::new("spill-test");
        let dir = tmp.path();
        std::fs::create_dir_all(dir).unwrap();
        let writer = ManifestWriter::new(dir, 9, SpillDurability::None);
        let mut shard = ShardManifest::default();
        shard.segments.push((1, 50));
        writer.update_shard(0, shard).unwrap();
        // Simulate an interrupted update: garbage landed in the tmp file
        // but the rename never happened.
        std::fs::write(dir.join(MANIFEST_TMP_FILE), b"half-written garbage").unwrap();
        let parsed = read_manifest(dir).unwrap().unwrap();
        assert_eq!(parsed.session_id, 9);
        assert_eq!(parsed.segments.len(), 1);
        // With no published manifest at all, a stale tmp must not count.
        std::fs::remove_file(dir.join(MANIFEST_FILE)).unwrap();
        assert!(read_manifest(dir).unwrap().is_none());
    }

    #[test]
    fn malformed_manifests_are_typed_errors() {
        assert!(parse_manifest("not a manifest\n").is_err());
        assert!(parse_manifest("inspector-spill-manifest v2\nbogus line\n").is_err());
        assert!(parse_manifest("inspector-spill-manifest v2\nsession abc\n").is_err());
        let ok = parse_manifest("inspector-spill-manifest v2\nsession 1\nclean 0\n").unwrap();
        assert_eq!(ok.session_id, 1);
    }
}
