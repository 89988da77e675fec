//! Spill-to-disk storage for the streaming CPG build's nodes (§VI:
//! bounding resident memory for long runs).
//!
//! Without spilling, every ingested [`SubComputation`] stays resident in its
//! shard until [`seal`](crate::sharded::ShardedCpgBuilder::seal), so peak
//! memory grows linearly with execution length. This module gives each shard
//! an **append-only spill store**: a shard's resident sub-computations are
//! encoded into **length-prefixed records** appended to per-shard **segment
//! files**, and evicted from memory. Only nodes are stored — the graph's
//! edges are a function of the nodes, derived at seal and at recovery — so
//! any per-thread prefix may go to disk at any time.
//!
//! # On-disk format (v3)
//!
//! A spill store owns a sequence of segment files
//! (`shard-<k>-seg-<n>.spill` under the configured directory); a segment is
//! closed and a new one started once it exceeds
//! [`SpillSettings::segment_bytes`]. Every segment starts with a 24-byte
//! header:
//!
//! ```text
//! [magic "INSPSPL2"] [u32 version (LE)] [u32 shard (LE)] [u64 session (LE)]
//! ```
//!
//! followed by CRC-protected records:
//!
//! ```text
//! [u32 payload_len (LE)] [u8 tag] [payload...] [u32 crc32 (LE)]
//! ```
//!
//! where the CRC32 (IEEE) covers the tag byte and payload. The one tag, `0`,
//! marks a node record: a fully encoded [`SubComputation`] (id, vector
//! clock, read/write sets, thunk list, terminator). The encoding is exact —
//! a decoded record compares equal to the original — because the
//! seal-time reload must reproduce the nodes the batch oracle derives its
//! graph from. Version 2 also stored edge records (tag `1`); a v2 segment
//! is refused at its header.
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
//! Reading is one frame walker, `scan_segment`, run one segment at a time
//! by `scan_segment_file`, the unit the read side fans out across the
//! host's cores. The seal, live snapshots and the crash fallback replay a
//! store's committed bytes ([`SpillStore::replay`] — there is no per-node
//! fault-in index), and offline recovery walks the manifest-named bytes
//! through the same unit. Both take the per-segment outcomes in segment
//! order, so what they return, errors included, is what one sequential
//! pass over the segments returns.
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
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use parking_lot::Mutex;

use crate::clock::VectorClock;
use crate::event::{BranchKind, SyncKind};
use crate::ids::{PageId, SubId, SyncObjectId, ThreadId};
use crate::pool;
use crate::subcomputation::{SubComputation, SyncPoint};

/// Default segment-roll size: 1 MiB keeps individual files small enough to
/// replay incrementally while amortising file creation.
pub const DEFAULT_SEGMENT_BYTES: u64 = 1 << 20;

/// Magic bytes opening every segment file (unchanged since v2; the version
/// field after it tells the formats apart).
pub const SEGMENT_MAGIC: [u8; 8] = *b"INSPSPL2";

/// On-disk spill format version stamped into every segment header.
pub const SPILL_FORMAT_VERSION: u32 = 3;

/// Size of the fixed segment header: magic + version + shard + session id.
pub const SEGMENT_HEADER_BYTES: u64 = 24;

/// Per-record framing overhead: u32 length prefix + u32 CRC32 trailer.
pub const RECORD_OVERHEAD_BYTES: u64 = 8;

/// The shortest node frame: framing, tag, id, and empty clock, page sets,
/// thunk list and terminator.
pub(crate) const MIN_NODE_FRAME_BYTES: u64 = RECORD_OVERHEAD_BYTES + 1 + 12 + 4 + 4 + 4 + 4 + 1;

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

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3), table-driven; no external dependency.
// ---------------------------------------------------------------------------

const fn build_crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                0xEDB8_8320 ^ (crc >> 1)
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = build_crc32_table();

/// Slicing-by-8 companion tables: `CRC32_TABLES[k][b]` advances a CRC
/// whose `b` byte sits `k` positions before the end of an 8-byte chunk,
/// letting the hot loop fold 8 input bytes per iteration instead of 1.
const fn build_crc32_tables() -> [[u32; 256]; 8] {
    let base = build_crc32_table();
    let mut tables = [[0u32; 256]; 8];
    tables[0] = base;
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = base[(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = build_crc32_tables();

/// CRC32 (IEEE) over `bytes`, as used by the per-record trailer.
/// Slicing-by-8: the record framing puts this on the spill hot path once
/// per appended record, so the byte-at-a-time loop only handles the tail.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Record tag of a node record, the only kind.
const TAG_NODE: u8 = 0;

/// A spill-stage failure. The spill store never panics on bad input: I/O
/// failures, malformed payloads, and crash-torn tails each surface as a
/// typed error the builder can degrade around (fall back to in-memory
/// retention) instead of aborting the session.
#[derive(Debug)]
pub enum SpillError {
    /// Underlying file I/O failed (the injected-ENOSPC path included).
    Io(std::io::Error),
    /// A fully-framed record's payload is malformed — a bad tag or kind
    /// code, or trailing bytes. This indicates a writer bug or on-disk
    /// corruption, not an interrupted append.
    Corrupt(String),
    /// Like [`SpillError::Corrupt`], but located: the decoder knew which
    /// file and record offset the malformed payload came from.
    CorruptAt {
        /// What was malformed.
        what: String,
        /// Segment file the record sits in.
        path: PathBuf,
        /// Byte offset of the record's length prefix within the file.
        offset: u64,
    },
    /// A fully-framed record whose CRC32 trailer does not match its
    /// payload: on-disk corruption (bit rot, partial overwrite).
    CrcMismatch {
        /// Segment file the record sits in.
        path: PathBuf,
        /// Byte offset of the record's length prefix within the file.
        offset: u64,
    },
    /// A segment file whose fixed header is missing or wrong (bad magic,
    /// unsupported version, shard/session mismatch).
    BadHeader {
        /// Segment file with the bad header.
        path: PathBuf,
        /// What was wrong with it.
        what: String,
    },
}

impl SpillError {
    /// Attaches file/offset context to a bare [`SpillError::Corrupt`];
    /// every other variant already carries its location (or has none).
    fn with_location(self, path: &Path, offset: u64) -> SpillError {
        match self {
            SpillError::Corrupt(what) => SpillError::CorruptAt {
                what,
                path: path.to_path_buf(),
                offset,
            },
            other => other,
        }
    }
}

impl std::fmt::Display for SpillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpillError::Io(e) => write!(f, "spill I/O failed: {e}"),
            SpillError::Corrupt(what) => write!(f, "corrupt spill record: {what}"),
            SpillError::CorruptAt { what, path, offset } => {
                write!(
                    f,
                    "corrupt spill record in {} at offset {offset}: {what}",
                    path.display()
                )
            }
            SpillError::CrcMismatch { path, offset } => {
                write!(
                    f,
                    "spill record crc mismatch in {} at offset {offset}",
                    path.display()
                )
            }
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

/// Node records bucketed per thread as a scan delivers them.
///
/// A thread spills through exactly one shard and its prefix only ever
/// grows, so within one thread records arrive in α order; that is checked
/// on arrival, and a run that arrived out of order is sorted once at the
/// end instead of every consumer re-bucketing and re-sorting the replay.
#[derive(Debug, Default)]
pub(crate) struct ThreadRuns {
    runs: BTreeMap<ThreadId, Vec<SubComputation>>,
    out_of_order: bool,
}

impl ThreadRuns {
    /// Runs pre-sized to the node count each thread will reach: a 48 k-node
    /// run grown by doubling re-faults its pages several times over.
    pub(crate) fn presized(counts: &BTreeMap<u32, u64>) -> Self {
        let runs = counts
            .iter()
            .map(|(&thread, &count)| (ThreadId::new(thread), Vec::with_capacity(count as usize)))
            .collect();
        ThreadRuns {
            runs,
            out_of_order: false,
        }
    }

    pub(crate) fn push(&mut self, sub: SubComputation) {
        let run = self.runs.entry(sub.id.thread).or_default();
        if run.last().is_some_and(|last| last.id.alpha >= sub.id.alpha) {
            self.out_of_order = true;
        }
        run.push(sub);
    }

    /// The per-thread runs, each in α order.
    pub(crate) fn into_sorted(mut self) -> BTreeMap<ThreadId, Vec<SubComputation>> {
        if self.out_of_order {
            for run in self.runs.values_mut() {
                run.sort_by_key(|sub| sub.id.alpha);
            }
        }
        self.runs
    }
}

/// Everything a sequential replay recovered, plus how much it had to skip.
#[derive(Debug, Default)]
pub struct Replay {
    /// Recovered node records per thread, each run in α order.
    pub nodes: BTreeMap<ThreadId, Vec<SubComputation>>,
    /// Segments whose committed bytes end in a torn record, or that carry
    /// bytes past the committed length (a round that never committed).
    pub torn_tails: u64,
}

// ---------------------------------------------------------------------------
// Primitive encoding (little-endian, length-prefixed collections)
// ---------------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_sub_id(buf: &mut Vec<u8>, id: SubId) {
    put_u32(buf, id.thread.index() as u32);
    put_u64(buf, id.alpha);
}

/// Cursor over an encoded payload. All `take_*` methods surface a
/// truncated or malformed record as [`SpillError::Corrupt`] — never a
/// panic — so a damaged spill file degrades the session instead of
/// aborting it.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> SpillResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| {
                SpillError::Corrupt(format!(
                    "payload truncated: need {n} bytes at offset {}",
                    self.pos
                ))
            })?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn take_u8(&mut self) -> SpillResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Copies the next `N` bytes into a fixed array. Unlike the former
    /// `try_into().expect(..)` decodes, a short read is a typed
    /// [`SpillError::Corrupt`] from [`Cursor::take`], never a panic.
    fn take_array<const N: usize>(&mut self) -> SpillResult<[u8; N]> {
        let slice = self.take(N)?;
        let mut array = [0u8; N];
        array.copy_from_slice(slice);
        Ok(array)
    }

    fn take_u32(&mut self) -> SpillResult<u32> {
        Ok(u32::from_le_bytes(self.take_array::<4>()?))
    }

    fn take_u64(&mut self) -> SpillResult<u64> {
        Ok(u64::from_le_bytes(self.take_array::<8>()?))
    }

    fn take_sub_id(&mut self) -> SpillResult<SubId> {
        let thread = ThreadId::new(self.take_u32()?);
        let alpha = self.take_u64()?;
        Ok(SubId::new(thread, alpha))
    }

    fn exhausted(&self) -> bool {
        self.pos == self.bytes.len()
    }

    fn expect_exhausted(&self) -> SpillResult<()> {
        if self.exhausted() {
            Ok(())
        } else {
            Err(SpillError::Corrupt(format!(
                "{} trailing bytes in spill record",
                self.bytes.len() - self.pos
            )))
        }
    }
}

fn sync_kind_code(kind: SyncKind) -> u8 {
    match kind {
        SyncKind::Release => 1,
        SyncKind::Acquire => 2,
        SyncKind::ReleaseAcquire => 3,
    }
}

fn sync_kind_from(code: u8) -> SpillResult<SyncKind> {
    match code {
        1 => Ok(SyncKind::Release),
        2 => Ok(SyncKind::Acquire),
        3 => Ok(SyncKind::ReleaseAcquire),
        other => Err(SpillError::Corrupt(format!("sync kind {other}"))),
    }
}

fn branch_kind_code(kind: BranchKind) -> u8 {
    match kind {
        BranchKind::ConditionalTaken => 1,
        BranchKind::ConditionalNotTaken => 2,
        BranchKind::Indirect => 3,
        BranchKind::Return => 4,
    }
}

fn branch_kind_from(code: u8) -> SpillResult<BranchKind> {
    match code {
        1 => Ok(BranchKind::ConditionalTaken),
        2 => Ok(BranchKind::ConditionalNotTaken),
        3 => Ok(BranchKind::Indirect),
        4 => Ok(BranchKind::Return),
        other => Err(SpillError::Corrupt(format!("branch kind {other}"))),
    }
}

/// Encodes one node payload (without the record framing).
///
/// The vector clock is stored as its dense component vector — including
/// zero and trailing-zero components — so the decoded clock is
/// representation-identical, not just order-equivalent (equivalence suites
/// fingerprint nodes through `Debug`).
fn encode_node(buf: &mut Vec<u8>, sub: &SubComputation) {
    put_sub_id(buf, sub.id);
    let clock_len = sub.clock.len();
    put_u32(buf, clock_len as u32);
    for i in 0..clock_len {
        put_u64(buf, sub.clock.get(ThreadId::new(i as u32)));
    }
    put_u32(buf, sub.read_set.len() as u32);
    for page in &sub.read_set {
        put_u64(buf, page.number());
    }
    put_u32(buf, sub.write_set.len() as u32);
    for page in &sub.write_set {
        put_u64(buf, page.number());
    }
    put_u32(buf, sub.thunks.len() as u32);
    for thunk in sub.thunks.iter() {
        put_u64(buf, thunk.id.beta);
        put_u64(buf, thunk.entry_ip);
        match thunk.terminator {
            None => buf.push(0),
            Some(b) => {
                buf.push(branch_kind_code(b.kind));
                put_u64(buf, b.ip);
            }
        }
    }
    match sub.terminator {
        None => buf.push(0),
        Some(sp) => {
            buf.push(sync_kind_code(sp.kind));
            put_u64(buf, sp.object.raw());
        }
    }
}

fn decode_node(cursor: &mut Cursor<'_>) -> SpillResult<SubComputation> {
    let id = cursor.take_sub_id()?;
    let clock_len = cursor.take_u32()? as usize;
    let mut clock = VectorClock::with_capacity(clock_len);
    for i in 0..clock_len {
        let v = cursor.take_u64()?;
        clock.set(ThreadId::new(i as u32), v);
    }
    let mut sub = SubComputation::new(id, clock);
    for _ in 0..cursor.take_u32()? {
        sub.read_set.insert(PageId::new(cursor.take_u64()?));
    }
    for _ in 0..cursor.take_u32()? {
        sub.write_set.insert(PageId::new(cursor.take_u64()?));
    }
    // The thunk records are a derived view of the branch log (see
    // `thunk.rs`): β counts up from 0, each thunk starts where the previous
    // one branched to, and exactly the last one is open — behind at least
    // one branch, so never alone. Anything else would decode into a
    // different list than was written.
    let thunks = cursor.take_u32()? as u64;
    let mut entry = 0;
    for index in 0..thunks {
        let beta = cursor.take_u64()?;
        let entry_ip = cursor.take_u64()?;
        let code = cursor.take_u8()?;
        let open = code == 0;
        if beta != index || entry_ip != entry || open != (index + 1 == thunks) || thunks == 1 {
            return Err(SpillError::Corrupt(format!(
                "thunk {index} of {thunks} breaks the branch chain: beta {beta}, \
                 entry {entry_ip:#x} (expected {entry:#x}), open {open}"
            )));
        }
        if !open {
            entry = cursor.take_u64()?;
            sub.thunks.record_branch(branch_kind_from(code)?, entry);
        }
    }
    sub.terminator = match cursor.take_u8()? {
        0 => None,
        code => {
            let kind = sync_kind_from(code)?;
            let object = SyncObjectId::new(cursor.take_u64()?);
            Some(SyncPoint { object, kind })
        }
    };
    Ok(sub)
}

// ---------------------------------------------------------------------------
// Segment headers and the frame walker (shared with offline recovery)
// ---------------------------------------------------------------------------

/// File name of segment `index` of shard `shard`.
pub fn segment_file_name(shard: usize, index: usize) -> String {
    format!("shard-{shard}-seg-{index}.spill")
}

/// Decoded fixed segment header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SegmentHeader {
    pub shard: u32,
    pub session_id: u64,
}

fn encode_segment_header(shard: u32, session_id: u64) -> [u8; SEGMENT_HEADER_BYTES as usize] {
    let mut header = [0u8; SEGMENT_HEADER_BYTES as usize];
    header[..8].copy_from_slice(&SEGMENT_MAGIC);
    header[8..12].copy_from_slice(&SPILL_FORMAT_VERSION.to_le_bytes());
    header[12..16].copy_from_slice(&shard.to_le_bytes());
    header[16..24].copy_from_slice(&session_id.to_le_bytes());
    header
}

/// Validates and decodes the fixed header at the start of `bytes`.
pub(crate) fn parse_segment_header(bytes: &[u8], path: &Path) -> SpillResult<SegmentHeader> {
    let bad = |what: String| SpillError::BadHeader {
        path: path.to_path_buf(),
        what,
    };
    if bytes.len() < SEGMENT_HEADER_BYTES as usize {
        return Err(bad(format!(
            "file is {} bytes, shorter than the {SEGMENT_HEADER_BYTES}-byte header",
            bytes.len()
        )));
    }
    if bytes[..8] != SEGMENT_MAGIC {
        return Err(bad("bad magic".into()));
    }
    let mut cursor = Cursor::new(&bytes[8..SEGMENT_HEADER_BYTES as usize]);
    let version = cursor.take_u32()?;
    if version != SPILL_FORMAT_VERSION {
        return Err(bad(format!(
            "unsupported format version {version} (expected {SPILL_FORMAT_VERSION})"
        )));
    }
    let shard = cursor.take_u32()?;
    let session_id = cursor.take_u64()?;
    Ok(SegmentHeader { shard, session_id })
}

/// How a [`scan_segment`] pass ended. Offsets are those of the offending
/// record's length prefix; everything before it was delivered.
#[derive(Debug)]
pub(crate) enum ScanEnd {
    /// Every trusted byte was a complete, valid record.
    Clean,
    /// The record at this offset is cut short by the end of the trusted
    /// bytes: the writer died (or the file was truncated) mid-record.
    Torn(usize),
    /// The record at this offset is fully framed but fails its CRC.
    Crc(usize),
    /// The record at this offset passes its CRC but does not decode.
    Decode(usize, SpillError),
}

/// The one frame walker over a segment image: CRC-checks and decodes the
/// records in `bytes[SEGMENT_HEADER_BYTES..min(bytes.len(), trusted_len)]`
/// in order, handing every node to `node`, until the bytes run out or a
/// record is bad. Nothing after a bad record is looked at — without sync
/// markers it cannot be trusted. The caller has validated the header.
///
/// A segment's outcome depends on its own bytes only, so segments scan
/// independently (and in parallel, through [`scan_segment_file`]); what a
/// bad record means for the segments after it is the caller's policy.
pub(crate) fn scan_segment(
    bytes: &[u8],
    trusted_len: usize,
    mut node: impl FnMut(SubComputation),
) -> ScanEnd {
    let avail = bytes.len().min(trusted_len);
    let mut pos = SEGMENT_HEADER_BYTES as usize;
    while pos < avail {
        // A frame too short for its length word, payload, or CRC trailer
        // is a torn tail.
        let Some(body) = bytes[pos..avail].get(4..) else {
            return ScanEnd::Torn(pos);
        };
        let mut word = [0u8; 4];
        word.copy_from_slice(&bytes[pos..pos + 4]);
        let len = u32::from_le_bytes(word) as usize;
        if (body.len() as u64) < len as u64 + 4 {
            return ScanEnd::Torn(pos);
        }
        let payload = &body[..len];
        word.copy_from_slice(&body[len..len + 4]);
        if crc32(payload) != u32::from_le_bytes(word) {
            return ScanEnd::Crc(pos);
        }
        let mut cursor = Cursor::new(payload);
        let mut record = || match cursor.take_u8()? {
            TAG_NODE => {
                let sub = decode_node(&mut cursor)?;
                cursor.expect_exhausted()?;
                node(sub);
                Ok(())
            }
            other => Err(SpillError::Corrupt(format!("tag {other}"))),
        };
        if let Err(e) = record() {
            return ScanEnd::Decode(pos, e);
        }
        pos += 8 + len;
    }
    ScanEnd::Clean
}

/// What reading and scanning one segment file found: the unit of work the
/// read side fans out across the host's cores ([`crate::pool`]). A worker
/// takes one segment at a time; what to make of the outcome — trust it,
/// count it, or stop at it — is decided afterwards, in segment order.
#[derive(Debug)]
pub(crate) enum SegmentScan {
    /// The file could not be read.
    Unreadable(std::io::Error),
    /// The file was read but its header is invalid.
    BadHeader { file_len: u64, error: SpillError },
    /// The header parsed and the trusted bytes were walked; `nodes` are
    /// the node records delivered, in append order.
    Scanned {
        file_len: u64,
        header: SegmentHeader,
        nodes: Vec<SubComputation>,
        end: ScanEnd,
    },
}

/// Record buffers for segment scans, made on the calling thread and handed
/// back once a segment's records are taken.
///
/// What a worker thread allocates comes from its own allocator arena, which
/// the calling thread never reuses; a buffer the caller made stays in the
/// caller's arena, even when a worker grows it. Circulating the caller's
/// buffers keeps a parallel scan's transient memory where a sequential scan
/// would have put it.
#[derive(Debug)]
pub(crate) struct RecordBuffers(Mutex<Vec<Vec<SubComputation>>>);

impl RecordBuffers {
    /// `count` buffers, each vector already allocated here: a worker that
    /// grows it reallocates within this thread's arena, and a buffer keeps
    /// its capacity from one segment to the next.
    pub(crate) fn new(count: usize) -> Self {
        let buffers = (0..count).map(|_| Vec::with_capacity(1)).collect();
        RecordBuffers(Mutex::new(buffers))
    }

    fn take(&self) -> Vec<SubComputation> {
        self.0.lock().pop().unwrap_or_default()
    }

    /// Returns a buffer whose records were taken out, or are discarded.
    pub(crate) fn give_back(&self, mut nodes: Vec<SubComputation>) {
        nodes.clear();
        self.0.lock().push(nodes);
    }

    /// Returns the buffer of a scan whose outcome is discarded, if it
    /// holds one.
    pub(crate) fn recycle(&self, scan: SegmentScan) {
        if let SegmentScan::Scanned { nodes, .. } = scan {
            self.give_back(nodes);
        }
    }
}

/// A segment image buffer with room for files of `bytes` bytes (at most
/// 64 MiB up front; a larger file grows it), made on the calling thread for
/// the reason [`RecordBuffers`] gives.
pub(crate) fn image_buffer(bytes: u64) -> Vec<u8> {
    let mut image = Vec::with_capacity(1);
    let room = bytes.min(64 << 20) as usize;
    let _ = image.try_reserve_exact(room);
    image
}

/// Reads the segment at `path` into `image` (a reusable buffer: segments
/// are equally sized, and a fresh megabyte per file is a fresh round of
/// page faults), validates its header and runs [`scan_segment`] over its
/// first `trusted_len` bytes, decoding into a buffer from `buffers`.
/// Damage is reported, never a panic.
pub(crate) fn scan_segment_file(
    path: &Path,
    trusted_len: u64,
    image: &mut Vec<u8>,
    buffers: &RecordBuffers,
) -> SegmentScan {
    image.clear();
    if let Err(e) = File::open(path).and_then(|mut file| file.read_to_end(image)) {
        return SegmentScan::Unreadable(e);
    }
    let file_len = image.len() as u64;
    let header = match parse_segment_header(image, path) {
        Ok(header) => header,
        Err(error) => return SegmentScan::BadHeader { file_len, error },
    };
    let mut nodes = buffers.take();
    let end = scan_segment(
        image,
        usize::try_from(trusted_len).unwrap_or(usize::MAX),
        |sub| nodes.push(sub),
    );
    SegmentScan::Scanned {
        file_len,
        header,
        nodes,
        end,
    }
}

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

    /// Deletes the manifest (and any stale tmp) and resets the state, for
    /// the clean non-retaining seal path.
    pub fn cleanup(&self) {
        let mut state = self.state.lock();
        let _ = std::fs::remove_file(self.dir.join(MANIFEST_FILE));
        let _ = std::fs::remove_file(self.dir.join(MANIFEST_TMP_FILE));
        *state = ManifestState::default();
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
    /// Keep files (and the directory) on drop/removal — set for degraded
    /// and retained runs so forensic material is never deleted.
    retain: bool,
    /// All segments written so far (index = segment number).
    segments: Vec<SegmentMeta>,
    /// Writer for the last segment in `segments`.
    current: Option<File>,
    /// Committed length of the current segment (fixed header included).
    current_len: u64,
    /// A write attempt failed: the file may hold part of a round past
    /// `current_len`, and the next attempt must cut it back first.
    rewind_due: bool,
    /// Total payload + framing bytes committed since the last reset.
    bytes_written: u64,
    /// Node records committed since the last reset.
    nodes_spilled: u64,
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
    /// Creates the store for shard `shard` under `settings.dir` (created if
    /// needed), with the settings' segment size, durability policy and
    /// session id.
    pub fn create(settings: &SpillSettings, shard: usize) -> std::io::Result<Self> {
        std::fs::create_dir_all(&settings.dir)?;
        Ok(SpillStore {
            dir: settings.dir.clone(),
            shard,
            segment_bytes: settings.segment_bytes.max(1),
            durability: settings.durability,
            session_id: settings.session_id,
            retain: false,
            segments: Vec::new(),
            current: None,
            current_len: 0,
            rewind_due: false,
            bytes_written: 0,
            nodes_spilled: 0,
            writes: 0,
            thread_counts: BTreeMap::new(),
            round: Round::default(),
            #[cfg(test)]
            partial_writes: Vec::new(),
        })
    }

    /// Bytes committed (framing included) since the last reset.
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
        let frames = &mut self.round.frames;
        let start = frames.len();
        frames.extend_from_slice(&[0u8; 4]);
        frames.push(tag);
        encode(frames);
        let payload_len = (frames.len() - start - 4) as u32;
        frames[start..start + 4].copy_from_slice(&payload_len.to_le_bytes());
        let crc = crc32(&frames[start + 4..]);
        frames.extend_from_slice(&crc.to_le_bytes());
        self.round.last_frame = start;
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
        // The directory may have been cleaned up by a previous seal of
        // a reused builder; recreate it on demand.
        std::fs::create_dir_all(&self.dir)?;
        let path = self
            .dir
            .join(segment_file_name(self.shard, self.segments.len()));
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(&path)?;
        self.writes += 1;
        file.write_all(&encode_segment_header(self.shard as u32, self.session_id))?;
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
            self.nodes_spilled += nodes;
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

    /// Replays the committed records of every segment in append order
    /// without consuming the store: node records bucketed per thread in α
    /// order. Used by the seal, the
    /// live-snapshot path and the crash / write-failure fallbacks.
    ///
    /// The segments are read and decoded on every core the host offers,
    /// one segment per unit (`scan_segment_file`), and their records are
    /// taken in segment order, so the replay — and the first error, with
    /// its location — is what one sequential pass over the segments gives.
    ///
    /// A record torn at the end of a segment's committed bytes (the file
    /// was truncated underneath the store) and bytes past them (a round
    /// that never committed) are **skipped and counted** in
    /// [`Replay::torn_tails`], not an error: the committed prefix before
    /// them is intact by construction.
    ///
    /// # Errors
    ///
    /// [`SpillError::CrcMismatch`] / [`SpillError::CorruptAt`] for a damaged
    /// fully-framed record; [`SpillError::BadHeader`] for a damaged header;
    /// [`SpillError::Io`] on read failure.
    pub fn replay(&self) -> SpillResult<Replay> {
        let mut replays = Self::replay_all(&[self]);
        replays.pop().unwrap_or_else(|| Ok(Replay::default()))
    }

    /// [`replay`](Self::replay) of several stores at once, one result per
    /// store: one fan-out over every store's segments, so the cores stay
    /// busy across the stores' boundaries. A store's error ends only that
    /// store's replay.
    pub(crate) fn replay_all(stores: &[&SpillStore]) -> Vec<SpillResult<Replay>> {
        struct Partial {
            nodes: ThreadRuns,
            torn_tails: u64,
            failed: Option<SpillError>,
        }
        let mut partials: Vec<Partial> = stores
            .iter()
            .map(|store| Partial {
                nodes: ThreadRuns::presized(&store.thread_counts),
                torn_tails: 0,
                failed: None,
            })
            .collect();
        let segments: Vec<(usize, &SegmentMeta)> = stores
            .iter()
            .enumerate()
            .flat_map(|(s, store)| store.segments.iter().map(move |meta| (s, meta)))
            .collect();
        let workers = pool::workers(segments.len(), 1);
        let largest = segments.iter().map(|(_, meta)| meta.bytes).max();
        let buffers = RecordBuffers::new(pool::in_flight(workers));
        pool::fan_out(
            segments.len(),
            workers,
            || image_buffer(largest.unwrap_or(0)),
            |image, i| {
                let meta = segments[i].1;
                scan_segment_file(&meta.path, meta.bytes, image, &buffers)
            },
            |scans| {
                for (&(s, meta), scan) in segments.iter().zip(scans) {
                    let partial = &mut partials[s];
                    if partial.failed.is_some() {
                        buffers.recycle(scan);
                        continue;
                    }
                    let (file_len, mut nodes, end) = match scan {
                        SegmentScan::Unreadable(e) => {
                            partial.failed = Some(SpillError::Io(e));
                            continue;
                        }
                        SegmentScan::BadHeader { error, .. } => {
                            partial.failed = Some(error);
                            continue;
                        }
                        SegmentScan::Scanned {
                            file_len,
                            nodes,
                            end,
                            ..
                        } => (file_len, nodes, end),
                    };
                    match end {
                        ScanEnd::Clean => partial.torn_tails += u64::from(file_len > meta.bytes),
                        ScanEnd::Torn(_) => partial.torn_tails += 1,
                        ScanEnd::Crc(at) => {
                            partial.failed = Some(SpillError::CrcMismatch {
                                path: meta.path.clone(),
                                offset: at as u64,
                            });
                        }
                        ScanEnd::Decode(at, e) => {
                            partial.failed = Some(e.with_location(&meta.path, at as u64));
                        }
                    }
                    if partial.failed.is_none() {
                        for sub in nodes.drain(..) {
                            partial.nodes.push(sub);
                        }
                    }
                    buffers.give_back(nodes);
                }
            },
        );
        partials
            .into_iter()
            .map(|partial| match partial.failed {
                Some(e) => Err(e),
                None => Ok(Replay {
                    nodes: partial.nodes.into_sorted(),
                    torn_tails: partial.torn_tails,
                }),
            })
            .collect()
    }

    /// Replays every committed record of every segment in append order,
    /// then deletes the segment files and resets the store for the next
    /// build. This is the seal path: segments are concatenated back into
    /// the final graph instead of nodes being moved out of memory.
    ///
    /// # Errors
    ///
    /// Propagates [`SpillStore::replay`]'s errors; the store is left
    /// unconsumed on failure so the caller can decide how to degrade.
    pub fn drain_all(&mut self) -> SpillResult<Replay> {
        // Close the writer before replaying.
        self.current = None;
        let drained = self.replay()?;
        self.forget_drained();
        Ok(drained)
    }

    /// The second half of [`drain_all`](Self::drain_all), for a store whose
    /// replay was taken already: deletes the segment files and resets the
    /// store for the next build.
    pub(crate) fn forget_drained(&mut self) {
        self.remove_files();
        self.current_len = 0;
        self.bytes_written = 0;
        self.nodes_spilled = 0;
        self.thread_counts.clear();
    }

    /// Closes the writer and forgets the segment list *without* deleting
    /// anything on disk — the detach path for crashed/retained runs.
    pub fn detach_keeping_files(&mut self) {
        self.retain = true;
        self.current = None;
    }

    /// Best-effort deletion of this shard's segment files. Retained
    /// stores only close the writer — forensic material is never deleted.
    fn remove_files(&mut self) {
        self.current = None;
        if self.retain {
            return;
        }
        for meta in self.segments.drain(..) {
            let _ = std::fs::remove_file(meta.path);
        }
    }
}

impl Drop for SpillStore {
    fn drop(&mut self) {
        self.remove_files();
        if self.retain {
            return;
        }
        // The directory is shared by all shards of one builder; removing it
        // succeeds only for the last store standing (and only once the
        // manifest, if any, is gone), which is exactly the clean-up we want.
        let _ = std::fs::remove_dir(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AccessKind, SyncKind};
    use crate::recorder::{SyncClockRegistry, ThreadRecorder};
    use crate::testing::TempDir;
    use std::sync::Arc;

    /// A store under `dir` with the given segment size.
    fn store_in(dir: &Path, shard: usize, segment_bytes: u64) -> SpillStore {
        let settings = SpillSettings {
            segment_bytes,
            ..SpillSettings::new(1, dir)
        };
        SpillStore::create(&settings, shard).unwrap()
    }

    fn recorded_subs() -> Vec<SubComputation> {
        let registry = SyncClockRegistry::shared();
        let lock = SyncObjectId::new(7);
        let mut rec = ThreadRecorder::new(ThreadId::new(2), Arc::clone(&registry));
        for i in 0..6u64 {
            rec.on_synchronization(lock, SyncKind::Acquire);
            rec.on_memory_access(PageId::new(i % 3), AccessKind::Read);
            rec.on_memory_access(PageId::new(10 + i), AccessKind::Write);
            rec.on_branch(crate::event::BranchKind::ConditionalTaken, 0x40_0000 + i);
            rec.on_synchronization(lock, SyncKind::Release);
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

    /// The replayed run of thread 2, the one `recorded_subs` records.
    fn run_of(replay: &Replay) -> &[SubComputation] {
        replay
            .nodes
            .get(&ThreadId::new(2))
            .map_or(&[], Vec::as_slice)
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
            let mut cursor = Cursor::new(&buf);
            let decoded = decode_node(&mut cursor).unwrap();
            assert!(cursor.exhausted());
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
        let mut rec = ThreadRecorder::new(ThreadId::new(2), SyncClockRegistry::shared());
        rec.on_memory_access(PageId::new(3), AccessKind::Read);
        rec.on_memory_access(PageId::new(17), AccessKind::Write);
        rec.on_branch(BranchKind::ConditionalTaken, 0x40_0000);
        rec.on_branch(BranchKind::ConditionalNotTaken, 0x40_0010);
        rec.on_branch(BranchKind::Indirect, 0x7fff_1234_5678);
        rec.on_branch(BranchKind::Return, 0x40_0020);
        rec.on_synchronization(SyncObjectId::new(7), SyncKind::Release);
        rec.finish()
    }

    /// `encode_node(golden_subs()[0])` as the materialised `Vec<Thunk>` form
    /// wrote it (captured at commit 320cf13, the last one with that form).
    const GOLDEN_NODE_HEX: &str = "\
        020000000000000000000000030000000000000000000000000000000000000001000000000000000100\
        000003000000000000000100000011000000000000000500000000000000000000000000000000000000\
        010000400000000000010000000000000000004000000000000210004000000000000200000000000000\
        10004000000000000378563412ff7f0000030000000000000078563412ff7f0000042000400000000000\
        0400000000000000200040000000000000010700000000000000";
    /// Byte offset of thunk 0's record (β, entry ip, kind code, branch ip)
    /// in the golden payload, and the length of a closed thunk record.
    const GOLDEN_THUNKS_AT: usize = 68;
    const CLOSED_THUNK_BYTES: usize = 25;

    fn unhex(hex: &str) -> Vec<u8> {
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
        assert_eq!(decode_node(&mut Cursor::new(&buf)).unwrap(), subs[0]);
        // No branches, no thunk records.
        let mut buf = Vec::new();
        encode_node(&mut buf, &subs[1]);
        assert_eq!(
            buf,
            unhex(
                "02000000010000000000000003000000000000000000000000000000\
                 00000000020000000000000000000000000000000000000000"
            )
        );
    }

    /// The golden payload with one thunk-chain invariant broken each.
    fn broken_chains() -> Vec<(&'static str, Vec<u8>)> {
        let golden = unhex(GOLDEN_NODE_HEX);
        let thunk = |i: usize| GOLDEN_THUNKS_AT + i * CLOSED_THUNK_BYTES;
        let mut cases = Vec::new();
        let mut beta = golden.clone();
        beta[thunk(2)] = 5;
        cases.push(("beta out of sequence", beta));
        let mut entry = golden.clone();
        entry[thunk(1) + 8] ^= 0x40;
        cases.push(("entry ip off the chain", entry));
        let mut first_entry = golden.clone();
        first_entry[thunk(0) + 8] = 1;
        cases.push(("first thunk not entered at 0", first_entry));
        // Thunk 1 open: its branch ip goes, the record shrinks by 8 bytes.
        let mut open_inside = golden.clone();
        open_inside[thunk(1) + 16] = 0;
        open_inside.drain(thunk(1) + 17..thunk(1) + 25);
        cases.push(("open thunk before the last", open_inside));
        // Thunk 4 (the trailing one) closed by a branch nobody recorded.
        let mut closed_last = golden.clone();
        closed_last[thunk(4) + 16] = 1;
        closed_last.splice(thunk(4) + 17..thunk(4) + 17, [0u8; 8]);
        cases.push(("closed trailing thunk", closed_last));
        // One thunk only: open, but with no branch before it.
        let mut lone = golden[..GOLDEN_THUNKS_AT].to_vec();
        lone[GOLDEN_THUNKS_AT - 4] = 1;
        lone.extend_from_slice(&[0u8; 17]);
        lone.extend_from_slice(&golden[golden.len() - 9..]);
        cases.push(("lone open thunk", lone));
        cases
    }

    #[test]
    fn broken_thunk_chains_are_corrupt_not_a_different_list() {
        for (what, payload) in broken_chains() {
            match decode_node(&mut Cursor::new(&payload)) {
                Err(SpillError::Corrupt(msg)) => {
                    assert!(msg.contains("branch chain"), "{what}: {msg}")
                }
                other => panic!("{what}: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn recovery_counts_a_crc_valid_broken_chain_as_a_skipped_record() {
        // Two good node records, then a framed record whose CRC is right
        // but whose thunk chain is not, then a record that is fine again:
        // recovery keeps the prefix, counts one decode failure and accounts
        // every byte from the bad frame on as lost.
        for (what, payload) in broken_chains() {
            let tmp = TempDir::new("spill-test");
            let dir = tmp.path();
            let subs = recorded_subs();
            let mut store = store_in(dir, 0, DEFAULT_SEGMENT_BYTES);
            store.detach_keeping_files();
            commit_nodes(&mut store, &subs[..2]);
            let good_bytes = store.bytes_written();
            store.begin_round();
            store.stage(TAG_NODE, |buf| buf.extend_from_slice(&payload));
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
    }

    #[test]
    fn store_commits_rounds_and_drains() {
        let tmp = TempDir::new("spill-test");
        let dir = tmp.path();
        let subs = recorded_subs();
        let mut store = store_in(dir, 0, DEFAULT_SEGMENT_BYTES);
        // Two rounds: four nodes, then the remaining ones.
        store.begin_round();
        for sub in &subs[..4] {
            store.stage_node(sub);
        }
        assert_eq!(store.nodes_spilled, 0, "staging commits nothing");
        assert!(
            store.commit_round().unwrap(),
            "the first round opens segment 0"
        );
        commit_nodes(&mut store, &subs[4..]);
        assert_eq!(store.nodes_spilled, subs.len() as u64);
        assert!(store.bytes_written() > 0);
        // One write for the header, one per round — none per record.
        assert_eq!(store.writes(), 3);
        // An empty round is a no-op.
        store.begin_round();
        assert!(!store.commit_round().unwrap());
        assert_eq!(store.writes(), 3);

        // Sequential replay returns everything in append order and resets.
        let replay = store.drain_all().unwrap();
        assert_eq!(run_of(&replay), subs);
        assert_eq!(replay.nodes.len(), 1);
        assert_eq!(replay.torn_tails, 0);
        assert_eq!(store.nodes_spilled, 0);
        assert_eq!(store.segments.len(), 0);
        let replay = store.drain_all().unwrap();
        assert!(replay.nodes.is_empty());
        drop(store);
        assert!(!dir.exists(), "store drop removes the spill directory");
    }

    #[test]
    fn segments_roll_at_round_boundaries() {
        let tmp = TempDir::new("spill-test");
        let dir = tmp.path();
        let subs = recorded_subs();
        // Rounds of two nodes against a segment size a few rounds wide.
        let limit = 400;
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
        // Replay reads across the segment boundaries.
        let replay = store.drain_all().unwrap();
        assert_eq!(run_of(&replay), subs);
    }

    /// A named way to damage one segment file.
    type Damage = (&'static str, fn(&Path));

    /// A segment in the middle of a multi-segment store is damaged: the
    /// replay fails at the same place, with the same error, on one worker
    /// and on several, and an undamaged store replays identically.
    #[test]
    fn parallel_replay_is_the_sequential_replay() {
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
        for (what, damage) in damages {
            let tmp = TempDir::new("spill-test");
            let mut store = store_in(tmp.path(), 1, 400);
            for round in subs.chunks(2) {
                commit_nodes(&mut store, round);
            }
            assert!(store.segments.len() >= 5, "{}", store.segments.len());
            damage(&store.segments[store.segments.len() / 2].path);
            let outcome = |workers| {
                crate::pool::with_workers(workers, || match store.replay() {
                    Ok(replay) => Ok((replay.nodes, replay.torn_tails)),
                    Err(e) => Err(e.to_string()),
                })
            };
            let sequential = outcome(1);
            for workers in [2, 4] {
                assert_eq!(outcome(workers), sequential, "{what}, {workers} workers");
            }
            // Replayed together with a clean store, each store gets its
            // own replay: the damage stays in the damaged one.
            let clean_tmp = TempDir::new("spill-test");
            let mut clean = store_in(clean_tmp.path(), 2, 400);
            for round in subs.chunks(3) {
                commit_nodes(&mut clean, round);
            }
            let together = crate::pool::with_workers(4, || {
                SpillStore::replay_all(&[&store, &clean])
                    .into_iter()
                    .map(|replay| match replay {
                        Ok(replay) => Ok((replay.nodes, replay.torn_tails)),
                        Err(e) => Err(e.to_string()),
                    })
                    .collect::<Vec<_>>()
            });
            let alone = match clean.replay() {
                Ok(replay) => Ok((replay.nodes, replay.torn_tails)),
                Err(e) => Err(e.to_string()),
            };
            assert_eq!(together, [sequential.clone(), alone], "{what}");
            match sequential {
                Ok((nodes, ..)) => {
                    assert_eq!(what, "clean");
                    assert_eq!(nodes[&ThreadId::new(2)].len(), subs.len());
                }
                // A record or header error names the damaged segment; a
                // missing file is the read's own not-found error.
                Err(e) => assert!(
                    e.contains(&segment_file_name(1, store.segments.len() / 2))
                        || (what == "missing file" && e.contains("No such file")),
                    "{what}: {e}"
                ),
            }
        }
    }

    #[test]
    fn store_is_reusable_after_drain() {
        let tmp = TempDir::new("spill-test");
        let dir = tmp.path();
        let subs = recorded_subs();
        let mut store = store_in(dir, 1, 64);
        for round in 0..3 {
            commit_nodes(&mut store, &subs);
            let replay = store.drain_all().unwrap();
            assert_eq!(run_of(&replay), subs, "round {round}");
        }
    }

    #[test]
    fn torn_final_record_is_skipped_and_counted() {
        // Crash-mid-append round trip: commit, truncate the segment inside
        // the final record, replay. The surviving prefix comes back intact
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
            let replay = store.replay().unwrap();
            assert_eq!(run_of(&replay), &subs[..subs.len() - 1]);
            assert_eq!(replay.torn_tails, 1, "chop {chop}");
        }
        // drain_all skips + counts the same way.
        let replay = store.drain_all().unwrap();
        assert_eq!(run_of(&replay), &subs[..subs.len() - 1]);
        assert_eq!(replay.torn_tails, 1);
    }

    #[test]
    fn corrupt_payload_is_a_typed_error_not_a_panic() {
        let tmp = TempDir::new("spill-test");
        let dir = tmp.path();
        let subs = recorded_subs();
        let mut store = store_in(dir, 0, DEFAULT_SEGMENT_BYTES);
        commit_nodes(&mut store, &subs[..1]);
        store.current = None;
        let path = store.segments.last().unwrap().path.clone();
        let mut bytes = std::fs::read(&path).unwrap();
        // Clobber the record tag (first payload byte after the segment
        // header and length prefix): the CRC trailer catches the flip and
        // the error names the file and record offset.
        let tag_at = SEGMENT_HEADER_BYTES as usize + 4;
        bytes[tag_at] = 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let err = store.replay().unwrap_err();
        assert!(matches!(err, SpillError::CrcMismatch { .. }), "{err}");
        let msg = err.to_string();
        assert!(msg.contains("crc mismatch"), "{msg}");
        assert!(msg.contains("shard-0-seg-0.spill"), "{msg}");
        assert!(
            msg.contains(&format!("offset {SEGMENT_HEADER_BYTES}")),
            "{msg}"
        );
    }

    #[test]
    fn bad_tag_with_valid_crc_is_a_located_corrupt_error() {
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
        let path = store.segments.last().unwrap().path.clone();
        let err = store.replay().unwrap_err();
        match &err {
            SpillError::CorruptAt {
                what,
                path: at,
                offset: o,
            } => {
                assert!(what.contains("tag 9"), "{what}");
                assert_eq!(at, &path);
                assert_eq!(*o, offset);
            }
            other => panic!("expected CorruptAt, got {other}"),
        }
        assert!(err.to_string().contains("tag 9"), "{err}");
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
        // An unsupported version is rejected too: a newer one, and v2,
        // whose segments also held edge records.
        for version in [99u32, 2] {
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
        assert_eq!(store.nodes_spilled, 2);
        assert_eq!(store.manifest_snapshot(), before);
        // Replay stops at the committed length and counts the tail.
        let replay = store.replay().unwrap();
        assert_eq!(run_of(&replay), &subs[..2]);
        assert_eq!(replay.torn_tails, 1);
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
            store.nodes_spilled,
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
                store.nodes_spilled,
                store.bytes_written(),
                store.manifest_snapshot()
            ),
            counters,
            "a failed round commits nothing"
        );
        store.commit_round().unwrap();
        assert_eq!(segment_bytes(&store), both_rounds);
        assert_eq!(store.manifest_snapshot(), clean.manifest_snapshot());
        assert_eq!(run_of(&store.replay().unwrap()), subs);

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
        assert_eq!(store.nodes_spilled, 2);
        let replay = store.replay().unwrap();
        assert_eq!(run_of(&replay), &subs[..2]);
        assert_eq!(replay.torn_tails, 0);
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

                let mut nodes = ThreadRuns::default();
                for shard in 0..2 {
                    for index in 0.. {
                        let path = dir.join(segment_file_name(shard, index));
                        let Ok(bytes) = std::fs::read(&path) else {
                            break;
                        };
                        let mut expected = encode_segment_header(shard as u32, 0).to_vec();
                        let end = scan_segment(&bytes, bytes.len(), |sub| {
                            expected.extend(lone_frame(TAG_NODE, |buf| encode_node(buf, &sub)));
                            nodes.push(sub);
                        });
                        assert!(matches!(end, ScanEnd::Clean), "{end:?}");
                        assert_eq!(bytes, expected, "{}", path.display());
                    }
                }
                // The retained image holds every node, per thread in α
                // order, each once.
                let runs: Vec<_> = nodes.into_sorted().into_values().collect();
                assert_eq!(&runs, sequences, "threshold {threshold}");
            }
        }
    }

    #[test]
    fn thread_runs_verify_order_on_arrival_and_fall_back_to_the_sort() {
        let subs = &recorded_subs()[..6];
        let mut in_order = ThreadRuns::default();
        let mut shuffled = ThreadRuns::default();
        for sub in subs {
            in_order.push(sub.clone());
        }
        for i in [1, 0, 3, 2, 5, 4] {
            shuffled.push(subs[i].clone());
        }
        assert!(!in_order.out_of_order && shuffled.out_of_order);
        assert_eq!(in_order.into_sorted()[&ThreadId::new(2)], subs);
        assert_eq!(shuffled.into_sorted()[&ThreadId::new(2)], subs);
    }

    #[test]
    fn retained_store_keeps_files_on_drop() {
        let tmp = TempDir::new("spill-test");
        let dir = tmp.path();
        let subs = recorded_subs();
        let mut store = store_in(dir, 0, DEFAULT_SEGMENT_BYTES);
        commit_nodes(&mut store, &subs[..1]);
        let path = store.segments.last().unwrap().path.clone();
        store.detach_keeping_files();
        drop(store);
        assert!(path.exists(), "retained segment must survive drop");
        assert!(dir.exists());
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
        let replay = store.replay().unwrap();
        assert_eq!(run_of(&replay), subs);
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
        // cleanup() removed the manifest but freeze() keeps future writes
        // suppressed; only the state was reset.
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
