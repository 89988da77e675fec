//! Spill-to-disk storage for sealed-off consistent prefixes of the
//! streaming CPG build (§VI: bounding resident memory for long runs).
//!
//! Without spilling, every ingested [`SubComputation`] stays resident in its
//! shard until [`seal`](crate::sharded::ShardedCpgBuilder::seal), so peak
//! memory grows linearly with execution length. This module gives each shard
//! an **append-only spill store**: once a consistent prefix of a thread's
//! sequence can never be touched again (its causal frontier is fully
//! delivered, so every sync/data edge into it has been emitted — see
//! [`crate::sharded`]), the finished sub-computations and their
//! stripe-local edges are encoded into **length-prefixed records** appended
//! to per-shard **segment files**, and evicted from memory.
//!
//! # On-disk format (v2)
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
//! where the CRC32 (IEEE) covers the tag byte and payload. Tag `0` is a
//! node record (a fully encoded [`SubComputation`]: id, vector clock,
//! read/write sets, thunk list, terminator), tag `1` an edge record (a
//! [`DependenceEdge`]). The encoding is exact — a decoded record compares
//! equal to the original — because the seal-time reload must reproduce a
//! graph that is node- and edge-identical to the batch oracle.
//!
//! A small in-memory index maps every spilled node's [`SubId`] to its
//! `(segment, offset)`, so live snapshots and taint queries taken while the
//! program runs can still **fault spilled nodes back in**
//! ([`SpillStore::fault_node`]) without replaying whole segments; the seal
//! replays everything once, sequentially ([`SpillStore::drain_all`]).
//!
//! # Crash consistency
//!
//! A per-session `MANIFEST` file in the spill directory (rewritten by
//! atomic rename from `MANIFEST.tmp`, see [`ManifestWriter`]) records, per
//! shard, the segment list with record counts and byte lengths, plus the
//! per-thread durable node counts — the durable consistent-cut frontier.
//! The builder updates the manifest only **after** the corresponding bytes
//! were synced according to the configured [`SpillDurability`] policy, so
//! the manifest never names bytes that are not on disk. Offline recovery
//! ([`crate::recover`]) trusts exactly the manifest-named byte ranges,
//! CRC-checks every record inside them, and rebuilds the maximal
//! consistent prefix of the run.

use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::clock::VectorClock;
use crate::event::{BranchKind, SyncKind};
use crate::graph::{DependenceEdge, EdgeKind};
use crate::ids::{PageId, SubId, SyncObjectId, ThreadId};
use crate::subcomputation::{SubComputation, SyncPoint};

/// Default segment-roll size: 1 MiB keeps individual files small enough to
/// replay incrementally while amortising file creation.
pub const DEFAULT_SEGMENT_BYTES: u64 = 1 << 20;

/// Magic bytes opening every v2 segment file.
pub const SEGMENT_MAGIC: [u8; 8] = *b"INSPSPL2";

/// On-disk spill format version stamped into every segment header.
pub const SPILL_FORMAT_VERSION: u32 = 2;

/// Size of the fixed segment header: magic + version + shard + session id.
pub const SEGMENT_HEADER_BYTES: u64 = 24;

/// Per-record framing overhead: u32 length prefix + u32 CRC32 trailer.
pub const RECORD_OVERHEAD_BYTES: u64 = 8;

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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SpillDurability {
    /// Write into the page cache only; no explicit sync.
    #[default]
    None,
    /// `fdatasync` segment data at consistent-cut boundaries.
    Flush,
    /// `Flush` plus fsync of the manifest file and spill directory.
    Fsync,
}

impl SpillDurability {
    /// Parses a policy name, case-insensitively. Unrecognised spellings
    /// return `None` so env handling can keep the configured default.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "none" => Some(SpillDurability::None),
            "flush" => Some(SpillDurability::Flush),
            "fsync" => Some(SpillDurability::Fsync),
            _ => None,
        }
    }

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
    /// Sync policy applied at consistent-cut boundaries before the
    /// manifest names the freshly spilled bytes.
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

/// Record tags.
const TAG_NODE: u8 = 0;
const TAG_EDGE: u8 = 1;

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
    /// A record at the tail of a segment is incomplete: the process died
    /// mid-append. Replay skips and counts such records; the fault-in path
    /// reports which segment was torn.
    TornTail {
        /// Segment index the torn record sits in.
        segment: usize,
        /// Byte offset of the torn record's length prefix.
        offset: u64,
    },
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
            SpillError::TornTail { segment, offset } => {
                write!(f, "torn spill record at segment {segment} offset {offset}")
            }
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

/// Everything a sequential replay recovered, plus how much it had to skip.
#[derive(Debug, Default)]
pub struct Replay {
    /// Recovered node records, in append order.
    pub nodes: Vec<SubComputation>,
    /// Recovered edge records, in append order.
    pub edges: Vec<DependenceEdge>,
    /// Crash-torn tail records skipped (at most one per segment).
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

fn edge_kind_code(kind: EdgeKind) -> u8 {
    match kind {
        EdgeKind::Control => 1,
        EdgeKind::Synchronization => 2,
        EdgeKind::Data => 3,
    }
}

fn edge_kind_from(code: u8) -> SpillResult<EdgeKind> {
    match code {
        1 => Ok(EdgeKind::Control),
        2 => Ok(EdgeKind::Synchronization),
        3 => Ok(EdgeKind::Data),
        other => Err(SpillError::Corrupt(format!("edge kind {other}"))),
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

fn encode_edge(buf: &mut Vec<u8>, edge: &DependenceEdge) {
    put_sub_id(buf, edge.src);
    put_sub_id(buf, edge.dst);
    buf.push(edge_kind_code(edge.kind));
    match edge.object {
        None => buf.push(0),
        Some(obj) => {
            buf.push(1);
            put_u64(buf, obj.raw());
        }
    }
    put_u32(buf, edge.pages.len() as u32);
    for page in &edge.pages {
        put_u64(buf, page.number());
    }
}

fn decode_edge(cursor: &mut Cursor<'_>) -> SpillResult<DependenceEdge> {
    let src = cursor.take_sub_id()?;
    let dst = cursor.take_sub_id()?;
    let kind = edge_kind_from(cursor.take_u8()?)?;
    let object = match cursor.take_u8()? {
        0 => None,
        _ => Some(SyncObjectId::new(cursor.take_u64()?)),
    };
    let mut pages = Vec::new();
    for _ in 0..cursor.take_u32()? {
        pages.push(PageId::new(cursor.take_u64()?));
    }
    Ok(DependenceEdge {
        src,
        dst,
        kind,
        object,
        pages,
    })
}

// ---------------------------------------------------------------------------
// Segment headers and record payloads (shared with offline recovery)
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

/// One decoded record payload (tag already consumed and dispatched).
#[derive(Debug)]
pub(crate) enum RecordPayload {
    Node(SubComputation),
    Edge(DependenceEdge),
}

/// Decodes a full record payload (tag byte + body), checking exhaustion.
pub(crate) fn decode_record(payload: &[u8]) -> SpillResult<RecordPayload> {
    let mut cursor = Cursor::new(payload);
    let record = match cursor.take_u8()? {
        TAG_NODE => RecordPayload::Node(decode_node(&mut cursor)?),
        TAG_EDGE => RecordPayload::Edge(decode_edge(&mut cursor)?),
        other => return Err(SpillError::Corrupt(format!("tag {other}"))),
    };
    cursor.expect_exhausted()?;
    Ok(record)
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
    /// Durable node-record count per thread (raw thread index).
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
    /// consistent-cut frontier recovery starts from.
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
/// All shards of one builder share one writer; each successful spill round
/// replaces that shard's entry in memory, and the file is republished via
/// `MANIFEST.tmp` + rename so readers only ever observe a complete
/// manifest. *When* the file is rewritten follows the durability policy:
/// under [`SpillDurability::None`] (no durability promise) republication
/// is deferred to segment rolls, the initial publish, and the final
/// seal-time update — the rewrite-per-cut cost would otherwise dominate
/// the spill hot path for a tier that promises nothing. `Flush` and
/// `Fsync` republish at every durable cut: the manifest *is* their durable
/// frontier. Under `Fsync` the tmp file is additionally fsynced before the
/// rename and the directory after it.
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
    /// The file has been written at least once since creation/cleanup.
    published: bool,
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

    /// Publishes the (possibly empty) manifest if it has never been
    /// written: a spill directory carries its session's manifest from the
    /// moment it can receive records, so even a crash during the very
    /// first append leaves one behind for recovery.
    pub fn publish_initial(&self) -> std::io::Result<()> {
        let mut state = self.state.lock();
        if state.frozen || state.published {
            return Ok(());
        }
        self.write_locked(&mut state)
    }

    /// Replaces `shard`'s manifest entry and republishes the file per the
    /// durability policy (every cut under `Flush`/`Fsync`; first publish
    /// and segment rolls only under `None` — see the type docs).
    /// A frozen writer (post-crash) ignores the update: after a simulated
    /// crash the manifest must stay exactly as the dying process left it.
    pub fn update_shard(&self, shard: usize, snapshot: ShardManifest) -> std::io::Result<()> {
        let mut state = self.state.lock();
        if state.frozen {
            return Ok(());
        }
        let rolled = state
            .shards
            .get(&shard)
            .is_none_or(|old| old.segments.len() != snapshot.segments.len());
        state.shards.insert(shard, snapshot);
        if self.durability != SpillDurability::None || rolled || !state.published {
            self.write_locked(&mut state)
        } else {
            Ok(())
        }
    }

    /// Republishes the current (unclean) state, flushing any entries a
    /// deferring durability policy has not written yet. Used by seals that
    /// keep artifacts without reaching the clean mark.
    pub fn publish(&self) -> std::io::Result<()> {
        let mut state = self.state.lock();
        if state.frozen {
            return Ok(());
        }
        self.write_locked(&mut state)
    }

    /// Marks the manifest clean (final seal-time update) and republishes
    /// with every shard's latest (possibly deferred) entry.
    pub fn mark_clean(&self) -> std::io::Result<()> {
        let mut state = self.state.lock();
        if state.frozen {
            return Ok(());
        }
        state.clean = true;
        self.write_locked(&mut state)
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

    fn write_locked(&self, state: &mut ManifestState) -> std::io::Result<()> {
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
        state.published = true;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The per-shard store
// ---------------------------------------------------------------------------

/// Location of a spilled node: segment index and byte offset of its record's
/// length prefix.
type NodeLocation = (u32, u64);

/// Reads exactly `buf.len()` bytes; `Ok(false)` means the file ended first
/// (a torn record), any other failure is a real I/O error.
fn read_full(file: &mut File, buf: &mut [u8]) -> std::io::Result<bool> {
    match file.read_exact(buf) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Ok(false),
        Err(e) => Err(e),
    }
}

/// Metadata of one written segment file.
#[derive(Debug, Clone)]
struct SegmentMeta {
    path: PathBuf,
    /// Complete records appended so far.
    records: u64,
    /// Byte length of the durable, fully-framed prefix (header included).
    bytes: u64,
}

/// Append-only spill store of one shard: open segment writer, the segment
/// file list, and the node fault-in index.
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
    /// Bytes written to the current segment (fixed header included).
    current_len: u64,
    /// Fault-in index over spilled nodes.
    index: HashMap<SubId, NodeLocation>,
    /// Total payload + framing bytes appended since the last reset.
    bytes_written: u64,
    /// Node records appended since the last reset.
    nodes_spilled: u64,
    /// Complete node records appended per thread (raw index) — the
    /// per-thread durable frontier published through the manifest.
    thread_counts: BTreeMap<u32, u64>,
    /// Reusable record-encoding buffer (whole frame: len + payload + crc).
    scratch: Vec<u8>,
}

impl SpillStore {
    /// Creates the store for shard `shard`, creating `dir` if needed.
    /// Durability defaults to [`SpillDurability::None`] and the session id
    /// to 0; see [`SpillStore::set_durability`] / [`SpillStore::set_session_id`].
    pub fn create(dir: &Path, shard: usize, segment_bytes: u64) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        Ok(SpillStore {
            dir: dir.to_path_buf(),
            shard,
            segment_bytes: segment_bytes.max(1),
            durability: SpillDurability::default(),
            session_id: 0,
            retain: false,
            segments: Vec::new(),
            current: None,
            current_len: 0,
            index: HashMap::new(),
            bytes_written: 0,
            nodes_spilled: 0,
            thread_counts: BTreeMap::new(),
            scratch: Vec::new(),
        })
    }

    /// Sets the sync policy applied at cut boundaries and segment rolls.
    pub fn set_durability(&mut self, durability: SpillDurability) {
        self.durability = durability;
    }

    /// Sets the session id stamped into subsequent segment headers.
    /// Call before the first append; already-written headers keep theirs.
    pub fn set_session_id(&mut self, session_id: u64) {
        self.session_id = session_id;
    }

    /// Keep (or stop keeping) all on-disk artifacts when the store is
    /// dropped or reset. Degraded runs set this so forensic material
    /// survives the process.
    pub fn set_retain(&mut self, retain: bool) {
        self.retain = retain;
    }

    /// Number of nodes currently spilled.
    pub fn spilled_nodes(&self) -> u64 {
        self.nodes_spilled
    }

    /// Bytes appended (framing included) since the last reset.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Number of segment files written since the last reset.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Returns `true` if `id` has been spilled (and not drained since).
    pub fn contains(&self, id: SubId) -> bool {
        self.index.contains_key(&id)
    }

    fn segment_path(&self, segment: usize) -> PathBuf {
        self.dir.join(segment_file_name(self.shard, segment))
    }

    /// Ensures a writable segment with room is open, rolling (and syncing
    /// the finished segment per the durability policy) if needed. Returns
    /// the (segment, offset) the next record will land at.
    fn writer_position(&mut self) -> std::io::Result<NodeLocation> {
        let needs_new = match self.current {
            None => true,
            Some(_) => self.current_len >= self.segment_bytes,
        };
        if needs_new {
            if let Some(finished) = self.current.take() {
                if self.durability != SpillDurability::None {
                    finished.sync_data()?;
                }
            }
            // The directory may have been cleaned up by a previous seal of
            // a reused builder; recreate it on demand.
            std::fs::create_dir_all(&self.dir)?;
            let path = self.segment_path(self.segments.len());
            let mut file = OpenOptions::new()
                .create(true)
                .truncate(true)
                .write(true)
                .open(&path)?;
            file.write_all(&encode_segment_header(self.shard as u32, self.session_id))?;
            self.segments.push(SegmentMeta {
                path,
                records: 0,
                bytes: SEGMENT_HEADER_BYTES,
            });
            self.current = Some(file);
            self.current_len = SEGMENT_HEADER_BYTES;
        }
        Ok((self.segments.len() as u32 - 1, self.current_len))
    }

    /// Starts a record frame in scratch: length placeholder, then the tag.
    fn begin_record(&mut self, tag: u8) {
        self.scratch.clear();
        self.scratch.extend_from_slice(&[0u8; 4]);
        self.scratch.push(tag);
    }

    /// Finishes the frame in scratch (patches the length, appends the
    /// CRC32 trailer) and appends it with a single write.
    fn finish_record(&mut self) -> std::io::Result<()> {
        let payload_len = (self.scratch.len() - 4) as u32;
        self.scratch[..4].copy_from_slice(&payload_len.to_le_bytes());
        let crc = crc32(&self.scratch[4..]);
        self.scratch.extend_from_slice(&crc.to_le_bytes());
        let file = self.current.as_mut().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotConnected, "spill writer not open")
        })?;
        file.write_all(&self.scratch)?;
        let total = self.scratch.len() as u64;
        self.current_len += total;
        self.bytes_written += total;
        if let Some(meta) = self.segments.last_mut() {
            meta.records += 1;
            meta.bytes = self.current_len;
        }
        Ok(())
    }

    /// Appends one finished sub-computation and registers it in the
    /// fault-in index.
    pub fn append_node(&mut self, sub: &SubComputation) -> std::io::Result<()> {
        let location = self.writer_position()?;
        self.begin_record(TAG_NODE);
        encode_node(&mut self.scratch, sub);
        self.finish_record()?;
        self.index.insert(sub.id, location);
        self.nodes_spilled += 1;
        *self
            .thread_counts
            .entry(sub.id.thread.index() as u32)
            .or_insert(0) += 1;
        Ok(())
    }

    /// Appends one stripe-local edge (its destination is below the shard's
    /// spill cut, so no further edge into that destination can appear).
    pub fn append_edge(&mut self, edge: &DependenceEdge) -> std::io::Result<()> {
        self.writer_position()?;
        self.begin_record(TAG_EDGE);
        encode_edge(&mut self.scratch, edge);
        self.finish_record()
    }

    /// Deterministically simulates dying mid-append: writes only a prefix
    /// of `sub`'s frame (the length word plus half the payload) and leaves
    /// every counter, the index, and the manifest snapshot untouched —
    /// exactly the on-disk state a crash between `write` and bookkeeping
    /// leaves behind.
    pub fn append_torn_node(&mut self, sub: &SubComputation) -> std::io::Result<()> {
        self.writer_position()?;
        self.begin_record(TAG_NODE);
        encode_node(&mut self.scratch, sub);
        self.finish_torn()
    }

    /// Edge-record variant of [`SpillStore::append_torn_node`].
    pub fn append_torn_edge(&mut self, edge: &DependenceEdge) -> std::io::Result<()> {
        self.writer_position()?;
        self.begin_record(TAG_EDGE);
        encode_edge(&mut self.scratch, edge);
        self.finish_torn()
    }

    /// Writes only a prefix of the frame in scratch: the length word plus
    /// half the payload, never the CRC trailer.
    fn finish_torn(&mut self) -> std::io::Result<()> {
        let payload_len = (self.scratch.len() - 4) as u32;
        self.scratch[..4].copy_from_slice(&payload_len.to_le_bytes());
        let torn = 4 + payload_len as usize / 2;
        let file = self.current.as_mut().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotConnected, "spill writer not open")
        })?;
        file.write_all(&self.scratch[..torn])?;
        self.current_len += torn as u64;
        Ok(())
    }

    /// Pushes everything appended so far toward stable storage according
    /// to the durability policy, so the manifest may name it. A no-op
    /// under [`SpillDurability::None`].
    pub fn sync_for_cut(&mut self) -> std::io::Result<()> {
        if self.durability == SpillDurability::None {
            return Ok(());
        }
        if let Some(file) = self.current.as_mut() {
            file.sync_data()?;
        }
        Ok(())
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

    /// Reads one spilled node back in through the index, without touching
    /// the rest of its segment. Returns `None` for ids that were never
    /// spilled.
    ///
    /// # Errors
    ///
    /// [`SpillError::TornTail`] if the indexed record is incomplete on disk
    /// (crash mid-append); [`SpillError::Corrupt`] if its payload is
    /// malformed; [`SpillError::Io`] on read failure.
    pub fn fault_node(&self, id: SubId) -> SpillResult<Option<SubComputation>> {
        let Some(&(segment, offset)) = self.index.get(&id) else {
            return Ok(None);
        };
        let torn = || SpillError::TornTail {
            segment: segment as usize,
            offset,
        };
        let path = &self.segments[segment as usize].path;
        let mut file = File::open(path)?;
        file.seek(SeekFrom::Start(offset))?;
        let mut len = [0u8; 4];
        read_full(&mut file, &mut len)?
            .then_some(())
            .ok_or_else(torn)?;
        let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
        read_full(&mut file, &mut payload)?
            .then_some(())
            .ok_or_else(torn)?;
        let mut crc = [0u8; 4];
        read_full(&mut file, &mut crc)?
            .then_some(())
            .ok_or_else(torn)?;
        if crc32(&payload) != u32::from_le_bytes(crc) {
            return Err(SpillError::CrcMismatch {
                path: path.clone(),
                offset,
            });
        }
        match decode_record(&payload).map_err(|e| e.with_location(path, offset))? {
            RecordPayload::Node(sub) => Ok(Some(sub)),
            RecordPayload::Edge(_) => Err(SpillError::CorruptAt {
                what: "index points at a non-node record".into(),
                path: path.clone(),
                offset,
            }),
        }
    }

    /// Replays every record of every segment in append order without
    /// consuming the store. Within one thread, node records appear in α
    /// order (prefixes only ever grow), so callers can bucket by thread and
    /// get sorted sequences for free. Used by the live-snapshot fault path
    /// — one sequential read per shard instead of a seek per node.
    ///
    /// A record torn at a segment's tail (the process died mid-append) is
    /// **skipped and counted** in [`Replay::torn_tails`], not an error:
    /// after a crash the torn suffix is exactly the data that was still in
    /// flight, and the surviving prefix is intact by construction.
    ///
    /// # Errors
    ///
    /// [`SpillError::Corrupt`] for a malformed fully-framed payload;
    /// [`SpillError::Io`] on read failure.
    pub fn replay(&self) -> SpillResult<Replay> {
        let mut out = Replay {
            nodes: Vec::with_capacity(self.nodes_spilled as usize),
            ..Replay::default()
        };
        for meta in &self.segments {
            let bytes = std::fs::read(&meta.path)?;
            parse_segment_header(&bytes, &meta.path)?;
            let mut pos = SEGMENT_HEADER_BYTES as usize;
            while pos < bytes.len() {
                // A frame too short for its length word, payload, or CRC
                // trailer is a torn tail (the process died mid-append).
                if pos + 4 > bytes.len() {
                    out.torn_tails += 1;
                    break;
                }
                let mut word = [0u8; 4];
                word.copy_from_slice(&bytes[pos..pos + 4]);
                let len = u32::from_le_bytes(word) as usize;
                if pos + 4 + len + 4 > bytes.len() {
                    out.torn_tails += 1;
                    break;
                }
                let payload = &bytes[pos + 4..pos + 4 + len];
                word.copy_from_slice(&bytes[pos + 4 + len..pos + 8 + len]);
                if crc32(payload) != u32::from_le_bytes(word) {
                    return Err(SpillError::CrcMismatch {
                        path: meta.path.clone(),
                        offset: pos as u64,
                    });
                }
                match decode_record(payload).map_err(|e| e.with_location(&meta.path, pos as u64))? {
                    RecordPayload::Node(sub) => out.nodes.push(sub),
                    RecordPayload::Edge(edge) => out.edges.push(edge),
                }
                pos += 8 + len;
            }
        }
        Ok(out)
    }

    /// Replays every record of every segment in append order, then deletes
    /// the segment files and resets the store for the next build. This is
    /// the seal path: segments are concatenated back into the final graph
    /// instead of nodes being moved out of memory.
    ///
    /// # Errors
    ///
    /// Propagates [`SpillStore::replay`]'s errors; the store is left
    /// unconsumed on failure so the caller can decide how to degrade.
    pub fn drain_all(&mut self) -> SpillResult<Replay> {
        // Make sure everything is on disk before replaying.
        self.current = None;
        let drained = self.replay()?;
        self.remove_files();
        self.index.clear();
        self.current_len = 0;
        self.bytes_written = 0;
        self.nodes_spilled = 0;
        self.thread_counts.clear();
        Ok(drained)
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
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn unique_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "inspector-spill-test-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ))
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
            let dir = unique_dir("chain");
            let subs = recorded_subs();
            let mut store = SpillStore::create(&dir, 0, DEFAULT_SEGMENT_BYTES).unwrap();
            store.set_retain(true);
            store.append_node(&subs[0]).unwrap();
            store.append_node(&subs[1]).unwrap();
            let good_bytes = store.bytes_written();
            store.begin_record(TAG_NODE);
            store.scratch.extend_from_slice(&payload);
            store.finish_record().unwrap();
            store.append_node(&subs[2]).unwrap();
            let manifest = ManifestWriter::new(&dir, 0, SpillDurability::None);
            manifest.update_shard(0, store.manifest_snapshot()).unwrap();
            let lost = store.bytes_written() - good_bytes;
            drop(store);

            let recovery = crate::recover::recover_session(&dir).unwrap();
            let report = &recovery.report;
            assert_eq!(report.decode_failures, 1, "{what}");
            assert_eq!(report.crc_failures + report.torn_records, 0, "{what}");
            assert_eq!(report.lost_bytes, lost, "{what}");
            assert_eq!(report.recovered_nodes, 2, "{what}");
            assert!(recovery.cpg.nodes().eq(subs[..2].iter()), "{what}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn edge_codec_roundtrip_is_exact() {
        let edges = [
            DependenceEdge {
                src: SubId::new(ThreadId::new(0), 3),
                dst: SubId::new(ThreadId::new(1), 9),
                kind: EdgeKind::Data,
                object: None,
                pages: vec![PageId::new(4), PageId::new(7)],
            },
            DependenceEdge {
                src: SubId::new(ThreadId::new(5), 0),
                dst: SubId::new(ThreadId::new(5), 1),
                kind: EdgeKind::Control,
                object: None,
                pages: Vec::new(),
            },
            DependenceEdge {
                src: SubId::new(ThreadId::new(2), 2),
                dst: SubId::new(ThreadId::new(0), 8),
                kind: EdgeKind::Synchronization,
                object: Some(SyncObjectId::new(41)),
                pages: Vec::new(),
            },
        ];
        for edge in edges {
            let mut buf = Vec::new();
            encode_edge(&mut buf, &edge);
            let mut cursor = Cursor::new(&buf);
            let decoded = decode_edge(&mut cursor).unwrap();
            assert!(cursor.exhausted());
            assert_eq!(decoded, edge);
        }
    }

    #[test]
    fn store_appends_faults_and_drains() {
        let dir = unique_dir("store");
        let subs = recorded_subs();
        let mut store = SpillStore::create(&dir, 0, DEFAULT_SEGMENT_BYTES).unwrap();
        for sub in &subs {
            store.append_node(sub).unwrap();
        }
        let edge = DependenceEdge {
            src: subs[0].id,
            dst: subs[1].id,
            kind: EdgeKind::Control,
            object: None,
            pages: Vec::new(),
        };
        store.append_edge(&edge).unwrap();
        assert_eq!(store.spilled_nodes(), subs.len() as u64);
        assert!(store.bytes_written() > 0);

        // Random-access fault-in through the index.
        for sub in &subs {
            assert!(store.contains(sub.id));
            let faulted = store.fault_node(sub.id).unwrap().expect("spilled");
            assert_eq!(&faulted, sub);
        }
        assert!(store
            .fault_node(SubId::new(ThreadId::new(9), 99))
            .unwrap()
            .is_none());

        // Sequential replay returns everything in append order and resets.
        let replay = store.drain_all().unwrap();
        assert_eq!(replay.nodes, subs);
        assert_eq!(replay.edges, vec![edge]);
        assert_eq!(replay.torn_tails, 0);
        assert_eq!(store.spilled_nodes(), 0);
        assert_eq!(store.segment_count(), 0);
        let replay = store.drain_all().unwrap();
        assert!(replay.nodes.is_empty() && replay.edges.is_empty());
        drop(store);
        assert!(!dir.exists(), "store drop removes the spill directory");
    }

    #[test]
    fn segments_roll_at_the_configured_size() {
        let dir = unique_dir("roll");
        let subs = recorded_subs();
        // A tiny segment size forces a roll on (almost) every record.
        let mut store = SpillStore::create(&dir, 3, 16).unwrap();
        for sub in &subs {
            store.append_node(sub).unwrap();
        }
        assert!(
            store.segment_count() >= subs.len(),
            "expected one segment per record at segment_bytes=16, got {}",
            store.segment_count()
        );
        // Fault-in still works across segment boundaries.
        for sub in &subs {
            assert_eq!(store.fault_node(sub.id).unwrap().as_ref(), Some(sub));
        }
        let replay = store.drain_all().unwrap();
        assert_eq!(replay.nodes, subs);
    }

    #[test]
    fn store_is_reusable_after_drain() {
        let dir = unique_dir("reuse");
        let subs = recorded_subs();
        let mut store = SpillStore::create(&dir, 1, 64).unwrap();
        for round in 0..3 {
            for sub in &subs {
                store.append_node(sub).unwrap();
            }
            let replay = store.drain_all().unwrap();
            assert_eq!(replay.nodes, subs, "round {round}");
            assert!(replay.edges.is_empty());
        }
    }

    #[test]
    fn torn_final_record_is_skipped_and_counted() {
        // Crash-mid-append round trip: append, truncate the last segment
        // inside the final record, replay. The surviving prefix comes back
        // intact and the torn record is counted, never a panic.
        let dir = unique_dir("torn");
        let subs = recorded_subs();
        let mut store = SpillStore::create(&dir, 0, DEFAULT_SEGMENT_BYTES).unwrap();
        for sub in &subs {
            store.append_node(sub).unwrap();
        }
        // Flush, then chop the file inside the last record's CRC trailer
        // (and separately mid-payload).
        store.current = None;
        let path = store.segments.last().unwrap().path.clone();
        let full = std::fs::read(&path).unwrap();
        for chop in [3u64, 9] {
            let file = OpenOptions::new().write(true).open(&path).unwrap();
            file.set_len(full.len() as u64 - chop).unwrap();
            drop(file);
            let replay = store.replay().unwrap();
            assert_eq!(replay.nodes, subs[..subs.len() - 1]);
            assert!(replay.edges.is_empty());
            assert_eq!(replay.torn_tails, 1, "chop {chop}");
        }
        // The fault-in path reports the torn record as such.
        let err = store.fault_node(subs.last().unwrap().id).unwrap_err();
        assert!(matches!(err, SpillError::TornTail { .. }), "{err}");
        assert!(err.to_string().contains("torn"));
        // Intact records still fault in fine.
        assert_eq!(
            store.fault_node(subs[0].id).unwrap().as_ref(),
            Some(&subs[0])
        );
        // drain_all skips + counts the same way.
        let replay = store.drain_all().unwrap();
        assert_eq!(replay.nodes, subs[..subs.len() - 1]);
        assert_eq!(replay.torn_tails, 1);
    }

    #[test]
    fn corrupt_payload_is_a_typed_error_not_a_panic() {
        let dir = unique_dir("corrupt");
        let subs = recorded_subs();
        let mut store = SpillStore::create(&dir, 0, DEFAULT_SEGMENT_BYTES).unwrap();
        store.append_node(&subs[0]).unwrap();
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
        // Fault-in sees the same typed error.
        let err = store.fault_node(subs[0].id).unwrap_err();
        assert!(matches!(err, SpillError::CrcMismatch { .. }), "{err}");
    }

    #[test]
    fn bad_tag_with_valid_crc_is_a_located_corrupt_error() {
        let dir = unique_dir("badtag");
        let subs = recorded_subs();
        let mut store = SpillStore::create(&dir, 0, DEFAULT_SEGMENT_BYTES).unwrap();
        store.append_node(&subs[0]).unwrap();
        store.current = None;
        let path = store.segments.last().unwrap().path.clone();
        // Hand-craft a framed record with an unknown tag but a *valid*
        // CRC, so the decode (not the checksum) rejects it.
        let mut bytes = std::fs::read(&path).unwrap();
        let offset = bytes.len() as u64;
        let payload = [9u8];
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
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
        let dir = unique_dir("header");
        let subs = recorded_subs();
        let mut store = SpillStore::create(&dir, 5, DEFAULT_SEGMENT_BYTES).unwrap();
        store.set_session_id(0xDEAD_BEEF);
        store.append_node(&subs[0]).unwrap();
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
        // An unsupported version is rejected too.
        let mut newer = bytes;
        newer[8..12].copy_from_slice(&99u32.to_le_bytes());
        let err = parse_segment_header(&newer, &path).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");
    }

    #[test]
    fn torn_append_simulates_a_mid_write_crash() {
        let dir = unique_dir("tornappend");
        let subs = recorded_subs();
        let mut store = SpillStore::create(&dir, 0, DEFAULT_SEGMENT_BYTES).unwrap();
        store.append_node(&subs[0]).unwrap();
        store.append_node(&subs[1]).unwrap();
        let before = store.manifest_snapshot();
        store.append_torn_node(&subs[2]).unwrap();
        // The torn record never becomes durable state: counters, index,
        // and the manifest snapshot are unchanged.
        assert_eq!(store.spilled_nodes(), 2);
        assert!(!store.contains(subs[2].id));
        assert_eq!(store.manifest_snapshot(), before);
        // Replay skips and counts it.
        store.current = None;
        let replay = store.replay().unwrap();
        assert_eq!(replay.nodes, subs[..2]);
        assert_eq!(replay.torn_tails, 1);
    }

    #[test]
    fn retained_store_keeps_files_on_drop() {
        let dir = unique_dir("retain");
        let subs = recorded_subs();
        let mut store = SpillStore::create(&dir, 0, DEFAULT_SEGMENT_BYTES).unwrap();
        store.append_node(&subs[0]).unwrap();
        let path = store.segments.last().unwrap().path.clone();
        store.detach_keeping_files();
        drop(store);
        assert!(path.exists(), "retained segment must survive drop");
        assert!(dir.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flush_durability_syncs_without_changing_contents() {
        let dir = unique_dir("flush");
        let subs = recorded_subs();
        let mut store = SpillStore::create(&dir, 0, 64).unwrap();
        store.set_durability(SpillDurability::Flush);
        for sub in &subs {
            store.append_node(sub).unwrap();
        }
        store.sync_for_cut().unwrap();
        let replay = store.replay().unwrap();
        assert_eq!(replay.nodes, subs);
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
        let dir = unique_dir("manifest");
        std::fs::create_dir_all(&dir).unwrap();
        let writer = ManifestWriter::new(&dir, 77, SpillDurability::None);
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
        let parsed = read_manifest(&dir).unwrap().unwrap();
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
        assert!(read_manifest(&dir).unwrap().unwrap().clean);
        // A frozen writer (simulated crash) publishes nothing further.
        writer.freeze();
        writer.update_shard(0, ShardManifest::default()).unwrap();
        let after_freeze = read_manifest(&dir).unwrap().unwrap();
        assert_eq!(after_freeze.segments.len(), 3);
        writer.cleanup();
        // cleanup() removed the manifest but freeze() keeps future writes
        // suppressed; only the state was reset.
        assert!(read_manifest(&dir).unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_tmp_manifest_is_ignored_by_readers() {
        let dir = unique_dir("staletmp");
        std::fs::create_dir_all(&dir).unwrap();
        let writer = ManifestWriter::new(&dir, 9, SpillDurability::None);
        let mut shard = ShardManifest::default();
        shard.segments.push((1, 50));
        writer.update_shard(0, shard).unwrap();
        // Simulate an interrupted update: garbage landed in the tmp file
        // but the rename never happened.
        std::fs::write(dir.join(MANIFEST_TMP_FILE), b"half-written garbage").unwrap();
        let parsed = read_manifest(&dir).unwrap().unwrap();
        assert_eq!(parsed.session_id, 9);
        assert_eq!(parsed.segments.len(), 1);
        // With no published manifest at all, a stale tmp must not count.
        std::fs::remove_file(dir.join(MANIFEST_FILE)).unwrap();
        assert!(read_manifest(&dir).unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_manifests_are_typed_errors() {
        assert!(parse_manifest("not a manifest\n").is_err());
        assert!(parse_manifest("inspector-spill-manifest v2\nbogus line\n").is_err());
        assert!(parse_manifest("inspector-spill-manifest v2\nsession abc\n").is_err());
        let ok = parse_manifest("inspector-spill-manifest v2\nsession 1\nclean 0\n").unwrap();
        assert_eq!(ok.session_id, 1);
    }

    #[test]
    fn durability_parse_accepts_known_spellings_only() {
        assert_eq!(SpillDurability::parse("none"), Some(SpillDurability::None));
        assert_eq!(
            SpillDurability::parse(" FLUSH "),
            Some(SpillDurability::Flush)
        );
        assert_eq!(
            SpillDurability::parse("Fsync"),
            Some(SpillDurability::Fsync)
        );
        assert_eq!(SpillDurability::parse("sometimes"), None);
        for d in [
            SpillDurability::None,
            SpillDurability::Flush,
            SpillDurability::Fsync,
        ] {
            assert_eq!(SpillDurability::parse(d.as_str()), Some(d));
        }
    }
}
