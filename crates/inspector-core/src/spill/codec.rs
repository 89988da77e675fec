//! The spill tier's byte format: record framing and its CRC32, the node
//! codec, the segment header, and the one frame walker that reads them back.
//!
//! # On-disk format (v4)
//!
//! A spill store owns a sequence of segment files
//! (`shard-<k>-seg-<n>.spill` under the configured directory); a segment is
//! closed and a new one started once it exceeds
//! [`SpillSettings::segment_bytes`](super::SpillSettings::segment_bytes).
//! Every segment starts with a 24-byte header:
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
//! marks a node record, whose payload is the [`SubComputation`]'s compact
//! form (`v` is an LEB128 varint):
//!
//! ```text
//! v thread  v α  v clock_len  v component × clock_len
//! v reads   v page × reads    (ascending: the first page, then each
//! v writes  v page × writes    page's distance from the one before)
//! v log_len  branch log × log_len bytes (thunk.rs's encoding, verbatim)
//! u8 terminator kind (0 none, 1 release, 2 acquire, 3 both)  [v object]
//! ```
//!
//! The clock is dense — trailing zeros included — so a decoded clock is
//! representation-identical, not just order-equivalent (equivalence suites
//! fingerprint nodes through `Debug`).
//!
//! **One node, one byte string.** The decoder accepts only what the encoder
//! writes: shortest-form varints within their type, page steps of at least
//! 1, a canonical branch log — runs of 1 to 4095 branches, each IP at its
//! minimal width (≤ 8 bytes), no kind bits past a run's last branch, an IP
//! repeated only after a full run ([`ThunkList::from_log`]) — and no
//! trailing bytes. So a CRC-valid payload decodes to the one node that
//! re-encodes to it, or is [`SpillError::Corrupt`], never a different node.
//! Decoding is one validation pass over the log and one copy. Version 3
//! expanded every thunk to 25 bytes and version 2 also stored edges; their
//! segments are refused at the header.

use std::fs::File;
use std::io::Read;
use std::path::Path;

use parking_lot::Mutex;

use super::{SpillError, SpillResult};
use crate::clock::VectorClock;
use crate::event::SyncKind;
use crate::ids::{PageId, SubId, SyncObjectId, ThreadId};
use crate::pool;
use crate::subcomputation::{SubComputation, SyncPoint};
use crate::thunk::ThunkList;

/// Magic bytes opening every segment file (unchanged since v2; the version
/// field after it tells the formats apart).
pub const SEGMENT_MAGIC: [u8; 8] = *b"INSPSPL2";

/// On-disk spill format version stamped into every segment header.
pub const SPILL_FORMAT_VERSION: u32 = 4;

/// Size of the fixed segment header: magic + version + shard + session id.
pub const SEGMENT_HEADER_BYTES: u64 = 24;

/// Per-record framing overhead: u32 length prefix + u32 CRC32 trailer.
pub const RECORD_OVERHEAD_BYTES: u64 = 8;

/// The shortest node frame: framing, tag, a one-byte varint each for the
/// id's thread and α, the clock's length, both page sets' counts and the
/// branch log's length, and the terminator byte.
pub(crate) const MIN_NODE_FRAME_BYTES: u64 = RECORD_OVERHEAD_BYTES + 1 + 2 + 1 + 2 + 1 + 1;

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
pub(super) const TAG_NODE: u8 = 0;

/// Appends one whole frame to `buf`: length word, tag, the payload
/// `encode` writes, CRC32 trailer over tag and payload.
pub(super) fn put_frame(buf: &mut Vec<u8>, tag: u8, encode: impl FnOnce(&mut Vec<u8>)) {
    let start = buf.len();
    buf.extend_from_slice(&[0u8; 4]);
    buf.push(tag);
    encode(buf);
    let payload_len = (buf.len() - start - 4) as u32;
    buf[start..start + 4].copy_from_slice(&payload_len.to_le_bytes());
    let crc = crc32(&buf[start + 4..]);
    buf.extend_from_slice(&crc.to_le_bytes());
}

/// Appends `v` as an LEB128 varint: 7 bits per byte, low bits first, the
/// high bit set on every byte but the last. Shortest form only.
fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
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

    /// The next varint, in its shortest form only: an overlong one (a last
    /// byte of zero after the first) or one past `u64` is corrupt, so one
    /// value has exactly one encoding.
    fn take_varint(&mut self) -> SpillResult<u64> {
        let mut v = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.take_u8()?;
            if shift == 63 && byte > 1 {
                break;
            }
            v |= u64::from(byte & 0x7F) << shift;
            if byte < 0x80 {
                if byte == 0 && shift > 0 {
                    return Err(SpillError::Corrupt(format!("overlong varint for {v}")));
                }
                return Ok(v);
            }
        }
        Err(SpillError::Corrupt("varint past u64".into()))
    }

    /// A varint element count, checked against the bytes left — every
    /// element takes at least one — before anything is sized to it.
    fn take_len(&mut self) -> SpillResult<usize> {
        let len = self.take_varint()?;
        let left = self.remaining();
        (usize::try_from(len).ok().filter(|&len| len <= left))
            .ok_or_else(|| SpillError::Corrupt(format!("{len} elements in {left} payload bytes")))
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn expect_exhausted(&self) -> SpillResult<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SpillError::Corrupt(format!(
                "{} trailing bytes in spill record",
                self.remaining()
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

/// Encodes one node payload (without the record framing): its compact
/// form, laid out in the module docs.
pub(super) fn encode_node(buf: &mut Vec<u8>, sub: &SubComputation) {
    put_varint(buf, sub.id.thread.index() as u64);
    put_varint(buf, sub.id.alpha);
    put_varint(buf, sub.clock.len() as u64);
    for i in 0..sub.clock.len() {
        put_varint(buf, sub.clock.get(ThreadId::new(i as u32)));
    }
    for set in [&sub.read_set, &sub.write_set] {
        put_varint(buf, set.len() as u64);
        let mut prev = 0;
        for page in set {
            put_varint(buf, page.number() - prev);
            prev = page.number();
        }
    }
    let log = sub.thunks.log_bytes();
    put_varint(buf, log.len() as u64);
    buf.extend_from_slice(log);
    match sub.terminator {
        None => buf.push(0),
        Some(sp) => {
            buf.push(sync_kind_code(sp.kind));
            put_varint(buf, sp.object.raw());
        }
    }
}

/// Decodes a whole node payload — what [`encode_node`] wrote, and only
/// that: any byte string it accepts re-encodes to itself (module docs).
pub(super) fn decode_node(payload: &[u8]) -> SpillResult<SubComputation> {
    let mut cursor = Cursor::new(payload);
    let thread = cursor.take_varint()?;
    let thread =
        u32::try_from(thread).map_err(|_| SpillError::Corrupt(format!("thread {thread}")))?;
    let id = SubId::new(ThreadId::new(thread), cursor.take_varint()?);
    let clock_len = cursor.take_len()?;
    let mut clock = VectorClock::with_capacity(clock_len);
    for i in 0..clock_len {
        clock.set(ThreadId::new(i as u32), cursor.take_varint()?);
    }
    let mut sub = SubComputation::new(id, clock);
    for set in [&mut sub.read_set, &mut sub.write_set] {
        let mut page = 0u64;
        for i in 0..cursor.take_len()? {
            let step = cursor.take_varint()?;
            page = (page.checked_add(step).filter(|_| step > 0 || i == 0))
                .ok_or_else(|| SpillError::Corrupt(format!("page step {step}")))?;
            set.insert(PageId::new(page));
        }
    }
    let log_len = cursor.take_len()?;
    sub.thunks = ThunkList::from_log(id, cursor.take(log_len)?)
        .map_err(|what| SpillError::Corrupt(format!("branch log: {what}")))?;
    sub.terminator = match cursor.take_u8()? {
        0 => None,
        code => {
            let kind = sync_kind_from(code)?;
            let object = SyncObjectId::new(cursor.take_varint()?);
            Some(SyncPoint { object, kind })
        }
    };
    cursor.expect_exhausted()?;
    Ok(sub)
}

// ---------------------------------------------------------------------------
// Segment headers and the frame walker (run by the one reader, `recover.rs`)
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

pub(super) fn segment_header(shard: u32, session_id: u64) -> [u8; SEGMENT_HEADER_BYTES as usize] {
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
    // In bounds: the length was checked above.
    let word = |at: usize| u32::from_le_bytes(std::array::from_fn(|i| bytes[at + i]));
    let version = word(8);
    if version != SPILL_FORMAT_VERSION {
        return Err(bad(format!(
            "unsupported format version {version} (expected {SPILL_FORMAT_VERSION})"
        )));
    }
    let session_id = u64::from(word(16)) | u64::from(word(20)) << 32;
    Ok(SegmentHeader {
        shard: word(12),
        session_id,
    })
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
    Decode(usize),
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
        let Some(Ok(sub)) = payload.strip_prefix(&[TAG_NODE]).map(decode_node) else {
            return ScanEnd::Decode(pos);
        };
        node(sub);
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
    BadHeader { file_len: u64 },
    /// The header parsed and the trusted bytes were walked; `nodes` are
    /// the node records delivered, in append order, and `ascending` says
    /// whether they ascend strictly by id.
    Scanned {
        file_len: u64,
        header: SegmentHeader,
        nodes: Vec<SubComputation>,
        ascending: bool,
        end: ScanEnd,
    },
}

/// Record buffers for segment scans, made on the calling thread with
/// [`pool::caller_buffer`] — so they stay in its arena however a worker
/// grows them — and handed back once a segment's records are taken.
#[derive(Debug)]
pub(crate) struct RecordBuffers(Mutex<Vec<Vec<SubComputation>>>);

impl RecordBuffers {
    /// `count` buffers, each with room for `records` nodes. A buffer keeps
    /// its capacity from one segment to the next.
    pub(crate) fn new(count: usize, records: u64) -> Self {
        let buffers = (0..count).map(|_| pool::caller_buffer(records)).collect();
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

/// Reads the segment at `path` into `image` (a reusable buffer: segments
/// are equally sized, and a fresh megabyte per file is a fresh round of
/// page faults), validates its header and runs [`scan_segment`] over its
/// first `trusted_len` bytes, decoding into a buffer from `buffers` and
/// noting whether the records ascend by id — so the reader checks order
/// only where it joins runs. Damage is reported, never a panic.
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
        Err(_) => return SegmentScan::BadHeader { file_len },
    };
    let mut nodes = buffers.take();
    let mut ascending = true;
    let end = scan_segment(
        image,
        usize::try_from(trusted_len).unwrap_or(usize::MAX),
        |sub| {
            ascending &= nodes.last().is_none_or(|last| last.id < sub.id);
            nodes.push(sub);
        },
    );
    SegmentScan::Scanned {
        file_len,
        header,
        nodes,
        ascending,
        end,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::BranchKind;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// A page number or IP drawn from `v`: small, one byte boundary, or
    /// anything.
    fn number(v: u64) -> u64 {
        match v % 3 {
            0 => (v >> 2) % 300,
            1 => 1 << (8 * ((v >> 2) % 8)),
            _ => v,
        }
    }

    /// A node with a dense clock, pages in any order, branches under one
    /// label or anywhere, and any terminator.
    fn node(
        id: &[u64],
        clock: &[u64],
        pages: [&[u64]; 2],
        branches: &[u64],
        end: u64,
    ) -> SubComputation {
        let id = SubId::new(ThreadId::new(number(id[0]) as u32), number(id[1]));
        let clock = clock.iter().enumerate();
        let clock = clock
            .map(|(i, &v)| (ThreadId::new(i as u32), number(v)))
            .collect();
        let mut sub = SubComputation::new(id, clock);
        for &page in pages[0] {
            sub.record_read(PageId::new(number(page)));
        }
        for &page in pages[1] {
            sub.record_write(PageId::new(number(page)));
        }
        let kinds = [
            BranchKind::ConditionalTaken,
            BranchKind::ConditionalNotTaken,
            BranchKind::Indirect,
            BranchKind::Return,
        ];
        for &b in branches {
            let ip = if b % 8 < 5 { 0x49_0000 } else { number(b >> 3) };
            sub.thunks.record_branch(kinds[(b >> 6) as usize % 4], ip);
        }
        let code = (end % 4) as u8;
        sub.terminator = (code > 0).then(|| SyncPoint {
            object: SyncObjectId::new(number(end >> 2)),
            kind: sync_kind_from(code).unwrap(),
        });
        sub
    }

    /// `payload` with each edit overwriting, inserting or removing a byte.
    fn edited(mut payload: Vec<u8>, edits: &[u64]) -> Vec<u8> {
        for &edit in edits {
            let (len, byte, at) = (payload.len(), (edit >> 2) as u8, (edit >> 10) as usize);
            match edit % 3 {
                0 if len > 0 => payload[at % len] = byte,
                1 => payload.insert(at % (len + 1), byte),
                _ if len > 0 => {
                    payload.remove(at % len);
                }
                _ => {}
            }
        }
        payload
    }

    proptest! {
        /// Every node round-trips; and whatever CRC-valid payload a frame
        /// carries — an edited record or noise — the frame walker does not
        /// panic, and a node it delivers re-encodes to that payload: one
        /// node, one byte string.
        #[test]
        fn prop_crc_valid_payloads_decode_to_one_node_or_none(
            id in vec(any::<u64>(), 2),
            clock in vec(any::<u64>(), 0..6),
            reads in vec(any::<u64>(), 0..6),
            writes in vec(any::<u64>(), 0..6),
            branches in vec(any::<u64>(), 0..40),
            end in any::<u64>(),
            edits in vec(any::<u64>(), 0..4),
            noise in vec(any::<u8>(), 0..48),
        ) {
            let sub = node(&id, &clock, [&reads, &writes], &branches, end);
            let mut payload = vec![TAG_NODE];
            encode_node(&mut payload, &sub);
            prop_assert_eq!(&decode_node(&payload[1..]).unwrap(), &sub);
            let edited = edited(payload.clone(), &edits);
            for payload in [payload, edited, noise] {
                let mut image = segment_header(0, 0).to_vec();
                image.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                image.extend_from_slice(&payload);
                image.extend_from_slice(&crc32(&payload).to_le_bytes());
                let mut delivered = Vec::new();
                match scan_segment(&image, image.len(), |sub| delivered.push(sub)) {
                    ScanEnd::Clean => {
                        prop_assert_eq!(delivered.len(), 1);
                        let mut again = vec![TAG_NODE];
                        encode_node(&mut again, &delivered[0]);
                        prop_assert_eq!(again, payload);
                    }
                    ScanEnd::Decode(at) => {
                        prop_assert_eq!(at, SEGMENT_HEADER_BYTES as usize);
                        prop_assert!(delivered.is_empty());
                    }
                    other => prop_assert!(false, "{other:?}"),
                }
            }
        }
    }
}
