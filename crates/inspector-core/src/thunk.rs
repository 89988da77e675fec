//! Thunks: the control-path records inside a sub-computation.
//!
//! A thunk is the sequence of instructions executed between two successive
//! branches (`L_t[α].Δ[β]` in the paper). INSPECTOR reconstructs thunks from
//! the decoded Intel PT branch stream: every retired branch starts a new
//! thunk, and the branch's kind/target labels the edge between them.
//!
//! # The derived view
//!
//! A [`ThunkList`] stores its owning sub-computation and the retired
//! branches in order, and nothing else. Thunks are a view over that log,
//! materialised by [`ThunkList::iter`]:
//!
//! **`n ≥ 1` branches are `n` closed thunks followed by one open thunk.
//! Thunk `β` has id `(owner, β)`, its `entry_ip` is the `ip` of branch
//! `β − 1` (`0` for `β = 0`), and it is terminated by branch `β` (by nothing
//! for `β = n`). No branches, no thunks.**
//!
//! The spill codec writes the view and, on the way back in, accepts only
//! byte strings that satisfy it.
//!
//! # The branch log: 2 bits per branch
//!
//! A branch is a kind and an IP, and the IP rarely changes: a worker labels
//! its conditionals with one `set_pc` value, so a sub-computation of a
//! million conditionals carries one IP a million times. The log therefore
//! stores **runs** — consecutive branches that share an IP — one after the
//! other in one byte string:
//!
//! ```text
//! run     = header:u16le  ip:width bytes  kinds:⌈count/4⌉ bytes
//! header  = count << 4 | width              1 ≤ count ≤ 4095, width ≤ 8
//! ip      = the IP's low `width` bytes, little-endian (none for IP 0)
//! kinds   = 2 bits per branch, branch i at bits 2(i mod 4) of byte i/4:
//!           00 taken, 01 not taken, 10 indirect, 11 return
//! ```
//!
//! A branch whose IP equals the previous one's costs its 2 kind bits; one
//! that changes the IP (an indirect target, a return, a new `set_pc`
//! label) also opens a run, whose header and IP take 2–10 bytes. Slots past a run's last
//! branch are `00`, so a conditional count is a popcount of the kind
//! bytes' high bits. The encoding is a function of the branch sequence, so
//! equal logs are equal byte strings.
//!
//! Up to 15 bytes of log — 40 conditionals under one label — live inside
//! the list itself (`small.rs`), so a sub-computation that branched a
//! little owns no heap block for it, and the list stays the 40 bytes the
//! 16-byte-per-branch `Vec` it replaced took.
//!
//! The recorder stages branches in a `StagedThunks`: up to 32 kind codes
//! under one IP wait in a word and enter the log together, so the
//! per-branch cost is a compare and an OR, and a retiring sub-computation
//! takes the log at its exact size.

use std::fmt;

use crate::event::BranchKind;
use crate::ids::{SubId, ThreadId, ThunkId};
use crate::small::SmallVec;

/// Bytes of branch log a [`ThunkList`] holds inline (see the module docs).
const INLINE_LOG: usize = 15;

/// Bytes of a run header.
const HEADER: usize = 2;

/// Most branches one run holds: its count has 12 bits.
const RUN_MAX: usize = (1 << 12) - 1;

/// Kind codes a `u64` holds.
const KINDS_PER_WORD: usize = 32;

/// Branch kinds, indexed by their 2-bit code.
const KINDS: [BranchKind; 4] = [
    BranchKind::ConditionalTaken,
    BranchKind::ConditionalNotTaken,
    BranchKind::Indirect,
    BranchKind::Return,
];

/// The 2-bit code of `kind`: its index in [`KINDS`]. The high bit is set
/// for exactly the unconditional kinds.
#[inline]
fn code_of(kind: BranchKind) -> u8 {
    match kind {
        BranchKind::ConditionalTaken => 0,
        BranchKind::ConditionalNotTaken => 1,
        BranchKind::Indirect => 2,
        BranchKind::Return => 3,
    }
}

/// One thunk: the branch that terminated it plus a few bookkeeping counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Thunk {
    /// Identifier (sub-computation + position β).
    pub id: ThunkId,
    /// Instruction pointer of the branch that *started* this thunk (the
    /// target of the previous branch), `0` for the first thunk of a
    /// sub-computation.
    pub entry_ip: u64,
    /// The branch that terminated the thunk, `None` while the thunk is still
    /// open (or if the sub-computation ended at a synchronization point).
    pub terminator: Option<BranchRecord>,
}

/// A retired branch as recorded in the control-flow trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchRecord {
    /// Branch kind (conditional taken / not-taken, indirect, return).
    pub kind: BranchKind,
    /// Instruction pointer associated with the branch. For conditional
    /// branches this is the branch instruction itself; for indirect branches
    /// and returns it is the target reported by the TIP packet.
    pub ip: u64,
}

impl Thunk {
    /// Creates an open thunk starting at `entry_ip`.
    pub fn open(id: ThunkId, entry_ip: u64) -> Self {
        Thunk {
            id,
            entry_ip,
            terminator: None,
        }
    }

    /// Closes the thunk with the branch that terminated it.
    pub fn close(&mut self, kind: BranchKind, ip: u64) {
        self.terminator = Some(BranchRecord { kind, ip });
    }
}

/// The ordered list of thunks of one sub-computation, stored as its branch
/// log (see the module docs for the derived view and the encoding).
///
/// Equality and `Debug` see the owner and the branches, never whether the
/// log sits inline or on the heap.
#[derive(Clone, PartialEq, Eq)]
pub struct ThunkList {
    /// The owner, a [`SubId`] taken apart so that the list is 40 bytes.
    alpha: u64,
    thread: ThreadId,
    /// The last run's header; 0 while the log is empty.
    open: u16,
    log: SmallVec<u8, INLINE_LOG>,
}

impl ThunkList {
    /// Creates the empty thunk list of sub-computation `owner`.
    pub fn new(owner: SubId) -> Self {
        ThunkList {
            alpha: owner.alpha,
            thread: owner.thread,
            open: 0,
            log: SmallVec::new(),
        }
    }

    /// Creates the thunk list of sub-computation `owner` from its retired
    /// branches, in order.
    #[cfg(test)]
    pub(crate) fn from_branches(owner: SubId, branches: Vec<BranchRecord>) -> Self {
        let mut list = ThunkList::new(owner);
        for b in branches {
            list.record_branch(b.kind, b.ip);
        }
        list
    }

    /// Records a retired branch: closes the open thunk with it and opens
    /// the next one at `ip`.
    pub fn record_branch(&mut self, kind: BranchKind, ip: u64) {
        self.append(ip, u64::from(code_of(kind)), 1);
    }

    /// Appends `n ≤ 32` branches at `ip`, the kind code of the i-th at bits
    /// 2i of `kinds` (zero above): to the last run while it has that IP and
    /// room, to a new run otherwise.
    fn append(&mut self, ip: u64, mut kinds: u64, mut n: usize) {
        debug_assert!(n <= KINDS_PER_WORD, "{n} branches in one word");
        while n > 0 {
            let (count, width) = split_header(self.open);
            let last = self
                .log
                .len()
                .checked_sub(HEADER + width + count.div_ceil(4));
            let take = match last {
                Some(at) if count < RUN_MAX && ip_from(&self.log[at + HEADER..][..width]) == ip => {
                    let take = n.min(RUN_MAX - count);
                    let slot = count % 4;
                    let bytes = (u128::from(kinds & low_bits(take)) << (2 * slot)).to_le_bytes();
                    let fresh = (count + take).div_ceil(4) - count.div_ceil(4);
                    if slot == 0 {
                        self.log.extend_from_slice(&bytes[..fresh]);
                    } else {
                        let log = self.log.as_mut_slice();
                        log[log.len() - 1] |= bytes[0];
                        self.log.extend_from_slice(&bytes[1..=fresh]);
                    }
                    let header = ((count + take) << 4 | width) as u16;
                    self.log[at..at + HEADER].copy_from_slice(&header.to_le_bytes());
                    self.open = header;
                    take
                }
                _ => {
                    // Header, IP and kinds in one write. The IP's bytes
                    // past `width` are zero, so the kinds may overwrite them.
                    let width = (u64::BITS - ip.leading_zeros()).div_ceil(8) as usize;
                    let header = (n << 4 | width) as u16;
                    let mut run = [0; HEADER + 8 + 8];
                    run[..HEADER].copy_from_slice(&header.to_le_bytes());
                    run[HEADER..HEADER + 8].copy_from_slice(&ip.to_le_bytes());
                    run[HEADER + width..][..8].copy_from_slice(&kinds.to_le_bytes());
                    self.log
                        .extend_from_slice(&run[..HEADER + width + n.div_ceil(4)]);
                    self.open = header;
                    n
                }
            };
            kinds = kinds.checked_shr(2 * take as u32).unwrap_or(0);
            n -= take;
        }
    }

    /// Hands the log recorded so far over as the thunk list of `owner`,
    /// copied at its exact size — inline when it fits, so a short log costs
    /// no allocation — and restarts this list empty on the buffer it grew.
    fn take_exact(&mut self, owner: SubId) -> ThunkList {
        let taken = ThunkList {
            alpha: owner.alpha,
            thread: owner.thread,
            open: self.open,
            log: self.log.exact_copy(),
        };
        self.log.truncate(0);
        self.open = 0;
        taken
    }

    /// Number of thunks recorded so far (the trailing open one included).
    pub fn len(&self) -> usize {
        match self.branches() {
            0 => 0,
            n => n + 1,
        }
    }

    /// Returns `true` if no thunk has been recorded.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// Iterates over the thunks in execution order.
    pub fn iter(&self) -> Thunks<'_> {
        Thunks {
            owner: self.owner(),
            branches: self.records(),
            beta: 0,
            entry_ip: 0,
            trailing: !self.is_empty(),
        }
    }

    /// Number of conditional branches recorded in this list.
    pub fn conditional_branches(&self) -> usize {
        self.runs()
            .map(|run| {
                let unconditional: u32 = run.kinds.iter().map(|b| (b & 0xAA).count_ones()).sum();
                run.count - unconditional as usize
            })
            .sum()
    }

    /// Number of branches of any kind recorded in this list.
    pub fn branches(&self) -> usize {
        self.runs().map(|run| run.count).sum()
    }

    fn owner(&self) -> SubId {
        SubId::new(self.thread, self.alpha)
    }

    fn runs(&self) -> Runs<'_> {
        Runs(&self.log)
    }

    fn records(&self) -> Records<'_> {
        Records {
            runs: self.runs(),
            ip: 0,
            kinds: &[],
            index: 0,
            count: 0,
        }
    }

    /// `true` while the log lives inside the list.
    #[cfg(test)]
    pub(crate) fn is_inline(&self) -> bool {
        self.log.is_inline()
    }

    /// Where the log's bytes are: a heap block's address outlives a move.
    #[cfg(test)]
    pub(crate) fn log_ptr(&self) -> *const u8 {
        self.log.as_ptr()
    }
}

/// A thunk list being recorded. Up to 32 branches at one IP wait in a word
/// in front of the log, as TNT bits wait in the PT encoder, so recording a
/// branch is a compare and an OR; the word goes into the log when it is
/// full, when the IP changes, and when the list is taken.
#[derive(Debug)]
pub(crate) struct StagedThunks {
    list: ThunkList,
    /// IP of the waiting branches.
    ip: u64,
    /// Kind codes of the waiting branches, the i-th at bits 2i.
    kinds: u64,
    pending: usize,
}

impl StagedThunks {
    /// An empty stage; no allocation.
    pub(crate) fn new() -> Self {
        StagedThunks {
            // The owner is never read: `take` names one.
            list: ThunkList::new(SubId::new(ThreadId::new(0), 0)),
            ip: 0,
            kinds: 0,
            pending: 0,
        }
    }

    /// Records a retired branch, as [`ThunkList::record_branch`] does.
    #[inline]
    pub(crate) fn record(&mut self, kind: BranchKind, ip: u64) {
        if self.pending == KINDS_PER_WORD || ip != self.ip {
            self.flush();
            self.ip = ip;
        }
        self.kinds |= u64::from(code_of(kind)) << (2 * self.pending);
        self.pending += 1;
    }

    /// The branches recorded since the last take, as the thunk list of
    /// `owner` at its exact size — inline when it fits, so a short log
    /// costs no allocation. The stage restarts empty on the buffer it grew.
    pub(crate) fn take(&mut self, owner: SubId) -> ThunkList {
        self.flush();
        self.list.take_exact(owner)
    }

    fn flush(&mut self) {
        self.list.append(self.ip, self.kinds, self.pending);
        self.kinds = 0;
        self.pending = 0;
    }

    /// `true` if no branch is staged.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.pending == 0 && self.list.is_empty()
    }

    /// Where the staged log's bytes are (see [`ThunkList::log_ptr`]).
    #[cfg(test)]
    pub(crate) fn log_ptr(&self) -> *const u8 {
        self.list.log_ptr()
    }
}

impl fmt::Debug for ThunkList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThunkList")
            .field("owner", &self.owner())
            .field("branches", &self.records())
            .finish()
    }
}

/// `(count, width)` of a run header.
fn split_header(header: u16) -> (usize, usize) {
    (usize::from(header >> 4), usize::from(header & 0xF))
}

/// A mask of the kind bits of the first `n` (1 to 32) branches of a word.
fn low_bits(n: usize) -> u64 {
    u64::MAX >> (64 - 2 * n)
}

/// The IP whose low bytes, little-endian, are `bytes` (at most 8).
fn ip_from(bytes: &[u8]) -> u64 {
    bytes.iter().rev().fold(0, |ip, &b| ip << 8 | u64::from(b))
}

/// One run of the log: `count` branches at `ip`.
struct Run<'a> {
    ip: u64,
    count: usize,
    kinds: &'a [u8],
}

/// The runs of a log, in order.
#[derive(Debug, Clone)]
struct Runs<'a>(&'a [u8]);

impl<'a> Iterator for Runs<'a> {
    type Item = Run<'a>;

    fn next(&mut self) -> Option<Run<'a>> {
        let (header, rest) = self.0.split_first_chunk::<HEADER>()?;
        let (count, width) = split_header(u16::from_le_bytes(*header));
        let (ip, rest) = rest.split_at(width);
        let (kinds, rest) = rest.split_at(count.div_ceil(4));
        self.0 = rest;
        Some(Run {
            ip: ip_from(ip),
            count,
            kinds,
        })
    }
}

/// The branches of a log, in order.
#[derive(Clone)]
struct Records<'a> {
    runs: Runs<'a>,
    ip: u64,
    kinds: &'a [u8],
    /// Position of the next branch in the current run of `count`.
    index: usize,
    count: usize,
}

impl Iterator for Records<'_> {
    type Item = BranchRecord;

    fn next(&mut self) -> Option<BranchRecord> {
        if self.index == self.count {
            let run = self.runs.next()?;
            self.ip = run.ip;
            self.kinds = run.kinds;
            self.count = run.count;
            self.index = 0;
        }
        let code = self.kinds[self.index / 4] >> (2 * (self.index % 4)) & 0b11;
        self.index += 1;
        Some(BranchRecord {
            kind: KINDS[usize::from(code)],
            ip: self.ip,
        })
    }
}

/// Lists the branches, as the `Vec<BranchRecord>` this log replaced did.
impl fmt::Debug for Records<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.clone()).finish()
    }
}

/// Iterator over the thunks of a [`ThunkList`].
#[derive(Debug, Clone)]
pub struct Thunks<'a> {
    owner: SubId,
    branches: Records<'a>,
    beta: u64,
    entry_ip: u64,
    /// `true` until the trailing open thunk of a non-empty list is out.
    trailing: bool,
}

impl Iterator for Thunks<'_> {
    type Item = Thunk;

    fn next(&mut self) -> Option<Thunk> {
        let id = ThunkId::new(self.owner, self.beta);
        let entry_ip = self.entry_ip;
        let terminator = match self.branches.next() {
            Some(branch) => Some(branch),
            None if std::mem::take(&mut self.trailing) => None,
            None => return None,
        };
        if let Some(branch) = terminator {
            self.beta += 1;
            self.entry_ip = branch.ip;
        }
        Some(Thunk {
            id,
            entry_ip,
            terminator,
        })
    }
}

impl<'a> IntoIterator for &'a ThunkList {
    type Item = Thunk;
    type IntoIter = Thunks<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ThreadId;
    use proptest::prelude::*;

    const OWNER: SubId = SubId::new(ThreadId::new(3), 9);

    /// The materialised `Vec<Thunk>` form the recorder used to build, branch
    /// by branch: open thunk 0 lazily, close the last thunk, open the next.
    fn reference_thunks(owner: SubId, branches: &[(BranchKind, u64)]) -> Vec<Thunk> {
        let mut thunks: Vec<Thunk> = Vec::new();
        let mut beta = 0;
        for &(kind, ip) in branches {
            if thunks.is_empty() {
                thunks.push(Thunk::open(ThunkId::new(owner, 0), 0));
            }
            if let Some(last) = thunks.last_mut() {
                last.close(kind, ip);
            }
            beta += 1;
            thunks.push(Thunk::open(ThunkId::new(owner, beta), ip));
        }
        thunks
    }

    /// The 16-byte-per-branch log the compact one replaced: every branch
    /// pushed as it came, the view derived by indexing.
    struct ReferenceLog {
        owner: SubId,
        branches: Vec<BranchRecord>,
    }

    impl ReferenceLog {
        fn len(&self) -> usize {
            match self.branches.len() {
                0 => 0,
                n => n + 1,
            }
        }

        fn thunks(&self) -> Vec<Thunk> {
            (0..self.len())
                .map(|beta| Thunk {
                    id: ThunkId::new(self.owner, beta as u64),
                    entry_ip: beta.checked_sub(1).map_or(0, |prev| self.branches[prev].ip),
                    terminator: self.branches.get(beta).copied(),
                })
                .collect()
        }

        fn conditional_branches(&self) -> usize {
            self.branches
                .iter()
                .filter(|b| b.kind.is_conditional())
                .count()
        }
    }

    /// What `#[derive(Debug)]` printed for the `Vec<BranchRecord>` form.
    impl fmt::Debug for ReferenceLog {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("ThunkList")
                .field("owner", &self.owner)
                .field("branches", &self.branches)
                .finish()
        }
    }

    /// An empty list whose log already lives on the heap.
    fn on_the_heap(owner: SubId) -> ThunkList {
        ThunkList {
            log: SmallVec::with_capacity(INLINE_LOG + 1),
            ..ThunkList::new(owner)
        }
    }

    fn kind_of(code: u8) -> BranchKind {
        KINDS[usize::from(code % 4)]
    }

    #[test]
    fn open_then_close_thunk() {
        let mut t = Thunk::open(ThunkId::new(OWNER, 0), 0x400000);
        assert!(t.terminator.is_none());
        t.close(BranchKind::ConditionalTaken, 0x400010);
        assert!(t.terminator.is_some());
        assert_eq!(t.terminator.unwrap().ip, 0x400010);
    }

    #[test]
    fn thunk_list_counts_branches() {
        let mut list = ThunkList::new(OWNER);
        assert!(list.is_empty());
        assert_eq!(list.iter().count(), 0);
        list.record_branch(BranchKind::ConditionalTaken, 1);
        list.record_branch(BranchKind::Indirect, 2);
        assert_eq!(list.len(), 3);
        assert_eq!(list.branches(), 2);
        assert_eq!(list.conditional_branches(), 1);
        assert!(!list.is_empty());
        assert_eq!(list.iter().count(), 3);
    }

    #[test]
    fn trailing_thunk_is_open_at_the_last_target() {
        let mut list = ThunkList::new(OWNER);
        list.record_branch(BranchKind::Return, 7);
        let last = list.iter().last().unwrap();
        assert_eq!(last.id, ThunkId::new(OWNER, 1));
        assert_eq!(last.entry_ip, 7);
        assert!(last.terminator.is_none());
    }

    #[test]
    fn the_list_is_as_small_as_the_vec_it_replaced() {
        assert_eq!(std::mem::size_of::<ThunkList>(), 40);
    }

    #[test]
    fn a_run_under_one_label_costs_two_bits_per_branch() {
        let branches = 3 * RUN_MAX + 5;
        let mut list = ThunkList::new(OWNER);
        let mut staged = StagedThunks::new();
        for b in 0..branches {
            list.record_branch(kind_of(b as u8 % 2), 0x49_0000);
            staged.record(kind_of(b as u8 % 2), 0x49_0000);
        }
        // One 5-byte run header per 4095 branches on top of the kind bits.
        let runs = [RUN_MAX, RUN_MAX, RUN_MAX, 5];
        let bytes: usize = runs.iter().map(|count| 5 + count.div_ceil(4)).sum();
        assert_eq!(list.log.len(), bytes);
        assert_eq!(list.runs().map(|run| run.count).collect::<Vec<_>>(), runs);
        assert_eq!(list.branches(), branches);
        assert_eq!(list.conditional_branches(), branches);
        assert!(list
            .iter()
            .all(|t| t.entry_ip == 0x49_0000 || t.id.beta == 0));
        assert_eq!(staged.take(OWNER), list);
        assert!(staged.is_empty());
    }

    #[test]
    fn forty_conditionals_under_one_label_fit_inline() {
        let mut list = ThunkList::new(OWNER);
        for b in 0..41 {
            assert!(list.is_inline(), "{b} branches");
            list.record_branch(BranchKind::ConditionalNotTaken, 0x49_0000);
        }
        assert!(!list.is_inline());
        let mut staged = list.clone();
        assert_eq!(staged.take_exact(OWNER), list);
        assert!(staged.is_empty() && !staged.is_inline());
    }

    /// One generated run: where its IPs come from, its length, and a seed
    /// for its kinds and IPs.
    type RunSpec = (u8, usize, u64);

    /// Branches of a run: IP 0 (a run with no IP bytes), one label, one
    /// random IP held for the whole run, or a new random IP every branch.
    fn branches_of(runs: &[RunSpec]) -> Vec<BranchRecord> {
        let mut branches = Vec::new();
        for &(source, len, seed) in runs {
            for i in 0..len as u64 {
                let mixed = seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let ip = match source % 4 {
                    0 => 0,
                    1 => 0x49_0000,
                    2 => seed,
                    _ => mixed >> (mixed % 64),
                };
                let kind = kind_of((mixed >> 17) as u8);
                branches.push(BranchRecord { kind, ip });
            }
        }
        branches
    }

    proptest! {
        /// The derived view is the 16-byte log's and the old materialised
        /// list's: ids, entry chain, terminators and every count. `Eq` and
        /// `Debug` see the branches, whether the log is inline or on the
        /// heap, and an exact copy equals the log it copies.
        #[test]
        fn prop_derived_view_matches_materialised_thunks(
            sources in proptest::collection::vec(any::<u8>(), 0..10),
            lens in proptest::collection::vec(1usize..48, 10),
            seeds in proptest::collection::vec(any::<u64>(), 10),
            thread in 0u32..8,
            alpha in any::<u64>(),
        ) {
            let owner = SubId::new(ThreadId::new(thread), alpha);
            let runs: Vec<RunSpec> = sources
                .iter()
                .zip(&lens)
                .zip(&seeds)
                .map(|((&source, &len), &seed)| (source, len, seed))
                .collect();
            let branches = branches_of(&runs);
            let reference = ReferenceLog { owner, branches: branches.clone() };
            let pairs: Vec<(BranchKind, u64)> =
                branches.iter().map(|b| (b.kind, b.ip)).collect();
            let materialised = reference_thunks(owner, &pairs);
            prop_assert_eq!(&reference.thunks(), &materialised);

            let mut list = ThunkList::new(owner);
            let mut heap = on_the_heap(owner);
            let mut staged = StagedThunks::new();
            for b in &branches {
                list.record_branch(b.kind, b.ip);
                heap.record_branch(b.kind, b.ip);
                staged.record(b.kind, b.ip);
            }
            prop_assert!(!heap.is_inline());
            let copy = heap.clone().take_exact(owner);
            prop_assert_eq!(copy.is_inline(), list.log.len() <= INLINE_LOG);
            let taken = staged.take(owner);
            prop_assert!(staged.is_empty());
            prop_assert_eq!(&ThunkList::from_branches(owner, branches.clone()), &list);
            for form in [&list, &heap, &copy, &taken] {
                prop_assert_eq!(form, &list);
                prop_assert_eq!(format!("{form:?}"), format!("{reference:?}"));
                prop_assert_eq!(form.iter().collect::<Vec<_>>(), materialised.clone());
                prop_assert_eq!(form.into_iter().count(), reference.len());
                prop_assert_eq!(form.len(), reference.len());
                prop_assert_eq!(form.is_empty(), reference.branches.is_empty());
                prop_assert_eq!(form.branches(), reference.branches.len());
                prop_assert_eq!(
                    form.conditional_branches(),
                    reference.conditional_branches()
                );
            }
            // A stage reused after a take holds only what came after it.
            let cut = seeds[0] as usize % (branches.len() + 1);
            for b in &branches[..cut] {
                staged.record(b.kind, b.ip);
            }
            let _ = staged.take(owner);
            for b in &branches[cut..] {
                staged.record(b.kind, b.ip);
            }
            prop_assert_eq!(
                staged.take(owner),
                ThunkList::from_branches(owner, branches[cut..].to_vec())
            );
            if let Some(last) = reference.branches.last() {
                let mut other = list.clone();
                other.record_branch(last.kind, last.ip ^ 1);
                prop_assert_ne!(&other, &list);
            }
        }
    }
}
