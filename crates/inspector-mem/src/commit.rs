//! Byte-level diffing and the last-writer-wins shared-memory commit.
//!
//! At every synchronization point a tracked thread compares each dirty
//! private page against its *twin* (the page as it was when the thread first
//! wrote it) over the byte range the thread has written since, and applies
//! only the changed bytes to the shared image. Outside that range the working
//! copy still equals the twin by construction (see
//! [`thread_mem`](crate::thread_mem)), so the commit never reads it.
//! Overlapping writes by different threads to the *same byte* are resolved
//! last-writer-wins, exactly as in the paper (and in TreadMarks / Munin /
//! Dthreads before it). Writes by different threads to different
//! bytes of the same page — down to different bytes of one word, which
//! [`SharedPage::write`] merges lane by lane — merge cleanly, which is what
//! makes the threads-as-processes design immune to false sharing.
//!
//! One span kernel finds the changed runs (maximal, non-adjacent, only
//! bytes that differ) a word at a time. [`diff_page`] collects them into a
//! [`PageDiff`]; [`ThreadMemory::commit`](crate::ThreadMemory::commit) runs
//! the same kernel over the written range, fused with the store into the
//! shared page, so the commit path allocates nothing.

use std::ops::Range;

use crate::shared::SharedPage;

/// A contiguous run of changed bytes within one page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffRun {
    /// Byte offset of the run within the page.
    pub offset: usize,
    /// The new bytes.
    pub bytes: Vec<u8>,
}

/// The set of changed byte runs of one dirty page.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PageDiff {
    /// Changed runs, in increasing offset order, non-adjacent.
    pub runs: Vec<DiffRun>,
}

impl PageDiff {
    /// Returns `true` if nothing changed.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }
}

/// Length of the longest prefix over which `a` and `b` are byte-wise equal
/// (`DIFFER == false`) or byte-wise different (`DIFFER == true`), found a
/// little-endian word at a time (after whole equal blocks) with a byte-wise
/// tail.
///
/// Per word, `stop` is non-zero iff the prefix ends inside it and its lowest
/// set bit lies in the byte that ends it: for the equal scan that is the XOR
/// itself (first non-zero byte); for the differing scan it is the
/// zero-byte test over the XOR (first equal byte), which is exact for the
/// lowest zero byte.
fn prefix_len<const DIFFER: bool>(a: &[u8], b: &[u8]) -> usize {
    const WORD: usize = std::mem::size_of::<u64>();
    const LOW: u64 = u64::from_ne_bytes([0x01; WORD]);
    const HIGH: u64 = u64::from_ne_bytes([0x80; WORD]);
    let mut n = 0;
    if !DIFFER {
        // Equal regions are most of a sparsely written page: cross them in
        // blocks the compiler compares with vector loads, and leave the
        // block holding the first difference to the word loop.
        const BLOCK: usize = 4 * WORD;
        for (x, y) in a.chunks_exact(BLOCK).zip(b.chunks_exact(BLOCK)) {
            let x: &[u8; BLOCK] = x.try_into().expect("chunks_exact yields whole blocks");
            let y: &[u8; BLOCK] = y.try_into().expect("chunks_exact yields whole blocks");
            if x != y {
                break;
            }
            n += BLOCK;
        }
    }
    for (x, y) in a[n..].chunks_exact(WORD).zip(b[n..].chunks_exact(WORD)) {
        let x = u64::from_le_bytes(x.try_into().expect("chunks_exact yields whole words"));
        let y = u64::from_le_bytes(y.try_into().expect("chunks_exact yields whole words"));
        let xor = x ^ y;
        let stop = if DIFFER {
            xor.wrapping_sub(LOW) & !xor & HIGH
        } else {
            xor
        };
        if stop != 0 {
            return n + (stop.trailing_zeros() / 8) as usize;
        }
        n += WORD;
    }
    let tail = a[n..].iter().zip(&b[n..]);
    n + tail.take_while(|(x, y)| (x != y) == DIFFER).count()
}

/// The span kernel shared by [`diff_page`] and the fused commit: calls
/// `emit(offset, new_bytes)` for every maximal run of bytes in which
/// `working` differs from `twin`, in increasing offset order.
///
/// Both the equal regions and the differing runs are crossed a word at a
/// time, so a sparse page costs one pass of word compares and a dense page
/// one pass and one `emit`, not a word-loop re-entry per 8 bytes.
fn changed_runs(twin: &[u8], working: &[u8], mut emit: impl FnMut(usize, &[u8])) {
    assert_eq!(twin.len(), working.len(), "twin/working size mismatch");
    let mut i = 0;
    loop {
        i += prefix_len::<false>(&twin[i..], &working[i..]);
        if i == twin.len() {
            return;
        }
        let run = prefix_len::<true>(&twin[i..], &working[i..]);
        emit(i, &working[i..i + run]);
        i += run;
    }
}

/// Computes the byte-level diff between a twin (the page as it was when the
/// thread first copied it) and the thread's working copy.
///
/// # Panics
///
/// Panics if the two buffers have different lengths.
pub fn diff_page(twin: &[u8], working: &[u8]) -> PageDiff {
    let mut runs = Vec::new();
    changed_runs(twin, working, |offset, bytes| {
        runs.push(DiffRun {
            offset,
            bytes: bytes.to_vec(),
        })
    });
    PageDiff { runs }
}

/// Applies a diff to the shared page (last-writer-wins for overlapping
/// bytes — whichever thread commits later overwrites). It publishes no
/// commit version, so like [`SharedImage::write_direct`] it is a store
/// outside the commit protocol of [`crate::thread_mem`].
///
/// [`SharedImage::write_direct`]: crate::shared::SharedImage::write_direct
pub fn apply_diff(shared: &SharedPage, diff: &PageDiff) {
    for run in &diff.runs {
        shared.write(run.offset, &run.bytes);
    }
}

/// Fused diff + commit of the `range` of one dirty page: stores every byte
/// of `working[range]` that differs from `twin[range]` straight into
/// `shared` at its page offset, and returns how many bytes that was. Over
/// the whole page these are the bytes
/// `apply_diff(shared, &diff_page(twin, working))` writes, without
/// materialising the diff; a caller passes a narrower range only when the
/// two copies are equal outside it.
pub(crate) fn commit_page(
    shared: &SharedPage,
    twin: &[u8],
    working: &[u8],
    range: Range<usize>,
) -> usize {
    let mut written = 0;
    let start = range.start;
    changed_runs(&twin[range.clone()], &working[range], |offset, bytes| {
        shared.write(start + offset, bytes);
        written += bytes.len();
    });
    written
}

/// Statistics of a single commit operation, consumed by the runtime's
/// overhead accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitOutcome {
    /// Dirty pages examined.
    pub pages_examined: usize,
    /// Pages that actually contained changes.
    pub pages_changed: usize,
    /// Total changed bytes written to the shared image.
    pub bytes_written: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time diff the span kernel replaced, kept as the
    /// reference it must agree with.
    fn diff_page_reference(twin: &[u8], working: &[u8]) -> PageDiff {
        let mut runs = Vec::new();
        let mut i = 0;
        while i < twin.len() {
            if twin[i] == working[i] {
                i += 1;
                continue;
            }
            let start = i;
            while i < twin.len() && twin[i] != working[i] {
                i += 1;
            }
            runs.push(DiffRun {
                offset: start,
                bytes: working[start..i].to_vec(),
            });
        }
        PageDiff { runs }
    }

    /// Total number of changed bytes in `diff`.
    fn changed_bytes(diff: &PageDiff) -> usize {
        diff.runs.iter().map(|r| r.bytes.len()).sum()
    }

    /// Kernel ≡ reference, and the fused commit stores exactly the bytes
    /// `apply_diff` would into a page that holds unrelated contents.
    fn assert_kernel_matches_reference(twin: &[u8], working: &[u8]) {
        let expected = diff_page_reference(twin, working);
        assert_eq!(diff_page(twin, working), expected);
        let (fused, applied) = (
            SharedPage::zeroed(twin.len()),
            SharedPage::zeroed(twin.len()),
        );
        let other: Vec<u8> = twin.iter().zip(working).map(|(t, w)| !(t ^ w)).collect();
        fused.write(0, &other);
        applied.write(0, &other);
        apply_diff(&applied, &expected);
        assert_eq!(
            commit_page(&fused, twin, working, 0..twin.len()),
            changed_bytes(&expected)
        );
        assert_eq!(fused.snapshot(), applied.snapshot());
    }

    #[test]
    fn kernel_matches_reference_for_every_span_around_word_edges() {
        // One differing span [start, end) per case: starts and ends on,
        // next to and across word edges, including the sub-word tail of
        // lengths not divisible by 8, the empty span (all equal) and the
        // full span (all different); 41 also crosses the 32-byte block edge.
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 24, 27, 41] {
            let twin: Vec<u8> = (0..len as u8).collect();
            for start in 0..=len {
                for end in start..=len {
                    let mut working = twin.clone();
                    working[start..end].iter_mut().for_each(|b| *b ^= 0x80);
                    assert_kernel_matches_reference(&twin, &working);
                    // The copies are equal outside the span, so committing
                    // just the span stores what the whole-page commit does,
                    // at the same offsets.
                    let (whole, span) = (SharedPage::zeroed(len), SharedPage::zeroed(len));
                    let n = commit_page(&whole, &twin, &working, 0..len);
                    assert_eq!(commit_page(&span, &twin, &working, start..end), n);
                    assert_eq!(span.snapshot(), whole.snapshot());
                }
            }
        }
    }

    #[test]
    fn identical_pages_produce_empty_diff() {
        let a = vec![7u8; 128];
        let d = diff_page(&a, &a);
        assert!(d.is_empty());
        assert_eq!(changed_bytes(&d), 0);
    }

    #[test]
    fn diff_finds_contiguous_runs() {
        let twin = vec![0u8; 16];
        let mut work = twin.clone();
        work[2] = 1;
        work[3] = 2;
        work[10] = 3;
        let d = diff_page(&twin, &work);
        assert_eq!(d.runs.len(), 2);
        assert_eq!(d.runs[0].offset, 2);
        assert_eq!(d.runs[0].bytes, vec![1, 2]);
        assert_eq!(d.runs[1].offset, 10);
        assert_eq!(changed_bytes(&d), 3);
    }

    #[test]
    fn apply_diff_writes_only_changed_bytes() {
        let shared = SharedPage::zeroed(16);
        shared.write(0, &[9u8; 16]);
        let twin = vec![0u8; 16];
        let mut work = twin.clone();
        work[5] = 42;
        let d = diff_page(&twin, &work);
        apply_diff(&shared, &d);
        // Only byte 5 is overwritten; the 9s elsewhere survive.
        assert_eq!(shared.read_byte(5), 42);
        assert_eq!(shared.read_byte(4), 9);
        assert_eq!(shared.read_byte(6), 9);
    }

    #[test]
    fn disjoint_commits_merge_without_interference() {
        // Two "threads" modify different halves of the same page: both
        // changes must survive (false-sharing-free commit).
        let shared = SharedPage::zeroed(32);
        let base = shared.snapshot();

        let mut work_a = base.clone();
        work_a[0] = 1;
        let mut work_b = base.clone();
        work_b[31] = 2;

        apply_diff(&shared, &diff_page(&base, &work_a));
        apply_diff(&shared, &diff_page(&base, &work_b));

        assert_eq!(shared.read_byte(0), 1);
        assert_eq!(shared.read_byte(31), 2);
    }

    #[test]
    fn overlapping_commits_are_last_writer_wins() {
        let shared = SharedPage::zeroed(8);
        let base = shared.snapshot();
        let mut work_a = base.clone();
        work_a[3] = 10;
        let mut work_b = base.clone();
        work_b[3] = 20;
        apply_diff(&shared, &diff_page(&base, &work_a));
        apply_diff(&shared, &diff_page(&base, &work_b));
        assert_eq!(shared.read_byte(3), 20);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn mismatched_sizes_panic() {
        diff_page(&[0u8; 4], &[0u8; 8]);
    }

    proptest! {
        /// The span kernel agrees with the byte-at-a-time reference on
        /// pages of any length edited by random spans — some XOR a zero
        /// mask (a write of the same value), some overlap, some make
        /// adjacent bytes differ by 0x01 (the zero-byte test's borrow
        /// case) — and on fully random pairs.
        #[test]
        fn prop_kernel_matches_reference(
            twin in proptest::collection::vec(any::<u8>(), 0..97),
            noise in proptest::collection::vec(any::<u8>(), 97),
            edits in proptest::collection::vec(any::<u64>(), 0..8),
        ) {
            let mut working = twin.clone();
            for e in edits {
                let start = e as usize % (twin.len() + 1);
                let end = (start + (e >> 16) as usize % 20).min(twin.len());
                let mask = [0x00, 0x01, 0xFF, (e >> 32) as u8][(e >> 40) as usize % 4];
                working[start..end].iter_mut().for_each(|b| *b ^= mask);
            }
            assert_kernel_matches_reference(&twin, &working);
            assert_kernel_matches_reference(&twin, &noise[..twin.len()]);
        }

        /// Applying the diff of (twin, working) to a page holding the twin
        /// contents always reproduces the working copy exactly.
        #[test]
        fn prop_diff_apply_roundtrip(twin in proptest::collection::vec(any::<u8>(), 64),
                                     working in proptest::collection::vec(any::<u8>(), 64)) {
            let shared = SharedPage::zeroed(64);
            shared.write(0, &twin);
            let d = diff_page(&twin, &working);
            apply_diff(&shared, &d);
            prop_assert_eq!(shared.snapshot(), working);
        }

        /// The number of changed bytes reported by the diff equals the true
        /// Hamming distance between twin and working copy.
        #[test]
        fn prop_changed_bytes_is_hamming_distance(
            twin in proptest::collection::vec(any::<u8>(), 64),
            working in proptest::collection::vec(any::<u8>(), 64),
        ) {
            let d = diff_page(&twin, &working);
            let hamming = twin.iter().zip(&working).filter(|(a, b)| a != b).count();
            prop_assert_eq!(changed_bytes(&d), hamming);
        }

        /// Runs never touch bytes that did not change.
        #[test]
        fn prop_runs_only_cover_changes(
            twin in proptest::collection::vec(any::<u8>(), 32),
            working in proptest::collection::vec(any::<u8>(), 32),
        ) {
            let d = diff_page(&twin, &working);
            for run in &d.runs {
                for (i, &b) in run.bytes.iter().enumerate() {
                    prop_assert_eq!(b, working[run.offset + i]);
                    prop_assert_ne!(b, twin[run.offset + i]);
                }
            }
        }
    }
}
