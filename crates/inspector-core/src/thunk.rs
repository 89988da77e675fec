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
//! branches in order — 16 bytes per branch — and nothing else; recording a
//! branch is one push. Thunks are a view over that log, materialised by
//! [`ThunkList::iter`]:
//!
//! **`n ≥ 1` branches are `n` closed thunks followed by one open thunk.
//! Thunk `β` has id `(owner, β)`, its `entry_ip` is the `ip` of branch
//! `β − 1` (`0` for `β = 0`), and it is terminated by branch `β` (by nothing
//! for `β = n`). No branches, no thunks.**
//!
//! The spill codec writes the view and, on the way back in, accepts only
//! byte strings that satisfy it.

use crate::event::BranchKind;
use crate::ids::{SubId, ThunkId};

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
/// log (see the module docs for the derived view).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThunkList {
    owner: SubId,
    branches: Vec<BranchRecord>,
}

impl ThunkList {
    /// Creates the empty thunk list of sub-computation `owner`.
    pub fn new(owner: SubId) -> Self {
        ThunkList {
            owner,
            branches: Vec::new(),
        }
    }

    /// Creates the thunk list of sub-computation `owner` from its retired
    /// branches, in order. The list keeps the vector as handed in, so a
    /// caller that passes an exact-size one carries no spare capacity into
    /// the graph (and an empty one no allocation).
    pub fn from_branches(owner: SubId, branches: Vec<BranchRecord>) -> Self {
        ThunkList { owner, branches }
    }

    /// Records a retired branch: closes the open thunk with it and opens
    /// the next one at `ip`.
    pub fn record_branch(&mut self, kind: BranchKind, ip: u64) {
        self.branches.push(BranchRecord { kind, ip });
    }

    /// Number of thunks recorded so far (the trailing open one included).
    pub fn len(&self) -> usize {
        match self.branches.len() {
            0 => 0,
            n => n + 1,
        }
    }

    /// Returns `true` if no thunk has been recorded.
    pub fn is_empty(&self) -> bool {
        self.branches.is_empty()
    }

    /// Iterates over the thunks in execution order.
    pub fn iter(&self) -> Thunks<'_> {
        Thunks {
            list: self,
            beta: 0,
        }
    }

    /// Number of conditional branches recorded in this list.
    pub fn conditional_branches(&self) -> usize {
        self.branches
            .iter()
            .filter(|b| b.kind.is_conditional())
            .count()
    }

    /// Number of branches of any kind recorded in this list.
    pub fn branches(&self) -> usize {
        self.branches.len()
    }
}

/// Iterator over the thunks of a [`ThunkList`].
#[derive(Debug, Clone)]
pub struct Thunks<'a> {
    list: &'a ThunkList,
    beta: usize,
}

impl Iterator for Thunks<'_> {
    type Item = Thunk;

    fn next(&mut self) -> Option<Thunk> {
        let beta = self.beta;
        if beta >= self.list.len() {
            return None;
        }
        self.beta += 1;
        let branches = &self.list.branches;
        Some(Thunk {
            id: ThunkId::new(self.list.owner, beta as u64),
            entry_ip: beta.checked_sub(1).map_or(0, |prev| branches[prev].ip),
            terminator: branches.get(beta).copied(),
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

    fn kind_of(code: u8) -> BranchKind {
        match code % 4 {
            0 => BranchKind::ConditionalTaken,
            1 => BranchKind::ConditionalNotTaken,
            2 => BranchKind::Indirect,
            _ => BranchKind::Return,
        }
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

    proptest! {
        /// The derived view is the old materialised list: ids, entry
        /// chain, terminators and every count.
        #[test]
        fn prop_derived_view_matches_materialised_thunks(
            codes in proptest::collection::vec(any::<u8>(), 0..40),
            ips in proptest::collection::vec(any::<u64>(), 40),
            thread in 0u32..8,
            alpha in any::<u64>(),
        ) {
            let owner = SubId::new(ThreadId::new(thread), alpha);
            let branches: Vec<(BranchKind, u64)> =
                codes.iter().zip(&ips).map(|(&c, &ip)| (kind_of(c), ip)).collect();
            let reference = reference_thunks(owner, &branches);
            let mut list = ThunkList::new(owner);
            for &(kind, ip) in &branches {
                list.record_branch(kind, ip);
            }
            let records: Vec<BranchRecord> =
                branches.iter().map(|&(kind, ip)| BranchRecord { kind, ip }).collect();
            prop_assert_eq!(&ThunkList::from_branches(owner, records), &list);
            prop_assert_eq!(list.iter().collect::<Vec<_>>(), reference.clone());
            prop_assert_eq!((&list).into_iter().count(), reference.len());
            prop_assert_eq!(list.len(), reference.len());
            prop_assert_eq!(list.is_empty(), reference.is_empty());
            prop_assert_eq!(
                list.branches(),
                reference.iter().filter(|t| t.terminator.is_some()).count()
            );
            prop_assert_eq!(
                list.conditional_branches(),
                reference
                    .iter()
                    .filter_map(|t| t.terminator)
                    .filter(|b| b.kind.is_conditional())
                    .count()
            );
        }
    }
}
