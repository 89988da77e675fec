//! Kinds of the events the provenance recorder folds into sub-computations.
//!
//! The threading library translates raw observations (page faults, branches,
//! synchronization calls) into calls on the recorder; these enums say which
//! kind of access, branch or synchronization each call reports.

/// Kind of memory access observed by the MMU-assisted tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load instruction touched the page for the first time in the current
    /// sub-computation.
    Read,
    /// A store instruction touched the page for the first time in the current
    /// sub-computation.
    Write,
}

/// Kind of branch observed by the (simulated) Intel PT decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchKind {
    /// Conditional branch, taken (a TNT `1` bit).
    ConditionalTaken,
    /// Conditional branch, not taken (a TNT `0` bit).
    ConditionalNotTaken,
    /// Indirect branch or call; the target instruction pointer is carried by a
    /// TIP packet.
    Indirect,
    /// Function return; also reported via TIP packets.
    Return,
}

impl BranchKind {
    /// Whether this branch kind is encoded as a single TNT bit.
    pub fn is_conditional(self) -> bool {
        matches!(
            self,
            BranchKind::ConditionalTaken | BranchKind::ConditionalNotTaken
        )
    }
}

/// Role a thread plays in a synchronization operation.
///
/// All pthreads primitives are modelled as acquire/release pairs (paper
/// §IV-A): `unlock`, `barrier` entry, `cond_signal`, `sem_post` and thread
/// creation *release* a synchronization object, while `lock`, barrier exit,
/// `cond_wait` return, `sem_wait` and thread join *acquire* it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncKind {
    /// The thread released the synchronization object (made its updates
    /// visible to the next acquirer).
    Release,
    /// The thread acquired the synchronization object (becomes ordered after
    /// the most recent releaser).
    Acquire,
    /// A combined release-then-acquire on the same object, used for barriers
    /// where every participant both publishes its updates and observes
    /// everyone else's.
    ReleaseAcquire,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branch_kind_classification() {
        assert!(BranchKind::ConditionalTaken.is_conditional());
        assert!(BranchKind::ConditionalNotTaken.is_conditional());
        assert!(!BranchKind::Indirect.is_conditional());
        assert!(!BranchKind::Return.is_conditional());
    }
}
