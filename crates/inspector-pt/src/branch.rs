//! Branch events: the logical control-flow records carried by a PT stream.

/// One retired branch as seen by the tracing hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchEvent {
    /// A conditional branch; encoded as a single TNT bit.
    Conditional {
        /// Whether the branch was taken.
        taken: bool,
    },
    /// An indirect branch or call; encoded as a TIP packet carrying the
    /// target instruction pointer.
    Indirect {
        /// Target instruction pointer.
        target: u64,
    },
    /// A function return; also encoded as a TIP packet (returns are indirect
    /// transfers), but kept distinct so consumers can reconstruct call
    /// structure.
    Return {
        /// Return target instruction pointer.
        target: u64,
    },
    /// Tracing was enabled at this instruction pointer (TIP.PGE).
    TraceStart {
        /// Instruction pointer where tracing began.
        ip: u64,
    },
    /// Tracing was disabled at this instruction pointer (TIP.PGD).
    TraceStop {
        /// Instruction pointer where tracing stopped.
        ip: u64,
    },
    /// The hardware lost packets (buffer overflow); the decoder reports the
    /// gap so consumers know the trace is incomplete here.
    Overflow,
}

impl BranchEvent {
    /// Returns `true` for events encoded as TNT bits.
    pub fn is_conditional(&self) -> bool {
        matches!(self, BranchEvent::Conditional { .. })
    }

    /// Returns the instruction pointer carried by the event, if any.
    pub fn ip(&self) -> Option<u64> {
        match *self {
            BranchEvent::Indirect { target }
            | BranchEvent::Return { target }
            | BranchEvent::TraceStart { ip: target }
            | BranchEvent::TraceStop { ip: target } => Some(target),
            BranchEvent::Conditional { .. } | BranchEvent::Overflow => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_and_ip() {
        assert!(BranchEvent::Conditional { taken: true }.is_conditional());
        assert!(!BranchEvent::Indirect { target: 1 }.is_conditional());
        assert_eq!(BranchEvent::Indirect { target: 7 }.ip(), Some(7));
        assert_eq!(BranchEvent::Return { target: 9 }.ip(), Some(9));
        assert_eq!(BranchEvent::Conditional { taken: false }.ip(), None);
        assert_eq!(BranchEvent::Overflow.ip(), None);
        assert_eq!(BranchEvent::TraceStart { ip: 3 }.ip(), Some(3));
        assert_eq!(BranchEvent::TraceStop { ip: 4 }.ip(), Some(4));
    }
}
