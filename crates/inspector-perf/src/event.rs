//! perf event records.
//!
//! The two `perf_event` record types a trace session needs: fork events
//! (needed to follow the cgroup) and AUX records carrying the PT packet
//! payloads.

use crate::cgroup::ProcessId;

/// One perf event record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PerfEvent {
    /// A new process entered the system (fork/clone).
    Fork {
        /// Parent process.
        parent: ProcessId,
        /// Child process.
        child: ProcessId,
    },
    /// A chunk of AUX (Intel PT) data became available for a process.
    Aux {
        /// The traced process.
        pid: ProcessId,
        /// The PT packet bytes.
        data: Vec<u8>,
    },
}

impl PerfEvent {
    /// The process this event belongs to (the child for fork events).
    pub fn pid(&self) -> ProcessId {
        match *self {
            PerfEvent::Fork { child, .. } => child,
            PerfEvent::Aux { pid, .. } => pid,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pid_extraction() {
        assert_eq!(
            PerfEvent::Fork {
                parent: ProcessId(1),
                child: ProcessId(2)
            }
            .pid(),
            ProcessId(2)
        );
        assert_eq!(
            PerfEvent::Aux {
                pid: ProcessId(3),
                data: Vec::new()
            }
            .pid(),
            ProcessId(3)
        );
    }
}
