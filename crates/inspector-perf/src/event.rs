//! perf event records.
//!
//! A small subset of the `perf_event` record types, enough to reconstruct
//! what `perf record` would have written for an INSPECTOR run: process
//! lifecycle events (needed to follow the cgroup), `mmap` events (needed by
//! the PT decoder to map trace IPs back onto binaries), and AUX records
//! carrying the PT packet payloads.

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
    /// A process exited.
    Exit {
        /// The exiting process.
        pid: ProcessId,
    },
    /// A process mapped an executable region (the decoder uses these to map
    /// IPs back onto loadables).
    Mmap {
        /// The mapping process.
        pid: ProcessId,
        /// Start of the mapping.
        addr: u64,
        /// Length of the mapping.
        len: u64,
        /// Path of the mapped file.
        filename: String,
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
            PerfEvent::Exit { pid } | PerfEvent::Mmap { pid, .. } | PerfEvent::Aux { pid, .. } => {
                pid
            }
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
        assert_eq!(PerfEvent::Exit { pid: ProcessId(3) }.pid(), ProcessId(3));
    }
}
