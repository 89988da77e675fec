//! The trace session: what `perf record` does for an INSPECTOR run.
//!
//! A session is created with a dedicated [`Cgroup`]; events are only accepted
//! from member processes (the cgroup filter). AUX records carry PT packet
//! payloads and are accumulated per process.

use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::cgroup::{Cgroup, ProcessId};
use crate::event::PerfEvent;

/// A perf-style tracing session filtered by a cgroup.
#[derive(Debug)]
pub struct TraceSession {
    cgroup: Arc<Cgroup>,
    aux: Mutex<BTreeMap<ProcessId, Vec<u8>>>,
}

impl TraceSession {
    /// Creates a session filtering on `cgroup`.
    pub fn new(cgroup: Arc<Cgroup>) -> Self {
        TraceSession {
            cgroup,
            aux: Mutex::new(BTreeMap::new()),
        }
    }

    /// Submits an event to the session. Events from processes outside the
    /// cgroup are dropped. Fork events from member parents extend the
    /// cgroup, mirroring the kernel behaviour.
    pub fn submit(&self, event: PerfEvent) {
        match event {
            PerfEvent::Fork { parent, child } => {
                self.cgroup.fork(parent, child);
            }
            PerfEvent::Aux { pid, data } => {
                if !self.cgroup.contains(pid) {
                    return;
                }
                // A process's first record is moved in, not copied.
                match self.aux.lock().entry(pid) {
                    Entry::Vacant(slot) => {
                        slot.insert(data);
                    }
                    Entry::Occupied(slot) => slot.into_mut().extend_from_slice(&data),
                }
            }
        }
    }

    /// Registers the root process of the traced application.
    pub fn register_root(&self, pid: ProcessId) {
        self.cgroup.add(pid);
    }

    /// Concatenated AUX payload of every traced process, in pid order (the
    /// "provenance log" whose size Figure 9 reports).
    pub fn full_log(&self) -> Vec<u8> {
        let aux = self.aux.lock();
        aux.values().map(Vec::as_slice).collect::<Vec<_>>().concat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session() -> TraceSession {
        let cg = Arc::new(Cgroup::new("inspector"));
        let s = TraceSession::new(cg);
        s.register_root(ProcessId(1));
        s
    }

    #[test]
    fn cgroup_filter_rejects_outsiders() {
        let s = session();
        s.submit(PerfEvent::Aux {
            pid: ProcessId(99),
            data: vec![1, 2, 3],
        });
        assert!(s.full_log().is_empty());
    }

    #[test]
    fn fork_extends_membership_transitively() {
        let s = session();
        s.submit(PerfEvent::Fork {
            parent: ProcessId(1),
            child: ProcessId(2),
        });
        s.submit(PerfEvent::Fork {
            parent: ProcessId(2),
            child: ProcessId(3),
        });
        s.submit(PerfEvent::Aux {
            pid: ProcessId(3),
            data: vec![7; 10],
        });
        assert_eq!(s.full_log(), vec![7; 10]);
    }

    #[test]
    fn aux_data_accumulates_per_process() {
        let s = session();
        s.submit(PerfEvent::Fork {
            parent: ProcessId(1),
            child: ProcessId(2),
        });
        s.submit(PerfEvent::Aux {
            pid: ProcessId(2),
            data: vec![9],
        });
        s.submit(PerfEvent::Aux {
            pid: ProcessId(1),
            data: vec![1, 2],
        });
        s.submit(PerfEvent::Aux {
            pid: ProcessId(1),
            data: vec![3],
        });
        // Each process's records in submission order, processes in pid
        // order.
        assert_eq!(s.full_log(), vec![1, 2, 3, 9]);
    }
}
