//! The trace session: what `perf record` does for an INSPECTOR run.
//!
//! A session is created with a dedicated [`Cgroup`]; events are only accepted
//! from member processes (the cgroup filter). AUX records carry PT packet
//! payloads and are accumulated per process; `mmap` events are kept so the
//! decoder can map IPs back onto loadables.

use std::collections::hash_map::{Entry, HashMap};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::bandwidth::SpaceReport;
use crate::cgroup::{Cgroup, ProcessId};
use crate::event::PerfEvent;

/// Summary counters of a trace session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Events accepted (from cgroup members).
    pub accepted: u64,
    /// Events rejected by the cgroup filter.
    pub filtered: u64,
    /// Total AUX payload bytes stored.
    pub aux_bytes: u64,
    /// AUX records accepted. Each thread hands its whole PT log over once,
    /// when it exits, so a run counts one record per reporting thread.
    pub aux_records: u64,
    /// Processes observed (members only).
    pub processes: u64,
}

#[derive(Debug, Default)]
struct SessionState {
    aux: HashMap<ProcessId, Vec<u8>>,
    mmaps: Vec<(ProcessId, u64, u64, String)>,
    stats: SessionStats,
}

/// A perf-style tracing session filtered by a cgroup.
#[derive(Debug)]
pub struct TraceSession {
    cgroup: Arc<Cgroup>,
    state: Mutex<SessionState>,
}

impl TraceSession {
    /// Creates a session filtering on `cgroup`.
    pub fn new(cgroup: Arc<Cgroup>) -> Self {
        TraceSession {
            cgroup,
            state: Mutex::new(SessionState::default()),
        }
    }

    /// The cgroup this session filters on.
    pub fn cgroup(&self) -> &Arc<Cgroup> {
        &self.cgroup
    }

    /// Submits an event to the session. Events from processes outside the
    /// cgroup are dropped (but counted). Fork events from member parents
    /// extend the cgroup, mirroring the kernel behaviour.
    pub fn submit(&self, event: PerfEvent) {
        // Fork events must be processed for membership before filtering.
        if let PerfEvent::Fork { parent, child } = event {
            if self.cgroup.fork(parent, child) {
                let mut st = self.state.lock();
                st.stats.accepted += 1;
                st.stats.processes += 1;
            } else {
                self.state.lock().stats.filtered += 1;
            }
            return;
        }
        if !self.cgroup.contains(event.pid()) {
            self.state.lock().stats.filtered += 1;
            return;
        }
        let mut st = self.state.lock();
        st.stats.accepted += 1;
        match event {
            PerfEvent::Mmap {
                pid,
                addr,
                len,
                filename,
            } => st.mmaps.push((pid, addr, len, filename)),
            PerfEvent::Aux { pid, data } => {
                st.stats.aux_bytes += data.len() as u64;
                st.stats.aux_records += 1;
                // A process's first record is moved in, not copied.
                match st.aux.entry(pid) {
                    Entry::Vacant(slot) => {
                        slot.insert(data);
                    }
                    Entry::Occupied(slot) => slot.into_mut().extend_from_slice(&data),
                }
            }
            PerfEvent::Fork { .. } | PerfEvent::Exit { .. } => {}
        }
    }

    /// Registers the root process of the traced application and counts it.
    pub fn register_root(&self, pid: ProcessId) {
        self.cgroup.add(pid);
        self.state.lock().stats.processes += 1;
    }

    /// Concatenated AUX payload of every traced process (the "provenance
    /// log" whose size Figure 9 reports).
    pub fn full_log(&self) -> Vec<u8> {
        let st = self.state.lock();
        let mut pids: Vec<&ProcessId> = st.aux.keys().collect();
        pids.sort();
        let mut out = Vec::new();
        for pid in pids {
            out.extend_from_slice(&st.aux[pid]);
        }
        out
    }

    /// Lends `pid`'s AUX log — the process's PT packet stream as submitted,
    /// empty when it submitted none — to `f`, without copying it. The
    /// session is locked while `f` runs.
    pub fn with_aux_log<R>(&self, pid: ProcessId, f: impl FnOnce(&[u8]) -> R) -> R {
        let st = self.state.lock();
        f(st.aux.get(&pid).map_or(&[], Vec::as_slice))
    }

    /// Recorded executable mappings (for IP-to-binary resolution).
    pub fn mmaps(&self) -> Vec<(ProcessId, u64, u64, String)> {
        self.state.lock().mmaps.clone()
    }

    /// Session counters.
    pub fn stats(&self) -> SessionStats {
        self.state.lock().stats
    }

    /// Builds the Figure 9 style space report for this session.
    pub fn space_report(&self, branches: u64, elapsed: Duration) -> SpaceReport {
        SpaceReport::from_log(&self.full_log(), branches, elapsed)
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
        assert_eq!(s.stats().filtered, 1);
        assert_eq!(s.stats().aux_bytes, 0);
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
        assert_eq!(s.stats().aux_bytes, 10);
        assert_eq!(s.stats().processes, 3);
        assert_eq!(s.full_log().len(), 10);
    }

    #[test]
    fn aux_data_accumulates_per_process() {
        let s = session();
        s.submit(PerfEvent::Aux {
            pid: ProcessId(1),
            data: vec![1, 2],
        });
        s.submit(PerfEvent::Aux {
            pid: ProcessId(1),
            data: vec![3],
        });
        assert_eq!(s.full_log(), vec![1, 2, 3]);
        assert_eq!(s.stats().aux_records, 2);
        assert_eq!(s.with_aux_log(ProcessId(1), <[u8]>::to_vec), vec![1, 2, 3]);
        assert!(s.with_aux_log(ProcessId(7), <[u8]>::is_empty));
    }

    #[test]
    fn mmap_events_are_retained_for_decoding() {
        let s = session();
        s.submit(PerfEvent::Mmap {
            pid: ProcessId(1),
            addr: 0x400000,
            len: 0x1000,
            filename: "app".into(),
        });
        let maps = s.mmaps();
        assert_eq!(maps.len(), 1);
        assert_eq!(maps[0].3, "app");
    }

    #[test]
    fn space_report_reflects_aux_payload() {
        let s = session();
        s.submit(PerfEvent::Aux {
            pid: ProcessId(1),
            data: vec![0xAB; 100_000],
        });
        let report = s.space_report(1_000, Duration::from_secs(1));
        assert_eq!(report.log_bytes, 100_000);
        assert!(report.compression_ratio > 5.0);
        assert_eq!(report.branches, 1_000);
    }
}
