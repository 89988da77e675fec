//! Counters and timers for the memory substrate.
//!
//! These feed the threading-library half of the overhead breakdown
//! (Figure 6) and the page-fault statistics table (Figure 7).

use std::time::Duration;

/// Per-thread memory-tracking statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemStats {
    /// Simulated read-protection faults (first read of a page in a
    /// sub-computation).
    pub read_faults: u64,
    /// Simulated write-protection faults (first write of a page in a
    /// sub-computation).
    pub write_faults: u64,
    /// Whole-page snapshots of the shared page taken by write faults: at
    /// most one per page per dirty period (first write to the next commit or
    /// discard), however many tracking intervals the period spans, and none
    /// when the page's kept copy is current or one commit behind (that
    /// commit's range is read instead; see [`crate::thread_mem`]).
    pub pages_copied: u64,
    /// Dirty pages examined at commits.
    pub pages_examined: u64,
    /// Pages that actually changed and were committed.
    pub pages_committed: u64,
    /// Bytes written to the shared image by commits.
    pub bytes_committed: u64,
    /// Number of commit operations (one per synchronization point).
    pub commits: u64,
    /// Wall-clock time spent in the fault path (protection bookkeeping plus
    /// the page snapshot or the read of the last commit's range that a first
    /// write takes). The twin bytes a write copies
    /// when it widens its page's written range are copied by the store
    /// itself, on no timer: at most a page per page per dirty period.
    ///
    /// A sampled estimate: the fault path times one read fault in 64 and
    /// one write fault in 64 — net of the clock read itself — and adds each
    /// scaled (1-in-64 sample, scaled).
    pub fault_time: Duration,
    /// Wall-clock time spent diffing and committing dirty pages.
    ///
    /// A sampled estimate, like `fault_time`: one commit in 64 (the first
    /// included) is timed net of the clock read and added scaled. A commit
    /// runs at every synchronization boundary and, with a page or two dirty,
    /// diffs only each page's written range, which takes about two clock
    /// reads' time.
    pub commit_time: Duration,
}

impl MemStats {
    /// Total fault count (read + write).
    pub fn total_faults(&self) -> u64 {
        self.read_faults + self.write_faults
    }

    /// Total time attributed to the threading library's memory tracking.
    pub fn tracking_time(&self) -> Duration {
        self.fault_time + self.commit_time
    }

    /// Merges another thread's statistics into this one.
    pub fn merge(&mut self, other: &MemStats) {
        self.read_faults += other.read_faults;
        self.write_faults += other.write_faults;
        self.pages_copied += other.pages_copied;
        self.pages_examined += other.pages_examined;
        self.pages_committed += other.pages_committed;
        self.bytes_committed += other.bytes_committed;
        self.commits += other.commits;
        self.fault_time += other.fault_time;
        self.commit_time += other.commit_time;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_merge() {
        let mut a = MemStats {
            read_faults: 2,
            write_faults: 3,
            fault_time: Duration::from_millis(5),
            commit_time: Duration::from_millis(7),
            ..MemStats::default()
        };
        let b = MemStats {
            read_faults: 10,
            pages_copied: 4,
            commits: 1,
            ..MemStats::default()
        };
        a.merge(&b);
        assert_eq!(a.read_faults, 12);
        assert_eq!(a.total_faults(), 15);
        assert_eq!(a.pages_copied, 4);
        assert_eq!(a.commits, 1);
        assert_eq!(a.tracking_time(), Duration::from_millis(12));
    }
}
