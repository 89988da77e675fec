//! Control-group-style process filtering.
//!
//! INSPECTOR's threading library turns threads into processes whose pids are
//! not known in advance, so the paper creates a dedicated cgroup for the
//! application and lets `perf_events` filter on it: every child of a member
//! process is automatically a member. This module reproduces that membership
//! logic.

use std::collections::HashSet;

use parking_lot::RwLock;

/// A process identifier in the simulated system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(pub u64);

impl std::fmt::Display for ProcessId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pid:{}", self.0)
    }
}

/// A control group: a named set of processes with automatic child
/// membership.
#[derive(Debug)]
pub struct Cgroup {
    name: String,
    members: RwLock<HashSet<ProcessId>>,
}

impl Cgroup {
    /// Creates an empty cgroup with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Cgroup {
            name: name.into(),
            members: RwLock::new(HashSet::new()),
        }
    }

    /// The cgroup's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a process explicitly (e.g. the initial process of the traced
    /// application).
    pub fn add(&self, pid: ProcessId) {
        self.members.write().insert(pid);
    }

    /// Records a fork: if the parent is a member, the child becomes one too;
    /// returns whether the child is a member.
    pub fn fork(&self, parent: ProcessId, child: ProcessId) -> bool {
        let mut members = self.members.write();
        if members.contains(&parent) {
            members.insert(child);
            true
        } else {
            false
        }
    }

    /// Returns `true` if `pid` is currently a member.
    pub fn contains(&self, pid: ProcessId) -> bool {
        self.members.read().contains(&pid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_inherit_membership() {
        let cg = Cgroup::new("inspector");
        cg.add(ProcessId(1));
        assert!(cg.fork(ProcessId(1), ProcessId(2)));
        assert!(cg.fork(ProcessId(2), ProcessId(3)));
        assert!(cg.contains(ProcessId(3)));
        assert!(!cg.contains(ProcessId(4)));
        assert_eq!(cg.name(), "inspector");
    }

    #[test]
    fn non_member_forks_stay_outside() {
        let cg = Cgroup::new("inspector");
        cg.add(ProcessId(1));
        assert!(!cg.fork(ProcessId(99), ProcessId(100)));
        assert!(!cg.contains(ProcessId(100)));
    }

    #[test]
    fn display_format() {
        assert_eq!(ProcessId(7).to_string(), "pid:7");
    }
}
