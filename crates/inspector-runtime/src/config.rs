//! Session configuration: plain values, set in code.
//!
//! The library reads nothing from the environment. An application links it
//! and takes [`SessionConfig::inspector`] as it is; a test or harness that
//! wants another configuration builds it with the `with_*` methods. Every
//! field is here because something sets it:
//!
//! | field | default | who sets it, and why |
//! |---|---|---|
//! | `mode` | `Inspector` | [`SessionConfig::native`]: the denominator of every overhead figure |
//! | `aux_capacity` | 4 MiB | the tiny-ring overflow tests (`tests/fault_tolerance.rs`, session tests) |
//! | `ingest_threads` | `min(4, cores)` | every benchmark session (`1`); the equivalence and fault suites sweep 1–4 |
//! | `spill_threshold`, `spill_dir`, `spill_durability`, `spill_retain` | off, temp dir, `None`, off | the benchmark's `fault_commit_spill` sets all four; `tests/crash_recovery.rs` sweeps durability |
//! | `fault_plan` | empty | `tests/fault_tolerance.rs`, `tests/crash_recovery.rs`, `examples/recover.rs` |
//!
//! What is *not* here on purpose: the streaming builder's shard count and
//! the lane depth are constants (`DEFAULT_SHARDS` in
//! `inspector-core/src/sharded.rs`, `LANE_DEPTH` in `lane.rs`) because no
//! measurement told their values apart, and the lane transport has no
//! setting at all — a synchronization boundary retires exactly one
//! sub-computation, so there is nothing for a batch cap to choose between,
//! and the backlog at which a producer wakes a parked ingest worker is a
//! measured constant. Live snapshots have no setting either:
//! [`crate::session::LiveMonitor::snapshot`] costs nothing until it is
//! called.

use std::path::PathBuf;

use inspector_core::spill::SpillDurability;

/// Whether a run is a plain pthreads baseline or a full INSPECTOR run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// Native pthreads baseline: direct shared-memory access, no tracking,
    /// no PT encoding. Used as the denominator of every overhead figure.
    Native,
    /// Full provenance recording.
    #[default]
    Inspector,
}

/// Deterministic fault-injection plan for a session run.
///
/// Every field is a trigger with `0` = disabled, so the default plan is
/// empty ([`is_empty`](Self::is_empty)) and the fault hooks cost nothing
/// on the hot paths. The plan drives the graceful-degradation machinery:
/// an injected fault must never abort the session — it surfaces in the
/// run report's health counters (`RunStats::{gaps, lost_bytes,
/// decode_degraded, spill_fallbacks, worker_failures, degraded}`)
/// instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// XOR-flip the byte at this 1-based offset of every thread's AUX
    /// stream where the post-run check decodes it, modelling trace
    /// corruption; the thread's kept log itself is left intact. The flip surfaces as
    /// a decode error or a branch-count mismatch — or, when it lands on a
    /// payload bit the grammar cannot see, as nothing.
    pub corrupt_aux_at: u64,
    /// Inject one AUX overflow episode of this many lost bytes into each
    /// thread's trace right after its start header, before its first
    /// branch, modelling a consumer that fell behind. The loss flows through the normal OVF accounting
    /// (`gaps`, `bytes_lost`, a real OVF packet in the stream).
    pub overflow_bytes: u64,
    /// Fail the Nth (1-based) spill-write **attempt** and every later
    /// one, modelling a disk that filled up and stayed full. A consistent
    /// cut is written as one round, so this counts one attempt per round
    /// (plus its retries), not one per record. The builder retries with
    /// bounded backoff, then stops the shard's store: what it wrote stays
    /// on disk, and the shard keeps the rest in memory (`spill_fallbacks`).
    /// Each run's builder is created with it, as
    /// [`SpillSettings::fail_write_at`](inspector_core::spill::SpillSettings::fail_write_at).
    pub fail_spill_write: u64,
    /// Simulate a whole-process crash after the Nth (1-based) spilled
    /// **record** — records, not rounds: the round holding record N+1
    /// writes the whole frames before it and only a torn prefix of that
    /// one (exactly what a process killed inside the write leaves
    /// behind), the manifest freezes at its last published cut, and every
    /// shard's store stops. The session still seals the whole graph from
    /// the written prefixes and the resident rest, and keeps the on-disk
    /// artifacts for [`inspector_core::recover::recover_session`] to
    /// examine (`spill_fallbacks` counts the episode). Each run's builder
    /// is created with it, as
    /// [`SpillSettings::crash_after_records`](inspector_core::spill::SpillSettings::crash_after_records).
    pub crash_at_spill: u64,
    /// Panic this ingest worker (1-based lane index; `0` = none) …
    pub panic_worker: u64,
    /// … when it receives its Nth (1-based) sub-computation batch. The
    /// supervisor closes the dead worker's lane, surviving workers drain,
    /// and the session reports the failure instead of hanging or
    /// aborting.
    pub panic_at_batch: u64,
}

impl FaultPlan {
    /// `true` when no fault is armed (the default).
    pub fn is_empty(&self) -> bool {
        *self == FaultPlan::default()
    }
}

/// Configuration of an [`crate::InspectorSession`].
#[derive(Debug, Clone, PartialEq)]
pub struct SessionConfig {
    /// Execution mode.
    pub mode: ExecutionMode,
    /// AUX buffer capacity per thread, in bytes.
    pub aux_capacity: usize,
    /// Number of ingest-pool workers draining the provenance channel. Each
    /// worker owns one lane; application threads are routed to lanes by
    /// `ThreadId % ingest_threads`, preserving the per-thread FIFO delivery
    /// the streaming builder relies on. Defaults to
    /// `min(4, available_parallelism)`.
    pub ingest_threads: usize,
    /// Spill the streaming CPG build's resident sub-computations to disk
    /// once a shard holds this many, bounding
    /// peak memory to the active window for long runs (§VI). `0` (the
    /// default) keeps everything resident until the seal. The cost is
    /// attributed as the `spill` phase (`RunStats::{spilled_subs,
    /// spill_bytes, spill_time}`).
    pub spill_threshold: usize,
    /// Directory for the per-shard spill segment files. `None` (the
    /// default) puts them under the system temp dir. Either way each run
    /// spills into a subdirectory of its own, which only a seal deletes: a
    /// clean, non-retaining seal removes it, while a crashed, degraded or
    /// retained run — or one whose application panicked, so that it never
    /// sealed — leaves it for [`inspector_core::recover::recover_session`].
    pub spill_dir: Option<PathBuf>,
    /// Durability policy for the spill tier's segment files and per-session
    /// `MANIFEST`: [`SpillDurability::None`] (default) leaves writes in the
    /// page cache — free, and sufficient to survive a *process* crash;
    /// `Flush` fdatasyncs segments at round boundaries before the manifest
    /// names them; `Fsync` additionally fsyncs the manifest and directory,
    /// extending the guarantee to power loss. The manifest never names
    /// bytes that are not durable at the configured tier.
    pub spill_durability: SpillDurability,
    /// Keep the session's spill directory after a successful seal: the
    /// in-memory residue is appended to the segments, the manifest is
    /// marked clean, and the directory becomes a complete on-disk image
    /// that [`inspector_core::recover::recover_session`] reproduces
    /// exactly. Off by default (a clean seal removes its directory);
    /// degraded runs always keep their artifacts for forensics regardless.
    pub spill_retain: bool,
    /// Deterministic fault-injection plan. Empty by default — see
    /// [`FaultPlan`].
    pub fault_plan: FaultPlan,
}

/// Default ingest-pool width: `min(4, available_parallelism)`, at least one.
fn default_ingest_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 4)
}

impl SessionConfig {
    /// Full-provenance configuration with defaults matching the paper's
    /// setup (4 MiB full-trace AUX buffers; pages are always
    /// [`inspector_mem::DEFAULT_PAGE_SIZE`], 4 KiB).
    pub fn inspector() -> Self {
        SessionConfig {
            mode: ExecutionMode::Inspector,
            aux_capacity: 4 << 20,
            ingest_threads: default_ingest_threads(),
            spill_threshold: 0,
            spill_dir: None,
            spill_durability: SpillDurability::None,
            spill_retain: false,
            fault_plan: FaultPlan::default(),
        }
    }

    /// Native-baseline configuration.
    pub fn native() -> Self {
        SessionConfig {
            mode: ExecutionMode::Native,
            ..Self::inspector()
        }
    }

    /// Returns a copy with the given ingest-pool width (clamped to ≥ 1).
    pub fn with_ingest_threads(mut self, workers: usize) -> Self {
        self.ingest_threads = workers.max(1);
        self
    }

    /// Returns a copy with the given spill threshold (0 disables spilling).
    pub fn with_spill_threshold(mut self, threshold: usize) -> Self {
        self.spill_threshold = threshold;
        self
    }

    /// Returns a copy with the given spill directory.
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Returns a copy with the given spill durability policy.
    pub fn with_spill_durability(mut self, durability: SpillDurability) -> Self {
        self.spill_durability = durability;
        self
    }

    /// Returns a copy that keeps (or removes) the spill directory after a
    /// successful seal.
    pub fn with_spill_retain(mut self, retain: bool) -> Self {
        self.spill_retain = retain;
        self
    }

    /// Returns a copy with the given fault-injection plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self::inspector()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_only_in_mode() {
        let a = SessionConfig::inspector();
        let b = SessionConfig::native();
        assert_eq!(a.mode, ExecutionMode::Inspector);
        assert_eq!(b.mode, ExecutionMode::Native);
        assert_eq!(a.aux_capacity, b.aux_capacity);
    }

    #[test]
    fn builders_apply() {
        let c = SessionConfig::inspector()
            .with_ingest_threads(2)
            .with_spill_threshold(128)
            .with_spill_dir("/tmp/spill");
        assert_eq!(c.mode, ExecutionMode::Inspector);
        assert_eq!(c.ingest_threads, 2);
        assert_eq!(c.spill_threshold, 128);
        assert_eq!(c.spill_dir, Some(PathBuf::from("/tmp/spill")));
    }

    #[test]
    fn spill_and_faults_default_off() {
        let c = SessionConfig::inspector();
        assert_eq!(c.spill_threshold, 0);
        assert_eq!(c.spill_dir, None);
        assert_eq!(c.spill_durability, SpillDurability::None);
        assert!(!c.spill_retain);
        assert!(c.fault_plan.is_empty());
    }

    #[test]
    fn pool_width_is_bounded_and_at_least_one() {
        let c = SessionConfig::inspector();
        assert!((1..=4).contains(&c.ingest_threads));
        assert_eq!(c.with_ingest_threads(0).ingest_threads, 1);
    }

    #[test]
    fn default_is_inspector() {
        assert_eq!(SessionConfig::default().mode, ExecutionMode::Inspector);
    }
}
