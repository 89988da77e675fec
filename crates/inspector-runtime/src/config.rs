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
//! | `live_snapshots`, `snapshot_slots` | off, 8 | `tests/snapshots_and_taint.rs` and the lane tests (snapshot barriers) |
//! | `charge_spawn_cost` | on | the spawn-cost ablation in `benches/figures.rs` |
//! | `ingest_threads` | `min(4, cores)` | every benchmark session (`1`); the equivalence and fault suites sweep 1–4 |
//! | `decode_online` | off | the Figure 6 `pt_decode` column; `tests/streaming_decode.rs` and the session sweeps |
//! | `spill_threshold`, `spill_dir`, `spill_durability`, `spill_retain` | off, temp dir, `None`, off | the benchmark's `fault_commit_spill` sets all four; `tests/crash_recovery.rs` sweeps durability |
//! | `fault_plan` | empty | `tests/fault_tolerance.rs`, `tests/crash_recovery.rs`, `examples/recover.rs` |
//!
//! What is *not* here on purpose: the streaming builder's shard count and
//! the lane depth are constants (`session.rs`, `lane.rs`) because no
//! measurement told their values apart, and the lane transport has no
//! setting at all — a synchronization boundary retires exactly one
//! sub-computation, so there is nothing for a batch cap to choose between,
//! and the backlog at which a producer wakes a parked ingest worker is a
//! measured constant.

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
    /// XOR-flip the byte at this 1-based cumulative offset of every
    /// thread's AUX stream as it enters the online decoder, modelling
    /// in-flight trace corruption. The decoder reports a decode error and
    /// the thread's cross-check degrades instead of asserting.
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
    /// bounded backoff, then falls back to in-memory retention
    /// (`spill_fallbacks`).
    pub fail_spill_write: u64,
    /// Simulate a whole-process crash after the Nth (1-based) spilled
    /// **record** — records, not rounds: the round holding record N+1
    /// writes the whole frames before it and only a torn prefix of that
    /// one (exactly what a process killed inside the write leaves
    /// behind), the manifest freezes at its last published cut, and the
    /// session degrades to in-memory retention with the on-disk artifacts
    /// kept for [`inspector_core::recover::recover_session`] to examine
    /// (`spill_fallbacks` counts the episode).
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
    /// Enable the live-snapshot ring so consistent snapshots can be taken
    /// while the program runs (§VI). Snapshots read the streaming CPG
    /// builder's shard store directly, so enabling this no longer costs a
    /// clone per completed sub-computation.
    pub live_snapshots: bool,
    /// Number of snapshot ring slots (only used when `live_snapshots`).
    pub snapshot_slots: usize,
    /// Charge the cost of duplicating the page-table / protection state when
    /// a thread (process) is created, as the real threads-as-processes
    /// design does. Disable to isolate other overhead sources in ablations.
    pub charge_spawn_cost: bool,
    /// Number of ingest-pool workers draining the provenance channel. Each
    /// worker owns one lane; application threads are routed to lanes by
    /// `ThreadId % ingest_threads`, preserving the per-thread FIFO delivery
    /// the streaming builder relies on. Defaults to
    /// `min(4, available_parallelism)`.
    pub ingest_threads: usize,
    /// Decode PT packets back into branch events **while the program runs**:
    /// AUX chunks are routed through the ingest lanes to per-thread
    /// streaming decoders on the pool workers, which cross-check the
    /// decoded branch counts against the recorder and attribute the cost as
    /// the `pt_decode` phase (`RunStats::{decoded_branches, decode_errors,
    /// decode_time}`). Off by default; the chunks still reach the perf
    /// session either way.
    pub decode_online: bool,
    /// Spill the streaming CPG build's resident sub-computations to disk
    /// once a shard holds this many, bounding
    /// peak memory to the active window for long runs (§VI). `0` (the
    /// default) keeps everything resident until the seal. The cost is
    /// attributed as the `spill` phase (`RunStats::{spilled_subs,
    /// spill_bytes, spill_time}`).
    pub spill_threshold: usize,
    /// Directory for the per-shard spill segment files. `None` (the
    /// default) puts them in a unique directory under the system temp dir;
    /// either way each session uses its own subdirectory and removes it
    /// with the builder.
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
            live_snapshots: false,
            snapshot_slots: 8,
            charge_spawn_cost: true,
            ingest_threads: default_ingest_threads(),
            decode_online: false,
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

    /// Returns a copy with live snapshots enabled and the given slot count.
    pub fn with_live_snapshots(mut self, slots: usize) -> Self {
        self.live_snapshots = true;
        self.snapshot_slots = slots;
        self
    }

    /// Returns a copy with the given ingest-pool width (clamped to ≥ 1).
    pub fn with_ingest_threads(mut self, workers: usize) -> Self {
        self.ingest_threads = workers.max(1);
        self
    }

    /// Returns a copy with online PT decoding switched on or off.
    pub fn with_decode_online(mut self, on: bool) -> Self {
        self.decode_online = on;
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
            .with_live_snapshots(3)
            .with_ingest_threads(2)
            .with_decode_online(true)
            .with_spill_threshold(128)
            .with_spill_dir("/tmp/spill");
        assert_eq!(c.mode, ExecutionMode::Inspector);
        assert!(c.live_snapshots);
        assert_eq!(c.snapshot_slots, 3);
        assert_eq!(c.ingest_threads, 2);
        assert!(c.decode_online);
        assert_eq!(c.spill_threshold, 128);
        assert_eq!(c.spill_dir, Some(PathBuf::from("/tmp/spill")));
    }

    #[test]
    fn online_decode_spill_and_faults_default_off() {
        let c = SessionConfig::inspector();
        assert!(!c.decode_online);
        assert!(!SessionConfig::native().decode_online);
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
