//! Session configuration.
//!
//! Every pipeline knob is also exposed as an `INSPECTOR_*` environment
//! variable through [`SessionConfig::apply_env`] (14 of them: three
//! structural, decode, four for the spill tier, six fault triggers), so
//! harnesses and CI can sweep configurations without recompiling. Parsing is
//! deliberately conservative: an unset, unparsable or out-of-range value
//! leaves the configured default untouched instead of silently clamping or
//! disabling.
//!
//! What is *not* here on purpose: the lane transport has no setting. A
//! synchronization boundary retires exactly one sub-computation, so there
//! is nothing for a batch cap to choose between, and the backlog at which a
//! producer wakes a parked ingest worker is a measured constant in
//! `lane.rs`, not a knob.

use std::path::PathBuf;

use serde::{Deserialize, Serialize};

use inspector_core::spill::SpillDurability;
use inspector_pt::aux::AuxMode;

/// Whether a run is a plain pthreads baseline or a full INSPECTOR run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// XOR-flip the byte at this 1-based cumulative offset of every
    /// thread's AUX stream as it enters the online decoder, modelling
    /// in-flight trace corruption. The decoder reports a decode error and
    /// the thread's cross-check degrades instead of asserting.
    pub corrupt_aux_at: u64,
    /// Inject one AUX overflow episode of this many lost bytes into each
    /// thread's trace before its first flush, modelling a consumer that
    /// fell behind. The loss flows through the normal OVF accounting
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionConfig {
    /// Execution mode.
    pub mode: ExecutionMode,
    /// Page size of the simulated MMU.
    pub page_size: usize,
    /// AUX buffer mode for the PT traces.
    pub aux_mode: AuxMode,
    /// AUX buffer capacity per thread, in bytes.
    pub aux_capacity: usize,
    /// Flush the PT encoder every this many branches.
    pub pt_flush_every: u64,
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
    /// Number of lock-striped shards in the streaming CPG builder.
    pub cpg_shards: usize,
    /// Bounded capacity (in messages) of each lane of the channel feeding
    /// retired sub-computations to the CPG ingest pool. Backpressure
    /// throttles the application instead of buffering unbounded provenance.
    pub ingest_queue_depth: usize,
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
    /// session either way. Only effective with [`AuxMode::FullTrace`]: a
    /// snapshot-mode window wraps mid-packet at its head and is only
    /// decodable offline after a PSB re-sync, so it bypasses the online
    /// stage.
    pub decode_online: bool,
    /// Spill sealed-off consistent prefixes of the streaming CPG build to
    /// disk once a shard holds this many resident sub-computations, bounding
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
    /// `Flush` fdatasyncs segments at cut boundaries before the manifest
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
    /// setup (4 KiB pages, 4 MiB AUX buffers, full-trace mode).
    pub fn inspector() -> Self {
        SessionConfig {
            mode: ExecutionMode::Inspector,
            page_size: 4096,
            aux_mode: AuxMode::FullTrace,
            aux_capacity: 4 << 20,
            pt_flush_every: 4096,
            live_snapshots: false,
            snapshot_slots: 8,
            charge_spawn_cost: true,
            cpg_shards: 8,
            ingest_queue_depth: 1024,
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

    /// Returns a copy with the given mode.
    pub fn with_mode(mut self, mode: ExecutionMode) -> Self {
        self.mode = mode;
        self
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

    /// Returns a copy with the given streaming-builder shard count.
    pub fn with_cpg_shards(mut self, shards: usize) -> Self {
        self.cpg_shards = shards.max(1);
        self
    }

    /// Returns a copy with the given per-lane ingest-queue depth.
    pub fn with_ingest_queue_depth(mut self, depth: usize) -> Self {
        self.ingest_queue_depth = depth.max(1);
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

    /// Applies the streaming-pipeline knobs from the process environment:
    ///
    /// * `INSPECTOR_INGEST_THREADS` — ingest-pool width,
    /// * `INSPECTOR_CPG_SHARDS` — streaming-builder lock stripes,
    /// * `INSPECTOR_INGEST_QUEUE_DEPTH` — per-lane bounded-channel capacity,
    /// * `INSPECTOR_DECODE_ONLINE` — `1`/`true` decodes PT packets on the
    ///   ingest workers while the program runs (the `pt_decode` phase),
    /// * `INSPECTOR_SPILL_THRESHOLD` — per-shard resident sub-computation
    ///   count that triggers a spill-to-disk cut (`0` explicitly disables
    ///   spilling — unlike the knobs above, zero is this knob's documented
    ///   "off" value and is applied),
    /// * `INSPECTOR_SPILL_DIR` — directory for the spill segment files,
    /// * `INSPECTOR_SPILL_DURABILITY` — `none`/`flush`/`fsync` selects the
    ///   spill tier's durability policy (unrecognized spellings keep the
    ///   configured default),
    /// * `INSPECTOR_SPILL_RETAIN` — `1`/`true` keeps the sealed on-disk
    ///   image (segments + clean manifest) after a successful seal,
    /// * `INSPECTOR_FAULT_CORRUPT_AT`, `INSPECTOR_FAULT_OVERFLOW_BYTES`,
    ///   `INSPECTOR_FAULT_SPILL_WRITE`, `INSPECTOR_FAULT_CRASH_AT_SPILL`,
    ///   `INSPECTOR_FAULT_PANIC_WORKER`,
    ///   `INSPECTOR_FAULT_PANIC_AT_BATCH` — the [`FaultPlan`] triggers,
    ///   for exercising the degraded paths from CI without recompiling
    ///   (`SPILL_WRITE=n` counts write *attempts*, one per spill round;
    ///   `CRASH_AT_SPILL=n` counts spilled *records*).
    ///   Like the structural knobs, zero means "disarmed" and is exactly
    ///   the default, so `FOO=0` and unset are equivalent.
    ///
    /// Unset or unrecognized values leave the corresponding configured
    /// default untouched. For the three structural knobs
    /// (`INGEST_THREADS`, `CPG_SHARDS`, `INGEST_QUEUE_DEPTH`) a zero is
    /// treated as unrecognized too: they have no meaningful zero
    /// configuration, so `FOO=0` keeps the default rather than being
    /// silently clamped to 1.
    pub fn apply_env(self) -> Self {
        self.apply_env_with(|name| std::env::var(name).ok())
    }

    /// [`apply_env`](Self::apply_env) with the variable lookup injected, so
    /// tests can exercise the parsing without mutating (or depending on)
    /// the process environment.
    pub fn apply_env_with(mut self, lookup: impl Fn(&str) -> Option<String>) -> Self {
        // Structural knobs: parse failures *and* zero leave the default.
        let knob = |name: &str| -> Option<usize> {
            lookup(name)?
                .trim()
                .parse()
                .ok()
                .filter(|&value: &usize| value > 0)
        };
        if let Some(workers) = knob("INSPECTOR_INGEST_THREADS") {
            self = self.with_ingest_threads(workers);
        }
        if let Some(shards) = knob("INSPECTOR_CPG_SHARDS") {
            self = self.with_cpg_shards(shards);
        }
        if let Some(depth) = knob("INSPECTOR_INGEST_QUEUE_DEPTH") {
            self = self.with_ingest_queue_depth(depth);
        }
        if let Some(on) = lookup("INSPECTOR_DECODE_ONLINE").and_then(|raw| parse_bool(&raw)) {
            self = self.with_decode_online(on);
        }
        // Spill threshold: zero is a meaningful value (explicitly off).
        if let Some(threshold) =
            lookup("INSPECTOR_SPILL_THRESHOLD").and_then(|raw| raw.trim().parse::<usize>().ok())
        {
            self = self.with_spill_threshold(threshold);
        }
        if let Some(dir) = lookup("INSPECTOR_SPILL_DIR").filter(|d| !d.trim().is_empty()) {
            self = self.with_spill_dir(dir.trim());
        }
        if let Some(durability) =
            lookup("INSPECTOR_SPILL_DURABILITY").and_then(|raw| SpillDurability::parse(&raw))
        {
            self = self.with_spill_durability(durability);
        }
        if let Some(retain) = lookup("INSPECTOR_SPILL_RETAIN").and_then(|raw| parse_bool(&raw)) {
            self = self.with_spill_retain(retain);
        }
        // Fault triggers: 0 is the disarmed default, so — like the
        // structural knobs — parse failures and zero leave the plan field
        // untouched.
        let fault = |name: &str| -> Option<u64> {
            lookup(name)?
                .trim()
                .parse()
                .ok()
                .filter(|&value: &u64| value > 0)
        };
        if let Some(at) = fault("INSPECTOR_FAULT_CORRUPT_AT") {
            self.fault_plan.corrupt_aux_at = at;
        }
        if let Some(bytes) = fault("INSPECTOR_FAULT_OVERFLOW_BYTES") {
            self.fault_plan.overflow_bytes = bytes;
        }
        if let Some(nth) = fault("INSPECTOR_FAULT_SPILL_WRITE") {
            self.fault_plan.fail_spill_write = nth;
        }
        if let Some(nth) = fault("INSPECTOR_FAULT_CRASH_AT_SPILL") {
            self.fault_plan.crash_at_spill = nth;
        }
        if let Some(worker) = fault("INSPECTOR_FAULT_PANIC_WORKER") {
            self.fault_plan.panic_worker = worker;
        }
        if let Some(batch) = fault("INSPECTOR_FAULT_PANIC_AT_BATCH") {
            self.fault_plan.panic_at_batch = batch;
        }
        self
    }
}

/// Parses a boolean knob: `1`/`true` and `0`/`false` (case-insensitive);
/// anything else is unrecognized and leaves the configured default.
fn parse_bool(raw: &str) -> Option<bool> {
    let v = raw.trim();
    if v == "1" || v.eq_ignore_ascii_case("true") {
        Some(true)
    } else if v == "0" || v.eq_ignore_ascii_case("false") {
        Some(false)
    } else {
        None
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
        assert_eq!(a.page_size, b.page_size);
        assert_eq!(a.aux_capacity, b.aux_capacity);
    }

    #[test]
    fn builders_apply() {
        let c = SessionConfig::native()
            .with_mode(ExecutionMode::Inspector)
            .with_live_snapshots(3)
            .with_ingest_threads(2)
            .with_cpg_shards(16)
            .with_ingest_queue_depth(64)
            .with_decode_online(true)
            .with_spill_threshold(128)
            .with_spill_dir("/tmp/spill");
        assert_eq!(c.mode, ExecutionMode::Inspector);
        assert!(c.live_snapshots);
        assert_eq!(c.snapshot_slots, 3);
        assert_eq!(c.ingest_threads, 2);
        assert_eq!(c.cpg_shards, 16);
        assert_eq!(c.ingest_queue_depth, 64);
        assert!(c.decode_online);
        assert_eq!(c.spill_threshold, 128);
        assert_eq!(c.spill_dir, Some(PathBuf::from("/tmp/spill")));
    }

    #[test]
    fn online_decode_and_spill_default_off() {
        assert!(!SessionConfig::inspector().decode_online);
        assert!(!SessionConfig::native().decode_online);
        assert_eq!(SessionConfig::inspector().spill_threshold, 0);
        assert_eq!(SessionConfig::inspector().spill_dir, None);
    }

    #[test]
    fn knob_builders_clamp_to_at_least_one() {
        let c = SessionConfig::inspector()
            .with_ingest_threads(0)
            .with_cpg_shards(0)
            .with_ingest_queue_depth(0);
        assert_eq!(c.ingest_threads, 1);
        assert_eq!(c.cpg_shards, 1);
        assert_eq!(c.ingest_queue_depth, 1);
    }

    #[test]
    fn default_pool_width_is_bounded() {
        let c = SessionConfig::inspector();
        assert!((1..=4).contains(&c.ingest_threads));
    }

    #[test]
    fn default_is_inspector() {
        assert_eq!(SessionConfig::default().mode, ExecutionMode::Inspector);
    }

    #[test]
    fn env_knobs_apply_when_recognized() {
        let parsed = SessionConfig::inspector().apply_env_with(|name| match name {
            "INSPECTOR_INGEST_THREADS" => Some(" 3 ".into()),
            "INSPECTOR_CPG_SHARDS" => Some("16".into()),
            "INSPECTOR_INGEST_QUEUE_DEPTH" => Some("64".into()),
            "INSPECTOR_DECODE_ONLINE" => Some("1".into()),
            "INSPECTOR_SPILL_THRESHOLD" => Some("256".into()),
            "INSPECTOR_SPILL_DIR" => Some("/tmp/spill-env".into()),
            _ => None,
        });
        assert_eq!(parsed.ingest_threads, 3);
        assert_eq!(parsed.cpg_shards, 16);
        assert_eq!(parsed.ingest_queue_depth, 64);
        assert!(parsed.decode_online);
        assert_eq!(parsed.spill_threshold, 256);
        assert_eq!(parsed.spill_dir, Some(PathBuf::from("/tmp/spill-env")));
    }

    #[test]
    fn env_knobs_without_variables_leave_config_unchanged() {
        let base = SessionConfig::inspector();
        assert_eq!(base.clone().apply_env_with(|_| None), base);
    }

    #[test]
    fn unrecognized_structural_knob_values_keep_the_configured_default() {
        // A deliberately non-default base, so "default untouched" is
        // distinguishable from "reset to the preset".
        let base = SessionConfig::inspector()
            .with_ingest_threads(3)
            .with_cpg_shards(5)
            .with_ingest_queue_depth(77);
        for bad in ["", "  ", "not-a-number", "-1", "2.5"] {
            let parsed = base.clone().apply_env_with(|name| match name {
                "INSPECTOR_INGEST_THREADS"
                | "INSPECTOR_CPG_SHARDS"
                | "INSPECTOR_INGEST_QUEUE_DEPTH" => Some(bad.into()),
                _ => None,
            });
            assert_eq!(parsed.ingest_threads, 3, "value {bad:?}");
            assert_eq!(parsed.cpg_shards, 5, "value {bad:?}");
            assert_eq!(parsed.ingest_queue_depth, 77, "value {bad:?}");
        }
    }

    #[test]
    fn zero_structural_knob_values_keep_the_configured_default() {
        // Zero has no meaningful configuration for these knobs; it must not
        // be silently clamped to 1 (the regression PR 3 fixed only for
        // INSPECTOR_DECODE_ONLINE).
        let base = SessionConfig::inspector()
            .with_ingest_threads(3)
            .with_cpg_shards(5)
            .with_ingest_queue_depth(77);
        let parsed = base.clone().apply_env_with(|name| match name {
            "INSPECTOR_INGEST_THREADS"
            | "INSPECTOR_CPG_SHARDS"
            | "INSPECTOR_INGEST_QUEUE_DEPTH" => Some("0".into()),
            _ => None,
        });
        assert_eq!(parsed, base);
    }

    #[test]
    fn decode_online_spellings_and_fallback() {
        let base = SessionConfig::inspector();
        let on_by_default = base.clone().with_decode_online(true);
        for (value, expect_from_off, expect_from_on) in [
            ("true", true, true),
            ("TRUE", true, true),
            ("0", false, false),
            ("false", false, false),
            ("banana", false, true), // unrecognized: default preserved
        ] {
            let from_off = base
                .clone()
                .apply_env_with(|name| (name == "INSPECTOR_DECODE_ONLINE").then(|| value.into()));
            assert_eq!(from_off.decode_online, expect_from_off, "value {value:?}");
            let from_on = on_by_default
                .clone()
                .apply_env_with(|name| (name == "INSPECTOR_DECODE_ONLINE").then(|| value.into()));
            assert_eq!(from_on.decode_online, expect_from_on, "value {value:?}");
        }
    }

    #[test]
    fn fault_plan_defaults_empty_and_env_knobs_arm_it() {
        assert!(SessionConfig::inspector().fault_plan.is_empty());
        let parsed = SessionConfig::inspector().apply_env_with(|name| match name {
            "INSPECTOR_FAULT_CORRUPT_AT" => Some(" 17 ".into()),
            "INSPECTOR_FAULT_OVERFLOW_BYTES" => Some("512".into()),
            "INSPECTOR_FAULT_SPILL_WRITE" => Some("3".into()),
            "INSPECTOR_FAULT_CRASH_AT_SPILL" => Some("11".into()),
            "INSPECTOR_FAULT_PANIC_WORKER" => Some("2".into()),
            "INSPECTOR_FAULT_PANIC_AT_BATCH" => Some("5".into()),
            _ => None,
        });
        assert_eq!(
            parsed.fault_plan,
            FaultPlan {
                corrupt_aux_at: 17,
                overflow_bytes: 512,
                fail_spill_write: 3,
                crash_at_spill: 11,
                panic_worker: 2,
                panic_at_batch: 5,
            }
        );
        assert!(!parsed.fault_plan.is_empty());
    }

    #[test]
    fn fault_knobs_zero_or_unrecognized_leave_the_plan() {
        // A non-default base plan, so "untouched" is distinguishable from
        // "reset to empty".
        let base = SessionConfig::inspector().with_fault_plan(FaultPlan {
            corrupt_aux_at: 9,
            overflow_bytes: 64,
            fail_spill_write: 1,
            crash_at_spill: 4,
            panic_worker: 1,
            panic_at_batch: 2,
        });
        for bad in ["", "0", "not-a-number", "-1", "2.5"] {
            let parsed = base
                .clone()
                .apply_env_with(|name| name.starts_with("INSPECTOR_FAULT_").then(|| bad.into()));
            assert_eq!(parsed.fault_plan, base.fault_plan, "value {bad:?}");
        }
        assert_eq!(base.clone().apply_env_with(|_| None), base);
    }

    #[test]
    fn spill_threshold_zero_is_explicitly_off() {
        // Unlike the structural knobs, 0 is the spill knob's documented
        // "disable" value: it must override a nonzero configured default.
        let base = SessionConfig::inspector().with_spill_threshold(64);
        let parsed = base
            .clone()
            .apply_env_with(|name| (name == "INSPECTOR_SPILL_THRESHOLD").then(|| "0".into()));
        assert_eq!(parsed.spill_threshold, 0);
        // Unrecognized values still keep the default.
        let parsed = base
            .clone()
            .apply_env_with(|name| (name == "INSPECTOR_SPILL_THRESHOLD").then(|| "lots".into()));
        assert_eq!(parsed.spill_threshold, 64);
        // An empty spill dir is unrecognized.
        let parsed =
            base.apply_env_with(|name| (name == "INSPECTOR_SPILL_DIR").then(|| "  ".into()));
        assert_eq!(parsed.spill_dir, None);
    }

    #[test]
    fn spill_durability_and_retain_env_knobs() {
        let base = SessionConfig::inspector();
        assert_eq!(base.spill_durability, SpillDurability::None);
        assert!(!base.spill_retain);
        let parsed = base.clone().apply_env_with(|name| match name {
            "INSPECTOR_SPILL_DURABILITY" => Some(" Fsync ".into()),
            "INSPECTOR_SPILL_RETAIN" => Some("true".into()),
            _ => None,
        });
        assert_eq!(parsed.spill_durability, SpillDurability::Fsync);
        assert!(parsed.spill_retain);
        // Unrecognized spellings keep the configured default rather than
        // silently disabling a requested durability tier.
        let configured = base.with_spill_durability(SpillDurability::Flush);
        let parsed = configured.clone().apply_env_with(|name| {
            (name == "INSPECTOR_SPILL_DURABILITY").then(|| "paranoid".into())
        });
        assert_eq!(parsed.spill_durability, SpillDurability::Flush);
        let parsed = configured
            .apply_env_with(|name| (name == "INSPECTOR_SPILL_DURABILITY").then(|| "none".into()));
        assert_eq!(parsed.spill_durability, SpillDurability::None);
    }
}
