//! Run reports: everything the evaluation harness needs from one execution.

use std::time::Duration;

use inspector_core::graph::Cpg;
use inspector_core::recorder::RecorderStats;
use inspector_mem::stats::MemStats;
use inspector_perf::bandwidth::SpaceReport;
use inspector_pt::stats::PtStats;

use crate::config::ExecutionMode;

/// Aggregated statistics of one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    /// End-to-end wall-clock time of the run.
    pub wall_time: Duration,
    /// Number of threads (including the main thread).
    pub threads: usize,
    /// Memory-tracking statistics summed over all threads.
    pub mem: MemStats,
    /// PT statistics summed over all threads.
    pub pt: PtStats,
    /// Recorder statistics summed over all threads.
    pub recorder: RecorderStats,
    /// Time spent duplicating per-process state at thread creation
    /// (threads-as-processes cost).
    pub spawn_time: Duration,
    /// Critical-path time of streaming CPG construction: the busiest ingest
    /// worker's shard-ingestion time (overlapped with the application) plus
    /// the end-of-run seal. With a single ingest worker this equals the old
    /// single-thread wall time; with a pool it is the share of construction
    /// the fan-out could not hide.
    pub graph_ingest_time: Duration,
    /// Total CPU time of streaming CPG construction: every ingest worker's
    /// busy time summed, plus the seal. `graph_ingest_cpu_time /
    /// graph_ingest_time` is the pool's overlap factor (≈ 1.0 means one
    /// worker did everything; higher means the pool genuinely parallelised
    /// construction).
    pub graph_ingest_cpu_time: Duration,
    /// Number of ingest-pool workers that drained the provenance channel.
    pub ingest_workers: usize,
    /// Branch events decoded back out of the PT packet stream by the online
    /// decode stage (conditional + indirect; trace start/stop markers and
    /// overflow gaps excluded, so the number is directly comparable to
    /// `pt.branches`). Zero when [`SessionConfig::decode_online`] is off.
    ///
    /// [`SessionConfig::decode_online`]: crate::SessionConfig::decode_online
    pub decoded_branches: u64,
    /// Decode errors the streaming decoders reported (unknown packets,
    /// truncated tails). Zero on a healthy run.
    pub decode_errors: u64,
    /// Threads whose clean decode (no errors, no AUX loss) still disagreed
    /// with the recorder's branch count — the online control-flow
    /// cross-check. Zero unless the encoder and recorder diverge.
    pub decode_mismatches: u64,
    /// AUX payload bytes pushed through the online decoders.
    pub decode_bytes: u64,
    /// CPU time of the online decode stage, summed across ingest workers
    /// (the `pt_decode` phase). Like graph ingestion it is overlapped with
    /// application execution; attributing it separately lets Figure 6 show
    /// what decode-while-running costs.
    pub decode_time: Duration,
    /// Always 0: the streaming builder keeps no release or page-write index
    /// any more, so there is nothing to collect. Kept only because the
    /// repository benchmark (`benchmark/`) still reads it; the next change
    /// to the benchmark deletes it.
    pub index_entries_gcd: u64,
    /// Always 0, like [`index_entries_gcd`](Self::index_entries_gcd), and
    /// kept for the same reason until the same change.
    pub index_entries_live: u64,
    /// Sub-computations the spill stage moved out of memory into on-disk
    /// segments during the run. Zero unless
    /// [`SessionConfig::spill_threshold`] is set.
    ///
    /// [`SessionConfig::spill_threshold`]: crate::SessionConfig::spill_threshold
    pub spilled_subs: u64,
    /// Bytes appended to the spill segments (record framing included).
    pub spill_bytes: u64,
    /// Largest number of sub-computations resident in the streaming builder
    /// at any point of the run. With spilling enabled this is the measured
    /// active window — the memory bound §VI asks for — rather than the
    /// trace length.
    pub peak_resident_subs: u64,
    /// CPU time of the spill stage (record encoding and segment
    /// appends), summed across ingest workers (the
    /// `spill` phase). A subset of the workers' graph-ingest busy time,
    /// attributed separately so Figure 6 can show what bounding memory
    /// costs.
    pub spill_time: Duration,
    /// Trace gaps (AUX overflow episodes) summed over all threads. Every
    /// gap means an unknown number of branch events were lost; branches
    /// decoded after a gap are still exact, so the graph built over the
    /// surviving events is sound — the run is *degraded*, not corrupt.
    pub gaps: u64,
    /// AUX payload bytes the producer dropped across all overflow
    /// episodes (the size of the lost windows).
    pub lost_bytes: u64,
    /// Threads whose online decode cross-check was *skipped* because the
    /// stream was degraded (decode errors or AUX loss) rather than
    /// asserted. Healthy threads still hard-verify; this counts the ones
    /// that could not be.
    pub decode_degraded: u64,
    /// Times the spill stage degraded to in-memory retention instead of
    /// aborting (write failure after bounded retries, store creation
    /// failure, torn or unreadable records at replay). See
    /// [`IngestStats::spill_fallbacks`](inspector_core::IngestStats::spill_fallbacks).
    pub spill_fallbacks: u64,
    /// Ingest workers that died (panicked) before draining their lane.
    /// Their undrained provenance is lost; the surviving workers' share
    /// is still sealed into the partial graph.
    pub worker_failures: u64,
    /// `true` when any loss or fallback occurred (`gaps`, `lost_bytes`,
    /// `decode_errors`, `decode_degraded`, `spill_fallbacks` or
    /// `worker_failures` nonzero): the report covers a sound but
    /// incomplete view of the execution.
    pub degraded: bool,
}

impl RunStats {
    /// Time attributable to the threading library: page-fault handling, twin
    /// copying, diff/commit, and process-creation overhead (the dark share
    /// of Figure 6).
    pub fn threading_lib_time(&self) -> Duration {
        self.mem.tracking_time() + self.spawn_time
    }

    /// Time attributable to the OS support for Intel PT: packet encoding and
    /// AUX management (the light share of Figure 6).
    pub fn pt_time(&self) -> Duration {
        self.pt.encode_time
    }

    /// Time attributable to streaming CPG construction (the `graph_ingest`
    /// phase): the critical-path share, i.e. the busiest pool worker plus
    /// the seal. Mostly overlapped with application execution; attributing
    /// it separately lets the Figure 6 breakdown show what the overlap
    /// hides.
    pub fn graph_time(&self) -> Duration {
        self.graph_ingest_time
    }

    /// Time attributable to online PT decoding (the `pt_decode` phase):
    /// the ingest workers' summed streaming-decode time. Zero when
    /// `decode_online` is off.
    pub fn pt_decode_time(&self) -> Duration {
        self.decode_time
    }

    /// Time attributable to the spill stage (the `spill` phase): cut
    /// computation, record encoding and segment appends. Zero when
    /// `spill_threshold` is 0.
    pub fn spill_phase_time(&self) -> Duration {
        self.spill_time
    }

    /// Overlap factor of the ingest pool: summed worker busy time over the
    /// busiest worker's time (≥ 1.0 once any construction happened; 1.0
    /// when a single worker did everything).
    pub fn ingest_overlap_factor(&self) -> f64 {
        let max = self.graph_ingest_time.as_secs_f64();
        if max <= f64::EPSILON {
            return 1.0;
        }
        (self.graph_ingest_cpu_time.as_secs_f64() / max).max(1.0)
    }

    /// Page faults per wall-clock second (the Figure 7 "Faults/sec" column).
    pub fn faults_per_sec(&self) -> f64 {
        self.mem.total_faults() as f64 / self.wall_time.as_secs_f64().max(1e-9)
    }

    /// Branch instructions traced per wall-clock second (Figure 9 column).
    pub fn branches_per_sec(&self) -> f64 {
        self.pt.branches as f64 / self.wall_time.as_secs_f64().max(1e-9)
    }
}

/// Split of the measured overhead into its sources, for the Figure 6
/// breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Total overhead with respect to the native run (≥ 1.0, ratio).
    pub total_overhead: f64,
    /// Portion of the overhead attributed to the threading library.
    pub threading_overhead: f64,
    /// Portion attributed to the OS support for Intel PT.
    pub pt_overhead: f64,
    /// Portion attributed to streaming CPG construction (`graph_ingest`).
    pub graph_overhead: f64,
    /// Portion attributed to online PT decoding (`pt_decode`). Zero unless
    /// the run decoded while running.
    pub decode_overhead: f64,
    /// Portion attributed to the spill stage (`spill`). Zero unless the run
    /// bounded shard memory via `spill_threshold`.
    pub spill_overhead: f64,
}

impl PhaseBreakdown {
    /// Splits `total_overhead` (ratio of inspector to native wall time) into
    /// the components proportionally to the time each subsystem spent.
    ///
    /// Two of the inputs are estimates, not totals: the fault half of the
    /// threading time ([`MemStats::fault_time`]) and the PT time
    /// ([`PtStats::encode_time`]) are each a 1-in-64 sample, scaled, taken
    /// net of the clock read — timing every fault and branch cost the
    /// application several times what was being measured.
    ///
    /// [`MemStats::fault_time`]: inspector_mem::stats::MemStats::fault_time
    /// [`PtStats::encode_time`]: inspector_pt::stats::PtStats::encode_time
    ///
    /// Spilling runs *inside* the ingest workers' timed busy loop (unlike
    /// online decode, which is timed separately), so its time is carved out
    /// of the graph share rather than added next to it — otherwise the
    /// graph+spill phases would be double-counted against threading/PT.
    /// With a multi-worker pool the carve-out is approximate (`spill_time`
    /// is summed across workers while `graph_time` is the busiest worker),
    /// hence the clamp to zero.
    pub fn split(total_overhead: f64, stats: &RunStats) -> Self {
        let threading = stats.threading_lib_time().as_secs_f64();
        let pt = stats.pt_time().as_secs_f64();
        let spill = stats.spill_phase_time().as_secs_f64();
        let graph = (stats.graph_time().as_secs_f64() - spill).max(0.0);
        let decode = stats.pt_decode_time().as_secs_f64();
        let extra = (total_overhead - 1.0).max(0.0);
        let denom = threading + pt + graph + decode + spill;
        let (threading_overhead, pt_overhead, graph_overhead, decode_overhead, spill_overhead) =
            if denom <= f64::EPSILON {
                (0.0, 0.0, 0.0, 0.0, 0.0)
            } else {
                (
                    extra * threading / denom,
                    extra * pt / denom,
                    extra * graph / denom,
                    extra * decode / denom,
                    extra * spill / denom,
                )
            };
        PhaseBreakdown {
            total_overhead,
            threading_overhead,
            pt_overhead,
            graph_overhead,
            decode_overhead,
            spill_overhead,
        }
    }
}

/// The complete result of one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The mode the run executed in.
    pub mode: ExecutionMode,
    /// The Concurrent Provenance Graph (empty for native runs).
    pub cpg: Cpg,
    /// Aggregated run statistics.
    pub stats: RunStats,
    /// Space/bandwidth report for the provenance log (zeroed for native
    /// runs).
    pub space: SpaceReport,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_is_proportional() {
        let mut stats = RunStats::default();
        stats.mem.fault_time = Duration::from_millis(30);
        stats.mem.commit_time = Duration::from_millis(30);
        stats.pt.encode_time = Duration::from_millis(40);
        let b = PhaseBreakdown::split(2.0, &stats);
        assert!((b.total_overhead - 2.0).abs() < 1e-9);
        assert!((b.threading_overhead - 0.6).abs() < 1e-9);
        assert!((b.pt_overhead - 0.4).abs() < 1e-9);
    }

    #[test]
    fn breakdown_includes_graph_ingest_share() {
        let mut stats = RunStats::default();
        stats.mem.fault_time = Duration::from_millis(25);
        stats.pt.encode_time = Duration::from_millis(25);
        stats.graph_ingest_time = Duration::from_millis(50);
        let b = PhaseBreakdown::split(3.0, &stats);
        assert!((b.graph_overhead - 1.0).abs() < 1e-9);
        assert!(
            (b.threading_overhead + b.pt_overhead + b.graph_overhead - 2.0).abs() < 1e-9,
            "components must sum to the extra overhead"
        );
    }

    #[test]
    fn breakdown_includes_pt_decode_share() {
        let mut stats = RunStats::default();
        stats.mem.fault_time = Duration::from_millis(25);
        stats.pt.encode_time = Duration::from_millis(25);
        stats.graph_ingest_time = Duration::from_millis(25);
        stats.decode_time = Duration::from_millis(25);
        let b = PhaseBreakdown::split(3.0, &stats);
        assert!((b.decode_overhead - 0.5).abs() < 1e-9);
        assert!(
            (b.threading_overhead + b.pt_overhead + b.graph_overhead + b.decode_overhead - 2.0)
                .abs()
                < 1e-9,
            "components must sum to the extra overhead"
        );
        // Without online decoding the share vanishes and the split is
        // unchanged from the three-phase behaviour.
        stats.decode_time = Duration::ZERO;
        let b = PhaseBreakdown::split(3.0, &stats);
        assert_eq!(b.decode_overhead, 0.0);
        assert!((b.threading_overhead + b.pt_overhead + b.graph_overhead - 2.0).abs() < 1e-9);
    }

    #[test]
    fn breakdown_includes_spill_share() {
        // Spill time is a subset of the workers' graph time, so the split
        // carves it out of the graph share instead of double-counting it:
        // graph 50 ms of which 25 ms was spilling → 25/25 after the carve.
        let mut stats = RunStats::default();
        stats.mem.fault_time = Duration::from_millis(25);
        stats.pt.encode_time = Duration::from_millis(25);
        stats.graph_ingest_time = Duration::from_millis(50);
        stats.spill_time = Duration::from_millis(25);
        let b = PhaseBreakdown::split(3.0, &stats);
        assert!((b.spill_overhead - 0.5).abs() < 1e-9);
        assert!((b.graph_overhead - 0.5).abs() < 1e-9);
        assert!(
            (b.threading_overhead + b.pt_overhead + b.graph_overhead + b.spill_overhead - 2.0)
                .abs()
                < 1e-9,
            "components must sum to the extra overhead"
        );
        // A pool can sum more spill time than the busiest worker's total:
        // the graph share clamps at zero instead of going negative.
        stats.spill_time = Duration::from_millis(80);
        let b = PhaseBreakdown::split(3.0, &stats);
        assert_eq!(b.graph_overhead, 0.0);
        assert!(b.spill_overhead > 0.0);
        // Without spilling the share vanishes and the split is unchanged.
        stats.graph_ingest_time = Duration::from_millis(50);
        stats.spill_time = Duration::ZERO;
        let b = PhaseBreakdown::split(3.0, &stats);
        assert_eq!(b.spill_overhead, 0.0);
        assert!((b.threading_overhead + b.pt_overhead + b.graph_overhead - 2.0).abs() < 1e-9);
    }

    #[test]
    fn breakdown_handles_zero_time() {
        let b = PhaseBreakdown::split(1.5, &RunStats::default());
        assert_eq!(b.threading_overhead, 0.0);
        assert_eq!(b.pt_overhead, 0.0);
    }

    #[test]
    fn breakdown_never_negative() {
        let mut stats = RunStats::default();
        stats.pt.encode_time = Duration::from_millis(1);
        let b = PhaseBreakdown::split(0.9, &stats); // inspector faster than native
        assert_eq!(b.threading_overhead, 0.0);
        assert_eq!(b.pt_overhead, 0.0);
    }

    #[test]
    fn overlap_factor_compares_sum_to_max() {
        let mut stats = RunStats::default();
        // No construction at all: factor degrades to 1.0, not NaN.
        assert_eq!(stats.ingest_overlap_factor(), 1.0);
        // Four workers, busiest 10 ms, 32 ms total: 3.2x overlap.
        stats.graph_ingest_time = Duration::from_millis(10);
        stats.graph_ingest_cpu_time = Duration::from_millis(32);
        stats.ingest_workers = 4;
        assert!((stats.ingest_overlap_factor() - 3.2).abs() < 1e-9);
    }

    #[test]
    fn rates_are_finite() {
        let stats = RunStats {
            wall_time: Duration::from_secs(2),
            mem: MemStats {
                read_faults: 100,
                write_faults: 100,
                ..MemStats::default()
            },
            pt: PtStats {
                branches: 1000,
                ..PtStats::default()
            },
            ..RunStats::default()
        };
        assert!((stats.faults_per_sec() - 100.0).abs() < 1e-9);
        assert!((stats.branches_per_sec() - 500.0).abs() < 1e-9);
    }
}
