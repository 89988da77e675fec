//! Measurement plumbing shared by all figure generators.
//!
//! The `INSPECTOR_BENCH_*` variables read here (input size, thread counts;
//! the binaries add repeats) are arguments of the harness. The pipeline
//! itself is measured as the library ships it: its settings are
//! `SessionConfig` values, never environment variables.

use std::time::Duration;

use inspector_runtime::report::{PhaseBreakdown, RunReport};
use inspector_runtime::SessionConfig;
use inspector_workloads::{InputSize, Workload};

/// One (workload, thread-count, input-size) measurement: a native run and an
/// INSPECTOR run of the same code.
#[derive(Debug, Clone)]
pub struct OverheadMeasurement {
    /// Workload name as used in the paper's figures.
    pub name: &'static str,
    /// Worker thread count.
    pub threads: usize,
    /// Input size class.
    pub size: InputSize,
    /// Wall time of the native (pthreads-baseline) run.
    pub native_time: Duration,
    /// Wall time of the INSPECTOR run.
    pub inspector_time: Duration,
    /// Full report of the INSPECTOR run.
    pub report: RunReport,
    /// Session configuration the INSPECTOR run used, so emitted reports
    /// record what they measured.
    pub config: SessionConfig,
}

impl OverheadMeasurement {
    /// Overhead ratio (`inspector / native`), the Y axis of Figures 5, 6, 8.
    pub fn overhead(&self) -> f64 {
        self.inspector_time.as_secs_f64() / self.native_time.as_secs_f64().max(1e-9)
    }

    /// Breakdown of the overhead into threading-library and PT shares
    /// (Figure 6).
    pub fn breakdown(&self) -> PhaseBreakdown {
        PhaseBreakdown::split(self.overhead(), &self.report.stats)
    }
}

/// Runs `workload` once natively and once under INSPECTOR and returns the
/// paired measurement. `repeats` > 1 applies a truncated mean (drop min and
/// max) to the wall times, mirroring the paper's measurement protocol.
/// Both runs use the library's presets ([`SessionConfig::native`] /
/// [`SessionConfig::inspector`]) as they are.
pub fn measure_overhead(
    workload: &dyn Workload,
    threads: usize,
    size: InputSize,
    repeats: usize,
) -> OverheadMeasurement {
    let repeats = repeats.max(1);
    let native_config = SessionConfig::native();
    let inspector_config = SessionConfig::inspector();
    let mut native_times = Vec::with_capacity(repeats);
    let mut inspector_times = Vec::with_capacity(repeats);
    let mut last_report = None;
    for _ in 0..repeats {
        let native = workload.execute(native_config.clone(), threads, size);
        native_times.push(native.report.stats.wall_time);
        let tracked = workload.execute(inspector_config.clone(), threads, size);
        inspector_times.push(tracked.report.stats.wall_time);
        last_report = Some(tracked.report);
    }
    OverheadMeasurement {
        name: workload.name(),
        threads,
        size,
        native_time: truncated_mean(&native_times),
        inspector_time: truncated_mean(&inspector_times),
        report: last_report.expect("at least one repeat"),
        config: inspector_config,
    }
}

/// Truncated mean of a set of durations: drops the minimum and maximum when
/// at least three samples are available (the paper's protocol), otherwise a
/// plain mean.
pub fn truncated_mean(samples: &[Duration]) -> Duration {
    assert!(!samples.is_empty(), "no samples");
    let mut sorted: Vec<Duration> = samples.to_vec();
    sorted.sort();
    let trimmed: &[Duration] = if sorted.len() >= 3 {
        &sorted[1..sorted.len() - 1]
    } else {
        &sorted
    };
    let total: Duration = trimmed.iter().sum();
    total / trimmed.len() as u32
}

/// Reads an environment variable used to shrink experiments for smoke tests
/// (`INSPECTOR_BENCH_SIZE=tiny|small|medium|large`).
pub fn size_from_env(default: InputSize) -> InputSize {
    match std::env::var("INSPECTOR_BENCH_SIZE")
        .unwrap_or_default()
        .to_lowercase()
        .as_str()
    {
        "tiny" => InputSize::Tiny,
        "small" => InputSize::Small,
        "medium" => InputSize::Medium,
        "large" => InputSize::Large,
        _ => default,
    }
}

/// One-line description of the pipeline settings a configuration runs
/// with, printed by the figure binaries so every emitted report records
/// them.
pub fn pipeline_knobs_label(config: &SessionConfig) -> String {
    format!(
        "ingest_threads={} spill_threshold={}",
        config.ingest_threads, config.spill_threshold
    )
}

/// Reads the thread counts to sweep from `INSPECTOR_BENCH_THREADS`
/// (comma-separated), defaulting to the paper's 2/4/8/16.
pub fn threads_from_env(default: &[usize]) -> Vec<usize> {
    let parsed: Vec<usize> = std::env::var("INSPECTOR_BENCH_THREADS")
        .map(|v| {
            v.split(',')
                .filter_map(|s| s.trim().parse().ok())
                .filter(|&t| t > 0)
                .collect()
        })
        .unwrap_or_default();
    if parsed.is_empty() {
        default.to_vec()
    } else {
        parsed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inspector_workloads::workload_by_name;

    #[test]
    fn truncated_mean_drops_extremes() {
        let samples = [
            Duration::from_millis(1),
            Duration::from_millis(10),
            Duration::from_millis(11),
            Duration::from_millis(12),
            Duration::from_millis(500),
        ];
        let m = truncated_mean(&samples);
        assert_eq!(m, Duration::from_millis(11));
    }

    #[test]
    fn truncated_mean_small_sample_is_plain_mean() {
        let samples = [Duration::from_millis(2), Duration::from_millis(4)];
        assert_eq!(truncated_mean(&samples), Duration::from_millis(3));
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn truncated_mean_rejects_empty() {
        truncated_mean(&[]);
    }

    #[test]
    fn measurement_produces_positive_overhead() {
        let w = workload_by_name("histogram").unwrap();
        let m = measure_overhead(w.as_ref(), 2, InputSize::Tiny, 1);
        assert!(m.overhead() > 0.0);
        assert!(m.report.cpg.node_count() > 0);
        let b = m.breakdown();
        assert!(b.total_overhead > 0.0);
    }

    #[test]
    fn env_parsers_fall_back_to_defaults() {
        assert_eq!(size_from_env(InputSize::Small), InputSize::Small);
        assert_eq!(threads_from_env(&[2, 4]), vec![2, 4]);
    }

    #[test]
    fn measurement_records_its_configuration() {
        let w = workload_by_name("histogram").unwrap();
        let m = measure_overhead(w.as_ref(), 1, InputSize::Tiny, 1);
        assert!(m.config.ingest_threads >= 1);
        assert_eq!(m.report.stats.ingest_workers, m.config.ingest_threads);
        let label = pipeline_knobs_label(&m.config);
        assert!(label.contains("ingest_threads="));
        assert!(label.contains("spill_threshold=0"));
    }
}
