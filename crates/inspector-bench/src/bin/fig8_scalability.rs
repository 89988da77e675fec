//! Regenerates Figure 8: overhead scalability with input size (S/M/L) for
//! histogram, linear_regression, string_match and word_count.
//!
//! The streaming-pipeline knobs are read from the environment
//! (`INSPECTOR_INGEST_THREADS`, `INSPECTOR_CPG_SHARDS`,
//! `INSPECTOR_INGEST_QUEUE_DEPTH`) and recorded in the emitted report, so
//! this binary doubles as the driver of the ingest-contention study: sweep
//! the knobs from a shell loop and diff the recorded headers.

use inspector_bench::figures::{figure8, print_figure8, BREAKDOWN_THREADS};
use inspector_bench::harness::{pipeline_config_from_env, pipeline_knobs_label, threads_from_env};
use inspector_runtime::SessionConfig;

fn main() {
    let threads = threads_from_env(&[BREAKDOWN_THREADS])[0];
    let repeats: usize = std::env::var("INSPECTOR_BENCH_REPEATS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let knobs = pipeline_knobs_label(&pipeline_config_from_env(SessionConfig::inspector()));
    eprintln!("running figure 8 (threads={threads}, repeats={repeats}, {knobs}) ...");
    let rows = figure8(threads, repeats);
    println!("pipeline knobs: {knobs}");
    print_figure8(&rows, threads);
}
