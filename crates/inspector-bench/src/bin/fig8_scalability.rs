//! Regenerates Figure 8: overhead scalability with input size (S/M/L) for
//! histogram, linear_regression, string_match and word_count.
//!
//! The pipeline settings of the measured sessions (the library's
//! `SessionConfig::inspector()` preset) are recorded in the emitted report.

use inspector_bench::figures::{figure8, print_figure8, BREAKDOWN_THREADS};
use inspector_bench::harness::{pipeline_knobs_label, threads_from_env};
use inspector_runtime::SessionConfig;

fn main() {
    let threads = threads_from_env(&[BREAKDOWN_THREADS])[0];
    let repeats: usize = std::env::var("INSPECTOR_BENCH_REPEATS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let knobs = pipeline_knobs_label(&SessionConfig::inspector());
    eprintln!("running figure 8 (threads={threads}, repeats={repeats}, {knobs}) ...");
    let rows = figure8(threads, repeats);
    println!("pipeline knobs: {knobs}");
    print_figure8(&rows, threads);
}
