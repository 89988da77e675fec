//! Regenerates the Figure 7 table: page-fault counts and rates for every
//! workload at `INSPECTOR_BENCH_THREADS` threads (default 16).

use inspector_bench::figures::{figure7, print_figure7, BREAKDOWN_THREADS};
use inspector_bench::harness::{size_from_env, threads_from_env};
use inspector_workloads::InputSize;

fn main() {
    let size = size_from_env(InputSize::Medium);
    let threads = threads_from_env(&[BREAKDOWN_THREADS])[0];
    let repeats: usize = std::env::var("INSPECTOR_BENCH_REPEATS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    eprintln!("running figure 7 (size={size:?}, threads={threads}, repeats={repeats}) ...");
    let rows = figure7(size, threads, repeats);
    print_figure7(&rows, threads);
}
