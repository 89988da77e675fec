//! Regenerates the Figure 9 table: provenance log size, compressibility,
//! bandwidth and branch rate for every workload at `INSPECTOR_BENCH_THREADS`
//! threads (default 16).

use inspector_bench::figures::{figure9, print_figure9, BREAKDOWN_THREADS};
use inspector_bench::harness::{size_from_env, threads_from_env};
use inspector_workloads::InputSize;

fn main() {
    let size = size_from_env(InputSize::Medium);
    let threads = threads_from_env(&[BREAKDOWN_THREADS])[0];
    let repeats: usize = std::env::var("INSPECTOR_BENCH_REPEATS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    eprintln!("running figure 9 (size={size:?}, threads={threads}, repeats={repeats}) ...");
    let rows = figure9(size, threads, repeats);
    print_figure9(&rows, threads);
}
