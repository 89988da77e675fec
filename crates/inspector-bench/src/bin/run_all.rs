//! Runs every figure/table generator in sequence (the full evaluation).
//!
//! `INSPECTOR_BENCH_SIZE=tiny cargo run -p inspector-bench --bin run_all --release`
//! gives a quick smoke pass; the default medium size reproduces the shapes of
//! the paper's figures.

use inspector_bench::figures::{
    figure5, figure6, figure7, figure8, figure9, print_figure5, print_figure6, print_figure7,
    print_figure8, print_figure9, BREAKDOWN_THREADS, FIGURE5_THREADS,
};
use inspector_bench::harness::{size_from_env, threads_from_env};
use inspector_workloads::InputSize;

fn main() {
    let size = size_from_env(InputSize::Medium);
    let threads = threads_from_env(&FIGURE5_THREADS);
    let repeats: usize = std::env::var("INSPECTOR_BENCH_REPEATS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let breakdown_threads = *threads.last().unwrap_or(&BREAKDOWN_THREADS);

    eprintln!("=== Figure 5 ===");
    print_figure5(&figure5(size, &threads, repeats), &threads);
    println!();
    eprintln!("=== Figure 6 ===");
    print_figure6(
        &figure6(size, breakdown_threads, repeats),
        breakdown_threads,
    );
    println!();
    eprintln!("=== Figure 7 ===");
    print_figure7(
        &figure7(size, breakdown_threads, repeats),
        breakdown_threads,
    );
    println!();
    eprintln!("=== Figure 8 ===");
    print_figure8(&figure8(breakdown_threads, repeats), breakdown_threads);
    println!();
    eprintln!("=== Figure 9 ===");
    print_figure9(
        &figure9(size, breakdown_threads, repeats),
        breakdown_threads,
    );
}
