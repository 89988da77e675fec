//! Regenerates Figure 6: breakdown of the provenance overhead into the
//! threading-library and Intel-PT shares at `INSPECTOR_BENCH_THREADS` threads
//! (default 16).

use inspector_bench::figures::{figure6, print_figure6, BREAKDOWN_THREADS};
use inspector_bench::harness::{size_from_env, threads_from_env};
use inspector_workloads::InputSize;

fn main() {
    let size = size_from_env(InputSize::Medium);
    let threads = threads_from_env(&[BREAKDOWN_THREADS])[0];
    let repeats: usize = std::env::var("INSPECTOR_BENCH_REPEATS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    eprintln!("running figure 6 (size={size:?}, threads={threads}, repeats={repeats}) ...");
    let rows = figure6(size, threads, repeats);
    print_figure6(&rows, threads);
    // The post-run cross-check is the end-to-end correctness gate for the
    // PT stream: every workload's decoded branch count must equal the
    // recorder's own count on lossless runs. A run whose trace gapped (a
    // tiny AUX ring) has no exact expected count: its loss is accounted in
    // the `gaps`/`lost_bytes` columns instead, and the degraded bit must be
    // set — degradation is never silent. `tests/end_to_end.rs` holds the
    // same invariant under spill and fault configurations.
    for r in &rows {
        if !r.degraded {
            assert_eq!(
                r.decoded_branches, r.pt_branches,
                "decoded branches differ from recorded ones in {}: {r:?}",
                r.name
            );
        }
        if r.gaps == 0 && r.lost_bytes == 0 {
            assert_eq!(r.decode_errors, 0, "decode errors in {}: {r:?}", r.name);
            assert_eq!(
                r.decode_mismatches, 0,
                "decode cross-check mismatches in {}: {r:?}",
                r.name
            );
        } else {
            assert!(
                r.degraded,
                "loss without the degraded bit in {}: {r:?}",
                r.name
            );
        }
    }
}
