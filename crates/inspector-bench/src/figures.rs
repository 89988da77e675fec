//! Generators for every figure and table of the paper's evaluation.
//!
//! Each generator returns structured rows (so tests can consume them) and has
//! a `print_*` companion that renders the same rows in a layout matching the
//! paper's presentation.

use std::time::Duration;

use inspector_workloads::{all_workloads, workload_by_name, InputSize};

use crate::harness::measure_overhead;

/// The thread counts swept in Figure 5 (the paper's 2–16 threads).
pub const FIGURE5_THREADS: [usize; 4] = [2, 4, 8, 16];
/// The default thread count of Figures 6–9 (`INSPECTOR_BENCH_THREADS`
/// overrides it in the figure binaries).
pub const BREAKDOWN_THREADS: usize = 16;
/// The applications used in the input-scalability experiment (Figure 8).
pub const FIGURE8_APPS: [&str; 4] = [
    "histogram",
    "linear_regression",
    "string_match",
    "word_count",
];

/// One bar of Figure 5: overhead of one workload at one thread count.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Workload name.
    pub name: &'static str,
    /// Worker thread count.
    pub threads: usize,
    /// Overhead w.r.t. native execution.
    pub overhead: f64,
}

/// Figure 5: provenance overhead with respect to native execution for every
/// workload with increasing thread counts.
pub fn figure5(size: InputSize, threads: &[usize], repeats: usize) -> Vec<Fig5Row> {
    let mut rows = Vec::new();
    for workload in all_workloads() {
        for &t in threads {
            let m = measure_overhead(workload.as_ref(), t, size, repeats);
            rows.push(Fig5Row {
                name: m.name,
                threads: t,
                overhead: m.overhead(),
            });
        }
    }
    rows
}

/// Renders Figure 5 rows as a table (workloads × thread counts).
pub fn print_figure5(rows: &[Fig5Row], threads: &[usize]) {
    println!("Figure 5: performance overhead w.r.t. native execution (ratio)");
    print!("{:<20}", "application");
    for t in threads {
        print!("{t:>10}T");
    }
    println!();
    let mut names: Vec<&str> = rows.iter().map(|r| r.name).collect();
    names.dedup();
    for name in names {
        print!("{name:<20}");
        for &t in threads {
            if let Some(r) = rows.iter().find(|r| r.name == name && r.threads == t) {
                print!("{:>10.2}x", r.overhead);
            } else {
                print!("{:>11}", "-");
            }
        }
        println!();
    }
}

/// One bar of Figure 6: overhead breakdown for one workload.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Workload name.
    pub name: &'static str,
    /// Total overhead w.r.t. native.
    pub total: f64,
    /// Share attributed to the threading library (faults, commits, process
    /// creation).
    pub threading: f64,
    /// Share attributed to the OS support for Intel PT (packet encoding).
    pub pt: f64,
    /// Share attributed to streaming CPG construction (mostly overlapped
    /// with execution; this is the residual critical-path cost — the
    /// busiest ingest worker plus the seal — that the overlap could not
    /// hide).
    pub graph: f64,
    /// Share attributed to the post-run PT decode (the `pt_decode` phase).
    pub pt_decode: f64,
    /// Share attributed to the spill stage (`spill` phase). Zero unless the
    /// run set `spill_threshold`.
    pub spill: f64,
    /// Sub-computations the spill stage moved to disk (0 with spilling off).
    pub spilled_subs: u64,
    /// Branches the PT encoder recorded (`RunStats::pt.branches`).
    pub pt_branches: u64,
    /// Branch events the post-run decode recovered from the packet stream
    /// (equal to `pt_branches` on an undegraded run).
    pub decoded_branches: u64,
    /// Decode errors the streaming decoders reported (must be 0).
    pub decode_errors: u64,
    /// Lossless runs where the decoded branch count disagreed with the
    /// recorder's own count (must be 0 — the post-run cross-check).
    pub decode_mismatches: u64,
    /// AUX overflow episodes across the run's threads (0 on healthy runs;
    /// nonzero under tiny rings or a `FaultPlan::overflow_bytes` plan).
    /// When nonzero the decode cross-check is accounted, not
    /// asserted — see `RunStats::gaps`.
    pub gaps: u64,
    /// Trace bytes those overflow episodes dropped (`RunStats::lost_bytes`).
    pub lost_bytes: u64,
    /// The run's overall health bit (`RunStats::degraded`): loss, decode
    /// degradation, spill fallback or a dead ingest worker occurred.
    pub degraded: bool,
    /// Overlap factor of the ingest pool: summed per-worker ingest time
    /// over the busiest worker's time (`RunStats::ingest_overlap_factor`).
    /// 1.0 means one worker did all construction; higher means the pool
    /// genuinely parallelised it.
    pub graph_overlap: f64,
    /// Ingest-pool width the run used.
    pub ingest_workers: usize,
}

/// Figure 6: breakdown of the provenance overhead into threading-library and
/// Intel-PT shares at `threads` threads.
pub fn figure6(size: InputSize, threads: usize, repeats: usize) -> Vec<Fig6Row> {
    all_workloads()
        .iter()
        .map(|w| {
            let m = measure_overhead(w.as_ref(), threads, size, repeats);
            let b = m.breakdown();
            Fig6Row {
                name: m.name,
                total: b.total_overhead,
                threading: b.threading_overhead,
                pt: b.pt_overhead,
                graph: b.graph_overhead,
                pt_decode: b.decode_overhead,
                spill: b.spill_overhead,
                spilled_subs: m.report.stats.spilled_subs,
                pt_branches: m.report.stats.pt.branches,
                decoded_branches: m.report.stats.decoded_branches,
                decode_errors: m.report.stats.decode_errors,
                decode_mismatches: m.report.stats.decode_mismatches,
                gaps: m.report.stats.gaps,
                lost_bytes: m.report.stats.lost_bytes,
                degraded: m.report.stats.degraded,
                graph_overlap: m.report.stats.ingest_overlap_factor(),
                ingest_workers: m.report.stats.ingest_workers,
            }
        })
        .collect()
}

/// Renders Figure 6 rows measured at `threads` threads.
pub fn print_figure6(rows: &[Fig6Row], threads: usize) {
    println!("Figure 6: overhead breakdown at {threads} threads (ratio over native)");
    println!(
        "{:<20}{:>10}{:>16}{:>14}{:>13}{:>12}{:>9}{:>14}",
        "application",
        "total",
        "threading lib",
        "OS/Intel PT",
        "CPG ingest",
        "pt_decode",
        "spill",
        "pool overlap"
    );
    for r in rows {
        println!(
            "{:<20}{:>9.2}x{:>15.2}x{:>13.2}x{:>12.2}x{:>11.2}x{:>8.2}x{:>9.2}x/{}w",
            r.name,
            r.total,
            r.threading,
            r.pt,
            r.graph,
            r.pt_decode,
            r.spill,
            r.graph_overlap,
            r.ingest_workers
        );
    }
    let decoded: u64 = rows.iter().map(|r| r.decoded_branches).sum();
    let errors: u64 = rows.iter().map(|r| r.decode_errors).sum();
    let mismatches: u64 = rows.iter().map(|r| r.decode_mismatches).sum();
    println!(
        "post-run decode: {decoded} branches recovered, {errors} decode errors, \
         {mismatches} cross-check mismatches"
    );
    if rows.iter().any(|r| r.spilled_subs > 0) {
        let spilled: u64 = rows.iter().map(|r| r.spilled_subs).sum();
        println!("spill stage: {spilled} sub-computations moved to disk during the runs");
    }
    if rows.iter().any(|r| r.degraded) {
        let gaps: u64 = rows.iter().map(|r| r.gaps).sum();
        let lost: u64 = rows.iter().map(|r| r.lost_bytes).sum();
        let degraded = rows.iter().filter(|r| r.degraded).count();
        println!(
            "DEGRADED: {degraded}/{} workloads ran in degraded mode \
             ({gaps} AUX overflow episodes, {lost} trace bytes lost)",
            rows.len()
        );
    }
}

/// One row of the Figure 7 table: page-fault statistics.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Workload name.
    pub name: &'static str,
    /// Total page faults during the INSPECTOR run.
    pub page_faults: u64,
    /// Faults per second of wall-clock time.
    pub faults_per_sec: f64,
}

/// Figure 7 (table): page faults and fault rate for every workload.
pub fn figure7(size: InputSize, threads: usize, repeats: usize) -> Vec<Fig7Row> {
    all_workloads()
        .iter()
        .map(|w| {
            let m = measure_overhead(w.as_ref(), threads, size, repeats);
            Fig7Row {
                name: m.name,
                page_faults: m.report.stats.mem.total_faults(),
                faults_per_sec: m.report.stats.faults_per_sec(),
            }
        })
        .collect()
}

/// Renders the Figure 7 table measured at `threads` threads.
pub fn print_figure7(rows: &[Fig7Row], threads: usize) {
    println!("Figure 7: runtime statistics with {threads} threads");
    println!(
        "{:<20}{:>14}{:>16}",
        "application", "page faults", "faults/sec"
    );
    for r in rows {
        println!(
            "{:<20}{:>14}{:>16.2e}",
            r.name, r.page_faults, r.faults_per_sec
        );
    }
}

/// One bar of Figure 8: overhead at one input size.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Workload name.
    pub name: &'static str,
    /// Input size class.
    pub size: InputSize,
    /// Input size in bytes (the line plot on the secondary axis).
    pub input_bytes: u64,
    /// Overhead w.r.t. native.
    pub overhead: f64,
}

/// Figure 8: overhead scalability with input size (S/M/L) for the four
/// applications the paper uses, at a fixed thread count.
pub fn figure8(threads: usize, repeats: usize) -> Vec<Fig8Row> {
    let mut rows = Vec::new();
    for name in FIGURE8_APPS {
        let workload = workload_by_name(name).expect("known workload");
        for size in InputSize::figure8_sizes() {
            let m = measure_overhead(workload.as_ref(), threads, size, repeats);
            rows.push(Fig8Row {
                name,
                size,
                input_bytes: m.report.stats.recorder.page_reads * 4096,
                overhead: m.overhead(),
            });
        }
    }
    rows
}

/// Renders Figure 8 rows measured at `threads` threads.
pub fn print_figure8(rows: &[Fig8Row], threads: usize) {
    println!("Figure 8: overhead scalability with input size ({threads} threads)");
    println!(
        "{:<20}{:>6}{:>12}{:>16}",
        "application", "size", "overhead", "input pages"
    );
    for r in rows {
        println!(
            "{:<20}{:>6}{:>11.2}x{:>16}",
            r.name,
            r.size.label(),
            r.overhead,
            r.input_bytes / 4096
        );
    }
}

/// One row of the Figure 9 table: space overheads of the provenance log.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Workload name.
    pub name: &'static str,
    /// Raw provenance log size in bytes.
    pub log_bytes: u64,
    /// Compressed size in bytes.
    pub compressed_bytes: u64,
    /// Compression ratio.
    pub ratio: f64,
    /// Log bandwidth in bytes per second.
    pub bandwidth: f64,
    /// Branch instructions per second.
    pub branches_per_sec: f64,
    /// Total branches traced.
    pub branches: u64,
}

/// Figure 9 (table): provenance log size, compressibility, bandwidth and
/// branch rate for every workload.
pub fn figure9(size: InputSize, threads: usize, repeats: usize) -> Vec<Fig9Row> {
    all_workloads()
        .iter()
        .map(|w| {
            let m = measure_overhead(w.as_ref(), threads, size, repeats);
            let space = m.report.space;
            Fig9Row {
                name: m.name,
                log_bytes: space.log_bytes,
                compressed_bytes: space.compressed_bytes,
                ratio: space.compression_ratio,
                bandwidth: space.bandwidth_bytes_per_sec,
                branches_per_sec: m.report.stats.branches_per_sec(),
                branches: m.report.stats.pt.branches,
            }
        })
        .collect()
}

/// Renders the Figure 9 table measured at `threads` threads.
pub fn print_figure9(rows: &[Fig9Row], threads: usize) {
    println!("Figure 9: space overheads of the provenance log ({threads} threads)");
    println!(
        "{:<20}{:>12}{:>14}{:>8}{:>14}{:>16}",
        "application", "size [KB]", "compr. [KB]", "ratio", "KB/sec", "branches/sec"
    );
    for r in rows {
        println!(
            "{:<20}{:>12.1}{:>14.1}{:>7.1}x{:>14.1}{:>16.2e}",
            r.name,
            r.log_bytes as f64 / 1024.0,
            r.compressed_bytes as f64 / 1024.0,
            r.ratio,
            r.bandwidth / 1024.0,
            r.branches_per_sec
        );
    }
}

/// Every figure's rows, bundled (the return of [`smoke_all`]).
pub type AllFigures = (
    Vec<Fig5Row>,
    Vec<Fig6Row>,
    Vec<Fig7Row>,
    Vec<Fig8Row>,
    Vec<Fig9Row>,
);

/// Convenience used by `run_all` and the smoke tests: a tiny configuration
/// that exercises every figure path quickly.
pub fn smoke_all() -> AllFigures {
    let size = InputSize::Tiny;
    (
        figure5(size, &[2], 1),
        figure6(size, 2, 1),
        figure7(size, 2, 1),
        figure8(2, 1),
        figure9(size, 2, 1),
    )
}

/// Helper shared by the binaries: formats a duration as seconds.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn figure5_covers_every_workload_and_thread_count() {
        let rows = figure5(InputSize::Tiny, &[1, 2], 1);
        assert_eq!(rows.len(), 12 * 2);
        let names: BTreeSet<_> = rows.iter().map(|r| r.name).collect();
        assert_eq!(names.len(), 12);
        assert!(rows.iter().all(|r| r.overhead > 0.0));
    }

    #[test]
    fn figure6_breakdown_components_do_not_exceed_total() {
        let rows = figure6(InputSize::Tiny, 2, 1);
        for r in &rows {
            assert!(
                r.threading >= 0.0
                    && r.pt >= 0.0
                    && r.graph >= 0.0
                    && r.pt_decode >= 0.0
                    && r.spill >= 0.0
            );
            assert!(
                r.threading + r.pt + r.graph + r.pt_decode + r.spill <= r.total + 1e-9,
                "{:?}",
                r
            );
            assert!(r.graph_overlap >= 1.0, "{:?}", r);
            assert!(r.ingest_workers >= 1, "{:?}", r);
            // The presets' arm of the invariant; `tests/end_to_end.rs` runs
            // it with spill and injected faults on too.
            if r.gaps == 0 && r.lost_bytes == 0 {
                assert_eq!(r.decode_errors, 0, "{:?}", r);
                assert_eq!(r.decode_mismatches, 0, "{:?}", r);
            } else {
                assert!(r.degraded, "loss without the degraded bit: {:?}", r);
            }
        }
    }

    #[test]
    fn figure7_reports_positive_fault_counts() {
        let rows = figure7(InputSize::Tiny, 2, 1);
        assert_eq!(rows.len(), 12);
        assert!(rows.iter().all(|r| r.page_faults > 0));
        // canneal must be among the heaviest faulters relative to its peers,
        // as in the paper's table.
        let canneal = rows.iter().find(|r| r.name == "canneal").unwrap();
        let blackscholes = rows.iter().find(|r| r.name == "blackscholes").unwrap();
        assert!(canneal.page_faults > blackscholes.page_faults);
    }

    #[test]
    fn figure8_covers_three_sizes_for_four_apps() {
        let rows = figure8(1, 1);
        assert_eq!(rows.len(), 12);
        for name in FIGURE8_APPS {
            let sizes: Vec<_> = rows.iter().filter(|r| r.name == name).collect();
            assert_eq!(sizes.len(), 3);
        }
    }

    #[test]
    fn figure9_log_sizes_are_positive_and_compressible() {
        let rows = figure9(InputSize::Tiny, 2, 1);
        assert_eq!(rows.len(), 12);
        for r in &rows {
            assert!(r.log_bytes > 0, "{} produced no log", r.name);
            // At the tiny test size a log can be too small to compress, but
            // it must never blow up materially.
            assert!(r.ratio > 0.9, "{} log grew when compressed", r.name);
        }
        // A good share of the logs compresses noticeably even at the tiny
        // test size (the paper reports 6x-37x with lz4 on full-size runs;
        // data-dependent branch outcomes keep some of our synthetic logs
        // close to incompressible).
        let compressible = rows.iter().filter(|r| r.ratio > 1.5).count();
        assert!(
            compressible >= 4,
            "only {compressible}/12 logs compressed > 1.5x"
        );
        // streamcluster has the largest log in the paper; here it must at
        // least be above the median.
        let mut sizes: Vec<u64> = rows.iter().map(|r| r.log_bytes).collect();
        sizes.sort();
        let median = sizes[sizes.len() / 2];
        let sc = rows.iter().find(|r| r.name == "streamcluster").unwrap();
        assert!(sc.log_bytes >= median);
    }

    #[test]
    fn printers_do_not_panic() {
        let (f5, f6, f7, f8, f9) = (
            vec![Fig5Row {
                name: "x",
                threads: 2,
                overhead: 1.5,
            }],
            vec![Fig6Row {
                name: "x",
                total: 2.0,
                threading: 0.5,
                pt: 0.3,
                graph: 0.15,
                pt_decode: 0.05,
                spill: 0.02,
                spilled_subs: 17,
                pt_branches: 1234,
                decoded_branches: 1234,
                decode_errors: 0,
                decode_mismatches: 0,
                gaps: 1,
                lost_bytes: 512,
                degraded: true,
                graph_overlap: 2.5,
                ingest_workers: 4,
            }],
            vec![Fig7Row {
                name: "x",
                page_faults: 10,
                faults_per_sec: 1e3,
            }],
            vec![Fig8Row {
                name: "x",
                size: InputSize::Small,
                input_bytes: 4096,
                overhead: 1.1,
            }],
            vec![Fig9Row {
                name: "x",
                log_bytes: 10,
                compressed_bytes: 5,
                ratio: 2.0,
                bandwidth: 1.0,
                branches_per_sec: 1.0,
                branches: 1,
            }],
        );
        print_figure5(&f5, &[2]);
        print_figure6(&f6, 2);
        print_figure7(&f7, 2);
        print_figure8(&f8, 2);
        print_figure9(&f9, 2);
        assert_eq!(secs(Duration::from_millis(1500)), 1.5);
    }
}
