//! Case study 3 (paper §VIII, *Efficiency*): memory-access profiling for
//! NUMA placement decisions.
//!
//! The CPG's read/write sets directly give the per-page access pattern of
//! every thread. This example runs a small sharded workload, then derives a
//! placement recommendation for each page: pages touched by a single thread
//! should live on that thread's NUMA node, pages shared by many threads are
//! candidates for interleaving (or indicate false sharing to fix).
//!
//! Run with: `cargo run --example numa_profile`
//! (`tests/case_studies.rs` pins what it reports).

use std::sync::Arc;

use inspector::prelude::*;

/// Runs the sharded workload under INSPECTOR and returns the run's report.
pub fn run_sharded_workload() -> RunReport {
    const WORKERS: usize = 4;
    const PER_WORKER_PAGES: usize = 4;

    let session = InspectorSession::new(SessionConfig::inspector());
    // Each worker owns a private shard; all workers also update one shared
    // statistics page.
    let shard_bytes = (PER_WORKER_PAGES * 4096) as u64;
    let shards: Vec<_> = (0..WORKERS)
        .map(|w| session.map_region(format!("shard-{w}"), shard_bytes).base())
        .collect();
    let stats_page = session.map_region("global-stats", 8).base();
    let lock = Arc::new(InspMutex::new());

    session.run(move |ctx| {
        let mut handles = Vec::new();
        for (w, &shard) in shards.iter().enumerate() {
            let lock = Arc::clone(&lock);
            handles.push(ctx.spawn(move |ctx| {
                // Touch every page of the worker's own shard many times.
                for round in 0..8u64 {
                    for p in 0..PER_WORKER_PAGES as u64 {
                        let addr = shard.add(p * 4096);
                        let v = ctx.read_u64(addr);
                        ctx.write_u64(addr, v + round + w as u64);
                    }
                    ctx.branch(round % 2 == 0);
                }
                // And bump the shared statistics counter.
                lock.lock(ctx);
                let v = ctx.read_u64(stats_page);
                ctx.write_u64(stats_page, v + 1);
                lock.unlock(ctx);
            }));
        }
        for h in handles {
            ctx.join(h);
        }
    })
}

fn main() {
    let report = run_sharded_workload();
    let query = ProvenanceQuery::new(&report.cpg);
    let summary = query.page_summary();

    println!(
        "{:<12}{:>10}{:>10}   placement recommendation",
        "page", "readers", "writers"
    );
    for (page, access) in &summary {
        let mut threads: std::collections::BTreeSet<ThreadId> =
            access.readers.keys().copied().collect();
        threads.extend(access.writers.keys().copied());
        let recommendation = if threads.len() == 1 {
            format!("bind to node of {}", threads.iter().next().unwrap())
        } else {
            format!("shared by {} threads — interleave", threads.len())
        };
        println!(
            "{:<12}{:>10}{:>10}   {}",
            page.number(),
            access.readers.len(),
            access.writers.len(),
            recommendation
        );
    }
    println!();
    println!(
        "{} of {} touched pages are thread-private",
        summary.len() - query.shared_pages().len(),
        summary.len()
    );
}
