//! Case study 1 (paper §VIII, *Dependability*): using provenance to debug a
//! multithreaded program.
//!
//! The program has an intentional synchronization bug: one worker updates a
//! shared accumulator without taking the lock. Ordinary debugging shows
//! *what* the final value is; the CPG shows *why* — the backward slice of
//! the corrupted page lists exactly which sub-computations touched it, and
//! the unordered-conflict query pinpoints the pair of sub-computations that
//! raced.
//!
//! Run with: `cargo run --example debugging`
//! (`tests/case_studies.rs` pins what it reports).

use std::sync::Arc;

use inspector::prelude::*;

/// Runs the buggy program under INSPECTOR. Returns the session, whose
/// memory image holds the final total, the run's report and the address of
/// the accumulator.
pub fn run_buggy_program() -> (InspectorSession, RunReport, VirtAddr) {
    let session = InspectorSession::new(SessionConfig::inspector());
    let total = session.map_region("total", 8).base();
    let scratch = session.map_region("scratch", 8).base();
    let lock = Arc::new(InspMutex::new());

    let report = session.run(move |ctx| {
        let mut handles = Vec::new();
        for worker in 0..3u64 {
            let lock = Arc::clone(&lock);
            handles.push(ctx.spawn(move |ctx| {
                // Each worker adds its contribution to the shared total.
                // Worker 2 "forgets" the lock — the classic lost-update bug.
                let contribution = (worker + 1) * 10;
                if worker == 2 {
                    let v = ctx.read_u64(total);
                    ctx.write_u64(scratch, v); // unrelated red herring
                    ctx.write_u64(total, v + contribution);
                } else {
                    lock.lock(ctx);
                    let v = ctx.read_u64(total);
                    ctx.write_u64(total, v + contribution);
                    lock.unlock(ctx);
                }
            }));
        }
        for h in handles {
            ctx.join(h);
        }
    });
    (session, report, total)
}

fn main() {
    let (session, report, total) = run_buggy_program();
    let final_total = session.image().read_u64_direct(total);
    println!("final total = {final_total} (expected 60 if fully synchronized)");
    println!();

    let query = ProvenanceQuery::new(&report.cpg);
    let total_page = PageId::new(total.raw() / 4096);

    println!("who touched the accumulator page?");
    for sub in query.writers_of(total_page) {
        println!("  writer: {sub}");
    }
    for sub in query.readers_of(total_page) {
        println!("  reader: {sub}");
    }
    println!();

    let explanation = query.explain_page(total_page);
    println!(
        "why does it have this value? (backward data slice of the last writers, {} sub-computations)",
        explanation.len()
    );
    for sub in explanation.iter() {
        println!("  {sub}");
    }
    println!();

    println!("unordered conflicting accesses (potential data races):");
    let conflicts = query.unordered_conflicts();
    if conflicts.is_empty() {
        println!("  none — the execution was fully ordered by synchronization");
    }
    for (a, b, pages) in conflicts {
        let pages: Vec<u64> = pages.iter().map(|p| p.number()).collect();
        println!("  {a} <-> {b} on pages {pages:?}");
    }
}
