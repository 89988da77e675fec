//! Quickstart: record provenance for a small multithreaded program and
//! explore the resulting Concurrent Provenance Graph.
//!
//! This is the paper's Figure 1 example, slightly enlarged: two threads
//! update shared variables `x` and `y` under a lock; the CPG shows the
//! control, synchronization and data dependencies between their
//! sub-computations.
//!
//! Run with: `cargo run --example quickstart`

use std::sync::Arc;

use inspector::prelude::*;

fn main() {
    let session = InspectorSession::new(SessionConfig::inspector());
    // Shared variables x and y, placed on separate pages to make the data
    // flow easy to see in the output.
    let x = session.map_region("x", 8).base();
    let y = session.map_region("y", 8).base();
    session.image().write_u64_direct(y, 1);

    let lock = Arc::new(InspMutex::new());

    let report = session.run(move |ctx| {
        let lock_t1 = Arc::clone(&lock);
        let lock_t2 = Arc::clone(&lock);

        // Thread 1: x = ++y, later y = y / 2 (the T1.a / T1.b of Figure 1).
        let t1 = ctx.spawn(move |ctx| {
            lock_t1.lock(ctx);
            let flag = ctx.read_u64(y) == 0;
            ctx.branch(flag);
            let new_y = ctx.read_u64(y) + 1;
            ctx.write_u64(y, new_y);
            ctx.write_u64(x, if flag { new_y } else { new_y + 5 });
            lock_t1.unlock(ctx);

            lock_t1.lock(ctx);
            let v = ctx.read_u64(y);
            ctx.write_u64(y, v / 2);
            lock_t1.unlock(ctx);
        });

        // Thread 2: y = 2 * x (the T2.a of Figure 1).
        let t2 = ctx.spawn(move |ctx| {
            lock_t2.lock(ctx);
            let v = ctx.read_u64(x);
            ctx.write_u64(y, 2 * v);
            lock_t2.unlock(ctx);
        });

        ctx.join(t1);
        ctx.join(t2);
    });

    println!("final x = {}", session.image().read_u64_direct(x));
    println!("final y = {}", session.image().read_u64_direct(y));
    println!();

    let stats = report.cpg.stats();
    println!("Concurrent Provenance Graph:");
    println!("  sub-computations : {}", stats.nodes);
    println!("  threads          : {}", stats.threads);
    println!("  control edges    : {}", stats.control_edges);
    println!("  sync edges       : {}", stats.sync_edges);
    println!("  data edges       : {}", stats.data_edges);
    println!("  branches traced  : {}", stats.branches);
    println!();

    // Explain how the final value of y came to be: the backward data slice
    // rooted at y's last writers.
    let query = ProvenanceQuery::new(&report.cpg);
    let y_page = PageId::new(y.raw() / 4096);
    println!("provenance of y (page {y_page}):");
    for sub in query.explain_page(y_page).iter() {
        let node = report.cpg.node(sub).expect("node in graph");
        println!(
            "  {sub}  reads {:?}  writes {:?}",
            node.read_set.iter().map(|p| p.number()).collect::<Vec<_>>(),
            node.write_set
                .iter()
                .map(|p| p.number())
                .collect::<Vec<_>>(),
        );
    }
    println!();
    println!(
        "provenance log: {} bytes ({}x compressible)",
        report.space.log_bytes, report.space.compression_ratio as u64
    );
}
