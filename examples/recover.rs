//! Offline crash recovery: rebuild the maximal consistent-prefix CPG from
//! a (possibly crashed) session's spill directory.
//!
//! With an argument, recovers that directory and prints the report:
//!
//! ```text
//! cargo run --example recover -- /path/to/inspector-spill-1234-0
//! ```
//!
//! Without arguments it is a self-contained demo: it records a spilling
//! session that "crashes" mid-append (via the deterministic fault plan's
//! `crash_at_spill` trigger — the on-disk image ends in a torn record,
//! exactly as a killed process would leave it), then recovers the
//! directory and shows what survived.

use inspector::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (dir, cleanup) = match args.first() {
        Some(path) => (std::path::PathBuf::from(path), false),
        None => (demo_crashed_session(), true),
    };

    println!("recovering {}", dir.display());
    let recovery = recover_session(&dir).expect("recovery I/O failed");
    print_report(&recovery);

    if cleanup {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Records a two-thread spilling run that simulates a crash after 40
/// spilled records, returning the surviving spill directory.
fn demo_crashed_session() -> std::path::PathBuf {
    let config = SessionConfig::inspector()
        .with_spill_threshold(16)
        .with_spill_durability(SpillDurability::Flush)
        .with_fault_plan(FaultPlan {
            crash_at_spill: 40,
            ..FaultPlan::default()
        });
    let session = InspectorSession::new(config);
    let region = session.map_region("demo", 1 << 16).base();
    let report = session.run(move |ctx| {
        let lock = std::sync::Arc::new(InspMutex::new());
        let workers: Vec<_> = (0..2)
            .map(|w| {
                let lock = std::sync::Arc::clone(&lock);
                ctx.spawn(move |ctx| {
                    for i in 0..200u64 {
                        let slot = region.add((w * 256 + (i % 32)) * 8);
                        // Each lock/unlock pair closes a sub-computation,
                        // so the shards fill up and spill as they would in
                        // a long-running traced program.
                        lock.lock(ctx);
                        let v = ctx.read_u64(slot);
                        ctx.write_u64(slot, v + i);
                        ctx.branch(i % 3 == 0);
                        lock.unlock(ctx);
                    }
                })
            })
            .collect();
        for w in workers {
            ctx.join(w);
        }
    });
    println!(
        "demo session sealed: {} nodes, degraded={} (spill_fallbacks={})",
        report.cpg.node_count(),
        report.stats.degraded,
        report.stats.spill_fallbacks
    );
    session
        .spill_directory()
        .expect("spilling session has a directory")
}

fn print_report(recovery: &Recovery) {
    let r = &recovery.report;
    println!();
    println!("recovered graph:");
    println!("  nodes             : {}", recovery.cpg.node_count());
    println!("  edges             : {}", recovery.cpg.edge_count());
    println!("  threads           : {}", recovery.cpg.threads().len());
    println!();
    println!("recovery report:");
    println!("  manifest found    : {}", r.manifest_found);
    println!("  manifest clean    : {}", r.manifest_clean);
    println!("  session id        : {:#x}", r.session_id);
    println!("  durable frontier  : {:?}", r.durable_frontier);
    println!("  consistent cut    : {:?}", r.consistent_frontier);
    println!("  recovered nodes   : {}", r.recovered_nodes);
    println!("  excluded nodes    : {}", r.excluded_nodes);
    println!();
    println!("byte accounting (total = headers + recovered + lost):");
    println!("  total bytes       : {}", r.total_bytes);
    println!("  header bytes      : {}", r.header_bytes);
    println!("  recovered bytes   : {}", r.recovered_bytes);
    println!("  lost bytes        : {}", r.lost_bytes);
    println!("    torn records    : {}", r.torn_records);
    println!("    crc failures    : {}", r.crc_failures);
    println!("    decode failures : {}", r.decode_failures);
    println!("    bad headers     : {}", r.bad_headers);
    println!("    unmanifested    : {}", r.unmanifested_bytes);
    println!("  missing segments  : {}", r.missing_segments);
    println!("  missing bytes     : {}", r.missing_bytes);
    println!();
    println!("degraded: {}", r.degraded());
}
