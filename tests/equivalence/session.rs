//! The real-session case of the equivalence harness: the graph an
//! [`InspectorSession`] run seals must equal its own batch rebuild.

use std::sync::Arc;

use inspector::core::testing::rebatch;
use inspector::prelude::*;

use crate::equivalence::assert_identical;

/// Runs `workers` app threads that each write a staging page of their own
/// and bump a lock-protected counter, 12 times over, in a session with
/// `pool` ingest workers and spill threshold `threshold`. Checks that the
/// sealed graph holds every recorded sub-computation and equals its own
/// batch rebuild, that the counter is right, that the configuration took
/// effect and that nothing was lost. Returns the report and a label for
/// its assertions.
pub fn run_counter_session(workers: u64, pool: usize, threshold: usize) -> (RunReport, String) {
    let context = format!("workers={workers}/pool={pool}/spill={threshold}");
    let session = InspectorSession::new(
        SessionConfig::inspector()
            .with_ingest_threads(pool)
            .with_spill_threshold(threshold),
    );
    let counter = session.map_region("counter", 8).base();
    let staging = session.map_region("staging", 4096 * 8).base();
    let lock = Arc::new(InspMutex::new());
    let report = session.run(move |ctx| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let lock = Arc::clone(&lock);
                ctx.spawn(move |ctx| {
                    for i in 0..12u64 {
                        ctx.branch(i % 2 == 0);
                        ctx.write_u64(staging.add(w * 4096), i);
                        lock.lock(ctx);
                        let v = ctx.read_u64(counter);
                        ctx.write_u64(counter, v + 1);
                        lock.unlock(ctx);
                    }
                })
            })
            .collect();
        handles.into_iter().for_each(|h| ctx.join(h));
    });
    let s = &report.stats;
    assert_identical(&report.cpg, &rebatch(&report.cpg), &context);
    // The rebuild cannot see a node that never reached the graph; the
    // recorder's count can.
    let nodes = report.cpg.node_count() as u64;
    assert_eq!(nodes, s.recorder.subcomputations, "{context}: {s:?}");
    assert_eq!(session.image().read_u64_direct(counter), 12 * workers);
    assert_eq!(s.ingest_workers, pool, "{context}");
    assert_eq!(s.spilled_subs > 0, threshold > 0, "{context}: {s:?}");
    assert_eq!(s.spill_bytes > 0, threshold > 0, "{context}: {s:?}");
    assert!(!s.degraded, "{context}: {s:?}");
    assert_eq!(s.decoded_branches, s.pt.branches, "{context}: {s:?}");
    assert_eq!(s.decode_errors + s.decode_mismatches, 0, "{context}");
    (report, context)
}
