//! End-to-end integration tests: full pipeline from application execution
//! through the threading library, memory tracking and PT tracing to the CPG
//! and its queries.

use std::path::Path;
use std::sync::Arc;

use inspector::core::testing::TempDir;
use inspector::prelude::*;
use inspector::pt::branch::BranchEvent;
use inspector::pt::decode::PacketDecoder;

/// The paper's Figure 1 program: two threads updating x and y under a lock.
fn run_figure1() -> (RunReport, u64, u64) {
    let session = InspectorSession::new(SessionConfig::inspector());
    let x = session.map_region("x", 8).base();
    let y = session.map_region("y", 8).base();
    let lock = Arc::new(InspMutex::new());

    let report = session.run(move |ctx| {
        let l1 = Arc::clone(&lock);
        let l2 = Arc::clone(&lock);
        let t1 = ctx.spawn(move |ctx| {
            l1.lock(ctx);
            let flag = ctx.read_u64(y) == 0;
            ctx.branch(flag);
            let ny = ctx.read_u64(y) + 1;
            ctx.write_u64(y, ny);
            ctx.write_u64(x, if flag { ny } else { ny + 5 });
            l1.unlock(ctx);
            l1.lock(ctx);
            let v = ctx.read_u64(y);
            ctx.write_u64(y, v / 2);
            l1.unlock(ctx);
        });
        let t2 = ctx.spawn(move |ctx| {
            l2.lock(ctx);
            let v = ctx.read_u64(x);
            ctx.write_u64(y, 2 * v);
            l2.unlock(ctx);
        });
        ctx.join(t1);
        ctx.join(t2);
    });
    let fx = session.image().read_u64_direct(x);
    let fy = session.image().read_u64_direct(y);
    (report, fx, fy)
}

#[test]
fn figure1_program_produces_complete_cpg() {
    let (report, x, y) = run_figure1();
    // Whatever the interleaving, x was written exactly once by T1.a.
    assert!(x == 1 || x == 6, "unexpected x = {x}");
    let _ = y;
    let stats = report.cpg.stats();
    assert_eq!(stats.threads, 3);
    assert!(stats.control_edges > 0);
    assert!(stats.sync_edges > 0);
    assert!(stats.data_edges > 0);
    report.cpg.validate().expect("CPG invariants");
}

#[test]
fn schedule_respects_happens_before_for_every_pair() {
    let (report, _, _) = run_figure1();
    let query = ProvenanceQuery::new(&report.cpg);
    let schedule = query.schedule();
    let position: std::collections::HashMap<_, _> =
        schedule.iter().enumerate().map(|(i, &s)| (s, i)).collect();
    for a in report.cpg.nodes() {
        for b in report.cpg.nodes() {
            if a.happens_before(b) {
                assert!(position[&a.id] < position[&b.id]);
            }
        }
    }
}

#[test]
fn pt_log_decodes_to_the_recorded_branch_count() {
    let session = InspectorSession::new(SessionConfig::inspector());
    let report = session.run(|ctx| {
        ctx.set_pc(0x1000);
        for i in 0..5_000u64 {
            ctx.branch(i % 2 == 0);
        }
        ctx.call(0x2000);
    });
    assert_eq!(report.stats.pt.branches, 5_001);
    // The session's provenance log decodes back to exactly the recorded
    // branch events; the trace's start and stop markers are not branches.
    let events = PacketDecoder::new(&session.provenance_log())
        .decode_events()
        .unwrap();
    let branches = events
        .iter()
        .filter(|e| {
            matches!(
                e,
                BranchEvent::Conditional { .. }
                    | BranchEvent::Indirect { .. }
                    | BranchEvent::Return { .. }
            )
        })
        .count();
    assert_eq!(branches, 5_001);
    // Every encoded byte reached the session, once.
    assert_eq!(report.space.log_bytes, report.stats.pt.trace_bytes);
}

#[test]
fn native_and_inspector_compute_identical_results_for_all_workloads() {
    for workload in all_workloads() {
        // streamcluster's result is interleaving-dependent by design (as in
        // the original benchmark), so it is checked only for invariants.
        if workload.name() == "streamcluster" {
            continue;
        }
        let native = workload.execute(SessionConfig::native(), 2, InputSize::Tiny);
        let tracked = workload.execute(SessionConfig::inspector(), 2, InputSize::Tiny);
        assert_eq!(
            native.checksum,
            tracked.checksum,
            "workload {} diverged between native and INSPECTOR runs",
            workload.name()
        );
    }
}

/// The pipeline configurations every workload runs under: the preset; a
/// single ingest worker with spilling on; an AUX
/// overflow on every thread plus a spill device that never takes a write;
/// and a crash that tears the sixth spilled record under the `flush` tier.
fn pipeline_configurations(spill_dir: &Path) -> [(&'static str, SessionConfig); 4] {
    let spilling = SessionConfig::inspector().with_spill_dir(spill_dir);
    [
        ("default", SessionConfig::inspector()),
        (
            "spill",
            spilling
                .clone()
                .with_ingest_threads(1)
                .with_spill_threshold(4),
        ),
        (
            "faults",
            spilling
                .clone()
                .with_ingest_threads(4)
                .with_spill_threshold(4)
                .with_fault_plan(FaultPlan {
                    overflow_bytes: 256,
                    fail_spill_write: 1,
                    ..FaultPlan::default()
                }),
        ),
        (
            "crash",
            spilling
                .with_ingest_threads(4)
                .with_spill_threshold(2)
                .with_spill_durability(SpillDurability::Flush)
                .with_fault_plan(FaultPlan {
                    crash_at_spill: 5,
                    ..FaultPlan::default()
                }),
        ),
    ]
}

#[test]
fn every_workload_produces_a_valid_graph_with_all_edge_kinds() {
    // Degraded runs keep their spill directories; the guard removes them.
    let tmp = TempDir::new("end-to-end");
    for (name, config) in pipeline_configurations(tmp.path()) {
        for workload in all_workloads() {
            let context = format!("{name}/{}", workload.name());
            let result = workload.execute(config.clone(), 2, InputSize::Tiny);
            let cpg = &result.report.cpg;
            cpg.validate()
                .unwrap_or_else(|e| panic!("{context}: invalid CPG: {e}"));
            let stats = cpg.stats();
            assert!(stats.nodes > 0, "{context}: empty CPG");
            assert!(stats.control_edges > 0, "{context}: no control edges");
            assert!(stats.sync_edges > 0, "{context}: no sync edges");
            assert!(stats.data_edges > 0, "{context}: no data edges");

            let s = &result.report.stats;
            assert!(s.pt.branches > 0, "{context}: no branches traced");
            // The configuration took effect.
            let plan = config.fault_plan;
            assert_eq!(s.ingest_workers, config.ingest_threads, "{context}");
            assert!(s.decoded_branches > 0, "{context}: {s:?}");
            if config.spill_threshold > 0 && plan.is_empty() {
                assert!(s.spilled_subs > 0, "{context}: {s:?}");
            }
            if plan.fail_spill_write > 0 || plan.crash_at_spill > 0 {
                assert!(s.spill_fallbacks > 0, "{context}: {s:?}");
            }
            assert_eq!(s.degraded, !plan.is_empty(), "{context}: {s:?}");
            let health = [
                s.gaps,
                s.lost_bytes,
                s.decode_errors,
                s.decode_degraded,
                s.spill_fallbacks,
                s.worker_failures,
            ];
            assert_eq!(
                s.degraded,
                health.iter().any(|&h| h != 0),
                "{context}: {s:?}"
            );
            // Every run checks its PT stream after the fact. The check is
            // exact when nothing was lost, and a loss is never silent.
            if s.gaps == 0 && s.lost_bytes == 0 {
                // Every encoded byte reached the session's logs, once.
                let log_bytes = result.report.space.log_bytes;
                assert_eq!(log_bytes, s.pt.trace_bytes, "{context}: {s:?}");
                assert_eq!(s.decode_errors, 0, "{context}: {s:?}");
                assert_eq!(s.decode_mismatches, 0, "{context}: {s:?}");
                assert_eq!(s.decoded_branches, s.pt.branches, "{context}: {s:?}");
            } else {
                assert!(s.decode_degraded > 0, "{context}: {s:?}");
            }
        }
    }
}

#[test]
fn decoded_aux_stream_matches_conditional_branch_count() {
    // Drive a run with a known number of conditional branches and decode the
    // threads' kept PT logs end to end.
    let session = InspectorSession::new(SessionConfig::inspector());
    let branches = 2_000u64;
    let report = session.run(|ctx| {
        for i in 0..branches {
            ctx.branch(i % 7 == 0);
        }
    });
    let log = session.provenance_log();
    assert_eq!(log.len() as u64, report.space.log_bytes);
    let events = PacketDecoder::new(&log).decode_events().unwrap();
    let conditionals = events
        .iter()
        .filter(|e| matches!(e, BranchEvent::Conditional { .. }))
        .count() as u64;
    assert_eq!(conditionals, branches);
}
