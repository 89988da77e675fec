//! Property suite for the fault-tolerance layer: for any random schedule ×
//! deterministic fault plan (AUX overflow episodes, byte corruption, spill
//! write failures, ingest-worker death), the session must
//!
//! 1. **terminate** — no deadlock, no abort; a dead worker surfaces as a
//!    structured [`SessionError`] with the partial report attached,
//! 2. keep the graph **sound over the surviving prefix** — the sealed CPG
//!    equals the batch oracle rebuilt from its own per-thread sequences,
//! 3. **account every loss** — `RunStats::{gaps, lost_bytes,
//!    decode_degraded, spill_fallbacks, worker_failures}` add up, and
//!    `RunStats::degraded` is set exactly when some health field is nonzero,
//!
//! and with the **empty plan** every health field stays zero while the
//! existing equivalence properties keep holding (the fault hooks are
//! invisible unless armed).

use std::sync::Arc;

use inspector::core::testing::{edge_fingerprint, rebatch, Rng, TempDir};
use inspector::prelude::*;
use inspector::pt::{BranchEvent, PacketDecoder};
use inspector::runtime::RunStats;
use proptest::prelude::*;

/// Expands a seed into a random session shape: worker count, iterations,
/// branch density — every thread branches so every thread ships AUX data.
struct Shape {
    workers: u64,
    iterations: u64,
}

fn random_shape(rng: &mut Rng) -> Shape {
    Shape {
        workers: 1 + rng.below(3),     // 1..=3
        iterations: 5 + rng.below(16), // 5..=20
    }
}

/// Runs the shaped workload on `session` (mutex-contended counter
/// increments plus per-thread branches) and returns `try_run`'s outcome.
fn run_shaped(
    session: &InspectorSession,
    shape: &Shape,
) -> Result<RunReport, inspector::runtime::SessionError> {
    let region = session.map_region("counter", 8);
    let base = region.base();
    let lock = Arc::new(InspMutex::new());
    let workers = shape.workers;
    let iterations = shape.iterations;
    session.try_run(move |ctx| {
        let mut handles = Vec::new();
        for w in 0..workers {
            let lock = Arc::clone(&lock);
            handles.push(ctx.spawn(move |ctx| {
                for i in 0..iterations {
                    ctx.branch((i + w) % 2 == 0);
                    lock.lock(ctx);
                    let v = ctx.read_u64(base);
                    ctx.write_u64(base, v + 1);
                    lock.unlock(ctx);
                }
            }));
        }
        for i in 0..iterations {
            ctx.branch(i % 3 == 0);
        }
        for h in handles {
            ctx.join(h);
        }
    })
}

/// The degraded bit is exactly the disjunction of the health fields.
fn degraded_bit_is_consistent(s: &RunStats) -> bool {
    s.degraded
        == (s.gaps != 0
            || s.lost_bytes != 0
            || s.decode_errors != 0
            || s.decode_degraded != 0
            || s.spill_fallbacks != 0
            || s.worker_failures != 0)
}

proptest! {
    #[test]
    fn any_fault_plan_terminates_with_sound_prefix_and_accounting(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let shape = random_shape(&mut rng);

        // Random fault plan: each dimension independently armed or off.
        let overflow_bytes = [0u64, 0, 64, 1024][rng.below(4) as usize];
        let corrupt_aux_at = [0u64, 0, 3, 40][rng.below(4) as usize];
        let fail_spill_write = [0u64, 0, 1][rng.below(3) as usize];
        let panic_worker = [0u64, 0, 1, 2][rng.below(4) as usize];
        let panic_at_batch = [1, 1, 2, 5][rng.below(4) as usize];
        let decode_online = rng.below(2) == 1;

        let plan = FaultPlan {
            corrupt_aux_at,
            overflow_bytes,
            fail_spill_write,
            panic_worker,
            panic_at_batch: if panic_worker > 0 { panic_at_batch } else { 0 },
            ..FaultPlan::default()
        };
        let mut config = SessionConfig::inspector()
            .with_decode_online(decode_online)
            .with_ingest_threads(1 + rng.below(2) as usize)
            .with_fault_plan(plan);
        // A degraded run keeps its spill directory; the guard removes it.
        let dir = TempDir::new("fault-tol");
        if fail_spill_write > 0 {
            config = config.with_spill_threshold(1).with_spill_dir(dir.path());
        }
        let lanes = config.ingest_threads as u64;

        let session = InspectorSession::new(config);
        // Property 1: this returns — a dead lane fails producers fast
        // instead of deadlocking them, surviving workers drain.
        let outcome = run_shaped(&session, &shape);

        let (report, failures) = match &outcome {
            Ok(report) => (report, 0u64),
            Err(err) => {
                prop_assert!(!err.failures.is_empty());
                prop_assert!(err.failures.iter().all(|f| f.message.contains("injected fault")));
                (err.report.as_ref(), err.failures.len() as u64)
            }
        };
        let s = &report.stats;

        // A worker can only die when the plan targets a live lane — and the
        // trigger fires for sure only when it sits on the lane's *first*
        // message (later trigger points may lie past the end of a short
        // run). Lane 0 always carries the main thread, so targeting it at
        // batch 1 is guaranteed death.
        let armed = panic_worker >= 1 && panic_worker <= lanes;
        if outcome.is_err() {
            prop_assert!(armed, "death without an armed lane: {:?} lanes {}", plan, lanes);
        }
        if armed && panic_worker == 1 && panic_at_batch == 1 {
            prop_assert!(outcome.is_err(), "plan {:?} lanes {}", plan, lanes);
        }
        let expect_death = outcome.is_err();
        prop_assert_eq!(s.worker_failures, failures);

        // Property 2: the graph over the surviving prefix equals the batch
        // oracle over the same prefix — faults lose suffixes, never edges
        // over what survived.
        prop_assert!(report.cpg.validate().is_ok());
        let reference = rebatch(&report.cpg);
        prop_assert_eq!(report.cpg.node_count(), reference.node_count());
        prop_assert_eq!(edge_fingerprint(&report.cpg), edge_fingerprint(&reference));

        // Property 3: loss accounting. Injected overflow is one episode of
        // `overflow_bytes` per reporting thread; threads whose Done was
        // lost with a dead worker drop out of the sums together with their
        // `threads` slot, so the per-thread relation still holds exactly.
        if overflow_bytes > 0 {
            prop_assert_eq!(s.gaps, s.threads as u64, "{:?}", s);
            prop_assert_eq!(s.lost_bytes, s.gaps * overflow_bytes, "{:?}", s);
        } else {
            prop_assert_eq!(s.gaps, 0, "{:?}", s);
            prop_assert_eq!(s.lost_bytes, 0, "{:?}", s);
        }
        // Lossy streams skip the cross-check into accounting; on a healthy
        // full run the decoded count must agree with the recorder.
        if decode_online && overflow_bytes > 0 && !expect_death {
            prop_assert!(s.decode_degraded > 0, "{:?}", s);
        }
        if decode_online && plan.is_empty() {
            prop_assert_eq!(s.decode_errors, 0, "{:?}", s);
            prop_assert_eq!(s.decode_mismatches, 0, "{:?}", s);
        }
        // A persistently failing spill device never lands a sub on disk —
        // the builder reverts to in-memory retention instead.
        if fail_spill_write > 0 {
            prop_assert_eq!(s.spilled_subs, 0, "{:?}", s);
        }
        prop_assert!(degraded_bit_is_consistent(s), "{:?}", s);
    }

    #[test]
    fn empty_plan_leaves_every_health_field_zero(seed in any::<u64>()) {
        let mut rng = Rng(seed ^ 0xFAB7);
        let shape = random_shape(&mut rng);
        let session = InspectorSession::new(
            SessionConfig::inspector().with_decode_online(true),
        );
        let report = run_shaped(&session, &shape).expect("no faults planned");
        let s = &report.stats;
        prop_assert!(!s.degraded, "{:?}", s);
        prop_assert_eq!(s.gaps, 0);
        prop_assert_eq!(s.lost_bytes, 0);
        prop_assert_eq!(s.decode_errors, 0);
        prop_assert_eq!(s.decode_mismatches, 0);
        prop_assert_eq!(s.decode_degraded, 0);
        prop_assert_eq!(s.spill_fallbacks, 0);
        prop_assert_eq!(s.worker_failures, 0);
        // The healthy cross-check actually ran and agreed.
        prop_assert_eq!(s.decoded_branches, s.pt.branches, "{:?}", s);
        // And the equivalence property is untouched by the hooks.
        let reference = rebatch(&report.cpg);
        prop_assert_eq!(edge_fingerprint(&report.cpg), edge_fingerprint(&reference));
        prop_assert!(report.cpg.validate().is_ok());
    }
}

// ---------------------------------------------------------------------------
// End-to-end AUX overflow: a *real* ring overflow (tiny full-trace ring, no
// injection), completing with loss accounted, not asserted away.
// ---------------------------------------------------------------------------

#[test]
fn tiny_ring_session_overflows_and_accounts_the_loss() {
    let mut config = SessionConfig::inspector().with_decode_online(true);
    config.aux_capacity = 256;
    let session = InspectorSession::new(config);
    let report = session.run(|ctx| {
        // No sync boundaries inside the loop: the ring only drains at the
        // final flush, so it must wrap — a genuine overflow episode.
        for i in 0..20_000u64 {
            ctx.branch(i % 2 == 0);
        }
    });
    let s = &report.stats;
    assert!(s.gaps > 0, "{s:?}");
    assert!(s.lost_bytes > 0, "{s:?}");
    // The producer-side counters flow to the report verbatim.
    assert_eq!(s.gaps, s.pt.gaps);
    assert_eq!(s.lost_bytes, s.pt.bytes_lost);
    // The lossy stream was cross-checked by accounting, not assertion.
    assert_eq!(s.decode_errors, 0, "OVF markers decode cleanly: {s:?}");
    assert_eq!(s.decode_mismatches, 0, "{s:?}");
    assert!(s.decode_degraded > 0, "{s:?}");
    assert!(s.degraded);
    // The graph over what was captured is intact.
    assert!(report.cpg.validate().is_ok());
}

#[test]
fn tiny_ring_session_decodes_exact_targets_after_the_gap() {
    // `RunStats::gaps` promises that what is decoded after a gap is exact —
    // for IP targets too, not just branch counts. Nearby call targets share
    // their upper bytes, so a post-gap target compressed against a dropped
    // one would decode to a different address.
    let mut config = SessionConfig::inspector();
    config.aux_capacity = 256;
    let session = InspectorSession::new(config);
    let targets: Vec<u64> = (0..8_232u64).map(|i| 0x5500_0c80_0000 + 8 * i).collect();
    let calls = targets.clone();
    let report = session.run(move |ctx| {
        // No sync boundaries: the periodic flushes overflow the ring, and
        // only the final one fits.
        for &target in &calls {
            ctx.call(target);
        }
    });
    assert!(report.stats.gaps > 0, "{:?}", report.stats);
    let events = PacketDecoder::new(&session.provenance_log())
        .decode_events()
        .expect("OVF markers decode cleanly");
    let gap = events
        .iter()
        .rposition(|e| *e == BranchEvent::Overflow)
        .expect("the log marks the gap");
    let decoded: Vec<u64> = events[gap..]
        .iter()
        .filter_map(|e| match *e {
            BranchEvent::Indirect { target } => Some(target),
            _ => None,
        })
        .collect();
    assert!(!decoded.is_empty(), "some calls follow the gap");
    assert_eq!(decoded, targets[targets.len() - decoded.len()..]);
}
