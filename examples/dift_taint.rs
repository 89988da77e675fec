//! Case study 2 (paper §VIII, *Security*): Dynamic Information Flow Tracking
//! (DIFT) on top of the provenance graph.
//!
//! A sensitive input file is mapped into the traced program; one worker
//! derives a report from it, another produces an independent public value.
//! Before "sending" each output buffer, a policy checker asks the taint
//! tracker whether the buffer (transitively) depends on the sensitive input
//! — the leaky output is rejected, the clean one is allowed.
//!
//! Run with: `cargo run --example dift_taint`
//! (`tests/case_studies.rs` pins what it reports).

use std::sync::Arc;

use inspector::prelude::*;

/// Runs the program under INSPECTOR and sets up its policy. Returns the
/// run's report, the tracker with every page of the sensitive input
/// tainted, and the two output buffers' pages by name, the leaky one first.
pub fn run_with_policy() -> (RunReport, TaintTracker, [(&'static str, PageId); 2]) {
    let session = InspectorSession::new(SessionConfig::inspector());

    // The sensitive input: a "credit card database".
    let secret: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
    let secret_region = session.map_input("cards.db", &secret);
    let secret_base = secret_region.base();

    // Two output buffers: a report derived from the secret and a public
    // counter that never touches it.
    let leaky_out = session.map_region("report-buffer", 8).base();
    let clean_out = session.map_region("public-buffer", 8).base();
    let lock = Arc::new(InspMutex::new());

    let report = session.run(move |ctx| {
        let lock2 = Arc::clone(&lock);
        let worker = ctx.spawn(move |ctx| {
            // Derive a "summary" of the sensitive data.
            let mut sum = 0u64;
            for i in 0..512 {
                sum += ctx.read_u8(secret_base.add(i)) as u64;
            }
            lock2.lock(ctx);
            ctx.write_u64(leaky_out, sum);
            lock2.unlock(ctx);
        });
        // Independent public computation.
        lock.lock(ctx);
        ctx.write_u64(clean_out, 42);
        lock.unlock(ctx);
        ctx.join(worker);
    });

    // Taint every page of the mapped input file. The conservative policy
    // (taint follows intra-thread control flow) is needed because the
    // summary value crosses the lock acquisition in a register, invisible to
    // page-granularity tracking.
    let mut tracker = TaintTracker::new().with_control_flow(true);
    let first_page = PageId::new(secret_base.raw() / 4096);
    tracker.taint_page_range(first_page, secret_region.page_count() as u64, TaintLabel(1));
    let page = |addr: VirtAddr| PageId::new(addr.raw() / 4096);
    let outputs = [
        ("report-buffer", page(leaky_out)),
        ("public-buffer", page(clean_out)),
    ];
    (report, tracker, outputs)
}

fn main() {
    let (report, tracker, outputs) = run_with_policy();
    let taint = tracker.propagate(&report.cpg);
    println!(
        "taint propagation: {} tainted sub-computations, {} tainted pages",
        taint.tainted_sub_count(),
        taint.tainted_pages.len()
    );
    // Which sub-computations wrote the report buffer, and what they carry.
    let query = ProvenanceQuery::new(&report.cpg);
    let leaky_page = outputs[0].1;
    for writer in query.writers_of(leaky_page) {
        let labels: Vec<TaintLabel> = taint.labels_of_sub(writer).collect();
        println!("  report-buffer writer {writer} carries {labels:?}");
    }
    println!();

    // Policy check at the output system call.
    for (name, page) in outputs {
        match tracker.check_output(&report.cpg, &[page]) {
            Ok(()) => println!("ALLOW  write({name}) — no sensitive data reaches it"),
            Err(violation) => println!("BLOCK  write({name}) — {violation}"),
        }
    }
}
