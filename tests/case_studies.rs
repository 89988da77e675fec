//! The paper's three case studies (§VIII), pinned over the example
//! programs themselves: each example is compiled in as a module, its traced
//! run is executed, and what the example reports is checked. The queries
//! here — slices, unordered conflicts, taint and the page summary — are the
//! first traversals of each sealed graph, so they also cover the indexes
//! the graph builds on first use.

use std::collections::BTreeSet;

use inspector::prelude::*;

#[path = "../examples/debugging.rs"]
#[allow(dead_code)]
mod debugging;

#[path = "../examples/dift_taint.rs"]
#[allow(dead_code)]
mod dift_taint;

#[path = "../examples/numa_profile.rs"]
#[allow(dead_code)]
mod numa_profile;

#[test]
fn debugging_reports_the_unlocked_update_racing_both_locked_ones() {
    let (_session, report, total) = debugging::run_buggy_program();
    let query = ProvenanceQuery::new(&report.cpg);
    let page = PageId::new(total.raw() / 4096);
    assert_eq!(page.number(), 131_073);

    let conflicts: Vec<(String, String, Vec<u64>)> = query
        .unordered_conflicts()
        .into_iter()
        .map(|(a, b, pages)| {
            let pages = pages.iter().map(|p| p.number()).collect();
            (a.to_string(), b.to_string(), pages)
        })
        .collect();
    let expected = |a: &str, b: &str| (a.to_string(), b.to_string(), vec![131_073]);
    assert_eq!(
        conflicts,
        [expected("T1.2", "T3.1"), expected("T2.2", "T3.1")]
    );

    // The backward data slice of the page's last writers is the three
    // updates, and nothing reaches the racing one along synchronization.
    let explained: Vec<String> = query
        .explain_page(page)
        .iter()
        .map(|s| s.to_string())
        .collect();
    assert_eq!(explained, ["T1.2", "T2.2", "T3.1"]);
    let racer = query.writers_of(page).last().expect("three writers");
    let ordered = query.backward_slice(racer, EdgeFilter::ORDER_ONLY);
    assert!(query
        .writers_of(page)
        .all(|w| w == racer || !ordered.contains(w)));
}

#[test]
fn dift_taint_blocks_the_report_buffer_and_allows_the_public_one() {
    let (report, tracker, outputs) = dift_taint::run_with_policy();
    let decisions: Vec<(&str, bool)> = outputs
        .iter()
        .map(|&(name, page)| (name, tracker.check_output(&report.cpg, &[page]).is_ok()))
        .collect();
    assert_eq!(
        decisions,
        [("report-buffer", false), ("public-buffer", true)]
    );

    let taint = tracker.propagate(&report.cpg);
    let query = ProvenanceQuery::new(&report.cpg);
    let leaky_writers: Vec<SubId> = query.writers_of(outputs[0].1).collect();
    assert!(!leaky_writers.is_empty());
    for writer in leaky_writers {
        let labels: Vec<TaintLabel> = taint.labels_of_sub(writer).collect();
        assert_eq!(labels, [TaintLabel(1)], "{writer}");
    }
    assert!(!taint.page_is_tainted(outputs[1].1));
}

#[test]
fn numa_profile_finds_sixteen_of_seventeen_pages_thread_private() {
    let report = numa_profile::run_sharded_workload();
    let query = ProvenanceQuery::new(&report.cpg);
    let summary = query.page_summary();
    let shared = query.shared_pages();
    assert_eq!((summary.len() - shared.len(), summary.len()), (16, 17));
    // The one shared page is the statistics counter every worker bumps.
    let [stats] = shared[..] else {
        panic!("one shared page: {shared:?}")
    };
    let access = &summary[&stats];
    let threads: BTreeSet<ThreadId> = access
        .readers
        .keys()
        .chain(access.writers.keys())
        .copied()
        .collect();
    assert_eq!(threads.len(), 4);
}
