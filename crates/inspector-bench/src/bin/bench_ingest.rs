//! Records the streaming-ingest perf baseline into `BENCH_ingest.json`:
//! the `cpg_ingest` pool-size × shard-count × workload grid, the
//! `seal_latency` sweep (ns per sub-computation), the `pt_decode`
//! batch-vs-streaming decode throughput (MiB/s) plus the PSB-scan
//! comparison, and the `spill` threshold sweep (spill bandwidth + peak
//! resident window + process RSS high-water mark).
//!
//! Run `--quick` (or set `INSPECTOR_BENCH_QUICK=1`) for the CI smoke shape;
//! set `INSPECTOR_BENCH_OUT` to change the output path (default
//! `BENCH_ingest.json` in the current directory). The file is the perf
//! trajectory artefact: every PR's CI run uploads one, so regressions in
//! ingest throughput or seal latency show up as a diff.
//!
//! `--check <baseline.json>` additionally compares the freshly measured
//! numbers against a committed artefact and exits nonzero when any shared
//! metric regressed by more than 30% — the CI `bench-smoke` regression
//! gate. The comparison is skipped (exit 0, with a notice) when the
//! baseline was recorded on a machine with a different
//! `available_parallelism`, so multi-core runners do not flag noise against
//! the 1-core reference artefact.

use std::fmt::Write as _;

use inspector_bench::check::{compare, parse_metrics, CheckOutcome};
use inspector_bench::ingest_bench::{
    measure_batch_ns_per_sub, measure_decode_throughput, measure_durability_cell,
    measure_grid_cell, measure_index_residency, measure_pooled_build, measure_psb_scan_throughput,
    measure_spill_cell, peak_rss_kib, GridCell,
};
use inspector_core::spill::SpillDurability;
use inspector_core::testing::lock_heavy_sequences;
use inspector_runtime::sync::InspMutex;
use inspector_runtime::{InspectorSession, SessionConfig};

struct WorkloadSpec {
    name: &'static str,
    threads: u32,
    iterations: u64,
    read_pages: u64,
    write_pages: u64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick")
        || std::env::var("INSPECTOR_BENCH_QUICK")
            .map(|v| v == "1")
            .unwrap_or(false);
    let check_baseline = args
        .iter()
        .position(|a| a == "--check")
        .map(|i| args.get(i + 1).cloned().expect("--check needs a path"));
    // Read the baseline *before* any artefact is written: the default out
    // path is the baseline's own path, and a gate that compares a file
    // against itself always passes.
    let baseline = check_baseline.as_ref().map(|path| {
        let json =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
        (path.clone(), parse_metrics(&json))
    });
    let out_path =
        std::env::var("INSPECTOR_BENCH_OUT").unwrap_or_else(|_| "BENCH_ingest.json".into());
    // `--quick` narrows the *sweep* (fewer pools/shards/lengths/chunks and
    // fewer grid repeats) but never the *shape* of an individual
    // measurement: the regression gate compares quick runs against the
    // committed full baseline, and a cell is only comparable when it
    // measured the same workload at the same length. Best-of-2 is also too
    // noisy for the 30% gate on a loaded 1-core runner, so the cheap
    // sections keep best-of-5 even under --quick.
    let repeats = if quick { 3 } else { 5 };
    let cheap_repeats = 5;
    let iterations = 200;
    let pools: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4] };
    let shard_counts: &[usize] = if quick { &[8] } else { &[1, 4, 8] };

    // The lock-heavy shape is the acceptance baseline (it matches the
    // `cpg_ingest` micro-bench and the equivalence suite); `wide_pages`
    // stresses the page-striped write index instead of the release stripes.
    let workloads = [
        WorkloadSpec {
            name: "lock_heavy",
            threads: 8,
            iterations,
            read_pages: 32,
            write_pages: 16,
        },
        WorkloadSpec {
            name: "wide_pages",
            threads: 8,
            iterations,
            read_pages: 256,
            write_pages: 128,
        },
    ];

    // Pool speedups only materialise with real cores under the pool;
    // record the machine context so the artefact is interpretable (on a
    // 1-core container a 4-wide pool necessarily loses to 1 thread).
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"bench\": \"cpg_ingest + seal_latency + pt_decode + spill\","
    );
    let _ = writeln!(json, "  \"unit\": \"ns_per_subcomputation\",");
    let _ = writeln!(json, "  \"pt_decode_unit\": \"mib_per_sec\",");
    let _ = writeln!(json, "  \"available_parallelism\": {parallelism},");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"repeats\": {repeats},");
    json.push_str("  \"cpg_ingest\": [\n");

    for (wi, spec) in workloads.iter().enumerate() {
        let sequences = lock_heavy_sequences(
            spec.threads,
            spec.iterations,
            spec.read_pages,
            spec.write_pages,
        );
        let subs: usize = sequences.iter().map(|s| s.len()).sum();
        let batch = measure_batch_ns_per_sub(&sequences, repeats);
        eprintln!(
            "cpg_ingest/{}: {} threads, {} subs, batch {:.0} ns/sub",
            spec.name, spec.threads, subs, batch
        );
        let mut cells: Vec<GridCell> = Vec::new();
        for &pool in pools {
            for &shards in shard_counts {
                let cell = measure_grid_cell(&sequences, pool, shards, repeats);
                eprintln!(
                    "  pool={} shards={}: total {:.0} ns/sub, seal {:.0} ns/sub, \
                     data_resolved_at_seal={}",
                    pool,
                    shards,
                    cell.total_ns_per_sub,
                    cell.seal_ns_per_sub,
                    cell.data_resolved_at_seal
                );
                cells.push(cell);
            }
        }
        report_speedup(spec.name, &cells);

        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"workload\": \"{}\",", spec.name);
        let _ = writeln!(json, "      \"app_threads\": {},", spec.threads);
        let _ = writeln!(json, "      \"subcomputations\": {subs},");
        let _ = writeln!(json, "      \"batch_ns_per_sub\": {batch:.1},");
        json.push_str("      \"grid\": [\n");
        for (ci, cell) in cells.iter().enumerate() {
            let _ = writeln!(
                json,
                "        {{\"pool\": {}, \"shards\": {}, \"total_ns_per_sub\": {:.1}, \
                 \"seal_ns_per_sub\": {:.1}, \"data_resolved_at_seal\": {}}}{}",
                cell.pool,
                cell.shards,
                cell.total_ns_per_sub,
                cell.seal_ns_per_sub,
                cell.data_resolved_at_seal,
                if ci + 1 < cells.len() { "," } else { "" }
            );
        }
        json.push_str("      ]\n");
        let _ = writeln!(
            json,
            "    }}{}",
            if wi + 1 < workloads.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");

    // Seal latency vs run length under complete delivery: the per-sub seal
    // cost must stay (near-)flat because everything resolved at ingest and
    // the frontier GC keeps the indexes O(threads).
    json.push_str("  \"seal_latency\": [\n");
    // Quick sweeps a subset of the full lengths so both points stay
    // comparable under the gate.
    let lengths: &[u64] = if quick { &[50, 200] } else { &[50, 200, 800] };
    // The flatness gate below compares two minima against a 1.25x bound;
    // best-of-5 is too noisy for that on a loaded 1-core runner, and the
    // repeats are *interleaved across lengths* so environmental drift
    // (CPU steal, frequency) inflates every cell's affected repeat
    // equally instead of skewing whichever length happened to run during
    // the slow period — the minima then pair up fairly.
    let seal_repeats = 7;
    let seal_inputs: Vec<(
        u64,
        Vec<Vec<inspector_core::subcomputation::SubComputation>>,
        usize,
    )> = lengths
        .iter()
        .map(|&len| {
            let sequences = lock_heavy_sequences(4, len, 32, 16);
            let subs: usize = sequences.iter().map(|s| s.len()).sum();
            (len, sequences, subs)
        })
        .collect();
    let mut best_seal = vec![f64::MAX; seal_inputs.len()];
    let mut data_at_seal = vec![0u64; seal_inputs.len()];
    for _ in 0..seal_repeats {
        for (i, (_, sequences, subs)) in seal_inputs.iter().enumerate() {
            let build = measure_pooled_build(sequences, 1, 8);
            best_seal[i] = best_seal[i].min(build.seal_time.as_nanos() as f64 / *subs as f64);
            data_at_seal[i] = data_at_seal[i].max(build.stats.data_resolved_at_seal);
        }
    }
    let mut seal_by_length: Vec<(u64, f64)> = Vec::new();
    for (i, (len, _, subs)) in seal_inputs.iter().enumerate() {
        let best = best_seal[i];
        eprintln!(
            "seal_latency/{len} iters: {subs} subs, seal {best:.0} ns/sub, \
             data_resolved_at_seal={}",
            data_at_seal[i]
        );
        assert_eq!(
            data_at_seal[i], 0,
            "complete delivery must leave nothing for the seal"
        );
        seal_by_length.push((*len, best));
        let _ = writeln!(
            json,
            "    {{\"iterations\": {len}, \"subcomputations\": {subs}, \
             \"seal_ns_per_sub\": {best:.1}, \"data_resolved_at_seal\": {}}}{}",
            data_at_seal[i],
            if i + 1 < seal_inputs.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    // Flatness gates: with the frontier GC and the streaming seal (k-way
    // merge into the sorted node store, fused adjacency build, deferred
    // index teardown) the per-sub seal cost carries no event-proportional
    // term — 404 vs 1604 subs measures dead flat and must stay within
    // 1.25x. The 6404-sub cell additionally pays a constant-per-sub
    // LLC-capacity cost once the graph outgrows this container's cache
    // (~90 ns/sub here, stable across runs; it neither shrinks with
    // algorithmic work nor grows further at 12808 subs), so its gate is
    // 1.6x — still far below the ≈2.4x that reintroducing the old
    // O(events) index teardown would produce on today's faster base.
    let cell = |want: u64| {
        seal_by_length
            .iter()
            .find(|(l, _)| *l == want)
            .map(|&(_, ns)| ns)
    };
    if let (Some(short), Some(mid)) = (cell(50), cell(200)) {
        let ratio = mid / short.max(f64::MIN_POSITIVE);
        eprintln!("seal_latency flatness: 200-iter/50-iter = {ratio:.2}x");
        assert!(
            ratio <= 1.25,
            "seal ns/sub must stay flat over run length: {mid:.0} at 200 iters vs \
             {short:.0} at 50 iters ({ratio:.2}x > 1.25x)"
        );
    }
    if let (Some(short), Some(long)) = (cell(50), cell(800)) {
        let ratio = long / short.max(f64::MIN_POSITIVE);
        eprintln!("seal_latency flatness: 800-iter/50-iter = {ratio:.2}x");
        assert!(
            ratio <= 1.6,
            "seal ns/sub grew superlinearly: {long:.0} at 800 iters vs \
             {short:.0} at 50 iters ({ratio:.2}x > 1.6x)"
        );
    }

    // Index residency vs run length: the frontier GC keeps the live
    // release / page-write indexes O(threads) while the GC'd counters
    // absorb the O(events) bulk.
    json.push_str("  \"index_residency\": [\n");
    for (li, &len) in lengths.iter().enumerate() {
        let cell = measure_index_residency(4, len);
        eprintln!(
            "index_residency/{} rounds: {} subs, release live {} / gcd {}, \
             page live {} / gcd {}",
            cell.iterations,
            cell.subcomputations,
            cell.release_entries_live,
            cell.release_entries_gcd,
            cell.page_entries_live,
            cell.page_entries_gcd
        );
        let _ = writeln!(
            json,
            "    {{\"iterations\": {}, \"subcomputations\": {}, \
             \"release_entries_live\": {}, \"release_entries_gcd\": {}, \
             \"page_entries_live\": {}, \"page_entries_gcd\": {}}}{}",
            cell.iterations,
            cell.subcomputations,
            cell.release_entries_live,
            cell.release_entries_gcd,
            cell.page_entries_live,
            cell.page_entries_gcd,
            if li + 1 < lengths.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");

    // Decode-while-running throughput: the streaming decoder fed at AUX
    // chunk granularities vs the batch reference over the same stream, then
    // the PSB scan. Both row kinds live in the same `pt_decode` section; the
    // line scanner tells them apart by their distinguishing fields
    // (`chunk_bytes` vs `scan`).
    json.push_str("  \"pt_decode\": [\n");
    // Same stream length in both shapes — see the comparability note above.
    let decode_branches: u64 = 200_000;
    let chunk_sizes: &[usize] = if quick { &[4096] } else { &[512, 4096, 65536] };
    for &chunk in chunk_sizes {
        let t = measure_decode_throughput(decode_branches, chunk, cheap_repeats);
        eprintln!(
            "pt_decode/chunk{}: {} branches, {} bytes, batch {:.0} MiB/s, \
             streaming {:.0} MiB/s ({:.2e} branches/s)",
            chunk,
            t.branches,
            t.bytes,
            t.batch_mib_per_sec(),
            t.streaming_mib_per_sec(),
            t.streaming_branches_per_sec()
        );
        let _ = writeln!(
            json,
            "    {{\"chunk_bytes\": {}, \"bytes\": {}, \"branches\": {}, \
             \"batch_mib_per_sec\": {:.1}, \"streaming_mib_per_sec\": {:.1}, \
             \"streaming_branches_per_sec\": {:.0}}},",
            t.chunk_bytes,
            t.bytes,
            t.branches,
            t.batch_mib_per_sec(),
            t.streaming_mib_per_sec(),
            t.streaming_branches_per_sec(),
        );
    }
    // PSB-boundary scan: the swar word-at-a-time scan the streaming decoder
    // resynchronises with, against the byte-at-a-time reference.
    let scan = measure_psb_scan_throughput(decode_branches, cheap_repeats);
    eprintln!(
        "pt_decode/psb_scan: {} bytes, swar {:.0} MiB/s, naive {:.0} MiB/s ({:.2}x)",
        scan.bytes,
        scan.swar_mib_per_sec(),
        scan.naive_mib_per_sec(),
        scan.speedup()
    );
    assert!(
        scan.speedup() >= 4.0,
        "the swar PSB scan must hold a 4x advantage over the naive scan \
         (measured {:.2}x)",
        scan.speedup()
    );
    let _ = writeln!(
        json,
        "    {{\"scan\": \"swar\", \"bytes\": {}, \"scan_mib_per_sec\": {:.1}}},",
        scan.bytes,
        scan.swar_mib_per_sec()
    );
    let _ = writeln!(
        json,
        "    {{\"scan\": \"naive\", \"bytes\": {}, \"scan_mib_per_sec\": {:.1}}}",
        scan.bytes,
        scan.naive_mib_per_sec()
    );
    json.push_str("  ],\n");

    // Spill sweep: the same pooled build with the spill stage bounding the
    // resident window. Throughput cost (ns/sub vs threshold 0), spill write
    // bandwidth, and how small the peak resident window gets.
    json.push_str("  \"spill\": [\n");
    // Same length in both shapes: the spill section is gated now, and a
    // cell is only comparable when it measured the same workload at the
    // same length (see the comparability note above).
    let spill_iterations = 400;
    let spill_sequences = lock_heavy_sequences(4, spill_iterations, 32, 16);
    let thresholds: &[usize] = if quick { &[0, 32] } else { &[0, 8, 64, 512] };
    // The durability sweep below reruns this row's exact configuration, so
    // remember its time to pin the disarmed-hook overhead against.
    let durability_threshold = if quick { 32 } else { 64 };
    let mut spill_row_ns = f64::MAX;
    for (ti, &threshold) in thresholds.iter().enumerate() {
        let cell = measure_spill_cell(&spill_sequences, 1, 8, threshold, repeats);
        eprintln!(
            "spill/threshold={threshold}: {} subs, total {:.0} ns/sub, \
             spilled {} ({} bytes, {:.0} MiB/s), peak resident {}",
            cell.subcomputations,
            cell.total_ns_per_sub,
            cell.spilled_subs,
            cell.spill_bytes,
            cell.spill_mib_per_sec,
            cell.peak_resident_subs
        );
        if threshold > 0 {
            assert!(
                cell.spilled_subs > 0,
                "a positive threshold must actually spill on this workload"
            );
        }
        if threshold == durability_threshold {
            spill_row_ns = cell.total_ns_per_sub;
        }
        let _ = writeln!(
            json,
            "    {{\"threshold\": {}, \"subcomputations\": {}, \
             \"total_ns_per_sub\": {:.1}, \"spill_mib_per_sec\": {:.1}, \
             \"spilled_subs\": {}, \"spill_bytes\": {}, \"peak_resident_subs\": {}}}{}",
            cell.threshold,
            cell.subcomputations,
            cell.total_ns_per_sub,
            cell.spill_mib_per_sec,
            cell.spilled_subs,
            cell.spill_bytes,
            cell.peak_resident_subs,
            if ti + 1 < thresholds.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");

    // Durability-tier sweep: the same spilling build at one threshold under
    // each spill durability policy. The `none` row is the spill sweep's own
    // configuration remeasured — its ns/sub must stay within 5% of the row
    // above, pinning the disarmed durability hooks (CRC framing, manifest
    // bookkeeping, sync decision points) at noise. `flush`/`fsync` price
    // what crash durability actually costs; they are recorded and gated
    // against the committed baseline but carry no flatness assertion.
    json.push_str("  \"spill_durability\": [\n");
    let tiers = [
        SpillDurability::None,
        SpillDurability::Flush,
        SpillDurability::Fsync,
    ];
    for (di, &durability) in tiers.iter().enumerate() {
        let cell = measure_durability_cell(
            &spill_sequences,
            1,
            8,
            durability_threshold,
            durability,
            repeats,
        );
        eprintln!(
            "spill_durability/{}: {} subs, total {:.0} ns/sub, spilled {}",
            cell.durability, cell.subcomputations, cell.total_ns_per_sub, cell.spilled_subs
        );
        assert!(cell.spilled_subs > 0, "the durability cells must spill");
        if durability == SpillDurability::None && spill_row_ns < f64::MAX {
            // The `none` cell reruns the spill row's exact configuration,
            // so any gap is the noise floor — unless the disarmed
            // durability hooks grew a real cost (a manifest rewrite per
            // cut is +60%, an fsync +170%). Best-of-N pairs still jitter
            // ±6% on a loaded 1-core runner, so the backstop sits at 10%;
            // the tight trajectory pin is the --check gate against the
            // committed spill rows.
            let overhead = cell.total_ns_per_sub / spill_row_ns - 1.0;
            eprintln!(
                "spill_durability/none vs spill/threshold={durability_threshold}: \
                 {:+.1}% (disarmed durability hooks)",
                overhead * 100.0
            );
            assert!(
                overhead <= 0.10,
                "disarmed durability hooks must stay at noise on the spill path \
                 (measured {:+.1}% at threshold {durability_threshold})",
                overhead * 100.0
            );
        }
        // `spill_threshold`, not `threshold`: the spill-sweep line scanner
        // keys on `threshold` + `total_ns_per_sub`, and these rows must
        // stay disjoint from it.
        let _ = writeln!(
            json,
            "    {{\"durability\": \"{}\", \"spill_threshold\": {}, \
             \"subcomputations\": {}, \"spilled_subs\": {}, \"total_ns_per_sub\": {:.1}}}{}",
            cell.durability,
            cell.threshold,
            cell.subcomputations,
            cell.spilled_subs,
            cell.total_ns_per_sub,
            if di + 1 < tiers.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");

    // Fault-hook cost on the session ingest hot path: every lane message
    // now passes the disarmed fault checks (batch counter, panic trigger,
    // corruption offset, spill-injection load), and the empty plan must
    // keep them at noise level. The row pins that cost in the trajectory;
    // the run itself also asserts the empty plan leaves every health field
    // zero — fault machinery must be invisible unless armed.
    json.push_str("  \"fault\": [\n");
    let fault_ns = measure_empty_plan_ns_per_sub(repeats);
    eprintln!("fault/plan=empty: {fault_ns:.0} ns/sub ingest cpu with disarmed hooks");
    let _ = writeln!(
        json,
        "    {{\"plan\": \"empty\", \"ingest_ns_per_sub\": {fault_ns:.1}}}"
    );
    json.push_str("  ],\n");
    // Ingest-pool overlap factor from one contended session: summed worker
    // busy time over the busiest worker. ≈ 1.0 on a 1-core container;
    // printed (and recorded, ungated) so multi-core bench-smoke logs
    // surface ingest-side contention regressions — a de-contended hot path
    // must overlap, not serialize, once real cores sit under the pool.
    let (overlap, pool_width) = measure_overlap_factor();
    eprintln!("ingest_overlap_factor: {overlap:.2} (pool={pool_width}, {parallelism} cores)");
    let _ = writeln!(json, "  \"ingest_overlap_factor\": {overlap:.2},");
    let rss = peak_rss_kib().unwrap_or(0);
    eprintln!("peak RSS (VmHWM): {rss} KiB");
    let _ = writeln!(json, "  \"peak_rss_kib\": {rss}");
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_ingest.json");
    eprintln!("wrote {out_path}");

    // Regression gate: compare the fresh numbers against the committed
    // baseline (read before the artefact was written). Running after the
    // write means a failing gate still leaves the new numbers on disk for
    // inspection/upload.
    if let Some((baseline_path, baseline)) = baseline {
        let current = parse_metrics(&json);
        match compare(&current, &baseline, 0.30) {
            CheckOutcome::Skipped(reason) => {
                eprintln!("bench check SKIPPED vs {baseline_path}: {reason}");
            }
            CheckOutcome::Passed(compared) => {
                eprintln!(
                    "bench check PASSED vs {baseline_path}: {compared} shared metrics within 30%"
                );
            }
            CheckOutcome::Failed(regressions) => {
                eprintln!(
                    "bench check FAILED vs {baseline_path}: {} metric(s) regressed >30%:",
                    regressions.len()
                );
                for r in &regressions {
                    eprintln!("  {r}");
                }
                std::process::exit(1);
            }
        }
    }
}

/// Best-of-N ingest CPU time per sub-computation through one contended
/// session running the default (empty) fault plan — the production shape
/// of the supervised ingest loop. Asserts the disarmed plan leaves every
/// `RunStats` health field zero.
fn measure_empty_plan_ns_per_sub(repeats: usize) -> f64 {
    use std::sync::Arc;
    let mut best = f64::MAX;
    for _ in 0..repeats.max(1) {
        let session = InspectorSession::new(SessionConfig::inspector());
        let region = session.map_region("cells", 4096 * 8);
        let base = region.base();
        let lock = Arc::new(InspMutex::new());
        let report = session.run(move |ctx| {
            let mut handles = Vec::new();
            for w in 0..4u64 {
                let lock = Arc::clone(&lock);
                handles.push(ctx.spawn(move |ctx| {
                    for i in 0..150u64 {
                        lock.lock(ctx);
                        let slot = base.add((i % 8) * 4096);
                        let v = ctx.read_u64(slot);
                        ctx.write_u64(slot, v + w);
                        lock.unlock(ctx);
                    }
                }));
            }
            for h in handles {
                ctx.join(h);
            }
        });
        let s = &report.stats;
        assert!(
            !s.degraded
                && s.gaps == 0
                && s.lost_bytes == 0
                && s.decode_degraded == 0
                && s.spill_fallbacks == 0
                && s.worker_failures == 0,
            "the empty fault plan must leave every health field zero: {s:?}"
        );
        let subs = s.recorder.subcomputations.max(1);
        best = best.min(s.graph_ingest_cpu_time.as_nanos() as f64 / subs as f64);
    }
    best
}

/// Runs one contended multi-worker session with a 4-wide ingest pool and
/// returns `(graph_ingest_cpu_time / graph_ingest_time, pool width)` — the
/// pool's overlap factor (see `RunStats::ingest_overlap_factor`).
fn measure_overlap_factor() -> (f64, usize) {
    use std::sync::Arc;
    let session = InspectorSession::new(SessionConfig::inspector().with_ingest_threads(4));
    let region = session.map_region("cells", 4096 * 8);
    let base = region.base();
    let lock = Arc::new(InspMutex::new());
    let report = session.run(move |ctx| {
        let mut handles = Vec::new();
        for w in 0..4u64 {
            let lock = Arc::clone(&lock);
            handles.push(ctx.spawn(move |ctx| {
                for i in 0..150u64 {
                    lock.lock(ctx);
                    let slot = base.add((i % 8) * 4096);
                    let v = ctx.read_u64(slot);
                    ctx.write_u64(slot, v + w);
                    lock.unlock(ctx);
                }
            }));
        }
        for h in handles {
            ctx.join(h);
        }
    });
    (
        report.stats.ingest_overlap_factor(),
        report.stats.ingest_workers,
    )
}

/// Prints the headline comparison: 4-wide pool vs the single-ingest-thread
/// baseline at the default shard count.
fn report_speedup(name: &str, cells: &[GridCell]) {
    let at = |pool: usize| {
        cells
            .iter()
            .filter(|c| c.pool == pool)
            .map(|c| c.total_ns_per_sub)
            .fold(f64::MAX, f64::min)
    };
    let single = at(1);
    let pooled = at(4);
    if single < f64::MAX && pooled < f64::MAX {
        eprintln!(
            "  {name}: pool4 vs pool1 = {:.2}x {}",
            single / pooled,
            if pooled < single {
                "speedup"
            } else {
                "SLOWDOWN"
            }
        );
    }
}
