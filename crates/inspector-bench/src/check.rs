//! Bench-regression gate for `bench_ingest --check <baseline.json>`.
//!
//! `BENCH_ingest.json` is the committed perf-trajectory artefact; this
//! module reads the metrics back out of it (a purpose-built line scanner —
//! the workspace has no JSON parser and the file is our own, line-oriented
//! output) and compares a freshly measured run against it. A throughput
//! metric that regressed by more than the tolerance (default 30%) fails the
//! CI `bench-smoke` job.
//!
//! The comparison is refused — not failed — when the two artefacts were
//! measured on machines with different `available_parallelism`: pool
//! speedups invert between a 1-core container and a multi-core runner, so
//! cross-machine deltas are noise, which is exactly why `bench_ingest`
//! records the core count in the artefact.

/// One `cpg_ingest` grid cell's comparable metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestCellMetric {
    /// Workload name the cell was measured under.
    pub workload: String,
    /// Producer-pool width.
    pub pool: u64,
    /// Builder stripe count.
    pub shards: u64,
    /// Total construction time per sub-computation, nanoseconds.
    pub total_ns_per_sub: f64,
}

/// One `seal_latency` sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct SealMetric {
    /// Run length in iterations.
    pub iterations: u64,
    /// Seal time per sub-computation, nanoseconds.
    pub seal_ns_per_sub: f64,
}

/// One `pt_decode` throughput point.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeMetric {
    /// Chunk granularity the streaming decoder was fed with.
    pub chunk_bytes: u64,
    /// Batch decode bandwidth, MiB/s.
    pub batch_mib_per_sec: f64,
    /// Streaming decode bandwidth, MiB/s.
    pub streaming_mib_per_sec: f64,
}

/// One PSB-scan point (`swar` is the shipping scan, `naive` the
/// byte-at-a-time reference it is measured against).
#[derive(Debug, Clone, PartialEq)]
pub struct ScanMetric {
    /// Scan variant name.
    pub scan: String,
    /// Scan bandwidth, MiB/s.
    pub scan_mib_per_sec: f64,
}

/// One `spill` sweep point (threshold 0 is the keep-everything baseline).
#[derive(Debug, Clone, PartialEq)]
pub struct SpillMetric {
    /// Spill threshold the build ran with.
    pub threshold: u64,
    /// Total construction time per sub-computation, nanoseconds.
    pub total_ns_per_sub: f64,
}

/// One `spill_durability` row: the same spilling build under a given
/// durability policy (`none` is the page-cache default the spill sweep
/// runs with — the row pins the cost of each crash-durability tier).
#[derive(Debug, Clone, PartialEq)]
pub struct DurabilityMetric {
    /// Durability policy label (`none` / `flush` / `fsync`).
    pub durability: String,
    /// Spill threshold the row ran at (part of the comparison key: the
    /// quick shape measures a different threshold than the full shape).
    pub spill_threshold: u64,
    /// Total construction time per sub-computation, nanoseconds.
    pub total_ns_per_sub: f64,
}

/// One `fault` row: the session ingest hot path measured with a given
/// fault plan (`empty` is the production shape — the row pins the cost of
/// the disarmed fault hooks, which must stay noise).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultMetric {
    /// Fault-plan label (`empty` for the disarmed production shape).
    pub plan: String,
    /// Ingest CPU time per sub-computation through the session's ingest
    /// loop, nanoseconds.
    pub ingest_ns_per_sub: f64,
}

/// The metrics extracted from one `BENCH_ingest.json`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchMetrics {
    /// Core count of the measuring machine.
    pub available_parallelism: Option<u64>,
    /// Whether the artefact was recorded with the `--quick` shape.
    pub quick: Option<bool>,
    /// `cpg_ingest` grid cells.
    pub ingest_cells: Vec<IngestCellMetric>,
    /// `seal_latency` sweep points.
    pub seal_points: Vec<SealMetric>,
    /// `pt_decode` throughput points.
    pub decode_points: Vec<DecodeMetric>,
    /// PSB-scan points.
    pub scan_points: Vec<ScanMetric>,
    /// `spill` threshold sweep points.
    pub spill_points: Vec<SpillMetric>,
    /// `spill_durability` policy rows.
    pub durability_points: Vec<DurabilityMetric>,
    /// `fault` hot-path rows.
    pub fault_points: Vec<FaultMetric>,
}

/// Extracts the value following `"key":` on `line`, up to the next comma or
/// closing brace.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let marker = format!("\"{key}\":");
    let start = line.find(&marker)? + marker.len();
    let rest = &line[start..];
    let end = rest
        .char_indices()
        .find(|&(i, c)| c == ',' || (c == '}' && !rest[..i].contains('"')))
        .map(|(i, _)| i)
        .unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn field_f64(line: &str, key: &str) -> Option<f64> {
    field(line, key)?.parse().ok()
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    field(line, key)?.parse().ok()
}

fn field_str(line: &str, key: &str) -> Option<String> {
    Some(field(line, key)?.trim_matches('"').to_string())
}

/// Parses the metrics out of a `BENCH_ingest.json` document.
///
/// The scanner keys off the distinguishing field of each row kind
/// (`total_ns_per_sub` + `pool` for grid cells, `iterations` +
/// `seal_ns_per_sub` for seal points, `chunk_bytes` for decode points,
/// `scan` + `scan_mib_per_sec` for PSB-scan points,
/// `threshold` + `total_ns_per_sub` for spill points,
/// `durability` + `total_ns_per_sub` for durability rows) and tracks the
/// current workload from the preceding `"workload"` line, so it tolerates
/// sections being reordered, extended or partially absent.
pub fn parse_metrics(json: &str) -> BenchMetrics {
    let mut metrics = BenchMetrics::default();
    let mut workload = String::new();
    for line in json.lines() {
        if let Some(p) = field_u64(line, "available_parallelism") {
            metrics.available_parallelism = Some(p);
        }
        if let Some(q) = field(line, "quick") {
            metrics.quick = Some(q == "true");
        }
        if let Some(name) = field_str(line, "workload") {
            workload = name;
        }
        if let (Some(pool), Some(shards), Some(total)) = (
            field_u64(line, "pool"),
            field_u64(line, "shards"),
            field_f64(line, "total_ns_per_sub"),
        ) {
            metrics.ingest_cells.push(IngestCellMetric {
                workload: workload.clone(),
                pool,
                shards,
                total_ns_per_sub: total,
            });
        }
        if let (Some(iterations), Some(seal)) = (
            field_u64(line, "iterations"),
            field_f64(line, "seal_ns_per_sub"),
        ) {
            metrics.seal_points.push(SealMetric {
                iterations,
                seal_ns_per_sub: seal,
            });
        }
        if let (Some(chunk), Some(batch), Some(streaming)) = (
            field_u64(line, "chunk_bytes"),
            field_f64(line, "batch_mib_per_sec"),
            field_f64(line, "streaming_mib_per_sec"),
        ) {
            metrics.decode_points.push(DecodeMetric {
                chunk_bytes: chunk,
                batch_mib_per_sec: batch,
                streaming_mib_per_sec: streaming,
            });
        }
        if let (Some(scan), Some(mib)) =
            (field_str(line, "scan"), field_f64(line, "scan_mib_per_sec"))
        {
            metrics.scan_points.push(ScanMetric {
                scan,
                scan_mib_per_sec: mib,
            });
        }
        if let (Some(threshold), Some(total)) = (
            field_u64(line, "threshold"),
            field_f64(line, "total_ns_per_sub"),
        ) {
            metrics.spill_points.push(SpillMetric {
                threshold,
                total_ns_per_sub: total,
            });
        }
        if let (Some(durability), Some(total)) = (
            field_str(line, "durability"),
            field_f64(line, "total_ns_per_sub"),
        ) {
            metrics.durability_points.push(DurabilityMetric {
                durability,
                spill_threshold: field_u64(line, "spill_threshold").unwrap_or(0),
                total_ns_per_sub: total,
            });
        }
        if let (Some(plan), Some(ns)) = (
            field_str(line, "plan"),
            field_f64(line, "ingest_ns_per_sub"),
        ) {
            metrics.fault_points.push(FaultMetric {
                plan,
                ingest_ns_per_sub: ns,
            });
        }
    }
    metrics
}

/// One metric that regressed beyond the tolerance.
#[derive(Debug, Clone)]
pub struct Regression {
    /// Human-readable metric path, e.g. `cpg_ingest/lock_heavy/pool=1/shards=8`.
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Freshly measured value.
    pub current: f64,
    /// Regression factor (≥ 1.0; how many times worse than tolerated base).
    pub ratio: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: baseline {:.1}, current {:.1} ({:.0}% worse)",
            self.metric,
            self.baseline,
            self.current,
            (self.ratio - 1.0) * 100.0
        )
    }
}

/// Outcome of a `--check` run.
#[derive(Debug)]
pub enum CheckOutcome {
    /// The artefacts are not comparable; carries the reason. Not a failure.
    Skipped(String),
    /// Every matched metric is within tolerance; carries the match count.
    Passed(usize),
    /// At least one matched metric regressed beyond the tolerance.
    Failed(Vec<Regression>),
}

/// Compares `current` against `baseline` with the given relative
/// `tolerance` (0.30 = fail on >30% regression).
///
/// Lower-is-better metrics (ns/sub) regress when `current > baseline × (1 +
/// tolerance)`; higher-is-better metrics (MiB/s) regress when `current <
/// baseline / (1 + tolerance)`. Only metrics present in **both** artefacts
/// are compared, so a `--quick` run checks cleanly against the committed
/// full baseline through their shared grid cells.
pub fn compare(current: &BenchMetrics, baseline: &BenchMetrics, tolerance: f64) -> CheckOutcome {
    if let (Some(c), Some(b)) = (
        current.available_parallelism,
        baseline.available_parallelism,
    ) {
        if c != b {
            return CheckOutcome::Skipped(format!(
                "baseline was measured with available_parallelism={b}, this machine has {c}; \
                 cross-machine throughput deltas are noise — re-record the baseline here to \
                 compare"
            ));
        }
    }

    let mut regressions = Vec::new();
    let mut compared = 0usize;
    let worse_high = |current: f64, base: f64| current / base.max(f64::MIN_POSITIVE);
    for cell in &current.ingest_cells {
        let Some(base) = baseline.ingest_cells.iter().find(|b| {
            b.workload == cell.workload && b.pool == cell.pool && b.shards == cell.shards
        }) else {
            continue;
        };
        compared += 1;
        let ratio = worse_high(cell.total_ns_per_sub, base.total_ns_per_sub);
        if ratio > 1.0 + tolerance {
            regressions.push(Regression {
                metric: format!(
                    "cpg_ingest/{}/pool={}/shards={} (ns/sub)",
                    cell.workload, cell.pool, cell.shards
                ),
                baseline: base.total_ns_per_sub,
                current: cell.total_ns_per_sub,
                ratio,
            });
        }
    }
    for point in &current.seal_points {
        let Some(base) = baseline
            .seal_points
            .iter()
            .find(|b| b.iterations == point.iterations)
        else {
            continue;
        };
        compared += 1;
        let ratio = worse_high(point.seal_ns_per_sub, base.seal_ns_per_sub);
        if ratio > 1.0 + tolerance {
            regressions.push(Regression {
                metric: format!("seal_latency/iterations={} (ns/sub)", point.iterations),
                baseline: base.seal_ns_per_sub,
                current: point.seal_ns_per_sub,
                ratio,
            });
        }
    }
    for point in &current.spill_points {
        let Some(base) = baseline
            .spill_points
            .iter()
            .find(|b| b.threshold == point.threshold)
        else {
            continue;
        };
        compared += 1;
        let ratio = worse_high(point.total_ns_per_sub, base.total_ns_per_sub);
        if ratio > 1.0 + tolerance {
            regressions.push(Regression {
                metric: format!("spill/threshold={} (ns/sub)", point.threshold),
                baseline: base.total_ns_per_sub,
                current: point.total_ns_per_sub,
                ratio,
            });
        }
    }
    for point in &current.durability_points {
        let Some(base) = baseline.durability_points.iter().find(|b| {
            b.durability == point.durability && b.spill_threshold == point.spill_threshold
        }) else {
            continue;
        };
        compared += 1;
        let ratio = worse_high(point.total_ns_per_sub, base.total_ns_per_sub);
        if ratio > 1.0 + tolerance {
            regressions.push(Regression {
                metric: format!(
                    "spill_durability/{}/threshold={} (ns/sub)",
                    point.durability, point.spill_threshold
                ),
                baseline: base.total_ns_per_sub,
                current: point.total_ns_per_sub,
                ratio,
            });
        }
    }
    for point in &current.fault_points {
        let Some(base) = baseline.fault_points.iter().find(|b| b.plan == point.plan) else {
            continue;
        };
        compared += 1;
        let ratio = worse_high(point.ingest_ns_per_sub, base.ingest_ns_per_sub);
        if ratio > 1.0 + tolerance {
            regressions.push(Regression {
                metric: format!("fault/plan={} (ns/sub)", point.plan),
                baseline: base.ingest_ns_per_sub,
                current: point.ingest_ns_per_sub,
                ratio,
            });
        }
    }
    for point in &current.decode_points {
        let Some(base) = baseline
            .decode_points
            .iter()
            .find(|b| b.chunk_bytes == point.chunk_bytes)
        else {
            continue;
        };
        compared += 2;
        for (label, cur, bas) in [
            ("batch", point.batch_mib_per_sec, base.batch_mib_per_sec),
            (
                "streaming",
                point.streaming_mib_per_sec,
                base.streaming_mib_per_sec,
            ),
        ] {
            let ratio = worse_high(bas, cur);
            if ratio > 1.0 + tolerance {
                regressions.push(Regression {
                    metric: format!("pt_decode/chunk={}/{label} (MiB/s)", point.chunk_bytes),
                    baseline: bas,
                    current: cur,
                    ratio,
                });
            }
        }
    }

    for point in &current.scan_points {
        let Some(base) = baseline.scan_points.iter().find(|b| b.scan == point.scan) else {
            continue;
        };
        compared += 1;
        let ratio = worse_high(base.scan_mib_per_sec, point.scan_mib_per_sec);
        if ratio > 1.0 + tolerance {
            regressions.push(Regression {
                metric: format!("pt_decode/psb_scan={} (MiB/s)", point.scan),
                baseline: base.scan_mib_per_sec,
                current: point.scan_mib_per_sec,
                ratio,
            });
        }
    }

    if compared == 0 {
        return CheckOutcome::Skipped(
            "no metric exists in both artefacts — nothing to compare".into(),
        );
    }
    if regressions.is_empty() {
        CheckOutcome::Passed(compared)
    } else {
        regressions.sort_by(|a, b| b.ratio.total_cmp(&a.ratio));
        CheckOutcome::Failed(regressions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artefact(parallelism: u64, ingest_ns: f64, seal_ns: f64, decode_mib: f64) -> String {
        artefact_with_spill(parallelism, ingest_ns, seal_ns, decode_mib, 2000.0)
    }

    fn artefact_with_spill(
        parallelism: u64,
        ingest_ns: f64,
        seal_ns: f64,
        decode_mib: f64,
        spill_ns: f64,
    ) -> String {
        format!(
            r#"{{
  "bench": "cpg_ingest + seal_latency + pt_decode",
  "available_parallelism": {parallelism},
  "quick": false,
  "cpg_ingest": [
    {{
      "workload": "lock_heavy",
      "grid": [
        {{"pool": 1, "shards": 8, "total_ns_per_sub": {ingest_ns}, "seal_ns_per_sub": 40.0, "data_resolved_at_seal": 0}}
      ]
    }}
  ],
  "seal_latency": [
    {{"iterations": 50, "subcomputations": 404, "seal_ns_per_sub": {seal_ns}, "data_resolved_at_seal": 0}}
  ],
  "pt_decode": [
    {{"chunk_bytes": 4096, "bytes": 100, "branches": 50, "batch_mib_per_sec": 200.0, "streaming_mib_per_sec": {decode_mib}, "streaming_branches_per_sec": 1}},
    {{"scan": "swar", "bytes": 100, "scan_mib_per_sec": 12000.0}},
    {{"scan": "naive", "bytes": 100, "scan_mib_per_sec": 2500.0}}
  ],
  "spill": [
    {{"threshold": 8, "subcomputations": 3204, "total_ns_per_sub": {spill_ns}, "spill_mib_per_sec": 60.0, "spilled_subs": 3200, "spill_bytes": 370948, "peak_resident_subs": 11}}
  ],
  "spill_durability": [
    {{"durability": "none", "spill_threshold": 64, "subcomputations": 3204, "spilled_subs": 3200, "total_ns_per_sub": 2100.0}},
    {{"durability": "fsync", "spill_threshold": 64, "subcomputations": 3204, "spilled_subs": 3200, "total_ns_per_sub": 9100.0}}
  ],
  "fault": [
    {{"plan": "empty", "ingest_ns_per_sub": 900.0}}
  ]
}}
"#
        )
    }

    #[test]
    fn parser_extracts_every_section() {
        let m = parse_metrics(&artefact(4, 1000.0, 55.5, 110.0));
        assert_eq!(m.available_parallelism, Some(4));
        assert_eq!(m.quick, Some(false));
        assert_eq!(m.ingest_cells.len(), 1);
        assert_eq!(m.ingest_cells[0].workload, "lock_heavy");
        assert_eq!(m.ingest_cells[0].pool, 1);
        assert_eq!(m.ingest_cells[0].shards, 8);
        assert!((m.ingest_cells[0].total_ns_per_sub - 1000.0).abs() < 1e-9);
        assert_eq!(m.seal_points.len(), 1);
        assert!((m.seal_points[0].seal_ns_per_sub - 55.5).abs() < 1e-9);
        assert_eq!(m.decode_points.len(), 1);
        assert!((m.decode_points[0].streaming_mib_per_sec - 110.0).abs() < 1e-9);
        assert!((m.decode_points[0].batch_mib_per_sec - 200.0).abs() < 1e-9);
        assert_eq!(m.spill_points.len(), 1);
        assert_eq!(m.spill_points[0].threshold, 8);
        assert!((m.spill_points[0].total_ns_per_sub - 2000.0).abs() < 1e-9);
        assert_eq!(m.scan_points.len(), 2);
        assert_eq!(m.scan_points[0].scan, "swar");
        assert!((m.scan_points[0].scan_mib_per_sec - 12000.0).abs() < 1e-9);
        assert_eq!(m.scan_points[1].scan, "naive");
        assert_eq!(m.durability_points.len(), 2);
        assert_eq!(m.durability_points[0].durability, "none");
        assert_eq!(m.durability_points[0].spill_threshold, 64);
        assert!((m.durability_points[0].total_ns_per_sub - 2100.0).abs() < 1e-9);
        assert_eq!(m.durability_points[1].durability, "fsync");
        assert_eq!(m.fault_points.len(), 1);
        assert_eq!(m.fault_points[0].plan, "empty");
        assert!((m.fault_points[0].ingest_ns_per_sub - 900.0).abs() < 1e-9);
    }

    #[test]
    fn durability_row_regression_beyond_tolerance_fails() {
        // The `none` row is the disarmed-durability shape of the spill
        // path: growing it 2x must trip the gate on its own.
        let baseline = parse_metrics(&artefact(1, 1000.0, 50.0, 100.0));
        let mut current = parse_metrics(&artefact(1, 1000.0, 50.0, 100.0));
        current.durability_points[0].total_ns_per_sub = 4500.0;
        match compare(&current, &baseline, 0.30) {
            CheckOutcome::Failed(regressions) => {
                assert_eq!(regressions.len(), 1, "{regressions:?}");
                assert!(regressions[0].metric.contains("spill_durability/none"));
            }
            other => panic!("expected durability regression, got {other:?}"),
        }
        // Within tolerance passes; a baseline without the rows skips them.
        current.durability_points[0].total_ns_per_sub = 2200.0;
        assert!(matches!(
            compare(&current, &baseline, 0.30),
            CheckOutcome::Passed(_)
        ));
        let mut old_baseline = parse_metrics(&artefact(1, 1000.0, 50.0, 100.0));
        old_baseline.durability_points.clear();
        current.durability_points[0].total_ns_per_sub = 99_000.0;
        assert!(matches!(
            compare(&current, &old_baseline, 0.30),
            CheckOutcome::Passed(_)
        ));
    }

    #[test]
    fn fault_row_regression_beyond_tolerance_fails() {
        // The empty-plan row pins the cost of the disarmed fault hooks on
        // the session ingest hot path: growing it 2x must trip the gate.
        let baseline = parse_metrics(&artefact(1, 1000.0, 50.0, 100.0));
        let mut current = parse_metrics(&artefact(1, 1000.0, 50.0, 100.0));
        current.fault_points[0].ingest_ns_per_sub = 1800.0;
        match compare(&current, &baseline, 0.30) {
            CheckOutcome::Failed(regressions) => {
                assert_eq!(regressions.len(), 1, "{regressions:?}");
                assert!(regressions[0].metric.contains("fault/plan=empty"));
            }
            other => panic!("expected fault-row regression, got {other:?}"),
        }
        // Within tolerance passes; a baseline without the row skips it.
        current.fault_points[0].ingest_ns_per_sub = 1100.0;
        assert!(matches!(
            compare(&current, &baseline, 0.30),
            CheckOutcome::Passed(_)
        ));
        let mut old_baseline = parse_metrics(&artefact(1, 1000.0, 50.0, 100.0));
        old_baseline.fault_points.clear();
        current.fault_points[0].ingest_ns_per_sub = 99_000.0;
        assert!(matches!(
            compare(&current, &old_baseline, 0.30),
            CheckOutcome::Passed(_)
        ));
    }

    #[test]
    fn scan_regression_beyond_tolerance_fails() {
        let baseline = parse_metrics(&artefact(1, 1000.0, 50.0, 100.0));
        let mut current = parse_metrics(&artefact(1, 1000.0, 50.0, 100.0));
        current.scan_points[0].scan_mib_per_sec = 6000.0;
        match compare(&current, &baseline, 0.30) {
            CheckOutcome::Failed(regressions) => {
                assert_eq!(regressions.len(), 1, "{regressions:?}");
                assert!(regressions[0].metric.contains("psb_scan=swar"));
            }
            other => panic!("expected scan regression, got {other:?}"),
        }
    }

    #[test]
    fn spill_regression_beyond_tolerance_fails() {
        let baseline = parse_metrics(&artefact_with_spill(1, 1000.0, 50.0, 100.0, 2000.0));
        // Only the spill section regressed (2x slower): previously this was
        // uncovered by the gate.
        let current = parse_metrics(&artefact_with_spill(1, 1000.0, 50.0, 100.0, 4000.0));
        match compare(&current, &baseline, 0.30) {
            CheckOutcome::Failed(regressions) => {
                assert_eq!(regressions.len(), 1, "{regressions:?}");
                assert!(regressions[0].metric.contains("spill/threshold=8"));
            }
            other => panic!("expected spill regression, got {other:?}"),
        }
        // Within tolerance passes.
        let current = parse_metrics(&artefact_with_spill(1, 1000.0, 50.0, 100.0, 2400.0));
        assert!(matches!(
            compare(&current, &baseline, 0.30),
            CheckOutcome::Passed(_)
        ));
    }

    #[test]
    fn parser_reads_the_committed_artefact_shape() {
        // The committed baseline itself must stay parsable — this is the
        // file the CI gate reads.
        let committed = include_str!("../../../BENCH_ingest.json");
        let m = parse_metrics(committed);
        assert!(m.available_parallelism.is_some());
        assert!(!m.ingest_cells.is_empty());
        assert!(!m.seal_points.is_empty());
        assert!(!m.decode_points.is_empty());
    }

    #[test]
    fn within_tolerance_passes() {
        let baseline = parse_metrics(&artefact(1, 1000.0, 50.0, 100.0));
        // 20% slower ingest, 25% slower seal, 20% lower decode: all inside
        // the 30% gate.
        let current = parse_metrics(&artefact(1, 1200.0, 62.5, 83.0));
        match compare(&current, &baseline, 0.30) {
            CheckOutcome::Passed(compared) => assert!(compared >= 4),
            other => panic!("expected pass, got {other:?}"),
        }
    }

    #[test]
    fn regression_beyond_tolerance_fails() {
        let baseline = parse_metrics(&artefact(1, 1000.0, 50.0, 100.0));
        // Ingest 40% slower and decode 40% lower: two distinct regressions.
        let current = parse_metrics(&artefact(1, 1400.0, 50.0, 70.0));
        match compare(&current, &baseline, 0.30) {
            CheckOutcome::Failed(regressions) => {
                assert_eq!(regressions.len(), 2, "{regressions:?}");
                assert!(regressions.iter().any(|r| r.metric.contains("cpg_ingest")));
                assert!(regressions.iter().any(|r| r.metric.contains("pt_decode")));
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn improvement_never_fails() {
        let baseline = parse_metrics(&artefact(1, 1000.0, 50.0, 100.0));
        let current = parse_metrics(&artefact(1, 400.0, 10.0, 500.0));
        assert!(matches!(
            compare(&current, &baseline, 0.30),
            CheckOutcome::Passed(_)
        ));
    }

    #[test]
    fn different_core_counts_skip_the_comparison() {
        let baseline = parse_metrics(&artefact(1, 1000.0, 50.0, 100.0));
        let current = parse_metrics(&artefact(4, 9000.0, 900.0, 1.0));
        match compare(&current, &baseline, 0.30) {
            CheckOutcome::Skipped(reason) => {
                assert!(reason.contains("available_parallelism"), "{reason}");
            }
            other => panic!("expected skip, got {other:?}"),
        }
    }

    #[test]
    fn disjoint_metrics_skip_the_comparison() {
        let baseline = parse_metrics(&artefact(1, 1000.0, 50.0, 100.0));
        let mut current = parse_metrics(&artefact(1, 1000.0, 50.0, 100.0));
        current.ingest_cells[0].workload = "other".into();
        current.seal_points[0].iterations = 999;
        current.decode_points[0].chunk_bytes = 1;
        current.spill_points[0].threshold = 999;
        current.durability_points[0].durability = "otherA".into();
        current.durability_points[1].durability = "otherB".into();
        current.fault_points[0].plan = "other".into();
        current.scan_points[0].scan = "other0".into();
        current.scan_points[1].scan = "other1".into();
        assert!(matches!(
            compare(&current, &baseline, 0.30),
            CheckOutcome::Skipped(_)
        ));
    }
}
