//! The metrics this benchmark declares in `BENCHMARK.json`, and the
//! containers a run fills. A unit test holds the two in step.

use std::collections::BTreeMap;

use crate::json::Value;
use crate::stats::{fastest, summarize, Summary};

/// `(name, unit, bound)` of every end-to-end metric, in `BENCHMARK.json`
/// order; lower is better for all of them, and `bound` is the share of the
/// baseline's median by which one may worsen. Every workload emits all of
/// them on an untraced run.
pub const END_TO_END: [(&str, &str, f64); 7] = [
    ("setup_s", "s", 0.25),
    ("wall_s", "s", 0.25),
    ("cpu_s", "s", 0.25),
    ("native_s", "s", 0.25),
    ("overhead_x", "ratio", 0.25),
    ("peak_rss_mib", "MiB", 0.25),
    ("log_bytes_per_branch", "B", 0.02),
];

/// `(name, unit)` of every per-layer metric, in `BENCHMARK.json` order.
/// A traced run emits all of them; 0 means the layer did not run in that
/// workload.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("mem.faults", "count"),
    ("mem.pages_copied", "count"),
    ("mem.bytes_committed", "B"),
    ("mem.commits", "count"),
    ("mem.access_ns_per_fault", "ns"),
    ("mem.commit_ns_per_page", "ns"),
    ("mem.diff_gib_per_s.sparse", "GiB/s"),
    ("mem.diff_gib_per_s.dense", "GiB/s"),
    ("mem.alloc_ns", "ns"),
    ("mem.replay_faults_match", "ratio"),
    ("pt.branches", "count"),
    ("pt.trace_bytes", "B"),
    ("pt.encode_ns_per_branch", "ns"),
    ("pt.decode_batch_mib_per_s", "MiB/s"),
    ("pt.decode_stream_mib_per_s.4k", "MiB/s"),
    ("pt.decode_stream_mib_per_s.64k", "MiB/s"),
    ("pt.psb_scan_gib_per_s", "GiB/s"),
    ("pt.decode_events_ratio", "ratio"),
    ("perf.log_bytes", "B"),
    ("perf.compress_ratio", "ratio"),
    ("perf.submit_mib_per_s", "MiB/s"),
    ("perf.compress_mib_per_s", "MiB/s"),
    ("core.subs", "count"),
    ("core.edges.control", "count"),
    ("core.edges.sync", "count"),
    ("core.edges.data", "count"),
    ("core.ingest_ns_per_sub", "ns"),
    ("core.seal_ns_per_sub", "ns"),
    ("core.batch_build_ns_per_sub", "ns"),
    ("core.resolved_at_seal", "count"),
    ("core.index_entries_live", "count"),
    ("core.index_entries_gcd", "count"),
    ("core.spill_ingest_ns_per_sub.none", "ns"),
    ("core.spill_ingest_ns_per_sub.flush", "ns"),
    ("core.spill_seal_ns_per_sub", "ns"),
    ("core.spill_bytes_per_sub", "B"),
    ("core.peak_resident_subs", "count"),
    ("core.recover_s", "s"),
    ("core.recover_ns_per_sub", "ns"),
    ("core.recover_skipped_bytes", "B"),
    ("core.topo_ms", "ms"),
    ("core.validate_ms", "ms"),
    ("core.taint_ms", "ms"),
    ("core.page_summary_ms", "ms"),
    ("core.slice_data_ms", "ms"),
    ("core.slice_all_ms", "ms"),
    ("core.slice_p90_ms", "ms"),
    ("runtime.app_wall_s", "s"),
    ("runtime.spill_run_s", "s"),
    ("runtime.tail_s", "s"),
    ("runtime.spawn_us_per_thread", "us"),
    ("runtime.sync_ops", "count"),
    ("runtime.unattributed_s", "s"),
    ("workloads.gen_verify_s", "s"),
    ("trace_overhead_frac", "fraction"),
];

/// Pass/fail tally of the correctness checks, the source of the result
/// line's `attempted` / `failed` / `correct`.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// What failed, for the human-readable part of the output.
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let what = what();
            eprintln!("CHECK FAILED: {what}");
            self.failures.push(what);
        }
    }
}

/// Per-layer values of one traced run, keyed by declared metric name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets `name`.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not declared in [`PER_LAYER`]: an undeclared
    /// metric would silently never reach the result line.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(declared, _)| *declared == name),
            "per-layer metric {name} is not declared"
        );
        self.0.insert(name, value);
    }

    /// Adds to `name` (counts summed over the apps of a set).
    pub fn add(&mut self, name: &'static str, value: f64) {
        let sum = self.get(name) + value;
        self.set(name, sum);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `numerator / denominator`, 0 when the layer did no work.
    pub fn set_ratio(&mut self, name: &'static str, numerator: f64, denominator: f64) {
        let value = if denominator > 0.0 {
            numerator / denominator
        } else {
            0.0
        };
        self.set(name, value);
    }
}

/// The timing samples of one untraced run: one per set-up pass, one per
/// measured iteration and side.
#[derive(Debug, Default)]
pub struct Timings {
    pub setup: Vec<f64>,
    pub wall: Vec<f64>,
    pub cpu: Vec<f64>,
    pub native: Vec<f64>,
}

impl Timings {
    /// Turns the samples into the untraced run's outcome; `overhead` and
    /// the bytes-per-branch figure come from the workload. The tracked side
    /// reports its fastest sample (interference only adds time), and so
    /// does a single-threaded baseline. A `bimodal_baseline` — the
    /// two-thread native app runs, which have a rare mode at about half the
    /// usual time that a minimum would pick up in one run and miss in the
    /// next — reports its median.
    pub fn outcome(
        self,
        bimodal_baseline: bool,
        overhead: Summary,
        log_bytes_per_branch: f64,
        checks: Checks,
        mut detail: Vec<(String, Value)>,
    ) -> Outcome {
        let values = BTreeMap::from([
            ("setup_s", summarize(&self.setup)),
            ("wall_s", fastest(&self.wall)),
            ("cpu_s", fastest(&self.cpu)),
            (
                "native_s",
                if bimodal_baseline {
                    summarize(&self.native)
                } else {
                    fastest(&self.native)
                },
            ),
            ("overhead_x", overhead),
            ("peak_rss_mib", Summary::single(crate::sys::peak_rss_mib())),
            (
                "log_bytes_per_branch",
                Summary::single(log_bytes_per_branch),
            ),
        ]);
        assert_eq!(values.len(), END_TO_END.len());
        let metrics = END_TO_END
            .iter()
            .map(|&(name, unit, _)| (name, unit, values[name]))
            .collect();
        let samples = |v: &[f64]| Value::Arr(v.iter().copied().map(Value::Num).collect());
        detail.push(("iterations".into(), Value::Num(self.wall.len() as f64)));
        detail.push(("wall_s_samples".into(), samples(&self.wall)));
        detail.push(("native_s_samples".into(), samples(&self.native)));
        Outcome {
            metrics,
            checks,
            detail,
        }
    }
}

/// What one run of one workload produced.
#[derive(Debug)]
pub struct Outcome {
    /// One entry per declared metric of the run's mode, in declared order.
    pub metrics: Vec<(&'static str, &'static str, Summary)>,
    pub checks: Checks,
    /// Per-app medians, iteration counts and the like, for the result file.
    pub detail: Vec<(String, Value)>,
}

impl Outcome {
    /// A traced run's outcome.
    pub fn per_layer(layers: &Layers, checks: Checks, detail: Vec<(String, Value)>) -> Self {
        let metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, Summary::single(layers.get(name))))
            .collect();
        Outcome {
            metrics,
            checks,
            detail,
        }
    }

    /// The result line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, unit, summary)| {
                let entry = Value::Obj(vec![
                    ("value".into(), Value::Num(summary.value)),
                    ("unit".into(), Value::Str(unit.into())),
                ]);
                (name.to_string(), entry)
            })
            .collect();
        Value::Obj(vec![
            ("correct".into(), Value::Bool(self.checks.failed == 0)),
            ("attempted".into(), Value::Num(self.checks.attempted as f64)),
            ("failed".into(), Value::Num(self.checks.failed as f64)),
            ("metrics".into(), Value::Obj(metrics)),
        ])
    }
}
