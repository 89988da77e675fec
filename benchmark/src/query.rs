//! `graph_query`: the read side of the `Cpg` node/edge store that seal
//! writes. One batch is a whole-graph traversal (`topological_order`), a
//! taint propagation, a page summary and seeded slice queries. The tracked
//! side runs the batch on the graph a recorded `reverse_index` run sealed;
//! the baseline side runs the same batch on the batch oracle's rebuild of
//! that graph's own sequences — equal content, laid out by the other
//! builder — so a seal or layout change that slows traversal moves the
//! ratio while the baseline stands still.

use std::collections::{BTreeMap, BTreeSet};

use inspector_core::graph::{Cpg, CpgBuilder};
use inspector_core::ids::{PageId, SubId};
use inspector_core::query::{EdgeFilter, ProvenanceQuery};
use inspector_core::taint::{TaintLabel, TaintTracker};
use inspector_workloads::{workload_by_name, InputSize};

use crate::apps::{tracked_config, THREADS};
use crate::gen::{slice_targets, tracked_first};
use crate::json::Value;
use crate::metrics::{Checks, Layers, Outcome, Timings};
use crate::replay::{same_graph, sequences_of};
use crate::span::Tracer;
use crate::stats::{median, summarize, tail_percentile};
use crate::sys::timed;
use crate::{in_order, measure_loop, Opts};

/// Slice queries per batch, by kind.
const DATA_SLICES: usize = 16;
const BACKWARD_SLICES: usize = 8;
const FORWARD_SLICES: usize = 8;
/// Read-only pages (the mapped input) the taint query starts from.
const TAINT_SOURCES: usize = 4;

/// The two graphs and what produced them.
struct Graphs {
    sealed: Cpg,
    oracle: Cpg,
    log_bytes: u64,
    branches: u64,
}

/// The seeded part of a batch.
struct Targets {
    data: Vec<SubId>,
    backward: Vec<SubId>,
    forward: Vec<SubId>,
    taint_sources: Vec<PageId>,
}

/// What a batch computed, compared between the two graphs.
#[derive(Debug, Default, PartialEq, Eq)]
struct Answers {
    topo_len: usize,
    tainted_subs: usize,
    tainted_pages: usize,
    pages: usize,
    shared_pages: usize,
    slice_nodes: usize,
}

/// Runs the queries of a batch: each inside a span when the run is traced,
/// each latency kept by query name.
#[derive(Default)]
struct Probe<'a> {
    tracer: Option<&'a mut Tracer>,
    latencies_ms: BTreeMap<&'static str, Vec<f64>>,
}

impl Probe<'_> {
    fn run<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let span = self.tracer.as_deref_mut().map(|t| t.begin(name));
        let result = timed(f);
        if let (Some(tracer), Some(span)) = (self.tracer.as_deref_mut(), span) {
            tracer.end(span);
        }
        self.latencies_ms
            .entry(name)
            .or_default()
            .push(result.secs * 1e3);
        result.value
    }
}

/// Records one `reverse_index` run and rebuilds its graph with the batch
/// oracle.
fn build_graphs(opts: &Opts, checks: &mut Checks) -> Graphs {
    let size = if opts.smoke {
        InputSize::Tiny
    } else {
        InputSize::Small
    };
    let app = workload_by_name("reverse_index").expect("reverse_index is in the registry");
    let result = app.execute(tracked_config(), THREADS, size);
    checks.check(!result.report.stats.degraded, || {
        format!("reverse_index run is degraded: {:?}", result.report.stats)
    });
    let mut builder = CpgBuilder::new();
    for seq in sequences_of(&result.report.cpg) {
        builder.add_thread(seq);
    }
    let oracle = builder.build();
    checks.check(same_graph(&result.report.cpg, &oracle), || {
        "sealed graph differs from the batch rebuild of its own sequences".to_string()
    });
    Graphs {
        log_bytes: result.report.space.log_bytes,
        branches: result.report.stats.pt.branches,
        sealed: result.report.cpg,
        oracle,
    }
}

fn targets(opts: &Opts, cpg: &Cpg) -> Targets {
    let sequences: Vec<Vec<SubId>> = cpg
        .threads()
        .into_iter()
        .map(|thread| cpg.thread_sequence(thread))
        .collect();
    let mut written = BTreeSet::new();
    let mut read = BTreeSet::new();
    for node in cpg.nodes() {
        written.extend(node.write_set.iter().copied());
        read.extend(node.read_set.iter().copied());
    }
    Targets {
        data: slice_targets(opts.seed, "data-slices", &sequences, DATA_SLICES),
        backward: slice_targets(opts.seed, "backward-slices", &sequences, BACKWARD_SLICES),
        forward: slice_targets(opts.seed, "forward-slices", &sequences, FORWARD_SLICES),
        taint_sources: read
            .difference(&written)
            .take(TAINT_SOURCES)
            .copied()
            .collect(),
    }
}

/// One query batch on `cpg`.
fn batch(cpg: &Cpg, targets: &Targets, probe: &mut Probe) -> Answers {
    let mut answers = Answers::default();
    let order = probe.run("core.topo", || cpg.topological_order());
    answers.topo_len = order.map_or(0, |order| order.len());

    let mut tracker = TaintTracker::new().with_control_flow(true);
    for (label, page) in targets.taint_sources.iter().enumerate() {
        tracker.taint_page(*page, TaintLabel(label as u32));
    }
    let taint = probe.run("core.taint", || tracker.propagate(cpg));
    answers.tainted_subs = taint.tainted_sub_count();
    answers.tainted_pages = taint.tainted_pages.len();

    let provenance = ProvenanceQuery::new(cpg);
    let summary = probe.run("core.page_summary", || provenance.page_summary());
    answers.pages = summary.len();
    answers.shared_pages = summary.values().filter(|page| page.is_shared()).count();

    for &target in &targets.data {
        let slice = probe.run("core.slice_data", || {
            provenance.backward_slice(target, EdgeFilter::DATA_ONLY)
        });
        answers.slice_nodes += slice.len();
    }
    for &target in &targets.backward {
        let slice = probe.run("core.slice_all", || {
            provenance.backward_slice(target, EdgeFilter::ALL)
        });
        answers.slice_nodes += slice.len();
    }
    for &source in &targets.forward {
        let slice = probe.run("core.slice_all", || {
            provenance.forward_slice(source, EdgeFilter::ALL)
        });
        answers.slice_nodes += slice.len();
    }
    answers
}

fn check_answers(checks: &mut Checks, graphs: &Graphs, sealed: &Answers, oracle: &Answers) {
    checks.check(sealed == oracle, || {
        format!("sealed graph answered {sealed:?}, the oracle graph {oracle:?}")
    });
    checks.check(
        sealed.topo_len == graphs.sealed.node_count() && sealed.slice_nodes > 0,
        || {
            format!(
                "implausible answers on a {}-node graph: {sealed:?}",
                graphs.sealed.node_count()
            )
        },
    );
}

/// The untraced run.
pub fn run(opts: &Opts) -> Outcome {
    let mut checks = Checks::default();
    let mut timings = Timings::default();
    let mut graphs = None;
    for _ in 0..opts.setups() {
        // The previous pass's graphs are dropped outside the timer.
        drop(graphs.take());
        let built = timed(|| {
            let graphs = build_graphs(opts, &mut checks);
            // Warm-up: one whole-graph traversal of each.
            std::hint::black_box(graphs.sealed.topological_order());
            std::hint::black_box(graphs.oracle.topological_order());
            graphs
        });
        timings.setup.push(built.secs);
        graphs = Some(built.value);
    }
    let graphs = graphs.expect("set-up ran at least once");
    let targets = targets(opts, &graphs.sealed);

    let mut ratio = Vec::new();
    measure_loop(opts, |index| {
        let (sealed, oracle) = in_order(
            tracked_first(opts.seed, index),
            || timed(|| batch(&graphs.sealed, &targets, &mut Probe::default())),
            || timed(|| batch(&graphs.oracle, &targets, &mut Probe::default())),
        );
        check_answers(&mut checks, &graphs, &sealed.value, &oracle.value);
        timings.wall.push(sealed.secs);
        timings.cpu.push(sealed.cpu);
        timings.native.push(oracle.secs);
        ratio.push(sealed.secs / oracle.secs);
    });

    let detail = vec![
        (
            "nodes".into(),
            Value::Num(graphs.sealed.node_count() as f64),
        ),
        (
            "edges".into(),
            Value::Num(graphs.sealed.edge_count() as f64),
        ),
    ];
    timings.outcome(
        false,
        summarize(&ratio),
        graphs.log_bytes as f64 / graphs.branches.max(1) as f64,
        checks,
        detail,
    )
}

/// The traced run: bare and spanned batches alternate; every query of a
/// spanned batch is a span, and the slice latencies of all batches feed the
/// tail percentile.
pub fn trace(opts: &Opts, tracer: &mut Tracer) -> Outcome {
    const BATCHES: usize = 6;
    let mut checks = Checks::default();
    let mut layers = Layers::default();

    let span = tracer.begin("query.build_graphs");
    let graphs = build_graphs(opts, &mut checks);
    tracer.end(span);
    let stats = graphs.sealed.stats();
    layers.set("core.subs", stats.nodes as f64);
    layers.set("core.edges.control", stats.control_edges as f64);
    layers.set("core.edges.sync", stats.sync_edges as f64);
    layers.set("core.edges.data", stats.data_edges as f64);
    let valid = tracer.span("core.validate", || graphs.sealed.validate());
    checks.check(valid.is_ok(), || {
        format!("sealed graph is invalid: {valid:?}")
    });
    layers.set("core.validate_ms", tracer.self_secs("core.validate") * 1e3);

    let targets = targets(opts, &graphs.sealed);
    let oracle_answers = batch(&graphs.oracle, &targets, &mut Probe::default());
    let mut latencies_ms: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut bare, mut spanned) = (Vec::new(), Vec::new());
    for index in 0..if opts.smoke { 2 } else { BATCHES } {
        let traced = index % 2 == 1;
        let span = traced.then(|| tracer.begin("query.batch"));
        let mut probe = Probe {
            tracer: traced.then_some(&mut *tracer),
            ..Probe::default()
        };
        let run = timed(|| batch(&graphs.sealed, &targets, &mut probe));
        for (name, samples) in probe.latencies_ms {
            latencies_ms.entry(name).or_default().extend(samples);
        }
        if let Some(span) = span {
            tracer.end(span);
        }
        check_answers(&mut checks, &graphs, &run.value, &oracle_answers);
        if traced { &mut spanned } else { &mut bare }.push(run.secs);
    }

    let of = |name: &str| latencies_ms.get(name).map_or(&[][..], Vec::as_slice);
    layers.set("core.topo_ms", median(of("core.topo")));
    layers.set("core.taint_ms", median(of("core.taint")));
    layers.set("core.page_summary_ms", median(of("core.page_summary")));
    let mean = |samples: &[f64]| samples.iter().sum::<f64>() / samples.len() as f64;
    layers.set("core.slice_data_ms", mean(of("core.slice_data")));
    layers.set("core.slice_all_ms", mean(of("core.slice_all")));
    let slices = [of("core.slice_data"), of("core.slice_all")].concat();
    // Fewer than 100 slice samples (a smoke run) leave no percentile with
    // ten samples beyond it; the metric then reads 0.
    let tail = tail_percentile(&slices, 10);
    layers.set("core.slice_p90_ms", tail.map_or(0.0, |(_, value)| value));
    layers.set(
        "trace_overhead_frac",
        median(&spanned) / median(&bare) - 1.0,
    );

    let detail = vec![
        (
            "batches".into(),
            Value::Num(bare.len() as f64 + spanned.len() as f64),
        ),
        ("slice_samples".into(), Value::Num(slices.len() as f64)),
        (
            "slice_tail_percentile".into(),
            tail.map_or(Value::Null, |(p, _)| Value::Num(p)),
        ),
    ];
    Outcome::per_layer(&layers, checks, detail)
}
