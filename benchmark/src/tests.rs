//! Whole-benchmark tests: the declared metrics, and a smoke run of every
//! workload in both modes.

use std::path::Path;

use super::*;
use crate::json::parse;
use crate::metrics::{END_TO_END, PER_LAYER};

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is at the repo root"))
        .expect("BENCHMARK.json parses")
}

fn names(list: &Value) -> Vec<String> {
    let name = |entry: &Value| {
        entry
            .get("name")
            .and_then(Value::as_str)
            .map(str::to_string)
    };
    list.items().iter().filter_map(name).collect()
}

/// Runs `workload` with tiny inputs and two iterations, and checks the
/// result line against the names `BENCHMARK.json` declares for the mode.
fn smoke(workload: &str, trace: bool) {
    let opts = Opts {
        workload: workload.to_string(),
        seed: 3,
        seconds: 0.0,
        trace,
        smoke: true,
        out_dir: Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{workload}-{}", u8::from(trace))),
    };
    let outcome = run(&opts).expect("the workload runs");
    assert_eq!(outcome.checks.failed, 0, "{:?}", outcome.checks.failures);
    assert!(outcome.checks.attempted >= 1);

    let line = parse(&outcome.result_line().to_json()).expect("the result line is JSON");
    let keys: Vec<_> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Value::Bool(true)));

    let declared = names(
        benchmark_json()
            .get(if trace { "per_layer" } else { "end_to_end" })
            .expect("BENCHMARK.json lists the metrics"),
    );
    let emitted = line.get("metrics").expect("metrics").fields();
    let emitted_names: Vec<_> = emitted.iter().map(|(k, _)| k.clone()).collect();
    assert_eq!(emitted_names, declared, "{workload}: emitted vs declared");
    for (name, entry) in emitted {
        let value = entry.get("value").and_then(Value::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload}: {name} = {value:?}"
        );
        if !trace {
            assert!(
                value > Some(0.0),
                "{workload}: end-to-end {name} must not be 0"
            );
        }
    }

    let stem = if trace { "layers" } else { "result" };
    let file = std::fs::read_to_string(opts.out_dir.join(format!("{stem}.{workload}.json")))
        .expect("the run wrote its result file");
    let result = parse(file.trim()).expect("the result file is one JSON object");
    assert_eq!(
        result.get("workload").and_then(Value::as_str),
        Some(workload)
    );
    assert_eq!(result.get("seed").and_then(Value::as_f64), Some(3.0));
    if trace {
        let spans = std::fs::read_to_string(opts.out_dir.join(format!("trace.{workload}.json")))
            .expect("the traced run wrote its span file");
        let spans = parse(spans.trim()).expect("the span file is JSON");
        assert!(!spans.items().is_empty(), "{workload}: no spans recorded");
        for span in spans.items() {
            let num = |key| span.get(key).and_then(Value::as_f64).expect("span field");
            assert!(num("end_ns") >= num("start_ns"));
            assert!(num("busy_ns") >= num("self_ns"));
            assert_eq!(span.get("workload").and_then(Value::as_str), Some(workload));
        }
    } else {
        let loaded = compare::load(&file).expect("compare reads a result file");
        assert_eq!(loaded[workload].len(), END_TO_END.len());
    }
    let _ = std::fs::remove_dir_all(&opts.out_dir);
}

#[test]
fn declared_metrics_match_benchmark_json() {
    let doc = benchmark_json();
    let workloads = names(doc.get("workloads").expect("workloads"));
    let ours: Vec<_> = WORKLOADS.iter().map(|(name, _)| name.to_string()).collect();
    assert_eq!(workloads, ours);

    let end_to_end = doc.get("end_to_end").expect("end_to_end").items();
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (entry, (name, unit, bound)) in end_to_end.iter().zip(END_TO_END) {
        assert_eq!(entry.get("name").and_then(Value::as_str), Some(name));
        assert_eq!(entry.get("unit").and_then(Value::as_str), Some(unit));
        assert_eq!(entry.get("bound").and_then(Value::as_f64), Some(bound));
        assert_eq!(entry.get("better").and_then(Value::as_str), Some("lower"));
    }
    let per_layer = doc.get("per_layer").expect("per_layer").items();
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (entry, (name, unit)) in per_layer.iter().zip(PER_LAYER) {
        assert_eq!(entry.get("name").and_then(Value::as_str), Some(name));
        assert_eq!(entry.get("unit").and_then(Value::as_str), Some(unit));
    }
    assert_eq!(
        doc.get("run_seconds").and_then(Value::as_f64),
        parse_args(&["--workload".into(), "x".into()])
            .ok()
            .map(|o| o.seconds)
    );
}

#[test]
fn fault_commit_smokes() {
    smoke("fault_commit", false);
    smoke("fault_commit", true);
}

#[test]
fn fault_commit_spill_smokes() {
    smoke("fault_commit_spill", false);
    smoke("fault_commit_spill", true);
}

#[test]
fn branch_trace_smokes() {
    smoke("branch_trace", false);
    smoke("branch_trace", true);
}

#[test]
fn compute_control_smokes() {
    smoke("compute_control", false);
    smoke("compute_control", true);
}

#[test]
fn log_decode_smokes() {
    smoke("log_decode", false);
    smoke("log_decode", true);
}

#[test]
fn graph_query_smokes() {
    smoke("graph_query", false);
    smoke("graph_query", true);
}

#[test]
fn arguments_are_checked() {
    let args = |list: &[&str]| parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let opts = args(&[
        "--workload",
        "log_decode",
        "--seed",
        "9",
        "--seconds",
        "3",
        "--trace",
        "1",
    ])
    .expect("the driver's argument form parses");
    assert_eq!(
        (opts.workload.as_str(), opts.seed, opts.seconds, opts.trace),
        ("log_decode", 9, 3.0, true)
    );
    assert!(args(&[]).is_err(), "--workload is required");
    assert!(args(&["--workload", "x", "--trace", "2"]).is_err());
    assert!(args(&["--workload", "x", "--seconds", "-1"]).is_err());
    assert!(args(&["--workload", "x", "--seed"]).is_err());
    assert!(args(&["--workload", "x", "--bogus", "1"]).is_err());
    let unknown = Opts {
        workload: "nope".into(),
        ..opts
    };
    assert!(run(&unknown).is_err_and(|e| e.contains("unknown workload")));
}

#[test]
fn measure_loop_honours_the_floor_and_the_deadline() {
    let opts = |seconds, smoke| Opts {
        workload: String::new(),
        seed: 0,
        seconds,
        trace: false,
        smoke,
        out_dir: PathBuf::new(),
    };
    // No time at all: the floor alone.
    assert_eq!(measure_loop(&opts(0.0, false), |_| {}), MIN_ITERATIONS);
    assert_eq!(measure_loop(&opts(0.0, true), |_| {}), 2);
    // 5 ms iterations in a 100 ms window: stops before overshooting.
    let mut indices = Vec::new();
    let done = measure_loop(&opts(0.1, false), |index| {
        indices.push(index);
        std::thread::sleep(std::time::Duration::from_millis(5));
    });
    assert_eq!(indices, (0..done).collect::<Vec<_>>());
    assert!((MIN_ITERATIONS..=20).contains(&done), "{done} iterations");
    // In-order helper runs both sides, in the order asked.
    let mut log = Vec::new();
    let log_cell = std::cell::RefCell::new(&mut log);
    in_order(
        false,
        || log_cell.borrow_mut().push("a"),
        || log_cell.borrow_mut().push("b"),
    );
    in_order(
        true,
        || log_cell.borrow_mut().push("a"),
        || log_cell.borrow_mut().push("b"),
    );
    assert_eq!(log, ["b", "a", "a", "b"]);
}
