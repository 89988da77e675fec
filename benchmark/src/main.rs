//! The repo benchmark. One invocation runs one workload:
//!
//! ```text
//! inspector-benchmark --workload W --seed N --seconds S --trace 0|1
//! inspector-benchmark compare A.json B.json
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the traced
//! pass and reports the per-layer metrics. Either way the last line of
//! standard output is the result object `BENCHMARK.json`'s contract
//! describes, the lines before it are for people, and the full result
//! (quartiles, sample counts, per-app medians, stamps) goes to a file
//! under `benchmark/out/`. See `benchmark/README.md`.

mod apps;
mod compare;
mod decode;
mod gen;
mod json;
mod metrics;
mod query;
mod replay;
mod span;
mod stats;
mod sys;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use inspector_workloads::InputSize::{Large, Medium, Small};

use apps::{AppRun, AppSet};
use json::Value;
use metrics::Outcome;
use span::Tracer;

/// Measured iterations a run never goes below, however short `--seconds`.
const MIN_ITERATIONS: usize = 7;
/// Set-up passes per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// What a workload runs.
enum Kind {
    Apps(AppSet),
    LogDecode,
    GraphQuery,
}

const fn app(app: &'static str, size: inspector_workloads::InputSize, repeat: usize) -> AppRun {
    AppRun { app, size, repeat }
}

/// The six workloads; `BENCHMARK.json` says why each exists.
const WORKLOADS: [(&str, Kind); 6] = [
    (
        "fault_commit",
        Kind::Apps(AppSet {
            runs: &[app("reverse_index", Small, 1), app("canneal", Large, 2)],
            spill: false,
        }),
    ),
    (
        "fault_commit_spill",
        Kind::Apps(AppSet {
            runs: &[app("reverse_index", Small, 1)],
            spill: true,
        }),
    ),
    (
        "branch_trace",
        Kind::Apps(AppSet {
            runs: &[
                app("histogram", Medium, 1),
                app("string_match", Medium, 1),
                app("word_count", Medium, 1),
                app("streamcluster", Medium, 1),
            ],
            spill: false,
        }),
    ),
    (
        "compute_control",
        Kind::Apps(AppSet {
            runs: &[
                app("blackscholes", Large, 1),
                app("linear_regression", Medium, 1),
                app("swaptions", Large, 1),
                app("pca", Medium, 1),
                app("matrix_multiply", Small, 1),
                app("kmeans", Small, 1),
            ],
            spill: false,
        }),
    ),
    ("log_decode", Kind::LogDecode),
    ("graph_query", Kind::GraphQuery),
];

/// The arguments of one run.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs and two iterations: the unit tests' way through every
    /// workload.
    pub smoke: bool,
    pub out_dir: PathBuf,
}

impl Opts {
    pub fn setups(&self) -> usize {
        if self.smoke {
            1
        } else {
            SETUPS
        }
    }
}

/// Runs `iteration` (handed its index) for `opts.seconds` seconds — at
/// least [`MIN_ITERATIONS`] times, and never starting an iteration that the
/// mean so far says would end past the deadline. Returns the count.
pub fn measure_loop(opts: &Opts, mut iteration: impl FnMut(usize)) -> usize {
    let (floor, seconds) = if opts.smoke {
        (2, 0.0)
    } else {
        (MIN_ITERATIONS, opts.seconds)
    };
    let start = Instant::now();
    let mut done = 0;
    loop {
        iteration(done);
        done += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if done >= floor && elapsed + elapsed / done as f64 > seconds {
            return done;
        }
    }
}

/// Runs `a` and `b`, `a` first when `a_first`; returns both results.
pub fn in_order<A, B>(a_first: bool, a: impl FnOnce() -> A, b: impl FnOnce() -> B) -> (A, B) {
    if a_first {
        let a = a();
        (a, b())
    } else {
        let b = b();
        (a(), b)
    }
}

/// Runs the workload `opts` names and writes its result file (and, traced,
/// its span file) under `opts.out_dir`.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let (_, kind) = WORKLOADS
        .iter()
        .find(|(name, _)| *name == opts.workload)
        .ok_or_else(|| {
            let names: Vec<_> = WORKLOADS.iter().map(|(name, _)| *name).collect();
            format!("unknown workload {:?}; one of {names:?}", opts.workload)
        })?;
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir.display()))?;

    let mut tracer = opts.trace.then(|| Tracer::new(&opts.workload));
    let outcome = match (kind, tracer.as_mut()) {
        (Kind::Apps(set), None) => apps::run(opts, set),
        (Kind::Apps(set), Some(tracer)) => apps::trace(opts, set, tracer),
        (Kind::LogDecode, None) => decode::run(opts),
        (Kind::LogDecode, Some(tracer)) => decode::trace(opts, tracer),
        (Kind::GraphQuery, None) => query::run(opts),
        (Kind::GraphQuery, Some(tracer)) => query::trace(opts, tracer),
    };

    let write = |stem: &str, value: &Value| {
        let path = opts.out_dir.join(format!("{stem}.{}.json", opts.workload));
        std::fs::write(&path, value.to_json() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    if let Some(tracer) = &tracer {
        write("trace", &tracer.to_json())?;
    }
    write(
        if opts.trace { "layers" } else { "result" },
        &result_file(opts, &outcome),
    )?;
    Ok(outcome)
}

/// The full result of a run: what `compare` reads.
fn result_file(opts: &Opts, outcome: &Outcome) -> Value {
    let metrics = outcome
        .metrics
        .iter()
        .map(|&(name, unit, summary)| {
            let mut fields = vec![("unit".to_string(), Value::Str(unit.into()))];
            fields.extend(summary.to_json().fields().iter().cloned());
            (name.to_string(), Value::Obj(fields))
        })
        .collect();
    let mut fields = vec![
        ("workload".to_string(), Value::Str(opts.workload.clone())),
        ("trace".to_string(), Value::Bool(opts.trace)),
    ];
    fields.extend(sys::stamps(opts.seed, opts.seconds));
    fields.extend(outcome.detail.iter().cloned());
    fields.push((
        "attempted".into(),
        Value::Num(outcome.checks.attempted as f64),
    ));
    fields.push(("failed".into(), Value::Num(outcome.checks.failed as f64)));
    let failures = outcome.checks.failures.iter().cloned().map(Value::Str);
    fields.push(("failures".into(), Value::Arr(failures.collect())));
    fields.push(("metrics".into(), Value::Obj(metrics)));
    Value::Obj(fields)
}

fn print_for_people(opts: &Opts, outcome: &Outcome) {
    println!(
        "{} (seed {}, {} s, {}, nproc {})",
        opts.workload,
        opts.seed,
        opts.seconds,
        if opts.trace { "traced" } else { "untraced" },
        sys::nproc()
    );
    for (name, unit, s) in &outcome.metrics {
        print!("  {name:<36} {:>16.6} {unit:<8}", s.value);
        if s.n > 1 {
            print!(
                " median {:.6}  q1 {:.6}  q3 {:.6}  n {}",
                s.median, s.q1, s.q3, s.n
            );
        }
        println!();
    }
    let checks = &outcome.checks;
    println!(
        "  checks: {} attempted, {} failed (failed_frac {})",
        checks.attempted,
        checks.failed,
        checks.failed as f64 / checks.attempted.max(1) as f64
    );
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            opts.smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} takes {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a number of seconds"))?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => opts.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match compare::main(&args[1..]) {
            Ok(clean) if clean => ExitCode::SUCCESS,
            Ok(_) => ExitCode::FAILURE,
            Err(message) => {
                eprintln!("compare: {message}");
                ExitCode::from(2)
            }
        };
    }
    if cfg!(debug_assertions) {
        eprintln!("refusing to measure a debug build; run with `cargo run --release`");
        return ExitCode::from(2);
    }
    sys::scrub_inspector_env();
    let outcome = parse_args(&args).and_then(|opts| {
        let outcome = run(&opts)?;
        print_for_people(&opts, &outcome);
        Ok(outcome)
    });
    match outcome {
        Ok(outcome) => {
            println!("{}", outcome.result_line().to_json());
            if outcome.checks.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("inspector-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests;
