//! The four workloads that run paper applications: every app of the set is
//! executed natively and under provenance recording, timed from outside
//! `Workload::execute` so seal, report assembly and log compression are in
//! the number.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use inspector_core::recover::{recover_session, Recovery};
use inspector_core::spill::SpillDurability;
use inspector_runtime::SessionConfig;
use inspector_workloads::{workload_by_name, InputSize, Workload, WorkloadResult};

use crate::gen::tracked_first;
use crate::json::Value;
use crate::metrics::{Checks, Layers, Outcome, Timings};
use crate::replay::Replay;
use crate::span::Tracer;
use crate::stats::{fastest, geomean, median, summarize, Summary};
use crate::sys::{timed, Timed};
use crate::{measure_loop, Opts};

/// Application threads of every app run: the box has two cores, and the
/// tracked side adds one ingest worker on top.
pub const THREADS: usize = 2;

/// Resident sub-computations per shard before the spill tier cuts.
pub const SPILL_THRESHOLD: usize = 8;

/// Traced iterations: odd ones run inside spans, even ones bare, so their
/// ratio is the tracing overhead.
const TRACE_ITERATIONS: usize = 4;

/// Apps whose result depends on the thread schedule; their checksum is not
/// compared with the native run's (their in-`execute` invariants still
/// count through the panic check).
const SCHEDULE_DEPENDENT: [&str; 2] = ["canneal", "streamcluster"];

/// One app of a workload's set.
#[derive(Debug)]
pub struct AppRun {
    pub app: &'static str,
    pub size: InputSize,
    /// Executions per iteration.
    pub repeat: usize,
}

/// A workload made of app runs.
#[derive(Debug)]
pub struct AppSet {
    pub runs: &'static [AppRun],
    /// Run the tracked side with the spill tier on and recover the retained
    /// directory afterwards; both are inside `wall_s`.
    pub spill: bool,
}

/// The recording configuration every tracked run uses; built in code, never
/// from the environment.
pub fn tracked_config() -> SessionConfig {
    SessionConfig::inspector().with_ingest_threads(1)
}

/// Runs `app`, catching a panic inside `execute` (`None`): a crashed run is
/// a failed check, never a crashed benchmark.
fn execute(
    app: &dyn Workload,
    config: SessionConfig,
    size: InputSize,
) -> Timed<Option<WorkloadResult>> {
    timed(|| catch_unwind(AssertUnwindSafe(|| app.execute(config, THREADS, size))).ok())
}

/// Opens a span when the run is traced.
fn begin(tracer: &mut Option<&mut Tracer>, name: &'static str) -> Option<usize> {
    tracer.as_deref_mut().map(|t| t.begin(name))
}

fn end(tracer: &mut Option<&mut Tracer>, span: Option<usize>) {
    if let (Some(tracer), Some(span)) = (tracer.as_deref_mut(), span) {
        tracer.end(span);
    }
}

/// Both sides of one app execution.
pub struct Pair {
    pub app: &'static str,
    pub native: Timed<Option<WorkloadResult>>,
    pub tracked: Timed<Option<WorkloadResult>>,
    /// Spill workloads: `recover_session` on the directory the tracked run
    /// retained (`None` inside when it failed).
    pub recovery: Option<Timed<Option<Recovery>>>,
}

impl Pair {
    /// The tracked operation a user waits for: the run, plus recovery when
    /// the workload has one.
    pub fn tracked_secs(&self) -> f64 {
        self.tracked.secs + self.recovery.as_ref().map_or(0.0, |r| r.secs)
    }

    fn tracked_cpu(&self) -> f64 {
        self.tracked.cpu + self.recovery.as_ref().map_or(0.0, |r| r.cpu)
    }
}

/// Samples of one app across iterations.
#[derive(Debug, Default)]
struct AppSamples {
    native: Vec<f64>,
    tracked: Vec<f64>,
    ratio: Vec<f64>,
}

/// Everything the measured iterations accumulate.
#[derive(Debug, Default)]
struct Samples {
    per_app: BTreeMap<&'static str, AppSamples>,
    timings: Timings,
    log_bytes: u64,
    branches: u64,
}

struct Bench<'a> {
    opts: &'a Opts,
    set: &'a AppSet,
    /// Run every app at Tiny size: set-up passes and smoke runs.
    tiny: bool,
    checks: Checks,
    spill_dirs: u64,
}

impl Bench<'_> {
    fn size(&self, run: &AppRun) -> InputSize {
        if self.tiny {
            InputSize::Tiny
        } else {
            run.size
        }
    }

    /// A fresh, empty base directory for one spilling run.
    fn fresh_spill_dir(&mut self) -> PathBuf {
        self.spill_dirs += 1;
        let dir =
            self.opts
                .out_dir
                .join(format!("spill-{}-{}", std::process::id(), self.spill_dirs));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create spill directory under the output directory");
        dir
    }

    /// Runs both sides of `run` once. With a tracer, each side runs inside
    /// a span.
    fn pair(&mut self, run: &AppRun, tracked_first: bool, mut tracer: Option<&mut Tracer>) -> Pair {
        let app = workload_by_name(run.app).expect("app is in the registry");
        let size = self.size(run);
        let spill_dir = self.set.spill.then(|| self.fresh_spill_dir());

        let mut native = None;
        let mut tracked = None;
        let mut recovery = None;
        for tracked_side in [tracked_first, !tracked_first] {
            if !tracked_side {
                let span = begin(&mut tracer, "app.native");
                native = Some(execute(&*app, SessionConfig::native(), size));
                end(&mut tracer, span);
                continue;
            }
            let mut config = tracked_config();
            if let Some(dir) = &spill_dir {
                config = config
                    .with_spill_threshold(SPILL_THRESHOLD)
                    .with_spill_dir(dir)
                    .with_spill_durability(SpillDurability::None)
                    .with_spill_retain(true);
            }
            let span = begin(&mut tracer, "app.tracked");
            tracked = Some(execute(&*app, config, size));
            if let Some(dir) = &spill_dir {
                // The session names its own subdirectory; the base is
                // fresh, so it is the only entry.
                let session_dir = std::fs::read_dir(dir)
                    .ok()
                    .and_then(|mut entries| entries.next())
                    .and_then(Result::ok)
                    .map(|entry| entry.path());
                let inner = begin(&mut tracer, "core.recover");
                recovery = Some(timed(|| {
                    session_dir.and_then(|path| recover_session(&path).ok())
                }));
                end(&mut tracer, inner);
            }
            end(&mut tracer, span);
        }
        if let Some(dir) = &spill_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        Pair {
            app: run.app,
            native: native.expect("native side ran"),
            tracked: tracked.expect("tracked side ran"),
            recovery,
        }
    }

    /// The correctness gate of one pair. Runs after the timers stopped.
    fn check(&mut self, pair: &Pair) {
        let app = pair.app;
        let checks = &mut self.checks;
        checks.check(pair.native.value.is_some(), || {
            format!("{app}: native execute panicked")
        });
        checks.check(pair.tracked.value.is_some(), || {
            format!("{app}: tracked execute panicked")
        });
        let Some(tracked) = &pair.tracked.value else {
            return;
        };
        checks.check(!tracked.report.stats.degraded, || {
            format!("{app}: tracked run is degraded: {:?}", tracked.report.stats)
        });
        let valid = tracked.report.cpg.validate();
        checks.check(valid.is_ok(), || {
            format!("{app}: provenance graph is invalid: {valid:?}")
        });
        if let (Some(native), false) = (&pair.native.value, SCHEDULE_DEPENDENT.contains(&app)) {
            checks.check(native.checksum == tracked.checksum, || {
                format!(
                    "{app}: tracked checksum {:#x} differs from native {:#x}",
                    tracked.checksum, native.checksum
                )
            });
        }
        if let Some(recovery) = &pair.recovery {
            let sound = recovery.value.as_ref().is_some_and(|r| {
                !r.report.degraded() && r.cpg.node_count() == tracked.report.cpg.node_count()
            });
            checks.check(sound, || {
                format!(
                    "{app}: recovery of the retained spill directory failed or lost data: {:?}",
                    recovery.value.as_ref().map(|r| &r.report)
                )
            });
        }
    }

    /// One measured (or warm-up) iteration: every app of the set, `repeat`
    /// pairs each, both sides timed.
    fn iteration(&mut self, index: usize, samples: &mut Samples) {
        let (mut wall, mut cpu, mut native) = (0.0, 0.0, 0.0);
        for run in self.set.runs {
            for rep in 0..run.repeat {
                let first = tracked_first(self.opts.seed, index + rep);
                let pair = self.pair(run, first, None);
                self.check(&pair);
                wall += pair.tracked_secs();
                cpu += pair.tracked_cpu();
                native += pair.native.secs;
                let app = samples.per_app.entry(run.app).or_default();
                app.native.push(pair.native.secs);
                app.tracked.push(pair.tracked_secs());
                app.ratio.push(pair.tracked_secs() / pair.native.secs);
                if let Some(tracked) = &pair.tracked.value {
                    samples.log_bytes += tracked.report.space.log_bytes;
                    samples.branches += tracked.report.stats.pt.branches;
                }
            }
        }
        samples.timings.wall.push(wall);
        samples.timings.cpu.push(cpu);
        samples.timings.native.push(native);
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(opts: &Opts, set: &AppSet) -> Outcome {
    let mut bench = Bench {
        opts,
        set,
        tiny: true,
        checks: Checks::default(),
        spill_dirs: 0,
    };
    // The apps build their inputs inside `execute`, so there is nothing to
    // set up but the process itself: a set-up pass runs the app set once
    // at Tiny size (code paged in, threads spawned, checks counted). A
    // full-size warm-up would buy nothing: the first, cold iteration is
    // never the fastest one, and the ratios report medians.
    let mut samples = Samples::default();
    for _ in 0..opts.setups() {
        let pass = timed(|| bench.iteration(0, &mut Samples::default()));
        samples.timings.setup.push(pass.secs);
    }
    bench.tiny = opts.smoke;
    measure_loop(opts, |index| bench.iteration(index, &mut samples));

    let per_app: Vec<&AppSamples> = set
        .runs
        .iter()
        .map(|run| &samples.per_app[run.app])
        .collect();
    let overhead: Vec<f64> = per_app.iter().map(|app| median(&app.ratio)).collect();
    let apps = set
        .runs
        .iter()
        .zip(&per_app)
        .map(|(run, app)| {
            Value::Obj(vec![
                ("app".into(), Value::Str(run.app.into())),
                ("size".into(), Value::Str(bench.size(run).label().into())),
                ("runs_per_iteration".into(), Value::Num(run.repeat as f64)),
                ("native_s".into(), summarize(&app.native).to_json()),
                ("tracked_s".into(), fastest(&app.tracked).to_json()),
                ("overhead_x".into(), summarize(&app.ratio).to_json()),
            ])
        })
        .collect();
    let detail = vec![
        ("threads".into(), Value::Num(THREADS as f64)),
        ("apps".into(), Value::Arr(apps)),
    ];
    samples.timings.outcome(
        true,
        Summary::single(geomean(&overhead)),
        samples.log_bytes as f64 / samples.branches.max(1) as f64,
        bench.checks,
        detail,
    )
}

/// The traced run: a warm-up iteration, then [`TRACE_ITERATIONS`] more,
/// alternately bare and inside spans, then the layer replays on the
/// artefacts of the last iteration (a traced one) of each app.
pub fn trace(opts: &Opts, set: &AppSet, tracer: &mut Tracer) -> Outcome {
    let mut bench = Bench {
        opts,
        set,
        tiny: opts.smoke,
        checks: Checks::default(),
        spill_dirs: 0,
    };
    bench.iteration(0, &mut Samples::default());

    let mut bare: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut spanned: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut kept: Vec<Pair> = Vec::new();
    let iterations = if opts.smoke { 2 } else { TRACE_ITERATIONS };
    for index in 0..iterations {
        let traced = index % 2 == 1;
        for run in set.runs {
            let first = tracked_first(opts.seed, index);
            let pair = bench.pair(run, first, traced.then_some(&mut *tracer));
            bench.check(&pair);
            let times = if traced { &mut spanned } else { &mut bare };
            times.entry(run.app).or_default().push(pair.tracked_secs());
            if index + 1 == iterations {
                kept.push(pair);
            }
        }
    }

    let mut layers = Layers::default();
    let total = |times: &BTreeMap<&'static str, Vec<f64>>| -> f64 {
        times.values().map(|samples| median(samples)).sum()
    };
    layers.set("trace_overhead_frac", total(&spanned) / total(&bare) - 1.0);
    let replay_dir = opts.out_dir.join(format!("replay-{}", std::process::id()));
    let mut replay = Replay::default();
    for pair in &kept {
        let spill_dir = set.spill.then_some(replay_dir.as_path());
        replay.pair(tracer, &mut layers, &mut bench.checks, pair, spill_dir);
    }
    replay.finish(tracer, &mut layers);
    let _ = std::fs::remove_dir_all(&replay_dir);

    let detail = vec![
        ("iterations".into(), Value::Num(iterations as f64)),
        ("threads".into(), Value::Num(THREADS as f64)),
    ];
    Outcome::per_layer(&layers, bench.checks, detail)
}
