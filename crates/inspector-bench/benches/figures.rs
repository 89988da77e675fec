//! Criterion benches over whole workloads: native vs. INSPECTOR execution of
//! representative applications (one read-heavy, one write-heavy, one
//! branch-heavy), i.e. the measurement underlying Figures 5 and 6 in bench
//! form. The full figure sweep lives in the `fig*` binaries.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use inspector_runtime::SessionConfig;
use inspector_workloads::{workload_by_name, InputSize};

fn bench_workload_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("workloads");
    for name in ["histogram", "canneal", "streamcluster"] {
        let workload = workload_by_name(name).expect("known workload");
        group.bench_with_input(BenchmarkId::new("native", name), &name, |b, _| {
            b.iter(|| workload.execute(SessionConfig::native(), 2, InputSize::Tiny));
        });
        group.bench_with_input(BenchmarkId::new("inspector", name), &name, |b, _| {
            b.iter(|| workload.execute(SessionConfig::inspector(), 2, InputSize::Tiny));
        });
    }
    group.finish();
}

fn bench_spawn_cost_ablation(c: &mut Criterion) {
    // Ablation of `SessionConfig::charge_spawn_cost`: how much of kmeans'
    // overhead comes from charging the threads-as-processes creation cost.
    let mut group = c.benchmark_group("ablation_spawn_cost");
    let workload = workload_by_name("kmeans").expect("kmeans");
    group.bench_function("with_spawn_cost", |b| {
        b.iter(|| workload.execute(SessionConfig::inspector(), 2, InputSize::Tiny));
    });
    group.bench_function("without_spawn_cost", |b| {
        let mut config = SessionConfig::inspector();
        config.charge_spawn_cost = false;
        b.iter(|| workload.execute(config.clone(), 2, InputSize::Tiny));
    });
    group.finish();
}

criterion_group! {
    name = figures;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_workload_modes, bench_spawn_cost_ablation
}
criterion_main!(figures);
