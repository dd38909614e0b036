//! Figure-harness benches: times the regeneration machinery of each
//! table/figure at reduced scale (the full-scale numbers are produced by
//! `run_all`; see EXPERIMENTS.md).

use caps_workloads::{Scale, Workload};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures_small");
    g.sample_size(10);
    let wl = [Workload::Jc1, Workload::Bfs];
    g.bench_function("fig01_distance_sweep", |b| {
        b.iter(|| caps_bench::fig01::compute(Scale::Small))
    });
    g.bench_function("fig04_static_analysis", |b| {
        b.iter(caps_bench::fig04::compute)
    });
    g.bench_function("fig05_premise_demo", |b| b.iter(caps_bench::fig05::compute));
    g.bench_function("fig10_ipc_matrix", |b| {
        b.iter(|| caps_bench::fig10::compute_for(&wl, Scale::Small))
    });
    g.bench_function("fig11_cta_sweep", |b| {
        b.iter(|| caps_bench::fig11::compute_for(&[Workload::Jc1], Scale::Small))
    });
    g.bench_function("fig12_coverage_accuracy", |b| {
        b.iter(|| caps_bench::fig12::compute_for(&wl, Scale::Small))
    });
    g.bench_function("fig13_bandwidth", |b| {
        b.iter(|| caps_bench::fig13::compute_for(&wl, Scale::Small))
    });
    g.bench_function("fig14_timeliness", |b| {
        b.iter(|| caps_bench::fig14::compute_for(&[Workload::Jc1], Scale::Small))
    });
    g.bench_function("fig15_energy", |b| {
        b.iter(|| caps_bench::fig15::compute_for(&wl, Scale::Small))
    });
    g.bench_function("tables_render", |b| {
        b.iter(|| {
            (
                caps_bench::tables::render_tables_1_2(),
                caps_bench::tables::render_table_3(),
                caps_bench::tables::render_table_4(),
            )
        })
    });
    g.finish();
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
