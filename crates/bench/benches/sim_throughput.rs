//! Simulator throughput: wall-clock cost of whole-GPU simulation at
//! reduced scale, per engine. (Simulated-cycle results are deterministic;
//! this measures the *simulator*, not the GPU.)
//!
//! The `fastforward` group pits naive per-cycle stepping against the
//! wake-driven loop on the memory-bound workloads where idle components
//! dominate. For paper-scale numbers and the exported
//! `BENCH_throughput.json`, use
//! `cargo run --release -p caps-bench --bin run -- --bench-throughput`.

use caps_metrics::{run_one, run_one_with_fast_forward, Engine, RunSpec};
use caps_workloads::Workload;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_sim(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_throughput");
    g.sample_size(10);
    for (name, engine) in [
        ("baseline", Engine::Baseline),
        ("caps", Engine::Caps),
        ("inter", Engine::Inter),
    ] {
        g.bench_function(format!("mm_small/{name}"), |b| {
            b.iter(|| run_one(&RunSpec::small(Workload::Mm, engine)))
        });
    }
    g.bench_function("jc1_small/caps", |b| {
        b.iter(|| run_one(&RunSpec::small(Workload::Jc1, Engine::Caps)))
    });
    g.finish();

    let mut g = c.benchmark_group("fastforward");
    g.sample_size(10);
    for (name, workload) in [
        ("bfs", Workload::Bfs),
        ("mrq", Workload::Mrq),
        ("scn", Workload::Scn),
    ] {
        let spec = RunSpec::small(workload, Engine::Baseline);
        g.bench_function(format!("{name}_small/naive"), |b| {
            b.iter(|| run_one_with_fast_forward(&spec, false))
        });
        g.bench_function(format!("{name}_small/fast"), |b| {
            b.iter(|| run_one_with_fast_forward(&spec, true))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_sim);
criterion_main!(benches);
