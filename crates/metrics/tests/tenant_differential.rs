//! Multi-tenant differential suite.
//!
//! Two contracts:
//!
//! 1. **Degenerate-case equivalence** — a single-tenant co-run under
//!    *any* partitioning policy is bit-identical to the classic
//!    `run_launches` path (tenant 0 keeps identity address, PC, and
//!    stats mappings), under both stepping modes.
//! 2. **Cross-mode determinism** — a genuine co-run (two tenants,
//!    contended L2/DRAM, interference monitor live) produces identical
//!    machine-wide `Stats`, per-tenant `KernelStats` and link reports
//!    under naive and wake-driven stepping.

use caps_metrics::{run_one_with_fast_forward, Engine, Partitioning, RunSpec};
use caps_workloads::Workload;

#[test]
fn exclusive_single_tenant_matches_run_launches_across_modes() {
    for engine in [Engine::Baseline, Engine::Caps] {
        let solo = RunSpec::small(Workload::Scn, engine);
        let reference = run_one_with_fast_forward(&solo, false);
        // The solo path itself must agree across modes...
        let r = run_one_with_fast_forward(&solo, true);
        assert_eq!(r.stats, reference.stats, "solo {engine:?} diverged");
        // ...and the single-tenant co-run path must be bit-identical to
        // it under every policy × mode.
        for policy in Partitioning::all() {
            let tenant = solo.clone().co_resident(Vec::new(), policy);
            for ff in [false, true] {
                let r = run_one_with_fast_forward(&tenant, ff);
                assert_eq!(
                    r.stats, reference.stats,
                    "{engine:?}/{policy} single-tenant diverged from run_launches at ff={ff}"
                );
                assert_eq!(r.per_kernel.len(), 1);
                assert_eq!(
                    r.per_kernel[0].instructions, reference.stats.warp_instructions,
                    "{engine:?}/{policy}: tenant 0 must own every instruction"
                );
            }
        }
    }
}

#[test]
fn co_runs_are_bit_identical_across_modes() {
    // Two pairings with different contention profiles: a streaming
    // scan against a latency-bound gather, and dense matrix reuse
    // against an irregular frontier sweep.
    let pairings = [
        (Workload::Scn, Workload::Mrq),
        (Workload::Mm, Workload::Bfs),
    ];
    for (a, b) in pairings {
        for policy in Partitioning::all() {
            let spec = RunSpec::small(a, Engine::Caps).co_resident(vec![b], policy);
            let naive = run_one_with_fast_forward(&spec, false);
            assert_eq!(naive.per_kernel.len(), 2);
            assert!(
                naive.per_kernel.iter().all(|k| k.ctas_completed > 0),
                "{a:?}+{b:?}/{policy}: both tenants must finish"
            );
            let wake = run_one_with_fast_forward(&spec, true);
            assert_eq!(
                wake.stats, naive.stats,
                "{a:?}+{b:?}/{policy} machine stats"
            );
            assert_eq!(
                wake.per_kernel, naive.per_kernel,
                "{a:?}+{b:?}/{policy} per-tenant stats"
            );
            assert_eq!(wake.links, naive.links, "{a:?}+{b:?}/{policy} link report");
        }
    }
}

#[test]
fn throttle_baseline_is_deterministic_too() {
    // The no-throttle contention baseline (monitor observes but never
    // acts) is its own content point: deterministic across modes and
    // distinct in identity from the throttled run.
    let mut spec = RunSpec::small(Workload::Scn, Engine::Baseline)
        .co_resident(vec![Workload::Mrq], Partitioning::Shared);
    if let caps_metrics::Tenancy::Co { throttle, .. } = &mut spec.tenancy {
        *throttle = false;
    }
    let naive = run_one_with_fast_forward(&spec, false);
    let wake = run_one_with_fast_forward(&spec, true);
    assert_eq!(wake.stats, naive.stats);
    assert_eq!(wake.per_kernel, naive.per_kernel);
}
