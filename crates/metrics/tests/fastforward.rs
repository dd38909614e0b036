//! Differential property test for wake-driven stepping.
//!
//! The simulator's run loop visits only the components that can act in
//! a cycle and jumps over cycles in which none can. The contract is
//! strict: every [`caps_gpu_sim::stats::Stats`] field — and therefore
//! every derived metric and energy number — must be **bit-identical** to
//! naive cycle-by-cycle stepping, on every workload and engine, and so
//! must the link report.
//!
//! This suite runs the full workload suite at small scale under a
//! representative cross-section of engines and compares the two modes
//! field by field.

use caps_metrics::{run_one_with_fast_forward, Engine, RunSpec};
use caps_workloads::all_workloads;

fn assert_modes_agree(spec: &RunSpec) {
    let fast = run_one_with_fast_forward(spec, true);
    let naive = run_one_with_fast_forward(spec, false);
    assert_eq!(
        fast.stats, naive.stats,
        "stats diverged on {} / {}",
        fast.workload, fast.engine
    );
    assert_eq!(
        fast.links, naive.links,
        "link report diverged on {} / {}",
        fast.workload, fast.engine
    );
    assert_eq!(
        fast.energy.total_mj(),
        naive.energy.total_mj(),
        "energy diverged on {} / {}",
        fast.workload,
        fast.engine
    );
}

/// Every workload under the baseline (no prefetcher): exercises pure
/// scheduler/memory-system quiescence.
#[test]
fn fast_forward_matches_naive_on_all_workloads_baseline() {
    for w in all_workloads() {
        assert_modes_agree(&RunSpec::small(w, Engine::Baseline));
    }
}

/// Every workload under the full CAPS engine: exercises prefetch queues,
/// the prefetch virtual channels, and age-out deadlines.
#[test]
fn fast_forward_matches_naive_on_all_workloads_caps() {
    for w in all_workloads() {
        assert_modes_agree(&RunSpec::small(w, Engine::Caps));
    }
}

/// A cross-section of the remaining engines (alternative prefetchers and
/// schedulers) over a memory-bound and a compute-bound workload each.
#[test]
fn fast_forward_matches_naive_across_engines() {
    use caps_workloads::Workload;
    let engines = [
        Engine::Intra,
        Engine::Inter,
        Engine::Mta,
        Engine::Nlp,
        Engine::Lap,
        Engine::Orch,
        Engine::CapsNoWakeup,
        Engine::CapsOnLrr,
        Engine::CapsOnTlv,
        Engine::CapsOnPasGto,
    ];
    for engine in engines {
        assert_modes_agree(&RunSpec::small(Workload::Bfs, engine));
        assert_modes_agree(&RunSpec::small(Workload::Mm, engine));
    }
}
