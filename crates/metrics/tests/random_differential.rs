//! Randomized naive-vs-wake differential test.
//!
//! Each case draws a small machine from its seed — SM, partition and
//! channel counts, interconnect latency and queue depth, L1 MSHRs,
//! prefetch queue depth and the two-level ready-queue size — and runs a
//! drawn small-scale workload under a
//! drawn engine, once with naive stepping and once wake-driven. Every
//! third case is instead a two-tenant co-run with interference
//! throttling on, cycling through the three partitioning policies. Both
//! modes must agree on `Stats`, per-tenant `KernelStats` and the link
//! report, and no ring may grow past its reserved bound. A failure
//! names the seed that reproduces it.

use caps_gpu_sim::config::GpuConfig;
use caps_metrics::{run_one_with_opts, Engine, Partitioning, RunOpts, RunRecord, RunSpec};
use caps_workloads::{all_workloads, Scale};

/// Cases per run; sized to keep the suite well under a minute.
const CASES: u64 = 300;

/// Guard against a drawn machine that deadlocks: both modes stop at the
/// same cap, so the comparison still holds.
const MAX_CYCLES: u64 = 2_000_000;

/// SplitMix64: each seed expands into its own stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.next() as usize % xs.len()]
    }
}

fn draw_config(rng: &mut Rng) -> GpuConfig {
    let mut cfg = GpuConfig::fermi_gtx480();
    // Stores have no in-flight bound, so the request pipes are sized
    // from SM and L1 MSHR counts with headroom measured on the suite
    // (DESIGN.md §9d); that sizing holds from four SMs and 16 MSHRs up,
    // with at least as many partitions as SMs as in the paper's machine.
    cfg.num_sms = rng.range(4, 8) as usize;
    cfg.num_dram_channels = rng.range(1, 4) as usize;
    let per_channel = cfg.num_sms.div_ceil(cfg.num_dram_channels);
    cfg.num_partitions = cfg.num_dram_channels * (per_channel + rng.range(0, 1) as usize);
    cfg.icnt_latency = rng.range(0, 40) as u32;
    cfg.icnt_queue_depth = rng.range(1, 8) as usize;
    cfg.l1d.mshr_entries = rng.pick(&[16, 32, 64]);
    cfg.prefetch_queue_depth = rng.pick(&[4, 16, 64]);
    // A parked SM's timer scan covers only the two-level ready queue, so
    // its size decides which warps wake the SM.
    cfg.ready_queue_size = rng.pick(&[1, 2, 4, 8]);
    cfg
}

fn run(spec: &RunSpec, fast_forward: bool) -> RunRecord {
    run_one_with_opts(
        spec,
        &RunOpts {
            fast_forward: Some(fast_forward),
            max_cycles: Some(MAX_CYCLES),
        },
    )
}

#[test]
fn naive_and_wake_driven_stepping_agree_on_random_machines() {
    let workloads = all_workloads();
    let engines = [
        Engine::Baseline,
        Engine::Intra,
        Engine::Inter,
        Engine::Mta,
        Engine::Nlp,
        Engine::Lap,
        Engine::Orch,
        Engine::Caps,
        Engine::CapsNoWakeup,
        Engine::CapsOnLrr,
        Engine::CapsOnPasGto,
    ];
    for seed in 0..CASES {
        let mut rng = Rng(seed);
        let co_run = seed % 3 == 2;
        let cfg = draw_config(&mut rng);
        let mut spec = RunSpec::small(rng.pick(&workloads), rng.pick(&engines));
        spec.scale = Scale::Small;
        spec.base_config = cfg;
        if co_run {
            let policy = Partitioning::all()[(seed / 3) as usize % 3];
            spec = spec.co_resident(vec![rng.pick(&workloads)], policy);
        }
        let case = format!("seed {seed}: {spec:?}");
        let naive = run(&spec, false);
        let wake = run(&spec, true);
        assert_eq!(wake.stats, naive.stats, "Stats diverged, {case}");
        assert_eq!(
            wake.per_kernel, naive.per_kernel,
            "per-tenant stats diverged, {case}"
        );
        assert_eq!(wake.links, naive.links, "link report diverged, {case}");
        assert_eq!(wake.links.total().grows, 0, "a ring grew, {case}");
        assert!(naive.stats.cycles > 0, "nothing ran, {case}");
    }
}
