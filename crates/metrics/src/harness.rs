//! Parallel experiment harness.
//!
//! Parallelism lives across runs: the evaluation matrix — engines ×
//! benchmarks × configuration sweeps — is embarrassingly parallel, and
//! [`run_matrix`] fans runs out through the [sweep farm](crate::farm),
//! which adds work-stealing workers, content-addressed result caching,
//! and submission dedup while keeping results order-stable and every
//! run deterministic. Each simulation itself is one sequential loop.

use std::sync::atomic::{AtomicUsize, Ordering};

use caps_gpu_sim::config::GpuConfig;
use caps_gpu_sim::gpu::Gpu;
use caps_gpu_sim::stats::{AdaptReport, KernelStats, LinkReport, Stats};
use caps_gpu_sim::tenant::Partitioning;
use caps_workloads::{Scale, Workload};

use crate::energy::{EnergyBreakdown, EnergyModel};
use crate::engine::Engine;

/// How a run occupies the machine: alone (the classic single-kernel
/// evaluation), or co-resident with partner kernels under one of the
/// SM-partitioning policies. Part of the run's content identity — the
/// farm digests it into every job key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tenancy {
    /// The spec's workload owns the whole machine (default).
    Solo,
    /// The spec's workload is tenant 0; `partners` occupy the remaining
    /// kernel contexts under `policy`. Statistics cover the co-run as a
    /// whole; per-tenant counters land in [`RunRecord::per_kernel`].
    Co {
        /// Partner workloads (tenants 1..), same scale as the spec.
        partners: Vec<Workload>,
        /// SM-partitioning policy for the co-run.
        policy: Partitioning,
        /// Interference-monitor throttling on/off (off = the
        /// contention baseline the monitor is judged against).
        throttle: bool,
    },
}

impl Tenancy {
    /// Label for reports: `solo`, or `shared+MRQ` style.
    pub fn label(&self) -> String {
        match self {
            Tenancy::Solo => "solo".to_string(),
            Tenancy::Co {
                partners, policy, ..
            } => {
                let mut s = policy.name().to_string();
                for p in partners {
                    s.push('+');
                    s.push_str(p.abbr());
                }
                s
            }
        }
    }
}

/// One cell of the evaluation matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Benchmark.
    pub workload: Workload,
    /// Prefetcher×scheduler configuration.
    pub engine: Engine,
    /// Base GPU configuration (the engine overrides the scheduler).
    pub base_config: GpuConfig,
    /// Kernel scale.
    pub scale: Scale,
    /// Solo run or multi-tenant co-run.
    pub tenancy: Tenancy,
}

impl RunSpec {
    /// Paper-default run: Fermi base config at full scale.
    pub fn paper(workload: Workload, engine: Engine) -> Self {
        RunSpec {
            workload,
            engine,
            base_config: GpuConfig::fermi_gtx480(),
            scale: Scale::Full,
            tenancy: Tenancy::Solo,
        }
    }

    /// Fast run for tests.
    pub fn small(workload: Workload, engine: Engine) -> Self {
        RunSpec {
            workload,
            engine,
            base_config: GpuConfig::fermi_gtx480(),
            scale: Scale::Small,
            tenancy: Tenancy::Solo,
        }
    }

    /// Make this spec a co-run: `partners` join the spec's workload as
    /// tenants 1.. under `policy`, with interference throttling on.
    pub fn co_resident(mut self, partners: Vec<Workload>, policy: Partitioning) -> Self {
        self.tenancy = Tenancy::Co {
            partners,
            policy,
            throttle: true,
        };
        self
    }
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Benchmark abbreviation.
    pub workload: String,
    /// Engine label.
    pub engine: String,
    /// Raw statistics.
    pub stats: Stats,
    /// Energy breakdown under the default model.
    pub energy: EnergyBreakdown,
    /// Port/link occupancy and backpressure summary (host-side
    /// observability kept outside `stats`).
    pub links: LinkReport,
    /// Per-tenant counters for co-runs, tenant 0 first (empty for solo
    /// runs). Attribution counters are part of the bit-identity
    /// surface; `start_cycle`/`finish_cycle` bound each tenant's
    /// residency window.
    pub per_kernel: Vec<KernelStats>,
    /// Report of the engine selector earlier simulator versions ran;
    /// always [`AdaptReport::default`] in new records.
    pub adapt: AdaptReport,
}

impl RunRecord {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }
}

/// Per-run overrides for [`run_one_with_opts`]; `None`/default leaves
/// the simulator's defaults untouched.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunOpts {
    /// Wake-driven stepping on/off (default on); both settings produce
    /// identical records, and naive stepping is the reference the
    /// differential suites compare against.
    pub fast_forward: Option<bool>,
    /// Cycle ceiling override (default [`caps_gpu_sim::gpu::DEFAULT_MAX_CYCLES`]);
    /// the differential suite uses it to bound full-scale runs.
    pub max_cycles: Option<u64>,
}

/// Execute one spec (blocking).
pub fn run_one(spec: &RunSpec) -> RunRecord {
    run_one_with_opts(spec, &RunOpts::default())
}

/// Execute one spec with wake-driven stepping explicitly on or off.
/// Both settings produce bit-identical records; differential tests and
/// the throughput benchmark compare the two.
pub fn run_one_with_fast_forward(spec: &RunSpec, fast_forward: bool) -> RunRecord {
    run_one_with_opts(
        spec,
        &RunOpts {
            fast_forward: Some(fast_forward),
            ..RunOpts::default()
        },
    )
}

/// Execute one spec with explicit engine overrides ([`RunOpts`]).
pub fn run_one_with_opts(spec: &RunSpec, opts: &RunOpts) -> RunRecord {
    let kernel = spec.workload.kernel(spec.scale);
    let cfg = spec.engine.configure(&spec.base_config);
    let factory = spec.engine.factory();
    let mut gpu = Gpu::new(cfg, kernel, &*factory);
    if let Some(on) = opts.fast_forward {
        gpu.set_fast_forward(on);
    }
    let max_cycles = opts
        .max_cycles
        .unwrap_or(caps_gpu_sim::gpu::DEFAULT_MAX_CYCLES);
    let (stats, per_kernel) = match &spec.tenancy {
        Tenancy::Solo => {
            let launches = match spec.scale {
                Scale::Full => spec.workload.launches(),
                Scale::Small => 1,
            };
            (gpu.run_launches(launches, max_cycles), Vec::new())
        }
        Tenancy::Co {
            partners,
            policy,
            throttle,
        } => {
            // Tenant 0 is the spec's workload; partners fill the
            // remaining contexts. One co-launch (back-to-back launch
            // batching is a solo-run notion).
            let mut kernels = vec![gpu.kernel().clone()];
            kernels.extend(partners.iter().map(|p| p.kernel(spec.scale)));
            gpu.set_tenant_throttling(*throttle);
            gpu.run_tenants(&kernels, *policy, max_cycles)
        }
    };
    let energy = EnergyModel::default().evaluate(&stats, spec.engine.uses_cap_tables());
    RunRecord {
        workload: spec.workload.abbr().to_string(),
        engine: spec.engine.label().to_string(),
        stats,
        energy,
        links: gpu.link_report(),
        per_kernel,
        adapt: gpu.adapt_report(),
    }
}

/// Worker-count override for [`run_matrix`]: 0 = auto-detect.
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Set the worker count used by [`run_matrix`] (and everything built on
/// it — the figure modules, the sweep driver). `0` restores the default
/// auto-detection from `available_parallelism`. `run_all` exposes this
/// as its `--jobs N` flag.
pub fn set_default_threads(threads: usize) {
    DEFAULT_THREADS.store(threads, Ordering::Relaxed);
}

/// Execute a matrix of specs in parallel; results are index-aligned with
/// the input order regardless of completion order. A thin client of the
/// [sweep farm](crate::farm): repeated specs dedup to one simulation and
/// previously-computed points resolve from the result cache.
pub fn run_matrix(specs: &[RunSpec]) -> Vec<RunRecord> {
    run_matrix_with_threads(specs, default_threads())
}

/// Parallel runner with an explicit worker count.
pub fn run_matrix_with_threads(specs: &[RunSpec], threads: usize) -> Vec<RunRecord> {
    let jobs: Vec<crate::farm::FarmJob> = specs
        .iter()
        .map(|s| crate::farm::FarmJob::new(s.clone()))
        .collect();
    crate::farm::Farm::global(threads).run(&jobs).0
}

pub(crate) fn default_threads() -> usize {
    match DEFAULT_THREADS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
        n => n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_one_produces_consistent_record() {
        let r = run_one(&RunSpec::small(Workload::Jc1, Engine::Baseline));
        assert_eq!(r.workload, "JC1");
        assert_eq!(r.engine, "BASE");
        assert!(r.stats.cycles > 0);
        assert!(r.ipc() > 0.0);
        assert_eq!(r.stats.prefetch_issued, 0);
    }

    #[test]
    fn matrix_results_are_input_ordered_and_deterministic() {
        let specs = vec![
            RunSpec::small(Workload::Jc1, Engine::Baseline),
            RunSpec::small(Workload::Mm, Engine::Caps),
            RunSpec::small(Workload::Jc1, Engine::Baseline),
        ];
        let a = run_matrix_with_threads(&specs, 3);
        assert_eq!(a[0].workload, "JC1");
        assert_eq!(a[1].workload, "MM");
        assert_eq!(a[1].engine, "CAPS");
        // Same spec → identical stats, and parallel == serial.
        assert_eq!(a[0].stats, a[2].stats);
        let b = run_matrix_with_threads(&specs, 1);
        assert_eq!(a[0].stats, b[0].stats);
        assert_eq!(a[1].stats, b[1].stats);
    }

    #[test]
    fn pas_gto_configuration_runs() {
        let r = run_one(&RunSpec::small(Workload::Jc1, Engine::CapsOnPasGto));
        assert_eq!(r.engine, "CAPS@GTO");
        assert!(r.stats.ctas_completed > 0);
        assert!(r.stats.prefetch_issued > 0, "CAP engine active on PA-GTO");
    }

    #[test]
    fn co_resident_runs_fill_per_kernel_stats() {
        for policy in Partitioning::all() {
            let spec = RunSpec::small(Workload::Scn, Engine::Caps)
                .co_resident(vec![Workload::Mrq], policy);
            let r = run_one(&spec);
            assert_eq!(r.per_kernel.len(), 2, "{policy}");
            assert!(r.per_kernel.iter().all(|k| k.ctas_completed > 0), "{policy}");
            assert!(r.per_kernel.iter().all(|k| k.ipc() > 0.0), "{policy}");
            let insns: u64 = r.per_kernel.iter().map(|k| k.instructions).sum();
            assert_eq!(insns, r.stats.warp_instructions, "{policy}");
        }
        // Solo runs carry no per-tenant block.
        let solo = run_one(&RunSpec::small(Workload::Scn, Engine::Caps));
        assert!(solo.per_kernel.is_empty());
    }

    #[test]
    fn caps_runs_issue_prefetches_on_stride_kernels() {
        let r = run_one(&RunSpec::small(Workload::Cnv, Engine::Caps));
        assert!(r.stats.prefetch_issued > 0, "CAPS must prefetch on CNV");
        assert!(r.energy.caps_mj > 0.0);
    }
}
