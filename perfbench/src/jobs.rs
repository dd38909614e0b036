//! Seeded job lists, one per benchmark workload. The seed only picks
//! inputs; the program under test receives the generated `FarmJob`s.

use caps_gpu_sim::config::GpuConfig;
use caps_metrics::{sweep_jobs, Engine, FarmJob, Partitioning, RunSpec, SweepPoint, Tenancy};
use caps_workloads::{all_workloads, Scale, Workload};

/// SplitMix64: a small, well-mixed generator, so a seed alone fixes
/// every input of a run.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Figure 10: 16 kernels × (BASE + the seven Fig. 10 engines) at full
/// scale, 128 jobs in seeded submission order.
pub fn fig10(seed: u64) -> Vec<FarmJob> {
    let mut jobs: Vec<FarmJob> = all_workloads()
        .into_iter()
        .flat_map(|w| {
            std::iter::once(Engine::Baseline)
                .chain(Engine::FIGURE10)
                .map(move |e| FarmJob::new(RunSpec::paper(w, e)))
        })
        .collect();
    Rng::new(seed).shuffle(&mut jobs);
    jobs
}

/// Config points of the sensitivity sweep.
pub const SWEEP_POINTS: usize = 14;

/// The `SWEEP_POINTS` configurations of `sweep-cache`: Table III first,
/// then distinct points drawn by `seed` from the product of the
/// `standard_axes()` values (L1D size × MSHRs × ready queue × prefetch
/// queue).
pub fn sweep_configs(seed: u64) -> Vec<GpuConfig> {
    let table3 = GpuConfig::fermi_gtx480();
    let axes: Vec<Vec<GpuConfig>> = caps_metrics::standard_axes()
        .into_iter()
        .map(|(_, points)| points.into_iter().map(|p| p.config).collect())
        .collect();
    // Each axis varies one field of Table III; a product point takes
    // that field from its pick on every axis.
    let mut product = vec![table3.clone()];
    for (axis, points) in axes.iter().enumerate() {
        product = product
            .iter()
            .flat_map(|base| {
                points.iter().map(move |p| {
                    let mut c = base.clone();
                    match axis {
                        0 => c.l1d.size_bytes = p.l1d.size_bytes,
                        1 => c.l1d.mshr_entries = p.l1d.mshr_entries,
                        2 => c.ready_queue_size = p.ready_queue_size,
                        _ => c.prefetch_queue_depth = p.prefetch_queue_depth,
                    }
                    c
                })
            })
            .collect();
    }
    product.retain(|c| *c != table3);
    let mut rng = Rng::new(seed);
    rng.shuffle(&mut product);
    let mut configs = vec![table3];
    configs.extend(product.into_iter().take(SWEEP_POINTS - 1));
    configs
}

/// `sweep-cache`: every sweep configuration × 16 kernels × {BASE, CAPS}
/// at small scale, in the order `sweep()` submits them.
pub fn sweep(seed: u64) -> Vec<FarmJob> {
    let points: Vec<SweepPoint> = sweep_configs(seed)
        .into_iter()
        .enumerate()
        .map(|(i, config)| SweepPoint {
            label: format!("p{i}"),
            config,
        })
        .collect();
    sweep_jobs(&points, &all_workloads(), Engine::Caps, Scale::Small)
}

/// The co-run pairings of `TENANTS_corun.json`, tenant 0 first.
pub const PAIRINGS: [[Workload; 2]; 2] = [
    [Workload::Scn, Workload::Mrq],
    [Workload::Mm, Workload::Bfs],
];

/// One co-run job with the keys of its `TENANTS_corun.json` entry.
pub struct CorunJob {
    /// The job submitted.
    pub job: FarmJob,
    /// `SCN+MRQ` style pairing label.
    pub pairing: String,
    /// Partitioning policy name.
    pub policy: &'static str,
}

/// `corun-served`: both pairings × {exclusive, sm-split, shared} ×
/// {BASE, CAPS} at full scale, throttling on, in seeded order.
pub fn corun(seed: u64) -> Vec<CorunJob> {
    let mut jobs = Vec::new();
    for group in PAIRINGS {
        let pairing = group.map(|w| w.abbr()).join("+");
        for policy in Partitioning::all() {
            for engine in [Engine::Baseline, Engine::Caps] {
                jobs.push(CorunJob {
                    job: FarmJob::new(
                        RunSpec::paper(group[0], engine).co_resident(group[1..].to_vec(), policy),
                    ),
                    pairing: pairing.clone(),
                    policy: policy.name(),
                });
            }
        }
    }
    Rng::new(seed).shuffle(&mut jobs);
    jobs
}

/// Materialize and validate the kernel IR of every job, partners
/// included: the check a submitter makes before its first job goes out.
pub fn materialize_ir(jobs: &[FarmJob]) -> Result<(), String> {
    for job in jobs {
        let spec = &job.spec;
        let partners: &[Workload] = match &spec.tenancy {
            Tenancy::Solo => &[],
            Tenancy::Co { partners, .. } => partners,
        };
        for w in std::iter::once(&spec.workload).chain(partners) {
            w.kernel(spec.scale)
                .validate()
                .map_err(|e| format!("{}: invalid kernel IR: {e}", w.abbr()))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_jobs_other_seed_other_order() {
        let key = |jobs: &[FarmJob]| jobs.iter().map(FarmJob::digest).collect::<Vec<_>>();
        assert_eq!(key(&fig10(7)), key(&fig10(7)));
        assert_ne!(key(&fig10(7)), key(&fig10(8)));
        let mut a = key(&fig10(7));
        let mut b = key(&fig10(8));
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "the seed permutes, never changes, the Fig. 10 grid");
        assert_eq!(a.len(), 128);
        a.dedup();
        assert_eq!(a.len(), 128, "no duplicate jobs");
    }

    #[test]
    fn sweep_draws_distinct_valid_points_around_table3() {
        for seed in [0, 1, 99] {
            let configs = sweep_configs(seed);
            assert_eq!(configs.len(), SWEEP_POINTS);
            assert_eq!(configs[0], GpuConfig::fermi_gtx480());
            for (i, c) in configs.iter().enumerate() {
                c.validate();
                assert!(!configs[..i].contains(c), "seed {seed}: point {i} repeats");
            }
            assert_eq!(sweep(seed).len(), SWEEP_POINTS * 16 * 2);
        }
        assert_ne!(sweep_configs(1), sweep_configs(2));
    }

    #[test]
    fn corun_covers_the_committed_table() {
        let jobs = corun(3);
        assert_eq!(jobs.len(), 12);
        let mut keys: Vec<String> = jobs
            .iter()
            .map(|j| format!("{}/{}/{}", j.pairing, j.policy, j.job.spec.engine.label()))
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 12);
        materialize_ir(&jobs.iter().map(|j| j.job.clone()).collect::<Vec<_>>()).unwrap();
    }
}
