//! Parameter-sensitivity sweeps.
//!
//! The paper fixes Table III and sweeps only the concurrent-CTA count
//! (Fig. 11). For a library release the natural follow-up questions are
//! "how sensitive is the CAPS benefit to the cache budget, the MSHR
//! count, the ready-queue size, the prefetch-queue depth?" — this module
//! answers them with one generic sweep primitive.

use caps_gpu_sim::config::GpuConfig;
use caps_workloads::{Scale, Workload};

use crate::engine::Engine;
use crate::farm::{Farm, FarmJob, PruneSet};
use crate::harness::{default_threads, RunRecord, RunSpec};
use crate::report::mean;

/// One swept parameter point: label plus the config it produces.
pub struct SweepPoint {
    /// Axis label, e.g. `"l1=32KB"`.
    pub label: String,
    /// The configuration at this point.
    pub config: GpuConfig,
}

/// The result of a sweep: per point, the mean baseline-normalized IPC of
/// the swept engine across the workload set.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Which knob was swept.
    pub axis: String,
    /// Point labels.
    pub labels: Vec<String>,
    /// Mean CAPS speedup at each point (engine IPC / baseline IPC,
    /// both at that point's configuration).
    pub speedup: Vec<f64>,
}

/// Run `engine` and the baseline at every point, over `workloads`, on
/// the process-wide farm (environment-configured cache, default worker
/// count). Duplicate sweep points — overlapping axes that both contain
/// the base configuration, or caller-supplied repeats — collapse to one
/// simulation each via the farm's content-keyed submission dedup.
pub fn sweep(
    axis: &str,
    points: &[SweepPoint],
    workloads: &[Workload],
    engine: Engine,
    scale: Scale,
) -> SweepResult {
    let jobs = sweep_jobs(points, workloads, engine, scale);
    let (recs, _) = Farm::global(default_threads()).run_pruned(&jobs, &PruneSet::new());
    sweep_result(axis, points, &recs)
}

/// Fold a sweep's records into per-point mean speedups. `recs` is
/// index-aligned with [`sweep_jobs`]`(points, ..)`, from whichever
/// executor ran the batch; `None` marks a job skipped by a
/// [`PruneSet`]. A point with *any* pruned job gets a `NaN` speedup and a
/// `"(pruned)"`-suffixed label, so callers tell "measured here" from
/// "already covered elsewhere" without re-simulating the latter.
pub fn sweep_result(axis: &str, points: &[SweepPoint], recs: &[Option<RunRecord>]) -> SweepResult {
    let per_point = (recs.len() / points.len().max(1)).max(1);
    let mut labels = Vec::new();
    let mut speedup = Vec::new();
    for (p, recs) in points.iter().zip(recs.chunks(per_point)) {
        // Each (baseline, engine) pair of one workload.
        let vals: Option<Vec<f64>> = recs
            .chunks(2)
            .map(|pair| Some(pair[1].as_ref()?.ipc() / pair[0].as_ref()?.ipc()))
            .collect();
        match vals {
            Some(vals) => {
                labels.push(p.label.clone());
                speedup.push(mean(&vals));
            }
            None => {
                labels.push(format!("{} (pruned)", p.label));
                speedup.push(f64::NAN);
            }
        }
    }
    SweepResult {
        axis: axis.to_string(),
        labels,
        speedup,
    }
}

/// The farm jobs a sweep submits, in submission order: `points ×
/// workloads × [baseline, engine]`, point-major. Public so sweep
/// drivers can archive the batch's content keys ([`FarmJob::digest`])
/// and prune them from later invocations.
pub fn sweep_jobs(
    points: &[SweepPoint],
    workloads: &[Workload],
    engine: Engine,
    scale: Scale,
) -> Vec<FarmJob> {
    let mut jobs = Vec::new();
    for p in points {
        for &w in workloads {
            for e in [Engine::Baseline, engine] {
                let mut s = RunSpec::paper(w, e);
                s.scale = scale;
                s.base_config = p.config.clone();
                jobs.push(FarmJob::new(s));
            }
        }
    }
    jobs
}

/// The four standard sensitivity axes, centred on Table III.
pub fn standard_axes() -> Vec<(String, Vec<SweepPoint>)> {
    let base = GpuConfig::fermi_gtx480;
    let mut axes = Vec::new();

    let l1: Vec<SweepPoint> = [8u32, 16, 32, 64]
        .iter()
        .map(|&kb| {
            let mut c = base();
            c.l1d.size_bytes = kb * 1024;
            SweepPoint {
                label: format!("{kb}KB"),
                config: c,
            }
        })
        .collect();
    axes.push(("L1D size".to_string(), l1));

    let mshr: Vec<SweepPoint> = [8u32, 16, 32, 64]
        .iter()
        .map(|&n| {
            let mut c = base();
            c.l1d.mshr_entries = n;
            SweepPoint {
                label: format!("{n}"),
                config: c,
            }
        })
        .collect();
    axes.push(("L1 MSHR entries".to_string(), mshr));

    let rq: Vec<SweepPoint> = [4usize, 8, 16]
        .iter()
        .map(|&n| {
            let mut c = base();
            c.ready_queue_size = n;
            SweepPoint {
                label: format!("{n}"),
                config: c,
            }
        })
        .collect();
    axes.push(("ready-queue size".to_string(), rq));

    let pfq: Vec<SweepPoint> = [16usize, 64, 256]
        .iter()
        .map(|&n| {
            let mut c = base();
            c.prefetch_queue_depth = n;
            SweepPoint {
                label: format!("{n}"),
                config: c,
            }
        })
        .collect();
    axes.push(("prefetch-queue depth".to_string(), pfq));

    axes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shapes_are_consistent() {
        let axes = standard_axes();
        assert_eq!(axes.len(), 4);
        for (_, points) in &axes {
            assert!(points.len() >= 3);
        }
        let (axis, points) = axes.into_iter().next().expect("non-empty");
        let r = sweep(&axis, &points, &[Workload::Scn], Engine::Caps, Scale::Small);
        assert_eq!(r.labels.len(), 4);
        assert_eq!(r.speedup.len(), 4);
        assert!(
            r.speedup.iter().all(|&s| s > 0.3 && s < 3.0),
            "{:?}",
            r.speedup
        );
    }

    #[test]
    fn sweep_dedups_repeated_points() {
        use crate::cache::{CacheMode, ResultCache};
        let cache = ResultCache::new(CacheMode::Off, std::env::temp_dir().join("caps-sweep-unused"));
        let farm = Farm::new(&cache, 4);
        let base = GpuConfig::fermi_gtx480;
        // Two identical points plus one distinct, mimicking overlapping
        // axes that both contain the base configuration.
        let mut big = base();
        big.l1d.size_bytes = 64 * 1024;
        let points = vec![
            SweepPoint { label: "base".into(), config: base() },
            SweepPoint { label: "base-again".into(), config: base() },
            SweepPoint { label: "64KB".into(), config: big },
        ];
        let jobs = sweep_jobs(&points, &[Workload::Scn], Engine::Caps, Scale::Small);
        let (recs, stats) = farm.run_pruned(&jobs, &PruneSet::new());
        let r = sweep_result("dup-axis", &points, &recs);
        // 3 points × 1 workload × 2 engines = 6 jobs, but the repeated
        // point's pair dedups: only 4 simulations, deterministically.
        assert_eq!(stats.jobs, 6);
        assert_eq!(stats.sims, 4);
        assert_eq!(stats.dedup, 2);
        assert_eq!(stats.hits(), 0, "cache off: dedup alone collapses repeats");
        assert_eq!(r.speedup[0], r.speedup[1], "identical points, identical result");
    }

    #[test]
    fn pruned_sweep_marks_covered_points() {
        use crate::cache::{CacheMode, ResultCache};
        let cache = ResultCache::new(CacheMode::Off, std::env::temp_dir().join("caps-sweep-unused"));
        let farm = Farm::new(&cache, 2);
        let base = GpuConfig::fermi_gtx480;
        let mut big = base();
        big.l1d.size_bytes = 64 * 1024;
        let points = vec![
            SweepPoint { label: "base".into(), config: base() },
            SweepPoint { label: "64KB".into(), config: big.clone() },
        ];
        // Archive covers the base point's baseline job: the whole point
        // is reported as pruned, the other point still measures.
        let mut prune = PruneSet::new();
        let mut covered = RunSpec::paper(Workload::Scn, Engine::Baseline);
        covered.scale = Scale::Small;
        covered.base_config = base();
        prune.insert(FarmJob::new(covered).digest());
        let jobs = sweep_jobs(&points, &[Workload::Scn], Engine::Caps, Scale::Small);
        let (recs, stats) = farm.run_pruned(&jobs, &prune);
        let r = sweep_result("axis", &points, &recs);
        assert_eq!(stats.pruned, 1);
        assert_eq!(r.labels[0], "base (pruned)");
        assert!(r.speedup[0].is_nan());
        assert_eq!(r.labels[1], "64KB");
        assert!(r.speedup[1] > 0.0);
    }

    #[test]
    fn standard_axes_stay_valid_configs() {
        for (_, points) in standard_axes() {
            for p in points {
                p.config.validate();
            }
        }
    }
}
