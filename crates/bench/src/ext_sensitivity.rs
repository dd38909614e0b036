//! Extension experiment: sensitivity of the CAPS speedup to the main
//! microarchitectural knobs around Table III (L1D size, MSHR count,
//! ready-queue size, prefetch-queue depth).

use caps_metrics::{standard_axes, sweep, Engine, SweepResult, Table};
use caps_workloads::{Scale, Workload};

/// Sweep every standard axis over a stride-friendly subset.
pub fn compute(scale: Scale) -> Vec<SweepResult> {
    let workloads = match scale {
        Scale::Small => vec![Workload::Jc1],
        Scale::Full => vec![Workload::Lps, Workload::Jc1, Workload::Cnv, Workload::Mrq],
    };
    standard_axes()
        .into_iter()
        .map(|(axis, points)| sweep(&axis, &points, &workloads, Engine::Caps, scale))
        .collect()
}

/// Render one speedup table per axis.
pub fn render(results: &[SweepResult]) -> String {
    let mut out = "Sensitivity of mean CAPS speedup (vs. same-config baseline)\n\n".to_string();
    for r in results {
        let mut t = Table::new(&[r.axis.as_str(), "CAPS speedup"]);
        for (l, s) in r.labels.iter().zip(&r.speedup) {
            t.row(vec![l.clone(), format!("{s:.3}")]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}
