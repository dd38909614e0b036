//! Figure 1 — accuracy and prefetch distance (cycle gap) of simple
//! inter-warp stride prefetching on matrixMul, as the targeted warp
//! distance sweeps 1..10.
//!
//! MM has 8 warps per CTA: at distance ≥ 7 essentially every prediction
//! crosses a CTA boundary, where the next CTA's base address is
//! unrelated — the accuracy cliff that motivates CAP.

use caps_metrics::{run_matrix, Engine, RunSpec, Table};
use caps_workloads::{Scale, Workload};

/// One sweep point.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Warp distance the prefetcher targets.
    pub distance: u32,
    /// Prefetch accuracy (consumed / issued).
    pub accuracy: f64,
    /// Mean cycle gap between prefetch issue and the demand.
    pub gap_cycles: f64,
}

/// Sweep distances 1..=10 on MM.
pub fn compute(scale: Scale) -> Vec<Point> {
    let specs: Vec<RunSpec> = (1..=10)
        .map(|d| {
            let mut s = RunSpec::paper(Workload::Mm, Engine::InterAtDistance(d));
            s.scale = scale;
            s
        })
        .collect();
    let recs = run_matrix(&specs);
    recs.iter()
        .zip(1..=10u32)
        .map(|(r, d)| Point {
            distance: d,
            accuracy: r.stats.accuracy(),
            gap_cycles: r.stats.mean_prefetch_distance(),
        })
        .collect()
}

/// Render the two series and the cliff verdict.
pub fn render(points: &[Point]) -> String {
    let mut t = Table::new(&["warp distance", "accuracy", "gap (cycles)"]);
    for p in points {
        t.row(vec![
            format!("{}", p.distance),
            format!("{:.1}%", p.accuracy * 100.0),
            format!("{:.0}", p.gap_cycles),
        ]);
    }
    let cliff = shows_cta_boundary_cliff(points);
    format!("{}\nCTA-boundary cliff: {cliff}\n", t.render())
}

/// The headline property: accuracy within the CTA (distance ≤ 2) beats
/// accuracy across the boundary (distance ≥ 8), and the gap grows with
/// distance.
pub fn shows_cta_boundary_cliff(points: &[Point]) -> bool {
    let near: f64 = points[..2].iter().map(|p| p.accuracy).sum::<f64>() / 2.0;
    let far: f64 = points[7..].iter().map(|p| p.accuracy).sum::<f64>() / 3.0;
    near > far
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_has_ten_points() {
        let pts = compute(Scale::Small);
        assert_eq!(pts.len(), 10);
        assert!(render(&pts).contains("warp distance"));
    }
}
