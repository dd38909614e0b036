//! Figure 12 — prefetch coverage (a) and accuracy (b) per benchmark for
//! every prefetcher configuration.

use caps_metrics::{mean, Engine, Table};
use caps_workloads::{Scale, Workload};

use crate::run_grid;

/// Coverage and accuracy grids.
#[derive(Debug, Clone)]
pub struct Figure12 {
    /// Engine labels.
    pub engines: Vec<&'static str>,
    /// Benchmark abbreviations.
    pub workloads: Vec<String>,
    /// `coverage[w][e]`.
    pub coverage: Vec<Vec<f64>>,
    /// `accuracy[w][e]`.
    pub accuracy: Vec<Vec<f64>>,
}

/// Compute over an explicit workload list.
pub fn compute_for(workloads: &[Workload], scale: Scale) -> Figure12 {
    let engines: Vec<Engine> = Engine::FIGURE10.to_vec();
    let recs = run_grid(workloads, &engines, scale);
    let per = engines.len();
    let mut coverage = Vec::new();
    let mut accuracy = Vec::new();
    for (i, _) in workloads.iter().enumerate() {
        coverage.push(
            (0..per)
                .map(|j| recs[i * per + j].stats.coverage())
                .collect(),
        );
        accuracy.push(
            (0..per)
                .map(|j| recs[i * per + j].stats.accuracy())
                .collect(),
        );
    }
    Figure12 {
        engines: engines.iter().map(|e| e.label()).collect(),
        workloads: workloads.iter().map(|w| w.abbr().to_string()).collect(),
        coverage,
        accuracy,
    }
}

/// Full suite.
pub fn compute(scale: Scale) -> Figure12 {
    compute_for(&crate::workloads(), scale)
}

fn render_grid(title: &str, fig: &Figure12, grid: &[Vec<f64>]) -> String {
    let mut header = vec!["bench"];
    header.extend(fig.engines.iter());
    let mut t = Table::new(&header);
    for (i, w) in fig.workloads.iter().enumerate() {
        let mut cells = vec![w.clone()];
        cells.extend(grid[i].iter().map(|&x| format!("{:.1}%", x * 100.0)));
        t.row(cells);
    }
    let mut cells = vec!["Mean".to_string()];
    for j in 0..fig.engines.len() {
        let col: Vec<f64> = grid.iter().map(|r| r[j]).collect();
        cells.push(format!("{:.1}%", mean(&col) * 100.0));
    }
    t.row(cells);
    format!("{title}\n{}", t.render())
}

/// Render both panels and the CAPS means.
pub fn render(fig: &Figure12) -> String {
    let (cov, acc) = caps_means(fig);
    format!(
        "{}\n{}\nCAPS means: coverage {:.1}%, accuracy {:.1}%\n",
        render_grid("(a) Coverage", fig, &fig.coverage),
        render_grid("(b) Accuracy", fig, &fig.accuracy),
        cov * 100.0,
        acc * 100.0
    )
}

/// Mean CAPS coverage and accuracy (the paper reports 18% / 97%).
pub fn caps_means(fig: &Figure12) -> (f64, f64) {
    let j = fig.engines.iter().position(|&e| e == "CAPS").expect("CAPS");
    let cov: Vec<f64> = fig.coverage.iter().map(|r| r[j]).collect();
    let acc: Vec<f64> = fig
        .accuracy
        .iter()
        .map(|r| r[j])
        .filter(|&a| a > 0.0)
        .collect();
    (mean(&cov), mean(&acc))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caps_prefetches_accurately_on_stride_kernels() {
        let fig = compute_for(&[Workload::Jc1], Scale::Small);
        let (cov, acc) = caps_means(&fig);
        assert!(cov > 0.0, "CAPS must cover some demand");
        assert!(
            acc > 0.8,
            "CAPS accuracy must be high on a stride kernel, got {acc}"
        );
        let s = render(&fig);
        assert!(s.contains("Coverage") && s.contains("Accuracy"));
    }
}
