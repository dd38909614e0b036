//! Figure 13 — bandwidth overhead of prefetching: (a) memory request
//! traffic from the SMs, (b) data read from DRAM, both normalized to
//! the no-prefetch baseline.

use caps_metrics::{mean, Table};
use caps_workloads::{Scale, Workload};

use crate::run_grid;

/// Normalized traffic grids.
#[derive(Debug, Clone)]
pub struct Figure13 {
    /// Engine labels (prefetchers only; the baseline is the divisor).
    pub engines: Vec<&'static str>,
    /// Benchmark abbreviations.
    pub workloads: Vec<String>,
    /// `requests[w][e]`: SM→memory request traffic vs. baseline.
    pub requests: Vec<Vec<f64>>,
    /// `dram_reads[w][e]`: DRAM read traffic vs. baseline.
    pub dram_reads: Vec<Vec<f64>>,
}

/// Compute over an explicit workload list.
pub fn compute_for(workloads: &[Workload], scale: Scale) -> Figure13 {
    let engines = crate::engines_with_baseline();
    let recs = run_grid(workloads, &engines, scale);
    let per = engines.len();
    let mut requests = Vec::new();
    let mut dram_reads = Vec::new();
    for (i, _) in workloads.iter().enumerate() {
        let base = &recs[i * per].stats;
        requests.push(
            (1..per)
                .map(|j| {
                    recs[i * per + j].stats.icnt_requests as f64 / base.icnt_requests.max(1) as f64
                })
                .collect(),
        );
        dram_reads.push(
            (1..per)
                .map(|j| recs[i * per + j].stats.dram_reads as f64 / base.dram_reads.max(1) as f64)
                .collect(),
        );
    }
    Figure13 {
        engines: engines[1..].iter().map(|e| e.label()).collect(),
        workloads: workloads.iter().map(|w| w.abbr().to_string()).collect(),
        requests,
        dram_reads,
    }
}

/// Full suite.
pub fn compute(scale: Scale) -> Figure13 {
    compute_for(&crate::workloads(), scale)
}

fn render_grid(title: &str, fig: &Figure13, grid: &[Vec<f64>]) -> String {
    let mut header = vec!["bench"];
    header.extend(fig.engines.iter());
    let mut t = Table::new(&header);
    for (i, w) in fig.workloads.iter().enumerate() {
        let mut cells = vec![w.clone()];
        cells.extend(grid[i].iter().map(|&x| format!("{x:.2}")));
        t.row(cells);
    }
    let mut cells = vec!["Mean".to_string()];
    for j in 0..fig.engines.len() {
        let col: Vec<f64> = grid.iter().map(|r| r[j]).collect();
        cells.push(format!("{:.2}", mean(&col)));
    }
    t.row(cells);
    format!("{title}\n{}", t.render())
}

/// Render both panels and the CAPS request-traffic overhead.
pub fn render(fig: &Figure13) -> String {
    format!(
        "{}\n{}\nCAPS request-traffic overhead: {:+.1}%\n",
        render_grid(
            "(a) Fetch requests from cores (normalized)",
            fig,
            &fig.requests
        ),
        render_grid("(b) Data read from DRAM (normalized)", fig, &fig.dram_reads),
        caps_request_overhead(fig) * 100.0
    )
}

/// Mean CAPS request-traffic overhead (paper: ≈3%).
pub fn caps_request_overhead(fig: &Figure13) -> f64 {
    let j = fig.engines.iter().position(|&e| e == "CAPS").expect("CAPS");
    mean(&fig.requests.iter().map(|r| r[j]).collect::<Vec<_>>()) - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_is_normalized_and_bounded() {
        let fig = compute_for(&[Workload::Scn], Scale::Small);
        assert_eq!(fig.requests[0].len(), 7);
        assert!(
            fig.requests[0].iter().all(|&x| x >= 0.9),
            "{:?}",
            fig.requests
        );
        let s = render(&fig);
        assert!(s.contains("DRAM"));
    }
}
