//! Figure 11 — mean normalized IPC as the maximum concurrent CTAs per
//! SM sweeps over {1, 2, 4, 8}. Everything is normalized to the
//! *8-CTA baseline without prefetching*, as in the paper.

use caps_metrics::{mean, run_matrix, RunSpec, Table};
use caps_workloads::{Scale, Workload};

/// The figure: for each CTA count, the mean normalized IPC per engine
/// (baseline first, then the seven prefetchers).
#[derive(Debug, Clone)]
pub struct Figure11 {
    /// Swept CTA counts.
    pub cta_counts: Vec<usize>,
    /// Engine labels including the no-prefetch baseline.
    pub engines: Vec<&'static str>,
    /// `series[c][e]` = mean normalized IPC at `cta_counts[c]` under
    /// engine `e`.
    pub series: Vec<Vec<f64>>,
}

/// Sweep over an explicit workload list.
pub fn compute_for(workloads: &[Workload], scale: Scale) -> Figure11 {
    let cta_counts = vec![1usize, 2, 4, 8];
    let engines = crate::engines_with_baseline();
    // Reference: 8 CTAs, no prefetch.
    let mut specs = Vec::new();
    for &w in workloads {
        for &c in &cta_counts {
            for &e in &engines {
                let mut s = RunSpec::paper(w, e);
                s.scale = scale;
                s.base_config.max_ctas_per_sm = c;
                specs.push(s);
            }
        }
    }
    let recs = run_matrix(&specs);
    let per_e = engines.len();
    let per_c = cta_counts.len() * per_e;
    let mut series = vec![vec![0.0; per_e]; cta_counts.len()];
    for (ci, _) in cta_counts.iter().enumerate() {
        for (ei, _) in engines.iter().enumerate() {
            let mut normalized = Vec::new();
            for (wi, _) in workloads.iter().enumerate() {
                // Reference IPC: this workload at 8 CTAs, baseline engine.
                let ref_idx = wi * per_c + (cta_counts.len() - 1) * per_e;
                let idx = wi * per_c + ci * per_e + ei;
                normalized.push(recs[idx].ipc() / recs[ref_idx].ipc());
            }
            series[ci][ei] = mean(&normalized);
        }
    }
    Figure11 {
        cta_counts,
        engines: engines.iter().map(|e| e.label()).collect(),
        series,
    }
}

/// Full-suite sweep.
pub fn compute(scale: Scale) -> Figure11 {
    compute_for(&crate::workloads(), scale)
}

/// Render as the paper's grouped-bar table, with the CAPS trend verdict.
pub fn render(fig: &Figure11) -> String {
    let mut header = vec!["CTAs"];
    header.extend(fig.engines.iter());
    let mut t = Table::new(&header);
    for (ci, &c) in fig.cta_counts.iter().enumerate() {
        let mut cells = vec![format!("{c}")];
        cells.extend(fig.series[ci].iter().map(|&x| format!("{x:.3}")));
        t.row(cells);
    }
    let trend = caps_improves_with_ctas(fig);
    format!("{}\nCAPS improves with CTA count: {trend}\n", t.render())
}

/// `true` when the CAPS column is monotonically non-decreasing in the
/// CTA count — the paper's headline trend ("increasing CTA count makes
/// CTA-aware prefetching even more critical").
pub fn caps_improves_with_ctas(fig: &Figure11) -> bool {
    let caps_col = fig
        .engines
        .iter()
        .position(|&e| e == "CAPS")
        .expect("CAPS present");
    fig.series
        .windows(2)
        .all(|w| w[1][caps_col] >= w[0][caps_col] * 0.98)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shape() {
        let fig = compute_for(&[Workload::Jc1], Scale::Small);
        assert_eq!(fig.cta_counts, vec![1, 2, 4, 8]);
        assert_eq!(fig.series.len(), 4);
        assert_eq!(fig.series[0].len(), 8);
        // Fewer concurrent CTAs cannot beat the 8-CTA baseline by much:
        // the 1-CTA baseline column should be below 1.0.
        assert!(fig.series[0][0] <= 1.05);
        let s = render(&fig);
        assert!(s.contains("CTAs"));
    }
}
