//! Figure 5 / §IV — demonstration that CTA base addresses observed by
//! one SM are irregular in arrival order while the warp stride within
//! every CTA is a single kernel-wide constant: the two facts CAP is
//! built on.

use caps_gpu_sim::coalescer::coalesce;
use caps_gpu_sim::config::GpuConfig;
use caps_gpu_sim::isa::Op;
use caps_metrics::Table;
use caps_workloads::{Scale, Workload};

/// The demonstration data for one benchmark's first targeted load.
#[derive(Debug, Clone)]
pub struct Demo {
    /// Benchmark abbreviation.
    pub workload: String,
    /// CTA linear ids in an interleaved arrival order (one SM's view).
    pub ctas: Vec<u32>,
    /// Base line address of each CTA.
    pub bases: Vec<u64>,
    /// Deltas between consecutive bases (irregular).
    pub base_deltas: Vec<i64>,
    /// The intra-CTA warp strides measured per CTA (all equal).
    pub warp_strides: Vec<i64>,
}

/// Build the demonstration for `workload`'s first affine load, sampling
/// the CTAs one SM would receive under round-robin distribution.
pub fn compute_for(workload: Workload) -> Demo {
    let cfg = GpuConfig::fermi_gtx480();
    let k = workload.kernel(Scale::Full);
    let pattern = k
        .program
        .ops()
        .iter()
        .find_map(|op| match op {
            Op::Ld { pattern, .. } if pattern.is_affine() => Some(*pattern),
            _ => None,
        })
        .expect("workload has an affine load");
    // SM 0 receives CTAs 0, 15, 30, … under the initial round-robin.
    let ctas: Vec<u32> = (0..6u32)
        .map(|i| i * cfg.num_sms as u32)
        .filter(|&c| c < k.num_ctas())
        .collect();
    let mut bases = Vec::new();
    let mut warp_strides = Vec::new();
    let mut lines = Vec::new();
    for &c in &ctas {
        let coord = k.cta_coord(c);
        coalesce(&pattern, coord, 0, 0, 32, cfg.l1d.line_size, &mut lines);
        bases.push(lines[0]);
        coalesce(&pattern, coord, 1, 0, 32, cfg.l1d.line_size, &mut lines);
        let w1 = lines[0] as i64;
        warp_strides.push(w1 - bases.last().copied().expect("pushed") as i64);
    }
    let base_deltas = bases
        .windows(2)
        .map(|w| w[1] as i64 - w[0] as i64)
        .collect();
    Demo {
        workload: workload.abbr().to_string(),
        ctas,
        bases,
        base_deltas,
        warp_strides,
    }
}

/// The demonstrations: LPS (the paper's own example), MM and BFS.
pub fn compute() -> Vec<Demo> {
    [Workload::Lps, Workload::Mm, Workload::Bfs]
        .into_iter()
        .map(compute_for)
        .collect()
}

/// Render each demonstration with its §IV verdict.
pub fn render(demos: &[Demo]) -> String {
    let blocks: Vec<String> = demos
        .iter()
        .map(|d| {
            let mut t = Table::new(&["CTA (arrival)", "base address", "Δ base", "warp stride"]);
            for i in 0..d.ctas.len() {
                t.row(vec![
                    format!("{}", d.ctas[i]),
                    format!("{:#x}", d.bases[i]),
                    if i == 0 {
                        "-".to_string()
                    } else {
                        format!("{}", d.base_deltas[i - 1])
                    },
                    format!("{}", d.warp_strides[i]),
                ]);
            }
            format!(
                "{} (first targeted load)\n{}\nirregular bases + constant warp stride: {}\n",
                d.workload,
                t.render(),
                demonstrates_cap_premise(d)
            )
        })
        .collect();
    blocks.join("\n")
}

/// The §IV facts: irregular base deltas, one common warp stride.
pub fn demonstrates_cap_premise(d: &Demo) -> bool {
    let strides_equal = d.warp_strides.windows(2).all(|w| w[0] == w[1]);
    let deltas_irregular = d.base_deltas.windows(2).any(|w| w[0] != w[1]);
    strides_equal && deltas_irregular
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lps_demonstrates_the_premise() {
        let d = compute_for(Workload::Lps);
        assert!(demonstrates_cap_premise(&d), "{d:?}");
        assert!(render(&[d]).contains("warp stride: true"));
    }

    #[test]
    fn mm_demonstrates_the_premise_too() {
        let d = compute_for(Workload::Mm);
        assert!(demonstrates_cap_premise(&d), "{d:?}");
    }
}
