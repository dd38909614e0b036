//! Figure 3 — CTA distribution: a round-robin initial fill followed by
//! demand-driven refill, shown as the launch timeline of a simulated
//! run on a miniature machine (3 SMs × 2 CTA slots).

use std::sync::{Arc, Mutex};

use caps_gpu_sim::config::GpuConfig;
use caps_gpu_sim::gpu::Gpu;
use caps_gpu_sim::prefetch::Prefetcher;
use caps_gpu_sim::types::{CtaCoord, CtaSlot};
use caps_metrics::Table;
use caps_workloads::{Scale, Workload};

/// The linear ids of the CTAs one SM launched, in launch order.
type LaunchLog = Arc<Mutex<Vec<u32>>>;

/// A prefetcher that issues nothing and logs its SM's CTA launches.
struct LaunchLogger(LaunchLog);

impl Prefetcher for LaunchLogger {
    fn name(&self) -> &'static str {
        "NONE"
    }

    fn on_cta_launch(&mut self, _slot: CtaSlot, cta: CtaCoord) {
        self.0.lock().expect("launch log poisoned").push(cta.linear);
    }
}

/// The linear ids of the CTAs each SM received, in launch order.
pub fn compute() -> Vec<Vec<u32>> {
    // One log per SM so launches can be attributed.
    let logs: Vec<LaunchLog> = (0..3).map(|_| LaunchLog::default()).collect();
    let shared = logs.clone();
    let factory =
        move |sm: usize| -> Box<dyn Prefetcher> { Box::new(LaunchLogger(shared[sm].clone())) };
    let mut cfg = GpuConfig::test_small();
    cfg.num_sms = 3;
    cfg.max_ctas_per_sm = 2;
    let kernel = Workload::Jc1.kernel(Scale::Small);
    let mut gpu = Gpu::new(cfg, kernel, &factory);
    let _ = gpu.run(5_000_000);
    logs.iter()
        .map(|log| log.lock().expect("launch log poisoned").clone())
        .collect()
}

/// Render the per-SM launch order.
pub fn render(launches: &[Vec<u32>]) -> String {
    let mut t = Table::new(&["SM", "CTAs received (in launch order)"]);
    for (sm, ids) in launches.iter().enumerate() {
        let ids: Vec<String> = ids.iter().map(|id| id.to_string()).collect();
        t.row(vec![format!("SM {sm}"), ids.join(", ")]);
    }
    format!(
        "Figure 3 — CTA distribution (3 SMs × 2 slots, demand-driven refill)\n\n{}\n\
         The first 6 launches follow the round-robin fill; later CTAs go to\n\
         whichever SM finishes one first (launch order is demand-driven).\n",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_launches_fill_round_robin() {
        let launches = compute();
        assert_eq!(launches.len(), 3);
        for (sm, ids) in launches.iter().enumerate() {
            assert_eq!(ids[..2], [sm as u32, sm as u32 + 3], "SM {sm}: {ids:?}");
        }
        assert!(render(&launches).contains("SM 2"));
    }
}
