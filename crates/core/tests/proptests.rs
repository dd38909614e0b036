//! Property tests for the CAP tables and address algebra.

use caps_core::dist::DistTable;
use caps_core::per_cta::{PerCtaTable, MAX_BASE_ADDRS};
use caps_core::{CapConfig, CtaAwarePrefetcher};
use caps_gpu_sim::prefetch::{DemandObservation, Prefetcher};
use caps_gpu_sim::types::{line_base, Addr, CtaCoord};
use proptest::prelude::*;

fn obs<'a>(
    pc: u32,
    slot: usize,
    cta: CtaCoord,
    warp: u32,
    wpc: u32,
    lines: &'a [Addr],
    iter: u32,
) -> DemandObservation<'a> {
    DemandObservation {
        cycle: 0,
        pc,
        cta_slot: slot,
        cta,
        warp_in_cta: warp,
        warp_slot: slot * wpc as usize + warp as usize,
        warps_per_cta: wpc,
        lines,
        is_affine: true,
        iter,
    }
}

proptest! {
    /// The DIST table never reports a stride it was not given, and the
    /// throttle fires exactly at the threshold.
    #[test]
    fn dist_table_threshold_is_exact(
        threshold in 1u8..200,
        mispredicts in 0usize..300,
    ) {
        let mut t = DistTable::with_params(4, threshold);
        t.insert(8, 512);
        for _ in 0..mispredicts {
            t.mispredict(8);
        }
        prop_assert_eq!(t.throttled(8), mispredicts >= threshold as usize);
        prop_assert_eq!(t.stride(8), Some(512));
        prop_assert_eq!(t.stride(9), None);
    }

    /// PerCTA capacity is never exceeded and lookups return exactly what
    /// was inserted, under arbitrary insert/invalidate interleavings.
    #[test]
    fn per_cta_table_is_bounded_and_consistent(
        ops in proptest::collection::vec((0u32..12, 0u64..1 << 20, prop::bool::ANY), 0..100),
    ) {
        let mut t = PerCtaTable::with_capacity(4);
        t.reset(CtaCoord::from_linear(3, 8));
        let mut live: Vec<(u32, u64)> = Vec::new();
        for (pc, base, remove) in ops {
            if remove {
                t.invalidate(pc);
                live.retain(|&(p, _)| p != pc);
            } else if t.probe(pc).is_none() {
                let inserted = t.insert(pc, 0, &[base]).is_some();
                if inserted {
                    live.retain(|&(p, _)| p != pc);
                    live.push((pc, base));
                }
            }
            prop_assert!(t.len() <= 4);
            // Everything the model says is live and fits must be found
            // with its base (the table may have evicted under LRU, so
            // only check entries the table still reports).
            for &(p, b) in &live {
                if let Some(e) = t.probe(p) {
                    prop_assert_eq!(e.bases[0], b);
                }
            }
        }
    }

    /// Base-address vectors respect the 4-entry hardware budget.
    #[test]
    fn base_vectors_are_capped(lines in proptest::collection::vec(0u64..1 << 24, 1..=4)) {
        let lines: Vec<Addr> = lines.iter().map(|&a| line_base(a, 128)).collect();
        let mut t = PerCtaTable::new();
        t.reset(CtaCoord::from_linear(0, 4));
        let e = t.insert(9, 1, &lines).expect("fits");
        prop_assert!(e.bases.len() <= MAX_BASE_ADDRS);
        prop_assert_eq!(&*e.bases, &lines[..]);
    }

    /// CAP end-to-end: for any multi-line affine load geometry, every
    /// generated prefetch line equals the target warp's demand line —
    /// and a wrong observation chain never panics.
    #[test]
    fn cap_multi_line_algebra(
        base in 1u64 << 20..1 << 26,
        stride_lines in 1i64..32,
        nlines in 1usize..=4,
        lead in 0u32..8,
        second in 0u32..8,
        wpc in 2u32..=8,
    ) {
        prop_assume!(lead < wpc && second < wpc && lead != second);
        // Observations come from the coalescer: always line-aligned.
        let base = line_base(base, 128);
        let delta = stride_lines * 128;
        let cta = CtaCoord::from_linear(5, 8);
        let mk = |w: u32| -> Vec<Addr> {
            (0..nlines)
                .map(|i| base + i as u64 * (1 << 16) + (w as i64 * delta) as u64)
                .collect()
        };
        let mut cap = CtaAwarePrefetcher::with_config(CapConfig::default());
        cap.on_cta_launch(0, cta);
        let mut out = Vec::new();
        let l0 = mk(lead);
        cap.on_demand(&obs(4, 0, cta, lead, wpc, &l0, 0), &mut out);
        let l1 = mk(second);
        cap.on_demand(&obs(4, 0, cta, second, wpc, &l1, 0), &mut out);
        prop_assert_eq!(cap.dist().stride(4), Some(delta));
        for r in &out {
            let w = (r.target_warp.expect("bound") % wpc as usize) as u32;
            let demand = mk(w);
            prop_assert!(demand.contains(&r.line));
        }
        prop_assert_eq!(cap.mispredicts(), 0);
    }

    /// Indirect observations never touch the tables, for any geometry.
    #[test]
    fn indirect_is_always_excluded(addr in 0u64..1 << 30, warp in 0u32..8) {
        let cta = CtaCoord::from_linear(0, 4);
        let mut cap = CtaAwarePrefetcher::new();
        cap.on_cta_launch(0, cta);
        let lines = [line_base(addr, 128)];
        let mut o = obs(4, 0, cta, warp, 8, &lines, 0);
        o.is_affine = false;
        let mut out = Vec::new();
        cap.on_demand(&o, &mut out);
        prop_assert!(out.is_empty());
        prop_assert!(cap.per_cta(0).is_empty());
        prop_assert_eq!(cap.table_accesses(), 0);
    }

    /// Wrong-stride streams throttle within threshold + slack and then
    /// stay silent, for any threshold.
    #[test]
    fn throttle_silences_wrong_streams(threshold in 1u8..16) {
        let cta = CtaCoord::from_linear(0, 4);
        let mut cap = CtaAwarePrefetcher::with_config(CapConfig {
            mispredict_threshold: threshold,
            ..CapConfig::default()
        });
        cap.on_cta_launch(0, cta);
        let mut out = Vec::new();
        // Train a stride from warps 0 and 1.
        cap.on_demand(&obs(4, 0, cta, 0, 8, &[0x10000], 0), &mut out);
        cap.on_demand(&obs(4, 0, cta, 1, 8, &[0x10200], 0), &mut out);
        // Feed wrong addresses from higher warps until throttled.
        for w in 2..8u32 {
            let wrong = [0x900000 + w as u64 * 0x10000];
            cap.on_demand(&obs(4, 0, cta, w, 8, &wrong, 0), &mut out);
        }
        if cap.mispredicts() >= threshold as u64 {
            prop_assert!(cap.dist().throttled(4));
            out.clear();
            // A fresh CTA registration must not emit prefetches.
            cap.on_cta_launch(1, CtaCoord::from_linear(9, 4));
            cap.on_demand(&obs(4, 1, CtaCoord::from_linear(9, 4), 0, 8, &[0x40000], 0), &mut out);
            prop_assert!(out.is_empty());
        }
    }
}
