//! Property tests for the sweep-farm content keys.
//!
//! The cache is only sound if [`caps_metrics::job_digest`] is a faithful
//! function of run identity: equal specs must produce equal keys (or
//! repeats re-simulate and the cache is useless), and *any* single-field
//! change — a `GpuConfig` knob, the engine, the scale, a kernel-IR
//! instruction — must change the key (or a sweep silently serves stale
//! results for a different configuration).

use caps_gpu_sim::config::{GpuConfig, SchedulerKind};
use caps_gpu_sim::digest::fingerprint;
use caps_gpu_sim::isa::{AddrPattern, AffinePattern, CtaTerm, ProgramBuilder};
use caps_gpu_sim::kernel::Kernel;
use caps_metrics::{job_digest, Engine, RunOpts, RunSpec};
use caps_workloads::{all_workloads, Scale};
use proptest::prelude::*;

/// A named single-field perturbation (`bump` is a small positive
/// delta).
type Mutator = (&'static str, fn(&mut GpuConfig, u32));

/// One mutator per digested `GpuConfig` field (nested structs
/// included).
fn config_mutators() -> Vec<Mutator> {
    vec![
        ("num_sms", |c, b| c.num_sms += b as usize),
        ("simt_width", |c, b| c.simt_width += b),
        ("max_warps_per_sm", |c, b| c.max_warps_per_sm += b as usize),
        ("max_ctas_per_sm", |c, b| c.max_ctas_per_sm += b as usize),
        ("scheduler", |c, _| {
            c.scheduler = if c.scheduler == SchedulerKind::Lrr {
                SchedulerKind::Gto
            } else {
                SchedulerKind::Lrr
            }
        }),
        ("ready_queue_size", |c, b| c.ready_queue_size += b as usize),
        ("l1d.size_bytes", |c, b| c.l1d.size_bytes += b * 1024),
        ("l1d.line_size", |c, b| c.l1d.line_size += b),
        ("l1d.assoc", |c, b| c.l1d.assoc += b),
        ("l1d.mshr_entries", |c, b| c.l1d.mshr_entries += b),
        ("l1d.mshr_merge", |c, b| c.l1d.mshr_merge += b),
        ("l1d.hit_latency", |c, b| c.l1d.hit_latency += b),
        ("l2.size_bytes", |c, b| c.l2.size_bytes += b * 1024),
        ("l2.line_size", |c, b| c.l2.line_size += b),
        ("l2.assoc", |c, b| c.l2.assoc += b),
        ("l2.mshr_entries", |c, b| c.l2.mshr_entries += b),
        ("l2.mshr_merge", |c, b| c.l2.mshr_merge += b),
        ("l2.hit_latency", |c, b| c.l2.hit_latency += b),
        ("num_partitions", |c, b| c.num_partitions += b as usize),
        ("num_dram_channels", |c, b| c.num_dram_channels += b as usize),
        ("dram_banks", |c, b| c.dram_banks += b as usize),
        ("dram_queue_entries", |c, b| c.dram_queue_entries += b as usize),
        ("dram_timing.t_cl", |c, b| c.dram_timing.t_cl += b),
        ("dram_timing.t_rp", |c, b| c.dram_timing.t_rp += b),
        ("dram_timing.t_rc", |c, b| c.dram_timing.t_rc += b),
        ("dram_timing.t_ras", |c, b| c.dram_timing.t_ras += b),
        ("dram_timing.t_rcd", |c, b| c.dram_timing.t_rcd += b),
        ("dram_timing.t_rrd", |c, b| c.dram_timing.t_rrd += b),
        ("dram_timing.t_cdlr", |c, b| c.dram_timing.t_cdlr += b),
        ("dram_timing.t_wr", |c, b| c.dram_timing.t_wr += b),
        ("dram_timing.t_burst", |c, b| c.dram_timing.t_burst += b),
        ("core_clock_mhz", |c, b| c.core_clock_mhz += b),
        ("dram_clock_mhz", |c, b| c.dram_clock_mhz += b),
        ("icnt_latency", |c, b| c.icnt_latency += b),
        ("icnt_bandwidth", |c, b| c.icnt_bandwidth += b),
        ("icnt_queue_depth", |c, b| c.icnt_queue_depth += b as usize),
        ("ldst_queue_depth", |c, b| c.ldst_queue_depth += b as usize),
        ("prefetch_queue_depth", |c, b| c.prefetch_queue_depth += b as usize),
        ("prefetch_issue_per_cycle", |c, b| c.prefetch_issue_per_cycle += b),
        ("prefetch_max_age", |c, b| c.prefetch_max_age += b),
    ]
}

/// Every single-field flip changes the key, and no two flips collide
/// with each other (exhaustive, not sampled: a missing field in the
/// digest impl fails here by name).
#[test]
fn every_config_field_is_key_sensitive() {
    let spec = RunSpec::small(all_workloads()[0], Engine::Caps);
    let opts = RunOpts::default();
    let base = job_digest(&spec, &opts);
    let mut seen = vec![("<base>", base)];
    for (name, mutate) in config_mutators() {
        let mut s = spec.clone();
        mutate(&mut s.base_config, 1);
        let key = job_digest(&s, &opts);
        for (other, k) in &seen {
            assert_ne!(key, *k, "flipping {name} collides with {other}");
        }
        seen.push((name, key));
    }
}

/// A kernel that differs from `base` in exactly one instruction's
/// parameter must fingerprint differently.
fn linear_kernel(ops: &[(u32, u64)], flip: Option<(usize, u64)>) -> Kernel {
    let mut b = ProgramBuilder::new();
    for (i, &(alu_cycles, ld_base)) in ops.iter().enumerate() {
        let ld_base = match flip {
            Some((fi, delta)) if fi == i => ld_base + delta,
            _ => ld_base,
        };
        b = b.alu(alu_cycles).ld(AddrPattern::Affine(AffinePattern::dense(
            ld_base,
            CtaTerm::Linear { pitch: 4096 },
        )));
    }
    Kernel::new("prop", (4, 1), 64, b.wait().build())
}

proptest! {
    /// Structurally equal specs always produce equal keys, for every
    /// workload, engine pairing, and scale.
    #[test]
    fn equal_specs_produce_equal_keys(
        wi in 0usize..16,
        ei in 0usize..4,
        small in proptest::bool::ANY,
        ceiling in proptest::bool::ANY,
    ) {
        let engines = [Engine::Baseline, Engine::Caps, Engine::Orch, Engine::InterAtDistance(4)];
        let w = all_workloads()[wi % all_workloads().len()];
        let mut spec = RunSpec::paper(w, engines[ei]);
        if small {
            spec.scale = Scale::Small;
        }
        let opts = RunOpts {
            max_cycles: if ceiling { Some(123_456) } else { None },
            ..RunOpts::default()
        };
        prop_assert_eq!(job_digest(&spec, &opts), job_digest(&spec.clone(), &opts.clone()));
    }

    /// Any random single-field perturbation of the config changes the
    /// key (sampled companion to the exhaustive flip test).
    #[test]
    fn random_field_flip_changes_the_key(
        field in 0usize..42,
        bump in 1u32..17,
        wi in 0usize..16,
    ) {
        let muts = config_mutators();
        prop_assume!(field < muts.len());
        let spec = RunSpec::small(all_workloads()[wi % all_workloads().len()], Engine::Caps);
        let mut flipped = spec.clone();
        (muts[field].1)(&mut flipped.base_config, bump);
        let opts = RunOpts::default();
        prop_assert_ne!(job_digest(&spec, &opts), job_digest(&flipped, &opts));
    }

    /// Flipping one instruction's operand anywhere in a program changes
    /// the kernel fingerprint; identical rebuilds do not.
    #[test]
    fn kernel_ir_is_fingerprint_sensitive(
        n_ops in 1usize..12,
        flip_at in 0usize..12,
        delta in 1u64..1024,
        seed in 0u64..1 << 32,
    ) {
        let ops: Vec<(u32, u64)> = (0..n_ops)
            .map(|i| {
                let r = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(i as u32);
                (1 + (r % 7) as u32, (r >> 8) % (1 << 30))
            })
            .collect();
        let base = linear_kernel(&ops, None);
        prop_assert_eq!(fingerprint(&base), fingerprint(&linear_kernel(&ops, None)));
        let flipped = linear_kernel(&ops, Some((flip_at % n_ops, delta * 4)));
        prop_assert_ne!(fingerprint(&base), fingerprint(&flipped));
    }
}
