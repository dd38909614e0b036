//! # caps-gpu-sim — a cycle-level SIMT GPU simulator
//!
//! A from-scratch Fermi-class GPU microarchitecture simulator built as the
//! substrate for reproducing *CTA-Aware Prefetching and Scheduling for
//! GPU* (Koo et al., IPDPS 2018). It models the parts of GPGPU-Sim the
//! paper's evaluation depends on:
//!
//! * SMs with in-order warp issue, warp schedulers (LRR, GTO, two-level,
//!   and the PAS/ORCH two-level variants), per-warp loop/dependence state;
//! * the CTA distributor (round-robin initial fill, demand-driven refill);
//! * a per-warp memory coalescer;
//! * L1D caches with MSHRs, prefetch provenance tracking, and a
//!   lower-priority prefetch injection port;
//! * request/reply crossbar networks with bounded queues;
//! * L2 cache banks in memory partitions;
//! * GDDR5 DRAM channels scheduled FR-FCFS (Table III timing).
//!
//! Kernels are expressed in a small IR ([`isa`]) whose address patterns
//! mirror the paper's §IV decomposition: CTA-dependent base `θ`, a
//! kernel-wide warp stride `Δ`, per-lane pitch, loop strides, and
//! stride-free indirect streams.
//!
//! ## Quick start
//!
//! ```
//! use caps_gpu_sim::prelude::*;
//!
//! // addr = θ(cta) + warp·128 + lane·4 — a dense coalesced kernel.
//! let pat = AddrPattern::Affine(AffinePattern::dense(
//!     0x1000_0000,
//!     CtaTerm::Linear { pitch: 1 << 16 },
//! ));
//! let program = ProgramBuilder::new().alu(8).ld(pat).wait().alu(8).build();
//! let kernel = Kernel::new("demo", (16, 1), 128, program);
//!
//! let cfg = GpuConfig::test_small();
//! let mut gpu = Gpu::new(cfg, kernel, &*null_factory());
//! let stats = gpu.run_to_completion();
//! assert_eq!(stats.ctas_completed, 16);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod coalescer;
pub mod config;
pub mod cta;
pub mod cta_scheduler;
pub mod digest;
pub mod dram;
pub mod gpu;
pub mod interconnect;
pub mod isa;
pub mod kernel;
pub mod linemap;
pub mod mshr;
pub mod partition;
pub mod port;
pub mod prefetch;
pub mod sched;
pub mod sm;
pub mod stats;
pub mod tenant;
pub mod trace;
pub mod types;
pub mod warp;

/// Commonly used items re-exported in one place.
pub mod prelude {
    pub use crate::config::{CacheConfig, DramTiming, GpuConfig, SchedulerKind};
    pub use crate::digest::{fingerprint, Digest, Hashable};
    pub use crate::gpu::Gpu;
    pub use crate::isa::{
        AddrPattern, AffinePattern, CtaTerm, IndirectPattern, Op, Program, ProgramBuilder,
    };
    pub use crate::kernel::Kernel;
    pub use crate::prefetch::{
        null_factory, DemandObservation, NullPrefetcher, PrefetchRequest, Prefetcher,
        PrefetcherFactory,
    };
    pub use crate::sched::{make_scheduler, Scheduler, TwoLevelScheduler, WarpScheduler};
    pub use crate::stats::{AdaptReport, KernelStats, Stats};
    pub use crate::tenant::{Partitioning, TenantState};
    pub use crate::types::{
        line_base, AccessKind, Addr, CtaCoord, CtaSlot, Cycle, KernelId, Pc, WarpSlot, MAX_TENANTS,
    };
}
