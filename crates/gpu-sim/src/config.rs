//! GPU configuration — the simulator's equivalent of the paper's Table III.
//!
//! The default configuration [`GpuConfig::fermi_gtx480`] mirrors the
//! GPGPU-Sim v3.2.2 setup the paper evaluates on: a Fermi-class GPU with
//! 15 SMs, 48 concurrent warps and 8 concurrent CTAs per SM, a 16 KB
//! 4-way L1D with 32 MSHRs, 12 L2 partitions of 64 KB each, and 6 GDDR5
//! channels scheduled FR-FCFS.

/// Warp scheduler selection for an SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Loose round-robin over all ready warps.
    Lrr,
    /// Greedy-then-oldest: stick with one warp until it stalls.
    Gto,
    /// GTO with PAS leading-warp priority (§V-A's GTO adaptation).
    PasGto,
    /// Two-level scheduler with a fixed-size ready queue (the paper's
    /// baseline, 8 ready warps).
    TwoLevel,
    /// The paper's Prefetch-Aware Scheduler: two-level with leading warps
    /// hoisted to the queue front and eager prefetch wake-up.
    Pas,
    /// PAS with the eager wake-up disabled (Fig. 14a ablation:
    /// "CAPS w/o Wakeup").
    PasNoWakeup,
    /// ORCH-style grouped two-level scheduling: consecutive warps are
    /// placed in different scheduling groups (Jog et al., ISCA'13).
    OrchGrouped,
}

impl SchedulerKind {
    /// Short display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Lrr => "LRR",
            SchedulerKind::Gto => "GTO",
            SchedulerKind::PasGto => "PA-GTO",
            SchedulerKind::TwoLevel => "TLV",
            SchedulerKind::Pas => "PA-TLV",
            SchedulerKind::PasNoWakeup => "PA-TLV-NW",
            SchedulerKind::OrchGrouped => "ORCH-TLV",
        }
    }
}

/// Cache geometry and timing for one cache instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Line size in bytes; [`GpuConfig::check`] requires Fermi's 128 B,
    /// the line every prefetcher assumes.
    pub line_size: u32,
    /// Associativity (ways per set).
    pub assoc: u32,
    /// Number of MSHR entries (outstanding distinct line misses).
    pub mshr_entries: u32,
    /// Maximum merged requests per MSHR entry.
    pub mshr_merge: u32,
    /// Hit latency in core cycles.
    pub hit_latency: u32,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    #[inline]
    pub fn sets(&self) -> u32 {
        self.size_bytes / (self.line_size * self.assoc)
    }

    /// Total number of lines.
    #[inline]
    pub fn lines(&self) -> u32 {
        self.size_bytes / self.line_size
    }
}

/// GDDR5 timing parameters in *DRAM* clock cycles (Table III, bottom row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTiming {
    /// CAS latency.
    pub t_cl: u32,
    /// Row precharge.
    pub t_rp: u32,
    /// Row cycle.
    pub t_rc: u32,
    /// Row active time.
    pub t_ras: u32,
    /// RAS-to-CAS delay.
    pub t_rcd: u32,
    /// Row-to-row activation delay.
    pub t_rrd: u32,
    /// Last-read-to-write delay (tCDLR).
    pub t_cdlr: u32,
    /// Write recovery.
    pub t_wr: u32,
    /// Data burst occupancy of one 128 B line on the channel.
    pub t_burst: u32,
}

impl DramTiming {
    /// GDDR5 timing from Table III.
    pub fn gddr5() -> Self {
        DramTiming {
            t_cl: 12,
            t_rp: 12,
            t_rc: 40,
            t_ras: 28,
            t_rcd: 12,
            t_rrd: 6,
            t_cdlr: 5,
            t_wr: 12,
            // 128 B line over a x4-organized 32-bit GDDR5 interface:
            // 4 DRAM-clock burst (DDR, 8n prefetch).
            t_burst: 4,
        }
    }
}

/// Full GPU configuration (Table III plus modelling knobs).
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of SMs ("15 cores" in Table III).
    pub num_sms: usize,
    /// SIMT width (threads per warp).
    pub simt_width: u32,
    /// Maximum resident warps per SM (Fermi: 48).
    pub max_warps_per_sm: usize,
    /// Maximum resident CTAs per SM (Fermi: 8). Figure 11 sweeps this.
    pub max_ctas_per_sm: usize,
    /// Warp scheduler.
    pub scheduler: SchedulerKind,
    /// Ready-queue size for the two-level scheduler family.
    pub ready_queue_size: usize,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// L2 cache bank configuration (per partition).
    pub l2: CacheConfig,
    /// Number of L2/memory partitions (12 in Table III).
    pub num_partitions: usize,
    /// Number of DRAM channels (6 in Table III); partitions are mapped
    /// to channels round-robin.
    pub num_dram_channels: usize,
    /// DRAM banks per channel.
    pub dram_banks: usize,
    /// FR-FCFS scheduler queue entries per channel (16 in Table III).
    pub dram_queue_entries: usize,
    /// GDDR5 timing.
    pub dram_timing: DramTiming,
    /// Core clock in MHz (1400).
    pub core_clock_mhz: u32,
    /// DRAM clock in MHz (924).
    pub dram_clock_mhz: u32,
    /// One-way interconnect latency in core cycles.
    pub icnt_latency: u32,
    /// Requests accepted per partition per cycle on the request network
    /// (and replies per SM per cycle on the reply network).
    pub icnt_bandwidth: u32,
    /// Depth of each interconnect injection/ejection queue.
    pub icnt_queue_depth: usize,
    /// LD/ST unit queue depth (pending coalesced line requests).
    pub ldst_queue_depth: usize,
    /// Maximum in-flight prefetch line requests per SM; requests beyond
    /// this are dropped (models the low-priority prefetch queue).
    pub prefetch_queue_depth: usize,
    /// Prefetch requests injected into L1 per cycle when the port is free.
    pub prefetch_issue_per_cycle: u32,
    /// Queued prefetch requests older than this many cycles are dropped
    /// unissued (stale: the demand window has passed).
    pub prefetch_max_age: u32,
}

impl GpuConfig {
    /// The paper's baseline: Fermi GTX480-like configuration (Table III).
    pub fn fermi_gtx480() -> Self {
        GpuConfig {
            num_sms: 15,
            simt_width: 32,
            max_warps_per_sm: 48,
            max_ctas_per_sm: 8,
            scheduler: SchedulerKind::TwoLevel,
            ready_queue_size: 8,
            l1d: CacheConfig {
                size_bytes: 16 * 1024,
                line_size: 128,
                assoc: 4,
                mshr_entries: 32,
                mshr_merge: 8,
                hit_latency: 24,
            },
            l2: CacheConfig {
                size_bytes: 64 * 1024,
                line_size: 128,
                assoc: 8,
                mshr_entries: 32,
                mshr_merge: 8,
                hit_latency: 32,
            },
            num_partitions: 12,
            num_dram_channels: 6,
            dram_banks: 16,
            dram_queue_entries: 16,
            dram_timing: DramTiming::gddr5(),
            core_clock_mhz: 1400,
            dram_clock_mhz: 924,
            icnt_latency: 35,
            icnt_bandwidth: 1,
            icnt_queue_depth: 8,
            ldst_queue_depth: 8,
            prefetch_queue_depth: 64,
            prefetch_issue_per_cycle: 1,
            prefetch_max_age: 512,
        }
    }

    /// A Kepler-class extrapolation (the paper's §VI-B outlook: newer
    /// architectures run more concurrent CTAs, making CTA-aware
    /// prefetching "even more critical"): 64 resident warps and 16
    /// resident CTAs per SM, with the Fermi memory system retained so
    /// the per-warp cache budget shrinks exactly as the paper argues.
    pub fn kepler_like() -> Self {
        let mut c = Self::fermi_gtx480();
        c.max_warps_per_sm = 64;
        c.max_ctas_per_sm = 16;
        c
    }

    /// A scaled-down configuration for fast unit/property tests: 2 SMs,
    /// smaller caches, identical mechanisms.
    pub fn test_small() -> Self {
        let mut c = Self::fermi_gtx480();
        c.num_sms = 2;
        c.num_partitions = 4;
        c.num_dram_channels = 2;
        c.l1d.size_bytes = 4 * 1024;
        c.l2.size_bytes = 16 * 1024;
        c
    }

    /// Core cycles per DRAM cycle (≈1.515 for 1400/924 MHz).
    #[inline]
    pub fn dram_clock_ratio(&self) -> f64 {
        self.core_clock_mhz as f64 / self.dram_clock_mhz as f64
    }

    /// Convert a DRAM-clock cycle count into core cycles (rounded up).
    #[inline]
    pub fn dram_to_core(&self, dram_cycles: u32) -> u32 {
        (dram_cycles as f64 * self.dram_clock_ratio()).ceil() as u32
    }

    /// Which partition services `line_addr`. 1 KiB interleaving across
    /// partitions: coarse enough that a warp-sequential stream keeps a
    /// DRAM row open (row locality), fine enough to spread CTAs across
    /// all partitions.
    #[inline]
    pub fn partition_of(&self, line_addr: u64) -> usize {
        ((line_addr >> 10) % self.num_partitions as u64) as usize
    }

    /// Which DRAM channel backs a partition.
    #[inline]
    pub fn channel_of_partition(&self, partition: usize) -> usize {
        partition % self.num_dram_channels
    }

    /// Why this configuration is impossible, if it is: the first broken
    /// consistency rule, as a message naming it. Never panics, so it can
    /// screen configurations that arrive from outside the program.
    pub fn check(&self) -> Result<(), &'static str> {
        let require = |ok: bool, why: &'static str| if ok { Ok(()) } else { Err(why) };
        // `sets()` divides by the way size; a zero or overflowing way
        // size has no whole sets.
        let pow2_sets = |c: &CacheConfig| {
            c.line_size
                .checked_mul(c.assoc)
                .and_then(|way| c.size_bytes.checked_div(way))
                .is_some_and(u32::is_power_of_two)
        };
        require(self.num_sms > 0, "need at least one SM")?;
        require(
            self.simt_width.is_power_of_two(),
            "SIMT width must be a power of two",
        )?;
        require(self.max_ctas_per_sm > 0, "need at least one CTA per SM")?;
        require(
            self.max_warps_per_sm >= self.max_ctas_per_sm,
            "cannot host more CTAs than warps",
        )?;
        // Every prefetcher works in 128-B lines (`CapConfig::line_size`
        // and the INTRA/INTER/NLP/LAP constructors never see the
        // config), so any other size misaligns their requests.
        require(
            self.l1d.line_size == 128 && self.l2.line_size == 128,
            "line size must be 128 B",
        )?;
        require(pow2_sets(&self.l1d), "L1 set count must be a power of two")?;
        require(pow2_sets(&self.l2), "L2 set count must be a power of two")?;
        require(
            self.num_partitions >= self.num_dram_channels,
            "partitions map onto channels",
        )?;
        require(
            self.ready_queue_size > 0,
            "two-level ready queue cannot be empty",
        )?;
        require(self.l1d.mshr_entries > 0, "L1 needs an MSHR entry")?;
        require(self.l1d.mshr_merge > 0, "L1 MSHR merge limit is zero")?;
        require(self.l2.mshr_entries > 0, "L2 needs an MSHR entry")?;
        require(self.l2.mshr_merge > 0, "L2 MSHR merge limit is zero")?;
        require(self.num_dram_channels > 0, "need at least one DRAM channel")?;
        require(self.dram_banks > 0, "need at least one DRAM bank")?;
        require(self.dram_queue_entries > 0, "DRAM queues cannot be empty")?;
        require(self.dram_clock_mhz > 0, "DRAM clock cannot be zero")?;
        require(self.icnt_bandwidth > 0, "interconnect bandwidth is zero")?;
        require(self.icnt_queue_depth > 0, "interconnect queues are empty")?;
        require(self.ldst_queue_depth > 0, "LD/ST queue cannot be empty")?;
        require(self.prefetch_queue_depth > 0, "prefetch queue is empty")
    }

    /// Validates internal consistency; panics with a clear message when a
    /// hand-edited configuration is impossible (see [`Self::check`]).
    pub fn validate(&self) {
        if let Err(why) = self.check() {
            panic!("{why}");
        }
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::fermi_gtx480()
    }
}

// --- content hashing (sweep-farm result cache keys) -------------------
//
// Every field that can change a run's statistics is streamed, in
// declaration order, with enum variants tagged. The digest property
// suite in `caps-metrics` flips each field one at a time and asserts the
// key moves; extend these impls (and that test) together with the
// struct.

use crate::digest::{Digest, Hashable};

impl Hashable for SchedulerKind {
    fn digest_into(&self, d: &mut Digest) {
        d.write_tag(match self {
            SchedulerKind::Lrr => 0,
            SchedulerKind::Gto => 1,
            SchedulerKind::PasGto => 2,
            SchedulerKind::TwoLevel => 3,
            SchedulerKind::Pas => 4,
            SchedulerKind::PasNoWakeup => 5,
            SchedulerKind::OrchGrouped => 6,
        });
    }
}

impl Hashable for CacheConfig {
    fn digest_into(&self, d: &mut Digest) {
        d.write_u32(self.size_bytes);
        d.write_u32(self.line_size);
        d.write_u32(self.assoc);
        d.write_u32(self.mshr_entries);
        d.write_u32(self.mshr_merge);
        d.write_u32(self.hit_latency);
    }
}

impl Hashable for DramTiming {
    fn digest_into(&self, d: &mut Digest) {
        for v in [
            self.t_cl,
            self.t_rp,
            self.t_rc,
            self.t_ras,
            self.t_rcd,
            self.t_rrd,
            self.t_cdlr,
            self.t_wr,
            self.t_burst,
        ] {
            d.write_u32(v);
        }
    }
}

impl Hashable for GpuConfig {
    fn digest_into(&self, d: &mut Digest) {
        d.write_usize(self.num_sms);
        d.write_u32(self.simt_width);
        d.write_usize(self.max_warps_per_sm);
        d.write_usize(self.max_ctas_per_sm);
        self.scheduler.digest_into(d);
        d.write_usize(self.ready_queue_size);
        self.l1d.digest_into(d);
        self.l2.digest_into(d);
        d.write_usize(self.num_partitions);
        d.write_usize(self.num_dram_channels);
        d.write_usize(self.dram_banks);
        d.write_usize(self.dram_queue_entries);
        self.dram_timing.digest_into(d);
        d.write_u32(self.core_clock_mhz);
        d.write_u32(self.dram_clock_mhz);
        d.write_u32(self.icnt_latency);
        d.write_u32(self.icnt_bandwidth);
        d.write_usize(self.icnt_queue_depth);
        d.write_usize(self.ldst_queue_depth);
        d.write_usize(self.prefetch_queue_depth);
        d.write_u32(self.prefetch_issue_per_cycle);
        d.write_u32(self.prefetch_max_age);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iii_geometry() {
        let c = GpuConfig::fermi_gtx480();
        c.validate();
        assert_eq!(c.num_sms, 15);
        assert_eq!(c.simt_width, 32);
        assert_eq!(c.max_warps_per_sm, 48);
        assert_eq!(c.max_ctas_per_sm, 8);
        assert_eq!(c.ready_queue_size, 8);
        assert_eq!(c.l1d.size_bytes, 16 * 1024);
        assert_eq!(c.l1d.line_size, 128);
        assert_eq!(c.l1d.assoc, 4);
        assert_eq!(c.l1d.mshr_entries, 32);
        assert_eq!(c.l2.size_bytes, 64 * 1024);
        assert_eq!(c.l2.assoc, 8);
        assert_eq!(c.num_partitions, 12);
        assert_eq!(c.num_dram_channels, 6);
        assert_eq!(c.dram_queue_entries, 16);
        assert_eq!(c.core_clock_mhz, 1400);
        assert_eq!(c.dram_clock_mhz, 924);
    }

    #[test]
    fn gddr5_timing_matches_table_iii() {
        let t = DramTiming::gddr5();
        assert_eq!(t.t_cl, 12);
        assert_eq!(t.t_rp, 12);
        assert_eq!(t.t_rc, 40);
        assert_eq!(t.t_ras, 28);
        assert_eq!(t.t_rcd, 12);
        assert_eq!(t.t_rrd, 6);
        assert_eq!(t.t_cdlr, 5);
        assert_eq!(t.t_wr, 12);
    }

    #[test]
    fn l1_geometry_derives() {
        let c = GpuConfig::fermi_gtx480();
        assert_eq!(c.l1d.sets(), 32);
        assert_eq!(c.l1d.lines(), 128);
        assert_eq!(c.l2.sets(), 64);
    }

    #[test]
    fn dram_clock_conversion() {
        let c = GpuConfig::fermi_gtx480();
        assert!((c.dram_clock_ratio() - 1.515).abs() < 0.01);
        assert_eq!(c.dram_to_core(12), 19); // tCL = 12 DRAM cycles ≈ 19 core
    }

    #[test]
    fn partition_mapping_covers_all_partitions() {
        let c = GpuConfig::fermi_gtx480();
        let mut seen = vec![false; c.num_partitions];
        for i in 0..(c.num_partitions as u64 * 4) {
            seen[c.partition_of(i * 1024)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn adjacent_lines_share_partition_in_kib_stripes() {
        let c = GpuConfig::fermi_gtx480();
        // 1 KiB interleave ⇒ eight 128 B lines per partition stripe.
        assert_eq!(c.partition_of(0), c.partition_of(128));
        assert_eq!(c.partition_of(0), c.partition_of(896));
        assert_ne!(c.partition_of(0), c.partition_of(1024));
    }

    #[test]
    #[should_panic(expected = "cannot host more CTAs than warps")]
    fn validate_rejects_impossible_cta_count() {
        let mut c = GpuConfig::fermi_gtx480();
        c.max_ctas_per_sm = 100;
        c.validate();
    }

    #[test]
    fn check_names_the_broken_rule() {
        let mut c = GpuConfig::fermi_gtx480();
        assert_eq!(c.check(), Ok(()));
        c.max_ctas_per_sm = 0;
        assert_eq!(c.check(), Err("need at least one CTA per SM"));
        c.max_ctas_per_sm = c.max_warps_per_sm + 1;
        assert_eq!(c.check(), Err("cannot host more CTAs than warps"));
    }

    #[test]
    fn check_refuses_zero_sized_resources_without_panicking() {
        type Flip = fn(&mut GpuConfig);
        let flips: &[(&str, Flip)] = &[
            ("l1d.assoc", |c| c.l1d.assoc = 0),
            ("l2.assoc", |c| c.l2.assoc = 0),
            ("line_size", |c| (c.l1d.line_size, c.l2.line_size) = (0, 0)),
            ("l1d.assoc 2^30", |c| c.l1d.assoc = 1 << 30),
            ("l1d.mshr_entries", |c| c.l1d.mshr_entries = 0),
            ("l1d.mshr_merge", |c| c.l1d.mshr_merge = 0),
            ("l2.mshr_entries", |c| c.l2.mshr_entries = 0),
            ("l2.mshr_merge", |c| c.l2.mshr_merge = 0),
            ("num_partitions", |c| c.num_partitions = 0),
            ("num_dram_channels", |c| c.num_dram_channels = 0),
            ("dram_banks", |c| c.dram_banks = 0),
            ("dram_queue_entries", |c| c.dram_queue_entries = 0),
            ("ldst_queue_depth", |c| c.ldst_queue_depth = 0),
            ("icnt_queue_depth", |c| c.icnt_queue_depth = 0),
            ("prefetch_queue_depth", |c| c.prefetch_queue_depth = 0),
            ("icnt_bandwidth", |c| c.icnt_bandwidth = 0),
            ("dram_clock_mhz", |c| c.dram_clock_mhz = 0),
            // Whole power-of-two set counts (32 and 64) would pass the
            // set rules; the line size itself must be refused.
            ("line_size 96", |c| {
                (c.l1d.line_size, c.l2.line_size) = (96, 96);
                (c.l1d.size_bytes, c.l2.size_bytes) = (12 * 1024, 48 * 1024);
            }),
            // Powers of two, but not the 128 B every prefetcher assumes.
            ("line_size 64", |c| {
                (c.l1d.line_size, c.l2.line_size) = (64, 64)
            }),
            ("line_size 256", |c| {
                (c.l1d.line_size, c.l2.line_size) = (256, 256);
                (c.l1d.size_bytes, c.l2.size_bytes) = (32 * 1024, 128 * 1024);
            }),
            ("l2.line_size 256", |c| c.l2.line_size = 256),
        ];
        for &(field, flip) in flips {
            let mut c = GpuConfig::fermi_gtx480();
            flip(&mut c);
            assert!(c.check().is_err(), "{field}: passed the check");
        }
    }

    #[test]
    fn config_digest_is_stable_and_field_sensitive() {
        use crate::digest::fingerprint;
        let base = GpuConfig::fermi_gtx480();
        assert_eq!(fingerprint(&base), fingerprint(&base.clone()));
        let mut c = base.clone();
        c.dram_timing.t_burst += 1;
        assert_ne!(fingerprint(&base), fingerprint(&c), "nested timing field");
        let mut c = base.clone();
        c.scheduler = SchedulerKind::Gto;
        assert_ne!(fingerprint(&base), fingerprint(&c), "scheduler variant");
    }

    #[test]
    fn scheduler_names() {
        assert_eq!(SchedulerKind::TwoLevel.name(), "TLV");
        assert_eq!(SchedulerKind::Pas.name(), "PA-TLV");
        assert_eq!(SchedulerKind::Lrr.name(), "LRR");
        assert_eq!(SchedulerKind::PasGto.name(), "PA-GTO");
    }

    #[test]
    fn kepler_extrapolation_scales_residency_only() {
        let k = GpuConfig::kepler_like();
        k.validate();
        assert_eq!(k.max_warps_per_sm, 64);
        assert_eq!(k.max_ctas_per_sm, 16);
        assert_eq!(
            k.l1d,
            GpuConfig::fermi_gtx480().l1d,
            "cache budget unchanged"
        );
    }
}
