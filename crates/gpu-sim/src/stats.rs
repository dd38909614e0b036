//! Simulation statistics.
//!
//! Every counter needed by the paper's evaluation figures is collected
//! here: IPC (Fig. 10/11), prefetch coverage/accuracy (Fig. 12), request
//! and DRAM read traffic (Fig. 13), early-prefetch ratio and
//! prefetch-to-demand distance (Fig. 14), and the activity counts the
//! energy model consumes (Fig. 15).

use crate::port::PortSnapshot;

/// Per-subsystem port/link occupancy and backpressure report for one
/// run: ring high-water marks, credit-stall counts, and growth-valve
/// activations, aggregated per subsystem by [`crate::gpu::Gpu::link_report`].
///
/// Host-side observability kept outside [`Stats`]. Naive and
/// wake-driven stepping report the same numbers: a producer is stepped
/// in every cycle it stalls on credits, except a blocked request link,
/// whose stalls are charged in bulk for the cycles it sits out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkReport {
    /// Demand request network (SM → partition crossbar links).
    pub req_net: PortSnapshot,
    /// Prefetch request network (low-priority virtual channel).
    pub pf_req_net: PortSnapshot,
    /// Demand reply network (partition → SM).
    pub reply_net: PortSnapshot,
    /// Prefetch reply network.
    pub pf_reply_net: PortSnapshot,
    /// All SM-side ports: memory queue, prefetch queue, outbound
    /// injection queues, L1 hit pipe.
    pub sm_ports: PortSnapshot,
    /// All partition-side ports: input queues, L2 hit pipe, reply
    /// queues, writeback queue.
    pub partition_ports: PortSnapshot,
    /// DRAM channel FR-FCFS request queues.
    pub dram_queues: PortSnapshot,
}

impl LinkReport {
    /// Fold every subsystem into one summary: max of high-water marks,
    /// sums of credit stalls and growth-valve activations.
    pub fn total(&self) -> PortSnapshot {
        let mut t = self.req_net;
        t.absorb(self.pf_req_net);
        t.absorb(self.reply_net);
        t.absorb(self.pf_reply_net);
        t.absorb(self.sm_ports);
        t.absorb(self.partition_ports);
        t.absorb(self.dram_queues);
        t
    }
}

/// Report of the adaptive sequential-vs-parallel engine selector that
/// earlier simulator versions ran: per-window ns-per-cycle EMAs and
/// decision counters. The simulator is sequential now, so every new
/// record carries the all-zero default; the type keeps the record
/// format, and archives written with real samples, readable.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AdaptReport {
    /// EMA of host nanoseconds per simulated cycle under the sequential
    /// engine (0.0 until the first sequential window completes).
    pub seq_ns_per_cycle: f64,
    /// EMA of host nanoseconds per simulated cycle under the parallel
    /// engine (0.0 until the first parallel window completes).
    pub par_ns_per_cycle: f64,
    /// Measurement windows the controller evaluated.
    pub windows: u64,
    /// Windows the controller spent in the parallel engine.
    pub par_windows: u64,
    /// Engine switches the controller made mid-run.
    pub switches: u64,
}

/// Per-kernel (tenant) statistics for a co-resident run: the subset of
/// counters that is attributable to one kernel context when several
/// share the machine. The machine-wide [`Stats`] remains the
/// bit-identity surface; these are additive side counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Warp instructions issued by this kernel's warps.
    pub instructions: u64,
    /// CTAs launched for this kernel.
    pub ctas_launched: u64,
    /// CTAs completed for this kernel.
    pub ctas_completed: u64,
    /// Demand L1D line requests from this kernel's warps.
    pub l1d_accesses: u64,
    /// Demand L1D misses from this kernel's warps.
    pub l1d_misses: u64,
    /// L2 lookups attributed to this kernel.
    pub l2_accesses: u64,
    /// L2 hits attributed to this kernel.
    pub l2_hits: u64,
    /// L2 misses attributed to this kernel.
    pub l2_misses: u64,
    /// DRAM reads attributed to this kernel.
    pub dram_reads: u64,
    /// DRAM writes attributed to this kernel (writebacks are charged to
    /// the request whose fill evicted the dirty line).
    pub dram_writes: u64,
    /// Cycle the kernel's first CTA launched.
    pub start_cycle: u64,
    /// Cycle the kernel's last CTA completed (0 while running).
    pub finish_cycle: u64,
}

impl KernelStats {
    /// Instructions per cycle over the kernel's own residency window
    /// (`start_cycle..finish_cycle`), the per-tenant IPC of the co-run
    /// interference table.
    #[inline]
    pub fn ipc(&self) -> f64 {
        let span = self.finish_cycle.saturating_sub(self.start_cycle);
        if span == 0 {
            0.0
        } else {
            self.instructions as f64 / span as f64
        }
    }

    /// Fold another kernel-attributed sample (e.g. one SM's share) into
    /// this one: events sum, the residency window is the union.
    pub fn absorb(&mut self, other: &KernelStats) {
        self.instructions += other.instructions;
        self.ctas_launched += other.ctas_launched;
        self.ctas_completed += other.ctas_completed;
        self.l1d_accesses += other.l1d_accesses;
        self.l1d_misses += other.l1d_misses;
        self.l2_accesses += other.l2_accesses;
        self.l2_hits += other.l2_hits;
        self.l2_misses += other.l2_misses;
        self.dram_reads += other.dram_reads;
        self.dram_writes += other.dram_writes;
        self.start_cycle = self.start_cycle.min(other.start_cycle);
        self.finish_cycle = self.finish_cycle.max(other.finish_cycle);
    }
}

/// Aggregate counters for one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stats {
    /// Core cycles simulated until kernel completion.
    pub cycles: u64,
    /// Warp instructions issued (the IPC numerator, as in GPGPU-Sim).
    pub warp_instructions: u64,
    /// Cycles in which an SM had at least one resident warp but could
    /// issue nothing (all warps blocked on memory / latency).
    pub stall_cycles: u64,
    /// Cycles in which at least one warp waited on outstanding loads.
    pub mem_wait_cycles: u64,

    // --- L1 data cache ---
    /// Demand (load) line requests presented to L1D.
    pub l1d_demand_accesses: u64,
    /// Demand L1D hits.
    pub l1d_demand_hits: u64,
    /// Demand L1D misses.
    pub l1d_demand_misses: u64,
    /// Demand misses merged into an existing MSHR entry.
    pub l1d_mshr_merges: u64,
    /// Cycles a memory instruction was replayed because the MSHR or miss
    /// queue was full (the bursty-miss congestion the paper describes).
    pub l1d_reservation_fails: u64,
    /// Store line requests (write-through traffic).
    pub store_accesses: u64,

    // --- prefetch ---
    /// Prefetch line requests issued into L1D.
    pub prefetch_issued: u64,
    /// Prefetch requests dropped before issue (duplicate in cache/MSHR,
    /// queue overflow, or throttled).
    pub prefetch_dropped: u64,
    /// Prefetched lines later consumed by a demand access while still
    /// resident (useful prefetches; accuracy numerator).
    pub prefetch_useful: u64,
    /// Demand misses that merged into an in-flight prefetch (late but
    /// partially useful prefetches).
    pub prefetch_late: u64,
    /// Prefetched lines evicted before any demand touched them
    /// (early/useless prefetches; Fig. 14a numerator).
    pub prefetch_early_evicted: u64,
    /// Prefetched lines still resident but never consumed at kernel end.
    pub prefetch_unused_resident: u64,
    /// Sum of (demand cycle − prefetch issue cycle) over useful
    /// prefetches, for the Fig. 14b mean distance.
    pub prefetch_distance_sum: u64,
    /// Count of useful prefetches contributing to the distance sum.
    pub prefetch_distance_count: u64,
    /// Prefetcher metadata-table accesses (energy model input).
    pub prefetch_table_accesses: u64,
    /// Address verifications that disagreed with the demand address
    /// (CAP misprediction-counter increments).
    pub prefetch_mispredicts: u64,
    /// Eager warp wake-ups triggered by prefetch fills.
    pub prefetch_wakeups: u64,

    // --- interconnect / L2 / DRAM ---
    /// Requests sent from SMs to memory partitions (Fig. 13a).
    pub icnt_requests: u64,
    /// Replies sent from partitions back to SMs.
    pub icnt_replies: u64,
    /// Cycles a request stalled at injection because an interconnect
    /// queue was full.
    pub icnt_stalls: u64,
    /// L2 accesses.
    pub l2_accesses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses (sent to DRAM).
    pub l2_misses: u64,
    /// Lines read from DRAM (Fig. 13b).
    pub dram_reads: u64,
    /// Lines written to DRAM.
    pub dram_writes: u64,
    /// DRAM row-buffer hits.
    pub dram_row_hits: u64,
    /// DRAM row-buffer misses (activations).
    pub dram_row_misses: u64,
    /// Cycles an L2 miss waited because the FR-FCFS queue was full.
    pub dram_queue_stalls: u64,

    // --- CTA bookkeeping ---
    /// CTAs launched.
    pub ctas_launched: u64,
    /// CTAs completed.
    pub ctas_completed: u64,
}

impl Stats {
    /// Instructions per cycle across the whole GPU.
    #[inline]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.warp_instructions as f64 / self.cycles as f64
        }
    }

    /// Prefetch coverage (paper §VI-C): issued prefetch requests over
    /// total demand fetch requests.
    #[inline]
    pub fn coverage(&self) -> f64 {
        if self.l1d_demand_accesses == 0 {
            0.0
        } else {
            self.prefetch_issued as f64 / self.l1d_demand_accesses as f64
        }
    }

    /// Prefetch accuracy (paper §VI-C): issued prefetches actually
    /// consumed by demand requests. Late merges count as consumed — the
    /// address was correct, only timing was short.
    #[inline]
    pub fn accuracy(&self) -> f64 {
        if self.prefetch_issued == 0 {
            0.0
        } else {
            (self.prefetch_useful + self.prefetch_late) as f64 / self.prefetch_issued as f64
        }
    }

    /// Fraction of prefetched data evicted before use (Fig. 14a).
    #[inline]
    pub fn early_prefetch_ratio(&self) -> f64 {
        let fills =
            self.prefetch_useful + self.prefetch_early_evicted + self.prefetch_unused_resident;
        if fills == 0 {
            0.0
        } else {
            self.prefetch_early_evicted as f64 / fills as f64
        }
    }

    /// Mean prefetch-to-demand distance in cycles over timely prefetches
    /// (Fig. 14b).
    #[inline]
    pub fn mean_prefetch_distance(&self) -> f64 {
        if self.prefetch_distance_count == 0 {
            0.0
        } else {
            self.prefetch_distance_sum as f64 / self.prefetch_distance_count as f64
        }
    }

    /// L1D demand miss rate.
    #[inline]
    pub fn l1d_miss_rate(&self) -> f64 {
        if self.l1d_demand_accesses == 0 {
            0.0
        } else {
            self.l1d_demand_misses as f64 / self.l1d_demand_accesses as f64
        }
    }

    /// Fraction of cycles the GPU could not issue despite resident work.
    #[inline]
    pub fn stall_fraction(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.stall_cycles as f64 / self.cycles as f64
        }
    }

    /// Merge per-SM stats into a GPU total (cycle counters are maxed,
    /// event counters summed).
    pub fn absorb(&mut self, other: &Stats) {
        macro_rules! add {
            ($($f:ident),* $(,)?) => { $( self.$f += other.$f; )* };
        }
        add!(
            warp_instructions,
            stall_cycles,
            mem_wait_cycles,
            l1d_demand_accesses,
            l1d_demand_hits,
            l1d_demand_misses,
            l1d_mshr_merges,
            l1d_reservation_fails,
            store_accesses,
            prefetch_issued,
            prefetch_dropped,
            prefetch_useful,
            prefetch_late,
            prefetch_early_evicted,
            prefetch_unused_resident,
            prefetch_distance_sum,
            prefetch_distance_count,
            prefetch_table_accesses,
            prefetch_mispredicts,
            prefetch_wakeups,
            icnt_requests,
            icnt_replies,
            icnt_stalls,
            l2_accesses,
            l2_hits,
            l2_misses,
            dram_reads,
            dram_writes,
            dram_row_hits,
            dram_row_misses,
            dram_queue_stalls,
            ctas_launched,
            ctas_completed,
        );
        self.cycles = self.cycles.max(other.cycles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_handles_zero_cycles() {
        assert_eq!(Stats::default().ipc(), 0.0);
    }

    #[test]
    fn derived_ratios() {
        let s = Stats {
            cycles: 1000,
            warp_instructions: 800,
            l1d_demand_accesses: 200,
            l1d_demand_misses: 50,
            prefetch_issued: 40,
            prefetch_useful: 30,
            prefetch_late: 5,
            prefetch_early_evicted: 2,
            prefetch_unused_resident: 3,
            prefetch_distance_sum: 3000,
            prefetch_distance_count: 30,
            stall_cycles: 250,
            ..Default::default()
        };
        assert!((s.ipc() - 0.8).abs() < 1e-12);
        assert!((s.coverage() - 0.2).abs() < 1e-12);
        assert!((s.accuracy() - 35.0 / 40.0).abs() < 1e-12);
        assert!((s.early_prefetch_ratio() - 2.0 / 35.0).abs() < 1e-12);
        assert!((s.mean_prefetch_distance() - 100.0).abs() < 1e-12);
        assert!((s.l1d_miss_rate() - 0.25).abs() < 1e-12);
        assert!((s.stall_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn absorb_sums_events_and_maxes_cycles() {
        let mut a = Stats {
            cycles: 100,
            warp_instructions: 10,
            ..Default::default()
        };
        let b = Stats {
            cycles: 80,
            warp_instructions: 20,
            dram_reads: 5,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.cycles, 100);
        assert_eq!(a.warp_instructions, 30);
        assert_eq!(a.dram_reads, 5);
    }

    #[test]
    fn accuracy_counts_late_as_consumed() {
        let s = Stats {
            prefetch_issued: 10,
            prefetch_late: 10,
            ..Default::default()
        };
        assert!((s.accuracy() - 1.0).abs() < 1e-12);
    }
}
