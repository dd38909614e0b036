//! Memory partition: one L2 bank plus its binding to a DRAM channel.
//!
//! Requests arrive from the interconnect, look up the L2 bank, and on a
//! miss enter the partition's MSHRs and the (possibly shared) DRAM
//! channel's FR-FCFS queue. Fills flow back as per-SM replies. Stores are
//! write-through to DRAM (no reply), matching the simulator's L1
//! write-evict / no-allocate policy.
//!
//! Every queue in the partition is a [`Port`] from the unified port
//! layer, reserved at construction for its architectural bound:
//! the input classes from the interconnect ejection depth, the hit pipe
//! from the L2 hit latency (≤ one hit enqueued per cycle, each resident
//! `hit_latency` cycles), and the reply queues from the MSHR capacity
//! (≤ `mshr_entries × mshr_merge` outstanding waiters plus a full hit
//! pipe draining on top). The write-back queue has no architectural
//! bound (eviction bursts under DRAM saturation) and rides the ring's
//! counted growth valve instead.

use crate::cache::{Cache, Lookup};
use crate::config::GpuConfig;
use crate::dram::{DramChannel, DramRequest};
use crate::interconnect::{MemReply, MemRequest};
use crate::linemap::LineMap;
use crate::mshr::{MshrFile, MshrOutcome, Waiter};
use crate::port::{Port, PortSnapshot};
use crate::types::{AccessKind, Cycle, KernelId, MAX_TENANTS};

/// Per-partition statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct PartitionStats {
    /// L2 lookups (loads only).
    pub accesses: u64,
    /// L2 hits.
    pub hits: u64,
    /// L2 misses sent toward DRAM.
    pub misses: u64,
    /// Cycles the head request stalled on a full MSHR file or DRAM queue.
    pub dram_queue_stalls: u64,
    /// L2 lookups attributed per kernel context (tenant attribution; the
    /// machine-wide counters above stay the bit-identity surface).
    pub accesses_by_kernel: [u64; MAX_TENANTS],
    /// L2 hits per kernel context.
    pub hits_by_kernel: [u64; MAX_TENANTS],
    /// L2 misses per kernel context.
    pub misses_by_kernel: [u64; MAX_TENANTS],
}

impl PartitionStats {
    /// Zero only the per-kernel attribution arrays (a tenant run starts
    /// a fresh attribution window; machine-wide counters accumulate).
    pub fn reset_kernel_counters(&mut self) {
        self.accesses_by_kernel = [0; MAX_TENANTS];
        self.hits_by_kernel = [0; MAX_TENANTS];
        self.misses_by_kernel = [0; MAX_TENANTS];
    }
}

/// An L2-side waiter: which SM asked for the line (one reply each).
#[derive(Debug, Clone, Copy)]
struct L2Waiter {
    sm: usize,
    is_prefetch: bool,
}

/// One memory partition.
#[derive(Debug)]
pub struct MemoryPartition {
    /// Partition index.
    pub id: usize,
    l2: Cache,
    mshr: MshrFile,
    /// Waiters per in-flight line, parallel to the MSHR (MSHR stores
    /// warp-level waiters for L1; at L2 we need SM-level reply routing,
    /// so we keep our own list keyed through the MSHR entry order).
    waiters: LineMap<Vec<L2Waiter>>,
    /// Recycled waiter lists: a fill returns its list here so the steady
    /// state allocates nothing.
    waiter_pool: Vec<Vec<L2Waiter>>,
    /// Demand/store requests accepted from the interconnect.
    in_demand: Port<MemRequest>,
    /// Prefetch requests accepted from the interconnect (serviced only
    /// when no demand is waiting — lower priority, §V).
    in_prefetch: Port<MemRequest>,
    /// Hit replies delayed by the L2 hit latency.
    hit_pipe: Port<(Cycle, MemReply)>,
    /// Demand replies ready to inject into the reply network.
    pub reply_out: Port<MemReply>,
    /// Prefetch replies (low-priority virtual channel).
    pub pf_reply_out: Port<MemReply>,
    /// Dirty lines evicted from L2, awaiting a DRAM write slot, tagged
    /// with the kernel context of the request whose fill evicted them
    /// (a deliberate attribution approximation: the true writer is
    /// unknown once the line ages in L2).
    wb_q: Port<(u64, KernelId)>,
    /// Memoized stalled input head: `Some(line)` when the head load
    /// missed L2 and could neither merge nor allocate. While the O(1)
    /// unblock re-checks stay false, `step` skips the L2 lookup and MSHR
    /// probe the replay would repeat (a stalled retry mutates nothing)
    /// and only advances the per-cycle stall counter — bit-identical.
    /// Cleared by any DRAM fill for this partition (which frees MSHR and
    /// merge capacity and fills L2) and by any accepted request (which
    /// can change the head across priority classes).
    stall_memo: Option<u64>,
    /// Stats.
    pub stats: PartitionStats,
    l2_latency: u32,
}

impl MemoryPartition {
    /// Build partition `id` per `cfg`, reserving every queue for its
    /// architectural bound (see module docs for the formulas).
    pub fn new(id: usize, cfg: &GpuConfig) -> Self {
        let reply_bound = cfg.l2.mshr_entries as usize * cfg.l2.mshr_merge as usize
            + cfg.l2.hit_latency as usize
            + 1;
        MemoryPartition {
            id,
            l2: Cache::new(cfg.l2),
            mshr: MshrFile::new(cfg.l2.mshr_entries as usize, cfg.l2.mshr_merge as usize),
            waiters: LineMap::with_capacity(cfg.l2.mshr_entries as usize),
            waiter_pool: Vec::new(),
            in_demand: Port::new(cfg.icnt_queue_depth),
            in_prefetch: Port::new(cfg.icnt_queue_depth),
            hit_pipe: Port::new(cfg.l2.hit_latency as usize + 1),
            reply_out: Port::new(reply_bound),
            pf_reply_out: Port::new(reply_bound),
            // Dirty evictions are produced at fill rate but drain only
            // when FR-FCFS grants the write a slot, so read-heavy
            // phases can starve the queue well past the DRAM depth
            // (FFT reaches ~5x it); 16x headroom keeps steady state
            // allocation-free, the counted growth valve covers the rest.
            wb_q: Port::new(cfg.dram_queue_entries * 16),
            stall_memo: None,
            stats: PartitionStats::default(),
            l2_latency: cfg.l2.hit_latency,
        }
    }

    /// Whether the partition can accept a request of `kind` this cycle
    /// (a credit is free on that class's input port). The two priority
    /// classes have independent input ports so backed-up prefetches
    /// cannot block demand acceptance.
    #[inline]
    pub fn can_accept(&self, kind: AccessKind) -> bool {
        if kind.is_prefetch() {
            self.in_prefetch.credits() > 0
        } else {
            self.in_demand.credits() > 0
        }
    }

    /// Hand a request to the partition (from the interconnect ejection).
    pub fn accept(&mut self, _now: Cycle, req: MemRequest) {
        debug_assert!(self.can_accept(req.kind));
        self.stall_memo = None;
        if req.kind.is_prefetch() {
            self.in_prefetch.push(req);
        } else {
            self.in_demand.push(req);
        }
    }

    /// Register an SM-level waiter on an in-flight line, recycling list
    /// storage from completed fills.
    fn push_waiter(&mut self, line: u64, w: L2Waiter) {
        if let Some(ws) = self.waiters.get_mut(line) {
            ws.push(w);
        } else {
            let mut ws = self.waiter_pool.pop().unwrap_or_default();
            ws.push(w);
            self.waiters.insert(line, ws);
        }
    }

    fn pop_input(&mut self, from_demand: bool) {
        let q = if from_demand {
            &mut self.in_demand
        } else {
            &mut self.in_prefetch
        };
        q.pop();
    }

    /// Whether every queue in the partition is empty (drain check).
    pub fn idle(&self) -> bool {
        self.in_demand.is_empty()
            && self.in_prefetch.is_empty()
            && self.hit_pipe.is_empty()
            && self.reply_out.is_empty()
            && self.pf_reply_out.is_empty()
            && self.mshr.is_empty()
            && self.wb_q.is_empty()
    }

    /// The input request `step` would service this cycle (demand class
    /// first, mirroring the bank-port arbitration).
    fn input_head(&self) -> Option<&MemRequest> {
        self.in_demand.peek().or_else(|| self.in_prefetch.peek())
    }

    /// Whether replies wait to be sent into the reply networks.
    #[inline]
    pub fn has_replies(&self) -> bool {
        !self.reply_out.is_empty() || !self.pf_reply_out.is_empty()
    }

    /// Whether requests or write-backs wait to be serviced; without them
    /// only an external event or [`Self::next_event`] gives
    /// [`Self::step`] anything to do.
    #[inline]
    pub fn has_queued_work(&self) -> bool {
        !self.in_demand.is_empty() || !self.in_prefetch.is_empty() || !self.wb_q.is_empty()
    }

    /// Whether a free DRAM queue slot could let [`Self::step`] progress:
    /// a write-back is queued, or the input head is a load that would
    /// allocate an MSHR entry (heads that hit in L2 or merge never wait
    /// for the DRAM queue).
    #[inline]
    pub fn waits_for_dram_slot(&self) -> bool {
        !self.wb_q.is_empty()
            || self
                .input_head()
                .is_some_and(|r| r.kind != AccessKind::Store && !self.mshr.contains(r.line))
    }

    /// Earliest strictly-future local event: the next L2 hit maturing.
    /// Every other way a stalled partition un-stalls (a DRAM fill, DRAM
    /// queue space, an accepted request) is an event the cycle loop
    /// delivers from outside.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.hit_pipe.peek().map(|&(t, _)| t).filter(|&t| t > now)
    }

    /// Account for `delta` skipped cycles in which [`Self::step`] would
    /// have changed nothing: a stalled input head would have retried
    /// (and recorded a stall) once per cycle.
    pub fn account_skipped(&mut self, delta: u64) {
        if delta == 0 {
            return;
        }
        if let Some(req) = self.input_head() {
            debug_assert!(
                req.kind != AccessKind::Store,
                "a store head always progresses; skip window impossible"
            );
            self.stats.dram_queue_stalls += delta;
        }
    }

    /// Occupancy/stall counters aggregated over every port in this
    /// partition. Host-side reporting only — not part of the
    /// bit-identity contract.
    pub fn port_snapshot(&self) -> PortSnapshot {
        let mut s = self.in_demand.snapshot();
        s.absorb(self.in_prefetch.snapshot());
        s.absorb(self.hit_pipe.snapshot());
        s.absorb(self.reply_out.snapshot());
        s.absorb(self.pf_reply_out.snapshot());
        s.absorb(self.wb_q.snapshot());
        s
    }

    /// Service up to one input request, drain the hit pipe, and process
    /// DRAM completions destined for this partition. Returns whether
    /// anything changed beyond the per-cycle stall counter; a step that
    /// returns `false` repeats identically until an external event or
    /// [`Self::next_event`].
    pub fn step(&mut self, now: Cycle, dram: &mut DramChannel, dram_done: &[DramRequest]) -> bool {
        let mut progressed = false;
        // DRAM fills for this partition → L2 fill + replies.
        for req in dram_done.iter().filter(|r| r.partition == self.id) {
            debug_assert!(!req.is_write);
            progressed = true;
            self.stall_memo = None;
            let mut entry = self.mshr.complete(req.line);
            debug_assert!(entry.line == req.line);
            entry.waiters.clear();
            self.mshr.recycle_waiters(entry.waiters);
            let out = self.l2.fill(req.line, None);
            if let Some(victim) = out.writeback {
                self.wb_q.push((victim, req.kernel));
            }
            if let Some(mut ws) = self.waiters.remove(req.line) {
                for w in ws.drain(..) {
                    let reply = MemReply {
                        line: req.line,
                        sm: w.sm,
                        is_prefetch: w.is_prefetch,
                    };
                    if w.is_prefetch {
                        self.pf_reply_out.push(reply);
                    } else {
                        self.reply_out.push(reply);
                    }
                }
                self.waiter_pool.push(ws);
            }
        }

        // Drain pending write-backs opportunistically (lowest priority
        // at the DRAM queue, batched into row hits by FR-FCFS).
        while !self.wb_q.is_empty() && dram.can_accept() {
            progressed = true;
            let (line, kernel) = self.wb_q.pop().expect("checked non-empty");
            dram.push(DramRequest {
                line,
                is_write: true,
                is_prefetch: false,
                partition: self.id,
                arrival: now,
                kernel,
            });
        }

        // Matured L2 hits become replies.
        while let Some(&(t, r)) = self.hit_pipe.peek() {
            if t > now {
                break;
            }
            progressed = true;
            self.hit_pipe.pop();
            if r.is_prefetch {
                self.pf_reply_out.push(r);
            } else {
                self.reply_out.push(r);
            }
        }

        self.service_input(now, dram) || progressed
    }

    /// The L2 bank port: service one input request, demands first.
    /// Returns `false` when the port is idle or its head stalls.
    fn service_input(&mut self, now: Cycle, dram: &mut DramChannel) -> bool {
        let from_demand = !self.in_demand.is_empty();
        let queue = if from_demand {
            &self.in_demand
        } else {
            &self.in_prefetch
        };
        let Some(&req) = queue.peek() else {
            return false;
        };
        match req.kind {
            AccessKind::Store => {
                // Write-back, write-allocate L2: stores coalesce in the
                // bank; dirty lines reach DRAM only on eviction.
                self.pop_input(from_demand);
                if !self.l2.mark_dirty(req.line) {
                    let out = self.l2.fill_dirty(req.line);
                    if let Some(victim) = out.writeback {
                        self.wb_q.push((victim, req.kernel));
                    }
                }
            }
            AccessKind::DemandLoad | AccessKind::Prefetch => {
                // Memoized stall: the head already missed L2 (no fill
                // since — a fill clears the memo). It stays stalled while
                // its entry exists with a full merge list (merge room
                // frees only on a fill) or, unallocated, while the DRAM
                // queue or MSHR file stays full — all O(1) re-checks.
                if self.stall_memo == Some(req.line) {
                    if !dram.can_accept()
                        || self.mshr.free() == 0
                        || self.mshr.contains(req.line)
                    {
                        self.stats.dram_queue_stalls += 1;
                        return false;
                    }
                    self.stall_memo = None;
                }
                match self.l2.access(req.line) {
                    Lookup::Hit { .. } => {
                        self.stats.accesses += 1;
                        self.stats.hits += 1;
                        self.stats.accesses_by_kernel[req.kernel as usize] += 1;
                        self.stats.hits_by_kernel[req.kernel as usize] += 1;
                        self.pop_input(from_demand);
                        self.hit_pipe.push((
                            now + self.l2_latency as Cycle,
                            MemReply {
                                line: req.line,
                                sm: req.sm,
                                is_prefetch: req.kind.is_prefetch(),
                            },
                        ));
                    }
                    Lookup::Miss => {
                        // Merge or allocate; allocation also needs DRAM
                        // queue space or we stall the input head.
                        if self.mshr.contains(req.line) {
                            let out = self.mshr.demand_miss(req.line, Waiter { warp: 0 });
                            match out {
                                MshrOutcome::Merged { .. } => {
                                    self.stats.accesses += 1;
                                    self.stats.misses += 1;
                                    self.stats.accesses_by_kernel[req.kernel as usize] += 1;
                                    self.stats.misses_by_kernel[req.kernel as usize] += 1;
                                    self.pop_input(from_demand);
                                    self.push_waiter(
                                        req.line,
                                        L2Waiter {
                                            sm: req.sm,
                                            is_prefetch: req.kind.is_prefetch(),
                                        },
                                    );
                                }
                                MshrOutcome::ReservationFail => {
                                    self.stats.dram_queue_stalls += 1;
                                    // Merge capacity exhausted: retry.
                                    self.stall_memo = Some(req.line);
                                    return false;
                                }
                                MshrOutcome::Allocated => {
                                    unreachable!("contains() implies merge")
                                }
                            }
                        } else {
                            if !dram.can_accept() || self.mshr.free() == 0 {
                                self.stats.dram_queue_stalls += 1;
                                self.stall_memo = Some(req.line);
                                return false;
                            }
                            let out = self.mshr.demand_miss(req.line, Waiter { warp: 0 });
                            debug_assert_eq!(out, MshrOutcome::Allocated);
                            self.stats.accesses += 1;
                            self.stats.misses += 1;
                            self.stats.accesses_by_kernel[req.kernel as usize] += 1;
                            self.stats.misses_by_kernel[req.kernel as usize] += 1;
                            self.pop_input(from_demand);
                            self.push_waiter(
                                req.line,
                                L2Waiter {
                                    sm: req.sm,
                                    is_prefetch: req.kind.is_prefetch(),
                                },
                            );
                            dram.push(DramRequest {
                                line: req.line,
                                is_write: false,
                                is_prefetch: req.kind.is_prefetch(),
                                partition: self.id,
                                arrival: now,
                                kernel: req.kernel,
                            });
                        }
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (MemoryPartition, DramChannel) {
        let cfg = GpuConfig::fermi_gtx480();
        (MemoryPartition::new(0, &cfg), DramChannel::new(&cfg))
    }

    fn load(line: u64, sm: usize) -> MemRequest {
        MemRequest {
            line,
            kind: AccessKind::DemandLoad,
            sm,
            kernel: 0,
        }
    }

    fn run(
        p: &mut MemoryPartition,
        d: &mut DramChannel,
        from: Cycle,
        cycles: u64,
    ) -> Vec<MemReply> {
        let mut replies = Vec::new();
        let mut done = Vec::new();
        for now in from..from + cycles {
            done.clear();
            d.step(now, &mut done);
            p.step(now, d, &done);
            replies.extend(p.reply_out.drain());
            replies.extend(p.pf_reply_out.drain());
        }
        replies
    }

    #[test]
    fn miss_goes_to_dram_and_replies_once() {
        let (mut p, mut d) = setup();
        p.accept(0, load(0x1000, 3));
        let replies = run(&mut p, &mut d, 0, 500);
        assert_eq!(replies.len(), 1);
        assert_eq!(
            replies[0],
            MemReply {
                line: 0x1000,
                sm: 3,
                is_prefetch: false
            }
        );
        assert_eq!(p.stats.misses, 1);
        assert_eq!(d.reads, 1);
        assert!(p.idle());
    }

    #[test]
    fn second_access_hits_in_l2() {
        let (mut p, mut d) = setup();
        p.accept(0, load(0x1000, 0));
        let _ = run(&mut p, &mut d, 0, 500);
        p.accept(500, load(0x1000, 1));
        let replies = run(&mut p, &mut d, 500, 100);
        assert_eq!(replies.len(), 1);
        assert_eq!(p.stats.hits, 1);
        assert_eq!(d.reads, 1, "no extra DRAM read on L2 hit");
    }

    #[test]
    fn concurrent_misses_to_same_line_merge() {
        let (mut p, mut d) = setup();
        p.accept(0, load(0x2000, 0));
        p.accept(0, load(0x2000, 1));
        let replies = run(&mut p, &mut d, 0, 500);
        assert_eq!(replies.len(), 2, "each SM gets its reply");
        assert_eq!(d.reads, 1, "one DRAM read services both");
    }

    #[test]
    fn store_allocates_dirty_without_reply_or_immediate_write() {
        let (mut p, mut d) = setup();
        p.accept(
            0,
            MemRequest {
                line: 0x3000,
                kind: AccessKind::Store,
                sm: 0,
                kernel: 0,
            },
        );
        let replies = run(&mut p, &mut d, 0, 500);
        assert!(replies.is_empty());
        assert_eq!(d.writes, 0, "write-back: DRAM write deferred to eviction");
        // A subsequent load of the stored line hits in L2.
        p.accept(500, load(0x3000, 0));
        let replies = run(&mut p, &mut d, 500, 200);
        assert_eq!(replies.len(), 1);
        assert_eq!(p.stats.hits, 1);
    }

    #[test]
    fn dirty_eviction_reaches_dram() {
        let (mut p, mut d) = setup();
        // Dirty one line, then stream more distinct lines than the L2
        // holds (64 KiB / 128 B = 512 lines): the dirty victim must be
        // written back regardless of the hashed set mapping.
        p.accept(
            0,
            MemRequest {
                line: 0x0,
                kind: AccessKind::Store,
                sm: 0,
                kernel: 0,
            },
        );
        let _ = run(&mut p, &mut d, 0, 50);
        let mut t = 50;
        for i in 1..=600u64 {
            p.accept(t, load(i * 128, 0));
            let _ = run(&mut p, &mut d, t, 300);
            t += 300;
        }
        assert!(d.writes >= 1, "evicted dirty line written to DRAM");
    }

    #[test]
    fn input_backpressure_is_visible() {
        let (mut p, _) = setup();
        let depth = GpuConfig::fermi_gtx480().icnt_queue_depth;
        for i in 0..depth {
            assert!(p.can_accept(AccessKind::DemandLoad));
            p.accept(0, load(i as u64 * 128, 0));
        }
        assert!(!p.can_accept(AccessKind::DemandLoad));
        // The prefetch class has its own queue: still accepting.
        assert!(p.can_accept(AccessKind::Prefetch));
    }

    #[test]
    fn dram_queue_full_stalls_head() {
        let (mut p, mut d) = setup();
        // Saturate the DRAM queue directly.
        for i in 0..16 {
            d.push(DramRequest {
                line: i * 4096,
                is_write: false,
                is_prefetch: false,
                partition: 9,
                arrival: 0,
                kernel: 0,
            });
        }
        p.accept(0, load(0x8000, 0));
        // One step with a full queue: the head stalls and records it.
        p.step(0, &mut d, &[]);
        assert!(p.stats.dram_queue_stalls > 0);
        assert_eq!(p.stats.misses, 0);
    }
}
