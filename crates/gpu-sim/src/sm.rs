//! Streaming multiprocessor: issue pipeline, LD/ST unit, L1D with MSHRs,
//! and the prefetch injection port.
//!
//! Per cycle an SM (a) matures L1 hit latencies, (b) lets the LD/ST unit
//! present one line request to the L1 port — demand first, prefetches
//! only on otherwise idle port cycles (lower priority, §V) — and (c)
//! issues one warp instruction chosen by the warp scheduler.

use crate::cache::{Cache, Lookup, PrefetchProvenance};
use crate::coalescer::coalesce;
use crate::config::GpuConfig;
use crate::cta::CtaState;
use crate::interconnect::MemRequest;
use crate::isa::Op;
use crate::kernel::Kernel;
use crate::linemap::LineMap;
use crate::mshr::{MshrFile, MshrOutcome, PrefetchTag, Waiter};
use crate::port::{Port, PortSnapshot};
use crate::prefetch::{DemandObservation, PrefetchRequest, Prefetcher};
use crate::sched::{Scheduler, WarpScheduler};
use crate::stats::{KernelStats, Stats};
use crate::types::{AccessKind, Addr, CtaCoord, Cycle, KernelId, SmId, WarpSlot, MAX_TENANTS};
use crate::warp::{LoopFrame, WarpCtx, WarpState};

/// Address-space offset of kernel context `k`. Co-resident tenants run
/// in disjoint global-address windows (distinct applications), so every
/// coalesced line is offset by this before it enters the memory path.
/// Kernel 0's offset is zero — the identity that keeps the legacy
/// single-kernel path bit-identical to the pre-tenant simulator.
#[inline]
pub fn kernel_addr_offset(k: KernelId) -> Addr {
    (k as Addr) << 40
}

/// Recover the kernel context from a tenant-offset line address (the
/// inverse of [`kernel_addr_offset`]; masked so a pathological address
/// can never index past the fixed per-kernel counter arrays).
#[inline]
pub fn kernel_of_line(line: Addr) -> KernelId {
    ((line >> 40) as usize & (MAX_TENANTS - 1)) as KernelId
}

/// PC-space tag of kernel context `k`: prefetcher tables are PC-indexed,
/// so observations from different tenants are tagged into disjoint PC
/// windows to keep their streams from cross-pollinating. Kernel 0's tag
/// is zero (identity).
#[inline]
pub fn kernel_pc_tag(k: KernelId) -> u32 {
    (k as u32) << 20
}

/// An in-flight prefetch tracked outside the MSHR file (the prefetch
/// request generator has its own path to L1, Fig. 7 — prefetches must
/// not consume the demand MSHRs that bursty misses already saturate).
#[derive(Debug)]
struct PfInflight {
    tag: PrefetchTag,
    /// Demand waiters that merged into this in-flight prefetch (a *late*
    /// prefetch: correct address, short timing).
    waiters: Vec<WarpSlot>,
}

/// A coalesced warp memory instruction queued at the LD/ST unit.
#[derive(Debug)]
struct MemInst {
    warp: WarpSlot,
    /// The issuing warp's kernel context, kept here so the LD/ST unit
    /// need not read the warp context back.
    kernel: KernelId,
    is_store: bool,
    lines: Vec<Addr>,
    next: usize,
}

/// One streaming multiprocessor.
pub struct Sm {
    /// This SM's index.
    pub id: SmId,
    cfg: GpuConfig,
    warps: Vec<WarpCtx>,
    cta_slots: Vec<Option<CtaState>>,
    warps_per_cta: u32,
    resident_cta_cap: usize,
    scheduler: Scheduler,
    prefetcher: Box<dyn Prefetcher>,
    l1d: Cache,
    mshr: MshrFile,
    /// LD/ST instruction queue; its credit count is the structural
    /// hazard the issue stage checks (`ldst_queue_depth`).
    mem_q: Port<MemInst>,
    /// (enqueue cycle, request) — aged out after `prefetch_max_age`;
    /// drop-oldest at the credit limit.
    pf_q: Port<(Cycle, PrefetchRequest)>,
    /// Prefetch lines currently in flight to memory.
    pf_inflight: LineMap<PfInflight>,
    /// Outbound demand/store requests, drained by the GPU at the
    /// interconnect injection bandwidth. Exhausted credits are the LD/ST
    /// unit's outbound backpressure.
    pub inject_q: Port<MemRequest>,
    /// Outbound prefetch requests — injected only when no demand request
    /// is waiting (lower priority, §V).
    pub pf_inject_q: Port<MemRequest>,
    hit_pipe: Port<(Cycle, WarpSlot)>,
    /// Per-SM statistics (merged by the GPU at the end of a run).
    pub stats: Stats,
    /// Per-kernel (tenant) side counters: additive attribution next to
    /// the machine-wide `stats`, merged by the GPU per tenant.
    pub kstats: [KernelStats; MAX_TENANTS],
    /// CIAO-style throttle level per kernel context, set by the GPU's
    /// interference monitor at window boundaries. Level `L > 0` gates
    /// the tenant's *memory* instructions to cycles where
    /// `now & ((1 << L) - 1) == 0` — a deterministic duty cycle that
    /// needs no extra state; [`Self::next_event`] names the next slot.
    throttle: [u8; MAX_TENANTS],
    scratch_lines: Vec<Addr>,
    pf_scratch: Vec<PrefetchRequest>,
    /// Retired `MemInst` line buffers, reused so the steady-state issue
    /// path allocates nothing.
    line_pool: Vec<Vec<Addr>>,
    active_warps: usize,
    /// Warps currently in [`WarpState::WaitingMem`], kept incrementally
    /// so the per-cycle `mem_wait_cycles` check is O(1).
    waiting_mem: usize,
    /// Memoized stalled LD/ST head: `Some(line)` when the head load
    /// missed L1 and failed its MSHR reservation (or outbound
    /// backpressure). While the O(1) unblock re-checks stay false the
    /// replayed L1 lookup and MSHR probe are skipped (a stalled retry
    /// mutates nothing) and only the per-cycle reservation-fail counter
    /// advances — bit-identical. Cleared by any fill (which frees MSHR
    /// capacity and fills L1).
    stall_memo: Option<Addr>,
    /// Per-slot issue readiness, indexed by warp slot: `busy_until`
    /// while the warp is [`WarpState::Ready`], `Cycle::MAX` otherwise.
    /// A cache-dense mirror of the two [`WarpCtx`] fields the scheduler
    /// predicate reads — the pick scan runs every cycle over up to
    /// eight candidates, and the full `WarpCtx` array across 15 SMs
    /// does not fit in L1d. Updated at every state / `busy_until`
    /// transition; `debug_assert`ed against the source of truth in the
    /// issue predicate.
    issuable_at: Vec<Cycle>,
}

impl Sm {
    /// Build an SM bound to `kernel`'s geometry.
    pub fn new(
        id: SmId,
        cfg: &GpuConfig,
        kernel: &Kernel,
        scheduler: Scheduler,
        prefetcher: Box<dyn Prefetcher>,
    ) -> Self {
        let wpc = kernel.warps_per_cta(cfg.simt_width);
        let by_warps = (cfg.max_warps_per_sm as u32 / wpc).max(1) as usize;
        let resident_cta_cap = cfg.max_ctas_per_sm.min(by_warps);
        Sm {
            id,
            cfg: cfg.clone(),
            warps: (0..cfg.max_warps_per_sm)
                .map(|_| WarpCtx::vacant())
                .collect(),
            cta_slots: vec![None; resident_cta_cap],
            warps_per_cta: wpc,
            resident_cta_cap,
            scheduler,
            prefetcher,
            l1d: Cache::new(cfg.l1d),
            mshr: MshrFile::new(cfg.l1d.mshr_entries as usize, cfg.l1d.mshr_merge as usize),
            mem_q: Port::new(cfg.ldst_queue_depth),
            pf_q: Port::new(cfg.prefetch_queue_depth),
            pf_inflight: LineMap::with_capacity(cfg.prefetch_queue_depth),
            inject_q: Port::new(cfg.ldst_queue_depth * 4),
            pf_inject_q: Port::new(cfg.ldst_queue_depth * 4),
            hit_pipe: Port::new(cfg.l1d.hit_latency as usize + 1),
            stats: Stats::default(),
            kstats: [KernelStats::default(); MAX_TENANTS],
            throttle: [0; MAX_TENANTS],
            scratch_lines: Vec::with_capacity(32),
            pf_scratch: Vec::with_capacity(64),
            line_pool: Vec::new(),
            active_warps: 0,
            waiting_mem: 0,
            stall_memo: None,
            issuable_at: vec![Cycle::MAX; cfg.max_warps_per_sm],
        }
    }

    /// Maximum CTAs this SM can host for the bound kernel.
    #[inline]
    pub fn resident_cta_cap(&self) -> usize {
        self.resident_cta_cap
    }

    /// Re-bind the SM to a new kernel's geometry (applications launch
    /// several kernels, §II-A). The SM must be drained; caches and the
    /// prefetcher's PC-indexed state persist across kernels exactly as
    /// the hardware's would.
    pub fn rebind(&mut self, kernel: &Kernel) {
        assert!(self.is_idle(), "rebind requires a drained SM");
        let wpc = kernel.warps_per_cta(self.cfg.simt_width);
        let by_warps = (self.cfg.max_warps_per_sm as u32 / wpc).max(1) as usize;
        self.resident_cta_cap = self.cfg.max_ctas_per_sm.min(by_warps);
        self.warps_per_cta = wpc;
        self.cta_slots = vec![None; self.resident_cta_cap];
        self.pf_q.clear();
    }

    /// Re-bind the SM for intra-SM co-location (`Shared` policy): CTA
    /// slots are sized for the *widest* co-resident kernel so any
    /// tenant's CTA fits any slot, at the cost of internal slot
    /// fragmentation for narrower tenants — the hardware trade-off of a
    /// fixed slot partition.
    pub fn rebind_shared(&mut self, kernels: &[Kernel]) {
        assert!(self.is_idle(), "rebind requires a drained SM");
        let wpc = kernels
            .iter()
            .map(|k| k.warps_per_cta(self.cfg.simt_width))
            .max()
            .expect("rebind_shared with no kernels");
        let by_warps = (self.cfg.max_warps_per_sm as u32 / wpc).max(1) as usize;
        self.resident_cta_cap = self.cfg.max_ctas_per_sm.min(by_warps);
        self.warps_per_cta = wpc;
        self.cta_slots = vec![None; self.resident_cta_cap];
        self.pf_q.clear();
    }

    /// Install the interference monitor's per-tenant throttle levels.
    pub fn set_throttle(&mut self, levels: [u8; MAX_TENANTS]) {
        self.throttle = levels;
    }

    /// Zero the per-kernel side counters (a tenant run attributes its
    /// own window; the machine-wide [`Stats`] keep accumulating).
    pub fn reset_kernel_stats(&mut self) {
        self.kstats = [KernelStats::default(); MAX_TENANTS];
    }

    /// CTAs of kernel `k` currently resident (Shared-policy quota check).
    pub fn resident_ctas_of(&self, k: KernelId) -> usize {
        self.cta_slots
            .iter()
            .filter(|s| s.as_ref().is_some_and(|c| c.kernel == k))
            .count()
    }

    /// Whether a CTA slot is free.
    pub fn has_free_cta_slot(&self) -> bool {
        self.cta_slots.iter().any(Option::is_none)
    }

    /// Number of warps still executing.
    #[inline]
    pub fn active_warps(&self) -> usize {
        self.active_warps
    }

    /// Whether the SM has fully drained (no warps, queues, or misses).
    pub fn is_idle(&self) -> bool {
        self.active_warps == 0
            && self.mem_q.is_empty()
            && self.hit_pipe.is_empty()
            && self.inject_q.is_empty()
            && self.pf_inject_q.is_empty()
            && self.mshr.is_empty()
            && self.pf_inflight.is_empty()
    }

    /// Next outbound request for the interconnect; demands and stores
    /// strictly precede prefetches.
    pub fn pop_outbound(&mut self) -> Option<MemRequest> {
        self.inject_q.pop().or_else(|| self.pf_inject_q.pop())
    }

    /// Whether outbound requests wait for the interconnect.
    #[inline]
    pub fn has_outbound(&self) -> bool {
        !self.inject_q.is_empty() || !self.pf_inject_q.is_empty()
    }

    /// Occupancy/stall counters aggregated over every port in this SM.
    /// Host-side reporting only — not part of the bit-identity contract.
    pub fn port_snapshot(&self) -> PortSnapshot {
        let mut s = self.mem_q.snapshot();
        s.absorb(self.pf_q.snapshot());
        s.absorb(self.inject_q.snapshot());
        s.absorb(self.pf_inject_q.snapshot());
        s.absorb(self.hit_pipe.snapshot());
        s
    }

    /// Launch a CTA of kernel context `kid` into a free slot. Panics
    /// when no slot is free (the GPU checks [`Self::has_free_cta_slot`]
    /// first). Slot stride follows the SM's bound geometry (the widest
    /// co-resident kernel under `Shared`); the launched warp count is
    /// the launching kernel's own.
    pub fn launch_cta(&mut self, coord: CtaCoord, kid: KernelId, kernel: &Kernel) {
        let slot = self
            .cta_slots
            .iter()
            .position(Option::is_none)
            .expect("launch_cta without a free slot");
        let wpc = kernel.warps_per_cta(self.cfg.simt_width);
        debug_assert!(wpc <= self.warps_per_cta, "CTA wider than slot geometry");
        let base_warp = slot * self.warps_per_cta as usize;
        self.cta_slots[slot] = Some(CtaState::new(coord, base_warp, wpc, kid));
        for i in 0..wpc {
            let w = base_warp + i as usize;
            let leading = i == 0;
            self.warps[w].launch(slot, i, coord, leading, kid);
            self.issuable_at[w] = 0;
            self.scheduler.on_launch(w, leading, (i % 2) as u8);
        }
        self.active_warps += wpc as usize;
        self.prefetcher.on_cta_launch(slot, coord);
        self.stats.ctas_launched += 1;
        self.kstats[kid as usize].ctas_launched += 1;
    }

    /// A fill returned from the memory hierarchy for `line`.
    pub fn on_fill(&mut self, now: Cycle, line: Addr) {
        self.stall_memo = None;
        // Prefetch fills are tracked outside the MSHR file.
        if let Some(pf) = self.pf_inflight.remove(line) {
            let untouched = pf.waiters.is_empty();
            let provenance = untouched.then_some(PrefetchProvenance {
                pc: pf.tag.pc,
                target_warp: pf.tag.target_warp,
                issue_cycle: pf.tag.issue_cycle,
            });
            let outcome = self.l1d.fill(line, provenance);
            if outcome.evicted_unused_prefetch {
                self.stats.prefetch_early_evicted += 1;
            }
            for w in pf.waiters {
                self.complete_load(w);
            }
            // Eager warp wake-up (§V-A): the fill carries the bound warp.
            if untouched {
                if let Some(target) = pf.tag.target_warp {
                    if self.warps[target].is_active() && self.scheduler.on_prefetch_fill(target) {
                        self.stats.prefetch_wakeups += 1;
                    }
                }
            }
            let _ = now;
            return;
        }
        let mut entry = self.mshr.complete(line);
        let outcome = self.l1d.fill(line, None);
        if outcome.evicted_unused_prefetch {
            self.stats.prefetch_early_evicted += 1;
        }
        for w in entry.waiters.drain(..) {
            self.complete_load(w.warp);
        }
        self.mshr.recycle_waiters(entry.waiters);
    }

    fn complete_load(&mut self, w: WarpSlot) {
        let warp = &mut self.warps[w];
        debug_assert!(warp.outstanding_loads > 0);
        warp.outstanding_loads -= 1;
        if warp.outstanding_loads == 0 && warp.state == WarpState::WaitingMem {
            warp.state = WarpState::Ready;
            self.issuable_at[w] = warp.busy_until;
            self.waiting_mem -= 1;
            self.scheduler.on_ready_again(w);
        }
    }

    /// Advance one cycle. Completed CTA coordinates are appended to
    /// `completed` so the GPU can refill slots demand-driven. `kernels`
    /// is the table of co-resident kernel contexts; each warp executes
    /// the program of the context it was launched under (index 0 in the
    /// single-kernel legacy path).
    ///
    /// Returns whether anything changed beyond the per-cycle stall
    /// counters. With empty outbound queues, a step that returns `false`
    /// repeats identically — [`Self::account_skipped`] charges it — until
    /// [`Self::next_event`] or an external event (a fill, a CTA launch, a
    /// throttle change).
    pub fn step(&mut self, now: Cycle, kernels: &[Kernel], completed: &mut Vec<CtaCoord>) -> bool {
        let mut progressed = self.mature_hits(now);
        progressed |= self.ldst_cycle(now);
        progressed |= self.issue_cycle(now, kernels, completed);
        if self.waiting_mem > 0 {
            self.stats.mem_wait_cycles += 1;
        }
        progressed
    }

    /// Earliest future cycle (strictly after `now`) at which this SM can
    /// make progress on its own — without any external fill. Returns
    /// `None` when the SM is purely waiting on the memory system.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let hit = self
            .hit_pipe
            .peek()
            .map(|&(t, _)| t)
            .filter(|&t| t > now);
        // Execution-latency timers of the warps `pick` can choose before
        // the next scheduler event (over-approximation: a wake may still
        // find nothing issuable, which is harmless), read from the dense
        // `issuable_at` mirror (`Cycle::MAX` for warps that are not
        // Ready). Under the two-level policies that is the ready queue:
        // a pending warp is promoted only by an event handler, and every
        // event either steps the SM (a launch, a fill, a matured hit) or
        // comes from a step that progressed, so its timer cannot matter
        // before the SM is visited again.
        let wake = match self.scheduler.ready_queue() {
            Some(ready) => ready
                .iter()
                .map(|&w| self.issuable_at[w])
                .filter(|&t| t > now)
                .min(),
            None => self.issuable_at.iter().copied().filter(|&t| t > now).min(),
        };
        // The queued prefetch head ages out when `now' - t` first
        // exceeds `prefetch_max_age`.
        let pf_age = self
            .pf_q
            .peek()
            .map(|&(t, _)| t + self.cfg.prefetch_max_age as Cycle + 1);
        // A throttled tenant's memory ops issue only in duty-cycle slots.
        let duty = (self.active_warps > 0)
            .then(|| {
                self.throttle
                    .iter()
                    .filter(|&&level| level > 0)
                    .map(|&level| ((now >> level) + 1) << level)
                    .min()
            })
            .flatten();
        [hit, wake, pf_age, duty].into_iter().flatten().min()
    }

    /// Replicate the statistics side effects of `delta` steps that
    /// change nothing (see [`Self::step`]).
    pub fn account_skipped(&mut self, delta: u64) {
        if self.active_warps > 0 {
            // `issue_cycle` finds no candidate every skipped cycle.
            self.stats.stall_cycles += delta;
        }
        if self.waiting_mem > 0 {
            self.stats.mem_wait_cycles += delta;
        }
        if !self.mem_q.is_empty() {
            // The LD/ST head is a load whose only path is a failing MSHR
            // reservation (an outbound-backpressure stall leaves the
            // outbound queue non-empty, so the SM is never idle in it),
            // and it replays once per cycle.
            self.stats.l1d_reservation_fails += delta;
        }
    }

    fn mature_hits(&mut self, now: Cycle) -> bool {
        let mut matured = false;
        while let Some(&(t, w)) = self.hit_pipe.peek() {
            if t > now {
                break;
            }
            self.hit_pipe.pop();
            self.complete_load(w);
            matured = true;
        }
        matured
    }

    /// LD/ST unit cycle. The demand port services the instruction queue;
    /// prefetches inject through their own (rate-limited) port — their
    /// lower priority is enforced by the MSHR reservation and by demand
    /// requests preceding them in the outbound queue. Returns whether
    /// either port changed anything.
    fn ldst_cycle(&mut self, now: Cycle) -> bool {
        let demand = !self.mem_q.is_empty() && self.demand_port_cycle(now);
        // Every prefetch-port action (age-out, redundant drop, issue)
        // pops the queue, so its length tells whether the port acted.
        let queued = self.pf_q.len();
        for _ in 0..self.cfg.prefetch_issue_per_cycle {
            if !self.prefetch_port_cycle(now) {
                break;
            }
        }
        demand || self.pf_q.len() != queued
    }

    /// Present the LD/ST head's next line to L1. Returns `false` when
    /// the head stalls (a failed MSHR reservation or outbound
    /// backpressure) and `true` when it advanced.
    fn demand_port_cycle(&mut self, now: Cycle) -> bool {
        let Some(inst) = self.mem_q.peek_mut() else {
            return false;
        };
        let line = inst.lines[inst.next];
        let warp = inst.warp;
        let is_store = inst.is_store;
        let kid = inst.kernel as usize;

        if is_store {
            if self.inject_q.credits() == 0 {
                self.inject_q.note_stall();
                return false; // outbound backpressure; retry
            }
            // Write-evict, no-allocate: drop a stale copy.
            if self.l1d.invalidate(line).is_some() {
                self.stats.prefetch_early_evicted += 1;
            }
            self.stats.store_accesses += 1;
            self.push_request(line, AccessKind::Store);
            self.advance_mem_inst();
            return true;
        }

        // Memoized stall: the head already missed L1 (no fill since — a
        // fill clears the memo). An in-flight prefetch for the line
        // would merge it forward; otherwise it stays stalled while its
        // MSHR entry exists with a full merge list (room frees only on
        // a fill) or, unallocated, while the outbound queue or MSHR
        // file stays full — all O(1) re-checks.
        if self.stall_memo == Some(line) {
            if !self.pf_inflight.contains(line)
                && (self.mshr.contains(line)
                    || self.inject_q.credits() == 0
                    || self.mshr.free() == 0)
            {
                self.stats.l1d_reservation_fails += 1;
                return false;
            }
            self.stall_memo = None;
        }

        match self.l1d.access(line) {
            Lookup::Hit {
                first_use_of_prefetch,
            } => {
                self.stats.l1d_demand_accesses += 1;
                self.stats.l1d_demand_hits += 1;
                self.kstats[kid].l1d_accesses += 1;
                if let Some(p) = first_use_of_prefetch {
                    self.stats.prefetch_useful += 1;
                    self.stats.prefetch_distance_sum += now.saturating_sub(p.issue_cycle);
                    self.stats.prefetch_distance_count += 1;
                }
                self.hit_pipe
                    .push((now + self.cfg.l1d.hit_latency as Cycle, warp));
                self.advance_mem_inst();
            }
            Lookup::Miss => {
                // Demand to a line with an in-flight prefetch: merge into
                // it — a *late* prefetch still hides part of the latency.
                if let Some(pf) = self.pf_inflight.get_mut(line) {
                    self.stats.l1d_demand_accesses += 1;
                    self.stats.l1d_demand_misses += 1;
                    self.kstats[kid].l1d_accesses += 1;
                    self.kstats[kid].l1d_misses += 1;
                    if pf.waiters.is_empty() {
                        self.stats.prefetch_late += 1;
                    }
                    pf.waiters.push(warp);
                    self.advance_mem_inst();
                    return true;
                }
                let will_allocate = !self.mshr.contains(line);
                if will_allocate && self.inject_q.credits() == 0 {
                    self.inject_q.note_stall();
                    self.stats.l1d_reservation_fails += 1;
                    self.stall_memo = Some(line);
                    return false;
                }
                match self.mshr.demand_miss(line, Waiter { warp }) {
                    MshrOutcome::Allocated => {
                        self.stats.l1d_demand_accesses += 1;
                        self.stats.l1d_demand_misses += 1;
                        self.kstats[kid].l1d_accesses += 1;
                        self.kstats[kid].l1d_misses += 1;
                        self.push_request(line, AccessKind::DemandLoad);
                        let mut scratch = std::mem::take(&mut self.pf_scratch);
                        self.prefetcher.on_l1_miss(now, line, &mut scratch);
                        self.pf_scratch = scratch;
                        self.enqueue_prefetches(now);
                        self.advance_mem_inst();
                    }
                    MshrOutcome::Merged {
                        hit_inflight_prefetch,
                    } => {
                        self.stats.l1d_demand_accesses += 1;
                        self.stats.l1d_demand_misses += 1;
                        self.kstats[kid].l1d_accesses += 1;
                        self.kstats[kid].l1d_misses += 1;
                        self.stats.l1d_mshr_merges += 1;
                        if hit_inflight_prefetch {
                            self.stats.prefetch_late += 1;
                        }
                        self.advance_mem_inst();
                    }
                    MshrOutcome::ReservationFail => {
                        self.stats.l1d_reservation_fails += 1;
                        // Head of queue replays next cycle.
                        self.stall_memo = Some(line);
                        return false;
                    }
                }
            }
        }
        true
    }

    fn advance_mem_inst(&mut self) {
        let inst = self.mem_q.peek_mut().expect("advance on empty queue");
        inst.next += 1;
        if inst.next == inst.lines.len() {
            let inst = self.mem_q.pop().expect("checked non-empty");
            self.line_pool.push(inst.lines);
        }
    }

    /// A line buffer for a new [`MemInst`], holding a copy of
    /// `scratch_lines`: recycled from the pool when possible.
    fn take_lines(&mut self) -> Vec<Addr> {
        let mut lines = self.line_pool.pop().unwrap_or_default();
        lines.clear();
        lines.extend_from_slice(&self.scratch_lines);
        lines
    }

    /// Returns `false` when the prefetch queue is empty or blocked.
    fn prefetch_port_cycle(&mut self, now: Cycle) -> bool {
        // Age out stale requests: their demand window has passed and
        // issuing them would only pollute the cache.
        while let Some(&(t, _)) = self.pf_q.peek() {
            if now.saturating_sub(t) <= self.cfg.prefetch_max_age as Cycle {
                break;
            }
            self.pf_q.pop();
            self.stats.prefetch_dropped += 1;
        }
        let Some(&(_, req)) = self.pf_q.peek() else {
            return false;
        };
        // Redundant: already cached, already demanded (MSHR), or already
        // being prefetched.
        if self.l1d.probe(req.line)
            || self.mshr.contains(req.line)
            || self.pf_inflight.contains(req.line)
        {
            self.pf_q.pop();
            self.stats.prefetch_dropped += 1;
            return true;
        }
        if self.pf_inject_q.credits() == 0 {
            self.pf_inject_q.note_stall();
            return false; // backpressure; retry later
        }
        if self.pf_inflight.len() >= self.cfg.prefetch_queue_depth {
            return false; // in-flight cap; retry later
        }
        self.pf_q.pop();
        let tag = PrefetchTag {
            target_warp: req.target_warp,
            pc: req.pc,
            issue_cycle: now,
        };
        self.pf_inflight.insert(
            req.line,
            PfInflight {
                tag,
                waiters: Vec::new(),
            },
        );
        self.stats.prefetch_issued += 1;
        self.push_request(req.line, AccessKind::Prefetch);
        true
    }

    fn push_request(&mut self, line: Addr, kind: AccessKind) {
        self.stats.icnt_requests += 1;
        // The tenant tag is recovered from the line's address-space
        // window — one uniform rule for demand, store, and prefetch
        // traffic, since every line was offset at coalescing time.
        let req = MemRequest {
            line,
            kind,
            sm: self.id,
            kernel: kernel_of_line(line),
        };
        if kind.is_prefetch() {
            self.pf_inject_q.push(req);
        } else {
            self.inject_q.push(req);
        }
    }

    fn enqueue_prefetches(&mut self, now: Cycle) {
        for req in self.pf_scratch.drain(..) {
            if self.pf_q.iter().any(|(_, r)| r.line == req.line) {
                self.stats.prefetch_dropped += 1;
                continue;
            }
            if self.pf_q.credits() == 0 {
                // Drop the *oldest* queued request: newer predictions
                // have a live demand window, old ones are going stale.
                self.pf_q.pop();
                self.stats.prefetch_dropped += 1;
            }
            self.pf_q.push((now, req));
        }
    }

    /// Issue one warp instruction; returns whether a warp issued.
    fn issue_cycle(&mut self, now: Cycle, kernels: &[Kernel], completed: &mut Vec<CtaCoord>) -> bool {
        if self.active_warps == 0 {
            return false;
        }
        // Structural hazard: memory ops need LD/ST queue space, and a
        // throttled tenant's memory ops are duty-cycle gated. With room
        // in the queue and no tenant throttled (the common case) the
        // predicate never reads the warp context or the op table.
        let mem_q_open = self.mem_q.credits() > 0;
        let mem_gated = !mem_q_open || self.throttle != [0; MAX_TENANTS];
        let warps = &self.warps;
        let issuable_at = &self.issuable_at;
        let throttle = &self.throttle;
        let can_issue = |w: WarpSlot| {
            debug_assert_eq!(
                issuable_at[w],
                if warps[w].state == WarpState::Ready {
                    warps[w].busy_until
                } else {
                    Cycle::MAX
                },
                "issuable_at mirror out of sync for slot {w}"
            );
            if issuable_at[w] > now {
                return false;
            }
            if !mem_gated {
                return true;
            }
            let kid = warps[w].kernel as usize;
            if !kernels[kid].program.op_is_mem(warps[w].pc) {
                return true;
            }
            let level = throttle[kid];
            mem_q_open && (level == 0 || now & ((1u64 << level) - 1) == 0)
        };
        let Some(w) = self.scheduler.pick(now, can_issue) else {
            self.stats.stall_cycles += 1;
            return false;
        };
        self.execute(now, w, kernels, completed);
        true
    }

    fn execute(&mut self, now: Cycle, w: WarpSlot, kernels: &[Kernel], completed: &mut Vec<CtaCoord>) {
        let kid = self.warps[w].kernel;
        let kernel = &kernels[kid as usize];
        let op = kernel.program.op(self.warps[w].pc);
        if !matches!(&op, Op::WaitLoads) {
            self.kstats[kid as usize].instructions += 1;
        }
        match op {
            Op::Alu { cycles } => {
                let warp = &mut self.warps[w];
                warp.busy_until = now + cycles as Cycle;
                self.issuable_at[w] = warp.busy_until;
                warp.pc += 1;
                self.stats.warp_instructions += 1;
            }
            Op::Ld {
                pc,
                pattern,
                active_lanes,
            } => {
                let (cta, wic, iter, cta_slot) = {
                    let warp = &self.warps[w];
                    (
                        warp.cta,
                        warp.warp_in_cta,
                        warp.current_iter(),
                        warp.cta_slot,
                    )
                };
                // The leading warp's first load registers its CTA's base
                // addresses; afterwards it loses its scheduling priority
                // (it would otherwise run ahead of its whole CTA).
                if self.warps[w].leading {
                    self.warps[w].leading = false;
                    self.scheduler.on_leading_done(w);
                }
                coalesce(
                    &pattern,
                    cta,
                    wic,
                    iter,
                    active_lanes,
                    self.cfg.l1d.line_size,
                    &mut self.scratch_lines,
                );
                // Shift this tenant's lines into its private address
                // window; kernel 0 shifts by zero (bit-identity).
                let off = kernel_addr_offset(kid);
                if off != 0 {
                    for l in &mut self.scratch_lines {
                        *l += off;
                    }
                }
                let warp = &mut self.warps[w];
                warp.outstanding_loads += self.scratch_lines.len() as u32;
                warp.pc += 1;
                self.stats.warp_instructions += 1;
                let lines = self.take_lines();
                self.mem_q.push(MemInst {
                    warp: w,
                    kernel: kid,
                    is_store: false,
                    lines,
                    next: 0,
                });
                let obs = DemandObservation {
                    cycle: now,
                    pc: pc | kernel_pc_tag(kid),
                    cta_slot,
                    cta,
                    warp_in_cta: wic,
                    warp_slot: w,
                    warps_per_cta: self.warps_per_cta,
                    lines: &self.scratch_lines,
                    is_affine: pattern.is_affine(),
                    iter,
                };
                self.prefetcher.on_demand(&obs, &mut self.pf_scratch);
                self.enqueue_prefetches(now);
            }
            Op::St {
                pc: _,
                pattern,
                active_lanes,
            } => {
                let (cta, wic, iter) = {
                    let warp = &self.warps[w];
                    (warp.cta, warp.warp_in_cta, warp.current_iter())
                };
                coalesce(
                    &pattern,
                    cta,
                    wic,
                    iter,
                    active_lanes,
                    self.cfg.l1d.line_size,
                    &mut self.scratch_lines,
                );
                let off = kernel_addr_offset(kid);
                if off != 0 {
                    for l in &mut self.scratch_lines {
                        *l += off;
                    }
                }
                self.warps[w].pc += 1;
                self.stats.warp_instructions += 1;
                let lines = self.take_lines();
                self.mem_q.push(MemInst {
                    warp: w,
                    kernel: kid,
                    is_store: true,
                    lines,
                    next: 0,
                });
            }
            Op::WaitLoads => {
                let warp = &mut self.warps[w];
                warp.pc += 1;
                if warp.outstanding_loads > 0 {
                    warp.state = WarpState::WaitingMem;
                    self.issuable_at[w] = Cycle::MAX;
                    self.waiting_mem += 1;
                    self.scheduler.on_long_latency(w);
                }
            }
            Op::LoopBegin { iters, .. } => {
                let warp = &mut self.warps[w];
                let start = warp.pc;
                warp.loop_stack.push(LoopFrame {
                    start,
                    remaining: iters,
                    iter: 0,
                });
                warp.pc += 1;
                self.stats.warp_instructions += 1;
            }
            Op::LoopEnd { start } => {
                let warp = &mut self.warps[w];
                let frame = warp.loop_stack.last_mut().expect("LoopEnd without frame");
                debug_assert_eq!(frame.start, start);
                frame.remaining -= 1;
                if frame.remaining > 0 {
                    frame.iter += 1;
                    warp.pc = start + 1;
                } else {
                    warp.loop_stack.pop();
                    warp.pc += 1;
                }
                self.stats.warp_instructions += 1;
            }
            Op::SkipIf { modulo, len } => {
                let warp = &mut self.warps[w];
                let taken =
                    crate::isa::warp_predicate(warp.cta, warp.warp_in_cta, warp.current_iter(), modulo);
                warp.pc += if taken { 1 } else { len + 1 };
                self.stats.warp_instructions += 1; // the predicate/branch
            }
            Op::Barrier => {
                let slot = self.warps[w].cta_slot;
                self.warps[w].pc += 1;
                self.stats.warp_instructions += 1;
                let cta = self.cta_slots[slot]
                    .as_mut()
                    .expect("barrier in vacant CTA slot");
                if cta.arrive_barrier() {
                    // Release every warp of this CTA parked at the barrier.
                    let slots = cta.warp_slots();
                    for ws in slots {
                        if self.warps[ws].state == WarpState::AtBarrier {
                            self.warps[ws].state = WarpState::Ready;
                            self.issuable_at[ws] = self.warps[ws].busy_until;
                            self.scheduler.on_ready_again(ws);
                        }
                    }
                } else {
                    // Parked warps must not clog the ready queue: treat
                    // the barrier as a long-latency event (demote), or
                    // CTAs deadlock waiting for mates stuck in pending.
                    self.warps[w].state = WarpState::AtBarrier;
                    self.issuable_at[w] = Cycle::MAX;
                    self.scheduler.on_long_latency(w);
                }
            }
        }
        if self.warps[w].pc >= kernel.program.len() {
            self.finish_warp(w, completed);
        }
    }

    fn finish_warp(&mut self, w: WarpSlot, completed: &mut Vec<CtaCoord>) {
        let slot = self.warps[w].cta_slot;
        self.warps[w].state = WarpState::Finished;
        self.issuable_at[w] = Cycle::MAX;
        self.scheduler.on_finish(w);
        self.active_warps -= 1;
        let cta = self.cta_slots[slot]
            .as_mut()
            .expect("finish in vacant CTA slot");
        if cta.warp_finished() {
            let coord = cta.coord;
            let kid = cta.kernel;
            self.cta_slots[slot] = None;
            self.prefetcher.on_cta_complete(slot);
            self.stats.ctas_completed += 1;
            self.kstats[kid as usize].ctas_completed += 1;
            completed.push(coord);
        }
    }

    /// Fold prefetcher-side counters into the stats (call once at end).
    pub fn finalize(&mut self) {
        self.stats.prefetch_table_accesses = self.prefetcher.table_accesses();
        self.stats.prefetch_mispredicts = self.prefetcher.mispredicts();
        self.stats.prefetch_unused_resident = self.l1d.unconsumed_prefetched_lines();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{AddrPattern, AffinePattern, CtaTerm, ProgramBuilder};
    use crate::prefetch::NullPrefetcher;
    use crate::sched::make_scheduler;

    fn dense(base: Addr) -> AddrPattern {
        AddrPattern::Affine(AffinePattern::dense(
            base,
            CtaTerm::Linear { pitch: 1 << 16 },
        ))
    }

    fn kernel(prog: crate::isa::Program) -> Kernel {
        Kernel::new("t", (4, 1), 64, prog)
    }

    fn sm(kernel: &Kernel) -> Sm {
        let cfg = GpuConfig::fermi_gtx480();
        Sm::new(
            0,
            &cfg,
            kernel,
            make_scheduler(&cfg),
            Box::new(NullPrefetcher),
        )
    }

    /// Drive the SM standalone, servicing its memory requests with a
    /// fixed-latency loopback memory.
    fn run_to_completion(sm: &mut Sm, kernel: &Kernel, mem_latency: Cycle) -> (Cycle, usize) {
        use std::collections::VecDeque;
        let mut completed = Vec::new();
        let mut inflight: VecDeque<(Cycle, Addr)> = VecDeque::new();
        let mut now = 0;
        while !sm.is_idle() {
            while let Some(&(t, line)) = inflight.front() {
                if t > now {
                    break;
                }
                inflight.pop_front();
                sm.on_fill(now, line);
            }
            sm.step(now, std::slice::from_ref(kernel), &mut completed);
            while let Some(req) = sm.inject_q.pop() {
                if req.kind != AccessKind::Store {
                    inflight.push_back((now + mem_latency, req.line));
                }
            }
            now += 1;
            assert!(now < 2_000_000, "SM test did not converge");
        }
        (now, completed.len())
    }

    #[test]
    fn single_cta_runs_to_completion() {
        let prog = ProgramBuilder::new()
            .alu(4)
            .ld(dense(0))
            .wait()
            .alu(4)
            .build();
        let k = kernel(prog);
        let mut s = sm(&k);
        s.launch_cta(k.cta_coord(0), 0, &k);
        assert_eq!(s.active_warps(), 2);
        let (_cycles, done) = run_to_completion(&mut s, &k, 200);
        assert_eq!(done, 1);
        assert_eq!(s.stats.ctas_completed, 1);
        assert!(s.has_free_cta_slot());
        assert_eq!(s.active_warps(), 0);
    }

    #[test]
    fn load_miss_then_hit_counted() {
        // Two warps load the same line: first misses, second hits or
        // merges.
        let prog = ProgramBuilder::new()
            .ld(AddrPattern::Affine(AffinePattern {
                base: 0,
                cta_term: CtaTerm::Linear { pitch: 0 },
                warp_stride: 0, // both warps, same line
                lane_stride: 4,
                iter_stride: 0,
            }))
            .wait()
            .build();
        let k = kernel(prog);
        let mut s = sm(&k);
        s.launch_cta(k.cta_coord(0), 0, &k);
        let _ = run_to_completion(&mut s, &k, 100);
        assert_eq!(s.stats.l1d_demand_accesses, 2);
        assert_eq!(s.stats.l1d_demand_misses + s.stats.l1d_demand_hits, 2);
        assert!(s.stats.l1d_demand_misses >= 1);
    }

    #[test]
    fn wait_loads_demotes_and_wakes() {
        let prog = ProgramBuilder::new().ld(dense(0)).wait().alu(1).build();
        let k = kernel(prog);
        let mut s = sm(&k);
        s.launch_cta(k.cta_coord(0), 0, &k);
        let (cycles, _) = run_to_completion(&mut s, &k, 300);
        // The warp must have waited for ~300-cycle memory.
        assert!(cycles >= 300, "finished too fast: {cycles}");
        assert!(s.stats.mem_wait_cycles > 0);
        assert!(s.stats.stall_cycles > 0);
    }

    #[test]
    fn instruction_count_matches_program_semantics() {
        // 2 warps × (alu + ld + loopbegin + (alu + loopend)×3) ;
        // WaitLoads is not counted.
        let prog = ProgramBuilder::new()
            .alu(1)
            .ld(dense(0))
            .wait()
            .begin_loop(3)
            .alu(1)
            .end_loop()
            .build();
        let k = kernel(prog);
        let mut s = sm(&k);
        s.launch_cta(k.cta_coord(0), 0, &k);
        let _ = run_to_completion(&mut s, &k, 50);
        // per warp: alu(1) + ld(1) + loopbegin(1) + 3×(alu+loopend)
        let per_warp = 1 + 1 + 1 + 3 * 2;
        assert_eq!(s.stats.warp_instructions, 2 * per_warp);
    }

    #[test]
    fn barrier_synchronizes_cta() {
        let prog = ProgramBuilder::new().alu(8).barrier().alu(1).build();
        let k = kernel(prog);
        let mut s = sm(&k);
        s.launch_cta(k.cta_coord(0), 0, &k);
        let (_, done) = run_to_completion(&mut s, &k, 50);
        assert_eq!(done, 1);
    }

    #[test]
    fn stores_generate_traffic_without_blocking() {
        let prog = ProgramBuilder::new().st(dense(0)).alu(1).build();
        let k = kernel(prog);
        let mut s = sm(&k);
        s.launch_cta(k.cta_coord(0), 0, &k);
        let _ = run_to_completion(&mut s, &k, 100);
        assert_eq!(s.stats.store_accesses, 2);
        assert_eq!(s.stats.icnt_requests, 2);
    }

    #[test]
    fn divergent_load_occupies_ldst_longer() {
        let wide = AddrPattern::Affine(AffinePattern {
            base: 0,
            cta_term: CtaTerm::Linear { pitch: 1 << 20 },
            warp_stride: 1 << 16,
            lane_stride: 128, // one line per lane
            iter_stride: 0,
        });
        let prog = ProgramBuilder::new().ld(wide).wait().build();
        let k = kernel(prog);
        let mut s = sm(&k);
        s.launch_cta(k.cta_coord(0), 0, &k);
        let _ = run_to_completion(&mut s, &k, 100);
        // 2 warps × 32 lines each.
        assert_eq!(s.stats.l1d_demand_accesses, 64);
    }

    /// Scripted engine: prefetches `line + 128` of every demanded line,
    /// bound to the issuing warp.
    struct NextLineForWarp;

    impl Prefetcher for NextLineForWarp {
        fn name(&self) -> &'static str {
            "TEST"
        }
        fn on_demand(
            &mut self,
            obs: &DemandObservation<'_>,
            out: &mut Vec<crate::prefetch::PrefetchRequest>,
        ) {
            for &l in obs.lines {
                out.push(crate::prefetch::PrefetchRequest {
                    line: l + 128,
                    pc: obs.pc,
                    target_warp: Some(obs.warp_slot),
                });
            }
        }
    }

    fn run_with_prefetcher(s: &mut Sm, kernel: &Kernel, mem_latency: Cycle) -> (Cycle, usize) {
        use std::collections::VecDeque;
        let mut completed = Vec::new();
        let mut inflight: VecDeque<(Cycle, Addr)> = VecDeque::new();
        let mut now = 0;
        while !s.is_idle() {
            while let Some(&(t, line)) = inflight.front() {
                if t > now {
                    break;
                }
                inflight.pop_front();
                s.on_fill(now, line);
            }
            s.step(now, std::slice::from_ref(kernel), &mut completed);
            while let Some(req) = s.pop_outbound() {
                if req.kind != AccessKind::Store {
                    inflight.push_back((now + mem_latency, req.line));
                }
            }
            now += 1;
            assert!(now < 2_000_000, "SM test did not converge");
        }
        (now, completed.len())
    }

    #[test]
    fn prefetches_issue_fill_and_are_consumed_or_counted() {
        // Two loads per warp at +0 and +128: the scripted prefetcher's
        // next-line guesses for the first load match the second load.
        let prog = ProgramBuilder::new()
            .ld(dense(0))
            .wait()
            .alu(64)
            .ld(AddrPattern::Affine(AffinePattern {
                base: 128,
                cta_term: CtaTerm::Linear { pitch: 1 << 16 },
                warp_stride: 128,
                lane_stride: 4,
                iter_stride: 0,
            }))
            .wait()
            .build();
        let k = kernel(prog);
        let cfg = GpuConfig::fermi_gtx480();
        let mut s = Sm::new(0, &cfg, &k, make_scheduler(&cfg), Box::new(NextLineForWarp));
        s.launch_cta(k.cta_coord(0), 0, &k);
        let _ = run_with_prefetcher(&mut s, &k, 120);
        s.finalize();
        assert!(s.stats.prefetch_issued > 0, "prefetches must be issued");
        let accounted = s.stats.prefetch_useful
            + s.stats.prefetch_late
            + s.stats.prefetch_early_evicted
            + s.stats.prefetch_unused_resident;
        assert_eq!(accounted, s.stats.prefetch_issued, "every fill accounted");
        assert!(s.stats.prefetch_useful + s.stats.prefetch_late > 0);
    }

    #[test]
    fn duplicate_prefetches_are_dropped_not_issued() {
        // Both warps demand the same line; the second prefetch guess
        // duplicates the first and must be dropped.
        let prog = ProgramBuilder::new()
            .ld(AddrPattern::Affine(AffinePattern {
                base: 0,
                cta_term: CtaTerm::Linear { pitch: 0 },
                warp_stride: 0,
                lane_stride: 4,
                iter_stride: 0,
            }))
            .wait()
            .build();
        let k = kernel(prog);
        let cfg = GpuConfig::fermi_gtx480();
        let mut s = Sm::new(0, &cfg, &k, make_scheduler(&cfg), Box::new(NextLineForWarp));
        s.launch_cta(k.cta_coord(0), 0, &k);
        let _ = run_with_prefetcher(&mut s, &k, 80);
        s.finalize();
        assert_eq!(s.stats.prefetch_issued, 1, "one unique line");
        assert!(s.stats.prefetch_dropped >= 1, "the duplicate is dropped");
    }

    #[test]
    fn nested_loops_use_innermost_iteration_for_addresses() {
        // Outer loop 2×, inner loop 3×: the load's iter term follows the
        // *innermost* loop (documented semantics), so the same 3 lines
        // repeat in both outer iterations → exactly 3 unique misses.
        let pat = AddrPattern::Affine(AffinePattern {
            base: 0,
            cta_term: CtaTerm::Linear { pitch: 0 },
            warp_stride: 0,
            lane_stride: 4,
            iter_stride: 128,
        });
        let prog = ProgramBuilder::new()
            .begin_loop(2)
            .begin_loop(3)
            .ld(pat)
            .wait()
            .end_loop()
            .end_loop()
            .build();
        let k = Kernel::new("nested", (1, 1), 32, prog);
        let mut s = sm(&k);
        s.launch_cta(k.cta_coord(0), 0, &k);
        let _ = run_to_completion(&mut s, &k, 40);
        assert_eq!(s.stats.l1d_demand_accesses, 6, "2×3 loads");
        assert_eq!(s.stats.l1d_demand_misses, 3, "3 unique lines, reused by pass 2");
        assert_eq!(s.stats.l1d_demand_hits, 3);
    }

    #[test]
    fn skip_if_diverges_warps_deterministically() {
        // One warp in `modulo` executes the guarded load; totals follow
        // the predicate exactly.
        let prog = ProgramBuilder::new()
            .begin_skip(2)
            .ld(dense(0))
            .wait()
            .end_skip()
            .alu(1)
            .build();
        let k = Kernel::new("skip", (4, 1), 128, prog); // 4 CTAs × 4 warps
        let mut s = sm(&k);
        for c in 0..2 {
            s.launch_cta(k.cta_coord(c), 0, &k);
        }
        let _ = run_to_completion(&mut s, &k, 60);
        let expected: u64 = (0..2u32)
            .flat_map(|c| (0..4u32).map(move |w| (c, w)))
            .filter(|&(c, w)| crate::isa::warp_predicate(k.cta_coord(c), w, 0, 2))
            .count() as u64;
        assert_eq!(s.stats.l1d_demand_accesses, expected);
        assert!(expected < 8, "some warps must skip");
    }

    #[test]
    fn resident_cap_respects_warp_budget() {
        // 16 warps per CTA with 48 warp slots → at most 3 CTAs.
        let prog = ProgramBuilder::new().alu(1).build();
        let k = Kernel::new("t", (8, 1), 512, prog);
        let cfg = GpuConfig::fermi_gtx480();
        let s = Sm::new(0, &cfg, &k, make_scheduler(&cfg), Box::new(NullPrefetcher));
        assert_eq!(s.resident_cta_cap(), 3);
    }
}
